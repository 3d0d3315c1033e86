//! Algorithm `CertainFix` (Fig. 3 of the paper): the per-tuple
//! interaction loop.

use certainfix_relation::{AttrId, AttrSet, MasterIndex, Tuple};
use certainfix_rules::{DependencyGraph, ProbeScratch, RulePlan, RuleSet};

use crate::oracle::UserOracle;
use crate::transfix::transfix_block;

/// Configuration of the interaction loop.
///
/// The loop stops on its own once every attribute is validated, or
/// once no editing rule can contribute anything further: the next
/// suggestion asks for every unvalidated attribute and this round's
/// `TransFix` fixed nothing, or no suggestion is left. That is the
/// behaviour the paper observes for tuples irrelevant to `Σ` and
/// `Dm`: the process ends without a rule-backed certain fix (see
/// [`FixOutcome::gave_up`]).
#[derive(Clone, Debug)]
pub struct CertainFixConfig {
    /// Hard cap on interaction rounds (a safety net; the loop normally
    /// stops earlier).
    pub max_rounds: usize,
}

impl Default for CertainFixConfig {
    fn default() -> Self {
        CertainFixConfig { max_rounds: 16 }
    }
}

/// One round of interaction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RoundReport {
    /// What the framework suggested.
    pub suggested: Vec<AttrId>,
    /// What the user asserted (⊆ suggestion, possibly strict).
    pub asserted: Vec<AttrId>,
    /// Asserted attributes whose value the user had to change.
    pub user_changed: AttrSet,
    /// Attributes written by rules in this round's `TransFix`.
    pub rule_fixed: AttrSet,
    /// Did the validation step confirm a unique fix for the asserted
    /// set? The round's `TransFix` walk returns this verdict
    /// ([`TransFixOutcome::unique`](crate::transfix::TransFixOutcome::unique)),
    /// which equals the chase's (D1). `false` only under inconsistent
    /// master data.
    pub validated_ok: bool,
}

/// Outcome of processing one tuple.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FixOutcome {
    /// The final tuple.
    pub tuple: Tuple,
    /// All validated attributes.
    pub validated: AttrSet,
    /// Union of attributes written by rules across rounds.
    pub rule_fixed: AttrSet,
    /// Union of attributes the user corrected (asserted with a value
    /// different from the tuple's).
    pub user_changed: AttrSet,
    /// Whether a certain fix was reached (all attributes validated).
    pub certain: bool,
    /// First round (1-based) after which every attribute was validated.
    pub certain_at_round: Option<usize>,
    /// `true` iff at least one rule fired — i.e. the fix is backed by
    /// master data rather than produced purely by user assertions.
    pub rule_backed: bool,
    /// `true` iff the loop stopped because no rule could contribute
    /// (tuple irrelevant to `Σ`/`Dm`), leaving attributes unvalidated:
    /// the next suggestion asked for every unvalidated attribute and
    /// the last round's `TransFix` fixed nothing, or no suggestion was
    /// left.
    pub gave_up: bool,
    /// Per-round trace.
    pub rounds: Vec<RoundReport>,
}

impl FixOutcome {
    /// Attributes still not validated.
    pub fn unvalidated(&self, r_len: usize) -> AttrSet {
        AttrSet::full(r_len) - self.validated
    }
}

/// The interaction engine: borrows the precomputed structures and runs
/// the Fig. 3 loop over a block of tuples — a lone tuple is a block of
/// one.
///
/// A round walks the rules once: its `TransFix` pass also returns the
/// validation step's verdict, and routes its key probes through the
/// compiled [`RulePlan`] (compiled from the same
/// `(rules, master)` pair — callers hand in the plan of the epoch the
/// master index belongs to); a worker-owned [`ProbeScratch`] passed to
/// [`run_scratch`](Self::run_scratch) makes the steady-state probe
/// layer allocation-free across all the tuples the worker drains. The
/// plain (plan-free) functions `transfix` / `suggest` survive only as
/// the test-suite's parity oracle.
pub struct CertainFix<'a> {
    rules: &'a RuleSet,
    master: &'a MasterIndex,
    graph: &'a DependencyGraph,
    plan: &'a RulePlan,
    config: CertainFixConfig,
}

impl<'a> CertainFix<'a> {
    /// Bind the engine. `plan` must be compiled against `master`'s
    /// generation.
    pub fn new(
        rules: &'a RuleSet,
        master: &'a MasterIndex,
        graph: &'a DependencyGraph,
        plan: &'a RulePlan,
        config: CertainFixConfig,
    ) -> CertainFix<'a> {
        CertainFix {
            rules,
            master,
            graph,
            plan,
            config,
        }
    }

    /// Run the loop on `dirty`, seeding the first round with
    /// `initial_suggestion` (normally the highest-quality certain
    /// region's `Z`). `next_suggestion` produces follow-up suggestions
    /// — plain [`suggest()`](certainfix_reasoning::suggest::suggest) for `CertainFix`, the BDD-served variant for
    /// `CertainFix+`; it receives the run's [`ProbeScratch`] so a
    /// plan-routed suggestion path reuses the same warm probe buffer.
    pub fn run<O, F>(
        &self,
        dirty: &Tuple,
        initial_suggestion: &[AttrId],
        oracle: &mut O,
        next_suggestion: F,
    ) -> FixOutcome
    where
        O: UserOracle + ?Sized,
        F: FnMut(&Tuple, AttrSet, &mut ProbeScratch) -> Option<Vec<AttrId>>,
    {
        self.run_scratch(
            dirty,
            initial_suggestion,
            oracle,
            next_suggestion,
            &mut ProbeScratch::new(),
        )
    }

    /// [`run`](Self::run) with a caller-owned probe scratch: the
    /// engine's workers hold one per thread so every tuple they repair
    /// reuses the same warm probe buffer.
    pub fn run_scratch<O, F>(
        &self,
        dirty: &Tuple,
        initial_suggestion: &[AttrId],
        mut oracle: &mut O,
        next_suggestion: F,
        scratch: &mut ProbeScratch,
    ) -> FixOutcome
    where
        O: UserOracle + ?Sized,
        F: FnMut(&Tuple, AttrSet, &mut ProbeScratch) -> Option<Vec<AttrId>>,
    {
        self.run_block_scratch(
            std::slice::from_ref(dirty),
            initial_suggestion,
            std::slice::from_mut(&mut oracle),
            next_suggestion,
            scratch,
        )
        .pop()
        .expect("a block of one has one outcome")
    }

    /// Run the Fig. 3 loop for a **block** of independent tuples in
    /// round lockstep, so each round's `TransFix` pass vectorizes its
    /// probes through [`transfix_block`] (key probes grouped by shared
    /// key and resolved to spans of the pinned index, pattern checks
    /// hoisted to a bitmask). `oracles[j]` answers for `dirty[j]`. This
    /// is the only copy of the loop: a lone tuple is a block of one,
    /// which prefetches nothing and probes live.
    ///
    /// **Bit-identity:** each tuple's per-round call sequence (oracle
    /// assertion, `TransFix` with its verdict, follow-up suggestion)
    /// is exactly the one a block of one performs for it alone, and
    /// the tuples are independent, so every [`FixOutcome`] — and the
    /// logical probe count — is the same at every block size. A
    /// stateful `next_suggestion` (a suggestion cache) sees the
    /// tuples' calls interleaved round by round, so callers that pass
    /// one run blocks of one.
    pub fn run_block_scratch<O, F>(
        &self,
        dirty: &[Tuple],
        initial_suggestion: &[AttrId],
        oracles: &mut [O],
        mut next_suggestion: F,
        scratch: &mut ProbeScratch,
    ) -> Vec<FixOutcome>
    where
        O: UserOracle,
        F: FnMut(&Tuple, AttrSet, &mut ProbeScratch) -> Option<Vec<AttrId>>,
    {
        debug_assert_eq!(dirty.len(), oracles.len());
        let r_len = self.rules.r_schema().len();
        let full = AttrSet::full(r_len);

        struct St {
            tuple: Tuple,
            validated: AttrSet,
            rule_fixed: AttrSet,
            user_changed: AttrSet,
            rounds: Vec<RoundReport>,
            suggestion: Vec<AttrId>,
            gave_up: bool,
            done: bool,
        }
        /// Round state carried from the assertion phase to the
        /// post-`TransFix` phase of one active tuple.
        struct Prep {
            j: usize,
            suggested: Vec<AttrId>,
            asserted: Vec<AttrId>,
            user_changed: AttrSet,
            new_validated: AttrSet,
        }
        let mut sts: Vec<St> = dirty
            .iter()
            .map(|t| St {
                tuple: t.clone(),
                validated: AttrSet::EMPTY,
                rule_fixed: AttrSet::EMPTY,
                user_changed: AttrSet::EMPTY,
                rounds: Vec::new(),
                suggestion: initial_suggestion.to_vec(),
                gave_up: false,
                done: false,
            })
            .collect();

        let mut preps: Vec<Prep> = Vec::new();
        loop {
            // (2) per tuple: suggestion top-up and user assertion
            for (j, st) in sts.iter_mut().enumerate() {
                if st.done {
                    continue;
                }
                if st.validated == full || st.rounds.len() >= self.config.max_rounds {
                    st.done = true;
                    continue;
                }
                if st.suggestion.is_empty() {
                    // nothing left to suggest (degenerate); ask for the rest
                    st.suggestion = (full - st.validated).to_vec();
                }
                let asserted = oracles[j].assert_correct(&st.tuple, &st.suggestion);
                let mut round_user_changed = AttrSet::EMPTY;
                let mut asserted_attrs = Vec::with_capacity(asserted.len());
                for (a, v) in asserted {
                    if st.tuple.get(a) != &v {
                        round_user_changed.insert(a);
                    }
                    st.tuple.set(a, v);
                    asserted_attrs.push(a);
                }
                let new_validated =
                    st.validated | asserted_attrs.iter().copied().collect::<AttrSet>();
                preps.push(Prep {
                    j,
                    suggested: st.suggestion.clone(),
                    asserted: asserted_attrs,
                    user_changed: round_user_changed,
                    new_validated,
                });
            }
            if preps.is_empty() {
                break;
            }

            // (3) one vectorized TransFix pass over the active tuples,
            // which also validates: does t[Z′ ∪ S] lead to a unique fix?
            let items: Vec<(&Tuple, AttrSet)> = preps
                .iter()
                .map(|p| (&sts[p.j].tuple, p.new_validated))
                .collect();
            let outs = transfix_block(
                self.rules,
                self.master,
                self.graph,
                self.plan,
                scratch,
                &items,
            );

            // (4) per tuple: absorb the fixes and pick the next round's
            // suggestion
            for (p, out) in preps.drain(..).zip(outs) {
                let st = &mut sts[p.j];
                st.tuple = out.tuple;
                st.validated = out.validated;
                st.rule_fixed |= out.fixed;
                st.user_changed |= p.user_changed;
                st.rounds.push(RoundReport {
                    suggested: p.suggested,
                    asserted: p.asserted,
                    user_changed: p.user_changed,
                    rule_fixed: out.fixed,
                    validated_ok: out.unique,
                });
                if st.validated == full {
                    st.done = true;
                    continue;
                }
                match next_suggestion(&st.tuple, st.validated, scratch) {
                    Some(s) if !s.is_empty() => {
                        // the rules are exhausted when the suggestion
                        // asks for every unvalidated attribute (no rule
                        // would fix one) and this round fixed nothing
                        let s_set: AttrSet = s.iter().copied().collect();
                        if st.validated | s_set == full && out.fixed.is_empty() {
                            st.gave_up = true;
                            st.done = true;
                        } else {
                            st.suggestion = s;
                        }
                    }
                    _ => {
                        st.gave_up = true;
                        st.done = true;
                    }
                }
            }
        }

        sts.into_iter()
            .map(|st| {
                let certain = st.validated == full;
                FixOutcome {
                    certain_at_round: certain.then_some(st.rounds.len()),
                    rule_backed: !st.rule_fixed.is_empty(),
                    tuple: st.tuple,
                    validated: st.validated,
                    rule_fixed: st.rule_fixed,
                    user_changed: st.user_changed,
                    certain,
                    gave_up: st.gave_up,
                    rounds: st.rounds,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::SimulatedUser;
    use certainfix_reasoning::suggest;
    use certainfix_relation::{tuple, Relation, Schema, Value};
    use certainfix_rules::parse_rules;
    use std::sync::Arc;

    fn fig1() -> (Arc<Schema>, RuleSet, MasterIndex, DependencyGraph, RulePlan) {
        let r = Schema::new(
            "R",
            [
                "fn", "ln", "AC", "phn", "type", "str", "city", "zip", "item",
            ],
        )
        .unwrap();
        let rm = Schema::new(
            "Rm",
            [
                "FN", "LN", "AC", "Hphn", "Mphn", "str", "city", "zip", "DOB", "gender",
            ],
        )
        .unwrap();
        let rules = parse_rules(
            r#"
            phi1: match zip ~ zip set AC := AC, str := str, city := city
            phi2: match phn ~ Mphn set fn := FN, ln := LN when type = 2
            phi3: match AC ~ AC, phn ~ Hphn set str := str, city := city, zip := zip when type = 1, AC != '0800'
            phi4: match AC ~ AC set city := city when AC = '0800'
            "#,
            &r,
            &rm,
        )
        .unwrap();
        let master = MasterIndex::new(Arc::new(
            Relation::new(
                rm,
                vec![
                    tuple![
                        "Robert",
                        "Brady",
                        "131",
                        "6884563",
                        "079172485",
                        "51 Elm Row",
                        "Edi",
                        "EH7 4AH",
                        "11/11/55",
                        "M"
                    ],
                    tuple![
                        "Mark",
                        "Smith",
                        "020",
                        "6884563",
                        "075568485",
                        "20 Baker St.",
                        "Lnd",
                        "NW1 6XE",
                        "25/12/67",
                        "M"
                    ],
                ],
            )
            .unwrap(),
        ));
        let graph = DependencyGraph::new(&rules);
        let plan = RulePlan::compile(&rules, &master);
        (r, rules, master, graph, plan)
    }

    fn ids(r: &Schema, names: &[&str]) -> Vec<AttrId> {
        names.iter().map(|n| r.attr(n).unwrap()).collect()
    }

    /// t1's ground truth: Robert Brady's record from s1 + his item.
    fn t1_clean() -> Tuple {
        tuple![
            "Robert",
            "Brady",
            "131",
            "079172485",
            2,
            "51 Elm Row",
            "Edi",
            "EH7 4AH",
            "CD"
        ]
    }

    fn t1_dirty() -> Tuple {
        tuple![
            "Bob",
            "Brady",
            "020",
            "079172485",
            2,
            "501 Elm St.",
            "Edi",
            "EH7 4AH",
            "CD"
        ]
    }

    #[test]
    fn one_round_certain_fix_for_master_backed_tuple() {
        let (r, rules, master, graph, plan) = fig1();
        let engine = CertainFix::new(&rules, &master, &graph, &plan, CertainFixConfig::default());
        let mut user = SimulatedUser::new(t1_clean());
        let outcome = engine.run(
            &t1_dirty(),
            &ids(&r, &["zip", "phn", "type", "item"]),
            &mut user,
            |t, validated, _| suggest(&rules, &master, t, validated).map(|s| s.attrs),
        );
        assert!(outcome.certain);
        assert_eq!(outcome.certain_at_round, Some(1));
        assert!(outcome.rule_backed);
        assert_eq!(outcome.tuple, t1_clean());
        // fn, ln, AC, str, city were rule-fixed
        assert_eq!(outcome.rule_fixed.len(), 5);
        // the user changed nothing: suggested attrs were already right
        assert!(outcome.user_changed.is_empty());
        assert!(!outcome.gave_up);
    }

    #[test]
    fn two_rounds_with_partial_initial_region() {
        // Start from Z = {zip} only: round 1 fixes AC/str/city, then the
        // suggestion pulls in phn/type/item and round 2 completes.
        let (r, rules, master, graph, plan) = fig1();
        let engine = CertainFix::new(&rules, &master, &graph, &plan, CertainFixConfig::default());
        let mut user = SimulatedUser::new(t1_clean());
        let outcome = engine.run(
            &t1_dirty(),
            &ids(&r, &["zip"]),
            &mut user,
            |t, validated, _| suggest(&rules, &master, t, validated).map(|s| s.attrs),
        );
        assert!(outcome.certain);
        assert_eq!(outcome.certain_at_round, Some(2));
        assert_eq!(outcome.tuple, t1_clean());
        assert_eq!(outcome.rounds.len(), 2);
        // round 1 fixed AC/str/city via ϕ1
        assert_eq!(outcome.rounds[0].rule_fixed.len(), 3);
        // round 2's suggestion included phn and type
        let sug2 = &outcome.rounds[1].suggested;
        assert!(sug2.contains(&r.attr("phn").unwrap()));
        assert!(sug2.contains(&r.attr("type").unwrap()));
    }

    #[test]
    fn user_corrections_are_tracked() {
        // Dirty zip: the user must change it during the assertion.
        let (r, rules, master, graph, plan) = fig1();
        let engine = CertainFix::new(&rules, &master, &graph, &plan, CertainFixConfig::default());
        let mut dirty = t1_dirty();
        dirty.set(r.attr("zip").unwrap(), Value::str("WRONG"));
        let mut user = SimulatedUser::new(t1_clean());
        let outcome = engine.run(
            &dirty,
            &ids(&r, &["zip", "phn", "type", "item"]),
            &mut user,
            |t, validated, _| suggest(&rules, &master, t, validated).map(|s| s.attrs),
        );
        assert!(outcome.certain);
        assert!(outcome.user_changed.contains(r.attr("zip").unwrap()));
        assert_eq!(outcome.tuple, t1_clean());
    }

    #[test]
    fn unmatched_tuple_gives_up_without_certain_fix() {
        // An entity absent from Dm: no rule can ever fire; the loop
        // stops as rule-exhausted instead of bothering the user with
        // every attribute.
        let (r, rules, master, graph, plan) = fig1();
        let engine = CertainFix::new(&rules, &master, &graph, &plan, CertainFixConfig::default());
        let clean = tuple![
            "Tim",
            "Poth",
            "990",
            "9978543",
            1,
            "Baker St.",
            "Gla",
            "XX9 9XX",
            "BOOK"
        ];
        let mut dirty = clean.clone();
        dirty.set(r.attr("city").unwrap(), Value::str("Glasgo"));
        let mut user = SimulatedUser::new(clean);
        let outcome = engine.run(
            &dirty,
            &ids(&r, &["zip", "phn", "type", "item"]),
            &mut user,
            |t, validated, _| suggest(&rules, &master, t, validated).map(|s| s.attrs),
        );
        assert!(!outcome.certain);
        assert!(outcome.gave_up);
        assert!(!outcome.rule_backed);
        assert!(outcome.rule_fixed.is_empty());
        assert!(outcome.rounds.len() <= 3);
    }

    /// The round-lockstep block loop is bit-identical to running each
    /// tuple as a block of one — outcomes, round traces, and the
    /// logical probe count — at every block size, across certain /
    /// gave-up / user-corrected tuples.
    #[test]
    fn block_loop_matches_single_tuple_loop() {
        use certainfix_reasoning::suggest_with;
        use certainfix_rules::ProbeScratch;
        let (r, rules, master, graph, plan) = fig1();
        let engine = CertainFix::new(&rules, &master, &graph, &plan, CertainFixConfig::default());
        let unmatched_clean = tuple![
            "Tim",
            "Poth",
            "990",
            "9978543",
            1,
            "Baker St.",
            "Gla",
            "XX9 9XX",
            "BOOK"
        ];
        let mut unmatched_dirty = unmatched_clean.clone();
        unmatched_dirty.set(r.attr("city").unwrap(), Value::str("Glasgo"));
        let mut wrong_zip = t1_dirty();
        wrong_zip.set(r.attr("zip").unwrap(), Value::str("WRONG"));
        let dirties = [t1_dirty(), unmatched_dirty, wrong_zip, t1_clean()];
        let cleans = [t1_clean(), unmatched_clean, t1_clean(), t1_clean()];
        let init = ids(&r, &["zip", "phn", "type", "item"]);
        let next = |t: &Tuple, v: AttrSet, sc: &mut ProbeScratch| {
            suggest_with(&rules, &master, t, v, &plan, sc).map(|s| s.attrs)
        };

        let mut single = ProbeScratch::new();
        let want: Vec<FixOutcome> = dirties
            .iter()
            .zip(&cleans)
            .map(|(d, c)| {
                let mut user = SimulatedUser::new(c.clone());
                engine.run_scratch(d, &init, &mut user, next, &mut single)
            })
            .collect();
        let (want_probes, _, _) = single.take_counters();

        for size in [1, 2, 4] {
            let mut scratch = ProbeScratch::new();
            let got: Vec<FixOutcome> = dirties
                .chunks(size)
                .zip(cleans.chunks(size))
                .flat_map(|(ds, cs)| {
                    let mut users: Vec<SimulatedUser> =
                        cs.iter().map(|c| SimulatedUser::new(c.clone())).collect();
                    engine.run_block_scratch(ds, &init, &mut users, next, &mut scratch)
                })
                .collect();
            assert_eq!(got.len(), want.len());
            for (a, b) in got.iter().zip(&want) {
                assert_eq!(a.tuple, b.tuple, "block size {size}");
                assert_eq!(a.validated, b.validated);
                assert_eq!(a.rule_fixed, b.rule_fixed);
                assert_eq!(a.user_changed, b.user_changed);
                assert_eq!(a.certain, b.certain);
                assert_eq!(a.certain_at_round, b.certain_at_round);
                assert_eq!(a.rule_backed, b.rule_backed);
                assert_eq!(a.gave_up, b.gave_up);
                assert_eq!(a.rounds.len(), b.rounds.len());
                for (ra, rb) in a.rounds.iter().zip(&b.rounds) {
                    assert_eq!(ra.suggested, rb.suggested);
                    assert_eq!(ra.asserted, rb.asserted);
                    assert_eq!(ra.user_changed, rb.user_changed);
                    assert_eq!(ra.rule_fixed, rb.rule_fixed);
                    assert_eq!(ra.validated_ok, rb.validated_ok);
                }
            }
            let (probes, _, _) = scratch.take_counters();
            assert_eq!(probes, want_probes, "logical probes at block size {size}");
        }
    }

    #[test]
    fn rounds_are_bounded() {
        let (r, rules, master, graph, plan) = fig1();
        let config = CertainFixConfig { max_rounds: 2 };
        let engine = CertainFix::new(&rules, &master, &graph, &plan, config);
        let clean = tuple![
            "Tim",
            "Poth",
            "990",
            "9978543",
            1,
            "Baker St.",
            "Gla",
            "XX9 9XX",
            "BOOK"
        ];
        // a user who only ever confirms one attribute per round
        let mut user = SimulatedUser::with_compliance(clean.clone(), 0.0, 3);
        let outcome = engine.run(&clean, &ids(&r, &["zip"]), &mut user, |t, validated, _| {
            suggest(&rules, &master, t, validated).map(|s| s.attrs)
        });
        assert_eq!(outcome.rounds.len(), 2);
        assert!(!outcome.certain);
    }
}
