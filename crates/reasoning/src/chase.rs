//! The unique-fix engine ("the chase").
//!
//! Implements the fixing semantics of Sect. 3 and the PTIME decision
//! procedure from the proof of Theorem 4. Starting from a tuple `t`
//! whose attributes `Zb` are validated, rounds proceed as:
//!
//! 1. collect the frontier `S = {(ϕ, tm)}` of rule/master pairs with
//!    `lhs(ϕ) ∪ lhsp(ϕ) ⊆ Z`, `rhs(ϕ) ∉ Z`, `t ≈ tp`, `t[X] = tm[Xm]`
//!    (step (c));
//! 2. if `S` is empty, `t` is a fixpoint (step (d));
//! 3. if two pairs in `S` prescribe *different* values for one
//!    attribute, report a [`ConflictKind::SameRound`] conflict
//!    (step (e)) — this covers both two different rules and one rule
//!    with two disagreeing master tuples;
//! 4. apply every pair, extending `Z` per `ext(Z, Tc, ϕ)` (step (f));
//! 5. if any rule whose premise is now validated disagrees with a
//!    *derived* attribute (`rhs ∈ Z \ Zb`), report a
//!    [`ConflictKind::Overwrite`] conflict (step (g)): applying that
//!    rule in a different order would have produced a different fix.
//!
//! Steps 1 and 3 never need the frontier's pairs one by one: per target
//! attribute only the first pair and the first disagreeing pair
//! matter. With a compiled plan bound, a round reads both off each
//! applicable rule's hit-list summary (see [`Chase::run_with`]) and so
//! costs O(|Σ|) probes whatever the lists' lengths; the plan-less
//! round walks the full frontier and is the oracle for it.
//!
//! The repair loop runs no chase: its `TransFix` walk returns the same
//! verdict (DETERMINISM.md D1). The chase serves the static analyses
//! (consistency, coverage), the tests and the benchmark's
//! `reasoning.chase.run_us` kernel.
//!
//! Step 5 omits the `dep(·)` cycle guard of the paper's step (g) and
//! reports every disagreement with a derived value. This is
//! *conservative*: it never accepts an inconsistent instance, but may
//! reject rule/master combinations the paper's refined check would
//! admit; for data where master tuples are key-consistent (the MDM
//! assumption of Sect. 1) the two coincide.
//!
//! During static analysis the tuple's unknown cells are `Null` and only
//! validated cells are ever consulted (rule premises are required to be
//! validated), so no three-valued logic is needed. During monitoring
//! the same engine runs on real (possibly dirty) values; non-validated
//! cells are likewise never consulted, only overwritten.

use std::fmt;

use certainfix_relation::{AttrId, AttrSet, MasterIndex, Tuple, Value};
use certainfix_rules::{ProbeScratch, RulePlan, RuleSet};

/// Why two prescriptions clashed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConflictKind {
    /// Two frontier pairs disagreed on the same attribute in one round
    /// (step (e)).
    SameRound,
    /// A rule became applicable after its target was already derived
    /// with a different value (step (g)).
    Overwrite,
}

/// Evidence that no unique fix exists.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Conflict {
    /// The disputed attribute.
    pub attr: AttrId,
    /// The two disagreeing values.
    pub values: (Value, Value),
    /// Indices (into the rule set) of the two rules involved.
    pub rules: (usize, usize),
    /// Which step detected it.
    pub kind: ConflictKind,
}

impl fmt::Display for Conflict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "conflict on {:?}: rules #{} / #{} prescribe {} vs {} ({:?})",
            self.attr, self.rules.0, self.rules.1, self.values.0, self.values.1, self.kind
        )
    }
}

/// One applied step: `(rule index, master row id)`.
pub type Step = (usize, u32);

/// Per target attribute of `R`, the first `(rule, master row, value)`
/// claim of a round.
type Claims = Vec<Option<(usize, u32, Value)>>;

/// The step (e) conflict on `attr` between the claim of rule `rules.0`
/// and rule `rules.1`.
fn same_round(attr: AttrId, values: (Value, Value), rules: (usize, usize)) -> Conflict {
    Conflict {
        attr,
        values,
        rules,
        kind: ConflictKind::SameRound,
    }
}

/// A successful chase: the unique fix of `t` by `(Σ, Dm)` w.r.t. the
/// initial validated set.
#[derive(Clone, Debug)]
pub struct Fix {
    /// The fixed tuple. Attributes outside [`Fix::validated`] keep the
    /// input's values and are *not* asserted correct.
    pub tuple: Tuple,
    /// All validated attributes `Zk` — the set *covered* by
    /// `(Z, Tc, Σ, Dm)` in the paper's terms.
    pub validated: AttrSet,
    /// The initially validated attributes `Zb = Z`.
    pub initial: AttrSet,
    /// The applied `(ϕ, tm)` pairs, in application order.
    pub steps: Vec<Step>,
    /// Number of frontier rounds executed.
    pub rounds: usize,
}

impl Fix {
    /// Attributes fixed by rules (as opposed to initially validated).
    pub fn derived(&self) -> AttrSet {
        self.validated - self.initial
    }

    /// Is this a *certain* fix for a schema of `r_len` attributes —
    /// i.e. does the covered set include all of `R`?
    pub fn is_certain(&self, r_len: usize) -> bool {
        self.validated == AttrSet::full(r_len)
    }
}

/// Outcome of a chase run.
#[derive(Clone, Debug)]
pub enum ChaseResult {
    /// A unique fix exists (it may or may not be certain).
    Fixed(Fix),
    /// Two derivations disagree: no unique fix.
    Conflict(Conflict),
}

impl ChaseResult {
    /// The fix, if unique.
    pub fn fix(&self) -> Option<&Fix> {
        match self {
            ChaseResult::Fixed(f) => Some(f),
            ChaseResult::Conflict(_) => None,
        }
    }

    /// The conflict, if any.
    pub fn conflict(&self) -> Option<&Conflict> {
        match self {
            ChaseResult::Fixed(_) => None,
            ChaseResult::Conflict(c) => Some(c),
        }
    }

    /// `true` iff a unique fix exists.
    pub fn is_unique(&self) -> bool {
        matches!(self, ChaseResult::Fixed(_))
    }
}

/// The chase engine: borrows `(Σ, Dm)` and runs on many tuples.
///
/// With [`with_plan`](Chase::with_plan) the rounds read each rule's hit
/// list through a compiled [`RulePlan`] (pinned indexes, reusable probe
/// buffer, span summaries) instead of walking the `MasterIndex`
/// convenience path's copies; both read the same maps, so results are
/// bit-identical either way.
#[derive(Clone, Copy)]
pub struct Chase<'a> {
    rules: &'a RuleSet,
    master: &'a MasterIndex,
    plan: Option<&'a RulePlan>,
}

impl<'a> Chase<'a> {
    /// Bind the engine to a rule set and indexed master data.
    pub fn new(rules: &'a RuleSet, master: &'a MasterIndex) -> Chase<'a> {
        Chase {
            rules,
            master,
            plan: None,
        }
    }

    /// Route key probes through a compiled plan (must have been
    /// compiled from the same `(rules, master)` pair).
    pub fn with_plan(mut self, plan: Option<&'a RulePlan>) -> Chase<'a> {
        debug_assert!(plan.map_or(true, |p| p.len() == self.rules.len()));
        self.plan = plan;
        self
    }

    /// The frontier of step (c): all `(rule, master row)` pairs
    /// applicable to `t` given the validated set. Pairs whose rule
    /// targets a validated attribute are excluded (the target is
    /// *protected*). Walked without the plan, which never builds it.
    pub fn frontier(&self, t: &Tuple, validated: AttrSet) -> Vec<Step> {
        let mut out = Vec::new();
        for (i, rule) in self.rules.iter() {
            if validated.contains(rule.rhs())
                || !rule.premise().is_subset(&validated)
                || !rule.pattern().matches(t)
            {
                continue;
            }
            for id in self.master.matches_projection(t, rule.lhs(), rule.lhs_m()) {
                out.push((i, id));
            }
        }
        out
    }

    /// Run the chase from `t` with `initial` validated.
    pub fn run(&self, t: &Tuple, initial: AttrSet) -> ChaseResult {
        self.run_with(t, initial, &mut ProbeScratch::new())
    }

    /// [`run`](Self::run) with a caller-owned probe scratch, so a
    /// worker draining many tuples reuses one probe buffer across all
    /// of them.
    ///
    /// With a plan bound, a round takes one claim per applicable rule
    /// from its hit list's span summary ([`RulePlan::probe_fix`]): the
    /// first row, and the first row whose value differs from the
    /// attribute's claim. It never builds a step per hit row, so a
    /// round costs O(|Σ|) probes however long the lists are. Without a
    /// plan, a round walks the full [`frontier`](Self::frontier) — the
    /// oracle the summarised rounds are diffed against (invariant D4):
    /// same steps, rounds and conflict content.
    pub fn run_with(&self, t: &Tuple, initial: AttrSet, scratch: &mut ProbeScratch) -> ChaseResult {
        let mut tuple = t.clone();
        let mut validated = initial;
        let mut steps: Vec<Step> = Vec::new();
        let mut rounds = 0usize;

        loop {
            // Steps (c) and (e): per target attribute, the first
            // (rule, row, value) claim, or the first disagreement.
            let claimed = match self.plan {
                Some(plan) => self.claims_summarised(plan, &tuple, validated, scratch),
                None => self.claims_walked(&tuple, validated),
            };
            let claims = match claimed {
                Ok(claims) => claims,
                Err(c) => return ChaseResult::Conflict(c),
            };
            if claims.iter().all(Option::is_none) {
                return ChaseResult::Fixed(Fix {
                    tuple,
                    validated,
                    initial,
                    steps,
                    rounds,
                });
            }
            rounds += 1;

            // Step (f): apply one pair per target, extend Z.
            for (b, slot) in claims.iter().enumerate() {
                if let Some((i, id, v)) = slot {
                    tuple.set(AttrId(b as u16), *v);
                    validated.insert(AttrId(b as u16));
                    steps.push((*i, *id));
                }
            }

            // Step (g): any now-applicable rule disagreeing with a
            // *derived* attribute value is an order-dependence witness.
            if let Some(c) = self.overwrite_conflict(&tuple, validated, initial, &steps, scratch) {
                return ChaseResult::Conflict(c);
            }
        }
    }

    /// The walked claims of one round: the frontier's pairs in order,
    /// the first pair per target attribute claiming it, and the first
    /// pair whose value differs from its target's claim a conflict.
    fn claims_walked(&self, tuple: &Tuple, validated: AttrSet) -> Result<Claims, Conflict> {
        let mut claims: Claims = vec![None; self.rules.r_schema().len()];
        for (i, id) in self.frontier(tuple, validated) {
            let rule = self.rules.rule(i);
            let v = *self.master.tuple(id).get(rule.rhs_m());
            match &mut claims[rule.rhs().index()] {
                slot @ None => *slot = Some((i, id, v)),
                Some((j, _, w)) if *w != v => {
                    return Err(same_round(rule.rhs(), (*w, v), (*j, i)));
                }
                Some(_) => {}
            }
        }
        Ok(claims)
    }

    /// [`claims_walked`](Self::claims_walked) from span summaries: per
    /// applicable rule, in rule order, its first row claims an
    /// unclaimed target, and the first row of its list whose value
    /// differs from the target's claim is the conflict — the pair the
    /// walk would have stopped at. Like the walk, which probes the whole
    /// frontier before it reads a claim, every applicable rule is
    /// probed, so `plan_probes` does not depend on where a conflict
    /// sits.
    fn claims_summarised(
        &self,
        plan: &RulePlan,
        tuple: &Tuple,
        validated: AttrSet,
        scratch: &mut ProbeScratch,
    ) -> Result<Claims, Conflict> {
        let mut claims: Claims = vec![None; self.rules.r_schema().len()];
        let mut conflict = None;
        for (i, rule) in self.rules.iter() {
            if validated.contains(rule.rhs())
                || !rule.premise().is_subset(&validated)
                || !rule.pattern().matches(tuple)
            {
                continue;
            }
            let hits = plan.probe_fix(i, tuple, scratch);
            let Some(first) = hits.first().filter(|_| conflict.is_none()) else {
                continue;
            };
            let slot = &mut claims[rule.rhs().index()];
            let (j, w) = match *slot {
                Some((j, _, w)) => (j, w),
                None => {
                    let v = hits.value(first);
                    *slot = Some((i, first, v));
                    (i, v)
                }
            };
            if let Some((_, v)) = hits.first_unequal(&w) {
                conflict = Some(same_round(rule.rhs(), (w, v), (j, i)));
            }
        }
        conflict.map_or(Ok(claims), Err)
    }

    fn overwrite_conflict(
        &self,
        tuple: &Tuple,
        validated: AttrSet,
        initial: AttrSet,
        steps: &[Step],
        scratch: &mut ProbeScratch,
    ) -> Option<Conflict> {
        let derived = validated - initial;
        for (i, rule) in self.rules.iter() {
            let b = rule.rhs();
            if !derived.contains(b) || !rule.premise().is_subset(&validated) {
                continue;
            }
            if !rule.pattern().matches(tuple) {
                continue;
            }
            // the first candidate whose value does not agree with t[b]
            let disagreeing = match self.plan {
                Some(plan) => plan
                    .probe_fix(i, tuple, scratch)
                    .first_disagreeing(tuple.get(b))
                    .map(|(_, v)| v),
                None => self
                    .master
                    .matches_projection(tuple, rule.lhs(), rule.lhs_m())
                    .into_iter()
                    .map(|id| *self.master.tuple(id).get(rule.rhs_m()))
                    .find(|v| !v.agrees_with(tuple.get(b))),
            };
            if let Some(v) = disagreeing {
                // find which step derived b, for diagnostics
                let deriver = steps
                    .iter()
                    .find(|&&(j, _)| self.rules.rule(j).rhs() == b)
                    .map(|&(j, _)| j)
                    .unwrap_or(i);
                return Some(Conflict {
                    attr: b,
                    values: (*tuple.get(b), v),
                    rules: (deriver, i),
                    kind: ConflictKind::Overwrite,
                });
            }
        }
        None
    }

    /// Apply frontier pairs one at a time in an arbitrary caller-chosen
    /// order (used by confluence tests): repeatedly pick
    /// `choose(frontier)` and apply it until the frontier empties.
    /// Returns the final tuple and validated set; performs *no*
    /// conflict detection.
    pub fn run_sequential<F>(&self, t: &Tuple, initial: AttrSet, mut choose: F) -> (Tuple, AttrSet)
    where
        F: FnMut(&[Step]) -> usize,
    {
        let mut tuple = t.clone();
        let mut validated = initial;
        loop {
            let frontier = self.frontier(&tuple, validated);
            if frontier.is_empty() {
                return (tuple, validated);
            }
            let pick = choose(&frontier).min(frontier.len() - 1);
            let (i, id) = frontier[pick];
            let rule = self.rules.rule(i);
            tuple.set(rule.rhs(), *self.master.tuple(id).get(rule.rhs_m()));
            validated.insert(rule.rhs());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use certainfix_relation::{tuple, Relation, Schema, Value};
    use certainfix_rules::parse_rules;
    use std::sync::Arc;

    /// Fig. 1 of the paper: supplier schema R, master schema Rm, master
    /// tuples s1/s2, and Σ0 = {ϕ1..ϕ9} of Example 11.
    fn fig1() -> (Arc<Schema>, RuleSet, MasterIndex) {
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
        let master = Relation::new(
            rm,
            vec![
                // s1: Robert Brady, Edinburgh
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
                // s2: Mark Smith, London
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
        .unwrap();
        (r.clone(), rules, MasterIndex::new(Arc::new(master)))
    }

    fn attrs(r: &Schema, names: &[&str]) -> AttrSet {
        names.iter().map(|n| r.attr(n).unwrap()).collect()
    }

    /// t1 of Fig. 1.
    fn t1() -> Tuple {
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

    /// t3 of Fig. 1: AC and zip are mutually inconsistent.
    fn t3() -> Tuple {
        tuple![
            "Mark",
            "Smith",
            "020",
            "6884563",
            1,
            "20 Baker St.",
            "Lnd",
            "EH7 4AH",
            "DVD"
        ]
    }

    #[test]
    fn example12_transfix_trace_via_zip() {
        // Z = {zip}: ϕ1 fixes AC/str/city from s1 (Example 12's trace).
        let (r, rules, master) = fig1();
        let chase = Chase::new(&rules, &master);
        let result = chase.run(&t1(), attrs(&r, &["zip"]));
        let fix = result.fix().expect("unique fix expected");
        assert_eq!(fix.tuple.get(r.attr("AC").unwrap()), &Value::str("131"));
        assert_eq!(
            fix.tuple.get(r.attr("str").unwrap()),
            &Value::str("51 Elm Row")
        );
        assert_eq!(fix.tuple.get(r.attr("city").unwrap()), &Value::str("Edi"));
        assert_eq!(fix.validated, attrs(&r, &["zip", "AC", "str", "city"]));
        assert_eq!(fix.derived(), attrs(&r, &["AC", "str", "city"]));
        assert!(!fix.is_certain(r.len()));
        // fn/ln untouched: phn/type not validated, so ϕ2 can't fire
        assert_eq!(fix.tuple.get(r.attr("fn").unwrap()), &Value::str("Bob"));
    }

    #[test]
    fn example8_unique_fix_with_zip_phn_type() {
        // (Z_zm) = (zip, phn, type): ϕ1 and ϕ2 both fire; t1 gets
        // AC/str/city from zip and fn/ln from the mobile number.
        let (r, rules, master) = fig1();
        let chase = Chase::new(&rules, &master);
        let fix = chase
            .run(&t1(), attrs(&r, &["zip", "phn", "type"]))
            .fix()
            .cloned()
            .expect("unique");
        assert_eq!(fix.tuple.get(r.attr("fn").unwrap()), &Value::str("Robert"));
        assert_eq!(fix.tuple.get(r.attr("ln").unwrap()), &Value::str("Brady"));
        // item is never covered: Dm has no item information (Example 8)
        assert!(!fix.validated.contains(r.attr("item").unwrap()));
        assert!(!fix.is_certain(r.len()));
        // adding item to Z makes the fix certain
        let fix2 = chase
            .run(&t1(), attrs(&r, &["zip", "phn", "type", "item"]))
            .fix()
            .cloned()
            .unwrap();
        assert!(fix2.is_certain(r.len()));
    }

    #[test]
    fn example5_conflict_when_ac_and_zip_both_validated() {
        // t3 with Z ⊇ {AC, phn, type, zip}: (ϕ3, s2) says city = Lnd,
        // (ϕ1, s1) says city = Edi → no unique fix (Example 5 / 10).
        let (r, rules, master) = fig1();
        let chase = Chase::new(&rules, &master);
        let result = chase.run(&t3(), attrs(&r, &["AC", "phn", "type", "zip"]));
        let conflict = result.conflict().expect("conflict expected");
        // ϕ1 (via s1's zip) and ϕ3 (via s2's home phone) disagree on
        // both str and city; the engine reports the first one.
        let str_a = r.attr("str").unwrap();
        let city_a = r.attr("city").unwrap();
        assert!(conflict.attr == str_a || conflict.attr == city_a);
        if conflict.attr == city_a {
            let vals = [conflict.values.0, conflict.values.1];
            assert!(vals.contains(&Value::str("Edi")));
            assert!(vals.contains(&Value::str("Lnd")));
        }
        assert_eq!(conflict.kind, ConflictKind::SameRound);
        assert!(!result.is_unique());
    }

    #[test]
    fn example6_t3_unique_fix_without_zip() {
        // With Z = (AC, phn, type) only, ϕ3/s2 fixes str/city/zip and
        // then ϕ1 agrees (everything from s2), so the fix is unique.
        let (r, rules, master) = fig1();
        let chase = Chase::new(&rules, &master);
        let result = chase.run(&t3(), attrs(&r, &["AC", "phn", "type"]));
        let fix = result.fix().expect("unique fix (Example 6)");
        assert_eq!(
            fix.tuple.get(r.attr("zip").unwrap()),
            &Value::str("NW1 6XE")
        );
        assert_eq!(fix.tuple.get(r.attr("city").unwrap()), &Value::str("Lnd"));
    }

    #[test]
    fn t4_no_rule_applies() {
        // t4 of Fig. 1 matches no master tuple: the chase fixes nothing.
        let (r, rules, master) = fig1();
        let chase = Chase::new(&rules, &master);
        let t4 = tuple![
            "Tim",
            "Poth",
            "020",
            "9978543",
            1,
            "Baker St.",
            "Lnd",
            "NW1 6XE",
            "BOOK"
        ];
        let z = attrs(&r, &["AC", "phn", "type"]);
        let fix = chase.run(&t4, z).fix().cloned().unwrap();
        assert_eq!(fix.validated, z, "nothing derivable");
        assert!(fix.steps.is_empty());
        assert_eq!(fix.rounds, 0);
    }

    #[test]
    fn protected_attributes_never_overwritten() {
        // city ∈ Zb: even though ϕ1 would set it to Edi, it's protected.
        let (r, rules, master) = fig1();
        let chase = Chase::new(&rules, &master);
        let mut t = t1();
        t.set(r.attr("city").unwrap(), Value::str("WRONGTOWN"));
        let z = attrs(&r, &["zip", "city"]);
        let fix = chase.run(&t, z).fix().cloned().unwrap();
        assert_eq!(
            fix.tuple.get(r.attr("city").unwrap()),
            &Value::str("WRONGTOWN"),
            "user-validated cells are protected even against master data"
        );
        // AC/str still fixed
        assert_eq!(fix.tuple.get(r.attr("AC").unwrap()), &Value::str("131"));
    }

    #[test]
    fn chase_ignores_unvalidated_dirty_cells() {
        // t1's phn cell is garbage, but phn ∉ Z and no fired rule needs
        // it: the result is as if the cell were empty.
        let (r, rules, master) = fig1();
        let chase = Chase::new(&rules, &master);
        let mut t = t1();
        t.set(r.attr("phn").unwrap(), Value::str("###"));
        let fix = chase.run(&t, attrs(&r, &["zip"])).fix().cloned().unwrap();
        assert_eq!(fix.validated, attrs(&r, &["zip", "AC", "str", "city"]));
    }

    #[test]
    fn same_round_conflict_from_inconsistent_master() {
        // Two master tuples with the same zip but different cities: one
        // rule, two masters, step (e) fires.
        let r = Schema::new("R", ["zip", "city"]).unwrap();
        let rm = Schema::new("Rm", ["zip", "city"]).unwrap();
        let rules = parse_rules("p: match zip ~ zip set city := city", &r, &rm).unwrap();
        let master = MasterIndex::new(Arc::new(
            Relation::new(rm, vec![tuple!["Z1", "Edi"], tuple!["Z1", "Lnd"]]).unwrap(),
        ));
        let chase = Chase::new(&rules, &master);
        let result = chase.run(&tuple!["Z1", Value::Null], AttrSet::singleton(AttrId(0)));
        let c = result.conflict().unwrap();
        assert_eq!(c.kind, ConflictKind::SameRound);
        assert_eq!(c.rules.0, c.rules.1, "same rule, two masters");
    }

    #[test]
    fn overwrite_conflict_detected_across_rounds() {
        // a → b (b := 1), then b's own rule keyed on... build: rule1:
        // a→b, rule2: c→b with different master values, where c only
        // becomes validated after round 1 via rule3: a→c.
        let r = Schema::new("R", ["a", "b", "c"]).unwrap();
        let rm = Schema::new("Rm", ["a", "b", "c"]).unwrap();
        let rules = parse_rules(
            r#"
            r1: match a ~ a set b := b
            r3: match a ~ a set c := c
            r2: match c ~ c set b := b
            "#,
            &r,
            &rm,
        )
        .unwrap();
        // master: key a=1 gives b=10, c=5; key c=5 gives b=99 (via a
        // second master tuple with c=5 but b=99).
        let master = MasterIndex::new(Arc::new(
            Relation::new(rm, vec![tuple![1, 10, 5], tuple![2, 99, 5]]).unwrap(),
        ));
        let chase = Chase::new(&rules, &master);
        // Round 1: r1 and r3 fire from a=1 → b=10, c=5. Then r2 with
        // c=5 matches BOTH master rows (b=10 and b=99): step (e) or (g)
        // must object. Here both rows have c=5 so r2's frontier has two
        // masters — but b is already validated, so it's step (g).
        let result = chase.run(
            &tuple![1, Value::Null, Value::Null],
            AttrSet::singleton(AttrId(0)),
        );
        let c = result.conflict().expect("conflict");
        assert_eq!(c.kind, ConflictKind::Overwrite);
        assert_eq!(c.attr, AttrId(1));
    }

    #[test]
    fn agreeing_overwrite_is_not_a_conflict() {
        // Same shape, but the second path derives the SAME value: fine.
        let r = Schema::new("R", ["a", "b", "c"]).unwrap();
        let rm = Schema::new("Rm", ["a", "b", "c"]).unwrap();
        let rules = parse_rules(
            r#"
            r1: match a ~ a set b := b
            r3: match a ~ a set c := c
            r2: match c ~ c set b := b
            "#,
            &r,
            &rm,
        )
        .unwrap();
        let master = MasterIndex::new(Arc::new(
            Relation::new(rm, vec![tuple![1, 10, 5], tuple![2, 10, 5]]).unwrap(),
        ));
        let chase = Chase::new(&rules, &master);
        let result = chase.run(
            &tuple![1, Value::Null, Value::Null],
            AttrSet::singleton(AttrId(0)),
        );
        let fix = result.fix().expect("no conflict: values agree");
        assert_eq!(fix.tuple.get(AttrId(1)), &Value::int(10));
        assert!(fix.is_certain(3));
    }

    #[test]
    fn sequential_order_matches_round_based_when_unique() {
        let (r, rules, master) = fig1();
        let chase = Chase::new(&rules, &master);
        let z = attrs(&r, &["zip", "phn", "type"]);
        let reference = chase.run(&t1(), z).fix().cloned().unwrap();
        // a few deterministic pick strategies
        for seed in 0u64..6 {
            let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
            let (tuple, validated) = chase.run_sequential(&t1(), z, |frontier| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) as usize % frontier.len()
            });
            assert_eq!(tuple, reference.tuple, "confluence (seed {seed})");
            assert_eq!(validated, reference.validated);
        }
    }

    #[test]
    fn rounds_are_bounded_by_schema_width() {
        let (r, rules, master) = fig1();
        let chase = Chase::new(&rules, &master);
        let fix = chase
            .run(&t1(), attrs(&r, &["zip", "phn", "type", "item"]))
            .fix()
            .cloned()
            .unwrap();
        assert!(fix.rounds <= r.len());
    }

    /// The plan-backed chase is bit-identical to the legacy probes on
    /// every Fig. 1 scenario — fixes, validated sets, steps, rounds,
    /// and conflicts alike.
    #[test]
    fn plan_backed_chase_matches_legacy() {
        use certainfix_rules::{ProbeScratch, RulePlan};
        let (r, rules, master) = fig1();
        let plan = RulePlan::compile(&rules, &master);
        let legacy = Chase::new(&rules, &master);
        let planned = Chase::new(&rules, &master).with_plan(Some(&plan));
        let mut scratch = ProbeScratch::new();
        for t in [t1(), t3()] {
            for z in [
                attrs(&r, &["zip"]),
                attrs(&r, &["zip", "phn", "type"]),
                attrs(&r, &["AC", "phn", "type", "zip"]),
                attrs(&r, &["item"]),
                AttrSet::EMPTY,
            ] {
                let a = legacy.run(&t, z);
                let b = planned.run_with(&t, z, &mut scratch);
                match (&a, &b) {
                    (ChaseResult::Fixed(fa), ChaseResult::Fixed(fb)) => {
                        assert_eq!(fa.tuple, fb.tuple, "Z = {z:?}");
                        assert_eq!(fa.validated, fb.validated);
                        assert_eq!(fa.steps, fb.steps);
                        assert_eq!(fa.rounds, fb.rounds);
                    }
                    (ChaseResult::Conflict(ca), ChaseResult::Conflict(cb)) => {
                        assert_eq!(ca, cb, "Z = {z:?}");
                    }
                    _ => panic!("outcome kind diverged for Z = {z:?}"),
                }
            }
        }
    }

    #[test]
    fn conflict_display() {
        let c = Conflict {
            attr: AttrId(6),
            values: (Value::str("Edi"), Value::str("Lnd")),
            rules: (0, 5),
            kind: ConflictKind::SameRound,
        };
        let s = c.to_string();
        assert!(s.contains("Edi"));
        assert!(s.contains("#0"));
    }
}
