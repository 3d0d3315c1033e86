//! Suggestions (Sect. 5.2): what else should the user assert?
//!
//! Once `t[Z]` is validated, a *suggestion* is a set `S` of attributes
//! such that `(Z ∪ S, {tc})` is a certain region for some pattern `tc`
//! that `t[Z]` satisfies. The S-minimum problem is NP-complete and
//! approximation-hard (it contains Z-minimum), so this module provides
//! the heuristic the framework actually runs:
//!
//! 1. derive the *applicable rules* `Σ_t[Z]` (Prop. 20 shows `Σ_t[Z]`
//!    suffices) — as a subset of `Σ`, by rule id;
//! 2. greedily pick attributes that maximize schema-level closure
//!    growth under `Σ_t[Z]` until `closure(Z ∪ S) = R`;
//! 3. locally minimize `S` by dropping redundant attributes.
//!
//! The paper's `Σ_t[Z]` holds *refined* rules `ϕ+`, whose patterns pin
//! the validated cells to `t`'s values. Refinement changes neither a
//! rule's premise `X ∪ Xp` nor its `rhs`, which are all the closure
//! reads, so steps 2 and 3 close over the ids and no refined rule is
//! built on the repair path. [`applicable_rules`] still returns the
//! refined rules (Example 14), by refining the same subset. Steps 2
//! and 3 are the greedy completion and minimisation of
//! [`crate::closure`](mod@crate::closure), shared with region
//! derivation.
//!
//! [`Applicable`] is `Σ_t[Z]` for one `(t, Z)`, derived on first use:
//! a round of the `Suggest+` diagram checks cached suggestions against
//! it and completes a miss from it, all from one derivation. Checking
//! a suggestion is one closure, where deriving one is a closure per
//! candidate attribute per greedy step — the asymmetry the paper's
//! cache rests on ("it is far less costly to check whether a region is
//! certain than computing new certain regions").
//!
//! The fallback is always available: `S` can include attributes no rule
//! fixes, which the user then validates directly (that is how `item`
//! enters the certain region of Example 9). So a returned suggestion
//! always completes: step 2 ends with `closure(Z ∪ S) = R` under
//! `Σ_t[Z]` and step 3 keeps it, and [`suggest`] answers `None` only
//! when `Z = R`. The Fig. 3 loop relies on this: a suggestion that asks
//! for every unvalidated attribute means no rule reaches beyond it.
//!
//! Probes here ride the same compiled [`RulePlan`] as the repair hot
//! path (the derivation resolves each rule's validated-key split
//! through the plan's sub-key slots). Suggestion derivation is
//! per-tuple by nature — it runs after a specific `t[Z]` is validated
//! — so it consumes the plan's single-tuple entry points; the
//! *vectorized block layer* (`RulePlan::plan_probe_block`, see the
//! `certainfix_rules::plan` module docs) amortizes the upstream
//! `TransFix` seed probes that funnel tuples into this module, and
//! both layers return bit-identical hit lists by the block-size
//! independence contract.

use std::cell::OnceCell;

use certainfix_relation::{AttrId, AttrSet, MasterIndex, PatternValue, Tuple};
use certainfix_rules::{EditingRule, ProbeScratch, RulePlan, RuleSet};

use crate::closure::{closure_over, complete, minimise};

/// A recommended set of attributes for the user to assert. It always
/// completes: `closure(Z ∪ S) = R` under `Σ_t[Z]`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Suggestion {
    /// The attributes `S`, ascending.
    pub attrs: Vec<AttrId>,
}

impl Suggestion {
    /// `S` as a set.
    pub fn attr_set(&self) -> AttrSet {
        self.attrs.iter().copied().collect()
    }
}

/// `Σ_t[Z]` for one tuple `t` and validated set `Z`, as a subset of
/// `Σ`: derived on the first call that needs it, then reused.
///
/// For each `ϕ ∈ Σ` with pattern `tp[Xp]`, `ϕ` is applicable iff:
///
/// * (a) `ϕ` does not *change* validated attributes: either
///   `rhs(ϕ) ∉ Z`, or every master candidate agrees with the already
///   validated `t[B]` (Example 14 lists such agreeing rules);
/// * (b) `tp[Xp ∩ Z] ≈ t[Xp ∩ Z]` — the validated part of the pattern
///   matches;
/// * (c) some master tuple `tm` satisfies `tm[λϕ(Xp ∩ X)] ≈ tp[Xp ∩ X]`
///   and `tm[λϕ(X ∩ Z)] = t[X ∩ Z]`.
///
/// With a compiled [`RulePlan`], each rule's *validated-key split* —
/// which key positions of `X` lie in `Z`, and the master columns they
/// align with — is resolved through the plan's precomputed layout and
/// per-subset index slots, and the `λϕ` lookups of the master-side
/// pattern check use the plan's precomputed alignment. Without one the
/// derivation probes the [`MasterIndex`] directly; both derive the same
/// subset, and tests keep the plan-less path as the parity oracle.
#[derive(Debug)]
pub struct Applicable<'a> {
    rules: &'a RuleSet,
    master: &'a MasterIndex,
    plan: Option<&'a RulePlan>,
    t: &'a Tuple,
    validated: AttrSet,
    ids: OnceCell<Vec<usize>>,
}

impl<'a> Applicable<'a> {
    /// `Σ_t[Z]` for `t` with `validated = Z`, not derived yet. `plan`,
    /// if any, must be compiled over `rules` and `master`.
    pub fn new(
        rules: &'a RuleSet,
        master: &'a MasterIndex,
        plan: Option<&'a RulePlan>,
        t: &'a Tuple,
        validated: AttrSet,
    ) -> Applicable<'a> {
        debug_assert!(plan.map_or(true, |p| p.len() == rules.len()));
        Applicable {
            rules,
            master,
            plan,
            t,
            validated,
            ids: OnceCell::new(),
        }
    }

    /// The applicable rule ids, ascending; the first call derives them.
    pub fn ids(&self, scratch: &mut ProbeScratch) -> &[usize] {
        self.ids.get_or_init(|| self.derive(scratch))
    }

    /// Is `attrs` a suggestion: non-empty, disjoint from `Z`, and
    /// `closure(Z ∪ S) = R` under `Σ_t[Z]`? An `attrs` that fails the
    /// first two tests derives nothing.
    pub fn is_suggestion(&self, attrs: &[AttrId], scratch: &mut ProbeScratch) -> bool {
        let s: AttrSet = attrs.iter().copied().collect();
        if !s.is_disjoint(&self.validated) || s.is_empty() {
            return false;
        }
        let ids = self.ids(scratch).iter().copied();
        closure_over(self.rules, ids, self.validated | s).covered
            == AttrSet::full(self.rules.r_schema().len())
    }

    /// A suggestion for `t`, or `None` when `Z = R` (which derives
    /// nothing).
    pub fn suggest(&self, scratch: &mut ProbeScratch) -> Option<Suggestion> {
        let (rules, z) = (self.rules, self.validated);
        if z == AttrSet::full(rules.r_schema().len()) {
            return None;
        }
        let ids = self.ids(scratch);
        let s = minimise(rules, ids, z, complete(rules, ids, z));
        Some(Suggestion { attrs: s.to_vec() })
    }

    /// The derivation: every rule meeting (a)–(c), ascending.
    fn derive(&self, scratch: &mut ProbeScratch) -> Vec<usize> {
        let (rules, master, t, validated, plan) =
            (self.rules, self.master, self.t, self.validated, self.plan);
        let mut out = Vec::new();
        'rules: for (i, rule) in rules.iter() {
            // (b) validated pattern cells must match t.
            for (&a, cell) in rule.lhs_p().iter().zip(rule.pattern().cells()) {
                if validated.contains(a) && !cell.matches(t.get(a)) {
                    continue 'rules;
                }
            }
            // (c) master support. The λϕ alignment of pattern attrs with
            // master columns comes precomputed from the plan when bound.
            let compiled = plan.map(|p| p.rule(i));
            let pattern_master = |j: usize, a: AttrId| -> Option<AttrId> {
                match compiled {
                    Some(c) => c.pattern_master()[j],
                    None => rule.master_attr_for(a),
                }
            };
            let rhs_validated = validated.contains(rule.rhs());
            let pattern_on_keys = match compiled {
                Some(c) => c.pattern_on_keys(),
                None => rule
                    .lhs_p()
                    .iter()
                    .any(|a| rule.master_attr_for(*a).is_some()),
            };
            let no_validated_keys = match compiled {
                Some(c) => c.validated_mask(validated) == 0,
                None => !rule.lhs().iter().any(|a| validated.contains(*a)),
            };
            // With the whole key and the target validated and no pattern
            // cell on a key, the plan answers (c) and (a) — the agreement
            // scan — from the hit list's span summary. (With the target
            // unvalidated the scan below stops at the first candidate.)
            let full_key = match (plan, compiled) {
                (Some(p), Some(c))
                    if rhs_validated
                        && !c.pattern_on_keys()
                        && c.validated_mask(validated).count_ones() as usize == c.lhs().len() =>
                {
                    Some(p.probe_fix(i, t, scratch))
                }
                _ => None,
            };
            if no_validated_keys {
                // No validated key pins a master tuple yet.
                if master.is_empty() {
                    continue;
                }
                if rhs_validated {
                    // Keeping the rule would require proving every candidate
                    // master agrees with the validated t[B] — a full scan for
                    // a rule the closure gains nothing from. Drop it.
                    continue;
                }
                if pattern_on_keys {
                    // Existence scan with early exit; it reads the rule and
                    // the master alone, so a plan scanned it at compile time.
                    let supported = match compiled {
                        Some(c) => c.pattern_supported(),
                        None => master.relation().iter().any(|tm| {
                            rule.lhs_p()
                                .iter()
                                .zip(rule.pattern().cells())
                                .enumerate()
                                .all(|(j, (&a, cell))| match pattern_master(j, a) {
                                    Some(ma) => cell.matches(tm.get(ma)),
                                    None => true,
                                })
                        }),
                    };
                    if !supported {
                        continue;
                    }
                }
            } else if let Some(hits) = full_key {
                // every candidate supports the rule, and it is kept only if
                // none of them disagrees with the validated t[B]
                if hits.first().is_none() || hits.first_disagreeing(t.get(rule.rhs())).is_some() {
                    continue;
                }
            } else {
                let mut supported = false;
                let mut rhs_agrees = true;
                let mut check = |id: u32| -> bool {
                    // returns `true` to stop the scan
                    let tm = master.tuple(id);
                    // pattern cells on key attributes, checked master-side
                    let pattern_ok = rule
                        .lhs_p()
                        .iter()
                        .zip(rule.pattern().cells())
                        .enumerate()
                        .all(|(j, (&a, cell))| match pattern_master(j, a) {
                            Some(ma) => cell.matches(tm.get(ma)),
                            None => true,
                        });
                    if pattern_ok {
                        supported = true;
                        if !rhs_validated {
                            // existence is all that matters: a weakly
                            // selective validated key (e.g. only `type` of a
                            // composite) can match most of Dm — don't scan it
                            return true;
                        }
                        if !tm.get(rule.rhs_m()).agrees_with(t.get(rule.rhs())) {
                            rhs_agrees = false;
                            return true;
                        }
                    }
                    false
                };
                match plan {
                    Some(p) => {
                        let hits = p
                            .validated_candidates(i, t, validated, scratch)
                            .expect("mask is non-zero on this branch");
                        for &id in hits.iter() {
                            if check(id) {
                                break;
                            }
                        }
                    }
                    None => {
                        let validated_keys: Vec<(usize, AttrId)> = rule
                            .lhs()
                            .iter()
                            .enumerate()
                            .filter(|&(_, a)| validated.contains(*a))
                            .map(|(i, &a)| (i, a))
                            .collect();
                        let from: Vec<AttrId> = validated_keys.iter().map(|&(_, a)| a).collect();
                        let to: Vec<AttrId> = validated_keys
                            .iter()
                            .map(|&(i, _)| rule.lhs_m()[i])
                            .collect();
                        for id in master.matches_projection(t, &from, &to) {
                            if check(id) {
                                break;
                            }
                        }
                    }
                }
                if !supported {
                    continue;
                }
                // (a) a rule targeting a validated attribute is kept only if
                // it cannot change it.
                if rhs_validated && !rhs_agrees {
                    continue;
                }
            }
            out.push(i);
        }
        out
    }
}

/// The refined applicable rules `Σ_t[Z]` of Sect. 5.2: each rule of
/// [`Applicable::ids`] as `ϕ+`, its pattern attributes extended by
/// `X ∩ Z` and every pattern cell on a validated attribute pinned to
/// `t`'s value.
pub fn applicable_rules(
    rules: &RuleSet,
    master: &MasterIndex,
    t: &Tuple,
    validated: AttrSet,
) -> Vec<EditingRule> {
    let sigma = Applicable::new(rules, master, None, t, validated);
    let ids = sigma.ids(&mut ProbeScratch::new());
    ids.iter()
        .map(|&i| {
            let rule = rules.rule(i);
            let extra: Vec<(AttrId, PatternValue)> = rule
                .lhs()
                .iter()
                .chain(rule.lhs_p())
                .filter(|&&a| validated.contains(a))
                .map(|&a| (a, PatternValue::Const(*t.get(a))))
                .collect();
            rule.with_pattern(rule.pattern().refined_with(&extra))
        })
        .collect()
}

/// Is `attrs` (still) a suggestion for `t` given the validated set?
/// (See [`Applicable::is_suggestion`].)
pub fn is_suggestion(
    rules: &RuleSet,
    master: &MasterIndex,
    t: &Tuple,
    validated: AttrSet,
    attrs: &[AttrId],
) -> bool {
    Applicable::new(rules, master, None, t, validated)
        .is_suggestion(attrs, &mut ProbeScratch::new())
}

/// Compute a suggestion for `t` given the validated set, or `None` if
/// every attribute is already validated.
pub fn suggest(
    rules: &RuleSet,
    master: &MasterIndex,
    t: &Tuple,
    validated: AttrSet,
) -> Option<Suggestion> {
    Applicable::new(rules, master, None, t, validated).suggest(&mut ProbeScratch::new())
}

/// [`suggest`] with a compiled [`RulePlan`] routing the `Σ_t[Z]`
/// derivation's probes (the closure computations are
/// plan-independent). Suggestions are identical to the plain
/// [`suggest`] reference path.
pub fn suggest_with(
    rules: &RuleSet,
    master: &MasterIndex,
    t: &Tuple,
    validated: AttrSet,
    plan: &RulePlan,
    scratch: &mut ProbeScratch,
) -> Option<Suggestion> {
    Applicable::new(rules, master, Some(plan), t, validated).suggest(scratch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use certainfix_relation::{tuple, Relation, Schema, Value};
    use certainfix_rules::parse_rules;
    use std::sync::Arc;

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
        .unwrap();
        (r.clone(), rules, MasterIndex::new(Arc::new(master)))
    }

    fn attrs(r: &Schema, names: &[&str]) -> AttrSet {
        names.iter().map(|n| r.attr(n).unwrap()).collect()
    }

    /// t1 after Example 12's TransFix run: zip/AC/str/city fixed from s1.
    fn t1_fixed() -> Tuple {
        tuple![
            "Bob",
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

    #[test]
    fn example14_applicable_rules() {
        let (r, rules, master) = fig1();
        let z = attrs(&r, &["zip", "AC", "str", "city"]);
        let refined = applicable_rules(&rules, &master, &t1_fixed(), z);
        let names: Vec<&str> = refined.iter().map(|r| r.name()).collect();
        // ϕ4/ϕ5 of the paper = phi2.fn / phi2.ln here
        assert!(names.contains(&"phi2.fn"), "names: {names:?}");
        assert!(names.contains(&"phi2.ln"));
        // ϕ+6..8 = the phi3 family with refined AC pattern
        assert!(names.contains(&"phi3.str"));
        assert!(names.contains(&"phi3.city"));
        assert!(names.contains(&"phi3.zip"));
        let phi3_str = refined.iter().find(|r| r.name() == "phi3.str").unwrap();
        // the refined pattern pins AC to 131 (replacing ≠0800)
        assert_eq!(
            phi3_str.pattern().cell(r.attr("AC").unwrap()),
            Some(&PatternValue::Const(Value::str("131")))
        );
        // and keeps type = 1
        assert_eq!(
            phi3_str.pattern().cell(r.attr("type").unwrap()),
            Some(&PatternValue::Const(Value::int(1)))
        );
        // ϕ4 (toll-free city rule) requires AC = 0800, but AC = 131 is
        // validated: excluded by (b).
        assert!(!names.contains(&"phi4"));
    }

    #[test]
    fn example13_suggestion_after_transfix() {
        // After fixing t1[zip, AC, str, city], the suggestion should be
        // {phn, type, item} (Example 13).
        let (r, rules, master) = fig1();
        let z = attrs(&r, &["zip", "AC", "str", "city"]);
        let sug = suggest(&rules, &master, &t1_fixed(), z).unwrap();
        assert_eq!(
            sug.attr_set(),
            attrs(&r, &["phn", "type", "item"]),
            "suggested: {:?}",
            sug.attrs
        );
        assert!(is_suggestion(&rules, &master, &t1_fixed(), z, &sug.attrs));
    }

    #[test]
    fn disagreeing_rule_on_validated_attr_is_dropped() {
        // t's validated city disagrees with what ϕ1 would derive: the
        // refined set must not contain phi1.city.
        let (r, rules, master) = fig1();
        let mut t = t1_fixed();
        t.set(r.attr("city").unwrap(), Value::str("Gla"));
        let z = attrs(&r, &["zip", "city"]);
        let refined = applicable_rules(&rules, &master, &t, z);
        let names: Vec<&str> = refined.iter().map(|r| r.name()).collect();
        assert!(!names.contains(&"phi1.city"));
        // the agreeing siblings survive
        assert!(names.contains(&"phi1.AC"));
    }

    #[test]
    fn no_master_support_drops_rule() {
        let (r, rules, master) = fig1();
        let mut t = t1_fixed();
        t.set(r.attr("zip").unwrap(), Value::str("XX9 9XX"));
        let z = attrs(&r, &["zip"]);
        let refined = applicable_rules(&rules, &master, &t, z);
        assert!(
            refined.iter().all(|r| !r.name().starts_with("phi1")),
            "no master tuple has zip XX9 9XX"
        );
    }

    #[test]
    fn suggestion_covers_unfixable_attrs_directly() {
        // From Z = ∅-ish (only item validated), the suggestion must pull
        // in enough keys; item is already there.
        let (r, rules, master) = fig1();
        let t = t1_fixed();
        let z = attrs(&r, &["item"]);
        let sug = suggest(&rules, &master, &t, z).unwrap();
        assert!(is_suggestion(&rules, &master, &t, z, &sug.attrs));
        // S never includes already-validated attrs
        assert!(!sug.attr_set().contains(r.attr("item").unwrap()));
    }

    /// Plan-routed derivation is bit-identical to the legacy path:
    /// same refined rules (names, patterns), same suggestions, same
    /// `is_suggestion` verdicts — across validated-set shapes including
    /// no-validated-key and rhs-validated branches.
    #[test]
    fn plan_backed_derivation_matches_legacy() {
        use certainfix_rules::RulePlan;
        let (r, rules, master) = fig1();
        let plan = RulePlan::compile(&rules, &master);
        let mut scratch = ProbeScratch::new();
        let zs = [
            attrs(&r, &["zip", "AC", "str", "city"]),
            attrs(&r, &["zip"]),
            attrs(&r, &["item"]),
            attrs(&r, &["type"]),
            attrs(&r, &["phn", "type"]),
            AttrSet::EMPTY,
        ];
        let t = t1_fixed();
        for z in zs {
            let legacy = Applicable::new(&rules, &master, None, &t, z);
            let planned = Applicable::new(&rules, &master, Some(&plan), &t, z);
            let want = legacy.ids(&mut scratch).to_vec();
            assert_eq!(planned.ids(&mut scratch), want, "Z = {z:?}");
            let s1 = suggest(&rules, &master, &t, z);
            let s2 = suggest_with(&rules, &master, &t, z, &plan, &mut scratch);
            assert_eq!(s1, s2, "Z = {z:?}");
            if let Some(s) = s1 {
                assert!(planned.is_suggestion(&s.attrs, &mut scratch));
            }
        }
    }

    /// ϕ4 pins `AC = '0800'`, a constant no master row holds. With no
    /// key validated, the plain path scans all of Dm for ϕ4's support
    /// on every call; the plan scanned once at compile time and reads a
    /// bool, dropping ϕ4 exactly as the scan does.
    #[test]
    fn absent_pattern_constant_is_unsupported_at_compile_time() {
        use certainfix_rules::RulePlan;
        let (r, rules, master) = fig1();
        let plan = RulePlan::compile(&rules, &master);
        let phi4 = rules.iter().position(|(_, r)| r.name() == "phi4").unwrap();
        assert!(!plan.rule(phi4).pattern_supported());
        let mut scratch = ProbeScratch::new();
        let t = t1_fixed();
        for z in [AttrSet::EMPTY, attrs(&r, &["item"]), attrs(&r, &["type"])] {
            let planned = Applicable::new(&rules, &master, Some(&plan), &t, z)
                .ids(&mut scratch)
                .to_vec();
            assert!(!planned.contains(&phi4), "Z = {z:?}");
            let legacy = Applicable::new(&rules, &master, None, &t, z);
            assert_eq!(planned, legacy.ids(&mut scratch));
        }
    }

    #[test]
    fn fully_validated_tuple_needs_no_suggestion() {
        let (r, rules, master) = fig1();
        assert!(suggest(&rules, &master, &t1_fixed(), AttrSet::full(r.len())).is_none());
    }

    #[test]
    fn suggestion_is_minimal_wrt_dropping() {
        let (r, rules, master) = fig1();
        let z = attrs(&r, &["zip", "AC", "str", "city"]);
        let sug = suggest(&rules, &master, &t1_fixed(), z).unwrap();
        let t = t1_fixed();
        let sigma = Applicable::new(&rules, &master, None, &t, z);
        let ids = sigma.ids(&mut ProbeScratch::new());
        let full = AttrSet::full(r.len());
        for a in sug.attr_set().iter() {
            let without = sug.attr_set() - AttrSet::singleton(a);
            assert_ne!(
                closure_over(&rules, ids.iter().copied(), z | without).covered,
                full,
                "dropping {:?} should break coverage",
                r.attr_name(a)
            );
        }
    }
}
