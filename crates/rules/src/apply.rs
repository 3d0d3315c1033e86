//! Application semantics of editing rules (Sect. 2 of the paper).
//!
//! `(ϕ, tm)` *apply to* `t`, yielding `t'` (`t →(ϕ,tm) t'`), iff
//!
//! 1. `t[Xp] ≈ tp[Xp]` — the input matches the rule's pattern,
//! 2. `t[X] = tm[Xm]` — the input and the master tuple agree on the key,
//!
//! and then `t'[B] := tm[Bm]`, all other attributes unchanged.
//!
//! # Pairwise semantics vs. the plan-backed probe path
//!
//! The functions here realize the *pairwise* `(ϕ, tm)` semantics on
//! demand: each call resolves the rule's key index through the
//! [`MasterIndex`] cache (a lock acquisition, a key-list hash, a fresh
//! projection vector, and a cloned hit list). The hot engines —
//! `TransFix`, the chase, and the suggestion derivation — run the same
//! semantics through a [`RulePlan`](crate::plan::RulePlan) compiled
//! once per `(RuleSet, MasterIndex)`: pinned indexes, a reusable
//! [`ProbeScratch`](crate::plan::ProbeScratch) buffer, and borrowed
//! hit lists, making the steady-state probe allocation- and lock-free.
//!
//! **Determinism contract.** Both paths read the same [`KeyIndex`](certainfix_relation::KeyIndex)
//! maps: [`candidate_masters`] and [`RulePlan::candidates`](crate::plan::RulePlan::candidates)
//! return identical row ids in identical order — so an engine may be
//! switched between the legacy and the compiled probe layer without
//! perturbing a single outcome. The functions here are
//! kept as the convenient, allocation-per-call shims for analyses and
//! tests.

use certainfix_relation::{MasterIndex, Tuple};

use crate::rule::EditingRule;

/// Does `(ϕ, tm)` apply to `t`?
pub fn applies(rule: &EditingRule, t: &Tuple, tm: &Tuple) -> bool {
    rule.pattern().matches(t) && t.agrees_on(rule.lhs(), tm, rule.lhs_m())
}

/// Apply `(ϕ, tm)` to `t`, producing `t'`, or `None` if it does not
/// apply. The update is performed even if `t[B]` already equals
/// `tm[Bm]` (the fixpoint logic upstream decides whether anything
/// changed).
pub fn apply(rule: &EditingRule, t: &Tuple, tm: &Tuple) -> Option<Tuple> {
    if !applies(rule, t, tm) {
        return None;
    }
    let mut out = t.clone();
    out.set(rule.rhs(), *tm.get(rule.rhs_m()));
    Some(out)
}

/// Master tuples (by row id) that can be used with `rule` on `t`:
/// all `tm` with `tm[Xm] = t[X]`, *provided* `t` matches the rule's
/// pattern. Returns an empty vector when the pattern does not match or
/// `t[X]` contains a null.
pub fn candidate_masters(rule: &EditingRule, t: &Tuple, master: &MasterIndex) -> Vec<u32> {
    if !rule.pattern().matches(t) {
        return Vec::new();
    }
    master.matches_projection(t, rule.lhs(), rule.lhs_m())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::EditingRule;
    use certainfix_relation::tuple;
    use certainfix_relation::{Relation, Schema, Value};
    use std::sync::Arc;

    /// Fig. 1 of the paper, trimmed to the attributes exercised here.
    /// R(fn, ln, AC, phn, type, str, city, zip)
    /// Rm(FN, LN, AC, Hphn, Mphn, str, city, zip)
    fn fixture() -> (Arc<Schema>, Arc<Schema>, MasterIndex) {
        let r = Schema::new("R", ["fn", "ln", "AC", "phn", "type", "str", "city", "zip"]).unwrap();
        let rm = Schema::new(
            "Rm",
            ["FN", "LN", "AC", "Hphn", "Mphn", "str", "city", "zip"],
        )
        .unwrap();
        let master = Relation::new(
            rm.clone(),
            vec![
                // s1
                tuple![
                    "Robert",
                    "Brady",
                    "131",
                    "6884563",
                    "079172485",
                    "51 Elm Row",
                    "Edi",
                    "EH7 4AH"
                ],
                // s2
                tuple![
                    "Mark",
                    "Smith",
                    "020",
                    "6884563",
                    "075568485",
                    "20 Baker St.",
                    "Lnd",
                    "NW1 6XE"
                ],
            ],
        )
        .unwrap();
        (r, rm, MasterIndex::new(Arc::new(master)))
    }

    /// t1 of Fig. 1: AC=020 is wrong, zip is correct.
    fn t1() -> Tuple {
        tuple![
            "Bob",
            "Brady",
            "020",
            "079172485",
            2,
            "501 Elm St.",
            "Edi",
            "EH7 4AH"
        ]
    }

    #[test]
    fn example4_phi1_applies_via_zip() {
        let (r, rm, m) = fixture();
        // ϕ1 (B = AC): ((zip, zip) → (AC, AC), tp1 = ())
        let phi1 = EditingRule::build(&r, &rm)
            .name("phi1")
            .key("zip", "zip")
            .fix("AC", "AC")
            .finish()
            .unwrap();
        let s1 = m.tuple(0).clone();
        assert!(applies(&phi1, &t1(), &s1));
        let fixed = apply(&phi1, &t1(), &s1).unwrap();
        assert_eq!(fixed.get(r.attr("AC").unwrap()), &Value::str("131"));
        // everything else untouched
        assert_eq!(fixed.get(r.attr("city").unwrap()), &Value::str("Edi"));
        assert_eq!(fixed.diff(&t1()), vec![r.attr("AC").unwrap()]);
    }

    #[test]
    fn example4_phi2_standardizes_fn() {
        let (r, rm, m) = fixture();
        // ϕ2 (B = fn): ((phn, Mphn) → (FN → fn), tp2[type] = (2))
        let phi2 = EditingRule::build(&r, &rm)
            .name("phi2")
            .key("phn", "Mphn")
            .fix("fn", "FN")
            .when_eq("type", 2)
            .finish()
            .unwrap();
        let s1 = m.tuple(0).clone();
        let fixed = apply(&phi2, &t1(), &s1).unwrap();
        assert_eq!(fixed.get(r.attr("fn").unwrap()), &Value::str("Robert"));
    }

    #[test]
    fn pattern_mismatch_blocks_application() {
        let (r, rm, m) = fixture();
        let phi2 = EditingRule::build(&r, &rm)
            .key("phn", "Mphn")
            .fix("fn", "FN")
            .when_eq("type", 1) // t1 has type 2
            .finish()
            .unwrap();
        let s1 = m.tuple(0).clone();
        assert!(!applies(&phi2, &t1(), &s1));
        assert!(apply(&phi2, &t1(), &s1).is_none());
        assert!(candidate_masters(&phi2, &t1(), &m).is_empty());
    }

    #[test]
    fn key_mismatch_blocks_application() {
        let (r, rm, m) = fixture();
        let phi1 = EditingRule::build(&r, &rm)
            .key("zip", "zip")
            .fix("AC", "AC")
            .finish()
            .unwrap();
        let mut t = t1();
        t.set(r.attr("zip").unwrap(), Value::str("XX1 1XX"));
        let s1 = m.tuple(0).clone();
        assert!(!applies(&phi1, &t, &s1));
    }

    #[test]
    fn null_key_blocks_application() {
        let (r, rm, m) = fixture();
        let phi1 = EditingRule::build(&r, &rm)
            .key("zip", "zip")
            .fix("AC", "AC")
            .finish()
            .unwrap();
        let mut t = t1();
        t.set(r.attr("zip").unwrap(), Value::Null);
        assert!(candidate_masters(&phi1, &t, &m).is_empty());
    }

    #[test]
    fn candidate_search_uses_index() {
        let (r, rm, m) = fixture();
        let phi1 = EditingRule::build(&r, &rm)
            .key("zip", "zip")
            .fix("AC", "AC")
            .finish()
            .unwrap();
        assert_eq!(candidate_masters(&phi1, &t1(), &m), vec![0]);
    }

    #[test]
    fn conflicting_masters_detected() {
        // Two master tuples share a zip but prescribe different cities.
        let r = Schema::new("R", ["zip", "city"]).unwrap();
        let rm = Schema::new("Rm", ["zip", "city"]).unwrap();
        let master = Relation::new(
            rm.clone(),
            vec![
                tuple!["Z1", "Edi"],
                tuple!["Z1", "Lnd"],
                tuple!["Z2", "Gla"],
            ],
        )
        .unwrap();
        let m = MasterIndex::new(Arc::new(master));
        let phi = EditingRule::build(&r, &rm)
            .key("zip", "zip")
            .fix("city", "city")
            .finish()
            .unwrap();
        let t = tuple!["Z1", Value::Null];
        let ids = candidate_masters(&phi, &t, &m);
        assert_eq!(ids, vec![0, 1], "both conflicting masters are candidates");
        let city = |id: u32| *m.tuple(id).get(phi.rhs_m());
        assert_ne!(city(0), city(1), "conflicting prescriptions must surface");
        let t2 = tuple!["Z2", Value::Null];
        assert_eq!(candidate_masters(&phi, &t2, &m), vec![2]);
    }

    #[test]
    fn rule_can_fill_missing_rhs() {
        // t2 of Fig. 1 has str/zip missing; ϕ3-style rule fills zip.
        let (r, rm, m) = fixture();
        let phi3_zip = EditingRule::build(&r, &rm)
            .name("phi3-zip")
            .key("AC", "AC")
            .key("phn", "Hphn")
            .fix("zip", "zip")
            .when_eq("type", 1)
            .when_neq("AC", "0800")
            .finish()
            .unwrap();
        let t2 = tuple![
            "Robert",
            "Brady",
            "020",
            "6884563",
            1,
            Value::Null,
            "Edi",
            Value::Null
        ];
        // t2[AC, phn] matches s2[AC, Hphn]
        let ids = candidate_masters(&phi3_zip, &t2, &m);
        assert_eq!(ids, vec![1]);
        let fixed = apply(&phi3_zip, &t2, m.tuple(1)).unwrap();
        assert_eq!(fixed.get(r.attr("zip").unwrap()), &Value::str("NW1 6XE"));
    }
}
