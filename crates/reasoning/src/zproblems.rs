//! The Z-problems of Sect. 4.2: Z-validating, Z-counting, Z-minimum.
//!
//! All three are intractable in general (NP-complete, #P-complete,
//! NP-complete + approximation-hard; Theorems 6, 9, 12, 17) but PTIME
//! for a *fixed* rule set (Props. 8, 11, 15). The algorithms here are
//! the fixed-Σ ones: enumerate candidate pattern tuples over the
//! decision domain of each rule-relevant attribute of `Z` and decide
//! each candidate with the coverage checker. The enumeration size is
//! `O(|dom|^|Z ∩ Z_Σ|)` — polynomial for fixed Σ, exponential otherwise
//! — and is guarded by an explicit budget.
//!
//! Following the observation in the proof of Theorem 6, only pattern
//! tuples made of *constants* need to be enumerated for Z-validating
//! and Z-minimum (a certain region exists iff one with a constant
//! single-row tableau does). Z-counting likewise counts constant
//! patterns over the decision domain, with the single fresh
//! representative playing the role of the canonical variable `v` of
//! Sect. 4.2; negated canonical patterns are not enumerated.

use certainfix_relation::{AttrId, AttrSet, MasterIndex, PatternTuple, PatternValue, Value};
use certainfix_rules::RuleSet;

use crate::closure::{closure, smallest_subset};
use crate::consistency::decision_domain;
use crate::coverage::check_coverage;
use crate::error::AnalysisError;
use crate::region::Region;

/// Budgets for the Z-problem enumerations.
#[derive(Clone, Copy, Debug)]
pub struct ZBudget {
    /// Max candidate pattern tuples per `Z`.
    pub max_patterns: u64,
    /// Budget forwarded to each coverage check (row instantiations).
    pub max_chases: u64,
}

impl Default for ZBudget {
    fn default() -> Self {
        ZBudget {
            max_patterns: 100_000,
            max_chases: 100_000,
        }
    }
}

/// Candidate enumeration: constants from the decision domain on
/// `Z ∩ Z_Σ`, implicit wildcard elsewhere.
fn candidate_patterns(
    rules: &RuleSet,
    master: &MasterIndex,
    z: &[AttrId],
    budget: &ZBudget,
) -> Result<Vec<PatternTuple>, AnalysisError> {
    let relevant = rules.touched_attrs();
    let mut slots: Vec<(AttrId, Vec<Value>)> = Vec::new();
    let mut total: u128 = 1;
    for &a in z {
        if relevant.contains(a) {
            let dom = decision_domain(rules, master, a);
            total = total.saturating_mul(dom.len().max(1) as u128);
            slots.push((a, dom));
        }
    }
    if total > budget.max_patterns as u128 {
        return Err(AnalysisError::BudgetExceeded {
            what: "candidate pattern tuples",
            needed: total,
            budget: budget.max_patterns,
        });
    }
    let mut out: Vec<PatternTuple> = vec![PatternTuple::empty()];
    for (a, dom) in slots {
        let mut next = Vec::with_capacity(out.len() * dom.len());
        for tc in &out {
            for v in &dom {
                next.push(tc.refined_with(&[(a, PatternValue::Const(*v))]));
            }
        }
        out = next;
    }
    Ok(out)
}

/// Z-validating: does a non-empty `Tc` exist making `(Z, Tc)` a certain
/// region for `(Σ, Dm)`? Returns a witness pattern tuple if so.
pub fn z_validate(
    rules: &RuleSet,
    master: &MasterIndex,
    z: &[AttrId],
    budget: &ZBudget,
) -> Result<Option<PatternTuple>, AnalysisError> {
    // Necessary condition (cheap): optimistic closure must reach R.
    let z_set: AttrSet = z.iter().copied().collect();
    if closure(rules, z_set).covered != AttrSet::full(rules.r_schema().len()) {
        return Ok(None);
    }
    for tc in candidate_patterns(rules, master, z, budget)? {
        let region = Region::new(
            z.to_vec(),
            certainfix_relation::Tableau::new(vec![tc.clone()]),
        )?;
        let report = check_coverage(rules, master, &region, budget.max_chases)?;
        if report.certain {
            return Ok(Some(tc));
        }
    }
    Ok(None)
}

/// Z-counting: how many candidate pattern tuples make `(Z, {tc})` a
/// certain region?
pub fn z_count(
    rules: &RuleSet,
    master: &MasterIndex,
    z: &[AttrId],
    budget: &ZBudget,
) -> Result<u64, AnalysisError> {
    let z_set: AttrSet = z.iter().copied().collect();
    if closure(rules, z_set).covered != AttrSet::full(rules.r_schema().len()) {
        return Ok(0);
    }
    let mut count = 0u64;
    for tc in candidate_patterns(rules, master, z, budget)? {
        let region = Region::new(z.to_vec(), certainfix_relation::Tableau::new(vec![tc]))?;
        if check_coverage(rules, master, &region, budget.max_chases)?.certain {
            count += 1;
        }
    }
    Ok(count)
}

/// Z-minimum: a smallest `Z` with `|Z| ≤ k` admitting a non-empty
/// certain tableau, or `None`.
///
/// Attributes no rule fixes are forced into `Z`; the completion is
/// searched over rule-relevant attributes in ascending subset size (the
/// search `CompCRegion`'s exact completion shares), each candidate
/// decided by [`z_validate`].
pub fn z_minimum(
    rules: &RuleSet,
    master: &MasterIndex,
    k: usize,
    budget: &ZBudget,
) -> Result<Option<Vec<AttrId>>, AnalysisError> {
    let seed = rules.unfixable_attrs();
    if seed.len() > k {
        return Ok(None);
    }
    let candidates: Vec<AttrId> = (rules.touched_attrs() - seed).to_vec();
    let found = smallest_subset(&candidates, k - seed.len(), |picked| {
        Ok(z_validate(rules, master, &(seed | picked).to_vec(), budget)?.is_some())
    })?;
    Ok(found.map(|picked| (seed | picked).to_vec()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use certainfix_relation::{tuple, Relation, Schema};
    use certainfix_rules::parse_rules;
    use std::sync::Arc;

    /// Small functional master: key a determines b, c; key b determines c.
    fn simple() -> (Arc<Schema>, RuleSet, MasterIndex) {
        let r = Schema::new("R", ["a", "b", "c"]).unwrap();
        let rm = r.clone();
        let rules = parse_rules(
            "r1: match a ~ a set b := b, c := c\nr2: match b ~ b set c := c",
            &r,
            &rm,
        )
        .unwrap();
        let master = MasterIndex::new(Arc::new(
            Relation::new(rm, vec![tuple![1, 10, 100], tuple![2, 20, 200]]).unwrap(),
        ));
        (r, rules, master)
    }

    #[test]
    fn z_validate_finds_witness() {
        let (r, rules, master) = simple();
        let z = vec![r.attr("a").unwrap()];
        let witness = z_validate(&rules, &master, &z, &ZBudget::default())
            .unwrap()
            .expect("Z = {a} admits a certain tableau");
        // the witness pins a to a master key (1 or 2)
        let cell = witness.cell(r.attr("a").unwrap()).unwrap();
        assert!(
            matches!(cell, PatternValue::Const(v) if v == &Value::int(1) || v == &Value::int(2))
        );
    }

    #[test]
    fn z_validate_rejects_insufficient_z() {
        let (r, rules, master) = simple();
        // Z = {b}: rule r2 covers c but nothing covers a.
        let z = vec![r.attr("b").unwrap()];
        assert!(z_validate(&rules, &master, &z, &ZBudget::default())
            .unwrap()
            .is_none());
    }

    #[test]
    fn z_count_counts_master_keys() {
        let (r, rules, master) = simple();
        let z = vec![r.attr("a").unwrap()];
        // dom(a) = {1, 2, fresh}; 1 and 2 yield certain regions, fresh
        // matches no master tuple.
        assert_eq!(
            z_count(&rules, &master, &z, &ZBudget::default()).unwrap(),
            2
        );
    }

    #[test]
    fn z_count_zero_when_closure_insufficient() {
        let (r, rules, master) = simple();
        let z = vec![r.attr("c").unwrap()];
        assert_eq!(
            z_count(&rules, &master, &z, &ZBudget::default()).unwrap(),
            0
        );
    }

    #[test]
    fn z_minimum_finds_singleton() {
        let (r, rules, master) = simple();
        let z = z_minimum(&rules, &master, 3, &ZBudget::default())
            .unwrap()
            .expect("minimum exists");
        assert_eq!(z, vec![r.attr("a").unwrap()]);
        // too-small k
        assert!(z_minimum(&rules, &master, 0, &ZBudget::default())
            .unwrap()
            .is_none());
    }

    #[test]
    fn budget_guards_enumeration() {
        let (r, rules, master) = simple();
        let z = vec![r.attr("a").unwrap(), r.attr("b").unwrap()];
        let tight = ZBudget {
            max_patterns: 2,
            max_chases: 100,
        };
        // dom(a) × dom(b) = 3 × 3 > 2
        assert!(matches!(
            z_validate(&rules, &master, &z, &tight),
            Err(AnalysisError::BudgetExceeded { .. })
        ));
    }

    #[test]
    fn inconsistent_master_blocks_validation() {
        // Same key, conflicting prescriptions: no tableau can help the
        // conflicting key, but the OTHER key still validates.
        let r = Schema::new("R", ["a", "b"]).unwrap();
        let rm = r.clone();
        let rules = parse_rules("r1: match a ~ a set b := b", &r, &rm).unwrap();
        let master = MasterIndex::new(Arc::new(
            Relation::new(rm, vec![tuple![1, 10], tuple![1, 11], tuple![2, 20]]).unwrap(),
        ));
        let z = vec![r.attr("a").unwrap()];
        let witness = z_validate(&rules, &master, &z, &ZBudget::default())
            .unwrap()
            .expect("key 2 is clean");
        assert_eq!(
            witness.cell(r.attr("a").unwrap()),
            Some(&PatternValue::Const(Value::int(2)))
        );
        // counting sees exactly one valid pattern
        assert_eq!(
            z_count(&rules, &master, &z, &ZBudget::default()).unwrap(),
            1
        );
    }
}
