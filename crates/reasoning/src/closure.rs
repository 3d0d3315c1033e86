//! Schema-level attribute closure under a subset of `Σ`, and the three
//! searches built on it.
//!
//! `closure(Z)` is the least superset of `Z` closed under: if
//! `lhs(ϕ) ∪ lhsp(ϕ) ⊆ closure` then `rhs(ϕ) ∈ closure`, for every `ϕ`
//! of the subset. It over-approximates the covered attribute set of
//! Sect. 3 (it assumes a matching master tuple always exists) and is the
//! shared core of certain-region derivation ([`crate::derive`]) and
//! suggestion generation ([`crate::suggest`](mod@crate::suggest)): a
//! region can only be certain if `closure(Z) = R`, and the master data
//! then decides which pattern rows actually deliver.
//!
//! Both callers close over a *subset* of `Σ`, named by ascending rule
//! ids: region derivation over the rules a pattern mode guarantees to
//! fire, suggestion generation over the applicable rules `Σ_t[Z]`.
//! Closure reads only each rule's premise and `rhs`, and refining a
//! rule with `t[Z]`'s values changes neither, so the ids stand for the
//! refined rules too. On the one fixpoint loop sit the searches both
//! callers share:
//!
//! * `complete` — greedy completion: add the attribute that grows the
//!   closure most until it reaches `R`;
//! * `minimise` — local minimisation: drop each added attribute the
//!   closure can do without;
//! * `smallest_subset` — the ascending-size subset search behind
//!   `CompCRegion`'s exact completion and Z-minimum.

use certainfix_relation::{AttrId, AttrSet};
use certainfix_rules::RuleSet;

/// The closure plus a trace of which rules fired, in firing order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClosureTrace {
    /// `closure(Z)`.
    pub covered: AttrSet,
    /// Rule indices that fired, in the round order they first became
    /// applicable.
    pub fired: Vec<usize>,
}

/// Compute `closure(z)` under all of `rules`, with the firing trace.
pub fn closure(rules: &RuleSet, z: AttrSet) -> ClosureTrace {
    closure_over(rules, 0..rules.len(), z)
}

/// Compute `closure(z)` under the rules of `subset` alone (ascending
/// ids into `rules`, which the firing trace reports).
pub fn closure_over(
    rules: &RuleSet,
    subset: impl Iterator<Item = usize> + Clone,
    z: AttrSet,
) -> ClosureTrace {
    let mut covered = z;
    let mut fired = Vec::new();
    loop {
        let before = fired.len();
        for i in subset.clone() {
            let rule = rules.rule(i);
            if !covered.contains(rule.rhs()) && rule.premise().is_subset(&covered) {
                covered.insert(rule.rhs());
                fired.push(i);
            }
        }
        if fired.len() == before {
            return ClosureTrace { covered, fired };
        }
    }
}

/// Greedy completion: the attributes `S` added to `base`, one per step,
/// until `closure(base ∪ S) = R` under `subset`. Each step adds the
/// uncovered attribute whose addition grows the closure most, the
/// lowest id among ties.
pub(crate) fn complete(rules: &RuleSet, subset: &[usize], base: AttrSet) -> AttrSet {
    let full = AttrSet::full(rules.r_schema().len());
    let close = |z| closure_over(rules, subset.iter().copied(), z).covered;
    let mut s = AttrSet::EMPTY;
    let mut covered = close(base);
    while covered != full {
        let mut best: Option<(AttrId, usize)> = None;
        for a in (full - covered).iter() {
            let gain = close(covered | AttrSet::singleton(a)).len();
            if best.map_or(true, |(_, g)| gain > g) {
                best = Some((a, gain));
            }
        }
        s.insert(best.expect("an attribute is uncovered").0);
        covered = close(base | s);
    }
    s
}

/// Local minimisation: drop each member of `s`, ascending, whose
/// removal keeps `closure(keep ∪ s) = R` under `subset`.
pub(crate) fn minimise(
    rules: &RuleSet,
    subset: &[usize],
    keep: AttrSet,
    mut s: AttrSet,
) -> AttrSet {
    let full = AttrSet::full(rules.r_schema().len());
    for a in s.to_vec() {
        let without = s - AttrSet::singleton(a);
        if closure_over(rules, subset.iter().copied(), keep | without).covered == full {
            s = without;
        }
    }
    s
}

/// The smallest-subset search: the subsets of `candidates` with at most
/// `max_k` members, by ascending size and, within a size, in
/// lexicographic order of their positions; the first one `accept`
/// takes, or the first error it raises.
pub(crate) fn smallest_subset<E>(
    candidates: &[AttrId],
    max_k: usize,
    mut accept: impl FnMut(AttrSet) -> Result<bool, E>,
) -> Result<Option<AttrSet>, E> {
    fn search<E>(
        candidates: &[AttrId],
        k: usize,
        picked: AttrSet,
        accept: &mut dyn FnMut(AttrSet) -> Result<bool, E>,
    ) -> Result<Option<AttrSet>, E> {
        if k == 0 {
            return Ok(accept(picked)?.then_some(picked));
        }
        // stop once fewer than k candidates are left
        for (i, &a) in candidates.iter().enumerate().take(candidates.len() + 1 - k) {
            let next = picked | AttrSet::singleton(a);
            if let Some(found) = search(&candidates[i + 1..], k - 1, next, accept)? {
                return Ok(Some(found));
            }
        }
        Ok(None)
    }
    for k in 0..=max_k.min(candidates.len()) {
        if let Some(found) = search(candidates, k, AttrSet::EMPTY, &mut accept)? {
            return Ok(Some(found));
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use certainfix_relation::{AttrId, Schema};
    use certainfix_rules::parse_rules;
    use std::convert::Infallible;

    fn rules() -> RuleSet {
        let r = Schema::new("R", ["a", "b", "c", "d", "e"]).unwrap();
        let rm = r.clone();
        parse_rules(
            r#"
            r1: match a ~ a set b := b
            r2: match b ~ b set c := c when e = 1
            r3: match a ~ a, c ~ c set d := d
            "#,
            &r,
            &rm,
        )
        .unwrap()
    }

    fn set(ids: &[u16]) -> AttrSet {
        ids.iter().map(|&i| AttrId(i)).collect()
    }

    #[test]
    fn chains_through_rules() {
        // a → b; (b, pattern e) → c; (a, c) → d
        let rs = rules();
        let tr = closure(&rs, set(&[0, 4])); // {a, e}
        assert_eq!(tr.covered, set(&[0, 1, 2, 3, 4]));
        assert_eq!(tr.fired.len(), 3);
        // r1 fires before r2 before r3
        assert_eq!(tr.fired, vec![0, 1, 2]);
    }

    #[test]
    fn pattern_attrs_are_prerequisites() {
        // without e, r2 cannot fire and c/d stay uncovered
        let rs = rules();
        let tr = closure(&rs, set(&[0]));
        assert_eq!(tr.covered, set(&[0, 1]));
        assert_eq!(tr.fired, vec![0]);
    }

    #[test]
    fn already_covered_rhs_does_not_fire() {
        let rs = rules();
        let tr = closure(&rs, set(&[0, 1, 2, 3, 4]));
        assert!(tr.fired.is_empty());
        assert_eq!(tr.covered, set(&[0, 1, 2, 3, 4]));
    }

    #[test]
    fn monotone_and_idempotent() {
        let rs = rules();
        let small = closure(&rs, set(&[0])).covered;
        let large = closure(&rs, set(&[0, 4])).covered;
        assert!(small.is_subset(&large));
        assert_eq!(closure(&rs, small).covered, small, "idempotent");
        assert_eq!(closure(&rs, large).covered, large);
    }

    /// A subset closes over its own rules only, and its trace names
    /// them by their ids in the whole set.
    #[test]
    fn a_subset_fires_only_its_rules() {
        let rs = rules();
        let tr = closure_over(&rs, [0, 2].into_iter(), set(&[0, 4]));
        assert_eq!(
            tr.covered,
            set(&[0, 1, 4]),
            "r2 is left out, so c and d stay open"
        );
        assert_eq!(tr.fired, vec![0]);
        let tr = closure_over(&rs, [0, 2].into_iter(), set(&[0, 2]));
        assert_eq!((tr.covered, tr.fired), (set(&[0, 1, 2, 3]), vec![0, 2]));
    }

    #[test]
    fn completion_then_minimisation_reaches_r() {
        let rs = rules();
        let all: Vec<usize> = (0..rs.len()).collect();
        // from {e}, a alone reaches all of R; under r1 and r3 alone
        // from {c}, a grows the closure most and e must be added too
        assert_eq!(complete(&rs, &all, set(&[4])), set(&[0]));
        assert_eq!(complete(&rs, &[0, 2], set(&[2])), set(&[0, 4]));
        assert_eq!(minimise(&rs, &all, set(&[4]), set(&[0])), set(&[0]));
        // an attribute the closure reaches anyway is dropped
        assert_eq!(minimise(&rs, &all, set(&[0, 4]), set(&[1])), AttrSet::EMPTY);
    }

    #[test]
    fn smallest_subset_goes_by_size_then_position() {
        let cands = [AttrId(1), AttrId(2), AttrId(3)];
        let mut seen = Vec::new();
        let found = smallest_subset(&cands, 2, |s| {
            seen.push(s);
            Ok::<_, Infallible>(s.len() == 2 && s.contains(AttrId(3)))
        });
        assert_eq!(found.ok().flatten(), Some(set(&[1, 3])));
        assert_eq!(
            seen,
            [
                set(&[]),
                set(&[1]),
                set(&[2]),
                set(&[3]),
                set(&[1, 2]),
                set(&[1, 3])
            ]
        );
        let err = smallest_subset(&cands, 3, |s| if s.len() == 1 { Err(s) } else { Ok(false) });
        assert_eq!(err, Err(set(&[1])));
        assert_eq!(smallest_subset(&cands, 1, |_| Ok::<_, ()>(false)), Ok(None));
    }
}
