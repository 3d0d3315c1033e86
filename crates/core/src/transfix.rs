//! Procedure `TransFix` (Fig. 5 of the paper).
//!
//! Given a tuple `t` with validated attributes `Z′`, `TransFix` walks
//! the rule dependency graph (Fig. 4): it seeds a *usable* set with the
//! rules whose premise is validated, applies them with matching master
//! tuples, and upgrades downstream rules from the *not-yet-usable* set
//! as their prerequisites become validated. Each rule is consumed at
//! most once, giving the `O(card(Σ)·|Σ|)` bound of Sect. 5.1.
//!
//! The walk also answers Fig. 3's validation step — does `t[Z′]` lead
//! to a unique fix? ([`TransFixOutcome::unique`], the chase's verdict)
//! — so a round walks the rules once. Where the master disagrees with
//! itself (two master tuples sharing a key), the disputed update is
//! *skipped* and reported, keeping the correctness guarantee ("the
//! attributes updated are correct") intact.

use certainfix_relation::{AttrSet, MasterIndex, Tuple, Value};
use certainfix_rules::{DependencyGraph, FixHits, ProbeScratch, RulePlan, RuleSet};

/// A rule's hit list as the walk reads it: its `(row, Bm)` pairs
/// without a plan, its span summary with one. A summary names the rows
/// a scan of the pairs stops at, so both give the same answers.
enum Hits<'h> {
    Walked(Vec<(u32, Value)>),
    Summarised(FixHits<'h>),
}

impl Hits<'_> {
    /// What the candidates prescribe for the rule's target: the first
    /// non-null row and value, and whether a later non-null value
    /// disputes it.
    fn prescribe(&self) -> (Option<(u32, Value)>, bool) {
        match self {
            Hits::Walked(rows) => {
                let mut non_null = rows.iter().copied().filter(|(_, v)| !v.is_null());
                let first = non_null.next();
                (
                    first,
                    first.is_some_and(|(_, w)| non_null.any(|(_, v)| v != w)),
                )
            }
            Hits::Summarised(hits) => (hits.first_non_null(), hits.is_split()),
        }
    }

    /// `true` iff some candidate's value does not agree with `x` (a
    /// null agrees with nothing).
    fn disagree_with(&self, x: &Value) -> bool {
        match self {
            Hits::Walked(rows) => rows.iter().any(|(_, v)| !v.agrees_with(x)),
            Hits::Summarised(hits) => hits.first_disagreeing(x).is_some(),
        }
    }
}

/// Result of a `TransFix` run.
#[derive(Clone, Debug)]
pub struct TransFixOutcome {
    /// The tuple with validated fixes applied.
    pub tuple: Tuple,
    /// The extended validated set `Z′`.
    pub validated: AttrSet,
    /// Attributes written by rules during this run.
    pub fixed: AttrSet,
    /// Applied `(rule index, master row)` pairs, in order.
    pub steps: Vec<(usize, u32)>,
    /// Rule indices whose prescriptions were skipped as disputed
    /// (conflicting master evidence). Empty in the intended flow.
    pub disputed: Vec<usize>,
    /// Does `t[validated]` lead to a unique fix? The chase's verdict
    /// (Theorem 4): `false` iff a rule the walk popped with a matching
    /// pattern has a candidate that does not agree with its target's
    /// value — the one this walk fixed, else the candidates' first
    /// non-null one, else null. A rule whose target this walk fixed is
    /// still probed for this; a target validated on entry is not.
    pub unique: bool,
}

/// Run `TransFix` on `t` with validated set `validated`, probing the
/// master's shared lineage indexes directly (no compiled plan).
///
/// This is the *reference* path: the engine always runs the
/// plan-backed [`transfix_with`], and this function exists as the
/// independent oracle that tests and property checks compare it
/// against. All three entry points run one walk; only the probe source
/// differs.
pub fn transfix(
    rules: &RuleSet,
    master: &MasterIndex,
    graph: &DependencyGraph,
    t: &Tuple,
    validated: AttrSet,
) -> TransFixOutcome {
    walk(
        rules,
        master,
        graph,
        Probes::Master,
        &mut ProbeScratch::new(),
        t,
        validated,
    )
}

/// [`transfix`] through a compiled [`RulePlan`] and a caller-owned
/// [`ProbeScratch`] — the allocation-free hot path the engine runs.
///
/// Each rule's key probe goes straight to its pinned index: no
/// `RwLock`, no key-list hashing, the projection lands in the reused
/// scratch buffer, and the hit list is read through its span summary
/// ([`RulePlan::probe_fix`]) rather than walked. The plan probes the
/// same hash maps as the reference [`transfix`] path, and a summary
/// names the rows the reference scan stops at, so the outcome is
/// bit-identical.
///
/// The plan must be compiled against `master`'s generation; after a
/// master delta, recompile (or pick up the next epoch) before calling.
pub fn transfix_with(
    rules: &RuleSet,
    master: &MasterIndex,
    graph: &DependencyGraph,
    plan: &RulePlan,
    scratch: &mut ProbeScratch,
    t: &Tuple,
    validated: AttrSet,
) -> TransFixOutcome {
    debug_assert_eq!(plan.len(), rules.len());
    walk(
        rules,
        master,
        graph,
        Probes::Plan(plan),
        scratch,
        t,
        validated,
    )
}

/// Run `TransFix` over a block of independent `(tuple, validated)`
/// items, vectorizing the probes through the plan's block layer: one
/// [`RulePlan::probe_block_seeds`] call bulk-prefetches every seed
/// rule's key probe (grouped by shared probe key, each cell one lookup
/// into the pinned flat index, held as a span of its rows), then each
/// tuple's walk consumes its prefetched cells.
///
/// **Bit-identity:** the outcome of every item equals what
/// [`transfix_with`] returns for it alone, at every block size. The
/// walk tests each rule's pattern on the tuple as this walk fixed it,
/// whatever the probe source, and consumes a prefetched cell only
/// while no fix of this walk touched the rule's key; otherwise it
/// probes live exactly like the single-tuple path. Consuming a cell
/// counts one logical probe, so `plan_probes` is block-size
/// independent too.
///
/// A block of one prefetches nothing: it is [`transfix_with`].
pub fn transfix_block(
    rules: &RuleSet,
    master: &MasterIndex,
    graph: &DependencyGraph,
    plan: &RulePlan,
    scratch: &mut ProbeScratch,
    items: &[(&Tuple, AttrSet)],
) -> Vec<TransFixOutcome> {
    debug_assert_eq!(plan.len(), rules.len());
    let prefetch = items.len() >= 2;
    if prefetch {
        plan.probe_block_seeds(items, scratch);
    }
    items
        .iter()
        .enumerate()
        .map(|(j, &(t, z))| {
            let probes = if prefetch {
                Probes::Block(plan, j)
            } else {
                Probes::Plan(plan)
            };
            walk(rules, master, graph, probes, scratch, t, z)
        })
        .collect()
}

/// Where a walk's key probes come from. Every source reads the same
/// hit list for a `(rule, tuple)` pair — the master source walks its
/// ids, the plan sources read its span summary — so the walk, and with
/// it the outcome, is the same whichever runs.
#[derive(Clone, Copy)]
enum Probes<'p> {
    /// The master's shared lineage indexes, no plan (the D4 oracle).
    Master,
    /// The compiled plan, probed live.
    Plan(&'p RulePlan),
    /// Block tuple `j`'s prefetched cells.
    Block(&'p RulePlan, usize),
}

/// The one `TransFix` walk behind [`transfix`], [`transfix_with`] and
/// [`transfix_block`].
fn walk(
    rules: &RuleSet,
    master: &MasterIndex,
    graph: &DependencyGraph,
    probes: Probes<'_>,
    scratch: &mut ProbeScratch,
    t: &Tuple,
    validated: AttrSet,
) -> TransFixOutcome {
    debug_assert_eq!(graph.len(), rules.len());
    let mut tuple = t.clone();
    let mut z = validated;
    let mut fixed = AttrSet::EMPTY;
    let mut steps = Vec::new();
    let mut disputed = Vec::new();
    let mut unique = true;

    // usable[i]: premise validated; enqueued[i]: ever pushed to vset
    let n = rules.len();
    let mut enqueued = vec![false; n];
    let mut in_uset = vec![false; n];
    let mut vset: Vec<usize> = Vec::new();
    for (i, rule) in rules.iter() {
        if rule.premise().is_subset(&z) {
            vset.push(i);
            enqueued[i] = true;
        }
    }

    while let Some(v) = vset.pop() {
        let rule = rules.rule(v);
        let b = rule.rhs();
        // a target validated before this walk is protected
        if validated.contains(b) {
            continue;
        }
        if !rule.pattern().matches(&tuple) {
            continue;
        }
        let hits = match probes {
            Probes::Master => {
                let ids = master.matches_projection(&tuple, rule.lhs(), rule.lhs_m());
                let value = |id| *master.tuple(id).get(rule.rhs_m());
                Hits::Walked(ids.into_iter().map(|id| (id, value(id))).collect())
            }
            Probes::Plan(p) => Hits::Summarised(p.probe_fix(v, &tuple, scratch)),
            Probes::Block(p, j) => {
                // a prefetched cell holds only while no fix of this walk
                // touched the key it was computed from; a cascaded rule,
                // an unseeded cell or a touched key probes live, exactly
                // like the single-tuple path
                let prefetched = fixed
                    .is_disjoint(&p.rule(v).lhs_set())
                    .then(|| p.block_probe_fix(v, j, scratch))
                    .flatten();
                Hits::Summarised(prefetched.unwrap_or_else(|| p.probe_fix(v, &tuple, scratch)))
            }
        };
        // a target this walk fixed is only checked against its value
        if fixed.contains(b) {
            unique &= !hits.disagree_with(tuple.get(b));
            continue;
        }
        let (prescription, conflict) = hits.prescribe();
        unique &= !hits.disagree_with(&prescription.map_or(Value::Null, |(_, x)| x));
        if conflict {
            disputed.push(v);
        } else if let Some((id, val)) = prescription {
            tuple.set(b, val);
            z.insert(b);
            fixed.insert(b);
            steps.push((v, id));
            // inspect successors: upgrade or register
            for &u in graph.successors(v) {
                if enqueued[u] {
                    if in_uset[u] && rules.rule(u).premise().is_subset(&z) {
                        in_uset[u] = false;
                        vset.push(u);
                    }
                    continue;
                }
                enqueued[u] = true;
                if rules.rule(u).premise().is_subset(&z) {
                    vset.push(u);
                } else {
                    in_uset[u] = true;
                }
            }
        }
    }

    TransFixOutcome {
        tuple,
        validated: z,
        fixed,
        steps,
        disputed,
        unique,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use certainfix_relation::{tuple, Relation, Schema};
    use certainfix_rules::parse_rules;
    use std::sync::Arc;

    fn fig1() -> (Arc<Schema>, RuleSet, MasterIndex, DependencyGraph) {
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
        (r, rules, master, graph)
    }

    fn attrs(r: &Schema, names: &[&str]) -> AttrSet {
        names.iter().map(|n| r.attr(n).unwrap()).collect()
    }

    #[test]
    fn example12_trace() {
        // Z = {zip} on t1: ϕ1 fixes AC/str/city; Example 12's table.
        let (r, rules, master, graph) = fig1();
        let t1 = tuple![
            "Bob",
            "Brady",
            "020",
            "079172485",
            2,
            "501 Elm St.",
            "Edi",
            "EH7 4AH",
            "CD"
        ];
        let out = transfix(&rules, &master, &graph, &t1, attrs(&r, &["zip"]));
        assert_eq!(out.validated, attrs(&r, &["zip", "AC", "str", "city"]));
        assert_eq!(out.fixed, attrs(&r, &["AC", "str", "city"]));
        assert_eq!(out.tuple.get(r.attr("AC").unwrap()), &Value::str("131"));
        assert_eq!(
            out.tuple.get(r.attr("str").unwrap()),
            &Value::str("51 Elm Row")
        );
        assert!(out.disputed.is_empty());
        assert_eq!(out.steps.len(), 3);
    }

    #[test]
    fn cascades_through_the_graph() {
        // Z = {AC, phn, type} on t3: ϕ3 fixes str/city/zip, which then
        // enables ϕ1 (agreeing values from s2).
        let (r, rules, master, graph) = fig1();
        let t3 = tuple![
            "Mark",
            "Smith",
            "020",
            "6884563",
            1,
            "20 Baker St.",
            "Lnd",
            "EH7 4AH",
            "DVD"
        ];
        let out = transfix(
            &rules,
            &master,
            &graph,
            &t3,
            attrs(&r, &["AC", "phn", "type"]),
        );
        assert_eq!(
            out.tuple.get(r.attr("zip").unwrap()),
            &Value::str("NW1 6XE"),
            "zip corrected from s2 via the home-phone rule"
        );
        assert!(out.validated.contains(r.attr("city").unwrap()));
        assert!(out.disputed.is_empty());
    }

    #[test]
    fn each_rule_fires_at_most_once() {
        let (r, rules, master, graph) = fig1();
        let t1 = tuple![
            "Bob",
            "Brady",
            "020",
            "079172485",
            2,
            "501 Elm St.",
            "Edi",
            "EH7 4AH",
            "CD"
        ];
        let out = transfix(
            &rules,
            &master,
            &graph,
            &t1,
            attrs(&r, &["zip", "phn", "type", "item"]),
        );
        let mut seen = std::collections::HashSet::new();
        for (rule, _) in &out.steps {
            assert!(seen.insert(*rule), "rule {rule} fired twice");
        }
        assert!(out.steps.len() <= rules.len());
    }

    #[test]
    fn disputed_updates_are_skipped() {
        let r = Schema::new("R", ["zip", "city"]).unwrap();
        let rm = r.clone();
        let rules = parse_rules("p: match zip ~ zip set city := city", &r, &rm).unwrap();
        let master = MasterIndex::new(Arc::new(
            Relation::new(rm, vec![tuple!["Z1", "Edi"], tuple!["Z1", "Lnd"]]).unwrap(),
        ));
        let graph = DependencyGraph::new(&rules);
        let t = tuple!["Z1", Value::Null];
        let out = transfix(&rules, &master, &graph, &t, attrs(&r, &["zip"]));
        assert_eq!(out.disputed, vec![0]);
        assert!(out.tuple.get(r.attr("city").unwrap()).is_null());
        assert!(!out.validated.contains(r.attr("city").unwrap()));
    }

    #[test]
    fn disputed_attribute_is_left_exactly_as_entered() {
        // Two master tuples share the key Z1 but disagree on city AND
        // on street; the entered (non-null) values must survive both
        // disputed updates untouched, stay unvalidated, and both rules
        // must be reported.
        let r = Schema::new("R", ["zip", "city", "str"]).unwrap();
        let rm = r.clone();
        let rules = parse_rules(
            "pc: match zip ~ zip set city := city\nps: match zip ~ zip set str := str",
            &r,
            &rm,
        )
        .unwrap();
        let master = MasterIndex::new(Arc::new(
            Relation::new(
                rm,
                vec![
                    tuple!["Z1", "Edi", "51 Elm Row"],
                    tuple!["Z1", "Lnd", "20 Baker St."],
                ],
            )
            .unwrap(),
        ));
        let graph = DependencyGraph::new(&rules);
        let t = tuple!["Z1", "Glasgo", "somewhere"];
        let out = transfix(&rules, &master, &graph, &t, attrs(&r, &["zip"]));
        let city = r.attr("city").unwrap();
        let strt = r.attr("str").unwrap();
        let mut disputed = out.disputed.clone();
        disputed.sort_unstable();
        assert_eq!(disputed, vec![0, 1], "both rules hit conflicting evidence");
        assert_eq!(
            out.tuple.get(city),
            &Value::str("Glasgo"),
            "disputed attribute keeps the entered value"
        );
        assert_eq!(out.tuple.get(strt), &Value::str("somewhere"));
        assert!(!out.validated.contains(city));
        assert!(!out.validated.contains(strt));
        assert!(out.fixed.is_empty());
        assert!(out.steps.is_empty());
        // the rest of the tuple is untouched too
        assert_eq!(out.tuple, t);
    }

    #[test]
    fn agreeing_duplicates_are_not_disputed() {
        // Two master tuples share the key AND the prescribed value:
        // no conflict, the fix applies.
        let r = Schema::new("R", ["zip", "city"]).unwrap();
        let rm = r.clone();
        let rules = parse_rules("p: match zip ~ zip set city := city", &r, &rm).unwrap();
        let master = MasterIndex::new(Arc::new(
            Relation::new(rm, vec![tuple!["Z1", "Edi"], tuple!["Z1", "Edi"]]).unwrap(),
        ));
        let graph = DependencyGraph::new(&rules);
        let out = transfix(
            &rules,
            &master,
            &graph,
            &tuple!["Z1", "Lnd"],
            attrs(&r, &["zip"]),
        );
        assert!(out.disputed.is_empty());
        assert_eq!(out.tuple.get(r.attr("city").unwrap()), &Value::str("Edi"));
        assert!(out.validated.contains(r.attr("city").unwrap()));
    }

    #[test]
    fn null_master_values_do_not_fix() {
        let r = Schema::new("R", ["zip", "city"]).unwrap();
        let rm = r.clone();
        let rules = parse_rules("p: match zip ~ zip set city := city", &r, &rm).unwrap();
        let master = MasterIndex::new(Arc::new(
            Relation::new(rm, vec![tuple!["Z1", Value::Null]]).unwrap(),
        ));
        let graph = DependencyGraph::new(&rules);
        let out = transfix(
            &rules,
            &master,
            &graph,
            &tuple!["Z1", "x"],
            attrs(&r, &["zip"]),
        );
        assert!(out.fixed.is_empty(), "a null prescription is no fix");
    }

    /// The compiled-plan hot path is bit-identical to the legacy
    /// probes: same fixes, same validated sets, same step order, same
    /// disputes — including the conflicting-master shape.
    #[test]
    fn plan_backed_transfix_matches_legacy() {
        use certainfix_rules::{ProbeScratch, RulePlan};
        let (r, rules, master, graph) = fig1();
        let plan = RulePlan::compile(&rules, &master);
        let mut scratch = ProbeScratch::new();
        let t1 = tuple![
            "Bob",
            "Brady",
            "020",
            "079172485",
            2,
            "501 Elm St.",
            "Edi",
            "EH7 4AH",
            "CD"
        ];
        for z in [
            attrs(&r, &["zip"]),
            attrs(&r, &["zip", "phn", "type"]),
            attrs(&r, &["AC", "phn", "type"]),
            attrs(&r, &["item"]),
            AttrSet::EMPTY,
        ] {
            let legacy = transfix(&rules, &master, &graph, &t1, z);
            let planned = transfix_with(&rules, &master, &graph, &plan, &mut scratch, &t1, z);
            assert_eq!(planned.tuple, legacy.tuple, "Z = {z:?}");
            assert_eq!(planned.validated, legacy.validated);
            assert_eq!(planned.fixed, legacy.fixed);
            assert_eq!(planned.steps, legacy.steps);
            assert_eq!(planned.disputed, legacy.disputed);
        }
        // disputed evidence agrees too
        let r2 = Schema::new("R", ["zip", "city"]).unwrap();
        let rm2 = r2.clone();
        let rules2 = parse_rules("p: match zip ~ zip set city := city", &r2, &rm2).unwrap();
        let master2 = MasterIndex::new(Arc::new(
            Relation::new(rm2, vec![tuple!["Z1", "Edi"], tuple!["Z1", "Lnd"]]).unwrap(),
        ));
        let plan2 = RulePlan::compile(&rules2, &master2);
        let graph2 = DependencyGraph::new(&rules2);
        let t = tuple!["Z1", Value::Null];
        let a = transfix(&rules2, &master2, &graph2, &t, attrs(&r2, &["zip"]));
        let b = transfix_with(
            &rules2,
            &master2,
            &graph2,
            &plan2,
            &mut scratch,
            &t,
            attrs(&r2, &["zip"]),
        );
        assert_eq!(a.disputed, b.disputed);
        assert_eq!(a.tuple, b.tuple);
    }

    /// Block-probed `TransFix` is bit-identical to the single-tuple
    /// walk at every block size — same tuples, validated sets, step
    /// order, disputes, verdicts, and the same logical probe count.
    /// `t0800` enters `AC = '0800'`, which its `zip` makes ϕ1 fix to
    /// `131`: ϕ4's pattern matches the entered tuple but not the fixed
    /// one, and ϕ3's (`AC != '0800'`) the other way round.
    #[test]
    fn block_transfix_matches_single_tuple_at_every_block_size() {
        use certainfix_rules::{ProbeScratch, RulePlan};
        let (r, rules, master, graph) = fig1();
        let plan = RulePlan::compile(&rules, &master);
        let t1 = tuple![
            "Bob",
            "Brady",
            "020",
            "079172485",
            2,
            "501 Elm St.",
            "Edi",
            "EH7 4AH",
            "CD"
        ];
        let t3 = tuple![
            "Mark",
            "Smith",
            "020",
            "6884563",
            1,
            "20 Baker St.",
            "Lnd",
            "EH7 4AH",
            "DVD"
        ];
        let mut tnull = t1.clone();
        tnull.set(r.attr("zip").unwrap(), Value::Null);
        let mut t0800 = t1.clone();
        t0800.set(r.attr("AC").unwrap(), Value::str("0800"));
        let tuples = [&t1, &t3, &tnull, &t1, &t3, &t1, &tnull, &t0800, &t0800];
        let zsets = [
            attrs(&r, &["zip"]),
            attrs(&r, &["AC", "phn", "type"]),
            attrs(&r, &["zip"]),
            attrs(&r, &["zip", "phn", "type"]),
            AttrSet::EMPTY,
            attrs(&r, &["item"]),
            attrs(&r, &["phn", "type"]),
            attrs(&r, &["zip"]),
            attrs(&r, &["zip", "phn", "type"]),
        ];
        let items: Vec<(&Tuple, AttrSet)> =
            tuples.iter().zip(zsets).map(|(&t, z)| (t, z)).collect();

        let mut single = ProbeScratch::new();
        let want: Vec<TransFixOutcome> = items
            .iter()
            .map(|&(t, z)| transfix_with(&rules, &master, &graph, &plan, &mut single, t, z))
            .collect();
        let (want_probes, _, _) = single.take_counters();

        for size in [1, 2, 3, items.len()] {
            let mut scratch = ProbeScratch::new();
            let got: Vec<TransFixOutcome> = items
                .chunks(size)
                .flat_map(|chunk| {
                    transfix_block(&rules, &master, &graph, &plan, &mut scratch, chunk)
                })
                .collect();
            for (a, b) in got.iter().zip(&want) {
                assert_eq!(a.tuple, b.tuple, "block size {size}");
                assert_eq!(a.validated, b.validated);
                assert_eq!(a.fixed, b.fixed);
                assert_eq!(a.steps, b.steps);
                assert_eq!(a.disputed, b.disputed);
                assert_eq!(a.unique, b.unique);
            }
            let (probes, _, _) = scratch.take_counters();
            assert_eq!(probes, want_probes, "logical probes at block size {size}");
        }
    }

    /// The walk's verdict on `t[z]` under `rules` and `rows` (schema
    /// `(zip, area, city)` on both sides), after checking that the
    /// plain, plan and block paths and the chase all return it.
    fn verdict(src: &str, rows: Vec<Tuple>, t: Tuple, z: &[&str]) -> bool {
        use certainfix_rules::{ProbeScratch, RulePlan};
        let r = Schema::new("R", ["zip", "area", "city"]).unwrap();
        let rules = parse_rules(src, &r, &r).unwrap();
        let master = MasterIndex::new(Arc::new(Relation::new(r.clone(), rows).unwrap()));
        let (graph, plan) = (
            DependencyGraph::new(&rules),
            RulePlan::compile(&rules, &master),
        );
        let z = attrs(&r, z);
        let chased = certainfix_reasoning::Chase::new(&rules, &master)
            .run(&t, z)
            .is_unique();
        let mut scratch = ProbeScratch::new();
        let plain = transfix(&rules, &master, &graph, &t, z).unique;
        let live = transfix_with(&rules, &master, &graph, &plan, &mut scratch, &t, z).unique;
        let block = transfix_block(&rules, &master, &graph, &plan, &mut scratch, &[(&t, z); 2]);
        assert_eq!([plain, live, block[0].unique, block[1].unique], [chased; 4]);
        chased
    }

    /// One case per conflict shape the chase finds, each on the plain,
    /// plan and block paths: the walk's verdict is the chase's.
    #[test]
    fn the_walk_returns_the_chase_verdict_on_every_conflict_shape() {
        let p = "p: match zip ~ zip set city := city";
        let t = || tuple!["Z1", "A1", Value::Null];
        // a split list
        let split = || vec![tuple!["Z1", "A1", "Edi"], tuple!["Z1", "A1", "Lnd"]];
        assert!(!verdict(p, split(), t(), &["zip"]));
        // a null row next to a value
        let rows = vec![tuple!["Z1", "A1", "Edi"], tuple!["Z1", "A1", Value::Null]];
        assert!(!verdict(p, rows, t(), &["zip"]));
        // an all-null list: the chase claims the null, then step (g)
        let rows = vec![tuple!["Z1", "A1", Value::Null]];
        assert!(!verdict(p, rows, t(), &["zip"]));
        // two rules disagreeing on one target in one chase round
        let two = "p: match zip ~ zip set city := city\nq: match area ~ area set city := city";
        let rows = vec![tuple!["Z1", "A9", "Edi"], tuple!["Z9", "A1", "Lnd"]];
        assert!(!verdict(two, rows, t(), &["zip", "area"]));
        // ... and across rounds: `q` becomes applicable once `pa` fixed
        // `area`, after `pc` fixed `city`
        let chain = "pa: match zip ~ zip set area := area\n\
                     pc: match zip ~ zip set city := city\n\
                     q: match area ~ zip set city := city";
        let rows = vec![tuple!["Z1", "A1", "Edi"], tuple!["A1", "A0", "Lnd"]];
        let blank = tuple!["Z1", Value::Null, Value::Null];
        assert!(!verdict(chain, rows, blank, &["zip"]));
        // a protected target the master contradicts is never probed
        let entered = tuple!["Z1", "A1", "Gla"];
        assert!(verdict(p, split(), entered, &["zip", "city"]));
        // agreeing duplicates are unique
        let rows = vec![tuple!["Z1", "A1", "Edi"], tuple!["Z1", "A1", "Edi"]];
        assert!(verdict(p, rows, t(), &["zip"]));
    }

    #[test]
    fn agrees_with_chase_on_fig1() {
        // TransFix and the chase must validate the same attributes and
        // produce the same tuple whenever the chase reports uniqueness.
        let (r, rules, master, graph) = fig1();
        let chase = certainfix_reasoning::Chase::new(&rules, &master);
        let t1 = tuple![
            "Bob",
            "Brady",
            "020",
            "079172485",
            2,
            "501 Elm St.",
            "Edi",
            "EH7 4AH",
            "CD"
        ];
        for z in [
            attrs(&r, &["zip"]),
            attrs(&r, &["zip", "phn", "type"]),
            attrs(&r, &["phn", "type"]),
            attrs(&r, &["item"]),
        ] {
            let fix = chase.run(&t1, z).fix().cloned().expect("unique");
            let out = transfix(&rules, &master, &graph, &t1, z);
            assert_eq!(out.validated, fix.validated, "Z = {z:?}");
            assert_eq!(out.tuple, fix.tuple, "Z = {z:?}");
        }
    }
}
