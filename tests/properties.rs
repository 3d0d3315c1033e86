//! Property-based tests (proptest) on the cross-crate invariants.
//!
//! Random miniature workloads — small integer domains so key collisions
//! and conflicts actually occur — exercise:
//!
//! * chase soundness (validated grows, `Z` protected, determinism),
//! * confluence: when the chase reports a unique fix, any sequential
//!   application order converges to it (the definition of uniqueness in
//!   Sect. 3),
//! * `TransFix` ≡ chase on unique instances,
//! * `CertainFix+` (BDD) ≡ `CertainFix` fix-for-fix,
//! * a flat [`KeyIndex`] ≡ naive grouping of its relation, built fresh
//!   or built over the rows a [`MasterDelta`] derived,
//! * the compiled [`RulePlan`] probe layer ≡ the legacy `MasterIndex`
//!   path (candidates, chase, `TransFix`, and whole `CertainFix`
//!   outcomes — including null-key and pattern-mismatch edges),
//! * the plan's span summaries ≡ walks of the hit lists they summarise
//!   (every `FixHits` answer, and the chase, `TransFix` and
//!   `applicable_rules` run on them), also across an overwriting DBLP
//!   master delta,
//! * `Σ_t[Z]` as a subset of rule ids ≡ the refined rules
//!   `applicable_rules` returns (the same rules, the same closures, the
//!   same suggestions), on random workloads, HOSP and DBLP,
//! * session-interleaving-independence: N randomly sized streams
//!   multiplexed through a `RepairService` ≡ each stream drained alone,
//! * live master data (D10): random insert/update/delete
//!   [`MasterDelta`] sequences interleaved with probe batches ≡
//!   engines rebuilt from scratch over each pinned master state,
//! * suggestion-cache determinism (D12): under `CertainFix+`, outcomes
//!   and `BddStats` are bit-identical across 1/2/4 workers, under the
//!   same random delta sequences and chunk size,
//! * metrics bounds and pattern algebra laws.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

use certain_fix::core::{
    evaluate_changes, transfix, transfix_block, transfix_with, BatchRepairEngine, CertainFix,
    CertainFixConfig, MonitorStats, RepairContext, RepairOptions, RepairService, RepairSession,
    ServiceOptions, ServiceStream, SimulatedUser, SliceSource,
};
use certain_fix::datagen::{Dataset, Dblp, DirtyConfig, Hosp, Workload};
use certain_fix::reasoning::{
    applicable_rules, closure, closure_over, is_suggestion, suggest, suggest_with, Applicable,
    Chase, ChaseResult, ConflictKind, RegionCatalog, Suggestion,
};
use certain_fix::relation::index::PARALLEL_BUILD_MIN;
use certain_fix::relation::{
    AttrId, AttrSet, KeyIndex, MasterDelta, MasterIndex, PatternTuple, PatternValue, Relation,
    Schema, Tuple, Value,
};
use certain_fix::rules::{
    candidate_masters, DependencyGraph, EditingRule, ProbeScratch, RulePlan, RuleSet,
};

const ATTRS: usize = 5;

/// A session that owns a fresh context over `(rules, master)`;
/// `CertainFix+` iff `bdd`.
fn open_session(
    rules: &RuleSet,
    master: &Arc<Relation>,
    bdd: bool,
    opts: RepairOptions,
) -> RepairSession<'static> {
    let ctx = RepairContext::new(rules.clone(), master.clone(), bdd);
    RepairSession::from_engine(BatchRepairEngine::new(ctx), opts)
}

/// A service that owns a fresh context over `(rules, master)`;
/// `CertainFix+` iff `bdd`.
fn open_service(
    rules: &RuleSet,
    master: &Arc<Relation>,
    bdd: bool,
    opts: ServiceOptions,
) -> RepairService {
    let ctx = RepairContext::new(rules.clone(), master.clone(), bdd);
    RepairService::from_engine(BatchRepairEngine::new(ctx), opts)
}

fn schema() -> Arc<Schema> {
    Schema::new("R", ["a", "b", "c", "d", "e"]).unwrap()
}

/// A tuple of small integers (collision-rich domain).
fn arb_tuple() -> impl Strategy<Value = Tuple> {
    proptest::collection::vec(0i64..4, ATTRS)
        .prop_map(|vs| Tuple::new(vs.into_iter().map(Value::int).collect()))
}

/// A master relation of 1–8 such rows.
fn arb_master() -> impl Strategy<Value = Vec<Tuple>> {
    proptest::collection::vec(arb_tuple(), 1..8)
}

/// A tuple over the two values `0` and `1`, with `0` three times as
/// likely.
fn arb_skewed_tuple() -> impl Strategy<Value = Tuple> {
    proptest::collection::vec(0u8..4, ATTRS).prop_map(|vs| {
        Tuple::new(
            vs.into_iter()
                .map(|v| Value::int(i64::from(v == 3)))
                .collect(),
        )
    })
}

/// A master of up to 80 [`arb_skewed_tuple`] rows: 1–69 drawn from a
/// pool of 1–3 tuples, then up to 10 free ones. Even a four-attribute
/// key gets hit lists of dozens of rows; the pooled rows agree on the
/// fix column, so rules fire from long lists, and the free rows make
/// some lists dispute.
fn arb_pooled_master() -> impl Strategy<Value = Vec<Tuple>> {
    (
        proptest::collection::vec(arb_skewed_tuple(), 1..4),
        proptest::collection::vec(any::<u8>(), 1..70),
        proptest::collection::vec(arb_skewed_tuple(), 0..11),
    )
        .prop_map(|(pool, picks, free)| {
            picks
                .into_iter()
                .map(|p| pool[usize::from(p) % pool.len()].clone())
                .chain(free)
                .collect()
        })
}

/// A random rule keyed on `keys` attributes (before deduplication),
/// with an optional pattern.
#[allow(clippy::type_complexity)]
fn arb_rule(
    idx: usize,
    keys: std::ops::Range<usize>,
) -> impl Strategy<Value = (usize, Vec<usize>, usize, Option<(usize, i64)>)> {
    (
        proptest::collection::vec(0..ATTRS, keys),
        0..ATTRS,
        proptest::option::of((0..ATTRS, 0i64..4)),
    )
        .prop_map(move |(lhs, rhs, pat)| (idx, lhs, rhs, pat))
}

#[allow(clippy::type_complexity)]
fn build_rules(
    specs: Vec<(usize, Vec<usize>, usize, Option<(usize, i64)>)>,
) -> Option<(RuleSet, DependencyGraph)> {
    let s = schema();
    let mut rules = RuleSet::new(s.clone(), s.clone());
    for (idx, lhs, rhs, pat) in specs {
        let mut lhs: Vec<usize> = lhs;
        lhs.sort_unstable();
        lhs.dedup();
        if lhs.contains(&rhs) {
            continue;
        }
        let names: Vec<String> = (0..ATTRS)
            .map(|i| s.attr_name(AttrId(i as u16)).to_string())
            .collect();
        let mut b = EditingRule::build(&s, &s).name(format!("r{idx}"));
        for &x in &lhs {
            b = b.key(&names[x], &names[x]);
        }
        b = b.fix(&names[rhs], &names[rhs]);
        if let Some((pa, pv)) = pat {
            b = b.when_eq(&names[pa], pv);
        }
        match b.finish() {
            Ok(rule) => rules.push(rule).ok()?,
            Err(_) => continue,
        }
    }
    if rules.is_empty() {
        return None;
    }
    let graph = DependencyGraph::new(&rules);
    Some((rules, graph))
}

#[allow(clippy::type_complexity)]
fn arb_workload() -> impl Strategy<
    Value = (
        Vec<Tuple>,
        Vec<(usize, Vec<usize>, usize, Option<(usize, i64)>)>,
        Tuple,
        u8,
    ),
> {
    (arb_master(), arb_rules(1..3), arb_tuple(), any::<u8>())
}

/// [`arb_workload`] over the small domain of [`arb_summary_cell`], the
/// tuple half the time a master row: two keys of a master of 1–8 rows
/// often disagree on a fix column, and a fix column often holds a
/// null, the shapes the chase's verdict turns on.
#[allow(clippy::type_complexity)]
fn arb_null_workload() -> impl Strategy<
    Value = (
        Vec<Tuple>,
        Vec<(usize, Vec<usize>, usize, Option<(usize, i64)>)>,
        Tuple,
        u8,
    ),
> {
    (
        proptest::collection::vec(arb_summary_tuple(), 1..8),
        arb_rules(1..3),
        (arb_summary_tuple(), any::<u8>(), any::<bool>()),
        any::<u8>(),
    )
        .prop_map(|(rows, rules, (free, row, from_master), z)| {
            let t = if from_master {
                rows[usize::from(row) % rows.len()].clone()
            } else {
                free
            };
            (rows, rules, t, z)
        })
}

/// 1–5 random rules keyed on `keys` attributes.
#[allow(clippy::type_complexity)]
fn arb_rules(
    keys: std::ops::Range<usize>,
) -> impl Strategy<Value = Vec<(usize, Vec<usize>, usize, Option<(usize, i64)>)>> {
    proptest::collection::vec(any::<u8>(), 1..6).prop_flat_map(move |seeds| {
        (0..seeds.len())
            .map(|i| arb_rule(i, keys.clone()))
            .collect::<Vec<_>>()
    })
}

/// The plan-parity workload: rules keyed on one to four attributes over
/// an [`arb_pooled_master`], so the block layer meets wide probe groups
/// and consumes hit lists of over 32 rows.
#[allow(clippy::type_complexity)]
fn arb_wide_workload() -> impl Strategy<
    Value = (
        Vec<Tuple>,
        Vec<(usize, Vec<usize>, usize, Option<(usize, i64)>)>,
        Tuple,
        u8,
    ),
> {
    (
        arb_pooled_master(),
        arb_rules(1..5),
        arb_skewed_tuple(),
        any::<u8>(),
    )
}

/// A master cell for the index property: null, a small int, or a short
/// string spelling a small int — equal text, different type.
fn arb_cell() -> impl Strategy<Value = Value> {
    (0u8..7).prop_map(|d| match d {
        0 => Value::Null,
        1..=3 => Value::int(i64::from(d) - 1),
        _ => Value::str((d - 4).to_string()),
    })
}

/// `idx` holds exactly the naive grouping of `rel` on `idx.key()`:
/// every non-null key's ascending row ids, nothing for null or unknown
/// keys, and the same distinct-key count and longest list.
fn assert_naive_grouping(idx: &KeyIndex, rel: &Relation) -> Result<(), TestCaseError> {
    let mut naive: BTreeMap<Vec<Value>, Vec<u32>> = BTreeMap::new();
    let mut probes = vec![vec![Value::int(9); idx.key().len()]];
    for (i, t) in rel.iter().enumerate() {
        let k = t.project(idx.key());
        if !k.iter().any(Value::is_null) {
            naive.entry(k.clone()).or_default().push(i as u32);
        }
        probes.push(k);
    }
    for k in &probes {
        let want = naive.get(k).map_or(&[][..], |v| &v[..]);
        prop_assert_eq!(idx.lookup(k), want);
    }
    prop_assert_eq!(idx.distinct_keys(), naive.len());
    let longest = naive.values().map(Vec::len).max().unwrap_or(0);
    prop_assert_eq!(idx.max_hit_len(), longest);
    Ok(())
}

/// `a` and `b` are the same index of `rel`: the same span (rows and
/// slot) for every row's key, for a null probe and for a miss, and the
/// same distinct keys, longest list and slot count.
fn assert_same_index(a: &KeyIndex, b: &KeyIndex, rel: &Relation) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.key(), b.key());
    prop_assert_eq!(a.distinct_keys(), b.distinct_keys());
    prop_assert_eq!(a.max_hit_len(), b.max_hit_len());
    prop_assert_eq!(a.span_slots(), b.span_slots());
    let width = a.key().len();
    let mut probes: Vec<Vec<Value>> = rel.iter().map(|t| t.project(a.key())).collect();
    probes.push(vec![Value::int(-7); width]); // no cell holds -7
    probes.push(vec![Value::Null; width]);
    for p in &probes {
        prop_assert_eq!(a.locate(p), b.locate(p));
    }
    Ok(())
}

/// A cell of the span-summary property: null one time in five, else
/// one of three integers.
fn arb_summary_cell() -> impl Strategy<Value = Value> {
    (0u8..10).prop_map(|d| match d {
        0 | 1 => Value::Null,
        _ => Value::int(i64::from(d % 3)),
    })
}

fn arb_summary_tuple() -> impl Strategy<Value = Tuple> {
    proptest::collection::vec(arb_summary_cell(), ATTRS).prop_map(Tuple::new)
}

/// A master of 100–300 rows copied from a pool of 1–3
/// [`arb_summary_tuple`]s, where none, one in eight, or one in three
/// rows has one cell redrawn. Keys of one or two attributes then have
/// hit lists of dozens of rows, some all equal, some with nulls among
/// equal values, some split.
fn arb_summary_master() -> impl Strategy<Value = Vec<Tuple>> {
    (
        proptest::collection::vec(arb_summary_tuple(), 1..4),
        proptest::collection::vec((any::<u8>(), any::<u8>(), arb_summary_cell()), 100..300),
        (0usize..3).prop_map(|k| [0u8, 32, 85][k]),
    )
        .prop_map(|(pool, rows, noise)| {
            rows.into_iter()
                .map(|(pick, roll, cell)| {
                    let mut t = pool[usize::from(pick) % pool.len()].clone();
                    if roll < noise {
                        t.set(AttrId(u16::from(roll) % ATTRS as u16), cell);
                    }
                    t
                })
                .collect()
        })
}

/// The plan-backed chase result equals the plain one: the fix (tuple,
/// validated sets, steps, rounds) or the conflict (attribute, values,
/// rules, kind).
fn assert_same_chase(want: &ChaseResult, got: &ChaseResult) -> Result<(), TestCaseError> {
    match (want, got) {
        (ChaseResult::Fixed(a), ChaseResult::Fixed(b)) => {
            prop_assert_eq!(&a.tuple, &b.tuple);
            prop_assert_eq!(a.validated, b.validated);
            prop_assert_eq!(a.initial, b.initial);
            prop_assert_eq!(&a.steps, &b.steps);
            prop_assert_eq!(a.rounds, b.rounds);
        }
        (ChaseResult::Conflict(a), ChaseResult::Conflict(b)) => prop_assert_eq!(a, b),
        _ => prop_assert!(false, "chase outcome diverged: {want:?} vs {got:?}"),
    }
    Ok(())
}

/// Every answer a [`FixHits`] gives about rule `i`'s hit list on `t`,
/// asked about each of `xs`: the first row, the first non-null row,
/// whether the list splits, and per `x` the first row not `== x` and
/// the first row that does not agree with `x`.
type FixAnswers = (
    Option<u32>,
    Option<(u32, Value)>,
    bool,
    Vec<Option<(u32, Value)>>,
    Vec<Option<(u32, Value)>>,
);

fn fix_answers(
    plan: &RulePlan,
    i: usize,
    t: &Tuple,
    xs: &[Value],
    scratch: &mut ProbeScratch,
) -> FixAnswers {
    let hits = plan.probe_fix(i, t, scratch);
    (
        hits.first(),
        hits.first_non_null(),
        hits.is_split(),
        xs.iter().map(|x| hits.first_unequal(x)).collect(),
        xs.iter().map(|x| hits.first_disagreeing(x)).collect(),
    )
}

/// The same answers read off a walk of the probed hit list.
fn walked_answers(
    plan: &RulePlan,
    master: &MasterIndex,
    i: usize,
    t: &Tuple,
    xs: &[Value],
    scratch: &mut ProbeScratch,
) -> FixAnswers {
    let rhs_m = plan.rule(i).rhs_m();
    let rows: Vec<(u32, Value)> = plan
        .probe(i, t, scratch)
        .iter()
        .map(|&id| (id, *master.tuple(id).get(rhs_m)))
        .collect();
    let find = |p: &dyn Fn(&Value) -> bool| rows.iter().copied().find(|(_, v)| p(v));
    let first_non_null = find(&|v| !v.is_null());
    let split = first_non_null.and_then(|(_, w)| find(&|v| !v.is_null() && *v != w));
    (
        rows.first().map(|&(id, _)| id),
        first_non_null,
        split.is_some(),
        xs.iter().map(|x| find(&|v| v != x)).collect(),
        xs.iter().map(|x| find(&|v| !v.agrees_with(x))).collect(),
    )
}

/// Every run that reads span summaries equals the plan-less walk over
/// `items`: the chase (plan-backed `run_with` against the plain
/// `run`), the plan-routed `Σ_t[Z]` derivation against the plan-less
/// one, and `transfix_with` and `transfix_block` at block sizes 1, 2
/// and 7 against the plain `transfix`. Every `TransFix` path's verdict
/// is the plain chase's.
fn assert_summarised_runs_match_the_walk(
    rules: &RuleSet,
    master: &MasterIndex,
    graph: &DependencyGraph,
    plan: &RulePlan,
    items: &[(Tuple, AttrSet)],
) -> Result<(), TestCaseError> {
    let plain = Chase::new(rules, master);
    let planned = Chase::new(rules, master).with_plan(Some(plan));
    let mut scratch = ProbeScratch::new();
    let mut verdicts = Vec::with_capacity(items.len());
    for (t, z) in items {
        let chased = plain.run(t, *z);
        assert_same_chase(&chased, &planned.run_with(t, *z, &mut scratch))?;
        verdicts.push(chased.is_unique());
        let want = Applicable::new(rules, master, None, t, *z)
            .ids(&mut scratch)
            .to_vec();
        let sigma = Applicable::new(rules, master, Some(plan), t, *z);
        prop_assert_eq!(sigma.ids(&mut scratch), &want[..]);
    }
    let want: Vec<_> = items
        .iter()
        .map(|(t, z)| transfix(rules, master, graph, t, *z))
        .collect();
    let live: Vec<_> = items
        .iter()
        .map(|(t, z)| transfix_with(rules, master, graph, plan, &mut scratch, t, *z))
        .collect();
    let mut runs = vec![live];
    for size in [1usize, 2, 7] {
        runs.push(
            items
                .chunks(size)
                .flat_map(|chunk| {
                    let refs: Vec<(&Tuple, AttrSet)> = chunk.iter().map(|(t, z)| (t, *z)).collect();
                    transfix_block(rules, master, graph, plan, &mut scratch, &refs)
                })
                .collect(),
        );
    }
    for run in &runs {
        for ((a, b), &unique) in want.iter().zip(run).zip(&verdicts) {
            prop_assert_eq!(&a.tuple, &b.tuple);
            prop_assert_eq!(a.validated, b.validated);
            prop_assert_eq!(&a.steps, &b.steps);
            prop_assert_eq!(&a.disputed, &b.disputed);
            prop_assert_eq!((a.unique, b.unique), (unique, unique));
        }
    }
    Ok(())
}

/// An overwriting delta makes DBLP's master disagree with itself:
/// `Author …1` is row 1's first author (`a1`, homepage `hp1`) and row
/// 0's second author (`a2`, homepage `hp2`), and the delta rewrites
/// row 0's `hp2`, so the rules reading the author via `a1` and via
/// `a2` prescribe different homepages. It also rewrites row 3's
/// `publisher`, splitting its proceedings' 25-row hit lists, and nulls
/// row 30's, leaving a null among equal values in the next
/// proceedings' lists. After the
/// delta the plan-backed runs equal the plan-less walk, and the
/// recompiled plan's summaries equal those of a plan compiled from
/// scratch over the same rows: the summaries change how fixes are
/// computed, not which fixes are certified.
#[test]
fn dblp_overwriting_delta_summaries_match_a_fresh_compile() {
    let dblp = Dblp::generate(200);
    let (s, rules) = (dblp.schema(), dblp.rules());
    let graph = DependencyGraph::new(rules);
    let attr = |name: &str| s.attr(name).unwrap();
    let m0 = MasterIndex::new(dblp.master().clone());
    // compile over the root first, as a context does; the delta's
    // snapshot starts cold, and its compile builds every index anew
    let _ = RulePlan::compile(rules, &m0);
    let author = *m0.tuple(1).get(attr("a1"));
    assert_eq!(m0.tuple(0).get(attr("a2")), &author);
    let mut row0 = m0.tuple(0).clone();
    row0.set(attr("hp2"), Value::str("https://elsewhere.example.org/"));
    let mut row3 = m0.tuple(3).clone();
    row3.set(attr("publisher"), Value::str("Nobody Press"));
    let mut row30 = m0.tuple(30).clone();
    row30.set(attr("publisher"), Value::Null);
    let delta = MasterDelta::new()
        .update(0, row0)
        .update(3, row3)
        .update(30, row30);
    let m1 = m0.apply_delta(&delta).unwrap();
    let plan = RulePlan::compile(rules, &m1);
    let fresh = RulePlan::compile(rules, &MasterIndex::new(m1.relation().clone()));
    assert_eq!(plan.summary_bytes(), fresh.summary_bytes());
    assert!(plan.summary_bytes() > 0, "the proceedings keys repeat");
    // every hit list of every rule, probed with each master row: the
    // recompiled plan's summaries answer like a fresh compile's and
    // like a walk, for a value the list holds, one it does not, and null
    let mut scratch = ProbeScratch::new();
    for t in m1.relation().iter() {
        for (i, _) in rules.iter() {
            let mut xs = vec![Value::Null, Value::str("not in the master")];
            xs.extend(
                plan.probe_fix(i, t, &mut scratch)
                    .first_non_null()
                    .map(|(_, v)| v),
            );
            let answers = fix_answers(&plan, i, t, &xs, &mut scratch);
            assert_eq!(
                answers,
                fix_answers(&fresh, i, t, &xs, &mut scratch),
                "rule {i}"
            );
            assert_eq!(
                answers,
                walked_answers(&plan, &m1, i, t, &xs, &mut scratch),
                "rule {i}"
            );
        }
    }

    let keys: [&[&str]; 6] = [
        &["a1"],
        &["a2"],
        &["a1", "a2"],
        &["type", "crossref"],
        &["type", "btitle", "year"],
        &["ptitle", "a1", "a2", "type", "pages"],
    ];
    let mut items = Vec::new();
    for row in [0, 1, 2, 3, 4, 29, 30, 31] {
        let mut blank = m1.tuple(row).clone();
        for hp in ["hp1", "hp2", "publisher"] {
            blank.set(attr(hp), Value::Null);
        }
        for t in [m1.tuple(row).clone(), blank] {
            for key in keys {
                items.push((t.clone(), key.iter().map(|a| attr(a)).collect::<AttrSet>()));
            }
        }
    }
    assert_summarised_runs_match_the_walk(rules, &m1, &graph, &plan, &items).unwrap();

    // the split is real: via a1 the author's homepage is now disputed
    let via_a1 = Chase::new(rules, &m1)
        .with_plan(Some(&plan))
        .run(m1.tuple(1), AttrSet::singleton(attr("a1")));
    let c = via_a1.conflict().expect("hp1 via a1 and via a2 disagree");
    assert_eq!((c.attr, c.kind), (attr("hp1"), ConflictKind::SameRound));
    let walk = transfix(
        rules,
        &m1,
        &graph,
        m1.tuple(1),
        AttrSet::singleton(attr("a1")),
    );
    assert!(!walk.unique, "the walk returns the chase's verdict");
    let before = Chase::new(rules, &m0).run(m0.tuple(1), AttrSet::singleton(attr("a1")));
    assert!(before.is_unique(), "the generated master is consistent");
}

/// Suggestion generation as it ran over a rebuilt `RuleSet` of the
/// refined rules `applicable_rules` returns: greedy closure growth, then
/// local minimisation. The oracle for suggestions closing over rule ids.
fn refined_ruleset_suggestion(
    rules: &RuleSet,
    master: &MasterIndex,
    t: &Tuple,
    z: AttrSet,
) -> Option<Suggestion> {
    let full = AttrSet::full(rules.r_schema().len());
    if z == full {
        return None;
    }
    let (r, rm) = (rules.r_schema().clone(), rules.m_schema().clone());
    let sigma = RuleSet::from_rules(r, rm, applicable_rules(rules, master, t, z)).unwrap();
    let close = |zz: AttrSet| closure(&sigma, zz).covered;
    let mut s = AttrSet::EMPTY;
    let mut covered = close(z);
    while covered != full {
        let mut best: Option<(AttrId, usize)> = None;
        for a in (full - covered).iter() {
            let gain = close(covered | AttrSet::singleton(a)).len();
            if best.map(|(_, g)| gain > g).unwrap_or(true) {
                best = Some((a, gain));
            }
        }
        s.insert(best.unwrap().0);
        covered = close(z | s);
    }
    for a in s.to_vec() {
        let without = s - AttrSet::singleton(a);
        if close(z | without) == full {
            s = without;
        }
    }
    Some(Suggestion { attrs: s.to_vec() })
}

/// D4's suggestion leg: `Σ_t[Z]` as a subset of `Σ` is the refined rule
/// set of Sect. 5.2. For each `(t, Z)`, the plan-routed and plan-less
/// subsets name exactly the rules `applicable_rules` refines; closing
/// over the subset equals closing over the refined rules, from `Z` and
/// from every `Z ∪ {a}`; and `suggest_with` equals the suggestion
/// derived over the refined `RuleSet`.
fn assert_subset_is_sigma_tz(
    rules: &RuleSet,
    master: &MasterIndex,
    plan: &RulePlan,
    items: &[(Tuple, AttrSet)],
) -> Result<(), TestCaseError> {
    let mut scratch = ProbeScratch::new();
    let (r, rm) = (rules.r_schema().clone(), rules.m_schema().clone());
    let full = AttrSet::full(r.len());
    for (t, z) in items {
        let plain = Applicable::new(rules, master, None, t, *z)
            .ids(&mut scratch)
            .to_vec();
        let planned = Applicable::new(rules, master, Some(plan), t, *z)
            .ids(&mut scratch)
            .to_vec();
        let refined = applicable_rules(rules, master, t, *z);
        let named: Vec<usize> = refined
            .iter()
            .map(|rule| {
                rules
                    .iter()
                    .position(|(_, r)| r.name() == rule.name())
                    .unwrap()
            })
            .collect();
        prop_assert_eq!(&plain, &named);
        prop_assert_eq!(&planned, &named);
        let sigma = RuleSet::from_rules(r.clone(), rm.clone(), refined).unwrap();
        for from in
            std::iter::once(*z).chain((full - *z).iter().map(|a| *z | AttrSet::singleton(a)))
        {
            prop_assert_eq!(
                closure_over(rules, plain.iter().copied(), from).covered,
                closure(&sigma, from).covered
            );
        }
        prop_assert_eq!(
            suggest_with(rules, master, t, *z, plan, &mut scratch),
            refined_ruleset_suggestion(rules, master, t, *z)
        );
    }
    Ok(())
}

/// The D4 suggestion leg on HOSP and DBLP: dirty and clean inputs,
/// each also after `TransFix` from the best catalog region, against the
/// empty set, that region, and every rule's key with and without its
/// target.
#[test]
fn applicable_subsets_are_sigma_tz_on_hosp_and_dblp() {
    let workloads: [Box<dyn Workload>; 2] =
        [Box::new(Hosp::generate(200)), Box::new(Dblp::generate(200))];
    for w in &workloads {
        let (rules, master) = (w.rules(), w.master_index());
        let plan = RulePlan::compile(rules, master);
        let graph = DependencyGraph::new(rules);
        let best = RegionCatalog::build(rules, master).best().unwrap().z_set();
        let mut zs = vec![AttrSet::EMPTY, best];
        for (_, rule) in rules.iter() {
            let key: AttrSet = rule.lhs().iter().copied().collect();
            zs.extend([key, key | AttrSet::singleton(rule.rhs())]);
        }
        zs.sort_by_key(|z| z.bits());
        zs.dedup();
        let cfg = DirtyConfig {
            duplicate_rate: 0.5,
            noise_rate: 0.3,
            input_size: 6,
            seed: 4,
            ..Default::default()
        };
        let mut scratch = ProbeScratch::new();
        let mut items = Vec::new();
        for input in Dataset::generate(w.as_ref(), &cfg).inputs {
            let mut user_view = input.dirty.clone();
            for a in best.iter() {
                user_view.set(a, *input.clean.get(a));
            }
            let fixed = transfix_with(rules, master, &graph, &plan, &mut scratch, &user_view, best);
            items.push((fixed.tuple, fixed.validated));
            for t in [input.dirty, input.clean] {
                items.extend(zs.iter().map(|&z| (t.clone(), z)));
            }
        }
        assert_subset_is_sigma_tz(rules, master, &plan, &items).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The span summaries are exact: on masters whose hit lists run to
    /// dozens of rows mixing equal values, nulls and splits, every
    /// [`FixHits`](certain_fix::rules::FixHits) answer of every rule on
    /// every probe tuple names the row a walk of the probed hit list
    /// stops at, and the chase, `applicable_rules` and `TransFix` (live
    /// and blocked) that read them equal the plan-less walk.
    #[test]
    fn span_summaries_match_the_walk(
        master_rows in arb_summary_master(),
        specs in arb_rules(1..3),
        probes in proptest::collection::vec(
            (any::<u16>(), arb_summary_tuple(), any::<bool>(), any::<u8>()), 1..12),
    ) {
        let Some((rules, graph)) = build_rules(specs) else { return Ok(()); };
        let n = master_rows.len();
        let master = MasterIndex::new(Arc::new(
            Relation::new(schema(), master_rows.clone()).unwrap(),
        ));
        let plan = RulePlan::compile(&rules, &master);
        let items: Vec<(Tuple, AttrSet)> = probes
            .into_iter()
            .map(|(row, free, from_master, z)| {
                let t = if from_master { master_rows[usize::from(row) % n].clone() } else { free };
                (t, AttrSet::from_bits(u64::from(z) & ((1 << ATTRS) - 1)))
            })
            .collect();
        let mut scratch = ProbeScratch::new();
        let xs = [Value::Null, Value::int(0), Value::int(1), Value::int(2)];
        for (t, _) in &items {
            for (i, _) in rules.iter() {
                prop_assert_eq!(
                    fix_answers(&plan, i, t, &xs, &mut scratch),
                    walked_answers(&plan, &master, i, t, &xs, &mut scratch)
                );
            }
        }
        assert_summarised_runs_match_the_walk(&rules, &master, &graph, &plan, &items)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// D1's verdict leg: the walk's verdict is the chase's, and on a
    /// unique instance the walk equals the fix and disputes nothing.
    /// Each case draws an [`arb_workload`] and an
    /// [`arb_null_workload`], whose conflicts are rare enough to need
    /// the case count.
    #[test]
    fn transfix_matches_chase_on_unique_instances(
        workloads in (arb_workload(), arb_null_workload())
    ) {
        for (master_rows, specs, t, zbits) in [workloads.0, workloads.1] {
            let Some((rules, graph)) = build_rules(specs) else { continue; };
            let master = MasterIndex::new(Arc::new(
                Relation::new(schema(), master_rows).unwrap(),
            ));
            let initial = AttrSet::from_bits(u64::from(zbits) & ((1 << ATTRS) - 1));
            let chased = Chase::new(&rules, &master).run(&t, initial);
            let out = transfix(&rules, &master, &graph, &t, initial);
            prop_assert_eq!(out.unique, chased.is_unique());
            if let ChaseResult::Fixed(fix) = chased {
                prop_assert!(out.disputed.is_empty());
                prop_assert_eq!(out.tuple, fix.tuple);
                prop_assert_eq!(out.validated, fix.validated);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn chase_soundness((master_rows, specs, t, zbits) in arb_workload()) {
        let Some((rules, _)) = build_rules(specs) else { return Ok(()); };
        let s = schema();
        let master = MasterIndex::new(Arc::new(
            Relation::new(s.clone(), master_rows).unwrap(),
        ));
        let initial = AttrSet::from_bits(u64::from(zbits) & ((1 << ATTRS) - 1));
        let chase = Chase::new(&rules, &master);
        match chase.run(&t, initial) {
            ChaseResult::Fixed(fix) => {
                // validated grows monotonically and includes Zb
                prop_assert!(initial.is_subset(&fix.validated));
                // protected: Zb cells unchanged
                for a in initial.iter() {
                    prop_assert_eq!(fix.tuple.get(a), t.get(a));
                }
                // non-validated cells unchanged too (rules only write
                // attributes they validate)
                for a in (AttrSet::full(ATTRS) - fix.validated).iter() {
                    prop_assert_eq!(fix.tuple.get(a), t.get(a));
                }
                // deterministic
                let again = chase.run(&t, initial);
                prop_assert_eq!(again.fix().unwrap().tuple.clone(), fix.tuple.clone());
            }
            ChaseResult::Conflict(c) => {
                // conflicts carry genuinely different values
                prop_assert_ne!(c.values.0.clone(), c.values.1.clone());
            }
        }
    }

    #[test]
    fn chase_confluence((master_rows, specs, t, zbits) in arb_workload(), order_seed in any::<u64>()) {
        let Some((rules, _)) = build_rules(specs) else { return Ok(()); };
        let s = schema();
        let master = MasterIndex::new(Arc::new(
            Relation::new(s.clone(), master_rows).unwrap(),
        ));
        let initial = AttrSet::from_bits(u64::from(zbits) & ((1 << ATTRS) - 1));
        let chase = Chase::new(&rules, &master);
        if let ChaseResult::Fixed(fix) = chase.run(&t, initial) {
            let mut state = order_seed | 1;
            let (tuple, validated) = chase.run_sequential(&t, initial, |frontier| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) as usize % frontier.len()
            });
            prop_assert_eq!(tuple, fix.tuple);
            prop_assert_eq!(validated, fix.validated);
        }
    }

    /// The flat index, randomized: over relations with nulls and mixed
    /// `Int`/`Str` cells and keys of one to five attributes, every probe
    /// returns the naive grouping's ascending row ids — and so does the
    /// next snapshot's index after a delta, which the delta leaves
    /// unbuilt and the first probe builds, counted as one patch, equal
    /// to a fresh build over the new rows. Tiled to
    /// `PARALLEL_BUILD_MIN` rows × distinct keys, the rows give a master
    /// on which `build_all` builds two to five distinct keys once each,
    /// on one thread per key up to the core count, into exactly the
    /// indexes `KeyIndex::build` gives.
    #[test]
    fn key_index_matches_naive_grouping(
        rows in proptest::collection::vec(proptest::collection::vec(arb_cell(), ATTRS), 0..40),
        key in proptest::collection::vec(0..ATTRS as u16, 1..6),
        more in proptest::collection::vec(proptest::collection::vec(0..ATTRS as u16, 1..6), 0..4),
        ops in proptest::collection::vec(
            (any::<bool>(), proptest::collection::vec(arb_cell(), ATTRS), any::<u16>()), 0..6),
    ) {
        let attr_list = |key: Vec<u16>| {
            let mut seen = AttrSet::EMPTY;
            key.into_iter().map(AttrId).filter(|&a| seen.insert(a)).collect::<Vec<AttrId>>()
        };
        let key = attr_list(key);
        let tuples: Vec<Tuple> = rows.into_iter().map(Tuple::new).collect();
        let rel = Relation::new(schema(), tuples.clone()).unwrap();
        assert_naive_grouping(&KeyIndex::build(&rel, &key), &rel)?;

        let m0 = MasterIndex::new(Arc::new(rel));
        let _ = m0.index_for(&key);
        let mut delta = MasterDelta::new();
        for (insert, cells, r) in ops {
            delta = if insert || m0.is_empty() {
                delta.insert(Tuple::new(cells))
            } else {
                delta.update(u32::from(r) % m0.len() as u32, Tuple::new(cells))
            };
        }
        let m1 = m0.apply_delta(&delta).unwrap();
        // the delta derives rows only; the next snapshot builds on demand
        prop_assert_eq!(m1.cached_indexes(), 0);
        prop_assert_eq!((m1.index_builds(), m1.index_patches()), (1, 0));
        let patched = m1.index_for(&key);
        prop_assert_eq!((m1.index_builds(), m1.index_patches()), (1, 1));
        assert_naive_grouping(&patched, m1.relation())?;
        let fresh = KeyIndex::build(m1.relation(), &key);
        for t in m1.relation().iter() {
            let probe = t.project(&key);
            prop_assert_eq!(patched.lookup(&probe), fresh.lookup(&probe));
        }

        if tuples.is_empty() {
            return Ok(());
        }
        let mut keys = vec![key];
        keys.extend(more.into_iter().map(attr_list));
        keys.sort();
        keys.dedup();
        // two keys at least, so that the build is shared
        for extra in [vec![AttrId(0)], vec![AttrId(1)]] {
            if keys.len() < 2 && !keys.contains(&extra) {
                keys.push(extra);
            }
        }
        // copy j of the rows shifts every integer by 1000 × (j mod 7)
        let len = PARALLEL_BUILD_MIN.div_ceil(keys.len());
        let tiled: Vec<Tuple> = (0..len)
            .map(|i| {
                let shift = 1000 * (i / tuples.len() % 7) as i64;
                let cells = tuples[i % tuples.len()].values().iter().map(|v| match v.as_int() {
                    Some(n) => Value::int(n + shift),
                    None => *v,
                });
                Tuple::new(cells.collect())
            })
            .collect();
        let big = MasterIndex::new(Arc::new(Relation::new(schema(), tiled).unwrap()));
        big.build_all(&keys);
        prop_assert_eq!(big.index_builds(), keys.len() as u64);
        for k in &keys {
            assert_same_index(&big.index_for(k), &KeyIndex::build(big.relation(), k), big.relation())?;
        }
        prop_assert_eq!(big.index_builds(), keys.len() as u64);
    }

    /// `MasterIndex::apply_delta`, randomized: random updates, unsorted
    /// and repeated deletes, and inserts give exactly the rows of a
    /// naive reference — updates in order, then the deleted set
    /// dropped, then inserts appended — and the index rebuilt over them
    /// on first use holds the naive grouping.
    #[test]
    fn delta_rows_match_a_naive_reference(
        rows in proptest::collection::vec(proptest::collection::vec(arb_cell(), ATTRS), 1..40),
        key in proptest::collection::vec(0..ATTRS as u16, 1..4),
        updates in proptest::collection::vec(
            (any::<u16>(), proptest::collection::vec(arb_cell(), ATTRS)), 0..6),
        deletes in proptest::collection::vec(any::<u16>(), 0..12),
        inserts in proptest::collection::vec(proptest::collection::vec(arb_cell(), ATTRS), 0..4),
    ) {
        let mut key: Vec<AttrId> = key.into_iter().map(AttrId).collect();
        let mut seen = AttrSet::EMPTY;
        key.retain(|&a| seen.insert(a));
        let n = rows.len();
        let m0 = MasterIndex::new(Arc::new(
            Relation::new(schema(), rows.into_iter().map(Tuple::new).collect()).unwrap(),
        ));
        let _ = m0.index_for(&key);
        let mut delta = MasterDelta::new();
        let mut want: Vec<Tuple> = m0.relation().tuples().to_vec();
        for (r, cells) in updates {
            let row = usize::from(r) % n;
            delta = delta.update(row as u32, Tuple::new(cells.clone()));
            want[row] = Tuple::new(cells);
        }
        let gone: BTreeSet<usize> = deletes.iter().map(|&r| usize::from(r) % n).collect();
        for &r in &deletes {
            delta = delta.delete((usize::from(r) % n) as u32);
        }
        let mut want: Vec<Tuple> = want
            .into_iter()
            .enumerate()
            .filter(|(i, _)| !gone.contains(i))
            .map(|(_, t)| t)
            .collect();
        for cells in inserts {
            delta = delta.insert(Tuple::new(cells.clone()));
            want.push(Tuple::new(cells));
        }
        let m1 = m0.apply_delta(&delta).unwrap();
        prop_assert_eq!(m1.relation().tuples(), &want[..]);
        assert_naive_grouping(&m1.index_for(&key), m1.relation())?;
    }

    /// The tentpole's determinism contract, randomized: on arbitrary
    /// miniature workloads the compiled plan and the legacy probe path
    /// agree on candidate masters, distinct fix values, chase results,
    /// `TransFix`, suggestions (each of which completes the validated
    /// set) and complete `CertainFix` outcomes — including
    /// null-key and pattern-mismatch edges.
    #[test]
    fn compiled_plan_matches_legacy_probes(
        (master_rows, specs, t, zbits) in arb_wide_workload(),
        null_at in 0..ATTRS,
    ) {
        let Some((rules, graph)) = build_rules(specs) else { return Ok(()); };
        let s = schema();
        let master = MasterIndex::new(Arc::new(
            Relation::new(s.clone(), master_rows.clone()).unwrap(),
        ));
        let plan = RulePlan::compile(&rules, &master);
        let mut scratch = ProbeScratch::new();
        // a null-key variant of t exercises the null edge explicitly
        let mut t_null = t.clone();
        t_null.set(AttrId(null_at as u16), Value::Null);
        for probe_t in [&t, &t_null] {
            for (i, rule) in rules.iter() {
                let legacy = candidate_masters(rule, probe_t, &master);
                prop_assert_eq!(plan.candidates(i, probe_t, &mut scratch), &legacy[..]);
            }
        }
        let initial = AttrSet::from_bits(u64::from(zbits) & ((1 << ATTRS) - 1));
        // chase parity (result kind and content)
        let legacy_chase = Chase::new(&rules, &master);
        let plan_chase = Chase::new(&rules, &master).with_plan(Some(&plan));
        match (legacy_chase.run(&t, initial), plan_chase.run(&t, initial)) {
            (ChaseResult::Fixed(a), ChaseResult::Fixed(b)) => {
                prop_assert_eq!(a.tuple, b.tuple);
                prop_assert_eq!(a.validated, b.validated);
                prop_assert_eq!(a.steps, b.steps);
            }
            (ChaseResult::Conflict(a), ChaseResult::Conflict(b)) => {
                prop_assert_eq!(a, b);
            }
            _ => prop_assert!(false, "chase result kind diverged"),
        }
        // TransFix parity
        let a = transfix(&rules, &master, &graph, &t, initial);
        let b = transfix_with(&rules, &master, &graph, &plan, &mut scratch, &t, initial);
        prop_assert_eq!(a.tuple, b.tuple);
        prop_assert_eq!(a.validated, b.validated);
        prop_assert_eq!(a.steps, b.steps);
        prop_assert_eq!(a.disputed, b.disputed);
        // suggestion parity, and the invariant the loop's exhaustion
        // stop reads: a returned suggestion completes Z′ ∪ S to R
        let legacy_sug = suggest(&rules, &master, &t, initial);
        let plan_sug = suggest_with(&rules, &master, &t, initial, &plan, &mut scratch);
        prop_assert_eq!(&legacy_sug, &plan_sug);
        match legacy_sug {
            Some(sg) if sg.attrs.is_empty() => {
                // Σ_t[Z] alone closes Z′ (no suggestion is left: the
                // loop gives up on an empty one)
                let refined = applicable_rules(&rules, &master, &t, initial);
                let (r, rm) = (rules.r_schema().clone(), rules.m_schema().clone());
                let sigma_tz = RuleSet::from_rules(r, rm, refined).unwrap();
                prop_assert_eq!(closure(&sigma_tz, initial).covered, AttrSet::full(ATTRS));
            }
            Some(sg) => prop_assert!(is_suggestion(&rules, &master, &t, initial, &sg.attrs)),
            None => prop_assert_eq!(initial, AttrSet::full(ATTRS)),
        }
        let items = [(t.clone(), initial), (t_null.clone(), initial)];
        assert_subset_is_sigma_tz(&rules, &master, &plan, &items)?;
        // whole-outcome parity: the full interaction loop with a
        // simulated user whose ground truth is the first master row
        let clean = master_rows[0].clone();
        let initial_suggestion: Vec<AttrId> = initial.iter().collect();
        let legacy_fix = CertainFix::new(&rules, &master, &graph, &plan, CertainFixConfig::default());
        let plan_fix = CertainFix::new(&rules, &master, &graph, &plan, CertainFixConfig::default());
        let mut u1 = SimulatedUser::new(clean.clone());
        let out1 = legacy_fix.run(&t, &initial_suggestion, &mut u1, |tt, v, _| {
            suggest(&rules, &master, tt, v).map(|sg| sg.attrs)
        });
        let mut u2 = SimulatedUser::new(clean);
        let out2 = plan_fix.run_scratch(
            &t,
            &initial_suggestion,
            &mut u2,
            |tt, v, sc| suggest_with(&rules, &master, tt, v, &plan, sc).map(|sg| sg.attrs),
            &mut scratch,
        );
        prop_assert_eq!(out1.tuple, out2.tuple);
        prop_assert_eq!(out1.validated, out2.validated);
        prop_assert_eq!(out1.rule_fixed, out2.rule_fixed);
        prop_assert_eq!(out1.certain, out2.certain);
        prop_assert_eq!(out1.rounds.len(), out2.rounds.len());
    }

    /// The block-probe determinism contract, randomized: chunking an
    /// arbitrary miniature batch through `transfix_block` at block
    /// sizes 1, 2, 7 and 64 yields the same outcomes (verdicts
    /// included) as the plan-less
    /// `transfix` oracle and the same outcomes — and the same logical
    /// probe count — as the live-plan single-tuple walk, including
    /// null-key edges (a random cell nulled per tuple) and
    /// pattern-mismatch edges (random `when` cells rarely match the
    /// collision-rich domain).
    #[test]
    fn block_probing_matches_single_tuple_at_every_block_size(
        (master_rows, specs, _, zbits) in arb_wide_workload(),
        batch in proptest::collection::vec(
            (arb_skewed_tuple(), proptest::option::of(0..ATTRS), any::<u8>()), 1..33),
    ) {
        let Some((rules, graph)) = build_rules(specs) else { return Ok(()); };
        let s = schema();
        let master = MasterIndex::new(Arc::new(
            Relation::new(s.clone(), master_rows).unwrap(),
        ));
        let plan = RulePlan::compile(&rules, &master);
        let items: Vec<(Tuple, AttrSet)> = batch
            .into_iter()
            .map(|(mut t, null_at, z)| {
                if let Some(a) = null_at {
                    t.set(AttrId(a as u16), Value::Null);
                }
                let bits = (u64::from(z) ^ u64::from(zbits)) & ((1 << ATTRS) - 1);
                (t, AttrSet::from_bits(bits))
            })
            .collect();
        let mut single_scratch = ProbeScratch::new();
        let singles: Vec<_> = items
            .iter()
            .map(|(t, z)| {
                transfix_with(&rules, &master, &graph, &plan, &mut single_scratch, t, *z)
            })
            .collect();
        let (want_probes, _, _) = single_scratch.take_counters();
        // the plan-less walk is the independent probe path
        let plainly: Vec<_> = items
            .iter()
            .map(|(t, z)| transfix(&rules, &master, &graph, t, *z))
            .collect();
        for size in [1usize, 2, 7, 64] {
            let mut scratch = ProbeScratch::new();
            let mut got = Vec::with_capacity(items.len());
            for chunk in items.chunks(size) {
                let refs: Vec<(&Tuple, AttrSet)> =
                    chunk.iter().map(|(t, z)| (t, *z)).collect();
                got.extend(transfix_block(
                    &rules, &master, &graph, &plan, &mut scratch, &refs,
                ));
            }
            let (probes, _, _) = scratch.take_counters();
            prop_assert!(
                probes == want_probes,
                "probe count diverged at block size {size}: {probes} != {want_probes}"
            );
            for ((single, plain), b) in singles.iter().zip(&plainly).zip(&got) {
                for a in [single, plain] {
                    prop_assert_eq!(&a.tuple, &b.tuple);
                    prop_assert_eq!(a.validated, b.validated);
                    prop_assert_eq!(a.fixed, b.fixed);
                    prop_assert_eq!(&a.steps, &b.steps);
                    prop_assert_eq!(&a.disputed, &b.disputed);
                    prop_assert_eq!(a.unique, b.unique);
                }
            }
        }
    }

    #[test]
    fn metrics_are_bounded(
        dirty in arb_tuple(),
        repaired in arb_tuple(),
        clean in arb_tuple(),
    ) {
        let counts = evaluate_changes([(&dirty, &repaired, &clean)]);
        prop_assert!(counts.corrected <= counts.changed);
        prop_assert!(counts.corrected <= counts.erroneous);
        let r = counts.recall();
        let p = counts.precision();
        let f = counts.f_measure();
        prop_assert!((0.0..=1.0).contains(&r));
        prop_assert!((0.0..=1.0).contains(&p));
        prop_assert!((0.0..=1.0).contains(&f));
        prop_assert!(f <= r.max(p) + 1e-12);
    }

    #[test]
    fn pattern_normalization_preserves_matching(
        cells in proptest::collection::vec(
            (0..ATTRS, 0i64..4, 0..3usize), 0..4),
        t in arb_tuple(),
    ) {
        let pairs: Vec<(AttrId, PatternValue)> = cells
            .into_iter()
            .map(|(a, v, kind)| {
                let cell = match kind {
                    0 => PatternValue::Wildcard,
                    1 => PatternValue::Const(Value::int(v)),
                    _ => PatternValue::Neq(Value::int(v)),
                };
                (AttrId(a as u16), cell)
            })
            .collect();
        let tp = PatternTuple::empty().refined_with(&pairs);
        let normalized = tp.normalize();
        prop_assert_eq!(tp.matches(&t), normalized.matches(&t));
        prop_assert!(normalized.is_normalized());
    }

    #[test]
    fn pattern_subsumption_is_sound(
        a_cell in (0i64..3, 0..3usize),
        b_cell in (0i64..3, 0..3usize),
        v in 0i64..4,
    ) {
        fn mk((c, kind): (i64, usize)) -> PatternValue {
            match kind {
                0 => PatternValue::Wildcard,
                1 => PatternValue::Const(Value::int(c)),
                _ => PatternValue::Neq(Value::int(c)),
            }
        }
        let (pa, pb) = (mk(a_cell), mk(b_cell));
        if pa.subsumed_by(&pb) {
            let val = Value::int(v);
            if pa.matches(&val) {
                prop_assert!(pb.matches(&val), "{pa:?} ⊑ {pb:?} but {val:?} separates them");
            }
        }
    }

    #[test]
    fn value_semantics_survive_interning(
        a_spec in (0..3usize, 0i64..6, 0u8..8),
        b_spec in (0..3usize, 0i64..6, 0u8..8),
    ) {
        // Build values through the interned representation and check
        // that the observable semantics match the seed's Arc<str>
        // representation: equality/ordering follow the *text*, hashing
        // is consistent with equality, and nulls never agree.
        fn mk((kind, n, s): (usize, i64, u8)) -> (Value, Option<String>) {
            match kind {
                0 => (Value::Null, None),
                1 => (Value::int(n), None),
                _ => {
                    let text = format!("v{s}");
                    (Value::str(&text), Some(text))
                }
            }
        }
        let ((va, ta), (vb, tb)) = (mk(a_spec), mk(b_spec));
        // string-backed values compare exactly as their text does
        if let (Some(ta), Some(tb)) = (&ta, &tb) {
            prop_assert_eq!(va == vb, ta == tb);
            prop_assert_eq!(va.cmp(&vb), ta.cmp(tb));
            prop_assert_eq!(va.as_str().unwrap(), ta.as_str());
        }
        // total order ranks Null < Int < Str, ints numerically
        match (&va, &vb) {
            (Value::Null, Value::Int(_) | Value::Str(_)) => {
                prop_assert!(va < vb);
            }
            (Value::Int(_), Value::Str(_)) => prop_assert!(va < vb),
            (Value::Int(x), Value::Int(y)) => {
                prop_assert_eq!(va.cmp(&vb), x.cmp(y));
            }
            _ => {}
        }
        // agreement requires both sides non-null and equal
        prop_assert_eq!(
            va.agrees_with(&vb),
            !va.is_null() && !vb.is_null() && va == vb
        );
        prop_assert!(!Value::Null.agrees_with(&va));
        prop_assert!(!va.agrees_with(&Value::Null));
        // hashing is consistent with equality (required by the index)
        use certain_fix::relation::FxBuildHasher;
        use std::hash::BuildHasher;
        let h = FxBuildHasher::default();
        if va == vb {
            prop_assert_eq!(h.hash_one(va), h.hash_one(vb));
        }
        // interning round-trips and deduplicates
        if let Some(ta) = &ta {
            prop_assert_eq!(va, Value::str(ta));
            prop_assert_eq!(va.as_sym(), Value::str(ta).as_sym());
        }
    }

    #[test]
    fn attrset_behaves_like_a_set(
        xs in proptest::collection::vec(0u16..64, 0..20),
        ys in proptest::collection::vec(0u16..64, 0..20),
    ) {
        use std::collections::BTreeSet;
        let sa: AttrSet = xs.iter().map(|&i| AttrId(i)).collect();
        let sb: AttrSet = ys.iter().map(|&i| AttrId(i)).collect();
        let ma: BTreeSet<u16> = xs.into_iter().collect();
        let mb: BTreeSet<u16> = ys.into_iter().collect();
        let as_model = |s: AttrSet| -> BTreeSet<u16> { s.iter().map(|a| a.0).collect() };
        prop_assert_eq!(as_model(sa | sb), &ma | &mb);
        prop_assert_eq!(as_model(sa & sb), &ma & &mb);
        prop_assert_eq!(as_model(sa - sb), &ma - &mb);
        prop_assert_eq!(sa.len(), ma.len());
        prop_assert_eq!(sa.is_subset(&sb), ma.is_subset(&mb));
    }
}

proptest! {
    // engine precomputation per case keeps this block slower than the
    // pure-function properties above; fewer cases, same coverage idea
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Session-interleaving-independence, randomized: N randomly sized
    /// streams of random dirty tuples (with random ground truths) over
    /// random rules and master data, multiplexed through one
    /// [`RepairService`] at 1, 2 and 4 workers — every session's
    /// outcomes and deterministic merged counts are bit-identical to
    /// draining that stream alone through a solo session, and the
    /// aggregate statistics equal the order-independent merge of the
    /// solo runs.
    #[test]
    fn multiplexed_sessions_match_solo_runs(
        (master_rows, specs, _, _) in arb_workload(),
        session_batches in proptest::collection::vec(
            proptest::collection::vec((arb_tuple(), arb_tuple()), 1..16), 2..5),
        batch in 1usize..6,
    ) {
        let Some((rules, _)) = build_rules(specs) else { return Ok(()); };
        let master = Arc::new(Relation::new(schema(), master_rows).unwrap());
        let dirty: Vec<Vec<Tuple>> = session_batches
            .iter()
            .map(|sb| sb.iter().map(|(d, _)| d.clone()).collect())
            .collect();
        let cleans: Vec<Vec<Tuple>> = session_batches
            .iter()
            .map(|sb| sb.iter().map(|(_, c)| c.clone()).collect())
            .collect();

        // solo baselines: each stream drained alone, sequentially
        let solo: Vec<_> = dirty
            .iter()
            .zip(&cleans)
            .map(|(d, c)| {
                let opts = RepairOptions {
                    threads: 1,
                    ..RepairOptions::default()
                };
                let mut session = open_session(&rules, &master, false, opts);
                session.drain(SliceSource::with_batch(d, batch), |i| {
                    SimulatedUser::new(c[i].clone())
                });
                session.finish()
            })
            .collect();

        for workers in [1usize, 2, 4] {
            let opts = ServiceOptions {
                threads: workers,
                ..ServiceOptions::default()
            };
            let service = open_service(&rules, &master, false, opts);
            let streams = dirty
                .iter()
                .zip(&cleans)
                .enumerate()
                .map(|(s, (d, c))| {
                    ServiceStream::new(
                        format!("s{s}"),
                        SliceSource::with_batch(d, batch),
                        move |i: usize| SimulatedUser::new(c[i].clone()),
                    )
                })
                .collect();
            let report = service.run(streams);
            prop_assert_eq!(report.sessions.len(), solo.len());
            let mut merged = MonitorStats::default();
            for (s, named) in report.sessions.iter().enumerate() {
                let (got, want) = (&named.report, &solo[s]);
                prop_assert_eq!(got.tuples, want.tuples);
                for (a, b) in got.outcomes().zip(want.outcomes()) {
                    prop_assert_eq!(&a.tuple, &b.tuple);
                    prop_assert_eq!(a.validated, b.validated);
                    prop_assert_eq!(a.certain, b.certain);
                    prop_assert_eq!(a.rounds.len(), b.rounds.len());
                }
                // the deterministic MonitorStats fields, bit-for-bit
                prop_assert_eq!(got.stats.tuples, want.stats.tuples);
                prop_assert_eq!(got.stats.certain, want.stats.certain);
                prop_assert_eq!(got.stats.rounds, want.stats.rounds);
                prop_assert_eq!(got.stats.plan_probes, want.stats.plan_probes);
                prop_assert_eq!(got.stats.plan_fallbacks, want.stats.plan_fallbacks);
                merged.merge(&got.stats);
            }
            prop_assert_eq!(report.stats.tuples, merged.tuples);
            prop_assert_eq!(report.stats.certain, merged.certain);
            prop_assert_eq!(report.stats.rounds, merged.rounds);
            prop_assert_eq!(report.stats.plan_probes, merged.plan_probes);
        }
    }

    /// The D10 contract, randomized: random rules and master data,
    /// with random insert/update/delete [`MasterDelta`] sequences
    /// interleaved between probe batches. The delta-maintained
    /// session — derived rows, recompiled and re-indexed plans,
    /// generation-stamped epochs — is bit-identical (repaired tuples,
    /// certainty, validated sets, and the logical `plan_probes`
    /// count) to fresh engines built from scratch over each batch's
    /// pinned master state, at 1, 2, and 4 workers; generations on
    /// the batch reports never decrease and the merged report counts
    /// exactly one plan rebuild per applied delta.
    #[test]
    fn delta_maintained_sessions_match_rebuilt_masters(
        (master_rows, specs, _, _) in arb_workload(),
        phases in proptest::collection::vec(
            (
                proptest::collection::vec((arb_tuple(), arb_tuple()), 1..8),
                proptest::collection::vec((0u8..3, arb_tuple(), any::<u16>()), 0..4),
            ),
            1..4,
        ),
    ) {
        let Some((rules, _)) = build_rules(specs) else { return Ok(()); };
        let master = Arc::new(Relation::new(schema(), master_rows).unwrap());
        let cleans: Vec<Tuple> = phases
            .iter()
            .flat_map(|(b, _)| b.iter().map(|(_, c)| c.clone()))
            .collect();
        for workers in [1usize, 2, 4] {
            let opts = RepairOptions {
                threads: workers,
                ..RepairOptions::default()
            };
            let mut session = open_session(&rules, &master, false, opts);
            // the master state each batch pins, captured just before the push
            let mut pinned: Vec<Arc<Relation>> = Vec::new();
            let mut applied = 0u64;
            let mut last_gen = 0u64;
            for (batch, ops) in &phases {
                pinned.push(session.context().epoch().master().relation().clone());
                let dirty: Vec<Tuple> = batch.iter().map(|(d, _)| d.clone()).collect();
                let generation = session
                    .push_batch(&dirty, |i| SimulatedUser::new(cleans[i].clone()))
                    .generation;
                prop_assert!(generation >= last_gen);
                last_gen = generation;
                for (kind, t, r) in ops {
                    let rows = session.context().epoch().master().relation().len() as u32;
                    let delta = match kind {
                        0 => MasterDelta::new().insert(t.clone()),
                        1 if rows > 0 => MasterDelta::new().update(*r as u32 % rows, t.clone()),
                        // never delete the last row: engines want a non-empty catalog
                        2 if rows > 1 => MasterDelta::new().delete(*r as u32 % rows),
                        _ => continue,
                    };
                    session.apply_master_delta(&delta).expect("delta applies");
                    applied += 1;
                }
            }
            let report = session.finish();
            prop_assert_eq!(report.stats.plan_rebuilds, applied);
            let mut offset = 0usize;
            for (k, ((batch, _), base)) in phases.iter().zip(&pinned).enumerate() {
                let dirty: Vec<Tuple> = batch.iter().map(|(d, _)| d.clone()).collect();
                let fresh =
                    RepairContext::new(rules.clone(), base.clone(), false);
                let opts = RepairOptions {
                    threads: 1,
                    ..RepairOptions::default()
                };
                let want = fresh.repair_opts(&dirty, &opts, |i| {
                    SimulatedUser::new(cleans[offset + i].clone())
                });
                let got = &report.batches[k];
                prop_assert_eq!(got.outcomes.len(), want.outcomes.len());
                for (a, b) in got.outcomes.iter().zip(&want.outcomes) {
                    prop_assert_eq!(&a.tuple, &b.tuple);
                    prop_assert_eq!(a.certain, b.certain);
                    prop_assert_eq!(&a.validated, &b.validated);
                }
                prop_assert_eq!(got.stats.plan_probes, want.stats.plan_probes);
                offset += batch.len();
            }
        }
    }

    /// The D12 contract, randomized: random rules, master data, and
    /// insert/update/delete [`MasterDelta`] sequences interleaved with
    /// probe batches under `CertainFix+`, at the auto chunk (one tuple
    /// per chunk for batches this small) or at chunks of 3, where one
    /// diagram serves several tuples. A diagram lives one chunk cut
    /// from the batch alone, so runs at 1, 2 and 4 workers — and a
    /// second run at 1 in the same process — are bit-identical on whole
    /// outcomes and on every batch's `BddStats`.
    ///
    /// Against a plain `CertainFix` engine over each batch's pinned
    /// master, only certain fixes are compared: a cached suggestion
    /// passes the re-check but is valid, not canonical, so it may steer
    /// a tuple to a different non-certain end (D8).
    #[test]
    fn cache_snapshots_are_schedule_independent(
        (master_rows, specs, _, _) in arb_workload(),
        phases in proptest::collection::vec(
            (
                proptest::collection::vec((arb_tuple(), arb_tuple()), 1..8),
                proptest::collection::vec((0u8..3, arb_tuple(), any::<u16>()), 0..4),
            ),
            1..4,
        ),
        chunk in (0usize..2).prop_map(|c| 3 * c),
    ) {
        let Some((rules, _)) = build_rules(specs) else { return Ok(()); };
        let master = Arc::new(Relation::new(schema(), master_rows).unwrap());
        let cleans: Vec<Tuple> = phases
            .iter()
            .flat_map(|(b, _)| b.iter().map(|(_, c)| c.clone()))
            .collect();
        // one session over the stream; returns each batch's pinned
        // master and the finished report
        let run = |workers: usize| {
            let opts = RepairOptions {
                threads: workers,
                chunk,
                ..RepairOptions::default()
            };
            let mut session = open_session(&rules, &master, true, opts);
            let mut pinned: Vec<Arc<Relation>> = Vec::new();
            for (batch, ops) in &phases {
                pinned.push(session.context().epoch().master().relation().clone());
                let dirty: Vec<Tuple> = batch.iter().map(|(d, _)| d.clone()).collect();
                session.push_batch(&dirty, |i| SimulatedUser::new(cleans[i].clone()));
                for (kind, t, r) in ops {
                    let rows = session.context().epoch().master().relation().len() as u32;
                    let delta = match kind {
                        0 => MasterDelta::new().insert(t.clone()),
                        1 if rows > 0 => MasterDelta::new().update(*r as u32 % rows, t.clone()),
                        2 if rows > 1 => MasterDelta::new().delete(*r as u32 % rows),
                        _ => continue,
                    };
                    session.apply_master_delta(&delta).expect("delta applies");
                }
            }
            (pinned, session.finish())
        };
        let (pinned, base) = run(1);
        for workers in [1usize, 2, 4] {
            let (_, got) = run(workers);
            prop_assert_eq!(got.batches.len(), base.batches.len());
            for (a, b) in got.batches.iter().zip(&base.batches) {
                prop_assert_eq!(&a.outcomes, &b.outcomes);
                prop_assert_eq!(a.bdd, b.bdd);
            }
        }
        // against a plain engine over the master state each batch
        // pinned: a tuple both runs call certain gets the same value
        let mut offset = 0usize;
        for (k, ((batch, _), base_master)) in phases.iter().zip(pinned).enumerate() {
            let dirty: Vec<Tuple> = batch.iter().map(|(d, _)| d.clone()).collect();
            let fresh =
                RepairContext::new(rules.clone(), base_master, false);
            let opts = RepairOptions {
                threads: 1,
                ..RepairOptions::default()
            };
            let cold = fresh.repair_opts(&dirty, &opts, |i| {
                SimulatedUser::new(cleans[offset + i].clone())
            });
            for (warm, cold) in base.batches[k].outcomes.iter().zip(&cold.outcomes) {
                if warm.certain && cold.certain {
                    prop_assert_eq!(&warm.tuple, &cold.tuple);
                }
            }
            offset += batch.len();
        }
    }
}
