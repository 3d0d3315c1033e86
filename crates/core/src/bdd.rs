//! The BDD suggestion cache of Sect. 5.2 (`Suggest+`, Figs. 7–8).
//!
//! Computing a suggestion runs the greedy set-cover loop of
//! [`certainfix_reasoning::suggest()`](certainfix_reasoning::suggest::suggest); *checking* whether a previously
//! computed suggestion still works for a new tuple is one closure
//! ([`certainfix_reasoning::is_suggestion`]). The cache is a binary
//! decision diagram: each node holds a cached suggestion; the `true`
//! edge leads to the node consulted after this suggestion was used, the
//! `false` edge to the next candidate when the check fails. Nodes are
//! structurally deduplicated ("compression"), turning the tree into a
//! DAG.
//!
//! A [`Cursor`] tracks one tuple's walk through the diagram across its
//! interaction rounds, resuming where it left off — mirroring "in the
//! next round of interaction, checking resumes at node u".

use certainfix_reasoning::{is_suggestion, is_suggestion_with, suggest, suggest_with};
use certainfix_relation::{AttrId, AttrSet, FxHashMap, MasterIndex, Tuple};
use certainfix_rules::{ProbeScratch, RulePlan, RuleSet};

use crate::sharedcache::PinnedPool;

#[derive(Clone, Debug)]
struct Node {
    suggestion: Vec<AttrId>,
    /// Next node after this suggestion was *used*.
    hi: Option<usize>,
    /// Next candidate when the check *fails*.
    lo: Option<usize>,
}

/// Where a cursor sits: about to consult `slot` (an edge of `parent`,
/// or the root).
#[derive(Clone, Copy, Debug, Default)]
pub struct Cursor {
    at: Option<CursorAt>,
}

#[derive(Clone, Copy, Debug)]
enum CursorAt {
    Root,
    Hi(usize),
    Lo(usize),
}

impl Cursor {
    /// A cursor positioned at the diagram's root.
    pub fn start() -> Cursor {
        Cursor {
            at: Some(CursorAt::Root),
        }
    }
}

/// Cache statistics (Fig. 12's latency difference comes from the hit
/// rate reported here).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BddStats {
    /// Suggestions served by re-checking a cached node.
    pub hits: u64,
    /// Suggestions computed from scratch (and inserted).
    pub misses: u64,
    /// Cached-node checks that failed (walked to the `false` edge).
    pub failed_checks: u64,
    /// Nodes reused through structural deduplication.
    pub dedup_reuses: u64,
    /// Local misses answered by the shared suggestion cache's pinned
    /// [`Pool`](crate::sharedcache::Pool) instead of a fresh computation.
    pub shared_hits: u64,
    /// Local misses the shared cache could not answer either (computed
    /// fresh and buffered for the batch's commit).
    pub shared_misses: u64,
}

impl BddStats {
    /// Fold another cache's counters into this one (used when merging
    /// per-worker caches after a parallel batch repair).
    pub fn merge(&mut self, other: &BddStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.failed_checks += other.failed_checks;
        self.dedup_reuses += other.dedup_reuses;
        self.shared_hits += other.shared_hits;
        self.shared_misses += other.shared_misses;
    }
}

/// The suggestion BDD.
#[derive(Debug, Default)]
pub struct SuggestionBdd {
    nodes: Vec<Node>,
    root: Option<usize>,
    /// structural dedup: suggestion attr-set → node index
    interned: FxHashMap<u64, usize>,
    stats: BddStats,
}

impl SuggestionBdd {
    /// An empty cache.
    pub fn new() -> SuggestionBdd {
        SuggestionBdd::default()
    }

    /// Number of nodes (after compression).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` iff nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Cache statistics so far.
    pub fn stats(&self) -> BddStats {
        self.stats
    }

    /// Drain the statistics counted since the last drain (the fan-out
    /// charges them to the batch of the chunk that ticked them).
    pub(crate) fn take_stats(&mut self) -> BddStats {
        std::mem::take(&mut self.stats)
    }

    fn slot(&mut self, at: CursorAt) -> &mut Option<usize> {
        match at {
            CursorAt::Root => &mut self.root,
            CursorAt::Hi(i) => &mut self.nodes[i].hi,
            CursorAt::Lo(i) => &mut self.nodes[i].lo,
        }
    }

    fn intern(&mut self, suggestion: &[AttrId]) -> usize {
        let key = suggestion
            .iter()
            .fold(AttrSet::EMPTY, |mut s, &a| {
                s.insert(a);
                s
            })
            .bits();
        if let Some(&i) = self.interned.get(&key) {
            self.stats.dedup_reuses += 1;
            return i;
        }
        let i = self.nodes.len();
        self.nodes.push(Node {
            suggestion: suggestion.to_vec(),
            hi: None,
            lo: None,
        });
        self.interned.insert(key, i);
        i
    }

    /// `Suggest+` (Fig. 8): serve the next suggestion for `t` given the
    /// validated set, walking (and growing) the diagram from `cursor`.
    /// Returns `None` when every attribute is validated.
    pub fn suggest_plus(
        &mut self,
        rules: &RuleSet,
        master: &MasterIndex,
        t: &Tuple,
        validated: AttrSet,
        cursor: &mut Cursor,
    ) -> Option<Vec<AttrId>> {
        self.suggest_plus_with(
            rules,
            master,
            t,
            validated,
            cursor,
            None,
            None,
            &mut ProbeScratch::new(),
        )
    }

    /// [`suggest_plus`](Self::suggest_plus) with an optional
    /// [`PinnedPool`] behind the local diagram — when the walk ends in a
    /// miss, candidates earlier batches pooled for the same validated
    /// set are re-checked before falling back to
    /// [`certainfix_reasoning::suggest()`](certainfix_reasoning::suggest()); fresh results go to the
    /// worker's publish buffer — and an optional compiled
    /// [`RulePlan`] plus a caller-owned [`ProbeScratch`] routing the
    /// checks' and computations' master probes.
    #[allow(clippy::too_many_arguments)]
    pub fn suggest_plus_with(
        &mut self,
        rules: &RuleSet,
        master: &MasterIndex,
        t: &Tuple,
        validated: AttrSet,
        cursor: &mut Cursor,
        mut shared: Option<&mut PinnedPool<'_>>,
        plan: Option<&RulePlan>,
        scratch: &mut ProbeScratch,
    ) -> Option<Vec<AttrId>> {
        if validated == AttrSet::full(rules.r_schema().len()) {
            return None;
        }
        let mut at = cursor.at.unwrap_or(CursorAt::Root);
        // Structural dedup makes the diagram a DAG whose false-edges may
        // close a cycle; remember visited nodes to stay terminating.
        let mut visited: Vec<usize> = Vec::new();
        loop {
            match *self.slot(at) {
                Some(i) if !visited.contains(&i) => {
                    visited.push(i);
                    let cached = self.nodes[i].suggestion.clone();
                    let still_valid = match plan {
                        Some(p) => {
                            is_suggestion_with(rules, master, t, validated, &cached, p, scratch)
                        }
                        None => is_suggestion(rules, master, t, validated, &cached),
                    };
                    if still_valid {
                        self.stats.hits += 1;
                        cursor.at = Some(CursorAt::Hi(i));
                        return Some(cached);
                    }
                    self.stats.failed_checks += 1;
                    at = CursorAt::Lo(i);
                }
                Some(_) => {
                    // walked into a false-edge cycle: every cached
                    // candidate on this path failed; compute fresh
                    // without extending the diagram.
                    let computed = self.compute_or_shared(
                        rules,
                        master,
                        t,
                        validated,
                        shared.as_deref_mut(),
                        plan,
                        scratch,
                    )?;
                    self.stats.misses += 1;
                    cursor.at = Some(CursorAt::Root);
                    return Some(computed);
                }
                None => {
                    let computed =
                        self.compute_or_shared(rules, master, t, validated, shared, plan, scratch)?;
                    self.stats.misses += 1;
                    let node = self.intern(&computed);
                    // interning may return a node already on this walk;
                    // linking it would close a cycle on the very path we
                    // just failed through — leave the slot empty then.
                    if !visited.contains(&node) {
                        *self.slot(at) = Some(node);
                    }
                    cursor.at = Some(CursorAt::Hi(node));
                    return Some(computed);
                }
            }
        }
    }

    /// The diagram-miss fallback: the shared cache when one is wired
    /// in (counting `shared_hits` / `shared_misses`), a fresh
    /// computation otherwise. Either way the returned suggestion is
    /// valid for `(t, validated)` — shared candidates are re-checked
    /// before being served.
    #[allow(clippy::too_many_arguments)]
    fn compute_or_shared(
        &mut self,
        rules: &RuleSet,
        master: &MasterIndex,
        t: &Tuple,
        validated: AttrSet,
        shared: Option<&mut PinnedPool<'_>>,
        plan: Option<&RulePlan>,
        scratch: &mut ProbeScratch,
    ) -> Option<Vec<AttrId>> {
        match shared {
            Some(pool) => {
                let (computed, hit) = pool.suggest(rules, master, t, validated, plan, scratch);
                if hit {
                    self.stats.shared_hits += 1;
                } else {
                    self.stats.shared_misses += 1;
                }
                computed
            }
            None => match plan {
                Some(p) => suggest_with(rules, master, t, validated, p, scratch),
                None => suggest(rules, master, t, validated),
            }
            .map(|s| s.attrs),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sharedcache::SharedSuggestionCache;
    use certainfix_relation::{tuple, Relation, Schema};
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
        (r, rules, master)
    }

    fn attrs(r: &Schema, names: &[&str]) -> AttrSet {
        names.iter().map(|n| r.attr(n).unwrap()).collect()
    }

    /// t1 after its first TransFix (Example 13's state).
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
    fn first_call_misses_then_identical_tuple_hits() {
        let (r, rules, master) = fig1();
        let mut bdd = SuggestionBdd::new();
        let z = attrs(&r, &["zip", "AC", "str", "city"]);

        let mut c1 = Cursor::start();
        let s1 = bdd
            .suggest_plus(&rules, &master, &t1_fixed(), z, &mut c1)
            .unwrap();
        assert_eq!(bdd.stats().misses, 1);
        assert_eq!(bdd.stats().hits, 0);
        assert_eq!(bdd.len(), 1);

        // a second tuple in the same state is served from the cache
        let mut c2 = Cursor::start();
        let s2 = bdd
            .suggest_plus(&rules, &master, &t1_fixed(), z, &mut c2)
            .unwrap();
        assert_eq!(s1, s2);
        assert_eq!(bdd.stats().hits, 1);
        assert_eq!(bdd.stats().misses, 1);
        assert_eq!(bdd.len(), 1, "no new node");
    }

    #[test]
    fn failed_check_walks_false_edge_and_inserts() {
        let (r, rules, master) = fig1();
        let mut bdd = SuggestionBdd::new();
        // Seed the cache with the Example 13 suggestion.
        let z = attrs(&r, &["zip", "AC", "str", "city"]);
        let mut c = Cursor::start();
        bdd.suggest_plus(&rules, &master, &t1_fixed(), z, &mut c)
            .unwrap();

        // A tuple in a different state: the cached suggestion overlaps
        // its validated set, so the check fails and a new node grows on
        // the false edge.
        let z2 = attrs(&r, &["zip", "AC", "str", "city", "phn", "type"]);
        let mut c2 = Cursor::start();
        let s2 = bdd
            .suggest_plus(&rules, &master, &t1_fixed(), z2, &mut c2)
            .unwrap();
        assert!(!s2.is_empty());
        assert_eq!(bdd.stats().failed_checks, 1);
        assert_eq!(bdd.stats().misses, 2);
        assert_eq!(bdd.len(), 2);
    }

    #[test]
    fn structural_dedup_reuses_nodes() {
        let (r, rules, master) = fig1();
        let mut bdd = SuggestionBdd::new();
        let z = attrs(&r, &["zip", "AC", "str", "city"]);
        let z2 = attrs(&r, &["zip", "AC", "str", "city", "phn", "type"]);

        // grow: root → A (for z), then false-edge → B (for z2)
        let mut c = Cursor::start();
        bdd.suggest_plus(&rules, &master, &t1_fixed(), z, &mut c)
            .unwrap();
        let mut c2 = Cursor::start();
        let s_b = bdd
            .suggest_plus(&rules, &master, &t1_fixed(), z2, &mut c2)
            .unwrap();

        // a third walk that reaches an empty slot but computes the same
        // suggestion as B must reuse B's node
        let mut c3 = Cursor::start();
        // advance past the root hit first (same state as B)
        let s_b2 = bdd
            .suggest_plus(&rules, &master, &t1_fixed(), z2, &mut c3)
            .unwrap();
        assert_eq!(s_b, s_b2);
        // the second z2 walk HIT the cached node rather than interning
        assert!(bdd.stats().hits >= 1);
        assert!(bdd.len() <= 2);
    }

    #[test]
    fn cursor_resumes_mid_diagram() {
        let (r, rules, master) = fig1();
        let mut bdd = SuggestionBdd::new();
        let z = attrs(&r, &["zip", "AC", "str", "city"]);
        let mut cursor = Cursor::start();
        let s1 = bdd
            .suggest_plus(&rules, &master, &t1_fixed(), z, &mut cursor)
            .unwrap();
        // simulate the user asserting s1: validated grows
        let z2 = z | s1.iter().copied().collect::<AttrSet>();
        // full? then no suggestion
        if z2 == AttrSet::full(r.len()) {
            assert!(bdd
                .suggest_plus(&rules, &master, &t1_fixed(), z2, &mut cursor)
                .is_none());
        } else {
            let s2 = bdd
                .suggest_plus(&rules, &master, &t1_fixed(), z2, &mut cursor)
                .unwrap();
            assert!(s1.iter().all(|a| !s2.contains(a)));
        }
    }

    #[test]
    fn dedup_cycles_terminate() {
        // Regression: structural dedup can close a false-edge cycle
        // (A.lo → B, B.lo → A). A walk where every cached check fails
        // must terminate by computing fresh instead of spinning.
        let (r, rules, master) = fig1();
        let mut bdd = SuggestionBdd::new();
        // Manufacture the cycle directly.
        let phn = r.attr("phn").unwrap();
        let item = r.attr("item").unwrap();
        let a = bdd.intern(&[phn]);
        let b = bdd.intern(&[item]);
        bdd.root = Some(a);
        bdd.nodes[a].lo = Some(b);
        bdd.nodes[b].lo = Some(a);
        // A state where both cached suggestions fail the check (phn and
        // item are already validated) but a real suggestion exists.
        let z = attrs(&r, &["phn", "item", "zip"]);
        let mut cursor = Cursor::start();
        let s = bdd
            .suggest_plus(&rules, &master, &t1_fixed(), z, &mut cursor)
            .expect("must terminate and produce a suggestion");
        assert!(!s.is_empty());
        assert!(s.iter().all(|a| !z.contains(*a)));
        assert_eq!(bdd.stats().failed_checks, 2);
        assert_eq!(bdd.stats().misses, 1);
    }

    #[test]
    fn shared_cache_answers_a_later_batchs_miss() {
        let (r, rules, master) = fig1();
        let shared = SharedSuggestionCache::new();
        let z = attrs(&r, &["zip", "AC", "str", "city"]);
        let walk = |bdd: &mut SuggestionBdd, pool: &mut PinnedPool<'_>| {
            bdd.suggest_plus_with(
                &rules,
                &master,
                &t1_fixed(),
                z,
                &mut Cursor::start(),
                Some(pool),
                None,
                &mut ProbeScratch::new(),
            )
            .unwrap()
        };

        // batch 1, worker 1: empty diagram, empty pool — computes fresh
        // and buffers the publish, which the batch boundary commits
        let pinned = shared.pin();
        let mut pool1 = PinnedPool::new(&pinned);
        let mut bdd1 = SuggestionBdd::new();
        let s1 = walk(&mut bdd1, &mut pool1);
        assert_eq!(
            (bdd1.stats().shared_hits, bdd1.stats().shared_misses),
            (0, 1)
        );
        shared.commit(master.generation(), 0, 1, vec![(0, pool1.take_publishes())]);
        assert_eq!(shared.len(), 1);

        // batch 2, worker 2: its own empty diagram misses locally, but
        // the pool answers with the exact same suggestion
        let pinned = shared.pin();
        let mut pool2 = PinnedPool::new(&pinned);
        let mut bdd2 = SuggestionBdd::new();
        let s2 = walk(&mut bdd2, &mut pool2);
        assert_eq!(s1, s2, "the pooled candidate passes the check");
        assert_eq!(
            (bdd2.stats().shared_hits, bdd2.stats().shared_misses),
            (1, 0)
        );
        assert!(pool2.take_publishes().is_empty(), "a hit publishes nothing");

        // merged BddStats carry both workers' shared counters
        let mut merged = bdd1.stats();
        merged.merge(&bdd2.stats());
        assert_eq!((merged.shared_hits, merged.shared_misses), (1, 1));
    }

    #[test]
    fn fully_validated_returns_none() {
        let (r, rules, master) = fig1();
        let mut bdd = SuggestionBdd::new();
        let mut cursor = Cursor::start();
        assert!(bdd
            .suggest_plus(
                &rules,
                &master,
                &t1_fixed(),
                AttrSet::full(r.len()),
                &mut cursor
            )
            .is_none());
        assert!(bdd.is_empty());
    }
}
