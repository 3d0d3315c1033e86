//! The BDD suggestion cache of Sect. 5.2 (`Suggest+`, Figs. 7–8).
//!
//! Computing a suggestion runs the greedy set-cover loop of
//! [`certainfix_reasoning::suggest()`](certainfix_reasoning::suggest::suggest); *checking* whether a previously
//! computed suggestion still works for a new tuple is one closure
//! ([`Applicable::is_suggestion`]). The cache is a binary
//! decision diagram: each node holds a cached suggestion; the `true`
//! edge leads to the node consulted after this suggestion was used, the
//! `false` edge to the next candidate when the check fails. Nodes are
//! structurally deduplicated ("compression"), turning the tree into a
//! DAG.
//!
//! A [`Cursor`] tracks one tuple's walk through the diagram across its
//! interaction rounds, resuming where it left off — mirroring "in the
//! next round of interaction, checking resumes at node u".
//!
//! A round derives the applicable rules `Σ_t[Z]` at most once, and only
//! when a check needs them (a cached suggestion that overlaps `Z` fails
//! without them): every cached node on the walk is checked against that
//! one derivation, and a walk that ends in a miss completes a fresh
//! suggestion from it, which the diagram then caches.
//!
//! A diagram lives for one chunk of the engine's fan-out, and chunks
//! are cut from the input alone, so what a diagram can serve never
//! depends on the worker count (D12 in `DETERMINISM.md`). The diagram is
//! `CertainFix+`'s only suggestion cache. A round the diagram serves
//! derives no suggestion at all: the Fig. 3 loop reads its exhaustion
//! stop off the served suggestion instead of deriving a second one.

use certainfix_reasoning::Applicable;
use certainfix_relation::{AttrId, AttrSet, FxHashMap, MasterIndex, Tuple};
use certainfix_rules::{ProbeScratch, RulePlan, RuleSet};

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
    /// Suggestions the diagram could not serve (asked of the miss
    /// closure, and inserted).
    pub misses: u64,
    /// Cached-node checks that failed (walked to the `false` edge).
    pub failed_checks: u64,
    /// Nodes reused through structural deduplication.
    pub dedup_reuses: u64,
}

impl BddStats {
    /// Fold another cache's counters into this one (used when merging
    /// per-chunk diagrams after a batch repair).
    pub fn merge(&mut self, other: &BddStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.failed_checks += other.failed_checks;
        self.dedup_reuses += other.dedup_reuses;
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
    /// Cached nodes are checked, and a miss is completed, against one
    /// `Σ_t[Z]` derived through the compiled `plan` with the caller's
    /// `scratch`; the diagram caches what a miss computes. Returns
    /// `None` when every attribute is validated.
    #[allow(clippy::too_many_arguments)]
    pub fn suggest_plus_with(
        &mut self,
        rules: &RuleSet,
        master: &MasterIndex,
        plan: &RulePlan,
        t: &Tuple,
        validated: AttrSet,
        cursor: &mut Cursor,
        scratch: &mut ProbeScratch,
    ) -> Option<Vec<AttrId>> {
        if validated == AttrSet::full(rules.r_schema().len()) {
            return None;
        }
        let sigma = Applicable::new(rules, master, Some(plan), t, validated);
        let mut at = cursor.at.unwrap_or(CursorAt::Root);
        // Structural dedup makes the diagram a DAG whose false-edges may
        // close a cycle; remember visited nodes to stay terminating.
        let mut visited: Vec<usize> = Vec::new();
        loop {
            match *self.slot(at) {
                Some(i) if !visited.contains(&i) => {
                    visited.push(i);
                    let cached = &self.nodes[i].suggestion;
                    if sigma.is_suggestion(cached, scratch) {
                        self.stats.hits += 1;
                        cursor.at = Some(CursorAt::Hi(i));
                        return Some(cached.clone());
                    }
                    self.stats.failed_checks += 1;
                    at = CursorAt::Lo(i);
                }
                Some(_) => {
                    // walked into a false-edge cycle: every cached
                    // candidate on this path failed; compute fresh
                    // without extending the diagram.
                    let computed = sigma.suggest(scratch)?.attrs;
                    self.stats.misses += 1;
                    cursor.at = Some(CursorAt::Root);
                    return Some(computed);
                }
                None => {
                    let computed = sigma.suggest(scratch)?.attrs;
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use certainfix_relation::{tuple, Relation, Schema};
    use certainfix_rules::parse_rules;
    use std::sync::Arc;

    /// Fig. 1's rules and master, plus the plan compiled over them.
    struct Fig1 {
        r: Arc<Schema>,
        rules: RuleSet,
        master: MasterIndex,
        plan: RulePlan,
    }

    impl Fig1 {
        /// One `Suggest+` call for `t1_fixed()`.
        fn walk(
            &self,
            bdd: &mut SuggestionBdd,
            validated: AttrSet,
            cursor: &mut Cursor,
        ) -> Option<Vec<AttrId>> {
            bdd.suggest_plus_with(
                &self.rules,
                &self.master,
                &self.plan,
                &t1_fixed(),
                validated,
                cursor,
                &mut ProbeScratch::new(),
            )
        }
    }

    fn fig1() -> Fig1 {
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
        let plan = RulePlan::compile(&rules, &master);
        Fig1 {
            r,
            rules,
            master,
            plan,
        }
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
        let fx = fig1();
        let mut bdd = SuggestionBdd::new();
        let z = attrs(&fx.r, &["zip", "AC", "str", "city"]);

        let s1 = fx.walk(&mut bdd, z, &mut Cursor::start()).unwrap();
        assert_eq!(bdd.stats().misses, 1);
        assert_eq!(bdd.stats().hits, 0);
        assert_eq!(bdd.len(), 1);

        // a second tuple in the same state is served from the cache
        let s2 = fx.walk(&mut bdd, z, &mut Cursor::start()).unwrap();
        assert_eq!(s1, s2);
        assert_eq!(bdd.stats().hits, 1);
        assert_eq!(bdd.stats().misses, 1);
        assert_eq!(bdd.len(), 1, "no new node");
    }

    #[test]
    fn failed_check_walks_false_edge_and_inserts() {
        let fx = fig1();
        let mut bdd = SuggestionBdd::new();
        // Seed the cache with the Example 13 suggestion.
        let z = attrs(&fx.r, &["zip", "AC", "str", "city"]);
        fx.walk(&mut bdd, z, &mut Cursor::start()).unwrap();

        // A tuple in a different state: the cached suggestion overlaps
        // its validated set, so the check fails and a new node grows on
        // the false edge.
        let z2 = attrs(&fx.r, &["zip", "AC", "str", "city", "phn", "type"]);
        let s2 = fx.walk(&mut bdd, z2, &mut Cursor::start()).unwrap();
        assert!(!s2.is_empty());
        assert_eq!(bdd.stats().failed_checks, 1);
        assert_eq!(bdd.stats().misses, 2);
        assert_eq!(bdd.len(), 2);
    }

    #[test]
    fn structural_dedup_reuses_nodes() {
        let fx = fig1();
        let mut bdd = SuggestionBdd::new();
        let z = attrs(&fx.r, &["zip", "AC", "str", "city"]);
        let z2 = attrs(&fx.r, &["zip", "AC", "str", "city", "phn", "type"]);

        // grow: root → A (for z), then false-edge → B (for z2)
        fx.walk(&mut bdd, z, &mut Cursor::start()).unwrap();
        let s_b = fx.walk(&mut bdd, z2, &mut Cursor::start()).unwrap();

        // a third walk that reaches an empty slot but computes the same
        // suggestion as B must reuse B's node
        // (advance past the root hit first: same state as B)
        let s_b2 = fx.walk(&mut bdd, z2, &mut Cursor::start()).unwrap();
        assert_eq!(s_b, s_b2);
        // the second z2 walk HIT the cached node rather than interning
        assert!(bdd.stats().hits >= 1);
        assert!(bdd.len() <= 2);
    }

    #[test]
    fn cursor_resumes_mid_diagram() {
        let fx = fig1();
        let mut bdd = SuggestionBdd::new();
        let z = attrs(&fx.r, &["zip", "AC", "str", "city"]);
        let mut cursor = Cursor::start();
        let s1 = fx.walk(&mut bdd, z, &mut cursor).unwrap();
        // simulate the user asserting s1: validated grows
        let z2 = z | s1.iter().copied().collect::<AttrSet>();
        // full? then no suggestion
        if z2 == AttrSet::full(fx.r.len()) {
            assert!(fx.walk(&mut bdd, z2, &mut cursor).is_none());
        } else {
            let s2 = fx.walk(&mut bdd, z2, &mut cursor).unwrap();
            assert!(s1.iter().all(|a| !s2.contains(a)));
        }
    }

    #[test]
    fn dedup_cycles_terminate() {
        // Regression: structural dedup can close a false-edge cycle
        // (A.lo → B, B.lo → A). A walk where every cached check fails
        // must terminate by computing fresh instead of spinning.
        let fx = fig1();
        let mut bdd = SuggestionBdd::new();
        // Manufacture the cycle directly.
        let phn = fx.r.attr("phn").unwrap();
        let item = fx.r.attr("item").unwrap();
        let a = bdd.intern(&[phn]);
        let b = bdd.intern(&[item]);
        bdd.root = Some(a);
        bdd.nodes[a].lo = Some(b);
        bdd.nodes[b].lo = Some(a);
        // A state where both cached suggestions fail the check (phn and
        // item are already validated) but a real suggestion exists.
        let z = attrs(&fx.r, &["phn", "item", "zip"]);
        let s = fx
            .walk(&mut bdd, z, &mut Cursor::start())
            .expect("must terminate and produce a suggestion");
        assert!(!s.is_empty());
        assert!(s.iter().all(|a| !z.contains(*a)));
        assert_eq!(bdd.stats().failed_checks, 2);
        assert_eq!(bdd.stats().misses, 1);
    }

    /// A round derives `Σ_t[Z]` once, however many cached checks fail
    /// before its miss: the round probes the master exactly as much as
    /// one fresh suggestion does.
    #[test]
    fn a_round_with_failed_checks_and_a_miss_derives_once() {
        use certainfix_reasoning::suggest_with;
        let fx = fig1();
        let z = attrs(&fx.r, &["zip", "AC", "str", "city"]);
        let mut one = ProbeScratch::new();
        let fresh = suggest_with(&fx.rules, &fx.master, &t1_fixed(), z, &fx.plan, &mut one);
        let one_derivation = one.probes();
        assert!(one_derivation > 0);

        // two cached suggestions that are disjoint from Z, so each check
        // needs Σ_t[Z], and that do not complete it
        let mut bdd = SuggestionBdd::new();
        let a = bdd.intern(&[fx.r.attr("item").unwrap()]);
        let b = bdd.intern(&[fx.r.attr("phn").unwrap()]);
        bdd.root = Some(a);
        bdd.nodes[a].lo = Some(b);
        let mut scratch = ProbeScratch::new();
        let served = bdd.suggest_plus_with(
            &fx.rules,
            &fx.master,
            &fx.plan,
            &t1_fixed(),
            z,
            &mut Cursor::start(),
            &mut scratch,
        );
        assert_eq!(served, fresh.map(|s| s.attrs));
        assert_eq!((bdd.stats().failed_checks, bdd.stats().misses), (2, 1));
        assert_eq!(scratch.probes(), one_derivation);
    }

    #[test]
    fn fully_validated_returns_none() {
        let fx = fig1();
        let mut bdd = SuggestionBdd::new();
        let full = AttrSet::full(fx.r.len());
        assert!(fx.walk(&mut bdd, full, &mut Cursor::start()).is_none());
        assert!(bdd.is_empty());
    }
}
