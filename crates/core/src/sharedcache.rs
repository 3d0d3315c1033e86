//! The shared suggestion cache: one immutable, generation-stamped
//! snapshot of pooled suggestions that readers pin, and one writer step
//! at the batch boundary.
//!
//! Computing a suggestion (the greedy set-cover loop of
//! [`certainfix_reasoning::suggest()`](certainfix_reasoning::suggest())) is the single most expensive
//! step of an interaction round; *checking* whether a previously
//! computed suggestion also works for another tuple is one closure
//! ([`certainfix_reasoning::is_suggestion`]) — that asymmetry is what
//! the paper's `Suggest+` BDD exploits within one chunk. This cache
//! exploits it **across** chunks and batches: suggestions are pooled
//! by the validated [`AttrSet`] they were computed under, and a probe
//! the chunk's diagram cannot serve re-checks the pooled candidates
//! before paying for a fresh computation.
//!
//! # Design
//!
//! The cache holds one [`Pool`] behind an `Arc`, the way a
//! [`RepairContext`](crate::RepairContext) holds its
//! [`MasterEpoch`](crate::MasterEpoch):
//!
//! * **Pin.** A fan-out pins the current pool once
//!   ([`SharedSuggestionCache::pin`]: one lock, one `Arc` clone) next to
//!   the master epoch it pins. Workers then probe `&Pool` with no lock
//!   and no atomic.
//! * **Probe.** [`PinnedPool::suggest`] serves the first pooled
//!   candidate that passes the re-check (a hit), else computes fresh
//!   and appends `(validated, attrs)` to the worker's publish buffer (a
//!   miss). A publish is invisible to every probe of its own fan-out.
//! * **Commit.** After the fan-out stitches its chunks back together,
//!   [`SharedSuggestionCache::commit`] applies their publishes in input
//!   order and swaps in the next snapshot. A repeated candidate is
//!   dropped, a key already holding
//!   [`MAX_CANDIDATES_PER_KEY`](SharedSuggestionCache::MAX_CANDIDATES_PER_KEY)
//!   candidates keeps its first ones, and a new key beyond
//!   [`MAX_KEYS`](SharedSuggestionCache::MAX_KEYS) evicts the
//!   oldest-committed key. A commit pinned to a retired generation is
//!   dropped.
//! * **Deltas.** [`SharedSuggestionCache::apply_master_delta`] runs
//!   inside the context's delta gate. A suggestion-preserving delta
//!   (pure updates that change no rule's key column) carries the pool
//!   to the new generation; any other delta installs an empty pool.
//!
//! # Determinism
//!
//! A pool serves only probes of its own master generation, and a
//! candidate is served only after [`certainfix_reasoning::is_suggestion`]
//! accepts it for the probing tuple (invariant D8). A probe sees exactly
//! the pool committed before its fan-out pinned, and commits land in
//! input order, so the outcomes *and* the hit/miss counters depend only
//! on the stream, the batch boundaries, the chunk size and where the
//! deltas fall — never on the worker count or the schedule (invariant
//! D12, DETERMINISM.md). The global hit/miss counters are the sum of
//! the committed per-batch counts (invariant D9).

use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard};

use certainfix_reasoning::{is_suggestion_with, suggest_with};
use certainfix_relation::{AttrId, AttrSet, FxHashMap, MasterDelta, MasterIndex, Tuple};
use certainfix_rules::{ProbeScratch, RulePlan, RuleSet};

/// One suggestion a miss computed: the validated set it answers and the
/// suggested attrs.
pub type Publish = (AttrSet, Vec<AttrId>);

/// One immutable generation of pooled suggestions.
#[derive(Clone, Debug, Default)]
pub struct Pool {
    generation: u64,
    /// validated-set bits → candidates, in commit order.
    map: FxHashMap<u64, Vec<Arc<[AttrId]>>>,
    /// Keys in first-commit order; the key cap evicts from the front.
    order: VecDeque<u64>,
    /// Candidates pooled over all keys.
    entries: usize,
}

impl Pool {
    /// The master generation this pool serves.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The candidates pooled for `validated`, in commit order.
    pub fn candidates(&self, validated: AttrSet) -> &[Arc<[AttrId]>] {
        self.map.get(&validated.bits()).map_or(&[], Vec::as_slice)
    }

    /// Add one committed suggestion (see the module docs for the caps).
    fn insert(&mut self, validated: AttrSet, attrs: &[AttrId], stats: &mut SharedCacheStats) {
        let key = validated.bits();
        if let Some(slot) = self.map.get_mut(&key) {
            if slot.iter().any(|c| **c == *attrs) {
                return;
            }
            if slot.len() >= SharedSuggestionCache::MAX_CANDIDATES_PER_KEY {
                stats.saturated += 1;
                return;
            }
            slot.push(Arc::from(attrs));
            self.entries += 1;
            return;
        }
        if self.map.len() >= SharedSuggestionCache::MAX_KEYS {
            stats.saturated += 1;
            let oldest = self.order.pop_front().expect("a full pool has keys");
            let evicted = self.map.remove(&oldest).map_or(0, |slot| slot.len());
            self.entries -= evicted;
            stats.evicted_lru += evicted as u64;
        }
        self.map.insert(key, vec![Arc::from(attrs)]);
        self.order.push_back(key);
        self.entries += 1;
    }
}

/// One worker's view of the cache for one fan-out: the [`Pool`] pinned
/// at fan-out, read with no lock, and the buffer the worker's misses
/// publish into.
#[derive(Debug)]
pub struct PinnedPool<'p> {
    pool: &'p Pool,
    publishes: Vec<Publish>,
}

impl<'p> PinnedPool<'p> {
    /// A view over `pool` with an empty publish buffer.
    pub fn new(pool: &'p Pool) -> PinnedPool<'p> {
        PinnedPool {
            pool,
            publishes: Vec::new(),
        }
    }

    /// Serve a suggestion for `t` under `validated`: the first pooled
    /// candidate that passes the re-check (a hit, `true`), else a fresh
    /// computation, buffered for the next commit (a miss, `false`). The
    /// pool answers only probes of its own master generation. The
    /// compiled [`RulePlan`] and a caller-owned [`ProbeScratch`] route
    /// the master probes.
    pub fn suggest(
        &mut self,
        rules: &RuleSet,
        master: &MasterIndex,
        plan: &RulePlan,
        t: &Tuple,
        validated: AttrSet,
        scratch: &mut ProbeScratch,
    ) -> (Option<Vec<AttrId>>, bool) {
        if self.pool.generation == master.generation() {
            let served = self
                .pool
                .candidates(validated)
                .iter()
                .find(|c| is_suggestion_with(rules, master, t, validated, c, plan, scratch));
            if let Some(c) = served {
                return (Some(c.to_vec()), true);
            }
        }
        let computed = suggest_with(rules, master, t, validated, plan, scratch).map(|s| s.attrs);
        if let Some(attrs) = &computed {
            self.publishes.push((validated, attrs.clone()));
        }
        (computed, false)
    }

    /// Drain what was published since the last call: one chunk's worth.
    pub fn take_publishes(&mut self) -> Vec<Publish> {
        std::mem::take(&mut self.publishes)
    }
}

/// Cache statistics.
///
/// Two provenances share this shape: [`SharedSuggestionCache::stats`]
/// snapshots the engine-lifetime counters, while
/// [`SharedSuggestionCache::attributed`] scopes `hits` / `misses` to one
/// batch or session — the form reports carry. Every other field is an
/// engine-lifetime snapshot in both forms.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SharedCacheStats {
    /// Probes served from the pool.
    pub hits: u64,
    /// Probes that fell through to a fresh computation.
    pub misses: u64,
    /// Candidates pooled.
    pub entries: u64,
    /// Validated-set keys pooled.
    pub keys: u64,
    /// Candidates dropped because a master delta installed an empty pool.
    pub evicted_delta: u64,
    /// Candidates evicted with the oldest key at the key cap.
    pub evicted_lru: u64,
    /// Candidates carried to a new generation by a suggestion-preserving
    /// delta.
    pub revalidated: u64,
    /// Committed publishes that met a full key or a full pool.
    pub saturated: u64,
    /// High-water mark of `keys`.
    pub keys_high_water: u64,
    /// High-water mark of `entries`.
    pub entries_high_water: u64,
}

impl SharedCacheStats {
    /// Hit rate in `[0, 1]` (0 when the cache was never probed).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The current pool plus the lifetime counters, behind one lock that
/// only pins, commits, deltas and stats take.
#[derive(Debug, Default)]
struct State {
    pool: Arc<Pool>,
    /// Lifetime counters; `entries` and `keys` are read off the pool.
    stats: SharedCacheStats,
}

impl State {
    /// Replace the pool with an empty one serving `generation`.
    fn restart(&mut self, generation: u64) {
        self.stats.evicted_delta += self.pool.entries as u64;
        self.pool = Arc::new(Pool {
            generation,
            ..Pool::default()
        });
    }
}

/// The shared suggestion cache; see the [module docs](self).
#[derive(Debug, Default)]
pub struct SharedSuggestionCache {
    state: Mutex<State>,
}

impl SharedSuggestionCache {
    /// Validated-set keys pooled before a new key evicts the oldest —
    /// a hit-rate trade, never a correctness one.
    pub const MAX_KEYS: usize = 1 << 16;

    /// Candidates pooled per key; later candidates are dropped.
    pub const MAX_CANDIDATES_PER_KEY: usize = 64;

    /// An empty cache at generation 0 (a fresh master lineage's).
    pub fn new() -> SharedSuggestionCache {
        SharedSuggestionCache::default()
    }

    fn state(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect("suggestion cache poisoned")
    }

    /// Pin the current pool for one fan-out.
    pub fn pin(&self) -> Arc<Pool> {
        Arc::clone(&self.state().pool)
    }

    /// Commit one fan-out: add its probe counts and apply its publishes
    /// — `(chunk index, publishes)`, in any order — chunk by chunk in
    /// index order, then each chunk's in the order it buffered them.
    /// Publishes computed under a `generation` older than the pool's are
    /// dropped; a newer one (a delta reached the context without passing
    /// through the cache) first replaces the pool with an empty one.
    pub fn commit(
        &self,
        generation: u64,
        hits: u64,
        misses: u64,
        mut chunks: Vec<(usize, Vec<Publish>)>,
    ) {
        chunks.sort_unstable_by_key(|&(c, _)| c);
        let mut st = self.state();
        st.stats.hits += hits;
        st.stats.misses += misses;
        if generation < st.pool.generation || chunks.iter().all(|(_, p)| p.is_empty()) {
            return;
        }
        if generation > st.pool.generation {
            st.restart(generation);
        }
        let State { pool, stats } = &mut *st;
        // clones only if a fan-out still holds the old pin
        let next = Arc::make_mut(pool);
        for (validated, attrs) in chunks.iter().flat_map(|(_, p)| p) {
            next.insert(*validated, attrs, stats);
        }
        stats.keys_high_water = stats.keys_high_water.max(next.map.len() as u64);
        stats.entries_high_water = stats.entries_high_water.max(next.entries as u64);
    }

    /// Move the pool to `generation` after a master delta that was
    /// applied to `old_master`: carry it when the delta preserves
    /// suggestions — pure updates that change no rule's key column —
    /// (counted under `revalidated`), otherwise install an empty pool
    /// (counted under `evicted_delta`).
    pub fn apply_master_delta(
        &self,
        rules: &RuleSet,
        old_master: &MasterIndex,
        delta: &MasterDelta,
        generation: u64,
    ) {
        let mut st = self.state();
        if preserves_suggestions(rules, old_master, delta) {
            st.stats.revalidated += st.pool.entries as u64;
            Arc::make_mut(&mut st.pool).generation = generation;
        } else {
            st.restart(generation);
        }
    }

    /// Candidates currently pooled.
    pub fn len(&self) -> usize {
        self.state().pool.entries
    }

    /// `true` iff nothing is currently pooled.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A [`stats`](Self::stats) snapshot with `hits` / `misses` replaced
    /// by the counts the caller attributes to one batch or session.
    /// Every fan-out commits exactly the counts it attributes, so
    /// summing the attributed snapshots over every batch the engine ran
    /// reproduces the global `hits` / `misses`.
    pub fn attributed(&self, hits: u64, misses: u64) -> SharedCacheStats {
        SharedCacheStats {
            hits,
            misses,
            ..self.stats()
        }
    }

    /// Snapshot the lifetime counters and the current occupancy.
    pub fn stats(&self) -> SharedCacheStats {
        let st = self.state();
        SharedCacheStats {
            entries: st.pool.entries as u64,
            keys: st.pool.map.len() as u64,
            ..st.stats.clone()
        }
    }
}

/// `true` iff the delta provably leaves the suggestion function
/// unchanged for every `(tuple, validated)` pair: it is pure updates
/// (inserts add support, deletes remove it — both can change rule
/// applicability), and no changed column is a key column (`lhs_m` or
/// pattern-aligned) of any rule. Fix-source (`rhs_m`) changes alter the
/// values `TransFix` propagates, but a suggestion is an attr list — its
/// derivation only probes master *key* columns.
fn preserves_suggestions(rules: &RuleSet, old_master: &MasterIndex, delta: &MasterDelta) -> bool {
    if !delta.inserts().is_empty() || delta.has_deletes() {
        return false;
    }
    let mut touched_m = AttrSet::EMPTY;
    for (row, new) in delta.updates() {
        for (a, v) in old_master.tuple(*row).iter() {
            if v != new.get(a) {
                touched_m.insert(a);
            }
        }
    }
    rules.iter().all(|(_, rule)| {
        let mut keys = AttrSet::collect_from(rule.lhs_m().iter().copied());
        for &a in rule.lhs_p() {
            if let Some(m) = rule.master_attr_for(a) {
                keys.insert(m);
            }
        }
        keys.is_disjoint(&touched_m)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bdd::{Cursor, SuggestionBdd};
    use certainfix_relation::{Relation, Schema, Value};

    fn aset(bits: u64) -> AttrSet {
        AttrSet::from_bits(bits)
    }

    fn sugg(ids: &[u16]) -> Vec<AttrId> {
        ids.iter().map(|&i| AttrId(i)).collect()
    }

    fn pooled(cache: &SharedSuggestionCache, validated: AttrSet) -> Vec<Vec<AttrId>> {
        let pool = cache.pin();
        pool.candidates(validated)
            .iter()
            .map(|c| c.to_vec())
            .collect()
    }

    /// A two-rule workload: rule `r0` keys R.a0 on M.m0 and fixes R.a1
    /// from M.m1; rule `r1` keys R.a2 on M.m2 and fixes R.a3 from M.m3.
    fn fixture() -> (RuleSet, MasterIndex) {
        let r = Schema::new("R", ["a0", "a1", "a2", "a3"]).unwrap();
        let rm = Schema::new("M", ["m0", "m1", "m2", "m3"]).unwrap();
        let rule = |name, key: (&str, &str), fix: (&str, &str)| {
            certainfix_rules::EditingRule::build(&r, &rm)
                .name(name)
                .key(key.0, key.1)
                .fix(fix.0, fix.1)
                .finish()
                .unwrap()
        };
        let rules = RuleSet::from_rules(
            r.clone(),
            rm.clone(),
            vec![
                rule("r0", ("a0", "m0"), ("a1", "m1")),
                rule("r1", ("a2", "m2"), ("a3", "m3")),
            ],
        )
        .expect("rules build");
        let row = |cells: [&str; 4]| Tuple::new(cells.into_iter().map(Value::from).collect());
        let master = Relation::new(
            rm,
            vec![row(["k0", "v0", "k2", "v2"]), row(["x0", "y0", "x2", "y2"])],
        )
        .expect("master builds");
        (rules, MasterIndex::new(Arc::new(master)))
    }

    /// A tuple with a0 and a2 keyed on master row 0; with only a0
    /// validated it needs a real suggestion ({a2} or similar) to finish.
    fn probe_tuple() -> Tuple {
        Tuple::new(vec![
            Value::from("k0"),
            Value::Null,
            Value::from("k2"),
            Value::Null,
        ])
    }

    /// Probe `t` under `validated` through a fresh pin of `cache`.
    fn probe(
        cache: &SharedSuggestionCache,
        rules: &RuleSet,
        master: &MasterIndex,
        validated: AttrSet,
    ) -> (Option<Vec<AttrId>>, bool, Vec<Publish>) {
        let pool = cache.pin();
        let mut view = PinnedPool::new(&pool);
        let plan = RulePlan::compile(rules, master);
        let mut scratch = ProbeScratch::new();
        let (s, hit) = view.suggest(
            rules,
            master,
            &plan,
            &probe_tuple(),
            validated,
            &mut scratch,
        );
        (s, hit, view.take_publishes())
    }

    #[test]
    fn a_publish_stays_invisible_until_its_batch_commits() {
        let (rules, master) = fixture();
        let plan = RulePlan::compile(&rules, &master);
        let cache = SharedSuggestionCache::new();
        let validated = aset(0b0001);
        let pool = cache.pin();
        let mut view = PinnedPool::new(&pool);
        let mut scratch = ProbeScratch::new();
        let t = probe_tuple();
        let (first, hit) = view.suggest(&rules, &master, &plan, &t, validated, &mut scratch);
        assert!(!hit && first.is_some(), "a cold pool misses and computes");
        // the same fan-out probes again: its own publish is not served
        let (second, hit) = view.suggest(&rules, &master, &plan, &t, validated, &mut scratch);
        assert!(!hit, "a publish is invisible to its own fan-out");
        assert_eq!(first, second);
        let publishes = view.take_publishes();
        assert_eq!(publishes.len(), 2);
        assert!(cache.is_empty(), "nothing lands before the commit");

        cache.commit(master.generation(), 0, 2, vec![(0, publishes)]);
        assert!(
            pool.candidates(validated).is_empty(),
            "the old pin never changes"
        );
        assert_eq!(cache.len(), 1, "the commit dedups the repeat");
        let (served, hit, publishes) = probe(&cache, &rules, &master, validated);
        assert!(hit && publishes.is_empty(), "a later pin hits");
        assert_eq!(served, first);
        let stats = cache.stats();
        assert_eq!(
            (stats.hits, stats.misses),
            (0, 2),
            "counts arrive by commit"
        );
        assert_eq!((stats.keys, stats.entries_high_water), (1, 1));
    }

    /// A diagram miss goes to the caller's closure, here the pinned
    /// pool: a later batch's own empty diagram misses, and the pool
    /// answers with the suggestion an earlier batch committed.
    #[test]
    fn shared_cache_answers_a_later_batchs_miss() {
        let (rules, master) = fixture();
        let plan = RulePlan::compile(&rules, &master);
        let cache = SharedSuggestionCache::new();
        let validated = aset(0b0001);
        // one chunk: a fresh diagram whose misses probe `pool`, counting
        // the pool's (hits, misses)
        let chunk = |pool: &mut PinnedPool<'_>| {
            let mut bdd = SuggestionBdd::new();
            let mut counts = (0, 0);
            let mut scratch = ProbeScratch::new();
            let served = bdd.suggest_plus_with(
                &rules,
                &master,
                &plan,
                &probe_tuple(),
                validated,
                &mut Cursor::start(),
                &mut scratch,
                |t, v, sc| {
                    let (s, hit) = pool.suggest(&rules, &master, &plan, t, v, sc);
                    if hit {
                        counts.0 += 1;
                    } else {
                        counts.1 += 1;
                    }
                    s
                },
            );
            assert_eq!(bdd.stats().misses, 1, "an empty diagram misses");
            (served.expect("a suggestion exists"), counts)
        };

        // batch 1: empty diagram, empty pool — computes fresh and
        // buffers the publish, which the batch boundary commits
        let pinned = cache.pin();
        let mut pool1 = PinnedPool::new(&pinned);
        let (s1, counts) = chunk(&mut pool1);
        assert_eq!(counts, (0, 1));
        cache.commit(master.generation(), 0, 1, vec![(0, pool1.take_publishes())]);
        assert_eq!(cache.len(), 1);

        // batch 2: the pool answers with the exact same suggestion
        let pinned = cache.pin();
        let mut pool2 = PinnedPool::new(&pinned);
        let (s2, counts) = chunk(&mut pool2);
        assert_eq!(s1, s2, "the pooled candidate passes the check");
        assert_eq!(counts, (1, 0));
        assert!(pool2.take_publishes().is_empty(), "a hit publishes nothing");
    }

    #[test]
    fn commits_land_in_input_order_whichever_chunk_finished_first() {
        let cache = SharedSuggestionCache::new();
        let key = aset(0b11);
        // chunk 1 finished (and was collected) first
        let chunks = vec![
            (1, vec![(key, sugg(&[3])), (key, sugg(&[4]))]),
            (0, vec![(key, sugg(&[1])), (key, sugg(&[2]))]),
        ];
        cache.commit(0, 0, 4, chunks);
        assert_eq!(
            pooled(&cache, key),
            vec![sugg(&[1]), sugg(&[2]), sugg(&[3]), sugg(&[4])]
        );
    }

    #[test]
    fn a_fix_column_delta_keeps_the_next_batch_hitting() {
        let (rules, master0) = fixture();
        let cache = SharedSuggestionCache::new();
        let validated = aset(0b0001);
        let (_, _, publishes) = probe(&cache, &rules, &master0, validated);
        cache.commit(0, 0, 1, vec![(0, publishes)]);

        // change row 0's fix sources m1 and m3, no key column
        let mut changed = master0.tuple(0).clone();
        changed.set(AttrId(1), Value::from("v0-changed"));
        changed.set(AttrId(3), Value::from("v2-changed"));
        let delta = MasterDelta::new().update(0, changed);
        let master1 = master0.apply_delta(&delta).expect("update applies");
        cache.apply_master_delta(&rules, &master0, &delta, master1.generation());

        assert_eq!(cache.pin().generation(), master1.generation());
        let (_, hit, publishes) = probe(&cache, &rules, &master1, validated);
        assert!(
            hit && publishes.is_empty(),
            "the carried pool serves the new epoch"
        );
        let stats = cache.stats();
        assert_eq!((stats.revalidated, stats.evicted_delta), (1, 0));
    }

    #[test]
    fn a_key_column_or_insert_delta_clears_the_pool() {
        let (rules, master0) = fixture();
        let mut keyed = master0.tuple(0).clone();
        keyed.set(AttrId(0), Value::from("k0-changed"));
        let insert = MasterDelta::new().insert(master0.tuple(1).clone());
        for delta in [MasterDelta::new().update(0, keyed), insert] {
            let cache = SharedSuggestionCache::new();
            cache.commit(
                0,
                0,
                2,
                vec![(0, vec![(aset(1), sugg(&[2])), (aset(4), sugg(&[1]))])],
            );
            let master1 = master0.apply_delta(&delta).expect("delta applies");
            cache.apply_master_delta(&rules, &master0, &delta, master1.generation());
            assert!(cache.is_empty());
            assert_eq!(cache.pin().generation(), master1.generation());
            let stats = cache.stats();
            assert_eq!((stats.evicted_delta, stats.revalidated), (2, 0));
        }
    }

    #[test]
    fn a_commit_pinned_to_a_retired_generation_is_dropped() {
        let (rules, master0) = fixture();
        let cache = SharedSuggestionCache::new();
        let (_, _, publishes) = probe(&cache, &rules, &master0, aset(0b0001));
        // a delta lands while the fan-out is still running
        let delta = MasterDelta::new().delete(1);
        let master1 = master0.apply_delta(&delta).expect("delete applies");
        cache.apply_master_delta(&rules, &master0, &delta, master1.generation());
        cache.commit(master0.generation(), 0, 1, vec![(0, publishes)]);
        assert!(cache.is_empty(), "the stale publishes are dropped");
        assert_eq!(cache.stats().misses, 1, "its probes still count");
        // a pool pinned before the delta serves nothing to the new epoch
        let warm = SharedSuggestionCache::new();
        let (_, _, publishes) = probe(&warm, &rules, &master0, aset(1));
        warm.commit(0, 0, 1, vec![(0, publishes)]);
        assert!(probe(&warm, &rules, &master0, aset(1)).1);
        assert!(
            !probe(&warm, &rules, &master1, aset(1)).1,
            "a pool serves its own generation"
        );
    }

    #[test]
    fn the_candidate_cap_keeps_the_first_candidates() {
        let cache = SharedSuggestionCache::new();
        let cap = SharedSuggestionCache::MAX_CANDIDATES_PER_KEY;
        let publishes = (0..cap as u16 + 10)
            .map(|i| (aset(7), sugg(&[i])))
            .collect();
        cache.commit(0, 0, 0, vec![(0, publishes)]);
        let pool = pooled(&cache, aset(7));
        assert_eq!(pool.len(), cap);
        assert_eq!(
            (pool[0].clone(), pool[cap - 1].clone()),
            (sugg(&[0]), sugg(&[cap as u16 - 1]))
        );
        assert_eq!(cache.stats().saturated, 10);
    }

    #[test]
    fn the_key_cap_evicts_the_oldest_committed_key() {
        let cache = SharedSuggestionCache::new();
        let max = SharedSuggestionCache::MAX_KEYS as u64;
        // key 1 holds two candidates; keys 2..=max one each
        let mut publishes = vec![(aset(1), sugg(&[0])), (aset(1), sugg(&[1]))];
        publishes.extend((2..=max).map(|k| (aset(k), sugg(&[0]))));
        cache.commit(0, 0, 0, vec![(0, publishes)]);
        assert_eq!(cache.stats().keys, max);
        cache.commit(0, 0, 0, vec![(0, vec![(aset(max + 1), sugg(&[0]))])]);
        let stats = cache.stats();
        assert_eq!(
            (stats.keys, stats.evicted_lru, stats.saturated),
            (max, 2, 1)
        );
        assert!(pooled(&cache, aset(1)).is_empty(), "the oldest key went");
        assert_eq!(pooled(&cache, aset(2)), vec![sugg(&[0])]);
        assert_eq!(pooled(&cache, aset(max + 1)), vec![sugg(&[0])]);
        assert_eq!(stats.entries_high_water, max + 1);
    }
}
