//! The parallel batch-repair engine: one work-stealing (or contiguous
//! shard) fan-out over a shared repair context with epoch-stamped live
//! master data.
//!
//! The paper's repair model is embarrassingly parallel across tuples:
//! [`CertainFix`] and [`transfix`](crate::transfix::transfix) read a
//! shared immutable `(Σ, Dm)` precomputation and mutate only the tuple
//! they are repairing. [`BatchRepairEngine`] exploits that with a single
//! fan-out that serves every batch. Its input is an *epoch* of units —
//! one batch plus its oracle factory each: a session batch is a
//! one-unit epoch, a [`service`](crate::service) epoch holds one batch
//! per participating session. Every unit is cut into fixed-size
//! *chunks* of consecutive tuples, the units' chunks are interleaved
//! round-robin and dealt to per-worker queues, and the workers drain
//! them — their own queue first, then (under [`Schedule::Steal`])
//! anything left in other workers' queues. Claiming is lock-free: each
//! queue is a half-open chunk range with an atomic cursor, and both the
//! owner and thieves claim via `fetch_add`, so a chunk is handed out
//! exactly once and an uneven batch (one region full of hard
//! multi-round tuples) keeps every core busy instead of stalling the
//! worker that happened to be dealt the hard region. Worker 0 is the
//! submitting thread itself: an epoch that needs one worker spawns no
//! thread.
//!
//! # Live master data: epochs and generations
//!
//! The `(Dm, plan, catalog)` precomputation is no longer a field of
//! the context but a [`MasterEpoch`] — one immutable snapshot of the
//! master at a given [`generation`](MasterEpoch::generation), bundling
//! the indexed master, the compiled [`RulePlan`], the region catalog,
//! and the initial suggestion, all built against the *same* master
//! rows. [`RepairContext::apply_master_delta`] builds the next epoch
//! from a [`MasterDelta`] (batch inserts / updates / deletes) and
//! swaps it in atomically:
//!
//! * in-flight work is never blocked — every batch *pins* its epoch
//!   (one `Arc` clone) at fan-out and finishes on it;
//! * new batches pick up the new epoch at their next fan-out, so a
//!   delta becomes visible at the next *epoch boundary*, not mid-batch;
//! * concurrent deltas serialize on an internal gate, so no delta is
//!   lost; the epoch write-lock is held only for the pointer swap.
//!
//! Each [`BatchReport`] records the [`generation`](BatchReport::generation)
//! it repaired against, making the hand-off observable all the way up
//! through sessions and the service stream.
//!
//! # Workloads
//!
//! The engine fans out two per-tuple [`Workload`]s behind one API:
//! the interactive editing-rule repair of the paper
//! ([`Workload::EditRules`], the default), and the `IncRep`-style
//! cost-based CFD repair ([`Workload::Cfd`]) it is benchmarked
//! against — each dirty tuple runs
//! [`certainfix_cfd::repair_tuple`] against the pinned epoch's master.
//! CFD repair is oracle-free and single-round; its outcomes flow
//! through the same [`FixOutcome`] / [`BatchReport`] plumbing.
//!
//! Each worker owns its own [`SuggestionBdd`] cache and one
//! [`MonitorStats`] accumulator per unit; behind the per-worker caches
//! an optional [`SharedSuggestionCache`] pools computed suggestions
//! across the batches repaired by the same engine. A fan-out pins its
//! pool next to its epoch, and commits its workers' publishes in input
//! order (units in epoch order) once the outcomes are stitched.
//!
//! A claimed chunk of plain `CertainFix` (both caches off) is one
//! *block*: the Fig. 3 loop runs its tuples in round lockstep, so each
//! round's `TransFix` probes are prefetched across the block
//! ([`transfix_block`](crate::transfix::transfix_block)). With either
//! cache consulted the chunk runs tuple by tuple, each a block of one:
//! the diagram's contents and the pool's publish order follow the order
//! of the per-tuple suggestion calls, which lockstep would interleave.
//!
//! Multi-batch (and streaming) ingest lives one layer up, in
//! [`session`](crate::session): a
//! [`RepairSession`](crate::session::RepairSession) drains any
//! [`TupleSource`](crate::session::TupleSource) through this engine,
//! one one-unit fan-out per batch. The [`service`](crate::service)
//! multiplexer schedules N independent sessions fairly over a single
//! engine by submitting their ready batches as one epoch to the same
//! fan-out.
//!
//! # Determinism
//!
//! Every tuple's repair depends only on the tuple itself, its oracle,
//! and the pinned epoch — never on other tuples in the batch or on
//! which worker claims it. Repairs always probe through the epoch's
//! compiled [`RulePlan`]; the plain probe functions survive only as
//! the test-suite's parity oracle. Outcomes are stitched back in input
//! order, and the merged statistics are integer sums, so for plain
//! `CertainFix` (`use_bdd = false`, shared cache off) the repaired
//! tuples, the merged count fields of [`MonitorStats`], and
//! any [`RoundMetrics`](crate::RoundMetrics) evaluated per worker and
//! [`merged`](crate::metrics::merge_round_series) are **bit-identical
//! to a sequential run regardless of schedule, worker count, or
//! interleaving**. A delta-maintained epoch is bit-identical to an
//! engine rebuilt from scratch over the same master rows (D10 in
//! DETERMINISM.md). The shared cache keeps that guarantee across
//! worker counts and schedules: a batch reads only the pool committed
//! before it, so its outcomes and hit/miss counts are fixed by the
//! stream and the batch boundaries (D12). With the per-worker BDD
//! enabled, served suggestions depend on what the worker repaired
//! before; they are *checked* rather than recomputed, so a tuple both
//! runs call certain gets the same fix, but round traces may differ.
//! The wall-clock observables ([`MonitorStats::elapsed`], the interner
//! watermark) are exempt from the guarantee by nature.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use certainfix_cfd::{repair_tuple, rules_to_cfds, Cfd, IncRepConfig};
use certainfix_reasoning::{suggest_with, RegionCatalog};
use certainfix_relation::{
    AttrId, AttrSet, Interner, MasterDelta, MasterIndex, Relation, RelationError, Tuple,
};
use certainfix_rules::{DependencyGraph, ProbeScratch, RulePlan, RuleSet};
use std::sync::{Arc, Mutex, RwLock};

use crate::bdd::{BddStats, Cursor, SuggestionBdd};
use crate::certainfix::{CertainFix, CertainFixConfig, FixOutcome};
use crate::monitor::{InitialRegion, MonitorStats};
use crate::oracle::UserOracle;
use crate::sharedcache::{PinnedPool, Publish, SharedCacheStats, SharedSuggestionCache};

/// One immutable snapshot of the master data and everything compiled
/// from it: the indexed master rows, the compiled [`RulePlan`], the
/// ranked certain-region catalog, and the initial suggestion — all
/// built against the same [`generation`](Self::generation). Workers
/// pin an epoch (one `Arc` clone) for the duration of a batch; a
/// [`MasterDelta`] produces the *next* epoch without touching this
/// one, so in-flight repairs are never invalidated mid-batch.
pub struct MasterEpoch {
    master: MasterIndex,
    plan: RulePlan,
    catalog: RegionCatalog,
    initial: Vec<AttrId>,
}

impl MasterEpoch {
    /// Compile an epoch over an already-indexed master.
    fn build(rules: &RuleSet, master: MasterIndex, initial_region: InitialRegion) -> MasterEpoch {
        let plan = RulePlan::compile(rules, &master);
        let catalog = RegionCatalog::build(rules, &master);
        let region = match initial_region {
            InitialRegion::Best => catalog.best(),
            InitialRegion::Median => catalog.median(),
        };
        let initial = region
            .map(|r| r.z().to_vec())
            .unwrap_or_else(|| rules.r_schema().attr_ids().collect());
        debug_assert_eq!(plan.generation(), master.generation());
        MasterEpoch {
            master,
            plan,
            catalog,
            initial,
        }
    }

    /// The indexed master data of this epoch.
    pub fn master(&self) -> &MasterIndex {
        &self.master
    }

    /// The compiled rule plan (always probed by repairs; compiled
    /// against this epoch's master generation).
    pub fn plan(&self) -> &RulePlan {
        &self.plan
    }

    /// The region catalog.
    pub fn catalog(&self) -> &RegionCatalog {
        &self.catalog
    }

    /// The initial suggestion (the seeded region's `Z`).
    pub fn initial_suggestion(&self) -> &[AttrId] {
        &self.initial
    }

    /// The master generation this epoch was compiled against.
    pub fn generation(&self) -> u64 {
        self.master.generation()
    }
}

/// What the engine runs per tuple.
#[derive(Clone, Debug, Default)]
pub enum Workload {
    /// The paper's interactive editing-rule repair (`CertainFix` /
    /// `CertainFix+`): suggestion rounds against a user oracle,
    /// certain fixes through `TransFix`.
    #[default]
    EditRules,
    /// `IncRep`-style cost-based CFD repair (Cong et al., VLDB 2007):
    /// each tuple is repaired by the cheapest attribute modifications
    /// that resolve its CFD violations against the epoch's master.
    /// Oracle-free; the oracle passed to the engine is ignored.
    Cfd(IncRepConfig),
}

/// Everything repair workers share by reference: the rule set, the
/// dependency graph (Fig. 4), the configuration — plus the *current*
/// [`MasterEpoch`] behind an `RwLock`ed `Arc`, which
/// [`apply_master_delta`](Self::apply_master_delta) swaps. Pinning an
/// epoch is one read-lock + `Arc` clone; everything inside an epoch is
/// immutable after construction (the [`MasterIndex`] cache and the
/// plan's sub-index slots grow internally behind their own
/// synchronization), hence `Sync`.
pub struct RepairContext {
    rules: Arc<RuleSet>,
    graph: DependencyGraph,
    config: CertainFixConfig,
    use_bdd: bool,
    initial_region: InitialRegion,
    workload: Workload,
    /// CFDs derived from the rule set; empty under
    /// [`Workload::EditRules`].
    cfds: Vec<Cfd>,
    epoch: RwLock<Arc<MasterEpoch>>,
    /// Serializes concurrent deltas so none is lost; the epoch write
    /// lock above is held only for the pointer swap.
    delta_gate: Mutex<()>,
    rebuilds: AtomicU64,
}

impl RepairContext {
    /// Build a context over `(Σ, Dm)`. `use_bdd` selects `CertainFix+`
    /// (per-worker BDD suggestion caches) over plain `CertainFix`.
    pub fn new(rules: RuleSet, master: Arc<Relation>, use_bdd: bool) -> RepairContext {
        Self::with_config(
            rules,
            master,
            use_bdd,
            InitialRegion::Best,
            CertainFixConfig::default(),
        )
    }

    /// Full-control constructor for the editing-rule workload; repairs
    /// run through the epoch's compiled rule plan.
    pub fn with_config(
        rules: RuleSet,
        master: Arc<Relation>,
        use_bdd: bool,
        initial_region: InitialRegion,
        config: CertainFixConfig,
    ) -> RepairContext {
        Self::with_workload(
            rules,
            master,
            use_bdd,
            initial_region,
            config,
            Workload::default(),
        )
    }

    /// [`with_config`](Self::with_config) plus the per-tuple
    /// [`Workload`]. Under [`Workload::Cfd`] the rule set is converted
    /// to CFDs ([`certainfix_cfd::rules_to_cfds`]; inexpressible rules
    /// are skipped) and repairs run the cost-based baseline instead of
    /// the interaction loop.
    pub fn with_workload(
        rules: RuleSet,
        master: Arc<Relation>,
        use_bdd: bool,
        initial_region: InitialRegion,
        config: CertainFixConfig,
        workload: Workload,
    ) -> RepairContext {
        let cfds = match &workload {
            Workload::EditRules => Vec::new(),
            Workload::Cfd(_) => rules_to_cfds(&rules).0,
        };
        let master = MasterIndex::new(master);
        let graph = DependencyGraph::new(&rules);
        let epoch = Arc::new(MasterEpoch::build(&rules, master, initial_region));
        RepairContext {
            rules: Arc::new(rules),
            graph,
            config,
            use_bdd,
            initial_region,
            workload,
            cfds,
            epoch: RwLock::new(epoch),
            delta_gate: Mutex::new(()),
            rebuilds: AtomicU64::new(0),
        }
    }

    /// The rule set.
    pub fn rules(&self) -> &RuleSet {
        &self.rules
    }

    /// Pin the current epoch: one read-lock + `Arc` clone. The pinned
    /// snapshot stays valid (and immutable) across any number of
    /// subsequent [`apply_master_delta`](Self::apply_master_delta)
    /// calls.
    pub fn epoch(&self) -> Arc<MasterEpoch> {
        self.epoch.read().expect("epoch lock poisoned").clone()
    }

    /// The current master generation (the one the *next* fan-out will
    /// pin).
    pub fn generation(&self) -> u64 {
        self.epoch().generation()
    }

    /// How many epochs were rebuilt by deltas since construction.
    pub fn plan_rebuilds(&self) -> u64 {
        self.rebuilds.load(Ordering::Relaxed)
    }

    /// The per-tuple workload.
    pub fn workload(&self) -> &Workload {
        &self.workload
    }

    /// `true` iff suggestions are served from a BDD cache.
    pub fn uses_bdd(&self) -> bool {
        self.use_bdd
    }

    /// Apply a batch of master mutations: build the next
    /// [`MasterEpoch`] (delta-maintained index, recompiled plan,
    /// re-ranked catalog) and swap it in atomically. Returns the new
    /// generation.
    ///
    /// In-flight batches keep their pinned epoch and finish undisturbed;
    /// batches fanned out after this call repair against the new
    /// generation. Concurrent deltas serialize (none is lost); the
    /// epoch write lock is held only for the pointer swap, so pinning
    /// stalls at most microseconds.
    pub fn apply_master_delta(&self, delta: &MasterDelta) -> Result<u64, RelationError> {
        self.apply_master_delta_maintaining(delta, |_, _| ())
    }

    /// [`apply_master_delta`](Self::apply_master_delta) that
    /// additionally runs `maintain(old_master, new_generation)` —
    /// `old_master` being the index the delta was applied *to* —
    /// before the delta gate is released. The shared cache decides
    /// whether its pool survives by diffing the delta's named rows
    /// against exactly those pre-delta master values, and running it
    /// under the gate keeps concurrent deltas (the net server applies
    /// them from multiple connection handlers) from moving the pool out
    /// of epoch order.
    pub(crate) fn apply_master_delta_maintaining(
        &self,
        delta: &MasterDelta,
        maintain: impl FnOnce(&MasterIndex, u64),
    ) -> Result<u64, RelationError> {
        let _gate = self.delta_gate.lock().expect("delta gate poisoned");
        let current = self.epoch();
        let next_master = current.master().apply_delta(delta)?;
        let next = Arc::new(MasterEpoch::build(
            &self.rules,
            next_master,
            self.initial_region,
        ));
        let generation = next.generation();
        *self.epoch.write().expect("epoch lock poisoned") = next;
        self.rebuilds.fetch_add(1, Ordering::Relaxed);
        maintain(current.master(), generation);
        Ok(generation)
    }

    /// The one repair entry: repair the block `dirty` against a
    /// caller-pinned epoch, charging the caller's BDD cache and
    /// statistics accumulator; `oracle_for(base + k)` supplies the user
    /// for `dirty[k]`. The sequential [`DataMonitor`](crate::DataMonitor)
    /// and the engine's workers both produce outcomes through this one
    /// code path, which is what makes the determinism guarantee hold by
    /// construction rather than by parallel maintenance of two loops.
    ///
    /// Editing-rule repairs run [`CertainFix::run_block_scratch`] with
    /// one suggestion closure: the BDD (`CertainFix+`), else the shared
    /// pool `shared`, else a fresh [`suggest_with`]. A cache's answers
    /// depend on the order its per-tuple calls arrive in, which round
    /// lockstep would interleave, so with the BDD on or a pool passed
    /// the block must be a lone tuple; plain `CertainFix` takes blocks
    /// of any length, bit-identical to blocks of one (D6). Probes of
    /// `shared` are charged to `stats` (`shared_hits` /
    /// `shared_misses`) whichever path consults it, and the scratch's
    /// probe/allocation counters are drained into `stats` after the
    /// block. The CFD workload runs its own per-tuple algorithm.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn process_block<O, F>(
        &self,
        epoch: &MasterEpoch,
        bdd: &mut SuggestionBdd,
        stats: &mut MonitorStats,
        mut shared: Option<&mut PinnedPool<'_>>,
        scratch: &mut ProbeScratch,
        dirty: &[Tuple],
        base: usize,
        mut oracle_for: F,
    ) -> Vec<FixOutcome>
    where
        O: UserOracle,
        F: FnMut(usize) -> O,
    {
        debug_assert!(
            dirty.len() <= 1 || (!self.use_bdd && shared.is_none()),
            "a consulted suggestion cache runs blocks of one"
        );
        if let Workload::Cfd(cfg) = &self.workload {
            return dirty
                .iter()
                .map(|t| self.process_cfd(epoch, cfg, stats, t))
                .collect();
        }
        let started = Instant::now();
        let master = epoch.master();
        let plan = epoch.plan();
        let engine = CertainFix::new(&self.rules, master, &self.graph, plan, self.config.clone());
        let mut oracles: Vec<O> = (0..dirty.len()).map(|k| oracle_for(base + k)).collect();
        let before = bdd.stats();
        let (mut hits, mut misses) = (0u64, 0u64);
        // the lone tuple's walk down the diagram
        let mut cursor = Cursor::start();
        let outcomes = engine.run_block_scratch(
            dirty,
            epoch.initial_suggestion(),
            &mut oracles,
            |t, validated, sc| {
                if self.use_bdd {
                    bdd.suggest_plus_with(
                        &self.rules,
                        master,
                        t,
                        validated,
                        &mut cursor,
                        shared.as_deref_mut(),
                        Some(plan),
                        sc,
                    )
                } else if let Some(pool) = shared.as_deref_mut() {
                    let (s, hit) = pool.suggest(&self.rules, master, t, validated, Some(plan), sc);
                    if hit {
                        hits += 1;
                    } else {
                        misses += 1;
                    }
                    s
                } else {
                    suggest_with(&self.rules, master, t, validated, plan, sc).map(|s| s.attrs)
                }
            },
            scratch,
        );
        let after = bdd.stats();
        stats.shared_hits += hits + after.shared_hits - before.shared_hits;
        stats.shared_misses += misses + after.shared_misses - before.shared_misses;
        for outcome in &outcomes {
            stats.tuples += 1;
            stats.rounds += outcome.rounds.len() as u64;
            if outcome.certain {
                stats.certain += 1;
            }
        }
        let (probes, allocs, fallbacks) = scratch.take_counters();
        stats.plan_probes += probes;
        stats.probe_allocs += allocs;
        stats.plan_fallbacks += fallbacks;
        stats.elapsed += started.elapsed();
        stats.interner_syms = stats.interner_syms.max(Interner::global().len() as u64);
        outcomes
    }

    /// The CFD workload's per-tuple pipeline: one oracle-free
    /// [`certainfix_cfd::repair_tuple`] run against the pinned epoch's
    /// master, shaped into the engine's common [`FixOutcome`]. The
    /// changed attributes land in `rule_fixed`; `certain` means every
    /// CFD violation was resolved within the pass budget (`validated`
    /// is then the full schema, else the changed set); `rounds` stays
    /// empty — cost-based repair has no interaction rounds.
    fn process_cfd(
        &self,
        epoch: &MasterEpoch,
        cfg: &IncRepConfig,
        stats: &mut MonitorStats,
        dirty: &Tuple,
    ) -> FixOutcome {
        let started = Instant::now();
        let repair = repair_tuple(&self.cfds, dirty, epoch.master(), cfg);
        let mut changed = AttrSet::EMPTY;
        for change in &repair.changes {
            changed.insert(change.attr);
        }
        let certain = repair.unresolved == 0;
        let full = AttrSet::full(self.rules.r_schema().len());
        let outcome = FixOutcome {
            tuple: repair.tuple,
            validated: if certain { full } else { changed },
            rule_fixed: changed,
            user_changed: AttrSet::EMPTY,
            certain,
            certain_at_round: certain.then_some(0),
            rule_backed: certain,
            gave_up: !certain,
            rounds: Vec::new(),
        };
        stats.tuples += 1;
        if certain {
            stats.certain += 1;
        }
        stats.elapsed += started.elapsed();
        stats.interner_syms = stats.interner_syms.max(Interner::global().len() as u64);
        outcome
    }
}

/// How a batch is dealt to (and kept on) the workers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Schedule {
    /// One contiguous shard per worker, no rebalancing: the chunk size
    /// is `⌈n / threads⌉` and the steal pass is skipped. Minimal
    /// coordination, but a skewed batch stalls on the worker dealt the
    /// hard region.
    Shard,
    /// Chunked per-worker queues with lock-free stealing: a worker
    /// that drains its own queue claims chunks from the others', so
    /// skew costs at most one trailing chunk of imbalance.
    #[default]
    Steal,
}

/// Knobs of one [`BatchRepairEngine::repair_opts`] call.
#[derive(Clone, Copy, Debug)]
pub struct RepairOptions {
    /// Worker threads (`0` = one per available core, clamped to the
    /// batch size).
    pub threads: usize,
    /// The scheduling policy.
    pub schedule: Schedule,
    /// Pool computed suggestions in the engine's
    /// [`SharedSuggestionCache`] so a suggestion computed once is
    /// visible to every later batch.
    pub shared_cache: bool,
    /// Chunk granularity for [`Schedule::Steal`] (`0` = auto: about 8
    /// chunks per worker, capped at 512 tuples). Ignored by
    /// [`Schedule::Shard`], which always deals one chunk per worker.
    pub chunk: usize,
}

impl Default for RepairOptions {
    fn default() -> Self {
        RepairOptions {
            threads: 1,
            schedule: Schedule::default(),
            shared_cache: true,
            chunk: 0,
        }
    }
}

/// One worker's accounting for one batch.
#[derive(Clone, Debug)]
pub struct WorkerReport {
    /// Worker index (0-based).
    pub worker: usize,
    /// The input ranges this worker repaired: ascending, disjoint,
    /// adjacent chunks coalesced. Exactly one element under
    /// [`Schedule::Shard`]; possibly several (or none, if every chunk
    /// was stolen first) under [`Schedule::Steal`].
    pub ranges: Vec<Range<usize>>,
    /// The worker's statistics.
    pub stats: MonitorStats,
    /// The worker's local BDD cache statistics.
    pub bdd: BddStats,
}

impl WorkerReport {
    /// Number of tuples this worker repaired.
    pub fn tuples(&self) -> usize {
        self.ranges.iter().map(ExactSizeIterator::len).sum()
    }

    /// The input indexes this worker repaired, ascending.
    pub fn indexes(&self) -> impl Iterator<Item = usize> + '_ {
        self.ranges.iter().flat_map(Clone::clone)
    }
}

/// The merged result of one batch repair.
#[derive(Clone, Debug)]
pub struct BatchReport {
    /// Per-tuple outcomes, in input order.
    pub outcomes: Vec<FixOutcome>,
    /// Merged statistics ([`MonitorStats::merge`] over all workers;
    /// `elapsed` is summed worker time, not wall clock).
    pub stats: MonitorStats,
    /// Merged local BDD cache statistics.
    pub bdd: BddStats,
    /// The engine's [`SharedSuggestionCache`] statistics *attributed to
    /// this batch* (present iff the shared cache was enabled for this
    /// repair): `hits` / `misses` are this batch's own probe counts —
    /// exactly what the batch committed, so summing them over every
    /// batch any session ran reproduces the engine-global counters —
    /// while the other fields snapshot the engine-lifetime pool after
    /// the batch's commit.
    pub shared: Option<SharedCacheStats>,
    /// Wall-clock time of the fan-out that repaired the batch (what
    /// throughput divides by; the batches of one service epoch share
    /// it).
    pub wall: Duration,
    /// The master generation this batch was repaired against — the
    /// epoch pinned at fan-out. Makes delta hand-off observable: a
    /// batch fanned out before [`RepairContext::apply_master_delta`]
    /// carries the old generation, the next one the new.
    pub generation: u64,
    /// Per-worker breakdown, in worker order: every worker of the
    /// fan-out, including any that repaired none of this batch.
    pub workers: Vec<WorkerReport>,
}

impl BatchReport {
    /// Batch throughput in tuples per second (wall clock).
    pub fn throughput(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.outcomes.len() as f64 / secs
        }
    }
}

/// One worker's chunk queue: a half-open range of chunk indexes with
/// an atomic claim cursor. The owner and thieves both claim through
/// [`ChunkQueue::claim`]; `fetch_add` hands each chunk out exactly
/// once, and an overshot cursor simply means the queue is empty.
struct ChunkQueue {
    next: AtomicUsize,
    end: usize,
}

impl ChunkQueue {
    fn new(range: Range<usize>) -> ChunkQueue {
        ChunkQueue {
            next: AtomicUsize::new(range.start),
            end: range.end,
        }
    }

    /// Claim the next chunk, if any. `Relaxed` suffices: claim
    /// uniqueness comes from the atomicity of the read-modify-write,
    /// and the claimed data (the input slice) is immutable, so no
    /// cross-thread ordering is needed.
    fn claim(&self) -> Option<usize> {
        let c = self.next.fetch_add(1, Ordering::Relaxed);
        (c < self.end).then_some(c)
    }
}

/// The parallel batch-repair engine: a [`RepairContext`], the
/// engine-lifetime [`SharedSuggestionCache`], and the scheduling /
/// fan-out / merge machinery.
pub struct BatchRepairEngine {
    ctx: RepairContext,
    shared: SharedSuggestionCache,
}

impl BatchRepairEngine {
    /// Wrap a prepared context, with an empty shared cache.
    pub fn new(ctx: RepairContext) -> BatchRepairEngine {
        BatchRepairEngine {
            ctx,
            shared: SharedSuggestionCache::new(),
        }
    }

    /// Shorthand: build the context and the engine in one step.
    pub fn with_config(
        rules: RuleSet,
        master: Arc<Relation>,
        use_bdd: bool,
        initial_region: InitialRegion,
        config: CertainFixConfig,
    ) -> BatchRepairEngine {
        BatchRepairEngine::new(RepairContext::with_config(
            rules,
            master,
            use_bdd,
            initial_region,
            config,
        ))
    }

    /// The shared context.
    pub fn context(&self) -> &RepairContext {
        &self.ctx
    }

    /// The engine-lifetime shared suggestion cache (consulted by
    /// workers when [`RepairOptions::shared_cache`] is on; it persists
    /// across [`repair_opts`](Self::repair_opts) calls, so later
    /// batches start warm).
    pub fn shared_cache(&self) -> &SharedSuggestionCache {
        &self.shared
    }

    /// Apply a batch of master mutations through the context (see
    /// [`RepairContext::apply_master_delta`]) **and** move the shared
    /// cache to the new generation — the engine-level surface every
    /// delta path (monitor, session, service, network) routes through.
    /// Returns the new generation.
    ///
    /// A suggestion-preserving delta (pure updates that change no
    /// rule's key column) carries the pool across the generation bump;
    /// any other delta leaves an empty pool. The cache step runs inside
    /// the context's delta gate, so concurrent deltas see their epoch
    /// swap *and* pool swap as one step, in generation order.
    pub fn apply_master_delta(&self, delta: &MasterDelta) -> Result<u64, RelationError> {
        self.ctx
            .apply_master_delta_maintaining(delta, |old_master, generation| {
                self.shared
                    .apply_master_delta(self.ctx.rules(), old_master, delta, generation);
            })
    }

    /// This machine's available parallelism (the `--threads 0` / "auto"
    /// resolution used by the bench layer).
    pub fn auto_threads() -> usize {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    }

    /// A borrowed [`RepairSession`](crate::session::RepairSession)
    /// over this engine under the default options; pooled suggestions
    /// persist in the engine after the session ends.
    pub fn session(&self) -> crate::session::RepairSession<'_> {
        self.session_opts(RepairOptions::default())
    }

    /// A borrowed session over this engine under `opts` — the primary
    /// entry point for repairing several batches (or draining a
    /// [`TupleSource`](crate::session::TupleSource)) against one warm
    /// engine.
    pub fn session_opts(&self, opts: RepairOptions) -> crate::session::RepairSession<'_> {
        crate::session::RepairSession::borrowed(self, opts)
    }

    /// Repair `dirty` under `opts` — a thin shim over a one-batch
    /// [`RepairSession`](crate::session::RepairSession).
    ///
    /// `oracle_for(i)` supplies the (simulated or real) user for input
    /// index `i`; it is called from worker threads, so it must be
    /// `Sync` — and for the determinism guarantee it must depend only
    /// on `i`, not on call order.
    pub fn repair_opts<F, O>(
        &self,
        dirty: &[Tuple],
        opts: &RepairOptions,
        oracle_for: F,
    ) -> BatchReport
    where
        F: Fn(usize) -> O + Sync,
        O: UserOracle,
    {
        let mut session = self.session_opts(*opts);
        session.push_batch(dirty, oracle_for);
        session
            .finish()
            .batches
            .pop()
            .expect("exactly one batch was pushed")
    }

    /// The one fan-out every batch runs through. `units` is an epoch:
    /// one `(tuples, oracle_for)` per batch, `oracle_for(i)` supplying
    /// the user for `tuples[i]` — a session batch is a one-unit epoch,
    /// a service epoch holds one batch per participating session.
    ///
    /// Pins the current master epoch (and the shared pool, under
    /// `opts.shared_cache`), cuts every unit into chunks, interleaves
    /// the units' chunks round-robin, deals them contiguously to the
    /// worker queues, repairs, and returns one [`BatchReport`] per unit
    /// in `units` order: outcomes stitched back in the unit's input
    /// order, statistics merged per `(worker, unit)`. A chunk never
    /// mixes units. The pinned epoch is the fan-out's world: a
    /// concurrent [`RepairContext::apply_master_delta`] never perturbs
    /// work already fanned out. The calling thread runs as worker 0.
    pub(crate) fn fan_out<F, O>(
        &self,
        units: &[(&[Tuple], F)],
        opts: &RepairOptions,
    ) -> Vec<BatchReport>
    where
        F: Fn(usize) -> O + Sync,
        O: UserOracle,
    {
        let started = Instant::now();
        let epoch = self.ctx.epoch();
        let threads = match opts.threads {
            0 => Self::auto_threads(),
            t => t,
        }
        .max(1);
        // every unit's chunks in input order — `spans[rank]` is a
        // (unit, tuple range) pair and `owned[u]` the ranks of unit `u`
        let mut spans: Vec<(usize, Range<usize>)> = Vec::new();
        let mut owned: Vec<Range<usize>> = Vec::with_capacity(units.len());
        for (u, (tuples, _)) in units.iter().enumerate() {
            let n = tuples.len();
            let chunk_size = match opts.schedule {
                Schedule::Shard => n.div_ceil(threads),
                Schedule::Steal if opts.chunk > 0 => opts.chunk.min(n),
                Schedule::Steal => (n / (threads * 8)).clamp(1, 512),
            }
            .max(1);
            let first = spans.len();
            spans.extend(
                (0..n)
                    .step_by(chunk_size)
                    .map(|lo| (u, lo..n.min(lo + chunk_size))),
            );
            owned.push(first..spans.len());
        }
        // the deal order interleaves the units' chunks round-robin, so
        // every worker's initial run mixes the units fairly
        let rounds = owned.iter().map(ExactSizeIterator::len).max().unwrap_or(0);
        let deal: Vec<usize> = (0..rounds)
            .flat_map(|k| {
                owned
                    .iter()
                    .filter(move |r| k < r.len())
                    .map(move |r| r.start + k)
            })
            .collect();
        let n_chunks = deal.len();
        let workers = threads.min(n_chunks);
        // deal contiguous runs of chunks to the worker queues, so the
        // initial assignment matches Shard and stealing only kicks in
        // when the dealt load turns out to be uneven
        let per_worker = n_chunks.div_ceil(workers.max(1));
        let queues: Vec<ChunkQueue> = (0..workers)
            .map(|w| {
                ChunkQueue::new((w * per_worker).min(n_chunks)..n_chunks.min((w + 1) * per_worker))
            })
            .collect();

        let ctx = &self.ctx;
        let epoch = &*epoch;
        // the shared pool is pinned next to the epoch: every worker of
        // this fan-out reads the same snapshot, and its own publishes
        // land only at the commit below
        let pinned = opts.shared_cache.then(|| self.shared.pin());
        let pool = pinned.as_deref();
        // a claimed chunk is one block unless a suggestion cache is
        // consulted; then it runs as blocks of one (see the module docs)
        let cached = ctx.uses_bdd() || pool.is_some();
        // the steal pass is one sweep over the victims after the own
        // queue: queues only ever shrink, so a drained one stays drained
        let sweep = if opts.schedule == Schedule::Steal {
            workers
        } else {
            1
        };
        let (spans, deal, queues) = (&spans, &deal, &queues);
        let work = move |w: usize| {
            let mut bdd = SuggestionBdd::new();
            let mut shared = pool.map(PinnedPool::new);
            // one probe scratch per worker: every tuple this thread
            // repairs reuses the same warm buffer
            let mut scratch = ProbeScratch::new();
            let mut stats = vec![MonitorStats::default(); units.len()];
            let mut bdd_stats = vec![BddStats::default(); units.len()];
            // (rank, outcomes, shared-cache publishes) in claim order
            let mut chunks = Vec::new();
            for v in (w..w + sweep).map(|v| v % workers) {
                while let Some(d) = queues[v].claim() {
                    let rank = deal[d];
                    let (u, span) = (spans[rank].0, spans[rank].1.clone());
                    let (tuples, oracle_for) = &units[u];
                    let len = if cached { 1 } else { span.len() };
                    let mut outcomes = Vec::with_capacity(span.len());
                    for lo in span.clone().step_by(len) {
                        outcomes.extend(ctx.process_block(
                            epoch,
                            &mut bdd,
                            &mut stats[u],
                            shared.as_mut(),
                            &mut scratch,
                            &tuples[lo..span.end.min(lo + len)],
                            lo,
                            oracle_for,
                        ));
                    }
                    // the diagram is per worker; its counters are
                    // charged to the unit of the chunk that ticked them
                    bdd_stats[u].merge(&bdd.take_stats());
                    let publishes = shared
                        .as_mut()
                        .map(PinnedPool::take_publishes)
                        .unwrap_or_default();
                    chunks.push((rank, outcomes, publishes));
                }
            }
            (chunks, stats, bdd_stats)
        };
        let outs: Vec<_> = std::thread::scope(|s| {
            let work = &work;
            let helpers: Vec<_> = (1..workers).map(|w| s.spawn(move || work(w))).collect();
            let caller = (workers > 0).then(|| work(0));
            caller
                .into_iter()
                .chain(helpers.into_iter().map(|h| {
                    h.join()
                        .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
                }))
                .collect()
        });

        // stitch: each chunk's outcomes back to its rank, each worker's
        // claimed ranks sorted for its coalesced ranges
        let mut by_rank: Vec<Option<Vec<FixOutcome>>> = Vec::new();
        by_rank.resize_with(n_chunks, || None);
        let mut publishes: Vec<(usize, Vec<Publish>)> = Vec::with_capacity(n_chunks);
        let mut accounts = Vec::with_capacity(workers);
        for (chunks, stats, bdd) in outs {
            let mut ranks = Vec::with_capacity(chunks.len());
            for (rank, outcomes, chunk_publishes) in chunks {
                debug_assert!(by_rank[rank].is_none(), "chunk {rank} claimed twice");
                by_rank[rank] = Some(outcomes);
                publishes.push((rank, chunk_publishes));
                ranks.push(rank);
            }
            ranks.sort_unstable();
            accounts.push((ranks, stats, bdd));
        }
        // the epoch boundary: commit the publishes in input order —
        // units in epoch order, each in its own order — with the probe
        // counts the units are attributed below (the pin goes first, so
        // the commit need not copy the pool)
        drop(pinned);
        let generation = epoch.generation();
        if opts.shared_cache {
            let (hits, misses) = accounts
                .iter()
                .flat_map(|(_, stats, _)| stats)
                .fold((0, 0), |(h, m), s| (h + s.shared_hits, m + s.shared_misses));
            self.shared.commit(generation, hits, misses, publishes);
        }
        let wall = started.elapsed();
        let mut reports = Vec::with_capacity(units.len());
        for (u, (tuples, _)) in units.iter().enumerate() {
            let mut stats = MonitorStats::default();
            let mut bdd = BddStats::default();
            let mut workers = Vec::with_capacity(accounts.len());
            for (w, (ranks, worker_stats, worker_bdd)) in accounts.iter().enumerate() {
                stats.merge(&worker_stats[u]);
                bdd.merge(&worker_bdd[u]);
                let mut ranges: Vec<Range<usize>> = Vec::new();
                for span in ranks
                    .iter()
                    .filter(|r| owned[u].contains(r))
                    .map(|&r| &spans[r].1)
                {
                    match ranges.last_mut() {
                        Some(last) if last.end == span.start => last.end = span.end,
                        _ => ranges.push(span.clone()),
                    }
                }
                workers.push(WorkerReport {
                    worker: w,
                    ranges,
                    stats: worker_stats[u],
                    bdd: worker_bdd[u],
                });
            }
            let mut outcomes = Vec::with_capacity(tuples.len());
            for rank in owned[u].clone() {
                outcomes.extend(
                    by_rank[rank]
                        .take()
                        .expect("every chunk claimed exactly once"),
                );
            }
            let shared = opts.shared_cache.then(|| {
                self.shared
                    .attributed(stats.shared_hits, stats.shared_misses)
            });
            if let Some(s) = &shared {
                // lifecycle counters are engine-global monotone
                // snapshots, so the batch stats carry the sample and
                // merges take the max (see `MonitorStats::merge`)
                stats.shared_evicted_delta = s.evicted_delta;
                stats.shared_evicted_lru = s.evicted_lru;
                stats.shared_revalidated = s.revalidated;
                stats.shared_saturated = s.saturated;
            }
            reports.push(BatchReport {
                outcomes,
                stats,
                bdd,
                shared,
                wall,
                generation,
                workers,
            });
        }
        reports
    }
}

/// Compile-time audit: the types workers share by reference must be
/// `Send + Sync`. A regression here (an `Rc`, a `Cell`, a raw pointer
/// without the right marker) fails the build, not a review.
#[allow(dead_code)]
fn _send_sync_audit() {
    fn check<T: Send + Sync>() {}
    check::<RepairContext>();
    check::<MasterEpoch>();
    check::<Workload>();
    check::<BatchRepairEngine>();
    check::<SharedSuggestionCache>();
    check::<ChunkQueue>();
    check::<crate::service::RepairService>();
    check::<crate::service::ServiceOptions>();
    check::<RuleSet>();
    check::<MasterIndex>();
    check::<RulePlan>();
    check::<DependencyGraph>();
    check::<RegionCatalog>();
    check::<Tuple>();
    check::<FixOutcome>();
    check::<MonitorStats>();
    check::<BddStats>();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{evaluate_rounds, merge_round_series, RoundMetrics, TupleEval};
    use crate::monitor::DataMonitor;
    use crate::oracle::SimulatedUser;
    use certainfix_datagen::{Dataset, Dblp, DirtyConfig, Hosp, WideKey, Workload as GenWorkload};
    use certainfix_relation::Value;

    fn dirty_batch(workload: &dyn GenWorkload, inputs: usize, skew: f64) -> (Dataset, Vec<Tuple>) {
        let cfg = DirtyConfig {
            duplicate_rate: 0.3,
            noise_rate: 0.2,
            input_size: inputs,
            seed: 0xD15EA5E,
            skew,
            ..DirtyConfig::default()
        };
        let ds = Dataset::generate(workload, &cfg);
        let dirty: Vec<Tuple> = ds.inputs.iter().map(|dt| dt.dirty.clone()).collect();
        (ds, dirty)
    }

    fn hosp_batch_skewed(dm: usize, inputs: usize, skew: f64) -> (Hosp, Dataset, Vec<Tuple>) {
        let hosp = Hosp::generate(dm);
        let (ds, dirty) = dirty_batch(&hosp, inputs, skew);
        (hosp, ds, dirty)
    }

    fn hosp_batch(dm: usize, inputs: usize) -> (Hosp, Dataset, Vec<Tuple>) {
        hosp_batch_skewed(dm, inputs, 0.0)
    }

    fn plain_opts(threads: usize, schedule: Schedule) -> RepairOptions {
        RepairOptions {
            threads,
            schedule,
            shared_cache: false,
            chunk: 0,
        }
    }

    fn eval_by_worker(report: &BatchReport, ds: &Dataset, rounds: usize) -> Vec<RoundMetrics> {
        let mut merged: Option<Vec<RoundMetrics>> = None;
        for worker in &report.workers {
            let evals: Vec<TupleEval> = worker
                .indexes()
                .map(|i| TupleEval {
                    outcome: &report.outcomes[i],
                    dirty: &ds.inputs[i].dirty,
                    clean: &ds.inputs[i].clean,
                })
                .collect();
            let m = evaluate_rounds(&evals, rounds);
            match &mut merged {
                None => merged = Some(m),
                Some(acc) => merge_round_series(acc, &m),
            }
        }
        merged.expect("at least one worker")
    }

    fn assert_outcomes_identical(a: &BatchReport, b: &BatchReport, what: &str) {
        assert_eq!(a.outcomes.len(), b.outcomes.len());
        // whole outcomes, every round's trace included
        for (i, (x, y)) in a.outcomes.iter().zip(&b.outcomes).enumerate() {
            assert_eq!(x, y, "tuple {i} ({what})");
        }
    }

    /// The PR 2 determinism guarantee, preserved for shard mode: the
    /// same 10k-tuple dirty HOSP batch repaired with 1, 2, and 8
    /// workers produces identical final tuples and identical merged
    /// `MonitorStats` counts and `RoundMetrics` rows.
    #[test]
    fn sharded_repair_is_deterministic_1_2_8() {
        let (hosp, ds, dirty) = hosp_batch(500, 10_000);
        let engine = BatchRepairEngine::new(RepairContext::new(
            hosp.rules().clone(),
            hosp.master().clone(),
            false,
        ));
        let oracle_for = |i: usize| SimulatedUser::new(ds.inputs[i].clean.clone());

        let sequential = engine.repair_opts(&dirty, &plain_opts(1, Schedule::Shard), oracle_for);
        let seq_metrics = eval_by_worker(&sequential, &ds, 4);
        assert_eq!(sequential.workers.len(), 1);

        for threads in [2usize, 8] {
            let parallel =
                engine.repair_opts(&dirty, &plain_opts(threads, Schedule::Shard), oracle_for);
            assert_eq!(parallel.workers.len(), threads);
            assert_outcomes_identical(&sequential, &parallel, &format!("{threads} shards"));
            // merged deterministic MonitorStats fields
            assert_eq!(sequential.stats.tuples, parallel.stats.tuples);
            assert_eq!(sequential.stats.certain, parallel.stats.certain);
            assert_eq!(sequential.stats.rounds, parallel.stats.rounds);
            // merged per-worker metric rows are bit-identical
            assert_eq!(seq_metrics, eval_by_worker(&parallel, &ds, 4));
        }
    }

    /// The satellite determinism test for the new scheduler: a
    /// *skewed* 10k-tuple batch (hard tuples concentrated at the head
    /// of the stream) repaired in steal mode with 1 worker, with 2 and 8
    /// workers at the auto chunk size and at forced chunks of 1, 16 and
    /// 256 tuples, and in shard mode with 4 workers produces identical
    /// final tuples, identical merged `MonitorStats` counts (logical
    /// plan probes included) and identical `RoundMetrics` rows: work
    /// stealing redistributes the skew without perturbing a single
    /// outcome. A stolen chunk is the probe-block unit, so the chunk
    /// legs sweep the block size from the degenerate single tuple up
    /// (D6). HOSP keys are one or two attributes wide; DBLP adds the
    /// 3- and 5-attribute keys of φ5–φ7, i.e. the wide-group block path.
    #[test]
    fn stealing_repair_is_deterministic_1_2_8_on_skewed_batch() {
        let workloads: [Box<dyn GenWorkload>; 2] =
            [Box::new(Hosp::generate(500)), Box::new(Dblp::generate(500))];
        for w in &workloads {
            let (ds, dirty) = dirty_batch(w.as_ref(), 10_000, 1.0);
            let engine = BatchRepairEngine::new(RepairContext::new(
                w.rules().clone(),
                w.master().clone(),
                false,
            ));
            let oracle_for = |i: usize| SimulatedUser::new(ds.inputs[i].clean.clone());

            let sequential =
                engine.repair_opts(&dirty, &plain_opts(1, Schedule::Steal), oracle_for);
            let seq_metrics = eval_by_worker(&sequential, &ds, 4);
            let shard = engine.repair_opts(&dirty, &plain_opts(4, Schedule::Shard), oracle_for);
            let what = format!("{}: shard vs steal baseline", w.name());
            assert_outcomes_identical(&sequential, &shard, &what);
            assert_eq!(seq_metrics, eval_by_worker(&shard, &ds, 4), "{what}");

            for threads in [2usize, 8] {
                for chunk in [0usize, 1, 16, 256] {
                    let opts = RepairOptions {
                        chunk,
                        ..plain_opts(threads, Schedule::Steal)
                    };
                    let parallel = engine.repair_opts(&dirty, &opts, oracle_for);
                    let what = format!("{}: {threads} stealers, chunk {chunk}", w.name());
                    assert_eq!(parallel.workers.len(), threads, "{what}");
                    assert_outcomes_identical(&sequential, &parallel, &what);
                    let (s, p) = (&sequential.stats, &parallel.stats);
                    assert_eq!(s.tuples, p.tuples, "{what}");
                    assert_eq!(s.certain, p.certain, "{what}");
                    assert_eq!(s.rounds, p.rounds, "{what}");
                    assert_eq!(s.plan_probes, p.plan_probes, "{what}");
                    assert_eq!(seq_metrics, eval_by_worker(&parallel, &ds, 4), "{what}");
                }
            }
        }
    }

    /// With the BDD cache each worker warms its own diagram, so round
    /// traces may differ across worker counts — but the repaired
    /// tuples must still agree with the sequential run, with and
    /// without the shared cache layered behind.
    #[test]
    fn bdd_workers_agree_on_final_tuples() {
        let (hosp, ds, dirty) = hosp_batch(300, 600);
        let engine = BatchRepairEngine::new(RepairContext::new(
            hosp.rules().clone(),
            hosp.master().clone(),
            true,
        ));
        let oracle_for = |i: usize| SimulatedUser::new(ds.inputs[i].clean.clone());
        let sequential = engine.repair_opts(
            &dirty,
            &RepairOptions {
                threads: 1,
                schedule: Schedule::Steal,
                shared_cache: false,
                chunk: 0,
            },
            oracle_for,
        );
        for threads in [2usize, 4] {
            for shared_cache in [false, true] {
                let parallel = engine.repair_opts(
                    &dirty,
                    &RepairOptions {
                        threads,
                        schedule: Schedule::Steal,
                        shared_cache,
                        chunk: 0,
                    },
                    oracle_for,
                );
                for (i, (a, b)) in sequential
                    .outcomes
                    .iter()
                    .zip(&parallel.outcomes)
                    .enumerate()
                {
                    assert_eq!(a.tuple, b.tuple, "tuple {i} with {threads} workers");
                    assert_eq!(a.certain, b.certain, "tuple {i}");
                }
                assert_eq!(sequential.stats.certain, parallel.stats.certain);
            }
        }
    }

    /// The cache-sharing test at the engine level: with the shared
    /// cache on, a batch never reads its own publishes, its commit
    /// fills the engine's pool, and every worker of a later batch is
    /// served from it — hits land in the merged, per-worker monitor
    /// statistics and sum to the engine-global counters.
    #[test]
    fn shared_cache_is_populated_and_hit_across_workers() {
        let (hosp, ds, dirty) = hosp_batch(200, 800);
        let engine = BatchRepairEngine::new(RepairContext::new(
            hosp.rules().clone(),
            hosp.master().clone(),
            true,
        ));
        let oracle_for = |i: usize| SimulatedUser::new(ds.inputs[i].clean.clone());
        // warm pass: a single worker computes suggestions, and the batch
        // boundary commits them into the engine-lifetime pool (this also
        // pins down the cross-batch persistence — the pool outlives the
        // repair call)
        let warm = engine.repair_opts(
            &dirty,
            &RepairOptions {
                threads: 1,
                schedule: Schedule::Steal,
                shared_cache: true,
                chunk: 0,
            },
            oracle_for,
        );
        assert!(!engine.shared_cache().is_empty(), "suggestions were pooled");
        assert!(warm.stats.shared_misses > 0, "the cold pass computed them");
        assert_eq!(
            warm.stats.shared_hits, 0,
            "a batch never reads its own publishes"
        );

        // parallel pass on fresh (cold-diagram) workers: every worker's
        // early local misses probe the pinned warm pool, so pooled
        // suggestions are observed across workers
        let report = engine.repair_opts(
            &dirty,
            &RepairOptions {
                threads: 4,
                schedule: Schedule::Shard,
                shared_cache: true,
                chunk: 0,
            },
            oracle_for,
        );
        let shared = report.shared.as_ref().expect("shared stats snapshot");
        // `BatchReport::shared` is attributed per batch: each report
        // carries its own workers' probe counts, not the engine-global
        // cumulative ones
        let warm_shared = warm.shared.as_ref().expect("shared stats snapshot");
        assert_eq!(warm_shared.hits, warm.stats.shared_hits);
        assert_eq!(warm_shared.misses, warm.stats.shared_misses);
        assert_eq!(shared.hits, report.stats.shared_hits);
        assert_eq!(shared.misses, report.stats.shared_misses);
        // ... and summing the attributed counters over every batch the
        // engine ran reproduces the engine-global cache-side counters
        // exactly (the satellite identity)
        let global = engine.shared_cache().stats();
        assert_eq!(
            global.hits + global.misses,
            warm_shared.hits + warm_shared.misses + shared.hits + shared.misses,
            "attributed batch counters sum to the engine-global ones"
        );
        assert_eq!(global.hits, warm_shared.hits + shared.hits);
        assert_eq!(global.misses, warm_shared.misses + shared.misses);
        assert!(
            report.stats.shared_hits > 0,
            "pooled suggestions were served across workers: {shared:?}"
        );
        // worker-side counters merge through MonitorStats::merge
        let mut remerged = MonitorStats::default();
        for w in &report.workers {
            remerged.merge(&w.stats);
        }
        assert_eq!(remerged.shared_hits, report.stats.shared_hits);
        assert_eq!(remerged.shared_misses, report.stats.shared_misses);
    }

    /// D12 at the engine level: with the BDD off and the shared cache
    /// on, a skewed two-batch stream repairs bit-identically — whole
    /// outcomes, round traces included, and the per-batch cache stats —
    /// at 1, 2 and 8 workers and at forced chunks of 1, 16 and 256
    /// tuples against the auto chunk, each run on a fresh engine. The
    /// pool serves a key's first passing candidate in commit order, so
    /// running a pool-on chunk in round lockstep instead of as blocks of
    /// one would reorder its publishes. The DBLP stream's users answer
    /// half of each suggestion, so tuples of one chunk publish under the
    /// same key in different rounds and that reordering shows.
    #[test]
    fn shared_cache_runs_are_worker_count_independent() {
        let streams: [(Box<dyn GenWorkload>, f64); 2] = [
            (Box::new(Hosp::generate(300)), 1.0),
            (Box::new(Dblp::generate(300)), 0.5),
        ];
        for (w, compliance) in &streams {
            let (ds, dirty) = dirty_batch(w.as_ref(), 2_000, 1.0);
            let oracle_for = |i: usize| {
                SimulatedUser::with_compliance(ds.inputs[i].clean.clone(), *compliance, i as u64)
            };
            let run = |threads: usize, chunk: usize| {
                let engine = BatchRepairEngine::new(RepairContext::new(
                    w.rules().clone(),
                    w.master().clone(),
                    false,
                ));
                let mut session = engine.session_opts(RepairOptions {
                    threads,
                    chunk,
                    ..RepairOptions::default()
                });
                for half in dirty.chunks(1_000) {
                    session.push_batch(half, oracle_for);
                }
                session.finish()
            };
            let base = run(1, 0);
            assert!(base.stats.shared_hits > 0, "the second batch was served");
            for threads in [1usize, 2, 8] {
                for chunk in [0usize, 1, 16, 256] {
                    if (threads, chunk) == (1, 0) {
                        continue;
                    }
                    let got = run(threads, chunk);
                    let what = format!("{}: {threads} workers, chunk {chunk}", w.name());
                    for (a, b) in base.batches.iter().zip(&got.batches) {
                        assert_outcomes_identical(a, b, &what);
                        assert_eq!(a.shared, b.shared, "{what}");
                    }
                }
            }
        }
    }

    /// With the BDD on, one worker drains its chunks in input order
    /// through one diagram, so the chunk size must not move anything:
    /// forced chunks of 1, 16 and 256 tuples give the auto chunk's
    /// outcomes — every round's suggestion included — and its
    /// `BddStats`, with the shared cache off and on. Running BDD tuples
    /// in round lockstep would reorder the diagram's queries and fail
    /// it.
    #[test]
    fn bdd_runs_are_chunk_size_independent_on_one_worker() {
        let (hosp, ds, dirty) = hosp_batch_skewed(300, 2_000, 1.0);
        let oracle_for = |i: usize| SimulatedUser::new(ds.inputs[i].clean.clone());
        let run = |shared_cache: bool, chunk: usize| {
            let engine = BatchRepairEngine::new(RepairContext::new(
                hosp.rules().clone(),
                hosp.master().clone(),
                true,
            ));
            let mut session = engine.session_opts(RepairOptions {
                threads: 1,
                shared_cache,
                chunk,
                ..RepairOptions::default()
            });
            for half in dirty.chunks(1_000) {
                session.push_batch(half, oracle_for);
            }
            session.finish()
        };
        for shared_cache in [false, true] {
            let base = run(shared_cache, 0);
            assert!(base.bdd.hits > 0, "the diagram served suggestions");
            for chunk in [1usize, 16, 256] {
                let got = run(shared_cache, chunk);
                let what = format!("shared cache {shared_cache}, chunk {chunk}");
                for (a, b) in base.batches.iter().zip(&got.batches) {
                    assert_outcomes_identical(a, b, &what);
                    assert_eq!(a.bdd, b.bdd, "{what}");
                    assert_eq!(a.shared, b.shared, "{what}");
                }
            }
        }
    }

    /// The tentpole's determinism contract (D10) at the engine level:
    /// an engine whose epoch was maintained through `MasterDelta`s
    /// (delete-free deltas maintaining the built indexes) produces
    /// bit-identical outcomes and merged deterministic stats —
    /// including `plan_probes` — to an engine rebuilt from scratch
    /// over the same master rows, on a skewed batch, across worker
    /// counts. The delta-maintained plan still probes through the
    /// compiled layer with bounded steady-state allocations.
    #[test]
    fn delta_maintained_epoch_matches_fresh_rebuild() {
        let (hosp, ds, dirty) = hosp_batch_skewed(300, 2_000, 1.0);
        let full = hosp.master().clone();
        let n = full.len();
        // Seed master: the last 20 rows missing, and row 0 corrupted.
        let mut seed_rows: Vec<Tuple> = full.tuples()[..n - 20].to_vec();
        let a0 = hosp.rules().m_schema().attr_ids().next().expect("attrs");
        let mut stale = seed_rows[0].clone();
        stale.set(a0, Value::str("STALE-MASTER-ROW"));
        seed_rows[0] = stale;
        let seed = Arc::new(Relation::new(full.schema().clone(), seed_rows).expect("seed master"));

        let maintained =
            BatchRepairEngine::new(RepairContext::new(hosp.rules().clone(), seed, false));
        let before_gen = maintained.context().generation();
        // One delta batch: repair row 0 and append the missing rows.
        let mut delta = MasterDelta::new().update(0, full.tuple(0).clone());
        for t in &full.tuples()[n - 20..] {
            delta = delta.insert(t.clone());
        }
        let gen = maintained
            .context()
            .apply_master_delta(&delta)
            .expect("delta applies");
        assert!(gen > before_gen, "delta advanced the generation");
        assert_eq!(maintained.context().generation(), gen);
        assert_eq!(maintained.context().plan_rebuilds(), 1);

        let fresh = BatchRepairEngine::new(RepairContext::new(
            hosp.rules().clone(),
            full.clone(),
            false,
        ));
        let oracle_for = |i: usize| SimulatedUser::new(ds.inputs[i].clean.clone());
        let baseline = fresh.repair_opts(&dirty, &plain_opts(1, Schedule::Steal), oracle_for);
        for threads in [1usize, 2, 4] {
            let got =
                maintained.repair_opts(&dirty, &plain_opts(threads, Schedule::Steal), oracle_for);
            assert_outcomes_identical(&baseline, &got, &format!("delta epoch, {threads} workers"));
            assert_eq!(baseline.stats.tuples, got.stats.tuples);
            assert_eq!(baseline.stats.certain, got.stats.certain);
            assert_eq!(baseline.stats.rounds, got.stats.rounds);
            // the logical probe count is part of the D10 contract
            assert_eq!(baseline.stats.plan_probes, got.stats.plan_probes);
            assert!(
                got.stats.plan_probes > 0,
                "the compiled layer served the probes"
            );
            // each worker warms one scratch buffer (probe key plus the
            // block-probe buffers); after that the steady-state lookup
            // path allocates nothing, so allocations stay bounded by a
            // small per-worker constant regardless of batch size
            assert!(
                got.stats.probe_allocs <= (threads * 16) as u64,
                "probe allocations bounded by worker count: {} > 16*{threads}",
                got.stats.probe_allocs
            );
            assert_eq!(got.generation, gen, "batch pinned the delta'd epoch");
        }
        assert_eq!(baseline.generation, fresh.context().generation());
    }

    /// Delete deltas force the lazy index rebuild path; the rebuilt
    /// epoch must still match an engine constructed directly over the
    /// surviving rows.
    #[test]
    fn delete_delta_matches_fresh_rebuild() {
        let (hosp, ds, dirty) = hosp_batch(200, 500);
        let full = hosp.master().clone();
        let engine = BatchRepairEngine::new(RepairContext::new(
            hosp.rules().clone(),
            full.clone(),
            false,
        ));
        // drop the last two master rows through a delta ...
        let n = full.len() as u32;
        let delta = MasterDelta::new().delete(n - 1).delete(n - 2);
        assert!(delta.has_deletes());
        let gen = engine
            .context()
            .apply_master_delta(&delta)
            .expect("delta applies");
        assert_eq!(engine.context().generation(), gen);
        // ... and rebuild the same master from scratch
        let survivors: Vec<Tuple> = full.tuples()[..full.len() - 2].to_vec();
        let truncated =
            Arc::new(Relation::new(full.schema().clone(), survivors).expect("truncated master"));
        let fresh =
            BatchRepairEngine::new(RepairContext::new(hosp.rules().clone(), truncated, false));
        let oracle_for = |i: usize| SimulatedUser::new(ds.inputs[i].clean.clone());
        let want = fresh.repair_opts(&dirty, &plain_opts(2, Schedule::Steal), oracle_for);
        let got = engine.repair_opts(&dirty, &plain_opts(2, Schedule::Steal), oracle_for);
        assert_outcomes_identical(&want, &got, "delete delta");
        assert_eq!(want.stats.plan_probes, got.stats.plan_probes);
    }

    /// The CFD workload fans out through the same engine: outcomes are
    /// deterministic across worker counts and flow through the common
    /// report plumbing (oracle-free, zero interaction rounds).
    #[test]
    fn cfd_workload_is_deterministic_across_workers() {
        let (hosp, ds, dirty) = hosp_batch(300, 1_000);
        let engine = BatchRepairEngine::new(RepairContext::with_workload(
            hosp.rules().clone(),
            hosp.master().clone(),
            false,
            InitialRegion::Best,
            CertainFixConfig::default(),
            Workload::Cfd(IncRepConfig::default()),
        ));
        assert!(matches!(engine.context().workload(), Workload::Cfd(_)));
        let oracle_for = |i: usize| SimulatedUser::new(ds.inputs[i].clean.clone());
        let sequential = engine.repair_opts(&dirty, &plain_opts(1, Schedule::Steal), oracle_for);
        assert_eq!(sequential.stats.tuples, 1_000);
        assert_eq!(
            sequential.stats.rounds, 0,
            "cost-based repair has no rounds"
        );
        for threads in [2usize, 4] {
            let parallel =
                engine.repair_opts(&dirty, &plain_opts(threads, Schedule::Steal), oracle_for);
            assert_outcomes_identical(&sequential, &parallel, &format!("cfd, {threads} workers"));
            assert_eq!(sequential.stats.certain, parallel.stats.certain);
        }
    }

    /// The wide-key fallback counter flows through the engine: the
    /// WIDEKEY workload keys seven attributes — past the plan's
    /// preallocated sub-slot cap — so partially-validated probes go
    /// through the shared master cache and tick `plan_fallbacks`. The
    /// count is a deterministic property of the repair (it rides the
    /// per-tuple suggest sequence, which block probing preserves), so
    /// it must merge to the same total at every worker count.
    #[test]
    fn wide_key_fallbacks_are_counted_and_deterministic() {
        let wk = WideKey::generate(200);
        let cfg = DirtyConfig {
            duplicate_rate: 0.6,
            noise_rate: 0.25,
            input_size: 400,
            seed: 0xC0FFEE,
            ..Default::default()
        };
        let ds = Dataset::generate(&wk, &cfg);
        let dirty: Vec<Tuple> = ds.inputs.iter().map(|dt| dt.dirty.clone()).collect();
        let engine = BatchRepairEngine::new(RepairContext::with_config(
            wk.rules().clone(),
            wk.master().clone(),
            false,
            InitialRegion::Best,
            CertainFixConfig::default(),
        ));
        let oracle_for = |i: usize| SimulatedUser::new(ds.inputs[i].clean.clone());
        let base = engine.repair_opts(&dirty, &plain_opts(1, Schedule::Steal), oracle_for);
        assert!(
            base.stats.plan_fallbacks > 0,
            "7-attribute keys exercised the wide-key fallback"
        );
        for threads in [2usize, 4] {
            let par = engine.repair_opts(&dirty, &plain_opts(threads, Schedule::Steal), oracle_for);
            assert_outcomes_identical(&base, &par, &format!("widekey, {threads} workers"));
            assert_eq!(
                base.stats.plan_fallbacks, par.stats.plan_fallbacks,
                "fallback count independent of worker count"
            );
            // per-worker counters reach the batch total through
            // MonitorStats::merge, not through a side channel
            let merged: u64 = par.workers.iter().map(|w| w.stats.plan_fallbacks).sum();
            assert_eq!(merged, par.stats.plan_fallbacks);
        }
    }

    #[test]
    fn engine_matches_the_sequential_monitor() {
        let (hosp, ds, dirty) = hosp_batch(300, 200);
        let engine = BatchRepairEngine::new(RepairContext::new(
            hosp.rules().clone(),
            hosp.master().clone(),
            true,
        ));
        let report = engine.repair_opts(
            &dirty,
            &RepairOptions {
                threads: 4,
                ..RepairOptions::default()
            },
            |i| SimulatedUser::new(ds.inputs[i].clean.clone()),
        );
        let mut monitor = DataMonitor::new(hosp.rules().clone(), hosp.master().clone(), true);
        for (i, dt) in ds.inputs.iter().enumerate() {
            let mut user = SimulatedUser::new(dt.clean.clone());
            let out = monitor.process(&dt.dirty, &mut user);
            assert_eq!(out.tuple, report.outcomes[i].tuple, "tuple {i}");
            assert_eq!(out.certain, report.outcomes[i].certain, "tuple {i}");
        }
        assert_eq!(monitor.stats().certain, report.stats.certain);
        assert_eq!(monitor.stats().tuples, report.stats.tuples);
    }

    #[test]
    fn shard_ranges_partition_the_input_in_order() {
        let (hosp, ds, dirty) = hosp_batch(100, 103);
        let engine = BatchRepairEngine::new(RepairContext::new(
            hosp.rules().clone(),
            hosp.master().clone(),
            false,
        ));
        let report = engine.repair_opts(&dirty, &plain_opts(4, Schedule::Shard), |i| {
            SimulatedUser::new(ds.inputs[i].clean.clone())
        });
        assert_eq!(report.outcomes.len(), 103);
        let mut next = 0usize;
        for (k, worker) in report.workers.iter().enumerate() {
            assert_eq!(worker.worker, k);
            assert_eq!(worker.ranges.len(), 1, "one contiguous shard per worker");
            assert_eq!(worker.ranges[0].start, next);
            assert!(!worker.ranges[0].is_empty());
            next = worker.ranges[0].end;
        }
        assert_eq!(next, 103);
        // watermark was captured (the interner is never empty here)
        assert!(report.stats.interner_syms > 0);
        assert!(report.throughput() > 0.0);
    }

    #[test]
    fn stolen_ranges_partition_the_input() {
        let (hosp, ds, dirty) = hosp_batch(100, 509);
        let engine = BatchRepairEngine::new(RepairContext::new(
            hosp.rules().clone(),
            hosp.master().clone(),
            false,
        ));
        let report = engine.repair_opts(
            &dirty,
            &RepairOptions {
                threads: 4,
                schedule: Schedule::Steal,
                shared_cache: false,
                chunk: 16,
            },
            |i| SimulatedUser::new(ds.inputs[i].clean.clone()),
        );
        assert_eq!(report.outcomes.len(), 509);
        // every index covered exactly once across all workers
        let mut seen = vec![false; 509];
        for worker in &report.workers {
            // ranges ascending and coalesced
            for pair in worker.ranges.windows(2) {
                assert!(pair[0].end < pair[1].start, "ascending, non-adjacent");
            }
            for i in worker.indexes() {
                assert!(!seen[i], "index {i} repaired twice");
                seen[i] = true;
            }
            assert_eq!(worker.tuples() as u64, worker.stats.tuples);
        }
        assert!(seen.iter().all(|&s| s), "every index repaired");
        // per-worker stats merge back to the batch totals
        let total: u64 = report.workers.iter().map(|w| w.stats.tuples).sum();
        assert_eq!(total, 509);
    }

    #[test]
    fn more_threads_than_tuples_is_clamped() {
        let (hosp, ds, dirty) = hosp_batch(50, 3);
        let engine = BatchRepairEngine::new(RepairContext::new(
            hosp.rules().clone(),
            hosp.master().clone(),
            false,
        ));
        let report = engine.repair_opts(
            &dirty,
            &RepairOptions {
                threads: 64,
                ..RepairOptions::default()
            },
            |i| SimulatedUser::new(ds.inputs[i].clean.clone()),
        );
        assert_eq!(report.outcomes.len(), 3);
        assert!(report.workers.len() <= 3);
        assert_eq!(report.stats.tuples, 3);
    }

    #[test]
    fn zero_threads_resolves_to_auto() {
        let (hosp, ds, dirty) = hosp_batch(50, 20);
        let engine = BatchRepairEngine::new(RepairContext::new(
            hosp.rules().clone(),
            hosp.master().clone(),
            false,
        ));
        let report = engine.repair_opts(
            &dirty,
            &RepairOptions {
                threads: 0,
                ..RepairOptions::default()
            },
            |i| SimulatedUser::new(ds.inputs[i].clean.clone()),
        );
        assert_eq!(report.outcomes.len(), 20);
        assert!(!report.workers.is_empty());
        assert!(report.workers.len() <= BatchRepairEngine::auto_threads().clamp(1, 20));
        assert_eq!(RepairOptions::default().schedule, Schedule::Steal);
    }

    #[test]
    fn empty_batch_is_fine() {
        let hosp = Hosp::generate(20);
        let engine = BatchRepairEngine::new(RepairContext::new(
            hosp.rules().clone(),
            hosp.master().clone(),
            false,
        ));
        let report = engine.repair_opts(
            &[],
            &RepairOptions {
                threads: 8,
                ..RepairOptions::default()
            },
            |_| SimulatedUser::new(hosp.master().tuple(0).clone()),
        );
        assert!(report.outcomes.is_empty());
        assert!(report.workers.is_empty());
        assert_eq!(report.stats.tuples, 0);
        assert_eq!(report.throughput(), 0.0);
        assert_eq!(report.generation, engine.context().generation());
    }
}
