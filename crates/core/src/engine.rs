//! The parallel batch-repair engine: one work-stealing fan-out over a
//! shared repair context with epoch-stamped live master data.
//!
//! The paper's repair model is embarrassingly parallel across tuples:
//! [`CertainFix`] and [`transfix`](crate::transfix::transfix) read a
//! shared immutable `(Σ, Dm)` precomputation and mutate only the tuple
//! they are repairing. The context's one fan-out exploits that: it
//! serves every batch. Its input is an *epoch* of units —
//! one batch plus its oracle factory each: a session batch is a
//! one-unit epoch, a [`service`](crate::service) epoch holds one batch
//! per participating session. Every unit is cut into fixed-size
//! *chunks* of consecutive tuples, the units' chunks are interleaved
//! round-robin and dealt to per-worker queues, and the workers drain
//! them — their own queue first, then anything left in other workers'
//! queues. The chunk size is a function of the unit's length (or the
//! caller's pinned [`RepairOptions::chunk`]), never of the worker
//! count. Claiming is lock-free: each
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
//! The `(Dm, plan)` precomputation is no longer a field of the context
//! but a [`MasterEpoch`] — one immutable snapshot of the master at a
//! given [`generation`](RepairContext::generation), bundling the indexed
//! master and the compiled [`RulePlan`], both built against the *same*
//! master rows, with the context's initial suggestion.
//! [`RepairContext::apply_master_delta`] builds the next epoch from a
//! [`MasterDelta`] (batch inserts / updates / deletes) and swaps it in
//! atomically:
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
//! # Suggestion diagrams and probe blocks
//!
//! Every tuple runs the paper's interactive editing-rule repair. Under
//! `CertainFix+` every claimed chunk gets a fresh [`SuggestionBdd`], so
//! what a diagram can serve is fixed by the chunk's own tuples; each
//! worker keeps one [`MonitorStats`] accumulator per unit. The diagram
//! is the only suggestion cache: its misses are computed fresh from the
//! applicable rules its round's checks derived, and with the BDD off
//! every suggestion is computed fresh with [`suggest_with`].
//! Nothing a batch computes outlives its chunk.
//!
//! A claimed chunk of plain `CertainFix` (BDD off) is one *block*: the
//! Fig. 3 loop runs its tuples in round lockstep, so each round's
//! `TransFix` probes are prefetched across the block
//! ([`transfix_block`](crate::transfix::transfix_block)). Under
//! `CertainFix+` the chunk runs tuple by tuple, each a block of one:
//! the diagram's contents follow the order of the per-tuple suggestion
//! calls, which lockstep would interleave.
//!
//! Multi-batch (and streaming) ingest lives one layer up, in
//! [`session`](crate::session): a [`RepairSession`](crate::RepairSession)
//! drains any stream of batches through this fan-out, one one-unit
//! epoch per batch. The [`service`](crate::service)
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
//! `CertainFix` (`use_bdd = false`) the repaired
//! tuples, the merged count fields of [`MonitorStats`], and
//! any [`RoundMetrics`](crate::RoundMetrics) evaluated per worker and
//! [`merged`](crate::metrics::merge_round_series) are **bit-identical
//! to a one-worker run regardless of schedule, worker count, chunk
//! size, or interleaving**. An epoch a delta made is bit-identical
//! to an engine rebuilt from scratch over the same master rows (D10 in
//! DETERMINISM.md). `CertainFix+` keeps that guarantee across worker
//! counts and schedules: a chunk's diagram sees only that chunk's
//! tuples, so outcomes and [`BddStats`] are fixed by the batch and the
//! chunk size (D12).
//! The wall-clock observables ([`MonitorStats::elapsed`], the interner
//! watermark) are exempt from the guarantee by nature.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

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

/// One immutable snapshot of the master data and everything compiled
/// from it: the compiled [`RulePlan`], which holds the indexed master
/// generation it was compiled against, plus the initial
/// suggestion — derived once per context, since the region catalog
/// reads `Σ` alone, so every epoch deploys one region. Workers
/// pin an epoch (one `Arc` clone) for the duration of a batch; a
/// [`MasterDelta`] produces the *next* epoch without touching this
/// one, so in-flight repairs are never invalidated mid-batch.
pub struct MasterEpoch {
    plan: RulePlan,
    initial: Vec<AttrId>,
}

impl MasterEpoch {
    /// Compile an epoch over `master`, building its cold indexes: the
    /// rules' keys and the sub-keys a first round over `initial` probes
    /// ([`RulePlan::compile_for_region`]).
    fn build(rules: &RuleSet, master: &MasterIndex, initial: Vec<AttrId>) -> MasterEpoch {
        MasterEpoch {
            plan: RulePlan::compile_for_region(rules, master, &initial),
            initial,
        }
    }

    /// The indexed master data of this epoch (the plan's).
    pub fn master(&self) -> &MasterIndex {
        self.plan.master()
    }

    /// The compiled rule plan (always probed by repairs; compiled
    /// against this epoch's master generation).
    pub fn plan(&self) -> &RulePlan {
        &self.plan
    }

    /// The initial suggestion (the seeded region's `Z`).
    pub fn initial_suggestion(&self) -> &[AttrId] {
        &self.initial
    }
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
    epoch: RwLock<Arc<MasterEpoch>>,
    /// Serializes concurrent deltas so none is lost; the epoch write
    /// lock above is held only for the pointer swap.
    delta_gate: Mutex<()>,
    rebuilds: AtomicU64,
}

impl RepairContext {
    /// Build a context over `(Σ, Dm)`. `use_bdd` selects `CertainFix+`
    /// (a BDD suggestion cache per chunk) over plain `CertainFix`.
    pub fn new(rules: RuleSet, master: Arc<Relation>, use_bdd: bool) -> RepairContext {
        Self::with_config(
            rules,
            master,
            use_bdd,
            InitialRegion::Best,
            CertainFixConfig::default(),
        )
    }

    /// Full-control constructor: the initial region, ranked here once
    /// from the region catalog, and the `CertainFix` configuration;
    /// repairs run through the epoch's compiled rule plan.
    pub fn with_config(
        rules: RuleSet,
        master: Arc<Relation>,
        use_bdd: bool,
        initial_region: InitialRegion,
        config: CertainFixConfig,
    ) -> RepairContext {
        let master = MasterIndex::new(master);
        let graph = DependencyGraph::new(&rules);
        let catalog = RegionCatalog::build(&rules, &master);
        let initial = match initial_region {
            InitialRegion::Best => catalog.best(),
            InitialRegion::Median => catalog.median(),
        }
        .map_or_else(|| rules.r_schema().attr_ids().collect(), |r| r.z().to_vec());
        let epoch = Arc::new(MasterEpoch::build(&rules, &master, initial));
        RepairContext {
            rules: Arc::new(rules),
            graph,
            config,
            use_bdd,
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
        self.epoch().plan.generation()
    }

    /// How many epochs were rebuilt by deltas since construction.
    pub fn plan_rebuilds(&self) -> u64 {
        self.rebuilds.load(Ordering::Relaxed)
    }

    /// Apply a batch of master mutations: build the next
    /// [`MasterEpoch`] (the delta's rows, the plan compiled over them)
    /// and swap it in atomically. Returns the new generation. The
    /// initial suggestion is handed on: the region catalog reads `Σ` alone.
    ///
    /// In-flight batches keep their pinned epoch and finish undisturbed;
    /// batches fanned out after this call repair against the new
    /// generation. Concurrent deltas serialize (none is lost); the
    /// epoch write lock is held only for the pointer swap, so pinning
    /// stalls at most microseconds.
    pub fn apply_master_delta(&self, delta: &MasterDelta) -> Result<u64, RelationError> {
        let _gate = self.delta_gate.lock().expect("delta gate poisoned");
        let current = self.epoch();
        let next_master = current.master().apply_delta(delta)?;
        let next = Arc::new(MasterEpoch::build(
            &self.rules,
            &next_master,
            current.initial.clone(),
        ));
        let generation = next.plan.generation();
        *self.epoch.write().expect("epoch lock poisoned") = next;
        self.rebuilds.fetch_add(1, Ordering::Relaxed);
        Ok(generation)
    }

    /// The one repair entry: repair the block `dirty` against a
    /// caller-pinned epoch, charging the chunk's BDD cache and the
    /// caller's statistics accumulator; `oracle_for(base + k)` supplies
    /// the user for `dirty[k]`. Every worker of every fan-out produces
    /// outcomes through this one code path.
    ///
    /// Editing-rule repairs run [`CertainFix::run_block_scratch`].
    /// Under `CertainFix+` the diagram `bdd` answers every suggestion,
    /// computing its misses fresh; with the BDD off a fresh
    /// [`suggest_with`] answers every suggestion. The diagram's answers
    /// depend on the order its per-tuple calls arrive in, which round
    /// lockstep would interleave, so with the BDD on the block must be
    /// a lone tuple; plain `CertainFix` takes blocks of any length,
    /// bit-identical to blocks of one (D6). The scratch's
    /// probe/allocation counters are drained into `stats` after the
    /// block.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn process_block<O, F>(
        &self,
        epoch: &MasterEpoch,
        bdd: &mut SuggestionBdd,
        stats: &mut MonitorStats,
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
            dirty.len() <= 1 || !self.use_bdd,
            "a consulted diagram runs blocks of one"
        );
        let started = Instant::now();
        let master = epoch.master();
        let plan = epoch.plan();
        let engine = CertainFix::new(&self.rules, master, &self.graph, plan, self.config.clone());
        let mut oracles: Vec<O> = (0..dirty.len()).map(|k| oracle_for(base + k)).collect();
        let fresh = |t: &Tuple, validated: AttrSet, sc: &mut ProbeScratch| {
            suggest_with(&self.rules, master, t, validated, plan, sc).map(|s| s.attrs)
        };
        // the lone tuple's walk down the diagram
        let mut cursor = Cursor::start();
        let outcomes = engine.run_block_scratch(
            dirty,
            epoch.initial_suggestion(),
            &mut oracles,
            |t, validated, sc| {
                if self.use_bdd {
                    bdd.suggest_plus_with(&self.rules, master, plan, t, validated, &mut cursor, sc)
                } else {
                    fresh(t, validated, sc)
                }
            },
            scratch,
        );
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
}

/// How a batch is dealt to (and kept on) the workers. Stealing is the
/// only policy; the type stays because the `benchmark/` package names
/// it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Schedule {
    /// Chunked per-worker queues with lock-free stealing: a worker
    /// that drains its own queue claims chunks from the others', so
    /// skew costs at most one trailing chunk of imbalance.
    #[default]
    Steal,
}

/// The statistics shape of the retired engine-lifetime suggestion
/// pool. No report carries one any more (every `shared` field is
/// `None`); the type stays, like [`Schedule`], because the
/// `benchmark/` package names it.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SharedCacheStats {
    /// Probes served from the pool.
    pub hits: u64,
    /// Probes that fell through to a fresh computation.
    pub misses: u64,
    /// Candidates dropped because a master delta emptied the pool.
    pub evicted_delta: u64,
    /// Candidates evicted at the key cap.
    pub evicted_lru: u64,
    /// Candidates carried across a master delta.
    pub revalidated: u64,
    /// Publishes that met a full key or a full pool.
    pub saturated: u64,
    /// High-water mark of pooled candidates.
    pub entries_high_water: u64,
}

/// Knobs of one [`RepairContext::repair_opts`] call.
#[derive(Clone, Copy, Debug)]
pub struct RepairOptions {
    /// Worker threads (`0` = one per available core, clamped to the
    /// batch size).
    pub threads: usize,
    /// The scheduling policy; it has one value, and stays only because
    /// the `benchmark/` package names it.
    pub schedule: Schedule,
    /// A no-op: the engine-lifetime suggestion pool it switched is
    /// gone, and `CertainFix+`'s one cache is the per-chunk diagram.
    /// The field stays, like [`schedule`](Self::schedule), because the
    /// `benchmark/` package names it.
    pub shared_cache: bool,
    /// Tuples per chunk (`0` = auto: `n / 16` for an `n`-tuple batch,
    /// clamped to 1..=512; a pinned value is capped at `n`). A
    /// chunk is the unit workers claim, and it is cut from the batch
    /// alone, never from the worker count. For plain `CertainFix` it is
    /// also the probe block and a pure performance knob (D6); under
    /// `CertainFix+` it is the lifetime of one suggestion diagram, so
    /// with the BDD on the chunk size is part of the run's input — pin
    /// it to the stream length to repair a whole stream through one
    /// diagram, as the paper's sequential monitor does.
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
    /// adjacent chunks coalesced — possibly several, or none if every
    /// chunk was stolen first.
    pub ranges: Vec<Range<usize>>,
    /// The worker's statistics.
    pub stats: MonitorStats,
    /// The BDD statistics of the chunks this worker repaired, summed.
    pub bdd: BddStats,
}

impl WorkerReport {
    /// Number of tuples this worker repaired.
    pub fn tuples(&self) -> usize {
        self.ranges.iter().map(ExactSizeIterator::len).sum()
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
    /// BDD statistics summed over the batch's chunks.
    pub bdd: BddStats,
    /// Always `None`: there is no engine-lifetime pool to report on
    /// (see [`SharedCacheStats`]).
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

/// A [`RepairContext`] as [`RepairSession::from_engine`],
/// [`RepairSession::borrowed`] and [`RepairService::from_engine`] take
/// it. The fan-out is the context's; the shell stays, like
/// [`Schedule`], because the `benchmark/` package names it.
///
/// [`RepairSession::from_engine`]: crate::RepairSession::from_engine
/// [`RepairSession::borrowed`]: crate::RepairSession::borrowed
/// [`RepairService::from_engine`]: crate::RepairService::from_engine
pub struct BatchRepairEngine {
    pub(crate) ctx: RepairContext,
}

impl BatchRepairEngine {
    /// Wrap a prepared context.
    pub fn new(ctx: RepairContext) -> BatchRepairEngine {
        BatchRepairEngine { ctx }
    }

    /// The shared context.
    pub fn context(&self) -> &RepairContext {
        &self.ctx
    }
}

impl RepairContext {
    /// This machine's available parallelism: what `threads = 0`
    /// resolves to.
    fn auto_threads() -> usize {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    }

    /// Repair `dirty` under `opts` as one batch: a one-unit epoch of
    /// the fan-out, as a [`RepairSession`](crate::RepairSession) batch
    /// is.
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
        self.fan_out(&[(dirty, oracle_for)], opts)
            .pop()
            .expect("one report per unit")
    }

    /// The one fan-out every batch runs through. `units` is an epoch:
    /// one `(tuples, oracle_for)` per batch, `oracle_for(i)` supplying
    /// the user for `tuples[i]` — a session batch is a one-unit epoch,
    /// a service epoch holds one batch per participating session.
    ///
    /// Pins the current master epoch, cuts every unit into chunks,
    /// interleaves the units' chunks round-robin, deals them
    /// contiguously to the worker queues, repairs, and returns one
    /// [`BatchReport`] per unit in `units` order: outcomes stitched back
    /// in the unit's input order, statistics merged per
    /// `(worker, unit)`. A chunk never
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
        let epoch = self.epoch();
        let threads = match opts.threads {
            0 => Self::auto_threads(),
            t => t,
        }
        .max(1);
        // every unit's chunks in input order — `spans[rank]` is a
        // (unit, tuple range) pair and `owned[u]` the ranks of unit `u`;
        // a chunk's size depends on its unit alone, never on `threads`
        let mut spans: Vec<(usize, Range<usize>)> = Vec::new();
        let mut owned: Vec<Range<usize>> = Vec::with_capacity(units.len());
        for (u, (tuples, _)) in units.iter().enumerate() {
            let n = tuples.len();
            let chunk_size = match opts.chunk {
                0 => (n / 16).clamp(1, 512),
                c => c.min(n).max(1),
            };
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
        // deal contiguous runs of chunks to the worker queues, so
        // stealing only kicks in when the dealt load turns out to be
        // uneven
        let per_worker = n_chunks.div_ceil(workers.max(1));
        let queues: Vec<ChunkQueue> = (0..workers)
            .map(|w| {
                ChunkQueue::new((w * per_worker).min(n_chunks)..n_chunks.min((w + 1) * per_worker))
            })
            .collect();

        let ctx = self;
        let epoch = &*epoch;
        // a claimed chunk is one block unless the diagram is consulted;
        // then it runs as blocks of one (see the module docs)
        let cached = ctx.use_bdd;
        let (spans, deal, queues) = (&spans, &deal, &queues);
        let work = move |w: usize| {
            // one probe scratch per worker: every tuple this thread
            // repairs reuses the same warm buffer
            let mut scratch = ProbeScratch::new();
            let mut stats = vec![MonitorStats::default(); units.len()];
            let mut bdd_stats = vec![BddStats::default(); units.len()];
            // (rank, outcomes) in claim order
            let mut chunks = Vec::new();
            // the own queue, then one sweep over the victims: queues
            // only ever shrink, so a drained one stays drained
            for v in (w..w + workers).map(|v| v % workers) {
                while let Some(d) = queues[v].claim() {
                    let rank = deal[d];
                    let (u, span) = (spans[rank].0, spans[rank].1.clone());
                    let (tuples, oracle_for) = &units[u];
                    let len = if cached { 1 } else { span.len() };
                    // a diagram lives one chunk, so what it serves is
                    // fixed by the chunk's tuples alone
                    let mut bdd = SuggestionBdd::new();
                    let mut outcomes = Vec::with_capacity(span.len());
                    for lo in span.clone().step_by(len) {
                        outcomes.extend(ctx.process_block(
                            epoch,
                            &mut bdd,
                            &mut stats[u],
                            &mut scratch,
                            &tuples[lo..span.end.min(lo + len)],
                            lo,
                            oracle_for,
                        ));
                    }
                    bdd_stats[u].merge(&bdd.stats());
                    chunks.push((rank, outcomes));
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
        let mut accounts = Vec::with_capacity(workers);
        for (chunks, stats, bdd) in outs {
            let mut ranks = Vec::with_capacity(chunks.len());
            for (rank, outcomes) in chunks {
                debug_assert!(by_rank[rank].is_none(), "chunk {rank} claimed twice");
                by_rank[rank] = Some(outcomes);
                ranks.push(rank);
            }
            ranks.sort_unstable();
            accounts.push((ranks, stats, bdd));
        }
        let generation = epoch.plan.generation();
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
            reports.push(BatchReport {
                outcomes,
                stats,
                bdd,
                shared: None,
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
    check::<BatchRepairEngine>();
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
    use crate::oracle::SimulatedUser;
    use crate::session::RepairSession;
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

    fn plain_opts(threads: usize) -> RepairOptions {
        RepairOptions {
            threads,
            ..RepairOptions::default()
        }
    }

    fn eval_by_worker(report: &BatchReport, ds: &Dataset, rounds: usize) -> Vec<RoundMetrics> {
        let mut merged: Option<Vec<RoundMetrics>> = None;
        for worker in &report.workers {
            let evals: Vec<TupleEval> = (worker.ranges.iter())
                .flat_map(Clone::clone)
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

    /// The batch sharded across workers: the same uniform 10k-tuple
    /// dirty HOSP batch repaired with 1, 2, and 8 workers produces
    /// identical outcomes and identical merged `MonitorStats` counts and
    /// `RoundMetrics` rows.
    #[test]
    fn sharded_repair_is_deterministic_1_2_8() {
        let (hosp, ds, dirty) = hosp_batch(500, 10_000);
        let engine = RepairContext::new(hosp.rules().clone(), hosp.master().clone(), false);
        let oracle_for = |i: usize| SimulatedUser::new(ds.inputs[i].clean.clone());

        let sequential = engine.repair_opts(&dirty, &plain_opts(1), oracle_for);
        let seq_metrics = eval_by_worker(&sequential, &ds, 4);
        assert_eq!(sequential.workers.len(), 1);

        for threads in [2usize, 8] {
            let parallel = engine.repair_opts(&dirty, &plain_opts(threads), oracle_for);
            assert_eq!(parallel.workers.len(), threads);
            assert_outcomes_identical(&sequential, &parallel, &format!("{threads} workers"));
            // merged deterministic MonitorStats fields
            assert_eq!(sequential.stats.tuples, parallel.stats.tuples);
            assert_eq!(sequential.stats.certain, parallel.stats.certain);
            assert_eq!(sequential.stats.rounds, parallel.stats.rounds);
            // merged per-worker metric rows are bit-identical
            assert_eq!(seq_metrics, eval_by_worker(&parallel, &ds, 4));
        }
    }

    /// A *skewed* 10k-tuple batch (hard tuples concentrated at the head
    /// of the stream) repaired with 1 worker, and with 2 and 8 workers
    /// at the auto chunk size and at forced chunks of 1, 16 and 256
    /// tuples, produces identical outcomes, identical merged
    /// `MonitorStats` counts (logical plan probes included) and
    /// identical `RoundMetrics` rows: work stealing redistributes the
    /// skew without perturbing a single outcome. A stolen chunk is the
    /// probe-block unit, so the chunk legs sweep the block size from the
    /// degenerate single tuple up (D6). HOSP keys are one or two
    /// attributes wide; DBLP adds the 3- and 5-attribute keys of φ5–φ7,
    /// i.e. the wide-group block path.
    #[test]
    fn stealing_repair_is_deterministic_1_2_8_on_skewed_batch() {
        let workloads: [Box<dyn GenWorkload>; 2] =
            [Box::new(Hosp::generate(500)), Box::new(Dblp::generate(500))];
        for w in &workloads {
            let (ds, dirty) = dirty_batch(w.as_ref(), 10_000, 1.0);
            let engine = RepairContext::new(w.rules().clone(), w.master().clone(), false);
            let oracle_for = |i: usize| SimulatedUser::new(ds.inputs[i].clean.clone());

            let sequential = engine.repair_opts(&dirty, &plain_opts(1), oracle_for);
            let seq_metrics = eval_by_worker(&sequential, &ds, 4);

            for threads in [2usize, 8] {
                for chunk in [0usize, 1, 16, 256] {
                    let opts = RepairOptions {
                        chunk,
                        ..plain_opts(threads)
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

    /// D12: every claimed chunk builds its own diagram, and chunks are
    /// cut from the batch alone, so what a diagram serves never depends
    /// on which worker claims the chunk. A skewed two-batch stream
    /// repairs bit-identically at 1, 2 and 8 workers — whole outcomes,
    /// round traces included, and each batch's `BddStats` — at the auto
    /// chunk and at forced chunks of 1, 16 and 256 tuples, each run on a
    /// fresh engine. The reference runs with `shared_cache` off and the
    /// others with it on: the option is a no-op. A `CertainFix+` run's
    /// chunk size is part of its input, so runs are compared at equal
    /// chunk. The DBLP stream's users answer half of each suggestion, so
    /// a diagram meets many validated sets across its tuples' rounds.
    #[test]
    fn bdd_runs_are_worker_count_independent() {
        let streams: [(Box<dyn GenWorkload>, f64); 2] = [
            (Box::new(Hosp::generate(300)), 1.0),
            (Box::new(Dblp::generate(300)), 0.5),
        ];
        for (w, compliance) in &streams {
            let (ds, dirty) = dirty_batch(w.as_ref(), 2_000, 1.0);
            let oracle_for = |i: usize| {
                SimulatedUser::with_compliance(ds.inputs[i].clean.clone(), *compliance, i as u64)
            };
            let run = |threads: usize, shared_cache: bool, chunk: usize| {
                let ctx = RepairContext::new(w.rules().clone(), w.master().clone(), true);
                let engine = BatchRepairEngine::new(ctx);
                let mut session = RepairSession::borrowed(
                    &engine,
                    RepairOptions {
                        threads,
                        shared_cache,
                        chunk,
                        ..RepairOptions::default()
                    },
                );
                for half in dirty.chunks(1_000) {
                    session.push_batch(half, oracle_for);
                }
                session.finish()
            };
            for chunk in [0usize, 1, 16, 256] {
                let base = run(1, false, chunk);
                if chunk == 0 {
                    assert!(base.bdd.hits > 0, "the diagrams served suggestions");
                }
                for threads in [1usize, 2, 8] {
                    let got = run(threads, true, chunk);
                    let what = format!("{}: {threads} workers, chunk {chunk}", w.name());
                    for (a, b) in base.batches.iter().zip(&got.batches) {
                        assert_outcomes_identical(a, b, &what);
                        assert_eq!(a.bdd, b.bdd, "{what}");
                        assert!(b.shared.is_none(), "{what}");
                    }
                }
            }
        }
    }

    /// Under `CertainFix+` a chunk runs tuple by tuple through its one
    /// diagram, so a one-worker run whose chunk is the whole stream is
    /// the paper's sequential loop: Fig. 3 per tuple, suggestions from
    /// one `Suggest+` diagram (Fig. 8) — outcome for outcome and on
    /// `BddStats`. Running the chunk in round lockstep would interleave
    /// the diagram's queries and fail it.
    #[test]
    fn a_bdd_chunk_is_the_sequential_suggest_plus_loop() {
        let (hosp, ds, dirty) = hosp_batch_skewed(300, 400, 1.0);
        let engine = RepairContext::new(hosp.rules().clone(), hosp.master().clone(), true);
        let oracle_for = |i: usize| SimulatedUser::new(ds.inputs[i].clean.clone());
        let opts = RepairOptions {
            chunk: dirty.len(),
            ..RepairOptions::default()
        };
        let report = engine.repair_opts(&dirty, &opts, oracle_for);

        let (rules, epoch) = (engine.rules(), engine.epoch());
        let (master, plan) = (epoch.master(), epoch.plan());
        let graph = DependencyGraph::new(rules);
        let fix = CertainFix::new(rules, master, &graph, plan, CertainFixConfig::default());
        let mut bdd = SuggestionBdd::new();
        let mut scratch = ProbeScratch::new();
        for (i, t) in dirty.iter().enumerate() {
            let mut cursor = Cursor::start();
            let want = fix.run_scratch(
                t,
                epoch.initial_suggestion(),
                &mut oracle_for(i),
                |t, validated, sc| {
                    bdd.suggest_plus_with(rules, master, plan, t, validated, &mut cursor, sc)
                },
                &mut scratch,
            );
            assert_eq!(report.outcomes[i], want, "tuple {i}");
        }
        assert!(bdd.stats().hits > 0, "the diagram served suggestions");
        assert_eq!(report.bdd, bdd.stats());
    }

    /// The tentpole's determinism contract (D10) at the engine level:
    /// an engine whose epoch was maintained through `MasterDelta`s
    /// produces bit-identical outcomes and merged deterministic stats —
    /// including `plan_probes` — to an engine rebuilt from scratch
    /// over the same master rows, on a skewed batch, across worker
    /// counts. The plan compiled after the delta still probes through
    /// the compiled layer with bounded steady-state allocations.
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

        let maintained = RepairContext::new(hosp.rules().clone(), seed, false);
        let before_gen = maintained.generation();
        // One delta batch: repair row 0 and append the missing rows.
        let mut delta = MasterDelta::new().update(0, full.tuple(0).clone());
        for t in &full.tuples()[n - 20..] {
            delta = delta.insert(t.clone());
        }
        let gen = maintained
            .apply_master_delta(&delta)
            .expect("delta applies");
        assert!(gen > before_gen, "delta advanced the generation");
        assert_eq!(maintained.generation(), gen);
        assert_eq!(maintained.plan_rebuilds(), 1);

        let fresh = RepairContext::new(hosp.rules().clone(), full.clone(), false);
        assert_eq!(
            maintained.epoch().initial_suggestion(),
            fresh.epoch().initial_suggestion(),
            "the delta handed the context's suggestion on"
        );
        let oracle_for = |i: usize| SimulatedUser::new(ds.inputs[i].clean.clone());
        let baseline = fresh.repair_opts(&dirty, &plain_opts(1), oracle_for);
        for threads in [1usize, 2, 4] {
            let got = maintained.repair_opts(&dirty, &plain_opts(threads), oracle_for);
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
        assert_eq!(baseline.generation, fresh.generation());
    }

    /// Delete deltas force the lazy index rebuild path; the rebuilt
    /// epoch must still match an engine constructed directly over the
    /// surviving rows.
    #[test]
    fn delete_delta_matches_fresh_rebuild() {
        let (hosp, ds, dirty) = hosp_batch(200, 500);
        let full = hosp.master().clone();
        let engine = RepairContext::new(hosp.rules().clone(), full.clone(), false);
        // drop the last two master rows through a delta ...
        let n = full.len() as u32;
        let delta = MasterDelta::new().delete(n - 1).delete(n - 2);
        assert!(delta.has_deletes());
        let gen = engine.apply_master_delta(&delta).expect("delta applies");
        assert_eq!(engine.generation(), gen);
        // ... and rebuild the same master from scratch
        let survivors: Vec<Tuple> = full.tuples()[..full.len() - 2].to_vec();
        let truncated =
            Arc::new(Relation::new(full.schema().clone(), survivors).expect("truncated master"));
        let fresh = RepairContext::new(hosp.rules().clone(), truncated, false);
        let oracle_for = |i: usize| SimulatedUser::new(ds.inputs[i].clean.clone());
        let want = fresh.repair_opts(&dirty, &plain_opts(2), oracle_for);
        let got = engine.repair_opts(&dirty, &plain_opts(2), oracle_for);
        assert_outcomes_identical(&want, &got, "delete delta");
        assert_eq!(want.stats.plan_probes, got.stats.plan_probes);
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
        let engine = RepairContext::with_config(
            wk.rules().clone(),
            wk.master().clone(),
            false,
            InitialRegion::Best,
            CertainFixConfig::default(),
        );
        let oracle_for = |i: usize| SimulatedUser::new(ds.inputs[i].clean.clone());
        let base = engine.repair_opts(&dirty, &plain_opts(1), oracle_for);
        assert!(
            base.stats.plan_fallbacks > 0,
            "7-attribute keys exercised the wide-key fallback"
        );
        for threads in [2usize, 4] {
            let par = engine.repair_opts(&dirty, &plain_opts(threads), oracle_for);
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

    /// The paper's sequential monitor is a one-worker run whose one
    /// chunk is the whole stream, so one diagram serves every tuple; a
    /// 4-worker run over chunks of its own, one diagram each, still
    /// gives every tuple the same final value (D8).
    #[test]
    fn engine_matches_the_sequential_monitor() {
        let (hosp, ds, dirty) = hosp_batch(300, 200);
        let engine = RepairContext::new(hosp.rules().clone(), hosp.master().clone(), true);
        let oracle_for = |i: usize| SimulatedUser::new(ds.inputs[i].clean.clone());
        let monitor = engine.repair_opts(
            &dirty,
            &RepairOptions {
                chunk: dirty.len(),
                ..RepairOptions::default()
            },
            oracle_for,
        );
        assert_eq!(monitor.workers[0].ranges, vec![0..dirty.len()]);
        let report = engine.repair_opts(
            &dirty,
            &RepairOptions {
                threads: 4,
                ..RepairOptions::default()
            },
            oracle_for,
        );
        for (i, (out, seq)) in report.outcomes.iter().zip(&monitor.outcomes).enumerate() {
            assert_eq!(out.tuple, seq.tuple, "tuple {i}");
            assert_eq!(out.certain, seq.certain, "tuple {i}");
        }
        assert_eq!(monitor.stats.certain, report.stats.certain);
        assert_eq!(monitor.stats.tuples, report.stats.tuples);
    }

    #[test]
    fn stolen_ranges_partition_the_input() {
        let (hosp, ds, dirty) = hosp_batch(100, 509);
        let engine = RepairContext::new(hosp.rules().clone(), hosp.master().clone(), false);
        let report = engine.repair_opts(
            &dirty,
            &RepairOptions {
                chunk: 16,
                ..plain_opts(4)
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
            for i in worker.ranges.iter().flat_map(Clone::clone) {
                assert!(!seen[i], "index {i} repaired twice");
                seen[i] = true;
            }
            assert_eq!(worker.tuples() as u64, worker.stats.tuples);
        }
        assert!(seen.iter().all(|&s| s), "every index repaired");
        // per-worker stats merge back to the batch totals
        let total: u64 = report.workers.iter().map(|w| w.stats.tuples).sum();
        assert_eq!(total, 509);
        // watermark was captured (the interner is never empty here)
        assert!(report.stats.interner_syms > 0);
        assert!(report.wall > Duration::ZERO);
    }

    #[test]
    fn more_threads_than_tuples_is_clamped() {
        let (hosp, ds, dirty) = hosp_batch(50, 3);
        let engine = RepairContext::new(hosp.rules().clone(), hosp.master().clone(), false);
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
        let engine = RepairContext::new(hosp.rules().clone(), hosp.master().clone(), false);
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
        assert!(report.workers.len() <= RepairContext::auto_threads().clamp(1, 20));
        assert_eq!(RepairOptions::default().schedule, Schedule::Steal);
    }

    #[test]
    fn empty_batch_is_fine() {
        let hosp = Hosp::generate(20);
        let engine = RepairContext::new(hosp.rules().clone(), hosp.master().clone(), false);
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
        assert_eq!(report.generation, engine.generation());
    }
}
