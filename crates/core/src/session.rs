//! The unified repair-session API: streaming ingest behind a
//! [`TupleSource`] abstraction.
//!
//! The paper's framework is a *data monitor* — it repairs tuples at the
//! point of entry, i.e. it is fundamentally a streaming system. This
//! module makes that the primary entry-point surface: a pull-based
//! [`TupleSource`] abstracts over where dirty tuples come from (an
//! in-memory slice, the dirty-data generator's batch iterator, or a
//! bounded channel fed by a live producer), and a [`RepairSession`]
//! drains any source through the work-stealing
//! [`BatchRepairEngine`] and its engine-lifetime
//! [`SharedSuggestionCache`](crate::SharedSuggestionCache), emitting
//! one unified [`SessionReport`]. Each pushed batch is a one-unit epoch
//! of the engine's single fan-out — the same function a
//! [`RepairService`](crate::service::RepairService) epoch runs through
//! — and the calling thread is its worker 0, so a one-worker session
//! spawns no thread. The session is also where the two
//! *live* axes of the deployment surface meet:
//!
//! * **live master data** —
//!   [`apply_master_delta`](RepairSession::apply_master_delta) applies
//!   a [`MasterDelta`] between batches; the next batch repairs against
//!   the new [generation](RepairSession::generation), each
//!   [`BatchReport::generation`] records the epoch it pinned, and the
//!   merged report counts the hand-offs in
//!   [`MonitorStats::plan_rebuilds`];
//! * **workloads** — the
//!   [builder](RepairSessionBuilder::workload) selects what runs per
//!   tuple: the paper's editing-rule repair (default) or the
//!   `IncRep`-style CFD baseline
//!   ([`Workload::Cfd`](crate::Workload)), both drained through the
//!   same sources, engine, and reports.
//!
//! A session is the surface for **one** logical stream; the engine
//! behind it was never limited to one session. Borrowed sessions
//! ([`BatchRepairEngine::session_opts`]) may take turns over one warm
//! engine, and for N streams that must run *concurrently* — many
//! tenants feeding one deployment — the
//! [`service`](crate::service) layer multiplexes N sessions fairly
//! over a single engine and hands back one [`SessionReport`] per
//! stream, shaped exactly as if each had run alone here.
//!
//! ```
//! use certainfix_core::session::{RepairSessionBuilder, SliceSource};
//! use certainfix_core::SimulatedUser;
//! use certainfix_datagen::{Dataset, DirtyConfig, Hosp, Workload};
//!
//! let hosp = Hosp::generate(100);
//! let ds = Dataset::generate(&hosp, &DirtyConfig { input_size: 40, ..Default::default() });
//! let dirty: Vec<_> = ds.inputs.iter().map(|dt| dt.dirty.clone()).collect();
//!
//! let mut session = RepairSessionBuilder::new(hosp.rules().clone(), hosp.master().clone())
//!     .threads(2)
//!     .build();
//! session.drain(SliceSource::with_batch(&dirty, 16), |i| {
//!     SimulatedUser::new(ds.inputs[i].clean.clone())
//! });
//! let report = session.finish();
//! assert_eq!(report.tuples, 40);
//! ```
//!
//! # Determinism
//!
//! A session inherits the engine's guarantee and extends it across
//! batching: for plain `CertainFix` (`bdd(false)`) with the shared
//! cache off, the concatenated outcomes and the merged count fields of
//! a drained stream are **bit-identical to a single sequential
//! [`repair_opts`](crate::BatchRepairEngine::repair_opts) call over the
//! same tuples in the same order** — regardless of how the source cuts
//! the stream into batches, the channel depth, the schedule, or the
//! worker count. See [`TupleSource`] for the contract that makes this
//! hold. With the shared cache on (BDD still off), each batch reads the
//! pool the batches before it committed, so outcomes and hit/miss
//! counts depend on where the batches and deltas fall — but still not
//! on the schedule or the worker count (D12).

use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use std::time::Duration;

use certainfix_datagen::{Batches, Workload as GenWorkload};
use certainfix_relation::{MasterDelta, Relation, RelationError, Tuple};
use certainfix_rules::RuleSet;

use crate::bdd::BddStats;
use crate::certainfix::{CertainFixConfig, FixOutcome};
use crate::engine::{
    BatchRepairEngine, BatchReport, RepairContext, RepairOptions, Schedule, Workload,
};
use crate::monitor::{InitialRegion, MonitorStats};
use crate::oracle::UserOracle;
use crate::sharedcache::SharedCacheStats;

/// A pull-based source of dirty-tuple batches — the ingest side of a
/// [`RepairSession`].
///
/// # Ordering and determinism contract
///
/// A source yields the tuples of one logical stream, **in stream
/// order**: concatenating the yielded batches must always produce the
/// same tuple sequence, no matter how the stream is cut into batches.
/// The session assigns each tuple its *global stream index* (the
/// number of tuples drained before it) and hands that index to the
/// oracle factory, so a tuple meets the same oracle whether it arrives
/// in one batch of 10 000 or 10 000 batches of one. Under that
/// contract, draining a source through a session is — for plain
/// `CertainFix` with the caches off — bit-identical in outcomes and
/// merged metric counts to repairing the concatenated stream as one
/// sequential batch. Sources must *not* reorder, drop, or duplicate
/// tuples; a source that did would silently misalign tuples and
/// oracles.
///
/// The same contract is what the multi-session
/// [`RepairService`](crate::service::RepairService) builds on: each of
/// its streams owns one source and one stream-index space, its ingest
/// lane pulls `next_batch` exactly like a session drain does, and the
/// per-stream indexes never mix — so a stream meets the same oracles
/// (and, caches off, produces the same outcomes) whether it is drained
/// alone or multiplexed with any number of other streams.
pub trait TupleSource {
    /// Pull the next batch of dirty tuples; `None` ends the stream.
    /// An empty batch is permitted (the session skips it) but a source
    /// should avoid yielding them indefinitely.
    fn next_batch(&mut self) -> Option<Vec<Tuple>>;

    /// Bounds on the number of **tuples** (not batches) still to come,
    /// `(lower, Some(upper))` when known. Sessions use it to
    /// preallocate outcome buffers; like [`Iterator::size_hint`] it is
    /// advisory and must never be trusted for correctness.
    fn size_hint(&self) -> (usize, Option<usize>) {
        (0, None)
    }
}

/// Today's batch entry point as a source: a borrowed `&[Tuple]`,
/// yielded in stream order in batches of a configurable size.
#[derive(Clone, Debug)]
pub struct SliceSource<'a> {
    tuples: &'a [Tuple],
    batch: usize,
}

impl<'a> SliceSource<'a> {
    /// The whole slice as a single batch (the exact shape of a
    /// [`repair_opts`](crate::BatchRepairEngine::repair_opts) call).
    pub fn new(tuples: &'a [Tuple]) -> SliceSource<'a> {
        Self::with_batch(tuples, tuples.len().max(1))
    }

    /// The slice cut into batches of (up to) `batch` tuples.
    pub fn with_batch(tuples: &'a [Tuple], batch: usize) -> SliceSource<'a> {
        assert!(batch > 0, "batch size must be positive");
        SliceSource { tuples, batch }
    }
}

impl TupleSource for SliceSource<'_> {
    fn next_batch(&mut self) -> Option<Vec<Tuple>> {
        if self.tuples.is_empty() {
            return None;
        }
        let (head, rest) = self.tuples.split_at(self.batch.min(self.tuples.len()));
        self.tuples = rest;
        Some(head.to_vec())
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.tuples.len(), Some(self.tuples.len()))
    }
}

/// Adapter over the dirty-data generator's batch iterator
/// ([`Dataset::batches`](certainfix_datagen::Dataset::batches)): each
/// generated batch's dirty tuples, in stream order.
///
/// The generator keeps every dirty tuple paired with its ground truth;
/// this adapter yields only the dirty side (a [`TupleSource`] is what
/// arrives at the entry point — the truth is the oracle's business).
/// Batch generation is deterministic and independently regenerable, so
/// an oracle factory that needs the ground truth can materialize the
/// same stream up front by iterating `Dataset::batches` with the same
/// config and collecting `inputs`.
pub struct BatchesSource<'a, W: GenWorkload + ?Sized> {
    batches: Batches<'a, W>,
}

impl<'a, W: GenWorkload + ?Sized> BatchesSource<'a, W> {
    /// Wrap a generator batch iterator.
    pub fn new(batches: Batches<'a, W>) -> BatchesSource<'a, W> {
        BatchesSource { batches }
    }
}

impl<W: GenWorkload + ?Sized> TupleSource for BatchesSource<'_, W> {
    fn next_batch(&mut self) -> Option<Vec<Tuple>> {
        self.batches
            .next()
            .map(|ds| ds.inputs.into_iter().map(|dt| dt.dirty).collect())
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.batches.remaining_tuples();
        (n, Some(n))
    }
}

/// Real backpressured streaming ingest: a [`TupleSource`] over the
/// receiving half of a bounded [`std::sync::mpsc`] channel.
///
/// [`ChannelSource::bounded`] returns the producer handle and the
/// source; `depth` bounds how many batches may be in flight, so a
/// producer that outruns the repair workers blocks on
/// [`SyncSender::send`] instead of buffering the stream unboundedly.
/// The stream ends when every sender is dropped. Channel delivery is
/// FIFO, so the ordering contract of [`TupleSource`] reduces to the
/// producer sending the stream in order.
///
/// A producer that goes away *mid-stream* (its thread panics, its
/// socket drops — anything that drops the sender with batches still
/// buffered) ends the stream gracefully: every batch sent before the
/// disconnect is still yielded, in order, and only then does
/// [`next_batch`](TupleSource::next_batch) report end-of-stream. No
/// tuple the consumer was promised is lost, and nothing panics — the
/// property the network ingest lane (`crates/net`) leans on to tear
/// down a dead connection's session cleanly.
pub struct ChannelSource {
    rx: Receiver<Vec<Tuple>>,
    hint: (usize, Option<usize>),
}

impl ChannelSource {
    /// A bounded channel of `depth` in-flight batches (clamped to at
    /// least 1) and the source draining it.
    pub fn bounded(depth: usize) -> (SyncSender<Vec<Tuple>>, ChannelSource) {
        let (tx, rx) = sync_channel(depth.max(1));
        (
            tx,
            ChannelSource {
                rx,
                hint: (0, None),
            },
        )
    }

    /// Attach a tuple-count hint (the producer often knows the stream
    /// length even though the channel cannot).
    pub fn with_size_hint(mut self, lower: usize, upper: Option<usize>) -> ChannelSource {
        self.hint = (lower, upper);
        self
    }
}

impl TupleSource for ChannelSource {
    fn next_batch(&mut self) -> Option<Vec<Tuple>> {
        loop {
            match self.rx.recv() {
                Ok(batch) if batch.is_empty() => continue,
                Ok(batch) => {
                    self.hint.0 = self.hint.0.saturating_sub(batch.len());
                    self.hint.1 = self.hint.1.map(|u| u.saturating_sub(batch.len()));
                    return Some(batch);
                }
                Err(_) => return None,
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.hint
    }
}

/// Configures and builds an owned [`RepairSession`]: precomputation
/// knobs (BDD, initial region, `CertainFix` config) plus the engine
/// knobs of [`RepairOptions`] (threads / [`Schedule`] / shared cache /
/// chunk size).
#[derive(Clone)]
pub struct RepairSessionBuilder {
    rules: RuleSet,
    master: Arc<Relation>,
    use_bdd: bool,
    initial: InitialRegion,
    config: CertainFixConfig,
    workload: Workload,
    opts: RepairOptions,
}

impl RepairSessionBuilder {
    /// A session over `(Σ, Dm)` with the defaults: plain `CertainFix`,
    /// best initial region, one worker, [`Schedule::Steal`], shared
    /// cache on.
    pub fn new(rules: RuleSet, master: Arc<Relation>) -> RepairSessionBuilder {
        RepairSessionBuilder {
            rules,
            master,
            use_bdd: false,
            initial: InitialRegion::default(),
            config: CertainFixConfig::default(),
            workload: Workload::default(),
            opts: RepairOptions::default(),
        }
    }

    /// Serve suggestions from per-worker BDD caches (`CertainFix+`).
    pub fn bdd(mut self, on: bool) -> Self {
        self.use_bdd = on;
        self
    }

    /// What runs per tuple: the paper's editing-rule repair
    /// ([`Workload::EditRules`], the default) or the `IncRep`-style
    /// cost-based CFD baseline ([`Workload::Cfd`]).
    pub fn workload(mut self, workload: Workload) -> Self {
        self.workload = workload;
        self
    }

    /// Which precomputed region seeds the first suggestion.
    pub fn initial_region(mut self, region: InitialRegion) -> Self {
        self.initial = region;
        self
    }

    /// The `CertainFix` interaction-loop configuration.
    pub fn config(mut self, config: CertainFixConfig) -> Self {
        self.config = config;
        self
    }

    /// Worker threads per batch (`0` = one per available core).
    pub fn threads(mut self, threads: usize) -> Self {
        self.opts.threads = threads;
        self
    }

    /// The scheduling policy.
    pub fn schedule(mut self, schedule: Schedule) -> Self {
        self.opts.schedule = schedule;
        self
    }

    /// Pool computed suggestions in the engine-lifetime shared cache.
    pub fn shared_cache(mut self, on: bool) -> Self {
        self.opts.shared_cache = on;
        self
    }

    /// Chunk granularity for [`Schedule::Steal`] (`0` = auto).
    pub fn chunk(mut self, chunk: usize) -> Self {
        self.opts.chunk = chunk;
        self
    }

    /// Replace all engine knobs at once.
    pub fn options(mut self, opts: RepairOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Build the precomputation and the session (owning its engine).
    pub fn build(self) -> RepairSession<'static> {
        let engine = BatchRepairEngine::new(RepairContext::with_workload(
            self.rules,
            self.master,
            self.use_bdd,
            self.initial,
            self.config,
            self.workload,
        ));
        RepairSession::from_engine(engine, self.opts)
    }
}

/// Owned or borrowed engine behind a session: the builder produces an
/// owning session, while [`BatchRepairEngine::session_opts`] (and the
/// one-batch [`repair_opts`](BatchRepairEngine::repair_opts) shim)
/// wrap a borrowed engine so the engine-lifetime shared cache keeps
/// its owner.
enum EngineRef<'e> {
    Owned(Box<BatchRepairEngine>),
    Borrowed(&'e BatchRepairEngine),
}

impl EngineRef<'_> {
    fn get(&self) -> &BatchRepairEngine {
        match self {
            EngineRef::Owned(engine) => engine,
            EngineRef::Borrowed(engine) => engine,
        }
    }
}

/// A repair session: drains [`TupleSource`]s (or explicit batches)
/// through the work-stealing engine under one fixed set of
/// [`RepairOptions`], accumulating per-batch [`BatchReport`]s and the
/// global stream offset. [`finish`](Self::finish) (or
/// [`report`](Self::report)) folds them into a [`SessionReport`].
pub struct RepairSession<'e> {
    engine: EngineRef<'e>,
    opts: RepairOptions,
    batches: Vec<BatchReport>,
    tuples: usize,
    wall: Duration,
    /// The context's [`plan_rebuilds`](RepairContext::plan_rebuilds)
    /// when the session opened; the merged report charges the epochs
    /// rebuilt since.
    rebuilds_at_open: u64,
}

impl<'e> RepairSession<'e> {
    /// Wrap an engine the session will own (the shared suggestion
    /// cache then lives exactly as long as the session).
    pub fn from_engine(engine: BatchRepairEngine, opts: RepairOptions) -> RepairSession<'static> {
        RepairSession::open(EngineRef::Owned(Box::new(engine)), opts)
    }

    /// Wrap a borrowed engine (see
    /// [`BatchRepairEngine::session_opts`]); pooled suggestions persist
    /// in the engine after the session ends.
    pub fn borrowed(engine: &'e BatchRepairEngine, opts: RepairOptions) -> RepairSession<'e> {
        RepairSession::open(EngineRef::Borrowed(engine), opts)
    }

    fn open(engine: EngineRef<'e>, opts: RepairOptions) -> RepairSession<'e> {
        let rebuilds_at_open = engine.get().context().plan_rebuilds();
        RepairSession {
            engine,
            opts,
            batches: Vec::new(),
            tuples: 0,
            wall: Duration::ZERO,
            rebuilds_at_open,
        }
    }

    /// Apply a batch of master mutations to the live master: the
    /// engine builds the next epoch (delta-maintained index, recompiled
    /// plan, re-ranked catalog) and swaps it in; batches pushed after
    /// this call repair against the new generation, while any batch
    /// already fanned out finishes on the epoch it pinned. Returns the
    /// new generation. The merged [`SessionReport`] counts the epochs
    /// the context rebuilt while the session was open — these hand-offs
    /// and any other delta applied to the engine meanwhile — in
    /// [`MonitorStats::plan_rebuilds`].
    pub fn apply_master_delta(&mut self, delta: &MasterDelta) -> Result<u64, RelationError> {
        self.engine.get().apply_master_delta(delta)
    }

    /// The master generation the next pushed batch will repair against.
    pub fn generation(&self) -> u64 {
        self.engine.get().context().generation()
    }

    /// The engine behind this session.
    pub fn engine(&self) -> &BatchRepairEngine {
        self.engine.get()
    }

    /// The engine knobs every batch of this session runs under.
    pub fn options(&self) -> &RepairOptions {
        &self.opts
    }

    /// Tuples ingested so far (the global stream offset the next batch
    /// starts at).
    pub fn tuples_ingested(&self) -> usize {
        self.tuples
    }

    /// The per-batch reports accumulated so far, in stream order.
    pub fn batches(&self) -> &[BatchReport] {
        &self.batches
    }

    /// Repair one batch — a one-unit epoch of the engine's fan-out.
    /// `oracle_for` receives the **global stream index** (tuples
    /// ingested before this batch + offset within it), so a stream
    /// meets the same oracles however it is batched; like the
    /// engine's, it is called from worker threads and must depend only
    /// on the index. Returns the appended report.
    pub fn push_batch<F, O>(&mut self, dirty: &[Tuple], oracle_for: F) -> &BatchReport
    where
        F: Fn(usize) -> O + Sync,
        O: UserOracle,
    {
        let base = self.tuples;
        let unit = (dirty, |i: usize| oracle_for(base + i));
        self.batches
            .extend(self.engine.get().fan_out(&[unit], &self.opts));
        self.tuples += dirty.len();
        let report = self.batches.last().expect("one report per unit");
        self.wall += report.wall;
        report
    }

    /// Stream a slice through a bounded channel drained by this
    /// session: a producer thread sends `batch`-sized chunks with
    /// `depth` in-flight batches ([`ChannelSource::bounded`]) while
    /// the session's workers repair them — generation/transport
    /// overlaps repair, with real backpressure. Equivalent in outcomes
    /// and merged counts to draining
    /// [`SliceSource::with_batch`]`(tuples, batch)` (and, for plain
    /// `CertainFix` with the caches off, to one sequential batch).
    /// Returns the number of tuples drained.
    pub fn stream_slice<F, O>(
        &mut self,
        tuples: &[Tuple],
        batch: usize,
        depth: usize,
        oracle_for: F,
    ) -> usize
    where
        F: Fn(usize) -> O + Sync,
        O: UserOracle,
    {
        assert!(batch > 0, "batch size must be positive");
        let (tx, source) = ChannelSource::bounded(depth);
        let source = source.with_size_hint(tuples.len(), Some(tuples.len()));
        std::thread::scope(|s| {
            s.spawn(move || {
                for chunk in tuples.chunks(batch) {
                    if tx.send(chunk.to_vec()).is_err() {
                        break; // the session stopped draining
                    }
                }
            });
            self.drain(source, oracle_for)
        })
    }

    /// Drain a source to exhaustion, one [`push_batch`](Self::push_batch)
    /// per yielded batch (empty batches are skipped). Returns the
    /// number of tuples drained.
    pub fn drain<S, F, O>(&mut self, mut source: S, oracle_for: F) -> usize
    where
        S: TupleSource,
        F: Fn(usize) -> O + Sync,
        O: UserOracle,
    {
        let (_, upper) = source.size_hint();
        let mut drained = 0usize;
        while let Some(batch) = source.next_batch() {
            if batch.is_empty() {
                continue;
            }
            if drained == 0 {
                if let Some(hi) = upper {
                    // preallocate the per-batch report list, assuming
                    // the first batch's size is typical of the stream
                    self.batches.reserve(hi.div_ceil(batch.len()));
                }
            }
            self.push_batch(&batch, &oracle_for);
            drained += batch.len();
        }
        drained
    }

    fn merged(&self) -> SessionReport {
        let mut report = SessionReport::from_batches(&self.batches, self.wall, self.tuples);
        // deltas are a context-level event: the per-batch worker stats
        // never see them, so the fold charges the context's count here
        report.stats.plan_rebuilds +=
            self.engine.get().context().plan_rebuilds() - self.rebuilds_at_open;
        report
    }

    /// Snapshot the unified report so far without ending the session
    /// (per-batch reports are cloned).
    pub fn report(&self) -> SessionReport {
        let mut report = self.merged();
        report.batches = self.batches.clone();
        report
    }

    /// End the session and emit the unified report. An owned engine
    /// (and its shared cache) is dropped with the session; a borrowed
    /// engine keeps its pool.
    pub fn finish(self) -> SessionReport {
        let mut report = self.merged();
        report.batches = self.batches;
        report
    }
}

/// The unified result of one session: every per-batch [`BatchReport`]
/// plus the cumulative merged statistics.
#[derive(Clone, Debug)]
pub struct SessionReport {
    /// Per-batch reports, in stream order; each batch's outcomes and
    /// worker ranges are indexed from the *batch's* start (see
    /// [`batches_with_offsets`](Self::batches_with_offsets) for global
    /// positions).
    pub batches: Vec<BatchReport>,
    /// Merged monitor statistics ([`MonitorStats::merge`] over all
    /// batches — counts sum, the interner watermark maxes).
    pub stats: MonitorStats,
    /// Merged per-worker BDD cache statistics.
    pub bdd: BddStats,
    /// Shared-cache statistics *attributed to this session*: `hits` /
    /// `misses` sum the per-batch attributed counters (so per-session
    /// numbers across any set of sessions over one engine sum to the
    /// engine-global counters), while the other fields snapshot the
    /// engine-lifetime pool after the session's last cache-enabled
    /// batch. `None` when the shared cache was off.
    pub shared: Option<SharedCacheStats>,
    /// Summed repair wall-clock over all batches. Time the session
    /// spent *waiting on the source* (e.g. a backpressured channel) is
    /// not included.
    pub wall: Duration,
    /// Total tuples repaired.
    pub tuples: usize,
}

impl SessionReport {
    /// Fold per-batch reports into a session report: statistics merge
    /// ([`MonitorStats::merge`] / [`BddStats::merge`] — counts sum, the
    /// interner watermark maxes), attributed shared-cache counters sum
    /// (the other cache fields keep the last batch's pool snapshot),
    /// and the returned report's `batches` list is left empty — attach
    /// the folded reports afterwards if the caller wants them carried.
    /// Both [`RepairSession`] and the [`service`](crate::service)
    /// multiplexer stitch their reports through this one fold, so a
    /// session's merged numbers are the same whether it ran alone or
    /// multiplexed.
    pub fn from_batches(folded: &[BatchReport], wall: Duration, tuples: usize) -> SessionReport {
        let mut stats = MonitorStats::default();
        let mut bdd = BddStats::default();
        let mut shared: Option<SharedCacheStats> = None;
        for batch in folded {
            stats.merge(&batch.stats);
            bdd.merge(&batch.bdd);
            if let Some(s) = &batch.shared {
                // per-batch counters are attributed, so they sum, while
                // occupancy and the lifetime counters are snapshots:
                // keep the latest
                let (hits, misses) = shared.as_ref().map_or((0, 0), |a| (a.hits, a.misses));
                shared = Some(SharedCacheStats {
                    hits: hits + s.hits,
                    misses: misses + s.misses,
                    ..s.clone()
                });
            }
        }
        SessionReport {
            batches: Vec::new(),
            stats,
            bdd,
            shared,
            wall,
            tuples,
        }
    }

    /// Per-tuple outcomes across all batches, in global stream order.
    pub fn outcomes(&self) -> impl Iterator<Item = &FixOutcome> {
        self.batches.iter().flat_map(|b| b.outcomes.iter())
    }

    /// The batches paired with their global stream offsets.
    pub fn batches_with_offsets(&self) -> impl Iterator<Item = (usize, &BatchReport)> {
        let mut offset = 0usize;
        self.batches.iter().map(move |b| {
            let at = offset;
            offset += b.outcomes.len();
            (at, b)
        })
    }

    /// Flatten into the outcome vector of the equivalent single-batch
    /// run (preallocated from the session's tuple count).
    pub fn into_outcomes(self) -> Vec<FixOutcome> {
        let mut outcomes = Vec::with_capacity(self.tuples);
        for batch in self.batches {
            outcomes.extend(batch.outcomes);
        }
        outcomes
    }

    /// Session throughput in tuples per second (repair wall clock).
    pub fn throughput(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.tuples as f64 / secs
        }
    }
}

/// A session can also be built straight from a prepared
/// [`RepairContext`].
impl From<RepairContext> for RepairSession<'static> {
    fn from(ctx: RepairContext) -> RepairSession<'static> {
        RepairSession::from_engine(BatchRepairEngine::new(ctx), RepairOptions::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{evaluate_rounds, merge_round_series, RoundMetrics, TupleEval};
    use crate::oracle::SimulatedUser;
    use certainfix_cfd::{repair_tuple, rules_to_cfds, IncRepConfig};
    use certainfix_datagen::{
        Dataset, Dblp, DirtyConfig, DirtyTuple, Hosp, Workload as GenWorkload,
    };
    use certainfix_relation::{AttrSet, MasterIndex};

    fn dirty_stream(workload: &dyn GenWorkload, inputs: usize, skew: f64) -> Dataset {
        let cfg = DirtyConfig {
            duplicate_rate: 0.3,
            noise_rate: 0.2,
            input_size: inputs,
            seed: 0x5EED_F00D,
            skew,
            ..DirtyConfig::default()
        };
        Dataset::generate(workload, &cfg)
    }

    fn hosp_stream(dm: usize, inputs: usize, skew: f64) -> (Hosp, Dataset) {
        let hosp = Hosp::generate(dm);
        let ds = dirty_stream(&hosp, inputs, skew);
        (hosp, ds)
    }

    fn dirty_of(ds: &Dataset) -> Vec<Tuple> {
        ds.inputs.iter().map(|dt| dt.dirty.clone()).collect()
    }

    fn plain_session(hosp: &Hosp, threads: usize) -> RepairSession<'static> {
        RepairSessionBuilder::new(hosp.rules().clone(), hosp.master().clone())
            .threads(threads)
            .shared_cache(false)
            .build()
    }

    /// Merge per-(batch, worker) metric rows — any partition of the
    /// stream merges to the same rows, since the merge sums raw counts.
    fn eval_merged(
        report: &SessionReport,
        inputs: &[DirtyTuple],
        rounds: usize,
    ) -> Vec<RoundMetrics> {
        let mut merged: Option<Vec<RoundMetrics>> = None;
        for (offset, batch) in report.batches_with_offsets() {
            for worker in &batch.workers {
                let evals: Vec<TupleEval> = worker
                    .indexes()
                    .map(|i| TupleEval {
                        outcome: &batch.outcomes[i],
                        dirty: &inputs[offset + i].dirty,
                        clean: &inputs[offset + i].clean,
                    })
                    .collect();
                let m = evaluate_rounds(&evals, rounds);
                match &mut merged {
                    None => merged = Some(m),
                    Some(acc) => merge_round_series(acc, &m),
                }
            }
        }
        merged.expect("at least one batch")
    }

    fn assert_stream_equals_batch(streamed: &SessionReport, batch: &BatchReport, what: &str) {
        assert_eq!(streamed.tuples, batch.outcomes.len(), "{what}");
        for (i, (a, b)) in streamed.outcomes().zip(&batch.outcomes).enumerate() {
            assert_eq!(a.tuple, b.tuple, "tuple {i} ({what})");
            assert_eq!(a.certain, b.certain, "tuple {i} ({what})");
            assert_eq!(a.validated, b.validated, "tuple {i} ({what})");
            assert_eq!(a.rounds.len(), b.rounds.len(), "tuple {i} ({what})");
        }
        assert_eq!(streamed.stats.tuples, batch.stats.tuples, "{what}");
        assert_eq!(streamed.stats.certain, batch.stats.certain, "{what}");
        assert_eq!(streamed.stats.rounds, batch.stats.rounds, "{what}");
    }

    /// The satellite determinism test: a skewed 10k HOSP stream
    /// drained through a bounded [`ChannelSource`] at 1, 2, and 4
    /// workers yields outcomes and merged metrics bit-identical to one
    /// [`repair_opts`](BatchRepairEngine::repair_opts) call over the
    /// whole stream.
    #[test]
    fn channel_stream_is_bit_identical_to_one_batch_1_2_4() {
        let (hosp, ds) = hosp_stream(500, 10_000, 1.0);
        let dirty = dirty_of(&ds);
        let engine = BatchRepairEngine::new(RepairContext::new(
            hosp.rules().clone(),
            hosp.master().clone(),
            false,
        ));
        let oracle_for = |i: usize| SimulatedUser::new(ds.inputs[i].clean.clone());
        let opts = RepairOptions {
            threads: 1,
            shared_cache: false,
            ..RepairOptions::default()
        };
        let batch = engine.repair_opts(&dirty, &opts, oracle_for);
        let batch_metrics = {
            let mut rows: Option<Vec<RoundMetrics>> = None;
            for worker in &batch.workers {
                let evals: Vec<TupleEval> = worker
                    .indexes()
                    .map(|i| TupleEval {
                        outcome: &batch.outcomes[i],
                        dirty: &ds.inputs[i].dirty,
                        clean: &ds.inputs[i].clean,
                    })
                    .collect();
                let m = evaluate_rounds(&evals, 4);
                match &mut rows {
                    None => rows = Some(m),
                    Some(acc) => merge_round_series(acc, &m),
                }
            }
            rows.unwrap()
        };

        for workers in [1usize, 2, 4] {
            let mut session = plain_session(&hosp, workers);
            let (tx, source) = ChannelSource::bounded(2);
            let source = source.with_size_hint(dirty.len(), Some(dirty.len()));
            let report = std::thread::scope(|s| {
                let producer_dirty = &dirty;
                s.spawn(move || {
                    for chunk in producer_dirty.chunks(512) {
                        if tx.send(chunk.to_vec()).is_err() {
                            break;
                        }
                    }
                });
                session.drain(source, oracle_for);
                session.finish()
            });
            assert!(report.batches.len() > 1, "the stream really was batched");
            assert_stream_equals_batch(&report, &batch, &format!("{workers} workers"));
            assert_eq!(
                eval_merged(&report, &ds.inputs, 4),
                batch_metrics,
                "merged metric rows ({workers} workers)"
            );
        }
    }

    /// Batching shape is immaterial: the same stream drained from a
    /// [`SliceSource`] at several batch sizes merges to the same
    /// outcomes and counts.
    #[test]
    fn slice_source_batch_size_is_immaterial() {
        let (hosp, ds) = hosp_stream(200, 600, 0.0);
        let dirty = dirty_of(&ds);
        let oracle_for = |i: usize| SimulatedUser::new(ds.inputs[i].clean.clone());

        let mut whole = plain_session(&hosp, 2);
        whole.drain(SliceSource::new(&dirty), oracle_for);
        let whole = whole.finish();
        assert_eq!(whole.batches.len(), 1);

        for batch in [1usize, 7, 100, 600] {
            let mut session = plain_session(&hosp, 2);
            let drained = session.drain(SliceSource::with_batch(&dirty, batch), oracle_for);
            assert_eq!(drained, 600);
            assert_eq!(session.tuples_ingested(), 600);
            let report = session.finish();
            assert_eq!(report.batches.len(), 600usize.div_ceil(batch));
            for (i, (a, b)) in report.outcomes().zip(whole.outcomes()).enumerate() {
                assert_eq!(a.tuple, b.tuple, "tuple {i} at batch {batch}");
            }
            assert_eq!(report.stats.certain, whole.stats.certain);
            assert_eq!(report.stats.rounds, whole.stats.rounds);
            assert_eq!(report.tuples, whole.tuples);
        }
    }

    /// The channel convenience is equivalent to the slice source cut
    /// the same way (and so, transitively, to one sequential batch).
    #[test]
    fn stream_slice_matches_slice_source() {
        let (hosp, ds) = hosp_stream(150, 300, 0.0);
        let dirty = dirty_of(&ds);
        let oracle_for = |i: usize| SimulatedUser::new(ds.inputs[i].clean.clone());
        let mut sliced = plain_session(&hosp, 2);
        sliced.drain(SliceSource::with_batch(&dirty, 64), oracle_for);
        let sliced = sliced.finish();
        let mut streamed = plain_session(&hosp, 2);
        assert_eq!(streamed.stream_slice(&dirty, 64, 2, oracle_for), 300);
        let streamed = streamed.finish();
        assert_eq!(sliced.batches.len(), streamed.batches.len());
        for (i, (a, b)) in sliced.outcomes().zip(streamed.outcomes()).enumerate() {
            assert_eq!(a.tuple, b.tuple, "tuple {i}");
        }
        assert_eq!(sliced.stats.certain, streamed.stats.certain);
        assert_eq!(sliced.stats.rounds, streamed.stats.rounds);
    }

    /// The generator adapter streams exactly the batches the iterator
    /// generates, and its size hint counts the remaining tuples.
    #[test]
    fn batches_source_matches_the_generator() {
        let hosp = Hosp::generate(80);
        let cfg = DirtyConfig {
            input_size: 103,
            ..Default::default()
        };
        let expected: Vec<Vec<Tuple>> = Dataset::batches(&hosp, &cfg, 40)
            .map(|ds| ds.inputs.into_iter().map(|dt| dt.dirty).collect())
            .collect();

        let mut source = BatchesSource::new(Dataset::batches(&hosp, &cfg, 40));
        assert_eq!(source.size_hint(), (103, Some(103)));
        let mut seen = Vec::new();
        let mut remaining = 103usize;
        while let Some(batch) = source.next_batch() {
            remaining -= batch.len();
            assert_eq!(source.size_hint(), (remaining, Some(remaining)));
            seen.push(batch);
        }
        assert_eq!(seen, expected);
    }

    /// An owned session's engine-lifetime shared cache stays warm
    /// across the batches of one stream.
    #[test]
    fn session_shared_cache_warms_across_batches() {
        let (hosp, ds) = hosp_stream(150, 400, 0.0);
        let dirty = dirty_of(&ds);
        let mut session = RepairSessionBuilder::new(hosp.rules().clone(), hosp.master().clone())
            .bdd(true)
            .threads(2)
            .shared_cache(true)
            .build();
        session.drain(SliceSource::with_batch(&dirty, 100), |i| {
            SimulatedUser::new(ds.inputs[i].clean.clone())
        });
        assert!(!session.engine().shared_cache().is_empty());
        let global = session.engine().shared_cache().stats();
        let report = session.finish();
        assert_eq!(report.batches.len(), 4);
        let shared = report.shared.as_ref().expect("shared cache was on");
        assert_eq!(
            (shared.hits, shared.misses),
            (report.stats.shared_hits, report.stats.shared_misses),
            "per-batch attributed counters sum to the session's own probes"
        );
        assert_eq!(
            (shared.hits, shared.misses),
            (global.hits, global.misses),
            "one session over a fresh engine accounts for every global probe"
        );
        assert!(
            report.stats.shared_hits > 0,
            "later batches reused pooled suggestions: {shared:?}"
        );
        // offsets tile the stream
        let offsets: Vec<usize> = report.batches_with_offsets().map(|(o, _)| o).collect();
        assert_eq!(offsets, vec![0, 100, 200, 300]);
        assert_eq!(report.tuples, 400);
        let outcomes = report.into_outcomes();
        assert_eq!(outcomes.len(), 400);
    }

    /// A borrowed session leaves its pooled suggestions in the engine.
    #[test]
    fn borrowed_session_persists_the_engine_pool() {
        let (hosp, ds) = hosp_stream(100, 120, 0.0);
        let dirty = dirty_of(&ds);
        let engine = BatchRepairEngine::new(RepairContext::new(
            hosp.rules().clone(),
            hosp.master().clone(),
            true,
        ));
        let mut session = engine.session();
        session.drain(SliceSource::with_batch(&dirty, 60), |i| {
            SimulatedUser::new(ds.inputs[i].clean.clone())
        });
        let first = session.finish();
        assert_eq!(first.tuples, 120);
        assert!(
            !engine.shared_cache().is_empty(),
            "pool outlives the session"
        );

        // a later session over the same engine starts warm
        let mut warm = engine.session();
        warm.push_batch(&dirty[..60], |i| {
            SimulatedUser::new(ds.inputs[i].clean.clone())
        });
        let warm = warm.finish();
        assert!(warm.stats.shared_hits > 0, "warm pool served suggestions");
    }

    #[test]
    fn empty_sources_finish_empty() {
        let hosp = Hosp::generate(30);
        let mut session = plain_session(&hosp, 2);
        assert_eq!(
            session.drain(SliceSource::new(&[]), |_| SimulatedUser::new(
                hosp.master().tuple(0).clone()
            )),
            0
        );
        let (tx, source) = ChannelSource::bounded(1);
        drop(tx);
        assert_eq!(
            session.drain(source, |_| SimulatedUser::new(
                hosp.master().tuple(0).clone()
            )),
            0
        );
        let report = session.finish();
        assert!(report.batches.is_empty());
        assert_eq!(report.tuples, 0);
        assert_eq!(report.stats.tuples, 0);
        assert_eq!(report.throughput(), 0.0);
        assert!(report.shared.is_none());
    }

    #[test]
    fn channel_source_skips_empty_batches_and_tracks_its_hint() {
        let hosp = Hosp::generate(30);
        let t = hosp.master().tuple(0).clone();
        let (tx, mut source) = ChannelSource::bounded(4);
        let source_hint = {
            tx.send(Vec::new()).unwrap();
            tx.send(vec![t.clone(), t.clone()]).unwrap();
            tx.send(vec![t.clone()]).unwrap();
            drop(tx);
            source = source.with_size_hint(3, Some(3));
            assert_eq!(source.next_batch().map(|b| b.len()), Some(2));
            assert_eq!(source.size_hint(), (1, Some(1)));
            assert_eq!(source.next_batch().map(|b| b.len()), Some(1));
            assert!(source.next_batch().is_none());
            source.size_hint()
        };
        assert_eq!(source_hint, (0, Some(0)));
    }

    /// Producer-side disconnect mid-stream: a producer that dies (here:
    /// panics) with batches still buffered in the bounded channel must
    /// not lose them — the source drains every batch sent before the
    /// disconnect, in order, then reports end-of-stream, and a session
    /// drain over the truncated stream completes without panicking.
    #[test]
    fn channel_source_drains_buffered_batches_after_producer_disconnect() {
        let (hosp, ds) = hosp_stream(60, 24, 0.5);
        let dirty = dirty_of(&ds);

        // raw source level: 3 batches buffered, producer gone
        let (tx, mut source) = ChannelSource::bounded(4);
        let producer = {
            let chunks: Vec<Vec<Tuple>> = dirty.chunks(8).map(|c| c.to_vec()).collect();
            std::thread::spawn(move || {
                for c in chunks {
                    tx.send(c).unwrap();
                }
                panic!("producer dies mid-stream with its buffer full");
            })
        };
        assert!(producer.join().is_err(), "the producer did panic");
        let mut drained = Vec::new();
        while let Some(batch) = source.next_batch() {
            drained.extend(batch);
        }
        assert_eq!(drained, dirty, "every buffered batch survives, in order");
        assert!(source.next_batch().is_none(), "end-of-stream is sticky");

        // session level: the truncated stream repairs cleanly and the
        // report covers exactly the tuples that made it through
        let (tx, source) = ChannelSource::bounded(2);
        let mut session = plain_session(&hosp, 2);
        let drained = std::thread::scope(|s| {
            let producer_dirty = &dirty;
            s.spawn(move || {
                // send half the stream, then vanish without a goodbye
                for c in producer_dirty[..16].chunks(4) {
                    if tx.send(c.to_vec()).is_err() {
                        break;
                    }
                }
            });
            session.drain(source, |i| SimulatedUser::new(ds.inputs[i].clean.clone()))
        });
        assert_eq!(drained, 16);
        let report = session.finish();
        assert_eq!(report.tuples, 16);
        assert_eq!(report.stats.tuples, 16);
        // the truncated stream is bit-identical to intentionally
        // draining only those 16 tuples
        let mut solo = plain_session(&hosp, 1);
        solo.drain(SliceSource::with_batch(&dirty[..16], 4), |i| {
            SimulatedUser::new(ds.inputs[i].clean.clone())
        });
        let solo = solo.finish();
        for (i, (a, b)) in report.outcomes().zip(solo.outcomes()).enumerate() {
            assert_eq!(a, b, "tuple {i}");
        }
    }

    /// The D10 contract at the session level: a session whose master
    /// grows through `MasterDelta`s between batches is bit-identical —
    /// outcomes and logical plan probes — to fresh engines built from
    /// scratch over each corresponding master state, at 1, 2, and 4
    /// workers. Each batch repairs wholly against the generation
    /// current when it was pushed, the generations recorded on the
    /// batch reports strictly increase across the hand-offs, and the
    /// merged report counts the rebuilds. Run on HOSP and on DBLP,
    /// whose 3- and 5-attribute keys take the wide-group block path.
    #[test]
    fn deltas_between_batches_match_rebuilt_masters_1_2_4() {
        let workloads: [Box<dyn GenWorkload>; 2] =
            [Box::new(Hosp::generate(250)), Box::new(Dblp::generate(250))];
        for w in &workloads {
            let name = w.name();
            let ds = dirty_stream(w.as_ref(), 1_200, 0.6);
            let dirty = dirty_of(&ds);
            let oracle_for = |i: usize| SimulatedUser::new(ds.inputs[i].clean.clone());
            let full = w.master().clone();
            let n = full.len();
            // three master states: 40 rows short, 20 rows short, complete
            let state = |upto: usize| {
                Arc::new(
                    Relation::new(full.schema().clone(), full.tuples()[..upto].to_vec())
                        .expect("prefix master"),
                )
            };
            let states = [state(n - 40), state(n - 20), full.clone()];
            let cuts = [0usize, 400, 800, 1_200];
            for workers in [1usize, 2, 4] {
                let mut session = RepairSessionBuilder::new(w.rules().clone(), states[0].clone())
                    .threads(workers)
                    .shared_cache(false)
                    .build();
                for k in 0..3 {
                    session.push_batch(&dirty[cuts[k]..cuts[k + 1]], oracle_for);
                    if k < 2 {
                        let mut delta = MasterDelta::new();
                        for t in &full.tuples()[n - 40 + 20 * k..n - 20 + 20 * k] {
                            delta = delta.insert(t.clone());
                        }
                        let generation = session.apply_master_delta(&delta).expect("delta applies");
                        assert_eq!(generation, session.generation());
                    }
                }
                let report = session.finish();
                assert_eq!(
                    report.stats.plan_rebuilds, 2,
                    "{name}: both hand-offs counted"
                );
                assert!(report.batches[0].generation < report.batches[1].generation);
                assert!(report.batches[1].generation < report.batches[2].generation);
                for k in 0..3 {
                    let fresh = BatchRepairEngine::new(RepairContext::new(
                        w.rules().clone(),
                        states[k].clone(),
                        false,
                    ));
                    let opts = RepairOptions {
                        threads: 1,
                        shared_cache: false,
                        ..RepairOptions::default()
                    };
                    let (lo, hi) = (cuts[k], cuts[k + 1]);
                    let want = fresh.repair_opts(&dirty[lo..hi], &opts, |i| oracle_for(lo + i));
                    let got = &report.batches[k];
                    let what = format!("{name}: batch {k}, {workers} workers");
                    assert_eq!(got.outcomes.len(), want.outcomes.len(), "{what}");
                    for (i, (a, b)) in got.outcomes.iter().zip(&want.outcomes).enumerate() {
                        assert_eq!(a.tuple, b.tuple, "tuple {i} ({what})");
                        assert_eq!(a.certain, b.certain, "tuple {i} ({what})");
                        assert_eq!(a.validated, b.validated, "tuple {i} ({what})");
                    }
                    assert_eq!(
                        got.stats.plan_probes, want.stats.plan_probes,
                        "probes ({what})"
                    );
                }
            }
        }
    }

    /// CFD repair folded into the session is tuple-for-tuple identical
    /// to the retired standalone IncRep loop (one `repair_tuple` call
    /// per row against the indexed master), across worker counts —
    /// the legacy entry point's output now flows through the unified
    /// session surface.
    #[test]
    fn cfd_session_matches_the_standalone_increp_loop() {
        let (hosp, ds) = hosp_stream(200, 500, 0.0);
        let dirty = dirty_of(&ds);
        let cfg = IncRepConfig::default();
        // the retired whole-relation increp() loop, inlined
        let (cfds, _skipped) = rules_to_cfds(hosp.rules());
        assert!(!cfds.is_empty(), "HOSP rules convert to CFDs");
        let reference = MasterIndex::new(hosp.master().clone());
        let legacy: Vec<_> = dirty
            .iter()
            .map(|t| repair_tuple(&cfds, t, &reference, &cfg))
            .collect();

        for workers in [1usize, 3] {
            let mut session =
                RepairSessionBuilder::new(hosp.rules().clone(), hosp.master().clone())
                    .workload(Workload::Cfd(cfg.clone()))
                    .threads(workers)
                    .shared_cache(false)
                    .build();
            session.drain(SliceSource::with_batch(&dirty, 128), |i| {
                SimulatedUser::new(ds.inputs[i].clean.clone())
            });
            let report = session.finish();
            assert_eq!(report.tuples, 500);
            assert_eq!(report.stats.rounds, 0, "cost-based repair has no rounds");
            for (i, (out, want)) in report.outcomes().zip(&legacy).enumerate() {
                assert_eq!(out.tuple, want.tuple, "tuple {i} ({workers} workers)");
                assert_eq!(out.certain, want.unresolved == 0, "tuple {i}");
                assert!(out.rounds.is_empty(), "tuple {i}");
                let mut changed = AttrSet::EMPTY;
                for c in &want.changes {
                    changed.insert(c.attr);
                }
                assert_eq!(out.rule_fixed, changed, "tuple {i}");
            }
        }
    }
}
