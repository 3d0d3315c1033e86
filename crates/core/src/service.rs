//! The multi-session repair service: fair multiplexing of N
//! [`TupleSource`] streams over one engine.
//!
//! The paper's monitor repairs *one* stream of dirty tuples against one
//! master relation; a deployment is rarely that lucky. [`RepairService`]
//! is the service shape the ROADMAP aims at: one
//! [`BatchRepairEngine`] — one compiled
//! [`RulePlan`](certainfix_rules::RulePlan), one
//! [`SharedSuggestionCache`](crate::SharedSuggestionCache), one
//! work-stealing worker pool — shared by N independent sessions, each
//! with its own [`TupleSource`], its own oracle space, and its own
//! [`SessionReport`].
//!
//! # Architecture
//!
//! Ingest and repair are separate lanes over one shared context
//! (the HTAP-style isolation: producers never run repair code, repair
//! workers never block on a producer):
//!
//! * **Ingest lanes** — one feeder thread per stream pulls
//!   `next_batch()` into a *bounded* channel of
//!   [`ServiceOptions::depth`] in-flight batches. The bound is real
//!   backpressure: a producer that outruns the repair pool blocks in
//!   `send`, and a producer that stalls simply leaves its lane empty —
//!   it can never wedge the pool, because the scheduler only ever
//!   *try*-receives.
//! * **Epoch scheduler** — the caller's thread repeatedly collects at
//!   most one pending batch per session (polling sessions round-robin,
//!   skipping lanes with nothing ready) and submits the collected
//!   batches, one unit each, as one epoch to the engine's fan-out — the
//!   very function a [`RepairSession`](crate::RepairSession) batch runs
//!   through as a one-unit epoch. The fan-out chunks every unit,
//!   interleaves the chunks round-robin across the sessions, and lets
//!   its workers claim them; a claimed chunk stays one probe block of
//!   one session, and statistics are charged per `(worker, session)` so
//!   every session's numbers stay attributable.
//! * **Repair lanes** — the fan-out's workers, the scheduler's own
//!   thread being worker 0: a one-worker service repairs on the thread
//!   that called [`RepairService::run`] and spawns nothing per epoch.
//!   The service itself keeps only its lanes, its fair poll and the
//!   folding of each session's reports.
//!
//! # Live master data
//!
//! The service's scheduler epoch is also the *master-epoch boundary*:
//! each scheduler epoch pins the context's current
//! [`MasterEpoch`](crate::MasterEpoch) once, so a
//! [`RepairContext::apply_master_delta`](crate::RepairContext::apply_master_delta)
//! issued while the service runs never perturbs chunks already fanned
//! out — the in-flight epoch finishes on its pinned generation, and
//! the next scheduler epoch picks up the new one. Every
//! [`BatchReport`] a session accumulates records the
//! [`generation`](BatchReport::generation) it repaired against, so a
//! stream's reports show exactly where the hand-off landed in its own
//! stream order.
//!
//! # Fairness
//!
//! Per epoch, every session with a batch ready contributes exactly one
//! batch, and the chunk interleaving deals the sessions' chunks
//! round-robin — so a 10×-larger batch costs its owner proportionally
//! more epochs, not a monopoly on the pool, and the poll rotation means
//! no session is systematically served first. Fairness is *work-
//! conserving*: a session with nothing ready is skipped, never waited
//! for.
//!
//! # Determinism: interleaving-independence
//!
//! Every tuple's repair depends only on the tuple, its oracle, and the
//! shared immutable context. A session's tuples are chunked in stream
//! order, each chunk is one probe block of that session alone, and
//! block probing is bit-identical at every block size (the PR 6
//! contract), so for plain `CertainFix` (`bdd(false)`, shared cache
//! off) each session's outcomes and merged deterministic
//! [`MonitorStats`] counts (`tuples`, `certain`, `rounds`,
//! `plan_probes`, `plan_fallbacks`) are **bit-identical to draining
//! that session alone through a [`RepairSession`](crate::RepairSession)**
//! — regardless of
//! how many other sessions run concurrently, how the epochs happen to
//! compose, or the worker count — and the aggregate
//! [`ServiceReport::stats`] merge equals running the sessions one at a
//! time. Wall-clock observables (`elapsed`, the interner watermark,
//! `probe_allocs`, per-epoch worker breakdowns) are exempt as always.
//! With the shared cache on, a scheduler epoch reads the pool committed
//! before it and commits its publishes session by session, each in
//! stream order — so what a session is served depends on which epochs
//! it shared with whom, not on the worker count. Per-session attributed
//! `hits`/`misses` always sum to the engine-global cache counters.
//!
//! ```
//! use certainfix_core::service::{RepairServiceBuilder, ServiceStream};
//! use certainfix_core::session::SliceSource;
//! use certainfix_core::SimulatedUser;
//! use certainfix_datagen::{Dataset, DirtyConfig, Hosp, Workload};
//!
//! let hosp = Hosp::generate(100);
//! let mk = |seed| {
//!     Dataset::generate(&hosp, &DirtyConfig { input_size: 30, seed, ..Default::default() })
//! };
//! let (a, b) = (mk(1), mk(2));
//! let (da, db): (Vec<_>, Vec<_>) = (
//!     a.inputs.iter().map(|dt| dt.dirty.clone()).collect(),
//!     b.inputs.iter().map(|dt| dt.dirty.clone()).collect(),
//! );
//!
//! let service = RepairServiceBuilder::new(hosp.rules().clone(), hosp.master().clone())
//!     .threads(2)
//!     .build();
//! let report = service.run(vec![
//!     ServiceStream::new("tenant-a", SliceSource::with_batch(&da, 8), |i| {
//!         SimulatedUser::new(a.inputs[i].clean.clone())
//!     }),
//!     ServiceStream::new("tenant-b", SliceSource::with_batch(&db, 8), |i| {
//!         SimulatedUser::new(b.inputs[i].clean.clone())
//!     }),
//! ]);
//! assert_eq!(report.sessions.len(), 2);
//! assert_eq!(report.tuples, 60);
//! assert_eq!(report.session("tenant-a").unwrap().tuples, 30);
//! ```

use std::sync::mpsc::{channel, sync_channel, Receiver, Sender, TryRecvError};
use std::time::{Duration, Instant};

use certainfix_relation::{Relation, Tuple};
use certainfix_rules::RuleSet;
use std::sync::Arc;

use crate::bdd::BddStats;
use crate::certainfix::CertainFixConfig;
use crate::engine::{
    BatchRepairEngine, BatchReport, RepairContext, RepairOptions, Schedule, Workload,
};
use crate::monitor::{InitialRegion, MonitorStats};
use crate::oracle::UserOracle;
use crate::session::{SessionReport, TupleSource};
use crate::sharedcache::SharedCacheStats;

/// A boxed oracle as the service hands them to its workers.
pub type BoxedOracle<'a> = Box<dyn UserOracle + 'a>;

type OracleFactory<'a> = Box<dyn Fn(usize) -> BoxedOracle<'a> + Send + Sync + 'a>;

/// One stream a [`RepairService`] multiplexes: a name (for the
/// report), a [`TupleSource`], and the stream's oracle factory.
///
/// The factory receives the **session-local stream index** — the
/// number of tuples this stream yielded before the one being repaired
/// — exactly the index a solo [`RepairSession`](crate::RepairSession)
/// drain would pass. Index spaces of different streams never mix, and
/// like the engine's, the factory is called from worker threads and
/// must depend only on the index.
pub struct ServiceStream<'a> {
    name: String,
    source: Box<dyn TupleSource + Send + 'a>,
    oracle_for: OracleFactory<'a>,
}

impl<'a> ServiceStream<'a> {
    /// Bundle a named stream. `source` yields the stream in order (the
    /// [`TupleSource`] contract); `oracle_for(i)` supplies the user for
    /// the stream's `i`-th tuple.
    pub fn new<S, F, O>(name: impl Into<String>, source: S, oracle_for: F) -> ServiceStream<'a>
    where
        S: TupleSource + Send + 'a,
        F: Fn(usize) -> O + Send + Sync + 'a,
        O: UserOracle + 'a,
    {
        ServiceStream {
            name: name.into(),
            source: Box::new(source),
            oracle_for: Box::new(move |i| Box::new(oracle_for(i)) as BoxedOracle<'a>),
        }
    }

    /// The stream's name, as it will appear in the report.
    pub fn name(&self) -> &str {
        &self.name
    }
}

/// An event [`RepairService::run_dynamic`] emits to a session's
/// observer channel (if one was supplied at attach time): one
/// [`Batch`](SessionEvent::Batch) per scheduler epoch the session took
/// part in, then exactly one [`Finished`](SessionEvent::Finished) once
/// its lane is drained and the final report folded. The `net` crate's
/// `RepairServer` turns these into response frames.
#[derive(Clone, Debug)]
pub enum SessionEvent {
    /// The session's [`BatchReport`] for one completed epoch, in the
    /// session's own stream order.
    Batch(BatchReport),
    /// The session's source is exhausted (or its producer went away)
    /// and every buffered batch has been repaired; this is the same
    /// report the final [`ServiceReport`] will carry.
    Finished(SessionReport),
}

/// One dynamically attached session in flight to the scheduler.
struct DynamicSession<'a> {
    stream: ServiceStream<'a>,
    events: Option<Sender<SessionEvent>>,
}

/// The attach side of [`attach_channel`]: clonable, sendable to other
/// threads, hands new [`ServiceStream`]s to a running
/// [`RepairService::run_dynamic`]. Dropping every clone is the
/// shutdown signal — the service finishes draining the sessions it
/// has, then returns.
pub struct ServiceAttach<'a> {
    /// `Some` until `drop`, which must disconnect it *before* it rings.
    tx: Option<Sender<DynamicSession<'a>>>,
    bell: Sender<()>,
}

impl<'a> Clone for ServiceAttach<'a> {
    fn clone(&self) -> Self {
        ServiceAttach {
            tx: self.tx.clone(),
            bell: self.bell.clone(),
        }
    }
}

impl<'a> ServiceAttach<'a> {
    /// Hand a new stream to the scheduler. `events`, if given,
    /// receives one [`SessionEvent::Batch`] per epoch the session
    /// participates in and a final [`SessionEvent::Finished`]. Returns
    /// the stream back if the service already returned.
    pub fn attach(
        &self,
        stream: ServiceStream<'a>,
        events: Option<Sender<SessionEvent>>,
    ) -> Result<(), ServiceStream<'a>> {
        self.tx
            .as_ref()
            .expect("the sender lives until drop")
            .send(DynamicSession { stream, events })
            .map_err(|e| e.0.stream)?;
        let _ = self.bell.send(());
        Ok(())
    }
}

impl<'a> Drop for ServiceAttach<'a> {
    fn drop(&mut self) {
        // disconnect first, then wake a blocked scheduler so it
        // notices (rings are buffered, never lost). Ringing first
        // loses the wake-up: the woken scheduler can run before the
        // field drop, still see the queue connected, and go back to
        // sleep until its backstop timeout
        drop(self.tx.take());
        let _ = self.bell.send(());
    }
}

/// The receive side of [`attach_channel`], consumed by
/// [`RepairService::run_dynamic`].
pub struct AttachQueue<'a> {
    rx: Receiver<DynamicSession<'a>>,
    bell_tx: Sender<()>,
    bell_rx: Receiver<()>,
}

/// Create the attach handle / queue pair for
/// [`RepairService::run_dynamic`]. The handle end is clonable and may
/// outlive any individual session; the service returns once every
/// handle is dropped *and* every attached session has drained.
pub fn attach_channel<'a>() -> (ServiceAttach<'a>, AttachQueue<'a>) {
    let (tx, rx) = channel();
    let (bell_tx, bell_rx) = channel();
    (
        ServiceAttach {
            tx: Some(tx),
            bell: bell_tx.clone(),
        },
        AttachQueue {
            rx,
            bell_tx,
            bell_rx,
        },
    )
}

/// Knobs of one [`RepairService`]: the pool shape plus the per-session
/// ingest-lane depth. The service is steal-only (fair multiplexing
/// *is* chunked stealing; a contiguous shard per worker would undo the
/// session interleave).
#[derive(Clone, Copy, Debug)]
pub struct ServiceOptions {
    /// Worker threads of the shared repair pool (`0` = one per
    /// available core).
    pub threads: usize,
    /// Chunk granularity (`0` = auto per collected batch: about 8
    /// chunks per worker, capped at 512 tuples). A chunk is also the
    /// probe-block unit.
    pub chunk: usize,
    /// Pool computed suggestions in the engine-lifetime
    /// [`SharedSuggestionCache`](crate::SharedSuggestionCache), shared
    /// by *all* sessions (one pool, not per-tenant copies).
    pub shared_cache: bool,
    /// Bounded ingest-lane depth: batches a producer may have in
    /// flight before its `send` blocks (clamped to at least 1).
    pub depth: usize,
}

impl Default for ServiceOptions {
    fn default() -> Self {
        ServiceOptions {
            threads: 1,
            chunk: 0,
            shared_cache: true,
            depth: 2,
        }
    }
}

/// Configures and builds an owned [`RepairService`] — the multi-stream
/// sibling of [`RepairSessionBuilder`](crate::RepairSessionBuilder),
/// with the same precomputation knobs.
#[derive(Clone)]
pub struct RepairServiceBuilder {
    rules: RuleSet,
    master: Arc<Relation>,
    use_bdd: bool,
    initial: InitialRegion,
    config: CertainFixConfig,
    workload: Workload,
    opts: ServiceOptions,
}

impl RepairServiceBuilder {
    /// A service over `(Σ, Dm)` with the defaults: plain `CertainFix`,
    /// best initial region, one worker, shared cache on, lane depth 2.
    pub fn new(rules: RuleSet, master: Arc<Relation>) -> RepairServiceBuilder {
        RepairServiceBuilder {
            rules,
            master,
            use_bdd: false,
            initial: InitialRegion::default(),
            config: CertainFixConfig::default(),
            workload: Workload::default(),
            opts: ServiceOptions::default(),
        }
    }

    /// Serve suggestions from per-worker BDD caches (`CertainFix+`).
    pub fn bdd(mut self, on: bool) -> Self {
        self.use_bdd = on;
        self
    }

    /// What runs per tuple: editing-rule repair (default) or the
    /// `IncRep`-style CFD baseline ([`Workload::Cfd`]). One workload
    /// per service — it is part of the shared context, not per-stream.
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

    /// Worker threads of the shared pool (`0` = one per core).
    pub fn threads(mut self, threads: usize) -> Self {
        self.opts.threads = threads;
        self
    }

    /// Chunk / probe-block granularity (`0` = auto).
    pub fn chunk(mut self, chunk: usize) -> Self {
        self.opts.chunk = chunk;
        self
    }

    /// Pool computed suggestions across sessions.
    pub fn shared_cache(mut self, on: bool) -> Self {
        self.opts.shared_cache = on;
        self
    }

    /// Bounded ingest-lane depth per session.
    pub fn depth(mut self, depth: usize) -> Self {
        self.opts.depth = depth;
        self
    }

    /// Replace all service knobs at once.
    pub fn options(mut self, opts: ServiceOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Build the precomputation and the service (owning its engine).
    pub fn build(self) -> RepairService {
        let engine = BatchRepairEngine::new(RepairContext::with_workload(
            self.rules,
            self.master,
            self.use_bdd,
            self.initial,
            self.config,
            self.workload,
        ));
        RepairService::from_engine(engine, self.opts)
    }
}

/// The session multiplexer; see the [module docs](self) for the
/// architecture and the fairness / determinism contract.
///
/// A service owns one engine and is reusable: each [`run`](Self::run)
/// multiplexes one set of streams to completion, and the engine-
/// lifetime shared cache stays warm across runs (exactly as it does
/// across the batches of a solo session).
pub struct RepairService {
    engine: BatchRepairEngine,
    opts: ServiceOptions,
}

impl RepairService {
    /// Wrap a prepared engine.
    pub fn from_engine(engine: BatchRepairEngine, opts: ServiceOptions) -> RepairService {
        RepairService { engine, opts }
    }

    /// The shared engine.
    pub fn engine(&self) -> &BatchRepairEngine {
        &self.engine
    }

    /// The service knobs every run uses.
    pub fn options(&self) -> &ServiceOptions {
        &self.opts
    }

    /// Multiplex `streams` to completion and report per-session plus
    /// aggregate results. Returns when every stream's source is
    /// exhausted; sessions that finish early simply stop contributing
    /// epochs while the rest keep the pool busy.
    pub fn run(&self, streams: Vec<ServiceStream<'_>>) -> ServiceReport {
        let (attach, queue) = attach_channel();
        for stream in streams {
            let _ = attach.attach(stream, None);
        }
        drop(attach);
        self.run_dynamic(queue)
    }

    /// Multiplex a *dynamic* set of streams: sessions attach (and
    /// detach, by exhausting their source) while the service runs.
    /// Consumes the [`AttachQueue`] half of an [`attach_channel`];
    /// returns once every [`ServiceAttach`] clone is dropped and every
    /// attached session has drained — the drain-then-shutdown path.
    /// Scheduling, fairness, and the determinism contract are exactly
    /// [`run`](Self::run)'s (which is this method with all sessions
    /// attached up front): a session's outcomes depend only on its own
    /// stream, never on when its neighbours arrived.
    pub fn run_dynamic(&self, queue: AttachQueue<'_>) -> ServiceReport {
        let started = Instant::now();
        let rebuilds_at_start = self.engine.context().plan_rebuilds();
        // fair multiplexing *is* chunked stealing: a contiguous shard
        // per worker would undo the session interleave
        let opts = RepairOptions {
            threads: self.opts.threads,
            schedule: Schedule::Steal,
            shared_cache: self.opts.shared_cache,
            chunk: self.opts.chunk,
        };
        let depth = self.opts.depth.max(1);

        let mut names: Vec<String> = Vec::new();
        let mut factories: Vec<OracleFactory<'_>> = Vec::new();
        let mut acc: Vec<SessionAcc> = Vec::new();
        let mut done: Vec<Option<SessionReport>> = Vec::new();
        let mut epochs = 0u64;

        std::thread::scope(|scope| {
            // ingest lanes: one feeder per attached stream, bounded
            // channel, plus the queue's doorbell so an idle scheduler
            // blocks instead of spinning
            let mut lanes: Vec<Receiver<Vec<Tuple>>> = Vec::new();
            let mut open: Vec<bool> = Vec::new();
            let mut finished: Vec<bool> = Vec::new();
            let mut events: Vec<Option<Sender<SessionEvent>>> = Vec::new();
            let mut attach_open = true;
            // rotate which session is polled first so no stream is
            // systematically served ahead of the others
            let mut first = 0usize;
            loop {
                // admit newly attached sessions before each poll sweep
                while attach_open {
                    match queue.rx.try_recv() {
                        Ok(ds) => {
                            let (tx, rx) = sync_channel::<Vec<Tuple>>(depth);
                            let bell = queue.bell_tx.clone();
                            let source = ds.stream.source;
                            scope.spawn(move || {
                                let mut source = source;
                                while let Some(batch) = source.next_batch() {
                                    if batch.is_empty() {
                                        continue;
                                    }
                                    if tx.send(batch).is_err() {
                                        break; // the service stopped draining
                                    }
                                    let _ = bell.send(());
                                }
                                // dropping tx disconnects the lane; ring
                                // once more so a blocked scheduler
                                // notices the end
                                drop(tx);
                                let _ = bell.send(());
                            });
                            names.push(ds.stream.name);
                            factories.push(ds.stream.oracle_for);
                            acc.push(SessionAcc::default());
                            done.push(None);
                            lanes.push(rx);
                            open.push(true);
                            finished.push(false);
                            events.push(ds.events);
                        }
                        Err(TryRecvError::Empty) => break,
                        Err(TryRecvError::Disconnected) => {
                            attach_open = false;
                        }
                    }
                }

                let n = lanes.len();
                let mut collected: Vec<(usize, Vec<Tuple>)> = Vec::new();
                for k in 0..n {
                    let s = (first + k) % n;
                    if !open[s] {
                        continue;
                    }
                    match lanes[s].try_recv() {
                        Ok(batch) => collected.push((s, batch)),
                        Err(TryRecvError::Empty) => {}
                        Err(TryRecvError::Disconnected) => open[s] = false,
                    }
                }
                if n > 0 {
                    first = (first + 1) % n;
                }

                let idle = collected.is_empty();
                if !idle {
                    epochs += 1;
                    // one unit per collected batch, its oracles keyed by
                    // the session-local stream offset the batch starts at
                    let units: Vec<_> = collected
                        .iter()
                        .map(|(s, tuples)| {
                            let (factory, base) = (&factories[*s], acc[*s].tuples);
                            (tuples.as_slice(), move |i: usize| factory(base + i))
                        })
                        .collect();
                    let reports = self.engine.fan_out(&units, &opts);
                    for (&(s, _), report) in collected.iter().zip(reports) {
                        if let Some(ev) = &events[s] {
                            let _ = ev.send(SessionEvent::Batch(report.clone()));
                        }
                        acc[s].tuples += report.outcomes.len();
                        acc[s].wall += report.wall;
                        acc[s].batches.push(report);
                    }
                }

                // finalize drained sessions promptly — a disconnected
                // lane has, by mpsc semantics, already yielded every
                // buffered batch — so observers get `Finished` while
                // their neighbours keep running
                for s in 0..n {
                    if !open[s] && !finished[s] {
                        finished[s] = true;
                        let a = std::mem::take(&mut acc[s]);
                        let mut report = SessionReport::from_batches(&a.batches, a.wall, a.tuples);
                        report.batches = a.batches;
                        if let Some(ev) = events[s].take() {
                            let _ = ev.send(SessionEvent::Finished(report.clone()));
                        }
                        done[s] = Some(report);
                    }
                }

                if idle {
                    if !attach_open && !open.iter().any(|&o| o) {
                        break; // no attachers left, every stream drained
                    }
                    // nothing ready: sleep until a feeder or attacher
                    // rings; rings are buffered so wakeups are never
                    // lost — the timeout is a belt-and-braces backstop
                    let _ = queue.bell_rx.recv_timeout(Duration::from_millis(25));
                }
            }
        });

        let mut sessions = Vec::with_capacity(names.len());
        let mut stats = MonitorStats::default();
        let mut bdd = BddStats::default();
        let mut shared: Option<SharedCacheStats> = None;
        let mut tuples = 0usize;
        for (name, report) in names.into_iter().zip(done) {
            let report = report.expect("every attached session is finalized before exit");
            stats.merge(&report.stats);
            bdd.merge(&report.bdd);
            if let Some(s) = &report.shared {
                let agg = shared.get_or_insert_with(SharedCacheStats::default);
                agg.hits += s.hits;
                agg.misses += s.misses;
            }
            tuples += report.tuples;
            sessions.push(NamedSessionReport { name, report });
        }
        // attributed counters summed over the sessions; pool occupancy
        // and the lifetime counters are the engine's final snapshot
        let shared = shared.map(|agg| self.engine.shared_cache().attributed(agg.hits, agg.misses));
        // deltas reach the context from sessions' callers and from
        // connection handlers alike; the context counts them all
        stats.plan_rebuilds = self.engine.context().plan_rebuilds() - rebuilds_at_start;
        ServiceReport {
            sessions,
            stats,
            bdd,
            shared,
            wall: started.elapsed(),
            epochs,
            tuples,
        }
    }
}

/// Per-session accumulation across epochs.
#[derive(Default)]
struct SessionAcc {
    batches: Vec<BatchReport>,
    tuples: usize,
    wall: Duration,
}

/// One multiplexed session's result: the stream's name plus a
/// [`SessionReport`] shaped exactly like a solo drain of the same
/// source (outcomes in the stream's own input order; batch boundaries
/// are the epochs the session took part in).
#[derive(Clone, Debug)]
pub struct NamedSessionReport {
    /// The [`ServiceStream`]'s name.
    pub name: String,
    /// The session's report.
    pub report: SessionReport,
}

/// The aggregate result of one [`RepairService::run`].
#[derive(Clone, Debug)]
pub struct ServiceReport {
    /// Per-session reports, in the order the streams were passed.
    pub sessions: Vec<NamedSessionReport>,
    /// Merged monitor statistics over all sessions — for the
    /// deterministic count fields, equal to running the sessions one
    /// at a time and merging.
    pub stats: MonitorStats,
    /// Merged BDD statistics over all sessions.
    pub bdd: BddStats,
    /// Shared-cache statistics: attributed `hits` / `misses` summed
    /// over the sessions (equal to the engine-global probe counters
    /// this run added), pool occupancy from the engine's final
    /// snapshot. `None` when the shared cache was off.
    pub shared: Option<SharedCacheStats>,
    /// End-to-end wall clock of the run, *including* time spent
    /// waiting on producers (unlike the per-session `wall`s, which sum
    /// only repair epochs).
    pub wall: Duration,
    /// Scheduler epochs executed.
    pub epochs: u64,
    /// Total tuples repaired across all sessions.
    pub tuples: usize,
}

impl ServiceReport {
    /// Look up one session's report by stream name (the first match,
    /// if names were reused).
    pub fn session(&self, name: &str) -> Option<&SessionReport> {
        self.sessions
            .iter()
            .find(|s| s.name == name)
            .map(|s| &s.report)
    }

    /// Aggregate throughput in tuples per second (end-to-end wall).
    pub fn throughput(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.tuples as f64 / secs
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::SimulatedUser;
    use crate::session::{RepairSessionBuilder, SliceSource};
    use certainfix_datagen::{Dataset, DirtyConfig, Hosp, Workload};
    use certainfix_relation::{MasterDelta, Value};

    fn hosp_sessions(dm: usize, sizes: &[usize]) -> (Hosp, Vec<Dataset>) {
        let hosp = Hosp::generate(dm);
        let datasets = sizes
            .iter()
            .enumerate()
            .map(|(i, &n)| {
                Dataset::generate(
                    &hosp,
                    &DirtyConfig {
                        duplicate_rate: 0.3,
                        noise_rate: 0.2,
                        input_size: n,
                        seed: 0x05E5_510A ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9),
                        skew: if i == 0 { 1.0 } else { 0.0 },
                        ..DirtyConfig::default()
                    },
                )
            })
            .collect();
        (hosp, datasets)
    }

    fn dirty_of(ds: &Dataset) -> Vec<Tuple> {
        ds.inputs.iter().map(|dt| dt.dirty.clone()).collect()
    }

    /// The tentpole determinism test: three unevenly sized HOSP
    /// streams (one skewed) multiplexed at 1, 2, and 4 workers — each
    /// session's outcomes and deterministic merged counts are
    /// bit-identical to draining that session alone through a solo
    /// [`RepairSession`], and the aggregate merge equals the sum of
    /// the solo runs.
    #[test]
    fn multiplexed_sessions_match_solo_runs_1_2_4() {
        let (hosp, datasets) = hosp_sessions(200, &[900, 150, 420]);
        let dirty: Vec<Vec<Tuple>> = datasets.iter().map(dirty_of).collect();

        // solo baselines: each stream drained alone, sequentially
        let solo: Vec<SessionReport> = datasets
            .iter()
            .zip(&dirty)
            .map(|(ds, tuples)| {
                let mut session =
                    RepairSessionBuilder::new(hosp.rules().clone(), hosp.master().clone())
                        .threads(1)
                        .shared_cache(false)
                        .build();
                session.drain(SliceSource::with_batch(tuples, 128), |i| {
                    SimulatedUser::new(ds.inputs[i].clean.clone())
                });
                session.finish()
            })
            .collect();

        for workers in [1usize, 2, 4] {
            let service = RepairServiceBuilder::new(hosp.rules().clone(), hosp.master().clone())
                .threads(workers)
                .shared_cache(false)
                .build();
            let streams = datasets
                .iter()
                .zip(&dirty)
                .enumerate()
                .map(|(s, (ds, tuples))| {
                    ServiceStream::new(
                        format!("s{s}"),
                        SliceSource::with_batch(tuples, 128),
                        move |i: usize| SimulatedUser::new(ds.inputs[i].clean.clone()),
                    )
                })
                .collect();
            let report = service.run(streams);
            assert_eq!(report.sessions.len(), 3);
            assert!(report.epochs > 0);
            let mut merged = MonitorStats::default();
            for (s, named) in report.sessions.iter().enumerate() {
                let (got, want) = (&named.report, &solo[s]);
                assert_eq!(named.name, format!("s{s}"));
                assert_eq!(got.tuples, want.tuples, "session {s}, {workers} workers");
                for (i, (a, b)) in got.outcomes().zip(want.outcomes()).enumerate() {
                    assert_eq!(
                        a.tuple, b.tuple,
                        "session {s} tuple {i} ({workers} workers)"
                    );
                    assert_eq!(a.certain, b.certain, "session {s} tuple {i}");
                    assert_eq!(a.validated, b.validated, "session {s} tuple {i}");
                    assert_eq!(a.rounds.len(), b.rounds.len(), "session {s} tuple {i}");
                }
                // the deterministic MonitorStats fields, bit-for-bit
                assert_eq!(got.stats.tuples, want.stats.tuples, "session {s}");
                assert_eq!(got.stats.certain, want.stats.certain, "session {s}");
                assert_eq!(got.stats.rounds, want.stats.rounds, "session {s}");
                assert_eq!(got.stats.plan_probes, want.stats.plan_probes, "session {s}");
                assert_eq!(
                    got.stats.plan_fallbacks, want.stats.plan_fallbacks,
                    "session {s}"
                );
                merged.merge(&got.stats);
            }
            // the aggregate is the order-independent merge of the
            // per-session stats — i.e. the sequential one-at-a-time run
            assert_eq!(report.stats.tuples, merged.tuples);
            assert_eq!(report.stats.certain, merged.certain);
            assert_eq!(report.stats.rounds, merged.rounds);
            assert_eq!(report.stats.plan_probes, merged.plan_probes);
            assert_eq!(report.tuples, 900 + 150 + 420);
            assert!(report.shared.is_none(), "shared cache was off");
        }
    }

    /// The satellite identity at the service level: with the shared
    /// cache on, per-session attributed hit/miss counters sum exactly
    /// to the engine-global cache-side counters.
    #[test]
    fn attributed_shared_counters_sum_to_engine_global() {
        let (hosp, datasets) = hosp_sessions(150, &[300, 200]);
        let dirty: Vec<Vec<Tuple>> = datasets.iter().map(dirty_of).collect();
        let service = RepairServiceBuilder::new(hosp.rules().clone(), hosp.master().clone())
            .bdd(true)
            .threads(3)
            .shared_cache(true)
            .build();
        let streams = datasets
            .iter()
            .zip(&dirty)
            .enumerate()
            .map(|(s, (ds, tuples))| {
                ServiceStream::new(
                    format!("s{s}"),
                    SliceSource::with_batch(tuples, 64),
                    move |i: usize| SimulatedUser::new(ds.inputs[i].clean.clone()),
                )
            })
            .collect();
        let report = service.run(streams);
        let global = service.engine().shared_cache().stats();
        let (mut hits, mut misses) = (0u64, 0u64);
        for named in &report.sessions {
            let shared = named.report.shared.as_ref().expect("shared cache was on");
            assert_eq!(shared.hits, named.report.stats.shared_hits);
            assert_eq!(shared.misses, named.report.stats.shared_misses);
            hits += shared.hits;
            misses += shared.misses;
        }
        assert_eq!(
            (hits, misses),
            (global.hits, global.misses),
            "per-session attributed counters sum to the engine-global ones"
        );
        let agg = report.shared.as_ref().expect("aggregate shared stats");
        assert_eq!((agg.hits, agg.misses), (hits, misses));
        assert_eq!(agg.entries, global.entries);
        assert!(misses > 0, "something was computed");
        // repaired tuples still agree with solo runs even with the
        // caches on (checked reuse changes traces, never fixes)
        for (s, (ds, tuples)) in datasets.iter().zip(&dirty).enumerate() {
            let mut solo = RepairSessionBuilder::new(hosp.rules().clone(), hosp.master().clone())
                .bdd(true)
                .threads(1)
                .shared_cache(false)
                .build();
            solo.drain(SliceSource::new(tuples), |i| {
                SimulatedUser::new(ds.inputs[i].clean.clone())
            });
            let solo = solo.finish();
            for (i, (a, b)) in report.sessions[s]
                .report
                .outcomes()
                .zip(solo.outcomes())
                .enumerate()
            {
                assert_eq!(a.tuple, b.tuple, "session {s} tuple {i}");
                assert_eq!(a.certain, b.certain, "session {s} tuple {i}");
            }
        }
    }

    /// Degenerate shapes: no streams, an empty stream next to a live
    /// one, and backpressured channel ingest all hold together.
    #[test]
    fn empty_and_channel_streams() {
        let (hosp, datasets) = hosp_sessions(100, &[120]);
        let ds = &datasets[0];
        let dirty = dirty_of(ds);

        let service = RepairServiceBuilder::new(hosp.rules().clone(), hosp.master().clone())
            .threads(2)
            .shared_cache(false)
            .depth(1)
            .build();

        // no streams at all
        let empty = service.run(Vec::new());
        assert_eq!(empty.sessions.len(), 0);
        assert_eq!(empty.tuples, 0);
        assert_eq!(empty.epochs, 0);
        assert_eq!(empty.throughput(), 0.0);

        // an exhausted-immediately stream riding along a channel-fed
        // one (the producer thread outruns depth=1 and blocks — real
        // backpressure — while the empty lane disconnects right away)
        let (tx, channel) = crate::session::ChannelSource::bounded(1);
        let report = std::thread::scope(|s| {
            let producer_dirty = &dirty;
            s.spawn(move || {
                for chunk in producer_dirty.chunks(16) {
                    if tx.send(chunk.to_vec()).is_err() {
                        break;
                    }
                }
            });
            service.run(vec![
                ServiceStream::new("empty", SliceSource::new(&[]), |_: usize| {
                    SimulatedUser::new(ds.inputs[0].clean.clone())
                }),
                ServiceStream::new("live", channel, |i: usize| {
                    SimulatedUser::new(ds.inputs[i].clean.clone())
                }),
            ])
        });
        assert_eq!(report.sessions[0].report.tuples, 0);
        assert!(report.sessions[0].report.batches.is_empty());
        assert_eq!(report.sessions[1].report.tuples, 120);
        assert_eq!(report.tuples, 120);
        assert!(report.epochs > 0);

        // the channel-fed session matches a solo drain of the same
        // stream cut the same way
        let mut solo = RepairSessionBuilder::new(hosp.rules().clone(), hosp.master().clone())
            .threads(1)
            .shared_cache(false)
            .build();
        solo.drain(SliceSource::with_batch(&dirty, 16), |i| {
            SimulatedUser::new(ds.inputs[i].clean.clone())
        });
        let solo = solo.finish();
        let live = report.session("live").expect("named lookup");
        for (i, (a, b)) in live.outcomes().zip(solo.outcomes()).enumerate() {
            assert_eq!(a.tuple, b.tuple, "tuple {i}");
        }
        assert_eq!(live.stats.rounds, solo.stats.rounds);
        assert!(report.session("nope").is_none());
    }

    /// The dynamic-attach hooks behind the network server: sessions
    /// attached to a *running* `run_dynamic` at staggered times get
    /// per-epoch [`SessionEvent::Batch`]es, exactly one
    /// [`SessionEvent::Finished`] equal to the final report, and
    /// results bit-identical to the all-up-front [`run`] (which is
    /// itself bit-identical to solo drains).
    #[test]
    fn dynamic_attach_matches_static_run() {
        let (hosp, datasets) = hosp_sessions(150, &[240, 90]);
        let dirty: Vec<Vec<Tuple>> = datasets.iter().map(dirty_of).collect();
        let mk_service = || {
            RepairServiceBuilder::new(hosp.rules().clone(), hosp.master().clone())
                .threads(2)
                .shared_cache(false)
                .build()
        };

        let baseline = mk_service().run(
            datasets
                .iter()
                .zip(&dirty)
                .enumerate()
                .map(|(s, (ds, tuples))| {
                    ServiceStream::new(
                        format!("s{s}"),
                        SliceSource::with_batch(tuples, 32),
                        move |i: usize| SimulatedUser::new(ds.inputs[i].clean.clone()),
                    )
                })
                .collect(),
        );

        let service = mk_service();
        let (attach, queue) = attach_channel();
        let mut event_rxs = Vec::new();
        let report = std::thread::scope(|scope| {
            let attacher_sets = &datasets;
            let attacher_dirty = &dirty;
            let (ev0_tx, ev0_rx) = channel();
            let (ev1_tx, ev1_rx) = channel();
            event_rxs.push(ev0_rx);
            event_rxs.push(ev1_rx);
            scope.spawn(move || {
                for (s, ev) in [(0usize, ev0_tx), (1usize, ev1_tx)] {
                    let ds = &attacher_sets[s];
                    let tuples = &attacher_dirty[s];
                    attach
                        .attach(
                            ServiceStream::new(
                                format!("s{s}"),
                                SliceSource::with_batch(tuples, 32),
                                move |i: usize| SimulatedUser::new(ds.inputs[i].clean.clone()),
                            ),
                            Some(ev),
                        )
                        .ok()
                        .expect("service is draining");
                    // stagger: the second session arrives while the
                    // first is (likely) mid-flight
                    std::thread::sleep(Duration::from_millis(10));
                }
                drop(attach); // shutdown signal: drain, then return
            });
            service.run_dynamic(queue)
        });

        assert_eq!(report.sessions.len(), 2);
        for (s, named) in report.sessions.iter().enumerate() {
            let want = &baseline.sessions[s].report;
            assert_eq!(named.name, format!("s{s}"));
            assert_eq!(named.report.tuples, want.tuples, "session {s}");
            for (i, (a, b)) in named.report.outcomes().zip(want.outcomes()).enumerate() {
                assert_eq!(a, b, "session {s} tuple {i}");
            }
            assert_eq!(named.report.stats.rounds, want.stats.rounds);
            assert_eq!(named.report.stats.plan_probes, want.stats.plan_probes);

            // the observer channel saw one Batch per epoch the session
            // took part in, then Finished with the very same report
            let evs: Vec<SessionEvent> = event_rxs[s].try_iter().collect();
            let batches: Vec<&BatchReport> = evs
                .iter()
                .filter_map(|e| match e {
                    SessionEvent::Batch(b) => Some(b),
                    SessionEvent::Finished(_) => None,
                })
                .collect();
            assert_eq!(batches.len(), named.report.batches.len(), "session {s}");
            for (eb, rb) in batches.iter().zip(&named.report.batches) {
                assert_eq!(eb.outcomes, rb.outcomes, "session {s}");
            }
            match evs.last() {
                Some(SessionEvent::Finished(final_report)) => {
                    assert_eq!(final_report.tuples, named.report.tuples);
                    assert_eq!(final_report.stats.rounds, named.report.stats.rounds);
                }
                other => panic!("session {s}: expected trailing Finished, got {other:?}"),
            }
        }
        assert_eq!(report.tuples, baseline.tuples);
        assert_eq!(report.stats.rounds, baseline.stats.rounds);
    }

    /// Dropping the last attach handle must wake an idle scheduler
    /// *after* the queue has disconnected. Ringing first loses the
    /// wake-up whenever the woken scheduler runs before the sender is
    /// gone: it sees the queue still connected and sleeps out its
    /// 25 ms backstop, which is what a server's `shutdown` then costs.
    ///
    /// A lost wake-up costs a whole backstop, so no round may come near
    /// 25 ms; a preempted return on a loaded machine costs a few ms in
    /// the odd round, which the median absorbs.
    #[test]
    fn run_dynamic_returns_promptly_after_the_last_attach_handle_drops() {
        let (hosp, datasets) = hosp_sessions(60, &[4]);
        let dirty = dirty_of(&datasets[0]);
        let service = RepairServiceBuilder::new(hosp.rules().clone(), hosp.master().clone())
            .shared_cache(false)
            .build();
        let mut took = Vec::with_capacity(50);
        for round in 0..50 {
            let (attach, queue) = attach_channel();
            let (ev_tx, ev_rx) = channel();
            let ds = &datasets[0];
            std::thread::scope(|scope| {
                let returned = scope.spawn(|| {
                    service.run_dynamic(queue);
                    Instant::now()
                });
                attach
                    .attach(
                        ServiceStream::new("s", SliceSource::with_batch(&dirty, 4), move |i| {
                            SimulatedUser::new(ds.inputs[i].clean.clone())
                        }),
                        Some(ev_tx),
                    )
                    .ok()
                    .expect("service is running");
                // the session is over and nothing else is attached: the
                // scheduler has nothing left to do but wait for the
                // handle to drop
                assert!(ev_rx
                    .iter()
                    .any(|ev| matches!(ev, SessionEvent::Finished(_))));
                // not synchronisation — any interleaving must pass —
                // but it lets the scheduler park in its wait, the
                // state the lost wake-up needs
                std::thread::sleep(Duration::from_millis(1));
                let dropped = Instant::now();
                drop(attach);
                let t = returned.join().unwrap().duration_since(dropped);
                assert!(
                    t < Duration::from_millis(20),
                    "round {round}: run_dynamic returned {t:?} after the drop"
                );
                took.push(t);
            });
        }
        took.sort_unstable();
        let median = took[took.len() / 2];
        assert!(
            median < Duration::from_millis(5),
            "median return {median:?} after the drop"
        );
    }

    /// A one-stream service and a session run the same fan-out on the
    /// same units, so with the shared cache on and a key-column master
    /// delta between two batches, the service's batches carry exactly
    /// the session's cache statistics — the lifecycle counters
    /// (`shared_evicted_delta` and the rest, sampled after each commit)
    /// included, in every batch and in both merged reports.
    #[test]
    fn a_one_stream_service_reports_the_session_cache_lifecycle() {
        let (hosp, datasets) = hosp_sessions(150, &[240]);
        let ds = &datasets[0];
        let dirty = dirty_of(ds);
        let (head, tail) = dirty.split_at(120);
        let oracle_for = |i: usize| SimulatedUser::new(ds.inputs[i].clean.clone());
        // rewrite a rule's master key column: the pool cannot survive it
        let (_, rule) = hosp.rules().iter().next().expect("HOSP has rules");
        let mut keyed = hosp.master().tuple(0).clone();
        keyed.set(rule.lhs_m()[0], Value::str("KEY-COLUMN-REWRITTEN"));
        let delta = MasterDelta::new().update(0, keyed);

        let mut session = RepairSessionBuilder::new(hosp.rules().clone(), hosp.master().clone())
            .threads(2)
            .shared_cache(true)
            .build();
        session.push_batch(head, oracle_for);
        session.apply_master_delta(&delta).expect("delta applies");
        session.push_batch(tail, oracle_for);
        let want = session.finish();

        let service = RepairServiceBuilder::new(hosp.rules().clone(), hosp.master().clone())
            .threads(2)
            .shared_cache(true)
            .depth(1)
            .build();
        let (attach, queue) = attach_channel();
        let (tx, source) = crate::session::ChannelSource::bounded(1);
        let (ev_tx, ev_rx) = channel();
        attach
            .attach(ServiceStream::new("s", source, oracle_for), Some(ev_tx))
            .ok()
            .expect("the queue is open");
        drop(attach);
        let service = &service;
        let report = std::thread::scope(|scope| {
            scope.spawn(move || {
                tx.send(head.to_vec()).expect("lane open");
                // the delta lands between the two batches' epochs
                assert!(matches!(ev_rx.recv(), Ok(SessionEvent::Batch(_))));
                service
                    .engine()
                    .apply_master_delta(&delta)
                    .expect("delta applies");
                tx.send(tail.to_vec()).expect("lane open");
            });
            service.run_dynamic(queue)
        });

        let lifecycle = |s: &MonitorStats| {
            (
                s.shared_hits,
                s.shared_misses,
                s.shared_evicted_delta,
                s.shared_evicted_lru,
                s.shared_revalidated,
                s.shared_saturated,
            )
        };
        let got = &report.sessions[0].report;
        assert_eq!(got.batches.len(), 2);
        assert!(
            want.batches[1].stats.shared_evicted_delta > 0,
            "the key-column delta dropped a non-empty pool"
        );
        for (k, (a, b)) in got.batches.iter().zip(&want.batches).enumerate() {
            assert_eq!(a.outcomes, b.outcomes, "batch {k}");
            assert_eq!(a.shared, b.shared, "batch {k}");
            assert_eq!(lifecycle(&a.stats), lifecycle(&b.stats), "batch {k}");
        }
        assert_eq!(got.shared, want.shared);
        assert_eq!(lifecycle(&got.stats), lifecycle(&want.stats));
        assert_eq!(lifecycle(&report.stats), lifecycle(&want.stats));
    }

    /// Worker 0 of every fan-out is the submitting thread, so a
    /// one-worker unit — a session batch or a service epoch — calls its
    /// oracle factory on the caller's thread and spawns no worker.
    #[test]
    fn one_worker_units_run_on_the_submitting_thread() {
        let (hosp, datasets) = hosp_sessions(60, &[40]);
        let ds = &datasets[0];
        let dirty = dirty_of(ds);
        let seen = std::sync::Mutex::new(Vec::new());
        let oracle_for = |i: usize| {
            seen.lock().unwrap().push(std::thread::current().id());
            SimulatedUser::new(ds.inputs[i].clean.clone())
        };

        let mut session = RepairSessionBuilder::new(hosp.rules().clone(), hosp.master().clone())
            .threads(1)
            .build();
        session.drain(SliceSource::with_batch(&dirty, 16), oracle_for);
        assert_eq!(session.finish().tuples, 40);
        let service = RepairServiceBuilder::new(hosp.rules().clone(), hosp.master().clone())
            .threads(1)
            .build();
        let report = service.run(vec![ServiceStream::new(
            "s",
            SliceSource::with_batch(&dirty, 16),
            oracle_for,
        )]);
        assert_eq!(report.tuples, 40);

        let caller = std::thread::current().id();
        let seen = seen.into_inner().unwrap();
        assert_eq!(seen.len(), 80, "one oracle per repaired tuple");
        assert!(
            seen.iter().all(|&id| id == caller),
            "every oracle was built on the submitting thread"
        );
    }
}
