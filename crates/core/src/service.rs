//! The multi-session repair service: fair multiplexing of N streams of
//! dirty-tuple batches over one engine.
//!
//! The paper's monitor repairs *one* stream of dirty tuples against one
//! master relation; a deployment is rarely that lucky. [`RepairService`]
//! is the service shape the ROADMAP aims at: one [`RepairContext`] —
//! one compiled [`RulePlan`](certainfix_rules::RulePlan), one
//! work-stealing fan-out — shared by N independent sessions, each with
//! its own ingest lane, its own oracle space, and its own
//! [`SessionReport`]. Nothing a session's repairs compute is shared
//! with another session: a `CertainFix+` diagram lives one chunk of
//! one session.
//!
//! A service opens through the same front door as a
//! [`RepairSession`]: a [`RepairContext`] wrapped in a
//! [`BatchRepairEngine`], then [`RepairService::from_engine`] with a
//! [`ServiceOptions`] literal. The scheduler records each session's
//! batches in a [`RepairSession`] of its own and folds its report
//! through [`RepairSession::finish`], so a multiplexed session's report
//! is made exactly as a solo one is.
//!
//! # Architecture
//!
//! Ingest and repair are separate lanes over one shared context
//! (the HTAP-style isolation: producers never run repair code, repair
//! workers never block on a producer):
//!
//! * **Ingest lanes** — each session's producer pushes batches, master
//!   deltas and flushes through its [`LaneSender`] into a *bounded*
//!   channel of exactly [`ServiceOptions::depth`] items, in send order.
//!   The bound is real backpressure: a producer that outruns the repair
//!   pool blocks in [`send`](LaneSender::send), and a producer that
//!   stalls simply leaves its lane empty — it can never wedge the pool,
//!   because the scheduler only ever *try*-receives. The producer is
//!   whoever holds the lane: a network connection's reader thread, or
//!   one scoped feeder per stream that [`RepairService::run`] spawns to
//!   push an in-process [`ServiceStream`]'s batches.
//! * **Epoch scheduler** — the caller's thread repeatedly takes each
//!   session's queued items in order up to its first batch (polling
//!   sessions round-robin, skipping lanes with nothing ready),
//!   answering the deltas and flushes in front of it, and submits the
//!   collected
//!   batches, one unit each, as one epoch to the context's fan-out — the
//!   very function a [`RepairSession`] batch runs
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
//! A delta sent through a lane ([`LaneSender::send_delta`]) is applied
//! by the scheduler after every batch its session sent before it, and
//! before any sent after it, as a [`RepairSession`]
//! applies one between `push_batch`es; other sessions see it from the
//! next epoch on. The rebuild runs on the scheduler's thread, so every
//! session pauses for it.
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
//! block probing is bit-identical at every block size (the D6
//! contract), so for plain `CertainFix` each session's outcomes and
//! merged deterministic [`MonitorStats`] counts (`tuples`, `certain`,
//! `rounds`, `plan_probes`, `plan_fallbacks`) are **bit-identical to
//! draining that session alone through a
//! [`RepairSession`]** — regardless of how many
//! other sessions run concurrently, how the epochs happen to compose,
//! or the worker count — and the aggregate [`ServiceReport::stats`]
//! merge equals running the sessions one at a time. Under
//! `CertainFix+` the same holds for whole outcomes and [`BddStats`]: a
//! session's batches reach the fan-out exactly as its source cut them,
//! and a diagram lives one chunk of one session's batch. Wall-clock
//! observables (`elapsed`, the
//! interner watermark, `probe_allocs`, per-epoch worker breakdowns) are
//! exempt as always.
//!
//! ```
//! use certainfix_core::{BatchRepairEngine, RepairContext, RepairService, ServiceOptions};
//! use certainfix_core::{ServiceStream, SimulatedUser, SliceSource};
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
//! let ctx = RepairContext::new(hosp.rules().clone(), hosp.master().clone(), false);
//! let opts = ServiceOptions { threads: 2, ..ServiceOptions::default() };
//! let service = RepairService::from_engine(BatchRepairEngine::new(ctx), opts);
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
//! assert_eq!(report.sessions[0].name, "tenant-a");
//! assert_eq!(report.sessions[0].report.tuples, 30);
//! ```

use std::sync::mpsc::{
    channel, sync_channel, Receiver, SendError, Sender, SyncSender, TryRecvError,
};
use std::time::{Duration, Instant};

use certainfix_relation::{MasterDelta, RelationError, Tuple};

use crate::bdd::BddStats;
use crate::engine::{
    BatchRepairEngine, BatchReport, RepairContext, RepairOptions, SharedCacheStats,
};
use crate::monitor::MonitorStats;
use crate::oracle::UserOracle;
use crate::session::{ContextRef, RepairSession, SessionReport};

/// A boxed oracle as the service hands them to its workers.
pub type BoxedOracle<'a> = Box<dyn UserOracle + 'a>;

type OracleFactory<'a> = Box<dyn Fn(usize) -> BoxedOracle<'a> + Send + Sync + 'a>;

fn boxed_factory<'a, F, O>(oracle_for: F) -> OracleFactory<'a>
where
    F: Fn(usize) -> O + Send + Sync + 'a,
    O: UserOracle + 'a,
{
    Box::new(move |i| Box::new(oracle_for(i)) as BoxedOracle<'a>)
}

/// One stream [`RepairService::run`] multiplexes: a name (for the
/// report), its batches in stream order, and the stream's oracle
/// factory.
///
/// The factory receives the **session-local stream index** — the
/// number of tuples this stream yielded before the one being repaired
/// — exactly the index a solo
/// [`RepairSession::drain`] would pass.
/// Index spaces of different streams never mix, and like the engine's,
/// the factory is called from worker threads and must depend only on
/// the index.
pub struct ServiceStream<'a> {
    name: String,
    source: Box<dyn Iterator<Item = Vec<Tuple>> + Send + 'a>,
    oracle_for: OracleFactory<'a>,
}

impl<'a> ServiceStream<'a> {
    /// Bundle a named stream. `source` yields the stream's batches in
    /// order (the [`RepairSession::drain`]
    /// contract); `oracle_for(i)` supplies the user for the stream's
    /// `i`-th tuple.
    pub fn new<S, F, O>(name: impl Into<String>, source: S, oracle_for: F) -> ServiceStream<'a>
    where
        S: IntoIterator<Item = Vec<Tuple>>,
        S::IntoIter: Send + 'a,
        F: Fn(usize) -> O + Send + Sync + 'a,
        O: UserOracle + 'a,
    {
        ServiceStream {
            name: name.into(),
            source: Box::new(source.into_iter()),
            oracle_for: boxed_factory(oracle_for),
        }
    }
}

/// An event [`RepairService::run_dynamic`] emits to a session's
/// observer channel (if one was supplied at attach time): one per lane
/// item, in send order (a [`Batch`](SessionEvent::Batch) per batch, one
/// scheduler epoch each), then exactly one
/// [`Finished`](SessionEvent::Finished) once its lane is drained and
/// the final report folded. The `net` crate's `RepairServer` turns each
/// into one response frame.
#[derive(Clone, Debug)]
pub enum SessionEvent {
    /// The session's [`BatchReport`] for one completed epoch, in the
    /// session's own stream order.
    Batch(BatchReport),
    /// The outcome of a [`LaneSender::send_delta`]: the new generation,
    /// or why the master refused the delta (the epoch is unchanged).
    Delta(Result<u64, RelationError>),
    /// Every batch sent before the [`LaneSender::send_flush`] has been
    /// reported.
    Flushed,
    /// The session's lane is closed (its [`LaneSender`] dropped, or
    /// its producer went away) and every buffered batch has been
    /// repaired; this is the final [`ServiceReport`]'s fold for the
    /// session *without* its `batches` — the observer already received
    /// each one as a [`Batch`](SessionEvent::Batch).
    Finished(SessionReport),
}

/// What a lane carries, in send order.
enum LaneItem {
    Batch(Vec<Tuple>),
    Delta(MasterDelta),
    Flush,
}

/// One attached session in flight to the scheduler: its name, its
/// oracles, the receiving end of its lane, and its observer.
struct DynamicSession<'a> {
    name: String,
    oracle_for: OracleFactory<'a>,
    lane: Receiver<LaneItem>,
    events: Option<Sender<SessionEvent>>,
}

/// The attach side of [`RepairService::attach_channel`]: clonable,
/// sendable to other threads, opens new sessions on a running
/// [`RepairService::run_dynamic`]. Dropping every clone is the
/// shutdown signal — the service finishes draining the sessions it
/// has, then returns.
#[derive(Clone)]
pub struct ServiceAttach<'a> {
    /// `Some` until `drop`, which must disconnect it *before* it rings.
    tx: Option<Sender<DynamicSession<'a>>>,
    bell: Sender<()>,
    /// The service's lane depth, at least 1.
    depth: usize,
}

impl<'a> ServiceAttach<'a> {
    /// Open a session named `name` whose `i`-th tuple is repaired with
    /// `oracle_for(i)`, and return its ingest lane. `events`, if given,
    /// receives one [`SessionEvent`] per lane item, in send order, and a
    /// final [`SessionEvent::Finished`] once the lane is dropped and
    /// drained. Returns `None` if the service already returned.
    pub fn attach<F, O>(
        &self,
        name: impl Into<String>,
        oracle_for: F,
        events: Option<Sender<SessionEvent>>,
    ) -> Option<LaneSender>
    where
        F: Fn(usize) -> O + Send + Sync + 'a,
        O: UserOracle + 'a,
    {
        self.attach_boxed(name.into(), boxed_factory(oracle_for), events)
    }

    fn attach_boxed(
        &self,
        name: String,
        oracle_for: OracleFactory<'a>,
        events: Option<Sender<SessionEvent>>,
    ) -> Option<LaneSender> {
        let (tx, lane) = sync_channel(self.depth);
        let session = DynamicSession {
            name,
            oracle_for,
            lane,
            events,
        };
        self.tx
            .as_ref()
            .expect("the sender lives until drop")
            .send(session)
            .ok()?;
        let _ = self.bell.send(());
        Some(LaneSender {
            tx: Some(tx),
            bell: self.bell.clone(),
        })
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

/// One session's ingest lane: the producer end of a bounded channel of
/// [`ServiceOptions::depth`] items — batches, deltas and flushes — that
/// the scheduler drains in send order, plus its doorbell. Dropping it
/// ends the session's stream: the items already sent are still
/// answered, in order, and then the session finishes.
pub struct LaneSender {
    /// `Some` until `drop`, which must disconnect it *before* it rings.
    tx: Option<SyncSender<LaneItem>>,
    bell: Sender<()>,
}

impl LaneSender {
    /// Queue the stream's next batch. An empty batch is dropped
    /// (nothing to repair, nothing to report). Blocks while `depth`
    /// items are queued — the lane's backpressure — and fails only if
    /// the service stopped draining.
    pub fn send(&self, batch: Vec<Tuple>) -> Result<(), SendError<()>> {
        if batch.is_empty() {
            return Ok(());
        }
        self.push(LaneItem::Batch(batch))
    }

    /// Queue a master delta, applied once the batches sent before it
    /// are repaired and answered by [`SessionEvent::Delta`]. Blocks and
    /// fails as [`send`](Self::send) does.
    pub fn send_delta(&self, delta: MasterDelta) -> Result<(), SendError<()>> {
        self.push(LaneItem::Delta(delta))
    }

    /// Queue a flush, answered by [`SessionEvent::Flushed`] once the
    /// batches sent before it are reported. Blocks and fails as
    /// [`send`](Self::send) does.
    pub fn send_flush(&self) -> Result<(), SendError<()>> {
        self.push(LaneItem::Flush)
    }

    fn push(&self, item: LaneItem) -> Result<(), SendError<()>> {
        let tx = self.tx.as_ref().expect("the sender lives until drop");
        tx.send(item).map_err(|_| SendError(()))?;
        let _ = self.bell.send(());
        Ok(())
    }
}

impl Drop for LaneSender {
    fn drop(&mut self) {
        // as `ServiceAttach::drop`: disconnect, then ring
        drop(self.tx.take());
        let _ = self.bell.send(());
    }
}

/// The receive side of [`RepairService::attach_channel`], consumed by
/// [`RepairService::run_dynamic`].
pub struct AttachQueue<'a> {
    rx: Receiver<DynamicSession<'a>>,
    bell_rx: Receiver<()>,
}

/// Knobs of one [`RepairService`]: the pool shape plus the per-session
/// ingest-lane depth.
#[derive(Clone, Copy, Debug)]
pub struct ServiceOptions {
    /// Worker threads of the shared repair pool (`0` = one per
    /// available core).
    pub threads: usize,
    /// Tuples per chunk (`0` = auto per collected batch; see
    /// [`RepairOptions::chunk`]). A chunk is also the probe-block unit
    /// and, under `CertainFix+`, the lifetime of one suggestion
    /// diagram.
    pub chunk: usize,
    /// A no-op, like [`RepairOptions::shared_cache`]: there is no
    /// suggestion pool to share between sessions. The field stays
    /// because the `benchmark/` package names it.
    pub shared_cache: bool,
    /// Ingest-lane depth, the exact bound on the items a session's
    /// lane holds — batches, deltas and flushes alike: a producer's
    /// `depth`-th send returns, and the next blocks until the scheduler
    /// takes an item (clamped to at least 1).
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

/// The session multiplexer; see the [module docs](self) for the
/// architecture and the fairness / determinism contract.
///
/// A service owns one repair context and is reusable: each
/// [`run`](Self::run) multiplexes one set of streams to completion.
pub struct RepairService {
    ctx: RepairContext,
    opts: ServiceOptions,
}

impl RepairService {
    /// Open a service that owns the engine's context.
    pub fn from_engine(engine: BatchRepairEngine, opts: ServiceOptions) -> RepairService {
        RepairService {
            ctx: engine.ctx,
            opts,
        }
    }

    /// The shared repair context.
    pub fn context(&self) -> &RepairContext {
        &self.ctx
    }

    /// Create the attach handle / queue pair for
    /// [`run_dynamic`](Self::run_dynamic). Every lane the handle opens
    /// is bounded by this service's [`ServiceOptions::depth`]. The
    /// handle end is clonable and may outlive any individual session;
    /// the service returns once every handle is dropped *and* every
    /// attached session has drained.
    pub fn attach_channel<'a>(&self) -> (ServiceAttach<'a>, AttachQueue<'a>) {
        let (tx, rx) = channel();
        let (bell, bell_rx) = channel();
        (
            ServiceAttach {
                tx: Some(tx),
                bell,
                depth: self.opts.depth.max(1),
            },
            AttachQueue { rx, bell_rx },
        )
    }

    /// Multiplex `streams` to completion and report per-session plus
    /// aggregate results. Returns when every stream's source is
    /// exhausted; sessions that finish early simply stop contributing
    /// epochs while the rest keep the pool busy. Each stream gets one
    /// scoped feeder thread that pushes its batches into the stream's
    /// lane; the calling thread runs [`run_dynamic`](Self::run_dynamic)
    /// and stays the fan-out's worker 0.
    pub fn run(&self, streams: Vec<ServiceStream<'_>>) -> ServiceReport {
        let (attach, queue) = self.attach_channel();
        std::thread::scope(|scope| {
            for stream in streams {
                let lane = attach
                    .attach_boxed(stream.name, stream.oracle_for, None)
                    .expect("the queue is open until run_dynamic returns");
                let source = stream.source;
                scope.spawn(move || {
                    for batch in source {
                        if lane.send(batch).is_err() {
                            break; // the service stopped draining
                        }
                    }
                });
            }
            drop(attach);
            self.run_dynamic(queue)
        })
    }

    /// Multiplex a *dynamic* set of sessions: sessions attach (and
    /// detach, by dropping their [`LaneSender`]) while the service runs.
    /// Consumes the [`AttachQueue`] half of an
    /// [`attach_channel`](Self::attach_channel); returns once every
    /// [`ServiceAttach`] clone is dropped and every attached session has
    /// drained — the drain-then-shutdown path. Spawns no thread of its
    /// own beyond the fan-out's workers: producers push into their
    /// lanes, and this thread polls them and applies the deltas they
    /// carry (see the [module docs](self)). Scheduling, fairness, and the
    /// determinism contract are exactly [`run`](Self::run)'s (which
    /// feeds its streams into this method): a session's outcomes depend
    /// only on its own stream, never on when its neighbours arrived.
    pub fn run_dynamic(&self, queue: AttachQueue<'_>) -> ServiceReport {
        let started = Instant::now();
        let rebuilds_at_start = self.ctx.plan_rebuilds();
        let opts = RepairOptions {
            threads: self.opts.threads,
            chunk: self.opts.chunk,
            ..RepairOptions::default()
        };

        let mut admitted: Vec<Admitted<'_, '_>> = Vec::new();
        let mut epochs = 0u64;
        let mut attach_open = true;
        // rotate which session is polled first so no stream is
        // systematically served ahead of the others
        let mut first = 0usize;
        loop {
            // admit newly attached sessions before each poll sweep
            while attach_open {
                match queue.rx.try_recv() {
                    Ok(attached) => admitted.push(Admitted {
                        attached,
                        session: Some(RepairSession::open(ContextRef::Borrowed(&self.ctx), opts)),
                        report: None,
                    }),
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => attach_open = false,
                }
            }

            let n = admitted.len();
            let mut collected: Vec<(usize, Vec<Tuple>)> = Vec::new();
            let mut answered = false;
            for k in 0..n {
                let s = (first + k) % n;
                let a = &mut admitted[s];
                if a.session.is_none() {
                    continue; // finished
                }
                // the session's items in send order, up to its first
                // batch: every batch it sent before a delta or a flush
                // has been reported by now. At most a full lane's worth,
                // so a producer refilling with flushes cannot hold the
                // sweep
                for _ in 0..self.opts.depth.max(1) {
                    let event = match a.attached.lane.try_recv() {
                        Ok(LaneItem::Batch(batch)) => {
                            collected.push((s, batch));
                            break;
                        }
                        Ok(LaneItem::Delta(delta)) => {
                            SessionEvent::Delta(self.ctx.apply_master_delta(&delta))
                        }
                        Ok(LaneItem::Flush) => SessionEvent::Flushed,
                        Err(TryRecvError::Empty) => break,
                        // a disconnected lane has, by mpsc semantics,
                        // already yielded every buffered item: finish
                        // the session now, so its observer gets
                        // `Finished` while its neighbours keep running
                        Err(TryRecvError::Disconnected) => {
                            a.finish();
                            break;
                        }
                    };
                    if let Some(ev) = &a.attached.events {
                        let _ = ev.send(event);
                    }
                    answered = true;
                }
            }
            if n > 0 {
                first = (first + 1) % n;
            }

            let idle = collected.is_empty() && !answered;
            if !collected.is_empty() {
                epochs += 1;
                // one unit per collected batch, its oracles keyed by
                // the session-local stream offset the batch starts at
                let units: Vec<_> = collected
                    .iter()
                    .map(|(s, tuples)| {
                        let a = &admitted[*s];
                        let session = a.session.as_ref().expect("it sent a batch");
                        let (factory, base) = (&a.attached.oracle_for, session.tuples_ingested());
                        (tuples.as_slice(), move |i: usize| factory(base + i))
                    })
                    .collect();
                let reports = self.ctx.fan_out(&units, &opts);
                for (&(s, _), report) in collected.iter().zip(reports) {
                    let a = &mut admitted[s];
                    if let Some(ev) = &a.attached.events {
                        let _ = ev.send(SessionEvent::Batch(report.clone()));
                    }
                    a.session.as_mut().expect("it sent a batch").record(report);
                }
            }

            if idle {
                if !attach_open && admitted.iter().all(|a| a.session.is_none()) {
                    break; // no attachers left, every stream drained
                }
                // nothing ready: sleep until a producer or attacher
                // rings; rings are buffered so wakeups are never
                // lost — the timeout is a belt-and-braces backstop
                let _ = queue.bell_rx.recv_timeout(Duration::from_millis(25));
            }
        }

        let mut sessions = Vec::with_capacity(admitted.len());
        let mut stats = MonitorStats::default();
        let mut bdd = BddStats::default();
        let mut tuples = 0usize;
        for a in admitted {
            let report = a
                .report
                .expect("every attached session is finished before exit");
            stats.merge(&report.stats);
            bdd.merge(&report.bdd);
            tuples += report.tuples;
            sessions.push(NamedSessionReport {
                name: a.attached.name,
                report,
            });
        }
        // deltas reach the context through lanes and from direct
        // callers alike; the context counts them all
        stats.plan_rebuilds = self.ctx.plan_rebuilds() - rebuilds_at_start;
        ServiceReport {
            sessions,
            stats,
            bdd,
            shared: None,
            wall: started.elapsed(),
            epochs,
            tuples,
        }
    }
}

/// An admitted session as the scheduler tracks it across epochs: what
/// was attached, and the [`RepairSession`] its batches are recorded in
/// until its lane is found disconnected and drained.
struct Admitted<'a, 's> {
    attached: DynamicSession<'a>,
    session: Option<RepairSession<'s>>,
    /// The session's report, once its lane closed.
    report: Option<SessionReport>,
}

impl Admitted<'_, '_> {
    /// Fold the session's report through [`RepairSession::finish`], as
    /// a solo session does. The observer gets the fold alone: it
    /// already has every batch.
    fn finish(&mut self) {
        let session = self.session.take().expect("a session finishes once");
        let mut report = session.finish();
        if let Some(ev) = self.attached.events.take() {
            let batches = std::mem::take(&mut report.batches);
            let _ = ev.send(SessionEvent::Finished(report.clone()));
            report.batches = batches;
        }
        self.report = Some(report);
    }
}

/// One multiplexed session's result: the stream's name plus a
/// [`SessionReport`] shaped exactly like a solo drain of the same
/// source (outcomes in the stream's own input order; batch boundaries
/// are the epochs the session took part in).
#[derive(Clone, Debug)]
pub struct NamedSessionReport {
    /// The session's name, as given to [`RepairService::run`] or
    /// [`ServiceAttach::attach`].
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
    /// Always `None`: there is no engine-lifetime pool to report on
    /// (see [`SharedCacheStats`]).
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::SimulatedUser;
    use crate::session::SliceSource;
    use certainfix_datagen::{Dataset, DirtyConfig, Hosp, Workload};
    use certainfix_relation::{MasterDelta, Value};

    /// A solo session over HOSP at `threads` workers; `CertainFix+`
    /// iff `bdd`.
    fn solo_session(hosp: &Hosp, bdd: bool, threads: usize) -> RepairSession<'static> {
        let ctx = RepairContext::new(hosp.rules().clone(), hosp.master().clone(), bdd);
        let opts = RepairOptions {
            threads,
            ..RepairOptions::default()
        };
        RepairSession::from_engine(BatchRepairEngine::new(ctx), opts)
    }

    /// A service over HOSP under `opts`; `CertainFix+` iff `bdd`.
    fn open_service(hosp: &Hosp, bdd: bool, opts: ServiceOptions) -> RepairService {
        let ctx = RepairContext::new(hosp.rules().clone(), hosp.master().clone(), bdd);
        RepairService::from_engine(BatchRepairEngine::new(ctx), opts)
    }

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

    /// The user who knows `ds`'s clean tuples.
    fn user(ds: &Dataset) -> impl Fn(usize) -> SimulatedUser + Copy + Send + Sync + '_ {
        move |i| SimulatedUser::new(ds.inputs[i].clean.clone())
    }

    /// `tuples` of `ds` drained alone through a one-worker session, in
    /// batches of `batch`.
    fn solo(hosp: &Hosp, bdd: bool, ds: &Dataset, tuples: &[Tuple], batch: usize) -> SessionReport {
        let mut session = solo_session(hosp, bdd, 1);
        session.drain(SliceSource::with_batch(tuples, batch), user(ds));
        session.finish()
    }

    /// D7: three unevenly sized HOSP streams (one skewed) multiplexed
    /// at 1, 2, and 4 workers — each session's whole outcomes, round
    /// traces included, and deterministic merged counts are
    /// bit-identical to draining that session alone through a solo
    /// [`RepairSession`], and the aggregate merge equals the sum of the
    /// solo runs. Plain `CertainFix` and `CertainFix+` (default options,
    /// `BddStats` compared too) alike.
    #[test]
    fn multiplexed_sessions_match_solo_runs_1_2_4() {
        let (hosp, datasets) = hosp_sessions(200, &[900, 150, 420]);
        let dirty: Vec<Vec<Tuple>> = datasets.iter().map(dirty_of).collect();

        for bdd in [false, true] {
            // solo baselines: each stream drained alone, sequentially
            let solo: Vec<SessionReport> = datasets
                .iter()
                .zip(&dirty)
                .map(|(ds, tuples)| solo(&hosp, bdd, ds, tuples, 128))
                .collect();
            if bdd {
                assert!(solo[0].bdd.hits > 0, "the diagrams served suggestions");
            }

            for workers in [1usize, 2, 4] {
                let service = open_service(
                    &hosp,
                    bdd,
                    ServiceOptions {
                        threads: workers,
                        ..ServiceOptions::default()
                    },
                );
                let streams = datasets
                    .iter()
                    .zip(&dirty)
                    .enumerate()
                    .map(|(s, (ds, tuples))| {
                        ServiceStream::new(
                            format!("s{s}"),
                            SliceSource::with_batch(tuples, 128),
                            user(ds),
                        )
                    })
                    .collect();
                let report = service.run(streams);
                assert_eq!(report.sessions.len(), 3);
                assert!(report.epochs > 0);
                let mut merged = MonitorStats::default();
                for (s, named) in report.sessions.iter().enumerate() {
                    let (got, want) = (&named.report, &solo[s]);
                    let what = format!("session {s}, {workers} workers, bdd {bdd}");
                    assert_eq!(named.name, format!("s{s}"));
                    assert_eq!(got.tuples, want.tuples, "{what}");
                    for (i, (a, b)) in got.outcomes().zip(want.outcomes()).enumerate() {
                        assert_eq!(a, b, "{what}, tuple {i}");
                    }
                    assert_eq!(got.bdd, want.bdd, "{what}");
                    // the deterministic MonitorStats fields, bit-for-bit
                    assert_eq!(got.stats.tuples, want.stats.tuples, "{what}");
                    assert_eq!(got.stats.certain, want.stats.certain, "{what}");
                    assert_eq!(got.stats.rounds, want.stats.rounds, "{what}");
                    assert_eq!(got.stats.plan_probes, want.stats.plan_probes, "{what}");
                    assert_eq!(
                        got.stats.plan_fallbacks, want.stats.plan_fallbacks,
                        "{what}"
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
                assert!(report.shared.is_none());
            }
        }
    }

    /// Degenerate shapes: no streams, an empty stream next to a live
    /// one, and backpressured lane ingest all hold together.
    #[test]
    fn empty_and_channel_streams() {
        let (hosp, datasets) = hosp_sessions(100, &[120]);
        let ds = &datasets[0];
        let dirty = dirty_of(ds);

        let service = open_service(
            &hosp,
            false,
            ServiceOptions {
                threads: 2,
                depth: 1,
                ..ServiceOptions::default()
            },
        );

        // no streams at all
        let empty = service.run(Vec::new());
        assert_eq!(empty.sessions.len(), 0);
        assert_eq!(empty.tuples, 0);
        assert_eq!(empty.epochs, 0);

        // an exhausted-immediately stream riding along a lane-fed one
        // (the producer thread outruns depth=1 and blocks — real
        // backpressure — while the empty lane disconnects right away)
        let (attach, queue) = service.attach_channel();
        drop(attach.attach("empty", user(ds), None));
        let live = attach.attach("live", user(ds), None).expect("open");
        drop(attach);
        let report = std::thread::scope(|s| {
            let producer_dirty = &dirty;
            s.spawn(move || {
                for chunk in producer_dirty.chunks(16) {
                    live.send(chunk.to_vec()).expect("lane open");
                }
            });
            service.run_dynamic(queue)
        });
        assert_eq!(report.sessions[0].report.tuples, 0);
        assert!(report.sessions[0].report.batches.is_empty());
        assert_eq!(report.sessions[1].report.tuples, 120);
        assert_eq!(report.tuples, 120);
        assert!(report.epochs > 0);

        // the lane-fed session matches a solo drain of the same
        // stream cut the same way
        let solo = solo(&hosp, false, ds, &dirty, 16);
        let names: Vec<&str> = report.sessions.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["empty", "live"], "in attach order");
        let live = &report.sessions[1].report;
        for (i, (a, b)) in live.outcomes().zip(solo.outcomes()).enumerate() {
            assert_eq!(a.tuple, b.tuple, "tuple {i}");
        }
        assert_eq!(live.stats.rounds, solo.stats.rounds);
    }

    /// The lane's disconnect-drain contract, which a torn network
    /// session leans on: a producer that dies (here: panics) with
    /// batches still queued in its lane loses none of them. Every
    /// buffered batch repairs, in order, the session gets `Finished`,
    /// and its outcomes equal a solo drain of exactly those tuples. An
    /// empty batch sent into the lane produces no report.
    #[test]
    fn a_lane_drains_its_buffered_batches_after_its_producer_panics() {
        let (hosp, datasets) = hosp_sessions(60, &[24]);
        let ds = &datasets[0];
        let dirty = dirty_of(ds);
        let service = open_service(
            &hosp,
            false,
            ServiceOptions {
                threads: 2,
                depth: 3,
                ..ServiceOptions::default()
            },
        );
        let (attach, queue) = service.attach_channel();
        let (ev_tx, ev_rx) = channel();
        let lane = attach.attach("s", user(ds), Some(ev_tx)).expect("open");
        drop(attach);
        let batches: Vec<Vec<Tuple>> = dirty.chunks(8).map(<[Tuple]>::to_vec).collect();
        let producer = std::thread::spawn(move || {
            for batch in std::iter::once(Vec::new()).chain(batches) {
                lane.send(batch).expect("lane open");
            }
            panic!("the producer dies with its lane full");
        });
        assert!(producer.join().is_err(), "the producer did panic");
        let report = service.run_dynamic(queue);

        let (got, want) = (
            &report.sessions[0].report,
            solo(&hosp, false, ds, &dirty, 8),
        );
        assert_eq!(got.batches.len(), 3, "the empty batch made no report");
        for (k, (a, b)) in got.batches.iter().zip(&want.batches).enumerate() {
            assert_eq!(a.outcomes, b.outcomes, "batch {k}, in order");
        }
        let evs: Vec<SessionEvent> = ev_rx.try_iter().collect();
        assert_eq!(evs.len(), 4, "three batches, then Finished");
        assert!(matches!(evs[3], SessionEvent::Finished(_)));
    }

    /// The kinds of `events`, in order, with a delta's answer spelled out.
    fn event_shape(events: impl Iterator<Item = SessionEvent>) -> Vec<String> {
        events
            .map(|ev| match ev {
                SessionEvent::Batch(_) => "Batch".to_string(),
                SessionEvent::Delta(applied) => format!("Delta({applied:?})"),
                SessionEvent::Flushed => "Flushed".to_string(),
                SessionEvent::Finished(_) => "Finished".to_string(),
            })
            .collect()
    }

    /// A lane holds exactly `depth` items (at least one), control items
    /// counted like batches: with no scheduler running, a producer's
    /// `depth`-th send returns and the next one does not; once
    /// `run_dynamic` starts, every item is answered, in order. Two
    /// producers per depth: one sends only batches, one cycles flush,
    /// batch, delta. The check is one-sided — a correct lane can never
    /// let the extra send through early — so it cannot fail spuriously.
    #[test]
    fn a_lane_holds_exactly_depth_batches() {
        let (hosp, datasets) = hosp_sessions(60, &[8]);
        let ds = &datasets[0];
        let dirty = dirty_of(ds);
        // a duplicate master row: inert, but a new generation
        let delta = MasterDelta::new().insert(hosp.master().tuple(0).clone());
        let producers: [&[&str]; 2] = [&["Batch"], &["Flushed", "Batch", "Delta(Ok(1))"]];
        for (depth, cycle) in [0usize, 1, 2, 3]
            .into_iter()
            .flat_map(|d| producers.map(|c| (d, c)))
        {
            let bound = depth.max(1);
            let what = format!("depth {depth}, producer {cycle:?}");
            let kinds: Vec<&str> = (0..=bound).map(|k| cycle[k % cycle.len()]).collect();
            let service = open_service(
                &hosp,
                false,
                ServiceOptions {
                    depth,
                    ..ServiceOptions::default()
                },
            );
            let (attach, queue) = service.attach_channel();
            let (ev_tx, ev_rx) = channel();
            let lane = attach.attach("s", user(ds), Some(ev_tx)).expect("open");
            drop(attach);
            let (sent_tx, sent_rx) = channel();
            let report = std::thread::scope(|scope| {
                let (dirty, delta, kinds) = (&dirty, &delta, &kinds);
                scope.spawn(move || {
                    for (k, &kind) in kinds.iter().enumerate() {
                        match kind {
                            "Batch" => lane.send(dirty[2 * k..2 * k + 2].to_vec()),
                            "Flushed" => lane.send_flush(),
                            _ => lane.send_delta(delta.clone()),
                        }
                        .expect("lane open");
                        sent_tx.send(k + 1).expect("the test listens");
                    }
                });
                for k in 1..=bound {
                    assert_eq!(sent_rx.recv(), Ok(k), "{what}: send {k} returns");
                }
                let early = sent_rx.recv_timeout(Duration::from_millis(50));
                assert!(early.is_err(), "{what}: {early:?} before a drain");
                service.run_dynamic(queue)
            });
            assert_eq!(sent_rx.recv(), Ok(bound + 1), "{what}");
            let batches = kinds.iter().filter(|&&k| k == "Batch").count();
            assert_eq!(report.sessions[0].report.batches.len(), batches, "{what}");
            let got = event_shape(ev_rx.try_iter());
            let want: Vec<&str> = kinds.iter().copied().chain(["Finished"]).collect();
            assert_eq!(got, want, "{what}: one event per item, in order");
        }
    }

    /// A lane's items are answered in send order. A producer queues
    /// `batch, batch, delta, batch, flush` without waiting on any
    /// answer; the events come back as `Batch, Batch, Delta(Ok(g)),
    /// Batch, Flushed, Finished`, and the batches equal a session that
    /// calls `apply_master_delta` at the same position — whole outcomes,
    /// `BddStats` and generations — at 1, 2 and 4 workers.
    #[test]
    fn a_lane_answers_its_items_in_send_order() {
        let (hosp, datasets) = hosp_sessions(150, &[240]);
        let ds = &datasets[0];
        let dirty = dirty_of(ds);
        let parts: Vec<&[Tuple]> = dirty.chunks(80).collect();
        // rewrite a rule's master key column
        let (_, rule) = hosp.rules().iter().next().expect("HOSP has rules");
        let mut keyed = hosp.master().tuple(0).clone();
        keyed.set(rule.lhs_m()[0], Value::str("KEY-COLUMN-REWRITTEN"));
        let delta = MasterDelta::new().update(0, keyed);

        for bdd in [false, true] {
            let mut session = solo_session(&hosp, bdd, 1);
            session.push_batch(parts[0], user(ds));
            session.push_batch(parts[1], user(ds));
            let g = session.apply_master_delta(&delta).expect("delta applies");
            session.push_batch(parts[2], user(ds));
            let want = session.finish();

            for workers in [1usize, 2, 4] {
                let what = format!("bdd {bdd}, {workers} workers");
                let service = open_service(
                    &hosp,
                    bdd,
                    ServiceOptions {
                        threads: workers,
                        depth: 5,
                        ..ServiceOptions::default()
                    },
                );
                let (attach, queue) = service.attach_channel();
                let (ev_tx, ev_rx) = channel();
                let lane = attach.attach("s", user(ds), Some(ev_tx)).expect("open");
                drop(attach);
                lane.send(parts[0].to_vec()).expect("lane open");
                lane.send(parts[1].to_vec()).expect("lane open");
                lane.send_delta(delta.clone()).expect("lane open");
                lane.send(parts[2].to_vec()).expect("lane open");
                lane.send_flush().expect("lane open");
                drop(lane);
                let report = service.run_dynamic(queue);

                let delta_ok = format!("Delta(Ok({g}))");
                assert_eq!(
                    event_shape(ev_rx.try_iter()),
                    ["Batch", "Batch", &delta_ok, "Batch", "Flushed", "Finished"],
                    "{what}"
                );
                let got = &report.sessions[0].report;
                assert_eq!(got.batches.len(), 3, "{what}");
                for (k, (a, b)) in got.batches.iter().zip(&want.batches).enumerate() {
                    assert_eq!(a.outcomes, b.outcomes, "{what}, batch {k}");
                    assert_eq!(a.bdd, b.bdd, "{what}, batch {k}");
                    assert_eq!(a.generation, b.generation, "{what}, batch {k}");
                }
                assert_eq!(got.stats.plan_rebuilds, 1, "{what}");
            }
        }
    }

    /// The dynamic-attach hooks behind the network server: sessions
    /// attached to a *running* `run_dynamic` at staggered times get
    /// per-epoch [`SessionEvent::Batch`]es, exactly one
    /// [`SessionEvent::Finished`] carrying the final fold without its
    /// batches, and
    /// results bit-identical to the all-up-front [`run`] (which is
    /// itself bit-identical to solo drains).
    #[test]
    fn dynamic_attach_matches_static_run() {
        let (hosp, datasets) = hosp_sessions(150, &[240, 90]);
        let dirty: Vec<Vec<Tuple>> = datasets.iter().map(dirty_of).collect();
        let mk_service = || {
            open_service(
                &hosp,
                false,
                ServiceOptions {
                    threads: 2,
                    ..ServiceOptions::default()
                },
            )
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
                        user(ds),
                    )
                })
                .collect(),
        );

        let service = mk_service();
        let (attach, queue) = service.attach_channel();
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
                    let lane = attach
                        .attach(format!("s{s}"), user(ds), Some(ev))
                        .expect("service is draining");
                    // each session's producer feeds its lane, then
                    // drops it to end the stream
                    scope.spawn(move || {
                        for batch in SliceSource::with_batch(&attacher_dirty[s], 32) {
                            lane.send(batch).expect("service is draining");
                        }
                    });
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
            // took part in, then Finished
            let evs: Vec<SessionEvent> = event_rxs[s].try_iter().collect();
            let batches: Vec<&BatchReport> = evs
                .iter()
                .filter_map(|e| match e {
                    SessionEvent::Batch(b) => Some(b),
                    _ => None,
                })
                .collect();
            assert_eq!(batches.len(), named.report.batches.len(), "session {s}");
            for (eb, rb) in batches.iter().zip(&named.report.batches) {
                assert_eq!(eb.outcomes, rb.outcomes, "session {s}");
            }
            // ... carrying the fold alone: the batches went out as
            // they completed
            match evs.last() {
                Some(SessionEvent::Finished(final_report)) => {
                    assert!(final_report.batches.is_empty(), "session {s}");
                    assert_eq!(final_report.tuples, named.report.tuples);
                    assert_eq!(final_report.stats.tuples, named.report.stats.tuples);
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
        let service = open_service(&hosp, false, ServiceOptions::default());
        let mut took = Vec::with_capacity(50);
        for round in 0..50 {
            let (attach, queue) = service.attach_channel();
            let (ev_tx, ev_rx) = channel();
            let ds = &datasets[0];
            std::thread::scope(|scope| {
                let returned = scope.spawn(|| {
                    service.run_dynamic(queue);
                    Instant::now()
                });
                let lane = attach
                    .attach("s", user(ds), Some(ev_tx))
                    .expect("service is running");
                lane.send(dirty.clone()).expect("service is running");
                drop(lane);
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
    /// same units, so under `CertainFix+` with a key-column master delta
    /// between two batches, the service's batches equal the session's:
    /// whole outcomes, `BddStats` and the generation each pinned — and
    /// both reports count the one plan rebuild.
    #[test]
    fn a_one_stream_service_matches_the_session_across_a_delta() {
        let (hosp, datasets) = hosp_sessions(150, &[240]);
        let ds = &datasets[0];
        let dirty = dirty_of(ds);
        let (head, tail) = dirty.split_at(120);
        let oracle_for = user(ds);
        // rewrite a rule's master key column
        let (_, rule) = hosp.rules().iter().next().expect("HOSP has rules");
        let mut keyed = hosp.master().tuple(0).clone();
        keyed.set(rule.lhs_m()[0], Value::str("KEY-COLUMN-REWRITTEN"));
        let delta = MasterDelta::new().update(0, keyed);

        let mut session = solo_session(&hosp, true, 2);
        session.push_batch(head, oracle_for);
        session.apply_master_delta(&delta).expect("delta applies");
        session.push_batch(tail, oracle_for);
        let want = session.finish();

        let service = open_service(
            &hosp,
            true,
            ServiceOptions {
                threads: 2,
                depth: 1,
                ..ServiceOptions::default()
            },
        );
        let (attach, queue) = service.attach_channel();
        let (ev_tx, ev_rx) = channel();
        let lane = attach
            .attach("s", oracle_for, Some(ev_tx))
            .expect("the queue is open");
        drop(attach);
        let service = &service;
        let report = std::thread::scope(|scope| {
            scope.spawn(move || {
                lane.send(head.to_vec()).expect("lane open");
                // the delta lands between the two batches' epochs
                assert!(matches!(ev_rx.recv(), Ok(SessionEvent::Batch(_))));
                service
                    .context()
                    .apply_master_delta(&delta)
                    .expect("delta applies");
                lane.send(tail.to_vec()).expect("lane open");
            });
            service.run_dynamic(queue)
        });

        let got = &report.sessions[0].report;
        assert_eq!(got.batches.len(), 2);
        assert!(want.batches[0].generation < want.batches[1].generation);
        for (k, (a, b)) in got.batches.iter().zip(&want.batches).enumerate() {
            assert_eq!(a.outcomes, b.outcomes, "batch {k}");
            assert_eq!(a.bdd, b.bdd, "batch {k}");
            assert_eq!(a.generation, b.generation, "batch {k}");
        }
        assert_eq!(got.bdd, want.bdd);
        // the session is charged the rebuild it spanned, as the solo
        // session is
        assert_eq!(want.stats.plan_rebuilds, 1);
        assert_eq!(got.stats.plan_rebuilds, want.stats.plan_rebuilds);
        assert_eq!(report.stats.plan_rebuilds, 1);
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

        let mut session = solo_session(&hosp, false, 1);
        session.drain(SliceSource::with_batch(&dirty, 16), oracle_for);
        assert_eq!(session.finish().tuples, 40);
        let service = open_service(
            &hosp,
            false,
            ServiceOptions {
                threads: 1,
                ..ServiceOptions::default()
            },
        );
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
