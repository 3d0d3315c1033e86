//! The unified repair-session API: streaming ingest of dirty-tuple
//! batches.
//!
//! The paper's framework is a *data monitor* — it repairs tuples at the
//! point of entry, i.e. it is fundamentally a streaming system. This
//! module makes that the primary entry-point surface: a source is any
//! iterator of batches (`Vec<Tuple>`s in stream order — a
//! [`SliceSource`] over an in-memory slice, a generator, the receiving
//! half of a channel), and a [`RepairSession`] drains it through the
//! work-stealing fan-out of a [`RepairContext`], emitting one unified
//! [`SessionReport`]. Each pushed batch is a one-unit epoch of that
//! fan-out — the same function a
//! [`RepairService`](crate::service::RepairService) epoch runs through
//! — and the calling thread is its worker 0, so a one-worker session
//! spawns no thread. The session is also where the master data goes
//! *live*: [`apply_master_delta`](RepairSession::apply_master_delta)
//! applies a [`MasterDelta`] between batches; the next batch repairs
//! against the new [generation](RepairContext::generation), each
//! [`BatchReport::generation`] records the epoch it pinned, and the
//! merged report counts the hand-offs in
//! [`MonitorStats::plan_rebuilds`].
//!
//! There is one front door. Build a [`RepairContext`] (`new`, or
//! `with_config` for the initial region and the `CertainFix`
//! configuration), wrap it in a [`BatchRepairEngine`], and open a
//! session over it with a [`RepairOptions`] literal:
//! [`from_engine`](RepairSession::from_engine) owns the engine,
//! [`borrowed`](RepairSession::borrowed) lets sessions take turns
//! over one warm engine. For N streams that must run *concurrently* —
//! many tenants feeding one deployment — the [`service`](crate::service)
//! layer opens the same way and hands back one [`SessionReport`] per
//! stream, shaped exactly as if each had run alone here.
//!
//! ```
//! use certainfix_core::{BatchRepairEngine, RepairContext, RepairOptions, RepairSession};
//! use certainfix_core::{SimulatedUser, SliceSource};
//! use certainfix_datagen::{Dataset, DirtyConfig, Hosp, Workload};
//!
//! let hosp = Hosp::generate(100);
//! let ds = Dataset::generate(&hosp, &DirtyConfig { input_size: 40, ..Default::default() });
//! let dirty: Vec<_> = ds.inputs.iter().map(|dt| dt.dirty.clone()).collect();
//!
//! let ctx = RepairContext::new(hosp.rules().clone(), hosp.master().clone(), false);
//! let opts = RepairOptions { threads: 2, ..RepairOptions::default() };
//! let mut session = RepairSession::from_engine(BatchRepairEngine::new(ctx), opts);
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
//! batching: for plain `CertainFix` (`use_bdd = false`), the
//! concatenated outcomes and the merged count fields of
//! a drained stream are **bit-identical to a single sequential
//! [`repair_opts`](RepairContext::repair_opts) call over the
//! same tuples in the same order** — regardless of how the source cuts
//! the stream into batches, the schedule, or the worker count. See
//! [`RepairSession::drain`] for the contract that makes this hold.
//! Under `CertainFix+` each chunk builds its own diagram, so
//! outcomes and [`BddStats`] depend on where the batches and chunks
//! fall — but still not on the schedule or the worker count (D12).

use std::ops::Deref;
use std::time::Duration;

use certainfix_relation::{MasterDelta, RelationError, Tuple};

use crate::bdd::BddStats;
use crate::certainfix::FixOutcome;
use crate::engine::{
    BatchRepairEngine, BatchReport, RepairContext, RepairOptions, SharedCacheStats,
};
use crate::monitor::MonitorStats;
use crate::oracle::UserOracle;

/// A borrowed `&[Tuple]` as a source: an iterator yielding the slice in
/// stream order, in batches of a configurable size.
#[derive(Clone, Debug)]
pub struct SliceSource<'a> {
    tuples: &'a [Tuple],
    batch: usize,
}

impl<'a> SliceSource<'a> {
    /// The slice cut into batches of (up to) `batch` tuples.
    pub fn with_batch(tuples: &'a [Tuple], batch: usize) -> SliceSource<'a> {
        assert!(batch > 0, "batch size must be positive");
        SliceSource { tuples, batch }
    }
}

impl Iterator for SliceSource<'_> {
    type Item = Vec<Tuple>;

    fn next(&mut self) -> Option<Vec<Tuple>> {
        if self.tuples.is_empty() {
            return None;
        }
        let (head, rest) = self.tuples.split_at(self.batch.min(self.tuples.len()));
        self.tuples = rest;
        Some(head.to_vec())
    }
}

/// The context behind a session: owned by a
/// [`from_engine`](RepairSession::from_engine) session, borrowed by a
/// [`borrowed`](RepairSession::borrowed) one and by the service's
/// sessions.
pub(crate) enum ContextRef<'e> {
    Owned(Box<RepairContext>),
    Borrowed(&'e RepairContext),
}

impl Deref for ContextRef<'_> {
    type Target = RepairContext;

    fn deref(&self) -> &RepairContext {
        match self {
            ContextRef::Owned(ctx) => ctx,
            ContextRef::Borrowed(ctx) => ctx,
        }
    }
}

/// A repair session: drains streams of batches (or explicit batches)
/// through the context's fan-out under one fixed set of
/// [`RepairOptions`], accumulating per-batch [`BatchReport`]s and the
/// global stream offset. [`finish`](Self::finish) folds them into a
/// [`SessionReport`].
pub struct RepairSession<'e> {
    ctx: ContextRef<'e>,
    opts: RepairOptions,
    batches: Vec<BatchReport>,
    tuples: usize,
    /// The context's [`plan_rebuilds`](RepairContext::plan_rebuilds)
    /// when the session opened; the merged report charges the epochs
    /// rebuilt since.
    rebuilds_at_open: u64,
}

impl<'e> RepairSession<'e> {
    /// Open a session that owns the engine's context.
    pub fn from_engine(engine: BatchRepairEngine, opts: RepairOptions) -> RepairSession<'static> {
        RepairSession::open(ContextRef::Owned(Box::new(engine.ctx)), opts)
    }

    /// Open a session over a borrowed engine: several sessions may take
    /// turns over one warm engine.
    pub fn borrowed(engine: &'e BatchRepairEngine, opts: RepairOptions) -> RepairSession<'e> {
        RepairSession::open(ContextRef::Borrowed(&engine.ctx), opts)
    }

    pub(crate) fn open(ctx: ContextRef<'e>, opts: RepairOptions) -> RepairSession<'e> {
        RepairSession {
            rebuilds_at_open: ctx.plan_rebuilds(),
            ctx,
            opts,
            batches: Vec::new(),
            tuples: 0,
        }
    }

    /// The repair context behind this session.
    pub fn context(&self) -> &RepairContext {
        &self.ctx
    }

    /// Apply a batch of master mutations to the live master: the
    /// context builds the next epoch (the delta's rows, a plan compiled
    /// and indexed over them) and swaps it in; batches pushed after
    /// this call repair against the new generation, while any batch
    /// already fanned out finishes on the epoch it pinned. Returns the
    /// new generation. The merged [`SessionReport`] counts the epochs
    /// the context rebuilt while the session was open — these hand-offs
    /// and any other delta applied to the context meanwhile — in
    /// [`MonitorStats::plan_rebuilds`].
    pub fn apply_master_delta(&mut self, delta: &MasterDelta) -> Result<u64, RelationError> {
        self.context().apply_master_delta(delta)
    }

    /// Tuples ingested so far: the global stream offset the next batch
    /// starts at.
    pub(crate) fn tuples_ingested(&self) -> usize {
        self.tuples
    }

    /// Repair one batch — a one-unit epoch of the context's fan-out.
    /// `oracle_for` receives the **global stream index** (tuples
    /// ingested before this batch + offset within it), so a stream
    /// meets the same oracles however it is batched; it is called from
    /// worker threads and must depend only on the index. Returns the
    /// appended report.
    pub fn push_batch<F, O>(&mut self, dirty: &[Tuple], oracle_for: F) -> &BatchReport
    where
        F: Fn(usize) -> O + Sync,
        O: UserOracle,
    {
        let base = self.tuples;
        let unit = (dirty, |i: usize| oracle_for(base + i));
        let report = self.context().fan_out(&[unit], &self.opts).pop();
        self.record(report.expect("one report per unit"))
    }

    /// Append the report of the session's next batch, however it was
    /// fanned out (the service runs one unit per session per epoch).
    pub(crate) fn record(&mut self, report: BatchReport) -> &BatchReport {
        self.tuples += report.outcomes.len();
        self.batches.push(report);
        self.batches.last().expect("just pushed")
    }

    /// Drain a stream of batches to exhaustion, one
    /// [`push_batch`](Self::push_batch) per yielded batch (empty batches
    /// are skipped). Returns the number of tuples drained.
    ///
    /// # Ordering and determinism contract
    ///
    /// `source` yields the tuples of one logical stream **in stream
    /// order**, and must not reorder, drop or duplicate them. Each
    /// tuple's oracle is `oracle_for(i)` with `i` its *global stream
    /// index* (the tuples ingested before it), so a tuple meets the same
    /// oracle whether it arrives in one batch of 10 000 or 10 000
    /// batches of one. Under that contract a drain is — for plain
    /// `CertainFix` — bit-identical in outcomes and merged counts to
    /// repairing the concatenated stream as one sequential batch,
    /// however the stream is cut into batches. A
    /// [`RepairService`](crate::service::RepairService) stream keeps the
    /// same contract: its indexes are its own, whatever else is
    /// multiplexed beside it.
    pub fn drain<I, F, O>(&mut self, source: I, oracle_for: F) -> usize
    where
        I: IntoIterator<Item = Vec<Tuple>>,
        F: Fn(usize) -> O + Sync,
        O: UserOracle,
    {
        let mut drained = 0usize;
        for batch in source {
            if batch.is_empty() {
                continue;
            }
            self.push_batch(&batch, &oracle_for);
            drained += batch.len();
        }
        drained
    }

    /// End the session and emit the unified report. An owned context
    /// is dropped with the session.
    pub fn finish(self) -> SessionReport {
        let rebuilds = self.context().plan_rebuilds() - self.rebuilds_at_open;
        SessionReport::from_batches(self.batches, rebuilds)
    }
}

/// The unified result of one session: every per-batch [`BatchReport`]
/// plus the cumulative merged statistics.
#[derive(Clone, Debug)]
pub struct SessionReport {
    /// Per-batch reports, in stream order; each batch's outcomes and
    /// worker ranges are indexed from the *batch's* start.
    pub batches: Vec<BatchReport>,
    /// Merged monitor statistics ([`MonitorStats::merge`] over all
    /// batches — counts sum, the interner watermark maxes).
    pub stats: MonitorStats,
    /// BDD statistics summed over every batch's chunks.
    pub bdd: BddStats,
    /// Always `None`: there is no engine-lifetime pool to report on
    /// (see [`SharedCacheStats`]).
    pub shared: Option<SharedCacheStats>,
    /// Summed repair wall-clock over all batches. Time the session
    /// spent *waiting on the source* (e.g. a backpressured channel) is
    /// not included.
    pub wall: Duration,
    /// Total tuples repaired.
    pub tuples: usize,
}

impl SessionReport {
    /// The one fold of a session's batches, in stream order, into its
    /// report: statistics merge ([`MonitorStats::merge`] /
    /// [`BddStats::merge`] — counts sum, the interner watermark maxes),
    /// `wall` and `tuples` sum, and the batches are attached.
    /// `plan_rebuilds` is the epochs the context rebuilt while the
    /// session was open: deltas are a context-level event that no
    /// batch's worker stats see. A solo [`RepairSession`], the
    /// [`service`](crate::service) scheduler and the wire client all
    /// report through this fold, so a session's numbers are the same
    /// whether it ran alone, multiplexed, or over a socket.
    pub fn from_batches(batches: Vec<BatchReport>, plan_rebuilds: u64) -> SessionReport {
        let mut stats = MonitorStats::default();
        let mut bdd = BddStats::default();
        let (mut wall, mut tuples) = (Duration::ZERO, 0);
        for batch in &batches {
            stats.merge(&batch.stats);
            bdd.merge(&batch.bdd);
            wall += batch.wall;
            tuples += batch.outcomes.len();
        }
        stats.plan_rebuilds += plan_rebuilds;
        SessionReport {
            batches,
            stats,
            bdd,
            shared: None,
            wall,
            tuples,
        }
    }

    /// Per-tuple outcomes across all batches, in global stream order.
    pub fn outcomes(&self) -> impl Iterator<Item = &FixOutcome> {
        self.batches.iter().flat_map(|b| b.outcomes.iter())
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use crate::metrics::{evaluate_rounds, merge_round_series, RoundMetrics, TupleEval};
    use crate::oracle::SimulatedUser;
    use certainfix_datagen::{
        Dataset, Dblp, DirtyConfig, DirtyTuple, Hosp, Workload as GenWorkload,
    };
    use certainfix_relation::Relation;

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
        let ctx = RepairContext::new(hosp.rules().clone(), hosp.master().clone(), false);
        let opts = RepairOptions {
            threads,
            ..RepairOptions::default()
        };
        RepairSession::from_engine(BatchRepairEngine::new(ctx), opts)
    }

    /// Merge per-(batch, worker) metric rows — any partition of the
    /// stream merges to the same rows, since the merge sums raw counts.
    fn eval_merged(
        report: &SessionReport,
        inputs: &[DirtyTuple],
        rounds: usize,
    ) -> Vec<RoundMetrics> {
        let mut merged: Option<Vec<RoundMetrics>> = None;
        let mut offset = 0;
        for batch in &report.batches {
            for worker in &batch.workers {
                let evals: Vec<TupleEval> = (worker.ranges.iter())
                    .flat_map(Clone::clone)
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
            offset += batch.outcomes.len();
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

    /// D5: a skewed 10k HOSP stream drained in 512-tuple batches at 1,
    /// 2, and 4 workers yields outcomes and merged metrics bit-identical
    /// to one [`repair_opts`](RepairContext::repair_opts) call over
    /// the whole stream.
    #[test]
    fn batched_stream_is_bit_identical_to_one_batch_1_2_4() {
        let (hosp, ds) = hosp_stream(500, 10_000, 1.0);
        let dirty = dirty_of(&ds);
        let ctx = RepairContext::new(hosp.rules().clone(), hosp.master().clone(), false);
        let oracle_for = |i: usize| SimulatedUser::new(ds.inputs[i].clean.clone());
        let opts = RepairOptions {
            threads: 1,
            ..RepairOptions::default()
        };
        let whole =
            SessionReport::from_batches(vec![ctx.repair_opts(&dirty, &opts, oracle_for)], 0);
        let (batch, batch_metrics) = (&whole.batches[0], eval_merged(&whole, &ds.inputs, 4));

        for workers in [1usize, 2, 4] {
            let mut session = plain_session(&hosp, workers);
            session.drain(dirty.chunks(512).map(<[Tuple]>::to_vec), oracle_for);
            let report = session.finish();
            assert!(report.batches.len() > 1, "the stream really was batched");
            assert_stream_equals_batch(&report, batch, &format!("{workers} workers"));
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
        whole.drain(SliceSource::with_batch(&dirty, dirty.len()), oracle_for);
        let whole = whole.finish();
        assert_eq!(whole.batches.len(), 1);

        for batch in [1usize, 7, 100, 600] {
            let mut session = plain_session(&hosp, 2);
            let drained = session.drain(SliceSource::with_batch(&dirty, batch), oracle_for);
            assert_eq!(drained, 600);
            let report = session.finish();
            assert_eq!(report.batches.len(), 600usize.div_ceil(batch));
            for (i, (a, b)) in report.outcomes().zip(whole.outcomes()).enumerate() {
                assert_eq!(a.tuple, b.tuple, "tuple {i} at batch {batch}");
            }
            assert_eq!(report.stats.certain, whole.stats.certain);
            assert_eq!(report.stats.rounds, whole.stats.rounds);
            assert_eq!(report.tuples, whole.tuples);
            // the batches tile the stream
            let offsets: Vec<usize> = (report.batches.iter())
                .scan(0, |at, b| {
                    Some(std::mem::replace(at, *at + b.outcomes.len()))
                })
                .collect();
            assert_eq!(offsets, (0..600).step_by(batch).collect::<Vec<_>>());
            assert_eq!(report.outcomes().count(), 600);
        }
    }

    #[test]
    fn empty_sources_finish_empty() {
        let hosp = Hosp::generate(30);
        let mut session = plain_session(&hosp, 2);
        assert_eq!(
            session.drain(SliceSource::with_batch(&[], 1), |_| SimulatedUser::new(
                hosp.master().tuple(0).clone()
            )),
            0
        );
        assert_eq!(
            session.drain(std::iter::empty(), |_| SimulatedUser::new(
                hosp.master().tuple(0).clone()
            )),
            0
        );
        // a stream of empty batches repairs nothing and reports nothing
        assert_eq!(
            session.drain(vec![Vec::new(); 3], |_| SimulatedUser::new(
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
                let ctx = RepairContext::new(w.rules().clone(), states[0].clone(), false);
                let opts = RepairOptions {
                    threads: workers,
                    ..RepairOptions::default()
                };
                let mut session = RepairSession::from_engine(BatchRepairEngine::new(ctx), opts);
                for k in 0..3 {
                    session.push_batch(&dirty[cuts[k]..cuts[k + 1]], oracle_for);
                    if k < 2 {
                        let mut delta = MasterDelta::new();
                        for t in &full.tuples()[n - 40 + 20 * k..n - 20 + 20 * k] {
                            delta = delta.insert(t.clone());
                        }
                        let generation = session.apply_master_delta(&delta).expect("delta applies");
                        assert_eq!(generation, session.context().generation());
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
                    let fresh = RepairContext::new(w.rules().clone(), states[k].clone(), false);
                    let opts = RepairOptions {
                        threads: 1,
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
}
