//! One repetition of a workload: fresh engine → set-up → timed stream
//! → master deltas → finish, with every outcome checked.
//!
//! The system is driven through its public functions only; the clock
//! is the raw monotonic `Instant`.

use std::sync::Arc;
use std::time::Instant;

use certainfix_core::bdd::BddStats;
use certainfix_core::{
    BatchRepairEngine, BatchReport, CertainFixConfig, FixOutcome, InitialRegion, MonitorStats,
    NetLaneStats, RepairContext, RepairOptions, RepairService, RepairSession, Schedule,
    ServiceOptions, ServiceReport, SharedCacheStats, SimulatedUser, UserOracle,
};
use certainfix_net::{RepairClient, RepairServer};
use certainfix_relation::{AttrId, MasterIndex, Tuple, Value};

use crate::inputs::{Inputs, Slice};
use crate::spec::Workload;
use crate::sys::process_cpu_ms;
use crate::trace::{Span, Tracer, NO_PARENT};

/// Submit units of rep 0 whose rounds are recorded as spans. A round
/// is microseconds of work; recording all of them would mostly
/// measure the span buffer.
const ROUND_UNITS: i64 = 8;

/// A [`SimulatedUser`] that stamps the clock after every answer; the
/// gaps between consecutive answers (the last one closed when the
/// engine drops the oracle) are the tuple's interaction rounds as the
/// engine computes them — Fig. 12's quantity.
pub struct TimedUser<'t> {
    inner: SimulatedUser,
    tracer: &'t Tracer,
    /// Where the rounds go. `None` stamps the clock all the same (a
    /// traced repetition costs the same throughout) and keeps nothing.
    rounds: Option<RoundSpans>,
    answered: Vec<u64>,
}

/// The name, parent, rep and unit a [`TimedUser`]'s round spans carry.
#[derive(Clone, Copy)]
pub struct RoundSpans {
    pub name: &'static str,
    pub parent: i64,
    pub rep: i64,
    pub unit: i64,
}

impl<'t> TimedUser<'t> {
    pub fn new(clean: &Tuple, tracer: &'t Tracer, rounds: Option<RoundSpans>) -> TimedUser<'t> {
        TimedUser {
            inner: SimulatedUser::new(clean.clone()),
            tracer,
            rounds,
            answered: Vec::with_capacity(4),
        }
    }
}

impl UserOracle for TimedUser<'_> {
    fn assert_correct(&mut self, t: &Tuple, suggestion: &[AttrId]) -> Vec<(AttrId, Value)> {
        let answer = self.inner.assert_correct(t, suggestion);
        self.answered.push(self.tracer.now_ns());
        answer
    }
}

impl Drop for TimedUser<'_> {
    fn drop(&mut self) {
        let done = self.tracer.now_ns();
        let Some(rounds) = self.rounds else {
            return;
        };
        let ends = self.answered.iter().skip(1).chain(std::iter::once(&done));
        for (&start_ns, &end_ns) in self.answered.iter().zip(ends) {
            self.tracer.record(Span {
                name: rounds.name.into(),
                start_ns,
                end_ns,
                parent: rounds.parent,
                rep: rounds.rep,
                unit: rounds.unit,
                count: 1,
            });
        }
    }
}

/// A fresh engine over the workload's starting master.
pub fn fresh_engine(w: &Workload, inputs: &Inputs) -> BatchRepairEngine {
    BatchRepairEngine::new(RepairContext::with_config(
        inputs.rules.clone(),
        Arc::clone(&inputs.master),
        w.bdd,
        InitialRegion::Best,
        CertainFixConfig::default(),
    ))
}

pub fn repair_options(w: &Workload, workers: usize) -> RepairOptions {
    RepairOptions {
        threads: workers,
        schedule: Schedule::Steal,
        shared_cache: w.shared_cache,
        chunk: 0,
    }
}

pub fn service_options(w: &Workload) -> ServiceOptions {
    ServiceOptions {
        threads: w.workers,
        chunk: 0,
        shared_cache: w.shared_cache,
        depth: 2,
    }
}

/// What a repetition talks to.
enum Lane {
    Session(Box<RepairSession<'static>>),
    Wire {
        server: RepairServer,
        client: Box<RepairClient>,
    },
}

/// What one repetition measured and checked.
#[derive(Default)]
pub struct Rep {
    pub slice: usize,
    pub setup_s: f64,
    pub stream_s: f64,
    pub stream_tuples: usize,
    /// Process CPU time over the timed stream, all threads.
    pub stream_cpu_ms: f64,
    /// Submit → report in hand, for every unit of the timed stream.
    pub unit_ms: Vec<f64>,
    /// Every delta's latency, inside the stream or after it.
    pub delta_ms: Vec<f64>,
    pub finish_ms: f64,
    /// Tuples and deltas submitted.
    pub attempted: u64,
    /// Erroring calls, tuples without an outcome, `certain` outcomes
    /// that differ from the generator's clean tuple.
    pub failed: u64,
    /// The first call that errored, if any; the repetition stops there.
    pub error: Option<String>,
    pub tuples: u64,
    pub rounds: u64,
    pub certain: u64,
    /// [`outcome_digest`] of the repetition's outcomes.
    pub digest: u64,
    pub stats: MonitorStats,
    pub bdd: BddStats,
    pub shared: Option<SharedCacheStats>,
    pub net: NetLaneStats,
    /// Scheduler epochs of the service (wire workloads).
    pub epochs: u64,
    /// Σ worker `elapsed` ÷ (batch wall × workers), over the rep's batches.
    pub busy_share: f64,
    /// Max ÷ mean tuples per worker over the rep.
    pub imbalance: f64,
    pub index_builds: u64,
    pub index_patches: u64,
}

impl Rep {
    /// Count `outcomes`, the answers to a stream whose ground truth is
    /// `clean`, and check the paper's precision-1 guarantee on each.
    fn count<'a>(&mut self, outcomes: impl Iterator<Item = &'a FixOutcome>, clean: &[Tuple]) {
        for (o, clean) in outcomes.zip(clean) {
            self.tuples += 1;
            self.rounds += o.rounds.len() as u64;
            if o.certain {
                self.certain += 1;
                if &o.tuple != clean {
                    self.failed += 1; // a certain fix that is not the truth
                }
            }
        }
    }
}

/// FNV-1a over every outcome's cell contents and certainty flag. It
/// hashes the text of a string cell, never its interned symbol id, so
/// the digest is comparable across engines, transports and processes.
pub fn outcome_digest<'a>(outcomes: impl Iterator<Item = &'a FixOutcome>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for o in outcomes {
        for v in o.tuple.values() {
            // a tag per kind and a terminator per cell keep ("ab", "c")
            // and ("a", "bc") apart
            match v {
                Value::Null => eat(&[0]),
                Value::Int(i) => {
                    eat(&[1]);
                    eat(&i.to_le_bytes());
                }
                Value::Str(s) => {
                    eat(&[2]);
                    eat(s.as_str().as_bytes());
                }
            }
            eat(&[0xFE]);
        }
        eat(&[u8::from(o.certain), 0xFF]);
    }
    h
}

/// `(busy share, imbalance)` of a pool of `workers` over `batches`. A
/// batch report lists only the workers that touched the batch (the
/// service may hand a 16-tuple page to one of its two), so the pool
/// size comes from the workload, not from the reports.
fn worker_balance(batches: &[BatchReport], workers: usize) -> (f64, f64) {
    let (mut busy, mut capacity) = (0.0, 0.0);
    let mut per_worker: Vec<usize> = vec![0; workers];
    for b in batches {
        capacity += b.wall.as_secs_f64() * workers as f64;
        for wr in &b.workers {
            busy += wr.stats.elapsed.as_secs_f64();
            if per_worker.len() <= wr.worker {
                per_worker.resize(wr.worker + 1, 0);
            }
            per_worker[wr.worker] += wr.tuples();
        }
    }
    let total: usize = per_worker.iter().sum();
    let imbalance = match per_worker.iter().max() {
        Some(&max) if total > 0 => max as f64 * per_worker.len() as f64 / total as f64,
        _ => 1.0,
    };
    (
        if capacity > 0.0 { busy / capacity } else { 0.0 },
        imbalance,
    )
}

impl Lane {
    /// An in-process session over `engine`, or a loopback server over
    /// it with one connected client.
    fn open(
        w: &Workload,
        engine: BatchRepairEngine,
        tr: &Tracer,
        parent: i64,
        rep: i64,
    ) -> Result<Lane, String> {
        if !w.wire {
            let session = RepairSession::from_engine(engine, repair_options(w, w.workers));
            return Ok(Lane::Session(Box::new(session)));
        }
        let s = tr.open("server_bind", parent, rep, -1);
        let service = RepairService::from_engine(engine, service_options(w));
        let server = RepairServer::serve_tcp(service, "127.0.0.1:0", None);
        tr.close(s);
        let server = server.map_err(|e| format!("serve_tcp: {e}"))?;
        let s = tr.open("connect", parent, rep, -1);
        let client = server
            .local_addr()
            .ok_or_else(|| "the server has no TCP address".to_string())
            .and_then(|addr| {
                RepairClient::connect_tcp(addr, w.name, None).map_err(|e| format!("connect: {e}"))
            });
        tr.close(s);
        match client {
            Ok(client) => Ok(Lane::Wire {
                server,
                client: Box::new(client),
            }),
            Err(e) => {
                server.shutdown();
                Err(e)
            }
        }
    }

    fn submit(
        &mut self,
        w: &Workload,
        slice: &Slice,
        unit: usize,
        tr: &Tracer,
        span: i64,
        rep: i64,
    ) -> Result<(), String> {
        let lo = unit * w.unit_tuples();
        for f in 0..w.frames_per_unit {
            let range = lo + f * w.frame..lo + (f + 1) * w.frame;
            match self {
                Lane::Session(session) => {
                    let dirty = &slice.dirty[range];
                    if tr.on() {
                        let unit = unit as i64;
                        let rounds = (rep == 0 && unit < ROUND_UNITS).then_some(RoundSpans {
                            name: "round",
                            parent: span,
                            rep,
                            unit,
                        });
                        session.push_batch(dirty, |i| TimedUser::new(&slice.clean[i], tr, rounds));
                    } else {
                        session.push_batch(dirty, |i| SimulatedUser::new(slice.clean[i].clone()));
                    }
                }
                Lane::Wire { client, .. } => {
                    client
                        .send_batch(&slice.dirty[range.clone()], &slice.clean[range])
                        .map_err(|e| format!("send_batch: {e}"))?;
                }
            }
        }
        if let Lane::Wire { client, .. } = self {
            client.flush().map_err(|e| format!("flush: {e}"))?;
        }
        Ok(())
    }

    fn delta(&mut self, inputs: &Inputs, k: usize) -> Result<(), String> {
        let delta = inputs.delta(k);
        match self {
            Lane::Session(session) => session
                .apply_master_delta(delta)
                .map(drop)
                .map_err(|e| format!("apply_master_delta: {e}")),
            Lane::Wire { client, .. } => client
                .apply_delta(delta)
                .map(drop)
                .map_err(|e| format!("apply_delta: {e}")),
        }
    }
}

/// Run repetition `rep` of `w`. Spans go to `tr` (a disabled tracer
/// records nothing).
pub fn run_rep(w: &Workload, inputs: &Inputs, rep: usize, tr: &Tracer) -> Rep {
    let slice_ix = rep % inputs.pool.len();
    let slice = &inputs.pool[slice_ix];
    let rep_id = rep as i64;
    let mut out = Rep {
        slice: slice_ix,
        imbalance: 1.0,
        ..Rep::default()
    };
    let s_rep = tr.open("rep", NO_PARENT, rep_id, -1);

    // ---- set-up: context build … first unit answered, all cold
    let s_setup = tr.open("setup", s_rep, rep_id, -1);
    let started = Instant::now();
    let s = tr.open("context_build", s_setup, rep_id, -1);
    let engine = fresh_engine(w, inputs);
    tr.close(s);
    // the lineage's build/patch counters are shared by every generation
    let lineage: Option<MasterIndex> = tr.on().then(|| engine.context().epoch().master().clone());
    let mut lane = match Lane::open(w, engine, tr, s_setup, rep_id) {
        Ok(lane) => lane,
        Err(e) => {
            out.error = Some(e);
            out.attempted = 1;
            out.failed = 1;
            tr.close(s_setup);
            tr.close(s_rep);
            return out;
        }
    };

    let mut sent = 0usize; // tuples submitted
    let mut deltas = 0usize;
    // one submit unit (`Some(u)`) or one delta (`None`), timed from
    // the call to the answer in hand
    let mut step = |lane: &mut Lane, out: &mut Rep, unit: Option<usize>, parent: i64| {
        let name = match unit {
            Some(0) => "first_unit",
            Some(_) => "submit",
            None => "delta",
        };
        let s = tr.open(name, parent, rep_id, unit.map_or(-1, |u| u as i64));
        let at = Instant::now();
        let result = match unit {
            Some(u) => lane.submit(w, slice, u, tr, s, rep_id),
            None => lane.delta(inputs, deltas),
        };
        let ms = at.elapsed().as_secs_f64() * 1e3;
        tr.close(s);
        match unit {
            Some(u) => {
                sent += w.unit_tuples();
                out.attempted += w.unit_tuples() as u64;
                if u > 0 {
                    out.unit_ms.push(ms);
                }
            }
            None => {
                deltas += 1;
                out.attempted += 1;
                out.delta_ms.push(ms);
            }
        }
        if let Err(e) = result {
            out.error = Some(e);
        }
    };

    step(&mut lane, &mut out, Some(0), s_setup);
    out.setup_s = started.elapsed().as_secs_f64();
    tr.close(s_setup);

    // ---- timed stream
    let s_stream = tr.open("stream", s_rep, rep_id, -1);
    let cpu_before = process_cpu_ms();
    let stream_started = Instant::now();
    for u in 1..w.units {
        if out.error.is_none() && w.delta_before(u) {
            step(&mut lane, &mut out, None, s_stream);
        }
        if out.error.is_none() {
            step(&mut lane, &mut out, Some(u), s_stream);
        }
    }
    out.stream_s = stream_started.elapsed().as_secs_f64();
    out.stream_cpu_ms = process_cpu_ms() - cpu_before;
    out.stream_tuples = out.unit_ms.len() * w.unit_tuples();
    tr.close(s_stream);

    // ---- deltas on the still-warm engine
    for _ in 0..w.deltas_after {
        if out.error.is_none() {
            step(&mut lane, &mut out, None, s_rep);
        }
    }

    // ---- finish, fold, check
    let s = tr.open("finish", s_rep, rep_id, -1);
    let at = Instant::now();
    let (report, server) = match lane {
        Lane::Session(session) => (Some(session.finish()), None),
        Lane::Wire { server, client } => match client.finish() {
            Ok(cr) => (Some(cr.report), Some(server)),
            Err(e) => {
                out.error.get_or_insert(format!("finish: {e}"));
                (None, Some(server))
            }
        },
    };
    out.finish_ms = at.elapsed().as_secs_f64() * 1e3;
    tr.close(s);
    let service: Option<ServiceReport> = server.map(|server| {
        let s = tr.open("shutdown", s_rep, rep_id, -1);
        let report = server.shutdown();
        tr.close(s);
        report
    });

    if let Some(report) = &report {
        out.count(report.outcomes(), &slice.clean);
        out.digest = outcome_digest(report.outcomes());
    }
    out.failed += (sent as u64).saturating_sub(out.tuples);
    if out.error.is_some() {
        out.failed += 1;
    }
    match (&report, &service) {
        (_, Some(svc)) => {
            out.stats = svc.stats;
            out.bdd = svc.bdd;
            out.shared = svc.shared.clone();
            out.net = svc.stats.net;
            out.epochs = svc.epochs;
            if let Some(named) = svc.sessions.first() {
                (out.busy_share, out.imbalance) = worker_balance(&named.report.batches, w.workers);
            }
        }
        (Some(report), None) => {
            out.stats = report.stats;
            out.bdd = report.bdd;
            out.shared = report.shared.clone();
            (out.busy_share, out.imbalance) = worker_balance(&report.batches, w.workers);
        }
        (None, None) => {}
    }
    if let Some(lineage) = lineage {
        out.index_builds = lineage.index_builds();
        out.index_patches = lineage.index_patches();
    }
    tr.close(s_rep);
    out
}

/// Tuples one census session takes before it is finished and dropped
/// (memory stays bounded whatever the census's size), and tuples per
/// batch: only the counts matter, so it need not crawl through the
/// workload's 16-tuple pages.
const CENSUS_SESSION: usize = 8192;
const CENSUS_BATCH: usize = 1024;

/// The census: `slice` once, untimed, through in-process sessions over
/// one fresh engine, every outcome checked as a repetition's is. Only
/// the counts of the result mean anything.
pub fn run_census(w: &Workload, inputs: &Inputs, slice: &Slice) -> Rep {
    let mut out = Rep::default();
    let engine = fresh_engine(w, inputs);
    for (dirty, clean) in slice
        .dirty
        .chunks(CENSUS_SESSION)
        .zip(slice.clean.chunks(CENSUS_SESSION))
    {
        let mut session = RepairSession::borrowed(&engine, repair_options(w, w.workers));
        for batch in dirty.chunks(CENSUS_BATCH) {
            session.push_batch(batch, |i| SimulatedUser::new(clean[i].clone()));
        }
        out.count(session.finish().outcomes(), clean);
    }
    out.attempted = slice.dirty.len() as u64;
    out.failed += out.attempted.saturating_sub(out.tuples);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use certainfix_core::WorkerReport;
    use certainfix_relation::AttrSet;
    use std::time::Duration;

    #[test]
    fn the_digest_reads_cell_text_and_the_certainty_flag() {
        let outcome = |cells: &[&str], certain: bool| FixOutcome {
            tuple: Tuple::new(cells.iter().map(Value::str).collect()),
            validated: AttrSet::EMPTY,
            rule_fixed: AttrSet::EMPTY,
            user_changed: AttrSet::EMPTY,
            certain,
            certain_at_round: None,
            rule_backed: false,
            gave_up: false,
            rounds: Vec::new(),
        };
        let digest = |o: FixOutcome| outcome_digest(std::iter::once(&o));
        let base = digest(outcome(&["ab", "c"], true));
        assert_eq!(base, digest(outcome(&["ab", "c"], true)));
        assert_ne!(
            base,
            digest(outcome(&["a", "bc"], true)),
            "cell boundaries count"
        );
        assert_ne!(base, digest(outcome(&["ab", "c"], false)));
        assert_ne!(base, digest(outcome(&["ab", "d"], true)));
    }

    #[test]
    fn balance_counts_the_idle_workers_a_report_leaves_out() {
        let batch = |worker: usize, tuples: usize, busy_ms: u64| {
            #[allow(clippy::single_range_in_vec_init)]
            let ranges = vec![0..tuples];
            BatchReport {
                outcomes: Vec::new(),
                stats: MonitorStats::default(),
                bdd: BddStats::default(),
                shared: None,
                wall: Duration::from_millis(10),
                generation: 0,
                workers: vec![WorkerReport {
                    worker,
                    ranges,
                    stats: MonitorStats {
                        elapsed: Duration::from_millis(busy_ms),
                        ..MonitorStats::default()
                    },
                    bdd: BddStats::default(),
                }],
            }
        };
        // the service gave both pages to worker 1 of 2
        let (busy, imbalance) = worker_balance(&[batch(1, 16, 5), batch(1, 16, 5)], 2);
        assert_eq!(busy, 0.25, "10 ms busy of 2 workers x 20 ms");
        assert_eq!(imbalance, 2.0, "one worker took every tuple");
        assert_eq!(worker_balance(&[], 2), (0.0, 1.0));
    }
}
