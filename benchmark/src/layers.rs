//! The traced run's layer replay: a fixed sample of the pool goes,
//! single-threaded, through each layer's public function, one span
//! per call batch. Every workload replays every layer, on its own
//! data, master size and engine flags, so each per-layer metric has a
//! measured value on each workload.

use std::hint::black_box;
use std::time::Instant;

use certainfix_core::{
    transfix_block, transfix_with, CertainFix, CertainFixConfig, NetLaneStats, RepairService,
    RepairSession, ServiceStream, SessionReport, SimulatedUser, SliceSource,
};
use certainfix_net::{Frame, RepairClient, RepairServer};
use certainfix_reasoning::{suggest_with, Chase, RegionCatalog};
use certainfix_relation::{AttrSet, Interner, KeyIndex, MasterIndex, Tuple, Value};
use certainfix_rules::{DependencyGraph, ProbeScratch, RulePlan};

use crate::inputs::{Inputs, Slice};
use crate::run::{fresh_engine, repair_options, service_options, RoundSpans, TimedUser};
use crate::spec::Workload;
use crate::stats::{median, percentile};
use crate::sys::nproc;
use crate::trace::{Tracer, NO_PARENT};

/// Tuples the replay samples from the head of the pool (and census).
const SAMPLE: usize = 4096;
/// Tuples per block probe / block `TransFix` call.
const BLOCK: usize = 256;
/// Empty `flush()` round trips timed for the server's latency floor.
const RTT_SAMPLES: usize = 200;

pub type Values = Vec<(&'static str, f64)>;

/// Counters of the loopback leg, which in-process workloads report in
/// place of the repetitions' (they have no wire of their own).
pub struct Loopback {
    pub net: NetLaneStats,
    pub finish_ms: f64,
    pub epochs_per_unit: f64,
}

/// `census` is the workload's census slice, if it has one: a pool
/// smaller than the sample is topped up from it.
pub fn replay(
    w: &Workload,
    inputs: &Inputs,
    census: Option<&Slice>,
    tr: &Tracer,
) -> (Values, Loopback) {
    let mut out: Values = Vec::new();
    let (dirty, clean): (Vec<Tuple>, Vec<Tuple>) = inputs
        .pool
        .iter()
        .chain(census)
        .flat_map(|s| s.dirty.iter().cloned().zip(s.clean.iter().cloned()))
        .take(SAMPLE)
        .unzip();
    let n = dirty.len();
    let per = |secs: f64, calls: usize, scale: f64| secs * scale / calls.max(1) as f64;

    let engine = fresh_engine(w, inputs);
    let ctx = engine.context();
    let epoch = ctx.epoch();
    let (rules, master, plan) = (ctx.rules(), epoch.master(), epoch.plan());
    let graph = DependencyGraph::new(rules);
    let mut scratch = ProbeScratch::new();

    // ---- relation
    let mut keys: Vec<Vec<_>> = plan.iter().map(|(_, r)| r.lhs_m().to_vec()).collect();
    keys.sort();
    keys.dedup();
    let (_, secs) = tr.time("relation.index.build", keys.len() as u64, || {
        for key in &keys {
            black_box(KeyIndex::build(master.relation(), key));
        }
    });
    out.push(("relation.index.build_ms", secs * 1e3));

    let lookups = n * plan.len();
    let mut probe: Vec<Value> = Vec::new();
    let (_, secs) = tr.time("relation.index.lookup", lookups as u64, || {
        for t in &dirty {
            for (_, r) in plan.iter() {
                black_box(r.index().lookup_projection(t, r.lhs(), &mut probe).len());
            }
        }
    });
    out.push(("relation.index.lookup_ns", per(secs, lookups, 1e9)));

    // a lineage of its own, warmed with the plan's indexes, so the
    // deltas patch built indexes without touching the engine's cache
    let mut lineage = MasterIndex::new(inputs.master.clone());
    for key in &keys {
        lineage.index_for(key);
    }
    let mut delta_ms = Vec::new();
    for k in 0..w.deltas_per_rep() {
        let delta = inputs.delta(k);
        let (next, secs) = tr.time("relation.index.apply_delta", 1, || {
            lineage
                .apply_delta(delta)
                .expect("generated deltas fit the master")
        });
        lineage = next;
        delta_ms.push(secs * 1e3);
    }
    out.push(("relation.index.apply_delta_ms", median(&delta_ms)));

    let strings: Vec<&'static str> = dirty
        .iter()
        .flat_map(|t| t.values().iter().filter_map(Value::as_str))
        .collect();
    let (_, secs) = tr.time("relation.symbol.intern", strings.len() as u64, || {
        for s in &strings {
            black_box(Interner::global().intern(s));
        }
    });
    out.push(("relation.symbol.intern_ns", per(secs, strings.len(), 1e9)));

    // ---- rules
    let compile_ms: Vec<f64> = (0..5)
        .map(|_| {
            tr.time("rules.plan.compile", 1, || {
                black_box(RulePlan::compile(rules, master))
            })
            .1 * 1e3
        })
        .collect();
    out.push(("rules.plan.compile_ms", median(&compile_ms)));

    let (_, secs) = tr.time("rules.plan.probe", lookups as u64, || {
        for t in &dirty {
            for i in 0..plan.len() {
                black_box(plan.probe(i, t, &mut scratch).len());
            }
        }
    });
    out.push(("rules.plan.probe_ns", per(secs, lookups, 1e9)));

    let (_, secs) = tr.time("rules.plan.probe_block", n as u64, || {
        for chunk in dirty.chunks(BLOCK) {
            let block: Vec<&Tuple> = chunk.iter().collect();
            plan.begin_block(block.len(), &mut scratch);
            for i in 0..plan.len() {
                plan.plan_probe_block(i, &block, &mut scratch);
            }
        }
    });
    out.push(("rules.plan.probe_block_ns_per_tuple", per(secs, n, 1e9)));

    // ---- reasoning + transfix, from the state round 1 leaves: the
    // initial suggestion answered with the clean values
    let z0 = epoch.initial_suggestion();
    let v0: AttrSet = z0.iter().copied().collect();
    let seeded: Vec<Tuple> = dirty
        .iter()
        .zip(&clean)
        .map(|(d, c)| {
            let mut t = d.clone();
            for &a in z0 {
                t.set(a, *c.get(a));
            }
            t
        })
        .collect();
    let chase = Chase::new(rules, master).with_plan(Some(plan));
    let (_, secs) = tr.time("reasoning.chase.run", n as u64, || {
        for t in &seeded {
            black_box(chase.run_with(t, v0, &mut scratch).is_unique());
        }
    });
    out.push(("reasoning.chase.run_us", per(secs, n, 1e6)));

    let (fixed, secs) = tr.time("core.transfix.tuple", n as u64, || {
        seeded
            .iter()
            .map(|t| transfix_with(rules, master, &graph, plan, &mut scratch, t, v0))
            .collect::<Vec<_>>()
    });
    out.push(("core.transfix.tuple_us", per(secs, n, 1e6)));

    let (_, secs) = tr.time("core.transfix.block", n as u64, || {
        for chunk in seeded.chunks(BLOCK) {
            let items: Vec<(&Tuple, AttrSet)> = chunk.iter().map(|t| (t, v0)).collect();
            black_box(transfix_block(rules, master, &graph, plan, &mut scratch, &items).len());
        }
    });
    out.push(("core.transfix.block_us_per_tuple", per(secs, n, 1e6)));

    let full = AttrSet::full(rules.r_schema().len());
    let open: Vec<_> = fixed.iter().filter(|o| o.validated != full).collect();
    let (_, secs) = tr.time("reasoning.suggest.fresh", open.len() as u64, || {
        for o in &open {
            black_box(suggest_with(
                rules,
                master,
                &o.tuple,
                o.validated,
                plan,
                &mut scratch,
            ));
        }
    });
    out.push(("reasoning.suggest.fresh_us", per(secs, open.len(), 1e6)));

    let (_, secs) = tr.time("reasoning.derive.catalog", 1, || {
        black_box(RegionCatalog::build(rules, master));
    });
    out.push(("reasoning.derive.catalog_ms", secs * 1e3));

    // ---- the interaction loop, one tuple at a time, plain suggestions:
    // the gap between consecutive answers is a round as Fig. 12 times it
    let fix = CertainFix::new(rules, master, &graph, plan, CertainFixConfig::default());
    let s_run = tr.open("core.certainfix.run_scratch", NO_PARENT, -1, -1);
    let rounds = RoundSpans {
        name: "core.certainfix.round",
        parent: s_run,
        rep: -1,
        unit: -1,
    };
    for (d, c) in dirty.iter().zip(&clean) {
        let mut user = TimedUser::new(c, tr, Some(rounds));
        black_box(fix.run_scratch(
            d,
            z0,
            &mut user,
            |t, validated, sc| suggest_with(rules, master, t, validated, plan, sc).map(|s| s.attrs),
            &mut scratch,
        ));
    }
    tr.close(s_run);
    let rounds_us: Vec<f64> = tr
        .durations_ns("core.certainfix.round")
        .iter()
        .map(|&ns| ns as f64 / 1e3)
        .collect();
    out.push(("core.certainfix.round_us_p50", median(&rounds_us)));
    out.push(("core.certainfix.round_us_p90", percentile(&rounds_us, 0.9)));
    drop(epoch);
    drop(engine);

    // ---- engine: the same sample at 1 and at 2 workers, back to back,
    // each on a fresh engine warmed by its first frame
    let session_secs = |workers: usize| -> (f64, RepairSession<'static>) {
        let mut session =
            RepairSession::from_engine(fresh_engine(w, inputs), repair_options(w, workers));
        let oracle = |i: usize| SimulatedUser::new(clean[i].clone());
        let mut frames = dirty.chunks(w.frame);
        session.push_batch(frames.next().expect("a non-empty sample"), oracle);
        let started = Instant::now();
        for frame in frames {
            session.push_batch(frame, oracle);
        }
        (started.elapsed().as_secs_f64(), session)
    };
    let s = tr.open("core.engine.speedup", NO_PARENT, -1, -1);
    let (one, _) = session_secs(1);
    let (two, mut warm) = session_secs(nproc().min(2));
    tr.close(s);
    // one core cannot show a speed-up; say 0, not a time-slicing number
    out.push((
        "core.engine.speedup_w2",
        if nproc() >= 2 { one / two } else { 0.0 },
    ));

    let mut delta_ms = Vec::new();
    for k in 0..w.deltas_per_rep() {
        let delta = inputs.delta(k);
        let (_, secs) = tr.time("core.engine.delta", 1, || {
            warm.apply_master_delta(delta)
                .expect("generated deltas fit the master")
        });
        delta_ms.push(secs * 1e3);
    }
    out.push(("core.engine.delta_ms_p50", median(&delta_ms)));
    drop(warm);

    // ---- service: one stream through the multiplexer against the
    // same stream through a bare session, both from cold
    let (solo, solo_secs): (SessionReport, f64) = tr.time("core.service.session", n as u64, || {
        let mut session =
            RepairSession::from_engine(fresh_engine(w, inputs), repair_options(w, w.workers));
        session.drain(SliceSource::with_batch(&dirty, w.frame), |i| {
            SimulatedUser::new(clean[i].clone())
        });
        session.finish()
    });
    let (served, served_secs) = tr.time("core.service.service", n as u64, || {
        RepairService::from_engine(fresh_engine(w, inputs), service_options(w)).run(vec![
            ServiceStream::new("replay", SliceSource::with_batch(&dirty, w.frame), |i| {
                SimulatedUser::new(clean[i].clone())
            }),
        ])
    });
    out.push(("core.service.overhead_x", served_secs / solo_secs));
    let units = (n.div_ceil(w.frame) as f64 / w.frames_per_unit as f64).max(1.0);
    let epochs_per_unit = served.epochs as f64 / units;

    // ---- wire codec, on the frames this workload really sends and
    // the reports it really gets back
    let batches: Vec<Frame> = dirty
        .chunks(w.frame)
        .zip(clean.chunks(w.frame))
        .enumerate()
        .map(|(seq, (d, c))| Frame::Batch {
            seq: seq as u64,
            pairs: d.iter().cloned().zip(c.iter().cloned()).collect(),
        })
        .collect();
    let reports: Vec<Frame> = solo
        .batches
        .iter()
        .enumerate()
        .map(|(seq, b)| Frame::Report {
            seq: seq as u64,
            generation: b.generation,
            wall: b.wall,
            stats: b.stats,
            outcomes: b.outcomes.clone(),
        })
        .collect();
    let encode = |frames: &[Frame]| -> (Vec<Vec<u8>>, f64) {
        tr.time("net.wire.encode", n as u64, || {
            frames
                .iter()
                .map(|f| {
                    let mut bytes = Vec::new();
                    f.encode(&mut bytes).expect("encoding into memory");
                    bytes
                })
                .collect()
        })
    };
    let decode = |wire: &[Vec<u8>]| -> f64 {
        tr.time("net.wire.decode", n as u64, || {
            for bytes in wire {
                black_box(Frame::decode(&mut &bytes[..]).expect("decoding what was encoded"));
            }
        })
        .1
    };
    let (batch_wire, batch_enc) = encode(&batches);
    let (report_wire, report_enc) = encode(&reports);
    let wire_bytes = |wire: &[Vec<u8>]| wire.iter().map(Vec::len).sum::<usize>() as f64;
    out.push((
        "net.wire.encode_ns_per_tuple",
        per(batch_enc + report_enc, n, 1e9),
    ));
    out.push((
        "net.wire.decode_ns_per_tuple",
        per(decode(&batch_wire) + decode(&report_wire), n, 1e9),
    ));
    out.push((
        "net.wire.batch_bytes_per_tuple",
        wire_bytes(&batch_wire) / n as f64,
    ));
    out.push((
        "net.wire.report_bytes_per_tuple",
        wire_bytes(&report_wire) / n as f64,
    ));

    // ---- loopback: the empty round trip, and (for workloads with no
    // wire of their own) the sample streamed through a server
    let s = tr.open("net.server.loopback", NO_PARENT, -1, -1);
    let service = RepairService::from_engine(fresh_engine(w, inputs), service_options(w));
    let server = RepairServer::serve_tcp(service, "127.0.0.1:0", None).expect("loopback bind");
    let addr = server.local_addr().expect("a TCP server has an address");
    let mut client = RepairClient::connect_tcp(addr, "replay", None).expect("loopback connect");
    let rtt_ms: Vec<f64> = (0..RTT_SAMPLES)
        .map(|_| {
            let at = Instant::now();
            client.flush().expect("empty flush");
            at.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    out.push(("net.server.rtt_floor_ms", median(&rtt_ms)));
    if !w.wire {
        for (i, (d, c)) in dirty.chunks(w.frame).zip(clean.chunks(w.frame)).enumerate() {
            client.send_batch(d, c).expect("loopback send");
            if (i + 1) % w.frames_per_unit == 0 {
                client.flush().expect("loopback flush");
            }
        }
    }
    let at = Instant::now();
    client.finish().expect("loopback finish");
    let finish_ms = at.elapsed().as_secs_f64() * 1e3;
    let net = server.shutdown().stats.net;
    tr.close(s);

    (
        out,
        Loopback {
            net,
            finish_ms,
            epochs_per_unit,
        },
    )
}
