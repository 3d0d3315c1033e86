//! One run of one workload: generate inputs, repeat the workload for
//! the measuring time, check every outcome, fold the repetitions into
//! the named metrics, print them, and write the result file (and,
//! traced, the span file).

use std::path::PathBuf;
use std::time::Instant;

use certainfix_core::SharedCacheStats;
use certainfix_relation::Interner;

use crate::inputs::{Inputs, Slice};
use crate::json::Json;
use crate::layers;
use crate::run::{run_census, run_rep, Rep};
use crate::spec::{per_layer as layer_defs, Workload, END_TO_END, LAYERS, POOL_SLICES};
use crate::stats::{beyond, iqr_share, median, percentile};
use crate::sys::{nproc, peak_rss_mb, stamp};
use crate::trace::Tracer;

/// Samples a gated percentile rests on, spread over the whole run
/// (see [`floors`]).
const P50_FLOOR: usize = 100;
const P90_FLOOR: usize = 300;
const BEYOND_P90_FLOOR: usize = 30;
/// Repetitions a full run makes at least and at most, whatever the
/// clock says, and all a `--quick` run makes.
const MIN_REPS: usize = 12;
const MAX_REPS: usize = 400;
const QUICK_REPS: usize = 3;
/// Span buffer capacity, allocated once before the first repetition.
const SPAN_CAP: usize = 1 << 17;

pub struct Options {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    pub out: PathBuf,
}

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    /// Samples behind the value.
    pub n: usize,
    /// Inter-quartile spread over the repetitions (of each one's own
    /// value of the metric) as a share of their median: the run's own
    /// view of how steady it was.
    pub iqr: Option<f64>,
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(layer_defs())
        .find(|m| m.name == name)
        .map_or("", |m| m.unit)
}

fn gated(name: &str) -> bool {
    END_TO_END.iter().any(|m| m.name == name)
}

/// Everything a run measured, before it is folded into metrics.
struct Measured {
    inputs: Inputs,
    tracer: Tracer,
    reps: Vec<Rep>,
    /// Which repetitions recorded spans (every other one of a traced run).
    traced: Vec<bool>,
    /// Wire workloads: repetition 0's slice once more, through an
    /// in-process session, after the repetitions (D11).
    replayed: Option<Rep>,
    /// The census, on workloads that ask for one, and its slice.
    census: Option<(Slice, Rep)>,
    /// Interner symbols the repetitions added.
    new_syms: usize,
    /// `VmHWM` when the last repetition ended, before the untimed checks.
    peak_rss_mb: f64,
    inputs_s: f64,
    loop_s: f64,
    checks_s: f64,
}

impl Measured {
    /// What the count metrics are counted on: the census, or else
    /// the pool exactly once (repetitions 0-3).
    fn counted(&self) -> Vec<&Rep> {
        match &self.census {
            Some((_, census)) => vec![census],
            None => self.reps.iter().take(self.inputs.pool.len()).collect(),
        }
    }

    fn digest_mismatches(&self) -> usize {
        digest_mismatches(&self.reps, self.replayed.as_ref())
    }

    fn all(&self) -> impl Iterator<Item = &Rep> {
        let census = self.census.as_ref().map(|(_, rep)| rep);
        self.reps.iter().chain(&self.replayed).chain(census)
    }
}

/// Passes over a slice whose outcome digest differs from the slice's
/// first pass (repetition `s` is slice `s`'s first), the in-process
/// replay of repetition 0 included: counted, not failed. With the
/// shared cache on at two workers this is the open D12 race, as a
/// number.
fn digest_mismatches(reps: &[Rep], replayed: Option<&Rep>) -> usize {
    reps.iter()
        .chain(replayed)
        .filter(|r| r.digest != reps[r.slice].digest)
        .count()
}

fn measure(opts: &Options, w: &Workload) -> Measured {
    let started = Instant::now();
    let slices = if opts.quick { QUICK_REPS } else { POOL_SLICES };
    let mut inputs = Inputs::generate(w, opts.seed, slices);
    let inputs_s = started.elapsed().as_secs_f64();
    let tracer = Tracer::new(opts.trace, SPAN_CAP);
    let untraced = Tracer::new(false, 0);
    let syms_before = Interner::global().len();

    let loop_started = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    let mut traced: Vec<bool> = Vec::new();
    // a repetition starts while more than half of one still fits, so
    // a run measures for `--seconds` on average and never a whole
    // repetition longer
    let another = |done: usize| {
        if opts.quick {
            return done < QUICK_REPS;
        }
        let elapsed = loop_started.elapsed().as_secs_f64();
        let half_a_rep = elapsed / (2 * done.max(1)) as f64;
        done < MIN_REPS || (done < MAX_REPS && elapsed + half_a_rep < opts.seconds)
    };
    while another(reps.len()) {
        // a traced run traces every other repetition; the rest are the
        // untraced reference its overhead is measured against
        let trace_this = opts.trace && reps.len() % 2 == 0;
        let rep = run_rep(
            w,
            &inputs,
            reps.len(),
            if trace_this { &tracer } else { &untraced },
        );
        let stopped = rep.error.clone();
        reps.push(rep);
        traced.push(trace_this);
        if let Some(e) = stopped {
            eprintln!("{}: rep {} stopped: {e}", w.name, reps.len() - 1);
            break;
        }
    }
    let loop_s = loop_started.elapsed().as_secs_f64();
    let new_syms = Interner::global().len() - syms_before;
    let peak_rss_mb = peak_rss_mb();

    let checks_started = Instant::now();
    // deltas after the stream cannot change outcomes before them
    let twin = Workload {
        wire: false,
        deltas_after: 0,
        ..*w
    };
    let replayed = w.wire.then(|| run_rep(&twin, &inputs, 0, &untraced));
    let census_tuples = if opts.quick { w.census / 16 } else { w.census };
    let census = (census_tuples > 0).then(|| {
        let slice = inputs.slice(w, slices, census_tuples);
        let rep = run_census(w, &inputs, &slice);
        (slice, rep)
    });
    Measured {
        inputs,
        tracer,
        reps,
        traced,
        replayed,
        census,
        new_syms,
        peak_rss_mb,
        inputs_s,
        loop_s,
        checks_s: checks_started.elapsed().as_secs_f64(),
    }
}

fn tuples_per_s(r: &Rep) -> f64 {
    r.stream_tuples as f64 / r.stream_s.max(1e-9)
}

fn cpu_ms_per_ktuple(r: &Rep) -> f64 {
    r.stream_cpu_ms * 1e3 / r.stream_tuples.max(1) as f64
}

/// The nine numbers a user of the system sees, over `reps` (all of an
/// untraced run's; a traced run's untraced ones). `setup_s` and
/// `tuples_per_s` are medians over repetitions, `cpu_ms_per_ktuple` a
/// total over the timed streams, the percentiles pool every sample of
/// the run, and the count metrics are counted on `counted`.
fn user_metrics(reps: &[&Rep], counted: &[&Rep], peak_rss_mb: f64) -> Vec<Metric> {
    let over_reps = |f: &dyn Fn(&Rep) -> f64| reps.iter().map(|r| f(r)).collect::<Vec<f64>>();
    let pooled = |f: fn(&Rep) -> &Vec<f64>| -> Vec<f64> {
        reps.iter().flat_map(|r| f(r).iter().copied()).collect()
    };
    let p90 = |v: &[f64]| percentile(v, 0.9);
    let sum = |f: &dyn Fn(&Rep) -> f64| reps.iter().map(|r| f(r)).sum::<f64>();

    let setup = over_reps(&|r| r.setup_s);
    let tps = over_reps(&tuples_per_s);
    let units = pooled(|r| &r.unit_ms);
    let deltas = pooled(|r| &r.delta_ms);
    let count = |f: fn(&Rep) -> u64| counted.iter().map(|r| f(r)).sum::<u64>() as f64;
    let counted_tuples = count(|r| r.tuples).max(1.0);

    let metric = |name, value, n, iqr| Metric {
        name,
        value,
        n,
        iqr,
    };
    vec![
        metric(
            "setup_s",
            median(&setup),
            setup.len(),
            Some(iqr_share(&setup)),
        ),
        metric(
            "tuples_per_s",
            median(&tps),
            tps.len(),
            Some(iqr_share(&tps)),
        ),
        metric(
            "batch_p50_ms",
            median(&units),
            units.len(),
            Some(iqr_share(&over_reps(&|r| median(&r.unit_ms)))),
        ),
        metric(
            "batch_p90_ms",
            p90(&units),
            units.len(),
            Some(iqr_share(&over_reps(&|r| p90(&r.unit_ms)))),
        ),
        metric(
            "delta_p50_ms",
            median(&deltas),
            deltas.len(),
            Some(iqr_share(&over_reps(&|r| median(&r.delta_ms)))),
        ),
        metric(
            "cpu_ms_per_ktuple",
            sum(&|r| r.stream_cpu_ms) * 1e3 / sum(&|r| r.stream_tuples as f64).max(1.0),
            reps.len(),
            Some(iqr_share(&over_reps(&cpu_ms_per_ktuple))),
        ),
        metric(
            "rounds_per_tuple",
            count(|r| r.rounds) / counted_tuples,
            counted_tuples as usize,
            None,
        ),
        metric(
            "certain_share",
            count(|r| r.certain) / counted_tuples,
            counted_tuples as usize,
            None,
        ),
        metric("peak_rss_mb", peak_rss_mb, 1, None),
    ]
}

/// What a full run must have measured for a number to be held against
/// a bound: a floor applies to a metric while it is gated (at this
/// commit no percentile is, see `spec::DEMOTED`), and a run below one
/// fails after printing its metrics.
fn floors(reps: &[Rep]) -> Vec<String> {
    let units: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.unit_ms.iter().copied())
        .collect();
    let deltas: usize = reps.iter().map(|r| r.delta_ms.len()).sum();
    [
        ("setup_s", reps.len(), MIN_REPS, "repetitions"),
        ("batch_p50_ms", units.len(), P50_FLOOR, "samples"),
        ("batch_p90_ms", units.len(), P90_FLOOR, "samples"),
        (
            "batch_p90_ms",
            beyond(&units, 0.9),
            BEYOND_P90_FLOOR,
            "samples beyond it",
        ),
        ("delta_p50_ms", deltas, P50_FLOOR, "samples"),
    ]
    .into_iter()
    .filter(|&(name, have, need, _)| gated(name) && have < need)
    .map(|(name, have, need, what)| format!("{name}: {have} {what}, the floor is {need}"))
    .collect()
}

fn share(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

fn per_layer(m: &Measured, w: &Workload) -> (Vec<Metric>, Vec<String>) {
    let reps = &m.reps;
    let census_slice = m.census.as_ref().map(|(slice, _)| slice);
    let (mut values, loopback) = layers::replay(w, &m.inputs, census_slice, &m.tracer);

    let sum = |f: &dyn Fn(&Rep) -> u64| reps.iter().map(f).sum::<u64>();
    let per_rep = |f: &dyn Fn(&Rep) -> u64| sum(f) as f64 / reps.len() as f64;
    let rep_median = |f: fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    let cache = |r: &Rep, f: fn(&SharedCacheStats) -> u64| r.shared.as_ref().map_or(0, f);
    // the build/patch counters are read in traced repetitions only
    let traced_reps = m.traced.iter().filter(|&&t| t).count().max(1) as f64;
    let reps_where = |traced: bool| -> Vec<&Rep> {
        reps.iter()
            .zip(&m.traced)
            .filter(|(_, &t)| t == traced)
            .map(|(r, _)| r)
            .collect()
    };
    let tps_where =
        |traced: bool| -> Vec<f64> { reps_where(traced).into_iter().map(tuples_per_s).collect() };
    let (tps_traced, tps_untraced) = (tps_where(true), tps_where(false));
    // a wire workload's repetitions carry the transport numbers; the
    // others borrow the loopback leg of the replay
    let wire = |own: &dyn Fn(&Rep) -> u64, lent: u64| {
        if w.wire {
            per_rep(own)
        } else {
            lent as f64
        }
    };
    values.extend([
        (
            "relation.index.builds",
            sum(&|r| r.index_builds) as f64 / traced_reps,
        ),
        (
            "relation.index.patches",
            sum(&|r| r.index_patches) as f64 / traced_reps,
        ),
        (
            "relation.symbol.syms_per_ktuple",
            m.new_syms as f64 * 1e3 / sum(&|r| r.tuples).max(1) as f64,
        ),
        (
            "rules.plan.probes_per_tuple",
            sum(&|r| r.stats.plan_probes) as f64 / sum(&|r| r.stats.tuples).max(1) as f64,
        ),
        ("rules.plan.fallbacks", per_rep(&|r| r.stats.plan_fallbacks)),
        (
            "rules.plan.probe_allocs",
            per_rep(&|r| r.stats.probe_allocs),
        ),
        (
            "core.bdd.hit_rate",
            share(sum(&|r| r.bdd.hits), sum(&|r| r.bdd.misses)),
        ),
        ("core.bdd.failed_checks", per_rep(&|r| r.bdd.failed_checks)),
        (
            "core.sharedcache.hit_rate",
            share(
                sum(&|r| cache(r, |s| s.hits)),
                sum(&|r| cache(r, |s| s.misses)),
            ),
        ),
        (
            "core.sharedcache.evicted_delta",
            per_rep(&|r| cache(r, |s| s.evicted_delta)),
        ),
        (
            "core.sharedcache.evicted_lru",
            per_rep(&|r| cache(r, |s| s.evicted_lru)),
        ),
        (
            "core.sharedcache.revalidated",
            per_rep(&|r| cache(r, |s| s.revalidated)),
        ),
        (
            "core.sharedcache.saturated",
            per_rep(&|r| cache(r, |s| s.saturated)),
        ),
        (
            "core.sharedcache.entries_high_water",
            reps.iter()
                .map(|r| cache(r, |s| s.entries_high_water))
                .max()
                .unwrap_or(0) as f64,
        ),
        (
            "core.engine.worker_busy_share",
            rep_median(|r| r.busy_share),
        ),
        ("core.engine.imbalance", rep_median(|r| r.imbalance)),
        (
            "core.engine.plan_rebuilds",
            per_rep(&|r| r.stats.plan_rebuilds),
        ),
        (
            "core.engine.digest_mismatches",
            m.digest_mismatches() as f64,
        ),
        (
            "core.service.epochs_per_unit",
            if w.wire {
                per_rep(&|r| r.epochs) / w.units as f64
            } else {
                loopback.epochs_per_unit
            },
        ),
        (
            "net.server.frames_in",
            wire(&|r| r.net.frames_in, loopback.net.frames_in),
        ),
        (
            "net.server.bytes_in",
            wire(&|r| r.net.bytes_in, loopback.net.bytes_in),
        ),
        (
            "net.server.bytes_out",
            wire(&|r| r.net.bytes_out, loopback.net.bytes_out),
        ),
        (
            "net.server.decode_errors",
            wire(&|r| r.net.decode_errors, loopback.net.decode_errors),
        ),
        (
            "net.server.sessions_torn",
            wire(&|r| r.net.sessions_torn, loopback.net.sessions_torn),
        ),
        (
            "net.client.finish_ms",
            if w.wire {
                rep_median(|r| r.finish_ms)
            } else {
                loopback.finish_ms
            },
        ),
        (
            "datagen.gen_us_per_tuple",
            m.inputs.gen_secs * 1e6 / m.inputs.gen_tuples as f64,
        ),
        (
            "trace.overhead_share",
            if tps_untraced.is_empty() {
                0.0
            } else {
                1.0 - median(&tps_traced) / median(&tps_untraced)
            },
        ),
    ]);

    // what a user sees but no bound is held against comes first, from
    // the repetitions that recorded no spans
    let mut metrics: Vec<Metric> = user_metrics(&reps_where(false), &m.counted(), m.peak_rss_mb)
        .into_iter()
        .filter(|metric| !gated(metric.name))
        .collect();
    let mut problems = Vec::new();
    for def in &LAYERS {
        match values.iter().find(|(name, _)| *name == def.name) {
            Some(&(name, value)) => metrics.push(Metric {
                name,
                value,
                n: reps.len(),
                iqr: None,
            }),
            None => problems.push(format!("layer metric `{}` has no value", def.name)),
        }
    }
    (metrics, problems)
}

/// Exit codes: 0 clean; 1 an operation failed or a sample floor was
/// missed; 2 the run was refused before it started.
pub fn run(opts: &Options) -> u8 {
    let w = opts.workload;
    if w.workers > nproc() {
        eprintln!(
            "{}: needs {} workers but this machine has {} core(s); refusing to report \
             time-slicing numbers",
            w.name,
            w.workers,
            nproc()
        );
        return 2;
    }
    let m = measure(opts, w);
    // an untraced run reports what a user sees, gated or not; a traced
    // run reports the layers
    let (metrics, problems) = if opts.trace {
        per_layer(&m, w)
    } else {
        let all: Vec<&Rep> = m.reps.iter().collect();
        let metrics = user_metrics(&all, &m.counted(), m.peak_rss_mb);
        let problems = if opts.quick {
            Vec::new()
        } else {
            floors(&m.reps)
        };
        (metrics, problems)
    };
    let attempted: u64 = m.all().map(|r| r.attempted).sum();
    let failed: u64 = m.all().map(|r| r.failed).sum();
    let correct = failed == 0 && m.all().all(|r| r.error.is_none());
    let timed_s: f64 = m.reps.iter().map(|r| r.stream_s).sum();
    let timed_tuples: usize = m.reps.iter().map(|r| r.stream_tuples).sum();
    let mismatches = m.digest_mismatches();

    println!(
        "{} seed {} trace {}{}: {} reps, {timed_s:.2} s of timed stream ({timed_tuples} tuples), \
         {attempted} operations, {failed} failed, {mismatches} digest mismatches",
        w.name,
        opts.seed,
        u8::from(opts.trace),
        if opts.quick {
            " QUICK (not for comparison)"
        } else {
            ""
        },
        m.reps.len(),
    );
    println!("  why: {}", w.why);
    println!(
        "  inputs {:.2} s, repetitions {:.2} s, untimed checks (in-process replay, census) {:.2} s",
        m.inputs_s, m.loop_s, m.checks_s
    );
    if !opts.trace {
        let units: Vec<f64> = m
            .reps
            .iter()
            .flat_map(|r| r.unit_ms.iter().copied())
            .collect();
        println!(
            "  batch_p99_ms = {} ms  n={}  (printed, never gated)",
            percentile(&units, 0.99),
            units.len()
        );
    }
    for metric in &metrics {
        let spread = metric.iqr.map_or(String::new(), |s| {
            format!("  iqr/median over reps {:.1}%", s * 100.0)
        });
        println!(
            "  {} = {} {}  n={}{spread}{}",
            metric.name,
            metric.value,
            unit_of(metric.name),
            metric.n,
            if opts.trace || gated(metric.name) {
                ""
            } else {
                "  (not gated)"
            }
        );
    }
    for p in &problems {
        eprintln!("{}: FAILED: {p}", w.name);
    }

    let metrics_json = |full: bool| {
        Json::obj(
            metrics
                .iter()
                .filter(|metric| full || opts.trace || gated(metric.name))
                .map(|metric| {
                    let mut fields = vec![
                        ("value", Json::Num(metric.value)),
                        ("unit", Json::str(unit_of(metric.name))),
                    ];
                    if full {
                        fields.push(("n", Json::Num(metric.n as f64)));
                        if let Some(s) = metric.iqr {
                            fields.push(("iqr_share", Json::Num(s)));
                        }
                    }
                    (metric.name, Json::obj(fields))
                }),
        )
    };
    let result = Json::obj([
        ("stamp", stamp()),
        ("workload", Json::str(w.name)),
        ("seed", Json::Num(opts.seed as f64)),
        ("trace", Json::Num(f64::from(u8::from(opts.trace)))),
        ("quick", Json::Bool(opts.quick)),
        ("seconds", Json::Num(opts.seconds)),
        ("reps", Json::Num(m.reps.len() as f64)),
        ("timed_s", Json::Num(timed_s)),
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("digest_mismatches", Json::Num(mismatches as f64)),
        ("metrics", metrics_json(true)),
    ]);
    let write = |name: String, doc: &Json| {
        let path = opts.out.join(name);
        if let Err(e) = std::fs::create_dir_all(&opts.out)
            .and_then(|()| std::fs::write(&path, doc.render() + "\n"))
        {
            eprintln!("{}: cannot write {}: {e}", w.name, path.display());
        }
    };
    write(
        format!(
            "{}-seed{}-trace{}.json",
            w.name,
            opts.seed,
            u8::from(opts.trace)
        ),
        &result,
    );
    if opts.trace {
        write(format!("{}-trace.json", w.name), &m.tracer.to_json(w.name));
    }

    // the harness reads the last line of standard output
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Num(attempted.max(1) as f64)),
            ("failed", Json::Num(failed as f64)),
            ("metrics", metrics_json(false)),
        ])
        .render()
    );
    u8::from(!correct || !problems.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn value(metrics: &[Metric], name: &str) -> f64 {
        metrics.iter().find(|m| m.name == name).unwrap().value
    }

    #[test]
    fn medians_run_over_repetitions_and_percentiles_pool_every_sample() {
        // three streams of 1000 tuples: 1 s, 2 s and 10 s
        let rep = |stream_s: f64, unit_ms: &[f64], delta_ms: &[f64]| Rep {
            setup_s: stream_s / 10.0,
            stream_s,
            stream_tuples: 1000,
            stream_cpu_ms: stream_s * 500.0,
            unit_ms: unit_ms.to_vec(),
            delta_ms: delta_ms.to_vec(),
            tuples: 1000,
            rounds: 2400,
            certain: 300,
            ..Rep::default()
        };
        let reps = [
            rep(1.0, &[1.0, 1.0, 1.0], &[5.0]),
            rep(2.0, &[2.0, 2.0, 2.0], &[7.0]),
            rep(10.0, &[9.0, 9.0, 30.0], &[6.0]),
        ];
        let all: Vec<&Rep> = reps.iter().collect();
        let m = user_metrics(&all, &all[..2], 123.0);
        assert_eq!(value(&m, "setup_s"), 0.2);
        assert_eq!(value(&m, "tuples_per_s"), 500.0, "the median repetition");
        assert_eq!(value(&m, "batch_p50_ms"), 2.0, "of all nine samples");
        assert!((value(&m, "batch_p90_ms") - 13.2).abs() < 1e-9);
        assert_eq!(value(&m, "delta_p50_ms"), 6.0);
        assert!(
            (value(&m, "cpu_ms_per_ktuple") - 6500.0 / 3.0).abs() < 1e-9,
            "all CPU time over all tuples, not a median"
        );
        assert_eq!(value(&m, "rounds_per_tuple"), 2.4);
        assert_eq!(value(&m, "certain_share"), 0.3);
        assert_eq!(value(&m, "peak_rss_mb"), 123.0);
        assert_eq!(m.len(), 9);
    }

    #[test]
    fn a_later_pass_is_compared_with_its_slices_first() {
        let pass = |slice: usize, digest: u64| Rep {
            slice,
            digest,
            ..Rep::default()
        };
        // slices 0 and 1; the third pass repeats slice 0, the fourth
        // disagrees with slice 1's first pass
        let reps = [pass(0, 7), pass(1, 8), pass(0, 7), pass(1, 9)];
        assert_eq!(digest_mismatches(&reps, None), 1);
        assert_eq!(digest_mismatches(&reps, Some(&pass(0, 7))), 1);
        assert_eq!(digest_mismatches(&reps, Some(&pass(0, 1))), 2);
    }
}
