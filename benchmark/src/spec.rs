//! The benchmark's fixed vocabulary: workloads, end-to-end metrics
//! with their bounds, and per-layer metrics. `BENCHMARK.json` at the
//! repository root mirrors these tables (a unit test holds the two
//! together); later issues refer to the names.

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[cfg(test)]
impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the reference median the metric may worsen by; `None`
    /// for per-layer metrics, which explain and are not gated.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// Seconds one run measures unless `--seconds` says otherwise
/// (`BENCHMARK.json`'s `run_seconds`).
pub const RUN_SECONDS: f64 = 30.0;

/// Input slices in every workload's pool; repetition `r` streams slice
/// `r mod POOL_SLICES`, so repetitions 0-3 stream the pool exactly once.
pub const POOL_SLICES: usize = 4;

/// What a user of the system sees and a later change is held to:
/// every workload reports both from its untraced run, and a change is
/// rejected when one worsens by more than its bound. `setup_s` is the
/// one timing the harness requires here, so it cannot be demoted like
/// the others that miss issue 14's 10 %; it carries the widest bound
/// the harness allows, as the harness asks of set-up time.
pub const END_TO_END: [MetricDef; 2] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("rounds_per_tuple", "1/tuple", Lower, 0.01),
];

/// What a user sees just as much, but no bound can be held against
/// on the machine this benchmark was sized on: ten runs of one binary
/// spread as far as, or further than, the 10 % (1 % for
/// `certain_share`) issue 14 allows, whole runs being 15-25 % slower
/// for minutes at a time. As the issue prescribes they are reported as
/// layer metrics instead — printed by every untraced run, marked "not
/// gated", and reported to the harness by the traced run from its
/// untraced repetitions. The README's "Demoted" and "Noise" have the
/// numbers.
pub const DEMOTED: [MetricDef; 7] = [
    layer("tuples_per_s", "1/s", Higher),
    layer("batch_p50_ms", "ms", Lower),
    layer("batch_p90_ms", "ms", Lower),
    layer("delta_p50_ms", "ms", Lower),
    layer("cpu_ms_per_ktuple", "ms", Lower),
    layer("certain_share", "share", Higher),
    layer("peak_rss_mb", "MB", Lower),
];

/// Single-layer numbers from the traced run, named `crate.module.metric`.
pub const LAYERS: [MetricDef; 49] = [
    layer("relation.index.lookup_ns", "ns", Lower),
    layer("relation.index.build_ms", "ms", Lower),
    layer("relation.index.apply_delta_ms", "ms", Lower),
    layer("relation.index.builds", "1/rep", Lower),
    layer("relation.index.patches", "1/rep", Lower),
    layer("relation.symbol.syms_per_ktuple", "count", Lower),
    layer("relation.symbol.intern_ns", "ns", Lower),
    layer("rules.plan.compile_ms", "ms", Lower),
    layer("rules.plan.probe_ns", "ns", Lower),
    layer("rules.plan.probe_block_ns_per_tuple", "ns", Lower),
    layer("rules.plan.probes_per_tuple", "1/tuple", Lower),
    layer("rules.plan.fallbacks", "1/rep", Lower),
    layer("rules.plan.probe_allocs", "1/rep", Lower),
    layer("reasoning.chase.run_us", "us", Lower),
    layer("reasoning.suggest.fresh_us", "us", Lower),
    layer("reasoning.derive.catalog_ms", "ms", Lower),
    layer("core.transfix.tuple_us", "us", Lower),
    layer("core.transfix.block_us_per_tuple", "us", Lower),
    layer("core.certainfix.round_us_p50", "us", Lower),
    layer("core.certainfix.round_us_p90", "us", Lower),
    layer("core.bdd.hit_rate", "share", Higher),
    layer("core.bdd.failed_checks", "1/rep", Lower),
    layer("core.sharedcache.hit_rate", "share", Higher),
    layer("core.sharedcache.evicted_delta", "1/rep", Lower),
    layer("core.sharedcache.evicted_lru", "1/rep", Lower),
    layer("core.sharedcache.revalidated", "1/rep", Higher),
    layer("core.sharedcache.saturated", "1/rep", Lower),
    layer("core.sharedcache.entries_high_water", "count", Lower),
    layer("core.engine.worker_busy_share", "share", Higher),
    layer("core.engine.imbalance", "x", Lower),
    layer("core.engine.speedup_w2", "x", Higher),
    layer("core.engine.delta_ms_p50", "ms", Lower),
    layer("core.engine.plan_rebuilds", "1/rep", Lower),
    layer("core.engine.digest_mismatches", "count", Lower),
    layer("core.service.epochs_per_unit", "1/unit", Lower),
    layer("core.service.overhead_x", "x", Lower),
    layer("net.wire.encode_ns_per_tuple", "ns", Lower),
    layer("net.wire.decode_ns_per_tuple", "ns", Lower),
    layer("net.wire.batch_bytes_per_tuple", "B", Lower),
    layer("net.wire.report_bytes_per_tuple", "B", Lower),
    layer("net.server.rtt_floor_ms", "ms", Lower),
    layer("net.server.frames_in", "1/rep", Lower),
    layer("net.server.bytes_in", "1/rep", Lower),
    layer("net.server.bytes_out", "1/rep", Lower),
    layer("net.server.decode_errors", "1/rep", Lower),
    layer("net.server.sessions_torn", "1/rep", Lower),
    layer("net.client.finish_ms", "ms", Lower),
    layer("datagen.gen_us_per_tuple", "us", Lower),
    layer("trace.overhead_share", "share", Lower),
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Data {
    /// 19 attributes, 21 editing rules.
    Hosp,
    /// 12 attributes, 16 editing rules.
    Dblp,
}

/// One workload. A *unit* is what a caller submits and then waits on:
/// `frames_per_unit` frames of `frame` tuples (one `push_batch` each
/// in process; `send_batch` each, then one `flush()`, on the wire).
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub data: Data,
    /// Master rows `|Dm|` the engine starts with.
    pub dm: usize,
    /// Duplicate rate `d%` and noise rate `n%` of the dirty generator.
    pub d: f64,
    pub n: f64,
    pub bdd: bool,
    pub shared_cache: bool,
    pub workers: usize,
    /// Loopback `RepairServer` + one `RepairClient` instead of an
    /// in-process `RepairSession`.
    pub wire: bool,
    pub frame: usize,
    pub frames_per_unit: usize,
    /// Units per repetition; unit 0 is answered inside set-up.
    pub units: usize,
    /// Tuples of one more slice that goes once, untimed, through an
    /// in-process session for the count metrics to be counted on;
    /// 0 where the pool itself (repetitions 0-3) is large enough.
    pub census: usize,
    /// A master delta before every `delta_every`-th unit, inside the
    /// timed stream (0 = none).
    pub delta_every: usize,
    /// Back-to-back master deltas on the still-warm engine after the
    /// timed stream.
    pub deltas_after: usize,
}

impl Workload {
    pub fn unit_tuples(&self) -> usize {
        self.frame * self.frames_per_unit
    }

    pub fn slice_tuples(&self) -> usize {
        self.unit_tuples() * self.units
    }

    /// Deltas one repetition applies.
    pub fn deltas_per_rep(&self) -> usize {
        let inside = if self.delta_every == 0 {
            0
        } else {
            (1..self.units).filter(|u| self.delta_before(*u)).count()
        };
        inside + self.deltas_after
    }

    /// Does a delta precede unit `u`? Never unit 0, which is set-up.
    pub fn delta_before(&self, u: usize) -> bool {
        self.delta_every > 0 && u % self.delta_every == self.delta_every - 1
    }
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "hosp_bulk",
        why: "HOSP |Dm|=50000 d=30% in-process, BDD + shared cache, 2 stealing workers: \
              most tuples need 2+ rounds, so suggest, bdd, sharedcache and the |Dm|-dependent \
              round cost dominate; crates/net idle",
        data: Data::Hosp,
        dm: 50_000,
        d: 0.30,
        n: 0.20,
        bdd: true,
        shared_cache: true,
        workers: 2,
        wire: false,
        frame: 1024,
        frames_per_unit: 1,
        units: 32,
        census: 0,
        delta_every: 0,
        deltas_after: 4,
    },
    Workload {
        name: "dblp_dup_plain",
        why: "DBLP |Dm|=50000 d=90% in-process, BDD and shared cache off, 1 worker: the block \
              pipeline of plan probes, index lookups and transfix; the caches do nothing here, \
              so a cache change must not move it",
        data: Data::Dblp,
        dm: 50_000,
        d: 0.90,
        n: 0.20,
        bdd: false,
        shared_cache: false,
        workers: 1,
        wire: false,
        frame: 1024,
        frames_per_unit: 1,
        units: 96,
        census: 0,
        delta_every: 0,
        deltas_after: 4,
    },
    Workload {
        name: "hosp_net_entry",
        why: "HOSP at the paper's defaults over loopback TCP, one 16-tuple form page per \
              round trip: the point-of-entry use, where latency is wire, lane hand-offs and \
              wake-ups around under 1 ms of engine work",
        data: Data::Hosp,
        dm: 10_000,
        d: 0.30,
        n: 0.20,
        bdd: true,
        shared_cache: true,
        workers: 2,
        wire: true,
        frame: 16,
        frames_per_unit: 1,
        units: 16,
        // a repetition streams 256 tuples and the pool holds 1024; rounds
        // per tuple counted on so few moves by over 1 % from seed to seed
        census: 65_536,
        delta_every: 0,
        deltas_after: 8,
    },
    Workload {
        name: "dblp_net_delta",
        why: "DBLP |Dm|=10000 streamed in 256-tuple frames over loopback TCP with a master \
              delta before every 4th window: writes beside reads, and the only bulk path \
              through wire and service",
        data: Data::Dblp,
        dm: 10_000,
        d: 0.30,
        n: 0.20,
        bdd: true,
        shared_cache: true,
        workers: 2,
        wire: true,
        frame: 256,
        frames_per_unit: 4,
        units: 32,
        census: 0,
        delta_every: 4,
        deltas_after: 0,
    },
];

/// `BENCHMARK.json`'s `per_layer`: what a traced run reports.
pub fn per_layer() -> impl Iterator<Item = &'static MetricDef> {
    DEMOTED.iter().chain(&LAYERS)
}

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(per_layer())
            .map(|m| m.name)
            .chain(WORKLOADS.iter().map(|w| w.name))
            .collect();
        for n in &names {
            assert!(
                n.len() <= 64
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
        }
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len());
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
    }

    #[test]
    fn the_delta_workload_applies_its_deltas_inside_its_stream() {
        let w = workload("dblp_net_delta").unwrap();
        assert_eq!(w.deltas_per_rep(), 8);
        assert!(!w.delta_before(0) && w.delta_before(3) && w.delta_before(31));
        assert_eq!(workload("hosp_bulk").unwrap().deltas_per_rep(), 4);
    }

    /// `BENCHMARK.json` is what the harness reads; these tables are
    /// what the program reports and gates on. They must not drift.
    #[test]
    fn benchmark_json_mirrors_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the root"))
            .expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<Json> { doc.get(key).unwrap().as_arr().to_vec() };
        let names = |key: &str| -> Vec<String> {
            listed(key)
                .iter()
                .map(|m| m.get("name").unwrap().as_str().unwrap().to_string())
                .collect()
        };
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(RUN_SECONDS)
        );
        assert_eq!(names("workloads"), WORKLOADS.map(|w| w.name.to_string()));
        assert_eq!(names("end_to_end"), END_TO_END.map(|m| m.name.to_string()));
        assert_eq!(
            names("per_layer"),
            per_layer().map(|m| m.name.to_string()).collect::<Vec<_>>()
        );
        for (m, j) in END_TO_END
            .iter()
            .zip(listed("end_to_end"))
            .chain(per_layer().zip(listed("per_layer")))
        {
            assert_eq!(j.get("unit").unwrap().as_str(), Some(m.unit), "{}", m.name);
            assert_eq!(j.get("better").unwrap().as_str(), Some(m.better.name()));
            assert_eq!(j.get("bound").and_then(Json::as_f64), m.bound, "{}", m.name);
        }
        for (w, j) in WORKLOADS.iter().zip(listed("workloads")) {
            assert_eq!(j.get("why").unwrap().as_str(), Some(w.why));
        }
    }
}
