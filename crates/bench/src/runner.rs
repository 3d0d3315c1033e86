//! Shared experiment plumbing: workload construction, the paper's sweep
//! points, monitored runs, metric evaluation, and the `IncRep`
//! comparison run.

use certainfix_cfd::{repair_tuple, rules_to_cfds, IncRepConfig};
use certainfix_core::{
    evaluate_changes, evaluate_rounds, CertainFixConfig, ChangeCounts, FixOutcome, InitialRegion,
    MonitorStats, RepairContext, RepairOptions, RoundMetrics, SimulatedUser, TupleEval,
};
use certainfix_datagen::{Dataset, Dblp, DirtyConfig, Hosp, Workload};
use certainfix_relation::Tuple;

use crate::args::{Args, ArgsError};

/// Which dataset an experiment runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Which {
    /// The hospital workload (19 attrs, 21 eRs).
    Hosp,
    /// The bibliography workload (12 attrs, 16 eRs).
    Dblp,
}

impl Which {
    /// Both workloads, in the paper's order.
    pub const BOTH: [Which; 2] = [Which::Hosp, Which::Dblp];

    /// Lower-case name as used in output rows.
    pub fn name(self) -> &'static str {
        match self {
            Which::Hosp => "hosp",
            Which::Dblp => "dblp",
        }
    }

    /// Build the workload with `dm` master rows.
    pub fn build(self, dm: usize) -> Box<dyn Workload> {
        match self {
            Which::Hosp => Box::new(Hosp::generate(dm)),
            Which::Dblp => Box::new(Dblp::generate(dm)),
        }
    }
}

/// Full experiment configuration (paper defaults unless overridden).
#[derive(Clone, Copy, Debug)]
pub struct ExpConfig {
    /// Master size `|Dm|` (paper default 10K).
    pub dm: usize,
    /// Input tuples `|D|` (paper default 10K; binaries default lower to
    /// keep a full sweep under a minute — use `--inputs` to scale up).
    pub inputs: usize,
    /// Duplicate rate `d%` (paper default 0.30).
    pub d: f64,
    /// Noise rate `n%` (paper default 0.20).
    pub n: f64,
    /// RNG seed.
    pub seed: u64,
    /// Oracle compliance (1.0 = assert every suggested attribute).
    pub compliance: f64,
    /// Use the BDD suggestion cache (`CertainFix+`).
    pub use_bdd: bool,
    /// Which precomputed region seeds round 1.
    pub initial: InitialRegion,
}

impl Default for ExpConfig {
    fn default() -> Self {
        ExpConfig {
            dm: 10_000,
            inputs: 2_000,
            d: 0.30,
            n: 0.20,
            seed: 0xC0FFEE,
            compliance: 1.0,
            use_bdd: true,
            initial: InitialRegion::Best,
        }
    }
}

impl ExpConfig {
    /// Read overrides from the [`Spec::exp`](crate::args::Spec::exp)
    /// flags. An invalid `--initial` is an error, which the binaries
    /// report through [`Spec::fail`](crate::args::Spec::fail).
    pub fn from_args(args: &Args) -> Result<ExpConfig, ArgsError> {
        let default = ExpConfig::default();
        let initial = match args.one_of("initial", &["best", "median"], "best")? {
            "median" => InitialRegion::Median,
            _ => InitialRegion::Best,
        };
        Ok(ExpConfig {
            dm: args.usize_or("dm", default.dm),
            inputs: args.usize_or("inputs", default.inputs),
            d: args.f64_or("d", default.d),
            n: args.f64_or("n", default.n),
            seed: args.u64_or("seed", default.seed),
            compliance: args.f64_or("compliance", default.compliance),
            use_bdd: !args.has("no-bdd"),
            initial,
        })
    }

    /// The dirty-data generator knobs this config implies.
    pub fn dirty_config(&self) -> DirtyConfig {
        DirtyConfig {
            duplicate_rate: self.d,
            noise_rate: self.n,
            input_size: self.inputs,
            seed: self.seed,
            ..DirtyConfig::default()
        }
    }
}

/// The sweeps `--vary` selects out of a figure's `axes`: one axis by
/// name, or all of them with `all` (the default).
pub fn vary_axes(args: &Args, axes: &[&'static str]) -> Result<Vec<&'static str>, ArgsError> {
    let mut allowed = axes.to_vec();
    allowed.push("all");
    Ok(match args.one_of("vary", &allowed, "all")? {
        "all" => axes.to_vec(),
        axis => vec![axis],
    })
}

/// The labelled points of one of the paper's sweeps around `base`:
/// `d` and `n` over 10–50%, `dm` over 0.5–2.5 × `|Dm|`, and `d_size`
/// over `|D|` ∈ {10, 100, 1000, max(`|D|`, 2000)}.
pub fn sweep_points(base: &ExpConfig, axis: &str) -> Vec<(String, ExpConfig)> {
    const RATES: [f64; 5] = [0.1, 0.2, 0.3, 0.4, 0.5];
    match axis {
        "d" => RATES
            .iter()
            .map(|&d| (format!("d={d:.1}"), ExpConfig { d, ..*base }))
            .collect(),
        "n" => RATES
            .iter()
            .map(|&n| (format!("n={n:.1}"), ExpConfig { n, ..*base }))
            .collect(),
        "dm" => [0.5, 1.0, 1.5, 2.0, 2.5]
            .iter()
            .map(|&f| {
                let dm = (base.dm as f64 * f) as usize;
                (format!("|Dm|={dm}"), ExpConfig { dm, ..*base })
            })
            .collect(),
        "d_size" => [10, 100, 1000, base.inputs.max(2000)]
            .iter()
            .map(|&inputs| (format!("|D|={inputs}"), ExpConfig { inputs, ..*base }))
            .collect(),
        other => unreachable!("no sweep axis `{other}`"),
    }
}

/// Result of one monitored run.
pub struct RunResult {
    /// Per-round cumulative metrics (rounds `1..=max_rounds`).
    pub metrics: Vec<RoundMetrics>,
    /// Monitor statistics (timing, rounds, certain count, interner
    /// watermark).
    pub stats: MonitorStats,
    /// BDD cache statistics.
    pub bdd: certainfix_core::bdd::BddStats,
    /// The dataset used (for follow-up comparisons on the same data).
    pub dataset: Dataset,
    /// Raw per-tuple outcomes.
    pub outcomes: Vec<FixOutcome>,
}

impl RunResult {
    /// The maximum number of interaction rounds any tuple needed.
    pub fn max_rounds(&self) -> usize {
        self.outcomes
            .iter()
            .map(|o| o.rounds.len())
            .max()
            .unwrap_or(0)
    }

    /// Metric row for round `k` (clamped to the last materialized row).
    pub fn at_round(&self, k: usize) -> RoundMetrics {
        let idx = k.clamp(1, self.metrics.len()).saturating_sub(1);
        self.metrics[idx]
    }
}

/// Run the monitored pipeline on `workload` under `cfg` and evaluate
/// metrics for up to `report_rounds` rounds. This is the paper's
/// algorithm: one sequential pass over the generated stream through
/// the compiled rule plan — one worker, one chunk, so one BDD serves
/// the whole stream when `cfg.use_bdd`. The user for stream index `i`
/// is seeded from the dataset's seed and `i` alone.
pub fn run_monitored(workload: &dyn Workload, cfg: &ExpConfig, report_rounds: usize) -> RunResult {
    let ctx = RepairContext::with_config(
        workload.rules().clone(),
        workload.master().clone(),
        cfg.use_bdd,
        cfg.initial,
        CertainFixConfig::default(),
    );
    let dataset = Dataset::generate(workload, &cfg.dirty_config());
    let dirty: Vec<Tuple> = dataset.inputs.iter().map(|dt| dt.dirty.clone()).collect();
    let seed = dataset.config.seed;
    let opts = RepairOptions {
        chunk: dirty.len(),
        ..RepairOptions::default()
    };
    let report = ctx.repair_opts(&dirty, &opts, |i| {
        let clean = dataset.inputs[i].clean.clone();
        if cfg.compliance >= 1.0 {
            SimulatedUser::new(clean)
        } else {
            SimulatedUser::with_compliance(clean, cfg.compliance, seed ^ i as u64)
        }
    });
    let metrics = {
        let evals: Vec<TupleEval> = report
            .outcomes
            .iter()
            .zip(&dataset.inputs)
            .map(|(outcome, dt)| TupleEval {
                outcome,
                dirty: &dt.dirty,
                clean: &dt.clean,
            })
            .collect();
        evaluate_rounds(&evals, report_rounds.max(1))
    };
    RunResult {
        metrics,
        stats: report.stats,
        bdd: report.bdd,
        dataset,
        outcomes: report.outcomes,
    }
}

/// Run the `IncRep` baseline on the same dirty data and evaluate its
/// attribute-level counts: the rules as CFDs (inexpressible ones are
/// skipped), then one oracle-free, cost-based [`repair_tuple`] per
/// dirty tuple against the master.
pub fn run_increp(workload: &dyn Workload, dataset: &Dataset) -> ChangeCounts {
    let (cfds, _skipped) = rules_to_cfds(workload.rules());
    let cfg = IncRepConfig::default();
    let repaired: Vec<Tuple> = dataset
        .inputs
        .iter()
        .map(|dt| repair_tuple(&cfds, &dt.dirty, workload.master_index(), &cfg).tuple)
        .collect();
    evaluate_changes(
        dataset
            .inputs
            .iter()
            .zip(&repaired)
            .map(|(dt, t)| (&dt.dirty, t, &dt.clean)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::Spec;

    fn small() -> ExpConfig {
        ExpConfig {
            dm: 300,
            inputs: 80,
            ..Default::default()
        }
    }

    fn args(s: &str) -> Args {
        let spec = Spec::exp("test-bin").valued(&["vary"]);
        Args::parse_strict(s.split_whitespace().map(String::from), &spec).unwrap()
    }

    #[test]
    fn monitored_run_produces_metrics() {
        let w = Which::Hosp.build(small().dm);
        let result = run_monitored(w.as_ref(), &small(), 4);
        assert_eq!(result.metrics.len(), 4);
        // recall_t(1) ≈ d and is non-decreasing in k
        let r1 = result.metrics[0].recall_t;
        assert!(r1 > 0.1 && r1 < 0.5, "recall_t(1) = {r1}");
        for w in result.metrics.windows(2) {
            assert!(w[1].recall_t >= w[0].recall_t);
            assert!(w[1].recall_a >= w[0].recall_a);
        }
        // certain fixes are precise by construction
        assert_eq!(result.metrics.last().unwrap().precision_a, 1.0);
        assert!(result.max_rounds() >= 1);
        assert_eq!(result.at_round(99), *result.metrics.last().unwrap());
    }

    #[test]
    fn increp_comparison_runs() {
        let cfg = small();
        let w = Which::Dblp.build(cfg.dm);
        let result = run_monitored(w.as_ref(), &cfg, 3);
        let counts = run_increp(w.as_ref(), &result.dataset);
        assert!(counts.erroneous > 0);
        // IncRep changes things but is not fully precise in general
        assert!(counts.precision() <= 1.0);
    }

    #[test]
    fn config_from_args() {
        let cfg = ExpConfig::from_args(&args(
            "--dm 123 --inputs 45 --d 0.5 --n 0.1 --seed 7 --compliance 0.7 --no-bdd \
             --initial median",
        ))
        .unwrap();
        assert_eq!(cfg.dm, 123);
        assert_eq!(cfg.inputs, 45);
        assert_eq!(cfg.d, 0.5);
        assert_eq!(cfg.dirty_config().noise_rate, 0.1);
        assert_eq!(cfg.dirty_config().seed, 7);
        assert_eq!(cfg.compliance, 0.7);
        assert!(!cfg.use_bdd);
        assert_eq!(cfg.initial, InitialRegion::Median);
        let default = ExpConfig::from_args(&args("")).unwrap();
        assert!(default.use_bdd);
        assert_eq!(default.initial, InitialRegion::Best);
    }

    #[test]
    fn invalid_enumerated_values_are_rejected() {
        for bad in ["--initial worst", "--initial Best"] {
            let err = ExpConfig::from_args(&args(bad)).unwrap_err();
            assert!(matches!(err, ArgsError::Invalid { .. }), "{bad}: {err}");
        }
        for bad in ["--vary bogus", "--vary all_", "--vary n"] {
            assert!(vary_axes(&args(bad), &["dm", "d_size"]).is_err(), "{bad}");
        }
    }

    #[test]
    fn vary_selects_one_axis_or_all() {
        let axes = ["d", "dm", "n"];
        assert_eq!(vary_axes(&args(""), &axes).unwrap(), axes);
        assert_eq!(vary_axes(&args("--vary all"), &axes).unwrap(), axes);
        assert_eq!(vary_axes(&args("--vary dm"), &axes).unwrap(), ["dm"]);
        for axis in ["d", "dm", "n", "d_size"] {
            let points = sweep_points(&small(), axis);
            assert!(points.len() >= 4, "{axis}");
        }
        let dm: Vec<usize> = sweep_points(&small(), "dm")
            .iter()
            .map(|(_, c)| c.dm)
            .collect();
        assert_eq!(dm, [150, 300, 450, 600, 750]);
        let (label, cfg) = &sweep_points(&small(), "d_size")[3];
        assert_eq!((label.as_str(), cfg.inputs), ("|D|=2000", 2000));
    }

    /// With the `--plan off` toggle retired, every run goes through
    /// the compiled probe layer — the runner must actually charge plan
    /// probes.
    #[test]
    fn every_run_probes_the_compiled_plan() {
        let base = ExpConfig {
            use_bdd: false,
            ..small()
        };
        let run = run_monitored(Which::Hosp.build(base.dm).as_ref(), &base, 3);
        assert!(run.stats.plan_probes > 0, "the plan is the probe layer");
        assert_eq!(run.stats.plan_fallbacks, 0, "hosp keys all plan-covered");
    }

    #[test]
    fn which_builds_both() {
        for which in Which::BOTH {
            let w = which.build(50);
            assert_eq!(w.name(), which.name());
            assert_eq!(w.master().len(), 50);
        }
    }
}
