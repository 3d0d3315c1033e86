//! Fig. 12: efficiency and scalability.
//!
//! * Fig. 12a/b — vary |Dm|: average elapsed time per interaction round
//!   for `CertainFix` (no BDD) vs `CertainFix+` (BDD suggestion cache).
//!   Both scale gracefully with master size; the BDD variant is faster.
//! * Fig. 12c/d — vary |D| (the input stream length): `CertainFix` is
//!   insensitive to |D| (tuples are independent); `CertainFix+` gets
//!   *faster* per round as |D| grows because the cache warms up — the
//!   paper's ~0.1 s plateau.
//!
//! Usage: `cargo run --release -p certainfix-bench --bin fig12
//!         [--vary dm|d_size|all] [--dm N] [--inputs N] [--out file.csv]`

use certainfix_bench::args::{Args, Spec};
use certainfix_bench::runner::{run_monitored, sweep_points, vary_axes, ExpConfig, Which};
use certainfix_bench::table::{ms, Table};

fn run_point(which: Which, cfg: &ExpConfig) -> (std::time::Duration, f64) {
    let w = which.build(cfg.dm);
    let result = run_monitored(w.as_ref(), cfg, 1);
    let hit_rate = {
        let s = result.bdd;
        let total = s.hits + s.misses;
        if total == 0 {
            0.0
        } else {
            s.hits as f64 / total as f64
        }
    };
    (result.stats.avg_round_latency(), hit_rate)
}

fn main() {
    let spec = Spec::exp("fig12").valued(&["vary"]);
    let args = Args::from_env_strict(&spec);
    let base = ExpConfig::from_args(&args).unwrap_or_else(|e| spec.fail(e));
    let sweeps = vary_axes(&args, &["dm", "d_size"]).unwrap_or_else(|e| spec.fail(e));
    let mut table = Table::new([
        "dataset",
        "sweep",
        "point",
        "CertainFix ms/round",
        "CertainFix+ ms/round",
        "BDD hit rate",
    ]);

    for which in Which::BOTH {
        for s in &sweeps {
            for (label, cfg) in sweep_points(&base, s) {
                let plain = run_point(
                    which,
                    &ExpConfig {
                        use_bdd: false,
                        ..cfg
                    },
                );
                let cached = run_point(
                    which,
                    &ExpConfig {
                        use_bdd: true,
                        ..cfg
                    },
                );
                table.row([
                    which.name().to_string(),
                    s.to_string(),
                    label,
                    ms(plain.0),
                    ms(cached.0),
                    format!("{:.2}", cached.1),
                ]);
            }
        }
    }

    println!("Fig. 12: average latency per interaction round");
    println!(
        "(defaults: d% = {:.0}, n% = {:.0}, |Dm| = {}, |D| = {})",
        base.d * 100.0,
        base.n * 100.0,
        base.dm,
        base.inputs
    );
    println!("{}", table.render());
    table
        .maybe_write_csv(args.str_or("out", ""))
        .expect("writing CSV output");
}
