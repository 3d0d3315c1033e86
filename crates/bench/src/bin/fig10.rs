//! Fig. 10: tuple-level fixes when varying d%, |Dm| or n%.
//!
//! * Fig. 10a/d — vary the duplicate rate d% ∈ {10..50}: recall_t grows
//!   with d%, and recall_t(k=1) tracks d% itself.
//! * Fig. 10b/e — vary |Dm| ∈ {0.5x..2.5x}: recall_t at k = 1 is
//!   insensitive to |Dm| (it is governed by d%).
//! * Fig. 10c/f — vary the noise rate n% ∈ {10..50}: recall_t is
//!   insensitive to n%.
//!
//! Usage: `cargo run --release -p certainfix-bench --bin fig10
//!         [--vary d|dm|n|all] [--dm N] [--inputs N] [--out file.csv]`

use certainfix_bench::args::{Args, Spec};
use certainfix_bench::runner::{run_monitored, sweep_points, vary_axes, ExpConfig, Which};
use certainfix_bench::table::{f3, Table};

fn main() {
    let spec = Spec::exp("fig10").valued(&["vary"]);
    let args = Args::from_env_strict(&spec);
    let base = ExpConfig::from_args(&args).unwrap_or_else(|e| spec.fail(e));
    let sweeps = vary_axes(&args, &["d", "dm", "n"]).unwrap_or_else(|e| spec.fail(e));
    let rounds = 4;
    let mut table = Table::new(["dataset", "sweep", "point", "k=1", "k=2", "k=3", "k=4"]);

    for which in Which::BOTH {
        for s in &sweeps {
            for (label, cfg) in sweep_points(&base, s) {
                let w = which.build(cfg.dm);
                let result = run_monitored(w.as_ref(), &cfg, rounds);
                let mut row = vec![which.name().to_string(), s.to_string(), label];
                for k in 1..=rounds {
                    row.push(f3(result.at_round(k).recall_t));
                }
                table.row(row);
            }
        }
    }

    println!("Fig. 10: tuple-level recall (recall_t) after k rounds");
    println!(
        "(defaults: d% = {:.0}, |Dm| = {}, n% = {:.0}, |D| = {})",
        base.d * 100.0,
        base.dm,
        base.n * 100.0,
        base.inputs
    );
    println!("{}", table.render());
    table
        .maybe_write_csv(args.str_or("out", ""))
        .expect("writing CSV output");
}
