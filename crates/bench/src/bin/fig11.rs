//! Fig. 11: attribute-level fixes (F-measure) when varying d%, |Dm| or
//! n%, with the `IncRep` comparison.
//!
//! The shapes the paper reports:
//!
//! * F-measure grows with d% (10a/d analogue) and with |Dm| (11b/e);
//! * our F-measure is insensitive to the noise rate n% while
//!   `IncRep`'s degrades as n% grows and falls below ours (11c/f) —
//!   `IncRep` repairs more aggressively (no user interaction) but
//!   introduces errors, so its precision < 1.
//!
//! `IncRep` is evaluated once per sweep point (it has no interaction
//! rounds); our method is reported at k = 1 (to favour `IncRep`, as the
//! paper does) and at k = 4.
//!
//! Usage: `cargo run --release -p certainfix-bench --bin fig11
//!         [--vary d|dm|n|all] [--dm N] [--inputs N] [--out file.csv]`

use certainfix_bench::args::{Args, Spec};
use certainfix_bench::runner::{
    run_increp, run_monitored, sweep_points, vary_axes, ExpConfig, Which,
};
use certainfix_bench::table::{f3, Table};

fn main() {
    let spec = Spec::exp("fig11").valued(&["vary"]);
    let args = Args::from_env_strict(&spec);
    let base = ExpConfig::from_args(&args).unwrap_or_else(|e| spec.fail(e));
    let sweeps = vary_axes(&args, &["d", "dm", "n"]).unwrap_or_else(|e| spec.fail(e));
    let mut table = Table::new([
        "dataset", "sweep", "point", "F k=1", "F k=4", "F IncRep", "P IncRep",
    ]);

    for which in Which::BOTH {
        for s in &sweeps {
            for (label, cfg) in sweep_points(&base, s) {
                let w = which.build(cfg.dm);
                let result = run_monitored(w.as_ref(), &cfg, 4);
                let (increp_counts, _) = run_increp(w.as_ref(), &result.dataset);
                table.row([
                    which.name().to_string(),
                    s.to_string(),
                    label,
                    f3(result.at_round(1).f_measure),
                    f3(result.at_round(4).f_measure),
                    f3(increp_counts.f_measure()),
                    f3(increp_counts.precision()),
                ]);
            }
        }
    }

    println!("Fig. 11: attribute-level F-measure, CertainFix vs IncRep");
    println!(
        "(defaults: d% = {:.0}, |Dm| = {}, n% = {:.0}, |D| = {}; our precision is 1.0 by construction)",
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
