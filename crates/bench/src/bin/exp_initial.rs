//! Exp-1(2): the initial suggestion selection.
//!
//! Reproduces the paper's table comparing F-measure when the
//! interaction is seeded with the highest-quality certain region (CRHQ)
//! versus the median-quality one (CRMQ):
//!
//! ```text
//! Dataset   F-measure CRHQ   F-measure CRMQ     (paper: 0.74/0.70 hosp, 0.79/0.69 dblp)
//! ```
//!
//! The shape to reproduce: CRHQ ≥ CRMQ on both datasets — a better
//! initial region lets the rules fix more attributes automatically.
//!
//! Usage: `cargo run --release -p certainfix-bench --bin exp_initial
//!         [--dm N] [--inputs N] [--seed S] [--out file.csv]`

use certainfix_bench::args::{Args, Spec};
use certainfix_bench::runner::{run_monitored, ExpConfig, Which};
use certainfix_bench::table::{f3, Table};
use certainfix_core::InitialRegion;

fn main() {
    let spec = Spec::exp("exp_initial");
    let args = Args::from_env_strict(&spec);
    let base = ExpConfig::from_args(&args).unwrap_or_else(|e| spec.fail(e));
    let mut table = Table::new(["dataset", "CRHQ", "CRMQ"]);

    for which in Which::BOTH {
        let w = which.build(base.dm);
        let mut f = [0.0f64; 2];
        for (i, initial) in [InitialRegion::Best, InitialRegion::Median]
            .into_iter()
            .enumerate()
        {
            let cfg = ExpConfig { initial, ..base };
            let result = run_monitored(w.as_ref(), &cfg, 4);
            f[i] = result.at_round(4).f_measure;
        }
        table.row([which.name().to_uppercase(), f3(f[0]), f3(f[1])]);
    }

    println!("Exp-1(2): F-measure with CRHQ vs CRMQ initial suggestions");
    println!(
        "(|Dm| = {}, |D| = {}, d% = {:.0}, n% = {:.0})",
        base.dm,
        base.inputs,
        base.d * 100.0,
        base.n * 100.0
    );
    println!("{}", table.render());
    table
        .maybe_write_csv(args.str_or("out", ""))
        .expect("writing CSV output");
}
