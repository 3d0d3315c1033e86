//! Fig. 9: recall vs. the number of interactions.
//!
//! * Fig. 9a (tuple level): recall_t after k rounds, plus the paper's
//!   headline reading — the fraction of eventually-fixed tuples already
//!   fixed by round k ("93% (resp. 100%) of tuples are fixed in the
//!   third round for hosp (resp. dblp)").
//! * Fig. 9b (attribute level): recall_a after k rounds; errors fixed
//!   by the users are not counted.
//!
//! The multi-round dynamics come from users who do not answer a whole
//! suggestion at once (Sect. 5: "S may not necessarily be the same as
//! sug"); `--compliance 1.0` collapses most fixes into round 1.
//!
//! Usage: `cargo run --release -p certainfix-bench --bin fig9
//!         [--dm N] [--inputs N] [--compliance C] [--out file.csv]`

use certainfix_bench::args::{Args, Spec};
use certainfix_bench::runner::{run_monitored, ExpConfig, Which};
use certainfix_bench::table::{f3, Table};

fn main() {
    let spec = Spec::exp("fig9");
    let args = Args::from_env_strict(&spec);
    let mut base = ExpConfig::from_args(&args).unwrap_or_else(|e| spec.fail(e));
    if !args.has("compliance") {
        // partial compliance reveals the multi-round shape of Fig. 9
        base.compliance = 0.7;
    }
    let rounds = 5;
    let mut table = Table::new([
        "dataset",
        "k",
        "recall_t",
        "fixed_frac",
        "recall_a",
        "precision_a",
    ]);

    for which in Which::BOTH {
        let w = which.build(base.dm);
        let result = run_monitored(w.as_ref(), &base, rounds);
        let final_recall_t = result.metrics.last().unwrap().recall_t;
        for m in &result.metrics {
            let fixed_frac = if final_recall_t > 0.0 {
                m.recall_t / final_recall_t
            } else {
                0.0
            };
            table.row([
                which.name().to_string(),
                m.round.to_string(),
                f3(m.recall_t),
                f3(fixed_frac),
                f3(m.recall_a),
                f3(m.precision_a),
            ]);
        }
        println!(
            "{}: max rounds observed = {}, avg rounds = {:.2}",
            which.name(),
            result.max_rounds(),
            result.stats.avg_rounds()
        );
    }

    println!();
    println!(
        "Fig. 9 (a: recall_t / fixed fraction, b: recall_a) — d% = {:.0}, |Dm| = {}, n% = {:.0}, compliance = {:.1}",
        base.d * 100.0,
        base.dm,
        base.n * 100.0,
        base.compliance
    );
    println!("{}", table.render());
    table
        .maybe_write_csv(args.str_or("out", ""))
        .expect("writing CSV output");
}
