//! Hospital data-entry monitoring (the paper's HOSP workload).
//!
//! Simulates a *stream* of hospital/measure records arriving at a data
//! entry point: records arrive in 100-record batches, and a
//! `RepairSession` with two repair workers drains them — 30% of records
//! duplicate master entities (their errors are certain-fixable), 20%
//! of attributes are corrupted. The monitor asks the clerk to confirm
//! a *two-attribute* certain region (phone number and measure code)
//! and derives the other seventeen attributes from master data.
//!
//! Run with: `cargo run --release --example hospital_monitoring`

use certain_fix::core::{
    evaluate_rounds, BatchRepairEngine, RepairContext, RepairOptions, RepairSession, SimulatedUser,
    SliceSource, TupleEval,
};
use certain_fix::datagen::{Dataset, DirtyConfig, Hosp, Workload};
use certain_fix::relation::Tuple;

fn main() {
    let master_size = 2_000;
    let hosp = Hosp::generate(master_size);
    println!(
        "HOSP workload: schema {} with {} attributes, {} editing rules, |Dm| = {}",
        hosp.schema().name(),
        hosp.schema().len(),
        hosp.rules().len(),
        hosp.master().len()
    );

    let cfg = DirtyConfig {
        duplicate_rate: 0.3,
        noise_rate: 0.2,
        input_size: 500,
        seed: 2024,
        ..Default::default()
    };
    let dataset = Dataset::generate(&hosp, &cfg);
    println!(
        "input stream: {} tuples ({} erroneous, {} erroneous attributes)\n",
        dataset.len(),
        dataset.erroneous(),
        dataset.erroneous_attrs()
    );

    // CertainFix+: one suggestion diagram per chunk, two workers
    let ctx = RepairContext::new(hosp.rules().clone(), hosp.master().clone(), true);
    let opts = RepairOptions {
        threads: 2,
        ..RepairOptions::default()
    };
    let mut session = RepairSession::from_engine(BatchRepairEngine::new(ctx), opts);
    println!(
        "initial certain region Z = {} (assure these and the rest follows)",
        hosp.schema()
            .render_attrs(session.context().epoch().initial_suggestion())
    );

    // the entry point: arriving records come in 100-record batches, and
    // the session's workers repair each batch as it lands
    let dirty: Vec<Tuple> = dataset.inputs.iter().map(|dt| dt.dirty.clone()).collect();
    session.drain(SliceSource::with_batch(&dirty, 100), |i| {
        SimulatedUser::new(dataset.inputs[i].clean.clone())
    });
    let report = session.finish();

    println!("batch  tuples  certain  rounds");
    for (k, batch) in report.batches.iter().enumerate() {
        println!(
            "    {}     {}      {}     {}",
            k, batch.stats.tuples, batch.stats.certain, batch.stats.rounds
        );
    }

    let stats = &report.stats;
    println!(
        "\nprocessed {} tuples in {} batches ({} certain fixes, {:.2} rounds avg, \
         {:.3} ms/round, {:.0} tuples/s)",
        stats.tuples,
        report.batches.len(),
        stats.certain,
        stats.avg_rounds(),
        stats.avg_round_latency().as_secs_f64() * 1e3,
        report.throughput()
    );
    println!(
        "suggestion cache (one diagram per chunk): {} hits, {} misses, {} failed checks",
        report.bdd.hits, report.bdd.misses, report.bdd.failed_checks
    );

    let outcomes: Vec<_> = report.outcomes().collect();
    let evals: Vec<TupleEval> = outcomes
        .iter()
        .zip(&dataset.inputs)
        .map(|(o, dt)| TupleEval {
            outcome: o,
            dirty: &dt.dirty,
            clean: &dt.clean,
        })
        .collect();
    println!("\n round  recall_t  recall_a  precision_a");
    for m in evaluate_rounds(&evals, 3) {
        println!(
            "     {}     {:.3}     {:.3}        {:.3}",
            m.round, m.recall_t, m.recall_a, m.precision_a
        );
    }

    // The headline guarantee: every attribute a rule changed is correct.
    let mut wrong = 0usize;
    for (o, dt) in outcomes.iter().zip(&dataset.inputs) {
        for a in o.rule_fixed.iter() {
            if o.tuple.get(a) != dt.clean.get(a) {
                wrong += 1;
            }
        }
    }
    println!("\nrule-fixed attributes that are wrong: {wrong} (certain fixes are never wrong)");
    assert_eq!(wrong, 0);
}
