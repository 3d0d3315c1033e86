//! Bibliography enrichment (the paper's DBLP workload + Sect. 1's
//! "data enrichment" use of editing rules).
//!
//! Incoming publication records often arrive *incomplete*: homepages,
//! ISBNs and crossrefs are missing rather than wrong. Editing rules
//! fill missing attributes from master data exactly like they fix
//! erroneous ones (Example 2's t2 enrichment). This example also
//! exercises the cross-attribute rules φ2/φ4 (`a2` looked up among
//! master `a1` values) that CFDs cannot express.
//!
//! Run with: `cargo run --release --example dblp_enrichment`

use certain_fix::core::{RepairContext, RepairOptions, SimulatedUser};
use certain_fix::datagen::{Dblp, Workload};
use certain_fix::prelude::*;

fn main() {
    let dblp = Dblp::generate(1_000);
    let schema = dblp.schema().clone();
    println!(
        "DBLP workload: {} attributes, {} editing rules (incl. cross-attribute φ2/φ4), |Dm| = {}",
        schema.len(),
        dblp.rules().len(),
        dblp.master().len()
    );

    // Build incomplete records: take master papers and blank out the
    // derivable attributes — only the identifying fields survive data
    // entry.
    let keep = ["ptitle", "a1", "a2", "type", "pages"];
    let keep_ids: Vec<AttrId> = keep.iter().map(|n| schema.attr(n).unwrap()).collect();
    let incomplete: Vec<(Tuple, Tuple)> = dblp
        .master()
        .iter()
        .take(200)
        .map(|full| {
            let mut t = Tuple::nulls(schema.len());
            for &a in &keep_ids {
                t.set(a, *full.get(a));
            }
            (t, full.clone())
        })
        .collect();
    let blank_per_tuple = schema.len() - keep.len();
    println!(
        "enriching {} records, each missing {} of {} attributes\n",
        incomplete.len(),
        blank_per_tuple,
        schema.len()
    );

    // the paper's sequential monitor: one worker and one chunk, so one
    // BDD suggestion cache serves every record
    let ctx = RepairContext::new(dblp.rules().clone(), dblp.master().clone(), true);
    let records: Vec<Tuple> = incomplete.iter().map(|(t, _)| t.clone()).collect();
    let opts = RepairOptions {
        chunk: records.len(),
        ..RepairOptions::default()
    };
    let report = ctx.repair_opts(&records, &opts, |i| {
        SimulatedUser::new(incomplete[i].1.clone())
    });
    let mut enriched = 0usize;
    let mut filled_attrs = 0usize;
    for ((t, truth), outcome) in incomplete.iter().zip(&report.outcomes) {
        if outcome.certain && &outcome.tuple == truth {
            enriched += 1;
        }
        filled_attrs += outcome
            .rule_fixed
            .iter()
            .filter(|&a| t.get(a).is_null() && !outcome.tuple.get(a).is_null())
            .count();
    }
    println!(
        "fully enriched: {enriched}/{} records; {} missing cells filled from master data",
        incomplete.len(),
        filled_attrs
    );

    // Show one record in detail.
    let (t, truth) = &incomplete[0];
    let outcome = &report.outcomes[0];
    println!("\nbefore: {}", t.render_named(&schema));
    println!("after:  {}", outcome.tuple.render_named(&schema));
    assert_eq!(&outcome.tuple, truth);

    // The cross-attribute rule in action: a paper whose SECOND author's
    // homepage is recovered through master rows where that author is
    // FIRST author.
    let hp2 = schema.attr("hp2").unwrap();
    assert!(!outcome.tuple.get(hp2).is_null(), "hp2 enriched");
    println!("\nOK: records enriched with certainty guarantees.");
}
