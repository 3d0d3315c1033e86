//! The interner-watermark bound (the `interner-watermark` CI leg):
//! under the adversarial free-text stream — every corrupted cell a
//! fresh, never-repeated symbol — the global interner must grow by at
//! most one symbol per corrupted cell over the workload baseline, and
//! the engine's reported [`MonitorStats::interner_syms`] watermark
//! must account for every payload.
//!
//! This lives in its own integration-test binary (one `#[test]`, one
//! process) because the interner is process-global: unit tests running
//! concurrently would intern their own symbols between our
//! measurements and make the bound unattributable.
//!
//! [`MonitorStats::interner_syms`]: certainfix_core::MonitorStats::interner_syms

use certainfix_core::{RepairContext, RepairOptions, SimulatedUser};
use certainfix_datagen::{Dataset, DirtyConfig, Hosp, Workload};
use certainfix_relation::{Interner, Tuple, Value};

#[test]
fn free_text_interner_growth_is_one_symbol_per_corrupted_cell() {
    let hosp = Hosp::generate(400);
    // everything the workload itself interns (master values, rule
    // pattern constants) is in by now — the attributable baseline
    let baseline = Interner::global().len() as u64;

    // duplicate_rate 1.0: every clean tuple copies an already-interned
    // master row, so the only post-baseline symbols are the corrupted
    // payloads themselves
    let cfg = DirtyConfig {
        duplicate_rate: 1.0,
        noise_rate: 0.4,
        input_size: 500,
        seed: 11,
        free_text: 1.0,
        ..Default::default()
    };
    let ds = Dataset::generate(&hosp, &cfg);
    let mut payloads = std::collections::HashSet::new();
    let mut cells = 0u64;
    for t in &ds.inputs {
        for a in t.error_attrs() {
            cells += 1;
            if let v @ Value::Str(_) = t.dirty.get(a) {
                payloads.insert(*v);
            }
        }
    }
    assert!(cells > 1_000, "enough corrupted cells to be meaningful");
    assert_eq!(
        payloads.len() as u64,
        cells,
        "free-text corruption never repeats a payload"
    );

    let ctx = RepairContext::new(hosp.rules().clone(), hosp.master().clone(), false);
    let dirty: Vec<Tuple> = ds.inputs.iter().map(|dt| dt.dirty.clone()).collect();
    let report = ctx.repair_opts(&dirty, &RepairOptions::default(), |i| {
        SimulatedUser::new(ds.inputs[i].clean.clone())
    });

    assert_eq!(report.stats.tuples, 500);
    // the watermark saw every payload...
    assert!(
        report.stats.interner_syms >= baseline + payloads.len() as u64,
        "watermark {} misses payloads over baseline {baseline}",
        report.stats.interner_syms
    );
    // ...and the documented bound holds: one symbol per corrupted
    // cell, plus a small constant for incidental literals
    assert!(
        report.stats.interner_syms <= baseline + cells + 64,
        "watermark {} exceeds baseline {baseline} + {cells} cells + 64",
        report.stats.interner_syms
    );
}
