//! Criterion microbenchmarks for the kernels no `benchmark layers`
//! metric times:
//!
//! * `is_suggestion` — the `Suggest+` diagram's hit path: re-checking
//!   a cached suggestion for a new tuple (the cost the diagram pays
//!   instead of computing one);
//! * `increp_batch64` — the per-tuple `IncRep` CFD repair over a
//!   small batch.
//!
//! Everything else a repaired tuple costs (probes, chase, fresh
//! suggestions, `TransFix`, catalog builds, whole batches) is a layer
//! metric of the `benchmark/` package.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use certainfix_bench::runner::Which;
use certainfix_cfd::{repair_tuple, rules_to_cfds, IncRepConfig};
use certainfix_datagen::{Dataset, DirtyConfig};
use certainfix_reasoning::{is_suggestion, suggest, RegionCatalog};
use certainfix_relation::AttrSet;

fn bench_kernels(c: &mut Criterion) {
    for which in Which::BOTH {
        let w = which.build(5_000);
        let ds = Dataset::generate(
            w.as_ref(),
            &DirtyConfig {
                duplicate_rate: 1.0,
                noise_rate: 0.2,
                input_size: 64,
                seed: 7,
                ..Default::default()
            },
        );
        let catalog = RegionCatalog::build(w.rules(), w.master_index());
        let z: AttrSet = catalog
            .best()
            .expect("catalog non-empty")
            .z()
            .iter()
            .copied()
            .collect();
        // tuples with the initial region already asserted correct
        let prepared: Vec<_> = ds
            .inputs
            .iter()
            .map(|dt| {
                let mut t = dt.dirty.clone();
                for a in z.iter() {
                    t.set(a, *dt.clean.get(a));
                }
                t
            })
            .collect();

        // a suggestion computed for one partially validated tuple,
        // re-checked for the others
        let partial: AttrSet = z.iter().take(1).collect();
        let cached = suggest(w.rules(), w.master_index(), &prepared[0], partial)
            .expect("suggestion exists")
            .attrs;
        c.bench_with_input(
            BenchmarkId::new("is_suggestion", which.name()),
            &prepared,
            |b, tuples| {
                let mut i = 0;
                b.iter(|| {
                    let t = &tuples[i % tuples.len()];
                    i += 1;
                    black_box(is_suggestion(
                        w.rules(),
                        w.master_index(),
                        t,
                        partial,
                        &cached,
                    ))
                });
            },
        );

        let (cfds, _) = rules_to_cfds(w.rules());
        let inc_cfg = IncRepConfig::default();
        c.bench_function(&format!("increp_batch64/{}", which.name()), |b| {
            b.iter(|| {
                let mut unresolved = 0usize;
                for dt in &ds.inputs {
                    unresolved +=
                        repair_tuple(&cfds, &dt.dirty, w.master_index(), &inc_cfg).unresolved;
                }
                black_box(unresolved)
            })
        });
    }
}

criterion_group! {
    name = kernels;
    config = Criterion::default()
        .sample_size(20)
        .measurement_time(std::time::Duration::from_secs(3))
        .warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_kernels
}
criterion_main!(kernels);
