//! Criterion microbenchmarks for the framework's kernels.
//!
//! * `transfix` — one TransFix pass over a master-backed tuple (the
//!   per-round fixing cost of Fig. 12);
//! * `chase_validate` — the unique-fix validation of a user assertion;
//! * `suggest` — computing a fresh suggestion (the cost `Suggest+`
//!   amortizes away);
//! * `is_suggestion` — the BDD cache's cheap re-check;
//! * `region_catalog` — the offline certain-region deduction;
//! * `increp_batch64` — the per-tuple `IncRep` CFD repair over a
//!   small batch;
//! * `value_eq` / `key_hash` / `index_lookup` — the interned-symbol
//!   value representation against the seed's `Arc<str>` payloads, on
//!   the exact operations rule application performs per cell.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::sync::Arc;

use certainfix_bench::runner::Which;
use certainfix_cfd::{repair_tuple, rules_to_cfds, IncRepConfig};
use certainfix_core::{transfix, BatchRepairEngine, RepairContext, RepairOptions, SimulatedUser};
use certainfix_datagen::{Dataset, DirtyConfig};
use certainfix_reasoning::{is_suggestion, suggest, Chase, RegionCatalog};
use certainfix_relation::{AttrSet, FxBuildHasher, FxHashMap, Tuple, Value};
use certainfix_rules::DependencyGraph;

fn bench_kernels(c: &mut Criterion) {
    for which in Which::BOTH {
        let w = which.build(5_000);
        let graph = DependencyGraph::new(w.rules());
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

        c.bench_with_input(
            BenchmarkId::new("transfix", which.name()),
            &prepared,
            |b, tuples| {
                let mut i = 0;
                b.iter(|| {
                    let t = &tuples[i % tuples.len()];
                    i += 1;
                    black_box(transfix(w.rules(), w.master_index(), &graph, t, z))
                });
            },
        );

        c.bench_with_input(
            BenchmarkId::new("chase_validate", which.name()),
            &prepared,
            |b, tuples| {
                let chase = Chase::new(w.rules(), w.master_index());
                let mut i = 0;
                b.iter(|| {
                    let t = &tuples[i % tuples.len()];
                    i += 1;
                    black_box(chase.run(t, z).is_unique())
                });
            },
        );

        // suggestion cost on partially validated tuples
        let partial: AttrSet = z.iter().take(1).collect();
        c.bench_with_input(
            BenchmarkId::new("suggest", which.name()),
            &prepared,
            |b, tuples| {
                let mut i = 0;
                b.iter(|| {
                    let t = &tuples[i % tuples.len()];
                    i += 1;
                    black_box(suggest(w.rules(), w.master_index(), t, partial))
                });
            },
        );

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

        c.bench_function(&format!("region_catalog/{}", which.name()), |b| {
            b.iter(|| black_box(RegionCatalog::build(w.rules(), w.master_index())))
        });

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

/// The seed's value representation, reconstructed for comparison:
/// string payloads as reference-counted byte strings, equality and
/// hashing over the bytes.
#[derive(Clone, PartialEq, Eq, Hash)]
enum ArcValue {
    #[allow(dead_code)]
    Null,
    #[allow(dead_code)]
    Int(i64),
    Str(Arc<str>),
}

/// Composite `(zip, city)`-shaped keys in both representations, plus a
/// probe sequence with ~50% hits — the shape of `tm[Xm] = t[X]` probes.
#[allow(clippy::type_complexity)]
fn value_workload() -> (
    Vec<Box<[Value]>>,
    Vec<Box<[ArcValue]>>,
    Vec<Box<[Value]>>,
    Vec<Box<[ArcValue]>>,
) {
    let text: Vec<(String, String)> = (0..4096)
        .map(|i| {
            (
                format!("EH{:02} {}AH", i % 97, i % 10),
                format!("city-of-{}", i % city_modulus(i)),
            )
        })
        .collect();
    let interned: Vec<Box<[Value]>> = text
        .iter()
        .map(|(zip, city)| vec![Value::str(zip), Value::str(city)].into_boxed_slice())
        .collect();
    let arced: Vec<Box<[ArcValue]>> = text
        .iter()
        .map(|(zip, city)| {
            vec![
                ArcValue::Str(Arc::from(zip.as_str())),
                ArcValue::Str(Arc::from(city.as_str())),
            ]
            .into_boxed_slice()
        })
        .collect();
    // probes: even indexes re-probe a present key, odd ones miss
    let probe_text: Vec<(String, String)> = (0..4096)
        .map(|i| {
            if i % 2 == 0 {
                text[(i * 31) % text.len()].clone()
            } else {
                (format!("ZZ{i} XX"), format!("nowhere-{i}"))
            }
        })
        .collect();
    let probes_interned = probe_text
        .iter()
        .map(|(zip, city)| vec![Value::str(zip), Value::str(city)].into_boxed_slice())
        .collect();
    let probes_arced = probe_text
        .iter()
        .map(|(zip, city)| {
            vec![
                ArcValue::Str(Arc::from(zip.as_str())),
                ArcValue::Str(Arc::from(city.as_str())),
            ]
            .into_boxed_slice()
        })
        .collect();
    (interned, arced, probes_interned, probes_arced)
}

/// A small co-prime modulus so city names repeat but not in lockstep
/// with the zip pattern.
fn city_modulus(i: usize) -> usize {
    83 + (i % 3)
}

fn bench_value_representation(c: &mut Criterion) {
    let (interned, arced, probes_i, probes_a) = value_workload();

    // equality: every probe against every 64th key — pure compare loop
    c.bench_with_input(BenchmarkId::new("value_eq", "interned"), &(), |b, ()| {
        b.iter(|| {
            let mut hits = 0usize;
            for p in &probes_i {
                for k in interned.iter().step_by(64) {
                    if p == k {
                        hits += 1;
                    }
                }
            }
            black_box(hits)
        })
    });
    c.bench_with_input(BenchmarkId::new("value_eq", "string"), &(), |b, ()| {
        b.iter(|| {
            let mut hits = 0usize;
            for p in &probes_a {
                for k in arced.iter().step_by(64) {
                    if p == k {
                        hits += 1;
                    }
                }
            }
            black_box(hits)
        })
    });

    // hashing: the per-probe cost of the hash-index path
    let hasher = FxBuildHasher::default();
    c.bench_with_input(BenchmarkId::new("key_hash", "interned"), &(), |b, ()| {
        b.iter(|| {
            let mut acc = 0u64;
            for p in &probes_i {
                acc ^= std::hash::BuildHasher::hash_one(&hasher, p);
            }
            black_box(acc)
        })
    });
    c.bench_with_input(BenchmarkId::new("key_hash", "string"), &(), |b, ()| {
        b.iter(|| {
            let mut acc = 0u64;
            for p in &probes_a {
                acc ^= std::hash::BuildHasher::hash_one(&hasher, p);
            }
            black_box(acc)
        })
    });

    // end-to-end index probe: build once, look up per probe
    let map_i: FxHashMap<&[Value], u32> = interned
        .iter()
        .enumerate()
        .map(|(i, k)| (&**k, i as u32))
        .collect();
    let map_a: FxHashMap<&[ArcValue], u32> = arced
        .iter()
        .enumerate()
        .map(|(i, k)| (&**k, i as u32))
        .collect();
    c.bench_with_input(
        BenchmarkId::new("index_lookup", "interned"),
        &(),
        |b, ()| {
            b.iter(|| {
                let mut hits = 0usize;
                for p in &probes_i {
                    if map_i.contains_key(&**p) {
                        hits += 1;
                    }
                }
                black_box(hits)
            })
        },
    );
    c.bench_with_input(BenchmarkId::new("index_lookup", "string"), &(), |b, ()| {
        b.iter(|| {
            let mut hits = 0usize;
            for p in &probes_a {
                if map_a.contains_key(&**p) {
                    hits += 1;
                }
            }
            black_box(hits)
        })
    });
}

/// Sequential vs parallel throughput of `CertainFix+` with the shared
/// cache on, on a 50k-tuple HOSP batch: the 4-worker variant should
/// reach ≥ 2× the sequential tuples/s on a ≥ 4-core machine (tuple
/// repairs are independent; the only shared state is the read-mostly
/// master index, the lock-free interner and the pinned suggestion
/// pool). Two batch shapes: `hosp50k`, the paper's uniform stream, and
/// `hosp50k-skewed`, zipf-ish hardness concentrated at the head of the
/// stream (`skew = 1.0`), which stealing spreads over the workers.
fn bench_batch_repair(c: &mut Criterion) {
    let w = Which::Hosp.build(10_000);
    // the skewed shape pairs a mostly-duplicate (1-round) tail with a
    // mostly-fresh, noise-saturated head: the per-tuple work ratio
    // between head and tail is ~2x
    for (shape, d, skew) in [("hosp50k", 0.3, 0.0), ("hosp50k-skewed", 0.9, 1.0)] {
        let ds = Dataset::generate(
            w.as_ref(),
            &DirtyConfig {
                duplicate_rate: d,
                noise_rate: 0.2,
                input_size: 50_000,
                seed: 21,
                skew,
                ..Default::default()
            },
        );
        let dirty: Vec<Tuple> = ds.inputs.iter().map(|dt| dt.dirty.clone()).collect();
        // the shared cache persists across iterations (the streaming
        // setting)
        let engine = BatchRepairEngine::new(RepairContext::new(
            w.rules().clone(),
            w.master().clone(),
            true,
        ));
        // warm the lazily built master key indexes out of the measurement
        engine.repair_opts(&dirty[..64], &RepairOptions::default(), |i| {
            SimulatedUser::new(ds.inputs[i].clean.clone())
        });
        for threads in [1usize, 4] {
            let opts = RepairOptions {
                threads,
                ..RepairOptions::default()
            };
            c.bench_with_input(
                BenchmarkId::new(
                    "batch_repair",
                    format!("{shape}/steal+shared/threads{threads}"),
                ),
                &dirty,
                |b, dirty| {
                    b.iter(|| {
                        let report = engine.repair_opts(dirty, &opts, |i| {
                            SimulatedUser::new(ds.inputs[i].clean.clone())
                        });
                        black_box((report.stats.certain, report.throughput()))
                    })
                },
            );
        }
    }
}

criterion_group! {
    name = kernels;
    config = Criterion::default()
        .sample_size(20)
        .measurement_time(std::time::Duration::from_secs(3))
        .warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_kernels, bench_value_representation
}
criterion_group! {
    name = batch;
    config = Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(5))
        .warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_batch_repair
}
criterion_main!(kernels, batch);
