//! Criterion kernels for the compiled rule-plan probe layer
//! (`BENCH_plan` in CI).
//!
//! The compiled [`RulePlan`] at four altitudes (the plain
//! lock-and-clone `MasterIndex` functions are the plan's test-time
//! oracle, not a configuration, so they are not timed here):
//!
//! * `plan_probe` / `plan_probe_block` — the bare `tm[Xm] = t[X]`
//!   candidate probe, per rule per tuple (the unit the paper's
//!   "constant time by hash table" argument is about), and the same
//!   probe amortized over a block;
//! * `transfix_plan` — one full `TransFix` pass over a master-backed
//!   tuple, the per-round fixing cost;
//! * `batch_repair_plan` — the end-to-end hosp50k batch-repair kernel
//!   (plain `CertainFix`, caches off, one worker);
//! * `master_delta` — one [`MasterDelta`] application: maintain the
//!   index, recompile the plan, re-rank the catalog, swap the epoch —
//!   the cost a live-master deployment pays per mutation batch.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use certainfix_bench::runner::Which;
use certainfix_core::{
    transfix_with, BatchRepairEngine, CertainFixConfig, InitialRegion, RepairContext,
    RepairOptions, Schedule, SimulatedUser,
};
use certainfix_datagen::{Dataset, DirtyConfig};
use certainfix_relation::{AttrSet, MasterDelta, Tuple};
use certainfix_rules::{DependencyGraph, ProbeScratch, RulePlan};

fn bench_plan_probe(c: &mut Criterion) {
    let w = Which::Hosp.build(10_000);
    let plan = RulePlan::compile(w.rules(), w.master_index());
    // a contiguous chunk of a bursty duplicate-heavy stream (a hot
    // window of 8 master entities re-entered with occasional typos —
    // an operator working through a stack of forms for the same few
    // hospitals) — the regime block probing amortizes: repeated probe
    // keys hash once and share a hit list. The CI block-size leg
    // separately covers the skewed stream for determinism, and
    // `plan_probe/compiled` above gives the same-stream single-tuple
    // baseline.
    let ds = Dataset::generate(
        w.as_ref(),
        &DirtyConfig {
            duplicate_rate: 0.95,
            noise_rate: 0.05,
            input_size: 256,
            seed: 7,
            hot: 8,
            ..Default::default()
        },
    );
    let tuples: Vec<Tuple> = ds.inputs.iter().map(|dt| dt.dirty.clone()).collect();

    c.bench_with_input(
        BenchmarkId::new("plan_probe", "compiled"),
        &tuples,
        |b, tuples| {
            let mut scratch = ProbeScratch::new();
            let mut i = 0;
            b.iter(|| {
                let t = &tuples[i % tuples.len()];
                i += 1;
                let mut hits = 0usize;
                for (r, _) in plan.iter() {
                    hits += plan.candidates(r, t, &mut scratch).len();
                }
                black_box(hits)
            });
        },
    );
    // the tentpole kernel: the same all-rules probe amortized over a
    // block session — sibling rules share one dedup pass per probe
    // group and duplicate keys hash once. `plan_probe_block` prefetches
    // every cell, and a read borrows the hit list from the pinned
    // index as the single-tuple probe does. Divide the reported time by
    // the block size for the per-tuple figure comparable to
    // `plan_probe`.
    let refs: Vec<&Tuple> = tuples.iter().collect();
    for size in [64usize, 256] {
        let chunk = &refs[..size];
        c.bench_with_input(
            BenchmarkId::new("plan_probe_block", format!("block{size}")),
            &chunk,
            |b, refs| {
                let mut scratch = ProbeScratch::new();
                b.iter(|| {
                    let mut hits = 0usize;
                    plan.begin_block(refs.len(), &mut scratch);
                    for (r, _) in plan.iter() {
                        plan.plan_probe_block(r, refs, &mut scratch);
                    }
                    for (r, _) in plan.iter() {
                        for j in 0..refs.len() {
                            hits += plan
                                .block_candidates(r, j, &mut scratch)
                                .expect("plan_probe_block prefetches every cell")
                                .len();
                        }
                    }
                    black_box(hits)
                });
            },
        );
    }

    // one full TransFix pass from the best region's Z
    let graph = DependencyGraph::new(w.rules());
    let catalog = certainfix_reasoning::RegionCatalog::build(w.rules(), w.master_index());
    let z: AttrSet = catalog
        .best()
        .expect("catalog non-empty")
        .z()
        .iter()
        .copied()
        .collect();
    let prepared: Vec<Tuple> = ds
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
        BenchmarkId::new("transfix_plan", "compiled"),
        &prepared,
        |b, tuples| {
            let mut scratch = ProbeScratch::new();
            let mut i = 0;
            b.iter(|| {
                let t = &tuples[i % tuples.len()];
                i += 1;
                black_box(transfix_with(
                    w.rules(),
                    w.master_index(),
                    &graph,
                    &plan,
                    &mut scratch,
                    t,
                    z,
                ))
            });
        },
    );
}

/// The acceptance kernel: the hosp50k batch repaired through the
/// compiled probe layer. Plain `CertainFix`, both caches off, one
/// worker — the configuration whose per-tuple cost the `plan_probe`
/// and `transfix_plan` kernels above decompose.
fn bench_batch_repair_plan(c: &mut Criterion) {
    let w = Which::Hosp.build(10_000);
    let ds = Dataset::generate(
        w.as_ref(),
        &DirtyConfig {
            duplicate_rate: 0.3,
            noise_rate: 0.2,
            input_size: 50_000,
            seed: 21,
            ..Default::default()
        },
    );
    let dirty: Vec<Tuple> = ds.inputs.iter().map(|dt| dt.dirty.clone()).collect();
    let opts = RepairOptions {
        threads: 1,
        schedule: Schedule::Steal,
        shared_cache: false,
        chunk: 0,
    };
    let engine = BatchRepairEngine::new(RepairContext::with_config(
        w.rules().clone(),
        w.master().clone(),
        false,
        InitialRegion::Best,
        CertainFixConfig::default(),
    ));
    // warm the lazily built master key indexes out of the measurement
    engine.repair_opts(&dirty[..64], &opts, |i| {
        SimulatedUser::new(ds.inputs[i].clean.clone())
    });
    c.bench_with_input(
        BenchmarkId::new("batch_repair_plan", "hosp50k"),
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

/// The live-master mutation cost: apply a `size`-row update delta to a
/// 10k-row master and stand up the next epoch (index maintenance +
/// plan recompile + catalog re-rank + atomic swap). Updates only, so
/// the master's size is invariant across iterations and every
/// application pays the same maintenance bill.
fn bench_master_delta(c: &mut Criterion) {
    let w = Which::Hosp.build(10_000);
    let ctx = RepairContext::with_config(
        w.rules().clone(),
        w.master().clone(),
        false,
        InitialRegion::Best,
        CertainFixConfig::default(),
    );
    for size in [1usize, 64] {
        let mut delta = MasterDelta::new();
        for id in 0..size as u32 {
            delta = delta.update(id, w.master().tuple(id as usize).clone());
        }
        c.bench_with_input(
            BenchmarkId::new("master_delta", format!("update{size}")),
            &delta,
            |b, delta| b.iter(|| black_box(ctx.apply_master_delta(delta).expect("delta applies"))),
        );
    }
}

criterion_group! {
    name = probes;
    config = Criterion::default()
        .sample_size(20)
        .measurement_time(std::time::Duration::from_secs(3))
        .warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_plan_probe
}
criterion_group! {
    name = batch;
    config = Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(5))
        .warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_batch_repair_plan, bench_master_delta
}
criterion_main!(probes, batch);
