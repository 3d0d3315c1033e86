//! Live-master sweep: delta cadence × worker count, with the
//! delta-maintained session checked batch-by-batch against freshly
//! rebuilt engines (the D10 obligation at bench scale).
//!
//! Every point seeds the engine with the first `--dm` master rows of a
//! larger generated master, streams the dirty inputs through a
//! `RepairSession` in `--batch`-sized batches, and after every
//! `--delta-every` batches applies a [`MasterDelta`] inserting the
//! next `--delta-size` held-back master rows (and, with
//! `--delta-updates U`, overwriting one column in each of `U` existing
//! rows) — so the master evolves *while the stream is being repaired*,
//! and later batches repair against later generations. For each batch
//! the harness then builds a fresh engine over exactly the master
//! state that batch pinned and re-repairs it: the outcomes must be
//! bit-identical (`"match": true` in every row), the batch generations
//! must be non-decreasing, and `plan_rebuilds` must equal the number
//! of deltas applied. The run is plain `CertainFix` with the BDD and
//! shared caches off — the configuration under which the
//! delta-maintained ≡ rebuilt guarantee is bit-exact down to
//! `plan_probes`.
//!
//! Rows at the same `(dataset, delta_every)` point differ only in the
//! worker count, so CI can additionally diff their deterministic count
//! fields across `--threads` legs.
//!
//! A machine-readable JSON document goes to **stdout** (CI archives it
//! as the `BENCH_delta` artifact); the human-readable table goes to
//! stderr.
//!
//! Usage: `cargo run --release -p certainfix-bench --bin exp_delta --
//!         [--dm N] [--inputs N] [--threads T] [--batch B]
//!         [--delta-every K] [--delta-size R] [--delta-updates U]
//!         [--delta-cols mixed|fixes|keys] [--chunk C] [--skew F]
//!         [--d F] [--n F] [--seed S] [--compliance F] [--out file.csv]`
//!
//! `--threads T` caps the swept worker counts (0 = this machine's
//! available parallelism); `--delta-every K` pins a single cadence
//! instead of the default `{1, 4}` sweep.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use certainfix_bench::args::{Args, Spec};
use certainfix_bench::runner::{oracle_factory, ExpConfig, Which};
use certainfix_bench::sweep::{json_escape, thread_points};
use certainfix_bench::table::Table;
use certainfix_core::{
    BatchRepairEngine, CertainFixConfig, InitialRegion, RepairContext, RepairOptions, Schedule,
};
use certainfix_datagen::{Dataset, Workload};
use certainfix_relation::{AttrId, MasterDelta, Relation, Tuple};

/// One measured sweep point.
struct Row {
    dataset: &'static str,
    threads: usize,
    delta_every: usize,
    delta_size: usize,
    batches: usize,
    deltas: u64,
    generation: u64,
    tuples: u64,
    certain: u64,
    plan_probes: u64,
    probe_allocs: u64,
    wall_ms: f64,
    throughput_tps: f64,
    matches: bool,
}

/// The live master as a plain row list, maintained alongside the
/// session so update deltas (which `master_prefix` slicing cannot
/// express) still have an exact rebuilt-baseline master per batch.
struct MasterMirror {
    rows: Vec<Tuple>,
    schema: Arc<certainfix_relation::Schema>,
}

impl MasterMirror {
    fn new(full: &Arc<Relation>, dm: usize) -> MasterMirror {
        MasterMirror {
            rows: full.tuples()[..dm].to_vec(),
            schema: full.schema().clone(),
        }
    }

    fn apply(&mut self, delta: &MasterDelta) {
        for (row, t) in delta.updates() {
            self.rows[*row as usize] = t.clone();
        }
        for t in delta.inserts() {
            self.rows.push(t.clone());
        }
    }

    fn snapshot(&self) -> Arc<Relation> {
        Arc::new(
            Relation::new(self.schema.clone(), self.rows.clone())
                .expect("mirrored master rows are valid"),
        )
    }
}

/// Which master columns `--delta-updates` may overwrite: `Fixes`
/// touches only columns that are no rule's key (with `--delta-size 0`
/// the deltas are suggestion-preserving), `Keys` only rule keys, and
/// `Mixed` cycles every column.
#[derive(Clone, Copy, PartialEq, Eq)]
enum DeltaCols {
    Mixed,
    Fixes,
    Keys,
}

impl DeltaCols {
    fn name(self) -> &'static str {
        match self {
            DeltaCols::Mixed => "mixed",
            DeltaCols::Fixes => "fixes",
            DeltaCols::Keys => "keys",
        }
    }

    /// The update-column pool for this mode under `w`'s rules.
    fn pool(self, w: &dyn Workload) -> Vec<AttrId> {
        let arity = w.master().schema().len();
        let mut is_key = vec![false; arity];
        for (_, rule) in w.rules().iter() {
            for &m in rule.lhs_m() {
                is_key[m.0 as usize] = true;
            }
            for &a in rule.lhs_p() {
                if let Some(m) = rule.master_attr_for(a) {
                    is_key[m.0 as usize] = true;
                }
            }
        }
        let cols: Vec<AttrId> = (0..arity)
            .filter(|&i| match self {
                DeltaCols::Mixed => true,
                DeltaCols::Fixes => !is_key[i],
                DeltaCols::Keys => is_key[i],
            })
            .map(|i| AttrId(i as u16))
            .collect();
        assert!(
            !cols.is_empty(),
            "--delta-cols {}: no eligible master column under this rule set",
            self.name()
        );
        cols
    }
}

/// The delta applied after batch `di`: `size` held-back inserts plus
/// `updates` single-column overwrites of existing rows, each copying
/// the same column from another current row — deterministic in
/// `(di, j)`, so every leg of a sweep point mutates the master
/// identically. Update columns cycle through `cols`.
#[allow(clippy::too_many_arguments)]
fn build_delta(
    full: &Arc<Relation>,
    mirror: &MasterMirror,
    dm: usize,
    applied: usize,
    size: usize,
    updates: usize,
    cols: &[AttrId],
    di: usize,
) -> MasterDelta {
    let mut delta = MasterDelta::new();
    let len = mirror.rows.len();
    for j in 0..updates {
        let r = ((di as u64)
            .wrapping_mul(31)
            .wrapping_add((j as u64).wrapping_mul(17))
            .wrapping_mul(0x9E37_79B9))
            % len as u64;
        let donor = (r + 1 + j as u64) % len as u64;
        let col = cols[(di + j) % cols.len()];
        let mut t = mirror.rows[r as usize].clone();
        t.set(col, *mirror.rows[donor as usize].get(col));
        delta = delta.update(r as u32, t);
    }
    for r in 0..size {
        delta = delta.insert(full.tuple(dm + applied + r).clone());
    }
    delta
}

/// A plain `CertainFix` engine (BDD off) over `master`.
fn engine_for(w: &dyn Workload, master: Arc<Relation>) -> BatchRepairEngine {
    BatchRepairEngine::new(RepairContext::with_config(
        w.rules().clone(),
        master,
        false,
        InitialRegion::Best,
        CertainFixConfig::default(),
    ))
}

#[allow(clippy::too_many_arguments)]
fn run_point(
    which: Which,
    w: &dyn Workload,
    dataset: &Dataset,
    base: &ExpConfig,
    threads: usize,
    every: usize,
    size: usize,
    updates: usize,
    cols: &[AttrId],
    batch: usize,
) -> Row {
    let full = w.master().clone();
    let reserve = full.len() - base.dm;
    let dirty: Vec<Tuple> = dataset.inputs.iter().map(|dt| dt.dirty.clone()).collect();
    let oracle = oracle_factory(dataset, base.compliance);
    let opts = RepairOptions {
        threads,
        schedule: Schedule::Steal,
        shared_cache: false,
        chunk: base.chunk,
    };

    // the live run: one session, deltas applied between batches; the
    // mirror tracks the evolving master row list and snapshots the
    // state each batch pins, so the rebuilt baseline can reconstruct
    // it even when update deltas overwrite rows
    let mut mirror = MasterMirror::new(&full, base.dm);
    let engine = engine_for(w, mirror.snapshot());
    let mut session = engine.session_opts(opts);
    let started = Instant::now();
    let mut applied = 0usize;
    let mut deltas = 0usize;
    let mut pinned: Vec<Arc<Relation>> = Vec::new();
    let mut current = mirror.snapshot();
    for (bi, chunk) in dirty.chunks(batch).enumerate() {
        pinned.push(current.clone());
        // push_batch hands the oracle the *global* stream index itself
        session.push_batch(chunk, &oracle);
        if (bi + 1) % every == 0 && applied + size <= reserve {
            let delta = build_delta(
                &full, &mirror, base.dm, applied, size, updates, cols, deltas,
            );
            session.apply_master_delta(&delta).expect("delta applies");
            mirror.apply(&delta);
            current = mirror.snapshot();
            applied += size;
            deltas += 1;
        }
    }
    let wall = started.elapsed();
    let report = session.finish();

    // the rebuilt baseline: a fresh engine per batch, over exactly the
    // master state that batch pinned, bit-exact down to `plan_probes`
    let mut matches = true;
    let mut last_generation = 0u64;
    for (bi, (offset, got)) in report.batches_with_offsets().enumerate() {
        matches &= got.generation >= last_generation;
        last_generation = got.generation;
        let fresh = engine_for(w, pinned[bi].clone());
        let chunk = &dirty[offset..(offset + got.outcomes.len())];
        let want = fresh.repair_opts(chunk, &opts, |i| oracle(offset + i));
        matches &= want.outcomes.len() == got.outcomes.len()
            && want.stats.plan_probes == got.stats.plan_probes
            && want
                .outcomes
                .iter()
                .zip(&got.outcomes)
                .all(|(a, b)| a.tuple == b.tuple && a.certain == b.certain);
    }
    matches &= report.stats.plan_rebuilds == deltas as u64;

    let wall_ms = wall.as_secs_f64() * 1e3;
    Row {
        dataset: which.name(),
        threads,
        delta_every: every,
        delta_size: size,
        batches: dirty.len().div_ceil(batch.max(1)),
        deltas: deltas as u64,
        generation: last_generation,
        tuples: report.stats.tuples,
        certain: report.stats.certain,
        plan_probes: report.stats.plan_probes,
        probe_allocs: report.stats.probe_allocs,
        wall_ms,
        throughput_tps: if wall_ms > 0.0 {
            report.stats.tuples as f64 / (wall_ms / 1e3)
        } else {
            0.0
        },
        matches,
    }
}

fn render_json(
    base: &ExpConfig,
    size: usize,
    updates: usize,
    delta_cols: DeltaCols,
    rows: &[Row],
) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"experiment\": \"exp_delta\",");
    let _ = writeln!(out, "  \"dm\": {},", base.dm);
    let _ = writeln!(out, "  \"inputs\": {},", base.inputs);
    let _ = writeln!(out, "  \"d\": {},", base.d);
    let _ = writeln!(out, "  \"n\": {},", base.n);
    let _ = writeln!(out, "  \"skew\": {},", base.skew);
    let _ = writeln!(out, "  \"threads\": {},", base.threads.max(1));
    let _ = writeln!(out, "  \"batch\": {},", base.batch);
    let _ = writeln!(out, "  \"delta_size\": {size},");
    let _ = writeln!(out, "  \"delta_updates\": {updates},");
    let _ = writeln!(out, "  \"delta_cols\": \"{}\",", delta_cols.name());
    let _ = writeln!(out, "  \"rows\": [");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"dataset\": \"{}\", \"threads\": {}, \"delta_every\": {}, \
             \"delta_size\": {}, \"batches\": {}, \"deltas\": {}, \"generation\": {}, \
             \"tuples\": {}, \"certain\": {}, \"plan_probes\": {}, \"probe_allocs\": {}, \
             \"wall_ms\": {:.3}, \"throughput_tps\": {:.1}, \"match\": {}}}",
            json_escape(r.dataset),
            r.threads,
            r.delta_every,
            r.delta_size,
            r.batches,
            r.deltas,
            r.generation,
            r.tuples,
            r.certain,
            r.plan_probes,
            r.probe_allocs,
            r.wall_ms,
            r.throughput_tps,
            r.matches,
        );
        out.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let spec = Spec::exp("exp_delta").valued(&[
        "delta-every",
        "delta-size",
        "delta-updates",
        "delta-cols",
    ]);
    let args = Args::from_env_strict(&spec);
    let mut base = ExpConfig::from_args(&args);
    // plain CertainFix, both caches off: the bit-exact D10 configuration
    base.use_bdd = false;
    base.shared_cache = false;
    if !args.has("threads") {
        base.threads = BatchRepairEngine::auto_threads();
    }
    if base.batch == 0 {
        base.batch = 256.min(base.inputs).max(1);
    }
    let size = args.usize_or("delta-size", 16);
    let updates = args.usize_or("delta-updates", 0);
    assert!(
        size > 0 || updates > 0,
        "--delta-size 0 needs --delta-updates > 0 (an empty delta mutates nothing)"
    );
    let delta_cols = match args.str_or("delta-cols", "mixed") {
        "mixed" => DeltaCols::Mixed,
        "fixes" => DeltaCols::Fixes,
        "keys" => DeltaCols::Keys,
        other => panic!("--delta-cols must be `mixed`, `fixes`, or `keys`, got `{other}`"),
    };
    let cadences: Vec<usize> = match args.usize_or("delta-every", 0) {
        0 => vec![1, 4],
        k => vec![k],
    };
    // enough held-back master rows for the densest cadence, so every
    // cadence runs over the identical generated workload and dataset
    let max_batches = base.inputs.div_ceil(base.batch);
    let reserve = max_batches * size;

    let mut rows: Vec<Row> = Vec::new();
    for which in Which::BOTH {
        let w = which.build(base.dm + reserve);
        let dataset = Dataset::generate(w.as_ref(), &base.dirty_config());
        let cols = if updates > 0 {
            delta_cols.pool(w.as_ref())
        } else {
            vec![AttrId(0)] // unused
        };
        for &every in &cadences {
            for &threads in &thread_points(base.threads.max(1)) {
                rows.push(run_point(
                    which,
                    w.as_ref(),
                    &dataset,
                    &base,
                    threads,
                    every,
                    size,
                    updates,
                    &cols,
                    base.batch,
                ));
            }
        }
    }

    let mut table = Table::new([
        "dataset", "threads", "every", "deltas", "gen", "tuples", "certain", "probes", "wall ms",
        "match",
    ]);
    for r in &rows {
        table.row([
            r.dataset.to_string(),
            r.threads.to_string(),
            r.delta_every.to_string(),
            r.deltas.to_string(),
            r.generation.to_string(),
            r.tuples.to_string(),
            r.certain.to_string(),
            r.plan_probes.to_string(),
            format!("{:.1}", r.wall_ms),
            r.matches.to_string(),
        ]);
    }
    eprintln!(
        "exp_delta: |Dm| = {} (+{} held back), |D| = {}, batch = {}, delta size = {}, \
         delta updates = {} ({}), d% = {:.0}, n% = {:.0}, skew = {}",
        base.dm,
        reserve,
        base.inputs,
        base.batch,
        size,
        updates,
        delta_cols.name(),
        base.d * 100.0,
        base.n * 100.0,
        base.skew
    );
    eprint!("{}", table.render());
    table
        .maybe_write_csv(args.str_or("out", ""))
        .expect("writing CSV output");

    // machine-readable output on stdout — what CI archives
    print!("{}", render_json(&base, size, updates, delta_cols, &rows));

    if rows.iter().any(|r| !r.matches) {
        eprintln!("exp_delta: DELTA-MAINTAINED RUN DIVERGED FROM THE REBUILT BASELINE");
        std::process::exit(1);
    }
}
