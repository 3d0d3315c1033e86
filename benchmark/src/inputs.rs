//! A workload's inputs, made once per run (untimed) from the seed:
//! the engine's starting master, the master deltas a repetition
//! applies to it, and the pool of dirty/clean input slices.

use std::sync::Arc;
use std::time::Instant;

use certainfix_datagen::{Dataset, Dblp, DirtyConfig, Hosp, Workload as GenWorkload};
use certainfix_relation::{AttrId, MasterDelta, Relation, Tuple, Value};
use certainfix_rules::RuleSet;

use crate::spec::{Data, Workload};

/// Rows each delta appends, and rows it overwrites one column of.
pub const DELTA_INSERTS: usize = 4;
pub const DELTA_UPDATES: usize = 4;

pub struct Slice {
    pub dirty: Vec<Tuple>,
    pub clean: Vec<Tuple>,
}

pub struct Inputs {
    pub rules: RuleSet,
    /// What a fresh engine starts on: the first `dm` generated master
    /// rows, with the cells the deltas will fill in still missing.
    pub master: Arc<Relation>,
    /// The repetition's deltas, in order; see [`Inputs::generate`].
    deltas: Vec<MasterDelta>,
    pub pool: Vec<Slice>,
    gen: Box<dyn GenWorkload>,
    seed: u64,
    /// Seconds `Dataset::generate` took, and tuples it made.
    pub gen_secs: f64,
    pub gen_tuples: usize,
}

impl Inputs {
    /// The master lives the way reference data does: it gets more
    /// complete. Delta `k` appends the next [`DELTA_INSERTS`] held-back
    /// rows and fills in one missing cell in each of
    /// [`DELTA_UPDATES`] existing rows, the cell's column cycling over
    /// the whole schema (`exp_delta`'s "mixed" shape: key and fix
    /// columns alike, so index hit lists move and pooled suggestions
    /// are tainted). The deltas depend on the workload only — every
    /// repetition applies the same ones to a fresh engine.
    ///
    /// A delta never contradicts the generator's ground truth: a
    /// missing master cell fixes nothing and matches nothing, so "a
    /// certain fix equals the clean tuple" stays checkable while the
    /// master changes under the stream. (Overwriting a cell with
    /// another row's value does not: on DBLP it makes one author's
    /// home page disagree between two master rows, and a rule copies
    /// the wrong one into a certain fix.)
    ///
    /// The pool holds `slices` slices of one repetition's tuples each.
    pub fn generate(w: &Workload, seed: u64, slices: usize) -> Inputs {
        let n_deltas = w.deltas_per_rep();
        let gen: Box<dyn GenWorkload> = match w.data {
            Data::Hosp => Box::new(Hosp::generate(w.dm + n_deltas * DELTA_INSERTS)),
            Data::Dblp => Box::new(Dblp::generate(w.dm + n_deltas * DELTA_INSERTS)),
        };
        let full = gen.master();
        let arity = full.schema().len();
        let mut rows: Vec<Tuple> = full.tuples()[..w.dm].to_vec();
        let held_back = &full.tuples()[w.dm..];

        // cell i: a row of its own (evenly spread), column i mod arity
        let cells = n_deltas * DELTA_UPDATES;
        let stride = w.dm / (cells + 1);
        assert!(stride > 0, "{}: master too small for its deltas", w.name);
        let deltas: Vec<MasterDelta> = (0..n_deltas)
            .map(|k| {
                let mut delta = MasterDelta::new();
                for i in k * DELTA_UPDATES..(k + 1) * DELTA_UPDATES {
                    let row = (i + 1) * stride;
                    delta = delta.update(row as u32, rows[row].clone());
                    rows[row].set(AttrId((i % arity) as u16), Value::Null);
                }
                for t in &held_back[k * DELTA_INSERTS..(k + 1) * DELTA_INSERTS] {
                    delta = delta.insert(t.clone());
                }
                delta
            })
            .collect();
        let master = Arc::new(
            Relation::new(full.schema().clone(), rows).expect("master rows keep their arity"),
        );
        let mut inputs = Inputs {
            rules: gen.rules().clone(),
            master,
            deltas,
            pool: Vec::new(),
            gen,
            seed,
            gen_secs: 0.0,
            gen_tuples: 0,
        };
        inputs.pool = (0..slices)
            .map(|s| inputs.slice(w, s, w.slice_tuples()))
            .collect();
        inputs
    }

    /// Slice number `s` of the run, `tuples` long, from a seed of its
    /// own derived from the run's.
    pub fn slice(&mut self, w: &Workload, s: usize, tuples: usize) -> Slice {
        let cfg = DirtyConfig {
            duplicate_rate: w.d,
            noise_rate: w.n,
            input_size: tuples,
            seed: self.seed ^ (s as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            ..DirtyConfig::default()
        };
        let started = Instant::now();
        let ds = Dataset::generate(self.gen.as_ref(), &cfg);
        self.gen_secs += started.elapsed().as_secs_f64();
        self.gen_tuples += tuples;
        let (dirty, clean) = ds.inputs.into_iter().map(|t| (t.dirty, t.clean)).unzip();
        Slice { dirty, clean }
    }

    /// The `k`-th delta of a repetition.
    pub fn delta(&self, k: usize) -> &MasterDelta {
        &self.deltas[k]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::workload;

    fn small() -> Workload {
        Workload {
            dm: 400,
            frame: 16,
            ..*workload("dblp_net_delta").unwrap()
        }
    }

    #[test]
    fn the_same_seed_gives_the_same_inputs_and_deltas() {
        let w = small();
        let (mut a, mut b, c) = (
            Inputs::generate(&w, 7, 2),
            Inputs::generate(&w, 7, 2),
            Inputs::generate(&w, 8, 2),
        );
        assert_eq!(a.pool.len(), 2);
        for (x, y) in a.pool.iter().zip(&b.pool) {
            assert_eq!(x.dirty.len(), w.slice_tuples());
            assert_eq!(x.dirty, y.dirty);
            assert_eq!(x.clean, y.clean);
        }
        assert_ne!(
            a.pool[0].dirty, c.pool[0].dirty,
            "another seed, other inputs"
        );
        assert_ne!(a.pool[0].dirty, a.pool[1].dirty, "slices differ");
        // a slice made later (the census) is as repeatable as the pool
        let (late_a, late_b) = (a.slice(&w, 2, 64), b.slice(&w, 2, 64));
        assert_eq!(late_a.dirty.len(), 64);
        assert_eq!(late_a.dirty, late_b.dirty);
        assert_ne!(late_a.dirty[..], a.pool[0].dirty[..64]);
        assert_eq!(a.master.tuples(), b.master.tuples());
        assert_eq!(a.deltas, b.deltas);
        assert_eq!(
            a.deltas, c.deltas,
            "deltas depend on the workload, not the seed"
        );
    }

    #[test]
    fn deltas_complete_the_master_and_never_contradict_it() {
        let w = small();
        let inputs = Inputs::generate(&w, 3, 1);
        let truth = Dblp::generate(w.dm + w.deltas_per_rep() * DELTA_INSERTS);
        let truth = truth.master().tuples();
        assert_eq!(inputs.deltas.len(), w.deltas_per_rep());

        let mut rows = inputs.master.tuples().to_vec();
        let missing = |rows: &[Tuple]| rows.iter().filter(|t| !t.is_complete()).count();
        assert_eq!(missing(&rows), w.deltas_per_rep() * DELTA_UPDATES);
        let mut columns = Vec::new();
        for delta in &inputs.deltas {
            assert_eq!(delta.inserts().len(), DELTA_INSERTS);
            assert_eq!(delta.updates().len(), DELTA_UPDATES);
            assert!(!delta.has_deletes());
            for (row, t) in delta.updates() {
                let old = &rows[*row as usize];
                let changed = old.diff(t);
                assert_eq!(changed.len(), 1, "one column changes");
                assert!(old.get(changed[0]).is_null(), "and it was missing before");
                columns.push(changed[0]);
                rows[*row as usize] = t.clone();
            }
            rows.extend_from_slice(delta.inserts());
        }
        assert_eq!(
            rows, truth,
            "after its deltas the master is the whole truth"
        );
        columns.sort();
        columns.dedup();
        assert_eq!(
            columns.len(),
            inputs.master.schema().len(),
            "every column takes a turn"
        );
    }
}
