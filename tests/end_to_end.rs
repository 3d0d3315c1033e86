//! End-to-end integration tests: the full monitoring pipeline on both
//! synthetic workloads, asserting the experiment *shapes* of Sect. 6 at
//! small scale (the bench binaries reproduce them at full scale).

use certain_fix::cfd::{repair_tuple, rules_to_cfds, IncRepConfig};
use certain_fix::core::{
    evaluate_changes, evaluate_rounds, BatchRepairEngine, RepairContext, RepairOptions,
    RepairSession, SimulatedUser, TupleEval,
};
use certain_fix::datagen::{Dataset, Dblp, DirtyConfig, Hosp, Workload};
use certain_fix::reasoning::{comp_cregion_in_mode, gregion_in_mode};
use certain_fix::relation::Value;

/// The paper's sequential monitor: one worker, one chunk over the
/// whole stream (so one BDD when `use_bdd`).
fn monitor_opts(tuples: usize) -> RepairOptions {
    RepairOptions {
        chunk: tuples,
        ..RepairOptions::default()
    }
}

fn run_pipeline<W: Workload>(
    w: &W,
    cfg: &DirtyConfig,
    use_bdd: bool,
) -> (Vec<certain_fix::core::FixOutcome>, Dataset) {
    let ctx = RepairContext::new(w.rules().clone(), w.master().clone(), use_bdd);
    let ds = Dataset::generate(w, cfg);
    let dirty: Vec<_> = ds.inputs.iter().map(|dt| dt.dirty.clone()).collect();
    let report = ctx.repair_opts(&dirty, &monitor_opts(dirty.len()), |i| {
        SimulatedUser::new(ds.inputs[i].clean.clone())
    });
    (report.outcomes, ds)
}

#[test]
fn exp1_region_sizes_compc_beats_greedy() {
    // Exp-1(1) shape: CompCRegion's Z is strictly smaller than
    // GRegion's on both workloads (paper: 2 vs 4 and 5 vs 9).
    let hosp = Hosp::generate(50);
    let comp = comp_cregion_in_mode(hosp.rules(), &Vec::new());
    let greedy = gregion_in_mode(hosp.rules(), &Vec::new());
    assert_eq!(comp.len(), 2, "HOSP CompCRegion |Z| = 2 as in the paper");
    assert_eq!(greedy.len(), 4, "HOSP GRegion |Z| = 4 as in the paper");

    let dblp = Dblp::generate(50);
    let mode = vec![(
        dblp.schema().attr("type").unwrap(),
        Value::str("inproceedings"),
    )];
    let comp = comp_cregion_in_mode(dblp.rules(), &mode);
    let greedy = gregion_in_mode(dblp.rules(), &mode);
    assert_eq!(comp.len(), 5, "DBLP CompCRegion |Z| = 5 as in the paper");
    assert!(comp.len() < greedy.len(), "CompCRegion strictly smaller");
}

#[test]
fn fig9_shape_recall_saturates_within_few_rounds() {
    let hosp = Hosp::generate(400);
    let cfg = DirtyConfig {
        duplicate_rate: 0.3,
        noise_rate: 0.2,
        input_size: 150,
        seed: 9,
        ..Default::default()
    };
    let (outcomes, ds) = run_pipeline(&hosp, &cfg, true);
    let evals: Vec<TupleEval> = outcomes
        .iter()
        .zip(&ds.inputs)
        .map(|(o, dt)| TupleEval {
            outcome: o,
            dirty: &dt.dirty,
            clean: &dt.clean,
        })
        .collect();
    let metrics = evaluate_rounds(&evals, 4);
    // recall is non-decreasing and saturates
    for w in metrics.windows(2) {
        assert!(w[1].recall_t >= w[0].recall_t);
    }
    // master-backed tuples are all fixed within the observed rounds
    let max_rounds = outcomes.iter().map(|o| o.rounds.len()).max().unwrap();
    assert!(max_rounds <= 4, "few rounds of interaction: {max_rounds}");
    // precision is 1.0 at every round
    for m in &metrics {
        assert_eq!(m.precision_a, 1.0);
    }
}

#[test]
fn fig10_shape_recall_tracks_duplicate_rate_not_noise() {
    let dblp = Dblp::generate(400);
    let mut at_d: Vec<f64> = Vec::new();
    for d in [0.1, 0.3, 0.5] {
        let cfg = DirtyConfig {
            duplicate_rate: d,
            noise_rate: 0.2,
            input_size: 200,
            seed: 10,
            ..Default::default()
        };
        let (outcomes, ds) = run_pipeline(&dblp, &cfg, true);
        let evals: Vec<TupleEval> = outcomes
            .iter()
            .zip(&ds.inputs)
            .map(|(o, dt)| TupleEval {
                outcome: o,
                dirty: &dt.dirty,
                clean: &dt.clean,
            })
            .collect();
        at_d.push(evaluate_rounds(&evals, 1)[0].recall_t);
    }
    assert!(
        at_d[0] < at_d[1] && at_d[1] < at_d[2],
        "recall grows with d%: {at_d:?}"
    );
    // recall_t(1) ≈ d%
    assert!((at_d[1] - 0.3).abs() < 0.1, "recall_t(1) ≈ d%: {}", at_d[1]);

    // noise insensitivity
    let mut at_n: Vec<f64> = Vec::new();
    for n in [0.1, 0.4] {
        let cfg = DirtyConfig {
            duplicate_rate: 0.3,
            noise_rate: n,
            input_size: 200,
            seed: 11,
            ..Default::default()
        };
        let (outcomes, ds) = run_pipeline(&dblp, &cfg, true);
        let evals: Vec<TupleEval> = outcomes
            .iter()
            .zip(&ds.inputs)
            .map(|(o, dt)| TupleEval {
                outcome: o,
                dirty: &dt.dirty,
                clean: &dt.clean,
            })
            .collect();
        at_n.push(evaluate_rounds(&evals, 1)[0].recall_t);
    }
    assert!(
        (at_n[0] - at_n[1]).abs() < 0.15,
        "recall_t insensitive to n%: {at_n:?}"
    );
}

#[test]
fn fig11_shape_increp_degrades_with_noise_ours_does_not() {
    let hosp = Hosp::generate(400);
    // the IncRep baseline runs on the rules as CFDs, one oracle-free
    // cost-based repair per tuple
    let (cfds, skipped) = rules_to_cfds(hosp.rules());
    assert_eq!(skipped, 0, "HOSP rules align by name");
    assert_eq!(cfds.len(), 21);
    let mut ours = Vec::new();
    let mut theirs = Vec::new();
    for n in [0.1, 0.5] {
        let cfg = DirtyConfig {
            duplicate_rate: 0.3,
            noise_rate: n,
            input_size: 150,
            seed: 12,
            ..Default::default()
        };
        let (outcomes, ds) = run_pipeline(&hosp, &cfg, true);
        let evals: Vec<TupleEval> = outcomes
            .iter()
            .zip(&ds.inputs)
            .map(|(o, dt)| TupleEval {
                outcome: o,
                dirty: &dt.dirty,
                clean: &dt.clean,
            })
            .collect();
        ours.push(evaluate_rounds(&evals, 1)[0].f_measure);

        let inc_cfg = IncRepConfig::default();
        let repaired: Vec<_> = ds
            .inputs
            .iter()
            .map(|dt| repair_tuple(&cfds, &dt.dirty, hosp.master_index(), &inc_cfg).tuple)
            .collect();
        let counts = evaluate_changes(
            ds.inputs
                .iter()
                .zip(&repaired)
                .map(|(dt, t)| (&dt.dirty, t, &dt.clean)),
        );
        assert!(counts.changed > 0, "IncRep repairs something");
        assert!(counts.recall() > 0.0);
        theirs.push(counts.f_measure());
    }
    // IncRep degrades with noise; we stay comparable
    assert!(
        theirs[1] < theirs[0],
        "IncRep F-measure must degrade with noise: {theirs:?}"
    );
    assert!(
        (ours[0] - ours[1]).abs() < 0.15,
        "our F-measure is noise-insensitive: {ours:?}"
    );
    // and at high noise we are clearly ahead
    assert!(ours[1] > theirs[1]);
}

#[test]
fn certain_fixes_never_touch_an_attribute_wrongly() {
    // The titular guarantee, end to end, on both workloads.
    for (outcomes, ds) in [
        run_pipeline(
            &Hosp::generate(300),
            &DirtyConfig {
                duplicate_rate: 0.5,
                noise_rate: 0.3,
                input_size: 120,
                seed: 13,
                ..Default::default()
            },
            true,
        ),
        run_pipeline(
            &Dblp::generate(300),
            &DirtyConfig {
                duplicate_rate: 0.5,
                noise_rate: 0.3,
                input_size: 120,
                seed: 14,
                ..Default::default()
            },
            false,
        ),
    ] {
        for (o, dt) in outcomes.iter().zip(&ds.inputs) {
            for a in o.rule_fixed.iter() {
                assert_eq!(
                    o.tuple.get(a),
                    dt.clean.get(a),
                    "a rule-fixed attribute differs from ground truth"
                );
            }
            if o.certain {
                assert_eq!(&o.tuple, &dt.clean, "certain fixes equal the truth");
            }
        }
    }
}

#[test]
fn bdd_and_plain_agree_on_a_mixed_stream() {
    let dblp = Dblp::generate(250);
    let cfg = DirtyConfig {
        duplicate_rate: 0.4,
        noise_rate: 0.25,
        input_size: 100,
        seed: 15,
        ..Default::default()
    };
    let (plain, _) = run_pipeline(&dblp, &cfg, false);
    let (cached, _) = run_pipeline(&dblp, &cfg, true);
    for (a, b) in plain.iter().zip(&cached) {
        assert_eq!(a.tuple, b.tuple);
        assert_eq!(a.certain, b.certain);
        assert_eq!(a.rule_fixed, b.rule_fixed);
    }
}

#[test]
fn session_over_generator_batches_matches_the_sequential_monitor() {
    // The facade-level session walkthrough: push the dirty-data
    // generator's decorrelated batch stream, batch by batch, through a
    // parallel RepairSession and check it agrees with the sequential
    // monitor (one worker, one whole-stream chunk) fed the identical
    // stream — plain CertainFix, caches off, so agreement is bit-exact
    // by the session's determinism contract.
    let hosp = Hosp::generate(200);
    let cfg = DirtyConfig {
        duplicate_rate: 0.4,
        noise_rate: 0.2,
        input_size: 120,
        seed: 77,
        ..Default::default()
    };
    let batches: Vec<Dataset> = Dataset::batches(&hosp, &cfg, 50).collect();
    let inputs: Vec<_> = batches.iter().flat_map(|ds| &ds.inputs).collect();

    let ctx = RepairContext::new(hosp.rules().clone(), hosp.master().clone(), false);
    let opts = RepairOptions {
        threads: 2,
        ..RepairOptions::default()
    };
    let mut session = RepairSession::from_engine(BatchRepairEngine::new(ctx), opts);
    for ds in &batches {
        let dirty: Vec<_> = ds.inputs.iter().map(|dt| dt.dirty.clone()).collect();
        session.push_batch(&dirty, |i| SimulatedUser::new(inputs[i].clean.clone()));
    }
    let report = session.finish();
    assert_eq!(report.tuples, 120);
    assert_eq!(report.batches.len(), 3, "120 tuples in batches of 50");

    let ctx = RepairContext::new(hosp.rules().clone(), hosp.master().clone(), false);
    let dirty: Vec<_> = inputs.iter().map(|dt| dt.dirty.clone()).collect();
    let monitor = ctx.repair_opts(&dirty, &monitor_opts(dirty.len()), |i| {
        SimulatedUser::new(inputs[i].clean.clone())
    });
    for (i, (out, seq)) in report.outcomes().zip(&monitor.outcomes).enumerate() {
        assert_eq!(out.tuple, seq.tuple, "tuple {i}");
        assert_eq!(out.certain, seq.certain, "tuple {i}");
        assert_eq!(out.rounds.len(), seq.rounds.len(), "tuple {i}");
    }
    assert_eq!(report.stats.tuples, monitor.stats.tuples);
    assert_eq!(report.stats.certain, monitor.stats.certain);
    assert_eq!(report.stats.rounds, monitor.stats.rounds);
}
