//! Quickstart: the running example of the paper (Fig. 1).
//!
//! A supplier tuple `t1` arrives with an inconsistent area-code/city
//! pair and a non-standard first name. Editing rules + one master
//! relation + a single user assertion ("zip, phn, type and item are
//! correct") produce a *certain* fix: every attribute is guaranteed
//! correct, either by the user or by master data.
//!
//! Run with: `cargo run --example quickstart`

use std::sync::Arc;

use certain_fix::core::{
    CertainFixConfig, InitialRegion, RepairContext, RepairOptions, SimulatedUser,
};
use certain_fix::prelude::*;
use certain_fix::rules::parse_rules;

fn main() {
    // ── Schemas ────────────────────────────────────────────────────
    // R: supplier input tuples; Rm: the master relation of Fig. 1b.
    let r = Schema::new(
        "R",
        [
            "fn", "ln", "AC", "phn", "type", "str", "city", "zip", "item",
        ],
    )
    .expect("valid schema");
    let rm = Schema::new(
        "Rm",
        [
            "FN", "LN", "AC", "Hphn", "Mphn", "str", "city", "zip", "DOB", "gender",
        ],
    )
    .expect("valid schema");

    // ── Editing rules (Example 3 / Example 11, ϕ1–ϕ9) ─────────────
    let rules = parse_rules(
        r#"
        # eR1: if the zip is correct, take AC/str/city from the master
        phi1: match zip ~ zip set AC := AC, str := str, city := city
        # eR2: a correct mobile number standardizes the name
        phi2: match phn ~ Mphn set fn := FN, ln := LN when type = 2
        # eR3: a correct home number fixes the address block
        phi3: match AC ~ AC, phn ~ Hphn set str := str, city := city, zip := zip when type = 1, AC != '0800'
        # eR4: toll-free numbers still determine the city
        phi4: match AC ~ AC set city := city when AC = '0800'
        "#,
        &r,
        &rm,
    )
    .expect("rules parse");
    println!("Σ0 ({} editing rules):\n{}\n", rules.len(), rules.render());

    // ── Master data Dm (Fig. 1b) ───────────────────────────────────
    let master = Arc::new(
        Relation::new(
            rm.clone(),
            vec![
                certain_fix::relation::tuple![
                    "Robert",
                    "Brady",
                    "131",
                    "6884563",
                    "079172485",
                    "51 Elm Row",
                    "Edi",
                    "EH7 4AH",
                    "11/11/55",
                    "M"
                ],
                certain_fix::relation::tuple![
                    "Mark",
                    "Smith",
                    "020",
                    "6884563",
                    "075568485",
                    "20 Baker St.",
                    "Lnd",
                    "NW1 6XE",
                    "25/12/67",
                    "M"
                ],
            ],
        )
        .expect("valid master"),
    );
    println!("Master relation Dm:\n{}", master.render_table());

    // ── The dirty input t1 (Fig. 1a) ───────────────────────────────
    // AC = 020 contradicts zip EH7 4AH; "Bob" is non-standard; the
    // street is stale.
    let t1 = certain_fix::relation::tuple![
        "Bob",
        "Brady",
        "020",
        "079172485",
        2,
        "501 Elm St.",
        "Edi",
        "EH7 4AH",
        "CD"
    ];
    // Ground truth (what a careful clerk would have entered):
    let truth = certain_fix::relation::tuple![
        "Robert",
        "Brady",
        "131",
        "079172485",
        2,
        "51 Elm Row",
        "Edi",
        "EH7 4AH",
        "CD"
    ];
    println!("Input  t1: {}", t1.render_named(&r));

    // ── Monitor: precompute regions, then fix at the point of entry ─
    let ctx = RepairContext::with_config(
        rules,
        master,
        true, // CertainFix+: BDD-cached suggestions
        InitialRegion::Best,
        CertainFixConfig::default(),
    );
    println!(
        "Recommended certain region Z = {}",
        r.render_attrs(ctx.epoch().initial_suggestion())
    );

    // The "user" here is simulated with the ground truth, exactly like
    // the paper's experiments; swap in your own `UserOracle` for a real
    // data-entry UI. One worker: the paper's sequential monitor.
    let report = ctx.repair_opts(std::slice::from_ref(&t1), &RepairOptions::default(), |_| {
        SimulatedUser::new(truth.clone())
    });
    let outcome = &report.outcomes[0];

    println!("\nAfter {} round(s) of interaction:", outcome.rounds.len());
    for (i, round) in outcome.rounds.iter().enumerate() {
        println!(
            "  round {}: suggested {}, rules fixed {}",
            i + 1,
            r.render_attrs(&round.suggested),
            round.rule_fixed.render(&r),
        );
    }
    println!("\nFixed  t1: {}", outcome.tuple.render_named(&r));
    println!(
        "certain fix: {} (attributes fixed by rules: {})",
        outcome.certain,
        outcome.rule_fixed.render(&r)
    );
    assert!(outcome.certain, "t1 must receive a certain fix");
    assert_eq!(outcome.tuple, truth, "the certain fix IS the truth");
    println!("\nOK: the certain fix equals the ground truth.");
}
