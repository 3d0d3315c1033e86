//! The paper's running example (Fig. 1 and Examples 1–14), executed end
//! to end through the `certain_fix` facade. Each test corresponds to a
//! numbered example of the paper; together they walk its whole
//! narrative on the exact data of Fig. 1.

use std::sync::Arc;

use certain_fix::cfd::{repair_tuple, Cfd, IncRepConfig};
use certain_fix::core::{evaluate_changes, SimulatedUser};
use certain_fix::prelude::*;
use certain_fix::reasoning::{applicable_rules, check_coverage, suggest};
use certain_fix::relation::tuple;

fn supplier_schema() -> Arc<Schema> {
    Schema::new(
        "R",
        [
            "fn", "ln", "AC", "phn", "type", "str", "city", "zip", "item",
        ],
    )
    .unwrap()
}

fn master_schema() -> Arc<Schema> {
    Schema::new(
        "Rm",
        [
            "FN", "LN", "AC", "Hphn", "Mphn", "str", "city", "zip", "DOB", "gender",
        ],
    )
    .unwrap()
}

/// Σ0 of Example 11 (ϕ1–ϕ9 as three DSL families + ϕ9).
fn sigma0(r: &Arc<Schema>, rm: &Arc<Schema>) -> RuleSet {
    certain_fix::rules::parse_rules(
        r#"
        phi1: match zip ~ zip set AC := AC, str := str, city := city
        phi2: match phn ~ Mphn set fn := FN, ln := LN when type = 2
        phi3: match AC ~ AC, phn ~ Hphn set str := str, city := city, zip := zip when type = 1, AC != '0800'
        phi4: match AC ~ AC set city := city when AC = '0800'
        "#,
        r,
        rm,
    )
    .unwrap()
}

/// Dm of Fig. 1b (s1, s2).
fn master(rm: &Arc<Schema>) -> Arc<Relation> {
    Arc::new(
        Relation::new(
            rm.clone(),
            vec![
                tuple![
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
                tuple![
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
        .unwrap(),
    )
}

/// t1 of Fig. 1a and its ground truth.
fn t1() -> (Tuple, Tuple) {
    (
        tuple![
            "Bob",
            "Brady",
            "020",
            "079172485",
            2,
            "501 Elm St.",
            "Edi",
            "EH7 4AH",
            "CD"
        ],
        tuple![
            "Robert",
            "Brady",
            "131",
            "079172485",
            2,
            "51 Elm Row",
            "Edi",
            "EH7 4AH",
            "CD"
        ],
    )
}

#[test]
fn example1_cfds_detect_but_heuristics_may_corrupt() {
    // The CFD "AC = 020 → city = Ldn" flags t1 as inconsistent but a
    // cost-based repair may change the CORRECT city instead of AC.
    let r = supplier_schema();
    let (dirty, truth) = t1();
    let cfd = Cfd::new(
        "uk",
        vec![r.attr("AC").unwrap()],
        vec![Some(Value::str("020"))],
        r.attr("city").unwrap(),
        Some(Value::str("Ldn")),
    );
    assert!(cfd.violates_single(&dirty), "the CFD detects the error");
    // repair it with IncRep against a reference holding only s1's row
    // mapped to R (the "rest of the database")
    let reference = MasterIndex::new(Arc::new(
        Relation::new(r.clone(), vec![truth.clone()]).unwrap(),
    ));
    let repair = repair_tuple(&[cfd], &dirty, &reference, &IncRepConfig::default());
    let counts = evaluate_changes([(&dirty, &repair.tuple, &truth)]);
    // whatever it chose, it did NOT reach the certain fix
    assert_ne!(repair.tuple, truth);
    assert!(counts.precision() < 1.0 || counts.recall() < 1.0);
}

#[test]
fn examples_2_to_4_rules_fix_t1_from_s1() {
    let (r, rm) = (supplier_schema(), master_schema());
    let rules = sigma0(&r, &rm);
    let dm = MasterIndex::new(master(&rm));
    let (dirty, _) = t1();
    // ϕ1 (zip key) applies with s1 and corrects AC
    let phi1 = rules.by_name("phi1.AC").unwrap();
    let fixed = certain_fix::rules::apply(phi1, &dirty, dm.tuple(0)).expect("applies");
    assert_eq!(fixed.get(r.attr("AC").unwrap()), &Value::str("131"));
    // ϕ2 (mobile) standardizes Bob → Robert
    let phi2 = rules.by_name("phi2.fn").unwrap();
    let fixed = certain_fix::rules::apply(phi2, &dirty, dm.tuple(0)).expect("applies");
    assert_eq!(fixed.get(r.attr("fn").unwrap()), &Value::str("Robert"));
}

#[test]
fn example9_certain_region_and_full_fix() {
    // (Z_zmi, T_zmi) is a certain region; processing t1 against it
    // yields the complete certain fix.
    let (r, rm) = (supplier_schema(), master_schema());
    let rules = sigma0(&r, &rm);
    let dm = MasterIndex::new(master(&rm));
    let z: Vec<AttrId> = ["zip", "phn", "type", "item"]
        .iter()
        .map(|n| r.attr(n).unwrap())
        .collect();
    let rows: Vec<PatternTuple> = master(&rm)
        .iter()
        .map(|s| {
            PatternTuple::new(vec![
                (
                    r.attr("zip").unwrap(),
                    PatternValue::Const(*s.get(rm.attr("zip").unwrap())),
                ),
                (
                    r.attr("phn").unwrap(),
                    PatternValue::Const(*s.get(rm.attr("Mphn").unwrap())),
                ),
                (r.attr("type").unwrap(), PatternValue::Const(Value::int(2))),
            ])
        })
        .collect();
    let region = Region::new(z, Tableau::new(rows)).unwrap();
    let report = check_coverage(&rules, &dm, &region, 100_000).unwrap();
    assert!(report.certain, "Example 9's region is certain");
}

#[test]
fn examples_12_to_14_interactive_fix_via_zip_only() {
    // Start from Z = {zip} (Example 12's TransFix run), then Example
    // 13's suggestion {phn, type, item}, then completion.
    let (r, rm) = (supplier_schema(), master_schema());
    let rules = sigma0(&r, &rm);
    let dm = MasterIndex::new(master(&rm));
    let (dirty, truth) = t1();

    // Example 12: TransFix from {zip} fixes AC, str, city
    let graph = DependencyGraph::new(&rules);
    let out = certain_fix::core::transfix(
        &rules,
        &dm,
        &graph,
        &dirty,
        AttrSet::singleton(r.attr("zip").unwrap()),
    );
    assert_eq!(out.fixed.len(), 3);

    // Example 14: the applicable rules include the refined ϕ3 family
    let refined = applicable_rules(&rules, &dm, &out.tuple, out.validated);
    assert!(refined.iter().any(|rule| rule.name() == "phi3.zip"));

    // Example 13: the suggestion is {phn, type, item}
    let sug = suggest(&rules, &dm, &out.tuple, out.validated).unwrap();
    let names: Vec<&str> = sug.attrs.iter().map(|&a| r.attr_name(a)).collect();
    assert_eq!(names, vec!["phn", "type", "item"]);

    // Completion: the full monitor (CertainFix+, one worker) reaches
    // the certain fix.
    let ctx = RepairContext::new(rules, master(&rm), true);
    let opts = RepairOptions::default();
    let report = ctx.repair_opts(std::slice::from_ref(&dirty), &opts, |_| {
        SimulatedUser::new(truth.clone())
    });
    let outcome = &report.outcomes[0];
    assert!(outcome.certain);
    assert_eq!(outcome.tuple, truth);
}
