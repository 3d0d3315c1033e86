//! `benchmark compare A.json B.json` and `benchmark aa --runs N`:
//! medians of two sets of runs against the benchmark's own bounds.

use std::path::Path;
use std::process::Command;

use crate::json::Json;
use crate::spec::{Better, DEMOTED, END_TO_END, WORKLOADS};
use crate::stats::{iqr_share, median};
use crate::sys::stamp;

/// The runs in a result file: a single run's file is one run, a suite
/// file (`aa` writes them) lists its runs under `runs`.
fn runs_of(path: &Path) -> Result<Vec<Json>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(match doc.get("runs") {
        Some(runs) => runs.as_arr().to_vec(),
        None => vec![doc],
    })
}

/// Every untraced run's value of `metric` on `workload`.
fn values(runs: &[Json], workload: &str, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter(|r| r.get("workload").and_then(Json::as_str) == Some(workload))
        .filter(|r| r.get("trace").and_then(Json::as_f64) == Some(0.0))
        .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

/// How B's median of a bounded metric stands against A's.
#[derive(Debug, PartialEq)]
enum Verdict {
    Ok,
    /// Worse than A by more than the bound (or, in an A/A check,
    /// different by more than the bound either way).
    OutOfBound,
    /// A's median is zero or not finite: nothing can be held against it.
    BadReference,
}

fn verdict(better: Better, bound: f64, ma: f64, mb: f64, symmetric: bool) -> Verdict {
    // the share of A's median by which B's is worse
    let worse = match better {
        Better::Lower => (mb - ma) / ma,
        Better::Higher => (ma - mb) / ma,
    };
    if ma == 0.0 || !worse.is_finite() {
        Verdict::BadReference
    } else if worse > bound || (symmetric && -worse > bound) {
        Verdict::OutOfBound
    } else {
        Verdict::Ok
    }
}

/// Print the table of set medians and return how many rows are not
/// `ok`: B worse than A by more than the bound (with `symmetric`, an
/// A/A check, differing by more either way), a value on one side
/// only, a reference median nothing can be compared with, or a run
/// whose outputs were wrong. `Err` when the sets share no workload
/// and metric at all, so that an empty or traced-only file cannot
/// pass for a clean comparison.
pub fn compare_runs(a: &[Json], b: &[Json], symmetric: bool) -> Result<usize, String> {
    let quick = a
        .iter()
        .chain(b)
        .any(|r| r.get("quick") == Some(&Json::Bool(true)));
    if quick {
        println!("NOTE: --quick runs are in these sets; their numbers are not for comparison");
    }
    let mut bad = 0;
    for (set, name) in [(a, "A"), (b, "B")] {
        for r in set {
            if r.get("correct") != Some(&Json::Bool(true)) {
                bad += 1;
                println!(
                    "set {name}: the run of {} with seed {} was not correct",
                    r.get("workload").and_then(Json::as_str).unwrap_or("?"),
                    r.get("seed").and_then(Json::as_f64).unwrap_or(f64::NAN)
                );
            }
        }
    }
    println!(
        "{:<16} {:<18} {:>14} {:>14} {:>8} {:>7} {:>7} {:>6}  verdict",
        "workload", "metric", "median A", "median B", "B vs A", "iqr A", "iqr B", "bound"
    );
    let mut compared = 0;
    for w in &WORKLOADS {
        // the bounded metrics decide; the demoted ones are shown
        // beside them, because a change is argued from them too
        for m in END_TO_END.iter().chain(&DEMOTED) {
            let (va, vb) = (values(a, w.name, m.name), values(b, w.name, m.name));
            if va.is_empty() && vb.is_empty() {
                continue; // a workload neither set ran
            }
            let (ma, mb) = (median(&va), median(&vb));
            let verdict = match m.bound {
                None if va.is_empty() || vb.is_empty() => "not gated, on one side only",
                None => "not gated",
                Some(_) if va.is_empty() || vb.is_empty() => {
                    bad += 1;
                    "MISSING ON ONE SIDE"
                }
                Some(bound) => {
                    compared += 1;
                    let verdict = verdict(m.better, bound, ma, mb, symmetric);
                    bad += usize::from(verdict != Verdict::Ok);
                    match verdict {
                        Verdict::Ok => "ok",
                        Verdict::OutOfBound => "OUT OF BOUND",
                        Verdict::BadReference => "BAD REFERENCE",
                    }
                }
            };
            println!(
                "{:<16} {:<18} {:>14.4} {:>14.4} {:>+7.1}% {:>6.1}% {:>6.1}% {:>6}  {verdict}",
                w.name,
                m.name,
                ma,
                mb,
                (mb - ma) / ma * 100.0,
                iqr_share(&va) * 100.0,
                iqr_share(&vb) * 100.0,
                m.bound
                    .map_or("-".to_string(), |b| format!("{:.0}%", b * 100.0)),
            );
        }
    }
    if compared == 0 {
        return Err("the two sets share no untraced run of any workload".into());
    }
    Ok(bad)
}

pub fn compare(a: &Path, b: &Path) -> u8 {
    match (runs_of(a), runs_of(b)) {
        (Ok(a), Ok(b)) => {
            match compare_runs(&a, &b, false) {
                Ok(bad) => {
                    println!("{bad} row(s) not ok: worse than A by more than the bound, or not comparable");
                    u8::from(bad > 0)
                }
                Err(e) => {
                    eprintln!("compare: {e}");
                    2
                }
            }
        }
        (a, b) => {
            for e in [a.err(), b.err()].into_iter().flatten() {
                eprintln!("compare: {e}");
            }
            2
        }
    }
}

/// Run the whole suite twice, as two interleaved sets (A B A B …) of
/// this same binary, one process per workload run, and hold the two
/// sets' medians against the bounds.
pub fn aa(runs: usize, seconds: f64, seed: u64, quick: bool, out: &Path) -> u8 {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("aa: cannot find this executable: {e}");
            return 2;
        }
    };
    let mut sets: [Vec<Json>; 2] = [Vec::new(), Vec::new()];
    for i in 0..runs {
        for (set, name) in ["A", "B"].into_iter().enumerate() {
            for w in &WORKLOADS {
                let run_seed = seed + i as u64;
                let dir = out.join(format!("aa-{name}"));
                let mut cmd = Command::new(&exe);
                cmd.args(["--workload", w.name, "--trace", "0"])
                    .args(["--seed", &run_seed.to_string()])
                    .args(["--seconds", &seconds.to_string()])
                    .arg("--out")
                    .arg(&dir);
                if quick {
                    cmd.arg("--quick");
                }
                eprintln!("aa: set {name} run {i} {}", w.name);
                match cmd.output() {
                    Ok(o) if o.status.success() => {}
                    Ok(o) => {
                        eprintln!(
                            "aa: {} exited with {}:\n{}",
                            w.name,
                            o.status,
                            String::from_utf8_lossy(&o.stderr)
                        );
                        return 1;
                    }
                    Err(e) => {
                        eprintln!("aa: cannot start {}: {e}", w.name);
                        return 2;
                    }
                }
                let file = dir.join(format!("{}-seed{run_seed}-trace0.json", w.name));
                match runs_of(&file) {
                    Ok(mut r) => sets[set].append(&mut r),
                    Err(e) => {
                        eprintln!("aa: {e}");
                        return 2;
                    }
                }
            }
        }
    }
    for (set, name) in sets.iter().zip(["A", "B"]) {
        let doc = Json::obj([("stamp", stamp()), ("runs", Json::Arr(set.clone()))]);
        let path = out.join(format!("aa-{name}.json"));
        if let Err(e) = std::fs::write(&path, doc.render() + "\n") {
            eprintln!("aa: cannot write {}: {e}", path.display());
        }
    }
    match compare_runs(&sets[0], &sets[1], true) {
        Ok(bad) => {
            println!("{bad} row(s) not ok: the two sets differ by more than the bound");
            u8::from(bad > 0)
        }
        Err(e) => {
            eprintln!("aa: {e}");
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(workload: &str, trace: f64, correct: bool, metrics: &[(&'static str, f64)]) -> Json {
        Json::obj([
            ("workload", Json::str(workload)),
            ("seed", Json::Num(1.0)),
            ("trace", Json::Num(trace)),
            ("correct", Json::Bool(correct)),
            (
                "metrics",
                Json::obj(
                    metrics
                        .iter()
                        .map(|&(name, v)| (name, Json::obj([("value", Json::Num(v))]))),
                ),
            ),
        ])
    }

    #[test]
    fn a_worse_median_is_out_of_bound_and_a_better_one_only_in_an_aa_check() {
        let a = [run("hosp_bulk", 0.0, true, &[("setup_s", 1.0)])];
        let slower = [run("hosp_bulk", 0.0, true, &[("setup_s", 1.5)])];
        let faster = [run("hosp_bulk", 0.0, true, &[("setup_s", 0.5)])];
        assert_eq!(compare_runs(&a, &a, true), Ok(0));
        assert_eq!(compare_runs(&a, &slower, false), Ok(1));
        assert_eq!(compare_runs(&a, &faster, false), Ok(0));
        assert_eq!(compare_runs(&a, &faster, true), Ok(1));
    }

    #[test]
    fn nothing_compared_is_an_error_and_one_sided_values_are_counted() {
        let a = [
            run("hosp_bulk", 0.0, true, &[("setup_s", 1.0)]),
            run("dblp_dup_plain", 0.0, true, &[("setup_s", 1.0)]),
        ];
        assert!(compare_runs(&a, &[], false).is_err());
        // a traced run holds no end-to-end value
        let traced = [run("hosp_bulk", 1.0, true, &[("setup_s", 1.0)])];
        assert!(compare_runs(&a, &traced, false).is_err());
        // B lacks a workload A has
        assert_eq!(compare_runs(&a, &a[..1], false), Ok(1));
        // a zero reference compares with nothing
        let zero = [run("hosp_bulk", 0.0, true, &[("setup_s", 0.0)])];
        assert_eq!(compare_runs(&zero, &a[..1], false), Ok(1));
        // a run with wrong outputs is never ok, whatever its numbers
        let wrong = [run("hosp_bulk", 0.0, false, &[("setup_s", 1.0)])];
        assert_eq!(compare_runs(&a[..1], &wrong, false), Ok(1));
    }
}
