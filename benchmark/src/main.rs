//! The repository's benchmark. See `benchmark/README.md` for what the
//! workloads and metrics mean and `BENCHMARK.json` for the contract.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1 [--out DIR] [--quick]
//! benchmark compare A.json B.json
//! benchmark aa --runs N [--seconds S] [--seed N] [--out DIR] [--quick]
//! benchmark layers TRACE.json
//! ```

mod compare;
mod inputs;
mod json;
mod layers;
mod run;
mod spec;
mod stats;
mod suite;
mod sys;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use json::Json;
use spec::{RUN_SECONDS, WORKLOADS};

const USAGE: &str = "usage:
  benchmark --workload W --seed N --seconds S --trace 0|1 [--out DIR] [--quick]
  benchmark compare A.json B.json
  benchmark aa --runs N [--seconds S] [--seed N] [--out DIR] [--quick]
  benchmark layers TRACE.json";

const DEFAULT_OUT: &str = "benchmark/out";

/// `--flag value` pairs and bare `--quick`, strictly: an unknown or
/// value-less flag is an error, not a default.
struct Flags {
    pairs: Vec<(String, String)>,
    quick: bool,
}

impl Flags {
    fn parse(args: &[String], known: &[&str]) -> Result<Flags, String> {
        let mut flags = Flags {
            pairs: Vec::new(),
            quick: false,
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let name = arg
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument `{arg}`"))?;
            if name == "quick" {
                flags.quick = true;
            } else if known.contains(&name) {
                let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                flags.pairs.push((name.to_string(), value.clone()));
            } else {
                return Err(format!("unknown flag `{arg}`"));
            }
        }
        Ok(flags)
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{name}: bad value `{v}`")),
        }
    }

    fn out(&self) -> PathBuf {
        PathBuf::from(self.get("out").unwrap_or(DEFAULT_OUT))
    }
}

fn run_workload(args: &[String]) -> Result<u8, String> {
    let flags = Flags::parse(args, &["workload", "seed", "seconds", "trace", "out"])?;
    let name = flags.get("workload").ok_or("--workload is required")?;
    let workload = spec::workload(name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload `{name}` (one of: {})", names.join(", "))
    })?;
    let trace = match flags.get("trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace: `{other}` is neither 0 nor 1")),
    };
    let seconds: f64 = flags.number("seconds", RUN_SECONDS)?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds: {seconds} is outside (0, 600]"));
    }
    Ok(suite::run(&suite::Options {
        workload,
        seed: flags.number("seed", 1)?,
        seconds,
        trace,
        quick: flags.quick,
        out: flags.out(),
    }))
}

fn run_aa(args: &[String]) -> Result<u8, String> {
    let flags = Flags::parse(args, &["runs", "seconds", "seed", "out"])?;
    let runs: usize = flags.number("runs", 3)?;
    if runs == 0 {
        return Err("--runs must be at least 1".into());
    }
    Ok(compare::aa(
        runs,
        flags.number("seconds", RUN_SECONDS)?,
        flags.number("seed", 1)?,
        flags.quick,
        &flags.out(),
    ))
}

fn print_layers(path: &Path) -> Result<u8, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let spans = trace::spans_from_json(&doc)?;
    println!(
        "{}: {} spans, {} dropped",
        doc.get("workload").and_then(Json::as_str).unwrap_or("?"),
        spans.len(),
        doc.get("dropped").and_then(Json::as_f64).unwrap_or(0.0)
    );
    print!("{}", trace::layers_table(&spans));
    Ok(0)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") if args.len() == 3 => {
            Ok(compare::compare(Path::new(&args[1]), Path::new(&args[2])))
        }
        Some("aa") => run_aa(&args[1..]),
        Some("layers") if args.len() == 2 => print_layers(Path::new(&args[1])),
        Some(flag) if flag.starts_with("--") => run_workload(&args),
        _ => Err("no such command".into()),
    };
    match result {
        Ok(code) => ExitCode::from(code),
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
