//! A tiny `--key value` argument parser for the experiment binaries.
//!
//! No external CLI crate is pulled in; the experiments only need a
//! handful of numeric flags. Each binary declares its accepted flag
//! set as a [`Spec`]; parsing rejects unknown flags, valued flags
//! without a value, and stray positional arguments instead of silently
//! running the experiment with defaults (the ROADMAP's typo'd-flag
//! trap). [`Args::from_env_strict`] prints a usage line and exits with
//! status 2 on any parse error, and [`Spec::fail`] does the same for a
//! declared flag with a value outside its allowed set
//! ([`Args::one_of`]).

use std::collections::BTreeMap;
use std::fmt;

/// The flag set one experiment binary accepts.
#[derive(Debug, Clone)]
pub struct Spec {
    bin: &'static str,
    /// Flags that require a value (`--dm 5000`).
    valued: Vec<&'static str>,
    /// Presence-only flags (`--no-bdd`).
    boolean: Vec<&'static str>,
}

impl Spec {
    /// An empty spec for `bin` (shown in the usage line).
    pub fn new(bin: &'static str) -> Spec {
        Spec {
            bin,
            valued: Vec::new(),
            boolean: Vec::new(),
        }
    }

    /// The flags every `ExpConfig`-driven binary shares: `--dm`,
    /// `--inputs`, `--d`, `--n`, `--seed`, `--compliance`,
    /// `--initial {best,median}`, `--out`, and the boolean `--no-bdd`.
    pub fn exp(bin: &'static str) -> Spec {
        Spec::new(bin)
            .valued(&[
                "dm",
                "inputs",
                "d",
                "n",
                "seed",
                "compliance",
                "initial",
                "out",
            ])
            .boolean(&["no-bdd"])
    }

    /// Add valued flags.
    pub fn valued(mut self, names: &[&'static str]) -> Spec {
        self.valued.extend_from_slice(names);
        self
    }

    /// Add boolean flags.
    pub fn boolean(mut self, names: &[&'static str]) -> Spec {
        self.boolean.extend_from_slice(names);
        self
    }

    fn takes_value(&self, name: &str) -> Option<bool> {
        if self.valued.contains(&name) {
            Some(true)
        } else if self.boolean.contains(&name) {
            Some(false)
        } else {
            None
        }
    }

    /// One-line usage summary, e.g.
    /// `usage: fig9 [--dm <v>] [--inputs <v>] [--no-bdd]`.
    pub fn usage_line(&self) -> String {
        let mut line = format!("usage: {}", self.bin);
        for v in &self.valued {
            line.push_str(&format!(" [--{v} <v>]"));
        }
        for b in &self.boolean {
            line.push_str(&format!(" [--{b}]"));
        }
        line
    }

    /// Reject the command line: print `err` and the usage line to
    /// stderr and exit with status 2.
    pub fn fail(&self, err: impl fmt::Display) -> ! {
        eprintln!("{}: {err}", self.bin);
        eprintln!("{}", self.usage_line());
        std::process::exit(2);
    }
}

/// A rejected command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgsError {
    /// A flag the binary does not declare.
    Unknown(String),
    /// A valued flag with no value following it.
    MissingValue(String),
    /// A token that is not a flag (the binaries take no positionals).
    Unexpected(String),
    /// A value outside the flag's allowed set.
    Invalid {
        /// The flag name.
        flag: String,
        /// The rejected value.
        value: String,
        /// The values the flag accepts.
        allowed: Vec<&'static str>,
    },
}

impl fmt::Display for ArgsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgsError::Unknown(flag) => write!(f, "unknown flag `--{flag}`"),
            ArgsError::MissingValue(flag) => write!(f, "flag `--{flag}` requires a value"),
            ArgsError::Unexpected(tok) => write!(f, "unexpected argument `{tok}`"),
            ArgsError::Invalid {
                flag,
                value,
                allowed,
            } => write!(f, "invalid --{flag} `{value}` ({})", allowed.join("|")),
        }
    }
}

impl std::error::Error for ArgsError {}

/// Parsed arguments: flag → value (boolean flags store "").
#[derive(Debug, Default, Clone)]
pub struct Args {
    flags: BTreeMap<String, String>,
}

impl Args {
    /// Strict parse against a declared flag set.
    ///
    /// * an undeclared `--flag` is [`ArgsError::Unknown`];
    /// * a declared valued flag at the end of the line or followed by
    ///   another `--flag` is [`ArgsError::MissingValue`];
    /// * a non-flag token is [`ArgsError::Unexpected`] (boolean flags
    ///   do not consume the next token, so `--no-bdd 5` rejects `5`).
    pub fn parse_strict<I: IntoIterator<Item = String>>(
        args: I,
        spec: &Spec,
    ) -> Result<Args, ArgsError> {
        let mut flags = BTreeMap::new();
        let mut iter = args.into_iter();
        while let Some(arg) = iter.next() {
            let Some(name) = arg.strip_prefix("--") else {
                return Err(ArgsError::Unexpected(arg));
            };
            match spec.takes_value(name) {
                None => return Err(ArgsError::Unknown(name.to_string())),
                Some(false) => {
                    flags.insert(name.to_string(), String::new());
                }
                Some(true) => match iter.next() {
                    Some(v) if !v.starts_with("--") => {
                        flags.insert(name.to_string(), v);
                    }
                    _ => return Err(ArgsError::MissingValue(name.to_string())),
                },
            }
        }
        Ok(Args { flags })
    }

    /// Parse the process's own arguments against `spec`; on error,
    /// print the error and the usage line to stderr and exit 2.
    pub fn from_env_strict(spec: &Spec) -> Args {
        Args::parse_strict(std::env::args().skip(1), spec).unwrap_or_else(|e| spec.fail(e))
    }

    /// Raw flag value.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(String::as_str)
    }

    /// `true` iff the flag was present (with or without a value).
    pub fn has(&self, name: &str) -> bool {
        self.flags.contains_key(name)
    }

    /// Typed lookup with default.
    pub fn usize_or(&self, name: &str, default: usize) -> usize {
        self.get(name)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    /// Typed lookup with default.
    pub fn u64_or(&self, name: &str, default: u64) -> u64 {
        self.get(name)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    /// Typed lookup with default.
    pub fn f64_or(&self, name: &str, default: f64) -> f64 {
        self.get(name)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    /// String lookup with default.
    pub fn str_or<'a>(&'a self, name: &str, default: &'a str) -> &'a str {
        self.get(name).filter(|v| !v.is_empty()).unwrap_or(default)
    }

    /// An enumerated flag: its value if it is one of `allowed`
    /// (`default` when absent), else [`ArgsError::Invalid`] — a typo'd
    /// mode must never silently run under the default one.
    pub fn one_of(
        &self,
        name: &str,
        allowed: &[&'static str],
        default: &'static str,
    ) -> Result<&'static str, ArgsError> {
        let value = self.str_or(name, default);
        allowed
            .iter()
            .copied()
            .find(|&a| a == value)
            .ok_or_else(|| ArgsError::Invalid {
                flag: name.to_string(),
                value: value.to_string(),
                allowed: allowed.to_vec(),
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strict(s: &str, spec: &Spec) -> Result<Args, ArgsError> {
        Args::parse_strict(s.split_whitespace().map(String::from), spec)
    }

    fn spec() -> Spec {
        Spec::new("test-bin")
            .valued(&["dm", "d", "vary"])
            .boolean(&["quiet", "no-bdd"])
    }

    #[test]
    fn parses_key_value_pairs() {
        let a = strict("--dm 5000 --d 0.3 --vary n --quiet", &spec()).unwrap();
        assert_eq!(a.usize_or("dm", 0), 5000);
        assert_eq!(a.f64_or("d", 0.0), 0.3);
        assert_eq!(a.str_or("vary", "d"), "n");
        assert!(a.has("quiet"));
        assert!(!a.has("missing"));
    }

    #[test]
    fn defaults_apply() {
        let a = strict("", &spec()).unwrap();
        assert_eq!(a.usize_or("dm", 10_000), 10_000);
        assert_eq!(a.u64_or("seed", 42), 42);
        assert_eq!(a.str_or("vary", "d"), "d");
    }

    #[test]
    fn bad_numbers_fall_back() {
        let a = strict("--dm abc", &spec()).unwrap();
        assert_eq!(a.usize_or("dm", 7), 7);
    }

    #[test]
    fn strict_accepts_declared_flags() {
        let a = strict("--dm 5000 --quiet --d -0.5 --vary n", &spec()).unwrap();
        assert_eq!(a.usize_or("dm", 0), 5000);
        assert_eq!(a.f64_or("d", 0.0), -0.5, "negative values are values");
        assert!(a.has("quiet"));
        let empty = strict("", &spec()).unwrap();
        assert!(!empty.has("dm"));
    }

    #[test]
    fn strict_rejects_unknown_flags() {
        assert_eq!(
            strict("--dm 10 --dmm 20", &spec()).unwrap_err(),
            ArgsError::Unknown("dmm".into())
        );
        // a typo'd boolean is equally fatal
        assert_eq!(
            strict("--no-bdd --no-bddd", &spec()).unwrap_err(),
            ArgsError::Unknown("no-bddd".into())
        );
    }

    #[test]
    fn strict_rejects_missing_values() {
        // valued flag at the end of the line
        assert_eq!(
            strict("--dm", &spec()).unwrap_err(),
            ArgsError::MissingValue("dm".into())
        );
        // valued flag swallowed by the next flag
        assert_eq!(
            strict("--dm --quiet", &spec()).unwrap_err(),
            ArgsError::MissingValue("dm".into())
        );
    }

    #[test]
    fn strict_bare_flag_semantics() {
        // bare boolean flag: fine
        let a = strict("--quiet", &spec()).unwrap();
        assert!(a.has("quiet"));
        assert_eq!(a.get("quiet"), Some(""));
        // boolean flags do not consume values: the trailing token is a
        // stray positional
        assert_eq!(
            strict("--quiet 5", &spec()).unwrap_err(),
            ArgsError::Unexpected("5".into())
        );
        // and plain positionals are rejected outright
        assert_eq!(
            strict("fig9.csv", &spec()).unwrap_err(),
            ArgsError::Unexpected("fig9.csv".into())
        );
    }

    #[test]
    fn usage_line_lists_the_spec() {
        let u = spec().usage_line();
        assert!(u.starts_with("usage: test-bin"));
        assert!(u.contains("[--dm <v>]"));
        assert!(u.contains("[--quiet]"));
    }

    #[test]
    fn exp_spec_covers_the_shared_flags() {
        let s = Spec::exp("x");
        for f in [
            "dm",
            "inputs",
            "d",
            "n",
            "seed",
            "compliance",
            "initial",
            "out",
        ] {
            assert_eq!(s.takes_value(f), Some(true), "{f}");
        }
        assert_eq!(s.takes_value("no-bdd"), Some(false));
        // engine knobs are the workspace tests' business, not a figure's
        for f in ["nope", "threads", "schedule", "shared-cache", "chunk"] {
            assert_eq!(s.takes_value(f), None, "{f}");
        }
    }

    #[test]
    fn one_of_accepts_the_allowed_values_only() {
        let parse = |s: &str| strict(s, &spec()).unwrap();
        let allowed = ["d", "dm", "all"];
        assert_eq!(parse("").one_of("vary", &allowed, "all"), Ok("all"));
        assert_eq!(parse("--vary dm").one_of("vary", &allowed, "all"), Ok("dm"));
        let err = parse("--vary bogus")
            .one_of("vary", &allowed, "all")
            .unwrap_err();
        assert_eq!(err.to_string(), "invalid --vary `bogus` (d|dm|all)");
        // matching is exact: no case folding, no prefixes
        assert!(parse("--vary DM").one_of("vary", &allowed, "all").is_err());
        assert!(parse("--vary a").one_of("vary", &allowed, "all").is_err());
    }

    #[test]
    fn errors_display_the_flag() {
        assert_eq!(
            ArgsError::Unknown("dmm".into()).to_string(),
            "unknown flag `--dmm`"
        );
        assert_eq!(
            ArgsError::MissingValue("dm".into()).to_string(),
            "flag `--dm` requires a value"
        );
        assert_eq!(
            ArgsError::Unexpected("x".into()).to_string(),
            "unexpected argument `x`"
        );
    }
}
