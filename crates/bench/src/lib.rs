//! Experiment harness for the paper's evaluation (Sect. 6).
//!
//! Each binary in `src/bin/` regenerates one table or figure; shared
//! plumbing (CLI parsing, CSV output, experiment runners) lives here.
//! Performance is measured by the separate `benchmark/` package, and
//! the determinism invariants by the workspace tests (DETERMINISM.md).

pub mod args;
pub mod runner;
pub mod table;
