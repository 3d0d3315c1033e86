//! # certain-fix
//!
//! A Rust implementation of *"Towards Certain Fixes with Editing Rules
//! and Master Data"* (Fan, Li, Ma, Tang, Yu — VLDB 2010; extended in
//! The VLDB Journal 21(2), 2012).
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`relation`] — values, schemas, tuples, patterns, relations, indexes;
//! * [`rules`] — editing rules, the rule DSL, application semantics,
//!   dependency graphs;
//! * [`reasoning`] — regions, the unique-fix chase, consistency/coverage
//!   checking, direct fixes, Z-problems, certain-region derivation and
//!   suggestions;
//! * [`cfd`] — conditional functional dependencies and the `IncRep`
//!   repairing baseline;
//! * [`datagen`] — the synthetic HOSP / DBLP workloads and the dirty-data
//!   generator;
//! * [`core`] — the interactive `CertainFix` / `CertainFix+` monitoring
//!   framework, user oracles, evaluation metrics, the single-stream
//!   [`RepairSession`](certainfix_core::RepairSession) surface, and the
//!   multi-session [`RepairService`](certainfix_core::RepairService)
//!   multiplexer;
//! * [`net`] — the network ingest lane: the length-prefixed versioned
//!   wire codec, the TCP/unix-socket
//!   [`RepairServer`](certainfix_net::RepairServer) mapping each
//!   connection onto one service lane, and the
//!   [`RepairClient`](certainfix_net::RepairClient) that reassembles
//!   reports bit-identically to an in-process drain.
//!
//! The determinism guarantees these layers maintain (and the tests
//! discharging each one) are inventoried in `DETERMINISM.md` at the
//! repository root.
//!
//! ## Quickstart
//!
//! See `examples/quickstart.rs`, which walks through Fig. 1 of the paper:
//! a supplier tuple with an inconsistent area code / city pair is given a
//! certain fix from master data after the user asserts a single zip code.

pub use certainfix_cfd as cfd;
pub use certainfix_core as core;
pub use certainfix_datagen as datagen;
pub use certainfix_net as net;
pub use certainfix_reasoning as reasoning;
pub use certainfix_relation as relation;
pub use certainfix_rules as rules;

/// Commonly used items, importable as `use certain_fix::prelude::*`.
pub mod prelude {
    pub use certainfix_core::{
        BatchRepairEngine, CertainFix, CertainFixConfig, FixOutcome, InitialRegion,
        NamedSessionReport, RepairContext, RepairOptions, RepairService, RepairSession,
        ServiceOptions, ServiceReport, ServiceStream, SessionReport, SimulatedUser, SliceSource,
        UserOracle,
    };
    pub use certainfix_net::{Frame, RepairClient, RepairServer, WireError};
    pub use certainfix_reasoning::{Chase, ChaseResult, Region, RegionCatalog};
    pub use certainfix_relation::{
        AttrId, AttrSet, MasterIndex, PatternTuple, PatternValue, Relation, Schema, Tableau, Tuple,
        Value,
    };
    pub use certainfix_rules::{parse_rules, DependencyGraph, EditingRule, RuleSet};
}
