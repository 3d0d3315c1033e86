//! Editing rules (eRs).
//!
//! An editing rule over schemas `(R, Rm)` is a pair
//! `ϕ = ((X, Xm) → (B, Bm), tp[Xp])` (Sect. 2 of the paper):
//!
//! * `X` / `Xm` — equal-length lists of distinct attributes of `R` / `Rm`,
//! * `B ∈ R \ X` and `Bm ∈ Rm` — the attribute to fix and its master
//!   source,
//! * `tp[Xp]` — a pattern tuple over `R` restricting when `ϕ` applies.
//!
//! Applying `(ϕ, tm)` to an input tuple `t` (written `t →(ϕ,tm) t'`)
//! requires `t[Xp] ≈ tp[Xp]` and `t[X] = tm[Xm]`, and produces `t'` with
//! `t'[B] := tm[Bm]`.
//!
//! This crate provides:
//! * [`EditingRule`] and its validating [`builder`](EditingRule::build),
//! * [`RuleSet`] — a validated collection over fixed `(R, Rm)`,
//! * [`apply`](mod@apply) — the application semantics, including master-index-backed
//!   candidate search,
//! * [`parse`] — a compact text DSL used by examples and the data
//!   generators,
//! * [`DependencyGraph`] — the rule ordering structure of Sect. 5.1
//!   (Fig. 4) that drives `TransFix`,
//! * [`plan`] — compiled rule plans ([`RulePlan`]): the
//!   build-once/probe-many layer that makes the hot engines'
//!   `tm[Xm] = t[X]` probes allocation- and lock-free.
//!
//! The plan layer carries two of the workspace's determinism
//! obligations — plan ≡ legacy probes, and block probe ≡ single-tuple
//! probe at every block size. `DETERMINISM.md` at the repository root
//! inventories both (D4 and D6) with the tests and CI legs that
//! discharge them.

pub mod apply;
pub mod depgraph;
pub mod error;
pub mod parse;
pub mod plan;
pub mod rule;
pub mod ruleset;

pub use apply::{applies, apply, candidate_masters};
pub use depgraph::DependencyGraph;
pub use error::RuleError;
pub use parse::parse_rules;
pub use plan::{CompiledRule, FixHits, PlanHits, ProbeScratch, RulePlan};
pub use rule::{EditingRule, RuleBuilder};
pub use ruleset::RuleSet;

/// Compile-time audit: rule sets and dependency graphs are shared by
/// reference across the parallel batch-repair engine's worker threads.
#[allow(dead_code)]
fn _send_sync_audit() {
    fn check<T: Send + Sync>() {}
    check::<EditingRule>();
    check::<RuleSet>();
    check::<DependencyGraph>();
}
