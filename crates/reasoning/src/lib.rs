//! Static analyses and deduction for editing rules (Sects. 3–5.2 of the
//! paper).
//!
//! The crate is organized around one engine and several analyses built
//! on it:
//!
//! * [`chase`] — the *unique-fix engine*: given `(Σ, Dm)`, a tuple and a
//!   validated attribute set, repeatedly applies rules per the region
//!   semantics `t →((Z,Tc),ϕ,tm) t'`, detecting the two conflict shapes
//!   of the PTIME algorithm in the proof of Theorem 4. It decides unique
//!   and certain fixes for concrete instances and powers monitoring.
//! * [`region`] — regions `(Z, Tc)` and their extension `ext(Z, Tc, ϕ)`.
//! * [`consistency`] / [`coverage`] — the consistency and coverage
//!   problems (Sect. 4.1), exact for concrete tableaux and, via bounded
//!   active-domain expansion (the construction in the proof of
//!   Theorem 4(I)), for general tableaux under a configurable budget.
//! * [`direct`] — the PTIME checks for *direct fixes* (Theorem 5).
//! * [`zproblems`] — Z-validating / Z-counting / Z-minimum (Sect. 4.2),
//!   exact for fixed `Σ` (Props. 8, 11, 15) under a budget.
//! * [`closure`](mod@closure) — schema-level attribute closure under `Σ`, the shared
//!   core of region derivation and suggestion generation.
//! * [`derive`](mod@derive) — certain-region deduction: `CompCRegion` (the heuristic
//!   of \[20\] used by the paper's framework) and the greedy `GRegion`
//!   baseline of Sect. 6, plus the quality-ranked [`RegionCatalog`].
//! * [`suggest`](mod@suggest) — applicable rules `Σ_t[Z]` (Prop. 20) and suggestion
//!   generation (Sect. 5.2).

pub mod chase;
pub mod closure;
pub mod consistency;
pub mod coverage;
pub mod derive;
pub mod direct;
pub mod error;
pub mod region;
pub mod suggest;
pub mod zproblems;

pub use chase::{Chase, ChaseResult, Conflict, ConflictKind, Fix};
pub use closure::{closure, closure_over, ClosureTrace};
pub use consistency::{check_consistency, ConsistencyReport};
pub use coverage::{check_coverage, CoverageReport};
pub use derive::{
    comp_cregion, comp_cregion_in_mode, gregion, gregion_in_mode, DerivedRegion, RegionCatalog,
};
pub use direct::{direct_consistent, direct_covers, direct_covers_with, DirectReport};
pub use error::AnalysisError;
pub use region::Region;
pub use suggest::{applicable_rules, is_suggestion, suggest, suggest_with, Applicable, Suggestion};
pub use zproblems::{z_count, z_minimum, z_validate, ZBudget};
