//! The interactive `CertainFix` / `CertainFix+` framework (Sect. 5 of
//! the paper): find certain fixes for tuples at the point of data
//! entry, by interacting with users over editing rules and master data.
//!
//! Pipeline per input tuple (Fig. 3):
//!
//! 1. recommend the precomputed highest-quality certain region's `Z` as
//!    the first suggestion;
//! 2. the user asserts a set `S` of attributes correct (supplying
//!    values where the entered ones were wrong);
//! 3. run [`transfix()`](transfix::transfix) to propagate master values
//!    along the rule dependency graph; the same walk validates
//!    `t[Z′ ∪ S]` (does it lead to a unique fix?);
//! 4. if everything is validated, done — a certain fix; otherwise
//!    compute a new suggestion ([`certainfix_reasoning::suggest()`](certainfix_reasoning::suggest())),
//!    possibly served from the [`bdd`] cache (`Suggest+`), and repeat.
//!
//! A [`RepairContext`] packages the precomputation (dependency graph,
//! compiled plan, the initial suggestion ranked once from the region
//! catalog) and owns the one work-stealing fan-out that repairs every
//! batch, one BDD per chunk under `CertainFix+`; the paper's sequential
//! monitor is a one-worker [`RepairContext::repair_opts`] call whose
//! chunk is the whole stream. [`metrics`] implements the paper's
//! recall / precision / F-measure at both the tuple and attribute
//! level. The unified entry-point surface is the [`session`] API: a
//! [`RepairSession`] drains any iterator of batches (a
//! [`SliceSource`], a generator, a channel's receiver) through the
//! fan-out and emits a [`SessionReport`]; for N concurrent streams over
//! one context, the [`service`] multiplexer ([`RepairService`])
//! schedules the sessions fairly, takes each one's batches through a
//! bounded ingest lane ([`LaneSender`]), and reports each one as if it
//! had run alone. Both open the same way: a context, wrapped in a
//! [`BatchRepairEngine`], then [`RepairSession::from_engine`] (or
//! [`borrowed`](RepairSession::borrowed)) or
//! [`RepairService::from_engine`] with an options literal.
//!
//! The master data is *live*: a
//! [`MasterDelta`](certainfix_relation::MasterDelta) applied through
//! [`RepairContext::apply_master_delta`] (or
//! [`RepairSession::apply_master_delta`](session::RepairSession::apply_master_delta))
//! builds the next generation-stamped [`MasterEpoch`] — the delta's
//! rows, a plan compiled and indexed over them, the context's initial
//! suggestion — and swaps it in without stalling in-flight repairs,
//! which finish on the epoch they pinned. The crate runs the paper's
//! editing-rule repair only; the `IncRep` baseline it is compared
//! against lives in `certainfix-cfd`, and the experiments run it there.
//!
//! Every guarantee this crate leans on — schedule-independence, plan ≡
//! plain oracle, stream ≡ batch, block ≡ single probe, session-
//! interleaving-independence, delta-made epoch ≡ rebuilt — is
//! inventoried with its discharging test or CI job in `DETERMINISM.md`
//! at the repository root.

pub mod bdd;
pub mod certainfix;
pub mod engine;
pub mod metrics;
pub mod monitor;
pub mod oracle;
pub mod service;
pub mod session;
pub mod transfix;

pub use bdd::SuggestionBdd;
pub use certainfix::{CertainFix, CertainFixConfig, FixOutcome, RoundReport};
pub use engine::{
    BatchRepairEngine, BatchReport, MasterEpoch, RepairContext, RepairOptions, Schedule,
    SharedCacheStats, WorkerReport,
};
pub use metrics::{
    evaluate_changes, evaluate_rounds, merge_round_series, ChangeCounts, RoundMetrics, TupleEval,
};
pub use monitor::{InitialRegion, MonitorStats, NetLaneStats};
pub use oracle::{SimulatedUser, UserOracle};
pub use service::{
    AttachQueue, BoxedOracle, LaneSender, NamedSessionReport, RepairService, ServiceAttach,
    ServiceOptions, ServiceReport, ServiceStream, SessionEvent,
};
pub use session::{RepairSession, SessionReport, SliceSource};
pub use transfix::{transfix, transfix_block, transfix_with, TransFixOutcome};
