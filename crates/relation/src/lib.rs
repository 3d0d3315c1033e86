//! Relational substrate for the `certain-fix` workspace.
//!
//! This crate provides the data model over which editing rules
//! (Fan et al., *Towards Certain Fixes with Editing Rules and Master
//! Data*, VLDB 2010) are defined:
//!
//! * [`Sym`] / [`Interner`] — interned string symbols: every string cell
//!   is a `u32` id into a process-wide, append-only interner, so value
//!   equality/hashing is O(1) on a machine word (see [`symbol`] for the
//!   lifetime rules — interned strings are immortal),
//! * [`Value`] — a dynamically typed cell value (`Null` / `Int` /
//!   `Str(Sym)`) that is `Copy` and 16 bytes wide,
//! * [`Schema`] / [`AttrId`] / [`AttrSet`] — named attribute lists with a
//!   one-word bitset over attribute positions,
//! * [`Tuple`] — a row aligned to a schema,
//! * [`PatternValue`] / [`PatternTuple`] / [`Tableau`] — the paper's
//!   three-valued patterns (`a`, `ā`, `_`) and pattern tableaux,
//! * [`Relation`] — a schema plus rows (used for master data `Dm` and
//!   input sets `D`),
//! * [`MasterIndex`] — cached hash indexes keyed on attribute lists,
//!   built on first use or all at once on every core, used by the
//!   rule-application engine to find master tuples `tm` with
//!   `tm[Xm] = t[X]` in expected O(1).
//!
//! Schemas are capped at [`MAX_ATTRS`] (64) attributes so that attribute
//! sets fit in one machine word; the paper's schemas have 19 (HOSP) and
//! 12 (DBLP) attributes.

pub mod attrset;
pub mod csv;
pub mod error;
pub mod hashers;
pub mod index;
pub mod pattern;
pub mod relation;
pub mod schema;
pub mod symbol;
pub mod tuple;
pub mod value;

pub use attrset::AttrSet;
pub use csv::{from_csv, to_csv};
pub use error::RelationError;
pub use hashers::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use index::{KeyIndex, MasterDelta, MasterIndex, Span, NO_SLOT};
pub use pattern::{PatternTuple, PatternValue, Tableau};
pub use relation::Relation;
pub use schema::{AttrId, Schema, MAX_ATTRS};
pub use symbol::{Interner, Sym};
pub use tuple::Tuple;
pub use value::Value;

/// Compile-time audit: everything the parallel batch-repair engine
/// shares across worker threads must be `Send + Sync`. The interner's
/// raw-pointer chunk table and the `&'static str` handed out by
/// [`Sym::as_str`] make this worth pinning down in the type system: a
/// future change that sneaks in an `Rc`, a `Cell`, or an unmarked raw
/// pointer fails this function's type-check instead of a code review.
#[allow(dead_code)]
fn _send_sync_audit() {
    fn check<T: Send + Sync>() {}
    check::<Sym>();
    check::<Value>();
    check::<Tuple>();
    check::<Schema>();
    check::<AttrSet>();
    check::<Relation>();
    check::<KeyIndex>();
    check::<MasterIndex>();
    check::<MasterDelta>();
    check::<Interner>();
    check::<PatternTuple>();
    check::<Tableau>();
}
