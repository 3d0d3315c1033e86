//! Compiled rule plans: the allocation-free probe layer.
//!
//! The paper's complexity argument for `TransFix` assumes each "is a
//! master tuple applicable?" check is one hash probe. The convenience
//! path (`candidate_masters` → `MasterIndex::matches_projection` →
//! `index_for`) pays far more than that per probe: an `RwLock` read,
//! a hash of the `Vec<AttrId>` key list, a freshly allocated projection
//! `Vec<Value>`, and a cloned `Vec<u32>` hit list — per rule, per
//! round, per tuple. Following the compile-once-probe-many discipline
//! of compiled/factorised query engines, a [`RulePlan`] is built **once**
//! per `(RuleSet, MasterIndex)` pair and precomputes, per rule:
//!
//! * the pinned [`Arc<KeyIndex>`] for the full key list `Xm` (no lock,
//!   no key hashing on the steady-state path),
//! * the projection layout `X` and the pattern pre-check `tp[Xp]`,
//! * the `λϕ` alignment of each pattern attribute with its master
//!   column (`pattern_master`), used by the suggestion derivation,
//! * the rule's premise set and rhs/master fix column,
//! * a lock-free table of *sub-key* indexes — one slot per subset of
//!   `X` — so the `t[X ∩ Z] = tm[λϕ(X ∩ Z)]` probes of
//!   `applicable_rules` (Sect. 5.2) resolve their validated-key split
//!   without rebuilding `from`/`to` vectors or re-hashing key lists.
//!
//! Per-probe state lives in a caller-owned [`ProbeScratch`]; once its
//! buffer has warmed, a probe performs **zero heap allocations** and
//! returns the hit list by borrow from the pinned index. The scratch
//! also counts probes, buffer (re)allocations, and wide-key fallbacks,
//! surfaced by the core crate as
//! `MonitorStats::{plan_probes, probe_allocs, plan_fallbacks}`.
//!
//! # Block probing
//!
//! On top of the single-tuple probes sits a *vectorized* layer that
//! probes one rule against a **block** of tuples at a time
//! ([`RulePlan::plan_probe_block`], bulk-prefetched by
//! [`RulePlan::probe_block_seeds`]). Two amortizations remain:
//!
//! * **probe groups** — at compile time, rules with an identical
//!   `(X, Xm)` key are merged into one group
//!   ([`RulePlan::probe_groups`]), so a rule like ϕ1 of the paper, whose
//!   three set-clauses compile to three rules keyed on the same `zip`,
//!   pays for one key probe per tuple instead of three;
//! * **spans, not copies** — a block cell costs exactly one lookup into
//!   its group's pinned flat [`KeyIndex`], whatever the key width, and
//!   holds the `(start, len)` span it answers (see [`KeyIndex::locate`]),
//!   so a prefetched hit list is never copied: block readers borrow the
//!   rows from the plan.
//!
//! There is no per-block key deduplication. Plain `CertainFix` is the
//! only mode that runs blocks longer than one, and on its DBLP inputs
//! (|Dm| = 50 000, 90 % duplicates) a prefetched cell's key repeats an
//! earlier cell's of the same block for 0.05 % of one-attribute and
//! 0.02 % of two-attribute keys in 64-tuple blocks (0.21 % and 0.05 %
//! in 256-tuple blocks): a table that hashes a repeated key once costs
//! every cell a table probe to save a lookup on almost none. (HOSP's
//! one-attribute keys repeat 9–16 % in 64-tuple blocks, but the
//! benchmark's HOSP workloads run with the suggestion diagram on, in
//! blocks of one.) Nor are pattern checks hoisted: the walk tests a
//! rule's pattern on the tuple as it stands, which is one `Value`
//! compare per pattern cell. There is no key-prefix trie either: at
//! full key depth its hit lists are the flat index's, and building one
//! cost more than all the flat indexes of a plan together.
//!
//! # Factorised spans
//!
//! A probe answers "which master rows match?", but its readers only
//! ask what those rows *say* about one fix column `Bm`: the chase
//! wants the first row and the first row whose value differs from a
//! claim, `TransFix` wants the first non-null value and whether a
//! later one disputes it, and the suggestion derivation wants the
//! first row that does not agree with a validated `t[B]`. On a key
//! with few distinct values (HOSP's `mCode`: 40 values, so 1 250 rows
//! per list at |Dm| = 50 000) walking the list for each of those is
//! the one repair cost that grows with the master. Following FDB's
//! factorised representations — store what a group says once per
//! group, not once per tuple — the plan keeps one `SpanSummary` per
//! multi-row span of each probe group's pinned index and per fix
//! column its rules read: four row ids (first row, first non-null,
//! first null, first later non-null that differs from the first
//! non-null). Every question above is then O(1) for any value and
//! stays **exact** ([`FixHits`]). The summaries sit in one flat table
//! per group, indexed by the index's dense span slot
//! ([`KeyIndex::locate`]) times the group's column count; a one-row
//! span is its own summary (its row is read directly), so an index
//! whose hit lists are all unique carries no table at all
//! ([`RulePlan::summary_bytes`] reports the tables' size).
//!
//! Compile only allocates a table; each entry is filled by its first
//! reader, with one walk of its span, and read with one atomic load
//! thereafter, like the sub-key slots. Filling every entry at compile
//! time would touch every master row of every summarised group, one
//! cache miss per row, whether or not a tuple ever reads the span:
//! DBLP's proceedings keys, whose lists cover the whole master, would
//! pay that in every context build and every delta. A lazy entry
//! costs one walk of its span, once per plan instead of once per
//! read. Sub-key probes
//! ([`RulePlan::validated_candidates`] on a partial key) still return
//! walked hit lists.
//!
//! # Determinism contract
//!
//! For any rule, tuple, and master data, the plan-backed probes return
//! exactly the row ids, in exactly the order, of the legacy
//! [`candidate_masters`](crate::apply::candidate_masters) path — both
//! read the same [`KeyIndex`] hit lists, and block spans point into the
//! rows of that same pinned index. A span summary is derived from that
//! same hit list, so every [`FixHits`] answer names the row a walk of
//! the list would have stopped at. The plain functions remain in
//! the tree as the *test/property parity oracle* for this contract
//! (invariant D4) — engines always run the plan. **Block-probed
//! results are bit-identical to single-tuple probing at every block
//! size**: a block cell holds exactly the hit list the single-tuple
//! probe would return for that `(rule, tuple)` pair, and consuming it
//! counts one *logical* probe, so `plan_probes` is independent of how
//! the input was blocked.
//!
//! # Slot invalidation (live master data)
//!
//! A `RulePlan` is an **immutable per-generation artifact**: every
//! pinned `Arc<KeyIndex>`, every span summary and every lazily filled
//! 2^|X| sub-key slot describe the one master generation the plan was
//! compiled against
//! ([`RulePlan::generation`]). A
//! `MasterDelta` therefore never mutates a plan — invalidation is
//! *recompilation*: the engine compiles a fresh plan against the
//! next-generation [`MasterIndex`] and swaps it in at the next epoch
//! boundary, while in-flight probes keep the old plan's `Arc`s and
//! finish against the generation they started on (nothing blocks,
//! nothing is torn). Each [`MasterIndex`] snapshot has its own index
//! cache, and a delta leaves the next one's empty, so the compile is
//! the one place an epoch's full-key indexes are built: on every
//! generation alike, on all cores when the master is large. A compile
//! for a region ([`RulePlan::compile_for_region`], which every engine
//! epoch runs) builds the sub-key indexes `λϕ(X ∩ Z0)` a first round
//! probes in the same pass; the plan's sub-key slots refill lazily from
//! the master's cache, and any other sub-key builds on its first probe,
//! exactly as on first compile.
//! Every compile starts empty summary tables, so the summaries live and
//! die with the plan and refill against the new generation's rows. The
//! session layer counts swaps as `plan_rebuilds`.

use std::sync::{Arc, OnceLock};

use certainfix_relation::{
    AttrId, AttrSet, KeyIndex, MasterIndex, PatternTuple, Relation, Span, Tuple, Value, NO_SLOT,
};

use crate::ruleset::RuleSet;

/// Caller-owned reusable probe state: the projection buffer, the
/// block-probe buffers, and the probe / allocation / fallback
/// counters.
///
/// One scratch per worker (or per sequential engine) suffices; every
/// buffer warms to the widest shape it ever serves and is then reused
/// allocation-free. The counters are cumulative until
/// [`take_counters`](Self::take_counters) drains them.
#[derive(Debug, Default)]
pub struct ProbeScratch {
    probe: Vec<Value>,
    block: BlockBuffers,
    probes: u64,
    allocs: u64,
    fallbacks: u64,
}

/// Struct-of-arrays block-probe state (see the
/// [module docs](self#block-probing)): the per-(group × tuple) hit
/// spans of the current session and the cells each group must fill.
/// All buffers are reused across blocks.
#[derive(Debug, Default)]
struct BlockBuffers {
    /// Block length of the current session.
    len: usize,
    /// `u64` lanes per bitmask row (`len.div_ceil(64)`).
    lanes: usize,
    /// Hit spans, group-major: `spans[g * len + j]` is the span into
    /// the rows of group `g`'s pinned index, or [`NO_SPAN`] when
    /// cell `(g, j)` was not prefetched this session.
    spans: Vec<Span>,
    /// Group `g` probed this session.
    group_done: Vec<bool>,
    /// Cells to prefetch, group-major: bit `j % 64` of
    /// `needed[g * lanes + j / 64]` is set iff group `g` probes block
    /// tuple `j`.
    needed: Vec<u64>,
}

/// Sentinel span for a block cell that was not prefetched. A resolved
/// cell never reads it: a miss is [`Span::EMPTY`].
const NO_SPAN: Span = Span {
    start: u32::MAX,
    len: 0,
    slot: NO_SLOT,
};

/// Call `f` on every block position below `n` whose bit is set in
/// `lanes` (bit `j % 64` of `lanes[j / 64]`), ascending.
#[inline]
fn for_each_marked(lanes: &[u64], n: usize, mut f: impl FnMut(usize)) {
    for (l, &lane) in lanes.iter().enumerate() {
        let mut bits = lane;
        while bits != 0 {
            let j = l * 64 + bits.trailing_zeros() as usize;
            if j >= n {
                break;
            }
            f(j);
            bits &= bits - 1;
        }
    }
}

impl ProbeScratch {
    /// A fresh scratch (no buffer allocated yet).
    pub fn new() -> ProbeScratch {
        ProbeScratch::default()
    }

    /// Logical probes performed since the last
    /// [`take_counters`](Self::take_counters). Block probing counts a
    /// probe when a prefetched cell is *consumed*, not when it is
    /// filled, so this is independent of block size.
    pub fn probes(&self) -> u64 {
        self.probes
    }

    /// Buffer (re)allocations since the last drain. After warmup
    /// this stays at zero — the steady-state lookup and block paths
    /// are allocation-free.
    pub fn allocs(&self) -> u64 {
        self.allocs
    }

    /// Wide-key sub-slot fallbacks since the last drain: probes by
    /// [`RulePlan::validated_candidates`] on rules with
    /// `|X| > MAX_SUB_KEY_BITS`, which bypass the lock-free slot table
    /// and copy their hit list out of the shared master cache.
    pub fn fallbacks(&self) -> u64 {
        self.fallbacks
    }

    /// Drain `(probes, allocs, fallbacks)`, resetting all counters
    /// (the buffers keep their capacity).
    pub fn take_counters(&mut self) -> (u64, u64, u64) {
        (
            std::mem::take(&mut self.probes),
            std::mem::take(&mut self.allocs),
            std::mem::take(&mut self.fallbacks),
        )
    }

    /// Probe `idx` with `t[from]` through the buffer
    /// ([`KeyIndex::lookup_projection`]), counting one probe and any
    /// capacity growth.
    fn lookup<'p>(&mut self, idx: &'p KeyIndex, t: &Tuple, from: &[AttrId]) -> &'p [u32] {
        idx.hits(self.locate(idx, t, from).range())
    }

    /// [`lookup`](Self::lookup), answering with the hit list's
    /// [`Span`] (slot included) instead of its rows.
    fn locate(&mut self, idx: &KeyIndex, t: &Tuple, from: &[AttrId]) -> Span {
        let cap = self.probe.capacity();
        self.probe.clear();
        self.probe.extend(from.iter().map(|&a| *t.get(a)));
        if self.probe.capacity() != cap {
            self.allocs += 1;
        }
        self.probes += 1;
        idx.locate(&self.probe)
    }

    /// Probe `idx` with the masked subset of `t[attrs]` (ascending
    /// positions).
    fn lookup_masked<'p>(
        &mut self,
        idx: &'p KeyIndex,
        t: &Tuple,
        attrs: &[AttrId],
        mask: u64,
    ) -> &'p [u32] {
        let cap = self.probe.capacity();
        self.probe.clear();
        for (i, &a) in attrs.iter().enumerate() {
            if mask & (1 << i) != 0 {
                self.probe.push(*t.get(a));
            }
        }
        if self.probe.capacity() != cap {
            self.allocs += 1;
        }
        self.probes += 1;
        idx.lookup(&self.probe)
    }
}

/// Widest key list for which per-subset index slots are preallocated
/// (`2^MAX_SUB_KEY_BITS` slots per rule). Wider rules fall back to the
/// shared [`MasterIndex`] cache for their sub-key probes.
const MAX_SUB_KEY_BITS: usize = 6;

/// One rule, compiled against a master index.
#[derive(Debug)]
pub struct CompiledRule {
    lhs: Box<[AttrId]>,
    lhs_m: Box<[AttrId]>,
    lhs_set: AttrSet,
    rhs: AttrId,
    rhs_m: AttrId,
    premise: AttrSet,
    pattern: PatternTuple,
    /// `λϕ` for each pattern attribute: the master column aligned with
    /// it when the pattern attribute is also a key, `None` otherwise.
    pattern_master: Box<[Option<AttrId>]>,
    /// `true` iff some pattern attribute is a key (precomputed for the
    /// no-validated-key branch of `applicable_rules`).
    pattern_on_keys: bool,
    /// `true` iff some master row matches the pattern cells on key
    /// attributes (trivially when none is): the master-side support
    /// check of `applicable_rules` when no key is validated, which
    /// depends on the rule and the master alone.
    pattern_supported: bool,
    /// The pinned full-key index (`Xm`).
    index: Arc<KeyIndex>,
    /// Lock-free per-subset index slots (`1 << |X|` entries when
    /// `|X| ≤ MAX_SUB_KEY_BITS`, empty otherwise). Slot `m` indexes the
    /// master columns `{Xm[i] : bit i of m}`; built on first use,
    /// read with one atomic load thereafter.
    sub: Box<[OnceLock<Arc<KeyIndex>>]>,
}

impl CompiledRule {
    /// `lhs(ϕ) = X`.
    pub fn lhs(&self) -> &[AttrId] {
        &self.lhs
    }

    /// `lhsm(ϕ) = Xm`.
    pub fn lhs_m(&self) -> &[AttrId] {
        &self.lhs_m
    }

    /// `X` as a set.
    pub fn lhs_set(&self) -> AttrSet {
        self.lhs_set
    }

    /// `rhs(ϕ) = B`.
    pub fn rhs(&self) -> AttrId {
        self.rhs
    }

    /// `rhsm(ϕ) = Bm`.
    pub fn rhs_m(&self) -> AttrId {
        self.rhs_m
    }

    /// `X ∪ Xp` — what must be validated before the rule may fire.
    pub fn premise(&self) -> AttrSet {
        self.premise
    }

    /// The (normalized) pattern `tp[Xp]`.
    pub fn pattern(&self) -> &PatternTuple {
        &self.pattern
    }

    /// `lhsp(ϕ) = Xp`.
    pub fn lhs_p(&self) -> &[AttrId] {
        self.pattern.attrs()
    }

    /// Per pattern cell, the master column `λϕ` aligns it with (when
    /// the pattern attribute is also a key). Parallel to
    /// [`lhs_p`](Self::lhs_p).
    pub fn pattern_master(&self) -> &[Option<AttrId>] {
        &self.pattern_master
    }

    /// `true` iff some pattern attribute is also a key attribute.
    pub fn pattern_on_keys(&self) -> bool {
        self.pattern_on_keys
    }

    /// `true` iff some master row `tm` satisfies
    /// `tm[λϕ(Xp ∩ X)] ≈ tp[Xp ∩ X]` — scanned once, at compile time
    /// (always `true` when no pattern attribute is a key).
    pub fn pattern_supported(&self) -> bool {
        self.pattern_supported
    }

    /// The pinned full-key index.
    pub fn index(&self) -> &Arc<KeyIndex> {
        &self.index
    }

    /// Bitmask (over lhs positions, ascending) of key attributes in
    /// `validated`.
    pub fn validated_mask(&self, validated: AttrSet) -> u64 {
        key_mask(&self.lhs, validated)
    }
}

/// Bitmask (over `lhs` positions, ascending) of the attributes in
/// `validated`.
fn key_mask(lhs: &[AttrId], validated: AttrSet) -> u64 {
    let mut mask = 0u64;
    for (i, &a) in lhs.iter().enumerate() {
        if validated.contains(a) {
            mask |= 1 << i;
        }
    }
    mask
}

/// The master attributes `λϕ(X ∩ Z)` at the `lhs_m` positions `mask`
/// (a [`key_mask`]) names, in key order: the key of a sub-key index.
fn sub_key(lhs_m: &[AttrId], mask: u64) -> Vec<AttrId> {
    lhs_m
        .iter()
        .enumerate()
        .filter(|&(j, _)| mask & (1 << j) != 0)
        .map(|(_, &a)| a)
        .collect()
}

/// Hit list returned by [`RulePlan::validated_candidates`]: borrowed
/// from a pinned index on the steady-state path, owned only on the
/// cold fallback for rules with more key attributes than the slot
/// table covers.
#[derive(Debug)]
pub enum PlanHits<'p> {
    /// Borrowed from a pinned [`KeyIndex`].
    Borrowed(&'p [u32]),
    /// Copied out of the shared master cache (wide-key fallback).
    Owned(Vec<u32>),
}

impl std::ops::Deref for PlanHits<'_> {
    type Target = [u32];

    fn deref(&self) -> &[u32] {
        match self {
            PlanHits::Borrowed(s) => s,
            PlanHits::Owned(v) => v,
        }
    }
}

/// Rules sharing one probe key, merged at compile time: all compiled
/// rules with identical `(X, Xm)` lists. Block probing pays one key
/// lookup per (tuple × group) instead of per (tuple × rule).
#[derive(Debug)]
struct ProbeGroup {
    lhs: Box<[AttrId]>,
    lhs_m: Box<[AttrId]>,
    /// The pinned `Xm` index the group's block spans point into.
    index: Arc<KeyIndex>,
    /// The distinct fix columns `Bm` of the group's rules.
    cols: Box<[AttrId]>,
    /// Span slot `s`'s summary on `cols[c]` at `s * cols.len() + c`,
    /// filled on first read (see the
    /// [module docs](self#factorised-spans)); empty when the index has
    /// no multi-row span.
    summaries: Box<[OnceLock<SpanSummary>]>,
}

/// "No such row" in a [`SpanSummary`].
const NO_ROW: u32 = u32::MAX;

/// What one hit list says about one master column `Bm`, in four row
/// ids ([`NO_ROW`] when absent); see the
/// [module docs](self#factorised-spans). Read it through [`FixHits`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct SpanSummary {
    /// The first row.
    first: u32,
    /// The first row whose `Bm` is non-null.
    non_null: u32,
    /// The first row whose `Bm` is null.
    null: u32,
    /// The first row after `non_null` whose non-null `Bm` differs from
    /// `non_null`'s.
    split: u32,
}

impl SpanSummary {
    /// The summary of an empty hit list.
    const EMPTY: SpanSummary = SpanSummary {
        first: NO_ROW,
        non_null: NO_ROW,
        null: NO_ROW,
        split: NO_ROW,
    };

    /// Summarise the ascending hit list `rows` on column `col` of
    /// `rel`: one walk, which stops once every field is known.
    fn of(rows: &[u32], rel: &Relation, col: AttrId) -> SpanSummary {
        let mut s = SpanSummary::EMPTY;
        let mut seen = Value::Null;
        for &row in rows {
            let v = *rel.tuple(row as usize).get(col);
            if s.first == NO_ROW {
                s.first = row;
            }
            if v.is_null() {
                if s.null == NO_ROW {
                    s.null = row;
                }
            } else if s.non_null == NO_ROW {
                s.non_null = row;
                seen = v;
            } else if s.split == NO_ROW && v != seen {
                s.split = row;
            }
            if s.split != NO_ROW && s.null != NO_ROW {
                break;
            }
        }
        s
    }
}

/// One rule's hit list on one tuple, read through its `SpanSummary`:
/// each question the chase, `TransFix` and the suggestion derivation
/// ask of a hit list, answered in O(1) with the row a walk of the list
/// would stop at ([`RulePlan::probe_fix`],
/// [`RulePlan::block_probe_fix`]).
#[derive(Clone, Copy, Debug)]
pub struct FixHits<'p> {
    summary: SpanSummary,
    rel: &'p Relation,
    col: AttrId,
}

impl FixHits<'_> {
    /// `tm[Bm]` of master row `row`.
    #[inline]
    pub fn value(&self, row: u32) -> Value {
        *self.rel.tuple(row as usize).get(self.col)
    }

    fn with_value(&self, row: u32) -> Option<(u32, Value)> {
        (row != NO_ROW).then(|| (row, self.value(row)))
    }

    /// The first row, if the list is non-empty.
    pub fn first(&self) -> Option<u32> {
        (self.summary.first != NO_ROW).then_some(self.summary.first)
    }

    /// The first row with a non-null `Bm`, and that value.
    pub fn first_non_null(&self) -> Option<(u32, Value)> {
        self.with_value(self.summary.non_null)
    }

    /// `true` iff two rows carry different non-null values of `Bm`.
    pub fn is_split(&self) -> bool {
        self.summary.split != NO_ROW
    }

    /// The first row whose `Bm` is not `== x` (a null equals a null),
    /// with its value.
    pub fn first_unequal(&self, x: &Value) -> Option<(u32, Value)> {
        let s = &self.summary;
        if x.is_null() {
            return self.first_non_null();
        }
        // the first non-null row unless it holds x, then the first
        // later non-null value that differs from it
        let non_null = match self.first_non_null() {
            Some((row, v)) if v != *x => row,
            _ => s.split,
        };
        self.with_value(non_null.min(s.null))
    }

    /// The first row whose `Bm` does not [`agrees_with`](Value::agrees_with)
    /// `x`, with its value (with a null `x`, that is the first row).
    pub fn first_disagreeing(&self, x: &Value) -> Option<(u32, Value)> {
        if x.is_null() {
            return self.with_value(self.summary.first);
        }
        self.first_unequal(x)
    }
}

/// A rule set compiled against one master index; see the
/// [module docs](self).
///
/// Also known as the *compiled rule set*: build once per
/// `(RuleSet, MasterIndex)`, share by reference across workers (the
/// plan is `Sync` — its mutable parts are `OnceLock` slots).
#[derive(Debug)]
pub struct RulePlan {
    master: MasterIndex,
    rules: Box<[CompiledRule]>,
    groups: Box<[ProbeGroup]>,
    /// Rule index → probe-group index.
    group_of: Box<[u32]>,
    /// Rule index → its fix column's position in its group's `cols`.
    col_of: Box<[u32]>,
}

impl RulePlan {
    /// Compile `rules` against `master`: build every cold full-key
    /// index of the rules at once ([`MasterIndex::build_all`], on all
    /// cores when the master is large), pin one per rule, precompute
    /// the per-rule probe layout, and allocate every probe group's
    /// table of span summaries on its fix columns. A snapshot a delta
    /// made starts cold, so this is where its indexes are built; on a
    /// warm master (every `Xm` already built, as by an earlier compile
    /// over the same snapshot) it builds nothing.
    pub fn compile(rules: &RuleSet, master: &MasterIndex) -> RulePlan {
        Self::compile_for_region(rules, master, &[])
    }

    /// [`compile`](Self::compile) for repairs whose first round
    /// validates the region `z0`: its one [`MasterIndex::build_all`]
    /// also builds, for every rule whose key `X` the region covers in
    /// part, the sub-key index `λϕ(X ∩ Z0)` that the first round's
    /// [`validated_candidates`](Self::validated_candidates) probes, so
    /// that no batch builds it on a worker. A sub-key that is some
    /// rule's `Xm` builds once, as that.
    pub fn compile_for_region(rules: &RuleSet, master: &MasterIndex, z0: &[AttrId]) -> RulePlan {
        let z0 = AttrSet::collect_from(z0.iter().copied());
        let sub_keys = rules.iter().filter_map(|(_, rule)| {
            let mask = key_mask(rule.lhs(), z0);
            let partial = mask != 0 && (mask.count_ones() as usize) < rule.lhs().len();
            partial.then(|| sub_key(rule.lhs_m(), mask))
        });
        let keys: Vec<Vec<AttrId>> = (rules.iter())
            .map(|(_, rule)| rule.lhs_m().to_vec())
            .chain(sub_keys)
            .collect();
        master.build_all(&keys);
        let compiled: Box<[CompiledRule]> = rules
            .iter()
            .map(|(_, rule)| {
                let pattern_master: Box<[Option<AttrId>]> = rule
                    .lhs_p()
                    .iter()
                    .map(|&a| rule.master_attr_for(a))
                    .collect();
                let pattern_on_keys = pattern_master.iter().any(Option::is_some);
                let pattern_supported = !pattern_on_keys
                    || master.relation().iter().any(|tm| {
                        rule.pattern()
                            .cells()
                            .iter()
                            .zip(&pattern_master)
                            .all(|(cell, ma)| ma.map_or(true, |ma| cell.matches(tm.get(ma))))
                    });
                let sub_len = if rule.lhs().len() <= MAX_SUB_KEY_BITS {
                    1usize << rule.lhs().len()
                } else {
                    0
                };
                let mut sub = Vec::with_capacity(sub_len);
                sub.resize_with(sub_len, OnceLock::new);
                CompiledRule {
                    lhs: rule.lhs().into(),
                    lhs_m: rule.lhs_m().into(),
                    lhs_set: rule.lhs_set(),
                    rhs: rule.rhs(),
                    rhs_m: rule.rhs_m(),
                    premise: rule.premise(),
                    pattern: rule.pattern().clone(),
                    pattern_master,
                    pattern_on_keys,
                    pattern_supported,
                    index: master.index_for(rule.lhs_m()),
                    sub: sub.into_boxed_slice(),
                }
            })
            .collect();
        // merge rules with an identical (X, Xm) into probe groups, and
        // give each group the distinct fix columns its rules read
        let mut groups: Vec<ProbeGroup> = Vec::new();
        let mut cols: Vec<Vec<AttrId>> = Vec::new();
        let mut group_of = Vec::with_capacity(compiled.len());
        let mut col_of = Vec::with_capacity(compiled.len());
        for cr in compiled.iter() {
            let g = groups
                .iter()
                .position(|g| g.lhs == cr.lhs && g.lhs_m == cr.lhs_m)
                .unwrap_or_else(|| {
                    groups.push(ProbeGroup {
                        lhs: cr.lhs.clone(),
                        lhs_m: cr.lhs_m.clone(),
                        index: Arc::clone(&cr.index),
                        cols: Box::default(),
                        summaries: Box::default(),
                    });
                    cols.push(Vec::new());
                    groups.len() - 1
                });
            let c = cols[g]
                .iter()
                .position(|&c| c == cr.rhs_m)
                .unwrap_or_else(|| {
                    cols[g].push(cr.rhs_m);
                    cols[g].len() - 1
                });
            group_of.push(g as u32);
            col_of.push(c as u32);
        }
        for (grp, cols) in groups.iter_mut().zip(cols) {
            let entries = grp.index.span_slots() * cols.len();
            grp.summaries = (0..entries).map(|_| OnceLock::new()).collect();
            grp.cols = cols.into_boxed_slice();
        }
        RulePlan {
            master: master.clone(),
            rules: compiled,
            groups: groups.into_boxed_slice(),
            group_of: group_of.into_boxed_slice(),
            col_of: col_of.into_boxed_slice(),
        }
    }

    /// The master index the plan was compiled against.
    pub fn master(&self) -> &MasterIndex {
        &self.master
    }

    /// The master *generation* the plan was compiled against (see the
    /// [module docs](self#slot-invalidation-live-master-data)): all
    /// pinned and sub-key slot indexes resolve against exactly this
    /// snapshot, so a plan never observes a delta — engines swap in a
    /// freshly compiled plan instead.
    pub fn generation(&self) -> u64 {
        self.master.generation()
    }

    /// Number of compiled rules (equals the source rule set's).
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// `true` iff the plan compiles no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// The compiled form of rule `i`.
    pub fn rule(&self, i: usize) -> &CompiledRule {
        &self.rules[i]
    }

    /// Iterate `(index, compiled rule)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &CompiledRule)> {
        self.rules.iter().enumerate()
    }

    /// The candidate masters of rule `i` on `t` — all `tm` with
    /// `tm[Xm] = t[X]`, empty when the pattern does not match or `t[X]`
    /// contains a null. Identical ids, in identical order, to
    /// [`candidate_masters`](crate::apply::candidate_masters); borrows
    /// the hit list from the pinned index and allocates nothing once
    /// the scratch is warm.
    pub fn candidates<'p>(&'p self, i: usize, t: &Tuple, scratch: &mut ProbeScratch) -> &'p [u32] {
        let rule = &self.rules[i];
        if !rule.pattern.matches(t) {
            return &[];
        }
        self.probe(i, t, scratch)
    }

    /// The raw key probe of rule `i` (no pattern pre-check): all `tm`
    /// with `tm[Xm] = t[X]`.
    pub fn probe<'p>(&'p self, i: usize, t: &Tuple, scratch: &mut ProbeScratch) -> &'p [u32] {
        let rule = &self.rules[i];
        scratch.lookup(&rule.index, t, &rule.lhs)
    }

    /// Rule `i`'s raw key probe on `t`, like [`probe`](Self::probe)
    /// (one logical probe), answered by the hit list's span summary on
    /// the rule's fix column instead of its rows.
    pub fn probe_fix<'p>(&'p self, i: usize, t: &Tuple, scratch: &mut ProbeScratch) -> FixHits<'p> {
        let g = self.group_of(i);
        let grp = &self.groups[g];
        let span = scratch.locate(&grp.index, t, &grp.lhs);
        self.fix_hits(i, span)
    }

    /// Rule `i`'s [`FixHits`] for a span of its group's pinned index.
    fn fix_hits(&self, i: usize, span: Span) -> FixHits<'_> {
        let g = self.group_of(i);
        FixHits {
            summary: self.summary(g, span, self.col_of[i] as usize),
            rel: self.master.relation(),
            col: self.rules[i].rhs_m,
        }
    }

    /// Group `g`'s summary of `span` on its `c`-th fix column: a
    /// one-row or empty span is read directly, a multi-row span's
    /// table entry is filled by its first reader.
    fn summary(&self, g: usize, span: Span, c: usize) -> SpanSummary {
        let grp = &self.groups[g];
        let (rows, rel) = (grp.index.hits(span.range()), self.master.relation());
        if span.slot == NO_SLOT {
            return SpanSummary::of(rows, rel, grp.cols[c]);
        }
        *grp.summaries[span.slot as usize * grp.cols.len() + c]
            .get_or_init(|| SpanSummary::of(rows, rel, grp.cols[c]))
    }

    /// Bytes of span-summary tables the plan holds, over all probe
    /// groups.
    pub fn summary_bytes(&self) -> usize {
        self.groups
            .iter()
            .map(|g| std::mem::size_of_val(&*g.summaries))
            .sum()
    }

    /// Look rule `i`'s pinned full-key index up with caller-supplied
    /// probe values (in `Xm` order). Used by offline analyses that
    /// probe with pattern constants rather than a tuple projection.
    pub fn lookup<'p>(&'p self, i: usize, probe: &[Value]) -> &'p [u32] {
        self.rules[i].index.lookup(probe)
    }

    /// Number of probe groups — rules sharing an identical `(X, Xm)`
    /// key are merged and pay one key probe per tuple between them
    /// (see the [module docs](self#block-probing)).
    pub fn probe_groups(&self) -> usize {
        self.groups.len()
    }

    /// The probe group rule `i` belongs to.
    #[inline]
    fn group_of(&self, i: usize) -> usize {
        self.group_of[i] as usize
    }

    /// Begin a block-probe session over `n` tuples: size and clear the
    /// scratch's block state. Until the next `begin_block` (or
    /// [`probe_block_seeds`](Self::probe_block_seeds), which begins its
    /// own session), cells filled by
    /// [`plan_probe_block`](Self::plan_probe_block) are readable
    /// through [`block_probe`](Self::block_probe) and
    /// [`block_probe_fix`](Self::block_probe_fix).
    pub fn begin_block(&self, n: usize, scratch: &mut ProbeScratch) {
        let lanes = n.div_ceil(64);
        let b = &mut scratch.block;
        let mut grew = 0u64;
        let cap = b.spans.capacity();
        b.spans.clear();
        b.spans.resize(self.groups.len() * n, NO_SPAN);
        grew += (b.spans.capacity() != cap) as u64;
        let cap = b.group_done.capacity();
        b.group_done.clear();
        b.group_done.resize(self.groups.len(), false);
        grew += (b.group_done.capacity() != cap) as u64;
        let cap = b.needed.capacity();
        b.needed.clear();
        b.needed.resize(self.groups.len() * lanes, 0);
        grew += (b.needed.capacity() != cap) as u64;
        b.len = n;
        b.lanes = lanes;
        scratch.allocs += grew;
    }

    /// Give group `g`'s needed cells their spans into the group's
    /// pinned index: one lookup per cell, whatever the key width.
    /// `tuple(j)` is block tuple `j`.
    fn probe_group<'t>(
        &self,
        g: usize,
        tuple: impl Fn(usize) -> &'t Tuple,
        scratch: &mut ProbeScratch,
    ) {
        let grp = &self.groups[g];
        let ProbeScratch {
            probe,
            block: b,
            allocs,
            ..
        } = scratch;
        if b.group_done[g] {
            return;
        }
        b.group_done[g] = true;
        let n = b.len;
        let needed = &b.needed[g * b.lanes..(g + 1) * b.lanes];
        let spans = &mut b.spans[g * n..(g + 1) * n];
        let cap = probe.capacity();
        for_each_marked(needed, n, |j| {
            probe.clear();
            probe.extend(grp.lhs.iter().map(|&a| *tuple(j).get(a)));
            spans[j] = grp.index.locate(probe);
        });
        *allocs += (probe.capacity() != cap) as u64;
    }

    /// Probe rule `i` against a whole block of tuples at once — the
    /// vectorized analogue of calling [`probe`](Self::probe) per tuple.
    /// Requires an active [`begin_block`](Self::begin_block) session of
    /// the same length. The rule's probe group is resolved for **every**
    /// block cell (the first member rule pays; siblings ride along).
    /// Results are read back per cell with
    /// [`block_probe`](Self::block_probe).
    pub fn plan_probe_block(&self, i: usize, block: &[&Tuple], scratch: &mut ProbeScratch) {
        debug_assert_eq!(
            block.len(),
            scratch.block.len,
            "begin_block sizes the session"
        );
        let g = self.group_of(i);
        let b = &mut scratch.block;
        b.needed[g * b.lanes..(g + 1) * b.lanes].fill(!0);
        self.probe_group(g, |j| block[j], scratch);
    }

    /// Bulk prefetch for a block `TransFix` pass over `(tuple,
    /// validated)` items: begin a session and probe, per probe group,
    /// exactly the cells some member rule could consume as a seed on
    /// item `j` — premise within its validated set, fix target
    /// unvalidated, pattern matching the tuple as handed in. Cells no
    /// rule can seed from stay unprefetched and fall back to
    /// single-tuple probes.
    pub fn probe_block_seeds(&self, items: &[(&Tuple, AttrSet)], scratch: &mut ProbeScratch) {
        self.begin_block(items.len(), scratch);
        let b = &mut scratch.block;
        for (i, rule) in self.rules.iter().enumerate() {
            let base = self.group_of(i) * b.lanes;
            for (j, (t, z)) in items.iter().enumerate() {
                if rule.premise.is_subset(z) && !z.contains(rule.rhs) && rule.pattern.matches(t) {
                    b.needed[base + j / 64] |= 1 << (j % 64);
                }
            }
        }
        for g in 0..self.groups.len() {
            self.probe_group(g, |j| items[j].0, scratch);
        }
    }

    /// The prefetched raw key probe of rule `i` on block tuple `j` —
    /// bit-identical to [`probe`](Self::probe) on that tuple, and
    /// borrowed from the plan's pinned index like it. Counts one
    /// *logical* probe on consumption (so `plan_probes` is block-size
    /// independent); `None` when the cell was not prefetched.
    #[inline]
    pub fn block_probe<'p>(
        &'p self,
        i: usize,
        j: usize,
        scratch: &mut ProbeScratch,
    ) -> Option<&'p [u32]> {
        let g = self.group_of(i);
        let span = self.block_span(i, j, scratch)?;
        Some(self.groups[g].index.hits(span.range()))
    }

    /// [`block_probe`](Self::block_probe) answered by the span summary
    /// on rule `i`'s fix column, like [`probe_fix`](Self::probe_fix).
    #[inline]
    pub fn block_probe_fix<'p>(
        &'p self,
        i: usize,
        j: usize,
        scratch: &mut ProbeScratch,
    ) -> Option<FixHits<'p>> {
        let span = self.block_span(i, j, scratch)?;
        Some(self.fix_hits(i, span))
    }

    /// Consume rule `i`'s prefetched cell for block tuple `j` (one
    /// logical probe), `None` when it was not prefetched.
    #[inline]
    fn block_span(&self, i: usize, j: usize, scratch: &mut ProbeScratch) -> Option<Span> {
        let g = self.group_of(i);
        let span = scratch.block.spans[g * scratch.block.len + j];
        if span == NO_SPAN {
            return None;
        }
        scratch.probes += 1;
        Some(span)
    }

    /// The `t[X ∩ Z] = tm[λϕ(X ∩ Z)]` probe of `applicable_rules`
    /// (Sect. 5.2): candidates of rule `i` matching `t` on the
    /// validated subset of its key. Returns `None` when no key
    /// attribute is validated (`mask == 0`); the sub-key index is
    /// served from the plan's lock-free slot table (or the shared
    /// master cache for extra-wide keys), so the steady-state split
    /// needs no `from`/`to` vectors and no lock.
    pub fn validated_candidates<'p>(
        &'p self,
        i: usize,
        t: &Tuple,
        validated: AttrSet,
        scratch: &mut ProbeScratch,
    ) -> Option<PlanHits<'p>> {
        let rule = &self.rules[i];
        let mask = rule.validated_mask(validated);
        if mask == 0 {
            return None;
        }
        if mask.count_ones() as usize == rule.lhs.len() {
            return Some(PlanHits::Borrowed(scratch.lookup(
                &rule.index,
                t,
                &rule.lhs,
            )));
        }
        if (mask as usize) < rule.sub.len() {
            let idx = rule.sub[mask as usize]
                .get_or_init(|| self.master.index_for(&sub_key(&rule.lhs_m, mask)));
            Some(PlanHits::Borrowed(
                scratch.lookup_masked(idx, t, &rule.lhs, mask),
            ))
        } else {
            // extra-wide key list: no preallocated slot — go through
            // the shared master cache and copy the (short) hit list
            scratch.fallbacks += 1;
            let idx = self.master.index_for(&sub_key(&rule.lhs_m, mask));
            Some(PlanHits::Owned(
                scratch.lookup_masked(&idx, t, &rule.lhs, mask).to_vec(),
            ))
        }
    }
}

/// Compile-time audit: the plan is shared by reference across repair
/// workers, so it (and its scratch-free parts) must be `Send + Sync`.
#[allow(dead_code)]
fn _send_sync_audit() {
    fn check<T: Send + Sync>() {}
    check::<RulePlan>();
    check::<CompiledRule>();
    check::<ProbeScratch>();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apply::candidate_masters;
    use crate::parse::parse_rules;
    use certainfix_relation::{tuple, Relation, Schema};
    use std::sync::Arc;

    fn fig1() -> (Arc<Schema>, RuleSet, MasterIndex) {
        let r = Schema::new(
            "R",
            [
                "fn", "ln", "AC", "phn", "type", "str", "city", "zip", "item",
            ],
        )
        .unwrap();
        let rm = Schema::new(
            "Rm",
            [
                "FN", "LN", "AC", "Hphn", "Mphn", "str", "city", "zip", "DOB", "gender",
            ],
        )
        .unwrap();
        let rules = parse_rules(
            r#"
            phi1: match zip ~ zip set AC := AC, str := str, city := city
            phi2: match phn ~ Mphn set fn := FN, ln := LN when type = 2
            phi3: match AC ~ AC, phn ~ Hphn set str := str, city := city, zip := zip when type = 1, AC != '0800'
            "#,
            &r,
            &rm,
        )
        .unwrap();
        let master = Relation::new(
            rm,
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
        .unwrap();
        (r, rules, MasterIndex::new(Arc::new(master)))
    }

    fn t1() -> Tuple {
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
        ]
    }

    #[test]
    fn compile_pins_one_index_per_rule() {
        let (_, rules, master) = fig1();
        assert_eq!(master.cached_indexes(), 0);
        let plan = RulePlan::compile(&rules, &master);
        assert_eq!(plan.len(), rules.len());
        assert!(!plan.is_empty());
        // distinct key lists: {zip}, {Mphn}, {AC, Hphn}
        assert_eq!(master.cached_indexes(), 3);
        let builds = master.index_builds();
        // recompiling reuses every cached index
        let _again = RulePlan::compile(&rules, &master);
        assert_eq!(master.index_builds(), builds);
    }

    /// On a master past the parallel build cutoff, compile builds each
    /// distinct `Xm` once, whichever thread builds it, and a compile on
    /// the warm master builds nothing and pins the same indexes.
    #[test]
    fn compile_on_a_warm_master_builds_nothing() {
        use certainfix_relation::index::PARALLEL_BUILD_MIN;
        let (_, rules, small) = fig1();
        let rows = small.relation().tuples();
        let tiled = (0..PARALLEL_BUILD_MIN).map(|i| rows[i % rows.len()].clone());
        let rel = Relation::new(Arc::clone(small.relation().schema()), tiled.collect()).unwrap();
        let master = MasterIndex::new(Arc::new(rel));
        let cold = RulePlan::compile(&rules, &master);
        assert_eq!(master.index_builds(), 3, "{{zip}}, {{Mphn}}, {{AC, Hphn}}");
        let warm = RulePlan::compile(&rules, &master);
        assert_eq!(master.index_builds(), 3);
        for i in 0..rules.len() {
            assert!(Arc::ptr_eq(cold.rule(i).index(), warm.rule(i).index()));
        }
        // t1's zip is master row 0's, so every copy of row 0 matches
        let hits = cold.candidates(0, &t1(), &mut ProbeScratch::new()).len();
        assert_eq!(hits, PARALLEL_BUILD_MIN.div_ceil(rows.len()));
    }

    /// The slot-invalidation contract: recompiling against the
    /// next-generation master yields a plan that sees the delta, while
    /// the old plan keeps answering for its own generation. The delta
    /// builds no index; the recompile builds each distinct `Xm` once
    /// over the new rows, counted as a patch.
    #[test]
    fn recompiled_plans_pick_up_the_next_generation() {
        use certainfix_relation::MasterDelta;
        let (_, rules, master) = fig1();
        let plan = RulePlan::compile(&rules, &master);
        assert_eq!(plan.generation(), 0);
        let builds = master.index_builds();
        assert_eq!((builds, master.index_patches()), (3, 0));
        let next = master
            .apply_delta(&MasterDelta::new().update(
                1,
                tuple![
                    "Mark",
                    "Smith",
                    "020",
                    "6884563",
                    "075568485",
                    "20 Baker St.",
                    "Lnd",
                    "EH7 4AH", // now shares t1's zip
                    "25/12/67",
                    "M"
                ],
            ))
            .unwrap();
        assert_eq!(next.cached_indexes(), 0, "a delta builds nothing");
        assert_eq!(next.index_patches(), 0);
        let plan2 = RulePlan::compile(&rules, &next);
        assert_eq!(plan2.generation(), 1);
        assert_eq!(next.cached_indexes(), 3);
        assert_eq!(
            (master.index_builds(), master.index_patches()),
            (builds, 3),
            "{{zip}}, {{Mphn}}, {{AC, Hphn}}, each built once into the new snapshot"
        );
        let mut scratch = ProbeScratch::new();
        // rule 0 keys on zip: the old plan still sees one master row,
        // the recompiled plan sees both
        assert_eq!(plan.candidates(0, &t1(), &mut scratch), &[0]);
        assert_eq!(plan2.candidates(0, &t1(), &mut scratch), &[0, 1]);
    }

    #[test]
    fn plan_candidates_match_legacy_for_every_rule() {
        let (_, rules, master) = fig1();
        let plan = RulePlan::compile(&rules, &master);
        let mut scratch = ProbeScratch::new();
        for (i, rule) in rules.iter() {
            let legacy = candidate_masters(rule, &t1(), &master);
            assert_eq!(plan.candidates(i, &t1(), &mut scratch), &legacy[..], "{i}");
        }
        assert!(scratch.probes() > 0);
    }

    #[test]
    fn steady_state_probes_do_not_allocate() {
        let (_, rules, master) = fig1();
        let plan = RulePlan::compile(&rules, &master);
        let mut scratch = ProbeScratch::new();
        // warmup: the widest key list sizes the buffer
        for (i, _) in rules.iter() {
            let _ = plan.candidates(i, &t1(), &mut scratch);
        }
        let _ = scratch.take_counters();
        for _ in 0..16 {
            for (i, _) in rules.iter() {
                let _ = plan.candidates(i, &t1(), &mut scratch);
            }
        }
        let (probes, allocs, _) = scratch.take_counters();
        assert!(probes > 0, "pattern-passing rules probed");
        assert_eq!(allocs, 0, "steady-state lookups are allocation-free");
    }

    #[test]
    fn validated_candidates_resolve_the_key_split() {
        let (r, rules, master) = fig1();
        let plan = RulePlan::compile(&rules, &master);
        let mut scratch = ProbeScratch::new();
        let phi3 = 5; // phi3.str is rule index 5 (phi1 ×3, phi2 ×2, then phi3)
        let cr = plan.rule(phi3);
        assert_eq!(cr.lhs().len(), 2, "phi3 keys on AC, phn");

        // no validated keys → None
        assert!(plan
            .validated_candidates(phi3, &t1(), AttrSet::EMPTY, &mut scratch)
            .is_none());

        // AC validated only: the sub-key probe on AC alone. t1[AC]=020
        // matches s2's AC.
        let z = AttrSet::singleton(r.attr("AC").unwrap());
        let hits = plan
            .validated_candidates(phi3, &t1(), z, &mut scratch)
            .unwrap();
        assert_eq!(&*hits, &[1]);
        assert!(matches!(hits, PlanHits::Borrowed(_)));

        // both keys validated: the pinned full index answers. t1[phn]
        // is the mobile number, which is nobody's home phone.
        let z2 = z | AttrSet::singleton(r.attr("phn").unwrap());
        let hits2 = plan
            .validated_candidates(phi3, &t1(), z2, &mut scratch)
            .unwrap();
        assert!(hits2.is_empty());

        // the sub-slot was built once and is reused
        let builds = master.index_builds();
        for _ in 0..4 {
            let _ = plan.validated_candidates(phi3, &t1(), z, &mut scratch);
        }
        assert_eq!(master.index_builds(), builds);
    }

    /// Every [`FixHits`] answer names the row a walk of the hit list
    /// stops at: multi-row spans mixing equal values, nulls and a
    /// split, a one-row span, a null-only span and a miss.
    #[test]
    fn fix_hits_answer_like_a_walk() {
        let r = Schema::new("R", ["zip", "city", "ac"]).unwrap();
        let rows = vec![
            tuple!["Z1", "Edi", "131"],
            tuple!["Z1", Value::Null, "131"],
            tuple!["Z2", Value::Null, Value::Null],
            tuple!["Z1", "Edi", Value::Null],
            tuple!["Z3", "Gla", "141"],
            tuple!["Z1", "Lnd", "131"],
            tuple!["Z4", Value::Null, "020"],
            tuple!["Z4", Value::Null, "020"],
        ];
        let master = MasterIndex::new(Arc::new(Relation::new(r.clone(), rows).unwrap()));
        let rules = parse_rules("p: match zip ~ zip set city := city, ac := ac", &r, &r).unwrap();
        let plan = RulePlan::compile(&rules, &master);
        assert_eq!(plan.probe_groups(), 1);
        let entry = std::mem::size_of::<OnceLock<SpanSummary>>();
        assert_eq!(
            plan.summary_bytes(),
            2 * 2 * entry,
            "Z1 and Z4, on city and ac"
        );
        let mut scratch = ProbeScratch::new();
        let xs = [
            Value::Null,
            Value::str("Edi"),
            Value::str("Lnd"),
            Value::str("131"),
        ];
        for zip in ["Z1", "Z2", "Z3", "Z4", "Z9"] {
            let t = tuple![zip, Value::Null, Value::Null];
            for i in 0..plan.len() {
                let ids = plan.probe(i, &t, &mut scratch).to_vec();
                let hits = plan.probe_fix(i, &t, &mut scratch);
                let val = |id: &u32| hits.value(*id);
                let find = |p: &dyn Fn(&Value) -> bool| {
                    ids.iter().find(|id| p(&val(id))).map(|&id| (id, val(&id)))
                };
                assert_eq!(hits.first(), ids.first().copied(), "{zip} rule {i}");
                let first_non_null = find(&|v| !v.is_null());
                assert_eq!(hits.first_non_null(), first_non_null);
                let split = first_non_null.and_then(|(_, w)| find(&|v| !v.is_null() && *v != w));
                assert_eq!(hits.is_split(), split.is_some());
                for x in &xs {
                    assert_eq!(hits.first_unequal(x), find(&|v| v != x), "{zip} {x}");
                    assert_eq!(
                        hits.first_disagreeing(x),
                        find(&|v| !v.agrees_with(x)),
                        "{zip} {x}"
                    );
                }
            }
        }
    }

    /// The pattern-support scan of `applicable_rules` runs once, at
    /// compile time: `phi4` pins `AC = '0800'`, which no master row
    /// holds, so it compiles unsupported; the other rules are
    /// supported (phi3's `AC != '0800'` matches both rows).
    #[test]
    fn pattern_support_is_compiled_once() {
        let (_, rules, master) = fig1();
        let phi4 = parse_rules(
            "phi4: match AC ~ AC set city := city when AC = '0800'",
            rules.r_schema(),
            rules.m_schema(),
        )
        .unwrap();
        let plan = RulePlan::compile(&phi4, &master);
        assert!(plan.rule(0).pattern_on_keys());
        assert!(!plan.rule(0).pattern_supported(), "no master AC is 0800");
        let plan = RulePlan::compile(&rules, &master);
        assert!(plan.iter().all(|(_, r)| r.pattern_supported()));
    }

    #[test]
    fn null_keys_and_pattern_mismatch_yield_empty() {
        let (r, rules, master) = fig1();
        let plan = RulePlan::compile(&rules, &master);
        let mut scratch = ProbeScratch::new();
        let mut t = t1();
        t.set(r.attr("zip").unwrap(), Value::Null);
        assert!(plan.candidates(0, &t, &mut scratch).is_empty(), "null key");
        let mut t2 = t1();
        t2.set(r.attr("type").unwrap(), Value::int(9));
        // phi2.fn (index 3) requires type = 2
        assert!(
            plan.candidates(3, &t2, &mut scratch).is_empty(),
            "pattern mismatch"
        );
    }

    /// A block of fig. 1 variants exercising every edge the block layer
    /// must agree with the single-tuple path on: shared keys, null
    /// keys, key misses, and pattern mismatches.
    fn fig1_block(r: &Schema) -> Vec<Tuple> {
        let mut tnull = t1();
        tnull.set(r.attr("zip").unwrap(), Value::Null);
        tnull.set(r.attr("phn").unwrap(), Value::Null);
        let mut tmiss = t1();
        tmiss.set(r.attr("zip").unwrap(), Value::str("XX9 9XX"));
        let mut tpat = t1();
        tpat.set(r.attr("type").unwrap(), Value::int(9));
        let mut tother = t1();
        tother.set(r.attr("zip").unwrap(), Value::str("NW1 6XE"));
        tother.set(r.attr("phn").unwrap(), Value::str("6884563"));
        tother.set(r.attr("type").unwrap(), Value::int(1));
        // t1 twice: a key repeated inside one block
        vec![t1(), tnull, tmiss, tpat, tother, t1()]
    }

    #[test]
    fn rules_sharing_keys_merge_into_probe_groups() {
        let (_, rules, master) = fig1();
        let plan = RulePlan::compile(&rules, &master);
        // distinct (X, Xm): {zip/zip}, {phn/Mphn}, {AC,phn / AC,Hphn}
        assert_eq!(plan.probe_groups(), 3);
        assert_eq!(plan.len(), 8);
        // phi1's three set-clauses share a group, and so on
        let groups: Vec<usize> = (0..plan.len()).map(|i| plan.group_of(i)).collect();
        assert_eq!(groups, [0, 0, 0, 1, 1, 2, 2, 2]);
    }

    #[test]
    fn block_probe_matches_single_tuple_probe() {
        let (r, rules, master) = fig1();
        let plan = RulePlan::compile(&rules, &master);
        let tuples = fig1_block(&r);
        let block: Vec<&Tuple> = tuples.iter().collect();
        let mut single = ProbeScratch::new();
        let mut blocked = ProbeScratch::new();
        plan.begin_block(block.len(), &mut blocked);
        for i in 0..plan.len() {
            plan.plan_probe_block(i, &block, &mut blocked);
        }
        for i in 0..plan.len() {
            for (j, t) in block.iter().enumerate() {
                let want = plan.probe(i, t, &mut single).to_vec();
                let got = plan
                    .block_probe(i, j, &mut blocked)
                    .expect("plan_probe_block prefetches every cell");
                assert_eq!(got, &want[..], "rule {i} tuple {j}");
                let want = plan.probe_fix(i, t, &mut single);
                let got = plan.block_probe_fix(i, j, &mut blocked).unwrap();
                let answers = |h: FixHits| (h.first(), h.first_non_null(), h.is_split());
                assert_eq!(answers(got), answers(want), "rule {i} tuple {j}");
            }
        }
        // logical probe counting: consuming a prefetched cell costs the
        // same one probe the single-tuple path pays
        assert_eq!(blocked.probes(), single.probes());
    }

    #[test]
    fn block_probing_is_allocation_free_once_warm() {
        let (r, rules, master) = fig1();
        let plan = RulePlan::compile(&rules, &master);
        let tuples = fig1_block(&r);
        let block: Vec<&Tuple> = tuples.iter().collect();
        let mut scratch = ProbeScratch::new();
        for round in 0..3 {
            plan.begin_block(block.len(), &mut scratch);
            for i in 0..plan.len() {
                plan.plan_probe_block(i, &block, &mut scratch);
            }
            let (_, allocs, _) = scratch.take_counters();
            if round > 0 {
                assert_eq!(allocs, 0, "warm block sessions allocate nothing");
            }
        }
    }

    #[test]
    fn seed_prefetch_fills_exactly_the_seedable_cells() {
        let (r, rules, master) = fig1();
        let plan = RulePlan::compile(&rules, &master);
        let tuples = fig1_block(&r);
        let block: Vec<&Tuple> = tuples.iter().collect();
        let zip = AttrSet::singleton(r.attr("zip").unwrap());
        let phn_type = AttrSet::singleton(r.attr("phn").unwrap())
            | AttrSet::singleton(r.attr("type").unwrap());
        // tuple 0 can seed the zip-keyed rules; tuple 1 has nothing
        // validated, so no rule's premise holds there; phi2's premise
        // holds on tuples 3 and 5, but only tuple 5 matches `type = 2`
        let mut items: Vec<(&Tuple, AttrSet)> =
            block.iter().map(|&t| (t, AttrSet::EMPTY)).collect();
        items[0].1 = zip;
        items[3].1 = phn_type;
        items[5].1 = phn_type;
        let mut scratch = ProbeScratch::new();
        plan.probe_block_seeds(&items, &mut scratch);
        // prefetched hits equal the single-tuple probe
        let mut single = ProbeScratch::new();
        let want = plan.probe(0, block[0], &mut single).to_vec();
        let got = plan.block_probe(0, 0, &mut scratch);
        assert_eq!(got, Some(&want[..]), "phi1 seeds on tuple 0");
        assert!(
            plan.block_probe(0, 1, &mut scratch).is_none(),
            "nothing validated"
        );
        // phi2 (premise {phn, type}, index 3)
        assert!(plan.block_probe(3, 0, &mut scratch).is_none());
        assert!(
            plan.block_probe(3, 3, &mut scratch).is_none(),
            "pattern fails"
        );
        let want = plan.probe(3, block[5], &mut single).to_vec();
        assert_eq!(plan.block_probe(3, 5, &mut scratch), Some(&want[..]));
    }

    #[test]
    fn wide_keys_fall_back_and_count() {
        let r = Schema::new("W", ["k1", "k2", "k3", "k4", "k5", "k6", "k7", "v"]).unwrap();
        let rm = Schema::new("Wm", ["K1", "K2", "K3", "K4", "K5", "K6", "K7", "V"]).unwrap();
        let rules = parse_rules(
            "wide: match k1 ~ K1, k2 ~ K2, k3 ~ K3, k4 ~ K4, k5 ~ K5, k6 ~ K6, k7 ~ K7 set v := V",
            &r,
            &rm,
        )
        .unwrap();
        let master =
            Relation::new(rm, vec![tuple!["a", "b", "c", "d", "e", "f", "g", "val"]]).unwrap();
        let mi = MasterIndex::new(Arc::new(master));
        let plan = RulePlan::compile(&rules, &mi);
        assert_eq!(plan.rule(0).lhs().len(), 7, "wider than MAX_SUB_KEY_BITS");
        let mut scratch = ProbeScratch::new();
        let t = tuple!["a", "b", "c", "d", "e", "f", "g", "wrong"];
        // full key validated: the pinned index answers, no fallback
        let mut all = AttrSet::EMPTY;
        for name in ["k1", "k2", "k3", "k4", "k5", "k6", "k7"] {
            all.insert(r.attr(name).unwrap());
        }
        let hits = plan.validated_candidates(0, &t, all, &mut scratch).unwrap();
        assert!(matches!(hits, PlanHits::Borrowed(_)));
        assert_eq!(&*hits, &[0]);
        assert_eq!(scratch.fallbacks(), 0);
        // partial key on a 7-wide rule: no preallocated sub-slot —
        // the observable wide-key fallback
        let partial =
            AttrSet::singleton(r.attr("k1").unwrap()) | AttrSet::singleton(r.attr("k3").unwrap());
        let hits = plan
            .validated_candidates(0, &t, partial, &mut scratch)
            .unwrap();
        assert!(matches!(hits, PlanHits::Owned(_)));
        assert_eq!(&*hits, &[0]);
        assert_eq!(scratch.fallbacks(), 1);
        let (_, _, fallbacks) = scratch.take_counters();
        assert_eq!(fallbacks, 1);
        assert_eq!(scratch.fallbacks(), 0, "drained");
    }
}
