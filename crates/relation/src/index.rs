//! Hash indexes over master data.
//!
//! Rule application must find master tuples `tm` with `tm[Xm] = t[X]`
//! (Sect. 2). A `TransFix` run probes many different key lists `Xm`, so
//! [`MasterIndex`] lazily builds and caches one [`KeyIndex`] per
//! distinct attribute list. The paper's complexity analysis of
//! `TransFix` ("it takes constant time to check whether there exists a
//! master tuple that is applicable, by using a hash table that stores
//! `tm[Xm]` as a key") is realized here.
//!
//! A [`KeyIndex`] is that one flat hash table and nothing more: all of
//! its hit lists share one contiguous `rows` buffer, grouped by key, and
//! the table maps each distinct key to its `(start, len)` span there.
//! [`KeyIndex::build`] is a counting scatter, so the buffer is allocated
//! once however many distinct keys the column holds. A span stays valid
//! for as long as the index is pinned, which is what lets the block
//! layer of `certainfix-rules` hold spans instead of copies.
//!
//! Every span of two or more rows also gets a dense **span slot**
//! `0..span_slots()`, assigned by the same scatter
//! ([`Span::slot`]; a one-row or empty span has [`NO_SLOT`]). The slot
//! is what lets a caller keep a flat side table with one entry per
//! multi-row hit list — the compiled rule plans of `certainfix-rules`
//! store their per-span summaries of a fix column that way — while a
//! one-row span needs no entry: its row is its own summary.
//!
//! Two probe disciplines coexist:
//!
//! * the convenience path ([`MasterIndex::matches_projection`]) hashes
//!   the key list, takes the cache's read lock, and returns an owned
//!   `Vec<u32>` — fine for one-off analyses;
//! * the compile-once-probe-many path: pin the [`Arc<KeyIndex>`]
//!   returned by [`MasterIndex::index_for`] once, then probe it through
//!   [`KeyIndex::lookup_projection`] with a caller-owned scratch buffer.
//!   Steady-state probes touch neither the lock nor the allocator and
//!   borrow the hit list straight out of the index. The compiled rule
//!   plans of `certainfix-rules` are built on this path.
//!
//! Index *builds* are single-flight: two workers racing on a cold key
//! list block on one [`OnceLock`] and share the one built index instead
//! of both paying for (and one discarding) a full build.
//!
//! # Live master data
//!
//! Master data is curated over time, so a [`MasterIndex`] is one
//! *generation* of an evolving lineage rather than a frozen singleton.
//! [`MasterIndex::apply_delta`] takes a [`MasterDelta`] (a batch of
//! inserts/updates/deletes) and returns the **next-generation**
//! snapshot; the receiver is never mutated, so probes pinned against an
//! older generation keep seeing exactly the rows they started with —
//! invalidation never blocks an in-flight probe. Each snapshot keeps
//! its own slot cache (its clones share it), so a delta never touches
//! the indexes of the snapshot it was applied to, and two snapshots of
//! one lineage — siblings, or an older and a newer generation — never
//! serve or evict each other's indexes. A delete-free delta fills the
//! next snapshot's cache eagerly: every index built so far is rebuilt
//! over the new rows by the same scatter, which
//! [`MasterIndex::index_patches`] counts. A delta with deletes leaves
//! the next snapshot's cache empty, to fill lazily.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

use crate::error::RelationError;
use crate::hashers::FxHashMap;
use crate::relation::Relation;
use crate::schema::AttrId;
use crate::tuple::Tuple;
use crate::value::Value;

/// An index of a relation on one attribute list (see the
/// [module docs](self) for the flat layout).
///
/// Rows whose key contains a null are not indexed: a null never agrees
/// with any probe value (see [`Value::agrees_with`]).
#[derive(Debug)]
pub struct KeyIndex {
    key: Vec<AttrId>,
    /// Every indexed row id, grouped by key; each group is ascending.
    rows: Box<[u32]>,
    /// Distinct key → its group's packed span in `rows` (see
    /// [`MULTI`]).
    spans: SpanMap,
    /// Span slot → the length of its hit list.
    slot_len: Box<[u32]>,
}

/// A key's map entry is `(start, len)` for a hit list of at most one
/// row and `(start, MULTI | slot)` for a longer one, whose length
/// `slot_len[slot]` holds: an entry stays two words.
const MULTI: u32 = 1 << 31;

/// The [`Span::slot`] of a span with fewer than two rows.
pub const NO_SLOT: u32 = u32::MAX;

/// Where one hit list sits in a [`KeyIndex`]: `(start, len)` into its
/// rows, plus the dense span slot of a multi-row list (see the
/// [module docs](self)).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// First position of the list in the index's rows.
    pub start: u32,
    /// Number of rows in the list.
    pub len: u32,
    /// `0..span_slots()` when `len >= 2`, [`NO_SLOT`] otherwise.
    pub slot: u32,
}

impl Span {
    /// The span of a miss.
    pub const EMPTY: Span = Span {
        start: 0,
        len: 0,
        slot: NO_SLOT,
    };

    /// `(start, len)`, as [`KeyIndex::span`] returns it.
    #[inline]
    pub fn range(self) -> (u32, u32) {
        (self.start, self.len)
    }
}

/// The key → span map behind a [`KeyIndex`], specialized by key width.
#[derive(Debug)]
enum SpanMap {
    /// Single-attribute keys hash their injective
    /// [`Value::grouping_rank`] directly — no boxed key and no slice
    /// hashing on the probe path.
    Rank(FxHashMap<u128, (u32, u32)>),
    /// Wider keys hash the boxed value slice.
    Slice(FxHashMap<Box<[Value]>, (u32, u32)>),
}

/// Group id of a row whose key holds a null, during [`KeyIndex::build`].
const UNINDEXED: u32 = u32::MAX;

impl KeyIndex {
    /// Build the index eagerly, by a counting scatter: one pass gives
    /// every distinct key a dense group id and counts its rows, a prefix
    /// sum gives each group its start, and a second pass places the row
    /// ids — in row order, so every hit list comes out ascending. Groups
    /// of two or more rows take span slots as they are placed.
    pub fn build(rel: &Relation, key: &[AttrId]) -> KeyIndex {
        // per row, its group id; per group, its row count. While
        // counting, a key's map value holds `(group id, 0)`.
        let mut group: Vec<u32> = Vec::with_capacity(rel.len());
        let mut counts: Vec<u32> = Vec::new();
        let mut tally = |g: u32| {
            match counts.get_mut(g as usize) {
                Some(c) => *c += 1,
                None => counts.push(1),
            }
            g
        };
        let mut spans = if let [a] = *key {
            let mut m: FxHashMap<u128, (u32, u32)> = FxHashMap::default();
            for t in rel.iter() {
                let v = t.get(a);
                group.push(if v.is_null() {
                    UNINDEXED
                } else {
                    let fresh = (m.len() as u32, 0);
                    tally(m.entry(v.grouping_rank()).or_insert(fresh).0)
                });
            }
            SpanMap::Rank(m)
        } else {
            let mut m: FxHashMap<Box<[Value]>, (u32, u32)> = FxHashMap::default();
            let mut k: Vec<Value> = Vec::with_capacity(key.len());
            for t in rel.iter() {
                k.clear();
                k.extend(key.iter().map(|&a| *t.get(a)));
                group.push(if k.iter().any(Value::is_null) {
                    UNINDEXED
                } else if let Some(&(g, _)) = m.get(&k[..]) {
                    tally(g)
                } else {
                    let g = m.len() as u32;
                    m.insert(k[..].into(), (g, 0));
                    tally(g)
                });
            }
            SpanMap::Slice(m)
        };
        // prefix sum, then scatter: `end[g]` walks group g's slots
        let mut total = 0u32;
        let mut end: Vec<u32> = counts
            .iter()
            .map(|&c| {
                total += c;
                total - c
            })
            .collect();
        let mut rows = vec![0u32; total as usize];
        for (i, &g) in group.iter().enumerate() {
            if g != UNINDEXED {
                let at = &mut end[g as usize];
                rows[*at as usize] = i as u32;
                *at += 1;
            }
        }
        // the multi-row groups take dense slots as they are placed; the
        // map's iteration order is a function of the rows alone, so a
        // rebuild over the same rows numbers them alike
        let mut slot_len: Vec<u32> = Vec::new();
        let place = |s: &mut (u32, u32)| {
            let len = counts[s.0 as usize];
            let start = end[s.0 as usize] - len;
            *s = if len < 2 {
                (start, len)
            } else {
                debug_assert!(len < MULTI && slot_len.len() < MULTI as usize);
                slot_len.push(len);
                (start, MULTI | (slot_len.len() - 1) as u32)
            };
        };
        match &mut spans {
            SpanMap::Rank(m) => m.values_mut().for_each(place),
            SpanMap::Slice(m) => m.values_mut().for_each(place),
        }
        KeyIndex {
            key: key.to_vec(),
            rows: rows.into_boxed_slice(),
            spans,
            slot_len: slot_len.into_boxed_slice(),
        }
    }

    /// Unpack a map entry (see [`MULTI`]).
    #[inline]
    fn unpack(&self, (start, tag): (u32, u32)) -> Span {
        if tag & MULTI == 0 {
            Span {
                start,
                len: tag,
                slot: NO_SLOT,
            }
        } else {
            let slot = tag & !MULTI;
            Span {
                start,
                len: self.slot_len[slot as usize],
                slot,
            }
        }
    }

    /// The indexed attribute list.
    pub fn key(&self) -> &[AttrId] {
        &self.key
    }

    /// Row ids whose key equals `probe` (empty if the probe contains a
    /// null or has no match).
    pub fn lookup(&self, probe: &[Value]) -> &[u32] {
        self.hits(self.span(probe))
    }

    /// Where [`lookup`](Self::lookup)'s hit list for `probe` sits in
    /// this index's rows: `(start, len)`, read back with
    /// [`hits`](Self::hits). A miss or a null probe value is an empty
    /// span. Use this when the list must be named beyond the borrow —
    /// the span stays valid for as long as the index is pinned.
    pub fn span(&self, probe: &[Value]) -> (u32, u32) {
        self.locate(probe).range()
    }

    /// [`span`](Self::span) with the hit list's span slot: the full
    /// [`Span`] of `probe`'s hit list ([`Span::EMPTY`] on a miss).
    pub fn locate(&self, probe: &[Value]) -> Span {
        debug_assert_eq!(probe.len(), self.key.len());
        // keys holding a null are never stored, so a null probe misses
        let hit = match &self.spans {
            SpanMap::Rank(m) => m.get(&probe[0].grouping_rank()),
            SpanMap::Slice(m) => m.get(probe),
        };
        hit.map_or(Span::EMPTY, |&e| self.unpack(e))
    }

    /// Rank-keyed variant of [`locate`](Self::locate) for
    /// single-attribute indexes, when the caller has already computed
    /// [`Value::grouping_rank`] (rank 0 is `Null`, which matches
    /// nothing). Panics on a wider index.
    pub fn locate_rank(&self, rank: u128) -> Span {
        match &self.spans {
            SpanMap::Rank(m) => m.get(&rank).map_or(Span::EMPTY, |&e| self.unpack(e)),
            SpanMap::Slice(_) => panic!("rank probes require a single-attribute index"),
        }
    }

    /// Number of span slots: the hit lists of two or more rows.
    pub fn span_slots(&self) -> usize {
        self.slot_len.len()
    }

    /// The row ids of a span returned by [`span`](Self::span) (or of
    /// a [`Span::range`]) on this index.
    #[inline]
    pub fn hits(&self, (start, len): (u32, u32)) -> &[u32] {
        &self.rows[start as usize..(start + len) as usize]
    }

    /// The `t[from] = tm[key]` probe of rule application, with a
    /// caller-owned scratch buffer: project `t[from]` into `probe`
    /// (cleared first) and look the projection up. Once `probe` has
    /// warmed to the widest key it is reused for, this path performs
    /// **zero heap allocations** and returns the hit list by borrow.
    pub fn lookup_projection(&self, t: &Tuple, from: &[AttrId], probe: &mut Vec<Value>) -> &[u32] {
        debug_assert_eq!(from.len(), self.key.len());
        probe.clear();
        probe.extend(from.iter().map(|&a| *t.get(a)));
        self.lookup(probe)
    }

    /// Number of distinct keys.
    pub fn distinct_keys(&self) -> usize {
        match &self.spans {
            SpanMap::Rank(m) => m.len(),
            SpanMap::Slice(m) => m.len(),
        }
    }

    /// Length of the longest hit list (0 for an empty index) — the
    /// worst-case fan-out of one probe.
    pub fn max_hit_len(&self) -> usize {
        let longest = match &self.spans {
            SpanMap::Rank(m) => m.values().map(|&e| self.unpack(e).len).max(),
            SpanMap::Slice(m) => m.values().map(|&e| self.unpack(e).len).max(),
        };
        longest.unwrap_or(0) as usize
    }
}

/// One cache slot: filled exactly once, by whichever thread wins the
/// [`OnceLock`] race; losers block on the lock and share the result.
type IndexSlot = Arc<OnceLock<Arc<KeyIndex>>>;

/// A batch of master-data mutations, applied atomically by
/// [`MasterIndex::apply_delta`] to produce the next generation.
///
/// Within one delta, updates land first (in call order — the last
/// update to a row wins), then deletes remove rows (duplicate deletes
/// are fine; surviving rows keep their relative order and are
/// renumbered densely), then inserts append at the end in call order.
/// Row ids refer to the generation the delta is applied to, before any
/// renumbering. The resulting row list is exactly what a from-scratch
/// master over those rows would hold, so a delta-maintained index is
/// indistinguishable from a rebuilt one (invariant D10).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MasterDelta {
    inserts: Vec<Tuple>,
    updates: Vec<(u32, Tuple)>,
    deletes: Vec<u32>,
}

impl MasterDelta {
    /// An empty batch.
    pub fn new() -> MasterDelta {
        MasterDelta::default()
    }

    /// Append a master tuple (chainable).
    pub fn insert(mut self, t: Tuple) -> MasterDelta {
        self.inserts.push(t);
        self
    }

    /// Replace row `row` (chainable; the last update to a row wins).
    pub fn update(mut self, row: u32, t: Tuple) -> MasterDelta {
        self.updates.push((row, t));
        self
    }

    /// Delete row `row` (chainable).
    pub fn delete(mut self, row: u32) -> MasterDelta {
        self.deletes.push(row);
        self
    }

    /// Number of mutations in the batch.
    pub fn len(&self) -> usize {
        self.inserts.len() + self.updates.len() + self.deletes.len()
    }

    /// `true` iff the batch holds no mutations.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `true` iff the batch deletes at least one row (deltas with
    /// deletes renumber rows, and built indexes are left for a lazy
    /// rebuild).
    pub fn has_deletes(&self) -> bool {
        !self.deletes.is_empty()
    }

    /// The tuples this batch appends.
    pub fn inserts(&self) -> &[Tuple] {
        &self.inserts
    }

    /// The `(row, tuple)` replacements this batch makes.
    pub fn updates(&self) -> &[(u32, Tuple)] {
        &self.updates
    }

    /// The row ids this batch deletes.
    pub fn deletes(&self) -> &[u32] {
        &self.deletes
    }
}

/// A master relation bundled with a cache of [`KeyIndex`]es.
///
/// Cloning is cheap (`Arc` inside); clones share the cache, which grows
/// monotonically as new key lists are probed. Builds are single-flight
/// (see the [module docs](self)) and counted —
/// [`MasterIndex::index_builds`] is the monitoring hook asserting that
/// racing workers never duplicate a build.
///
/// A `MasterIndex` is one immutable **generation** of an evolving
/// lineage: [`apply_delta`](Self::apply_delta) returns the next
/// generation and leaves the receiver untouched. Each snapshot has its
/// own cache; the build and patch counters are shared by the whole
/// lineage (see the [module docs](self#live-master-data)).
#[derive(Clone, Debug)]
pub struct MasterIndex {
    rel: Arc<Relation>,
    generation: u64,
    cache: Arc<RwLock<FxHashMap<Vec<AttrId>, IndexSlot>>>,
    builds: Arc<AtomicU64>,
    patches: Arc<AtomicU64>,
}

impl MasterIndex {
    /// Wrap a master relation (generation 0 of a fresh lineage).
    pub fn new(rel: Arc<Relation>) -> MasterIndex {
        MasterIndex {
            rel,
            generation: 0,
            cache: Arc::new(RwLock::new(FxHashMap::default())),
            builds: Arc::new(AtomicU64::new(0)),
            patches: Arc::new(AtomicU64::new(0)),
        }
    }

    /// The underlying relation.
    pub fn relation(&self) -> &Arc<Relation> {
        &self.rel
    }

    /// Number of master tuples.
    pub fn len(&self) -> usize {
        self.rel.len()
    }

    /// `true` iff the master relation is empty.
    pub fn is_empty(&self) -> bool {
        self.rel.is_empty()
    }

    /// Get (or lazily build) the index for `key`.
    ///
    /// Builds are *single-flight per snapshot*: the slot for `key` is
    /// reserved under the write lock, but the build itself runs outside
    /// any lock, serialized by the slot's [`OnceLock`] — concurrent
    /// callers for the same cold key block until the one build finishes
    /// and then share it. Callers on the steady-state path should pin
    /// the returned `Arc` instead of re-calling this (each call hashes
    /// `key` and takes the read lock).
    pub fn index_for(&self, key: &[AttrId]) -> Arc<KeyIndex> {
        let slot = self
            .cache
            .read()
            .expect("index cache poisoned")
            .get(key)
            .cloned();
        let slot = slot.unwrap_or_else(|| {
            let mut w = self.cache.write().expect("index cache poisoned");
            w.entry(key.to_vec()).or_default().clone()
        });
        slot.get_or_init(|| {
            self.builds.fetch_add(1, Ordering::Relaxed);
            Arc::new(KeyIndex::build(&self.rel, key))
        })
        .clone()
    }

    /// Apply a batch of mutations, returning the **next-generation**
    /// snapshot. `self` is untouched: probes pinned against it (or any
    /// older generation) keep their rows — this is the non-blocking
    /// half of the invalidation contract.
    ///
    /// For a **delete-free** delta the next snapshot's cache starts
    /// full: every index `self` has built is rebuilt over the new rows
    /// by [`KeyIndex::build`]'s scatter — counted by
    /// [`index_patches`](Self::index_patches), not by
    /// [`index_builds`](Self::index_builds). Deltas with deletes
    /// renumber rows, so the next snapshot's cache starts empty and
    /// builds lazily on [`index_for`](Self::index_for).
    ///
    /// Row ids in `delta` refer to `self`'s rows. Errors:
    /// [`RelationError::RowOutOfRange`] for an update/delete past the
    /// end, [`RelationError::ArityMismatch`] for a tuple that does not
    /// fit the schema (either way the lineage is left untouched).
    pub fn apply_delta(&self, delta: &MasterDelta) -> Result<MasterIndex, RelationError> {
        let schema = self.rel.schema();
        let check_row = |row: u32| {
            if (row as usize) < self.rel.len() {
                Ok(())
            } else {
                Err(RelationError::RowOutOfRange {
                    schema: schema.name().to_string(),
                    row,
                    len: self.rel.len(),
                })
            }
        };
        for &(row, _) in &delta.updates {
            check_row(row)?;
        }
        for &row in &delta.deletes {
            check_row(row)?;
        }
        let mut rows = self.rel.tuples().to_vec();
        for (row, t) in &delta.updates {
            rows[*row as usize] = t.clone();
        }
        let mut deletes = delta.deletes.clone();
        deletes.sort_unstable();
        deletes.dedup();
        // one compaction pass: row ids ascend in step with the sorted ids
        let mut gone = deletes.iter().copied().peekable();
        let mut row = 0u32;
        rows.retain(|_| {
            let keep = gone.next_if_eq(&row).is_none();
            row += 1;
            keep
        });
        rows.extend(delta.inserts.iter().cloned());
        let rel = Arc::new(Relation::new(Arc::clone(schema), rows)?);
        let mut cache = FxHashMap::default();
        if deletes.is_empty() {
            let r = self.cache.read().expect("index cache poisoned");
            for (key, _) in r.iter().filter(|(_, slot)| slot.get().is_some()) {
                let patched = IndexSlot::default();
                let _ = patched.set(Arc::new(KeyIndex::build(&rel, key)));
                cache.insert(key.clone(), patched);
                self.patches.fetch_add(1, Ordering::Relaxed);
            }
        }
        Ok(MasterIndex {
            rel,
            generation: self.generation + 1,
            cache: Arc::new(RwLock::new(cache)),
            builds: Arc::clone(&self.builds),
            patches: Arc::clone(&self.patches),
        })
    }

    /// The generation of this snapshot: 0 for [`new`](Self::new), +1
    /// per applied delta along the lineage.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of already-built indexes maintained eagerly (rebuilt for
    /// the next snapshot by a delete-free delta) instead of left for a
    /// lazy rebuild, across the whole lineage.
    pub fn index_patches(&self) -> u64 {
        self.patches.load(Ordering::Relaxed)
    }

    /// Number of [`KeyIndex`] builds actually executed across the
    /// whole lineage (diagnostics; with single-flight builds a snapshot
    /// builds each key list it probes once, however many workers raced
    /// on it).
    pub fn index_builds(&self) -> u64 {
        self.builds.load(Ordering::Relaxed)
    }

    /// Master tuples `tm` with `tm[key] = probe` (by row id).
    pub fn matches(&self, key: &[AttrId], probe: &[Value]) -> Vec<u32> {
        self.index_for(key).lookup(probe).to_vec()
    }

    /// Master tuples matching the projection `t[from]` on master
    /// attributes `to` — the `t[X] = tm[Xm]` probe of rule application.
    pub fn matches_projection(&self, t: &Tuple, from: &[AttrId], to: &[AttrId]) -> Vec<u32> {
        let probe = t.project(from);
        self.matches(to, &probe)
    }

    /// Resolve a row id.
    pub fn tuple(&self, id: u32) -> &Tuple {
        self.rel.tuple(id as usize)
    }

    /// Number of cached indexes (diagnostics).
    pub fn cached_indexes(&self) -> usize {
        self.cache.read().expect("index cache poisoned").len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::tuple;

    fn master() -> Arc<Relation> {
        let s = Schema::new("Rm", ["zip", "ac", "city"]).unwrap();
        Arc::new(
            Relation::new(
                s,
                vec![
                    tuple!["EH7 4AH", "131", "Edi"],
                    tuple!["WC1H 9SE", "020", "Ldn"],
                    tuple!["EH7 4AH", "131", "Edi"], // duplicate key
                    tuple![Value::Null, "999", "Gla"], // null key: unindexed
                ],
            )
            .unwrap(),
        )
    }

    #[test]
    fn lookup_by_single_attr() {
        let idx = KeyIndex::build(&master(), &[AttrId(0)]);
        assert_eq!(idx.lookup(&[Value::str("EH7 4AH")]), &[0, 2]);
        assert_eq!(idx.lookup(&[Value::str("nope")]), &[] as &[u32]);
        assert_eq!(idx.lookup(&[Value::Null]), &[] as &[u32]);
        assert_eq!(idx.key(), &[AttrId(0)]);
        assert_eq!(idx.distinct_keys(), 2);
    }

    #[test]
    fn composite_keys() {
        let idx = KeyIndex::build(&master(), &[AttrId(1), AttrId(2)]);
        assert_eq!(idx.lookup(&[Value::str("020"), Value::str("Ldn")]), &[1]);
        assert_eq!(
            idx.lookup(&[Value::str("020"), Value::str("Edi")]),
            &[] as &[u32]
        );
        // the null-zip row IS indexed here because its ac/city are non-null
        assert_eq!(idx.lookup(&[Value::str("999"), Value::str("Gla")]), &[3]);
    }

    #[test]
    fn master_index_caches() {
        let m = MasterIndex::new(master());
        assert_eq!(m.len(), 4);
        assert!(!m.is_empty());
        assert_eq!(m.cached_indexes(), 0);
        let _ = m.index_for(&[AttrId(0)]);
        let _ = m.index_for(&[AttrId(0)]);
        let _ = m.index_for(&[AttrId(1)]);
        assert_eq!(m.cached_indexes(), 2);
        assert_eq!(m.matches(&[AttrId(1)], &[Value::str("131")]), vec![0, 2]);
    }

    #[test]
    fn projection_probe() {
        // input tuple with phn in position 0 matched against master ac in
        // position 1 — attribute lists on both sides differ.
        let m = MasterIndex::new(master());
        let t = tuple!["131", "ignored"];
        let hits = m.matches_projection(&t, &[AttrId(0)], &[AttrId(1)]);
        assert_eq!(hits, vec![0, 2]);
        assert_eq!(m.tuple(hits[0]).get(AttrId(2)), &Value::str("Edi"));
    }

    #[test]
    fn null_probe_finds_nothing() {
        let m = MasterIndex::new(master());
        let t = tuple![Value::Null, "x"];
        assert!(m
            .matches_projection(&t, &[AttrId(0)], &[AttrId(0)])
            .is_empty());
    }

    #[test]
    fn lookup_projection_reuses_the_probe_buffer() {
        let m = MasterIndex::new(master());
        let idx = m.index_for(&[AttrId(1)]);
        let mut probe: Vec<Value> = Vec::new();
        let t = tuple!["131", "ignored"];
        assert_eq!(idx.lookup_projection(&t, &[AttrId(0)], &mut probe), &[0, 2]);
        let cap = probe.capacity();
        // warm buffer: repeated probes never grow it
        for _ in 0..8 {
            let miss = tuple!["000", "ignored"];
            assert_eq!(
                idx.lookup_projection(&miss, &[AttrId(0)], &mut probe),
                &[] as &[u32]
            );
            assert_eq!(probe.capacity(), cap);
        }
        // null projections find nothing, as with owned probes
        let n = tuple![Value::Null, "x"];
        assert!(idx
            .lookup_projection(&n, &[AttrId(0)], &mut probe)
            .is_empty());
    }

    /// Every hit list is a span of the one row buffer: spans by value
    /// and by rank agree with `lookup`, misses and nulls are empty, and
    /// the buffer holds each indexed row exactly once.
    #[test]
    fn hit_lists_are_spans_of_one_row_buffer() {
        let rel = master();
        let zip = KeyIndex::build(&rel, &[AttrId(0)]);
        let s = zip.span(&[Value::str("EH7 4AH")]);
        assert_eq!(zip.hits(s), &[0, 2]);
        assert_eq!(
            zip.locate_rank(Value::str("EH7 4AH").grouping_rank())
                .range(),
            s
        );
        assert_eq!(zip.span(&[Value::Null]).1, 0);
        assert_eq!(zip.locate_rank(0), Span::EMPTY);
        assert_eq!(zip.max_hit_len(), 2);
        let wide = KeyIndex::build(&rel, &[AttrId(0), AttrId(1), AttrId(2)]);
        assert_eq!(wide.span(&[Value::str("nope"); 3]).1, 0);
        let mut all: Vec<u32> = rel
            .iter()
            .flat_map(|t| {
                let probe: Vec<Value> = wide.key().iter().map(|&a| *t.get(a)).collect();
                wide.lookup(&probe).to_vec()
            })
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all, [0, 1, 2], "the null-zip row is unindexed");
        assert_eq!(wide.rows.len(), 3);
    }

    /// Multi-row spans take the dense slots `0..span_slots()` in key
    /// order; one-row spans and misses take none.
    #[test]
    fn multi_row_spans_take_dense_slots() {
        let rel = master();
        let zip = KeyIndex::build(&rel, &[AttrId(0)]);
        assert_eq!(zip.span_slots(), 1, "only EH7 4AH repeats");
        let dup = zip.locate(&[Value::str("EH7 4AH")]);
        assert_eq!((dup.range(), dup.slot), ((0, 2), 0));
        assert_eq!(zip.locate(&[Value::str("WC1H 9SE")]).slot, NO_SLOT);
        assert_eq!(zip.locate(&[Value::str("nope")]), Span::EMPTY);
        assert_eq!(zip.locate_rank(Value::str("EH7 4AH").grouping_rank()), dup);
        let city = KeyIndex::build(&rel, &[AttrId(2)]);
        assert_eq!(city.span_slots(), 1);
        assert_eq!(city.locate(&[Value::str("Edi")]).slot, 0);
        let wide = KeyIndex::build(&rel, &[AttrId(0), AttrId(1)]);
        let pair = wide.locate(&[Value::str("EH7 4AH"), Value::str("131")]);
        assert_eq!((pair.range(), pair.slot), ((0, 2), 0));
        assert_eq!(
            wide.locate(&[Value::str("WC1H 9SE"), Value::str("020")])
                .slot,
            NO_SLOT
        );
        let full = KeyIndex::build(&rel, &[AttrId(1), AttrId(2), AttrId(0)]);
        assert_eq!(
            (full.max_hit_len(), full.span_slots()),
            (2, 1),
            "rows 0 and 2 coincide"
        );
    }

    /// Eagerly maintained indexes are indistinguishable from a fresh
    /// build: same hit lists (ascending), same distinct keys, emptied
    /// lists dropped — for both the `Rank` and the `Slice` map layout.
    #[test]
    fn delete_free_deltas_patch_built_indexes() {
        let m0 = MasterIndex::new(master());
        let zip = [AttrId(0)];
        let wide = [AttrId(1), AttrId(2)];
        let _ = m0.index_for(&zip);
        let _ = m0.index_for(&wide);
        let builds_before = m0.index_builds();
        let delta = MasterDelta::new()
            .update(0, tuple!["G2 8DL", "141", "Gla"]) // leaves both hit lists
            .update(3, tuple!["EH8 9YL", "131", "Edi"]) // null zip becomes indexed
            .insert(tuple!["EH7 4AH", "131", "Edi"]); // joins the duplicate-key list
        assert_eq!(delta.len(), 3);
        assert!(!delta.has_deletes());
        let m1 = m0.apply_delta(&delta).unwrap();
        assert_eq!(m1.generation(), 1);
        assert_eq!(m1.index_patches(), 2, "both built indexes were maintained");
        assert_eq!(
            m1.index_builds(),
            builds_before,
            "eager maintenance is not a lazy build"
        );
        let fresh = MasterIndex::new(Arc::clone(m1.relation()));
        for key in [&zip[..], &wide[..]] {
            let patched = m1.index_for(key);
            let rebuilt = fresh.index_for(key);
            assert_eq!(patched.distinct_keys(), rebuilt.distinct_keys());
            assert_eq!(patched.max_hit_len(), rebuilt.max_hit_len());
            assert_eq!(patched.span_slots(), rebuilt.span_slots());
            for t in m1.relation().iter() {
                let probe: Vec<Value> = key.iter().map(|&a| *t.get(a)).collect();
                assert_eq!(patched.locate(&probe), rebuilt.locate(&probe));
            }
            let miss = vec![Value::str("nope"); key.len()];
            assert_eq!(patched.lookup(&miss), &[] as &[u32]);
        }
        // ascending with the inserted row's (largest) id at the end
        assert_eq!(m1.index_for(&zip).lookup(&[Value::str("EH7 4AH")]), &[2, 4]);
    }

    /// The non-blocking half of the invalidation contract: pinned
    /// indexes and older snapshots keep serving the generation they
    /// were built against, however many deltas land after them.
    #[test]
    fn in_flight_probes_survive_deltas() {
        let m0 = MasterIndex::new(master());
        let zip = [AttrId(0)];
        let pinned = m0.index_for(&zip);
        let m1 = m0
            .apply_delta(&MasterDelta::new().update(0, tuple!["X", "1", "Y"]))
            .unwrap();
        // the pinned index still answers for generation 0 …
        assert_eq!(pinned.lookup(&[Value::str("EH7 4AH")]), &[0, 2]);
        // … the old snapshot re-resolves to generation-0 rows …
        assert_eq!(m0.index_for(&zip).lookup(&[Value::str("EH7 4AH")]), &[0, 2]);
        // … and only the new generation sees the update.
        assert_eq!(m1.index_for(&zip).lookup(&[Value::str("EH7 4AH")]), &[2]);
        assert_eq!(m1.index_for(&zip).lookup(&[Value::str("X")]), &[0]);
        assert_eq!((m0.generation(), m1.generation()), (0, 1));
    }

    /// Two deltas applied to one snapshot make two generation-1
    /// siblings; each serves the index over its own rows.
    #[test]
    fn sibling_snapshots_keep_their_own_indexes() {
        let m0 = MasterIndex::new(master());
        let zip = [AttrId(0)];
        let _ = m0.index_for(&zip);
        let a = m0
            .apply_delta(&MasterDelta::new().insert(tuple!["A1", "1", "x"]))
            .unwrap();
        let b = m0
            .apply_delta(&MasterDelta::new().insert(tuple!["B1", "2", "y"]))
            .unwrap();
        assert_eq!((a.generation(), b.generation()), (1, 1));
        assert_eq!(a.index_for(&zip).lookup(&[Value::str("A1")]), &[4]);
        assert_eq!(b.index_for(&zip).lookup(&[Value::str("B1")]), &[4]);
        assert_eq!(b.index_for(&zip).lookup(&[Value::str("A1")]), &[] as &[u32]);
        assert_eq!((m0.index_builds(), m0.index_patches()), (1, 2));
    }

    /// An older snapshot's probe neither evicts nor rebuilds the newer
    /// snapshot's maintained index.
    #[test]
    fn an_older_snapshot_leaves_the_newer_index_alone() {
        let m0 = MasterIndex::new(master());
        let zip = [AttrId(0)];
        let _ = m0.index_for(&zip);
        let m1 = m0
            .apply_delta(&MasterDelta::new().update(1, tuple!["N", "0", "z"]))
            .unwrap();
        let maintained = m1.index_for(&zip);
        assert_eq!(m0.index_for(&zip).lookup(&[Value::str("N")]), &[] as &[u32]);
        assert!(Arc::ptr_eq(&m1.index_for(&zip), &maintained));
        assert_eq!(m1.index_for(&zip).lookup(&[Value::str("N")]), &[1]);
        assert_eq!(m0.index_builds(), 1, "one build, then one patch");
    }

    /// Deltas with deletes renumber rows: the next snapshot builds
    /// lazily, duplicate deletes collapse, survivors keep their order.
    #[test]
    fn deletes_renumber_and_rebuild_lazily() {
        let m0 = MasterIndex::new(master());
        let zip = [AttrId(0)];
        let _ = m0.index_for(&zip);
        let patches = m0.index_patches();
        let m1 = m0
            .apply_delta(&MasterDelta::new().delete(0).delete(0).delete(3))
            .unwrap();
        assert_eq!(m1.index_patches(), patches, "deletes never patch");
        assert_eq!(m1.len(), 2);
        assert_eq!(m1.index_for(&zip).lookup(&[Value::str("WC1H 9SE")]), &[0]);
        assert_eq!(m1.index_for(&zip).lookup(&[Value::str("EH7 4AH")]), &[1]);
    }

    /// Mixed batches compose as documented: updates first (last wins),
    /// then deletes, then inserts.
    #[test]
    fn mixed_deltas_apply_updates_then_deletes_then_inserts() {
        let m0 = MasterIndex::new(master());
        let d = MasterDelta::new()
            .insert(tuple!["Z", "9", "Zed"])
            .delete(1)
            .update(1, tuple!["GONE", "0", "No"]) // updated, then deleted
            .update(2, tuple!["EH7 4AH", "131", "Lei"])
            .update(2, tuple!["EH7 4AH", "131", "Edi"]); // last wins: no-op
        let m1 = m0.apply_delta(&d).unwrap();
        assert_eq!(m1.len(), 4);
        let zip = [AttrId(0)];
        assert_eq!(m1.index_for(&zip).lookup(&[Value::str("Z")]), &[3]);
        assert_eq!(
            m1.index_for(&zip).lookup(&[Value::str("GONE")]),
            &[] as &[u32]
        );
        assert_eq!(m1.index_for(&zip).lookup(&[Value::str("EH7 4AH")]), &[0, 1]);
        assert_eq!(m1.tuple(1).get(AttrId(2)), &Value::str("Edi"));
    }

    /// Eager maintenance drops hit lists that empty out, so `distinct_keys`
    /// agrees with a fresh build.
    #[test]
    fn patching_drops_emptied_hit_lists() {
        let m0 = MasterIndex::new(master());
        let zip = [AttrId(0)];
        assert_eq!(m0.index_for(&zip).distinct_keys(), 2);
        let m1 = m0
            .apply_delta(
                &MasterDelta::new()
                    .update(0, tuple!["A", "1", "x"])
                    .update(2, tuple!["B", "2", "y"]),
            )
            .unwrap();
        let idx = m1.index_for(&zip);
        assert_eq!(idx.lookup(&[Value::str("EH7 4AH")]), &[] as &[u32]);
        assert_eq!(idx.distinct_keys(), 3, "A, B, WC1H 9SE");
    }

    /// Bad deltas are rejected atomically: the lineage is untouched.
    #[test]
    fn bad_deltas_are_rejected() {
        let m = MasterIndex::new(master());
        let err = m.apply_delta(&MasterDelta::new().delete(9)).unwrap_err();
        assert!(matches!(err, RelationError::RowOutOfRange { row: 9, .. }));
        let err = m
            .apply_delta(&MasterDelta::new().update(9, tuple!["a", "b", "c"]))
            .unwrap_err();
        assert!(matches!(err, RelationError::RowOutOfRange { row: 9, .. }));
        let err = m
            .apply_delta(&MasterDelta::new().insert(tuple!["too", "short"]))
            .unwrap_err();
        assert!(matches!(err, RelationError::ArityMismatch { .. }));
        assert_eq!(m.generation(), 0, "failed deltas leave the lineage alone");
        assert!(MasterDelta::new().is_empty());
    }

    /// The single-flight satellite: many threads racing on the same
    /// cold key list trigger exactly one build; distinct key lists each
    /// build once.
    #[test]
    fn cold_index_builds_are_single_flight() {
        let m = MasterIndex::new(master());
        assert_eq!(m.index_builds(), 0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                let m = m.clone();
                s.spawn(move || {
                    let idx = m.index_for(&[AttrId(0)]);
                    assert_eq!(idx.key(), &[AttrId(0)]);
                });
            }
        });
        assert_eq!(m.index_builds(), 1, "racing workers shared one build");
        assert_eq!(m.cached_indexes(), 1);
        let _ = m.index_for(&[AttrId(1), AttrId(2)]);
        let _ = m.index_for(&[AttrId(1), AttrId(2)]);
        assert_eq!(m.index_builds(), 2);
    }
}
