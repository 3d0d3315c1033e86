//! Hash indexes over master data.
//!
//! Rule application must find master tuples `tm` with `tm[Xm] = t[X]`
//! (Sect. 2). A `TransFix` run probes many different key lists `Xm`, so
//! [`MasterIndex`] builds and caches one [`KeyIndex`] per distinct
//! attribute list. The paper's complexity analysis of
//! `TransFix` ("it takes constant time to check whether there exists a
//! master tuple that is applicable, by using a hash table that stores
//! `tm[Xm]` as a key") is realized here.
//!
//! A [`KeyIndex`] is that one flat hash table and nothing more: all of
//! its hit lists share one contiguous `rows` buffer, grouped by key, and
//! the table maps each distinct key to its `(start, len)` span there.
//! [`KeyIndex::build`] is a counting scatter into buffers sized before
//! it starts: one pass over the rows counts the key's indexed rows and
//! estimates its distinct keys, so no buffer, table included, is ever
//! regrown however many distinct keys the column holds. A span stays valid
//! for as long as the index is pinned, which is what lets the block
//! layer of `certainfix-rules` hold spans instead of copies.
//!
//! A single-attribute key is hashed by its injective
//! [`Value::grouping_rank`]. A wider key is stored once, in one flat
//! `Value` buffer of distinct keys × width (numbered in order of first
//! appearance), and found through a map from its 64-bit fingerprint to
//! a chain of the keys sharing it: no key is boxed on its own, and a
//! build hashes each row's key once.
//!
//! Every span of two or more rows also gets a dense **span slot**
//! `0..span_slots()`, numbered in order of its key's first row
//! ([`Span::slot`]; a one-row or empty span has [`NO_SLOT`]), so an
//! index — rows, spans and slots — is a function of the rows and the
//! key alone, however its maps lay out their entries. The slot
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
//! of both paying for (and one discarding) a full build. They are also
//! eager where the keys are known: [`MasterIndex::build_all`] builds
//! every cold index of a list of keys at once, on all cores when the
//! master is large, and a rule plan's compile calls it for the rules'
//! keys, so a context is ready before its first probe. Its calling
//! thread allocates everything the builds write, so the helpers
//! allocate and free nothing (see `Room` for why that matters).
//! Whichever thread builds an index, it is the same index.
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
//! serve or evict each other's indexes. A delta derives the next
//! generation's rows and nothing else: the next snapshot's cache starts
//! empty, with or without deletes, and fills the way the root's did, on
//! the next compile's [`MasterIndex::build_all`] and on demand after
//! that. Builds into a snapshot a delta made count in
//! [`MasterIndex::index_patches`], builds into the root in
//! [`MasterIndex::index_builds`].

use std::hash::Hasher;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::thread;

use crate::error::RelationError;
use crate::hashers::{FxHashMap, FxHasher};
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
    /// (The buffers are `Vec`s because a [`Room`] sizes them before the
    /// build, and shrinking one would reallocate it on the building
    /// thread.)
    rows: Vec<u32>,
    /// Distinct key → its group's packed span in `rows` (see
    /// [`MULTI`]).
    spans: SpanMap,
    /// Span slot → the length of its hit list.
    slot_len: Vec<u32>,
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
    /// Wider keys live in one flat buffer ([`WideKeys`]).
    Wide(WideKeys),
}

/// The distinct keys of a wider index, each stored once: group `g`'s
/// key is `keys[g * width..][..width]`, groups numbered in order of
/// first appearance. A key's [`fingerprint`] leads through `heads` to
/// the newest group with that fingerprint and `links` chains to the
/// older ones, so a probe hashes its key once and compares it against
/// the groups of one (almost always one-long) chain. The head's packed
/// span entry (see [`MULTI`]) sits in its map entry, so a hit on a
/// chain's head reads the map and the key and nothing else.
#[derive(Debug)]
struct WideKeys {
    width: usize,
    keys: Vec<Value>,
    /// Fingerprint → the newest group with it, and its entry.
    heads: FxHashMap<u64, (u32, (u32, u32))>,
    /// Group → the next older group with its fingerprint (or
    /// [`NO_GROUP`]), and its own entry.
    links: Vec<(u32, (u32, u32))>,
}

impl WideKeys {
    /// The first pass of a build on a wider key, as [`group_by_rank`]: a
    /// new key's cells go to `keys` and head the chain of its
    /// fingerprint; the entries are left for
    /// [`set_entries`](Self::set_entries).
    fn group(
        &mut self,
        rel: &Relation,
        key: &[AttrId],
        group: &mut Vec<u32>,
        counts: &mut Vec<u32>,
    ) {
        let WideKeys {
            width,
            keys,
            heads,
            links,
        } = self;
        let width = *width;
        for t in rel.iter() {
            let cells = || key.iter().map(|&a| t.get(a));
            group.push(if cells().any(Value::is_null) {
                UNINDEXED
            } else {
                let head = &mut heads
                    .entry(fingerprint(cells()))
                    .or_insert((NO_GROUP, (0, 0)))
                    .0;
                let mut g = *head;
                while g != NO_GROUP && !keys[g as usize * width..][..width].iter().eq(cells()) {
                    g = links[g as usize].0;
                }
                if g == NO_GROUP {
                    g = links.len() as u32;
                    links.push((*head, (0, 0)));
                    *head = g;
                    keys.extend(cells());
                }
                tally(counts, g)
            });
        }
    }

    /// Give every group its packed span entry, by group id.
    fn set_entries(&mut self, entries: &[(u32, u32)]) {
        for (link, &entry) in self.links.iter_mut().zip(entries) {
            link.1 = entry;
        }
        for head in self.heads.values_mut() {
            head.1 = entries[head.0 as usize];
        }
    }

    /// The packed span entry of the key equal to `probe`. A key holding
    /// a null is never stored, so a probe holding one misses.
    fn find(&self, probe: &[Value]) -> Option<(u32, u32)> {
        let &(mut g, mut entry) = self.heads.get(&fingerprint(probe.iter()))?;
        while self.keys[g as usize * self.width..][..self.width] != *probe {
            g = self.links[g as usize].0;
            if g == NO_GROUP {
                return None;
            }
            entry = self.links[g as usize].1;
        }
        Some(entry)
    }
}

/// The end of a [`WideKeys`] collision chain.
const NO_GROUP: u32 = u32::MAX;

#[cfg(test)]
thread_local! {
    /// Makes every [`fingerprint`] on this thread 0, so every wide key
    /// of an index built here shares one collision chain.
    static COLLIDE: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// The 64-bit hash of a wide key: the Fx hash of one word per cell,
/// its grouping rank's payload with the rank's type tag folded into the
/// top two bits (injective within a type; an `Int` and a `Str` share a
/// word only for an integer near −2⁶²). Equal keys share a fingerprint;
/// a collision costs one more key compare.
#[inline]
fn fingerprint<'a>(cells: impl Iterator<Item = &'a Value>) -> u64 {
    #[cfg(test)]
    if COLLIDE.with(std::cell::Cell::get) {
        return 0;
    }
    let mut h = FxHasher::default();
    for v in cells {
        let rank = v.grouping_rank();
        h.write_u64(rank as u64 ^ (((rank >> 64) as u64) << 62));
    }
    h.finish()
}

/// Group id of a row whose key holds a null, during [`KeyIndex::build`].
const UNINDEXED: u32 = u32::MAX;

/// Count one more row of group `g` (a new group is the next id).
#[inline]
fn tally(counts: &mut Vec<u32>, g: u32) -> u32 {
    match counts.get_mut(g as usize) {
        Some(c) => *c += 1,
        None => counts.push(1),
    }
    g
}

/// The first pass of a build on a single-attribute key: each row's
/// group id into `group` (groups numbered in order of first
/// appearance), each group's row count into `counts`, and each distinct
/// rank into `m`, mapped to `(group id, 0)`.
fn group_by_rank(
    m: &mut FxHashMap<u128, (u32, u32)>,
    rel: &Relation,
    a: AttrId,
    group: &mut Vec<u32>,
    counts: &mut Vec<u32>,
) {
    for t in rel.iter() {
        let v = t.get(a);
        group.push(if v.is_null() {
            UNINDEXED
        } else {
            let fresh = (m.len() as u32, 0);
            tally(counts, m.entry(v.grouping_rank()).or_insert(fresh).0)
        });
    }
}

/// For each of `keys`, how many rows its index over `rel` holds,
/// exactly, and how many distinct keys, estimated, in one pass over the
/// rows that allocates one bitmap per key: each key's [`fingerprint`]
/// sets one of `m` ≥ 2 × rows bits, and with `z` bits left clear the
/// distinct count is about m·ln(m/z) (linear counting; at m = 2¹⁷ its
/// standard error is about 0.2 %).
fn measure(rel: &Relation, keys: &[&[AttrId]]) -> Vec<(usize, usize)> {
    let m = (2 * rel.len()).next_power_of_two().max(64);
    let shift = 64 - m.trailing_zeros();
    let mut bits = vec![0u64; keys.len() * m / 64];
    let mut rows = vec![0; keys.len()];
    for t in rel.iter() {
        for (k, key) in keys.iter().enumerate() {
            let cells = || key.iter().map(|&a| t.get(a));
            if !cells().any(Value::is_null) {
                rows[k] += 1;
                let bit = k * m + (fingerprint(cells()) >> shift) as usize;
                bits[bit / 64] |= 1 << (bit % 64);
            }
        }
    }
    let m64 = m as f64;
    let clear = bits
        .chunks(m / 64)
        .map(|b| b.iter().map(|w| w.count_zeros()).sum::<u32>());
    let estimate = |clear: u32| (m64 * (m64 / f64::from(clear)).ln()).round() as usize;
    rows.into_iter().zip(clear.map(estimate)).collect()
}

/// Everything one build writes, allocated before it starts and sized
/// from [`measure`]: the index's buffers, with room for its rows and
/// for its distinct keys plus several times the estimate's error, and
/// the `Arc` it is published in. A build fills them in place, so it
/// regrows nothing (a regrowth rehashes or copies every entry and frees
/// the old buffer) and allocates nothing itself.
///
/// That is what lets [`MasterIndex::build_all`] hand builds to helper
/// threads at no cost in memory. It allocates every cold key's room,
/// and every builder's [`Scratch`], on its calling thread, before any
/// build starts, and frees the scratch there after the last one ends.
/// Under glibc each thread allocates from a malloc arena of its own,
/// and a chunk goes back to the arena it came from. Helpers that built
/// into memory of their own left it in arenas apart from the caller's,
/// whose free memory the caller never reuses and whose layout shifted
/// with how the threads interleaved: `hosp_bulk`'s peak RSS read
/// 352–365 MB against the sequential build's 341–343 MB. Copying the
/// helpers' indexes over, or keeping the helper threads alive, still
/// read 350–355 MB.
struct Room {
    index: Arc<KeyIndex>,
    rows: Vec<u32>,
    slot_len: Vec<u32>,
    spans: SpanMap,
}

/// A build's per-row and per-group working buffers, with room for every
/// row to hold a key of its own; cleared and reused from one build to
/// the next.
struct Scratch {
    /// Per row, its group id.
    group: Vec<u32>,
    /// Per group, its row count, then its next position in `rows`.
    counts: Vec<u32>,
    /// Per group, its packed entry (see [`MULTI`]).
    entries: Vec<(u32, u32)>,
}

impl Scratch {
    /// Room for builds over `rows` rows.
    fn new(rows: usize) -> Scratch {
        Scratch {
            group: Vec::with_capacity(rows),
            counts: Vec::with_capacity(rows),
            entries: Vec::with_capacity(rows),
        }
    }
}

impl Room {
    /// The room of an index on `key` of `rows` rows and about
    /// `estimate` distinct keys (as [`measure`] gives them).
    fn new(key: &[AttrId], (rows, estimate): (usize, usize)) -> Room {
        fn map<K, V>(len: usize) -> FxHashMap<K, V> {
            FxHashMap::with_capacity_and_hasher(len, Default::default())
        }
        let margin = estimate / 32 + 16;
        let groups = (estimate + margin).min(rows);
        // a multi-row group holds two rows or more, so there are at most
        // rows − groups of them
        let slots = groups.min(rows - estimate.saturating_sub(margin).min(rows));
        let width = key.len();
        Room {
            index: Arc::new(KeyIndex {
                key: key.to_vec(),
                rows: Vec::new(),
                spans: SpanMap::Rank(FxHashMap::default()),
                slot_len: Vec::new(),
            }),
            rows: Vec::with_capacity(rows),
            slot_len: Vec::with_capacity(slots),
            spans: if width == 1 {
                SpanMap::Rank(map(groups))
            } else {
                SpanMap::Wide(WideKeys {
                    width,
                    keys: Vec::with_capacity(groups * width),
                    heads: map(groups),
                    links: Vec::with_capacity(groups),
                })
            },
        }
    }

    /// [`KeyIndex::build`], on this thread alone.
    fn build_one(rel: &Relation, key: &[AttrId]) -> Arc<KeyIndex> {
        let room = Room::new(key, measure(rel, &[key])[0]);
        room.build(rel, &mut Scratch::new(rel.len()))
    }

    /// [`KeyIndex::build`] into this room, working in `scratch`.
    fn build(self, rel: &Relation, scratch: &mut Scratch) -> Arc<KeyIndex> {
        let Room {
            mut index,
            mut rows,
            mut slot_len,
            mut spans,
        } = self;
        let Scratch {
            group,
            counts,
            entries,
        } = scratch;
        group.clear();
        counts.clear();
        entries.clear();
        let key = &index.key;
        match &mut spans {
            SpanMap::Rank(m) => group_by_rank(m, rel, key[0], group, counts),
            SpanMap::Wide(w) => w.group(rel, key, group, counts),
        }
        // per group, its packed entry: a prefix sum gives its start, and
        // a prefix count over the multi-row groups its span slot
        let mut total = 0u32;
        entries.extend(counts.iter_mut().map(|count| {
            let (start, len) = (total, *count);
            total += len;
            *count = start;
            if len < 2 {
                (start, len)
            } else {
                debug_assert!(len < MULTI && slot_len.len() < MULTI as usize);
                slot_len.push(len);
                (start, MULTI | (slot_len.len() - 1) as u32)
            }
        }));
        // scatter: `counts[g]` now walks group g's positions
        rows.resize(total as usize, 0);
        for (i, &g) in group.iter().enumerate() {
            if g != UNINDEXED {
                let at = &mut counts[g as usize];
                rows[*at as usize] = i as u32;
                *at += 1;
            }
        }
        match &mut spans {
            SpanMap::Rank(m) => m.values_mut().for_each(|e| *e = entries[e.0 as usize]),
            SpanMap::Wide(w) => w.set_entries(entries),
        }
        let built = Arc::get_mut(&mut index).expect("a room's index is its own");
        built.rows = rows;
        built.spans = spans;
        built.slot_len = slot_len;
        index
    }
}

impl KeyIndex {
    /// Build the index eagerly, by a counting scatter: one pass gives
    /// every distinct key a dense group id, in order of first
    /// appearance, and counts its rows; a prefix sum gives each group
    /// its start, and a second pass places the row ids — in row order,
    /// so every hit list comes out ascending. The multi-row groups take
    /// span slots in group order, so the whole index is a function of
    /// the rows and the key alone. (A pass before them sizes every
    /// buffer, so none is ever regrown.)
    pub fn build(rel: &Relation, key: &[AttrId]) -> KeyIndex {
        Arc::into_inner(Room::build_one(rel, key)).expect("a fresh index is not shared")
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
            SpanMap::Rank(m) => m.get(&probe[0].grouping_rank()).copied(),
            SpanMap::Wide(w) => w.find(probe),
        };
        hit.map_or(Span::EMPTY, |e| self.unpack(e))
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
            SpanMap::Wide(w) => w.links.len(),
        }
    }

    /// Length of the longest hit list (0 for an empty index) — the
    /// worst-case fan-out of one probe.
    pub fn max_hit_len(&self) -> usize {
        // every longer list has a slot; any other key holds one row
        let longest = self.slot_len.iter().max().copied();
        longest.map_or(usize::from(self.distinct_keys() > 0), |len| len as usize)
    }
}

/// One cache slot: filled exactly once, by whichever thread wins the
/// [`OnceLock`] race; losers block on the lock and share the result.
type IndexSlot = Arc<OnceLock<Arc<KeyIndex>>>;

/// Rows × cold keys below which [`MasterIndex::build_all`] builds on
/// the calling thread. Measured on a 2-core box over HOSP masters of
/// 250–16 000 rows with 2 and 9 keys: two threads lose to one up to
/// about 4 500 rows × keys, break even near 9 000, and halve the time
/// from 36 000.
pub const PARALLEL_BUILD_MIN: usize = 1 << 13;

/// A batch of master-data mutations, applied atomically by
/// [`MasterIndex::apply_delta`] to produce the next generation.
///
/// Within one delta, updates land first (in call order — the last
/// update to a row wins), then deletes remove rows (duplicate deletes
/// are fine; surviving rows keep their relative order and are
/// renumbered densely), then inserts append at the end in call order.
/// Row ids refer to the generation the delta is applied to, before any
/// renumbering. The resulting row list is exactly what a from-scratch
/// master over those rows would hold, and the next snapshot's indexes
/// are built over that list, so they are indistinguishable from a
/// rebuilt master's (invariant D10).
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
    /// deletes renumber the surviving rows).
    pub fn has_deletes(&self) -> bool {
        !self.deletes().is_empty()
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
/// monotonically as new key lists are built. Builds are single-flight
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
        let slot = self.slot(key);
        self.fill(&slot, || Room::build_one(&self.rel, key)).clone()
    }

    /// The index in `slot`, made by `build` if no thread has filled the
    /// slot yet, and counted in [`index_builds`](Self::index_builds) on
    /// the root snapshot or in [`index_patches`](Self::index_patches) on
    /// one a delta made.
    fn fill<'s>(
        &self,
        slot: &'s IndexSlot,
        build: impl FnOnce() -> Arc<KeyIndex>,
    ) -> &'s Arc<KeyIndex> {
        slot.get_or_init(|| {
            let count = if self.generation == 0 {
                &self.builds
            } else {
                &self.patches
            };
            count.fetch_add(1, Ordering::Relaxed);
            build()
        })
    }

    /// Build every cold index among `keys` now, into the same
    /// single-flight slots [`index_for`](Self::index_for) fills, so each
    /// key still counts once, whoever wins its slot:
    /// in [`index_builds`](Self::index_builds) on the root snapshot and
    /// in [`index_patches`](Self::index_patches) on one a delta made.
    /// A plan's compile calls it for every generation alike.
    ///
    /// When the cold keys cover at least [`PARALLEL_BUILD_MIN`] rows ×
    /// keys, they are built on a scoped pool of
    /// [`available_parallelism`](thread::available_parallelism) threads,
    /// the calling thread among them, which claim keys widest first
    /// through one shared cursor; below that, on the calling thread
    /// alone. A warm master builds and allocates nothing. Either way the
    /// calling thread first measures every cold key in one pass over the
    /// rows and allocates each index's buffers, and an index is
    /// [`KeyIndex::build`] over this snapshot's rows, so its contents do
    /// not depend on the thread that built it.
    pub fn build_all<K: AsRef<[AttrId]>>(&self, keys: &[K]) {
        let mut keys: Vec<&[AttrId]> = keys.iter().map(AsRef::as_ref).collect();
        keys.sort_unstable_by(|a, b| b.len().cmp(&a.len()).then_with(|| a.cmp(b)));
        keys.dedup();
        keys.retain(|key| self.slot(key).get().is_none());
        if keys.is_empty() {
            // a warm master: nothing to measure, allocate or build
            return;
        }
        // every cold key's room comes from this thread (see `Room`)
        let cold: Vec<_> = keys
            .iter()
            .zip(measure(&self.rel, &keys))
            .map(|(&key, size)| (key, self.slot(key), Mutex::new(Some(Room::new(key, size)))))
            .collect();
        // asking for the core count reads the cgroup limits: not for
        // work too small to share
        let threads = if self.rel.len() * cold.len() < PARALLEL_BUILD_MIN {
            1
        } else {
            thread::available_parallelism()
                .map_or(1, NonZeroUsize::get)
                .min(cold.len())
        };
        // the cursor only hands out key numbers; the built indexes are
        // published by their `OnceLock`s and the scope's join
        let cursor = AtomicUsize::new(0);
        let work = |mut scratch: Scratch| {
            while let Some((key, slot, room)) = cold.get(cursor.fetch_add(1, Ordering::Relaxed)) {
                self.fill(slot, || {
                    let room = room.lock().expect("index room poisoned").take();
                    match room {
                        Some(room) => room.build(&self.rel, &mut scratch),
                        // gone only if a build in it panicked
                        None => Room::build_one(&self.rel, key),
                    }
                });
            }
            scratch
        };
        let scratch: Vec<Scratch> = thread::scope(|s| {
            let helpers: Vec<_> = (1..threads)
                .map(|_| {
                    let scratch = Scratch::new(self.rel.len());
                    s.spawn(move || work(scratch))
                })
                .collect();
            let mine = work(Scratch::new(self.rel.len()));
            let theirs = helpers
                .into_iter()
                .map(|h| h.join().expect("an index build panicked"));
            theirs.chain([mine]).collect()
        });
        // freed here, by the thread that allocated it
        drop(scratch);
    }

    /// The cache slot of `key`, reserved empty if there is none yet.
    fn slot(&self, key: &[AttrId]) -> IndexSlot {
        let slot = self
            .cache
            .read()
            .expect("index cache poisoned")
            .get(key)
            .cloned();
        slot.unwrap_or_else(|| {
            let mut w = self.cache.write().expect("index cache poisoned");
            w.entry(key.to_vec()).or_default().clone()
        })
    }

    /// Apply a batch of mutations, returning the **next-generation**
    /// snapshot. `self` is untouched: probes pinned against it (or any
    /// older generation) keep their rows — this is the non-blocking
    /// half of the invalidation contract.
    ///
    /// A delta derives the next generation's rows and builds nothing:
    /// the next snapshot's cache starts empty, with or without deletes,
    /// and builds on [`build_all`](Self::build_all) (which a plan's
    /// compile runs) or [`index_for`](Self::index_for), counted by
    /// [`index_patches`](Self::index_patches). `self`'s cache is never
    /// read.
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
        Ok(MasterIndex {
            rel: Arc::new(Relation::new(Arc::clone(schema), rows)?),
            generation: self.generation + 1,
            cache: Arc::new(RwLock::new(FxHashMap::default())),
            builds: Arc::clone(&self.builds),
            patches: Arc::clone(&self.patches),
        })
    }

    /// The generation of this snapshot: 0 for [`new`](Self::new), +1
    /// per applied delta along the lineage.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of [`KeyIndex`] builds into snapshots a delta made
    /// (generation 1 on), across the whole lineage: each such snapshot
    /// builds each key list it probes once, as the root does.
    pub fn index_patches(&self) -> u64 {
        self.patches.load(Ordering::Relaxed)
    }

    /// Number of [`KeyIndex`] builds into the lineage's root snapshot
    /// (generation 0; diagnostics: with single-flight builds it builds
    /// each key list it probes once, however many workers raced on it).
    /// Builds into later generations count in
    /// [`index_patches`](Self::index_patches).
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

    /// `a` and `b` are the same index of `rel`: the same span (rows
    /// and slot) for every row's key and for a miss, and the same
    /// distinct keys, longest list and slot count.
    fn assert_same_index(a: &KeyIndex, b: &KeyIndex, rel: &Relation) {
        assert_eq!(a.key(), b.key());
        assert_eq!(a.distinct_keys(), b.distinct_keys());
        assert_eq!(a.max_hit_len(), b.max_hit_len());
        assert_eq!(a.span_slots(), b.span_slots());
        for t in rel.iter() {
            let probe: Vec<Value> = a.key().iter().map(|&k| *t.get(k)).collect();
            assert_eq!(a.locate(&probe), b.locate(&probe));
            assert_eq!(a.lookup(&probe), b.lookup(&probe));
        }
        let miss = vec![Value::str("nope"); a.key().len()];
        assert_eq!(a.locate(&miss), Span::EMPTY);
        assert_eq!(b.locate(&miss), Span::EMPTY);
    }

    /// A master of `n` rows over four integer columns of 5, 7, 11 and
    /// 13 values, with a null in one cell of every 17th row: keys of
    /// one to four columns mix long, short and one-row hit lists.
    fn wide_master(n: usize) -> Arc<Relation> {
        let s = Schema::new("Rm", ["a", "b", "c", "d"]).unwrap();
        let rows = (0..n as i64)
            .map(|i| {
                let mut cells: Vec<Value> =
                    [5, 7, 11, 13].iter().map(|m| Value::int(i % m)).collect();
                if i % 17 == 0 {
                    cells[(i as usize / 17) % 4] = Value::Null;
                }
                Tuple::new(cells)
            })
            .collect();
        Arc::new(Relation::new(s, rows).unwrap())
    }

    /// The keys the wide-master tests build: widths 1 to 4.
    fn wide_keys() -> Vec<Vec<AttrId>> {
        vec![
            vec![AttrId(0)],
            vec![AttrId(1), AttrId(0)],
            vec![AttrId(0), AttrId(1), AttrId(2)],
            vec![AttrId(3), AttrId(2), AttrId(1), AttrId(0)],
        ]
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

    /// Every hit list is a span of the one row buffer: spans agree with
    /// `lookup`, misses and nulls are empty, and the buffer holds each
    /// indexed row exactly once.
    #[test]
    fn hit_lists_are_spans_of_one_row_buffer() {
        let rel = master();
        let zip = KeyIndex::build(&rel, &[AttrId(0)]);
        let s = zip.span(&[Value::str("EH7 4AH")]);
        assert_eq!(zip.hits(s), &[0, 2]);
        assert_eq!(zip.span(&[Value::Null]).1, 0);
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

    /// Multi-row spans take the dense slots `0..span_slots()` in order
    /// of their key's first row; one-row spans and misses take none.
    #[test]
    fn multi_row_spans_take_dense_slots() {
        let rel = master();
        let zip = KeyIndex::build(&rel, &[AttrId(0)]);
        assert_eq!(zip.span_slots(), 1, "only EH7 4AH repeats");
        let dup = zip.locate(&[Value::str("EH7 4AH")]);
        assert_eq!((dup.range(), dup.slot), ((0, 2), 0));
        assert_eq!(zip.locate(&[Value::str("WC1H 9SE")]).slot, NO_SLOT);
        assert_eq!(zip.locate(&[Value::str("nope")]), Span::EMPTY);
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
        // keys first seen at rows 0 (b), 1 (a) and 4 (c): slots 0, 1, 2
        let s = Schema::new("Rm", ["k", "l"]).unwrap();
        let rows = ["b", "a", "b", "a", "c", "d", "c"]
            .iter()
            .map(|&k| tuple![k, "x"])
            .collect();
        let rel = Relation::new(s, rows).unwrap();
        for key in [&[AttrId(0)][..], &[AttrId(0), AttrId(1)]] {
            let idx = KeyIndex::build(&rel, key);
            let slot = |k: &str| {
                idx.locate(&[Value::str(k), Value::str("x")][..key.len()])
                    .slot
            };
            assert_eq!(
                [slot("b"), slot("a"), slot("c"), slot("d")],
                [0, 1, 2, NO_SLOT]
            );
        }
    }

    /// A fingerprint shared by every wide key puts all of them on one
    /// collision chain: the index still answers exactly as one built
    /// with real fingerprints. (Probes hash like the build they probe,
    /// so each index is probed with its own fingerprints.)
    #[test]
    fn colliding_wide_keys_share_one_chain() {
        let rel = wide_master(300);
        let answers = |idx: &KeyIndex| {
            let mut probes: Vec<Vec<Value>> = rel.iter().map(|t| t.project(idx.key())).collect();
            probes.push(vec![Value::str("nope"); idx.key().len()]);
            let spans: Vec<Span> = probes.iter().map(|p| idx.locate(p)).collect();
            (
                spans,
                idx.distinct_keys(),
                idx.max_hit_len(),
                idx.span_slots(),
            )
        };
        for key in &wide_keys()[1..] {
            let apart = KeyIndex::build(&rel, key);
            let want = answers(&apart);
            COLLIDE.with(|c| c.set(true));
            let chained = KeyIndex::build(&rel, key);
            let got = answers(&chained);
            COLLIDE.with(|c| c.set(false));
            assert_eq!(got, want);
            assert_eq!(*want.0.last().unwrap(), Span::EMPTY);
            let SpanMap::Wide(w) = &chained.spans else {
                panic!("a wide key has a wide map")
            };
            assert_eq!(w.heads.len(), 1, "one fingerprint, one chain");
            assert!(w.links.len() >= 35, "a chain of {} keys", w.links.len());
        }
    }

    /// A delta derives the next generation's rows and nothing else, with
    /// or without deletes: the next snapshot's cache starts empty and
    /// neither counter moves. Its first build of a key — through
    /// `build_all`, as a plan's compile runs it, or through `index_for` —
    /// counts one patch and equals a fresh build over the new rows.
    /// Deletes renumber: duplicate deletes collapse, survivors keep their
    /// order.
    #[test]
    fn a_delta_derives_rows_only() {
        let zip = [AttrId(0)];
        let wide = [AttrId(1), AttrId(2)];
        let keys = [&zip[..], &wide[..]];
        let free = MasterDelta::new()
            .update(0, tuple!["G2 8DL", "141", "Gla"]) // leaves both hit lists
            .update(3, tuple!["EH8 9YL", "131", "Edi"]) // null zip becomes indexed
            .insert(tuple!["EH7 4AH", "131", "Edi"]); // joins the duplicate-key list
        let deleting = MasterDelta::new().delete(0).delete(0).delete(3);
        assert_eq!((free.len(), deleting.len()), (3, 3));
        assert!(!free.has_deletes() && deleting.has_deletes());
        for delta in [&free, &deleting] {
            for compile in [true, false] {
                let m0 = MasterIndex::new(master());
                m0.build_all(&keys);
                let m1 = m0.apply_delta(delta).unwrap();
                assert_eq!(m1.generation(), 1);
                assert_eq!(m1.cached_indexes(), 0, "a delta builds no index");
                assert_eq!((m1.index_builds(), m1.index_patches()), (2, 0));
                if compile {
                    m1.build_all(&keys);
                } else {
                    keys.iter().for_each(|key| drop(m1.index_for(key)));
                }
                assert_eq!(
                    (m1.index_builds(), m1.index_patches()),
                    (2, 2),
                    "one patch per key"
                );
                for key in keys {
                    let fresh = KeyIndex::build(m1.relation(), key);
                    assert_same_index(&m1.index_for(key), &fresh, m1.relation());
                }
                assert_eq!((m0.cached_indexes(), m1.cached_indexes()), (2, 2));
                assert_eq!(m1.index_patches(), 2, "a warm snapshot builds nothing");
            }
        }
        // ascending, with the inserted row's (largest) id at the end
        let m1 = MasterIndex::new(master()).apply_delta(&free).unwrap();
        assert_eq!(m1.index_for(&zip).lookup(&[Value::str("EH7 4AH")]), &[2, 4]);
        let m1 = MasterIndex::new(master()).apply_delta(&deleting).unwrap();
        assert_eq!(m1.len(), 2);
        assert_eq!(m1.index_for(&zip).lookup(&[Value::str("WC1H 9SE")]), &[0]);
        assert_eq!(m1.index_for(&zip).lookup(&[Value::str("EH7 4AH")]), &[1]);
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
    /// snapshot's index.
    #[test]
    fn an_older_snapshot_leaves_the_newer_index_alone() {
        let m0 = MasterIndex::new(master());
        let zip = [AttrId(0)];
        let _ = m0.index_for(&zip);
        let m1 = m0
            .apply_delta(&MasterDelta::new().update(1, tuple!["N", "0", "z"]))
            .unwrap();
        let patched = m1.index_for(&zip);
        assert_eq!(m0.index_for(&zip).lookup(&[Value::str("N")]), &[] as &[u32]);
        assert!(Arc::ptr_eq(&m1.index_for(&zip), &patched));
        assert_eq!(m1.index_for(&zip).lookup(&[Value::str("N")]), &[1]);
        assert_eq!(m0.index_builds(), 1, "one build, then one patch");
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

    /// A patch, a build over a delta's rows, drops hit lists that empty
    /// out, so `distinct_keys` agrees with a fresh build.
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

        // `build_all` racing `index_for` on a master past the parallel
        // cutoff: still one build per key, and every caller gets it
        let rel = wide_master(PARALLEL_BUILD_MIN / 2);
        let keys = wide_keys();
        let m = MasterIndex::new(Arc::clone(&rel));
        let start = std::sync::Barrier::new(1 + keys.len());
        let got: Vec<Arc<KeyIndex>> = std::thread::scope(|s| {
            let racers: Vec<_> = keys
                .iter()
                .map(|key| {
                    s.spawn(|| {
                        start.wait();
                        m.index_for(key)
                    })
                })
                .collect();
            start.wait();
            m.build_all(&keys);
            racers.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(m.index_builds(), keys.len() as u64);
        assert_eq!(m.cached_indexes(), keys.len());
        for (key, idx) in keys.iter().zip(&got) {
            assert!(Arc::ptr_eq(idx, &m.index_for(key)));
            assert_same_index(idx, &KeyIndex::build(&rel, key), &rel);
        }
        m.build_all(&keys);
        assert_eq!(
            m.index_builds(),
            keys.len() as u64,
            "a warm master builds nothing"
        );
    }

    /// `measure` counts a key's rows exactly and its distinct keys
    /// within the margin a room adds, and a build fits its room: no
    /// buffer grows past the capacity the room gave it.
    #[test]
    fn a_build_fits_its_room() {
        let rel = wide_master(PARALLEL_BUILD_MIN);
        let keys = wide_keys();
        let keys: Vec<&[AttrId]> = keys.iter().map(Vec::as_slice).collect();
        for (&key, size) in keys.iter().zip(measure(&rel, &keys)) {
            let built = KeyIndex::build(&rel, key);
            assert_eq!(size.0, built.rows.len(), "{key:?}");
            let distinct = built.distinct_keys();
            assert!(
                size.1.abs_diff(distinct) <= distinct / 32 + 16,
                "{key:?}: {size:?} for {distinct}"
            );
            let capacities = |rows: &Vec<u32>, slot_len: &Vec<u32>, spans: &SpanMap| {
                let spans = match spans {
                    SpanMap::Rank(m) => vec![m.capacity()],
                    SpanMap::Wide(w) => {
                        vec![w.heads.capacity(), w.keys.capacity(), w.links.capacity()]
                    }
                };
                (rows.capacity(), slot_len.capacity(), spans)
            };
            let room = Room::new(key, size);
            let before = capacities(&room.rows, &room.slot_len, &room.spans);
            let index = room.build(&rel, &mut Scratch::new(rel.len()));
            let after = capacities(&index.rows, &index.slot_len, &index.spans);
            assert_eq!(before, after, "{key:?}");
            assert_same_index(&index, &built, &rel);
        }
    }

    /// `build_all` on a master past the parallel cutoff builds exactly
    /// what `KeyIndex::build` builds, once per distinct key however
    /// often a key is named.
    #[test]
    fn parallel_builds_match_sequential_builds() {
        let rel = wide_master(PARALLEL_BUILD_MIN);
        let m = MasterIndex::new(Arc::clone(&rel));
        let mut keys = wide_keys();
        keys.push(keys[1].clone());
        m.build_all(&keys);
        assert_eq!(m.index_builds(), 4);
        for key in &keys {
            assert_same_index(&m.index_for(key), &KeyIndex::build(&rel, key), &rel);
        }
        assert_eq!(m.index_builds(), 4);
    }
}
