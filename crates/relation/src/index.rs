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
//! it starts, from a strided sample of the rows (every row of a small
//! master): a key whose sample never repeats gets room for one key per
//! row, and a repeating key room for the distinct keys the sample
//! predicts. A wrong guess costs a regrowth, never a different index;
//! on the benchmark's masters no buffer, table included, regrows. A
//! span stays valid for as long as the index is pinned, which is what
//! lets the block layer of `certainfix-rules` hold spans instead of
//! copies.
//!
//! A single-attribute key is hashed by its injective
//! [`Value::grouping_rank`], kept as two `u64` words so that a map entry
//! takes 24 bytes, not a `u128`'s padded 32. A wider key is stored once,
//! in one flat `Value` buffer of distinct keys × width (numbered in
//! order of first appearance), and found through a map from its 64-bit
//! fingerprint to a chain of the keys sharing it: no key is boxed on
//! its own, and a build hashes each row's key once.
//!
//! A key that never repeats is built in one pass: the first pass writes
//! each new key's entry as the one-row span it will keep, and the
//! indexed row ids in row order, which are then its `rows`, and
//! nothing else. Only a key with a repeat counts its groups' rows (from
//! its first repeat on) and goes on to the prefix sum, the scatter and
//! the rewrite of every entry. Both paths give the same index.
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
//! master is large (the keys with the most distinct values claimed
//! first), and a rule plan's compile calls it for the rules' keys, so a
//! context is ready before its first probe. Its calling
//! thread allocates everything the builds write, so the helpers
//! allocate and free nothing unless a sample sized a room too small
//! (see `Room` for why that matters).
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
    /// hashing on the probe path — as its two words ([`rank_words`]).
    Rank(FxHashMap<(u64, u64), (u32, u32)>),
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
    /// fingerprint, with the provisional entry `(g, 1)` that
    /// [`set_entries`](Self::set_entries) overwrites unless every
    /// group holds one row.
    fn group(&mut self, rel: &Relation, key: &[AttrId], pass: &mut FirstPass) {
        let WideKeys {
            width,
            keys,
            heads,
            links,
        } = self;
        let width = *width;
        for (i, t) in rel.iter().enumerate() {
            let cells = || key.iter().map(|&a| t.get(a));
            if cells().any(Value::is_null) {
                pass.skip();
                continue;
            }
            let head = heads
                .entry(fingerprint(cells()))
                .or_insert((NO_GROUP, (0, 0)));
            let mut g = head.0;
            while g != NO_GROUP && !keys[g as usize * width..][..width].iter().eq(cells()) {
                g = links[g as usize].0;
            }
            if g == NO_GROUP {
                g = links.len() as u32;
                links.push((head.0, (g, 1)));
                *head = (g, (g, 1));
                keys.extend(cells());
            }
            pass.place(i, g);
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

/// A [`Value::grouping_rank`] as its low and high words: the words the
/// Fx hash of the `u128` reads, in that order, so the hash is the same.
/// A `u128` aligns to 16 bytes and pads a `(rank, (u32, u32))` map
/// entry to 32; two words make it 24, and a unique 50 000-row key's
/// map 1.6 MB instead of 2.16.
#[inline]
fn rank_words(v: &Value) -> (u64, u64) {
    let rank = v.grouping_rank();
    (rank as u64, (rank >> 64) as u64)
}

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

/// What the first pass of a build writes besides the map: the indexed
/// row ids in row order, which are the index's `rows` when no key
/// repeats, and, from the first repeat on, each row's group id and each
/// group's row count for the scatter. Until a key repeats, group `g` is
/// the `g`-th indexed row and holds one row, so neither is written: a
/// key that never repeats writes its map and its rows and nothing else.
struct FirstPass<'b> {
    group: &'b mut Vec<u32>,
    counts: &'b mut Vec<u32>,
    rows: &'b mut Vec<u32>,
    /// Some key repeated: `group` and `counts` are being written.
    repeats: bool,
}

impl FirstPass<'_> {
    /// Row `i` of group `g` (a new group is the next id).
    #[inline]
    fn place(&mut self, i: usize, g: u32) {
        self.rows.push(i as u32);
        if !self.repeats {
            if g as usize + 1 == self.rows.len() {
                return;
            }
            self.start_counting(i);
        }
        self.group.push(g);
        match self.counts.get_mut(g as usize) {
            Some(c) => *c += 1,
            None => self.counts.push(1),
        }
    }

    /// The first repeat, at row `i`: write the group id of every row
    /// before it and the count of every group so far, one row each.
    #[cold]
    fn start_counting(&mut self, i: usize) {
        self.repeats = true;
        let before = &self.rows[..self.rows.len() - 1];
        let mut indexed = before.iter().enumerate().peekable();
        self.group.extend(
            (0..i as u32).map(|row| match indexed.next_if(|&(_, &r)| r == row) {
                Some((g, _)) => g as u32,
                None => UNINDEXED,
            }),
        );
        self.counts.resize(before.len(), 1);
    }

    /// The next row, whose key holds a null.
    #[inline]
    fn skip(&mut self) {
        if self.repeats {
            self.group.push(UNINDEXED);
        }
    }
}

/// The first pass of a build on a single-attribute key: each distinct
/// rank into `m`, mapped to its group id (groups numbered in order of
/// first appearance) and the provisional entry `(g, 1)`, which is final
/// when every group holds one row (see [`Room::build`]).
fn group_by_rank(
    m: &mut FxHashMap<(u64, u64), (u32, u32)>,
    rel: &Relation,
    a: AttrId,
    pass: &mut FirstPass,
) {
    for (i, t) in rel.iter().enumerate() {
        let v = t.get(a);
        if v.is_null() {
            pass.skip();
        } else {
            let fresh = (m.len() as u32, 1);
            pass.place(i, m.entry(rank_words(v)).or_insert(fresh).0);
        }
    }
}

/// [`measure`] reads one row of every `SAMPLE_STRIDE` of a master of
/// [`SAMPLE_ALL_BELOW`] rows or more (see [`sampled_row`]). Measured on
/// a 2-core Xeon, median of 100–400 passes over HOSP's 9 keys: reading
/// every row took 0.87 ms at 10 000 rows and 5.4 ms at 50 000; one row
/// of 4 took 0.21 and 1.16 ms, of 8 0.10 and 0.62, of 16 0.05 and 0.30.
/// At 16, the 625 rows sampled of 10 000 put a 2 000-value key at 1 946
/// keys, margin included, for its 1 988, and that room regrew.
const SAMPLE_STRIDE: usize = 8;

/// Masters below this many rows are measured on every row, which sizes
/// each room exactly; a sample of a few dozen rows is a noisy guess.
/// Counting every row costs several times what a sample costs and
/// more than a build could lose to a regrowth at these sizes: over
/// HOSP's 9 keys, on a 2-core Xeon, the pass took 0.017 ms at 250
/// rows, and 0.073 ms at 1 000 where the sample takes 0.009, and the
/// whole `build_all` 0.156 ms at 1 000 rows read whole against 0.090
/// sampled. No room of HOSP's or DBLP's keys regrew on sampled masters
/// of 256 to 4 000 rows.
const SAMPLE_ALL_BELOW: usize = 256;

/// The row [`measure`] reads of block `b` of `stride` rows: the one at
/// an offset within the block that a hash of its number picks. A fixed
/// offset samples a column whose period shares a factor with the stride
/// on only part of its values: HOSP's `mCode` repeats every 40 rows, so
/// every 8th row sees 5 of its 40 codes (and of its 800 `(mCode, ST)`
/// pairs, 100), and those rooms regrew.
#[inline]
fn sampled_row(b: usize, stride: usize) -> usize {
    b * stride + (fmix64(b as u64) as usize & (stride - 1))
}

/// Sampled rows [`measure`] asks the cache for ahead of reading them:
/// one of every 8 rows is too far apart for the hardware to follow the
/// stream, and the reads stalled (see [`prefetch`]).
const PREFETCH_AHEAD: usize = 2;

/// Ask for the cache line holding `v` ahead of its use. Prefetching
/// each sampled row's key cells two rows ahead took HOSP's 50 000-row
/// sizing pass from 0.80 to 0.61 ms on a 2-core Xeon, and
/// `hosp_net_entry`'s `setup_s` from 1.29 to 1.24 ms.
#[inline]
fn prefetch(v: &Value) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: a prefetch is a hint that reads and writes nothing; `v`
    // is a live reference anyway.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>((v as *const Value).cast());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = v;
}

/// The capacities [`measure`] gives one key's [`Room`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Size {
    /// Indexed rows: counted when every row was read, else the row
    /// count.
    rows: usize,
    /// Distinct keys.
    groups: usize,
    /// Multi-row spans.
    slots: usize,
}

impl Size {
    /// The room of a key whose `n` sampled indexed rows (one of every
    /// `stride` of `len` rows) held `d` distinct keys, `f1` of them
    /// once and `f2` twice.
    ///
    /// Every row read: `n` and `d` are exact, and so is the room. A
    /// multi-row group holds two rows or more, so there are at most
    /// `min(d, n − d)` of them.
    ///
    /// Otherwise the keys the sample missed are guessed as the fewer of
    /// `f1 · (stride − 1)` (each key seen once stands for `stride` of its
    /// own) and Chao's `f1² / 2 f2` (exact in expectation when the keys
    /// are evenly frequent), and a margin covers the sampling noise. A
    /// sample that never repeats predicts one key per row, which the
    /// row count caps: those keys cannot be outgrown.
    ///
    /// A repeating key's multi-row spans are bounded apart from the
    /// guess, by half the rows and by the rows less the distinct keys
    /// the sample saw, so a guess that overshoots never leaves them too
    /// little room. A sample that never repeats saw no span: two rows
    /// of one key in different blocks show in it as a repeat one time
    /// in 64, so with none seen it gets a slot per sampled row, and only
    /// a master that hides its repeats inside blocks outgrows them.
    /// (Half the rows for those keys too, 100 KB per unique key of a
    /// 50 000-row master that its index never fills, raised
    /// `hosp_bulk`'s peak RSS from 288.1 to 289.7 MB, median of 5 runs,
    /// against 287.9 MB with a slot per sampled row.)
    fn from_sample(len: usize, stride: usize, [n, d, f1, f2]: [usize; 4]) -> Size {
        if stride == 1 {
            return Size {
                rows: n,
                groups: d,
                slots: d.min(n - d),
            };
        }
        let unseen = (f1 * (stride - 1)).min(f1 * f1.saturating_sub(1) / (2 * (f2 + 1)));
        let estimate = d + unseen;
        let groups = (estimate + estimate / 8 + 16).min(len);
        let slots = if f1 == d {
            n
        } else {
            groups.min(len / 2).min(len - d)
        };
        Size {
            rows: len,
            groups,
            slots,
        }
    }
}

/// The murmur3 finalizer: spreads the bits of a block number over all
/// 64 bits, so the low ones [`sampled_row`] takes share no period with
/// the blocks.
#[inline]
fn fmix64(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// For each of `keys`, the [`Size`] of its index over `rel`, from one
/// pass over one row of every block of [`SAMPLE_STRIDE`] rows (every
/// row below [`SAMPLE_ALL_BELOW`]; see [`sampled_row`]). Each key
/// counts its sampled rows by [`fingerprint`] in a map of its own, up
/// to three sightings, and the sample's distinct keys and keys seen
/// once and twice give the size (see [`Size::from_sample`]).
fn measure(rel: &Relation, keys: &[&[AttrId]]) -> Vec<Size> {
    let rows = rel.tuples();
    let stride = if rows.len() < SAMPLE_ALL_BELOW {
        1
    } else {
        SAMPLE_STRIDE
    };
    let blocks = rows.len().div_ceil(stride);
    let mut seen: Vec<FxHashMap<u64, u8>> = keys
        .iter()
        .map(|_| FxHashMap::with_capacity_and_hasher(blocks, Default::default()))
        .collect();
    // per key: sampled indexed rows, distinct keys, keys seen once, twice
    let mut counts = vec![[0usize; 4]; keys.len()];
    let mut cells_read: Vec<AttrId> = keys.concat();
    cells_read.sort_unstable();
    cells_read.dedup();
    for b in 0..blocks {
        // a walk over every row streams, and the hardware keeps up with it
        if stride > 1 {
            if let Some(ahead) = rows.get(sampled_row(b + PREFETCH_AHEAD, stride)) {
                cells_read.iter().for_each(|&a| prefetch(ahead.get(a)));
            }
        }
        let Some(t) = rows.get(sampled_row(b, stride)) else {
            continue;
        };
        let per_key = keys.iter().zip(&mut seen);
        for ((key, table), [n, d, f1, f2]) in per_key.zip(&mut counts) {
            let cells = || key.iter().map(|&a| t.get(a));
            if cells().any(Value::is_null) {
                continue;
            }
            *n += 1;
            let sightings = table.entry(fingerprint(cells())).or_insert(0);
            match *sightings {
                0 => {
                    *d += 1;
                    *f1 += 1;
                }
                1 => {
                    *f1 -= 1;
                    *f2 += 1;
                }
                2 => *f2 -= 1,
                _ => continue,
            }
            *sightings += 1;
        }
    }
    counts
        .into_iter()
        .map(|c| Size::from_sample(rows.len(), stride, c))
        .collect()
}

/// Everything one build writes, allocated before it starts and sized
/// from [`measure`]: the index's buffers, with room for its rows and
/// for its distinct keys and multi-row spans as the sample predicts
/// them, and the `Arc` it is published in. A build fills them in place,
/// and allocates nothing itself unless the prediction fell short: then
/// a buffer regrows (rehashing or copying every entry and freeing the
/// old one), and the index is the same. A master read whole gets rooms
/// exact to its keys. A key whose sample never repeats gets room for as
/// many rows and keys as the master has rows, which no master can
/// outgrow. Giving every key that room, with no pass at all, cost peak
/// RSS that the sample's rooms for repeating keys do not.
///
/// A build's first pass writes the row ids and each new key's entry
/// `(g, 1)` (24 bytes a key on a single attribute). When no key
/// repeated, that is the whole index, and the build writes nothing more
/// (not even its [`Scratch`]); otherwise its second pass overwrites both
/// (see [`KeyIndex::build`]).
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
/// the next. A key that never repeats leaves them untouched (see
/// `FirstPass`).
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
    /// The room of an index on `key` of the [`Size`] [`measure`] gave.
    fn new(key: &[AttrId], size: Size) -> Room {
        fn map<K, V>(len: usize) -> FxHashMap<K, V> {
            FxHashMap::with_capacity_and_hasher(len, Default::default())
        }
        let Size {
            rows,
            groups,
            slots,
        } = size;
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
        let mut pass = FirstPass {
            group,
            counts,
            rows: &mut rows,
            repeats: false,
        };
        match &mut spans {
            SpanMap::Rank(m) => group_by_rank(m, rel, key[0], &mut pass),
            SpanMap::Wide(w) => w.group(rel, key, &mut pass),
        }
        // with no repeat every group holds one row, so `rows` is already
        // grouped and every provisional entry final
        if pass.repeats {
            // per group, its packed entry: a prefix sum gives its start,
            // and a prefix count over the multi-row groups its span slot
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
            debug_assert_eq!(total as usize, rows.len());
            // scatter over the row ids: `counts[g]` now walks group g's
            // positions
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
    /// the rows and the key alone. A key that never repeats needs no
    /// second pass: group `g` is the `g`-th indexed row, the one-row
    /// span at position `g` that the first pass already gave it. (A
    /// pass over a sample of the rows before them sizes every buffer; a
    /// buffer the sample sized too small regrows, and the index is the
    /// same.)
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
            SpanMap::Rank(m) => m.get(&rank_words(&probe[0])).copied(),
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
/// 250–24 000 rows, one thread against the pool, median of 150 builds
/// in each of two runs, with the sizing pass a sample: with 9 keys two
/// threads lose to one up to 5 400 rows × keys (1.05–1.39× the time),
/// split at 6 750 (0.92–1.13×) and win from 8 100 on (0.63–0.93×).
/// Sizing from every row, they had won from 5 400 (0.70–0.91×), so the
/// break-even moved up to this cutoff. With 2 keys the pool loses at
/// 4 000 (1.25–1.30×), wins at 8 000 to 16 000 in most runs
/// (0.71–0.83×, one run 1.18× at 24 000) and is not steady past that
/// (0.78–1.24× at 48 000): the first touches of fresh pages can
/// outweigh splitting two builds. In the benchmark, with this cutoff
/// made unreachable so that every key built on one thread,
/// `hosp_net_entry`'s `setup_s` read 3.65–5.94 ms against the pool's
/// 2.60–3.61 ms over 6 pairs of runs on the same 2-core box.
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
    /// the calling thread among them, which claim keys through one
    /// shared cursor, largest first: most distinct keys as the sample
    /// measured them, then widest, so that the last keys claimed are the
    /// quick ones: claimed widest first, a unique single-attribute key of
    /// 50 000 groups could come last and leave the other thread idle
    /// while one thread built it. Below the cutoff the keys build on the
    /// calling thread alone. A warm master builds and allocates
    /// nothing. Either way the calling thread first measures every cold
    /// key in one pass over a sample of the rows and allocates each
    /// index's buffers, and an index is [`KeyIndex::build`] over this
    /// snapshot's rows, so neither the claim order nor the thread that
    /// built an index changes its contents.
    pub fn build_all<K: AsRef<[AttrId]>>(&self, keys: &[K]) {
        let mut keys: Vec<&[AttrId]> = keys.iter().map(AsRef::as_ref).collect();
        keys.sort_unstable();
        keys.dedup();
        keys.retain(|key| self.slot(key).get().is_none());
        if keys.is_empty() {
            // a warm master: nothing to measure, allocate or build
            return;
        }
        let mut cold: Vec<(&[AttrId], Size)> = keys
            .iter()
            .copied()
            .zip(measure(&self.rel, &keys))
            .collect();
        cold.sort_unstable_by(|(a, sa), (b, sb)| {
            (sb.groups, b.len(), a).cmp(&(sa.groups, a.len(), b))
        });
        self.build_cold(&cold);
    }

    /// Build the distinct cold `keys` of the [`Size`]s [`measure`] gave
    /// them, claimed in this order (see [`build_all`](Self::build_all)).
    fn build_cold(&self, keys: &[(&[AttrId], Size)]) {
        // every cold key's room comes from this thread (see `Room`)
        let cold: Vec<_> = keys
            .iter()
            .map(|&(key, size)| (key, self.slot(key), Mutex::new(Some(Room::new(key, size)))))
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
                    #[cfg(test)]
                    let collide = COLLIDE.with(std::cell::Cell::get);
                    s.spawn(move || {
                        // a helper fingerprints as its caller does
                        #[cfg(test)]
                        COLLIDE.with(|c| c.set(collide));
                        work(scratch)
                    })
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
    use crate::hashers::FxHashSet;
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

    /// A master of `n` rows shaped like the benchmark's, over integer
    /// columns: 0 is unique (HOSP's `id`), 1 repeats every 40 rows (HOSP's
    /// `mCode`), 2 takes 20 values by a hash of the row (`ST`), 3 is
    /// constant (DBLP's `type`), 4 numbers runs of 25 rows (a DBLP
    /// conference: 2 000 of them at 50 000 rows), 5 is a function of 4
    /// (its `year`), 6 takes 2 000 values by a hash of the row, 7 is a
    /// function of 6, and 8 repeats every ⅝ `n` rows, so that most of
    /// its values sit in two rows and the rest in one.
    fn shaped_master(n: usize) -> Arc<Relation> {
        let s = Schema::new(
            "Rm",
            [
                "id", "mCode", "ST", "type", "conf", "year", "h", "g", "pair",
            ],
        )
        .unwrap();
        let scatter = |i: u64, salt: u64| {
            let x = (i ^ salt).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            (x ^ (x >> 29)).wrapping_mul(0xBF58_476D_1CE4_E5B9) >> 32
        };
        let rows = (0..n as u64)
            .map(|i| {
                let h = scatter(i, 2) % 2000;
                let cells = [
                    i,
                    i % 40,
                    scatter(i, 1) % 20,
                    7,
                    i / 25,
                    i / 250 % 25,
                    h,
                    h % 3,
                    i % (n as u64 * 5 / 8),
                ];
                Tuple::new(cells.iter().map(|&c| Value::int(c as i64)).collect())
            })
            .collect();
        Arc::new(Relation::new(s, rows).unwrap())
    }

    /// The keys of [`shaped_master`], each with whether its values are
    /// unique: unique 1- and 2-attribute keys, the 40-value periodic
    /// column, an 800-value pair, 3-attribute keys of a conference's
    /// runs and of 2 000 hashed values, and a pair whose values mostly
    /// sit in two rows.
    fn shaped_keys() -> Vec<(Vec<AttrId>, bool)> {
        let key = |k: &[u16]| k.iter().copied().map(AttrId).collect();
        vec![
            (key(&[0]), true),
            (key(&[0, 1]), true),
            (key(&[1]), false),
            (key(&[1, 2]), false),
            (key(&[3, 4, 5]), false),
            (key(&[3, 6, 7]), false),
            (key(&[8, 3]), false),
        ]
    }

    /// `key`'s index over `rel` built into a room of `size`, as a
    /// build fills it: no buffer grows past the capacity the room gave
    /// it, and the index is the one `KeyIndex::build` gives.
    fn assert_fits(rel: &Relation, key: &[AttrId], size: Size) {
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
        let index = room.build(rel, &mut Scratch::new(rel.len()));
        let after = capacities(&index.rows, &index.slot_len, &index.spans);
        assert_eq!(before, after, "{key:?} in a room of {size:?}");
        assert_same_index(&index, &KeyIndex::build(rel, key), rel);
    }

    /// On masters shaped like the benchmark's, of 10 000 and 50 000 rows,
    /// a build fits the room `measure` sizes from its sample: a unique
    /// key's room holds as many keys as rows, a repeating key's holds
    /// its distinct keys and at most twice as many. The row room is the
    /// row count, which is exact on these null-free masters.
    ///
    /// On the wide master, whose every 17th row holds a null, a build
    /// fits its room too: at the pool's cutoff, which is sampled and
    /// whose 4-attribute key holds most of its values in two rows, the
    /// room holds every key and at most twice as many plus the margin's
    /// 16; below `SAMPLE_ALL_BELOW`, where every row is read, the rows
    /// and the keys are counted exactly.
    #[test]
    fn a_build_fits_its_room() {
        for n in [10_000, 50_000] {
            let rel = shaped_master(n);
            let shaped = shaped_keys();
            let keys: Vec<&[AttrId]> = shaped.iter().map(|(k, _)| k.as_slice()).collect();
            for ((key, unique), size) in shaped.iter().zip(measure(&rel, &keys)) {
                let built = KeyIndex::build(&rel, key);
                let distinct = built.distinct_keys();
                assert_eq!(size.rows, built.rows.len(), "{key:?}");
                if *unique {
                    assert_eq!(size.groups, n, "{key:?}");
                } else {
                    assert!(
                        (distinct..=2 * distinct).contains(&size.groups),
                        "{key:?}: {size:?} for {distinct}"
                    );
                }
                assert_fits(&rel, key, size);
            }
        }
        let keys = wide_keys();
        let keys: Vec<&[AttrId]> = keys.iter().map(Vec::as_slice).collect();
        const { assert!(PARALLEL_BUILD_MIN >= SAMPLE_ALL_BELOW) };
        for n in [PARALLEL_BUILD_MIN, SAMPLE_ALL_BELOW - 1] {
            let rel = wide_master(n);
            for (&key, size) in keys.iter().zip(measure(&rel, &keys)) {
                let built = KeyIndex::build(&rel, key);
                let distinct = built.distinct_keys();
                if n < SAMPLE_ALL_BELOW {
                    assert_eq!(size.rows, built.rows.len(), "{key:?}");
                    assert!(size.rows < n, "{key:?} holds a null");
                    assert_eq!(size.groups, distinct, "{key:?}");
                } else {
                    assert!(
                        (distinct..=2 * distinct + 16).contains(&size.groups),
                        "{key:?}: {size:?} for {distinct}"
                    );
                }
                assert_fits(&rel, key, size);
            }
        }
    }

    /// `idx` groups `rel`'s rows by its key as a naive grouping does:
    /// every row with a null-free key finds exactly the rows sharing it,
    /// ascending, and the multi-row keys hold the slots `0..` in order
    /// of their first row.
    fn assert_naive_grouping(idx: &KeyIndex, rel: &Relation) {
        let mut groups: Vec<(Vec<Value>, Vec<u32>)> = Vec::new();
        let mut by_key: FxHashMap<Vec<Value>, usize> = FxHashMap::default();
        for (i, t) in rel.iter().enumerate() {
            let probe = t.project(idx.key());
            if !probe.iter().any(Value::is_null) {
                let g = *by_key.entry(probe.clone()).or_insert_with(|| {
                    groups.push((probe, Vec::new()));
                    groups.len() - 1
                });
                groups[g].1.push(i as u32);
            }
        }
        assert_eq!(idx.distinct_keys(), groups.len());
        let mut slots = 0..;
        for (probe, rows) in &groups {
            let span = idx.locate(probe);
            assert_eq!(idx.hits(span.range()), rows.as_slice());
            let slot = if rows.len() < 2 {
                NO_SLOT
            } else {
                slots.next().unwrap()
            };
            assert_eq!(span.slot, slot);
        }
        assert_eq!(idx.span_slots(), slots.next().unwrap() as usize);
    }

    /// Masters laid out against the sample still index exactly, through
    /// `KeyIndex::build` and through a pooled `build_all`: (a) the
    /// sampled rows share one value and every other row is distinct, so
    /// the rooms come out far too small and regrow; (b) the sampled rows
    /// are distinct and every other row repeats one value, so the rooms
    /// are bounded by the row count, eight times the distinct keys; (c)
    /// a column repeats with a period coprime to the stride; (d) each
    /// value sits in two rows of one block, so the sample never repeats
    /// and the span slots regrow.
    #[test]
    fn sample_defeating_masters_still_index_exactly() {
        let n = 10_000;
        let blocks = 0..n / SAMPLE_STRIDE;
        let sampled: FxHashSet<usize> = blocks.map(|b| sampled_row(b, SAMPLE_STRIDE)).collect();
        assert_eq!(sampled.len(), n / SAMPLE_STRIDE);
        let shapes: [(&str, &dyn Fn(usize) -> i64); 4] = [
            ("shared sample", &|i| {
                if sampled.contains(&i) {
                    -1
                } else {
                    i as i64
                }
            }),
            ("distinct sample", &|i| {
                if sampled.contains(&i) {
                    i as i64
                } else {
                    -1
                }
            }),
            ("coprime period", &|i| {
                (i % (125 * SAMPLE_STRIDE + 1)) as i64
            }),
            ("pairs inside blocks", &|i| (i / 2) as i64),
        ];
        let keys = vec![
            vec![AttrId(0)],
            vec![AttrId(0), AttrId(1)],
            vec![AttrId(1), AttrId(0)],
        ];
        assert!(n * keys.len() >= PARALLEL_BUILD_MIN);
        for (shape, value) in shapes {
            let s = Schema::new("Rm", ["v", "w"]).unwrap();
            let rows = (0..n)
                .map(|i| Tuple::new(vec![Value::int(value(i)), Value::int(i as i64 % 3)]))
                .collect();
            let rel = Arc::new(Relation::new(s, rows).unwrap());
            let sizes = measure(&rel, &[&keys[0]]);
            let one = KeyIndex::build(&rel, &keys[0]);
            match shape {
                "shared sample" => assert!(sizes[0].groups < one.distinct_keys() / 100, "{shape}"),
                "distinct sample" => assert_eq!(sizes[0].groups, n, "{shape}"),
                "pairs inside blocks" => assert!(sizes[0].slots < one.span_slots(), "{shape}"),
                _ => {}
            }
            let m = MasterIndex::new(Arc::clone(&rel));
            m.build_all(&keys);
            for key in &keys {
                let built = KeyIndex::build(&rel, key);
                assert_naive_grouping(&built, &rel);
                assert_same_index(&m.index_for(key), &built, &rel);
            }
        }
    }

    /// Keys that never repeat build in one pass, and a key with one
    /// repeat takes the counting scatter; either way each index is the
    /// naive grouping, and `KeyIndex::build`, a `build_all` (pooled past
    /// the cutoff) and a build claiming the keys in the opposite order
    /// agree. The shapes: a column unique but for its last row, which
    /// repeats row 0; one whose first repeat, of row 1, follows rows
    /// holding nulls; a unique column with a null in every 5th row; an
    /// all-null column; an empty and a one-row master; and unique wide
    /// keys that all share one fingerprint (`COLLIDE`).
    #[test]
    fn unique_keys_build_in_one_pass() {
        let n = PARALLEL_BUILD_MIN / 2;
        type Column<'c> = &'c dyn Fn(usize) -> Value;
        let shapes: [(&str, usize, Column); 7] = [
            ("unique but the last row", n, &|i| {
                Value::int(if i + 1 == n { 0 } else { i as i64 })
            }),
            ("nulls, then a repeat", n, &|i| match i % 5 {
                4 => Value::Null,
                // row 1 again, on both keys: 2 050 ≡ 1 (mod 3)
                _ if i == n / 2 + 2 => Value::int(1),
                _ => Value::int(i as i64),
            }),
            ("unique with nulls", n, &|i| {
                if i % 5 == 4 {
                    Value::Null
                } else {
                    Value::int(i as i64)
                }
            }),
            ("all null", n, &|_| Value::Null),
            ("empty", 0, &|i| Value::int(i as i64)),
            ("one row", 1, &|i| Value::int(i as i64)),
            ("colliding", n / 2, &|i| Value::int(i as i64)),
        ];
        let keys = [
            vec![AttrId(0)],
            vec![AttrId(0), AttrId(1)],
            vec![AttrId(1), AttrId(0)],
            vec![AttrId(2), AttrId(0)],
        ];
        for (shape, len, value) in shapes {
            let s = Schema::new("Rm", ["v", "w", "x"]).unwrap();
            let rows = (0..len)
                .map(|i| Tuple::new(vec![value(i), Value::int(i as i64 % 3), Value::str("x")]))
                .collect();
            let rel = Arc::new(Relation::new(s, rows).unwrap());
            // a one-attribute key has no fingerprint to collide on
            let keys = if shape == "colliding" {
                &keys[1..]
            } else {
                &keys[..2]
            };
            COLLIDE.with(|c| c.set(shape == "colliding"));
            if len == n {
                assert!(len * keys.len() >= PARALLEL_BUILD_MIN, "{shape}");
            }
            let pooled = MasterIndex::new(Arc::clone(&rel));
            pooled.build_all(keys);
            let reversed = MasterIndex::new(Arc::clone(&rel));
            let slices: Vec<&[AttrId]> = keys.iter().map(Vec::as_slice).collect();
            let mut claims: Vec<_> = slices.iter().copied().zip(measure(&rel, &slices)).collect();
            claims.sort_unstable_by_key(|&(key, size)| (size.groups, key.len(), key));
            reversed.build_cold(&claims);
            for key in keys {
                let built = KeyIndex::build(&rel, key);
                assert_naive_grouping(&built, &rel);
                assert_same_index(&pooled.index_for(key), &built, &rel);
                assert_same_index(&reversed.index_for(key), &built, &rel);
                let repeats = usize::from(shape.contains("repeat") || shape.contains("last"));
                assert_eq!(built.span_slots(), repeats, "{shape} {key:?}");
            }
            COLLIDE.with(|c| c.set(false));
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
