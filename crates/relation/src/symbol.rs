//! Interned string symbols.
//!
//! Every string cell value in the workspace is a [`Sym`]: a `u32` id
//! into a process-wide [`Interner`]. Interning makes [`crate::Value`]
//! a 16-byte `Copy` word, and turns the hot-path operations of rule
//! application — equality of `t[X]` against `tm[Xm]`, hashing of
//! projected key lists, copying master values into input tuples — into
//! integer operations instead of `Arc` traffic and byte comparisons.
//!
//! # Lifetime rules
//!
//! The interner is append-only and leaks: a string, once interned,
//! stays resolvable for the life of the process, which is what makes
//! [`Sym::as_str`] return `&'static str` with no guard object. Each
//! string is stored once, as an immutable record — its hash, its id,
//! its length and its UTF-8 bytes — bump-allocated in a leaked arena
//! chunk of 64 KiB (a string longer than a chunk gets a chunk of its
//! own). A symbol costs its record (a 16-byte header plus the text
//! rounded up to 8 bytes), an 8-byte id slot, and 8-byte slots in the
//! lookup table, which is at most half full and grows by doubling: the
//! tables it outgrew are kept, never freed, because a reader may still
//! be probing one, so the tables take 32–64 bytes per symbol in all.
//!
//! This is the right trade for the monitoring workload (master data
//! and the attribute domains are bounded; input strings recur), but it
//! means a `Sym` should not be minted for unbounded garbage — corrupt
//! free-text that will never be compared again is still better kept
//! out of [`crate::Value`] construction loops than interned
//! gratuitously. Long-running deployments ingesting adversarially
//! unique strings should watch [`Interner::len`] (on
//! [`Interner::global`]) as a growth metric and cap or reject
//! free-text fields upstream; a scoped, evictable interner is the
//! planned escape hatch if a workload ever needs one.
//!
//! # Concurrency
//!
//! A hit in `intern` hashes the text once and probes the current lookup
//! table with acquire loads, comparing a slot's stored hash before its
//! bytes: it takes no lock and writes no shared word. A miss takes the
//! one writer mutex and probes again under it, since another writer may
//! have interned the string meanwhile. It then writes the record and
//! publishes it with release stores, first in the id's slot and then in
//! the table, so a reader that finds a record sees its bytes and can
//! resolve its id. A reader still probing a table that a writer has
//! since outgrown may miss a string only the new table holds; the miss
//! path finds it there. `resolve` is lock-free: symbol ids index an
//! append-only table of chunks whose slots point at the records.

use std::alloc::{self, Layout};
use std::fmt;
use std::hash::Hasher;
use std::mem;
use std::ptr;
use std::slice;
use std::sync::atomic::{AtomicPtr, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::hashers::FxHasher;

/// log2 of the first id chunk's capacity.
const CHUNK_SHIFT: u32 = 10;

/// Number of id chunks; chunk `k` holds `1024 << k` slots.
const CHUNKS: usize = 22;

/// Largest id representable by the chunk table.
const MAX_SYMS: u64 = (1u64 << (CHUNK_SHIFT + CHUNKS as u32)) - (1 << CHUNK_SHIFT);

/// Bytes in one arena chunk; a larger record gets a chunk of its own.
const ARENA_CHUNK: usize = 64 << 10;

/// log2 of the first lookup table's slot count.
const TABLE_SHIFT: u32 = 10;

/// An interned string: a dense `u32` id in the global [`Interner`].
///
/// Equality and hashing are O(1) on the id — two `Sym`s are equal iff
/// their strings are equal, because the interner deduplicates.
/// Ordering compares the *resolved strings*, so sorting symbols sorts
/// their text (matching the pre-interning semantics of
/// [`crate::Value`]).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Sym(u32);

impl Sym {
    /// Intern `s` in the global interner.
    #[inline]
    pub fn intern(s: &str) -> Sym {
        Interner::global().intern(s)
    }

    /// The interned text. Lock-free; never fails for a `Sym` obtained
    /// from [`Sym::intern`].
    #[inline]
    pub fn as_str(self) -> &'static str {
        Interner::global().resolve(self)
    }

    /// The raw id (dense, starting at 0, in interning order).
    #[inline]
    pub fn id(self) -> u32 {
        self.0
    }
}

impl PartialOrd for Sym {
    fn partial_cmp(&self, other: &Sym) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Sym {
    fn cmp(&self, other: &Sym) -> std::cmp::Ordering {
        if self.0 == other.0 {
            return std::cmp::Ordering::Equal;
        }
        self.as_str().cmp(other.as_str())
    }
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Debug for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.as_str())
    }
}

impl From<&str> for Sym {
    fn from(s: &str) -> Sym {
        Sym::intern(s)
    }
}

impl From<String> for Sym {
    fn from(s: String) -> Sym {
        Sym::intern(&s)
    }
}

/// The header of one interned string, followed in its arena chunk by
/// `len` bytes of UTF-8 text. Written once, before it is published, and
/// never changed or freed after.
#[repr(C)]
struct Record {
    hash: u64,
    id: u32,
    len: u32,
}

impl Record {
    /// Arena bytes a record of `len` text bytes takes: its header and
    /// its text, rounded up so the next record is aligned.
    fn size(len: usize) -> usize {
        let align = mem::align_of::<Record>();
        mem::size_of::<Record>() + len.next_multiple_of(align)
    }
}

/// The text of a record.
///
/// # Safety
/// `rec` must be a record published by [`Interner::intern`] (read from a
/// table slot or an id slot with an acquire load), so its header and
/// bytes are written and live for the rest of the process.
#[inline]
unsafe fn text(rec: *const Record) -> &'static [u8] {
    slice::from_raw_parts(rec.add(1).cast::<u8>(), (*rec).len as usize)
}

/// A leaked array of `n` null slots. The memory comes zeroed from
/// the allocator, so pages no slot has been written to cost nothing.
fn null_slots(n: usize) -> &'static [AtomicPtr<Record>] {
    assert!(n > 0, "a slot array is never empty");
    let layout = Layout::array::<AtomicPtr<Record>>(n).expect("slot array fits the address space");
    // SAFETY: the layout is not zero-sized, since `n > 0`. `AtomicPtr`
    // has the layout of a raw pointer and all-zero bits are the null
    // pointer, so the zeroed block is `n` valid null slots; it is never
    // freed, so the slice may be `'static`.
    unsafe {
        let p = alloc::alloc_zeroed(layout).cast::<AtomicPtr<Record>>();
        if p.is_null() {
            alloc::handle_alloc_error(layout);
        }
        slice::from_raw_parts(p, n)
    }
}

/// One generation of the open-addressed string → record table: linear
/// probing from the hash's top bits, at most half full. Only the writer
/// fills its slots; a table it outgrows is left as it is, still readable.
struct Table {
    slots: &'static [AtomicPtr<Record>],
    /// `64 - log2(slots.len())`: a hash shifted right by this is its
    /// home slot.
    shift: u32,
}

impl Table {
    /// A leaked, empty table of `1 << log2` slots.
    fn leak(log2: u32) -> &'static Table {
        Box::leak(Box::new(Table {
            slots: null_slots(1 << log2),
            shift: 64 - log2,
        }))
    }

    /// The id of the record holding `s`, or the empty slot where its
    /// probe ends. Terminates because a table is never more than half
    /// full.
    #[inline]
    fn probe(&self, hash: u64, s: &str) -> Result<u32, usize> {
        let mask = self.slots.len() - 1;
        // The Fx state's last step is a multiply, which carries every
        // input bit upward only: its top bits are the well-mixed ones.
        let mut i = (hash >> self.shift) as usize;
        loop {
            let rec = self.slots[i].load(Ordering::Acquire);
            if rec.is_null() {
                return Err(i);
            }
            // SAFETY: a non-null slot holds a published record; the
            // acquire load pairs with the writer's release store.
            unsafe {
                if (*rec).hash == hash && text(rec) == s.as_bytes() {
                    return Ok((*rec).id);
                }
            }
            i = (i + 1) & mask;
        }
    }

    /// A table of twice the slots holding this one's records. Called by
    /// the writer only, which filled every slot it reads here.
    fn grown(&self) -> &'static Table {
        let next = Table::leak(64 - self.shift + 1);
        let mask = next.slots.len() - 1;
        for slot in self.slots {
            let rec = slot.load(Ordering::Relaxed);
            if rec.is_null() {
                continue;
            }
            // SAFETY: a non-null slot holds a published record.
            let mut i = (unsafe { (*rec).hash } >> next.shift) as usize;
            while !next.slots[i].load(Ordering::Relaxed).is_null() {
                i = (i + 1) & mask;
            }
            // Relaxed: the table itself is published with a release
            // store, which orders these stores before it.
            next.slots[i].store(rec, Ordering::Relaxed);
        }
        next
    }
}

/// The writer's bump allocator: the free tail of the current arena
/// chunk.
struct Arena {
    next: *mut u8,
    end: *mut u8,
}

// SAFETY: the pointers address leaked chunks that nothing frees, and
// only the holder of the interner's writer mutex uses them.
unsafe impl Send for Arena {}

impl Arena {
    /// Write the record of `s` into the arena and return it, still
    /// unpublished.
    fn alloc(&mut self, hash: u64, id: u32, s: &str) -> *mut Record {
        let len = u32::try_from(s.len()).expect("an interned string is shorter than 4 GiB");
        let size = Record::size(s.len());
        let rec = if size > ARENA_CHUNK {
            leak_chunk(size)
        } else {
            if (self.end as usize) - (self.next as usize) < size {
                self.next = leak_chunk(ARENA_CHUNK);
                // SAFETY: the chunk is `ARENA_CHUNK` bytes long.
                self.end = unsafe { self.next.add(ARENA_CHUNK) };
            }
            let rec = self.next;
            // SAFETY: at least `size` bytes are left before `end`.
            self.next = unsafe { rec.add(size) };
            rec
        }
        .cast::<Record>();
        // SAFETY: `rec` starts `size` writable bytes that no one else
        // reaches, aligned for `Record` (chunks are, and every record
        // size is a multiple of the alignment); the text fits after the
        // header by the definition of `Record::size`.
        unsafe {
            rec.write(Record { hash, id, len });
            ptr::copy_nonoverlapping(s.as_ptr(), rec.add(1).cast::<u8>(), s.len());
        }
        rec
    }
}

/// A leaked block of `size` bytes, aligned for [`Record`].
fn leak_chunk(size: usize) -> *mut u8 {
    assert!(size > 0, "an arena chunk is never empty");
    let layout = Layout::from_size_align(size, mem::align_of::<Record>())
        .expect("an arena chunk fits the address space");
    // SAFETY: the layout is not zero-sized.
    let p = unsafe { alloc::alloc(layout) };
    if p.is_null() {
        alloc::handle_alloc_error(layout);
    }
    p
}

#[cfg(test)]
thread_local! {
    /// Keeps only the low two bits of every [`hash_of`] on this thread,
    /// so all strings share one home slot and four stored hashes. Only
    /// for an interner that no thread without it uses.
    static COLLIDE: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// The Fx hash of a string, its one hash on every path: one step per
/// 8-byte word, then one for [`tail_word`].
#[inline]
fn hash_of(s: &str) -> u64 {
    let mut h = FxHasher::default();
    let mut words = s.as_bytes().chunks_exact(8);
    for w in &mut words {
        h.write_u64(u64::from_le_bytes(w.try_into().expect("an 8-byte chunk")));
    }
    h.write_u64(tail_word(words.remainder()));
    #[cfg(test)]
    if COLLIDE.with(std::cell::Cell::get) {
        return h.finish() & 3;
    }
    h.finish()
}

/// The last `n < 8` bytes of a string and `n` as one word, distinct for
/// distinct tails. It reads them as two overlapping 4-byte loads or
/// three single bytes, with no variable-length copy as in
/// [`FxHasher`]'s `write`: with that copy, a random lookup among 755 000
/// symbols took 110 ns instead of 45 (2-core Xeon VM).
#[inline]
fn tail_word(tail: &[u8]) -> u64 {
    let n = tail.len();
    let bytes = if n >= 4 {
        let lo = u32::from_le_bytes(tail[..4].try_into().expect("4 bytes"));
        let hi = u32::from_le_bytes(tail[n - 4..].try_into().expect("4 bytes"));
        u64::from(lo) | u64::from(hi) << (8 * (n - 4))
    } else if n > 0 {
        u64::from(tail[0]) | u64::from(tail[n / 2]) << 8 | u64::from(tail[n - 1]) << 16
    } else {
        0
    };
    bytes | (n as u64) << 56
}

/// The append-only, process-wide string interner backing [`Sym`].
pub struct Interner {
    /// The current string → record table. Every table ever published
    /// stays allocated.
    table: AtomicPtr<Table>,
    /// id → record. Chunk `k` is a lazily allocated array of
    /// `1024 << k` slots.
    chunks: [AtomicPtr<AtomicPtr<Record>>; CHUNKS],
    /// Number of interned strings, which is the next id.
    len: AtomicU32,
    /// Serializes the miss path, and owns the arena it writes records to.
    writer: Mutex<Arena>,
}

impl Interner {
    fn new() -> Interner {
        Interner {
            table: AtomicPtr::new(ptr::from_ref(Table::leak(TABLE_SHIFT)).cast_mut()),
            chunks: std::array::from_fn(|_| AtomicPtr::new(ptr::null_mut())),
            len: AtomicU32::new(0),
            writer: Mutex::new(Arena {
                next: ptr::null_mut(),
                end: ptr::null_mut(),
            }),
        }
    }

    /// The process-wide interner used by [`Sym`] and [`crate::Value`].
    pub fn global() -> &'static Interner {
        static GLOBAL: OnceLock<Interner> = OnceLock::new();
        GLOBAL.get_or_init(Interner::new)
    }

    /// The current lookup table.
    #[inline]
    fn table(&self) -> &'static Table {
        // SAFETY: the pointer is always a leaked, never-freed table,
        // published with a release store this acquire load pairs with.
        unsafe { &*self.table.load(Ordering::Acquire) }
    }

    /// Intern `s`, copying it into the arena only on a miss.
    #[inline]
    pub fn intern(&self, s: &str) -> Sym {
        let hash = hash_of(s);
        match self.table().probe(hash, s) {
            Ok(id) => Sym(id),
            Err(_) => self.intern_slow(hash, s),
        }
    }

    #[cold]
    fn intern_slow(&self, hash: u64, s: &str) -> Sym {
        let mut arena = self.writer.lock().expect("interner poisoned");
        // Under the mutex the table is the last one published, and it
        // may hold `s` by now.
        let mut table = self.table();
        let mut slot = match table.probe(hash, s) {
            Ok(id) => return Sym(id),
            Err(slot) => slot,
        };
        let id = self.len.load(Ordering::Relaxed);
        assert!(u64::from(id) < MAX_SYMS, "interner capacity exhausted");
        if (id as usize + 1) * 2 > table.slots.len() {
            table = table.grown();
            self.table
                .store(ptr::from_ref(table).cast_mut(), Ordering::Release);
            slot = table
                .probe(hash, s)
                .expect_err("a new string is in no table");
        }
        let rec = arena.alloc(hash, id, s);
        // Publish the id before the text can be found, so any `Sym` a
        // reader gets from the table resolves: both release stores pair
        // with the acquire loads in `probe` and `resolve`.
        self.id_slot(id).store(rec, Ordering::Release);
        table.slots[slot].store(rec, Ordering::Release);
        self.len.store(id + 1, Ordering::Relaxed);
        Sym(id)
    }

    /// The text of `sym`. Lock-free.
    ///
    /// # Panics
    /// Panics on an id never returned by this interner (only possible
    /// by forging a `Sym`).
    pub fn resolve(&self, sym: Sym) -> &'static str {
        let (chunk_idx, idx) = Self::locate(sym.0);
        let chunk = self.chunks[chunk_idx].load(Ordering::Acquire);
        assert!(!chunk.is_null(), "unknown symbol id {}", sym.0);
        // SAFETY: a non-null chunk is a live array of `1024 << k`
        // slots, and `locate` bounds `idx` by exactly that capacity.
        let rec = unsafe { &*chunk.add(idx) }.load(Ordering::Acquire);
        assert!(!rec.is_null(), "unknown symbol id {}", sym.0);
        // SAFETY: a non-null id slot holds a published record, and the
        // record's bytes were copied from a `&str`.
        unsafe { std::str::from_utf8_unchecked(text(rec)) }
    }

    /// Number of interned strings.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed) as usize
    }

    /// `true` before the first interning.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Map an id to (chunk index, index within chunk).
    #[inline]
    fn locate(id: u32) -> (usize, usize) {
        let slot = id as u64 + (1 << CHUNK_SHIFT);
        let chunk_idx = (63 - slot.leading_zeros() - CHUNK_SHIFT) as usize;
        let idx = (slot - (1u64 << (chunk_idx as u32 + CHUNK_SHIFT))) as usize;
        (chunk_idx, idx)
    }

    /// The slot for `id`, allocating its chunk if needed. Only the
    /// holder of the writer mutex calls this.
    fn id_slot(&self, id: u32) -> &AtomicPtr<Record> {
        let (chunk_idx, idx) = Self::locate(id);
        let head = &self.chunks[chunk_idx];
        let mut chunk = head.load(Ordering::Relaxed);
        if chunk.is_null() {
            chunk = null_slots(1 << (chunk_idx as u32 + CHUNK_SHIFT))
                .as_ptr()
                .cast_mut();
            // Pairs with the acquire load in `resolve`.
            head.store(chunk, Ordering::Release);
        }
        // SAFETY: `chunk` is a live array of `1024 << chunk_idx` slots
        // and `locate` bounds `idx` by that capacity.
        unsafe { &*chunk.add(idx) }
    }
}

impl fmt::Debug for Interner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Interner")
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use std::sync::Barrier;

    #[test]
    fn round_trip() {
        let s = Sym::intern("EH7 4AH");
        assert_eq!(s.as_str(), "EH7 4AH");
        assert_eq!(Sym::from("EH7 4AH".to_owned()), s);
        assert_eq!(Sym::intern("").as_str(), "");
    }

    #[test]
    fn dedup_same_string_same_sym() {
        let a = Sym::intern("edinburgh");
        let b = Sym::intern("edinburgh");
        let c = Sym::from(String::from("edinburgh"));
        assert_eq!(a, b);
        assert_eq!(a, c);
        assert_eq!(a.id(), b.id());
        assert_ne!(a, Sym::intern("glasgow"));
    }

    #[test]
    fn ordering_follows_strings_not_ids() {
        // interning order deliberately inverted relative to text order
        let z = Sym::intern("zzz-order-test");
        let a = Sym::intern("aaa-order-test");
        assert!(a < z);
        assert!(z > a);
        assert_eq!(a.cmp(&a), std::cmp::Ordering::Equal);
    }

    #[test]
    fn display_and_debug_resolve() {
        let s = Sym::intern("Edi");
        assert_eq!(format!("{s}"), "Edi");
        assert_eq!(format!("{s:?}"), "\"Edi\"");
    }

    #[test]
    fn cross_thread_interning_agrees() {
        let handles: Vec<_> = (0..8)
            .map(|t| {
                std::thread::spawn(move || {
                    (0..100)
                        .map(|i| {
                            // every thread interns the same 100 strings,
                            // in a thread-dependent order
                            let i = (i + 13 * t) % 100;
                            (i, Sym::intern(&format!("xthread-{i}")))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let results: Vec<Vec<(i32, Sym)>> =
            handles.into_iter().map(|h| h.join().unwrap()).collect();
        for per_thread in &results {
            for &(i, sym) in per_thread {
                assert_eq!(sym.as_str(), format!("xthread-{i}"));
                // all threads agree on the id for a given string
                let reference = results[0].iter().find(|(j, _)| *j == i).unwrap().1;
                assert_eq!(sym, reference);
            }
        }
    }

    #[test]
    fn interner_len_grows_monotonically() {
        let before = Interner::global().len();
        let _ = Sym::intern("len-probe-one");
        let _ = Sym::intern("len-probe-two");
        let _ = Sym::intern("len-probe-one");
        let after = Interner::global().len();
        assert!(after >= before + 2);
        assert!(!Interner::global().is_empty());
    }

    #[test]
    fn locate_covers_chunk_boundaries() {
        assert_eq!(Interner::locate(0), (0, 0));
        assert_eq!(Interner::locate(1023), (0, 1023));
        assert_eq!(Interner::locate(1024), (1, 0));
        assert_eq!(Interner::locate(3071), (1, 2047));
        assert_eq!(Interner::locate(3072), (2, 0));
        // every id maps within its chunk's capacity
        for id in [0u32, 1, 1023, 1024, 4095, 1 << 20, u32::MAX / 2] {
            let (k, i) = Interner::locate(id);
            assert!(k < CHUNKS);
            assert!(i < (1usize << (k as u32 + CHUNK_SHIFT)));
        }
    }

    #[test]
    fn sym_is_small_and_copy() {
        fn assert_copy<T: Copy>() {}
        assert_copy::<Sym>();
        assert_eq!(std::mem::size_of::<Sym>(), 4);
        assert_eq!(std::mem::size_of::<Option<Sym>>(), 8);
    }

    // The tests below run private interners, whose `Sym`s are compared
    // and printed by id: `Sym`'s `Debug` resolves in the global one.

    /// Intern `strings` into a fresh interner, in order, with or without
    /// colliding hashes, and check that ids are dense in first-interning
    /// order, that each resolves to its text, and that interning again
    /// finds each one.
    fn intern_fresh(strings: &[String], collide: bool) -> Interner {
        COLLIDE.with(|c| c.set(collide));
        let interner = Interner::new();
        let ids: Vec<u32> = strings.iter().map(|s| interner.intern(s).id()).collect();
        let mut first: HashMap<&str, u32> = HashMap::new();
        for (s, &id) in strings.iter().zip(&ids) {
            let next = first.len() as u32;
            assert_eq!(*first.entry(s.as_str()).or_insert(next), id, "{s:?}");
            assert_eq!(interner.resolve(Sym(id)), s.as_str());
        }
        assert_eq!(interner.len(), first.len());
        for (s, &id) in strings.iter().zip(&ids) {
            assert_eq!(interner.intern(s).id(), id, "{s:?} again");
        }
        assert_eq!(interner.len(), first.len());
        COLLIDE.with(|c| c.set(false));
        interner
    }

    #[test]
    fn edge_case_strings_round_trip() {
        let long = "x".repeat(ARENA_CHUNK + 100);
        let mut strings: Vec<String> = [
            "",
            "a",
            "Zürich",
            "東京都",
            "🦀 crab",
            // differ only after byte 8, and then after byte 16
            "abcdefgh1",
            "abcdefgh2",
            "abcdefghijklmnop-a",
            "abcdefghijklmnop-b",
            // a trailing NUL pads to the same word as the string without it
            "abc",
            "abc\0",
            "",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        // a string longer than a chunk gets its own, and the records
        // after it still fill the chunk in use
        strings.extend([
            long.clone(),
            "after-the-long-one".into(),
            long.clone() + "y",
        ]);
        strings.extend((0..200).map(|i| format!("{i:0>9}")));
        for collide in [false, true] {
            intern_fresh(&strings, collide);
        }
    }

    #[test]
    fn tail_words_are_distinct() {
        // every tail of 0-7 bytes over a three-letter alphabet
        let mut tails: Vec<Vec<u8>> = vec![vec![]];
        for len in 1..8 {
            let longer: Vec<Vec<u8>> = tails
                .iter()
                .filter(|t| t.len() == len - 1)
                .flat_map(|t| [b'a', b'b', 0].map(|c| [t.as_slice(), &[c]].concat()))
                .collect();
            tails.extend(longer);
        }
        let words: std::collections::HashSet<u64> = tails.iter().map(|t| tail_word(t)).collect();
        assert_eq!(words.len(), tails.len());
    }

    #[test]
    fn colliding_hashes_probe_past_occupied_slots_and_grow() {
        // One home slot and four stored hashes for all: every probe walks
        // the one cluster, comparing hashes and then bytes, through three
        // doublings of the table.
        let strings: Vec<String> = (0..1usize << (TABLE_SHIFT + 2))
            .map(|i| format!("collide-{i}"))
            .collect();
        let interner = intern_fresh(&strings, true);
        assert_eq!(interner.table().slots.len(), 1 << (TABLE_SHIFT + 3));
    }

    /// Writers intern overlapping string sets into one fresh interner,
    /// through at least three doublings of its table, while readers look
    /// up strings interned before they started.
    fn writers_and_readers_agree(collide: bool, distinct: usize) {
        const WRITERS: usize = 4;
        const READERS: usize = 2;
        let interner = Interner::new();
        let before: Vec<String> = (0..300).map(|i| format!("pre-{i}")).collect();
        let before_ids: Vec<u32> = {
            COLLIDE.with(|c| c.set(collide));
            let ids = before.iter().map(|s| interner.intern(s).id()).collect();
            COLLIDE.with(|c| c.set(false));
            ids
        };
        // writer w interns strings [w * stride, w * stride + span), so
        // neighbours overlap, and odd writers go backwards
        let stride = distinct / (WRITERS + 1);
        let span = distinct - stride * (WRITERS - 1);
        let start = Barrier::new(WRITERS + READERS);
        let per_writer: Vec<Vec<(usize, u32)>> = std::thread::scope(|scope| {
            let writers: Vec<_> = (0..WRITERS)
                .map(|w| {
                    let (interner, start) = (&interner, &start);
                    scope.spawn(move || {
                        COLLIDE.with(|c| c.set(collide));
                        let mut mine: Vec<usize> = (w * stride..w * stride + span).collect();
                        if w % 2 == 1 {
                            mine.reverse();
                        }
                        start.wait();
                        mine.into_iter()
                            .map(|i| (i, interner.intern(&format!("w-{i}")).id()))
                            .collect()
                    })
                })
                .collect();
            for _ in 0..READERS {
                let (interner, start, before, before_ids) =
                    (&interner, &start, &before, &before_ids);
                scope.spawn(move || {
                    COLLIDE.with(|c| c.set(collide));
                    start.wait();
                    for _ in 0..20 {
                        for (s, &id) in before.iter().zip(before_ids) {
                            assert_eq!(interner.intern(s).id(), id);
                            assert_eq!(interner.resolve(Sym(id)), s.as_str());
                        }
                    }
                });
            }
            writers.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut ids: HashMap<usize, u32> = HashMap::new();
        for &(i, id) in per_writer.iter().flatten() {
            assert_eq!(*ids.entry(i).or_insert(id), id, "w-{i}: writers disagree");
            assert_eq!(interner.resolve(Sym(id)), format!("w-{i}"));
        }
        assert_eq!(ids.len(), distinct);
        // dense: the pre-interned ids, then one id per distinct string
        let mut all: Vec<u32> = ids.values().chain(&before_ids).copied().collect();
        all.sort_unstable();
        assert!(all.iter().copied().eq(0..all.len() as u32));
        assert_eq!(interner.len(), before.len() + distinct);
        assert!(interner.table().slots.len() >= 1 << (TABLE_SHIFT + 3));
    }

    #[test]
    fn concurrent_writers_and_readers_agree_on_dense_ids() {
        writers_and_readers_agree(false, 12_000);
    }

    #[test]
    fn concurrent_writers_with_colliding_hashes_agree() {
        writers_and_readers_agree(true, 4_500);
    }
}
