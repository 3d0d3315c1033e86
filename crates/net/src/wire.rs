//! The length-prefixed, versioned binary frame codec of the network
//! ingest lane.
//!
//! Every frame is `[MAGIC "CFXW"][VERSION u16][KIND u16][LEN u32]`
//! (12-byte little-endian header) followed by exactly `LEN` payload
//! bytes. Encode and decode are symmetric over
//! [`std::io::Write`] / [`std::io::Read`]: for every [`Frame`] `f`,
//! `decode(encode(f)) == f` — the property `tests/wire_props.rs`
//! pins over arbitrary frames.
//!
//! # One frame, one write
//!
//! [`Frame::encode`] assembles header and payload in one buffer and
//! hands it to the writer in a single `write_all`; callers that own a
//! connection keep that buffer across frames
//! ([`Encoder::encode_into`]) and never put a `BufWriter` in between.
//! The rule exists because of what two writes cost on TCP: a frame
//! sent as a 12-byte header segment followed by a payload tail shorter
//! than one MSS has that tail held back by Nagle's algorithm until the
//! header is ACKed, and the peer — blocked in `read_exact` with
//! nothing to send — only ACKs on its delayed-ACK timer (~44 ms), once
//! per direction. An 8 KiB `BufWriter` did exactly that to every frame
//! over 8 KiB: a 16-tuple HOSP form page took 88 ms around under 1 ms
//! of engine work, and takes about 1 ms written whole (sockets are
//! `TCP_NODELAY` besides, so a frame the kernel has to split is not
//! held back either).
//!
//! # Strings: one dictionary per connection and direction (since VERSION 5)
//!
//! A value is a tag byte and its payload: `0` Null, `1` Int (`i64`),
//! and a string in one of two forms —
//!
//! * `2` + `len u32` + UTF-8 text: a string this dictionary does not
//!   hold. Both ends append it;
//! * `3` + `back u32`: the entry `back` places from the dictionary's
//!   end (`back = 1` is the entry appended last).
//!
//! The sending end keeps an [`Encoder`] (a map from symbol to
//! position), the receiving end a [`Decoder`] (a `Vec` of symbols), so
//! a repeated string costs the receiver one bounds-checked read, and a
//! string new to the connection costs one lookup in the process-wide
//! interner: one hash of its text and a lock-free table probe, or a
//! write under the interner's mutex the first time the process sees
//! it. Each direction of a connection has its own pair: the client's
//! requests build one, the server's responses the other.
//!
//! Before every frame, a dictionary that holds [`DICT_CAP`] entries or
//! more is cleared — by both ends, at the same frame boundary, so the
//! reset costs no byte. A dictionary therefore never holds more than
//! `DICT_CAP` entries plus the strings of one frame. An encode that
//! fails (`Oversized`) takes its entries off the dictionary again, so
//! the frame that never left leaves no trace on either end.
//!
//! A back-reference counts from the end, not from the start, so a frame
//! encoded with a fresh dictionary refers only to its own entries and
//! decodes the same at any decoder state: a connection may carry the
//! self-contained frames of [`Frame::encode`] one after another. It may
//! not carry one between the frames of an [`Encoder`], whose positions
//! would then no longer be the decoder's. [`Frame::encode`] and
//! [`Frame::decode`] run the same codec as a connection, with a
//! dictionary that lives one frame.
//!
//! # The Batch payload (since VERSION 3)
//!
//! `seq u64, pairs u32`, then per pair the `dirty` tuple in full
//! (`arity u16` + values) and the `clean` tuple in one of two forms:
//!
//! * `0x00` + the tuple in full — when the arities differ or exceed
//!   64 cells;
//! * `0x01` + `mask u64` + one value per set bit, lowest bit first —
//!   `clean` is `dirty` with cell `i` replaced for every set bit `i`.
//!
//! A dirty tuple and its ground truth agree on most cells, so the
//! mask form roughly halves a pair's bytes and, on decode, its
//! lookups: an unchanged cell is copied from `dirty`, already a
//! symbol. A mask naming a cell at or beyond the arity is
//! [`WireError::BadTag`].
//!
//! # The Report payload (since VERSION 5)
//!
//! `seq u64, generation u64, wall u64, stats`, `outcomes u32`, then per
//! outcome its repaired tuple in the same two forms, against the dirty
//! tuple at the same position of the batch the report answers; then its
//! three attribute masks, flags, certain round and round trace. The
//! server keeps a batch's dirty tuples until it has encoded the batch's
//! report, and the client keeps what it sent until the report arrives
//! ([`Encoder::encode_into`] and [`Decoder::decode_with`] take them as
//! `base`). On the benchmark's wire workloads a repaired tuple differs
//! from its dirty tuple in about a third of its cells. An outcome with
//! no base (a self-contained frame), or one wider than 64 cells, is
//! sent in full; a mask form with no base to apply it to is
//! [`WireError::NoBase`].
//!
//! # Strictness
//!
//! The decoder never trusts a length it has not checked
//! against bytes actually present: the header's `LEN` is bounded by
//! [`MAX_FRAME`] *before* any payload allocation, every element count
//! inside a payload is bounded by the bytes remaining in that payload
//! — at the smallest size its element can take — before its vector is
//! reserved, a payload that ends early is [`WireError::Truncated`], and
//! one with bytes left over after its frame parsed is
//! [`WireError::TrailingBytes`]. Unknown kinds, tags, or flag bits are
//! errors, never skipped, and so is a back-reference past the
//! dictionary's first entry ([`WireError::BadRef`]) — a malformed frame
//! must tear its session down, not desynchronise the stream. A decoder
//! that returned an error is out of step with its encoder; the
//! connection ends there.
//!
//! String text is re-interned on decode, so symbol identity is
//! process-local and the codec's equality is textual — exactly the
//! equality the engine's interner guarantees process-wide.

use std::collections::hash_map::Entry;
use std::io::{Read, Write};
use std::time::Duration;

use certainfix_core::{FixOutcome, MonitorStats, NetLaneStats, RoundReport};
use certainfix_relation::{AttrId, AttrSet, FxHashMap, MasterDelta, Sym, Tuple, Value};

/// First four bytes of every frame.
pub const MAGIC: [u8; 4] = *b"CFXW";
/// Protocol version this build speaks (rejects everything else).
/// Version 3 writes a Batch pair's clean tuple as a delta against its
/// dirty tuple; version 4 drops the six shared-cache counters from the
/// stats payload; version 5 sends a repeated string as a reference into
/// the connection's dictionary and a Report outcome as a delta against
/// the dirty tuple it repairs.
pub const VERSION: u16 = 5;
/// Fixed header size in bytes: magic + version + kind + payload length.
pub const HEADER_LEN: usize = 12;
/// Hard cap on a frame's payload length. A header declaring more is
/// rejected before any payload byte is read or allocated.
pub const MAX_FRAME: usize = 64 << 20;
/// Entries a string dictionary may reach before both ends clear it, at
/// the next frame boundary (see the module docs).
pub const DICT_CAP: usize = 1 << 16;

const K_HELLO: u16 = 0x01;
const K_BATCH: u16 = 0x02;
const K_DELTA: u16 = 0x03;
const K_FLUSH: u16 = 0x04;
const K_SHUTDOWN: u16 = 0x05;
const K_HELLO_ACK: u16 = 0x81;
const K_REPORT: u16 = 0x82;
const K_DELTA_ACK: u16 = 0x83;
const K_FLUSH_ACK: u16 = 0x84;
const K_SESSION_END: u16 = 0x85;
const K_ERROR: u16 = 0x86;

/// Typed decode/transport failures. Everything except [`Io`]
/// (mid-frame I/O) means the *peer* sent something this codec refuses;
/// the server answers with one [`Frame::Error`] and tears down only
/// that session.
///
/// [`Io`]: WireError::Io
#[derive(Debug)]
pub enum WireError {
    /// The underlying transport failed (including EOF mid-frame).
    Io(std::io::Error),
    /// The frame did not start with [`MAGIC`].
    BadMagic([u8; 4]),
    /// The peer speaks a protocol version this build does not.
    BadVersion(u16),
    /// A kind code neither side of this version defines.
    UnknownKind(u16),
    /// The header declared a payload larger than [`MAX_FRAME`].
    Oversized(usize),
    /// The payload ended before its frame finished parsing (also: an
    /// element count larger than the bytes that could back it).
    Truncated,
    /// The payload had bytes left over after the frame parsed.
    TrailingBytes(usize),
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// An enum/flag byte outside the defined range (also: a mask naming
    /// a cell its base tuple lacks — the value is the cell).
    BadTag(u8),
    /// A string back-reference to no entry of the dictionary: `0`, or
    /// more entries back than the dictionary holds.
    BadRef(u32),
    /// A Report outcome in mask form, with no dirty tuple to apply the
    /// mask to.
    NoBase,
    /// A semantically unexpected frame (protocol-state violation) —
    /// raised by the client/server state machines, not the codec.
    Protocol(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire i/o: {e}"),
            WireError::BadMagic(m) => write!(f, "bad magic {m:02x?}"),
            WireError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            WireError::UnknownKind(k) => write!(f, "unknown frame kind {k:#06x}"),
            WireError::Oversized(n) => write!(f, "declared payload of {n} bytes exceeds cap"),
            WireError::Truncated => write!(f, "payload truncated"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing payload bytes"),
            WireError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            WireError::BadTag(t) => write!(f, "bad tag byte {t:#04x}"),
            WireError::BadRef(back) => {
                write!(f, "string reference {back} back names no dictionary entry")
            }
            WireError::NoBase => write!(f, "a masked Report outcome has no dirty tuple"),
            WireError::Protocol(m) => write!(f, "protocol violation: {m}"),
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

/// One protocol frame. Request frames (client → server) come first,
/// response frames (server → client) second; the codec itself is
/// direction-agnostic.
#[derive(Clone, Debug, PartialEq)]
pub enum Frame {
    /// Open a session: its report name plus an optional shared-secret
    /// token (must match the server's, when the server has one).
    Hello {
        /// Session name, as it will appear in the server's reports.
        session: String,
        /// Authentication token, if the deployment uses one.
        token: Option<String>,
    },
    /// One batch of the session's stream: `(dirty, clean)` pairs —
    /// the dirty tuple to repair and the simulated user's ground
    /// truth backing its oracle. `seq` is echoed on the matching
    /// [`Report`](Frame::Report).
    Batch {
        /// Client-chosen batch sequence number (monotone per session).
        seq: u64,
        /// The batch's `(dirty, clean)` tuple pairs, in stream order.
        pairs: Vec<(Tuple, Tuple)>,
    },
    /// Apply a [`MasterDelta`] to the shared engine, in stream order:
    /// after every batch sent before it has been repaired, before any
    /// batch sent after it. Answered, after the `Report`s of the
    /// earlier batches, by [`DeltaAck`](Frame::DeltaAck) with the new
    /// generation, or by an [`Error`](Frame::Error) with code `3` if the
    /// master refuses it.
    Delta(MasterDelta),
    /// Ask for a [`FlushAck`](Frame::FlushAck), which follows the
    /// `Report` of every batch sent before this frame (and the answer
    /// to every delta sent before it).
    Flush,
    /// Clean end-of-stream: drain everything sent, answer the final
    /// [`SessionEnd`](Frame::SessionEnd), close.
    Shutdown,
    /// Session accepted; `generation` is the engine's current master
    /// generation.
    HelloAck {
        /// Master generation at accept time.
        generation: u64,
    },
    /// One repaired batch, echoing its `seq`: per-tuple outcomes in
    /// batch order plus the batch's merged statistics — the wire shape
    /// of a [`BatchReport`](certainfix_core::BatchReport).
    Report {
        /// The [`Batch`](Frame::Batch) sequence number this answers.
        seq: u64,
        /// Master generation the batch was repaired against.
        generation: u64,
        /// Wall clock of the repair epoch the batch rode.
        wall: Duration,
        /// The batch's merged [`MonitorStats`].
        stats: MonitorStats,
        /// Per-tuple outcomes, in the batch's input order.
        outcomes: Vec<FixOutcome>,
    },
    /// Delta applied; the generation the session's later batches repair
    /// against (or a later one, once another delta lands). Batches sent
    /// before the delta repaired on an earlier generation.
    DeltaAck {
        /// The new master generation.
        generation: u64,
    },
    /// Every batch sent before the [`Flush`](Frame::Flush) has been
    /// reported.
    FlushAck {
        /// Batches reported so far on this session.
        batches: u64,
    },
    /// The session's final fold — same numbers the server's
    /// [`ServiceReport`](certainfix_core::ServiceReport) will carry
    /// for this session (transport-side net counters excepted: those
    /// are only complete once the socket closes).
    SessionEnd {
        /// Total tuples repaired on this session.
        tuples: u64,
        /// Batches (= epochs participated in) on this session.
        batches: u64,
        /// Summed repair wall clock of those epochs.
        wall: Duration,
        /// The session's merged [`MonitorStats`].
        stats: MonitorStats,
    },
    /// The server refuses a frame or the session. After an `Error` the
    /// session is torn down and the connection closed, except for the
    /// answer to a refused [`Delta`](Frame::Delta): the session goes on.
    Error {
        /// Machine-readable code (`1` auth, `2` protocol, `3` engine).
        code: u16,
        /// Human-readable detail.
        message: String,
    },
}

// ---------------------------------------------------------------- encode

/// Value tags (see the module docs).
const V_NULL: u8 = 0;
const V_INT: u8 = 1;
const V_TEXT: u8 = 2;
const V_BACK: u8 = 3;

/// The two forms of a tuple sent against a base tuple: a Batch pair's
/// clean tuple against its dirty one, a Report outcome's tuple against
/// the dirty tuple it repairs.
const FORM_FULL: u8 = 0;
const FORM_MASK: u8 = 1;

/// The smallest encodings of the elements a payload counts, which
/// [`Buf::count`] checks a count against.
///
/// A tuple: its arity.
const MIN_TUPLE: usize = 2;
/// A Batch pair: dirty arity, clean form tag, clean arity.
const MIN_PAIR: usize = 2 + 1 + 2;
/// A Delta update: row id, tuple.
const MIN_UPDATE: usize = 4 + MIN_TUPLE;
/// A Delta delete: row id.
const MIN_DELETE: usize = 4;
/// An attribute id.
const MIN_ATTR: usize = 2;
/// A round: two attribute counts, two masks, the verdict.
const MIN_ROUND: usize = 4 + 4 + 8 + 8 + 1;
/// A Report outcome: form tag and arity, three masks, flags, certain
/// round tag, round count.
const MIN_OUTCOME: usize = 1 + 2 + 3 * 8 + 1 + 1 + 4;

/// The sending end of one direction of a connection: the strings sent
/// since the dictionary was last cleared, each with its position.
/// Frames encoded by one `Encoder` must be decoded, in order, by one
/// [`Decoder`].
#[derive(Default)]
pub struct Encoder {
    dict: FxHashMap<Sym, u32>,
}

impl Encoder {
    /// Strings the dictionary holds.
    pub fn entries(&self) -> usize {
        self.dict.len()
    }

    /// Append `frame` (header + payload) to `buf` and return the bytes
    /// appended. A Report's outcome `i` is sent against `base[i]`, the
    /// dirty tuple it repairs (in full where `base` has none); every
    /// other kind ignores `base`. On error nothing is appended and the
    /// dictionary is as it was.
    pub fn encode_into(
        &mut self,
        frame: &Frame,
        base: &[Tuple],
        buf: &mut Vec<u8>,
    ) -> Result<usize, WireError> {
        self.frame(buf, |p| p.frame(frame, base))
    }

    /// Append the [`Frame::Batch`] of `dirty[i]` paired with `clean[i]`
    /// to `buf`, straight from the borrowed slices (equal lengths are
    /// the caller's to check). Byte-identical to encoding the owned
    /// frame.
    pub(crate) fn batch_into(
        &mut self,
        buf: &mut Vec<u8>,
        seq: u64,
        dirty: &[Tuple],
        clean: &[Tuple],
    ) -> Result<usize, WireError> {
        self.frame(buf, |p| {
            p.batch(seq, dirty.iter().zip(clean));
            K_BATCH
        })
    }

    /// One frame at the end of `buf`: clear a full dictionary, write the
    /// header, let `payload` append the fields and name the kind, then
    /// fill in kind and length. An oversized frame is taken off `buf`,
    /// and its strings off the dictionary.
    fn frame(
        &mut self,
        buf: &mut Vec<u8>,
        payload: impl FnOnce(&mut Payload<'_>) -> u16,
    ) -> Result<usize, WireError> {
        if self.dict.len() >= DICT_CAP {
            self.dict.clear();
        }
        let mark = self.dict.len() as u32;
        let start = buf.len();
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.extend_from_slice(&[0; 6]);
        let kind = payload(&mut Payload {
            b: buf,
            dict: &mut self.dict,
        });
        let len = buf.len() - start - HEADER_LEN;
        if len > MAX_FRAME {
            buf.truncate(start);
            self.dict.retain(|_, at| *at < mark);
            return Err(WireError::Oversized(len));
        }
        buf[start + 6..start + 8].copy_from_slice(&kind.to_le_bytes());
        buf[start + 8..start + HEADER_LEN].copy_from_slice(&(len as u32).to_le_bytes());
        Ok(HEADER_LEN + len)
    }
}

/// Appends payload fields to a caller-owned buffer, strings through the
/// encoder's dictionary.
struct Payload<'a> {
    b: &'a mut Vec<u8>,
    dict: &'a mut FxHashMap<Sym, u32>,
}

impl Payload<'_> {
    fn u8(&mut self, v: u8) {
        self.b.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.b.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.b.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.b.extend_from_slice(&v.to_le_bytes());
    }
    fn i64(&mut self, v: i64) {
        self.b.extend_from_slice(&v.to_le_bytes());
    }
    fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }
    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.b.extend_from_slice(s.as_bytes());
    }
    fn opt_str(&mut self, s: &Option<String>) {
        match s {
            None => self.u8(0),
            Some(s) => {
                self.u8(1);
                self.str(s);
            }
        }
    }
    fn duration(&mut self, d: Duration) {
        self.u64(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }
    fn value(&mut self, v: &Value) {
        match *v {
            Value::Null => self.u8(V_NULL),
            Value::Int(i) => {
                self.u8(V_INT);
                self.i64(i);
            }
            Value::Str(sym) => {
                let next = self.dict.len() as u32;
                let back = match self.dict.entry(sym) {
                    Entry::Occupied(at) => Some(next - *at.get()),
                    Entry::Vacant(slot) => {
                        slot.insert(next);
                        None
                    }
                };
                match back {
                    Some(back) => {
                        self.u8(V_BACK);
                        self.u32(back);
                    }
                    None => {
                        self.u8(V_TEXT);
                        self.str(sym.as_str());
                    }
                }
            }
        }
    }
    fn tuple(&mut self, t: &Tuple) {
        self.u16(t.arity() as u16);
        for v in t.values() {
            self.value(v);
        }
    }
    /// `t` as the cells where it differs from `base`, or in full when
    /// no mask can describe it: no base, arities that differ, or more
    /// than 64 cells.
    fn against(&mut self, base: Option<&Tuple>, t: &Tuple) {
        let Some(base) = base.filter(|b| b.arity() == t.arity() && t.arity() <= 64) else {
            self.u8(FORM_FULL);
            self.tuple(t);
            return;
        };
        self.u8(FORM_MASK);
        let cells = base.values().iter().zip(t.values());
        let mut mask = 0u64;
        for (i, (b, v)) in cells.clone().enumerate() {
            if b != v {
                mask |= 1 << i;
            }
        }
        self.u64(mask);
        for (_, v) in cells.filter(|(b, v)| b != v) {
            self.value(v);
        }
    }
    fn batch<'t>(
        &mut self,
        seq: u64,
        pairs: impl ExactSizeIterator<Item = (&'t Tuple, &'t Tuple)>,
    ) {
        self.u64(seq);
        self.u32(pairs.len() as u32);
        for (dirty, clean) in pairs {
            self.tuple(dirty);
            self.against(Some(dirty), clean);
        }
    }
    fn attrs(&mut self, attrs: &[AttrId]) {
        self.u32(attrs.len() as u32);
        for a in attrs {
            self.u16(a.0);
        }
    }
    fn stats(&mut self, s: &MonitorStats) {
        self.u64(s.tuples);
        self.u64(s.certain);
        self.u64(s.rounds);
        self.duration(s.elapsed);
        self.u64(s.interner_syms);
        self.u64(s.plan_probes);
        self.u64(s.probe_allocs);
        self.u64(s.plan_fallbacks);
        self.u64(s.plan_rebuilds);
        self.u64(s.net.frames_in);
        self.u64(s.net.frames_out);
        self.u64(s.net.bytes_in);
        self.u64(s.net.bytes_out);
        self.u64(s.net.decode_errors);
        self.u64(s.net.sessions_torn);
    }
    fn outcome(&mut self, base: Option<&Tuple>, o: &FixOutcome) {
        self.against(base, &o.tuple);
        self.u64(o.validated.bits());
        self.u64(o.rule_fixed.bits());
        self.u64(o.user_changed.bits());
        let flags = (o.certain as u8) | ((o.rule_backed as u8) << 1) | ((o.gave_up as u8) << 2);
        self.u8(flags);
        match o.certain_at_round {
            None => self.u8(0),
            Some(r) => {
                self.u8(1);
                self.u64(r as u64);
            }
        }
        self.u32(o.rounds.len() as u32);
        for r in &o.rounds {
            self.attrs(&r.suggested);
            self.attrs(&r.asserted);
            self.u64(r.user_changed.bits());
            self.u64(r.rule_fixed.bits());
            self.bool(r.validated_ok);
        }
    }
    /// Append `frame`'s payload and return its kind.
    fn frame(&mut self, frame: &Frame, base: &[Tuple]) -> u16 {
        match frame {
            Frame::Hello { session, token } => {
                self.str(session);
                self.opt_str(token);
                K_HELLO
            }
            Frame::Batch { seq, pairs } => {
                self.batch(*seq, pairs.iter().map(|(dirty, clean)| (dirty, clean)));
                K_BATCH
            }
            Frame::Delta(delta) => {
                self.u32(delta.inserts().len() as u32);
                for t in delta.inserts() {
                    self.tuple(t);
                }
                self.u32(delta.updates().len() as u32);
                for (row, t) in delta.updates() {
                    self.u32(*row);
                    self.tuple(t);
                }
                self.u32(delta.deletes().len() as u32);
                for row in delta.deletes() {
                    self.u32(*row);
                }
                K_DELTA
            }
            Frame::Flush => K_FLUSH,
            Frame::Shutdown => K_SHUTDOWN,
            Frame::HelloAck { generation } => {
                self.u64(*generation);
                K_HELLO_ACK
            }
            Frame::Report {
                seq,
                generation,
                wall,
                stats,
                outcomes,
            } => {
                self.u64(*seq);
                self.u64(*generation);
                self.duration(*wall);
                self.stats(stats);
                self.u32(outcomes.len() as u32);
                for (i, o) in outcomes.iter().enumerate() {
                    self.outcome(base.get(i), o);
                }
                K_REPORT
            }
            Frame::DeltaAck { generation } => {
                self.u64(*generation);
                K_DELTA_ACK
            }
            Frame::FlushAck { batches } => {
                self.u64(*batches);
                K_FLUSH_ACK
            }
            Frame::SessionEnd {
                tuples,
                batches,
                wall,
                stats,
            } => {
                self.u64(*tuples);
                self.u64(*batches);
                self.duration(*wall);
                self.stats(stats);
                K_SESSION_END
            }
            Frame::Error { code, message } => {
                self.u16(*code);
                self.str(message);
                K_ERROR
            }
        }
    }
}

impl Frame {
    /// Encode the frame (header + payload) into `w` with exactly one
    /// `write_all` (see the module docs for why). Returns the total
    /// bytes written. The writer is *not* flushed. The frame is
    /// self-contained: its strings go through a dictionary of its own,
    /// and a Report's outcomes in full, so [`decode`](Self::decode)
    /// reads it back alone.
    pub fn encode<W: Write>(&self, w: &mut W) -> Result<usize, WireError> {
        let mut buf = Vec::new();
        let n = Encoder::default().encode_into(self, &[], &mut buf)?;
        w.write_all(&buf)?;
        Ok(n)
    }

    /// Decode one self-contained frame from `r` (see
    /// [`encode`](Self::encode)). `Ok(None)` is a clean end-of-stream
    /// (EOF exactly at a frame boundary); EOF anywhere inside a frame
    /// is an error like any other malformed input.
    pub fn decode<R: Read>(r: &mut R) -> Result<Option<Frame>, WireError> {
        Decoder::default().decode_with(r, &mut Vec::new(), &[])
    }
}

// ---------------------------------------------------------------- decode

/// The receiving end of one direction of a connection: the strings
/// received since the dictionary was last cleared, in arrival order.
#[derive(Default)]
pub struct Decoder {
    dict: Vec<Sym>,
}

impl Decoder {
    /// Strings the dictionary holds.
    pub fn entries(&self) -> usize {
        self.dict.len()
    }

    /// Decode the next frame from `r`. `Ok(None)` is a clean
    /// end-of-stream (EOF exactly at a frame boundary); EOF anywhere
    /// inside a frame is an error like any other malformed input. A
    /// Report's outcome `i`, if sent in mask form, applies to
    /// `base[i]`: the dirty tuples of the batch it answers.
    ///
    /// The payload is read into `scratch`, which a connection keeps
    /// across frames: it grows to the largest payload seen and is never
    /// zero-filled or reallocated again. Nothing is read *from* it; its
    /// contents between calls are meaningless.
    pub fn decode_with<R: Read>(
        &mut self,
        r: &mut R,
        scratch: &mut Vec<u8>,
        base: &[Tuple],
    ) -> Result<Option<Frame>, WireError> {
        if self.dict.len() >= DICT_CAP {
            self.dict.clear();
        }
        let mut header = [0u8; HEADER_LEN];
        // distinguish "no next frame" from "frame cut short": only a
        // zero-byte read before the first header byte is a clean end
        let mut got = 0usize;
        while got < HEADER_LEN {
            match r.read(&mut header[got..]) {
                Ok(0) if got == 0 => return Ok(None),
                Ok(0) => return Err(WireError::Truncated),
                Ok(n) => got += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(WireError::Io(e)),
            }
        }
        let magic: [u8; 4] = header[..4].try_into().expect("4-byte slice");
        if magic != MAGIC {
            return Err(WireError::BadMagic(magic));
        }
        let version = u16::from_le_bytes(header[4..6].try_into().expect("2-byte slice"));
        if version != VERSION {
            return Err(WireError::BadVersion(version));
        }
        let kind = u16::from_le_bytes(header[6..8].try_into().expect("2-byte slice"));
        let len = u32::from_le_bytes(header[8..12].try_into().expect("4-byte slice")) as usize;
        if len > MAX_FRAME {
            return Err(WireError::Oversized(len));
        }
        if scratch.len() < len {
            scratch.resize(len, 0);
        }
        let payload = &mut scratch[..len];
        r.read_exact(payload).map_err(|e| {
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                WireError::Truncated
            } else {
                WireError::Io(e)
            }
        })?;
        let mut b = Buf {
            b: payload,
            pos: 0,
            dict: &mut self.dict,
        };
        let frame = b.frame(kind, base)?;
        if b.remaining() != 0 {
            return Err(WireError::TrailingBytes(b.remaining()));
        }
        Ok(Some(frame))
    }
}

/// Reads payload fields, strings through the decoder's dictionary.
struct Buf<'a, 'd> {
    b: &'a [u8],
    pos: usize,
    dict: &'d mut Vec<Sym>,
}

impl<'a> Buf<'a, '_> {
    fn remaining(&self) -> usize {
        self.b.len() - self.pos
    }
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if n > self.remaining() {
            return Err(WireError::Truncated);
        }
        let s = &self.b[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(
            self.take(2)?.try_into().expect("2-byte slice"),
        ))
    }
    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4-byte slice"),
        ))
    }
    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8-byte slice"),
        ))
    }
    fn i64(&mut self) -> Result<i64, WireError> {
        Ok(i64::from_le_bytes(
            self.take(8)?.try_into().expect("8-byte slice"),
        ))
    }
    fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(WireError::BadTag(t)),
        }
    }
    fn duration(&mut self) -> Result<Duration, WireError> {
        Ok(Duration::from_nanos(self.u64()?))
    }
    /// An element count, validated against the bytes that could back
    /// it: each element occupies at least `min_elem` payload bytes, so
    /// any count exceeding `remaining / min_elem` is truncation (or an
    /// attack) — reject it *before* reserving the vector.
    fn count(&mut self, min_elem: usize) -> Result<usize, WireError> {
        let n = self.u32()? as usize;
        match n.checked_mul(min_elem) {
            Some(bytes) if bytes <= self.remaining() => Ok(n),
            _ => Err(WireError::Truncated),
        }
    }
    fn str(&mut self) -> Result<&'a str, WireError> {
        let n = self.u32()? as usize;
        std::str::from_utf8(self.take(n)?).map_err(|_| WireError::BadUtf8)
    }
    fn string(&mut self) -> Result<String, WireError> {
        Ok(self.str()?.to_owned())
    }
    fn opt_string(&mut self) -> Result<Option<String>, WireError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.string()?)),
            t => Err(WireError::BadTag(t)),
        }
    }
    fn value(&mut self) -> Result<Value, WireError> {
        match self.u8()? {
            V_NULL => Ok(Value::Null),
            V_INT => Ok(Value::Int(self.i64()?)),
            V_TEXT => {
                let sym = Sym::intern(self.str()?);
                self.dict.push(sym);
                Ok(Value::Str(sym))
            }
            V_BACK => {
                let back = self.u32()?;
                match self.dict.len().checked_sub(back as usize) {
                    Some(at) if back > 0 => Ok(Value::Str(self.dict[at])),
                    _ => Err(WireError::BadRef(back)),
                }
            }
            t => Err(WireError::BadTag(t)),
        }
    }
    fn tuple(&mut self) -> Result<Tuple, WireError> {
        let arity = self.u16()? as usize;
        if arity > self.remaining() {
            return Err(WireError::Truncated); // each value is ≥ 1 byte
        }
        let mut values = Vec::with_capacity(arity);
        for _ in 0..arity {
            values.push(self.value()?);
        }
        Ok(Tuple::new(values))
    }
    /// A tuple sent against `base`; the inverse of [`Payload::against`].
    fn against(&mut self, base: Option<&Tuple>) -> Result<Tuple, WireError> {
        match self.u8()? {
            FORM_FULL => self.tuple(),
            FORM_MASK => {
                let base = base.ok_or(WireError::NoBase)?;
                let mut mask = self.u64()?;
                let top = 64 - mask.leading_zeros() as usize; // highest named cell + 1
                if top > base.arity() {
                    return Err(WireError::BadTag(top as u8 - 1));
                }
                let mut t = base.clone();
                while mask != 0 {
                    let cell = mask.trailing_zeros();
                    t.set(AttrId(cell as u16), self.value()?);
                    mask &= mask - 1;
                }
                Ok(t)
            }
            t => Err(WireError::BadTag(t)),
        }
    }
    /// A Batch pair; the inverse of the pair loop of [`Payload::batch`].
    fn pair(&mut self) -> Result<(Tuple, Tuple), WireError> {
        let dirty = self.tuple()?;
        let clean = self.against(Some(&dirty))?;
        Ok((dirty, clean))
    }
    fn attrs(&mut self) -> Result<Vec<AttrId>, WireError> {
        let n = self.count(MIN_ATTR)?;
        let mut attrs = Vec::with_capacity(n);
        for _ in 0..n {
            attrs.push(AttrId(self.u16()?));
        }
        Ok(attrs)
    }
    fn stats(&mut self) -> Result<MonitorStats, WireError> {
        Ok(MonitorStats {
            tuples: self.u64()?,
            certain: self.u64()?,
            rounds: self.u64()?,
            elapsed: self.duration()?,
            interner_syms: self.u64()?,
            plan_probes: self.u64()?,
            probe_allocs: self.u64()?,
            plan_fallbacks: self.u64()?,
            plan_rebuilds: self.u64()?,
            net: NetLaneStats {
                frames_in: self.u64()?,
                frames_out: self.u64()?,
                bytes_in: self.u64()?,
                bytes_out: self.u64()?,
                decode_errors: self.u64()?,
                sessions_torn: self.u64()?,
            },
        })
    }
    fn outcome(&mut self, base: Option<&Tuple>) -> Result<FixOutcome, WireError> {
        let tuple = self.against(base)?;
        let validated = AttrSet::from_bits(self.u64()?);
        let rule_fixed = AttrSet::from_bits(self.u64()?);
        let user_changed = AttrSet::from_bits(self.u64()?);
        let flags = self.u8()?;
        if flags & !0b111 != 0 {
            return Err(WireError::BadTag(flags));
        }
        let certain_at_round = match self.u8()? {
            0 => None,
            1 => Some(self.u64()? as usize),
            t => return Err(WireError::BadTag(t)),
        };
        let n = self.count(MIN_ROUND)?;
        let mut rounds = Vec::with_capacity(n);
        for _ in 0..n {
            rounds.push(RoundReport {
                suggested: self.attrs()?,
                asserted: self.attrs()?,
                user_changed: AttrSet::from_bits(self.u64()?),
                rule_fixed: AttrSet::from_bits(self.u64()?),
                validated_ok: self.bool()?,
            });
        }
        Ok(FixOutcome {
            tuple,
            validated,
            rule_fixed,
            user_changed,
            certain: flags & 1 != 0,
            certain_at_round,
            rule_backed: flags & 2 != 0,
            gave_up: flags & 4 != 0,
            rounds,
        })
    }
    /// The payload of a frame of `kind`; the inverse of
    /// [`Payload::frame`].
    fn frame(&mut self, kind: u16, base: &[Tuple]) -> Result<Frame, WireError> {
        Ok(match kind {
            K_HELLO => Frame::Hello {
                session: self.string()?,
                token: self.opt_string()?,
            },
            K_BATCH => {
                let seq = self.u64()?;
                let n = self.count(MIN_PAIR)?;
                let mut pairs = Vec::with_capacity(n);
                for _ in 0..n {
                    pairs.push(self.pair()?);
                }
                Frame::Batch { seq, pairs }
            }
            K_DELTA => {
                let mut delta = MasterDelta::new();
                let n = self.count(MIN_TUPLE)?;
                for _ in 0..n {
                    delta = delta.insert(self.tuple()?);
                }
                let n = self.count(MIN_UPDATE)?;
                for _ in 0..n {
                    let row = self.u32()?;
                    delta = delta.update(row, self.tuple()?);
                }
                let n = self.count(MIN_DELETE)?;
                for _ in 0..n {
                    delta = delta.delete(self.u32()?);
                }
                Frame::Delta(delta)
            }
            K_FLUSH => Frame::Flush,
            K_SHUTDOWN => Frame::Shutdown,
            K_HELLO_ACK => Frame::HelloAck {
                generation: self.u64()?,
            },
            K_REPORT => {
                let seq = self.u64()?;
                let generation = self.u64()?;
                let wall = self.duration()?;
                let stats = self.stats()?;
                let n = self.count(MIN_OUTCOME)?;
                let mut outcomes = Vec::with_capacity(n);
                for i in 0..n {
                    outcomes.push(self.outcome(base.get(i))?);
                }
                Frame::Report {
                    seq,
                    generation,
                    wall,
                    stats,
                    outcomes,
                }
            }
            K_DELTA_ACK => Frame::DeltaAck {
                generation: self.u64()?,
            },
            K_FLUSH_ACK => Frame::FlushAck {
                batches: self.u64()?,
            },
            K_SESSION_END => Frame::SessionEnd {
                tuples: self.u64()?,
                batches: self.u64()?,
                wall: self.duration()?,
                stats: self.stats()?,
            },
            K_ERROR => Frame::Error {
                code: self.u16()?,
                message: self.string()?,
            },
            k => return Err(WireError::UnknownKind(k)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(f: &Frame) -> Frame {
        let mut buf = Vec::new();
        f.encode(&mut buf).expect("encode");
        let mut r = buf.as_slice();
        let back = Frame::decode(&mut r).expect("decode").expect("one frame");
        assert!(r.is_empty(), "decode consumed the whole encoding");
        back
    }

    #[test]
    fn fieldless_and_simple_frames_roundtrip() {
        for f in [
            Frame::Flush,
            Frame::Shutdown,
            Frame::HelloAck { generation: 7 },
            Frame::DeltaAck {
                generation: u64::MAX,
            },
            Frame::FlushAck { batches: 0 },
            Frame::Hello {
                session: "tenant-α".into(),
                token: Some(String::new()),
            },
            Frame::Error {
                code: 2,
                message: "unexpected Batch before Hello".into(),
            },
        ] {
            assert_eq!(roundtrip(&f), f);
        }
    }

    #[test]
    fn batch_and_delta_frames_roundtrip() {
        let t = |vs: Vec<Value>| Tuple::new(vs);
        let batch = Frame::Batch {
            seq: 3,
            pairs: vec![
                (
                    t(vec![Value::Null, Value::int(-5), Value::str("x")]),
                    t(vec![Value::str(""), Value::int(i64::MIN), Value::Null]),
                ),
                (t(vec![]), t(vec![Value::str("日本語")])),
            ],
        };
        assert_eq!(roundtrip(&batch), batch);
        let delta = Frame::Delta(
            MasterDelta::new()
                .insert(t(vec![Value::int(1)]))
                .update(9, t(vec![Value::str("v")]))
                .delete(0)
                .delete(u32::MAX),
        );
        assert_eq!(roundtrip(&delta), delta);
        assert_eq!(
            roundtrip(&Frame::Delta(MasterDelta::new())),
            Frame::Delta(MasterDelta::new())
        );
    }

    #[test]
    fn clean_eof_is_none_and_midframe_eof_is_truncated() {
        let mut empty: &[u8] = &[];
        assert!(matches!(Frame::decode(&mut empty), Ok(None)));
        let mut buf = Vec::new();
        Frame::Flush.encode(&mut buf).unwrap();
        for cut in 1..buf.len() {
            let mut r = &buf[..cut];
            assert!(
                matches!(Frame::decode(&mut r), Err(WireError::Truncated)),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn header_validation_rejects_before_reading_payloads() {
        let mut buf = Vec::new();
        Frame::HelloAck { generation: 1 }.encode(&mut buf).unwrap();
        let mut bad = buf.clone();
        bad[0] = b'X';
        assert!(matches!(
            Frame::decode(&mut bad.as_slice()),
            Err(WireError::BadMagic(_))
        ));
        let mut bad = buf.clone();
        bad[4] = 99;
        assert!(matches!(
            Frame::decode(&mut bad.as_slice()),
            Err(WireError::BadVersion(99))
        ));
        let mut bad = buf.clone();
        bad[6] = 0x77;
        assert!(matches!(
            Frame::decode(&mut bad.as_slice()),
            Err(WireError::UnknownKind(0x77))
        ));
        // an oversized declared length is rejected without allocating
        // or waiting for 4 GiB of payload
        let mut bad = buf.clone();
        bad[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            Frame::decode(&mut bad.as_slice()),
            Err(WireError::Oversized(_))
        ));
        // trailing payload bytes are an error, not silently skipped
        let mut bad = buf.clone();
        bad[8..12].copy_from_slice(&9u32.to_le_bytes());
        bad.push(0);
        assert!(matches!(
            Frame::decode(&mut bad.as_slice()),
            Err(WireError::TrailingBytes(1))
        ));
    }

    #[test]
    fn element_counts_are_checked_against_remaining_bytes() {
        // a Batch frame claiming 2^31 pairs in a 12-byte payload must
        // be rejected before any allocation happens
        let mut buf = Vec::new();
        Frame::Batch {
            seq: 0,
            pairs: vec![],
        }
        .encode(&mut buf)
        .unwrap();
        let off = HEADER_LEN + 8; // past seq, at the pair count
        buf[off..off + 4].copy_from_slice(&0x8000_0000u32.to_le_bytes());
        assert!(matches!(
            Frame::decode(&mut buf.as_slice()),
            Err(WireError::Truncated)
        ));

        // a Report's outcome count is checked at the smallest outcome,
        // `MIN_OUTCOME` (33) bytes, before any outcome is read: 64
        // bytes back one outcome, so a count of 1 reaches the first
        // outcome's bad form tag, and a count of 2 — which 64 bytes
        // would back at 2 bytes an outcome — is refused as truncated
        let mut buf = Vec::new();
        Frame::Report {
            seq: 0,
            generation: 0,
            wall: Duration::ZERO,
            stats: MonitorStats::default(),
            outcomes: vec![],
        }
        .encode(&mut buf)
        .unwrap();
        let off = buf.len() - 4; // the outcome count ends the payload
        buf.extend_from_slice(&[7; 64]);
        let len = (buf.len() - HEADER_LEN) as u32;
        buf[8..HEADER_LEN].copy_from_slice(&len.to_le_bytes());
        for n in [32u32, 2, 1] {
            let mut bad = buf.clone();
            bad[off..off + 4].copy_from_slice(&n.to_le_bytes());
            let got = Frame::decode(&mut bad.as_slice());
            let read = matches!(got, Err(WireError::BadTag(7)));
            let refused = matches!(got, Err(WireError::Truncated));
            assert!(
                if n == 1 { read } else { refused },
                "{n} outcomes in 64 bytes: {got:?}"
            );
        }
        // the smallest outcome is `MIN_OUTCOME` bytes
        let mut one = Vec::new();
        Frame::Report {
            seq: 0,
            generation: 0,
            wall: Duration::ZERO,
            stats: MonitorStats::default(),
            outcomes: vec![FixOutcome {
                tuple: Tuple::new(vec![]),
                validated: AttrSet::from_bits(0),
                rule_fixed: AttrSet::from_bits(0),
                user_changed: AttrSet::from_bits(0),
                certain: false,
                certain_at_round: None,
                rule_backed: false,
                gave_up: false,
                rounds: vec![],
            }],
        }
        .encode(&mut one)
        .unwrap();
        assert_eq!(one.len() - (off + 4), MIN_OUTCOME);
    }

    /// An encode that fails takes its strings off the dictionary again:
    /// a decoder that never saw the failed frame reads the next one,
    /// which sends those strings anew.
    #[test]
    fn a_failed_encode_leaves_the_dictionary_as_it_was() {
        let (mut enc, mut dec) = (Encoder::default(), Decoder::default());
        let batch = |cells: &[&str]| Frame::Batch {
            seq: 0,
            pairs: vec![(
                Tuple::new(cells.iter().map(Value::str).collect()),
                Tuple::new(cells.iter().map(Value::str).collect()),
            )],
        };
        let mut wire = Vec::new();
        enc.encode_into(&batch(&["kept"]), &[], &mut wire).unwrap();
        dec.decode_with(&mut wire.as_slice(), &mut Vec::new(), &[])
            .unwrap();
        assert_eq!((enc.entries(), dec.entries()), (1, 1));

        // a frame that sends two new strings and a repeat, then runs
        // past `MAX_FRAME`
        let before = wire.len();
        let failed = enc.frame(&mut wire, |p| {
            for v in ["kept", "lost 1", "lost 2"].map(Value::str) {
                p.value(&v);
            }
            p.b.resize(p.b.len() + MAX_FRAME, 0);
            K_BATCH
        });
        assert!(matches!(failed, Err(WireError::Oversized(_))));
        assert_eq!(wire.len(), before, "nothing appended");
        assert_eq!(enc.entries(), 1, "the two new strings are gone");
        wire = Vec::new(); // give the 64 MiB back

        let next = batch(&["lost 2", "kept", "lost 1"]);
        enc.encode_into(&next, &[], &mut wire).unwrap();
        let back = dec.decode_with(&mut wire.as_slice(), &mut Vec::new(), &[]);
        assert_eq!(back.unwrap().unwrap(), next);
        assert_eq!((enc.entries(), dec.entries()), (3, 3));
    }
}
