//! Property tests for the wire codec: `decode(encode(frame)) ==
//! frame` over arbitrary frames of every kind, and the decoder
//! rejects truncated / oversized / bad-magic / bad-version inputs
//! with a typed error — never a panic. Plus the two rules of the
//! write path: one `write` per frame, whatever its size, and the
//! VERSION 3 delta form of a Batch pair.
//!
//! The vendored proptest has no alternation combinator, so each frame
//! family gets its own property instead of one `prop_oneof` tree.

use std::io::Write;
use std::time::Duration;

use certainfix_core::{FixOutcome, MonitorStats, NetLaneStats, RoundReport};
use certainfix_net::wire::{Frame, WireError, MAX_FRAME, VERSION};
use certainfix_relation::{AttrId, AttrSet, MasterDelta, Tuple, Value};
use proptest::collection::vec;
use proptest::option;
use proptest::prelude::*;

/// Character table for generated strings — ASCII plus multibyte, so
/// the u32-length-prefixed UTF-8 path sees 1–4 byte encodings.
const CHARS: &[char] = &[
    'a', 'Z', '0', '_', '-', ' ', '"', '\\', 'é', 'ß', '日', '本', '語', '🦀', '\u{0}',
];

fn arb_string() -> impl Strategy<Value = String> {
    vec(0usize..CHARS.len(), 0..12).prop_map(|ixs| ixs.into_iter().map(|i| CHARS[i]).collect())
}

fn arb_value() -> impl Strategy<Value = Value> {
    (0u8..3, any::<i64>(), arb_string()).prop_map(|(tag, i, s)| match tag {
        0 => Value::Null,
        1 => Value::int(i),
        _ => Value::str(&s),
    })
}

fn arb_tuple() -> impl Strategy<Value = Tuple> {
    vec(arb_value(), 0..5).prop_map(Tuple::new)
}

/// A Batch pair in each of the shapes the VERSION 3 payload tells
/// apart: unrelated tuples (arities mostly differ: the full form),
/// identical in every cell (an empty delta), and equal arity with
/// some cells replaced (a proper delta).
fn arb_pair() -> impl Strategy<Value = (Tuple, Tuple)> {
    (0u8..3, arb_tuple(), arb_tuple(), any::<u64>()).prop_map(|(shape, dirty, other, mask)| {
        let clean = match shape {
            0 => other,
            1 => dirty.clone(),
            _ => {
                let mut clean = dirty.clone();
                for (i, v) in other.values().iter().enumerate().take(dirty.arity()) {
                    if mask >> i & 1 == 1 {
                        clean.set(AttrId(i as u16), *v);
                    }
                }
                clean
            }
        };
        (dirty, clean)
    })
}

fn arb_attrset() -> impl Strategy<Value = AttrSet> {
    any::<u64>().prop_map(AttrSet::from_bits)
}

fn arb_duration() -> impl Strategy<Value = Duration> {
    any::<u64>().prop_map(Duration::from_nanos)
}

fn arb_net() -> impl Strategy<Value = NetLaneStats> {
    (
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
    )
        .prop_map(
            |(frames_in, frames_out, bytes_in, bytes_out, decode_errors, sessions_torn)| {
                NetLaneStats {
                    frames_in,
                    frames_out,
                    bytes_in,
                    bytes_out,
                    decode_errors,
                    sessions_torn,
                }
            },
        )
}

fn arb_stats() -> impl Strategy<Value = MonitorStats> {
    (
        (
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            arb_duration(),
            any::<u64>(),
            any::<u64>(),
        ),
        (
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            arb_net(),
        ),
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
    )
        .prop_map(
            |(
                (tuples, certain, rounds, elapsed, interner_syms, shared_hits),
                (shared_misses, plan_probes, probe_allocs, plan_fallbacks, plan_rebuilds, net),
                (shared_evicted_delta, shared_evicted_lru, shared_revalidated, shared_saturated),
            )| MonitorStats {
                tuples,
                certain,
                rounds,
                elapsed,
                interner_syms,
                shared_hits,
                shared_misses,
                shared_evicted_delta,
                shared_evicted_lru,
                shared_revalidated,
                shared_saturated,
                plan_probes,
                probe_allocs,
                plan_fallbacks,
                plan_rebuilds,
                net,
            },
        )
}

fn arb_round() -> impl Strategy<Value = RoundReport> {
    (
        vec(any::<u16>().prop_map(AttrId), 0..4),
        vec(any::<u16>().prop_map(AttrId), 0..4),
        arb_attrset(),
        arb_attrset(),
        any::<bool>(),
    )
        .prop_map(
            |(suggested, asserted, user_changed, rule_fixed, validated_ok)| RoundReport {
                suggested,
                asserted,
                user_changed,
                rule_fixed,
                validated_ok,
            },
        )
}

fn arb_outcome() -> impl Strategy<Value = FixOutcome> {
    (
        (arb_tuple(), arb_attrset(), arb_attrset(), arb_attrset()),
        (
            any::<bool>(),
            option::of(any::<usize>()),
            any::<bool>(),
            any::<bool>(),
        ),
        vec(arb_round(), 0..3),
    )
        .prop_map(
            |(
                (tuple, validated, rule_fixed, user_changed),
                (certain, certain_at_round, rule_backed, gave_up),
                rounds,
            )| FixOutcome {
                tuple,
                validated,
                rule_fixed,
                user_changed,
                certain,
                certain_at_round,
                rule_backed,
                gave_up,
                rounds,
            },
        )
}

fn arb_delta() -> impl Strategy<Value = MasterDelta> {
    vec((0u8..3, any::<u32>(), arb_tuple()), 0..6).prop_map(|ops| {
        ops.into_iter()
            .fold(MasterDelta::default(), |d, (op, row, t)| match op {
                0 => d.insert(t),
                1 => d.update(row, t),
                _ => d.delete(row),
            })
    })
}

/// Encode, decode, check equality, and check the byte accounting: the
/// reported size is the whole buffer, one frame consumes everything,
/// and a second decode on the empty remainder is a clean EOF.
fn assert_roundtrip(frame: Frame) -> Result<(), proptest::test_runner::TestCaseError> {
    let mut buf = Vec::new();
    let n = match frame.encode(&mut buf) {
        Ok(n) => n,
        Err(e) => {
            return Err(proptest::test_runner::TestCaseError::fail(format!(
                "encode failed: {e}"
            )))
        }
    };
    prop_assert_eq!(n, buf.len()); // encode reports the bytes written
    let mut r = &buf[..];
    let decoded = match Frame::decode(&mut r) {
        Ok(Some(f)) => f,
        other => {
            return Err(proptest::test_runner::TestCaseError::fail(format!(
                "decode of a valid frame returned {other:?}"
            )))
        }
    };
    prop_assert_eq!(&decoded, &frame);
    prop_assert!(r.is_empty(), "one frame consumes its whole encoding");
    match Frame::decode(&mut r) {
        Ok(None) => Ok(()),
        other => Err(proptest::test_runner::TestCaseError::fail(format!(
            "empty remainder should be clean EOF, got {other:?}"
        ))),
    }
}

proptest! {
    #[test]
    fn hello_roundtrips(session in arb_string(), token in option::of(arb_string())) {
        assert_roundtrip(Frame::Hello { session, token })?;
    }

    #[test]
    fn batch_roundtrips(seq in any::<u64>(), pairs in vec(arb_pair(), 0..6)) {
        assert_roundtrip(Frame::Batch { seq, pairs })?;
    }

    #[test]
    fn delta_roundtrips(delta in arb_delta()) {
        assert_roundtrip(Frame::Delta(delta))?;
    }

    #[test]
    fn fieldless_and_ack_frames_roundtrip(g in any::<u64>(), b in any::<u64>()) {
        assert_roundtrip(Frame::Flush)?;
        assert_roundtrip(Frame::Shutdown)?;
        assert_roundtrip(Frame::HelloAck { generation: g })?;
        assert_roundtrip(Frame::DeltaAck { generation: g })?;
        assert_roundtrip(Frame::FlushAck { batches: b })?;
    }

    #[test]
    fn report_roundtrips(
        seq in any::<u64>(),
        generation in any::<u64>(),
        wall in arb_duration(),
        stats in arb_stats(),
        outcomes in vec(arb_outcome(), 0..3),
    ) {
        assert_roundtrip(Frame::Report { seq, generation, wall, stats, outcomes })?;
    }

    #[test]
    fn session_end_and_error_roundtrip(
        tuples in any::<u64>(),
        batches in any::<u64>(),
        wall in arb_duration(),
        stats in arb_stats(),
        code in any::<u16>(),
        message in arb_string(),
    ) {
        assert_roundtrip(Frame::SessionEnd { tuples, batches, wall, stats })?;
        assert_roundtrip(Frame::Error { code, message })?;
    }

    /// Arbitrary bytes never panic the decoder: every outcome is a
    /// typed `WireError`, a decoded frame, or a clean EOF.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in vec(any::<u8>(), 0..96)) {
        let mut r = &bytes[..];
        let _ = Frame::decode(&mut r);
    }

    /// Every strict prefix of a valid encoding is `Truncated` (or, for
    /// the empty prefix, a clean EOF) — never a mis-decoded frame.
    #[test]
    fn truncated_prefixes_are_rejected(
        pairs in vec(arb_pair(), 0..4),
        pick in any::<u64>(),
    ) {
        let mut buf = Vec::new();
        Frame::Batch { seq: 7, pairs }.encode(&mut buf).unwrap();
        let cut = (pick % buf.len() as u64) as usize; // 0..len strict prefixes
        let mut r = &buf[..cut];
        match Frame::decode(&mut r) {
            Ok(None) => prop_assert_eq!(cut, 0), // only the empty prefix is clean EOF
            Err(WireError::Truncated) => prop_assert!(cut > 0),
            other => prop_assert!(false, "prefix of {} bytes decoded as {:?}", cut, other),
        }
    }

    /// A corrupted magic byte is `BadMagic`, checked before anything
    /// else is read.
    #[test]
    fn corrupt_magic_is_rejected(which in 0usize..4) {
        let mut buf = Vec::new();
        Frame::Flush.encode(&mut buf).unwrap();
        buf[which] ^= 0xFF;
        match Frame::decode(&mut &buf[..]) {
            Err(WireError::BadMagic(_)) => {}
            other => prop_assert!(false, "corrupt magic decoded as {:?}", other),
        }
    }

    /// Any version other than ours is `BadVersion`.
    #[test]
    fn wrong_version_is_rejected(v in any::<u16>()) {
        let v = if v == VERSION { v ^ 1 } else { v };
        let mut buf = Vec::new();
        Frame::Flush.encode(&mut buf).unwrap();
        buf[4..6].copy_from_slice(&v.to_le_bytes());
        match Frame::decode(&mut &buf[..]) {
            Err(WireError::BadVersion(got)) => prop_assert_eq!(got, v),
            other => prop_assert!(false, "version {} decoded as {:?}", v, other),
        }
    }

    /// A header whose declared length exceeds `MAX_FRAME` is rejected
    /// as `Oversized` before any payload allocation.
    #[test]
    fn oversized_headers_are_rejected(extra in any::<u32>()) {
        let len = (MAX_FRAME as u32).saturating_add(extra.max(1));
        let mut buf = Vec::new();
        buf.extend_from_slice(b"CFXW");
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.extend_from_slice(&0x04u16.to_le_bytes()); // Flush
        buf.extend_from_slice(&len.to_le_bytes());
        match Frame::decode(&mut &buf[..]) {
            Err(WireError::Oversized(got)) => prop_assert_eq!(got, len as usize),
            other => prop_assert!(false, "oversized header decoded as {:?}", other),
        }
    }

    /// An unknown frame kind is rejected as such, not misparsed.
    #[test]
    fn unknown_kinds_are_rejected(kind in any::<u16>()) {
        const KNOWN: &[u16] = &[0x01, 0x02, 0x03, 0x04, 0x05, 0x81, 0x82, 0x83, 0x84, 0x85, 0x86];
        let kind = if KNOWN.contains(&kind) { 0x7777 } else { kind };
        let mut buf = Vec::new();
        buf.extend_from_slice(b"CFXW");
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.extend_from_slice(&kind.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        match Frame::decode(&mut &buf[..]) {
            Err(WireError::UnknownKind(got)) => prop_assert_eq!(got, kind),
            other => prop_assert!(false, "kind {:#06x} decoded as {:?}", kind, other),
        }
    }
}

/// Counts `write` calls and takes whatever it is given, like a socket
/// with room in its send buffer.
#[derive(Default)]
struct CountingWriter {
    writes: usize,
    bytes: usize,
}

impl Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.writes += 1;
        self.bytes += buf.len();
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// One frame, one write — for every kind, and for frames far past the
/// 8 KiB at which a `BufWriter` used to split header from payload.
#[test]
fn every_frame_kind_is_encoded_with_exactly_one_write() {
    let row = |i: i64| {
        Tuple::new(
            (0..19)
                .map(|c| Value::str(format!("cell {c} of row {i}")))
                .collect(),
        )
    };
    let outcome = |i: i64| FixOutcome {
        tuple: row(i),
        validated: AttrSet::from_bits(u64::MAX),
        rule_fixed: AttrSet::from_bits(0),
        user_changed: AttrSet::from_bits(1),
        certain: true,
        certain_at_round: Some(1),
        rule_backed: true,
        gave_up: false,
        rounds: vec![],
    };
    let stats = MonitorStats::default();
    let frames = [
        Frame::Hello {
            session: "s".into(),
            token: Some("t".into()),
        },
        Frame::Batch {
            seq: 0,
            pairs: (0..64).map(|i| (row(i), row(-i))).collect(),
        },
        Frame::Delta(
            MasterDelta::default()
                .insert(row(1))
                .update(2, row(3))
                .delete(4),
        ),
        Frame::Flush,
        Frame::Shutdown,
        Frame::HelloAck { generation: 1 },
        Frame::Report {
            seq: 0,
            generation: 1,
            wall: Duration::from_millis(1),
            stats,
            outcomes: (0..64).map(outcome).collect(),
        },
        Frame::DeltaAck { generation: 2 },
        Frame::FlushAck { batches: 3 },
        Frame::SessionEnd {
            tuples: 4,
            batches: 5,
            wall: Duration::ZERO,
            stats,
        },
        Frame::Error {
            code: 2,
            message: "no".into(),
        },
    ];
    for frame in &frames {
        let mut w = CountingWriter::default();
        let n = frame.encode(&mut w).unwrap();
        assert_eq!(w.writes, 1, "{frame:?}");
        assert_eq!(w.bytes, n);
        if matches!(frame, Frame::Batch { .. } | Frame::Report { .. }) {
            assert!(n > 8192, "the large frames really are past 8 KiB: {n}");
        }
    }
}

/// A hand-built frame: header for `kind` at `version`, then `payload`.
fn raw_frame(version: u16, kind: u16, payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.extend_from_slice(b"CFXW");
    buf.extend_from_slice(&version.to_le_bytes());
    buf.extend_from_slice(&kind.to_le_bytes());
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(payload);
    buf
}

/// The previous protocol version is refused by its header alone.
#[test]
fn a_version_2_header_is_rejected() {
    let buf = raw_frame(2, 0x04, &[]); // Flush
    assert!(matches!(
        Frame::decode(&mut &buf[..]),
        Err(WireError::BadVersion(2))
    ));
}

/// Malformed clean-tuple deltas are typed errors: a mask naming a cell
/// the dirty tuple does not have, fewer values than mask bits, an
/// undefined form tag.
#[test]
fn malformed_batch_deltas_are_rejected() {
    // seq, one pair, dirty = (Null, Null), then `clean` as given
    let batch = |clean: &[u8]| {
        let mut p = Vec::new();
        p.extend_from_slice(&7u64.to_le_bytes());
        p.extend_from_slice(&1u32.to_le_bytes());
        p.extend_from_slice(&2u16.to_le_bytes());
        p.extend_from_slice(&[0, 0]);
        p.extend_from_slice(clean);
        raw_frame(VERSION, 0x02, &p)
    };
    let delta = |mask: u64, values: &[u8]| {
        let mut clean = vec![1u8];
        clean.extend_from_slice(&mask.to_le_bytes());
        clean.extend_from_slice(values);
        batch(&clean)
    };
    let decode = |buf: Vec<u8>| Frame::decode(&mut &buf[..]);

    // the well-formed baseline: cell 1 becomes Int(5)
    let int5 = [&[1u8][..], &5i64.to_le_bytes()].concat();
    match decode(delta(0b10, &int5)) {
        Ok(Some(Frame::Batch { seq: 7, pairs })) => {
            assert_eq!(pairs[0].1, Tuple::new(vec![Value::Null, Value::int(5)]));
        }
        other => panic!("well-formed delta decoded as {other:?}"),
    }
    for (mask, cell) in [(0b100u64, 2u8), (0b101, 2), (1 << 63, 63)] {
        assert!(
            matches!(decode(delta(mask, &int5)), Err(WireError::BadTag(c)) if c == cell),
            "mask {mask:#b} names cell {cell} of a 2-cell tuple"
        );
    }
    assert!(matches!(
        decode(delta(0b11, &[0])),
        Err(WireError::Truncated)
    ));
    assert!(matches!(
        decode(delta(0b01, &[])),
        Err(WireError::Truncated)
    ));
    assert!(matches!(decode(batch(&[2])), Err(WireError::BadTag(2))));
    // a value left over after the mask is served is trailing bytes
    assert!(matches!(
        decode(delta(0, &[0])),
        Err(WireError::TrailingBytes(1))
    ));
}

/// Past 64 cells no mask can describe the pair: it falls back to the
/// full form, and 64 exactly still fits the mask.
#[test]
fn wide_pairs_roundtrip_on_both_sides_of_the_mask_width() {
    for arity in [63usize, 64, 65, 200] {
        let dirty = Tuple::new((0..arity as i64).map(Value::int).collect());
        let mut clean = dirty.clone();
        clean.set(AttrId(arity as u16 - 1), Value::str("last"));
        let frame = Frame::Batch {
            seq: 1,
            pairs: vec![(dirty, clean)],
        };
        let mut buf = Vec::new();
        frame.encode(&mut buf).unwrap();
        assert_eq!(
            Frame::decode(&mut &buf[..]).unwrap().unwrap(),
            frame,
            "arity {arity}"
        );
    }
}
