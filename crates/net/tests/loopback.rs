//! Loopback integration tests for the network ingest lane.
//!
//! The headline invariant is **D11**: a stream ingested over a
//! loopback socket is bit-identical to the same tuples drained
//! through an in-process `SliceSource` — at any worker count, any
//! client-side chunking, and any number of co-resident connections.
//! Both reconstructions are held to it: the server's own
//! `NamedSessionReport` and the client's reassembly from `Report`
//! frames.

use std::collections::HashMap;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use certainfix_core::{
    MonitorStats, RepairServiceBuilder, RepairSessionBuilder, SessionReport, SimulatedUser,
    SliceSource,
};
use certainfix_datagen::{Dataset, DirtyConfig, Hosp, Workload};
use certainfix_net::wire::Frame;
use certainfix_net::{RepairClient, RepairServer};
use certainfix_relation::{MasterDelta, Tuple, Value};

fn hosp_sessions(dm: usize, sizes: &[usize]) -> (Hosp, Vec<Dataset>) {
    let hosp = Hosp::generate(dm);
    let datasets = sizes
        .iter()
        .enumerate()
        .map(|(i, &n)| {
            Dataset::generate(
                &hosp,
                &DirtyConfig {
                    duplicate_rate: 0.3,
                    noise_rate: 0.2,
                    input_size: n,
                    seed: 0x0D11_0D11 ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9),
                    skew: if i == 0 { 1.0 } else { 0.0 },
                    ..DirtyConfig::default()
                },
            )
        })
        .collect();
    (hosp, datasets)
}

fn dirty_of(ds: &Dataset) -> Vec<Tuple> {
    ds.inputs.iter().map(|dt| dt.dirty.clone()).collect()
}

fn clean_of(ds: &Dataset) -> Vec<Tuple> {
    ds.inputs.iter().map(|dt| dt.clean.clone()).collect()
}

/// Solo baseline: the dataset drained alone, in process, through a
/// `SliceSource` with the given batch size; `CertainFix+` iff `bdd`.
fn solo_run(hosp: &Hosp, bdd: bool, ds: &Dataset, dirty: &[Tuple], batch: usize) -> SessionReport {
    let mut session = RepairSessionBuilder::new(hosp.rules().clone(), hosp.master().clone())
        .bdd(bdd)
        .threads(1)
        .build();
    session.drain(SliceSource::with_batch(dirty, batch), |i| {
        SimulatedUser::new(ds.inputs[i].clean.clone())
    });
    session.finish()
}

fn service_builder(hosp: &Hosp, workers: usize) -> RepairServiceBuilder {
    RepairServiceBuilder::new(hosp.rules().clone(), hosp.master().clone()).threads(workers)
}

/// Assert the deterministic observables of `got` are bit-identical to
/// the solo baseline: every `FixOutcome` (full structural equality —
/// repaired tuple, attr sets, round trace) and the deterministic
/// `MonitorStats` counters. Wall-clock observables stay exempt, and so
/// do the net-lane transport counters.
fn assert_bit_identical(got: &SessionReport, want: &SessionReport, ctx: &str) {
    assert_eq!(got.tuples, want.tuples, "{ctx}: tuple count");
    let (got_out, want_out): (Vec<_>, Vec<_>) =
        (got.outcomes().collect(), want.outcomes().collect());
    assert_eq!(got_out.len(), want_out.len(), "{ctx}: outcome count");
    for (i, (a, b)) in got_out.iter().zip(&want_out).enumerate() {
        assert_eq!(a, b, "{ctx}: outcome {i}");
    }
    for (field, a, b) in [
        ("tuples", got.stats.tuples, want.stats.tuples),
        ("certain", got.stats.certain, want.stats.certain),
        ("rounds", got.stats.rounds, want.stats.rounds),
        ("plan_probes", got.stats.plan_probes, want.stats.plan_probes),
        (
            "plan_fallbacks",
            got.stats.plan_fallbacks,
            want.stats.plan_fallbacks,
        ),
    ] {
        assert_eq!(a, b, "{ctx}: stats.{field}");
    }
}

/// D11: 1/2/4 workers × 1/2/4 co-resident connections, with a
/// different client-side chunk size per connection. Server-side and
/// client-side session reports both match the solo in-process drains,
/// for plain `CertainFix` and for `CertainFix+` under default options
/// (server-side `BddStats` compared too; the wire does not carry them).
#[test]
fn loopback_sessions_match_in_process_runs_d11() {
    let (hosp, datasets) = hosp_sessions(150, &[240, 100, 60, 150]);
    let dirty: Vec<Vec<Tuple>> = datasets.iter().map(dirty_of).collect();
    let clean: Vec<Vec<Tuple>> = datasets.iter().map(clean_of).collect();
    let chunks = [64usize, 17, 30, 128];

    for bdd in [false, true] {
        let solo: Vec<SessionReport> = datasets
            .iter()
            .zip(&dirty)
            .zip(chunks)
            .map(|((ds, tuples), chunk)| solo_run(&hosp, bdd, ds, tuples, chunk))
            .collect();
        if bdd {
            assert!(solo[0].bdd.hits > 0, "the diagrams served suggestions");
        }

        for workers in [1usize, 2, 4] {
            for conns in [1usize, 2, 4] {
                let service = service_builder(&hosp, workers).bdd(bdd).build();
                let server = RepairServer::serve_tcp(service, "127.0.0.1:0", None).unwrap();
                let addr = server.local_addr().unwrap();

                let client_reports: Vec<(usize, SessionReport)> = std::thread::scope(|scope| {
                    let handles: Vec<_> = (0..conns)
                        .map(|s| {
                            let (dirty, clean) = (&dirty[s], &clean[s]);
                            scope.spawn(move || {
                                let mut client =
                                    RepairClient::connect_tcp(addr, &format!("s{s}"), None)
                                        .unwrap();
                                for (d, c) in dirty.chunks(chunks[s]).zip(clean.chunks(chunks[s])) {
                                    client.send_batch(d, c).unwrap();
                                }
                                (s, client.finish().unwrap())
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| {
                            let (s, cr) = h.join().unwrap();
                            // server's closing numbers agree with the
                            // client-side reassembly
                            assert_eq!(cr.server_tuples as usize, cr.report.tuples);
                            assert_eq!(cr.server_batches as usize, cr.report.batches.len());
                            assert_eq!(cr.server_stats.tuples, cr.report.stats.tuples);
                            assert_eq!(cr.server_stats.certain, cr.report.stats.certain);
                            (s, cr.report)
                        })
                        .collect()
                });
                let report = server.shutdown();

                let ctx =
                    |side: &str, s: usize| format!("{side} s{s}, {workers}w × {conns}c, bdd {bdd}");
                // client-side reconstruction vs solo
                for (s, client_report) in &client_reports {
                    assert_bit_identical(client_report, &solo[*s], &ctx("client", *s));
                }
                // server-side session reports vs solo
                assert_eq!(report.sessions.len(), conns);
                let by_name: HashMap<&str, &SessionReport> = report
                    .sessions
                    .iter()
                    .map(|n| (n.name.as_str(), &n.report))
                    .collect();
                for s in 0..conns {
                    let got = by_name[format!("s{s}").as_str()];
                    assert_bit_identical(got, &solo[s], &ctx("server", s));
                    assert_eq!(got.bdd, solo[s].bdd, "{}", ctx("server", s));
                }
                // transport counters are plumbed: every session moved
                // frames both ways, cleanly
                assert!(report.stats.net.frames_in as usize >= conns * 2);
                assert!(report.stats.net.frames_out as usize >= conns * 2);
                assert!(report.stats.net.bytes_in > 0 && report.stats.net.bytes_out > 0);
                assert_eq!(report.stats.net.decode_errors, 0);
                assert_eq!(report.stats.net.sessions_torn, 0);
                for named in &report.sessions {
                    assert!(
                        named.report.stats.net.frames_in >= 2,
                        "per-session lane counters"
                    );
                }
            }
        }
    }
}

/// A master delta that rewrites the key column of the first HOSP rule in
/// master rows `rows`: the dirty tuples that duplicate those rows stop
/// matching them.
fn key_rewrite(hosp: &Hosp, rows: std::ops::Range<u32>, tag: &str) -> MasterDelta {
    let (_, rule) = hosp.rules().iter().next().expect("HOSP has rules");
    rows.fold(MasterDelta::new(), |delta, row| {
        let mut keyed = hosp.master().tuple(row as usize).clone();
        keyed.set(rule.lhs_m()[0], Value::str(format!("{tag}-{row}")));
        delta.update(row, keyed)
    })
}

/// D11 with master deltas: one connection streams HOSP batches with an
/// overwriting `Delta` frame after batches 3 and 7, with no flush in
/// front of either, at 1/2/4 workers with the BDD off and on. The
/// client's reassembly and the server's report both equal an in-process
/// `RepairSession` that calls `apply_master_delta` at the same
/// positions: whole outcomes, deterministic stats, and every batch's
/// generation. The deltas change outcomes, so a batch that crossed a
/// delta would show.
#[test]
fn loopback_deltas_match_in_process_positions_d11() {
    const BATCH: usize = 32;
    let (hosp, datasets) = hosp_sessions(150, &[320]);
    let ds = &datasets[0];
    let (dirty, clean) = (dirty_of(ds), clean_of(ds));
    let deltas = [
        (3, key_rewrite(&hosp, 0..40, "FIRST")),
        (7, key_rewrite(&hosp, 40..80, "SECOND")),
    ];
    let delta_after = |k: usize| deltas.iter().find(|(at, _)| *at == k).map(|(_, d)| d);

    for bdd in [false, true] {
        let mut session = RepairSessionBuilder::new(hosp.rules().clone(), hosp.master().clone())
            .bdd(bdd)
            .threads(1)
            .build();
        let mut generations = Vec::new();
        for (k, d) in dirty.chunks(BATCH).enumerate() {
            session.push_batch(d, |i| SimulatedUser::new(ds.inputs[i].clean.clone()));
            if let Some(delta) = delta_after(k + 1) {
                generations.push(session.apply_master_delta(delta).unwrap());
            }
        }
        let want = session.finish();
        assert_eq!(want.stats.plan_rebuilds, 2);
        let plain = solo_run(&hosp, bdd, ds, &dirty, BATCH);
        assert!(
            want.outcomes().zip(plain.outcomes()).any(|(a, b)| a != b),
            "bdd {bdd}: the deltas change some outcome"
        );

        for workers in [1usize, 2, 4] {
            let ctx = |side: &str| format!("{side}, {workers}w, bdd {bdd}");
            let service = service_builder(&hosp, workers).bdd(bdd).build();
            let server = RepairServer::serve_tcp(service, "127.0.0.1:0", None).unwrap();
            let mut client =
                RepairClient::connect_tcp(server.local_addr().unwrap(), "d", None).unwrap();
            let mut acked = Vec::new();
            for (k, (d, c)) in dirty.chunks(BATCH).zip(clean.chunks(BATCH)).enumerate() {
                client.send_batch(d, c).unwrap();
                if let Some(delta) = delta_after(k + 1) {
                    acked.push(client.apply_delta(delta).unwrap());
                }
            }
            assert_eq!(acked, generations, "{}", ctx("acks"));
            let cr = client.finish().unwrap();
            let report = server.shutdown();

            let server_side = &report.sessions[0].report;
            for (side, got) in [("client", &cr.report), ("server", server_side)] {
                assert_bit_identical(got, &want, &ctx(side));
                let gens = |r: &SessionReport| -> Vec<u64> {
                    r.batches.iter().map(|b| b.generation).collect()
                };
                assert_eq!(gens(got), gens(&want), "{}: generations", ctx(side));
            }
            assert_eq!(server_side.bdd, want.bdd, "{}", ctx("server"));
            assert_eq!(cr.server_stats.plan_rebuilds, 2, "{}", ctx("SessionEnd"));
            assert_eq!(server_side.stats.plan_rebuilds, 2, "{}", ctx("server"));
        }
    }
}

/// A refused delta — its update row is out of range — answers `Error`
/// code 3 after the `Report`s of the batches sent before it, and the
/// session streams on: its later batches repair on the unchanged
/// generation, equal to a solo run, and no end counts a plan rebuild.
#[test]
fn a_refused_delta_answers_in_order_and_the_session_streams_on() {
    let (hosp, datasets) = hosp_sessions(100, &[96]);
    let ds = &datasets[0];
    let (dirty, clean) = (dirty_of(ds), clean_of(ds));
    let solo = solo_run(&hosp, false, ds, &dirty, 24);
    let row = hosp.master().len() as u32 + 5;
    let refused = MasterDelta::new().update(row, hosp.master().tuple(0).clone());

    let server =
        RepairServer::serve_tcp(service_builder(&hosp, 2).build(), "127.0.0.1:0", None).unwrap();
    let mut client =
        RepairClient::connect_tcp(server.local_addr().unwrap(), "refused", None).unwrap();
    let g0 = client.generation();
    let mut pages = dirty.chunks(24).zip(clean.chunks(24));
    for (d, c) in pages.by_ref().take(2) {
        client.send_batch(d, c).unwrap();
    }
    let err = client.apply_delta(&refused).unwrap_err().to_string();
    assert!(err.contains("code 3"), "{err}");
    assert_eq!(
        client.batches().len(),
        2,
        "both earlier reports arrived before the Error"
    );
    for (d, c) in pages {
        client.send_batch(d, c).unwrap();
    }
    let cr = client.finish().unwrap();
    let report = server.shutdown();

    assert_bit_identical(&cr.report, &solo, "client");
    assert_bit_identical(&report.sessions[0].report, &solo, "server");
    assert!(cr.report.batches.iter().all(|b| b.generation == g0));
    assert_eq!(cr.server_stats.plan_rebuilds, 0);
    assert_eq!(report.sessions[0].report.stats.plan_rebuilds, 0);
    assert_eq!(report.stats.plan_rebuilds, 0);
    assert_eq!(
        report.stats.net.sessions_torn, 0,
        "the session was not torn"
    );
}

/// A raw client for fault injection: handshake as `session`, then send
/// one valid batch of `dirty`/`clean` pairs.
fn open_with_one_batch(
    addr: SocketAddr,
    session: &str,
    dirty: &[Tuple],
    clean: &[Tuple],
) -> TcpStream {
    let mut stream = TcpStream::connect(addr).unwrap();
    let hello = Frame::Hello {
        session: session.into(),
        token: None,
    };
    hello.encode(&mut stream).unwrap();
    match Frame::decode(&mut stream).unwrap().unwrap() {
        Frame::HelloAck { .. } => {}
        other => panic!("expected HelloAck, got {other:?}"),
    }
    let pairs = dirty.iter().cloned().zip(clean.iter().cloned()).collect();
    Frame::Batch { seq: 0, pairs }.encode(&mut stream).unwrap();
    stream
}

/// Fault injection: five co-resident connections — two healthy, one
/// that sends garbage after a valid batch, one that disconnects in
/// the middle of a frame, and one whose second batch holds one-cell
/// tuples that the wire decodes but the schema does not fit. Only the
/// offending sessions are torn down; the survivors stay bit-identical
/// to their solo runs, the buffered batches of the torn sessions still
/// repair (disconnect drain), and the server shuts down cleanly.
#[test]
fn garbage_and_midbatch_disconnect_tear_down_only_their_session() {
    let (hosp, datasets) = hosp_sessions(120, &[160, 90, 48, 48, 48]);
    let dirty: Vec<Vec<Tuple>> = datasets.iter().map(dirty_of).collect();
    let clean: Vec<Vec<Tuple>> = datasets.iter().map(clean_of).collect();
    let solo0 = solo_run(&hosp, false, &datasets[0], &dirty[0], 32);
    let solo1 = solo_run(&hosp, false, &datasets[1], &dirty[1], 20);
    // the torn sessions' one delivered batch, repaired solo
    let solo2 = solo_run(&hosp, false, &datasets[2], &dirty[2][..16], 16);
    let solo3 = solo_run(&hosp, false, &datasets[3], &dirty[3][..16], 16);
    let solo4 = solo_run(&hosp, false, &datasets[4], &dirty[4][..16], 16);

    let service = service_builder(&hosp, 2).build();
    let server = RepairServer::serve_tcp(service, "127.0.0.1:0", None).unwrap();
    let addr = server.local_addr().unwrap();

    let (healthy0, healthy1) = std::thread::scope(|scope| {
        let h0 = scope.spawn(|| {
            let mut client = RepairClient::connect_tcp(addr, "good0", None).unwrap();
            for (d, c) in dirty[0].chunks(32).zip(clean[0].chunks(32)) {
                client.send_batch(d, c).unwrap();
            }
            client.finish().unwrap().report
        });
        let h1 = scope.spawn(|| {
            let mut client = RepairClient::connect_tcp(addr, "good1", None).unwrap();
            for (d, c) in dirty[1].chunks(20).zip(clean[1].chunks(20)) {
                client.send_batch(d, c).unwrap();
            }
            client.finish().unwrap().report
        });
        // garbage: proper handshake, one valid batch, then bytes that
        // are not a frame
        scope.spawn(|| {
            let mut stream = open_with_one_batch(addr, "garbage", &dirty[2][..16], &clean[2][..16]);
            stream.write_all(b"!!!! this is not a frame !!!!").unwrap();
            let _ = stream.flush();
            // leave the socket open until the server answers (Error
            // frame) so the teardown is observed, not racing the drop
            let _ = Frame::decode(&mut stream);
        });
        // mid-batch disconnect: valid batch, then a header promising
        // 4096 payload bytes that never arrive
        scope.spawn(|| {
            let mut stream = open_with_one_batch(addr, "cut", &dirty[3][..16], &clean[3][..16]);
            let mut partial = Vec::new();
            partial.extend_from_slice(b"CFXW");
            partial.extend_from_slice(&1u16.to_le_bytes()); // version
            partial.extend_from_slice(&0x02u16.to_le_bytes()); // Batch
            partial.extend_from_slice(&4096u32.to_le_bytes()); // never sent
            partial.extend_from_slice(&[0u8; 7]); // mid-payload cut
            stream.write_all(&partial).unwrap();
            let _ = stream.flush();
            drop(stream); // vanish
        });
        // wrong arity: one valid batch, then a well-formed batch of
        // one-cell tuples, which the server must refuse before the
        // engine indexes them
        scope.spawn(|| {
            let mut stream = open_with_one_batch(addr, "arity", &dirty[4][..16], &clean[4][..16]);
            // a server that never answers fails this leg instead of
            // hanging it
            let timeout = Some(Duration::from_secs(30));
            stream.set_read_timeout(timeout).unwrap();
            let cell = Tuple::new(vec![Value::str("one cell")]);
            let pairs = vec![(cell.clone(), cell); 4];
            Frame::Batch { seq: 1, pairs }.encode(&mut stream).unwrap();
            let mut refused = false;
            while let Ok(Some(frame)) = Frame::decode(&mut stream) {
                refused |= matches!(frame, Frame::Error { code: 2, .. });
            }
            assert!(refused, "the wrong-arity batch is answered with an Error");
        });
        (h0.join().unwrap(), h1.join().unwrap())
    });
    let report = server.shutdown();

    // survivors: bit-identical to solo, client- and server-side
    assert_bit_identical(&healthy0, &solo0, "client good0");
    assert_bit_identical(&healthy1, &solo1, "client good1");
    let by_name: HashMap<&str, &SessionReport> = report
        .sessions
        .iter()
        .map(|n| (n.name.as_str(), &n.report))
        .collect();
    assert_eq!(report.sessions.len(), 5, "all five sessions attached");
    assert_bit_identical(by_name["good0"], &solo0, "server good0");
    assert_bit_identical(by_name["good1"], &solo1, "server good1");
    // the torn sessions' delivered batch still repaired (drain on
    // teardown), and matches its solo run
    assert_bit_identical(by_name["garbage"], &solo2, "server garbage");
    assert_bit_identical(by_name["cut"], &solo3, "server cut");
    assert_bit_identical(by_name["arity"], &solo4, "server arity");
    // the faults were charged to the lane counters
    assert!(
        report.stats.net.decode_errors >= 3,
        "garbage + truncation + arity"
    );
    assert!(report.stats.net.sessions_torn >= 3, "three sessions torn");
    assert!(by_name["garbage"].stats.net.decode_errors >= 1);
    assert!(by_name["cut"].stats.net.decode_errors >= 1);
    assert!(by_name["arity"].stats.net.decode_errors >= 1);
    assert!(by_name["arity"].stats.net.sessions_torn >= 1);
    assert_eq!(by_name["good0"].stats.net.decode_errors, 0);
    assert_eq!(by_name["good0"].stats.net.sessions_torn, 0);
}

/// Flush semantics and live master data over the wire: a `Flush`
/// acks only after every prior batch reported, a `Delta` bumps the
/// generation, reports record which generation repaired them, and the
/// session's `SessionEnd` and the service report count the delta's plan
/// rebuild.
#[test]
fn flush_blocks_until_reported_and_delta_bumps_generation() {
    let (hosp, datasets) = hosp_sessions(100, &[96]);
    let dirty = dirty_of(&datasets[0]);
    let clean = clean_of(&datasets[0]);

    let service = service_builder(&hosp, 2).build();
    let server = RepairServer::serve_tcp(service, "127.0.0.1:0", None).unwrap();
    let addr = server.local_addr().unwrap();

    let mut client = RepairClient::connect_tcp(addr, "live", None).unwrap();
    let g0 = client.generation();
    for (d, c) in dirty[..48].chunks(24).zip(clean[..48].chunks(24)) {
        client.send_batch(d, c).unwrap();
    }
    assert_eq!(client.flush().unwrap(), 2, "both batches reported");
    assert_eq!(client.batches().len(), 2, "reports drained by the ack");

    // duplicate an existing master row: semantically inert, but a new
    // generation
    let delta = MasterDelta::default().insert(hosp.master().tuples()[0].clone());
    let g1 = client.apply_delta(&delta).unwrap();
    assert!(g1 > g0, "delta bumped the generation");

    for (d, c) in dirty[48..].chunks(24).zip(clean[48..].chunks(24)) {
        client.send_batch(d, c).unwrap();
    }
    let cr = client.finish().unwrap();
    assert_eq!(cr.report.tuples, 96);
    assert_eq!(cr.report.batches.len(), 4);
    // pre-flush batches repaired on the old generation, post-delta
    // ones on the new
    assert!(cr.report.batches[..2].iter().all(|b| b.generation == g0));
    assert!(cr.report.batches[2..].iter().all(|b| b.generation == g1));

    // the session that spanned the delta is charged its rebuild, in
    // its SessionEnd and in the server's own report
    assert_eq!(cr.server_stats.plan_rebuilds, 1);

    let report = server.shutdown();
    assert_eq!(report.sessions.len(), 1);
    assert_eq!(report.sessions[0].report.tuples, 96);
    assert_eq!(report.sessions[0].report.stats.plan_rebuilds, 1);
    // a delta applied over the connection is a rebuild like any other:
    // one per DeltaAck
    assert_eq!(report.stats.plan_rebuilds, 1);
}

/// Authentication: a server with a token refuses a mismatched or
/// missing one, and the refusal doesn't disturb an authenticated
/// session on the same server.
#[test]
fn token_mismatch_is_refused_without_disturbing_others() {
    let (hosp, datasets) = hosp_sessions(80, &[60]);
    let dirty = dirty_of(&datasets[0]);
    let clean = clean_of(&datasets[0]);
    let solo = solo_run(&hosp, false, &datasets[0], &dirty, 30);

    let service = service_builder(&hosp, 2).build();
    let server = RepairServer::serve_tcp(service, "127.0.0.1:0", Some("sesame".into())).unwrap();
    let addr = server.local_addr().unwrap();

    let wrong = RepairClient::connect_tcp(addr, "intruder", Some("guess"));
    assert!(wrong.is_err(), "wrong token must be refused");
    let missing = RepairClient::connect_tcp(addr, "anon", None);
    assert!(missing.is_err(), "missing token must be refused");

    let mut client = RepairClient::connect_tcp(addr, "opener", Some("sesame")).unwrap();
    for (d, c) in dirty.chunks(30).zip(clean.chunks(30)) {
        client.send_batch(d, c).unwrap();
    }
    let cr = client.finish().unwrap();
    assert_bit_identical(&cr.report, &solo, "authenticated client");

    let report = server.shutdown();
    assert_eq!(report.sessions.len(), 1, "refused Hellos never attach");
    assert!(report.stats.net.sessions_torn >= 2, "refusals are charged");
}

/// Unix-domain smoke test: same protocol, same bit-identity, local
/// socket file cleaned up on shutdown.
#[cfg(unix)]
#[test]
fn unix_socket_session_matches_in_process_run() {
    let (hosp, datasets) = hosp_sessions(80, &[72]);
    let dirty = dirty_of(&datasets[0]);
    let clean = clean_of(&datasets[0]);
    let solo = solo_run(&hosp, false, &datasets[0], &dirty, 24);

    let path = std::env::temp_dir().join(format!("certainfix-net-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let service = service_builder(&hosp, 2).build();
    let server = RepairServer::serve_unix(service, &path, None).unwrap();

    let mut client = RepairClient::connect_unix(&path, "ux", None).unwrap();
    for (d, c) in dirty.chunks(24).zip(clean.chunks(24)) {
        client.send_batch(d, c).unwrap();
    }
    let cr = client.finish().unwrap();
    assert_bit_identical(&cr.report, &solo, "unix client");

    let report = server.shutdown();
    assert_eq!(report.sessions.len(), 1);
    assert_bit_identical(&report.sessions[0].report, &solo, "unix server");
    assert!(!path.exists(), "socket file removed on shutdown");
}

/// MonitorStats sanity for the merge path: aggregate net counters are
/// at least the sum of the per-session ones (pre-session refusals can
/// add more), and `MonitorStats::default()` has empty net counters so
/// in-process runs are unaffected.
#[test]
fn net_counters_merge_is_conservative() {
    assert_eq!(
        MonitorStats::default().net,
        certainfix_core::NetLaneStats::default()
    );
    let (hosp, datasets) = hosp_sessions(80, &[40, 40]);
    let dirty: Vec<Vec<Tuple>> = datasets.iter().map(dirty_of).collect();
    let clean: Vec<Vec<Tuple>> = datasets.iter().map(clean_of).collect();

    let service = service_builder(&hosp, 2).build();
    let server = RepairServer::serve_tcp(service, "127.0.0.1:0", None).unwrap();
    let addr = server.local_addr().unwrap();
    std::thread::scope(|scope| {
        for s in 0..2 {
            let (dirty, clean) = (&dirty[s], &clean[s]);
            scope.spawn(move || {
                let mut client = RepairClient::connect_tcp(addr, &format!("n{s}"), None).unwrap();
                for (d, c) in dirty.chunks(16).zip(clean.chunks(16)) {
                    client.send_batch(d, c).unwrap();
                }
                client.finish().unwrap()
            });
        }
    });
    let report = server.shutdown();
    let mut summed = certainfix_core::NetLaneStats::default();
    for named in &report.sessions {
        summed.merge(&named.report.stats.net);
    }
    for (agg, sum) in [
        (report.stats.net.frames_in, summed.frames_in),
        (report.stats.net.frames_out, summed.frames_out),
        (report.stats.net.bytes_in, summed.bytes_in),
        (report.stats.net.bytes_out, summed.bytes_out),
    ] {
        assert!(agg >= sum, "aggregate covers the per-session lanes");
        assert!(sum > 0, "per-session lanes saw traffic");
    }
}

/// Median wall clock, in ms, of 20 sixteen-tuple form pages
/// (`send_batch` + `flush`) through `client`.
fn median_page_ms(client: &mut RepairClient, dirty: &[Tuple], clean: &[Tuple]) -> f64 {
    let mut ms: Vec<f64> = dirty
        .chunks(16)
        .zip(clean.chunks(16))
        .map(|(d, c)| {
            let at = std::time::Instant::now();
            client.send_batch(d, c).unwrap();
            client.flush().unwrap();
            at.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    assert_eq!(ms.len(), 20);
    ms.sort_by(f64::total_cmp);
    ms[ms.len() / 2]
}

/// The stall this guards against is quantised: a frame that leaves as
/// two TCP segments waits out a ~44 ms delayed-ACK timer, once per
/// direction, so a page took 88 ms around under 1 ms of work. Written
/// whole on a NODELAY socket it takes about 1 ms; 20 ms keeps the
/// margin wide on a noisy box.
#[test]
fn a_form_page_round_trip_does_not_wait_on_a_timer() {
    let (hosp, datasets) = hosp_sessions(150, &[320]);
    let dirty = dirty_of(&datasets[0]);
    let clean = clean_of(&datasets[0]);

    let server =
        RepairServer::serve_tcp(service_builder(&hosp, 2).build(), "127.0.0.1:0", None).unwrap();
    let mut client = RepairClient::connect_tcp(server.local_addr().unwrap(), "page", None).unwrap();
    let tcp_ms = median_page_ms(&mut client, &dirty, &clean);
    client.finish().unwrap();
    server.shutdown();
    assert!(tcp_ms < 20.0, "median TCP page took {tcp_ms:.1} ms");

    #[cfg(unix)]
    {
        let path =
            std::env::temp_dir().join(format!("certainfix-page-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let server =
            RepairServer::serve_unix(service_builder(&hosp, 2).build(), &path, None).unwrap();
        let mut client = RepairClient::connect_unix(&path, "page", None).unwrap();
        let unix_ms = median_page_ms(&mut client, &dirty, &clean);
        client.finish().unwrap();
        server.shutdown();
        assert!(unix_ms < 20.0, "median unix page took {unix_ms:.1} ms");
    }
}

/// `shutdown` has to wake an accept loop that blocks in `accept`. With
/// no connection ever made it returns an empty report, and the
/// connection it wakes the loop with is not a session: no lane
/// counter moves.
#[test]
fn shutdown_with_no_connections_returns_and_counts_nothing() {
    let (hosp, _) = hosp_sessions(40, &[]);
    let server =
        RepairServer::serve_tcp(service_builder(&hosp, 1).build(), "127.0.0.1:0", None).unwrap();
    let report = server.shutdown();
    assert!(report.sessions.is_empty());
    assert_eq!(
        report.stats.net,
        certainfix_core::NetLaneStats::default(),
        "the waker connection is not charged to any lane"
    );

    #[cfg(unix)]
    {
        let path =
            std::env::temp_dir().join(format!("certainfix-idle-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let server =
            RepairServer::serve_unix(service_builder(&hosp, 1).build(), &path, None).unwrap();
        let report = server.shutdown();
        assert!(report.sessions.is_empty());
        assert_eq!(report.stats.net, certainfix_core::NetLaneStats::default());
        assert!(!path.exists(), "socket file removed on shutdown");
    }
}

/// Drain-then-shutdown across the blocking accept: a client that sat
/// idle and then finished is reported in full, and a client still
/// streaming when `shutdown` is called is served out, not cut off —
/// `shutdown` returns only after its `finish`, with every tuple.
#[test]
fn shutdown_drains_finished_and_mid_stream_clients() {
    let (hosp, datasets) = hosp_sessions(100, &[48, 96]);
    let dirty: Vec<Vec<Tuple>> = datasets.iter().map(dirty_of).collect();
    let clean: Vec<Vec<Tuple>> = datasets.iter().map(clean_of).collect();
    let solo_idle = solo_run(&hosp, false, &datasets[0], &dirty[0], 24);
    let solo_live = solo_run(&hosp, false, &datasets[1], &dirty[1], 24);

    let server =
        RepairServer::serve_tcp(service_builder(&hosp, 2).build(), "127.0.0.1:0", None).unwrap();
    let addr = server.local_addr().unwrap();

    // connected, idle through an empty flush, then a whole session
    let mut idle = RepairClient::connect_tcp(addr, "idle", None).unwrap();
    assert_eq!(idle.flush().unwrap(), 0);
    for (d, c) in dirty[0].chunks(24).zip(clean[0].chunks(24)) {
        idle.send_batch(d, c).unwrap();
    }
    let idle = idle.finish().unwrap().report;

    // half a stream in, `shutdown` is called; the rest follows it
    let mut live = RepairClient::connect_tcp(addr, "live", None).unwrap();
    for (d, c) in dirty[1][..48].chunks(24).zip(clean[1][..48].chunks(24)) {
        live.send_batch(d, c).unwrap();
    }
    assert_eq!(live.flush().unwrap(), 2);
    let (report, live) = std::thread::scope(|scope| {
        let shutdown = scope.spawn(|| server.shutdown());
        for (d, c) in dirty[1][48..].chunks(24).zip(clean[1][48..].chunks(24)) {
            live.send_batch(d, c).unwrap();
        }
        let live = live.finish().unwrap().report;
        (shutdown.join().unwrap(), live)
    });

    assert_bit_identical(&idle, &solo_idle, "client idle");
    assert_bit_identical(&live, &solo_live, "client live");
    assert_eq!(report.sessions.len(), 2, "the waker is not a session");
    let by_name: HashMap<&str, &SessionReport> = report
        .sessions
        .iter()
        .map(|n| (n.name.as_str(), &n.report))
        .collect();
    assert_bit_identical(by_name["idle"], &solo_idle, "server idle");
    assert_bit_identical(by_name["live"], &solo_live, "server live");
    assert_eq!(report.stats.net.sessions_torn, 0);
    assert_eq!(report.stats.net.decode_errors, 0);
    // Hello, two or four Batches, a Flush, Shutdown — and nothing
    // from the waker
    assert_eq!(
        report.stats.net.frames_in,
        (1 + 1 + 2 + 1) + (1 + 4 + 1 + 1)
    );
}
