//! [`RepairClient`]: the other end of the wire — connects, streams
//! dirty/clean batches, and reassembles the server's per-batch
//! [`Frame::Report`]s into a [`SessionReport`] that is bit-identical
//! to what an in-process [`RepairSession`] drain of the same tuples
//! would have produced (invariant D11).
//!
//! The reassembly leans on D2 (partition-independence): the client
//! does not know how the server's epoch scheduler split a batch
//! across workers, so each decoded report becomes a [`BatchReport`]
//! with a single synthetic worker covering the whole outcome range.
//! Every downstream consumer (`fold_session`, the bench metric rows)
//! only ever walks `workers × ranges`, and D2 guarantees the walk is
//! partition-invariant — so the synthetic single-worker shape folds
//! to the same numbers as the server's real worker layout.
//!
//! [`RepairSession`]: certainfix_core::RepairSession

use std::io::{BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
#[cfg(unix)]
use std::os::unix::net::UnixStream;
#[cfg(unix)]
use std::path::Path;

use certainfix_core::{BatchReport, MonitorStats, SessionReport, WorkerReport};
use certainfix_relation::{MasterDelta, Tuple};

use crate::server::Conn;
use crate::wire::{self, Frame, WireError};

/// What [`RepairClient::finish`] hands back: the client-side
/// reconstruction of the session plus the server's own closing
/// numbers (which the D11 tests cross-check against each other).
#[derive(Clone, Debug)]
pub struct ClientReport {
    /// Session report reassembled from the per-batch `Report` frames;
    /// bit-identical to an in-process drain of the same tuples.
    pub report: SessionReport,
    /// Tuple count the server announced in `SessionEnd`.
    pub server_tuples: u64,
    /// Batch count the server announced in `SessionEnd`.
    pub server_batches: u64,
    /// The server's folded session stats from `SessionEnd`.
    pub server_stats: MonitorStats,
}

/// A connected protocol session. Dropping the client without
/// [`finish`](Self::finish) is an abrupt disconnect: the server
/// drains what it already buffered and finalizes the session without
/// anyone reading the reports.
pub struct RepairClient {
    r: BufReader<Conn>,
    w: Conn,
    /// The frame being sent: encoded whole, then written in one call
    /// (the one-write-per-frame rule of [`wire`]).
    out: Vec<u8>,
    /// Payload scratch of [`Frame::decode_with`].
    scratch: Vec<u8>,
    seq: u64,
    generation: u64,
    batches: Vec<BatchReport>,
    tuples: usize,
}

impl RepairClient {
    /// Connect over TCP and perform the `Hello`/`HelloAck` handshake.
    pub fn connect_tcp<A: ToSocketAddrs>(
        addr: A,
        session: &str,
        token: Option<&str>,
    ) -> Result<RepairClient, WireError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Self::handshake(Conn::Tcp(stream), session, token)
    }

    /// Connect over a unix-domain socket and handshake.
    #[cfg(unix)]
    pub fn connect_unix<P: AsRef<Path>>(
        path: P,
        session: &str,
        token: Option<&str>,
    ) -> Result<RepairClient, WireError> {
        let stream = UnixStream::connect(path.as_ref())?;
        Self::handshake(Conn::Unix(stream), session, token)
    }

    pub(crate) fn handshake(
        conn: Conn,
        session: &str,
        token: Option<&str>,
    ) -> Result<RepairClient, WireError> {
        let write_half = conn.try_clone()?;
        let mut client = RepairClient {
            r: BufReader::new(conn),
            w: write_half,
            out: Vec::new(),
            scratch: Vec::new(),
            seq: 0,
            generation: 0,
            batches: Vec::new(),
            tuples: 0,
        };
        client.send(&Frame::Hello {
            session: session.to_string(),
            token: token.map(str::to_string),
        })?;
        match client.recv()? {
            Frame::HelloAck { generation } => {
                client.generation = generation;
                Ok(client)
            }
            Frame::Error { code, message } => Err(WireError::Protocol(format!(
                "server refused session (code {code}): {message}"
            ))),
            other => Err(WireError::Protocol(format!(
                "expected HelloAck, got {other:?}"
            ))),
        }
    }

    /// Master-relation generation last acknowledged by the server
    /// (from `HelloAck`, bumped by [`apply_delta`](Self::apply_delta)).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Batch reports received so far (grows as acknowledged calls
    /// drain the read side).
    pub fn batches(&self) -> &[BatchReport] {
        &self.batches
    }

    /// Stream one batch of dirty tuples with their clean ground truth
    /// (the server's simulated oracle answers from `clean`). Write
    /// side only — reports are drained by the next acknowledged call.
    /// Returns the batch's sequence number.
    pub fn send_batch(&mut self, dirty: &[Tuple], clean: &[Tuple]) -> Result<u64, WireError> {
        if dirty.len() != clean.len() {
            return Err(WireError::Protocol(format!(
                "dirty/clean length mismatch: {} vs {}",
                dirty.len(),
                clean.len()
            )));
        }
        let seq = self.seq;
        self.out.clear();
        wire::batch_into(&mut self.out, seq, dirty, clean)?;
        self.w.write_all(&self.out)?;
        self.seq += 1;
        Ok(seq)
    }

    /// Apply a master-data delta through this session; returns the
    /// new generation once the server acknowledges it. The server
    /// applies it in stream order: after every batch sent before it has
    /// been repaired (their reports are absorbed on the way to the
    /// ack), before any batch sent after it. A refused delta is an
    /// `Err`, and the session stays open on the old generation.
    pub fn apply_delta(&mut self, delta: &MasterDelta) -> Result<u64, WireError> {
        self.send(&Frame::Delta(delta.clone()))?;
        loop {
            match self.recv()? {
                Frame::DeltaAck { generation } => {
                    self.generation = generation;
                    return Ok(generation);
                }
                Frame::Error { code, message } => {
                    return Err(WireError::Protocol(format!(
                        "delta refused (code {code}): {message}"
                    )))
                }
                other => self.absorb(other)?,
            }
        }
    }

    /// Block until every batch sent so far has been repaired and
    /// reported. Returns the number of batches covered by the ack.
    pub fn flush(&mut self) -> Result<u64, WireError> {
        self.send(&Frame::Flush)?;
        loop {
            match self.recv()? {
                Frame::FlushAck { batches } => return Ok(batches),
                other => self.absorb(other)?,
            }
        }
    }

    /// End the stream: send `Shutdown`, drain every outstanding
    /// report through the final `SessionEnd`, and reassemble the
    /// session report.
    pub fn finish(mut self) -> Result<ClientReport, WireError> {
        self.send(&Frame::Shutdown)?;
        loop {
            match self.recv()? {
                Frame::SessionEnd {
                    tuples,
                    batches,
                    wall,
                    stats,
                } => {
                    let mut report = SessionReport::from_batches(&self.batches, wall, self.tuples);
                    report.batches = std::mem::take(&mut self.batches);
                    return Ok(ClientReport {
                        report,
                        server_tuples: tuples,
                        server_batches: batches,
                        server_stats: stats,
                    });
                }
                other => self.absorb(other)?,
            }
        }
    }

    fn send(&mut self, frame: &Frame) -> Result<(), WireError> {
        self.out.clear();
        frame.encode_into(&mut self.out)?;
        self.w.write_all(&self.out)?;
        Ok(())
    }

    fn recv(&mut self) -> Result<Frame, WireError> {
        match Frame::decode_with(&mut self.r, &mut self.scratch)? {
            Some(frame) => Ok(frame),
            None => Err(WireError::Protocol(
                "server closed the connection mid-session".into(),
            )),
        }
    }

    /// Fold an out-of-band frame encountered while waiting for a
    /// specific ack. `Report` frames become client-side
    /// [`BatchReport`]s (synthetic single worker, see module docs);
    /// anything else mid-stream is a protocol violation.
    fn absorb(&mut self, frame: Frame) -> Result<(), WireError> {
        match frame {
            Frame::Report {
                seq: _,
                generation,
                wall,
                stats,
                outcomes,
            } => {
                // a Vec of one Range, not a range of indexes — the
                // whole batch is the synthetic worker's single span
                #[allow(clippy::single_range_in_vec_init)]
                let worker = WorkerReport {
                    worker: 0,
                    ranges: vec![0..outcomes.len()],
                    stats,
                    bdd: Default::default(),
                };
                self.tuples += outcomes.len();
                self.batches.push(BatchReport {
                    outcomes,
                    stats,
                    bdd: Default::default(),
                    shared: None,
                    wall,
                    generation,
                    workers: vec![worker],
                });
                Ok(())
            }
            Frame::Error { code, message } => Err(WireError::Protocol(format!(
                "server error (code {code}): {message}"
            ))),
            other => Err(WireError::Protocol(format!(
                "unexpected frame mid-session: {other:?}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RepairServer;
    use certainfix_core::RepairServiceBuilder;
    use certainfix_datagen::{Hosp, Workload};

    #[test]
    fn connected_tcp_streams_are_nodelay() {
        let hosp = Hosp::generate(20);
        let service =
            RepairServiceBuilder::new(hosp.rules().clone(), hosp.master().clone()).build();
        let server = RepairServer::serve_tcp(service, "127.0.0.1:0", None).unwrap();
        let client =
            RepairClient::connect_tcp(server.local_addr().unwrap(), "nodelay", None).unwrap();
        match &client.w {
            Conn::Tcp(s) => assert!(s.nodelay().unwrap()),
            #[cfg(unix)]
            Conn::Unix(_) => unreachable!("connect_tcp makes a TCP connection"),
        }
        client.finish().unwrap();
        server.shutdown();
    }
}
