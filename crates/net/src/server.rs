//! [`RepairServer`]: the socket front of a
//! [`RepairService`] — TCP or unix-socket listener, one protocol
//! session per authenticated connection, each mapped to one service
//! ingest lane ([`LaneSender`]) of the shared engine.
//!
//! # One ordered lane, end to end
//!
//! A connection's requests travel socket → the session's ingest lane
//! → scheduler. The connection's reader thread is a decoder: it checks
//! each batch's arity, keeps its clean tuples for the oracles, and
//! pushes every `Batch`, `Delta` and `Flush` into its [`LaneSender`]
//! in the order they arrived. It never mutates the engine: the
//! scheduler applies a delta after the batches sent before it and
//! answers a flush after their reports, so a session's outcomes are a
//! function of its frame sequence (D11). The reader itself writes only
//! the `HelloAck` and the `Error` that tears a session down. A flush,
//! even an empty one, waits behind the epoch or rebuild in progress.
//!
//! The lane holds exactly [`ServiceOptions::depth`] items, batches and
//! control frames alike, so when the engine falls behind, the reader
//! blocks in `send`, stops consuming the socket, the kernel's receive
//! window fills, and the *client's* writes stall — a slow engine costs
//! the producer latency, never the server memory. A connection costs
//! two threads: the reader and the responder, which turns each
//! [`SessionEvent`] into one response frame. Events ride an unbounded
//! channel per session: bounding it would let one client that stops
//! reading stall the shared scheduler for everyone (the cost is instead
//! bounded per misbehaving connection, by its own unread reports).
//!
//! Nothing on the write side waits on a timer: every response frame
//! is encoded whole, the frames of every event already queued when the
//! responder wakes leave in one write, and TCP connections are
//! `TCP_NODELAY` from `accept` on (the
//! [`wire`](crate::wire) module docs have the why: Nagle × delayed ACK
//! cost a form page two 44 ms timers). That changes when bytes leave,
//! not how many may be in flight — backpressure is untouched: a full
//! lane still stops the reads, and a full socket still blocks the
//! writer.
//!
//! The clean tuples backing a session's oracles are held only while
//! their batch is in flight: the responder releases a batch's share
//! when it sees that batch's report, so a session's memory is bounded
//! by the lane's depth, not by the length of its stream. So are its
//! dirty tuples, which the reader hands the responder beside the
//! batch's `seq`: a `Report` sends each outcome as the cells where it
//! differs from its dirty tuple, and the responder drops them once the
//! report is encoded. The string dictionaries of the connection (one
//! per direction, see [`wire`](crate::wire)) hold at most
//! [`DICT_CAP`](crate::wire::DICT_CAP) entries plus one frame's.
//!
//! # Fault isolation
//!
//! A malformed frame, a batch whose tuples do not fit the service's
//! schema, a protocol violation, or a transport error tears down
//! *only* its own session: the reader answers with one
//! [`Frame::Error`] (best effort), drops the lane, and the service
//! finalizes that session from whatever had arrived — batches already
//! queued still repair (the lane's disconnect-drain contract), and
//! every other connection proceeds untouched. A tuple of the wrong
//! arity never reaches the engine. Clean [`Frame::Shutdown`] (or a
//! bare EOF at a frame boundary) ends the stream the same way minus
//! the error accounting.
//!
//! Connections share the engine's rules, master epoch and workers, but
//! never a cached suggestion: a `CertainFix+` diagram lives one chunk of
//! one session, so a session's results do not depend on which other
//! connections were open (D7, D11).
//!
//! [`LaneSender`]: certainfix_core::LaneSender
//! [`ServiceOptions::depth`]: certainfix_core::ServiceOptions::depth

use std::collections::VecDeque;
use std::io::{BufReader, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
#[cfg(unix)]
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::channel;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use certainfix_core::{
    NetLaneStats, RepairService, ServiceAttach, ServiceReport, SessionEvent, SimulatedUser,
};
use certainfix_relation::Tuple;

use crate::wire::{Decoder, Encoder, Frame, WireError};

/// One accepted transport, TCP or unix-domain.
pub(crate) enum Conn {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Conn {
    pub(crate) fn try_clone(&self) -> std::io::Result<Conn> {
        match self {
            Conn::Tcp(s) => s.try_clone().map(Conn::Tcp),
            #[cfg(unix)]
            Conn::Unix(s) => s.try_clone().map(Conn::Unix),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.write(buf),
        }
    }
    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Conn::Unix(s) => s.flush(),
        }
    }
}

enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener),
}

impl Listener {
    /// Block until the next connection. TCP connections come back
    /// `TCP_NODELAY`: frames are written whole, so there is nothing
    /// for Nagle to coalesce, only tails to hold back.
    fn accept(&self) -> std::io::Result<Conn> {
        match self {
            Listener::Tcp(l) => {
                let (s, _) = l.accept()?;
                s.set_nodelay(true)?;
                Ok(Conn::Tcp(s))
            }
            #[cfg(unix)]
            Listener::Unix(l) => l.accept().map(|(s, _)| Conn::Unix(s)),
        }
    }
}

/// Counts bytes actually consumed by the decoder (sits *outside* the
/// `BufReader`, so read-ahead the session never used is not charged).
pub(crate) struct CountingReader<R> {
    inner: R,
    pub(crate) bytes: u64,
}

impl<R> CountingReader<R> {
    pub(crate) fn new(inner: R) -> CountingReader<R> {
        CountingReader { inner, bytes: 0 }
    }
}

impl<R: Read> Read for CountingReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.bytes += n as u64;
        Ok(n)
    }
}

/// A response frame and the dirty tuples a `Report`'s outcomes are
/// sent against (empty for every other frame).
type Response = (Frame, Vec<Tuple>);

/// Serialises response frames onto one socket (the reader's handshake
/// and teardown, the responder's answers) and tallies the outbound lane
/// counters.
pub(crate) struct FrameWriter {
    w: Conn,
    /// The response direction's string dictionary: frames are encoded
    /// in the order they leave.
    enc: Encoder,
    /// The frames of the write in progress, encoded back to back.
    buf: Vec<u8>,
    pub(crate) frames: u64,
    pub(crate) bytes: u64,
    dead: bool,
}

impl FrameWriter {
    pub(crate) fn new(conn: Conn) -> FrameWriter {
        FrameWriter {
            w: conn,
            enc: Encoder::default(),
            buf: Vec::new(),
            frames: 0,
            bytes: 0,
            dead: false,
        }
    }
    /// Send one frame that is not a `Report`; see
    /// [`send_all`](Self::send_all).
    pub(crate) fn send(&mut self, frame: &Frame) {
        self.send_all(&[(frame.clone(), Vec::new())]);
    }
    /// Encode `frames` back to back and hand them to the socket in one
    /// write. After the first error the writer goes dead and later
    /// sends are silently dropped — the session is ending anyway, and
    /// the event drain must not wedge on a closed socket.
    pub(crate) fn send_all(&mut self, frames: &[Response]) {
        if self.dead {
            return;
        }
        self.buf.clear();
        let sent = frames
            .iter()
            .try_for_each(|(f, base)| self.enc.encode_into(f, base, &mut self.buf).map(drop))
            .and_then(|()| self.w.write_all(&self.buf).map_err(WireError::Io));
        match sent {
            Ok(()) => {
                self.frames += frames.len() as u64;
                self.bytes += self.buf.len() as u64;
            }
            Err(_) => self.dead = true,
        }
    }
}

/// The clean tuples of a session's in-flight batches, addressed by
/// session-local stream index (what the service's oracle factory is
/// asked for). The reader appends a batch before forwarding it; the
/// responder releases it once its report exists, when no oracle for
/// it can be asked for again.
#[derive(Default)]
pub(crate) struct CleanStore {
    /// Stream index of `tuples[0]`.
    base: usize,
    tuples: VecDeque<Tuple>,
    /// Most tuples ever held at once.
    high_water: usize,
}

impl CleanStore {
    fn push_batch(&mut self, clean: Vec<Tuple>) {
        self.tuples.extend(clean);
        self.high_water = self.high_water.max(self.tuples.len());
    }
    /// Drop the oldest `n` tuples: their batch has been reported.
    fn release(&mut self, n: usize) {
        self.tuples.drain(..n);
        self.base += n;
    }
    fn get(&self, index: usize) -> &Tuple {
        &self.tuples[index - self.base]
    }
}

/// What a finished connection reports: its session's admission
/// position (`None` if it never attached) and its lane counters.
type ConnStats = (Option<usize>, NetLaneStats);

/// A running repair server. Dropping the handle does *not* stop it;
/// call [`shutdown`](Self::shutdown) for the drain-then-shutdown path.
pub struct RepairServer {
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<Vec<ConnStats>>>,
    sched: Option<JoinHandle<ServiceReport>>,
    local_addr: Option<SocketAddr>,
    #[cfg(unix)]
    path: Option<PathBuf>,
}

impl RepairServer {
    /// Listen on a TCP address (`port 0` picks a free port — read it
    /// back with [`local_addr`](Self::local_addr)). `token`, when
    /// set, must be presented by every `Hello`.
    pub fn serve_tcp<A: ToSocketAddrs>(
        service: RepairService,
        addr: A,
        token: Option<String>,
    ) -> std::io::Result<RepairServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let mut server = Self::serve(service, Listener::Tcp(listener), token)?;
        server.local_addr = Some(local);
        Ok(server)
    }

    /// Listen on a unix-domain socket path (removed again at
    /// [`shutdown`](Self::shutdown)).
    #[cfg(unix)]
    pub fn serve_unix<P: AsRef<Path>>(
        service: RepairService,
        path: P,
        token: Option<String>,
    ) -> std::io::Result<RepairServer> {
        let listener = UnixListener::bind(path.as_ref())?;
        let mut server = Self::serve(service, Listener::Unix(listener), token)?;
        server.path = Some(path.as_ref().to_path_buf());
        Ok(server)
    }

    fn serve(
        service: RepairService,
        listener: Listener,
        token: Option<String>,
    ) -> std::io::Result<RepairServer> {
        let service = Arc::new(service);
        let stop = Arc::new(AtomicBool::new(false));
        let (attach, queue) = service.attach_channel();
        let sched = {
            let service = Arc::clone(&service);
            std::thread::spawn(move || service.run_dynamic(queue))
        };
        let accept = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || accept_loop(listener, stop, attach, service, token))
        };
        Ok(RepairServer {
            stop,
            accept: Some(accept),
            sched: Some(sched),
            local_addr: None,
            #[cfg(unix)]
            path: None,
        })
    }

    /// The bound TCP address (for `port 0` binds).
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.local_addr
    }

    /// Wake the accept loop out of its blocking `accept` by connecting
    /// to the listener; with `stop` set it drops the connection
    /// unserved. A failure means the loop is already gone.
    fn wake_acceptor(&self) {
        if let Some(mut addr) = self.local_addr {
            // a wildcard bind is reached through loopback
            match addr.ip() {
                IpAddr::V4(ip) if ip.is_unspecified() => addr.set_ip(Ipv4Addr::LOCALHOST.into()),
                IpAddr::V6(ip) if ip.is_unspecified() => addr.set_ip(Ipv6Addr::LOCALHOST.into()),
                _ => {}
            }
            let _ = TcpStream::connect(addr);
        }
        #[cfg(unix)]
        if let Some(path) = &self.path {
            let _ = UnixStream::connect(path);
        }
    }

    /// Drain, then shut down: stop accepting, wait for every live
    /// connection to finish its session (a connected client that
    /// neither streams nor disconnects keeps the server up — draining
    /// means serving it out, not cutting it off), collect the
    /// service's final per-session reports, and fold each
    /// connection's transport counters into them — into the session
    /// the connection attached, if it got that far, and in aggregate
    /// ([`ServiceReport::stats`]`.net`) over every connection
    /// including ones that failed before a session existed.
    pub fn shutdown(mut self) -> ServiceReport {
        self.stop.store(true, Ordering::SeqCst);
        self.wake_acceptor();
        let conn_stats = self
            .accept
            .take()
            .expect("shutdown runs once")
            .join()
            .expect("accept loop does not panic");
        let mut report = self
            .sched
            .take()
            .expect("shutdown runs once")
            .join()
            .expect("scheduler does not panic");
        // a connection's admission position is its session's index in
        // the report (names may repeat)
        let mut lane_total = NetLaneStats::default();
        for (admitted, net) in &conn_stats {
            lane_total.merge(net);
            if let Some(at) = *admitted {
                report.sessions[at].report.stats.net.merge(net);
            }
        }
        report.stats.net.merge(&lane_total);
        #[cfg(unix)]
        if let Some(path) = &self.path {
            let _ = std::fs::remove_file(path);
        }
        report
    }
}

fn accept_loop(
    listener: Listener,
    stop: Arc<AtomicBool>,
    attach: ServiceAttach<'static>,
    service: Arc<RepairService>,
    token: Option<String>,
) -> Vec<ConnStats> {
    let token = Arc::new(token);
    let admissions = Arc::new(Mutex::new(0));
    let mut conns: Vec<JoinHandle<ConnStats>> = Vec::new();
    loop {
        match listener.accept() {
            // `shutdown` sets `stop` before it connects to wake this
            // loop, so the waker (and anything behind it) is dropped
            // here, unserved and uncounted
            Ok(_) if stop.load(Ordering::SeqCst) => break,
            Ok(conn) => {
                let attach = attach.clone();
                let service = Arc::clone(&service);
                let token = Arc::clone(&token);
                let admissions = Arc::clone(&admissions);
                conns.push(std::thread::spawn(move || {
                    handle_conn(conn, attach, service, token, admissions, Arc::default())
                }));
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
    let mut stats = Vec::new();
    for h in conns {
        if let Ok(s) = h.join() {
            stats.push(s);
        }
    }
    // the accept loop held the last long-lived attach handle: dropping
    // it (with every connection done) is the scheduler's cue to return
    drop(attach);
    stats
}

/// Drive one connection: authenticate, attach a session lane, then
/// pump request frames until shutdown/disconnect/fault. Returns the
/// session's admission position (`None` if it never attached) and the
/// lane's transport counters. `admissions` counts the server's
/// attaches: taken around each one, it numbers the sessions in the
/// order the scheduler admits them. `cleans` starts empty; it is a
/// parameter so a test can watch it.
fn handle_conn(
    conn: Conn,
    attach: ServiceAttach<'static>,
    service: Arc<RepairService>,
    token: Arc<Option<String>>,
    admissions: Arc<Mutex<usize>>,
    cleans: Arc<Mutex<CleanStore>>,
) -> ConnStats {
    let mut net = NetLaneStats::default();
    let writer = match conn.try_clone() {
        Ok(w) => Arc::new(Mutex::new(FrameWriter::new(w))),
        Err(_) => {
            net.sessions_torn += 1;
            return (None, net);
        }
    };
    let mut reader = CountingReader::new(BufReader::new(conn));
    let mut scratch = Vec::new(); // payload buffer, reused by every frame
    let mut decoder = Decoder::default(); // the request direction's dictionary
    let mut frames_in = 0u64;

    // first frame must be an authenticated Hello
    let session = match decoder.decode_with(&mut reader, &mut scratch, &[]) {
        Ok(Some(Frame::Hello { session, token: t })) => {
            frames_in += 1;
            if token
                .as_deref()
                .is_some_and(|want| t.as_deref() != Some(want))
            {
                writer.lock().unwrap().send(&Frame::Error {
                    code: 1,
                    message: "authentication failed".into(),
                });
                net.sessions_torn += 1;
                net.frames_in = frames_in;
                net.bytes_in = reader.bytes;
                return (None, net);
            }
            session
        }
        Ok(Some(_)) => {
            writer.lock().unwrap().send(&Frame::Error {
                code: 2,
                message: "expected Hello".into(),
            });
            net.sessions_torn += 1;
            net.frames_in = frames_in + 1;
            net.bytes_in = reader.bytes;
            return (None, net);
        }
        Ok(None) => {
            net.bytes_in = reader.bytes;
            return (None, net); // connected and left; no session
        }
        Err(e) => {
            net.decode_errors += 1;
            net.sessions_torn += 1;
            writer.lock().unwrap().send(&Frame::Error {
                code: 2,
                message: e.to_string(),
            });
            net.bytes_in = reader.bytes;
            return (None, net);
        }
    };

    // one service lane per connection: the clean store backs the oracle
    // factory (appended before the lane send, so any index the engine
    // can ask for is already present), the lane is the backpressure
    // hand-off
    let (ev_tx, events) = channel::<SessionEvent>();
    let oracle_cleans = Arc::clone(&cleans);
    let oracle_for = move |i: usize| {
        let clean = oracle_cleans.lock().unwrap().get(i).clone();
        SimulatedUser::new(clean)
    };
    let attached = {
        let mut next = admissions.lock().unwrap();
        let lane = attach.attach(session, oracle_for, Some(ev_tx));
        lane.map(|lane| {
            *next += 1;
            (*next - 1, lane)
        })
    };
    let Some((admitted, lane)) = attached else {
        writer.lock().unwrap().send(&Frame::Error {
            code: 3,
            message: "service is shut down".into(),
        });
        net.sessions_torn += 1;
        net.frames_in = frames_in;
        net.bytes_in = reader.bytes;
        return (None, net);
    };
    drop(attach); // this connection's interest in attaching is over
    let arity = service.context().rules().r_schema().len();
    writer.lock().unwrap().send(&Frame::HelloAck {
        generation: service.context().generation(),
    });

    // the scheduler answers a session's batches in lane order, so the
    // n-th `Batch` event answers the n-th `seq` the reader queued, and
    // its outcomes go out against the dirty tuples queued with it
    let (seq_tx, seqs) = channel::<(u64, Vec<Tuple>)>();
    // the responder: one frame per event, until the scheduler drops the
    // event channel after `Finished`; the frames of every event already
    // queued leave in one write
    let responder = {
        let writer = Arc::clone(&writer);
        let cleans = Arc::clone(&cleans);
        std::thread::spawn(move || {
            let mut reported = 0u64;
            let mut frames = Vec::new();
            while let Ok(first) = events.recv() {
                for ev in std::iter::once(first).chain(events.try_iter()) {
                    let mut base = Vec::new();
                    let frame = match ev {
                        SessionEvent::Batch(batch) => {
                            cleans.lock().unwrap().release(batch.outcomes.len());
                            reported += 1;
                            let (seq, dirty) = seqs.try_recv().expect("the reader queues it first");
                            base = dirty;
                            Frame::Report {
                                seq,
                                generation: batch.generation,
                                wall: batch.wall,
                                stats: batch.stats,
                                outcomes: batch.outcomes,
                            }
                        }
                        SessionEvent::Delta(Ok(generation)) => Frame::DeltaAck { generation },
                        // the delta is refused, the session lives on
                        SessionEvent::Delta(Err(e)) => Frame::Error {
                            code: 3,
                            message: e.to_string(),
                        },
                        SessionEvent::Flushed => Frame::FlushAck { batches: reported },
                        // the fold carries no batches; this responder counted
                        // every one it reported
                        SessionEvent::Finished(report) => Frame::SessionEnd {
                            tuples: report.tuples as u64,
                            batches: reported,
                            wall: report.wall,
                            stats: report.stats,
                        },
                    };
                    frames.push((frame, base));
                }
                writer.lock().unwrap().send_all(&frames);
                frames.clear();
            }
        })
    };

    // a session that ends on a fault gets one `Error`, and is torn down
    let fault: Option<(u16, String)> = loop {
        let frame = match decoder.decode_with(&mut reader, &mut scratch, &[]) {
            Ok(Some(frame)) => frame,
            // abrupt-but-frame-aligned disconnect: same drain as
            // Shutdown, the client just won't read the answers
            Ok(None) => break None,
            Err(e) => {
                net.decode_errors += 1;
                break Some((2, e.to_string()));
            }
        };
        frames_in += 1;
        // bounded: a send blocks while the lane holds `depth` items,
        // which stops the socket reads — backpressure reaches the
        // client as stalled writes
        let sent = match frame {
            Frame::Batch { seq, pairs } => {
                if pairs.is_empty() {
                    continue; // nothing to repair, nothing to report
                }
                // the wire checks a pair against its own arity only; a
                // tuple that does not fit the schema must not reach
                // the engine, which indexes it by the schema's attributes
                if let Some((d, c)) = pairs
                    .iter()
                    .find(|(d, c)| d.arity() != arity || c.arity() != arity)
                {
                    net.decode_errors += 1;
                    let (d, c) = (d.arity(), c.arity());
                    break Some((
                        2,
                        format!("a Batch pair has arity {d}/{c}, the schema {arity}"),
                    ));
                }
                let (dirty, clean): (Vec<Tuple>, Vec<Tuple>) = pairs.into_iter().unzip();
                cleans.lock().unwrap().push_batch(clean);
                let _ = seq_tx.send((seq, dirty.clone()));
                lane.send(dirty).is_ok()
            }
            Frame::Delta(delta) => lane.send_delta(delta).is_ok(),
            Frame::Flush => lane.send_flush().is_ok(),
            Frame::Shutdown => break None, // clean end-of-stream: drain, SessionEnd, close
            _ => break Some((2, "response frame on the request lane".into())),
        };
        if !sent {
            break Some((3, "service is shut down".into()));
        }
    };
    if let Some((code, message)) = fault {
        net.sessions_torn += 1;
        writer.lock().unwrap().send(&Frame::Error { code, message });
    }

    // end the stream: the service drains whatever the lane still
    // buffers, finalizes the session, and the responder forwards the
    // final SessionEnd before exiting
    drop(lane);
    let _ = responder.join();

    let w = writer.lock().unwrap();
    net.frames_in = frames_in;
    net.bytes_in = reader.bytes;
    net.frames_out = w.frames;
    net.bytes_out = w.bytes;
    drop(w);
    (Some(admitted), net)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::RepairClient;
    use certainfix_core::{BatchRepairEngine, RepairContext, ServiceOptions};
    use certainfix_datagen::{Dataset, DirtyConfig, Hosp, Workload};

    /// A connected loopback TCP pair: `(accepted by a Listener, peer)`.
    fn tcp_pair() -> (Conn, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        (Listener::Tcp(listener).accept().unwrap(), peer)
    }

    #[test]
    fn accepted_tcp_connections_are_nodelay() {
        match tcp_pair().0 {
            Conn::Tcp(s) => assert!(s.nodelay().unwrap()),
            #[cfg(unix)]
            Conn::Unix(_) => unreachable!("a TCP listener accepts TCP"),
        }
    }

    /// The clean store holds a batch only while it is in flight: a
    /// client that flushes every `depth + 1` batches never makes it
    /// hold more than that, and finds it empty after every flush —
    /// where it used to grow by every tuple of the session.
    #[test]
    fn clean_store_holds_only_in_flight_batches() {
        const PAGE: usize = 16;
        let hosp = Hosp::generate(80);
        let ds = Dataset::generate(
            &hosp,
            &DirtyConfig {
                input_size: PAGE * 12,
                seed: 0xC1EA,
                ..DirtyConfig::default()
            },
        );
        let dirty: Vec<Tuple> = ds.inputs.iter().map(|dt| dt.dirty.clone()).collect();
        let clean: Vec<Tuple> = ds.inputs.iter().map(|dt| dt.clean.clone()).collect();

        let ctx = RepairContext::new(hosp.rules().clone(), hosp.master().clone(), false);
        let opts = ServiceOptions {
            threads: 2,
            ..ServiceOptions::default()
        };
        let window = opts.depth + 1;
        let service = Arc::new(RepairService::from_engine(
            BatchRepairEngine::new(ctx),
            opts,
        ));
        let (attach, queue) = service.attach_channel();
        let sched = {
            let service = Arc::clone(&service);
            std::thread::spawn(move || service.run_dynamic(queue))
        };
        let (conn, peer) = tcp_pair();
        let cleans = Arc::new(Mutex::new(CleanStore::default()));
        let server_side = {
            let cleans = Arc::clone(&cleans);
            std::thread::spawn(move || {
                handle_conn(
                    conn,
                    attach,
                    service,
                    Arc::new(None),
                    Arc::default(),
                    cleans,
                )
            })
        };

        let mut client = RepairClient::handshake(Conn::Tcp(peer), "bounded", None).unwrap();
        for (d, c) in dirty.chunks(PAGE * window).zip(clean.chunks(PAGE * window)) {
            for (d, c) in d.chunks(PAGE).zip(c.chunks(PAGE)) {
                client.send_batch(d, c).unwrap();
            }
            client.flush().unwrap();
            assert_eq!(
                cleans.lock().unwrap().tuples.len(),
                0,
                "empty after a flush"
            );
        }
        assert_eq!(client.finish().unwrap().report.tuples, dirty.len());
        server_side.join().unwrap();
        assert_eq!(sched.join().unwrap().tuples, dirty.len());

        let store = cleans.lock().unwrap();
        assert_eq!(store.base, dirty.len(), "every tuple passed through");
        assert!(
            store.high_water <= PAGE * window,
            "held {} tuples, more than {window} batches",
            store.high_water
        );
    }
}
