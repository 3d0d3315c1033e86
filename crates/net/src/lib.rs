//! Network ingest lane for the certain-fix repair service.
//!
//! Three pieces, stacked:
//!
//! * [`wire`] — a length-prefixed, versioned binary frame codec
//!   ([`Frame`], [`WireError`]): `Hello`/`Batch`/`Delta`/`Flush`/
//!   `Shutdown` requests, `HelloAck`/`Report`/`DeltaAck`/`FlushAck`/
//!   `SessionEnd`/`Error` responses, symmetric `encode`/`decode` over
//!   any `Read`/`Write` with strict bounds checks. A connection keeps
//!   an [`Encoder`]/[`Decoder`] pair per direction: a string dictionary
//!   that sends a repeated string as a reference.
//! * [`RepairServer`] — listens on TCP or a unix socket and maps each
//!   authenticated connection onto one bounded ingest lane of a
//!   shared [`RepairService`], so per-session backpressure
//!   reaches all the way to the client's socket writes. A malformed
//!   frame or disconnect tears down only that session;
//!   [`RepairServer::shutdown`] drains and returns the final
//!   [`ServiceReport`].
//! * [`RepairClient`] — drives a session over the same wire and
//!   reassembles the reports into a `SessionReport` bit-identical to
//!   an in-process drain of the same tuples (invariant **D11**).
//!
//! [`RepairService`]: certainfix_core::RepairService
//! [`ServiceReport`]: certainfix_core::ServiceReport

pub mod client;
pub mod server;
pub mod wire;

pub use client::{ClientReport, RepairClient};
pub use server::RepairServer;
pub use wire::{Decoder, Encoder, Frame, WireError, DICT_CAP, MAX_FRAME, VERSION};
