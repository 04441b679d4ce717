//! The resident sweep service behind `icnoc serve`.
//!
//! The offline explore engine runs one grid per process. This crate
//! turns it into a long-running daemon serving many concurrent clients
//! over a local TCP socket, speaking a minimal hand-rolled HTTP/1.1 +
//! JSON protocol (std-only; the JSON side is
//! [`icnoc_explore::json`]'s deterministic writer plus its parser):
//!
//! * [`Registry`] — admission control, content-addressed **dedup**
//!   (identical jobs from concurrent clients execute once), priorities,
//!   cancellation, and incremental per-job results with live
//!   Pareto-front deltas;
//! * [`Ledger`] — an append-only JSONL journal under the state dir:
//!   accepted sweeps are durable, and a killed daemon resumes the
//!   incomplete ones on restart (finished jobs return from the result
//!   cache; only the unfinished tail re-executes);
//! * [`Server`] — the accept loop and routes: `POST /sweeps`,
//!   `GET /sweeps/<id>` / `…/stream` (chunked) / `…/result`,
//!   `POST /sweeps/<id>/cancel`, `GET /stats`, `GET /healthz`,
//!   `POST /shutdown`;
//! * [`client`] — the matching client functions `explore --server`
//!   uses.
//!
//! Overload behavior is explicit: a bounded admission queue rejects
//! submissions that do not fit with a structured `429` carrying
//! `queue_depth`, `queue_limit` and `retry_after_ms` — never a hang,
//! never a silent drop. And for any grid, `GET /sweeps/<id>/result`
//! returns the exact offline `icnoc explore` document, byte-identical
//! up to `wall_ms` lines.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod http;
mod ledger;
mod registry;
mod server;

pub use ledger::{Incomplete, Ledger, Replay, LEDGER_FILE};
pub use registry::{Registry, RegistryConfig, SubmitError, SubmitTicket};
pub use server::{Server, ENDPOINT_FILE};
