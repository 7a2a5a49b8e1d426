//! # paddaemon — defense-as-a-service for telemetry streams
//!
//! The library behind `padsimd`: a long-running daemon that ingests
//! JSONL/CSV telemetry streams over TCP or Unix sockets for many
//! independent tenant clusters, runs each through the PAD detection
//! pipeline ([`pad::pipeline`] — detector bank, security-policy FSM,
//! incident reconstruction) **online**, and serves live verdicts,
//! Prometheus metrics, and incident reports over a tiny HTTP API.
//!
//! ## Correctness contract
//!
//! The daemon and `padsim detect --replay` / `padsim incident` are two
//! transports over the *same* library pipeline: a recorded trace
//! streamed through a socket — in any chunking, interleaved with any
//! other tenants — produces firings, escalations, summaries, and
//! incident reports **byte-identical** to the offline CLI run on the
//! same file. The golden suites in `tests/` pin this.
//!
//! ## Module map
//!
//! * [`proto`] — line framing and the 4-keyword control grammar
//!   (`hello`, `end`, `ping`, `shutdown`); data lines are the existing
//!   telemetry/span wire formats, so recorded files stream verbatim;
//! * [`session`] — the per-connection read loop: codec dispatch,
//!   per-line error containment, drain-on-EOF;
//! * [`state`] — the tenant registry (lazy rack inference at the first
//!   tick boundary), the daemon's self-metric counters, wall-clock ops
//!   histograms, the bounded ops-log ring, and per-tenant
//!   [`StreamMonitor`](pad::pipeline::StreamMonitor) alert sidecars;
//! * [`http`] — `/metrics` (merged, tenant-labeled exposition with full
//!   histogram buckets), `/readyz`/`/statusz`/`/alerts`/`/logs`
//!   operational surfaces, and the `/tenants/...` JSON API;
//! * [`server`] — one blocking acceptor per listener, a thread per
//!   connection, graceful shutdown with per-tenant output flush;
//! * [`client`] — the `send`/`get` helpers the CLI and CI use, plus
//!   the crash-tolerant [`send_resumable`](client::send_resumable)
//!   reconnect-and-rewind path;
//! * [`chaos`] — the wire-level fault-injection harness behind
//!   `padsimd chaos`: kill/restart and proxy-fault scenarios diffed
//!   byte-for-byte against an uninterrupted baseline.
//!
//! ## Crash tolerance
//!
//! With `--state-dir`, every tenant's stream (records, spans and the
//! alert monitor's snapshot) is checkpointed atomically at
//! detector-tick boundaries and restored on startup, the detector
//! pipeline rebuilt by replaying the records; clients
//! re-attach with `hello <tenant> [fmt] resume <seq>` and rewind to
//! the daemon's acked durable sequence number, so a `SIGKILL` at any
//! point costs neither a replayed nor a dropped line.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod chaos;
pub mod client;
pub mod http;
pub mod proto;
pub mod server;
pub mod session;
pub mod state;

pub use chaos::{run_chaos, ChaosOptions, ChaosReport};
pub use client::{http_get, open_resume, send, send_resumable, Conn, RetryOpts, SendJob};
pub use proto::{classify, valid_tenant, Control, Line};
pub use server::{flush_outputs, serve, ServeOptions, READ_TIMEOUT};
pub use session::{run_session, SessionStats};
pub use state::{Counters, DaemonState, OpsEntry, OpsLog, OpsMetrics, Tenant};
