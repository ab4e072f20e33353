#![warn(missing_docs)]
//! # cca-obs — zero-cost-when-off observability for `cca-rs`
//!
//! The paper gives every component a `CCAServices` handle and touts
//! reflection/dynamic invocation (§5) precisely so tools can inspect live
//! component assemblies. This crate is the instrumentation layer those
//! tools read from:
//!
//! * [`flags`] — one global `AtomicU32` of feature bits. Every hot-path
//!   hook in `cca-core`/`cca-rpc` is guarded by a single **relaxed load**
//!   of this word, so the steady-state direct-connect call path (PR 1's
//!   `CachedPort`) pays one predictable branch when observability is off.
//!   Both facilities are also env-gated via `CCA_TRACE` / `CCA_METRICS`
//!   (see [`init_from_env`]); there are no cargo features.
//! * [`metrics`] — per-port invocation counters, connect/disconnect
//!   churn, fan-out width, and fixed-bucket log2 latency histograms; RPC
//!   transport, mux-depth and bulk data-plane blocks. The record path is
//!   allocation-free: relaxed atomics only. Call counting from
//!   `CachedPort` uses single-writer [`metrics::CallShard`]s so the
//!   per-call cost is one relaxed store, not an atomic RMW.
//! * [`resilience`], [`repo`], [`fleet`] — process-global counter
//!   blocks. Every atomic counter block in this crate, global or
//!   per-instance, is one `counter_block!` declaration that generates
//!   its getters, snapshot, JSON, `reset` and `Debug`.
//! * [`trace`] — a distributed span/event tracer: a lock-free
//!   single-writer seqlock ring per thread, per-process seeded
//!   trace/span ids with parent links, a thread-local current-span cell
//!   whose identity crosses the wire ([`trace::current_context`] /
//!   [`trace::install_context`]), drained to JSONL or Chrome
//!   `trace_event` JSON and merged across processes by
//!   [`trace::merge_chrome_trace`] (load it at `chrome://tracing` or
//!   <https://ui.perfetto.dev>).
//! * [`flight`] — the fault flight recorder: on quarantine, deadline, or
//!   connection failure, the recent ring events plus counter snapshots
//!   are frozen into a bounded on-disk JSONL "black box".
//!
//! The framework aggregates these through `CCAServices` and exposes them
//! to builders via the reflective `MonitorPort` (`cca-framework`), so a
//! remote tool can ask "who is connected to whom, how hot is each port"
//! exactly as Fig. 2's builder would.

mod counter_block;
pub mod flags;
pub mod fleet;
pub mod flight;
pub mod metrics;
pub mod repo;
pub mod resilience;
pub mod trace;

pub use flags::{counters_enabled, init_from_env, set_counters, set_tracing, tracing_enabled};
pub use fleet::{fleet, FleetCounters, FleetSnapshot};
pub use metrics::{
    BulkMetrics, BulkSnapshot, CallShard, LatencyHistogram, LatencySnapshot, MuxMetrics,
    MuxSnapshot, PortMetrics, PortMetricsSnapshot, TransportMetrics, TransportSnapshot,
};
pub use repo::{repo, RepoCounters, RepoSnapshot};
pub use resilience::{resilience, ResilienceCounters, ResilienceSnapshot};
pub use trace::{
    current_context, drain, install_context, merge_chrome_trace, snapshot, span, to_chrome_trace,
    to_jsonl, trace_instant, ContextGuard, Span, TraceContext, TraceEvent, TraceKind,
};
