//! The global observability switchboard.
//!
//! A single `AtomicU32` holds every runtime toggle. Hot paths guard their
//! instrumentation with one **relaxed load** of this word plus a bit test —
//! on a modern core that is a predicted-not-taken branch over a shared
//! read-mostly cache line, which is what lets the disabled configuration
//! stay within noise of PR 1's uninstrumented `CachedPort` call (gated at
//! ≤1.1× by `benches/e10_obs_overhead.rs`).
//!
//! Each facility is gated two ways, with no feature flags and no
//! rebuilds:
//!
//! 1. **environment** — [`init_from_env`] reads `CCA_TRACE` and
//!    `CCA_METRICS` once (any value other than empty or `0` enables);
//! 2. **runtime** — [`set_tracing`]/[`set_counters`] flip bits live, which
//!    is how `MonitorPort` or a bench turns collection on mid-run.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Once;

/// Serializes tests (across this crate's modules) that flip the
/// process-global flag word or other process-global observability state.
#[cfg(test)]
pub(crate) static TEST_LOCK: parking_lot::Mutex<()> = parking_lot::Mutex::new(());

/// Bit: the span/event tracer records.
const TRACING: u32 = 1 << 0;
/// Bit: per-port call counters and latency histograms record.
const COUNTERS: u32 = 1 << 1;

static FLAGS: AtomicU32 = AtomicU32::new(0);
static ENV_INIT: Once = Once::new();

#[inline(always)]
fn flags() -> u32 {
    FLAGS.load(Ordering::Relaxed)
}

/// True if the tracer should record. One relaxed atomic load.
#[inline(always)]
pub fn tracing_enabled() -> bool {
    flags() & TRACING != 0
}

/// True if per-port counters/histograms should record. One relaxed
/// atomic load.
#[inline(always)]
pub fn counters_enabled() -> bool {
    flags() & COUNTERS != 0
}

fn set_bit(bit: u32, on: bool) {
    if on {
        FLAGS.fetch_or(bit, Ordering::Relaxed);
    } else {
        FLAGS.fetch_and(!bit, Ordering::Relaxed);
    }
}

/// Turns the tracer on or off at runtime.
pub fn set_tracing(on: bool) {
    set_bit(TRACING, on);
}

/// Turns per-port counters/histograms on or off at runtime.
///
/// Note that a `CachedPort` that was resolved while its uses slot was
/// unregistered keeps no shard; counting starts from the next
/// re-resolution. In the normal lifecycle (register, connect, call) the
/// toggle takes effect on the very next call.
pub fn set_counters(on: bool) {
    set_bit(COUNTERS, on);
}

fn env_truthy(name: &str) -> bool {
    match std::env::var(name) {
        Ok(v) => !v.is_empty() && v != "0",
        Err(_) => false,
    }
}

/// Applies `CCA_TRACE` / `CCA_METRICS` from the environment, once.
///
/// Idempotent and cheap after the first call; the framework invokes it at
/// construction so `CCA_TRACE=1 cargo run --example monitoring` works
/// without code changes. Later [`set_tracing`]/[`set_counters`] calls
/// still override the environment.
pub fn init_from_env() {
    ENV_INIT.call_once(|| {
        if env_truthy("CCA_TRACE") {
            set_bit(TRACING, true);
        }
        if env_truthy("CCA_METRICS") {
            set_bit(COUNTERS, true);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn toggles_round_trip() {
        // Serialize against sibling tests touching the same global word.
        let _guard = TEST_LOCK.lock();
        set_tracing(false);
        set_counters(false);
        assert!(!tracing_enabled());
        assert!(!counters_enabled());
        set_tracing(true);
        assert!(tracing_enabled());
        assert!(!counters_enabled());
        set_counters(true);
        assert!(counters_enabled());
        set_tracing(false);
        set_counters(false);
        assert!(!tracing_enabled());
        assert!(!counters_enabled());
    }

    #[test]
    fn env_init_is_idempotent() {
        init_from_env();
        init_from_env();
    }
}
