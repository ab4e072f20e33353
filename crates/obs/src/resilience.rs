//! Global resilience counters: retries, deadline hits, breaker activity.
//!
//! `cca-core`'s resilience layer (retry/backoff, call deadlines,
//! per-provider circuit breakers) reports here so the `MonitorPort` can
//! answer "how degraded is this assembly right now" without walking every
//! connection. Unlike the per-port call counters these are **not** gated
//! by the `counters` flag: they only move on failure paths (a retry, a
//! deadline expiry, a breaker transition, a quarantine rejection), which
//! are rare and already expensive — the same reasoning that keeps
//! connection-shape metrics ungated. Process-global, like [`crate::flags`].

use crate::counter_block::counter_block;

counter_block! {
    /// The process-wide resilience counter block.
    pub struct ResilienceCounters;
    /// A point-in-time copy of the global [`ResilienceCounters`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct ResilienceSnapshot;
    /// The process-global resilience counter block.
    pub fn resilience();

    /// Attempts after the first (one per backoff wait).
    counter retries: /// Records one retried attempt (an attempt after the first).
        fn record_retry();
    /// Calls abandoned on deadline expiry.
    counter deadline_hits: /// Records one call abandoned because its deadline expired.
        fn record_deadline_hit();
    /// Closed/half-open → open transitions (quarantines).
    counter breaker_opens: /// Records a breaker transitioning to open (provider quarantined).
        fn record_breaker_open();
    /// Open → half-open transitions (probes admitted).
    counter breaker_half_opens: /// Records a breaker transitioning to half-open (probe admitted).
        fn record_breaker_half_open();
    /// → closed transitions (recoveries).
    counter breaker_closes: /// Records a breaker transitioning to closed (provider recovered).
        fn record_breaker_close();
    /// Calls refused while a provider was quarantined.
    counter quarantine_rejections: /// Records a call refused because its provider was quarantined.
        fn record_quarantine_rejection();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        // Local block (the global one is shared with other tests).
        let c = ResilienceCounters::default();
        c.record_retry();
        c.record_retry();
        c.record_deadline_hit();
        c.record_breaker_open();
        c.record_breaker_half_open();
        c.record_breaker_close();
        c.record_quarantine_rejection();
        let s = c.snapshot();
        assert_eq!(
            s,
            ResilienceSnapshot {
                retries: 2,
                deadline_hits: 1,
                breaker_opens: 1,
                breaker_half_opens: 1,
                breaker_closes: 1,
                quarantine_rejections: 1,
            }
        );
        c.reset();
        assert_eq!(c.snapshot(), ResilienceSnapshot::default());
    }

    #[test]
    fn snapshot_json_is_stable() {
        let c = ResilienceCounters::default();
        c.record_retry();
        assert_eq!(
            c.snapshot().to_json(),
            "{\"retries\":1,\"deadline_hits\":0,\"breaker_opens\":0,\
             \"breaker_half_opens\":0,\"breaker_closes\":0,\
             \"quarantine_rejections\":0}"
        );
    }

    #[test]
    fn global_block_is_reachable() {
        let before = resilience().snapshot().retries;
        resilience().record_retry();
        assert!(resilience().snapshot().retries > before);
    }
}
