//! Global repository counters: deposits, lookups, fuzzy discovery.
//!
//! The sharded repository (`cca-repository`) reports here so the
//! `MonitorPort`/`DiscoveryPort` can answer "how hot is the
//! catalog" without walking shards. Like [`crate::resilience`], these are
//! **not** gated by the `counters` flag: a registration or a fuzzy query
//! already allocates and searches, so one relaxed `fetch_add` on top is
//! noise — only the exact-lookup counters sit near a hot path, and that
//! path is a hash + one `Arc` clone, where a relaxed add is still far
//! below measurement floor. Process-global, like [`crate::flags`].

use crate::counter_block::counter_block;
use std::sync::atomic::Ordering;

counter_block! {
    /// The process-wide repository counter block.
    pub struct RepoCounters;
    /// A point-in-time copy of the global [`RepoCounters`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct RepoSnapshot;
    /// The process-global repository counter block.
    pub fn repo();

    /// Component registrations (single + batch).
    counter deposits: /// Records `n` component registrations (single or batch deposit).
        fn record_deposits(n);
    /// Exact class lookups that found their entry.
    counter exact_lookups: /// Records one exact class lookup that found its entry.
        fn record_exact_lookup();
    /// Exact class lookups that missed.
    counter exact_misses: /// Records one exact class lookup that missed.
        fn record_exact_miss();
    /// Fuzzy discovery queries served (first pages and continuations).
    counter fuzzy_queries;
    /// Entries returned across all fuzzy pages.
    counter fuzzy_hits;
    /// Continuation pages served from a cursor.
    counter cursor_pages: /// Records one continuation page served from a `QueryCursor`.
        fn record_cursor_page();
    /// Store-wide reshards.
    counter rebalances: /// Records one store-wide reshard.
        fn record_rebalance();
}

impl RepoCounters {
    /// Records one fuzzy query returning `hits` entries on its page.
    pub fn record_fuzzy_query(&self, hits: u64) {
        self.fuzzy_queries.fetch_add(1, Ordering::Relaxed);
        self.fuzzy_hits.fetch_add(hits, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        // Local block (the global one is shared with other tests).
        let c = RepoCounters::default();
        c.record_deposits(3);
        c.record_exact_lookup();
        c.record_exact_miss();
        c.record_fuzzy_query(10);
        c.record_fuzzy_query(0);
        c.record_cursor_page();
        c.record_rebalance();
        let s = c.snapshot();
        assert_eq!(
            s,
            RepoSnapshot {
                deposits: 3,
                exact_lookups: 1,
                exact_misses: 1,
                fuzzy_queries: 2,
                fuzzy_hits: 10,
                cursor_pages: 1,
                rebalances: 1,
            }
        );
        c.reset();
        assert_eq!(c.snapshot(), RepoSnapshot::default());
    }

    #[test]
    fn snapshot_json_is_stable() {
        let c = RepoCounters::default();
        c.record_deposits(1);
        assert_eq!(
            c.snapshot().to_json(),
            "{\"deposits\":1,\"exact_lookups\":0,\"exact_misses\":0,\
             \"fuzzy_queries\":0,\"fuzzy_hits\":0,\"cursor_pages\":0,\
             \"rebalances\":0}"
        );
    }

    #[test]
    fn global_block_is_reachable() {
        let before = repo().snapshot().deposits;
        repo().record_deposits(1);
        assert!(repo().snapshot().deposits > before);
    }
}
