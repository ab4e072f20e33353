//! Fleet counters: one shared tally of worker-fleet supervision events.
//!
//! Same shape as [`crate::resilience`](mod@crate::resilience), both a
//! `counter_block!`: plain relaxed atomics bumped from the
//! supervisor/hub hot paths (rank death handling must never block on
//! observability), snapshot on demand, stable-key JSON for the
//! MonitorPort's `snapshotJson` and the flight recorder.

use crate::counter_block::counter_block;
// The tests assemble a block by hand.
#[cfg(test)]
use std::sync::atomic::AtomicU64;

// Fields are declared alphabetically: the JSON keys follow declaration
// order, and scrape consumers rely on the sorted order.
counter_block! {
    /// Monotonic counters for fleet supervision, one instance process-wide
    /// (see [`fleet()`]).
    pub struct FleetCounters;
    /// A point-in-time copy of [`FleetCounters`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct FleetSnapshot;
    /// The process-wide fleet counters.
    pub fn fleet();

    /// Checkpoints promoted to committed.
    counter checkpoints_committed: /// Records a checkpoint promoted to committed.
        fn record_checkpoint_committed();
    /// Rank deaths detected (connection death / waitpid).
    counter deaths: /// Records a detected rank death.
        fn record_death();
    /// Group generation bumps (each non-clean disconnect forces one).
    counter generation_bumps: /// Records a group generation bump.
        fn record_generation_bump();
    /// Child processes launched (first launches and restarts).
    counter launches: /// Records a child-process launch.
        fn record_launch();
    /// Messages relayed through the hub.
    counter messages_relayed: /// Records one message relayed through the hub.
        fn record_message_relayed();
    /// Ranks rejoined after restart.
    counter rejoins: /// Records a completed post-restart rejoin.
        fn record_rejoin();
    /// Restarts scheduled under backoff.
    counter restarts: /// Records a restart scheduled under backoff.
        fn record_restart();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let c = FleetCounters {
            launches: AtomicU64::new(0),
            deaths: AtomicU64::new(0),
            restarts: AtomicU64::new(0),
            rejoins: AtomicU64::new(0),
            generation_bumps: AtomicU64::new(0),
            checkpoints_committed: AtomicU64::new(0),
            messages_relayed: AtomicU64::new(0),
        };
        c.record_launch();
        c.record_launch();
        c.record_death();
        c.record_restart();
        c.record_rejoin();
        c.record_generation_bump();
        c.record_checkpoint_committed();
        c.record_message_relayed();
        c.record_message_relayed();
        let s = c.snapshot();
        assert_eq!(s.launches, 2);
        assert_eq!(s.deaths, 1);
        assert_eq!(s.restarts, 1);
        assert_eq!(s.rejoins, 1);
        assert_eq!(s.generation_bumps, 1);
        assert_eq!(s.checkpoints_committed, 1);
        assert_eq!(s.messages_relayed, 2);
        c.reset();
        assert_eq!(c.snapshot().deaths, 0);
    }

    #[test]
    fn json_has_stable_key_order() {
        let s = FleetSnapshot {
            launches: 4,
            deaths: 1,
            restarts: 1,
            rejoins: 1,
            generation_bumps: 1,
            checkpoints_committed: 6,
            messages_relayed: 120,
        };
        assert_eq!(
            s.to_json(),
            "{\"checkpoints_committed\":6,\"deaths\":1,\"generation_bumps\":1,\
             \"launches\":4,\"messages_relayed\":120,\"rejoins\":1,\"restarts\":1}"
        );
    }

    #[test]
    fn global_instance_is_reachable() {
        let before = fleet().snapshot().launches;
        fleet().record_launch();
        assert!(fleet().snapshot().launches > before);
    }
}
