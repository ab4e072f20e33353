#![warn(missing_docs)]
//! # cca-framework — a CCA-compliant reference framework
//!
//! The paper (§4): "A component framework is said to be CCA compliant if it
//! conforms to these standards — that is, provides the required CCA
//! services and implements the required CCA interfaces." This crate is the
//! reference implementation the paper says is "tracking the evolution of
//! the Common Component Architecture" — a Ccaffeine-style in-process
//! framework:
//!
//! * [`framework`] — the [`Framework`] itself: component instantiation
//!   from the repository, per-instance [`cca_core::CcaServices`], the
//!   Configuration/Builder API (add/remove/redirect/failure events), and
//!   `go`-port driving.
//! * [`connect`] — the connection machinery. The framework owns the
//!   direct-vs-proxy decision ("port connection is the responsibility of
//!   the framework; therefore, a particular component may find itself
//!   connected in a variety of different ways depending on its environment
//!   and mode of use", §6.1): [`ConnectionPolicy::Direct`] hands the
//!   provider's own object across; [`ConnectionPolicy::Proxied`] routes
//!   the same port through the `cca-rpc` ORB without either component
//!   knowing.
//! * [`collective`] — collective ports (§6.3): M×N data redistribution
//!   between differently-distributed parallel components, executed over
//!   `cca-parallel` communicators or in-memory for same-address-space
//!   connections.
//! * [`service`] — the framework's own service ports, declared once in
//!   `sidl/cca_ports.sidl`. The build script generates their traits and
//!   `DynObject` skeletons with the crate's own SIDL compiler; each port
//!   object implements its trait and is served through its skeleton.
//! * [`monitor`] — the reflective `MonitorPort`: live-assembly
//!   introspection (instances, connection graph, per-port metrics) and
//!   the remote scrape plane (trace ring, flight-recorder inventory,
//!   resilience, repository and fleet counters) in one port, exported
//!   over the same wire transports the components use.
//! * [`discovery`] — the remote discovery plane: the sharded repository's
//!   search API (exact lookup, trigram fuzzy search with paged results,
//!   catalog statistics) as a reflective `DiscoveryPort` other frameworks
//!   dial over the wire.
//! * [`bulk`] — the bulk data plane's endpoints: [`BulkRedistSender`]
//!   streams a compiled M×N plan as raw slabs over any transport, and
//!   [`BulkLandingZone`] scatters them into destination storage with
//!   resume watermarks (experiment E15).
//! * [`fleet`] — the supervised multi-process worker fleet: ranks as
//!   child processes joined over `tcp+mux://`, crash detection via
//!   connection death, circuit-breaker quarantine with
//!   decorrelated-jitter restarts, and checkpoint-rollback rejoin so a
//!   `kill -9` mid-timestep converges instead of hanging (PR 9).

pub mod bulk;
pub mod collective;
pub mod connect;
pub mod discovery;
pub mod event;
pub mod fleet;
pub mod framework;
pub mod monitor;
pub mod script;
pub mod service;

pub use bulk::{BulkLandingZone, BulkRedistSender};
pub use collective::{MxNPort, PlanCache};
pub use connect::{ConnectionInfo, ConnectionPolicy, RemoteTransportKind};
pub use discovery::{Discovery, DISCOVERY_EXPORT_KEY, DISCOVERY_INSTANCE, DISCOVERY_PORT_TYPE};
pub use event::{EventListener, EventService, SubscriptionId};
pub use fleet::{
    fleet_rank_env, rank_backoff_seed, ExecLauncher, FleetConfig, FleetEvent, FleetHub,
    FleetRankEnv, FleetSupervisor, HubLink, LaunchSpec, MockLauncher, MockProcess, ProcessHandle,
    RankLauncher, RestartBackoff,
};
pub use framework::Framework;
pub use monitor::{Monitor, MONITOR_EXPORT_KEY, MONITOR_INSTANCE, MONITOR_PORT_TYPE};
pub use script::{parse_script, Command};
pub use service::{DiscoveryPort, DiscoveryPortSkel, MonitorPort, MonitorPortSkel, CCA_PORTS_SIDL};

/// Serializes the unit tests that build redistribution plans: two of them
/// count builds through the process-global `RedistPlan::build_count`, so
/// a sibling test building concurrently would be miscounted.
#[cfg(test)]
pub(crate) fn plan_builds_lock() -> std::sync::MutexGuard<'static, ()> {
    static PLAN_BUILDS: std::sync::Mutex<()> = std::sync::Mutex::new(());
    PLAN_BUILDS.lock().unwrap_or_else(|e| e.into_inner())
}
