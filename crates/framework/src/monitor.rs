//! The reflective `MonitorPort`: Fig. 2's builder-style introspection and
//! the remote scrape plane as one ordinary CCA port.
//!
//! §5 motivates SIDL reflection with exactly this use: "components and the
//! associated composition tools and frameworks must discover, query, and
//! execute methods at run time." [`Framework::install_monitor`] adds a
//! component whose provides port is the generated [`MonitorPortSkel`]
//! around a [`Monitor`], deposits the port's SIDL, and exports the port
//! under [`MONITOR_EXPORT_KEY`]. Through it any tool (a GUI builder, a
//! remote collector over the ORB wire, a script) can ask the live
//! assembly about its *structure* (instances, connection graph, per-port
//! metrics) and its *behaviour* (the trace ring, read without consuming
//! it, the flight-recorder inventory, resilience, repository and fleet
//! counters, and the tracing gate itself) without compile-time knowledge
//! of this crate.
//!
//! `examples/monitoring.rs` drives the whole surface via
//! `cca_sidl::invoke_checked` only, as a composition tool would.

use crate::framework::Framework;
use crate::service::{MonitorPort, MonitorPortSkel, ServicePort};
use cca_core::CcaError;
use cca_sidl::SidlError;
use std::sync::{Arc, Weak};

/// The SIDL type of the monitor's provides port.
pub const MONITOR_PORT_TYPE: &str = "cca.ports.MonitorPort";

/// Default instance name [`Framework::install_monitor`] registers under.
pub const MONITOR_INSTANCE: &str = "cca-monitor";

/// ORB key the monitor port is exported under:
/// `"{MONITOR_INSTANCE}/monitor"`. A remote collector reaches it with
/// `ObjRef::new(MONITOR_EXPORT_KEY, transport)`.
pub const MONITOR_EXPORT_KEY: &str = "cca-monitor/monitor";

const SERVICE: ServicePort = ServicePort {
    instance: MONITOR_INSTANCE,
    class: "cca.MonitorComponent",
    port: "monitor",
    port_type: MONITOR_PORT_TYPE,
};

fn js(s: &str) -> String {
    cca_obs::trace::escape_json(s)
}

/// The monitor's port object over a weak framework reference (weak, so
/// the monitor never keeps its own framework alive: the framework owns
/// the monitor, not vice versa). In-process callers use its
/// [`MonitorPort`] methods; the framework serves the same object through
/// [`MonitorPortSkel`].
#[derive(Clone)]
pub struct Monitor {
    framework: Weak<Framework>,
}

impl Monitor {
    /// Creates a monitor watching `framework`.
    pub fn new(framework: &Arc<Framework>) -> Self {
        Monitor {
            framework: Arc::downgrade(framework),
        }
    }

    fn framework(&self) -> Result<Arc<Framework>, SidlError> {
        self.framework
            .upgrade()
            .ok_or_else(|| SidlError::invoke("monitored framework no longer exists"))
    }
}

impl MonitorPort for Monitor {
    fn instances(&self) -> Result<String, SidlError> {
        let fw = self.framework()?;
        let items: Vec<String> = fw
            .instance_names()
            .into_iter()
            .map(|name| {
                let class = fw.class_of(&name).unwrap_or_default();
                format!(
                    "{{\"name\":\"{}\",\"class\":\"{}\"}}",
                    js(&name),
                    js(&class)
                )
            })
            .collect();
        Ok(format!("[{}]", items.join(",")))
    }

    fn connectionGraph(&self) -> Result<String, SidlError> {
        let fw = self.framework()?;
        let edges: Vec<String> = fw
            .connections()
            .into_iter()
            .map(|c| {
                format!(
                    "{{\"user\":\"{}\",\"usesPort\":\"{}\",\"provider\":\"{}\",\
                     \"providesPort\":\"{}\",\"portType\":\"{}\",\"policy\":\"{:?}\"}}",
                    js(&c.user),
                    js(&c.uses_port),
                    js(&c.provider),
                    js(&c.provides_port),
                    js(&c.port_type),
                    c.policy
                )
            })
            .collect();
        Ok(format!(
            "{{\"instances\":{},\"connections\":[{}]}}",
            self.instances()?,
            edges.join(",")
        ))
    }

    fn metricsJson(&self) -> Result<String, SidlError> {
        let fw = self.framework()?;
        let mut per_instance = Vec::new();
        for name in fw.instance_names() {
            let services = fw
                .services(&name)
                .map_err(|e| SidlError::invoke(e.to_string()))?;
            let ports: Vec<String> = services
                .metrics_snapshot()
                .into_iter()
                .map(|(port, kind, snap)| {
                    format!(
                        "{{\"port\":\"{}\",\"kind\":\"{kind}\",\"metrics\":{}}}",
                        js(&port),
                        snap.to_json()
                    )
                })
                .collect();
            per_instance.push(format!("\"{}\":[{}]", js(&name), ports.join(",")));
        }
        Ok(format!("{{{}}}", per_instance.join(",")))
    }

    fn callCount(&self, instance: &str, port: &str) -> Result<i64, SidlError> {
        let fw = self.framework()?;
        let services = fw
            .services(instance)
            .map_err(|e| SidlError::invoke(e.to_string()))?;
        let metrics = services
            .port_metrics(port)
            .map_err(|e| SidlError::invoke(e.to_string()))?;
        Ok(metrics.calls() as i64)
    }

    fn eventSubscriptions(&self) -> Result<i64, SidlError> {
        Ok(self.framework()?.event_service().subscription_count() as i64)
    }

    fn setCounters(&self, on: bool) -> Result<(), SidlError> {
        cca_obs::set_counters(on);
        Ok(())
    }

    fn setTracing(&self, on: bool) -> Result<(), SidlError> {
        cca_obs::set_tracing(on);
        Ok(())
    }

    /// `"chrome"` renders a Chrome `trace_event` document, anything else
    /// JSON Lines.
    fn drainTrace(&self, format: &str) -> Result<String, SidlError> {
        let events = cca_obs::drain();
        Ok(if format == "chrome" {
            cca_obs::to_chrome_trace(&events)
        } else {
            cca_obs::to_jsonl(&events)
        })
    }

    /// Breaker state is `"none"` for connections without a call policy.
    fn resilienceJson(&self) -> Result<String, SidlError> {
        let fw = self.framework()?;
        let breakers: Vec<String> = fw
            .breaker_states()
            .into_iter()
            .map(|(c, state)| {
                let (state_str, failures) = match state {
                    Some((s, f)) => (s.as_str(), f),
                    None => ("none", 0),
                };
                format!(
                    "{{\"user\":\"{}\",\"usesPort\":\"{}\",\"provider\":\"{}\",\
                     \"state\":\"{state_str}\",\"consecutiveFailures\":{failures}}}",
                    js(&c.user),
                    js(&c.uses_port),
                    js(&c.provider),
                )
            })
            .collect();
        Ok(format!(
            "{{\"counters\":{},\"breakers\":[{}]}}",
            cca_obs::resilience().snapshot().to_json(),
            breakers.join(",")
        ))
    }

    fn snapshotJson(&self) -> Result<String, SidlError> {
        Ok(format!(
            "{{\"tracing\":{},\"counters\":{},\"flight\":{},\"metrics\":{},\"resilience\":{},\
             \"repo\":{},\"fleet\":{}}}",
            cca_obs::tracing_enabled(),
            cca_obs::counters_enabled(),
            self.flightJson()?,
            self.metricsJson()?,
            self.resilienceJson()?,
            cca_obs::repo().snapshot().to_json(),
            cca_obs::fleet().snapshot().to_json(),
        ))
    }

    /// Local drains (flight recorder, `drainTrace`) still see every event.
    fn traceJsonl(&self) -> Result<String, SidlError> {
        Ok(cca_obs::to_jsonl(&cca_obs::snapshot()))
    }

    fn flightJson(&self) -> Result<String, SidlError> {
        let incidents: Vec<String> = cca_obs::flight::incidents()
            .iter()
            .map(|p| format!("\"{}\"", js(&p.display().to_string())))
            .collect();
        Ok(format!(
            "{{\"enabled\":{},\"incidents\":[{}]}}",
            cca_obs::flight::enabled(),
            incidents.join(",")
        ))
    }
}

impl Framework {
    /// Installs the monitoring component: deposits the service-port SIDL
    /// into the repository (idempotently), adds an instance named
    /// [`MONITOR_INSTANCE`] whose `"monitor"` provides port answers
    /// [`MONITOR_PORT_TYPE`] through the generated skeleton, and exports
    /// that port under [`MONITOR_EXPORT_KEY`], so the next
    /// [`serve_tcp`](Framework::serve_tcp) /
    /// [`serve_tcp_mux`](Framework::serve_tcp_mux) call makes the process
    /// remotely scrapeable.
    ///
    /// Returns the port object for in-process callers; reflective tools
    /// reach the skeleton with
    /// `framework.services(MONITOR_INSTANCE)?.get_provides_port("monitor")`.
    pub fn install_monitor(self: &Arc<Self>) -> Result<Monitor, CcaError> {
        let monitor = Monitor::new(self);
        self.install_service_port(SERVICE, Arc::new(MonitorPortSkel(monitor.clone())))?;
        Ok(monitor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::CCA_PORTS_SIDL;
    use cca_core::{CcaServices, Component, PortHandle};
    use cca_data::TypeMap;
    use cca_repository::Repository;
    use cca_sidl::{compile, invoke_checked, DynObject, DynValue, Reflection, TypeInfo};

    trait Echo: Send + Sync {
        fn ping(&self) -> i64;
    }
    struct E;
    impl Echo for E {
        fn ping(&self) -> i64 {
            1
        }
    }

    struct Provider;
    impl Component for Provider {
        fn component_type(&self) -> &str {
            "t.Provider"
        }
        fn set_services(&self, s: Arc<CcaServices>) -> Result<(), CcaError> {
            let port: Arc<dyn Echo> = Arc::new(E);
            s.add_provides_port(PortHandle::new("out", "t.Echo", port))
        }
    }
    struct User;
    impl Component for User {
        fn component_type(&self) -> &str {
            "t.User"
        }
        fn set_services(&self, s: Arc<CcaServices>) -> Result<(), CcaError> {
            s.register_uses_port("in", "t.Echo", TypeMap::new())
        }
    }

    fn wired_framework() -> Arc<Framework> {
        let fw = Framework::new(Repository::new());
        fw.add_instance("p0", Arc::new(Provider)).unwrap();
        fw.add_instance("u0", Arc::new(User)).unwrap();
        fw.connect("u0", "in", "p0", "out").unwrap();
        fw
    }

    /// The port as a composition tool sees it: the served skeleton plus
    /// reflection compiled from the service-port SIDL.
    fn reflective(fw: &Arc<Framework>) -> (Arc<dyn DynObject>, TypeInfo) {
        let handle = fw
            .services(MONITOR_INSTANCE)
            .unwrap()
            .get_provides_port("monitor")
            .unwrap();
        let target = Arc::clone(handle.dynamic().unwrap());
        let reflection = Reflection::from_model(&compile(CCA_PORTS_SIDL).unwrap());
        let info = reflection.type_info(MONITOR_PORT_TYPE).unwrap().clone();
        (target, info)
    }

    fn call(
        target: &Arc<dyn DynObject>,
        info: &TypeInfo,
        method: &str,
        args: Vec<DynValue>,
    ) -> DynValue {
        invoke_checked(&**target, info.method(method).unwrap(), args).unwrap()
    }

    #[test]
    fn install_registers_exports_and_is_idempotent_in_sidl_only() {
        let fw = wired_framework();
        let monitor = fw.install_monitor().unwrap();
        // Installed and exported in one step.
        assert!(fw.orb().keys().contains(&MONITOR_EXPORT_KEY.to_string()));
        // Second install fails on the duplicate instance name, not on a
        // duplicate SIDL deposit.
        assert!(matches!(
            fw.install_monitor(),
            Err(CcaError::ComponentAlreadyExists(_))
        ));
        assert!(monitor.instances().unwrap().contains("cca-monitor"));
        assert!(monitor
            .instances()
            .unwrap()
            .contains("\"class\":\"cca.MonitorComponent\""));
        // The deposited metadata is the service-port SIDL, both ports.
        fw.repository().with_catalog(|c| {
            assert!(c.reflection().type_info(MONITOR_PORT_TYPE).is_some());
            assert!(c
                .reflection()
                .type_info(crate::discovery::DISCOVERY_PORT_TYPE)
                .is_some());
        });
    }

    #[test]
    fn monitor_reports_graph_and_metrics() {
        let fw = wired_framework();
        let monitor = fw.install_monitor().unwrap();
        let graph = monitor.connectionGraph().unwrap();
        assert!(graph.contains("\"user\":\"u0\""));
        assert!(graph.contains("\"provider\":\"p0\""));
        assert!(graph.contains("\"policy\":\"Direct\""));
        let metrics = monitor.metricsJson().unwrap();
        assert!(metrics.contains("\"u0\""));
        assert!(metrics.contains("\"kind\":\"uses\""));
        // Counter-gated call counting observed through the monitor.
        cca_obs::set_counters(true);
        let services = fw.services("u0").unwrap();
        let port: Arc<dyn Echo> = services.get_port_as("in").unwrap();
        assert_eq!(port.ping(), 1);
        cca_obs::set_counters(false);
        assert!(monitor.callCount("u0", "in").unwrap() >= 1);
        assert!(monitor.callCount("ghost", "in").is_err());
        assert!(monitor.callCount("u0", "ghost").is_err());
    }

    #[test]
    fn dynamic_invocation_against_deposited_reflection() {
        let fw = wired_framework();
        fw.install_monitor().unwrap();
        // Reach the port the way a composition tool does: reflection from
        // the SIDL text + checked dynamic invocation, no Rust types.
        let (target, info) = reflective(&fw);

        let r = call(&target, &info, "instances", vec![]);
        assert!(r.as_str().unwrap().contains("\"u0\""));

        let r = call(
            &target,
            &info,
            "callCount",
            vec![DynValue::Str("u0".into()), DynValue::Str("in".into())],
        );
        assert!(r.as_long().unwrap() >= 0);

        // Arity/type checking comes from the deposited metadata.
        assert!(invoke_checked(&*target, info.method("callCount").unwrap(), vec![]).is_err());
        let r = call(&target, &info, "eventSubscriptions", vec![]);
        assert!(r.as_long().unwrap() >= 0);

        let r = call(&target, &info, "snapshotJson", vec![]);
        assert!(r.as_str().unwrap().contains("\"metrics\""));
        let r = call(&target, &info, "flightJson", vec![]);
        assert!(r.as_str().unwrap().contains("\"incidents\""));
        assert!(invoke_checked(&*target, info.method("setTracing").unwrap(), vec![]).is_err());
    }

    #[test]
    fn snapshot_covers_every_counter_block() {
        let fw = wired_framework();
        let monitor = fw.install_monitor().unwrap();
        let snap = monitor.snapshotJson().unwrap();
        assert!(snap.contains("\"tracing\":"), "{snap}");
        assert!(snap.contains("\"flight\":{\"enabled\":"), "{snap}");
        assert!(snap.contains("\"u0\""), "{snap}");
        assert!(snap.contains("\"resilience\":{"), "{snap}");
        assert!(snap.contains("\"repo\":{\"deposits\""), "{snap}");
        assert!(
            snap.contains("\"fleet\":{\"checkpoints_committed\""),
            "{snap}"
        );
    }

    #[test]
    fn monitor_shows_live_breaker_state() {
        use cca_core::resilience::{BreakerPolicy, CallPolicy, MockClock};

        let fw = Framework::new(Repository::new());
        fw.add_instance("p0", Arc::new(Provider)).unwrap();
        fw.add_instance("u0", Arc::new(User)).unwrap();
        let clock = MockClock::new();
        let policy =
            CallPolicy::with_clock(clock.clone()).with_breaker(BreakerPolicy::new(3, 1_000));
        fw.connect_with_call_policy("u0", "in", "p0", "out", policy)
            .unwrap();
        let monitor = fw.install_monitor().unwrap();

        let json = monitor.resilienceJson().unwrap();
        assert!(json.contains("\"state\":\"closed\""), "{json}");
        assert!(json.contains("\"breaker_opens\""), "{json}");

        // Trip the breaker; the monitor reflects it live.
        let breaker = fw
            .services("u0")
            .unwrap()
            .connection_breaker("in", 0)
            .unwrap()
            .unwrap();
        for _ in 0..3 {
            breaker.record_failure();
        }
        let json = monitor.resilienceJson().unwrap();
        assert!(json.contains("\"state\":\"open\""), "{json}");
        assert!(json.contains("\"consecutiveFailures\":3"), "{json}");

        // The reflective path reaches the same method via deposited SIDL.
        let (target, info) = reflective(&fw);
        let r = call(&target, &info, "resilienceJson", vec![]);
        assert!(r.as_str().unwrap().contains("\"breakers\""));
    }

    #[test]
    fn trace_scrape_does_not_consume_the_ring() {
        let fw = wired_framework();
        fw.install_monitor().unwrap();
        let (target, info) = reflective(&fw);
        call(&target, &info, "setTracing", vec![DynValue::Bool(true)]);
        cca_obs::trace_instant("scrape-me");
        let first = call(&target, &info, "traceJsonl", vec![]);
        let second = call(&target, &info, "traceJsonl", vec![]);
        call(&target, &info, "setTracing", vec![DynValue::Bool(false)]);
        cca_obs::drain();
        let (first, second) = (first.as_str().unwrap(), second.as_str().unwrap());
        assert!(first.contains("\"scrape-me\""), "{first}");
        assert!(
            second.contains("\"scrape-me\""),
            "second scrape still sees it"
        );
    }

    #[test]
    fn monitor_does_not_keep_framework_alive() {
        let fw = wired_framework();
        let monitor = fw.install_monitor().unwrap();
        drop(fw);
        assert!(monitor.instances().is_err());
        assert!(monitor
            .framework()
            .err()
            .unwrap()
            .to_string()
            .contains("no longer exists"));
    }

    #[test]
    fn unknown_method_and_bad_args_error() {
        let fw = wired_framework();
        fw.install_monitor().unwrap();
        let (target, _) = reflective(&fw);
        assert!(target.invoke("selfDestruct", vec![]).is_err());
        assert!(target.invoke("setTracing", vec![]).is_err());
        assert!(target
            .invoke("setTracing", vec![DynValue::Long(1)])
            .is_err());
        assert!(target.invoke("drainTrace", vec![]).is_err());
        assert!(target
            .invoke("callCount", vec![DynValue::Str("u0".into())])
            .is_err());
        assert!(target
            .invoke(
                "callCount",
                vec![DynValue::Str("u0".into()), DynValue::Long(1)]
            )
            .is_err());
    }
}
