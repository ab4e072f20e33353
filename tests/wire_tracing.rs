//! Distributed tracing over the wire, end to end: a Figure-2 pipeline
//! whose providers live behind a real `tcp+mux://` socket produces one
//! causally-linked trace — every server dispatch span parents to the
//! client call span that carried it, walked link by link across both
//! "processes" and merged into a single Perfetto timeline. Then the fault
//! side: a seeded mid-call drop leaves a flight-recorder black box on
//! disk with the quarantine incident and the ring events that led up to
//! it, and the scrape plane answers over the same wire it observes.
//!
//! Client and server frameworks share this test process (the trace
//! registry is process-global), but the wire is real: the server workers
//! only ever learn the client's trace context from the frame extension
//! bytes, so a parented dispatch span proves propagation, not shared
//! memory. Events are split into "processes" by where they were recorded
//! — dispatch spans on the server's worker threads, everything else on
//! the client side.

use cca::core::resilience::{fault_seed_from_env, BreakerPolicy, CallPolicy, MockClock};
use cca::core::{CcaError, CcaServices, Component, ConfigEvent, PortHandle};
use cca::framework::{Framework, RemoteTransportKind, MONITOR_EXPORT_KEY};
use cca::obs::TraceEvent;
use cca::repository::Repository;
use cca::rpc::{MuxServer, MuxTransport, ObjRef};
use cca::sidl::{DynObject, DynValue, SidlError};
use cca_data::TypeMap;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Tracing, the flight recorder, and the event rings are process-global;
/// the tests in this binary take turns.
static SERIAL: Mutex<()> = Mutex::new(());

// ---------------------------------------------------------------------
// Fixtures: the Figure-2 cast, dynamic-facade flavour.
// ---------------------------------------------------------------------

struct RampSource {
    state: Mutex<f64>,
}
impl DynObject for RampSource {
    fn sidl_type(&self) -> &str {
        "pipes.Source"
    }
    fn invoke(&self, method: &str, _args: Vec<DynValue>) -> Result<DynValue, SidlError> {
        match method {
            "next" => {
                let mut s = self.state.lock();
                *s += 1.0;
                Ok(DynValue::Double(*s))
            }
            other => Err(SidlError::invoke(format!("no method '{other}'"))),
        }
    }
}
impl Component for RampSource {
    fn component_type(&self) -> &str {
        "pipes.RampSource"
    }
    fn set_services(&self, services: Arc<CcaServices>) -> Result<(), CcaError> {
        let dynamic: Arc<dyn DynObject> = Arc::new(RampSource {
            state: Mutex::new(0.0),
        });
        services.add_provides_port(
            PortHandle::new("out", "pipes.Source", Arc::clone(&dynamic)).with_dynamic(dynamic),
        )
    }
}

struct SummingSink {
    total: Mutex<f64>,
}
impl DynObject for SummingSink {
    fn sidl_type(&self) -> &str {
        "pipes.Sink"
    }
    fn invoke(&self, method: &str, args: Vec<DynValue>) -> Result<DynValue, SidlError> {
        match method {
            "push" => {
                let mut t = self.total.lock();
                *t += args[0].as_double()?;
                Ok(DynValue::Double(*t))
            }
            other => Err(SidlError::invoke(format!("no method '{other}'"))),
        }
    }
}
impl Component for SummingSink {
    fn component_type(&self) -> &str {
        "pipes.SummingSink"
    }
    fn set_services(&self, services: Arc<CcaServices>) -> Result<(), CcaError> {
        let dynamic: Arc<dyn DynObject> = Arc::new(SummingSink {
            total: Mutex::new(0.0),
        });
        services.add_provides_port(
            PortHandle::new("in", "pipes.Sink", Arc::clone(&dynamic)).with_dynamic(dynamic),
        )
    }
}

/// The pump's shell: two uses slots, driven from the test body.
struct PipelineUser;
impl Component for PipelineUser {
    fn component_type(&self) -> &str {
        "pipes.PipelineUser"
    }
    fn set_services(&self, services: Arc<CcaServices>) -> Result<(), CcaError> {
        services.register_uses_port("from", "pipes.Source", TypeMap::new())?;
        services.register_uses_port("to", "pipes.Sink", TypeMap::new())
    }
}

struct Doubler {
    calls: AtomicU64,
}
impl DynObject for Doubler {
    fn sidl_type(&self) -> &str {
        "test.Doubler"
    }
    fn invoke(&self, method: &str, args: Vec<DynValue>) -> Result<DynValue, SidlError> {
        self.calls.fetch_add(1, Ordering::SeqCst);
        match method {
            "double" => Ok(DynValue::Long(2 * args[0].as_long()?)),
            other => Err(SidlError::invoke(format!("no method '{other}'"))),
        }
    }
}
struct DoublerProvider;
impl Component for DoublerProvider {
    fn component_type(&self) -> &str {
        "test.DoublerProvider"
    }
    fn set_services(&self, services: Arc<CcaServices>) -> Result<(), CcaError> {
        let dynamic: Arc<dyn DynObject> = Arc::new(Doubler {
            calls: AtomicU64::new(0),
        });
        services.add_provides_port(
            PortHandle::new("out", "test.Doubler", Arc::clone(&dynamic)).with_dynamic(dynamic),
        )
    }
}
struct RemoteConsumer;
impl Component for RemoteConsumer {
    fn component_type(&self) -> &str {
        "test.RemoteConsumer"
    }
    fn set_services(&self, services: Arc<CcaServices>) -> Result<(), CcaError> {
        services.register_uses_port("in", "test.Doubler", TypeMap::new())
    }
}

/// Server-side framework hosting one exported Doubler behind a
/// `MuxServer`. Returns (framework, server, addr, remote key).
fn serve_doubler_mux() -> (Arc<Framework>, Arc<MuxServer>, String, String) {
    let fw = Framework::new(Repository::new());
    fw.add_instance("provider0", Arc::new(DoublerProvider))
        .unwrap();
    let key = fw.export_port("provider0", "out").unwrap();
    let server = fw.serve_tcp_mux("127.0.0.1:0").unwrap();
    let addr = server.local_addr().to_string();
    (fw, server, addr, key)
}

// ---------------------------------------------------------------------
// Causal propagation: Figure 2 over tcp+mux://, one merged timeline.
// ---------------------------------------------------------------------

/// Runs the Figure-2 pipeline with source and sink behind a `MuxServer`,
/// then walks the recorded parent links: every one of the 20 server
/// dispatch spans must parent — through the wire context — back to the
/// client `pump.step` span that caused it, and the per-"process" JSONL
/// files must merge into a single Perfetto document with cross-process
/// flow arrows.
#[test]
fn figure2_dispatch_spans_parent_to_client_calls_across_the_wire() {
    let _serial = SERIAL.lock();

    let server_fw = Framework::new(Repository::new());
    server_fw
        .add_instance(
            "source0",
            Arc::new(RampSource {
                state: Mutex::new(0.0),
            }),
        )
        .unwrap();
    server_fw
        .add_instance(
            "sink0",
            Arc::new(SummingSink {
                total: Mutex::new(0.0),
            }),
        )
        .unwrap();
    let source_key = server_fw.export_port("source0", "out").unwrap();
    let sink_key = server_fw.export_port("sink0", "in").unwrap();
    let server = server_fw.serve_tcp_mux("127.0.0.1:0").unwrap();
    let addr = server.local_addr().to_string();

    let client_fw = Framework::new(Repository::new());
    client_fw
        .add_instance("pump0", Arc::new(PipelineUser))
        .unwrap();
    client_fw
        .connect_remote_with(
            "pump0",
            "from",
            &addr,
            &source_key,
            RemoteTransportKind::Mux,
        )
        .unwrap();
    client_fw
        .connect_remote_with("pump0", "to", &addr, &sink_key, RemoteTransportKind::Mux)
        .unwrap();
    let services = client_fw.services("pump0").unwrap();
    let source = services
        .get_port("from")
        .unwrap()
        .dynamic()
        .unwrap()
        .clone();
    let sink = services.get_port("to").unwrap().dynamic().unwrap().clone();

    // Trace only the pump loop: one `pump.step` root per iteration.
    cca::obs::drain();
    cca::obs::set_tracing(true);
    let mut total = 0.0;
    for _ in 0..10 {
        let _step = cca::obs::span("pump.step");
        let v = source.invoke("next", vec![]).unwrap().as_double().unwrap();
        total = sink
            .invoke("push", vec![DynValue::Double(v)])
            .unwrap()
            .as_double()
            .unwrap();
    }
    cca::obs::set_tracing(false);
    // Shut down first: workers joined, dispatch spans all committed.
    server.shutdown();
    assert_eq!(total, 55.0);
    assert_eq!(server.dispatched(), 20);

    let events = cca::obs::drain();
    let by_span: HashMap<u64, &TraceEvent> = events
        .iter()
        .filter(|e| e.span_id != 0)
        .map(|e| (e.span_id, e))
        .collect();
    let submit_ids: Vec<u64> = events
        .iter()
        .filter(|e| e.name() == "rpc.mux.submit")
        .map(|e| e.span_id)
        .collect();
    let dispatches: Vec<&TraceEvent> = events
        .iter()
        .filter(|e| e.name() == "rpc.dispatch")
        .collect();
    assert_eq!(dispatches.len(), 20, "one dispatch span per round trip");

    for dispatch in &dispatches {
        assert_ne!(dispatch.trace_id, 0, "dispatch joined a trace");
        assert!(
            submit_ids.contains(&dispatch.parent_id),
            "dispatch must parent to a client submit span, got parent {:016x}",
            dispatch.parent_id
        );
        // Walk the parent links all the way up: the chain must stay in
        // one trace and end at the pump.step root on the client side.
        let mut cursor = **dispatch;
        let mut chain = vec![cursor.name().to_string()];
        while cursor.parent_id != 0 {
            cursor = **by_span
                .get(&cursor.parent_id)
                .expect("every parent link lands on a recorded span");
            assert_eq!(cursor.trace_id, dispatch.trace_id, "one trace end to end");
            chain.push(cursor.name().to_string());
        }
        assert_eq!(
            chain.last().map(String::as_str),
            Some("pump.step"),
            "chain {chain:?} must root at the client step"
        );
    }

    // The two sides merge into one Perfetto document: dispatch spans were
    // recorded on the server's worker threads, everything else on the
    // client — exactly what two processes would each have drained.
    let (server_events, client_events): (Vec<TraceEvent>, Vec<TraceEvent>) = events
        .iter()
        .copied()
        .partition(|e| e.name() == "rpc.dispatch");
    let client_jsonl = cca::obs::to_jsonl(&client_events);
    let server_jsonl = cca::obs::to_jsonl(&server_events);
    let merged =
        cca::obs::merge_chrome_trace(&[("client", &client_jsonl), ("server", &server_jsonl)]);
    assert!(merged.contains("\"name\":\"process_name\""));
    assert!(merged.contains("\"name\":\"client\""));
    assert!(merged.contains("\"name\":\"server\""));
    assert!(
        merged.contains("\"ph\":\"s\"") && merged.contains("\"ph\":\"f\""),
        "cross-process parent links must become flow arrows: {merged}"
    );

    // Leave the merged timeline behind for the CI fault-matrix job (same
    // forensic convention as the fault_trace_*.jsonl artifacts).
    let dir = std::path::Path::new("target");
    if dir.is_dir() {
        let _ = std::fs::write(dir.join("wire_trace_merged.json"), merged);
    }
}

// ---------------------------------------------------------------------
// The black box: a seeded mid-call drop leaves flight evidence on disk.
// ---------------------------------------------------------------------

/// With the flight recorder armed, a seeded mid-call drop that trips the
/// breaker must leave JSONL incident files holding the quarantine event
/// (from the framework's breaker observer) and the connection failure
/// (from the mux teardown, with transport metrics) — each carrying the
/// ring events that preceded the fault.
#[test]
fn mid_call_drop_leaves_a_flight_recording_with_the_quarantine() {
    let _serial = SERIAL.lock();
    let dir: PathBuf = std::env::temp_dir().join(format!("cca_wire_flight_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    cca::obs::flight::configure(Some(&dir), 16, 64);

    let (_server_fw, server, addr, key) = serve_doubler_mux();
    let seed = fault_seed_from_env();

    let client_fw = Framework::new(Repository::new());
    let rec = cca::core::event::RecordingListener::new();
    client_fw.add_listener(rec.clone());
    client_fw
        .add_instance("u0", Arc::new(RemoteConsumer))
        .unwrap();
    let services = client_fw.services("u0").unwrap();
    let clock = MockClock::new();
    let policy = CallPolicy::with_clock(clock.clone()).with_breaker(BreakerPolicy::new(2, 10_000));
    services.set_call_policy("in", Arc::new(policy)).unwrap();
    client_fw
        .connect_remote_with("u0", "in", &addr, &key, RemoteTransportKind::Mux)
        .unwrap();

    cca::obs::drain();
    cca::obs::set_tracing(true);
    let mut port = services.cached_port::<dyn DynObject>("in");
    fn call(p: &(dyn DynObject + 'static)) -> Result<DynValue, CcaError> {
        p.invoke("double", vec![DynValue::Long(21)])
            .map_err(CcaError::from)
    }

    // A healthy call first, so the ring holds the story leading up to
    // the fault, then a hostile server until the breaker opens.
    assert!(matches!(port.call(call).unwrap(), DynValue::Long(42)));
    server.set_fault_plan(seed, 1000);
    for _ in 0..2 {
        assert!(port.call(call).is_err());
    }
    cca::obs::set_tracing(false);
    cca::obs::drain();
    assert!(rec
        .events()
        .iter()
        .any(|e| matches!(e, ConfigEvent::ProviderQuarantined { .. })));

    // Disarm before shutdown so the teardown of this test's own sockets
    // cannot add incidents after we inventory the directory.
    cca::obs::flight::configure(None, 16, 64);
    server.shutdown();

    let mut quarantine_files = 0;
    let mut connection_files = 0;
    for entry in std::fs::read_dir(&dir).expect("flight dir exists") {
        let path = entry.unwrap().path();
        let text = std::fs::read_to_string(&path).unwrap();
        let header = text.lines().next().unwrap_or("");
        assert!(
            header.contains("\"schema\":\"cca-flight/1\""),
            "every incident starts with the flight header: {header}"
        );
        if header.contains("\"kind\":\"ProviderQuarantined\"") {
            quarantine_files += 1;
            assert!(
                text.lines().count() > 1,
                "the quarantine incident must carry the preceding ring events"
            );
            assert!(
                text.contains("\"name\":\"rpc.mux"),
                "ring events must include the call path that led to the fault: {text}"
            );
        }
        if header.contains("\"kind\":\"ConnectionFailure\"") {
            connection_files += 1;
            assert!(header.contains("tcp+mux://"), "{header}");
            assert!(
                header.contains("\"metrics\":{"),
                "mux teardown attaches its transport metrics: {header}"
            );
        }
    }
    assert!(quarantine_files >= 1, "quarantine incident recorded");
    assert!(connection_files >= 1, "connection failure recorded");
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// The scrape plane, over the same wire it observes.
// ---------------------------------------------------------------------

/// A remote collector dials the exported `MonitorPort` through a plain
/// `MuxTransport` + `ObjRef` — no framework on the client side at all —
/// reads the live wiring and call counts, scrapes a snapshot and the live
/// trace ring, and flips tracing off across the network.
#[test]
fn monitor_port_scrapes_over_mux() {
    let _serial = SERIAL.lock();

    let server_fw = Framework::new(Repository::new());
    server_fw
        .add_instance("provider0", Arc::new(DoublerProvider))
        .unwrap();
    server_fw
        .add_instance("consumer0", Arc::new(RemoteConsumer))
        .unwrap();
    server_fw
        .connect("consumer0", "in", "provider0", "out")
        .unwrap();
    server_fw.install_monitor().unwrap();
    let server = server_fw.serve_tcp_mux("127.0.0.1:0").unwrap();
    let addr = server.local_addr().to_string();

    // Counted in-process traffic for the remote `callCount` to observe.
    cca::obs::set_counters(true);
    let services = server_fw.services("consumer0").unwrap();
    for k in 0..3 {
        let port: Arc<dyn DynObject> = services.get_port_as("in").unwrap();
        port.invoke("double", vec![DynValue::Long(k)]).unwrap();
    }
    cca::obs::set_counters(false);

    cca::obs::drain();
    cca::obs::set_tracing(true);
    cca::obs::trace_instant("scrape-window");

    let transport = Arc::new(MuxTransport::new(addr));
    let objref = ObjRef::new(
        MONITOR_EXPORT_KEY,
        transport as Arc<dyn cca::rpc::Transport>,
    );

    let graph = objref.invoke("connectionGraph", vec![]).unwrap();
    let graph = graph.as_str().unwrap();
    assert!(graph.contains("\"user\":\"consumer0\""), "{graph}");
    assert!(graph.contains("\"provider\":\"provider0\""), "{graph}");
    let calls = objref
        .invoke(
            "callCount",
            vec![
                DynValue::Str("consumer0".into()),
                DynValue::Str("in".into()),
            ],
        )
        .unwrap();
    assert!(calls.as_long().unwrap() >= 3, "{calls:?}");
    assert!(objref
        .invoke(
            "callCount",
            vec![DynValue::Str("ghost".into()), DynValue::Str("in".into())],
        )
        .is_err());

    let snap = objref.invoke("snapshotJson", vec![]).unwrap();
    let snap = snap.as_str().unwrap();
    assert!(snap.contains("\"tracing\":true"), "{snap}");
    assert!(snap.contains("\"provider0\""), "{snap}");
    assert!(snap.contains("\"flight\":{\"enabled\":"), "{snap}");
    assert!(snap.contains("\"resilience\":{"), "{snap}");
    assert!(
        snap.contains("\"fleet\":{\"checkpoints_committed\":"),
        "{snap}"
    );

    let trace = objref.invoke("traceJsonl", vec![]).unwrap();
    assert!(
        trace.as_str().unwrap().contains("\"scrape-window\""),
        "the scrape sees the live ring"
    );
    // Non-consuming: a second scrape still sees the same event.
    let trace = objref.invoke("traceJsonl", vec![]).unwrap();
    assert!(trace.as_str().unwrap().contains("\"scrape-window\""));

    // Flip the tracer from across the network.
    let r = objref
        .invoke("setTracing", vec![DynValue::Bool(false)])
        .unwrap();
    assert!(matches!(r, DynValue::Void));
    assert!(!cca::obs::tracing_enabled());

    cca::obs::drain();
    server.shutdown();
}
