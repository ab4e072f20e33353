//! Acceptance check: the direct-connect steady state performs ZERO heap
//! allocations per call.
//!
//! Counts every allocation through a wrapping `#[global_allocator]` and
//! asserts the delta across the hot paths is exactly zero:
//!
//! * a uses-port fan-out (`get_ports` snapshot + `typed()` per listener) —
//!   the snapshot is a shared `Arc<[PortHandle]>` and `typed()` clones an
//!   `Arc`, so both are refcount bumps only;
//! * a steady-state `CachedPort::get` (one relaxed generation load);
//! * an uncached `get_port_as` success path (snapshot read + BTreeMap
//!   lookup + downcast — slower, but still allocation-free);
//! * the same `CachedPort::get` with per-port counters ON — the metrics
//!   record path (single-writer shard bump) must also be allocation-free,
//!   or "metrics-on" would silently change the steady state it observes;
//! * span creation with tracing OFF — the inert guard every instrumented
//!   framework operation constructs unconditionally;
//! * the full tracing-off trace plumbing a remote call executes
//!   (`span` + `current_context` + `install_context`) — exactly zero;
//! * the remote call path itself over both the pooled and the mux
//!   transport: a remote call allocates (payload vecs, frames), so the
//!   assertion is *equality* — the warmed per-loop allocation count must
//!   be deterministic, and turning tracing ON must not add a single
//!   allocation (rings are preallocated; context rides in the frame).
//!
//! The counter is process-wide, so nothing else may allocate while a
//! region is measured. The file therefore runs without libtest
//! (`harness = false`): [`main`] runs the checks one after another on the
//! main thread. Under libtest's parallel runner, the runner's own
//! threads spawn the next test and report the last one concurrently
//! with a measured region, and their allocations land in the same
//! counter. Every thread a check starts (servers, mux connections) is
//! joined before the check returns.

use cca_core::{CcaServices, PortHandle};
use cca_data::TypeMap;
use cca_rpc::transport::Dispatcher;
use cca_rpc::{MuxServer, MuxServerConfig, MuxTransport, ObjRef, Orb, TcpServer, TcpTransport};
use cca_sidl::{DynObject, DynValue, SidlError};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn alloc_count() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

trait EventPort: Send + Sync {
    fn notify(&self, value: u64);
}

struct Listener {
    seen: AtomicU64,
}

impl EventPort for Listener {
    fn notify(&self, value: u64) {
        self.seen.fetch_add(value, Ordering::Relaxed);
    }
}

fn wire_fanout(n: usize) -> Arc<CcaServices> {
    let user = CcaServices::new("emitter");
    user.register_uses_port("events", "test.EventPort", TypeMap::new())
        .unwrap();
    for i in 0..n {
        let provider = CcaServices::new(format!("listener{i}"));
        let obj: Arc<dyn EventPort> = Arc::new(Listener {
            seen: AtomicU64::new(0),
        });
        provider
            .add_provides_port(PortHandle::new("in", "test.EventPort", obj))
            .unwrap();
        user.connect_uses("events", provider.get_provides_port("in").unwrap())
            .unwrap();
    }
    user
}

fn fanout_multicast_allocates_nothing_per_call() {
    let user = wire_fanout(8);

    // Warm-up pass outside the measured region (first call may touch lazy
    // error formatting paths in a cold binary; it must not, but don't let
    // one-time effects mask a per-call regression either way).
    for h in user.get_ports("events").unwrap().iter() {
        let l: Arc<dyn EventPort> = h.typed().unwrap();
        l.notify(1);
    }

    let before = alloc_count();
    for _ in 0..1000 {
        for h in user.get_ports("events").unwrap().iter() {
            let l: Arc<dyn EventPort> = h.typed().unwrap();
            l.notify(1);
        }
    }
    let delta = alloc_count() - before;
    assert_eq!(
        delta, 0,
        "fan-out multicast must be allocation-free ({delta} allocations over 1000 calls)"
    );
}

fn cached_port_get_allocates_nothing_in_steady_state() {
    let user = wire_fanout(1);
    let mut cached = user.cached_port::<dyn EventPort>("events");
    cached.get().unwrap().notify(1); // first get resolves (may allocate)

    let before = alloc_count();
    for _ in 0..1000 {
        cached.get().unwrap().notify(1);
    }
    let delta = alloc_count() - before;
    assert_eq!(
        delta, 0,
        "steady-state CachedPort::get must be allocation-free ({delta} allocations over 1000 calls)"
    );
}

fn counters_on_cached_record_path_allocates_nothing() {
    let user = wire_fanout(1);
    let mut cached = user.cached_port::<dyn EventPort>("events");
    cca_obs::set_counters(true);
    // Prime under the counters-on state: first resolution registers the
    // call shard (one allocation, once per slot identity — allowed here).
    cached.get().unwrap().notify(1);
    let calls_before = user.port_metrics("events").unwrap().calls();

    let before = alloc_count();
    for _ in 0..1000 {
        cached.get().unwrap().notify(1);
    }
    let delta = alloc_count() - before;
    let counted = user.port_metrics("events").unwrap().calls() - calls_before;
    cca_obs::set_counters(false);
    assert_eq!(
        delta, 0,
        "counters-on CachedPort::get must be allocation-free ({delta} allocations over 1000 calls)"
    );
    // Prove the measured loop actually exercised the record path.
    assert_eq!(counted, 1000, "every call must be counted");
}

fn tracing_off_span_guard_allocates_nothing() {
    cca_obs::set_tracing(false);
    drop(cca_obs::span("alloc.warmup"));

    let before = alloc_count();
    for _ in 0..1000 {
        let _span = cca_obs::span("alloc.probe");
    }
    let delta = alloc_count() - before;
    assert_eq!(
        delta, 0,
        "tracing-off span guards must be allocation-free ({delta} allocations over 1000 spans)"
    );
}

fn tracing_off_remote_plumbing_allocates_nothing() {
    cca_obs::set_tracing(false);
    drop(cca_obs::span("alloc.warmup"));

    // The exact trace plumbing a remote call runs with tracing off: the
    // inert span guard, the context read the encoder performs, and the
    // inert install guard the server dispatch performs.
    let before = alloc_count();
    for _ in 0..1000 {
        let _span = cca_obs::span("alloc.probe");
        let ctx = cca_obs::current_context();
        let _guard = cca_obs::install_context(ctx);
    }
    let delta = alloc_count() - before;
    assert_eq!(
        delta, 0,
        "tracing-off remote trace plumbing must be allocation-free \
         ({delta} allocations over 1000 iterations)"
    );
}

struct Doubler;
impl DynObject for Doubler {
    fn sidl_type(&self) -> &str {
        "test.Doubler"
    }
    fn invoke(&self, method: &str, args: Vec<DynValue>) -> Result<DynValue, SidlError> {
        match method {
            "double" => Ok(DynValue::Long(2 * args[0].as_long()?)),
            other => Err(SidlError::invoke(format!("no method '{other}'"))),
        }
    }
}

fn remote_loop_allocs(objref: &ObjRef, n: i64) -> u64 {
    let before = alloc_count();
    for k in 0..n {
        let r = objref.invoke("double", vec![DynValue::Long(k)]).unwrap();
        assert!(matches!(r, DynValue::Long(v) if v == 2 * k));
    }
    alloc_count() - before
}

/// Remote calls allocate by nature (argument vecs, frames, replies), so
/// the check is equality, not zero: two warmed tracing-off loops must
/// allocate identically (the count is a deterministic function of the
/// call, not of time), and a tracing-on loop must match them exactly —
/// the span ring is preallocated and the wire context rides inside the
/// frame's existing single buffer.
fn assert_trace_plumbing_adds_no_allocations(label: &str, objref: &ObjRef) {
    // Warm both gates outside the measured region: pool dials, reply
    // buffers, and the per-thread trace rings (client and server side)
    // all come into existence here.
    cca_obs::set_tracing(false);
    remote_loop_allocs(objref, 200);
    cca_obs::set_tracing(true);
    remote_loop_allocs(objref, 200);
    cca_obs::set_tracing(false);

    let off_first = remote_loop_allocs(objref, 500);
    let off_second = remote_loop_allocs(objref, 500);
    cca_obs::set_tracing(true);
    let on = remote_loop_allocs(objref, 500);
    cca_obs::set_tracing(false);
    cca_obs::drain();

    assert_eq!(
        off_first, off_second,
        "{label}: warmed remote calls must allocate deterministically"
    );
    assert_eq!(
        on, off_first,
        "{label}: tracing must add zero allocations per remote call \
         (off={off_first}, on={on} over 500 calls)"
    );
}

fn remote_call_trace_plumbing_adds_no_allocations_pooled() {
    let orb = Orb::new();
    orb.register("doubler", Arc::new(Doubler));
    let server = TcpServer::bind("127.0.0.1:0", orb as Arc<dyn Dispatcher>).unwrap();
    // Pool of 1: a serial client reuses one warmed connection, keeping
    // the per-loop allocation count a pure function of the call.
    let transport = Arc::new(TcpTransport::new(server.local_addr().to_string()).with_pool_size(1));
    let objref = ObjRef::new("doubler", transport as Arc<dyn cca_rpc::Transport>);

    assert_trace_plumbing_adds_no_allocations("pooled", &objref);
    server.shutdown();
}

fn remote_call_trace_plumbing_adds_no_allocations_mux() {
    let orb = Orb::new();
    orb.register("doubler", Arc::new(Doubler));
    // One dispatch worker: the server-side ring warm-up is deterministic.
    let server = MuxServer::bind_with(
        "127.0.0.1:0",
        orb as Arc<dyn Dispatcher>,
        MuxServerConfig {
            dispatch_threads: 1,
            ..Default::default()
        },
    )
    .unwrap();
    let transport = Arc::new(MuxTransport::new(server.local_addr().to_string()));
    let objref = ObjRef::new("doubler", transport as Arc<dyn cca_rpc::Transport>);

    assert_trace_plumbing_adds_no_allocations("mux", &objref);
    server.shutdown();
}

fn steady_state_redistribution_allocates_nothing() {
    use cca_data::{DistArrayDesc, Distribution, RedistPlan};

    // A 4-rank → 3-rank block recoupling: every timestep re-runs the same
    // compiled plan over the same buffers.
    let src_desc = DistArrayDesc::new(&[96], Distribution::block_1d(4, 1).unwrap()).unwrap();
    let dst_desc = DistArrayDesc::new(&[96], Distribution::block_1d(3, 1).unwrap()).unwrap();
    let plan = RedistPlan::build(&src_desc, &dst_desc).unwrap();
    let compiled = plan.compile().unwrap();

    let src: Vec<Vec<f64>> = (0..4)
        .map(|r| {
            (0..src_desc.local_count(r).unwrap())
                .map(|i| i as f64)
                .collect()
        })
        .collect();
    let mut dst: Vec<Vec<f64>> = (0..3)
        .map(|r| vec![0.0; dst_desc.local_count(r).unwrap()])
        .collect();
    // One scratch per transfer pattern, reused every timestep: pack_into
    // reserves capacity on the first (warm-up) pass, never again.
    let mut scratch: Vec<f64> = Vec::new();

    // Warm-up timestep: scratch capacity and any lazy setup happen here.
    compiled.apply_into(&src, &mut dst).unwrap();
    for t in compiled.transfers() {
        t.pack_into(&src[t.src_rank], &mut scratch);
    }

    let before = alloc_count();
    for _ in 0..1000 {
        compiled.apply_into(&src, &mut dst).unwrap();
        for t in compiled.transfers() {
            t.pack_into(&src[t.src_rank], &mut scratch);
        }
    }
    let delta = alloc_count() - before;
    assert_eq!(
        delta, 0,
        "steady-state redistribution (apply_into + pack_into reuse) must be \
         allocation-free ({delta} allocations over 1000 timesteps)"
    );
}

fn uncached_get_port_as_success_path_allocates_nothing() {
    let user = wire_fanout(1);
    let _warm: Arc<dyn EventPort> = user.get_port_as("events").unwrap();

    let before = alloc_count();
    for _ in 0..1000 {
        let p: Arc<dyn EventPort> = user.get_port_as("events").unwrap();
        p.notify(1);
    }
    let delta = alloc_count() - before;
    assert_eq!(
        delta, 0,
        "get_port_as success path must be allocation-free ({delta} allocations over 1000 calls)"
    );
}

/// Runs every check in order on the main thread and exits non-zero if any
/// fails. Harness arguments are ignored.
fn main() {
    macro_rules! checks {
        ($($check:ident),* $(,)?) => {
            [$((stringify!($check), $check as fn())),*]
        };
    }
    let checks = checks![
        fanout_multicast_allocates_nothing_per_call,
        cached_port_get_allocates_nothing_in_steady_state,
        counters_on_cached_record_path_allocates_nothing,
        tracing_off_span_guard_allocates_nothing,
        tracing_off_remote_plumbing_allocates_nothing,
        remote_call_trace_plumbing_adds_no_allocations_pooled,
        remote_call_trace_plumbing_adds_no_allocations_mux,
        steady_state_redistribution_allocates_nothing,
        uncached_get_port_as_success_path_allocates_nothing,
    ];
    let mut failed = 0;
    for (name, check) in checks {
        let ok = std::panic::catch_unwind(check).is_ok();
        println!("test {name} ... {}", if ok { "ok" } else { "FAILED" });
        failed += usize::from(!ok);
    }
    println!(
        "alloc_free: {} passed; {failed} failed",
        checks.len() - failed
    );
    if failed > 0 {
        std::process::exit(1);
    }
}
