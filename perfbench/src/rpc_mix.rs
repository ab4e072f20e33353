//! `rpc_mix`: remote component calls over `tcp+mux://`, in three phases.
//!
//! * **serial** — one caller drives a framework uses port connected with
//!   `connect_remote_with(.., RemoteTransportKind::Mux)`; 90% of calls
//!   echo one double, 10% a 1024-double array, each after a short seeded
//!   think time.
//! * **window** — one thread keeps `WINDOW` `MuxTransport::submit` calls
//!   in flight over `CONNS` connections.
//! * **bulk** — back-to-back 2→3 M×N redistributions of a `BULK_BYTES`
//!   f64 array through `BulkRedistSender::send_pipelined` into a
//!   `BulkLandingZone` on the same `MuxServer`, beside an open-loop probe
//!   that sends small calls at `PROBE_HZ`, timed from when each was due.
//!
//! A run is `ROUNDS` set-ups, each measured on `CYCLES` fresh wires.
//! Every echo is compared with what was sent, and every landing is
//! compared byte for byte with the in-process `apply_into` result.

use crate::stats::{block_rates, list, Rng, Samples, Tail};
use crate::trace::Recorder;
use crate::{Metric, Outcome};
use bytes::Bytes;
use cca_core::{CachedPort, CcaError, CcaServices, Component};
use cca_data::{CompiledPlan, DistArrayDesc, Distribution, NdArray, RedistPlan, TypeMap};
use cca_framework::{BulkLandingZone, BulkRedistSender, Framework, RemoteTransportKind};
use cca_repository::Repository;
use cca_rpc::transport::Dispatcher;
use cca_rpc::{
    decode_reply, encode_request, BulkChannel, BulkSink, MuxServer, MuxServerConfig, MuxTransport,
    ObjRef, Orb, PendingReply, Request, Transport,
};
use cca_sidl::{DynObject, DynValue, SidlError};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

const ARRAY_SHARE: f64 = 0.10;
/// The serial caller sleeps a seeded 0..THINK_MAX_US µs before each call.
const THINK_MAX_US: usize = 250;
const ARRAY_LEN: usize = 1024;
const WINDOW: usize = 64;
/// Client connections for the window and bulk phases (= nproc).
const CONNS: usize = 2;
const BULK_BYTES: usize = 128 << 20;
const SRC_RANKS: usize = 2;
const DST_RANKS: usize = 3;
const CHUNK_BYTES: usize = 1 << 20;
const BULK_WINDOW: usize = 8;
const GENERATION: u64 = 11;
const PROBE_HZ: f64 = 500.0;
/// Window-phase throughput is the median rate over blocks of this many
/// completions.
const RATE_BLOCK: usize = 2_000;
/// Each round compiles the plan and builds a wire (timed together as one
/// set-up); each of its cycles measures on a fresh wire — a new server,
/// connections and threads — so one run samples many thread placements.
/// Call latency on this transport moves by tens of percent between wire
/// instances, so per-instance noise is averaged inside a run.
const ROUNDS: usize = 3;
const CYCLES: usize = 6;
/// Shares of a cycle: the serial phase feeds `op_p50_us`, the window
/// phase `ops_per_s`, and the bulk phase only per-layer metrics.
const SERIAL_SHARE: f64 = 0.4;
const WINDOW_SHARE: f64 = 0.3;
const BULK_SHARE: f64 = 0.3;
/// Calls in the traced run's call-anatomy pass, per path.
const ANATOMY_CALLS: usize = 2_000;

/// One array per rank.
type Arrays = Vec<Vec<f64>>;

struct Echo;

impl DynObject for Echo {
    fn sidl_type(&self) -> &str {
        "perfbench.Echo"
    }
    fn invoke(&self, method: &str, args: Vec<DynValue>) -> Result<DynValue, SidlError> {
        match method {
            "echo" => Ok(args.into_iter().next().unwrap_or(DynValue::Void)),
            other => Err(SidlError::invoke(format!("no method '{other}'"))),
        }
    }
}

/// The server's dispatcher: the ORB, timed. The request id is the first
/// eight bytes of an encoded request, so server spans join the client
/// spans of calls whose id the benchmark chose.
struct TimedDispatcher {
    orb: Arc<Orb>,
    rec: Arc<Recorder>,
}

impl Dispatcher for TimedDispatcher {
    fn dispatch(&self, request: Bytes) -> Result<Bytes, SidlError> {
        let req = match request.get(..8) {
            Some(id) if self.rec.on() => u64::from_le_bytes(id.try_into().expect("8 bytes")),
            _ => 0,
        };
        let s = self.rec.start();
        let reply = self.orb.dispatch(request);
        self.rec.end(s, "rpc.server_dispatch", 0, req);
        reply
    }
}

struct Caller;

impl Component for Caller {
    fn component_type(&self) -> &str {
        "perfbench.Caller"
    }
    fn set_services(&self, services: Arc<CcaServices>) -> Result<(), CcaError> {
        services.register_uses_port("echo", "perfbench.Echo", TypeMap::new())
    }
}

/// The redistribution side of set-up: the compiled 2→3 plan, the landing
/// zone and one sender per source rank.
struct Plan {
    compiled: Arc<CompiledPlan>,
    zone: Arc<BulkLandingZone<f64>>,
    senders: Vec<BulkRedistSender<f64>>,
}

/// The wire side of set-up: the server with the landing zone installed,
/// the framework's remote uses port, and the benchmark's own transports.
struct Wire {
    server: Arc<MuxServer>,
    _fw: Arc<Framework>,
    port: CachedPort<dyn DynObject>,
    window: Arc<MuxTransport>,
    bare: Arc<MuxTransport>,
    bare_ref: Arc<ObjRef>,
    probe: Arc<MuxTransport>,
    bulk: Arc<MuxTransport>,
    channel: Arc<BulkChannel>,
}

fn echo_request(req: u64, arg: DynValue) -> Request {
    Request {
        request_id: req,
        object_key: "echo".into(),
        operation: "echo".into(),
        args: vec![arg],
    }
}

fn build_plan(rec: &Recorder) -> Plan {
    let s = rec.start();
    let elements = BULK_BYTES / 8;
    let src = DistArrayDesc::new(
        &[elements],
        Distribution::block_1d(SRC_RANKS, 1).expect("src dist"),
    )
    .expect("src desc");
    let dst = DistArrayDesc::new(
        &[elements],
        Distribution::block_1d(DST_RANKS, 1).expect("dst dist"),
    )
    .expect("dst desc");
    let compiled = Arc::new(
        RedistPlan::build(&src, &dst)
            .expect("plan")
            .compile()
            .expect("compile"),
    );
    rec.end(s, "data.plan_compile", 0, 0);
    let zone = BulkLandingZone::<f64>::new(Arc::clone(&compiled), GENERATION, CHUNK_BYTES);
    let senders = (0..SRC_RANKS)
        .map(|r| BulkRedistSender::new(Arc::clone(&compiled), GENERATION, CHUNK_BYTES, r))
        .collect();
    Plan {
        compiled,
        zone,
        senders,
    }
}

fn build_wire(zone: &Arc<BulkLandingZone<f64>>, rec: &Arc<Recorder>) -> Wire {
    let orb = Orb::new();
    orb.register("echo", Arc::new(Echo));
    let dispatcher = Arc::new(TimedDispatcher {
        orb,
        rec: Arc::clone(rec),
    });
    let server = MuxServer::bind_with("127.0.0.1:0", dispatcher, MuxServerConfig::default())
        .expect("bind mux server");
    let addr = server.local_addr().to_string();

    let fw = Framework::new(Repository::new());
    fw.add_instance("caller", Arc::new(Caller))
        .expect("add caller");
    fw.connect_remote_with("caller", "echo", &addr, "echo", RemoteTransportKind::Mux)
        .expect("connect remote echo");
    let mut port = fw
        .services("caller")
        .expect("caller services")
        .cached_port::<dyn DynObject>("echo");
    port.call(|p| {
        p.invoke("echo", vec![DynValue::Double(0.0)])
            .map_err(CcaError::from)
    })
    .expect("warm uses-port call");

    let window = Arc::new(MuxTransport::new(addr.clone()).with_connections(CONNS));
    let bare = Arc::new(MuxTransport::new(addr.clone()).with_connections(1));
    let bare_ref = ObjRef::new("echo", Arc::clone(&bare) as Arc<dyn Transport>);
    let probe = Arc::new(MuxTransport::new(addr.clone()).with_connections(1));
    for t in [&window, &bare, &probe] {
        for _ in 0..t.connections() {
            let bytes = encode_request(&echo_request(0, DynValue::Double(0.0))).expect("encode");
            t.submit(bytes).and_then(|p| p.wait()).expect("warm call");
        }
    }

    server.set_bulk_sink(Arc::clone(zone) as Arc<dyn BulkSink>);
    let bulk = Arc::new(MuxTransport::new(addr).with_connections(CONNS));
    let channel = BulkChannel::new(Arc::clone(&bulk));
    Wire {
        server,
        _fw: fw,
        port,
        window,
        bare,
        bare_ref,
        probe,
        bulk,
        channel,
    }
}

fn same(a: &DynValue, b: &DynValue) -> bool {
    match (a, b) {
        (DynValue::Double(x), DynValue::Double(y)) => x.to_bits() == y.to_bits(),
        (DynValue::DoubleArray(x), DynValue::DoubleArray(y)) => {
            x.extents() == y.extents()
                && x.as_slice()
                    .iter()
                    .zip(y.as_slice())
                    .all(|(p, q)| p.to_bits() == q.to_bits())
        }
        _ => false,
    }
}

fn reply_value(bytes: Bytes) -> Option<DynValue> {
    decode_reply(bytes).ok()?.result.ok()
}

fn bits_equal(a: &[Vec<f64>], b: &[Vec<f64>]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
        })
}

#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn note(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

/// Think time before a serial call: without it each call would arrive a
/// fixed turnaround after the previous reply, phase-locked to the server's
/// timed park, and the median would track the caller's speed.
fn think(rng: &mut Rng) {
    std::thread::sleep(Duration::from_micros(rng.below(THINK_MAX_US) as u64));
}

fn serial_phase(
    wire: &mut Wire,
    rng: &mut Rng,
    until: Instant,
    rec: &Recorder,
    t: &mut Tally,
) -> Vec<f64> {
    let mut lat = Vec::new();
    let mut req = 0u64;
    while Instant::now() < until {
        req += 1;
        think(rng);
        let arg = if rng.unit() < ARRAY_SHARE {
            let v: Vec<f64> = (0..ARRAY_LEN).map(|_| rng.unit()).collect();
            DynValue::DoubleArray(NdArray::from_vec(&[ARRAY_LEN], v).expect("array arg"))
        } else {
            DynValue::Double(rng.unit())
        };
        let expected = arg.clone();
        let mut arg = Some(arg);
        let s = rec.start();
        let start = Instant::now();
        let r = wire.port.call(|p| {
            let a = arg
                .take()
                .expect("one attempt: no retry policy on the slot");
            p.invoke("echo", vec![a]).map_err(CcaError::from)
        });
        lat.push(start.elapsed().as_secs_f64() * 1e6);
        rec.end(s, "core.port_call", 0, req);
        t.note(matches!(&r, Ok(v) if same(v, &expected)));
    }
    lat
}

/// Traced runs only: the same echo through a bare `ObjRef`, then by hand
/// (encode, submit, wait) so each stage gets its own span and the
/// server's dispatch span can be subtracted from the wait.
struct Anatomy {
    objref_us: Vec<f64>,
    wait_us: Vec<f64>,
    dispatch_us: Vec<f64>,
    wire_queue_us: Vec<f64>,
}

fn anatomy(wire: &Wire, rng: &mut Rng, rec: &Recorder, t: &mut Tally) -> Anatomy {
    let mut objref_us = Vec::with_capacity(ANATOMY_CALLS);
    for _ in 0..ANATOMY_CALLS {
        let x = rng.unit();
        think(rng);
        let s = rec.start();
        let r = wire.bare_ref.invoke("echo", vec![DynValue::Double(x)]);
        objref_us.push(rec.end(s, "rpc.objref_invoke", 0, 0) as f64 / 1e3);
        t.note(matches!(r, Ok(DynValue::Double(y)) if y == x));
    }
    let base = 1u64 << 40;
    let mut waits: HashMap<u64, f64> = HashMap::new();
    for k in 0..ANATOMY_CALLS as u64 {
        let req = base + k;
        let x = rng.unit();
        think(rng);
        let call = rec.start();
        let s = rec.start();
        let bytes = encode_request(&echo_request(req, DynValue::Double(x))).expect("encode");
        rec.end(s, "rpc.encode", call.id, req);
        let s = rec.start();
        let pending = wire.bare.submit(bytes);
        rec.end(s, "rpc.submit", call.id, req);
        let s = rec.start();
        let r = pending.and_then(|p| p.wait_timed());
        rec.end(s, "rpc.wait", call.id, req);
        rec.end(call, "rpc.call", 0, req);
        let ok = match r {
            Ok((bytes, latency)) => {
                waits.insert(req, latency.as_secs_f64() * 1e6);
                matches!(reply_value(bytes), Some(DynValue::Double(y)) if y == x)
            }
            Err(_) => false,
        };
        t.note(ok);
    }
    let mut dispatch_us = Vec::new();
    let mut wire_queue_us = Vec::new();
    rec.with_spans(|spans| {
        for s in spans {
            if s.name == "rpc.server_dispatch" && s.req >= base {
                let d = s.dur_ns() as f64 / 1e3;
                dispatch_us.push(d);
                if let Some(w) = waits.get(&s.req) {
                    wire_queue_us.push(w - d);
                }
            }
        }
    });
    Anatomy {
        objref_us,
        wait_us: waits.into_values().collect(),
        dispatch_us,
        wire_queue_us,
    }
}

struct WindowOut {
    latency_us: Vec<f64>,
    /// Completion times, seconds from the phase start.
    done_s: Vec<f64>,
}

fn window_phase(
    wire: &Wire,
    rng: &mut Rng,
    until: Instant,
    rec: &Recorder,
    t: &mut Tally,
) -> WindowOut {
    let base = 1u64 << 48;
    let mut req = base;
    let mut queue: VecDeque<(Result<PendingReply, SidlError>, f64)> =
        VecDeque::with_capacity(WINDOW);
    let mut latency_us = Vec::new();
    let mut done_s = Vec::new();
    let start = Instant::now();
    loop {
        let open = Instant::now() < until;
        if open && queue.len() < WINDOW {
            req += 1;
            let x = rng.unit();
            let s = rec.start();
            let bytes = encode_request(&echo_request(req, DynValue::Double(x))).expect("encode");
            rec.end(s, "rpc.encode", 0, req);
            let s = rec.start();
            let pending = wire.window.submit(bytes);
            rec.end(s, "rpc.submit", 0, req);
            queue.push_back((pending, x));
            continue;
        }
        let Some((pending, x)) = queue.pop_front() else {
            break;
        };
        let ok = match pending.and_then(|p| p.wait_timed()) {
            Ok((bytes, latency)) => {
                latency_us.push(latency.as_secs_f64() * 1e6);
                done_s.push(start.elapsed().as_secs_f64());
                matches!(reply_value(bytes), Some(DynValue::Double(y)) if y == x)
            }
            Err(_) => false,
        };
        t.note(ok);
    }
    WindowOut { latency_us, done_s }
}

struct ProbeOut {
    from_due_us: Vec<f64>,
    wait_us: Vec<f64>,
    late_us: Vec<f64>,
    attempted: u64,
    failed: u64,
}

/// Open loop: call `k` is due at `start + k / PROBE_HZ` whatever the
/// earlier calls did, and is timed from that due time.
fn probe_loop(probe: &ObjRef, until: Instant) -> ProbeOut {
    let mut out = ProbeOut {
        from_due_us: Vec::new(),
        wait_us: Vec::new(),
        late_us: Vec::new(),
        attempted: 0,
        failed: 0,
    };
    let start = Instant::now();
    for k in 0u64.. {
        let due = start + Duration::from_secs_f64(k as f64 / PROBE_HZ);
        if due >= until {
            break;
        }
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        let sent = Instant::now();
        let r = probe.invoke("echo", vec![DynValue::Double(k as f64)]);
        let done = Instant::now();
        out.from_due_us.push((done - due).as_secs_f64() * 1e6);
        out.wait_us.push((done - sent).as_secs_f64() * 1e6);
        out.late_us
            .push(sent.saturating_duration_since(due).as_secs_f64() * 1e6);
        out.attempted += 1;
        if !matches!(r, Ok(DynValue::Double(y)) if y == k as f64) {
            out.failed += 1;
        }
    }
    out
}

struct BulkOut {
    wall: f64,
    passes: usize,
    send_ms: Vec<f64>,
    landing_ms: Vec<f64>,
    probe: ProbeOut,
}

/// One redistribution: every source rank streams its transfers, then the
/// zone is awaited. Returns whether it completed.
fn bulk_pass(
    plan: &mut Plan,
    wire: &Wire,
    src: &[Vec<f64>],
    rec: &Recorder,
    send_ms: &mut Vec<f64>,
    landing_ms: &mut Vec<f64>,
) -> bool {
    plan.zone.reset();
    for s in &mut plan.senders {
        s.reset();
    }
    let mut ok = true;
    for (rank, sender) in plan.senders.iter_mut().enumerate() {
        let s = rec.start();
        let t = Instant::now();
        ok &= sender
            .send_pipelined(&wire.channel, &src[rank], BULK_WINDOW)
            .is_ok();
        send_ms.push(t.elapsed().as_secs_f64() * 1e3);
        rec.end(s, "framework.bulk_send", 0, rank as u64);
    }
    let s = rec.start();
    let t = Instant::now();
    let give_up = t + Duration::from_secs(30);
    while !plan.zone.is_complete() {
        if Instant::now() > give_up {
            ok = false;
            break;
        }
        std::thread::yield_now();
    }
    landing_ms.push(t.elapsed().as_secs_f64() * 1e3);
    rec.end(s, "framework.landing_wait", 0, 0);
    ok
}

fn bulk_phase(
    plan: &mut Plan,
    wire: &Wire,
    src: &[Vec<f64>],
    reference: &[Vec<f64>],
    until: Instant,
    rec: &Recorder,
    t: &mut Tally,
) -> BulkOut {
    let (mut send_ms, mut landing_ms) = (Vec::new(), Vec::new());
    // Warm-up pass (untimed): touches the landing pages and the bulk
    // connections.
    let warm = bulk_pass(plan, wire, src, rec, &mut Vec::new(), &mut Vec::new());
    t.note(warm && plan.zone.with_buffers(|b| bits_equal(b, reference)));
    let probe_ref = ObjRef::new("echo", Arc::clone(&wire.probe) as Arc<dyn Transport>);
    let (wall, passes, probe) = std::thread::scope(|scope| {
        let prober = scope.spawn(|| probe_loop(&probe_ref, until));
        let mut wall = 0.0;
        let mut passes = 0;
        while Instant::now() < until {
            let start = Instant::now();
            let ok = bulk_pass(plan, wire, src, rec, &mut send_ms, &mut landing_ms);
            wall += start.elapsed().as_secs_f64();
            passes += 1;
            t.note(ok && plan.zone.with_buffers(|b| bits_equal(b, reference)));
        }
        (wall, passes, prober.join().expect("probe thread panicked"))
    });
    BulkOut {
        wall,
        passes,
        send_ms,
        landing_ms,
        probe,
    }
}

/// The seed's source array: every element a distinct function of the
/// seed, the rank and the local index.
fn source(compiled: &CompiledPlan, seed: u64) -> Vec<Vec<f64>> {
    (0..compiled.src_ranks())
        .map(|r| {
            let salt = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ ((r as u64) << 56);
            (0..compiled.src_count(r))
                .map(|i| ((i as u64 ^ salt) % (1 << 40)) as f64 * 0.5)
                .collect()
        })
        .collect()
}

/// Everything the timed phases of all rounds measured, pooled.
#[derive(Default)]
struct Pool {
    call_us: Vec<f64>,
    cycle_call_p50_us: Vec<f64>,
    window_us: Vec<f64>,
    window_rates: Vec<f64>,
    bulk_wall: f64,
    bulk_passes: usize,
    send_ms: Vec<f64>,
    landing_ms: Vec<f64>,
    probe_from_due_us: Vec<f64>,
    probe_wait_us: Vec<f64>,
    probe_late_us: Vec<f64>,
    dials: u64,
    peak_in_flight: u64,
    peak_bytes: usize,
}

/// One cycle: the timed phases on a fresh wire, in `secs`.
#[allow(clippy::too_many_arguments)]
fn measure(
    plan: &mut Plan,
    wire: &mut Wire,
    src: &[Vec<f64>],
    reference: &[Vec<f64>],
    secs: f64,
    rng: &mut Rng,
    rec: &Recorder,
    tally: &mut Tally,
    pool: &mut Pool,
) -> Option<Anatomy> {
    let phase = |share: f64| Instant::now() + Duration::from_secs_f64(secs * share);
    let serial_end = phase(SERIAL_SHARE);
    let calls = Samples::new(serial_phase(wire, rng, serial_end, rec, tally));
    pool.cycle_call_p50_us.push(calls.median());
    pool.call_us.extend(calls.values());
    let anatomy = (rec.on() && pool.bulk_passes == 0).then(|| anatomy(wire, rng, rec, tally));
    let win = window_phase(wire, rng, phase(WINDOW_SHARE), rec, tally);
    pool.window_rates
        .extend(block_rates(&win.done_s, RATE_BLOCK));
    pool.window_us.extend(win.latency_us);
    let bulk = bulk_phase(plan, wire, src, reference, phase(BULK_SHARE), rec, tally);
    pool.bulk_wall += bulk.wall;
    pool.bulk_passes += bulk.passes;
    pool.send_ms.extend(bulk.send_ms);
    pool.landing_ms.extend(bulk.landing_ms);
    tally.attempted += bulk.probe.attempted;
    tally.failed += bulk.probe.failed;
    pool.probe_from_due_us.extend(bulk.probe.from_due_us);
    pool.probe_wait_us.extend(bulk.probe.wait_us);
    pool.probe_late_us.extend(bulk.probe.late_us);
    pool.dials += [&wire.window, &wire.bare, &wire.probe, &wire.bulk]
        .iter()
        .map(|t| t.metrics().dials())
        .sum::<u64>();
    pool.peak_in_flight = pool
        .peak_in_flight
        .max(wire.window.mux_metrics().peak_in_flight());
    for s in &plan.senders {
        pool.peak_bytes = pool.peak_bytes.max(s.peak_buffer_bytes());
    }
    anatomy
}

pub fn run(seed: u64, seconds: f64, tail: Tail, rec: &Arc<Recorder>) -> Outcome {
    let mut rng = Rng::new(seed);
    let mut setups = Vec::new();
    let mut tally = Tally::default();
    let mut pool = Pool::default();
    // (source arrays, in-process `apply_into` result), made once per run.
    let mut inputs: Option<(Arrays, Arrays)> = None;
    let mut apply_gbps = 0.0;
    let mut anatomy_out = None;
    // VmHWM after the first wire's timed phases (see `Outcome::peak_rss_mb`).
    let mut first_hwm_mb = None;
    for _ in 0..ROUNDS {
        let t = Instant::now();
        let mut plan = build_plan(rec);
        let mut wire = build_wire(&plan.zone, rec);
        setups.push(t.elapsed().as_secs_f64());
        let (src, reference) = inputs.get_or_insert_with(|| {
            let src = source(&plan.compiled, seed);
            let mut reference: Vec<Vec<f64>> = (0..plan.compiled.dst_ranks())
                .map(|r| vec![0.0; plan.compiled.dst_count(r)])
                .collect();
            // The first pass faults the reference pages in; the second is
            // timed.
            for pass in 0..2 {
                let t = Instant::now();
                plan.compiled
                    .apply_into(&src, &mut reference)
                    .expect("in-process apply_into");
                if pass == 1 {
                    apply_gbps = BULK_BYTES as f64 / t.elapsed().as_secs_f64() / 1e9;
                }
            }
            (src, reference)
        });
        let secs = seconds / (ROUNDS * CYCLES) as f64;
        for cycle in 0..CYCLES {
            if cycle > 0 {
                wire.server.shutdown();
                wire = build_wire(&plan.zone, rec);
            }
            let a = measure(
                &mut plan, &mut wire, src, reference, secs, &mut rng, rec, &mut tally, &mut pool,
            );
            anatomy_out = anatomy_out.or(a);
            first_hwm_mb.get_or_insert_with(crate::host::peak_rss_mb);
        }
        wire.server.shutdown();
    }
    let peak_rss_mb = first_hwm_mb.expect("at least one cycle");
    let plan_ms = Samples::new(rec.durations_us("data.plan_compile"));

    let call_us = Samples::new(pool.call_us);
    let call_p50_us = Samples::new(pool.cycle_call_p50_us.clone()).median();
    let window_us = Samples::new(pool.window_us);
    let calls_per_s = Samples::new(pool.window_rates).median();
    let mxn_gbps = (pool.bulk_passes * BULK_BYTES) as f64 / pool.bulk_wall / 1e9;
    let probe_us = Samples::new(pool.probe_from_due_us);
    let probe_late = Samples::new(pool.probe_late_us);
    let named = vec![
        Metric::new("call_p50_us", call_p50_us, "us", call_us.len()),
        Metric::new(
            "call_tail_us",
            call_us.quantile(tail.q()),
            "us",
            call_us.len(),
        ),
        Metric::new("calls_per_s", calls_per_s, "1/s", window_us.len()),
        Metric::new(
            "window_tail_us",
            window_us.quantile(tail.q()),
            "us",
            window_us.len(),
        ),
        Metric::new("mxn_gbps", mxn_gbps, "GB/s", pool.bulk_passes),
        Metric::new(
            "probe_tail_us",
            probe_us.quantile(tail.q()),
            "us",
            probe_us.len(),
        ),
    ];
    let mut checks = vec![
        format!("call p50 per wire, us: {}", list(&pool.cycle_call_p50_us)),
        format!(
            "echoes and landings checked: {} of {} failed",
            tally.failed, tally.attempted
        ),
        format!(
            "probe generator lateness {}: {:.1} us (p50 {:.1} us, n={})",
            tail.label(),
            probe_late.quantile(tail.q()),
            probe_late.median(),
            probe_late.len()
        ),
    ];

    let mut layers = Vec::new();
    if let Some(a) = anatomy_out {
        let span_us = |name: &str| Samples::new(rec.durations_us(name));
        let port = span_us("core.port_call");
        let encode = span_us("rpc.encode");
        let submit = span_us("rpc.submit");
        let objref = Samples::new(a.objref_us);
        let wait = Samples::new(a.wait_us);
        let dispatch = Samples::new(a.dispatch_us);
        let queue = Samples::new(a.wire_queue_us);
        let send = Samples::new(pool.send_ms);
        let land = Samples::new(pool.landing_ms);
        let probe_wait = Samples::new(pool.probe_wait_us);
        layers.extend([
            Metric::new("core.port_call_us", port.median(), "us", port.len()),
            Metric::new("rpc.objref_invoke_us", objref.median(), "us", objref.len()),
            Metric::new("rpc.encode_ns", encode.median() * 1e3, "ns", encode.len()),
            Metric::new("rpc.submit_ns", submit.median() * 1e3, "ns", submit.len()),
            Metric::new("rpc.wait_us", wait.median(), "us", wait.len()),
            Metric::new(
                "rpc.server_dispatch_us",
                dispatch.median(),
                "us",
                dispatch.len(),
            ),
            Metric::new("rpc.wire_queue_us", queue.median(), "us", queue.len()),
            Metric::new("rpc.dials", pool.dials as f64, "count", ROUNDS),
            Metric::new(
                "rpc.peak_in_flight",
                pool.peak_in_flight as f64,
                "count",
                ROUNDS,
            ),
            Metric::new(
                "rpc.window_tail_us",
                window_us.quantile(tail.q()),
                "us",
                window_us.len(),
            ),
            Metric::new(
                "rpc.probe_wait_us",
                probe_wait.median(),
                "us",
                probe_wait.len(),
            ),
            Metric::new(
                "rpc.probe_tail_us",
                probe_us.quantile(tail.q()),
                "us",
                probe_us.len(),
            ),
            Metric::new(
                "data.plan_compile_ms",
                plan_ms.median() / 1e3,
                "ms",
                plan_ms.len(),
            ),
            Metric::new("data.apply_into_gbps", apply_gbps, "GB/s", 1),
            Metric::new("framework.bulk_send_ms", send.median(), "ms", send.len()),
            Metric::new("framework.landing_wait_ms", land.median(), "ms", land.len()),
            Metric::new(
                "framework.bulk_peak_bytes",
                pool.peak_bytes as f64,
                "bytes",
                ROUNDS,
            ),
            Metric::new("framework.mxn_gbps", mxn_gbps, "GB/s", pool.bulk_passes),
        ]);
        checks.push(format!(
            "port call {:.1} us vs bare ObjRef {:.1} us: core+framework gap {:.1} us",
            port.median(),
            objref.median(),
            port.median() - objref.median()
        ));
    }

    Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        shape: format!(
            "{ROUNDS} set-ups x {CYCLES} fresh wires, each: serial {:.0}% ({}% {ARRAY_LEN}-double arrays), window {:.0}% ({WINDOW} in flight over {CONNS} conns), bulk {:.0}% ({} MiB {SRC_RANKS}->{DST_RANKS} in {} KiB chunks x{BULK_WINDOW} + probe {PROBE_HZ}/s)",
            SERIAL_SHARE * 100.0,
            (ARRAY_SHARE * 100.0) as u32,
            WINDOW_SHARE * 100.0,
            BULK_SHARE * 100.0,
            BULK_BYTES >> 20,
            CHUNK_BYTES >> 10
        ),
        checks,
        setup_s: setups,
        op_us: call_us,
        op_p50_us: call_p50_us,
        ops_per_s: calls_per_s,
        ops_count: window_us.len(),
        peak_rss_mb,
        named,
        layers,
    }
}
