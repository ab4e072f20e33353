//! E12 — remote invocation over real sockets, recorded to `BENCH_rpc.json`.
//!
//! PR-5's tentpole claim: the TCP transport makes a port remote without
//! changing its shape, and a loopback round trip stays interactive. The
//! acceptance gate is on the **median** single-call latency — a network
//! path is gated on typical latency, not the L1-hot minimum the in-process
//! experiments use:
//!
//! * `roundtrip_median_ns` — one `ObjRef::invoke` through a pooled
//!   `TcpTransport` into a `TcpServer` on 127.0.0.1 (marshal → frame →
//!   socket → dispatch → frame → demarshal). Acceptance: < 100 µs;
//! * `roundtrip_p90_ns` / `roundtrip_min_ns` — spread of the same samples;
//! * `loopback_orb_ns` — the E3 in-process ORB configuration re-measured
//!   in this process: the marshal/dispatch cost floor without sockets, so
//!   the delta to the median is the price of the real network stack;
//! * `frame_encode_ns` — `encode_frame` of a typical request payload, the
//!   codec's own contribution to the round trip.

use cca_bench::{measure_min, write_atomic};
use cca_rpc::frame::{encode_frame, FrameKind, DEFAULT_MAX_PAYLOAD};
use cca_rpc::transport::Dispatcher;
use cca_rpc::{ObjRef, Orb, TcpServer, TcpTransport, Transport};
use cca_sidl::{DynObject, DynValue, SidlError};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Echo;

impl DynObject for Echo {
    fn sidl_type(&self) -> &str {
        "bench.Echo"
    }
    fn invoke(&self, method: &str, args: Vec<DynValue>) -> Result<DynValue, SidlError> {
        match method {
            "echo" => Ok(args.into_iter().next().unwrap_or(DynValue::Double(0.0))),
            other => Err(SidlError::invoke(format!("no method '{other}'"))),
        }
    }
}

fn main() {
    let fast = std::env::var_os("CCA_BENCH_FAST").is_some();
    let calls = if fast { 2_000 } else { 20_000 };
    let samples = if fast { 7 } else { 15 };
    let target = Duration::from_millis(if fast { 2 } else { 8 });

    cca_obs::set_tracing(false);
    cca_obs::set_counters(false);

    // --- the remote configuration: server + pooled client ---------------
    let orb = Orb::new();
    orb.register("echo", Arc::new(Echo));
    let server = TcpServer::bind("127.0.0.1:0", Arc::clone(&orb) as Arc<dyn Dispatcher>)
        .expect("bind ephemeral port");
    let transport = Arc::new(TcpTransport::new(server.local_addr().to_string()).with_pool_size(1));
    let remote = ObjRef::new("echo", Arc::clone(&transport) as Arc<dyn Transport>);

    // Warm up: dial, fill caches, settle the scheduler.
    for _ in 0..200 {
        remote.invoke("echo", vec![DynValue::Double(1.0)]).unwrap();
    }

    // Per-call samples for the distribution quantities.
    let mut roundtrips: Vec<u64> = (0..calls)
        .map(|i| {
            let start = Instant::now();
            black_box(
                remote
                    .invoke("echo", vec![DynValue::Double(i as f64)])
                    .unwrap(),
            );
            start.elapsed().as_nanos() as u64
        })
        .collect();
    roundtrips.sort_unstable();
    let median = roundtrips[roundtrips.len() / 2] as f64;
    let p90 = roundtrips[roundtrips.len() * 9 / 10] as f64;
    let min = roundtrips[0] as f64;

    // --- the in-process floor: same ORB, no sockets ----------------------
    let local = ObjRef::loopback("echo", orb);
    let loopback = measure_min(samples, target, || {
        local.invoke("echo", vec![DynValue::Double(1.0)]).unwrap()
    });

    // --- the codec's own contribution ------------------------------------
    let payload: Vec<u8> = (0..128u8).collect();
    let frame_encode = measure_min(samples, target, || {
        encode_frame(FrameKind::Request, 7, &payload, DEFAULT_MAX_PAYLOAD).unwrap()
    });

    server.shutdown();

    // --- report ----------------------------------------------------------
    println!("e12_remote_rpc/roundtrip_median   {median:>12.2} ns/call  ({calls} calls)");
    println!("e12_remote_rpc/roundtrip_p90      {p90:>12.2} ns/call");
    println!("e12_remote_rpc/roundtrip_min      {min:>12.2} ns/call");
    println!("e12_remote_rpc/loopback_orb       {loopback:>12.2} ns/iter");
    println!("e12_remote_rpc/frame_encode       {frame_encode:>12.2} ns/iter");

    let json = format!(
        concat!(
            "{{\n",
            "  \"schema\": \"cca-bench/1\",\n",
            "  \"experiment\": \"e12_remote_rpc\",\n",
            "  \"calls\": {},\n",
            "  \"roundtrip_median_ns\": {:.3},\n",
            "  \"roundtrip_p90_ns\": {:.3},\n",
            "  \"roundtrip_min_ns\": {:.3},\n",
            "  \"loopback_orb_ns\": {:.3},\n",
            "  \"frame_encode_ns\": {:.3}\n",
            "}}\n"
        ),
        calls, median, p90, min, loopback, frame_encode
    );
    let out = std::env::var("BENCH_RPC_OUT").unwrap_or_else(|_| "BENCH_rpc.json".to_string());
    write_atomic(&out, &json);
    println!("wrote {out}");

    // --- acceptance gate -------------------------------------------------
    assert!(
        median < 100_000.0,
        "acceptance: the loopback TCP round-trip median must stay under \
         100 us (measured {median:.0} ns)"
    );
}
