//! E13 — multiplexed transport under massive logical concurrency, merged
//! into `BENCH_rpc.json`.
//!
//! PR-6's tentpole claim: request-id multiplexing decouples the number of
//! concurrent callers from the number of sockets. The pooled transport
//! (E12's configuration) dedicates one socket to one call for its full
//! round trip, so caller concurrency beyond the pool size just queues on
//! the checkout condvar. The mux pipelines every caller onto a handful of
//! connections and routes completions back by request id.
//!
//! Two configurations, same echo servant, same total call count:
//!
//! * **mux** — `logical_clients` calls in flight at once (submitted
//!   without waiting, in waves) through a `MuxTransport` capped at 8
//!   connections into a `MuxServer`;
//! * **pool** — thread-per-client: `pool_threads` OS threads sharing a
//!   `TcpTransport` pool of 8 sockets into a `TcpServer`.
//!
//! Quantities merged into `BENCH_rpc.json` (E12's keys are preserved):
//!
//! * `throughput_calls_per_sec` — mux calls completed per second;
//! * `p99_ns` — mux submit-to-completion latency, 99th percentile,
//!   measured at delivery time inside the transport;
//! * `pool_throughput_calls_per_sec` — the thread-per-connection baseline;
//! * `mux_sockets` / `logical_clients` / `peak_in_flight` — the shape of
//!   the run backing the headline claim.
//!
//! Acceptance: the logical clients ride on at most 8 sockets (dial count
//! is the proof), and mux throughput beats the pool baseline at this
//! concurrency.

use cca_bench::{extract_num, write_atomic};
use cca_rpc::transport::Dispatcher;
use cca_rpc::{MuxServer, MuxTransport, ObjRef, Orb, TcpServer, TcpTransport, Transport};
use cca_sidl::{DynObject, DynValue, SidlError};
use std::sync::{Arc, Barrier};
use std::time::Instant;

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
    // Shape: in full mode 10,000 logically concurrent calls share 8
    // sockets, and the pool baseline runs 1,024 real threads; fast mode
    // scales everything down an order of magnitude for the CI gate.
    let mux_sockets: usize = 8;
    let submit_threads: usize = if fast { 8 } else { 16 };
    let inflight_per_thread: usize = if fast { 125 } else { 625 };
    let logical_clients = submit_threads * inflight_per_thread;
    let waves: usize = if fast { 4 } else { 10 };
    let total_calls = logical_clients * waves;
    let pool_threads: usize = if fast { 256 } else { 1024 };
    let pool_calls_per_thread = total_calls.div_ceil(pool_threads);

    cca_obs::set_tracing(false);
    cca_obs::set_counters(false);

    // --- mux: waves of pipelined submits over a fixed socket budget ------
    let orb = Orb::new();
    orb.register("echo", Arc::new(Echo));
    let mux_server = MuxServer::bind("127.0.0.1:0", Arc::clone(&orb) as Arc<dyn Dispatcher>)
        .expect("bind mux server");
    let mux = Arc::new(
        MuxTransport::new(mux_server.local_addr().to_string()).with_connections(mux_sockets),
    );
    let request = {
        let objref = ObjRef::new("echo", Arc::clone(&mux) as Arc<dyn Transport>);
        // Warm up: dial every connection, settle the event loop.
        for i in 0..200 {
            objref
                .invoke("echo", vec![DynValue::Double(i as f64)])
                .unwrap();
        }
        cca_rpc::encode_request(&cca_rpc::Request {
            request_id: 0,
            object_key: "echo".to_string(),
            operation: "echo".to_string(),
            args: vec![DynValue::Double(1.0)],
        })
        .unwrap()
    };

    let gate = Arc::new(Barrier::new(submit_threads + 1));
    let workers: Vec<_> = (0..submit_threads)
        .map(|_| {
            let mux = Arc::clone(&mux);
            let gate = Arc::clone(&gate);
            let request = request.clone();
            std::thread::spawn(move || {
                let mut latencies = Vec::with_capacity(inflight_per_thread * waves);
                gate.wait();
                for _ in 0..waves {
                    // One wave: every logical client submits before anyone
                    // waits — the in-flight window is the whole wave.
                    let pending: Vec<_> = (0..inflight_per_thread)
                        .map(|_| mux.submit(request.clone()).expect("submit"))
                        .collect();
                    for p in pending {
                        let (_, latency) = p.wait_timed().expect("mux call");
                        latencies.push(latency.as_nanos() as u64);
                    }
                }
                latencies
            })
        })
        .collect();
    gate.wait();
    let mux_start = Instant::now();
    let mut latencies: Vec<u64> = Vec::with_capacity(total_calls);
    for worker in workers {
        latencies.extend(worker.join().expect("mux worker"));
    }
    let mux_elapsed = mux_start.elapsed();
    let mux_throughput = total_calls as f64 / mux_elapsed.as_secs_f64();
    latencies.sort_unstable();
    let p99 = latencies[(latencies.len() - 1) * 99 / 100] as f64;
    let dials = mux.metrics().dials();
    let peak_in_flight = mux.mux_metrics().peak_in_flight();
    mux_server.shutdown();

    // --- pool baseline: thread-per-client over the same socket budget ----
    let orb = Orb::new();
    orb.register("echo", Arc::new(Echo));
    let tcp_server = TcpServer::bind("127.0.0.1:0", Arc::clone(&orb) as Arc<dyn Dispatcher>)
        .expect("bind tcp server");
    let pool = Arc::new(
        TcpTransport::new(tcp_server.local_addr().to_string()).with_pool_size(mux_sockets),
    );
    {
        // Warm up: fill the pool.
        let objref = ObjRef::new("echo", Arc::clone(&pool) as Arc<dyn Transport>);
        for i in 0..200 {
            objref
                .invoke("echo", vec![DynValue::Double(i as f64)])
                .unwrap();
        }
    }
    let gate = Arc::new(Barrier::new(pool_threads + 1));
    let clients: Vec<_> = (0..pool_threads)
        .map(|_| {
            let pool = Arc::clone(&pool);
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || {
                let objref = ObjRef::new("echo", Arc::clone(&pool) as Arc<dyn Transport>);
                gate.wait();
                for i in 0..pool_calls_per_thread {
                    objref
                        .invoke("echo", vec![DynValue::Double(i as f64)])
                        .unwrap();
                }
            })
        })
        .collect();
    gate.wait();
    let pool_start = Instant::now();
    for client in clients {
        client.join().expect("pool client");
    }
    let pool_elapsed = pool_start.elapsed();
    let pool_total = pool_threads * pool_calls_per_thread;
    let pool_throughput = pool_total as f64 / pool_elapsed.as_secs_f64();
    tcp_server.shutdown();

    // --- report ----------------------------------------------------------
    println!(
        "e13_mux_throughput/mux            {mux_throughput:>12.0} calls/s  \
         ({total_calls} calls, {logical_clients} logical clients, {dials} sockets)"
    );
    println!("e13_mux_throughput/mux_p99        {p99:>12.0} ns/call");
    println!("e13_mux_throughput/peak_in_flight {peak_in_flight:>12} calls");
    println!(
        "e13_mux_throughput/pool           {pool_throughput:>12.0} calls/s  \
         ({pool_total} calls, {pool_threads} threads, pool of {mux_sockets})"
    );

    // --- merge into BENCH_rpc.json (E12's keys survive) ------------------
    let out = std::env::var("BENCH_RPC_OUT").unwrap_or_else(|_| "BENCH_rpc.json".to_string());
    let existing = std::fs::read_to_string(&out).unwrap_or_default();
    let mut fields = vec![
        ("calls".to_string(), extract_num(&existing, "calls")),
        (
            "roundtrip_median_ns".to_string(),
            extract_num(&existing, "roundtrip_median_ns"),
        ),
        (
            "roundtrip_p90_ns".to_string(),
            extract_num(&existing, "roundtrip_p90_ns"),
        ),
        (
            "roundtrip_min_ns".to_string(),
            extract_num(&existing, "roundtrip_min_ns"),
        ),
        (
            "loopback_orb_ns".to_string(),
            extract_num(&existing, "loopback_orb_ns"),
        ),
        (
            "frame_encode_ns".to_string(),
            extract_num(&existing, "frame_encode_ns"),
        ),
    ];
    fields.extend([
        ("mux_calls".to_string(), Some(total_calls as f64)),
        ("logical_clients".to_string(), Some(logical_clients as f64)),
        ("mux_sockets".to_string(), Some(dials as f64)),
        ("peak_in_flight".to_string(), Some(peak_in_flight as f64)),
        ("throughput_calls_per_sec".to_string(), Some(mux_throughput)),
        ("p99_ns".to_string(), Some(p99)),
        (
            "pool_throughput_calls_per_sec".to_string(),
            Some(pool_throughput),
        ),
    ]);
    let mut json = String::from(
        "{\n  \"schema\": \"cca-bench/1\",\n  \"experiment\": \"e12_remote_rpc+e13_mux_throughput\",\n",
    );
    for (key, value) in fields.iter().filter_map(|(k, v)| v.map(|v| (k, v))) {
        json.push_str(&format!("  \"{key}\": {value:.3},\n"));
    }
    json.truncate(json.trim_end_matches(",\n").len());
    json.push_str("\n}\n");
    write_atomic(&out, &json);
    println!("wrote {out}");

    // --- acceptance gates ------------------------------------------------
    assert!(
        dials as usize <= mux_sockets,
        "acceptance: {logical_clients} logical clients must share at most \
         {mux_sockets} sockets (dialed {dials})"
    );
    assert!(
        !fast || logical_clients >= 1_000,
        "fast mode must still drive >=1,000 logical clients"
    );
    assert!(
        fast || logical_clients >= 10_000,
        "full mode must drive >=10,000 logical clients"
    );
    assert!(
        mux_throughput > pool_throughput,
        "acceptance: multiplexing must beat the thread-per-connection pool \
         at {pool_threads}-way concurrency (mux {mux_throughput:.0} vs pool \
         {pool_throughput:.0} calls/s)"
    );
}
