//! E14 — wire-tracing overhead gate, merged into `BENCH_obs.json`.
//!
//! PR 7 teaches the `CCAR` frame to carry a trace context. The claim to
//! defend: with tracing **off**, the new codec and the remote call path
//! cost what the PR-6 versions cost — the extension is zero bytes and the
//! only new work is one relaxed flag load. This bench pins that at two
//! layers:
//!
//! * `wire_pr6_encode_ns` — a verbatim transplant of the PR-6 v1
//!   `encode_frame` (20-byte header, no extension), rebuilt here so the
//!   baseline survives future refactors of the real codec;
//! * `wire_off_encode_ns` — the real v2 `encode_frame_with` fed by
//!   `current_context()` with tracing off, exactly what `MuxTransport`
//!   runs per call. Acceptance: ≤1.1× the PR-6 replica;
//! * `remote_call_off_ns` / `remote_call_on_ns` — a full mux round trip
//!   over a real socket with tracing off vs. on (on = three client spans,
//!   a 16-byte frame extension, and a parented server dispatch span).
//!   Acceptance: tracing on stays within 1.5× of off — causal tracing
//!   must be cheap enough to leave on while chasing a fault.
//!
//! Gated ratios run as alternating baseline/probe rounds and gate on the
//! minimum per-round ratio: the encode quantities differ by nanoseconds,
//! the minimum estimates the L1-hot floor, and interleaving keeps clock
//! or allocator drift between two long separate windows from failing the
//! gate — a genuinely slower probe is slower in *every* round.

use cca_bench::{extract_num, measure_min, measure_ratio, write_atomic};
use cca_rpc::frame::{encode_frame_with, FrameKind, DEFAULT_MAX_PAYLOAD};
use cca_rpc::transport::Dispatcher;
use cca_rpc::{MuxServer, MuxTransport, ObjRef, Orb, Transport};
use cca_sidl::{DynObject, DynValue, SidlError};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

struct Echo;
impl DynObject for Echo {
    fn sidl_type(&self) -> &str {
        "bench.Echo"
    }
    fn invoke(&self, method: &str, mut args: Vec<DynValue>) -> Result<DynValue, SidlError> {
        match method {
            "echo" => Ok(args.pop().unwrap_or(DynValue::Void)),
            other => Err(SidlError::invoke(format!("no method '{other}'"))),
        }
    }
}

/// PR-6's `encode_frame`, transplanted verbatim: 20-byte header with two
/// reserved zero bytes where v2 now carries flags and extension length.
/// This is the pre-tracing baseline the wire gate measures against.
fn pr6_encode_frame(kind: u8, request_id: u64, payload: &[u8], max_payload: u32) -> Vec<u8> {
    const PR6_MAGIC: [u8; 4] = *b"CCAR";
    const PR6_VERSION: u8 = 1;
    const PR6_HEADER_LEN: usize = 20;
    assert!(payload.len() <= max_payload as usize);
    let mut out = Vec::with_capacity(PR6_HEADER_LEN + payload.len());
    out.extend_from_slice(&PR6_MAGIC);
    out.push(PR6_VERSION);
    out.push(kind);
    out.extend_from_slice(&[0, 0]);
    out.extend_from_slice(&request_id.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

fn main() {
    let fast = std::env::var_os("CCA_BENCH_FAST").is_some();
    let samples = if fast { 7 } else { 15 };
    let target = Duration::from_millis(if fast { 2 } else { 8 });

    cca_obs::set_tracing(false);
    cca_obs::set_counters(false);
    cca_obs::drain();

    // --- codec layer: PR-6 replica vs v2 with tracing off ---------------
    // The probe is exactly the per-call encode work MuxTransport::submit
    // performs: read the current context (one relaxed load when tracing
    // is off), then encode.
    let payload: Vec<u8> = (0..64u8).collect();
    let (pr6_encode, off_encode, encode_ratio) = measure_ratio(
        samples,
        target,
        || pr6_encode_frame(0, black_box(42), black_box(&payload), DEFAULT_MAX_PAYLOAD),
        || {
            encode_frame_with(
                FrameKind::Request,
                black_box(42),
                black_box(&payload),
                DEFAULT_MAX_PAYLOAD,
                cca_obs::trace::current_context(),
            )
            .unwrap()
        },
    );
    // Informational: the same encode inside a live span (16-byte
    // extension on the wire). Not gated — tracing on is opt-in.
    cca_obs::set_tracing(true);
    let root = cca_obs::span("bench.e14.encode");
    let on_encode = measure_min(samples, target, || {
        encode_frame_with(
            FrameKind::Request,
            black_box(42),
            black_box(&payload),
            DEFAULT_MAX_PAYLOAD,
            cca_obs::trace::current_context(),
        )
        .unwrap()
    });
    drop(root);
    cca_obs::set_tracing(false);
    cca_obs::drain();

    // --- transport layer: a real mux round trip, off vs. on -------------
    let orb = Orb::new();
    orb.register("echo", Arc::new(Echo));
    let server = MuxServer::bind("127.0.0.1:0", orb as Arc<dyn Dispatcher>).expect("bind");
    let transport = Arc::new(MuxTransport::new(server.local_addr().to_string()));
    let objref = ObjRef::new("echo", transport as Arc<dyn Transport>);
    for i in 0..200 {
        objref
            .invoke("echo", vec![DynValue::Double(i as f64)])
            .unwrap();
    }
    // Alternating rounds again, flipping the tracing gate around the
    // probe so each round compares off and on under the same conditions.
    let rt_samples = if fast { 5 } else { 9 };
    let rt_target = Duration::from_millis(if fast { 10 } else { 40 });
    let (remote_off, remote_on, remote_ratio) = measure_ratio(
        rt_samples,
        rt_target,
        || {
            cca_obs::set_tracing(false);
            objref.invoke("echo", vec![DynValue::Double(1.0)]).unwrap()
        },
        || {
            cca_obs::set_tracing(true);
            objref.invoke("echo", vec![DynValue::Double(1.0)]).unwrap()
        },
    );
    cca_obs::set_tracing(false);
    let traced_events = cca_obs::drain().len();
    server.shutdown();

    // --- report ----------------------------------------------------------
    println!("e14_wire_trace/pr6_encode        {pr6_encode:>10.2} ns/iter");
    println!(
        "e14_wire_trace/off_encode        {off_encode:>10.2} ns/iter  ({encode_ratio:.3}x pr6)"
    );
    println!("e14_wire_trace/on_encode         {on_encode:>10.2} ns/iter  (+16 B extension)");
    println!("e14_wire_trace/remote_call_off   {remote_off:>10.2} ns/call");
    println!(
        "e14_wire_trace/remote_call_on    {remote_on:>10.2} ns/call  \
         ({remote_ratio:.3}x off, {traced_events} events buffered)"
    );

    // --- merge into BENCH_obs.json (E10's keys survive) ------------------
    let out = std::env::var("BENCH_OBS_OUT").unwrap_or_else(|_| "BENCH_obs.json".to_string());
    let existing = std::fs::read_to_string(&out).unwrap_or_default();
    let mut fields: Vec<(String, Option<f64>)> = [
        "bare_virtual_call_ns",
        "pr1_replica_ns",
        "cached_off_ns",
        "cached_counters_ns",
        "off_over_pr1_ratio",
        "counters_over_pr1_ratio",
        "span_off_ns",
        "span_on_ns",
        "orb_round_trips",
        "orb_bytes_out",
        "orb_bytes_in",
    ]
    .iter()
    .map(|k| (k.to_string(), extract_num(&existing, k)))
    .collect();
    fields.extend([
        ("wire_pr6_encode_ns".to_string(), Some(pr6_encode)),
        ("wire_off_encode_ns".to_string(), Some(off_encode)),
        ("wire_off_over_pr6_ratio".to_string(), Some(encode_ratio)),
        ("remote_call_off_ns".to_string(), Some(remote_off)),
        ("remote_call_on_ns".to_string(), Some(remote_on)),
        ("remote_on_over_off_ratio".to_string(), Some(remote_ratio)),
    ]);
    let mut json = String::from(
        "{\n  \"schema\": \"cca-bench/1\",\n  \"experiment\": \"e10_obs_overhead+e14_wire_trace\",\n",
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
        encode_ratio <= 1.1,
        "acceptance: tracing-off v2 frame encode must stay within 1.1x of \
         the PR-6 codec (measured {encode_ratio:.3}x)"
    );
    assert!(
        remote_ratio <= 1.5,
        "acceptance: tracing-on mux round trips must stay within 1.5x of \
         tracing-off (measured {remote_ratio:.3}x)"
    );
    assert!(
        traced_events > 0,
        "acceptance: the tracing-on loop must actually record spans"
    );
    assert!(
        remote_off > 0.0 && remote_on > 0.0,
        "acceptance: round trips must be measurable"
    );
}
