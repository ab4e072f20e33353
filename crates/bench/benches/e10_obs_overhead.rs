//! E10 — observability overhead gate, recorded to `BENCH_obs.json`.
//!
//! The whole point of `cca-obs` is that §6.2's "no penalty" claim keeps
//! holding with the instrumentation compiled in. This bench pins that:
//!
//! * `pr1_replica_ns` — a hand-written copy of the pre-observability
//!   CachedPort steady state (one relaxed generation load + compare +
//!   memoized `Arc` borrow). This is the PR-1 baseline the gates are
//!   measured against, rebuilt here so the comparison survives future
//!   refactors of the real type;
//! * `cached_off_ns` — the real `CachedPort::get` with counters and
//!   tracing off. Acceptance: ≤1.1× the replica — turning observability
//!   *off* must cost at most the one extra flag load;
//! * `cached_counters_ns` — the same call with counters on (per-port call
//!   shard bump). Acceptance: ≤1.5× the replica;
//! * `span_on_ns` / `span_off_ns` — creating and dropping one tracer span
//!   with tracing on vs. off (the off case is the price every framework
//!   operation pays unconditionally);
//! * ORB byte accounting: round trips and payload bytes for a handful of
//!   proxied calls, proving the transport metrics see both directions.
//!
//! Minimum-of-samples is used for the gated ratios (not median): the
//! quantities differ by fractions of a nanosecond, and the minimum is the
//! standard estimator for the true cost of an L1-hot loop.

use cca_bench::{measure_min, write_atomic};
use cca_core::{CcaServices, PortHandle};
use cca_data::TypeMap;
use cca_rpc::{ObjRef, Orb};
use cca_sidl::{DynObject, DynValue, SidlError};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

trait WorkPort: Send + Sync {
    fn accumulate(&self, x: f64) -> f64;
}

struct WorkImpl {
    bias: f64,
}

impl WorkPort for WorkImpl {
    fn accumulate(&self, x: f64) -> f64 {
        x * 1.0000001 + self.bias
    }
}

impl DynObject for WorkImpl {
    fn sidl_type(&self) -> &str {
        "bench.WorkPort"
    }
    fn invoke(&self, method: &str, args: Vec<DynValue>) -> Result<DynValue, SidlError> {
        match method {
            "accumulate" => Ok(DynValue::Double(self.accumulate(args[0].as_double()?))),
            other => Err(SidlError::invoke(format!("no method '{other}'"))),
        }
    }
}

/// PR-1's `CachedPort`, transplanted verbatim (modulo the public
/// `generation()` accessor) and compiled against today's `CcaServices`:
/// generation load, staleness compare against the `Option` memo,
/// out-of-line revalidation through `get_port_as`. No flag check, no
/// metrics — the pre-observability baseline the gates measure against.
struct Pr1Replica<P: ?Sized + Send + Sync + 'static> {
    services: Arc<CcaServices>,
    name: Arc<str>,
    seen_generation: u64,
    port: Option<Arc<P>>,
}

impl<P: ?Sized + Send + Sync + 'static> Pr1Replica<P> {
    fn new(services: Arc<CcaServices>, name: impl Into<Arc<str>>) -> Self {
        Pr1Replica {
            services,
            name: name.into(),
            seen_generation: 0,
            port: None,
        }
    }

    #[inline]
    fn get(&mut self) -> Result<&Arc<P>, cca_core::CcaError> {
        let generation = self.services.generation();
        if self.port.is_none() || generation != self.seen_generation {
            self.revalidate(generation)?;
        }
        Ok(self.port.as_ref().unwrap())
    }

    #[cold]
    fn revalidate(&mut self, generation: u64) -> Result<(), cca_core::CcaError> {
        self.port = None;
        let resolved = self.services.get_port_as::<P>(&self.name)?;
        self.port = Some(resolved);
        self.seen_generation = generation;
        Ok(())
    }
}

fn wire_single() -> Arc<CcaServices> {
    let provider = CcaServices::new("provider");
    let obj: Arc<dyn WorkPort> = Arc::new(WorkImpl { bias: 0.5 });
    provider
        .add_provides_port(PortHandle::new("work", "bench.WorkPort", obj))
        .unwrap();
    let user = CcaServices::new("user");
    user.register_uses_port("in", "bench.WorkPort", TypeMap::new())
        .unwrap();
    user.connect_uses("in", provider.get_provides_port("work").unwrap())
        .unwrap();
    user
}

fn main() {
    let fast = std::env::var_os("CCA_BENCH_FAST").is_some();
    let samples = if fast { 7 } else { 15 };
    let target = Duration::from_millis(if fast { 2 } else { 8 });

    // Make the flag state explicit regardless of the environment.
    cca_obs::set_tracing(false);
    cca_obs::set_counters(false);

    // --- bare floor and PR-1 replica -----------------------------------
    let obj: Arc<dyn WorkPort> = Arc::new(WorkImpl { bias: 0.5 });
    let bare = measure_min(samples, target, || {
        black_box(&obj).accumulate(black_box(1.0))
    });

    let user = wire_single();
    let mut replica = Pr1Replica::<dyn WorkPort>::new(Arc::clone(&user), "in");
    replica.get().unwrap();
    let pr1 = measure_min(samples, target, || {
        black_box(&mut replica)
            .get()
            .unwrap()
            .accumulate(black_box(1.0))
    });

    // --- the real CachedPort, observability off ------------------------
    let mut cached = user.cached_port::<dyn WorkPort>("in");
    cached.get().unwrap();
    let cached_off = measure_min(samples, target, || {
        black_box(&mut cached)
            .get()
            .unwrap()
            .accumulate(black_box(1.0))
    });

    // --- counters on ----------------------------------------------------
    cca_obs::set_counters(true);
    cached.get().unwrap(); // re-prime under the new flag state
    let cached_counters = measure_min(samples, target, || {
        black_box(&mut cached)
            .get()
            .unwrap()
            .accumulate(black_box(1.0))
    });
    let counted = user.port_metrics("in").unwrap().calls();
    cca_obs::set_counters(false);

    // --- span cost, tracing off vs. on ----------------------------------
    let span_off = measure_min(samples, target, || {
        let _span = cca_obs::span("bench.noop");
    });
    cca_obs::set_tracing(true);
    let span_on = measure_min(samples, target, || {
        let _span = cca_obs::span("bench.noop");
    });
    cca_obs::set_tracing(false);
    let traced_events = cca_obs::drain().len();

    // --- ORB byte accounting --------------------------------------------
    let orb = Orb::new();
    orb.register("work", Arc::new(WorkImpl { bias: 0.5 }));
    let objref = ObjRef::loopback("work", Arc::clone(&orb));
    cca_obs::set_counters(true);
    for i in 0..64 {
        objref
            .invoke("accumulate", vec![DynValue::Double(i as f64)])
            .unwrap();
    }
    cca_obs::set_counters(false);
    let rpc = objref.metrics().snapshot();

    // --- report ----------------------------------------------------------
    let off_ratio = cached_off / pr1;
    let counters_ratio = cached_counters / pr1;
    println!("e10_obs_overhead/bare_virtual_call    {bare:>10.2} ns/iter");
    println!("e10_obs_overhead/pr1_replica          {pr1:>10.2} ns/iter");
    println!(
        "e10_obs_overhead/cached_off           {cached_off:>10.2} ns/iter  ({off_ratio:.3}x pr1)"
    );
    println!(
        "e10_obs_overhead/cached_counters      {cached_counters:>10.2} ns/iter  ({counters_ratio:.3}x pr1, {counted} calls counted)"
    );
    println!("e10_obs_overhead/span_off             {span_off:>10.2} ns/iter");
    println!("e10_obs_overhead/span_on              {span_on:>10.2} ns/iter  ({traced_events} events buffered)");
    println!(
        "e10_obs_overhead/orb_round_trips      {} ({} B out, {} B in)",
        rpc.round_trips, rpc.bytes_out, rpc.bytes_in
    );

    let json = format!(
        concat!(
            "{{\n",
            "  \"schema\": \"cca-bench/1\",\n",
            "  \"experiment\": \"e10_obs_overhead\",\n",
            "  \"bare_virtual_call_ns\": {:.3},\n",
            "  \"pr1_replica_ns\": {:.3},\n",
            "  \"cached_off_ns\": {:.3},\n",
            "  \"cached_counters_ns\": {:.3},\n",
            "  \"off_over_pr1_ratio\": {:.3},\n",
            "  \"counters_over_pr1_ratio\": {:.3},\n",
            "  \"span_off_ns\": {:.3},\n",
            "  \"span_on_ns\": {:.3},\n",
            "  \"orb_round_trips\": {},\n",
            "  \"orb_bytes_out\": {},\n",
            "  \"orb_bytes_in\": {}\n",
            "}}\n"
        ),
        bare,
        pr1,
        cached_off,
        cached_counters,
        off_ratio,
        counters_ratio,
        span_off,
        span_on,
        rpc.round_trips,
        rpc.bytes_out,
        rpc.bytes_in
    );
    let out = std::env::var("BENCH_OBS_OUT").unwrap_or_else(|_| "BENCH_obs.json".to_string());
    write_atomic(&out, &json);
    println!("wrote {out}");

    // --- acceptance gates ------------------------------------------------
    assert!(
        off_ratio <= 1.1,
        "acceptance: observability-off CachedPort::get must stay within 1.1x \
         of the PR-1 fast path (measured {off_ratio:.3}x)"
    );
    assert!(
        counters_ratio <= 1.5,
        "acceptance: counters-on CachedPort::get must stay within 1.5x of \
         the PR-1 fast path (measured {counters_ratio:.3}x)"
    );
    assert!(
        counted > 0,
        "acceptance: counters-on run must actually be counted"
    );
    assert!(
        traced_events > 0,
        "acceptance: tracing-on spans must reach the ring buffers"
    );
    assert_eq!(
        rpc.round_trips, 64,
        "acceptance: every proxied call counted"
    );
    assert_eq!(
        rpc.per_method,
        vec![("accumulate".to_string(), 64)],
        "acceptance: per-method attribution"
    );
}
