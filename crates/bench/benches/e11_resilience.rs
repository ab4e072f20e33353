//! E11 — resilience overhead gate, recorded to `BENCH_resilience.json`.
//!
//! The tentpole claim: attaching a `CallPolicy` to a uses port must not
//! disturb §6.2's "no penalty" story while nothing is failing. While a
//! connection's circuit breaker stays **closed**, the policy check on the
//! `CachedPort` fast path is one relaxed load of the breaker's packed
//! state word — gated here at ≤1.1× the PR-1 cached call:
//!
//! * `pr1_replica_ns` — the same hand-written pre-observability CachedPort
//!   replica E10 gates against (generation load + compare + memo borrow);
//! * `cached_plain_ns` — today's `CachedPort::get` on a policy-less slot
//!   (the E10 `cached_off` quantity, re-measured in this process);
//! * `cached_breaker_closed_ns` — `CachedPort::get` on a slot whose
//!   connection carries a closed breaker. Acceptance: ≤1.1× the replica;
//! * `call_with_policy_ns` — the full `CachedPort::call` path (admission,
//!   success reporting, retry plumbing) on a healthy provider, reported
//!   for context, not gated;
//! * `breaker_admit_ns` — one `CircuitBreaker::admit` in the closed state,
//!   the isolated cost of the added load.
//!
//! The gated pair runs as alternating baseline/probe rounds (as in E14),
//! gating on the minimum per-round ratio: sub-nanosecond deltas need the
//! L1-hot floor, and interleaving keeps clock or cache drift between two
//! long separate windows from failing the gate — a genuinely slower
//! probe is slower in every round.

use cca_bench::{measure_min, measure_ratio, write_atomic};
use cca_core::resilience::{BreakerPolicy, CallPolicy, MockClock};
use cca_core::{CcaServices, PortHandle};
use cca_data::TypeMap;
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

/// PR-1's `CachedPort`, the same transplant E10 uses as its baseline.
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

/// One provider/user pair; `with_breaker` additionally installs a call
/// policy (closed breaker, generous threshold) on the uses slot before
/// connecting, so the delivered handle carries a breaker.
fn wire(with_breaker: bool) -> Arc<CcaServices> {
    let provider = CcaServices::new("provider");
    let obj: Arc<dyn WorkPort> = Arc::new(WorkImpl { bias: 0.5 });
    provider
        .add_provides_port(PortHandle::new("work", "bench.WorkPort", obj))
        .unwrap();
    let user = CcaServices::new("user");
    user.register_uses_port("in", "bench.WorkPort", TypeMap::new())
        .unwrap();
    if with_breaker {
        let policy = CallPolicy::with_clock(MockClock::new())
            .with_breaker(BreakerPolicy::new(1_000_000, 1_000));
        user.set_call_policy("in", Arc::new(policy)).unwrap();
    }
    user.connect_uses("in", provider.get_provides_port("work").unwrap())
        .unwrap();
    user
}

fn main() {
    let fast = std::env::var_os("CCA_BENCH_FAST").is_some();
    let samples = if fast { 7 } else { 15 };
    let target = Duration::from_millis(if fast { 2 } else { 8 });

    cca_obs::set_tracing(false);
    cca_obs::set_counters(false);

    // --- the gated pair: PR-1 replica vs CachedPort behind a closed
    // breaker, in alternating rounds ------------------------------------
    let plain_user = wire(false);
    let mut replica = Pr1Replica::<dyn WorkPort>::new(Arc::clone(&plain_user), "in");
    replica.get().unwrap();
    let guarded_user = wire(true);
    let mut cached_guarded = guarded_user.cached_port::<dyn WorkPort>("in");
    cached_guarded.get().unwrap();
    assert!(
        cached_guarded.breaker().is_some(),
        "the guarded slot must actually carry a breaker"
    );
    let (pr1, guarded, guarded_ratio) = measure_ratio(
        samples,
        target,
        || {
            black_box(&mut replica)
                .get()
                .unwrap()
                .accumulate(black_box(1.0))
        },
        || {
            black_box(&mut cached_guarded)
                .get()
                .unwrap()
                .accumulate(black_box(1.0))
        },
    );

    // --- today's CachedPort, no policy (informational) ------------------
    let mut cached_plain = plain_user.cached_port::<dyn WorkPort>("in");
    cached_plain.get().unwrap();
    let plain = measure_min(samples, target, || {
        black_box(&mut cached_plain)
            .get()
            .unwrap()
            .accumulate(black_box(1.0))
    });

    // --- the full policy call path (healthy provider) -------------------
    let call_with_policy = measure_min(samples, target, || {
        black_box(&mut cached_guarded)
            .call(|p| Ok(p.accumulate(black_box(1.0))))
            .unwrap()
    });

    // --- isolated closed-state admission --------------------------------
    let breaker = Arc::clone(cached_guarded.breaker().unwrap());
    let admit = measure_min(samples, target, || black_box(&breaker).admit());

    // --- report ----------------------------------------------------------
    let plain_ratio = plain / pr1;
    println!("e11_resilience/pr1_replica            {pr1:>10.2} ns/iter");
    println!(
        "e11_resilience/cached_plain           {plain:>10.2} ns/iter  ({plain_ratio:.3}x pr1)"
    );
    println!(
        "e11_resilience/cached_breaker_closed  {guarded:>10.2} ns/iter  ({guarded_ratio:.3}x pr1)"
    );
    println!("e11_resilience/call_with_policy       {call_with_policy:>10.2} ns/iter");
    println!("e11_resilience/breaker_admit          {admit:>10.2} ns/iter");

    let json = format!(
        concat!(
            "{{\n",
            "  \"schema\": \"cca-bench/1\",\n",
            "  \"experiment\": \"e11_resilience\",\n",
            "  \"pr1_replica_ns\": {:.3},\n",
            "  \"cached_plain_ns\": {:.3},\n",
            "  \"cached_breaker_closed_ns\": {:.3},\n",
            "  \"call_with_policy_ns\": {:.3},\n",
            "  \"breaker_admit_ns\": {:.3},\n",
            "  \"plain_over_pr1_ratio\": {:.3},\n",
            "  \"breaker_closed_over_pr1_ratio\": {:.3}\n",
            "}}\n"
        ),
        pr1, plain, guarded, call_with_policy, admit, plain_ratio, guarded_ratio
    );
    let out = std::env::var("BENCH_RESILIENCE_OUT")
        .unwrap_or_else(|_| "BENCH_resilience.json".to_string());
    write_atomic(&out, &json);
    println!("wrote {out}");

    // --- acceptance gate -------------------------------------------------
    assert!(
        guarded_ratio <= 1.1,
        "acceptance: a closed breaker on the CachedPort fast path must stay \
         within 1.1x of the PR-1 cached call (measured {guarded_ratio:.3}x)"
    );
}
