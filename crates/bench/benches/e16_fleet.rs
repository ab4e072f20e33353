//! E16 — worker-fleet overhead and recovery latency, recorded to
//! `BENCH_fleet.json`.
//!
//! PR 9 moves ranks out of the framework process: collectives that used
//! to ride crossbeam channels now round-trip through the fleet hub over
//! real `tcp+mux://` sockets, and a dead rank is restarted and rejoined
//! instead of sinking the run. Two costs follow, both measured here:
//!
//! * `wire_allreduce_ns` vs `thread_allreduce_ns` — the same 4-rank
//!   f64 sum-allreduce on the in-process crossbeam substrate and on
//!   hub-routed process-fleet wiring (real sockets, join handshake,
//!   long-poll recv). The ratio is the price of crash-survivability;
//!   the gate only pins it to "well under a hydro timestep" (< 50 ms),
//!   because the collective cost is dwarfed by the solve it protects.
//! * `restart_to_rejoin_ms` — median wall-clock from `kill` of a joined
//!   rank to the replacement incarnation completing its join handshake:
//!   connection-death detection + breaker + backoff (2 ms base here) +
//!   relaunch + handshake. Gate: < 5 s, the deadline survivors park on.
//!
//! Rank "processes" for the restart measurement are threads behind the
//! [`RankLauncher`] trait — same supervision path (poll_exit, kill,
//! waitpid-style reap), none of the fork/exec noise, so the number is
//! the *framework's* recovery latency floor.

use cca_bench::median;
use cca_core::resilience::SystemClock;
use cca_framework::fleet::{
    FleetConfig, FleetHub, FleetSupervisor, HubLink, LaunchSpec, ProcessHandle, RankLauncher,
};
use cca_parallel::{spmd, SumOp};
use cca_rpc::transport::Dispatcher;
use cca_rpc::{MuxServer, MuxServerConfig, SessionSink};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const RANKS: usize = 4;

/// 4-rank sum-allreduce latency on the thread substrate, ns.
fn thread_allreduce_ns(iters: usize) -> f64 {
    let samples = spmd(RANKS, |comm| {
        let mut local = Vec::new();
        for i in 0..iters {
            let start = Instant::now();
            let s = comm
                .allreduce(i as f64 + comm.rank() as f64, &SumOp)
                .unwrap();
            let elapsed = start.elapsed().as_secs_f64() * 1e9;
            std::hint::black_box(s);
            if comm.rank() == 0 {
                local.push(elapsed);
            }
        }
        local
    });
    median(samples.into_iter().flatten().collect())
}

/// The same allreduce with every rank behind a [`HubLink`] over real
/// sockets, ns.
fn wire_allreduce_ns(iters: usize) -> f64 {
    let hub = FleetHub::new(RANKS);
    let server = MuxServer::bind_with(
        "127.0.0.1:0",
        Arc::clone(&hub) as Arc<dyn Dispatcher>,
        MuxServerConfig {
            dispatch_threads: RANKS * 2 + 2,
            ..MuxServerConfig::default()
        },
    )
    .expect("bind hub server");
    server.set_session_sink(Arc::clone(&hub) as Arc<dyn SessionSink>);
    let addr = server.local_addr().to_string();

    let samples = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for rank in 0..RANKS {
            let addr = addr.clone();
            handles.push(scope.spawn(move || {
                let link = HubLink::connect(&addr, rank as u32, 1, &[], Duration::from_secs(30))
                    .expect("join hub");
                let comm = link.comm();
                let mut local = Vec::new();
                for i in 0..iters {
                    let start = Instant::now();
                    let s = comm.allreduce(i as f64 + rank as f64, &SumOp).unwrap();
                    let elapsed = start.elapsed().as_secs_f64() * 1e9;
                    std::hint::black_box(s);
                    if rank == 0 {
                        local.push(elapsed);
                    }
                }
                link.leave().expect("leave");
                local
            }));
        }
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("wire rank"))
            .collect::<Vec<f64>>()
    });
    server.shutdown();
    median(samples)
}

// --- thread-backed rank "processes" for the restart measurement ---------

struct ThreadProc {
    alive: Arc<AtomicBool>,
    done: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl ProcessHandle for ThreadProc {
    fn id(&self) -> u64 {
        0
    }

    fn poll_exit(&mut self) -> Option<i32> {
        self.done.load(Ordering::Acquire).then_some(-9)
    }

    fn kill(&mut self) {
        self.alive.store(false, Ordering::Release);
    }

    fn wait_exit(&mut self) -> i32 {
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
        -9
    }
}

struct ThreadLauncher;

impl RankLauncher for ThreadLauncher {
    fn launch(&self, spec: &LaunchSpec) -> std::io::Result<Box<dyn ProcessHandle>> {
        let alive = Arc::new(AtomicBool::new(true));
        let done = Arc::new(AtomicBool::new(false));
        let (a, d) = (Arc::clone(&alive), Arc::clone(&done));
        let spec = spec.clone();
        let thread = std::thread::spawn(move || {
            // Joining drops the link on exit: the socket teardown is the
            // death signal, exactly as for a killed OS process.
            let link = HubLink::connect(
                &spec.addr,
                spec.rank,
                spec.incarnation,
                &[],
                Duration::from_secs(30),
            )
            .expect("rank thread joins");
            while a.load(Ordering::Acquire) {
                std::thread::sleep(Duration::from_millis(1));
            }
            drop(link);
            d.store(true, Ordering::Release);
        });
        Ok(Box::new(ThreadProc {
            alive,
            done,
            thread: Some(thread),
        }))
    }
}

/// Median kill→rejoin latency over `rounds` restarts, ms.
fn restart_to_rejoin_ms(rounds: usize) -> f64 {
    let mut config = FleetConfig::new(2);
    config.base_backoff_ns = 2_000_000; // 2ms: measure the floor
    config.max_backoff_ns = 20_000_000;
    config.healthy_after_ns = 1_000_000;
    let sup = FleetSupervisor::new(config, Arc::new(ThreadLauncher), SystemClock::new())
        .expect("bind hub");
    sup.start();
    sup.start_monitor(Duration::from_millis(1));

    let wait_join = |incarnation: u32| {
        let deadline = Instant::now() + Duration::from_secs(30);
        while sup.hub().latest_join(1).map(|(inc, _)| inc) != Some(incarnation) {
            assert!(
                Instant::now() < deadline,
                "rank 1 never reached incarnation {incarnation}"
            );
            std::thread::sleep(Duration::from_micros(200));
        }
    };
    wait_join(1);

    let mut samples = Vec::with_capacity(rounds);
    for round in 0..rounds {
        // Let the rank reach healthy so the backoff is rewound and every
        // round measures the same (first-draw) schedule.
        std::thread::sleep(Duration::from_millis(5));
        let start = Instant::now();
        assert!(sup.kill_rank(1), "rank 1 must be running");
        wait_join(round as u32 + 2);
        samples.push(start.elapsed().as_secs_f64() * 1e3);
    }
    sup.shutdown();
    median(samples)
}

fn main() {
    let fast = std::env::var_os("CCA_BENCH_FAST").is_some();
    let (allreduce_iters, restart_rounds) = if fast { (200, 3) } else { (2000, 9) };

    cca_obs::set_tracing(false);
    cca_obs::set_counters(false);

    let thread_ns = thread_allreduce_ns(allreduce_iters);
    let wire_ns = wire_allreduce_ns(allreduce_iters);
    let ratio = wire_ns / thread_ns;
    let rejoin_ms = restart_to_rejoin_ms(restart_rounds);

    println!("e16 fleet: thread allreduce   {thread_ns:>12.0} ns");
    println!("e16 fleet: wire allreduce     {wire_ns:>12.0} ns  ({ratio:.1}x)");
    println!("e16 fleet: restart-to-rejoin  {rejoin_ms:>12.2} ms");

    // Gates: the wire collective must stay well under a hydro timestep,
    // and recovery must beat the survivors' park deadline by a wide
    // margin — both sized for a loaded 1-vCPU CI box.
    assert!(
        wire_ns < 50e6,
        "acceptance: wire allreduce {wire_ns:.0} ns must stay under 50 ms"
    );
    assert!(
        rejoin_ms < 5_000.0,
        "acceptance: restart-to-rejoin {rejoin_ms:.1} ms must stay under 5 s"
    );

    let out = std::env::var("BENCH_FLEET_OUT").unwrap_or_else(|_| "BENCH_fleet.json".to_string());
    let tmp = format!("{out}.tmp");
    let json = format!(
        "{{\n  \"schema\": \"cca-bench/1\",\n  \"experiment\": \"e16_fleet\",\n  \
         \"ranks\": {RANKS},\n  \"allreduce_iters\": {allreduce_iters},\n  \
         \"thread_allreduce_ns\": {thread_ns:.0},\n  \"wire_allreduce_ns\": {wire_ns:.0},\n  \
         \"wire_over_thread_ratio\": {ratio:.2},\n  \"restart_rounds\": {restart_rounds},\n  \
         \"restart_to_rejoin_ms\": {rejoin_ms:.3}\n}}\n"
    );
    std::fs::write(&tmp, json).expect("write tmp artifact");
    std::fs::rename(&tmp, &out).expect("publish artifact");
    println!("e16 fleet: wrote {out}");
}
