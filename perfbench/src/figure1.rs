//! `figure1_solve`: the paper's Figure 1 — a parallel semi-implicit
//! solver coupled to a differently distributed visualizer.
//!
//! `RANKS` sim ranks join a `FleetHub` over `tcp+mux://` through
//! `HubLink::connect` (threads, not processes, so no fork noise). Each
//! step runs `HydroSim::step_with_solver` with CG to `TOL` on an
//! `NX`×`NY` mesh, block-ILU(0) preconditioned; every collective and halo
//! exchange is relayed by the hub. Each step's field then goes through
//! the bulk plane to a `VIZ_RANKS`-rank column-block landing zone, where
//! `cca_viz::FieldStats` runs on it.
//!
//! Checks: the final field is within `1e-12` of a `RANKS`-rank `spmd`
//! thread-substrate run of the same steps with identical CG iteration
//! counts; every landed frame's sum matches the ranks' own sums, and the
//! last one matches `HydroSim::mass`.

use crate::stats::{list, Rng, Samples, Tail};
use crate::trace::Recorder;
use crate::{Metric, Outcome};
use cca_data::{CompiledPlan, DimDist, DistArrayDesc, Distribution, ProcessGrid, RedistPlan};
use cca_framework::fleet::{FleetHub, HubLink};
use cca_framework::{BulkLandingZone, BulkRedistSender};
use cca_parallel::{spmd, Comm};
use cca_rpc::transport::Dispatcher;
use cca_rpc::{BulkChannel, BulkSink, MuxServer, MuxServerConfig, MuxTransport, Orb, SessionSink};
use cca_solvers::hydro::DiffusionOp;
use cca_solvers::{
    cg, CommReduce, HydroConfig, HydroSim, Ilu0, LinearOperator, Mesh2d, Preconditioner, Reduction,
    SerialReduce, SolveStats,
};
use cca_viz::FieldStats;
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

const NX: usize = 256;
const NY: usize = 256;
const RANKS: usize = 2;
const VIZ_RANKS: usize = 3;
const TOL: f64 = 1e-9;
const MAX_ITER: usize = 2_000;
const CHUNK_BYTES: usize = 64 << 10;
const FRAME_WINDOW: usize = 4;
const GENERATION: u64 = 7;
/// Each round builds a fresh rig (timed as one set-up) and measures a
/// third of the run on it, so one run samples several thread placements.
const ROUNDS: usize = 3;
const SERIAL_STEPS: usize = 10;
const PARK: Duration = Duration::from_secs(30);

fn config() -> HydroConfig {
    HydroConfig {
        nx: NX,
        ny: NY,
        tol: TOL,
        max_iter: MAX_ITER,
        ..HydroConfig::default()
    }
}

/// The seed picks the amplitude of the initial Gaussian blob, a power of
/// two: scaling by one is exact in floating point, so every seed runs the
/// same CG iteration counts and does the same work per step.
#[derive(Clone, Copy)]
struct Blob {
    amplitude: f64,
}

impl Blob {
    fn new(seed: u64) -> Self {
        let k = Rng::new(seed).below(17) as i32 - 8;
        Blob {
            amplitude: 2f64.powi(k),
        }
    }

    fn sim(&self, p: usize, rank: usize) -> HydroSim {
        let mut sim = HydroSim::new(config(), p, rank);
        for v in &mut sim.u {
            *v *= self.amplitude;
        }
        sim
    }
}

/// `DiffusionOp`, timed: each application includes its halo exchange.
struct TimedOp<'a, 'b> {
    inner: &'a DiffusionOp<'b>,
    rec: &'a Recorder,
    /// The enclosing step's span.
    parent: u64,
}

impl LinearOperator for TimedOp<'_, '_> {
    fn rows(&self) -> usize {
        self.inner.rows()
    }
    fn apply(&self, x: &[f64], y: &mut [f64]) {
        let s = self.rec.start();
        self.inner.apply(x, y);
        self.rec.end(s, "solvers.matvec", self.parent, 0);
    }
}

struct TimedPre<'a> {
    inner: &'a Ilu0,
    rec: &'a Recorder,
    /// The enclosing step's span, set at each step (a span id only, so
    /// `Relaxed` suffices).
    parent: &'a AtomicU64,
}

impl Preconditioner for TimedPre<'_> {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        let s = self.rec.start();
        self.inner.apply(r, z);
        self.rec
            .end(s, "solvers.precond", self.parent.load(Ordering::Relaxed), 0);
    }
    fn name(&self) -> &'static str {
        "timed-ilu0"
    }
}

/// `CommReduce`, timed, forwarding `global_sum2` unchanged. Entry times
/// are kept so the two ranks' entries into the same collective can be
/// paired on the shared clock.
struct TimedReduce<'a> {
    inner: CommReduce<'a>,
    rec: &'a Recorder,
    entries: RefCell<Vec<u64>>,
    calls: Cell<usize>,
    /// The enclosing step's span, set at each step (a span id only, so
    /// `Relaxed` suffices).
    parent: &'a AtomicU64,
}

impl TimedReduce<'_> {
    fn timed<T>(&self, f: impl FnOnce() -> T) -> T {
        self.calls.set(self.calls.get() + 1);
        if self.rec.on() {
            self.entries.borrow_mut().push(self.rec.now_ns());
        }
        let s = self.rec.start();
        let out = f();
        self.rec.end(
            s,
            "parallel.allreduce",
            self.parent.load(Ordering::Relaxed),
            0,
        );
        out
    }
}

impl Reduction for TimedReduce<'_> {
    fn global_sum(&self, local: f64) -> f64 {
        self.timed(|| self.inner.global_sum(local))
    }
    fn global_sum2(&self, a: f64, b: f64) -> (f64, f64) {
        self.timed(|| self.inner.global_sum2(a, b))
    }
}

/// What one rank carries from set-up into the timed phase.
struct RankKit {
    link: Arc<HubLink>,
    sim: HydroSim,
    pre: Ilu0,
    channel: Arc<BulkChannel>,
    sender: BulkRedistSender<f64>,
}

struct Rig {
    hub_server: Arc<MuxServer>,
    viz_server: Arc<MuxServer>,
    zone: Arc<BulkLandingZone<f64>>,
    kits: Vec<RankKit>,
}

impl Rig {
    fn shut(self) {
        for k in &self.kits {
            let _ = k.link.leave();
        }
        drop(self.kits);
        self.viz_server.shutdown();
        self.hub_server.shutdown();
    }
}

fn viz_plan() -> Arc<CompiledPlan> {
    let src = Mesh2d::decompose(NX, NY, RANKS, 0).desc();
    let grid = ProcessGrid::new(&[VIZ_RANKS, 1]).expect("viz grid");
    let dist = Distribution::new(grid, &[DimDist::Block, DimDist::Block]).expect("viz dist");
    let dst = DistArrayDesc::new(&[NX, NY], dist).expect("viz desc");
    Arc::new(
        RedistPlan::build(&src, &dst)
            .expect("viz plan")
            .compile()
            .expect("viz plan compiles"),
    )
}

fn await_zone(zone: &BulkLandingZone<f64>) -> bool {
    let give_up = Instant::now() + PARK;
    while !zone.is_complete() {
        if Instant::now() > give_up {
            return false;
        }
        std::thread::yield_now();
    }
    true
}

fn build_rig(blob: Blob, rec: &Recorder) -> Rig {
    let compiled = viz_plan();
    let zone = BulkLandingZone::<f64>::new(Arc::clone(&compiled), GENERATION, CHUNK_BYTES);
    let viz_server = MuxServer::bind_with(
        "127.0.0.1:0",
        Orb::new() as Arc<dyn Dispatcher>,
        MuxServerConfig::default(),
    )
    .expect("bind viz server");
    viz_server.set_bulk_sink(Arc::clone(&zone) as Arc<dyn BulkSink>);
    let viz_addr = viz_server.local_addr().to_string();

    let hub = FleetHub::new(RANKS);
    let hub_server = MuxServer::bind_with(
        "127.0.0.1:0",
        Arc::clone(&hub) as Arc<dyn Dispatcher>,
        MuxServerConfig {
            dispatch_threads: RANKS * 2 + 2,
            ..MuxServerConfig::default()
        },
    )
    .expect("bind hub server");
    hub_server.set_session_sink(hub as Arc<dyn SessionSink>);
    let hub_addr = hub_server.local_addr().to_string();

    let kits = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..RANKS)
            .map(|rank| {
                let (hub_addr, viz_addr, compiled) = (&hub_addr, &viz_addr, &compiled);
                scope.spawn(move || {
                    let s = rec.start();
                    let link =
                        HubLink::connect(hub_addr, rank as u32, 1, &[], PARK).expect("join hub");
                    rec.end(s, "framework.hub_join", 0, rank as u64);
                    let sim = blob.sim(RANKS, rank);
                    let pre = Ilu0::new(&sim.local_matrix());
                    let transport = MuxTransport::new(viz_addr.clone()).with_connections(1);
                    let channel = BulkChannel::new(Arc::new(transport));
                    let mut sender =
                        BulkRedistSender::new(Arc::clone(compiled), GENERATION, CHUNK_BYTES, rank);
                    // Warm frame: dials the visualizer connection.
                    sender
                        .send_pipelined(&channel, &sim.u, FRAME_WINDOW)
                        .expect("warm frame");
                    RankKit {
                        link,
                        sim,
                        pre,
                        channel,
                        sender,
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rank set-up panicked"))
            .collect::<Vec<_>>()
    });
    assert!(await_zone(&zone), "warm frame never landed");
    zone.reset();
    Rig {
        hub_server,
        viz_server,
        zone,
        kits,
    }
}

/// One rank's record of the timed phase.
#[derive(Default)]
struct RankLog {
    step_us: Vec<f64>,
    advect_us: Vec<f64>,
    iters: Vec<usize>,
    allreduce_calls: usize,
    entries: Vec<u64>,
    final_u: Vec<f64>,
    mass: f64,
    ok: bool,
}

struct Shared {
    barrier: Barrier,
    stop: AtomicBool,
    sums: Mutex<[f64; RANKS]>,
    sent_at: Mutex<Option<Instant>>,
}

fn rank_loop(kit: &mut RankKit, rank: usize, shared: &Shared, rec: &Recorder) -> RankLog {
    let comm: Comm = kit.link.comm();
    let step_id = AtomicU64::new(0);
    let red = TimedReduce {
        inner: CommReduce(&comm),
        rec,
        entries: RefCell::new(Vec::new()),
        calls: Cell::new(0),
        parent: &step_id,
    };
    let pre = TimedPre {
        inner: &kit.pre,
        rec,
        parent: &step_id,
    };
    let mut log = RankLog {
        ok: true,
        ..RankLog::default()
    };
    loop {
        let step_start = Instant::now();
        let step_span = rec.start();
        step_id.store(step_span.id, Ordering::Relaxed);
        let solve_ns = Cell::new(0u64);
        let solve = |op: &DiffusionOp<'_>, rhs: &[f64], x: &mut [f64]| {
            let t = Instant::now();
            let op = TimedOp {
                inner: op,
                rec,
                parent: step_span.id,
            };
            let r = cg(&op, &pre, rhs, x, TOL, MAX_ITER, &red);
            solve_ns.set(t.elapsed().as_nanos() as u64);
            r
        };
        let stats: Option<SolveStats> = kit.sim.step_with_solver(Some(&comm), &solve).ok();
        let stepped_us = step_start.elapsed().as_secs_f64() * 1e6;
        let solve_us = solve_ns.get() as f64 / 1e3;
        log.advect_us.push(stepped_us - solve_us);
        match stats {
            Some(st) if st.converged => log.iters.push(st.iterations),
            _ => log.ok = false,
        }

        kit.sender.reset();
        {
            let mut at = shared.sent_at.lock().expect("sent_at poisoned");
            let now = Instant::now();
            if at.is_none_or(|t| now < t) {
                *at = Some(now);
            }
        }
        let s = rec.start();
        log.ok &= kit
            .sender
            .send_pipelined(&kit.channel, &kit.sim.u, FRAME_WINDOW)
            .is_ok();
        rec.end(s, "framework.frame_send", step_span.id, rank as u64);
        shared.sums.lock().expect("sums poisoned")[rank] = kit.sim.u.iter().sum();
        shared.barrier.wait(); // frame handed off
        shared.barrier.wait(); // frame analysed, stop decided
        log.step_us.push(step_start.elapsed().as_secs_f64() * 1e6);
        rec.end(step_span, "figure1.step", 0, rank as u64);
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
    }
    log.mass = kit.sim.mass(Some(&comm));
    log.final_u = kit.sim.u.clone();
    log.allreduce_calls = red.calls.get();
    log.entries = red.entries.into_inner();
    log
}

struct VizLog {
    frames: usize,
    bad_frames: usize,
    frame_us: Vec<f64>,
    land_us: Vec<f64>,
    stats_us: Vec<f64>,
    last_sum: f64,
}

fn viz_loop(
    zone: &BulkLandingZone<f64>,
    shared: &Shared,
    until: Instant,
    rec: &Recorder,
) -> VizLog {
    let mut log = VizLog {
        frames: 0,
        bad_frames: 0,
        frame_us: Vec::new(),
        land_us: Vec::new(),
        stats_us: Vec::new(),
        last_sum: 0.0,
    };
    loop {
        shared.barrier.wait();
        let s = rec.start();
        let t = Instant::now();
        let landed = await_zone(zone);
        log.land_us.push(t.elapsed().as_secs_f64() * 1e6);
        rec.end(s, "framework.frame_land", 0, log.frames as u64);
        let s = rec.start();
        let t = Instant::now();
        let stats: Vec<FieldStats> =
            zone.with_buffers(|bufs| bufs.iter().map(|b| FieldStats::of(b)).collect());
        log.stats_us.push(t.elapsed().as_secs_f64() * 1e6);
        rec.end(s, "viz.field_stats", 0, log.frames as u64);
        let landed_sum: f64 = stats.iter().map(|st| st.mean * st.count as f64).sum();
        let count: usize = stats.iter().map(|st| st.count).sum();
        let expected: f64 = shared.sums.lock().expect("sums poisoned").iter().sum();
        let sum_ok = (landed_sum - expected).abs() <= 1e-12 * expected.abs().max(1.0);
        if !(landed && sum_ok && count == NX * NY) {
            log.bad_frames += 1;
        }
        log.last_sum = landed_sum;
        if let Some(sent) = shared.sent_at.lock().expect("sent_at poisoned").take() {
            log.frame_us.push(sent.elapsed().as_secs_f64() * 1e6);
        }
        log.frames += 1;
        zone.reset();
        shared.stop.store(Instant::now() >= until, Ordering::SeqCst);
        shared.barrier.wait();
        if shared.stop.load(Ordering::SeqCst) {
            return log;
        }
    }
}

/// The same steps on the thread substrate: per rank, the field after each
/// of `checkpoints` steps (ascending) and every step's CG iteration count.
fn reference(blob: Blob, checkpoints: &[usize]) -> Vec<(Vec<Vec<f64>>, Vec<usize>)> {
    let steps = checkpoints.last().copied().unwrap_or(0);
    spmd(RANKS, |comm| {
        let mut sim = blob.sim(RANKS, comm.rank());
        let pre = Ilu0::new(&sim.local_matrix());
        let red = CommReduce(comm);
        let mut iters = Vec::with_capacity(steps);
        let mut fields = Vec::with_capacity(checkpoints.len());
        for step in 1..=steps {
            let st = sim
                .step_with_solver(Some(comm), &|op, rhs, x| {
                    cg(op, &pre, rhs, x, TOL, MAX_ITER, &red)
                })
                .expect("reference step");
            iters.push(st.iterations);
            for _ in checkpoints.iter().filter(|&&c| c == step) {
                fields.push(sim.u.clone());
            }
        }
        (fields, iters)
    })
}

/// One rank, no communicator: the plain single-threaded baseline.
fn serial_step_ms(blob: Blob) -> Samples {
    let mut sim = blob.sim(1, 0);
    let pre = Ilu0::new(&sim.local_matrix());
    let mut ms = Vec::with_capacity(SERIAL_STEPS);
    for _ in 0..SERIAL_STEPS {
        let t = Instant::now();
        sim.step_with_solver(None, &|op, rhs, x| {
            cg(op, &pre, rhs, x, TOL, MAX_ITER, &SerialReduce)
        })
        .expect("serial step");
        ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    Samples::new(ms)
}

/// One round's results: a fresh rig, measured and checked.
struct Round {
    setup_s: f64,
    wall: f64,
    /// VmHWM at the end of this round's timed phase.
    hwm_mb: f64,
    ranks: Vec<RankLog>,
    viz: VizLog,
}

/// Builds a rig (timed as one set-up), runs the coupled simulation on it
/// for `secs`, and tears it down.
fn round(blob: Blob, secs: f64, rec: &Recorder) -> Round {
    let t = Instant::now();
    let mut rig = build_rig(blob, rec);
    let setup_s = t.elapsed().as_secs_f64();
    let shared = Shared {
        barrier: Barrier::new(RANKS + 1),
        stop: AtomicBool::new(false),
        sums: Mutex::new([0.0; RANKS]),
        sent_at: Mutex::new(None),
    };
    let start = Instant::now();
    let until = start + Duration::from_secs_f64(secs);
    let zone = Arc::clone(&rig.zone);
    let (viz, ranks) = std::thread::scope(|scope| {
        let handles: Vec<_> = rig
            .kits
            .iter_mut()
            .enumerate()
            .map(|(rank, kit)| {
                let shared = &shared;
                scope.spawn(move || rank_loop(kit, rank, shared, rec))
            })
            .collect();
        let viz = viz_loop(&zone, &shared, until, rec);
        let ranks: Vec<RankLog> = handles
            .into_iter()
            .map(|h| h.join().expect("rank panicked"))
            .collect();
        (viz, ranks)
    });
    let wall = start.elapsed().as_secs_f64();
    let hwm_mb = crate::host::peak_rss_mb();
    rig.shut();

    Round {
        setup_s,
        wall,
        hwm_mb,
        ranks,
        viz,
    }
}

/// Checks every round against one reference run: the final field within
/// 1e-12 with identical CG iteration counts, every landed frame's sum,
/// and the last frame against `HydroSim::mass`. Returns (attempted,
/// failed, one line per round).
fn check(blob: Blob, rounds: &[Round]) -> (u64, u64, Vec<String>) {
    let mut checkpoints: Vec<usize> = rounds.iter().map(|r| r.ranks[0].step_us.len()).collect();
    checkpoints.sort_unstable();
    let refs = reference(blob, &checkpoints);
    let h = 1.0 / (NX as f64 + 1.0);
    let (mut attempted, mut failed, mut lines) = (0u64, 0u64, Vec::new());
    for (i, r) in rounds.iter().enumerate() {
        let steps = r.ranks[0].step_us.len();
        let at = checkpoints
            .iter()
            .position(|&c| c == steps)
            .expect("checkpoint");
        let mut max_diff = 0.0f64;
        let mut iters_match = true;
        for (log, (fields, iters)) in r.ranks.iter().zip(&refs) {
            if !log.ok {
                failed += 1;
            }
            iters_match &= log.iters[..] == iters[..steps];
            for (a, b) in log.final_u.iter().zip(&fields[at]) {
                max_diff = max_diff.max((a - b).abs());
            }
        }
        let mass = r.ranks[0].mass;
        let landed = r.viz.last_sum * h * h;
        let mass_ok = (landed - mass).abs() <= 1e-12 * mass.abs().max(1e-300);
        attempted += (steps * RANKS + r.viz.frames) as u64 + 2;
        failed += r.viz.bad_frames as u64;
        failed += !(max_diff <= 1e-12 * blob.amplitude && iters_match) as u64 + !mass_ok as u64;
        lines.push(format!(
            "round {i}: final field vs {RANKS}-rank spmd reference max |diff| = {max_diff:e}, CG iteration counts identical: {iters_match}; landed frames {} of {} bad; last frame sum x h^2 = {landed:.15e} vs HydroSim::mass = {mass:.15e}",
            r.viz.bad_frames, r.viz.frames
        ));
    }
    (attempted, failed, lines)
}

pub fn run(seed: u64, seconds: f64, tail: Tail, rec: &Recorder) -> Outcome {
    let blob = Blob::new(seed);
    let rounds: Vec<Round> = (0..ROUNDS)
        .map(|_| round(blob, seconds / ROUNDS as f64, rec))
        .collect();
    let join_ms = Samples::new(rec.durations_us("framework.hub_join")).median() / 1e3;
    let pooled = |f: &dyn Fn(&Round) -> &Vec<f64>| -> Vec<f64> {
        rounds.iter().flat_map(|r| f(r).iter().copied()).collect()
    };
    let peak_rss_mb = rounds[0].hwm_mb;
    let (attempted, failed, mut checks) = check(blob, &rounds);
    let steps: usize = rounds.iter().map(|r| r.ranks[0].step_us.len()).sum();
    // Per-round figures, so that one disturbed round cannot move them.
    let round_p50_us: Vec<f64> = rounds
        .iter()
        .map(|r| Samples::new(r.ranks[0].step_us.clone()).median())
        .collect();
    checks.push(format!(
        "step p50 per round, ms: {}",
        list(&round_p50_us.iter().map(|us| us / 1e3).collect::<Vec<_>>())
    ));
    let step_p50_us = Samples::new(round_p50_us).median();
    let steps_per_s = Samples::new(
        rounds
            .iter()
            .map(|r| r.ranks[0].step_us.len() as f64 / r.wall)
            .collect(),
    )
    .median();

    let step_us = Samples::new(pooled(&|r| &r.ranks[0].step_us));
    let frame_us = Samples::new(pooled(&|r| &r.viz.frame_us));
    let named = vec![
        Metric::new("step_p50_ms", step_p50_us / 1e3, "ms", step_us.len()),
        Metric::new(
            "step_tail_ms",
            step_us.quantile(tail.q()) / 1e3,
            "ms",
            step_us.len(),
        ),
        Metric::new("steps_per_s", steps_per_s, "1/s", steps),
        Metric::new(
            "frame_tail_ms",
            frame_us.quantile(tail.q()) / 1e3,
            "ms",
            frame_us.len(),
        ),
    ];

    let mut layers = Vec::new();
    if rec.on() {
        let span_us = |name: &str| Samples::new(rec.durations_us(name));
        let iters = Samples::new(
            rounds
                .iter()
                .flat_map(|r| r.ranks[0].iters.iter().map(|&i| i as f64))
                .collect(),
        );
        let matvec = span_us("solvers.matvec");
        let precond = span_us("solvers.precond");
        let advect = Samples::new(pooled(&|r| &r.ranks[0].advect_us));
        let allreduce = span_us("parallel.allreduce");
        let skew = Samples::new(
            rounds
                .iter()
                .flat_map(|r| {
                    r.ranks[0]
                        .entries
                        .iter()
                        .zip(&r.ranks[1].entries)
                        .map(|(a, b)| a.abs_diff(*b) as f64 / 1e3)
                })
                .collect(),
        );
        let allreduce_calls: usize = rounds.iter().map(|r| r.ranks[0].allreduce_calls).sum();
        let allreduce_ms = allreduce.sum() / 1e3 / RANKS as f64;
        let step_ms = step_us.sum() / 1e3;
        let send = span_us("framework.frame_send");
        let land = Samples::new(pooled(&|r| &r.viz.land_us));
        let stats = Samples::new(pooled(&|r| &r.viz.stats_us));
        let serial = serial_step_ms(blob);
        layers.extend([
            Metric::new("solvers.cg_iters", iters.median(), "count", iters.len()),
            Metric::new("solvers.matvec_us", matvec.median(), "us", matvec.len()),
            Metric::new("solvers.precond_us", precond.median(), "us", precond.len()),
            Metric::new("solvers.advect_us", advect.median(), "us", advect.len()),
            Metric::new(
                "solvers.serial_step_ms",
                serial.median(),
                "ms",
                serial.len(),
            ),
            Metric::new(
                "parallel.allreduce_us",
                allreduce.median(),
                "us",
                allreduce.len(),
            ),
            Metric::new(
                "parallel.allreduce_per_step",
                allreduce_calls as f64 / steps.max(1) as f64,
                "count",
                steps,
            ),
            Metric::new(
                "parallel.allreduce_skew_us",
                skew.median(),
                "us",
                skew.len(),
            ),
            Metric::new(
                "parallel.allreduce_share",
                allreduce_ms / step_ms,
                "ratio",
                allreduce.len(),
            ),
            Metric::new("framework.hub_join_ms", join_ms, "ms", RANKS * ROUNDS),
            Metric::new(
                "framework.frame_send_ms",
                send.median() / 1e3,
                "ms",
                send.len(),
            ),
            Metric::new(
                "framework.frame_land_ms",
                land.median() / 1e3,
                "ms",
                land.len(),
            ),
            Metric::new(
                "framework.frame_tail_us",
                frame_us.quantile(tail.q()),
                "us",
                frame_us.len(),
            ),
            Metric::new("viz.field_stats_us", stats.median(), "us", stats.len()),
        ]);
        checks.push(format!(
            "allreduce share base: {allreduce_ms:.1} ms of allreduce per rank over {step_ms:.1} ms of steps"
        ));
    }

    Outcome {
        attempted,
        failed,
        shape: format!(
            "{ROUNDS} rounds of set-up + run; {NX}x{NY} mesh, {RANKS} sim ranks over a tcp+mux hub, CG tol {TOL:e} with block ILU(0), frames {RANKS}->{VIZ_RANKS} ranks in {} KiB chunks x{FRAME_WINDOW}",
            CHUNK_BYTES >> 10
        ),
        checks,
        setup_s: rounds.iter().map(|r| r.setup_s).collect(),
        op_us: step_us,
        op_p50_us: step_p50_us,
        ops_per_s: steps_per_s,
        ops_count: steps,
        peak_rss_mb,
        named,
        layers,
    }
}
