//! E17 — repository scale: exact lookup, trigram fuzzy discovery, and
//! concurrent query throughput at a million registered types, recorded
//! to `BENCH_repo.json`.
//!
//! PR 10 reshapes `cca-repository` from one flat `RwLock<BTreeMap>` into
//! hash-sharded Arc snapshots with a per-shard trigram index. This bench
//! populates a catalog with 1M synthetic SIDL component types (100k in
//! `CCA_BENCH_FAST` mode) and measures:
//!
//! * `exact_lookup_p50_ns` — class → entry through the shard hash and a
//!   frozen snapshot. Gate: **p50 < 5 µs**.
//! * `fuzzy_p50_us` — a mixed needle set (selective compound names plus
//!   broad single words) through the trigram index, scored and capped.
//!   Gate: **p50 < 5 ms**. `flat_scan_p50_us` runs the same needles the
//!   seed way — linear scan, `to_lowercase` per entry per query — and
//!   `scan_speedup` is the ratio.
//! * `four_thread_qps` vs `single_thread_qps` — the same mixed query
//!   stream from 4 threads against 1. Reads are lock-free (snapshot
//!   clone per query), so with ≥4 real cores the gate demands ≥2x
//!   scaling; on the smaller CI boxes it only demands that concurrent
//!   readers don't collapse (≥1.2x on 2–3 cores, ≥0.4x on 1), same
//!   core-count-branched gating as E12's proxy fan-out.

use cca_bench::median;
use cca_core::{CcaError, CcaServices, Component};
use cca_data::TypeMap;
use cca_repository::{ComponentEntry, FuzzyQuery, PortSpec, Repository};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

struct Nop;
impl Component for Nop {
    fn component_type(&self) -> &str {
        "synthetic.Nop"
    }
    fn set_services(&self, _s: Arc<CcaServices>) -> Result<(), CcaError> {
        Ok(())
    }
}

const PKGS: [&str; 16] = [
    "esi", "hydro", "viz", "mesh", "io", "lin", "opt", "stat", "chem", "climate", "fusion",
    "combust", "grid", "data", "mxn", "orb",
];

const WORDS: [&str; 64] = [
    "Krylov",
    "Gmres",
    "Jacobi",
    "Hydro",
    "Euler",
    "Riemann",
    "Mesh",
    "Plot",
    "Stat",
    "Redist",
    "Fourier",
    "Newton",
    "Tensor",
    "Graph",
    "Kernel",
    "Cloud",
    "Solver",
    "Precond",
    "Stencil",
    "Flux",
    "Advect",
    "Diffuse",
    "Gauss",
    "Seidel",
    "Chebyshev",
    "Lanczos",
    "Arnoldi",
    "Schur",
    "Multigrid",
    "Coarsen",
    "Refine",
    "Partition",
    "Balance",
    "Gather",
    "Scatter",
    "Reduce",
    "Halo",
    "Ghost",
    "Bound",
    "Domain",
    "Field",
    "Particle",
    "Tracer",
    "Spline",
    "Wavelet",
    "Entropy",
    "Enthalpy",
    "Viscous",
    "Inviscid",
    "Laminar",
    "Turbulent",
    "Spectral",
    "Modal",
    "Nodal",
    "Quadrature",
    "Jacobian",
    "Hessian",
    "Adjoint",
    "Forward",
    "Inverse",
    "Transpose",
    "Symmetric",
    "Sparse",
    "Dense",
];

/// The mixed query stream: mostly selective compound names (the needle a
/// person types when they know roughly what they want) plus two broad
/// single words (worst-case candidate counts). The p50 gates run over
/// this whole mix.
const NEEDLES: [&str; 8] = [
    "krylovgmres",
    "fourierschur",
    "newtonhalo",
    "riemannflux",
    "chebyshevadjoint",
    "multigridcoarsen",
    "krylov",
    "tensor",
];

fn class_of(i: usize) -> String {
    let w1 = WORDS[i % WORDS.len()];
    let w2 = WORDS[(i / WORDS.len()) % WORDS.len()];
    let pkg = PKGS[(i / (WORDS.len() * WORDS.len())) % PKGS.len()];
    format!("{pkg}.{w1}{w2}{i:07}")
}

fn entry_of(i: usize) -> ComponentEntry {
    let w1 = WORDS[i % WORDS.len()];
    let pkg = PKGS[(i / (WORDS.len() * WORDS.len())) % PKGS.len()];
    ComponentEntry {
        class: class_of(i),
        description: format!("synthetic {w1} component {i}"),
        provides: vec![PortSpec::new("main", format!("{pkg}.{w1}Port"))],
        uses: vec![PortSpec::new("go", "cca.ports.GoPort")],
        properties: TypeMap::new(),
        factory: Arc::new(|| Arc::new(Nop) as Arc<dyn Component>),
    }
}

fn main() {
    let fast = std::env::var_os("CCA_BENCH_FAST").is_some();
    let (types, exact_samples, fuzzy_reps, flat_reps, qps_queries) = if fast {
        (100_000usize, 1_001usize, 8usize, 1usize, 64usize)
    } else {
        (1_000_000usize, 5_001usize, 25usize, 3usize, 400usize)
    };

    cca_obs::set_tracing(false);
    cca_obs::set_counters(false);

    // --- populate: one all-or-nothing batch, one publication per shard --
    let repo = Repository::new();
    repo.deposit_sidl("package cca.ports { interface GoPort { void go(); } }")
        .expect("seed SIDL");
    let start = Instant::now();
    let batch: Vec<ComponentEntry> = (0..types).map(entry_of).collect();
    let n = repo.register_components(batch).expect("populate");
    let populate_ms = start.elapsed().as_secs_f64() * 1e3;
    assert_eq!(n, types);
    println!(
        "e17 repo: populated {types} types across {} shards in {populate_ms:.0} ms",
        repo.shard_count()
    );

    // --- exact lookup p50 ----------------------------------------------
    // Deterministic stride through the keyspace; every lookup hits.
    let mut samples = Vec::with_capacity(exact_samples);
    for k in 0..exact_samples {
        let class = class_of((k * 7919) % types);
        let start = Instant::now();
        let e = repo.entry(&class).expect("registered class");
        samples.push(start.elapsed().as_secs_f64() * 1e9);
        std::hint::black_box(e);
    }
    let exact_ns = median(samples);

    // --- the seed baseline: flat map + per-entry lowering ---------------
    // The flat exact path (BTreeMap::get) was never the problem; the scan
    // was. Reproduce the seed's text search exactly: lower every entry's
    // class and description on every query.
    let flat: BTreeMap<String, String> = (0..types)
        .map(|i| (class_of(i), format!("synthetic component {i}")))
        .collect();
    let mut samples = Vec::with_capacity(exact_samples.min(1_001));
    for k in 0..exact_samples.min(1_001) {
        let class = class_of((k * 7919) % types);
        let start = Instant::now();
        std::hint::black_box(flat.get(&class));
        samples.push(start.elapsed().as_secs_f64() * 1e9);
    }
    let flat_exact_ns = median(samples);

    let mut samples = Vec::new();
    for _ in 0..flat_reps {
        for needle in NEEDLES {
            let lowered = needle.to_lowercase();
            let start = Instant::now();
            let hits = flat
                .iter()
                .filter(|(class, desc)| {
                    class.to_lowercase().contains(&lowered)
                        || desc.to_lowercase().contains(&lowered)
                })
                .count();
            samples.push(start.elapsed().as_secs_f64() * 1e6);
            std::hint::black_box(hits);
        }
    }
    let flat_scan_us = median(samples);
    drop(flat);

    // --- fuzzy query p50 ------------------------------------------------
    let mut samples = Vec::new();
    for _ in 0..fuzzy_reps {
        for needle in NEEDLES {
            let start = Instant::now();
            let page = repo.fuzzy(&FuzzyQuery::new(needle).with_limit(25));
            samples.push(start.elapsed().as_secs_f64() * 1e6);
            std::hint::black_box(page);
        }
    }
    let fuzzy_us = median(samples);
    let scan_speedup = flat_scan_us / fuzzy_us;

    // --- concurrent query throughput ------------------------------------
    let run_queries = |count: usize| {
        for q in 0..count {
            let page = repo.fuzzy(&FuzzyQuery::new(NEEDLES[q % NEEDLES.len()]).with_limit(25));
            std::hint::black_box(page);
        }
    };
    let start = Instant::now();
    run_queries(qps_queries);
    let single_qps = qps_queries as f64 / start.elapsed().as_secs_f64();

    let threads = 4usize;
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| run_queries(qps_queries));
        }
    });
    let four_qps = (threads * qps_queries) as f64 / start.elapsed().as_secs_f64();
    let scaling = four_qps / single_qps;

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    println!("e17 repo: exact lookup p50     {exact_ns:>10.0} ns (flat map {flat_exact_ns:.0} ns)");
    println!("e17 repo: fuzzy query p50      {fuzzy_us:>10.1} us");
    println!("e17 repo: flat scan p50        {flat_scan_us:>10.1} us  ({scan_speedup:.1}x slower)");
    println!("e17 repo: single-thread        {single_qps:>10.0} q/s");
    println!("e17 repo: 4-thread             {four_qps:>10.0} q/s  ({scaling:.2}x, {cores} cores)");

    // Gates (ISSUE 10 acceptance): exact p50 < 5 µs, fuzzy p50 < 5 ms,
    // and 4-thread scaling ≥2x — the scaling demand only where the
    // hardware can physically deliver it (4+ cores); below that the gate
    // pins "lock-free readers don't collapse under contention".
    assert!(
        exact_ns < 5_000.0,
        "acceptance: exact lookup p50 {exact_ns:.0} ns must stay under 5 us"
    );
    assert!(
        fuzzy_us < 5_000.0,
        "acceptance: fuzzy query p50 {fuzzy_us:.1} us must stay under 5 ms"
    );
    let required_scaling = if cores >= 4 {
        2.0
    } else if cores >= 2 {
        1.2
    } else {
        0.4
    };
    assert!(
        scaling >= required_scaling,
        "acceptance: 4-thread scaling {scaling:.2}x must be >= {required_scaling}x on {cores} cores"
    );
    let required_speedup = if fast { 1.5 } else { 5.0 };
    assert!(
        scan_speedup > required_speedup,
        "acceptance: trigram path {scan_speedup:.1}x vs flat scan must beat {required_speedup}x"
    );

    let out = std::env::var("BENCH_REPO_OUT").unwrap_or_else(|_| "BENCH_repo.json".to_string());
    let tmp = format!("{out}.tmp");
    let json = format!(
        "{{\n  \"schema\": \"cca-bench/1\",\n  \"experiment\": \"e17_repository\",\n  \
         \"types\": {types},\n  \"shards\": {},\n  \"populate_ms\": {populate_ms:.0},\n  \
         \"exact_lookup_p50_ns\": {exact_ns:.0},\n  \"flat_exact_p50_ns\": {flat_exact_ns:.0},\n  \
         \"fuzzy_p50_us\": {fuzzy_us:.1},\n  \"flat_scan_p50_us\": {flat_scan_us:.1},\n  \
         \"scan_speedup\": {scan_speedup:.1},\n  \"single_thread_qps\": {single_qps:.0},\n  \
         \"four_thread_qps\": {four_qps:.0},\n  \"throughput_scaling\": {scaling:.2},\n  \
         \"cores\": {cores}\n}}\n",
        repo.shard_count()
    );
    std::fs::write(&tmp, json).expect("write tmp artifact");
    std::fs::rename(&tmp, &out).expect("publish artifact");
    println!("e17 repo: wrote {out}");
}
