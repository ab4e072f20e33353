//! `catalog_mix`: the repository under mixed load, no wire.
//!
//! Set-up populates `TYPES` synthetic component types through
//! `Repository::register_components` batches and plants a known-answer
//! needle ladder. The timed phase runs one closed-loop reader (60% exact
//! `entry` lookups, 30% `fuzzy` queries, 10% five-page cursor walks) next
//! to one open-loop writer that deposits 64-type batches at a fixed rate,
//! alternating `register_components` with `reregister_component` runs.

use crate::stats::{block_rates, list, Rng, Samples, Tail};
use crate::trace::Recorder;
use crate::{Metric, Outcome};
use cca_core::{CcaError, CcaServices, Component};
use cca_data::TypeMap;
use cca_repository::{ComponentEntry, FuzzyQuery, PortSpec, QueryPage, Repository};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const TYPES: usize = 250_000;
const POPULATE_BATCH: usize = 62_500;
/// Reader throughput is the median rate over blocks of this many ops.
const RATE_BLOCK: usize = 50;
/// Each round populates a fresh repository (timed as one set-up) and
/// measures a third of the run on it.
const ROUNDS: usize = 3;
const WRITER_BATCH: usize = 64;
/// Writer ticks per second (open loop).
const WRITER_HZ: f64 = 0.25;
const PAGE: usize = 25;
const WALK_PAGES: usize = 5;
const LADDER_NEEDLE: &str = "qzvladder";

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

const WORDS: [&str; 48] = [
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
    "Domain",
    "Field",
    "Particle",
    "Tracer",
    "Spline",
    "Wavelet",
    "Entropy",
    "Adjoint",
    "Sparse",
    "Dense",
];

/// The seed's naming of synthetic type `i`: word and package choices are
/// rotated by seed-drawn offsets; the index keeps every class unique.
#[derive(Clone, Copy)]
struct Naming {
    w1: usize,
    w2: usize,
    pkg: usize,
}

impl Naming {
    fn new(rng: &mut Rng) -> Self {
        Naming {
            w1: rng.below(WORDS.len()),
            w2: rng.below(WORDS.len()),
            pkg: rng.below(PKGS.len()),
        }
    }

    fn words(&self, i: usize) -> (&'static str, &'static str, &'static str) {
        let n = WORDS.len();
        (
            WORDS[(i + self.w1) % n],
            WORDS[(i / n + self.w2) % n],
            PKGS[(i / (n * n) + self.pkg) % PKGS.len()],
        )
    }

    fn class(&self, i: usize) -> String {
        let (w1, w2, pkg) = self.words(i);
        format!("{pkg}.{w1}{w2}{i:07}")
    }

    fn entry(&self, i: usize, revision: u32) -> ComponentEntry {
        let (w1, _, pkg) = self.words(i);
        make_entry(
            self.class(i),
            format!("synthetic {w1} component {i} rev {revision}"),
            format!("{pkg}.{w1}Port"),
        )
    }
}

fn make_entry(class: String, description: String, port_type: String) -> ComponentEntry {
    ComponentEntry {
        class,
        description,
        provides: vec![PortSpec::new("main", port_type)],
        uses: vec![PortSpec::new("go", "cca.ports.GoPort")],
        properties: TypeMap::new(),
        factory: Arc::new(|| Arc::new(Nop) as Arc<dyn Component>),
    }
}

/// The known-answer ladder: one entry per scoring tier, best first
/// (exact class, class prefix, package boundary, mid-word, description).
fn ladder() -> Vec<ComponentEntry> {
    let n = LADDER_NEEDLE;
    let cap = |s: &str| format!("{}{}", s[..1].to_uppercase(), &s[1..]);
    vec![
        make_entry(n.to_string(), "ladder rung 1".into(), "ladder.Port".into()),
        make_entry(
            format!("{n}.Rung2"),
            "ladder rung 2".into(),
            "ladder.Port".into(),
        ),
        make_entry(
            format!("ladder.{}3", cap(n)),
            "ladder rung 3".into(),
            "ladder.Port".into(),
        ),
        make_entry(
            format!("ladder.X{n}4"),
            "ladder rung 4".into(),
            "ladder.Port".into(),
        ),
        make_entry(
            "ladder.Rung5".into(),
            format!("rung 5 mentions {n}"),
            "ladder.Port".into(),
        ),
    ]
}

fn ladder_ranks_in_order(repo: &Repository) -> bool {
    let want: Vec<String> = ladder().into_iter().map(|e| e.class).collect();
    let page = repo.fuzzy(&FuzzyQuery::new(LADDER_NEEDLE).with_limit(10));
    let got: Vec<String> = page.hits.into_iter().map(|h| h.class).collect();
    got == want
}

/// A page is well formed when it respects its limit and its order
/// (score descending, class ascending among ties).
fn page_ok(page: &QueryPage, limit: usize) -> bool {
    page.hits.len() <= limit
        && page.hits.windows(2).all(|w| {
            w[0].score > w[1].score || (w[0].score == w[1].score && w[0].class < w[1].class)
        })
}

/// Fuzzy needles: 30% rare two-word compounds (about a hundred matches),
/// 40% a word plus the leading three index digits of a class (about two
/// hundred), 30% a common single word (about ten thousand). The median
/// query falls inside the cheap 70%, not on the boundary between a cheap
/// and an expensive class, where it would jump between runs.
fn needle(rng: &mut Rng) -> String {
    let a = WORDS[rng.below(WORDS.len())].to_lowercase();
    let kind = rng.unit();
    if kind < 0.3 {
        format!("{a}{}", WORDS[rng.below(WORDS.len())].to_lowercase())
    } else if kind < 0.7 {
        format!("{a}{:03}", rng.below(TYPES / 10_000))
    } else {
        a
    }
}

struct Populated {
    repo: Arc<Repository>,
    setup_s: f64,
    batch_ms: Vec<f64>,
}

fn populate(naming: Naming, rec: &Recorder) -> Populated {
    let mut in_calls = Duration::ZERO;
    let t = Instant::now();
    let repo = Repository::new();
    repo.deposit_sidl("package cca.ports { interface GoPort { void go(); } }")
        .expect("seed SIDL deposits");
    in_calls += t.elapsed();
    let mut batch_ms = Vec::with_capacity(TYPES / POPULATE_BATCH);
    for b in 0..TYPES / POPULATE_BATCH {
        let batch: Vec<ComponentEntry> = (b * POPULATE_BATCH..(b + 1) * POPULATE_BATCH)
            .map(|i| naming.entry(i, 0))
            .collect();
        let s = rec.start();
        let t = Instant::now();
        let n = repo.register_components(batch).expect("populate batch");
        let d = t.elapsed();
        rec.end(s, "repository.populate_batch", 0, b as u64);
        assert_eq!(n, POPULATE_BATCH);
        in_calls += d;
        batch_ms.push(d.as_secs_f64() * 1e3);
    }
    let t = Instant::now();
    repo.register_components(ladder()).expect("ladder deposits");
    in_calls += t.elapsed();
    Populated {
        repo,
        setup_s: in_calls.as_secs_f64(),
        batch_ms,
    }
}

#[derive(Default)]
struct ReaderLog {
    ops: usize,
    /// Completion times, seconds from the phase start.
    done_s: Vec<f64>,
    failed: u64,
    lookup_us: Vec<f64>,
    overlap_lookup_us: Vec<f64>,
    fuzzy_us: Vec<f64>,
    walk_ms: Vec<f64>,
    hit_ratio: Vec<f64>,
}

#[derive(Default)]
struct WriterLog {
    ticks: u64,
    failed: u64,
    due_us: Vec<f64>,
    call_ms: Vec<f64>,
    late_ms: Vec<f64>,
    deposited: Vec<usize>,
}

/// One round's results: a fresh populate, measured and checked.
struct Round {
    setup_s: f64,
    /// VmHWM at the end of this round's timed phase.
    hwm_mb: f64,
    batch_ms: Vec<f64>,
    reader: ReaderLog,
    writer: WriterLog,
    generation_bumps: u64,
    attempted: u64,
    failed: u64,
    checks: Vec<String>,
}

/// Populates a fresh repository (timed as one set-up), runs the reader
/// and the writer against it for `secs`, and checks it.
fn round(naming: Naming, seed: u64, secs: f64, rec: &Recorder) -> Round {
    let Populated {
        repo,
        setup_s,
        batch_ms,
    } = populate(naming, rec);
    let mut checks = Vec::new();
    let mut failed = 0u64;
    let mut attempted = 0u64;
    let ladder_before = ladder_ranks_in_order(&repo);
    attempted += 1;
    if !ladder_before {
        failed += 1;
    }
    let gens_before: u64 = repo.generations().iter().sum();

    let deadline = Instant::now() + Duration::from_secs_f64(secs);
    let depositing = AtomicBool::new(false);
    let deposits_done = AtomicU64::new(0);
    let mut writer_rng = Rng::new(seed.wrapping_add(1));
    let mut reader_rng = Rng::new(seed.wrapping_add(2));
    let started = Instant::now();

    let (reader, writer) = std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let mut log = WriterLog::default();
            let interval = Duration::from_secs_f64(1.0 / WRITER_HZ);
            let mut next_new = TYPES;
            let mut revision = 1u32;
            let mut due = started + interval / 4;
            while due < deadline {
                let now = Instant::now();
                if now < due {
                    std::thread::sleep(due - now);
                }
                let begin = Instant::now();
                log.late_ms
                    .push(begin.saturating_duration_since(due).as_secs_f64() * 1e3);
                depositing.store(true, Ordering::SeqCst);
                let s = rec.start();
                let ok = if log.ticks % 2 == 0 {
                    let batch: Vec<ComponentEntry> = (next_new..next_new + WRITER_BATCH)
                        .map(|i| naming.entry(i, 0))
                        .collect();
                    let r = repo.register_components(batch);
                    rec.end(s, "repository.register_components", 0, log.ticks);
                    let ok = matches!(r, Ok(n) if n == WRITER_BATCH);
                    if ok {
                        log.deposited.extend(next_new..next_new + WRITER_BATCH);
                    }
                    next_new += WRITER_BATCH;
                    ok
                } else {
                    for _ in 0..WRITER_BATCH {
                        let i = writer_rng.below(TYPES);
                        repo.reregister_component(naming.entry(i, revision));
                    }
                    revision += 1;
                    rec.end(s, "repository.reregister_components", 0, log.ticks);
                    true
                };
                let end = Instant::now();
                depositing.store(false, Ordering::SeqCst);
                deposits_done.fetch_add(1, Ordering::SeqCst);
                log.call_ms.push((end - begin).as_secs_f64() * 1e3);
                log.due_us.push((end - due).as_secs_f64() * 1e6);
                log.ticks += 1;
                if !ok {
                    log.failed += 1;
                }
                due += interval;
            }
            log
        });

        let mut log = ReaderLog::default();
        let rng = &mut reader_rng;
        while Instant::now() < deadline {
            let before = deposits_done.load(Ordering::SeqCst);
            let overlapped_at_start = depositing.load(Ordering::SeqCst);
            let pick = rng.unit();
            let s = rec.start();
            let t = Instant::now();
            let ok;
            if pick < 0.6 {
                let class = naming.class(rng.below(TYPES));
                let r = repo.entry(&class);
                let us = t.elapsed().as_secs_f64() * 1e6;
                rec.end(s, "repository.entry", 0, log.ops as u64);
                ok = matches!(r, Ok(e) if e.class == class);
                let overlapped = overlapped_at_start
                    || depositing.load(Ordering::SeqCst)
                    || deposits_done.load(Ordering::SeqCst) != before;
                if overlapped {
                    log.overlap_lookup_us.push(us);
                }
                log.lookup_us.push(us);
            } else if pick < 0.9 {
                let n = needle(rng);
                let page = repo.fuzzy(&FuzzyQuery::new(n).with_limit(PAGE));
                log.fuzzy_us.push(t.elapsed().as_secs_f64() * 1e6);
                rec.end(s, "repository.fuzzy", 0, log.ops as u64);
                log.hit_ratio.push(page.hits.len() as f64 / PAGE as f64);
                ok = page_ok(&page, PAGE);
            } else {
                let n = WORDS[rng.below(WORDS.len())].to_lowercase();
                let mut q = FuzzyQuery::new(n).with_limit(PAGE);
                let mut walk_ok = true;
                let mut prev_last = None;
                for _ in 0..WALK_PAGES {
                    let page = repo.fuzzy(&q);
                    walk_ok &= page_ok(&page, PAGE);
                    if let (Some((ps, pc)), Some(first)) = (&prev_last, page.hits.first()) {
                        walk_ok &= first.score < *ps || (first.score == *ps && first.class > *pc);
                    }
                    prev_last = page.hits.last().map(|h| (h.score, h.class.clone()));
                    match page.next {
                        Some(c) => q = q.after(c),
                        None => break,
                    }
                }
                log.walk_ms.push(t.elapsed().as_secs_f64() * 1e3);
                rec.end(s, "repository.page_walk", 0, log.ops as u64);
                ok = walk_ok;
            }
            log.ops += 1;
            log.done_s.push(started.elapsed().as_secs_f64());
            if !ok {
                log.failed += 1;
            }
        }
        (log, writer.join().expect("writer thread panicked"))
    });
    let hwm_mb = crate::host::peak_rss_mb();

    // Every deposited class resolves; the ladder still ranks in order.
    let unresolved = writer
        .deposited
        .iter()
        .filter(|&&i| repo.entry(&naming.class(i)).is_err())
        .count();
    attempted += 1;
    let ladder_after = ladder_ranks_in_order(&repo);
    if !ladder_after {
        failed += 1;
    }
    let gens_after: u64 = repo.generations().iter().sum();
    checks.push(format!(
        "ladder ranks in order: before={ladder_before} after={ladder_after}"
    ));
    checks.push(format!(
        "deposited classes resolve: {}/{} ({} unresolved)",
        writer.deposited.len() - unresolved,
        writer.deposited.len(),
        unresolved
    ));
    checks.push(format!(
        "reader ops failed: {} of {}; writer ticks failed: {} of {}",
        reader.failed, reader.ops, writer.failed, writer.ticks
    ));
    attempted += reader.ops as u64 + writer.ticks + writer.deposited.len() as u64;
    failed += reader.failed + writer.failed + unresolved as u64;
    Round {
        setup_s,
        hwm_mb,
        batch_ms,
        reader,
        writer,
        generation_bumps: gens_after - gens_before,
        attempted,
        failed,
        checks,
    }
}

pub fn run(seed: u64, seconds: f64, tail: Tail, rec: &Recorder) -> Outcome {
    let naming = Naming::new(&mut Rng::new(seed));
    let rounds: Vec<Round> = (0..ROUNDS as u64)
        .map(|i| {
            round(
                naming,
                seed.wrapping_add(i << 32),
                seconds / ROUNDS as f64,
                rec,
            )
        })
        .collect();
    let pooled = |f: &dyn Fn(&Round) -> &Vec<f64>| -> Vec<f64> {
        rounds.iter().flat_map(|r| f(r).iter().copied()).collect()
    };
    let peak_rss_mb = rounds[0].hwm_mb;
    let ops: usize = rounds.iter().map(|r| r.reader.ops).sum();
    let rates: Vec<f64> = rounds
        .iter()
        .flat_map(|r| block_rates(&r.reader.done_s, RATE_BLOCK))
        .collect();
    let mut checks: Vec<String> = rounds
        .iter()
        .enumerate()
        .flat_map(|(i, r)| r.checks.iter().map(move |c| format!("round {i}: {c}")))
        .collect();

    let lookup = Samples::new(pooled(&|r| &r.reader.lookup_us));
    let fuzzy = Samples::new(pooled(&|r| &r.reader.fuzzy_us));
    // The median over rounds of each round's median: one disturbed round
    // cannot move it.
    let round_p50_us: Vec<f64> = rounds
        .iter()
        .map(|r| Samples::new(r.reader.fuzzy_us.clone()).median())
        .collect();
    checks.push(format!("fuzzy p50 per round, us: {}", list(&round_p50_us)));
    let fuzzy_p50_us = Samples::new(round_p50_us).median();
    let deposit = Samples::new(pooled(&|r| &r.writer.due_us));
    let queries_per_s = Samples::new(rates).median();
    let named = vec![
        Metric::new("lookup_p50_us", lookup.median(), "us", lookup.len()),
        Metric::new("fuzzy_p50_us", fuzzy_p50_us, "us", fuzzy.len()),
        Metric::new("fuzzy_tail_us", fuzzy.quantile(tail.q()), "us", fuzzy.len()),
        Metric::new("queries_per_s", queries_per_s, "1/s", ops),
        Metric::new(
            "deposit_tail_ms",
            deposit.quantile(tail.q()) / 1e3,
            "ms",
            deposit.len(),
        ),
    ];

    let mut layers = Vec::new();
    if rec.on() {
        // Populate figures come from the median set-up.
        let mut by_setup: Vec<&Round> = rounds.iter().collect();
        by_setup.sort_by(|a, b| a.setup_s.total_cmp(&b.setup_s));
        let batch_ms = &by_setup[by_setup.len() / 2].batch_ms;
        let nb = batch_ms.len();
        let calls = Samples::new(pooled(&|r| &r.writer.call_ms));
        let late = Samples::new(pooled(&|r| &r.writer.late_ms));
        let overlap = Samples::new(pooled(&|r| &r.reader.overlap_lookup_us));
        let walks = Samples::new(pooled(&|r| &r.reader.walk_ms));
        let hits = Samples::new(pooled(&|r| &r.reader.hit_ratio));
        let populate_s = batch_ms.iter().sum::<f64>() / 1e3;
        let bumps: u64 = rounds.iter().map(|r| r.generation_bumps).sum();
        layers.extend([
            Metric::new("repository.populate_s", populate_s, "s", nb),
            Metric::new(
                "repository.batch_deposit_ms",
                Samples::new(batch_ms.clone()).median(),
                "ms",
                nb,
            ),
            Metric::new(
                "repository.batch_cost_growth",
                batch_ms[nb - 1] / batch_ms[0],
                "ratio",
                nb,
            ),
            Metric::new("repository.deposit_ms", calls.median(), "ms", calls.len()),
            Metric::new(
                "repository.deposit_tail_ms",
                deposit.quantile(tail.q()) / 1e3,
                "ms",
                deposit.len(),
            ),
            Metric::new(
                "repository.writer_lateness_ms",
                late.quantile(tail.q()),
                "ms",
                late.len(),
            ),
            Metric::new(
                "repository.lookup_p50_us",
                lookup.median(),
                "us",
                lookup.len(),
            ),
            Metric::new(
                "repository.overlap_lookup_tail_us",
                overlap.quantile(tail.q()),
                "us",
                overlap.len(),
            ),
            Metric::new(
                "repository.fuzzy_hit_ratio",
                hits.sum() / hits.len().max(1) as f64,
                "ratio",
                hits.len(),
            ),
            Metric::new("repository.page_walk_ms", walks.median(), "ms", walks.len()),
            Metric::new("repository.generation_bumps", bumps as f64, "count", ROUNDS),
        ]);
        let per_batch: Vec<String> = batch_ms.iter().map(|m| format!("{m:.1}")).collect();
        checks.push(format!(
            "populate batch ms by index: [{}]",
            per_batch.join(", ")
        ));
    }

    Outcome {
        attempted: rounds.iter().map(|r| r.attempted).sum(),
        failed: rounds.iter().map(|r| r.failed).sum(),
        shape: format!(
            "{ROUNDS} rounds of set-up + run; {TYPES} types in {POPULATE_BATCH}-type batches; reader 60/30/10 lookup/fuzzy/walk (limit {PAGE}, {WALK_PAGES} pages); writer {WRITER_HZ}/s x {WRITER_BATCH} types"
        ),
        checks,
        setup_s: rounds.iter().map(|r| r.setup_s).collect(),
        ops_count: ops,
        peak_rss_mb,
        op_us: fuzzy,
        op_p50_us: fuzzy_p50_us,
        ops_per_s: queries_per_s,
        named,
        layers,
    }
}
