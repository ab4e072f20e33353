//! cca-perfbench: the repository's benchmark.
//!
//! ```text
//! cca-perfbench --workload <rpc_mix|figure1_solve|catalog_mix> --seed <n>
//!               --seconds <s> --trace <0|1>
//! ```
//!
//! Each run makes its inputs from the seed, sets up through the public
//! APIs of the cca crates (timed as `setup_s`), measures for `--seconds`,
//! checks the program's outputs, tears down, and prints a human-readable
//! report followed by one JSON result line. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` records spans around every layer call
//! (written to `.perfbench_out/spans/`) and reports the per-layer
//! metrics. Every run also leaves a record in `.perfbench_out/runs/`,
//! which `perfbench/compare.py` reads.

mod catalog;
mod figure1;
mod host;
mod rpc_mix;
mod stats;
mod trace;

use stats::{Samples, Tail};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use trace::Recorder;

/// Where records and spans go, relative to the working directory.
const OUT_DIR: &str = ".perfbench_out";

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Self {
        Metric {
            name,
            value,
            unit,
            samples,
        }
    }
}

/// What a workload hands back after teardown.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// One line naming the inputs' shape.
    pub shape: String,
    /// Output checks, one line each.
    pub checks: Vec<String>,
    /// Seconds spent in program calls before the timed phase, one sample
    /// per set-up repetition.
    pub setup_s: Vec<f64>,
    /// The workload's closed-loop operation latencies, µs, pooled.
    pub op_us: Samples,
    /// The median over the run's program instances (rounds or cycles) of
    /// each instance's median operation latency, µs: one disturbed
    /// instance cannot move it.
    pub op_p50_us: f64,
    /// Operations per second of the workload's throughput phase, and the
    /// operations it counted.
    pub ops_per_s: f64,
    pub ops_count: usize,
    /// VmHWM at the end of the first program instance's timed phase: the
    /// footprint one set-up and its load reach. Later instances only add
    /// allocator retention from the benchmark's own rebuilding.
    pub peak_rss_mb: f64,
    /// The workload's metrics under their workload-specific names.
    pub named: Vec<Metric>,
    /// Per-layer metrics from the traced run (empty when untraced).
    pub layers: Vec<Metric>,
}

/// Per-layer metrics, the same list on every workload. A workload that
/// bypasses a layer reports 0 for it with 0 samples. `op_tail_us`, the
/// closed-loop operation's tail, leads the list: it is end-to-end in
/// kind, but does not repeat within a tenth between runs on a 2-vCPU host.
const PER_LAYER: &[(&str, &str)] = &[
    ("op_tail_us", "us"),
    ("core.port_call_us", "us"),
    ("rpc.objref_invoke_us", "us"),
    ("rpc.encode_ns", "ns"),
    ("rpc.submit_ns", "ns"),
    ("rpc.wait_us", "us"),
    ("rpc.server_dispatch_us", "us"),
    ("rpc.wire_queue_us", "us"),
    ("rpc.dials", "count"),
    ("rpc.peak_in_flight", "count"),
    ("rpc.window_tail_us", "us"),
    ("rpc.probe_wait_us", "us"),
    ("rpc.probe_tail_us", "us"),
    ("data.plan_compile_ms", "ms"),
    ("data.apply_into_gbps", "GB/s"),
    ("framework.bulk_send_ms", "ms"),
    ("framework.landing_wait_ms", "ms"),
    ("framework.bulk_peak_bytes", "bytes"),
    ("framework.mxn_gbps", "GB/s"),
    ("framework.hub_join_ms", "ms"),
    ("framework.frame_send_ms", "ms"),
    ("framework.frame_land_ms", "ms"),
    ("framework.frame_tail_us", "us"),
    ("framework.leaked_threads", "count"),
    ("framework.leaked_fds", "count"),
    ("solvers.cg_iters", "count"),
    ("solvers.matvec_us", "us"),
    ("solvers.precond_us", "us"),
    ("solvers.advect_us", "us"),
    ("solvers.serial_step_ms", "ms"),
    ("parallel.allreduce_us", "us"),
    ("parallel.allreduce_per_step", "count"),
    ("parallel.allreduce_skew_us", "us"),
    ("parallel.allreduce_share", "ratio"),
    ("viz.field_stats_us", "us"),
    ("repository.populate_s", "s"),
    ("repository.batch_deposit_ms", "ms"),
    ("repository.batch_cost_growth", "ratio"),
    ("repository.deposit_ms", "ms"),
    ("repository.deposit_tail_ms", "ms"),
    ("repository.writer_lateness_ms", "ms"),
    ("repository.lookup_p50_us", "us"),
    ("repository.overlap_lookup_tail_us", "us"),
    ("repository.fuzzy_hit_ratio", "ratio"),
    ("repository.page_walk_ms", "ms"),
    ("repository.generation_bumps", "count"),
];

/// End-to-end metric names, the same on every workload. What each one
/// measures on each workload is listed in `perfbench/README.md`.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_p50_us", "us"),
    ("ops_per_s", "1/s"),
];

/// Workload name, its fixed tail percentile, and why it exists.
pub const WORKLOADS: &[(&str, Tail, &str)] = &[
    (
        "rpc_mix",
        Tail::P99,
        "mux event loop, frame codec and bulk plane on the critical path; no solver or catalog work",
    ),
    (
        "figure1_solve",
        Tail::P90,
        "solver kernels plus hub-relayed allreduce and halo traffic; bulk frames are only 512 KiB",
    ),
    (
        "catalog_mix",
        Tail::P99,
        "repository only, no wire: populate, trigram index and snapshot swaps under a deposit stream",
    ),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.iter().any(|w| w.0 == workload) {
        return Err(format!("unknown workload {workload}"));
    }
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds {seconds} out of range"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn fmt_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// Pulls `"key": <number>` out of a flat JSON record.
fn extract_num(text: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = text.find(&needle)? + needle.len();
    let rest = text[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Median of each end-to-end metric over the untraced records of this
/// workload in the output directory, with the record count.
fn untraced_medians(workload: &str) -> (usize, BTreeMap<&'static str, f64>) {
    let dir = Path::new(OUT_DIR).join("runs").join(workload);
    let texts: Vec<String> = std::fs::read_dir(&dir)
        .map(|rd| {
            rd.flatten()
                .filter(|e| e.file_name().to_string_lossy().contains("-trace0-"))
                .filter_map(|e| std::fs::read_to_string(e.path()).ok())
                .collect()
        })
        .unwrap_or_default();
    let mut out = BTreeMap::new();
    for (name, _) in END_TO_END {
        let vals: Vec<f64> = texts
            .iter()
            .filter_map(|t| extract_num(t, &format!("e2e.{name}")))
            .collect();
        if !vals.is_empty() {
            out.insert(*name, Samples::new(vals).median());
        }
    }
    (texts.len(), out)
}

fn write_record(args: &Args, host: &str, outcome: &Outcome, e2e: &[Metric]) -> PathBuf {
    let dir = Path::new(OUT_DIR).join("runs").join(&args.workload);
    let path = dir.join(format!(
        "seed{}-trace{}-{}.json",
        args.seed,
        args.trace as u8,
        std::process::id()
    ));
    let mut body = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"seconds\":{},\"host\":{host},\"shape\":\"{}\",\"attempted\":{},\"failed\":{}",
        args.workload,
        args.seed,
        args.trace as u8,
        args.seconds,
        outcome.shape,
        outcome.attempted,
        outcome.failed
    );
    for m in e2e {
        body.push_str(&format!(",\"e2e.{}\":{}", m.name, fmt_num(m.value)));
    }
    for m in &outcome.named {
        body.push_str(&format!(",\"named.{}\":{}", m.name, fmt_num(m.value)));
    }
    for m in &outcome.layers {
        body.push_str(&format!(",\"layer.{}\":{}", m.name, fmt_num(m.value)));
    }
    body.push_str("}\n");
    let written = std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, body));
    if let Err(e) = written {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
    path
}

fn print_metric(kind: &str, m: &Metric) {
    println!(
        "{kind:<6} {:<34} {:>16.4} {:<6} n={}",
        m.name, m.value, m.unit, m.samples
    );
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let (_, tail, why) = *WORKLOADS
        .iter()
        .find(|w| w.0 == args.workload)
        .expect("validated workload");
    let host = host::fingerprint();
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} tail={}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        tail.label()
    );
    println!("# why: {why}");
    println!("# host: {host}");

    let rec = Arc::new(Recorder::new(args.trace));
    let baseline = host::held();
    let mut outcome = match args.workload.as_str() {
        "rpc_mix" => rpc_mix::run(args.seed, args.seconds, tail, &rec),
        "figure1_solve" => figure1::run(args.seed, args.seconds, tail, &rec),
        "catalog_mix" => catalog::run(args.seed, args.seconds, tail, &rec),
        _ => unreachable!("validated workload"),
    };
    let after = host::held();
    let op_tail = Metric::new(
        "op_tail_us",
        outcome.op_us.quantile(tail.q()),
        "us",
        outcome.op_us.len(),
    );
    outcome.named.insert(0, op_tail.clone());
    if args.trace {
        outcome.layers.push(op_tail);
        outcome.layers.push(Metric::new(
            "framework.leaked_threads",
            after.threads as f64 - baseline.threads as f64,
            "count",
            1,
        ));
        outcome.layers.push(Metric::new(
            "framework.leaked_fds",
            after.fds as f64 - baseline.fds as f64,
            "count",
            1,
        ));
    }

    println!("# shape: {}", outcome.shape);
    for c in &outcome.checks {
        println!("# check: {c}");
    }
    let setup = Samples::new(outcome.setup_s.clone());
    let e2e = vec![
        Metric::new("setup_s", setup.median(), "s", setup.len()),
        Metric::new("peak_rss_mb", outcome.peak_rss_mb, "MB", 1),
        Metric::new("op_p50_us", outcome.op_p50_us, "us", outcome.op_us.len()),
        Metric::new("ops_per_s", outcome.ops_per_s, "1/s", outcome.ops_count),
    ];
    debug_assert_eq!(e2e.len(), END_TO_END.len());
    for m in &e2e {
        print_metric("e2e", m);
    }
    println!(
        "# {} tail: {} op samples beyond it",
        tail.label(),
        outcome.op_us.beyond(tail.q())
    );
    let error_rate = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    print_metric(
        "named",
        &Metric::new(
            "error_rate",
            error_rate,
            "ratio",
            outcome.attempted as usize,
        ),
    );
    for m in &outcome.named {
        print_metric("named", m);
    }

    let mut layers: Vec<Metric> = Vec::new();
    if args.trace {
        for (name, unit) in PER_LAYER {
            let m = outcome
                .layers
                .iter()
                .find(|m| m.name == *name)
                .cloned()
                .unwrap_or_else(|| Metric::new(name, 0.0, unit, 0));
            debug_assert_eq!(m.unit, *unit, "unit of {name}");
            print_metric("layer", &m);
            layers.push(m);
        }
        println!("# self time by layer (spans from the benchmark's call sites):");
        for (layer, (count, total, own)) in rec.self_times() {
            println!(
                "#   {layer:<12} spans={count:<8} total_ms={:<12.3} self_ms={:.3}",
                total as f64 / 1e6,
                own as f64 / 1e6
            );
        }
        let spans_path = Path::new(OUT_DIR)
            .join("spans")
            .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        match rec.write_jsonl(&spans_path) {
            Ok(n) => println!("# spans: {n} written to {}", spans_path.display()),
            Err(e) => println!("# spans: not written ({e})"),
        }
        let (runs, medians) = untraced_medians(&args.workload);
        if medians.is_empty() {
            println!("# tracing overhead: no untraced record of this workload yet");
        }
        for m in &e2e {
            if let Some(base) = medians.get(m.name) {
                println!(
                    "# tracing overhead {:<14} traced={:.4} untraced_median={:.4} (of {runs} runs) diff={:+.4} {} ({:+.1}%)",
                    m.name,
                    m.value,
                    base,
                    m.value - base,
                    m.unit,
                    100.0 * (m.value - base) / base
                );
            }
        }
    }
    let record = write_record(&args, &host, &outcome, &e2e);
    println!("# record: {}", record.display());

    let correct = outcome.failed == 0 && outcome.attempted > 0;
    let shown = if args.trace { &layers } else { &e2e };
    let body: Vec<String> = shown
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                fmt_num(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        body.join(", ")
    );
}
