//! cca-bench: criterion benchmark harness (see benches/), and the
//! measurement and reporting helpers the gated benches share.
//!
//! The timing helpers are `#[inline]` so each bench compiles them into the
//! same codegen unit as the closures it measures, exactly as when every
//! bench carried its own copy: the gated ratios compare loops whose
//! bodies are inlined alike.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Mean ns/iter of one batch of `iters` calls to `f`.
#[inline]
pub fn time_iters<R>(iters: u64, f: &mut impl FnMut() -> R) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        black_box(f());
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// Calibrates a batch size so one run of `f` takes roughly `target`.
#[inline]
pub fn calibrate<R>(target: Duration, f: &mut impl FnMut() -> R) -> u64 {
    let mut iters: u64 = 1;
    loop {
        let start = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        let elapsed = start.elapsed();
        if elapsed >= target || iters >= 1 << 28 {
            return iters;
        }
        iters = if elapsed.is_zero() {
            iters * 16
        } else {
            let scale = target.as_secs_f64() / elapsed.as_secs_f64();
            ((iters as f64 * scale.clamp(1.2, 16.0)) as u64).max(iters + 1)
        };
    }
}

/// Minimum ns/iter over `samples` batches, each auto-calibrated to roughly
/// `target` wall-clock.
#[inline]
pub fn measure_min<R>(samples: usize, target: Duration, mut f: impl FnMut() -> R) -> f64 {
    let iters = calibrate(target, &mut f);
    (0..samples)
        .map(|_| time_iters(iters, &mut f))
        .fold(f64::INFINITY, f64::min)
}

/// Alternating A/B measurement for a gated ratio: each round times the
/// baseline and the probe back to back, keeping the minimum of each and
/// the minimum per-round `probe/baseline` ratio. Interleaving makes the
/// ratio robust against allocator or clock drift between two long
/// separate measurement windows — a genuinely slower probe is slower in
/// *every* round, while one noisy round cannot fail the gate.
#[inline]
pub fn measure_ratio<RA, RB>(
    samples: usize,
    target: Duration,
    mut baseline: impl FnMut() -> RA,
    mut probe: impl FnMut() -> RB,
) -> (f64, f64, f64) {
    let iters = calibrate(target, &mut baseline);
    calibrate(target, &mut probe); // warm the probe path too
    let (mut best_a, mut best_b, mut best_ratio) = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    for _ in 0..samples {
        let a = time_iters(iters, &mut baseline);
        let b = time_iters(iters, &mut probe);
        best_a = best_a.min(a);
        best_b = best_b.min(b);
        best_ratio = best_ratio.min(b / a);
    }
    (best_a, best_b, best_ratio)
}

/// The upper median: `v[len / 2]` after sorting.
pub fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    v[v.len() / 2]
}

/// Pulls `"key": <number>` out of a JSON text by hand (the workspace
/// vendors no serde); `None` when the key is absent or non-numeric.
pub fn extract_num(text: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\"");
    let at = text.find(&needle)? + needle.len();
    let rest = text[at..].trim_start().strip_prefix(':')?.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Atomic publication: write next to the target, then rename. A crashed or
/// ctrl-C'd bench run never leaves a truncated JSON for CI to trip over.
pub fn write_atomic(path: &str, contents: &str) {
    let tmp = format!("{path}.tmp");
    std::fs::write(&tmp, contents).unwrap_or_else(|e| panic!("write {tmp}: {e}"));
    std::fs::rename(&tmp, path).unwrap_or_else(|e| panic!("rename {tmp} -> {path}: {e}"));
}
