//! Order statistics and the seeded generator every workload draws from.

/// SplitMix64: a tiny, fast, well-mixed generator. The workload seed is
/// the only source of randomness, so the same seed gives the same inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5EED_CCA0_0000_0001)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A sorted sample set.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn new(mut v: Vec<f64>) -> Self {
        v.sort_by(|a, b| a.total_cmp(b));
        Samples(v)
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn values(&self) -> &[f64] {
        &self.0
    }

    /// Nearest-rank quantile; 0 for an empty set.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let rank = (q * self.0.len() as f64).ceil().max(1.0) as usize;
        self.0[rank.min(self.0.len()) - 1]
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// Samples strictly above the nearest-rank quantile's position.
    pub fn beyond(&self, q: f64) -> usize {
        let rank = (q * self.0.len() as f64).ceil() as usize;
        self.0.len().saturating_sub(rank)
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }
}

/// `[a, b, c]` with one decimal: per-instance figures for the report.
pub fn list(values: &[f64]) -> String {
    let parts: Vec<String> = values.iter().map(|v| format!("{v:.1}")).collect();
    format!("[{}]", parts.join(", "))
}

/// Completions per second over each run of `block` consecutive
/// completions; `stamps` are completion times in seconds from the phase
/// start, ascending. Reporting the median block keeps one stalled moment
/// from moving a throughput figure, and unlike per-interval counts the
/// rates are not quantised.
pub fn block_rates(stamps: &[f64], block: usize) -> Vec<f64> {
    let mut out = Vec::new();
    let mut start = 0.0;
    for chunk in stamps.chunks_exact(block) {
        let end = chunk[block - 1];
        if end > start {
            out.push(block as f64 / (end - start));
        }
        start = end;
    }
    out
}

/// The tail percentile a workload reports: the highest of p99 and p90
/// that leaves at least ten samples beyond it at the workload's run
/// length. Fixed per workload (see `BENCHMARK.json`'s `why` lines), so
/// every run of a workload reports the same percentile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tail {
    P90,
    P99,
}

impl Tail {
    pub fn q(self) -> f64 {
        match self {
            Tail::P90 => 0.90,
            Tail::P99 => 0.99,
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            Tail::P90 => "p90",
            Tail::P99 => "p99",
        }
    }
}
