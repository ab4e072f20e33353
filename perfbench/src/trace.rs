//! The benchmark's own span recorder, used only by traced runs.
//!
//! Spans are recorded from the benchmark's files around its calls into
//! each layer; nothing inside the program is switched on. A span holds
//! its name, start, end, the span that caused it, and the request id
//! shared by every span of one request. Spans stay in memory and are
//! written out once, when the run ends. With the recorder off, `start`
//! returns an empty handle and `end` does nothing, so untraced runs pay
//! one branch per call site.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub req: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An open span: its id (children name it as their parent) and start.
#[derive(Debug, Clone, Copy)]
pub struct Open {
    pub id: u64,
    start_ns: u64,
}

pub struct Recorder {
    on: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new(on: bool) -> Self {
        Recorder {
            on,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Nanoseconds since the recorder was made: the shared clock every
    /// thread stamps against.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn start(&self) -> Open {
        if !self.on {
            return Open { id: 0, start_ns: 0 };
        }
        Open {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            start_ns: self.now_ns(),
        }
    }

    /// Closes `open` as `name`; returns its duration in ns (0 when off).
    pub fn end(&self, open: Open, name: &'static str, parent: u64, req: u64) -> u64 {
        if !self.on {
            return 0;
        }
        let end_ns = self.now_ns();
        self.push(Span {
            id: open.id,
            parent,
            req,
            name,
            start_ns: open.start_ns,
            end_ns,
        });
        end_ns.saturating_sub(open.start_ns)
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span buffer poisoned").push(span);
    }

    /// Runs `f` over every span recorded so far, without copying them.
    pub fn with_spans<R>(&self, f: impl FnOnce(&[Span]) -> R) -> R {
        f(&self.spans.lock().expect("span buffer poisoned"))
    }

    /// Durations in microseconds of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.with_spans(|spans| {
            spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.dur_ns() as f64 / 1e3)
                .collect()
        })
    }

    /// Per layer (the span name up to its first `.`): span count, total
    /// time and self time in ns. Self time is a span's duration minus the
    /// part its child spans cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (usize, u64, u64)> {
        self.with_spans(Self::self_times_of)
    }

    fn self_times_of(spans: &[Span]) -> BTreeMap<&'static str, (usize, u64, u64)> {
        let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
        for s in spans {
            if s.parent != 0 {
                *child_ns.entry(s.parent).or_default() += s.dur_ns();
            }
        }
        let mut out: BTreeMap<&'static str, (usize, u64, u64)> = BTreeMap::new();
        for s in spans {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            let own = s
                .dur_ns()
                .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
            let e = out.entry(layer).or_default();
            e.0 += 1;
            e.1 += s.dur_ns();
            e.2 += own;
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<usize> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        self.with_spans(|spans| {
            for s in spans {
                writeln!(
                    out,
                    "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                    s.id, s.parent, s.req, s.name, s.start_ns, s.end_ns
                )?;
            }
            out.flush()?;
            Ok(spans.len())
        })
    }
}
