//! What the run ran on, and what the process holds: the host fingerprint
//! stamped into every result, peak RSS, and live thread and fd counts.

use std::path::Path;
use std::process::Command;

fn first_line_of(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8_lossy(&out.stdout);
    text.lines().next().map(|l| l.trim().to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// FNV-1a over the program's sources (every file under `crates/`, in
/// path order), so a checkout that is not a git repository still names
/// the code it measured.
fn source_hash(root: &Path) -> String {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else {
            return;
        };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(&root.join("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let rel = f
            .strip_prefix(root)
            .unwrap_or(f)
            .to_string_lossy()
            .into_owned();
        for b in rel.bytes().chain(std::fs::read(f).unwrap_or_default()) {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// The host fingerprint as one JSON object: nproc, CPU model, rustc
/// version, git rev (or "unknown" outside a git checkout) and a hash of
/// the program sources.
pub fn fingerprint() -> String {
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let rustc = first_line_of("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
    let rev = first_line_of("git", &["rev-parse", "--short=12", "HEAD"])
        .unwrap_or_else(|| "unknown".into());
    format!(
        "{{\"nproc\":{nproc},\"cpu\":{},\"rustc\":{},\"git_rev\":{},\"src_fnv\":{}}}",
        json_str(&cpu_model()),
        json_str(&rustc),
        json_str(&rev),
        json_str(&source_hash(Path::new(".")))
    )
}

fn status_kib(key: &str) -> Option<u64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set (VmHWM) in MB.
pub fn peak_rss_mb() -> f64 {
    status_kib("VmHWM:").unwrap_or(0) as f64 / 1024.0
}

fn count_entries(dir: &str) -> usize {
    std::fs::read_dir(dir).map(|d| d.count()).unwrap_or(0)
}

/// Live threads and open file descriptors of this process.
#[derive(Debug, Clone, Copy)]
pub struct Held {
    pub threads: usize,
    pub fds: usize,
}

pub fn held() -> Held {
    Held {
        threads: count_entries("/proc/self/task"),
        fds: count_entries("/proc/self/fd"),
    }
}
