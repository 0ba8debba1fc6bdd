//! The environment a result was measured in, and the build guards.

use crate::json::quote;
use std::path::Path;

/// Why this build must not produce timings, if it must not: a debug
/// build, or a library build with invariant audits or fault-injection
/// checks compiled into the hot path.
pub fn build_refusal() -> Option<&'static str> {
    if cfg!(debug_assertions) {
        Some("debug assertions are enabled; build with --release")
    } else if mcnetkat_fdd::AUDIT_ENABLED {
        Some("the `audit` feature is enabled; timings would include invariant audits")
    } else if mcnetkat_fdd::FAILPOINTS_ENABLED {
        Some("the `failpoints` feature is enabled; timings would include fault-injection checks")
    } else {
        None
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    info.lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

/// The filesystem type of the mount holding `dir` (longest mount-point
/// prefix in `/proc/self/mountinfo`).
fn fs_type(dir: &Path) -> Option<String> {
    let dir = std::fs::canonicalize(dir).ok()?;
    let info = std::fs::read_to_string("/proc/self/mountinfo").ok()?;
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let Some(sep) = fields.iter().position(|f| *f == "-") else {
            continue;
        };
        let (Some(mount), Some(fstype)) = (fields.get(4), fields.get(sep + 1)) else {
            continue;
        };
        if dir.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() >= *len) {
            best = Some((mount.len(), fstype.to_string()));
        }
    }
    best.map(|(_, t)| t)
}

/// The checked-out commit, read from `.git` in the working directory
/// (absent in an exported tree).
fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_string)
}

/// The fingerprint object of a results file. `journal_dir` must exist.
pub fn fingerprint_json(journal_dir: &Path, seed: u64, seconds: f64) -> String {
    let opt = |v: Option<String>| v.map_or("null".to_string(), |s| quote(&s));
    format!(
        "{{\"nproc\": {}, \"cpu_model\": {}, \"journal_fs\": {}, \"git_commit\": {}, \
         \"seed\": {seed}, \"seconds\": {}, \"build\": {}}}",
        nproc(),
        opt(cpu_model()),
        opt(fs_type(journal_dir)),
        opt(git_commit()),
        crate::json::num(seconds),
        quote(build_refusal().unwrap_or("release")),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_is_valid_json() {
        let fp = fingerprint_json(Path::new("."), 3, 1.5);
        let v = crate::json::parse(&fp).expect("valid JSON");
        assert_eq!(v.get("seed").and_then(|s| s.as_f64()), Some(3.0));
        assert!(v.get("nproc").and_then(|s| s.as_f64()).unwrap() >= 1.0);
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mib().unwrap() > 0.0);
    }
}
