//! Run fingerprints, result lines and files, and the compare step.

use crate::stats;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// One measured figure with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Where runs leave span dumps and result files (inside the package).
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// What produced a result: hardware, build and workload settings.
/// Ordered `(key, value)` pairs.
#[derive(Debug, Clone)]
pub struct Fingerprint(pub Vec<(&'static str, String)>);

impl Fingerprint {
    /// The machine half: kernel dispatch, core count, CPU and commit.
    pub fn machine(gemm_tier: bool) -> Fingerprint {
        let dispatch = hotspot_bnn::dispatch_report();
        let available: Vec<&str> = dispatch.available.iter().map(|b| b.name()).collect();
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        Fingerprint(vec![
            ("backend", dispatch.active.name().to_string()),
            ("available_backends", available.join(",")),
            ("gemm_tier", gemm_tier.to_string()),
            ("nproc", nproc.to_string()),
            ("cpu", cpu_model()),
            ("commit", git_commit()),
        ])
    }

    pub fn with(mut self, key: &'static str, value: impl ToString) -> Fingerprint {
        self.0.push((key, value.to_string()));
        self
    }

    pub fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| {
                format!(
                    "\"{k}\":\"{}\"",
                    v.replace('\\', "\\\\").replace('"', "\\\"")
                )
            })
            .collect();
        format!("{{{}}}", fields.join(","))
    }
}

/// The CPU brand string from CPUID, without reading any file.
fn cpu_model() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::__cpuid;
        // Leaf 0x8000_0000 reports the highest extended leaf.
        let max = __cpuid(0x8000_0000).eax;
        if max >= 0x8000_0004 {
            let mut bytes = Vec::with_capacity(48);
            for leaf in 0x8000_0002..=0x8000_0004u32 {
                let r = __cpuid(leaf);
                for reg in [r.eax, r.ebx, r.ecx, r.edx] {
                    bytes.extend_from_slice(&reg.to_le_bytes());
                }
            }
            let brand = String::from_utf8_lossy(&bytes);
            return brand
                .trim_matches(|c: char| c == '\0' || c.is_whitespace())
                .to_string();
        }
    }
    "unknown".to_string()
}

/// The checked-out commit, when the source tree is a git work tree.
fn git_commit() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(git.join(r))
            .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string()),
        None => head.to_string(),
    }
}

/// The machine-readable last line of a run.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let mut m = String::new();
    for (i, x) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            m,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            x.name, x.value, x.unit
        );
    }
    format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{m}}}}}")
}

/// A result file: `key<TAB>value` lines, fingerprint first.
pub fn render_result(fp: &Fingerprint, metrics: &[Metric]) -> String {
    let mut text = String::new();
    for (k, v) in &fp.0 {
        let _ = writeln!(text, "fingerprint.{k}\t{v}");
    }
    for m in metrics {
        let _ = writeln!(text, "metric.{}\t{}\t{}", m.name, m.value, m.unit);
    }
    text
}

/// One parsed result file.
#[derive(Debug, Default)]
struct ResultFile {
    fingerprint: BTreeMap<String, String>,
    metrics: BTreeMap<String, f64>,
}

fn parse_result(text: &str) -> ResultFile {
    let mut r = ResultFile::default();
    for line in text.lines() {
        let mut cols = line.split('\t');
        let (Some(key), Some(value)) = (cols.next(), cols.next()) else {
            continue;
        };
        if let Some(k) = key.strip_prefix("fingerprint.") {
            r.fingerprint.insert(k.to_string(), value.to_string());
        } else if let (Some(k), Ok(v)) = (key.strip_prefix("metric."), value.parse()) {
            r.metrics.insert(k.to_string(), v);
        }
    }
    r
}

/// Fingerprint keys two results must share to be compared.
const MUST_MATCH: [&str; 3] = ["backend", "nproc", "workload"];

/// `compare --base FILE... --new FILE...`: per-metric medians and
/// quartiles of both sides.  Refuses (exit 2) when the runs differ in
/// backend, core count or workload.
pub fn compare(args: &[String]) -> i32 {
    let (mut base, mut new, mut side) = (Vec::new(), Vec::new(), None);
    for a in args {
        match a.as_str() {
            "--base" => side = Some(true),
            "--new" => side = Some(false),
            path => match (side, std::fs::read_to_string(path)) {
                (Some(is_base), Ok(text)) => {
                    if is_base { &mut base } else { &mut new }.push(parse_result(&text));
                }
                (None, _) => return usage("compare: name --base or --new before files"),
                (_, Err(e)) => return usage(&format!("compare: {path}: {e}")),
            },
        }
    }
    if base.is_empty() || new.is_empty() {
        return usage("compare: need at least one --base and one --new result file");
    }
    if let Err(msg) = comparable(base.iter().chain(&new)) {
        eprintln!("compare: refusing: {msg}");
        return 2;
    }
    println!(
        "{:<40} {:>12} {:>12} {:>12} {:>9}",
        "metric", "base_p50", "base_iqr", "new_p50", "change"
    );
    for name in base[0].metrics.keys() {
        let side = |runs: &[ResultFile]| {
            stats::sorted(
                runs.iter()
                    .filter_map(|r| r.metrics.get(name).copied())
                    .collect(),
            )
        };
        let (b, n) = (side(&base), side(&new));
        if b.is_empty() || n.is_empty() {
            continue;
        }
        let (b50, n50) = (stats::quantile(&b, 0.5), stats::quantile(&n, 0.5));
        let iqr = stats::quantile(&b, 0.75) - stats::quantile(&b, 0.25);
        let change = if b50 == 0.0 {
            0.0
        } else {
            (n50 - b50) / b50 * 100.0
        };
        println!("{name:<40} {b50:>12.4} {iqr:>12.4} {n50:>12.4} {change:>+8.2}%");
    }
    0
}

fn comparable<'a>(mut runs: impl Iterator<Item = &'a ResultFile>) -> Result<(), String> {
    let first = runs.next().expect("at least one run");
    for r in runs {
        for key in MUST_MATCH {
            let (a, b) = (first.fingerprint.get(key), r.fingerprint.get(key));
            if a != b {
                return Err(format!("{key} differs ({a:?} vs {b:?})"));
            }
        }
    }
    Ok(())
}

fn usage(msg: &str) -> i32 {
    eprintln!("{msg}");
    2
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(backend: &str, nproc: &str, value: f64) -> ResultFile {
        let fp = Fingerprint(vec![
            ("backend", backend.into()),
            ("nproc", nproc.into()),
            ("workload", "clips_paced".into()),
        ]);
        let metric = Metric {
            name: "clip_p50_ms".into(),
            value,
            unit: "ms",
        };
        parse_result(&render_result(&fp, &[metric]))
    }

    #[test]
    fn result_files_round_trip_and_mismatched_machines_are_refused() {
        let a = result("avx512", "2", 9.25);
        assert_eq!(a.metrics["clip_p50_ms"], 9.25);
        assert_eq!(a.fingerprint["backend"], "avx512");
        assert!(comparable([&a, &result("avx512", "2", 9.5)].into_iter()).is_ok());
        assert!(comparable([&a, &result("avx2", "2", 9.5)].into_iter()).is_err());
        assert!(comparable([&a, &result("avx512", "4", 9.5)].into_iter()).is_err());
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let line = result_line(
            true,
            3,
            0,
            &[Metric {
                name: "setup_s".into(),
                value: 0.5,
                unit: "s",
            }],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
