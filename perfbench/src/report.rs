//! The run's result: correctness gates, counts, metrics and the
//! fingerprint of the machine and settings that produced them.

use std::fmt::Write as _;
use std::path::Path;

/// Every end-to-end metric, in the order printed (`--trace 0`).
pub const END_TO_END: [&str; 6] = [
    "setup_s",
    "latency_p50_us",
    "latency_p90_us",
    "throughput_per_s",
    "success_ratio",
    "peak_rss_mb",
];

/// Settings a result depends on, printed before the result line.
pub struct Fingerprint {
    /// Workload name.
    pub workload: &'static str,
    /// Input seed.
    pub seed: u64,
    /// Measuring budget in seconds.
    pub seconds: f64,
    /// Nodes (edges of the road network) of the served graph.
    pub graph_nodes: usize,
    /// Engine worker threads.
    pub engine_workers: usize,
    /// Offered rate of the fixed-rate phase (serve) or 0 (closed loop).
    pub rate: f64,
    /// Latency limit of the capacity ladder in µs (serve) or 0.
    pub limit_us: f64,
}

/// Accumulates one run's result.
pub struct Report {
    traced: bool,
    correct: bool,
    attempted: usize,
    failed: usize,
    end_to_end: Vec<(String, f64, &'static str)>,
    per_layer: Vec<(String, f64, &'static str)>,
    problems: Vec<String>,
    fingerprint: Option<Fingerprint>,
}

impl Report {
    /// An empty report for a traced (`--trace 1`) or untraced run.
    pub fn new(traced: bool) -> Self {
        Self {
            traced,
            correct: true,
            attempted: 0,
            failed: 0,
            end_to_end: Vec::new(),
            per_layer: Vec::new(),
            problems: Vec::new(),
            fingerprint: None,
        }
    }

    /// Records a correctness gate; a failed gate fails the run.
    pub fn check(&mut self, ok: bool, what: &str) {
        if !ok {
            self.correct = false;
            self.problems.push(what.to_owned());
        }
    }

    /// Adds attempted operations and how many of them failed.
    pub fn count(&mut self, attempted: usize, failed: usize) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Records an end-to-end metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.end_to_end.push((name.to_owned(), value, unit));
    }

    /// Records a per-layer metric.
    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.per_layer.push((name.to_owned(), value, unit));
    }

    /// Records `setup_s`, the median of the cold starts' seconds, and
    /// lists them in time order on standard error.
    pub fn setup(&mut self, secs: &[f64]) {
        let ms: Vec<String> = secs.iter().map(|s| format!("{:.2}", s * 1e3)).collect();
        eprintln!("cold starts (ms): {}", ms.join(" "));
        self.metric("setup_s", crate::stats::median(secs), "s");
    }

    /// Records the process's peak resident set (`VmHWM`) as `peak_rss_mb`.
    pub fn peak_rss(&mut self) {
        let kb = std::fs::read_to_string("/proc/self/status")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("VmHWM:"))
                    .and_then(|l| l.split_whitespace().nth(1))
                    .and_then(|v| v.parse::<f64>().ok())
            })
            .unwrap_or(0.0);
        self.metric("peak_rss_mb", kb / 1024.0, "MB");
    }

    /// Sets the fingerprint.
    pub fn fingerprint(&mut self, f: Fingerprint) {
        self.fingerprint = Some(f);
    }

    /// Whether every gate passed.
    pub fn correct(&self) -> bool {
        self.correct
    }

    /// The metrics this run prints: end-to-end when untraced, per-layer
    /// when traced.
    fn printed(&self) -> &[(String, f64, &'static str)] {
        if self.traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }

    /// Value of a recorded metric of the printed kind.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.printed().iter().find(|(n, _, _)| n == name).map(|&(_, v, _)| v)
    }

    /// Human-readable lines, then the fingerprint and the result as the
    /// last line of standard output.
    pub fn print(&self, root: &Path) {
        if !self.traced {
            for name in END_TO_END {
                assert!(self.value(name).is_some(), "end-to-end metric {name} not measured");
            }
        }
        for (name, value, unit) in self.printed() {
            println!("{name:<28} {value:>16.4} {unit}");
        }
        for p in &self.problems {
            println!("GATE FAILED: {p}");
        }
        if let Some(f) = &self.fingerprint {
            println!(
                "fingerprint: {{\"source_digest\": \"{:016x}\", \"nproc\": {}, \
                 \"kernel_tier\": \"{:?}\", \"kernel_threads\": {}, \"engine_workers\": {}, \
                 \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"rate_per_s\": {}, \
                 \"limit_us\": {}, \"graph_nodes\": {}, \"traced\": {}}}",
                source_digest(root),
                std::thread::available_parallelism().map_or(1, |n| n.get()),
                gcwc_linalg::KernelTier::for_nodes(f.graph_nodes),
                gcwc_linalg::parallel::current_threads(),
                f.engine_workers,
                f.workload,
                f.seed,
                f.seconds,
                f.rate,
                f.limit_us,
                f.graph_nodes,
                self.traced,
            );
        }
        println!("{}", self.to_json());
    }

    /// The result object: `correct`, `attempted`, `failed`, `metrics`.
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct,
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, value, unit)) in self.printed().iter().enumerate() {
            // JSON has no infinity; a limit missed by every request
            // prints as the largest finite number.
            let v = if value.is_finite() { *value } else { f64::MAX };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(s, "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}");
        }
        s.push_str("}}");
        s
    }
}

/// FNV-1a over the path and bytes of every source and manifest file
/// under `crates/` and `perfbench/`: identifies the measured code in a
/// checkout without git metadata.
pub fn source_digest(root: &Path) -> u64 {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                if p.file_name().is_some_and(|n| n != "target") {
                    walk(&p, out);
                }
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(&root.join("crates"), &mut files);
    walk(&root.join("perfbench"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for f in files {
        mix(f.strip_prefix(root).unwrap_or(&f).to_string_lossy().as_bytes());
        mix(&std::fs::read(&f).unwrap_or_default());
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = Report::new(false);
        r.count(10, 1);
        r.metric("latency_p50_us", 12.5, "us");
        r.metric("latency_p90_us", f64::INFINITY, "us");
        r.layer("wire.encode_req_us", 1.0, "us");
        let json = r.to_json();
        assert!(json
            .starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 1, \"metrics\": {"));
        assert!(json.contains("\"latency_p50_us\": {\"value\": 12.5, \"unit\": \"us\"}"));
        assert!(json.contains("1.7976931348623157e308"), "{json}");
        assert!(!json.contains("wire."), "per-layer metrics print only when traced");
    }

    #[test]
    fn a_failed_gate_fails_the_run() {
        let mut r = Report::new(true);
        r.check(true, "fine");
        assert!(r.correct());
        r.check(false, "bits differ");
        assert!(!r.correct());
        assert!(r.to_json().starts_with("{\"correct\": false"));
    }

    #[test]
    fn benchmark_json_lists_the_end_to_end_metrics_printed() {
        let manifest = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(manifest).expect("BENCHMARK.json beside perfbench/");
        let e2e = &text[text.find("\"end_to_end\"").unwrap()..text.find("\"per_layer\"").unwrap()];
        let listed = e2e.matches("\"name\"").count();
        assert_eq!(listed, END_TO_END.len());
        for name in END_TO_END {
            assert!(e2e.contains(&format!("\"name\": \"{name}\"")), "{name} missing");
        }
    }
}
