//! What every workload shares: run context, expected outputs, the
//! result report, order statistics, and the traced run's span checks.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use rt::obs::SpanEvent;

/// One invocation's settings.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub threads: usize,
    pub expect: Expectations,
    /// Scratch space inside the checkout's build directory: temp state
    /// dirs, checkpoint files and the traced run's Chrome trace.
    pub work_dir: PathBuf,
}

impl Ctx {
    /// The instant a timed phase starting now ends.
    pub fn deadline(&self) -> Instant {
        Instant::now() + Duration::from_secs_f64(self.seconds)
    }

    /// A fresh scratch path under the work dir, unique to this process.
    pub fn scratch(&self, name: &str) -> PathBuf {
        self.work_dir
            .join(format!("{}-{}-{name}", self.workload, std::process::id()))
    }
}

/// The outputs a correct program produces, each held as every reference
/// copy that exists: the frozen copy under the benchmark's `expected/`
/// directory and, where the checkout has it, the tracked `results/` file
/// it was copied from.
pub struct Expectations {
    pub table1_csv: Vec<Vec<u8>>,
    pub fault_flags: Vec<Vec<u8>>,
    pub farm_eye_csv: Vec<Vec<u8>>,
    pub farm_detect_csv: Vec<Vec<u8>>,
    pub farm_records_crc: Vec<Vec<u8>>,
    /// Self-test switch: every expectation is deliberately damaged, and
    /// serve_mixed damages the cold bodies it compares warm hits with.
    pub corrupt: bool,
}

impl Expectations {
    /// Loads every expectation; `root` is the checkout root holding the
    /// tracked `results/` directory.
    pub fn load(dir: &Path, root: &Path, corrupt: bool) -> io::Result<Expectations> {
        let refs = |name: &str, tracked: bool| -> io::Result<Vec<Vec<u8>>> {
            let mut out = vec![std::fs::read(dir.join(name))?];
            if tracked {
                if let Ok(bytes) = std::fs::read(root.join("results").join(name)) {
                    out.push(bytes);
                }
            }
            if corrupt {
                for bytes in &mut out {
                    damage(bytes);
                }
            }
            Ok(out)
        };
        Ok(Expectations {
            table1_csv: refs("table1_fault_coverage.csv", true)?,
            fault_flags: refs("fault_flags.txt", false)?,
            farm_eye_csv: refs("link_farm_eye.csv", true)?,
            farm_detect_csv: refs("link_farm_detect.csv", true)?,
            farm_records_crc: refs("link_farm_records.crc32", false)?,
            corrupt,
        })
    }
}

/// Flips one bit in the middle of `bytes` (the self-test's corruption).
pub fn damage(bytes: &mut [u8]) {
    if let Some(b) = bytes.get_mut(bytes.len() / 2) {
        *b ^= 1;
    }
}

/// `true` when `got` equals every reference copy; logs the first
/// mismatch (with the produced text when it is short).
pub fn matches(what: &str, got: &[u8], refs: &[Vec<u8>]) -> bool {
    let ok = refs.iter().all(|r| r.as_slice() == got);
    if !ok {
        let shown = if got.len() <= 1024 {
            String::from_utf8_lossy(got).into_owned()
        } else {
            format!("<{} bytes>", got.len())
        };
        eprintln!("perfbench: output mismatch in {what}; produced: {shown}");
    }
    ok
}

/// Operations attempted and failed, and the metrics of one run.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    metrics: BTreeMap<String, f64>,
}

impl Report {
    /// Counts one checked operation.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: failed: {what}");
        }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, value)) in self.metrics.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{name}\": {value:?}");
        }
        out.push_str("}}");
        out
    }
}

/// Runs `f` and returns its value with the elapsed wall time in seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let started = Instant::now();
    let value = f();
    (value, started.elapsed().as_secs_f64())
}

/// Machine-wide CPU ticks so far, from the first line of `/proc/stat`:
/// `(stolen, total)`, stolen being time a hypervisor gave this
/// machine's runnable virtual CPUs to another guest. `(0, 0)` where the
/// file cannot be read.
fn cpu_ticks() -> (u64, u64) {
    let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = text
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|t| t.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// Runs `f` and returns its value with the host seconds it took: the
/// wall time less the share of the machine's CPU time a hypervisor
/// stole meanwhile, so plain wall time where nothing is stolen. A
/// shared virtual machine can lose a third of its CPU time for minutes
/// on end, which would swamp the differences between two commits.
pub fn host_timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let (stolen_before, total_before) = cpu_ticks();
    let (value, wall) = timed(f);
    let (stolen_after, total_after) = cpu_ticks();
    let total = total_after.saturating_sub(total_before);
    let stolen = stolen_after.saturating_sub(stolen_before);
    let share = if total == 0 {
        0.0
    } else {
        stolen as f64 / total as f64
    };
    (value, wall * (1.0 - share.min(0.9)))
}

/// The `q` quantile of `xs` with linear interpolation between order
/// statistics; 0 for an empty sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Spans that are not properly nested on their thread: a span that
/// starts inside another must also end inside it.
pub fn nesting_violations(events: &[SpanEvent]) -> usize {
    let mut by_tid: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for e in events {
        by_tid
            .entry(e.tid)
            .or_default()
            .push((e.ts_ns, e.ts_ns + e.dur_ns));
    }
    let mut violations = 0;
    for spans in by_tid.values_mut() {
        // Parents first: earlier start, then longer span.
        spans.sort_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
        let mut open: Vec<u64> = Vec::new();
        for &(start, end) in spans.iter() {
            while open.last().is_some_and(|&parent_end| parent_end <= start) {
                open.pop();
            }
            if open.last().is_some_and(|&parent_end| end > parent_end) {
                violations += 1;
            }
            open.push(end);
        }
    }
    violations
}

/// Writes the traced run's spans as Chrome-trace JSON under the work
/// dir, checks their nesting, and records the span counts.
pub fn finish_trace(ctx: &Ctx, events: &[SpanEvent], report: &mut Report) {
    let path = ctx
        .work_dir
        .join(format!("trace-{}-{}.json", ctx.workload, ctx.seed));
    let written = std::fs::write(&path, rt::obs::chrome_trace_json(events));
    report.check(written.is_ok(), "write the Chrome trace");
    let violations = nesting_violations(events);
    report.check(violations == 0, "no child span outlasts its parent");
    report.set("trace.spans", events.len() as f64);
    eprintln!(
        "perfbench: trace {} ({} spans, {violations} nesting violations)",
        path.display(),
        events.len()
    );
}

/// Milliseconds from seconds, for reporting.
pub fn ms(seconds: f64) -> f64 {
    seconds * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(tid: u32, ts_ns: u64, dur_ns: u64) -> SpanEvent {
        SpanEvent {
            name: "s".into(),
            category: "s".into(),
            tid,
            ts_ns,
            dur_ns,
            args: Vec::new(),
        }
    }

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.9), 9.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn nesting_check_flags_only_overhanging_children() {
        let nested = [
            span(0, 0, 100),
            span(0, 10, 20),
            span(0, 40, 60),
            span(1, 5, 500),
        ];
        assert_eq!(nesting_violations(&nested), 0);
        let overhang = [span(0, 0, 100), span(0, 90, 20)];
        assert_eq!(nesting_violations(&overhang), 1);
    }

    #[test]
    fn report_json_has_the_contract_keys() {
        let mut r = Report::default();
        r.check(true, "ok");
        r.set("b", 2.5);
        r.set("a", 1.0);
        assert_eq!(
            r.to_json(),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \
             \"metrics\": {\"a\": 1.0, \"b\": 2.5}}"
        );
    }
}
