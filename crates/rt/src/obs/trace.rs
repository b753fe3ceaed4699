//! Span-based wall-clock tracing with Chrome-trace JSON export.
//!
//! A [`Span`] measures the wall-clock duration of a scope and records a
//! complete event when dropped. Events carry nanosecond offsets from a
//! process-wide epoch (pinned on first use) and a *virtual* thread id:
//! spans always record under tid 0 on their own thread, and
//! [`super::absorb_worker`] remaps each absorbed worker's tids into the
//! parent's tid space in worker order — so each worker is one lane,
//! numbered by worker index, not by OS thread id. Which spans land on
//! which lane follows the run's claim order (see [`crate::par`]).
//!
//! Timings are inherently non-deterministic; the exported trace is a
//! **gitignored** artifact (like the timing CSVs), never part of the
//! tracked `results/` snapshot. Open an exported file at
//! `chrome://tracing` or <https://ui.perfetto.dev>.

use std::fmt::Write as _;
use std::sync::OnceLock;
use std::time::Instant;

use super::metrics::json_string;

/// Process-wide trace epoch; all span timestamps are offsets from it.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Pins the trace epoch now (idempotent). Call at program start so span
/// timestamps count from startup rather than from the first span.
pub fn pin_epoch() {
    let _ = epoch();
}

/// Nanoseconds since the trace epoch right now — the shared clock for
/// spans and [`super::flight`] events, so both land on one timeline.
pub(crate) fn now_ns() -> u64 {
    epoch().elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
}

/// One completed span: a named wall-clock interval on a virtual thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Span name, e.g. `"campaign.digital"`.
    pub name: String,
    /// Category shown by trace viewers (defaults to the name's first
    /// dot-separated segment).
    pub category: String,
    /// Virtual thread id (0 = the collecting thread; workers are remapped
    /// deterministically at merge time).
    pub tid: u32,
    /// Start offset from the process trace epoch, in nanoseconds.
    pub ts_ns: u64,
    /// Duration, in nanoseconds.
    pub dur_ns: u64,
    /// Key/value tags rendered into the event's `args` object (shown in
    /// the trace viewer's detail pane). Spans record with no args; a
    /// collector that knows more context — the serve scheduler tagging
    /// each shard span with its job fingerprint and shard index — adds
    /// them before export.
    pub args: Vec<(String, String)>,
}

/// An RAII wall-clock span; records a [`SpanEvent`] into the ambient
/// collector when dropped. Create via [`super::span`].
#[derive(Debug)]
pub struct Span {
    name: String,
    start: Instant,
}

impl Span {
    pub(crate) fn begin(name: String) -> Span {
        Span {
            name,
            start: Instant::now(),
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let dur_ns = self.start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        let ts_ns = self
            .start
            .saturating_duration_since(epoch())
            .as_nanos()
            .min(u128::from(u64::MAX)) as u64;
        let category = self.name.split('.').next().unwrap_or("span").to_string();
        super::push_event(SpanEvent {
            name: std::mem::take(&mut self.name),
            category,
            tid: 0,
            ts_ns,
            dur_ns,
            args: Vec::new(),
        });
    }
}

/// Renders `events` in the Chrome trace event format (a JSON object with
/// a `traceEvents` array of complete `"ph": "X"` events), viewable at
/// `chrome://tracing` or <https://ui.perfetto.dev>. Timestamps and
/// durations are microseconds with nanosecond precision. Lane names
/// come from [`default_thread_names`]; use [`chrome_trace_json_named`]
/// to label lanes by their actual role instead.
pub fn chrome_trace_json(events: &[SpanEvent]) -> String {
    chrome_trace_json_named(events, "rt::obs capture", &default_thread_names(events))
}

/// The fallback lane naming for a captured event set: tid 0 (the
/// collecting thread) is `"main"`, every absorbed worker tid `n` is
/// `"worker-n"`, in first-appearance order.
pub fn default_thread_names(events: &[SpanEvent]) -> Vec<(u32, String)> {
    let mut names: Vec<(u32, String)> = Vec::new();
    for e in events {
        if names.iter().all(|&(tid, _)| tid != e.tid) {
            let name = if e.tid == 0 {
                "main".to_string()
            } else {
                format!("worker-{}", e.tid)
            };
            names.push((e.tid, name));
        }
    }
    names
}

/// [`chrome_trace_json`] with explicit lane labels: emits
/// `process_name`/`thread_name` metadata events (`"ph": "M"`) ahead of
/// the span events, so perfetto shows `process_name` and one named lane
/// per `(tid, name)` pair instead of bare numeric tids. Tids present in
/// `events` but absent from `thread_names` simply keep their number.
pub fn chrome_trace_json_named(
    events: &[SpanEvent],
    process_name: &str,
    thread_names: &[(u32, String)],
) -> String {
    let mut out = String::from("{\"traceEvents\": [\n");
    let mut first = true;
    let mut push_line = |line: String, out: &mut String| {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str("  ");
        out.push_str(&line);
    };
    push_line(
        format!(
            "{{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 0, \"tid\": 0, \"args\": {{\"name\": {}}}}}",
            json_string(process_name)
        ),
        &mut out,
    );
    for (tid, name) in thread_names {
        push_line(
            format!(
                "{{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 0, \"tid\": {tid}, \"args\": {{\"name\": {}}}}}",
                json_string(name)
            ),
            &mut out,
        );
    }
    for e in events {
        let mut line = format!(
            "{{\"name\": {}, \"cat\": {}, \"ph\": \"X\", \"pid\": 0, \"tid\": {}, \"ts\": {}.{:03}, \"dur\": {}.{:03}",
            json_string(&e.name),
            json_string(&e.category),
            e.tid,
            e.ts_ns / 1_000,
            e.ts_ns % 1_000,
            e.dur_ns / 1_000,
            e.dur_ns % 1_000,
        );
        if !e.args.is_empty() {
            line.push_str(", \"args\": {");
            for (i, (k, v)) in e.args.iter().enumerate() {
                if i > 0 {
                    line.push_str(", ");
                }
                let _ = write!(line, "{}: {}", json_string(k), json_string(v));
            }
            line.push('}');
        }
        line.push('}');
        push_line(line, &mut out);
    }
    out.push_str("\n], \"displayTimeUnit\": \"ms\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(name: &str, tid: u32) -> SpanEvent {
        SpanEvent {
            name: name.to_string(),
            category: "test".to_string(),
            tid,
            ts_ns: 1_234_567,
            dur_ns: 890,
            args: Vec::new(),
        }
    }

    #[test]
    fn chrome_json_shape() {
        let json = chrome_trace_json(&[event("a.b", 0), event("c", 3)]);
        assert!(json.starts_with("{\"traceEvents\": ["));
        assert!(json.contains("\"name\": \"a.b\""));
        assert!(json.contains("\"ph\": \"X\""));
        assert!(json.contains("\"ts\": 1234.567"));
        assert!(json.contains("\"dur\": 0.890"));
        assert!(json.contains("\"tid\": 3"));
        assert!(json.trim_end().ends_with("\"displayTimeUnit\": \"ms\"}"));
        // Default lane naming: tid 0 is main, others worker-<tid>.
        assert!(json.contains("{\"name\": \"main\"}"));
        assert!(json.contains("{\"name\": \"worker-3\"}"));
        // Metadata (1 process + 2 threads) plus 2 span events → 4 commas.
        assert_eq!(json.matches("},\n").count(), 4);
    }

    #[test]
    fn empty_trace_still_names_the_process() {
        let json = chrome_trace_json(&[]);
        assert!(json.contains("\"ph\": \"M\""));
        assert!(json.contains("\"rt::obs capture\""));
        assert!(json.trim_end().ends_with("\"displayTimeUnit\": \"ms\"}"));
    }

    #[test]
    fn named_export_emits_metadata_and_args() {
        let mut tagged = event("shard.stuck_at.0", 2);
        tagged.args = vec![
            ("job".to_string(), "00ab".to_string()),
            ("shard".to_string(), "0".to_string()),
        ];
        let json = chrome_trace_json_named(
            &[tagged, event("plain", 2)],
            "serve job 00ab",
            &[(2, "worker-0".to_string())],
        );
        assert!(json.contains(
            "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 0, \"tid\": 0, \
             \"args\": {\"name\": \"serve job 00ab\"}}"
        ));
        assert!(json.contains(
            "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 0, \"tid\": 2, \
             \"args\": {\"name\": \"worker-0\"}}"
        ));
        assert!(json.contains("\"args\": {\"job\": \"00ab\", \"shard\": \"0\"}"));
        // The untagged event carries no args object.
        let plain_line = json
            .lines()
            .find(|l| l.contains("\"name\": \"plain\""))
            .expect("plain event rendered");
        assert!(!plain_line.contains("args"));
    }
}
