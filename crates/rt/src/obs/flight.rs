//! A process-wide flight recorder: a bounded, lock-guarded ring buffer
//! of structured events for post-mortems that must not depend on
//! stderr scrollback.
//!
//! Long-running services (the `serve` campaign server foremost) record
//! one [`FlightEvent`] per notable state change — job admission, cache
//! hit/miss, shard start/finish/retry, checkpoint write, 4xx/5xx — via
//! [`record`]. The ring keeps the most recent [`CAPACITY`] events;
//! older ones fall off the back, so memory is bounded no matter how
//! long the process lives. [`snapshot`] copies the current contents
//! (oldest first), [`to_json`] renders a snapshot for `GET
//! /debug/flight`, and [`install_panic_dump`] arranges for the ring to
//! be written to a file when the process panics — the crash report is
//! the flight history, not whatever stderr happened to retain.
//!
//! Timestamps share the [`super::trace`] epoch, so flight events and
//! Chrome-trace spans line up on one timeline. The recorder is global
//! and wall-clock ordered — it is **diagnostic** state, deliberately
//! outside the deterministic [`super::metrics`] contract.
//!
//! # Examples
//!
//! ```
//! use rt::obs::flight;
//!
//! flight::record("demo.start", "warming up");
//! let events = flight::snapshot();
//! let mine: Vec<_> = events.iter().filter(|e| e.kind == "demo.start").collect();
//! assert!(!mine.is_empty());
//! assert!(flight::to_json(&events).starts_with("{\"events\": ["));
//! ```

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};

use super::metrics::json_string;

/// How many events the ring retains; one more evicts the oldest.
pub const CAPACITY: usize = 512;

/// One recorded event: a monotonically increasing sequence number, a
/// timestamp on the trace epoch, a short machine-readable kind and a
/// human-readable detail line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightEvent {
    /// Sequence number, never reused; gaps reveal evicted history.
    pub seq: u64,
    /// Nanoseconds since the [`super::trace`] epoch.
    pub ts_ns: u64,
    /// Machine-readable event kind, e.g. `"shard_start"`.
    pub kind: String,
    /// Free-form detail, e.g. the job id and shard index.
    pub detail: String,
}

struct Ring {
    events: VecDeque<FlightEvent>,
    next_seq: u64,
}

fn ring() -> &'static Mutex<Ring> {
    static RING: OnceLock<Mutex<Ring>> = OnceLock::new();
    RING.get_or_init(|| {
        Mutex::new(Ring {
            events: VecDeque::with_capacity(CAPACITY),
            next_seq: 0,
        })
    })
}

/// Records one event; when the ring is full the oldest event is
/// evicted. Safe from any thread; a poisoned lock (a panic while
/// recording) is recovered rather than propagated — the recorder must
/// keep working during the panic path it exists to document.
pub fn record(kind: impl Into<String>, detail: impl Into<String>) {
    let event_kind = kind.into();
    let event_detail = detail.into();
    let ts_ns = super::trace::now_ns();
    let mut ring = ring().lock().unwrap_or_else(|e| e.into_inner());
    if ring.events.len() == CAPACITY {
        ring.events.pop_front();
    }
    let seq = ring.next_seq;
    ring.next_seq += 1;
    ring.events.push_back(FlightEvent {
        seq,
        ts_ns,
        kind: event_kind,
        detail: event_detail,
    });
}

/// Copies the ring's current contents, oldest first.
pub fn snapshot() -> Vec<FlightEvent> {
    let ring = ring().lock().unwrap_or_else(|e| e.into_inner());
    ring.events.iter().cloned().collect()
}

/// Renders a snapshot as a JSON object — `{"events": [...]}` with
/// microsecond timestamps matching the Chrome-trace convention — the
/// `GET /debug/flight` body and the panic-dump file format.
pub fn to_json(events: &[FlightEvent]) -> String {
    let mut out = String::from("{\"events\": [\n");
    let last = events.len().saturating_sub(1);
    for (i, e) in events.iter().enumerate() {
        let _ = write!(
            out,
            "  {{\"seq\": {}, \"ts\": {}.{:03}, \"kind\": {}, \"detail\": {}}}",
            e.seq,
            e.ts_ns / 1_000,
            e.ts_ns % 1_000,
            json_string(&e.kind),
            json_string(&e.detail),
        );
        out.push_str(if i == last { "\n" } else { ",\n" });
    }
    out.push_str("]}\n");
    out
}

/// Writes the current snapshot to `path`.
///
/// # Errors
///
/// Returns the underlying filesystem error.
pub fn dump(path: &Path) -> io::Result<()> {
    std::fs::write(path, to_json(&snapshot()))
}

/// Installs (once per process) a panic hook that records the panic as
/// a final `"panic"` event and dumps the ring to `path`, then chains
/// to the previously installed hook. Repeated calls are ignored, so a
/// service can install unconditionally at startup.
pub fn install_panic_dump(path: PathBuf) {
    static INSTALLED: AtomicBool = AtomicBool::new(false);
    if INSTALLED.swap(true, Ordering::SeqCst) {
        return;
    }
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let location = info
            .location()
            .map(|l| format!("{}:{}", l.file(), l.line()))
            .unwrap_or_else(|| "<unknown>".to_string());
        record("panic", format!("{location}: {info}"));
        let _ = dump(&path);
        previous(info);
    }));
}

#[cfg(test)]
mod tests {
    use super::*;

    // The ring is process-global and the test harness is parallel, so
    // every assertion filters on kinds unique to its own test.

    #[test]
    fn events_are_ordered_and_sequenced() {
        record("seq.test.a", "first");
        record("seq.test.b", "second");
        let events = snapshot();
        let a = events.iter().find(|e| e.kind == "seq.test.a").unwrap();
        let b = events.iter().find(|e| e.kind == "seq.test.b").unwrap();
        assert!(a.seq < b.seq, "sequence numbers not increasing");
        assert!(a.ts_ns <= b.ts_ns, "timestamps not monotone");
        assert_eq!(a.detail, "first");
    }

    #[test]
    fn ring_is_bounded_and_evicts_oldest() {
        for i in 0..CAPACITY + 10 {
            record("bound.test", format!("event {i}"));
        }
        let events = snapshot();
        assert!(events.len() <= CAPACITY, "ring exceeded capacity");
        let mine: Vec<_> = events.iter().filter(|e| e.kind == "bound.test").collect();
        // The newest events survive; the first ten were evicted.
        assert!(mine
            .iter()
            .any(|e| e.detail == format!("event {}", CAPACITY + 9)));
        assert!(!mine.iter().any(|e| e.detail == "event 0"));
        // Snapshot order is sequence order.
        for pair in events.windows(2) {
            assert!(pair[0].seq < pair[1].seq, "snapshot out of order");
        }
    }

    #[test]
    fn json_shape_is_valid_and_escaped() {
        let events = vec![
            FlightEvent {
                seq: 3,
                ts_ns: 1_234_567,
                kind: "shard_start".into(),
                detail: "job \"x\"\nshard 0".into(),
            },
            FlightEvent {
                seq: 4,
                ts_ns: 2_000_000,
                kind: "shard_finish".into(),
                detail: String::new(),
            },
        ];
        let json = to_json(&events);
        assert!(json.starts_with("{\"events\": [\n"));
        assert!(json.contains("\"seq\": 3"));
        assert!(json.contains("\"ts\": 1234.567"));
        assert!(json.contains("\\\"x\\\"\\nshard 0"));
        assert!(json.trim_end().ends_with("]}"));
        assert_eq!(json.matches("},\n").count(), 1);
        assert_eq!(to_json(&[]), "{\"events\": [\n]}\n");
    }

    #[test]
    fn dump_writes_the_snapshot() {
        record("dump.test", "persisted");
        let path = std::env::temp_dir().join(format!("flight_dump_test_{}", std::process::id()));
        dump(&path).expect("dump writes");
        let text = std::fs::read_to_string(&path).expect("dump readable");
        assert!(text.contains("dump.test"));
        let _ = std::fs::remove_file(&path);
    }
}
