//! # obs — zero-dependency observability (metrics + tracing + logging)
//!
//! A hermetic instrumentation layer with a hard split between two kinds
//! of telemetry:
//!
//! * **Deterministic metrics** ([`metrics`]) — integer counters, gauges
//!   and log-bucketed histograms over *deterministic program state*
//!   (patterns simulated, faults dropped per block, relaxation passes,
//!   corpus admissions, …). Per-thread registries merge associatively in
//!   deterministic worker order through [`crate::par`], so a captured
//!   registry is **byte-identical at any thread count** and can be
//!   tracked in version control (`results/metrics.json`).
//! * **Wall-clock spans** ([`trace`]) — RAII scopes exported as
//!   Chrome-trace JSON. Inherently non-deterministic, therefore written
//!   only to gitignored artifacts.
//!
//! [`log`] adds `OBS` env-var gated progress lines (silent by default).
//! [`export`] renders a captured registry as Prometheus-style text (and
//! parses it back, for tests); [`flight`] is a process-wide bounded ring
//! of diagnostic events for service post-mortems.
//!
//! ## Ambient collection
//!
//! Each thread owns a thread-local collector. Library code records into
//! it unconditionally — [`count`]/[`record`]/[`gauge`] for metrics,
//! [`span`] for timing, [`hot_add`] for the per-eval hot paths (fixed
//! array slots, flushed into named counters at capture boundaries, so the
//! fault-sim inner loop never touches a map). [`crate::par`] workers
//! claim items one at a time from a shared index, so which worker runs
//! which item depends on timing. Each worker drains its collector once,
//! after its last item, and the parent absorbs the workers **in worker
//! order**. What stays deterministic is what does not depend on that
//! assignment: output order, counter totals (sums) and histograms
//! (bucket-wise merges) are identical at any thread count and any claim
//! order. Span events keep one tid lane per worker, numbered in worker
//! order; which items share a lane varies from run to run. Gauges merge
//! last-writer-wins, so they are set only outside parallel maps.
//!
//! [`observe`] scopes a capture: it runs a closure against a fresh
//! collector and returns `(result, Metrics, Vec<SpanEvent>)`, restoring
//! whatever was being collected before.
//!
//! # Examples
//!
//! ```
//! use rt::obs;
//!
//! let (sum, metrics, _events) = obs::observe(|| {
//!     let _span = obs::span("demo.work");
//!     obs::count("demo.items", 3);
//!     obs::record("demo.sizes", 128);
//!     1 + 2
//! });
//! assert_eq!(sum, 3);
//! assert_eq!(metrics.counter("demo.items"), Some(3));
//! assert_eq!(metrics.histogram("demo.sizes").unwrap().count(), 1);
//! ```

pub mod export;
pub mod flight;
pub mod log;
pub mod metrics;
pub mod trace;

use std::cell::RefCell;

pub use metrics::{Histogram, Metric, Metrics};
pub use trace::{chrome_trace_json, chrome_trace_json_named, pin_epoch, Span, SpanEvent};

/// Fixed-slot hot-path counters: one array slot per site, accumulated
/// with plain additions in the simulation inner loops and flushed into
/// the named [`Metrics`] counters at every capture/drain boundary. This
/// keeps instrumentation overhead in `Circuit::eval` and the PPSFP
/// kernel to an array add instead of a map lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Hot {
    /// Scalar `Circuit::eval` invocations.
    ScalarEvalCalls = 0,
    /// Scalar evaluation passes: one per levelized `Circuit::eval`, plus
    /// every sweep pass of the reference-only `Circuit::eval_sweep`.
    ScalarEvalPasses = 1,
    /// Scalar gate writes that produced an X (unknown) value.
    ScalarEvalXWrites = 2,
    /// Packed (64-lane) eval invocations, each one levelized pass.
    PackedEvalCalls = 3,
    /// Bits moved through scalar scan-chain shifts.
    ScanShiftBits = 4,
    /// Per-fault packed simulations inside the PPSFP kernel.
    PpsfpFaultSims = 5,
    /// Gates the packed event-driven evaluator skipped (fan-in unchanged).
    PackedEventsSkipped = 6,
    /// Gates the scalar event-driven evaluator skipped (fan-in unchanged).
    ScalarEventsSkipped = 7,
}

const HOT_SLOTS: usize = 8;

const HOT_NAMES: [&str; HOT_SLOTS] = [
    "dsim.eval.calls",
    "dsim.eval.passes",
    "dsim.eval.x_writes",
    "dsim.packed.eval_calls",
    "dsim.scan.shift_bits",
    "dsim.ppsfp.fault_sims",
    "dsim.packed.events_skipped",
    "dsim.eval.events_skipped",
];

/// One thread's ambient observability state.
#[derive(Debug, Default)]
struct Collector {
    metrics: Metrics,
    events: Vec<SpanEvent>,
    hot: [u64; HOT_SLOTS],
    /// Next virtual tid to hand out when absorbing a worker (0 is this
    /// thread itself).
    next_tid: u32,
}

thread_local! {
    static AMBIENT: RefCell<Collector> = RefCell::new(Collector::default());
}

fn flush_hot(c: &mut Collector) {
    for (slot, name) in HOT_NAMES.iter().enumerate() {
        let v = std::mem::take(&mut c.hot[slot]);
        if v > 0 {
            c.metrics.add(name, v);
        }
    }
}

/// Adds `n` to the ambient counter `name` (registered on first touch,
/// even with `n = 0`, so key presence is deterministic).
pub fn count(name: &str, n: u64) {
    AMBIENT.with(|c| c.borrow_mut().metrics.add(name, n));
}

/// Records `v` into the ambient histogram `name`.
pub fn record(name: &str, v: u64) {
    AMBIENT.with(|c| c.borrow_mut().metrics.record(name, v));
}

/// Sets the ambient gauge `name` to `v`. Gauges merge last-writer-wins,
/// so only set them from deterministic single-threaded code.
pub fn gauge(name: &str, v: i64) {
    AMBIENT.with(|c| c.borrow_mut().metrics.set_gauge(name, v));
}

/// Adds `n` to a fixed hot-path slot (see [`Hot`]); the cheapest way to
/// count from a per-gate or per-fault inner loop.
pub fn hot_add(slot: Hot, n: u64) {
    AMBIENT.with(|c| c.borrow_mut().hot[slot as usize] += n);
}

/// Merges a previously captured registry into the ambient collector, as
/// if the work that recorded it had run here. A cache that fills once
/// under [`observe`] replays the captured counters into every scope that
/// uses the cached value, so that scope's totals do not depend on
/// whether it filled the cache or found it filled.
pub fn replay(metrics: &Metrics) {
    AMBIENT.with(|c| c.borrow_mut().metrics.merge(metrics));
}

/// Opens a wall-clock span; the returned guard records a [`SpanEvent`]
/// into the ambient collector when dropped.
pub fn span(name: impl Into<String>) -> Span {
    Span::begin(name.into())
}

pub(crate) fn push_event(event: SpanEvent) {
    AMBIENT.with(|c| c.borrow_mut().events.push(event));
}

/// Drains the ambient metrics accumulated on this thread (hot slots
/// included), leaving the collector empty.
pub fn take_metrics() -> Metrics {
    AMBIENT.with(|c| {
        let mut c = c.borrow_mut();
        flush_hot(&mut c);
        std::mem::take(&mut c.metrics)
    })
}

/// A worker thread's drained observability state, ready to be absorbed
/// by the thread that spawned it (see [`drain_worker`]/[`absorb_worker`]).
#[derive(Debug, Default)]
pub struct WorkerObs {
    metrics: Metrics,
    events: Vec<SpanEvent>,
}

/// Drains this thread's collector for hand-off to the spawning thread.
/// Called by [`crate::par`] once per worker, after its last item;
/// workers are fresh scoped threads, so this captures exactly the
/// telemetry of the items the worker claimed.
pub fn drain_worker() -> WorkerObs {
    AMBIENT.with(|c| {
        let mut c = c.borrow_mut();
        flush_hot(&mut c);
        WorkerObs {
            metrics: std::mem::take(&mut c.metrics),
            events: std::mem::take(&mut c.events),
        }
    })
}

/// Absorbs a drained worker's state into this thread's collector.
/// Metrics merge associatively; the worker's virtual tids are remapped
/// into this thread's tid space in first-appearance order. Callers must
/// absorb workers in deterministic (worker) order — [`crate::par`] does.
pub fn absorb_worker(worker: WorkerObs) {
    AMBIENT.with(|c| {
        let mut c = c.borrow_mut();
        c.metrics.merge(&worker.metrics);
        // Remap the worker's tid space (its own spans are tid 0, plus any
        // workers it absorbed in turn) to fresh tids here.
        push_remapped(&mut c, worker.events, Vec::new());
    });
}

/// Appends `events` to `c` with their tid space remapped into `c`'s:
/// tids listed in `identity` keep their value (used for "same physical
/// thread" merges), every other tid gets a fresh one from `c.next_tid`
/// in first-appearance order.
fn push_remapped(c: &mut Collector, events: Vec<SpanEvent>, identity: Vec<u32>) {
    let mut remap: Vec<(u32, u32)> = identity.into_iter().map(|t| (t, t)).collect();
    for mut event in events {
        let mapped = match remap.iter().find(|&&(from, _)| from == event.tid) {
            Some(&(_, to)) => to,
            None => {
                c.next_tid += 1;
                remap.push((event.tid, c.next_tid));
                c.next_tid
            }
        };
        event.tid = mapped;
        c.events.push(event);
    }
}

/// Runs `f` against a fresh ambient collector and returns its result
/// together with everything it recorded; the previous collector state is
/// restored afterwards (also on panic, in which case the captured data
/// merges back into it rather than being lost).
pub fn observe<R>(f: impl FnOnce() -> R) -> (R, Metrics, Vec<SpanEvent>) {
    let saved = AMBIENT.with(|c| {
        let mut c = c.borrow_mut();
        flush_hot(&mut c);
        std::mem::take(&mut *c)
    });
    let mut guard = RestoreOnUnwind { saved: Some(saved) };
    let result = f();
    let saved = guard.saved.take().expect("guard armed exactly once");
    let captured = AMBIENT.with(|c| {
        let mut c = c.borrow_mut();
        flush_hot(&mut c);
        std::mem::replace(&mut *c, saved)
    });
    (result, captured.metrics, captured.events)
}

struct RestoreOnUnwind {
    saved: Option<Collector>,
}

impl Drop for RestoreOnUnwind {
    fn drop(&mut self) {
        if let Some(saved) = self.saved.take() {
            AMBIENT.with(|c| {
                let mut c = c.borrow_mut();
                flush_hot(&mut c);
                let captured = std::mem::replace(&mut *c, saved);
                c.metrics.merge(&captured.metrics);
                // The captured events' tid space is private to the
                // aborted capture: its tid 0 is this same thread, but
                // any worker tids it handed out would collide with
                // workers the restored collector has already absorbed.
                // Remap everything except tid 0 onto fresh tids.
                push_remapped(&mut c, captured.events, vec![0]);
            });
        }
    }
}

/// Runs `f` against a fresh ambient collector with **panic isolation**:
/// on success the captured telemetry is absorbed back into the ambient
/// collector (tid 0 staying this thread, worker tids remapped fresh) and
/// the closure's value is returned; on panic the partial capture is
/// **discarded wholesale** and the panic message is returned instead.
///
/// This is the capture primitive behind [`crate::exec`]'s retry loop:
/// discarding a failed attempt's half-recorded counters is what keeps a
/// retried run's metrics byte-identical to an untroubled run's. Contrast
/// with [`observe`], which *keeps* data when a panic unwinds through it
/// (the panic propagates, so the telemetry is diagnostic, not part of a
/// deterministic result).
pub fn quarantine<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    let saved = AMBIENT.with(|c| {
        let mut c = c.borrow_mut();
        flush_hot(&mut c);
        std::mem::take(&mut *c)
    });
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
    let captured = AMBIENT.with(|c| {
        let mut c = c.borrow_mut();
        flush_hot(&mut c);
        std::mem::replace(&mut *c, saved)
    });
    match outcome {
        Ok(value) => {
            AMBIENT.with(|c| {
                let mut c = c.borrow_mut();
                c.metrics.merge(&captured.metrics);
                push_remapped(&mut c, captured.events, vec![0]);
            });
            Ok(value)
        }
        Err(payload) => Err(payload_text(payload)),
    }
}

/// Best-effort text of a panic payload (`String` and `&str` payloads;
/// anything else becomes a placeholder).
pub(crate) fn payload_text(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(payload) => match payload.downcast::<&str>() {
            Ok(s) => (*s).to_string(),
            Err(_) => "<non-string panic payload>".to_string(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observe_captures_and_isolates() {
        count("outer.before", 1);
        let ((), inner, events) = observe(|| {
            count("inner.hits", 2);
            record("inner.sizes", 10);
            gauge("inner.level", -3);
            let _span = span("inner.work");
        });
        assert_eq!(inner.counter("inner.hits"), Some(2));
        assert_eq!(inner.counter("outer.before"), None, "leaked outer state");
        assert_eq!(inner.gauge("inner.level"), Some(-3));
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].name, "inner.work");
        assert_eq!(events[0].tid, 0);
        assert_eq!(events[0].category, "inner");
        // The outer collector survived the capture.
        let outer = take_metrics();
        assert_eq!(outer.counter("outer.before"), Some(1));
        assert_eq!(outer.counter("inner.hits"), None);
    }

    #[test]
    fn observe_nests() {
        let ((), outer, _) = observe(|| {
            count("a", 1);
            let ((), inner, _) = observe(|| count("b", 5));
            assert_eq!(inner.counter("b"), Some(5));
            assert_eq!(inner.counter("a"), None);
            count("a", 1);
        });
        assert_eq!(outer.counter("a"), Some(2));
        assert_eq!(outer.counter("b"), None);
    }

    #[test]
    fn replay_matches_recording_in_place() {
        let work = || {
            count("replay.items", 3);
            record("replay.sizes", 40);
            hot_add(Hot::ScalarEvalCalls, 2);
        };
        let ((), direct, _) = observe(|| {
            count("replay.own", 1);
            work();
        });
        let ((), captured, _) = observe(work);
        let ((), replayed, _) = observe(|| {
            count("replay.own", 1);
            replay(&captured);
        });
        assert_eq!(replayed.to_json(), direct.to_json());
    }

    #[test]
    fn observe_restores_on_panic_and_keeps_data() {
        count("panic.outer", 7);
        let caught = std::panic::catch_unwind(|| {
            observe(|| {
                count("panic.inner", 1);
                panic!("boom");
            })
        });
        assert!(caught.is_err());
        let m = take_metrics();
        assert_eq!(m.counter("panic.outer"), Some(7), "outer state lost");
        assert_eq!(
            m.counter("panic.inner"),
            Some(1),
            "captured data dropped on unwind"
        );
    }

    #[test]
    fn hot_slots_flush_into_named_counters() {
        let ((), m, _) = observe(|| {
            hot_add(Hot::ScalarEvalCalls, 2);
            hot_add(Hot::ScalarEvalPasses, 9);
            hot_add(Hot::PpsfpFaultSims, 4);
        });
        assert_eq!(m.counter("dsim.eval.calls"), Some(2));
        assert_eq!(m.counter("dsim.eval.passes"), Some(9));
        assert_eq!(m.counter("dsim.ppsfp.fault_sims"), Some(4));
        assert_eq!(m.counter("dsim.eval.x_writes"), None, "untouched slot kept");
    }

    #[test]
    fn hot_names_match_slots() {
        for (slot, name) in [
            (Hot::ScalarEvalCalls, "dsim.eval.calls"),
            (Hot::ScalarEvalXWrites, "dsim.eval.x_writes"),
            (Hot::PackedEvalCalls, "dsim.packed.eval_calls"),
            (Hot::ScanShiftBits, "dsim.scan.shift_bits"),
            (Hot::ScalarEventsSkipped, "dsim.eval.events_skipped"),
        ] {
            let ((), m, _) = observe(|| hot_add(slot, 1));
            assert_eq!(m.counter(name), Some(1), "slot {slot:?} misnamed");
        }
    }

    #[test]
    fn worker_drain_and_absorb_merge_in_order() {
        let ((), m, events) = observe(|| {
            // Simulate two workers drained on other threads and absorbed
            // here in worker order.
            let work = || {
                count("w.items", 3);
                drop(span("w.chunk"));
                drain_worker()
            };
            let w1 = std::thread::spawn(work).join().unwrap();
            let w2 = std::thread::spawn(move || {
                count("w.items", 4);
                drop(span("w.chunk"));
                drain_worker()
            })
            .join()
            .unwrap();
            absorb_worker(w1);
            absorb_worker(w2);
        });
        assert_eq!(m.counter("w.items"), Some(7));
        let tids: Vec<u32> = events.iter().map(|e| e.tid).collect();
        assert_eq!(tids, vec![1, 2], "workers get fresh tids in absorb order");
    }

    #[test]
    fn counters_are_thread_count_invariant() {
        let runs: Vec<Metrics> = [1usize, 2, 4, 7]
            .iter()
            .map(|&threads| {
                let items: Vec<u64> = (0..97).collect();
                let ((), m, _) = observe(|| {
                    let _ = crate::par::parallel_map_with(threads, &items, |&x| {
                        count("inv.items", 1);
                        record("inv.values", x);
                        hot_add(Hot::ScalarEvalCalls, 1);
                        x * 2
                    });
                });
                m
            })
            .collect();
        for m in &runs[1..] {
            assert_eq!(*m, runs[0], "metrics varied with thread count");
        }
        assert_eq!(runs[0].counter("inv.items"), Some(97));
        assert_eq!(runs[0].counter("dsim.eval.calls"), Some(97));
        assert_eq!(runs[0].histogram("inv.values").unwrap().count(), 97);
    }

    #[test]
    fn quarantine_keeps_telemetry_on_success() {
        let ((), m, events) = observe(|| {
            let out = quarantine(|| {
                count("q.items", 5);
                drop(span("q.work"));
                42
            });
            assert_eq!(out, Ok(42));
        });
        assert_eq!(m.counter("q.items"), Some(5));
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].name, "q.work");
    }

    #[test]
    fn quarantine_discards_partial_telemetry_on_panic() {
        let ((), m, events) = observe(|| {
            count("q.before", 1);
            let out = crate::check::quiet(|| {
                quarantine(|| {
                    count("q.partial", 9);
                    drop(span("q.doomed"));
                    panic!("shard exploded");
                })
            });
            assert_eq!(out, Err("shard exploded".to_string()));
            count("q.after", 1);
        });
        // The failed attempt's capture is dropped wholesale: a retried run
        // must end up byte-identical to one that never panicked.
        assert_eq!(m.counter("q.partial"), None, "partial telemetry leaked");
        assert_eq!(m.counter("q.before"), Some(1));
        assert_eq!(m.counter("q.after"), Some(1));
        assert!(events.is_empty(), "doomed span leaked: {events:?}");
    }

    #[test]
    fn unwound_capture_remaps_worker_tids() {
        // Regression: RestoreOnUnwind used to splice the inner capture's
        // events back verbatim, so a worker absorbed inside the doomed
        // capture (tid 1 there) collided with a worker the outer capture
        // had already absorbed as tid 1.
        let ((), _, events) = observe(|| {
            let w = std::thread::spawn(|| {
                drop(span("outer.worker"));
                drain_worker()
            })
            .join()
            .unwrap();
            absorb_worker(w); // outer tid 1
            let caught = std::panic::catch_unwind(|| {
                observe(|| {
                    let w = std::thread::spawn(|| {
                        drop(span("inner.worker"));
                        drain_worker()
                    })
                    .join()
                    .unwrap();
                    absorb_worker(w); // tid 1 *inside the capture*
                    panic!("unwind through the guard");
                })
            });
            assert!(caught.is_err());
        });
        let mut seen = std::collections::HashMap::new();
        for e in &events {
            seen.insert(e.name.clone(), e.tid);
        }
        assert_eq!(seen["outer.worker"], 1);
        assert_ne!(
            seen["inner.worker"], seen["outer.worker"],
            "distinct physical workers merged onto one tid"
        );
    }
}
