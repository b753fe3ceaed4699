//! Parallel map on scoped threads, with items claimed on demand.
//!
//! The executor runs up to `threads` `std::thread::scope` workers. Each
//! worker claims the next unclaimed item through one shared atomic index,
//! runs it, and claims again until none is left, so a worker that drew
//! cheap items keeps taking more while another is still inside a slow
//! one: uneven items balance themselves, whatever their order. Results
//! are re-assembled **in input order**, so for a pure per-item function
//! the output is byte-identical to the sequential loop regardless of the
//! thread count or of which worker ran which item. When one thread is
//! asked for (or one item is given) no thread is spawned at all — the
//! sequential fallback runs in the calling thread.
//!
//! The executor also composes with [`crate::obs`]: each worker drains its
//! ambient metrics and span events once, after its last item, and the
//! calling thread absorbs the workers **in worker order**. Counters sum
//! and histograms merge bucket-wise, so both are identical at any thread
//! count and under any claim order. Span events keep one tid lane per
//! worker; which items share a lane depends on the claim order. In the
//! sequential fallback the closure records straight into the caller's
//! collector — same totals.
//!
//! # Examples
//!
//! ```
//! let squares = rt::par::parallel_map(&[1u64, 2, 3, 4], |&x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Number of worker threads the executor will use by default: the
/// machine's available parallelism, or 1 when it cannot be queried.
pub fn threads() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Maps `f` over `items` with the default thread count, preserving order.
pub fn parallel_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    parallel_map_with(threads(), items, f)
}

/// Maps `f` over `items` on up to `threads` workers, preserving order.
///
/// The result equals `items.iter().map(f).collect()` for any pure `f`:
/// workers claim items one at a time and each result goes back to its
/// item's position.
///
/// # Panics
///
/// Panics if `threads == 0`, or propagates the first panic (in worker
/// order) raised by `f` on a worker thread, once every worker has
/// stopped. A panicking worker stops claiming; the others finish the
/// items that are left.
pub fn parallel_map_with<T, U, F>(threads: usize, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    assert!(threads > 0, "at least one worker thread is required");
    if threads == 1 || items.len() <= 1 {
        return items.iter().map(f).collect();
    }
    // The claim counter publishes no data: each index goes to exactly one
    // worker (the read-modify-write is atomic at any ordering), items are
    // shared read-only, and results travel back through the joins.
    let next = AtomicUsize::new(0);
    let worker = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else { break };
            done.push((i, f(item)));
        }
        // Workers are fresh scoped threads, so the drain holds exactly
        // the telemetry of the items this worker claimed.
        (done, crate::obs::drain_worker())
    };
    // Every worker is joined before a panic is re-raised.
    let joined: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads.min(items.len()))
            .map(|_| scope.spawn(worker))
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    let workers: Vec<_> = joined
        .into_iter()
        .collect::<Result<_, _>>()
        .unwrap_or_else(|payload| std::panic::resume_unwind(payload));
    let mut slots: Vec<Option<U>> = items.iter().map(|_| None).collect();
    for (done, obs) in workers {
        crate::obs::absorb_worker(obs);
        for (i, out) in done {
            slots[i] = Some(out);
        }
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("every item is claimed exactly once"))
        .collect()
}

/// Maps `f` over the index range `0..n` with the default thread count,
/// preserving order. The indexed twin of [`parallel_map`] for loops that
/// have no input slice (Monte-Carlo chunks, sweep grids).
pub fn parallel_map_indexed<U, F>(n: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    parallel_map_indexed_with(threads(), n, f)
}

/// Maps `f` over `0..n` on up to `threads` workers, preserving order.
///
/// # Panics
///
/// Panics if `threads == 0`, or propagates the first panic raised by `f`.
pub fn parallel_map_indexed_with<U, F>(threads: usize, n: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    let indices: Vec<usize> = (0..n).collect();
    parallel_map_with(threads, &indices, |&i| f(i))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let items: Vec<usize> = (0..1000).collect();
        for threads in [1, 2, 3, 4, 7] {
            let out = parallel_map_with(threads, &items, |&x| x * 2);
            let expected: Vec<usize> = items.iter().map(|&x| x * 2).collect();
            assert_eq!(out, expected, "order broken at {threads} threads");
        }
    }

    #[test]
    fn matches_sequential_for_any_thread_count() {
        let items: Vec<u64> = (0..257).collect();
        let sequential: Vec<u64> = items.iter().map(|&x| x.wrapping_mul(x) ^ 0xA5).collect();
        for threads in 1..=8 {
            let par = parallel_map_with(threads, &items, |&x| x.wrapping_mul(x) ^ 0xA5);
            assert_eq!(par, sequential);
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u8> = Vec::new();
        assert!(parallel_map_with(4, &empty, |&x| x).is_empty());
        assert_eq!(parallel_map_with(4, &[9u8], |&x| x + 1), vec![10]);
    }

    #[test]
    fn fewer_items_than_threads() {
        // More workers than items: only one worker per item is spawned,
        // order still holds.
        let items = [10u32, 20, 30];
        assert_eq!(parallel_map_with(8, &items, |&x| x + 1), vec![11, 21, 31]);
    }

    #[test]
    fn chunk_boundary_lengths_are_exact() {
        // Lengths straddling multiples of the thread count: whether the
        // items divide evenly across workers or leave a remainder, every
        // item appears exactly once, in input order.
        for threads in [2usize, 3, 4] {
            for k in [1usize, 2, 5] {
                let n = k * threads;
                for len in [n - 1, n, n + 1] {
                    let items: Vec<usize> = (0..len).collect();
                    let out = parallel_map_with(threads, &items, |&x| x);
                    assert_eq!(out, items, "len {len}, threads {threads}");
                }
            }
        }
    }

    #[test]
    fn every_item_visited_exactly_once() {
        let counter = AtomicUsize::new(0);
        let items: Vec<usize> = (0..100).collect();
        let out = parallel_map_with(4, &items, |&x| {
            counter.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(counter.load(Ordering::Relaxed), 100);
        assert_eq!(out, items);
    }

    #[test]
    fn indexed_variant_agrees_with_slice_variant() {
        let by_index = parallel_map_indexed_with(3, 50, |i| i * i);
        let items: Vec<usize> = (0..50).collect();
        let by_slice = parallel_map_with(3, &items, |&i| i * i);
        assert_eq!(by_index, by_slice);
    }

    #[test]
    fn default_thread_count_is_positive() {
        assert!(threads() >= 1);
    }

    #[test]
    #[should_panic(expected = "at least one worker thread")]
    fn zero_threads_rejected() {
        let _ = parallel_map_with(0, &[1], |&x: &i32| x);
    }

    #[test]
    fn worker_panic_propagates() {
        let result = std::panic::catch_unwind(|| {
            parallel_map_with(2, &[1, 2, 3, 4], |&x: &i32| {
                assert!(x < 3, "boom at {x}");
                x
            })
        });
        assert!(result.is_err());
    }

    /// Item `i` of `n` costs `n - i` ticks: the first items are the
    /// slowest, the worst order for a contiguous split.
    fn inverted_cost(i: u64, n: u64) -> u64 {
        std::thread::sleep(std::time::Duration::from_micros(40 * (n - i)));
        crate::obs::count("sched.items", 1);
        crate::obs::count("sched.cost", n - i);
        crate::obs::record("sched.index", i);
        crate::obs::record("sched.cost_hist", (n - i) * 1000);
        i.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (n - i)
    }

    #[test]
    fn inverted_costs_keep_sequential_order_and_telemetry() {
        let n = 48u64;
        let items: Vec<u64> = (0..n).collect();
        let run = |threads| {
            let (out, metrics, _) = crate::obs::observe(|| {
                parallel_map_with(threads, &items, |&i| inverted_cost(i, n))
            });
            (out, metrics)
        };
        let (sequential, seq_metrics) = run(1);
        assert_eq!(seq_metrics.counter("sched.items"), Some(n));
        assert_eq!(seq_metrics.histogram("sched.index").unwrap().count(), n);
        for threads in [2, 4, 7] {
            let (out, metrics) = run(threads);
            assert_eq!(out, sequential, "output order at {threads} threads");
            assert_eq!(metrics, seq_metrics, "telemetry at {threads} threads");
        }
    }

    #[test]
    fn a_slow_first_item_does_not_hold_back_the_rest() {
        // Item 0 finishes only after every other item has: the other
        // workers must claim all of them while it runs. A contiguous split
        // would leave item 1 behind item 0 on the same worker forever.
        for threads in [2, 4, 7] {
            let n = 20usize;
            let finished = AtomicUsize::new(0);
            let items: Vec<usize> = (0..n).collect();
            let out = parallel_map_with(threads, &items, |&i| {
                if i == 0 {
                    let start = std::time::Instant::now();
                    while finished.load(Ordering::Acquire) < n - 1 {
                        assert!(
                            start.elapsed() < std::time::Duration::from_secs(20),
                            "items behind the slow one never ran at {threads} threads"
                        );
                        std::thread::yield_now();
                    }
                } else {
                    finished.fetch_add(1, Ordering::Release);
                }
                i
            });
            assert_eq!(out, items);
        }
    }

    #[test]
    fn panics_propagate_at_every_thread_count_without_hanging() {
        let n = 30u64;
        let items: Vec<u64> = (0..n).collect();
        for threads in [2, 4, 7] {
            // One panic on the slowest (first) item, and one panic on
            // every item: either way the join returns and re-raises.
            for panics_on in [&[0u64][..], &items[..]] {
                let result = std::panic::catch_unwind(|| {
                    parallel_map_with(threads, &items, |&i| {
                        assert!(!panics_on.contains(&i), "boom at {i}");
                        inverted_cost(i, n)
                    })
                });
                let payload = result.expect_err("the panic must propagate");
                let message = payload
                    .downcast_ref::<String>()
                    .expect("the worker's own payload is re-raised");
                assert!(message.starts_with("boom at "), "{message}");
            }
        }
    }
}
