//! # rt — the zero-dependency runtime substrate
//!
//! Everything the workspace previously pulled from external crates
//! (`rand`, `proptest`, `rayon`), owned in-tree so the whole repository
//! builds and tests fully offline:
//!
//! * [`rng`] — a deterministic pseudo-random generator (SplitMix64 seeding
//!   feeding a xoshiro256++ core) with uniform, range, Bernoulli and
//!   Box–Muller Gaussian draws,
//! * [`par`] — a parallel-map executor on `std::thread::scope` whose
//!   workers claim items one at a time, so uneven items balance; it
//!   preserves input order and falls back to a sequential loop when only
//!   one thread is asked for,
//! * [`check`] — a seeded property-test harness with **choice-sequence
//!   shrinking**: every raw draw is recorded, a failing case's draw log is
//!   minimized Hypothesis-style (chunk deletion, block zeroing, value
//!   bisection) by replaying mutated logs, and the reported reproducer is
//!   the minimal sequence that still fails ([`check::replay`] re-runs it),
//! * [`exec`] — resumable, panic-isolated shard execution: deterministic
//!   shard planning, a CRC-checked length-prefixed checkpoint codec with
//!   kill-and-resume byte-identity, bounded retry with exponential
//!   backoff in virtual time, and seeded fault injection
//!   ([`exec::Sabotage`]) to prove the recovery paths,
//! * [`obs`] — a zero-dependency observability layer: deterministic
//!   counters/gauges/log-bucketed histograms (byte-identical at any
//!   thread count, snapshotted to the tracked `results/metrics.json`),
//!   wall-clock spans exported as Chrome-trace JSON (gitignored), and an
//!   `OBS` env-var gated structured logger.
//!
//! # Determinism contract
//!
//! Every random stream in the workspace derives from an explicit `u64`
//! seed through [`rng::Rng::seed_from_u64`] or, for parallel work split
//! into fixed-size chunks, [`rng::Rng::seed_from_stream`]. Chunk
//! boundaries are a function of the problem size only — never of the
//! thread count — so a campaign or Monte-Carlo run produces bit-identical
//! results on 1 or N cores.
//!
//! # Examples
//!
//! ```
//! use rt::rng::Rng;
//!
//! let mut rng = Rng::seed_from_u64(7);
//! let coin = rng.next_bool();
//! let u = rng.uniform();
//! assert!((0.0..1.0).contains(&u));
//! let _ = coin;
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod check;
pub mod exec;
pub mod obs;
pub mod par;
pub mod rng;
