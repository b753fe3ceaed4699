//! Campaign-as-a-service: a hermetic, zero-dependency job server over
//! the workspace's deterministic campaign machinery.
//!
//! The paper's testability story pays off when fault and BER campaigns
//! run **on demand**: this crate turns the [`rt::exec`] shard planner
//! into a long-running service. A hand-rolled HTTP/1.1 layer over
//! [`std::net::TcpListener`] (module [`http`]) accepts JSON job specs
//! (module [`json`], a parser/renderer mirroring
//! [`rt::obs::Metrics::to_json`]'s sorted-key contract); specs
//! canonicalize to an [`rt::exec::fingerprint`] content address
//! (module [`jobs`]); and one shared worker pool interleaves the
//! shards of every active campaign fair-share round-robin with bounded
//! admission (module [`sched`]).
//!
//! Three properties carry the design:
//!
//! - **Determinism end to end.** A job's result body is a pure
//!   function of its canonical spec, so the content-addressed cache
//!   can answer a repeated request byte-identically without
//!   re-simulating — the deterministic simulation counters visible at
//!   `GET /stats` stay flat on a cache hit.
//! - **Crash-survivable jobs.** Admitted specs persist as `.req`
//!   files; completed shards stream into the same CRC-framed
//!   checkpoints campaigns use locally. A restarted server re-admits
//!   unfinished jobs and resumes from each checkpoint's valid prefix.
//! - **Isolation.** Handler panics are quarantined per connection,
//!   shard panics per shard (one retry, then the job fails) — neither
//!   takes down the acceptors or the pool.

#![warn(missing_docs)]

pub mod client;
pub mod http;
pub mod jobs;
pub mod json;
pub mod sched;
pub mod server;

pub use sched::{Admission, Scheduler};
pub use server::{ServeConfig, Server};
