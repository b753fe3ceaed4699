//! The shared job scheduler: one worker pool multiplexing many
//! concurrent campaigns, with admission control, fair-share
//! round-robin shard interleaving, a content-addressed result cache,
//! and checkpoint-backed restart.
//!
//! ## Scheduling contract
//!
//! Jobs are keyed by their content fingerprint. An admitted job enters
//! a round-robin rotation; each worker takes **one shard** from the
//! front job and rotates it to the back, so `k` active campaigns each
//! get ~`1/k` of the pool regardless of size or arrival order. The
//! expensive once-per-job setup (ATPG, Verilog compile) runs as the
//! job's first unit of work on a worker, never on the acceptor. A
//! built-in circuit's ATPG runs in the first such setup only; later
//! jobs reuse it ([`crate::jobs`]) and count in `setup_reused`.
//!
//! ## Cache contract
//!
//! A finished job's body is retained in memory (and as a `.res` file
//! when a state directory is configured) keyed by fingerprint.
//! Re-submitting an identical spec — under any spelling — returns the
//! retained bytes without touching a simulator: the deterministic
//! simulation counters (visible at `GET /stats`) stay flat.
//!
//! ## Restart contract
//!
//! With a state directory, each admitted job persists its canonical
//! spec (`<fp>.req`) before its admission is answered and streams
//! completed shards into a CRC-framed [`rt::exec::Checkpoint`]
//! (`<fp>.ck`). Spec and result files are created off the scheduler
//! lock, so cache hits never wait on the file system. A restarted
//! scheduler rescans the directory, re-admits every spec without a
//! whole `.res` (one that parses and names its fingerprint; results are
//! written to a temporary file and renamed into place, and a torn one is
//! deleted), and resumes from the checkpoint's valid prefix — re-running
//! only what was in flight when the process died.

use std::collections::{BTreeMap, VecDeque};
use std::fs;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rt::exec::{Checkpoint, Executor, RetryPolicy, Shard};
use rt::obs::{flight, Metrics, SpanEvent};

use crate::jobs::{JobSpec, PreparedJob};
use crate::json;
use crate::server::ServeConfig;

/// Verdict of [`Scheduler::submit`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Admission {
    /// The result already exists; serve it from cache.
    Cached {
        /// The job fingerprint (public id).
        fp: u64,
    },
    /// The job is queued or running (a duplicate in-flight submission
    /// coalesces onto the existing job).
    Accepted {
        /// The job fingerprint (public id).
        fp: u64,
        /// `false` when this submission coalesced onto an in-flight
        /// identical job instead of admitting new work.
        fresh: bool,
    },
    /// The unfinished-job queue is full; the client gets 429.
    Busy,
}

/// One job's externally visible progress snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Progress {
    /// `"queued"`, `"running"`, `"done"` or `"failed"`.
    pub status: &'static str,
    /// Shards completed so far.
    pub shards_done: usize,
    /// Shards planned (0 until setup finishes).
    pub shards_total: usize,
    /// Detections accumulated over completed shards.
    pub detections: u64,
    /// The job's deterministic simulation counters as canonical JSON.
    pub metrics: String,
    /// The failure message, for failed jobs.
    pub error: Option<String>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Queued,
    Running,
    Done,
    Failed,
}

struct Job {
    spec: JobSpec,
    status: Status,
    run: Option<Run>,
    metrics: Metrics,
    trace: Vec<SpanEvent>,
    result: Option<Arc<Vec<u8>>>,
    error: Option<String>,
}

impl Job {
    fn fresh(spec: JobSpec) -> Job {
        Job {
            spec,
            status: Status::Queued,
            run: None,
            metrics: Metrics::new(),
            trace: Vec::new(),
            result: None,
            error: None,
        }
    }
}

/// A prepared job's execution: the job, the executor over its shards
/// (one retry per shard) and its checkpoint.
struct Run {
    prep: Arc<PreparedJob>,
    exec: Executor<Done>,
    ck: Option<Checkpoint>,
}

/// One completed shard as the scheduler keeps it.
struct Done {
    payload: Vec<u8>,
    detections: u64,
}

/// Aggregate serving statistics (the per-request side; deterministic
/// simulation counters live separately so cache hits provably leave
/// them flat).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Stats {
    /// Jobs admitted as fresh work.
    pub admitted: u64,
    /// Submissions answered from the finished-result cache.
    pub cache_hits: u64,
    /// Submissions coalesced onto an identical in-flight job.
    pub coalesced: u64,
    /// Submissions rejected by admission control.
    pub rejected: u64,
    /// Jobs that reached `done`.
    pub completed: u64,
    /// Jobs that failed (bad netlist, repeated shard panic).
    pub failed: u64,
    /// Shards recovered from checkpoints instead of re-simulated.
    pub resumed_shards: u64,
    /// Job setups that took a built-in circuit's process-wide entry
    /// (circuit and transition ATPG) built by an earlier job.
    pub setup_reused: u64,
}

/// In-flight key for a job's setup unit (setup has no shard index).
const SETUP_UNIT: u32 = u32::MAX;

/// One unit of work a worker has taken but not finished, tracked for
/// the stall watchdog. Registered inside [`take_unit`] (under the state
/// lock, *before* any test hold), unregistered when the unit's
/// wall-clock is known.
struct InFlight {
    started: Instant,
    kind: &'static str,
    /// Highest escalation already flight-logged: 0 = none, 1 = slow,
    /// 2 = stalled. Keeps the recorder at one event per escalation.
    level: u8,
}

/// Rolling wall-clock estimate for one campaign kind's shards.
#[derive(Default, Clone, Copy)]
struct Estimate {
    total_ns: u128,
    samples: u64,
}

impl Estimate {
    fn avg_ns(&self) -> u128 {
        if self.samples == 0 {
            0
        } else {
            self.total_ns / u128::from(self.samples)
        }
    }
}

struct State {
    jobs: BTreeMap<u64, Job>,
    rotation: VecDeque<u64>,
    unfinished: usize,
    stats: Stats,
    inflight: BTreeMap<(u64, u32), InFlight>,
    estimates: BTreeMap<&'static str, Estimate>,
    shutdown: bool,
}

impl State {
    /// Queues a fresh job at the back of the rotation.
    fn admit(&mut self, fp: u64, spec: JobSpec) {
        self.jobs.insert(fp, Job::fresh(spec));
        self.rotation.push_back(fp);
        self.unfinished += 1;
        self.stats.admitted += 1;
    }
}

struct Shared {
    state: Mutex<State>,
    work: Condvar,
    /// The watchdog's own wakeup — it must not wait on `work`, where it
    /// would swallow `notify_one` wakeups meant for an idle worker.
    tick: Condvar,
    sim: Mutex<Metrics>,
    /// Watchdog gauges (`serve_shards_slow` / `serve_shards_stalled`):
    /// in-flight units currently past their slow / stalled threshold.
    slow: AtomicI64,
    stalled: AtomicI64,
    cfg: ServeConfig,
}

/// The scheduler handle: submit jobs, poll progress, fetch results,
/// shut down. Cloning is not offered — the server owns it and shares
/// `&Scheduler` across acceptor threads.
pub struct Scheduler {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Scheduler {
    /// Starts the worker pool of `cfg` (its scheduling fields; the
    /// address and acceptor count are the server's) and, when a state
    /// directory is configured, re-admits every persisted job that has
    /// not finished (restart recovery bypasses the admission bound — a
    /// restart must never drop accepted work).
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the state directory cannot be created;
    /// no thread has been started then.
    pub fn start(cfg: ServeConfig) -> io::Result<Scheduler> {
        let workers = if cfg.workers == 0 {
            rt::par::threads()
        } else {
            cfg.workers
        };
        if let Some(dir) = &cfg.state_dir {
            fs::create_dir_all(dir)?;
        }
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                jobs: BTreeMap::new(),
                rotation: VecDeque::new(),
                unfinished: 0,
                stats: Stats::default(),
                inflight: BTreeMap::new(),
                estimates: BTreeMap::new(),
                shutdown: false,
            }),
            work: Condvar::new(),
            tick: Condvar::new(),
            sim: Mutex::new(Metrics::new()),
            slow: AtomicI64::new(0),
            stalled: AtomicI64::new(0),
            cfg,
        });
        let mut sched = Scheduler {
            shared: Arc::clone(&shared),
            workers: Vec::new(),
        };
        sched.recover();
        for i in 0..workers {
            let shared = Arc::clone(&shared);
            sched.workers.push(
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared, i))
                    .expect("worker thread spawns"),
            );
        }
        {
            let shared = Arc::clone(&shared);
            sched.workers.push(
                std::thread::Builder::new()
                    .name("serve-watchdog".to_string())
                    .spawn(move || watchdog_loop(&shared))
                    .expect("watchdog thread spawns"),
            );
        }
        Ok(sched)
    }

    /// Re-admits persisted jobs whose result never landed.
    fn recover(&self) {
        let Some(dir) = &self.shared.cfg.state_dir else {
            return;
        };
        let Ok(entries) = fs::read_dir(dir) else {
            return;
        };
        // A `.req` that does not parse, or whose canonical spec no longer
        // matches its filename (schema drift), is stale state, not a job.
        let load = |path: &Path| -> Option<(u64, JobSpec)> {
            if path.extension()? != "req" {
                return None;
            }
            let fp = u64::from_str_radix(path.file_stem()?.to_str()?, 16).ok()?;
            if load_result(dir, fp).is_some() {
                return None;
            }
            let value = json::parse(&fs::read_to_string(path).ok()?).ok()?;
            let spec = JobSpec::from_value(&value).ok()?;
            (spec.fingerprint() == fp).then_some((fp, spec))
        };
        let mut specs: Vec<(u64, JobSpec)> =
            entries.flatten().filter_map(|e| load(&e.path())).collect();
        specs.sort_by_key(|(fp, _)| *fp);
        let mut state = self.shared.state.lock().expect("scheduler lock");
        for (fp, spec) in specs {
            state.admit(fp, spec);
        }
    }

    /// Admission control: cache lookup, in-flight coalescing, bounded
    /// queue. See [`Admission`].
    pub fn submit(&self, spec: JobSpec) -> Admission {
        let fp = spec.fingerprint();
        let queue_limit = if self.shared.cfg.queue_limit == 0 {
            64
        } else {
            self.shared.cfg.queue_limit
        };
        let mut state = self.shared.state.lock().expect("scheduler lock");
        if let Some(job) = state.jobs.get(&fp) {
            return match job.status {
                Status::Done => {
                    state.stats.cache_hits += 1;
                    flight::record("cache_hit", format!("job {fp:016x} (memory)"));
                    Admission::Cached { fp }
                }
                Status::Failed => {
                    // A failed job is observable, not retried silently.
                    Admission::Accepted { fp, fresh: false }
                }
                Status::Queued | Status::Running => {
                    state.stats.coalesced += 1;
                    flight::record("coalesce", format!("job {fp:016x}"));
                    Admission::Accepted { fp, fresh: false }
                }
            };
        }
        // Disk cache: a previous process may have finished this job.
        if let Some(dir) = &self.shared.cfg.state_dir {
            if let Some(bytes) = load_result(dir, fp) {
                let mut job = Job::fresh(spec);
                job.status = Status::Done;
                job.result = Some(Arc::new(bytes));
                state.jobs.insert(fp, job);
                state.stats.cache_hits += 1;
                flight::record("cache_hit", format!("job {fp:016x} (disk)"));
                return Admission::Cached { fp };
            }
        }
        if state.unfinished >= queue_limit {
            state.stats.rejected += 1;
            flight::record(
                "reject",
                format!(
                    "job {fp:016x}: {} unfinished >= limit {queue_limit}",
                    state.unfinished
                ),
            );
            return Admission::Busy;
        }
        flight::record("admit", format!("job {fp:016x} kind {}", spec.kind()));
        let req = self
            .shared
            .cfg
            .state_dir
            .as_ref()
            .map(|dir| (dir.join(format!("{fp:016x}.req")), spec.canonical()));
        state.admit(fp, spec);
        drop(state);
        self.shared.work.notify_one();
        // Persist the canonical spec before the caller answers 202, so a
        // crash after admission is recoverable. Creating a file can take
        // longer than a cache hit's whole request, so it happens off the
        // lock that every other request takes.
        if let Some((path, canonical)) = req {
            let _ = fs::write(path, canonical);
        }
        Admission::Accepted { fp, fresh: true }
    }

    /// Progress snapshot for a job, or `None` for an unknown id.
    pub fn progress(&self, fp: u64) -> Option<Progress> {
        let state = self.shared.state.lock().expect("scheduler lock");
        let job = state.jobs.get(&fp)?;
        let (shards_done, shards_total, detections) = job.run.as_ref().map_or((0, 0, 0), |run| {
            let summary = run.exec.summary();
            let detections = run.exec.outputs().map(|d| d.detections).sum();
            (summary.completed, summary.planned, detections)
        });
        Some(Progress {
            status: match job.status {
                Status::Queued => "queued",
                Status::Running => "running",
                Status::Done => "done",
                Status::Failed => "failed",
            },
            shards_done,
            shards_total,
            detections,
            metrics: job.metrics.to_json(),
            error: job.error.clone(),
        })
    }

    /// The finished result body, or `None` when unknown or not done.
    pub fn result(&self, fp: u64) -> Option<Arc<Vec<u8>>> {
        let state = self.shared.state.lock().expect("scheduler lock");
        state.jobs.get(&fp)?.result.clone()
    }

    /// Current per-request statistics.
    pub fn stats(&self) -> Stats {
        self.shared.state.lock().expect("scheduler lock").stats
    }

    /// Unfinished (queued or running) job count.
    pub fn unfinished(&self) -> usize {
        self.shared.state.lock().expect("scheduler lock").unfinished
    }

    /// The global deterministic simulation counters, merged from every
    /// shard ever run by this process, as canonical JSON. Cache hits
    /// leave this unchanged — the acceptance proof that repeats are not
    /// re-simulated.
    pub fn sim_metrics_json(&self) -> String {
        self.shared.sim.lock().expect("sim metrics lock").to_json()
    }

    /// A copy of the global deterministic simulation counters, for
    /// rendering in alternative formats (`GET /metrics`).
    pub fn sim_metrics(&self) -> Metrics {
        self.shared.sim.lock().expect("sim metrics lock").clone()
    }

    /// The stall-watchdog gauges `(slow, stalled)`: in-flight units
    /// currently past their slow / stalled wall-clock threshold. A
    /// stalled unit counts only as stalled, not slow.
    pub fn watchdog_gauges(&self) -> (i64, i64) {
        (
            self.shared.slow.load(Ordering::SeqCst),
            self.shared.stalled.load(Ordering::SeqCst),
        )
    }

    /// Assembles the job's collected shard spans into one Chrome-trace
    /// JSON document (`GET /jobs/<id>/trace`), or `None` for an unknown
    /// id. Every span is tagged with the job fingerprint and shard
    /// index in its `args`, lanes are named per worker, and the whole
    /// file opens in <https://ui.perfetto.dev>. A job served purely
    /// from cache has an empty (but valid) trace — nothing was
    /// simulated.
    pub fn trace_json(&self, fp: u64) -> Option<String> {
        let state = self.shared.state.lock().expect("scheduler lock");
        let job = state.jobs.get(&fp)?;
        let mut events = job.trace.clone();
        drop(state);
        events.sort_by_key(|a| (a.ts_ns, a.tid));
        let mut tids: Vec<u32> = events.iter().map(|e| e.tid).collect();
        tids.sort_unstable();
        tids.dedup();
        let names: Vec<(u32, String)> = tids
            .into_iter()
            .map(|tid| (tid, format!("worker-{tid}")))
            .collect();
        Some(rt::obs::chrome_trace_json_named(
            &events,
            &format!("serve job {fp:016x}"),
            &names,
        ))
    }

    /// Stops the pool: workers finish (and checkpoint) the shard they
    /// are on, then exit; queued work stays on disk for the next
    /// process. Idempotent via `Drop` — call explicitly to bound when
    /// the threads are gone.
    pub fn shutdown(&mut self) {
        {
            let mut state = self.shared.state.lock().expect("scheduler lock");
            state.shutdown = true;
        }
        self.shared.work.notify_all();
        self.shared.tick.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One unit of work handed to a worker under the lock.
enum Unit {
    Setup(u64, JobSpec),
    Shard(u64, Arc<PreparedJob>, Shard),
}

fn worker_loop(shared: &Shared, worker: usize) {
    loop {
        let unit = {
            let mut state = shared.state.lock().expect("scheduler lock");
            loop {
                if state.shutdown {
                    return;
                }
                if let Some(unit) = take_unit(&mut state) {
                    break unit;
                }
                state = shared.work.wait(state).expect("scheduler lock");
            }
        };
        if let Some(hold) = &shared.cfg.shard_hold {
            while hold.load(Ordering::SeqCst) {
                if shared.state.lock().expect("scheduler lock").shutdown {
                    return;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        match unit {
            Unit::Setup(fp, spec) => run_setup(shared, worker, fp, &spec),
            Unit::Shard(fp, prep, shard) => run_shard(shared, worker, fp, &prep, &shard),
        }
    }
}

/// Pops the next unit under the fair-share rotation: front job, one
/// unit, job back to the end. Stale rotation entries (finished jobs,
/// jobs with nothing left pending, duplicate entries drained by
/// another worker) are skipped, not trusted. The taken unit is registered as
/// in-flight **here**, under the lock, so the watchdog sees it even
/// while the `shard_hold` test hook parks the worker before the work.
fn take_unit(state: &mut State) -> Option<Unit> {
    let state = &mut *state;
    while let Some(fp) = state.rotation.pop_front() {
        let Some(job) = state.jobs.get_mut(&fp) else {
            continue;
        };
        let (key, unit) = match (job.status, job.run.as_mut()) {
            // Setup is one unit; the job re-enters the rotation when
            // its run exists.
            (Status::Queued, _) => {
                job.status = Status::Running;
                (SETUP_UNIT, Unit::Setup(fp, job.spec.clone()))
            }
            (Status::Running, Some(run)) => {
                let Some(shard) = run.exec.next_shard() else {
                    continue;
                };
                state.rotation.push_back(fp);
                flight::record(
                    "shard_start",
                    format!("job {fp:016x} shard {}", shard.index),
                );
                let prep = Arc::clone(&run.prep);
                (shard.index as u32, Unit::Shard(fp, prep, shard))
            }
            // A running job whose setup is still out, and Done/Failed
            // entries, which never re-enter the rotation.
            _ => continue,
        };
        state.inflight.insert(
            (fp, key),
            InFlight {
                started: Instant::now(),
                kind: job.spec.kind(),
                level: 0,
            },
        );
        return Some(unit);
    }
    None
}

/// Unregisters a finished (or abandoned) in-flight unit and folds its
/// wall clock into the per-kind rolling estimate (shards only — setup
/// cost is not comparable to shard cost).
fn finish_inflight(state: &mut State, fp: u64, unit: u32) {
    if let Some(entry) = state.inflight.remove(&(fp, unit)) {
        if unit != SETUP_UNIT {
            let est = state.estimates.entry(entry.kind).or_default();
            est.total_ns += entry.started.elapsed().as_nanos();
            est.samples += 1;
        }
    }
}

/// Tags captured span events with their serving context: the worker's
/// lane (tid) plus job/shard args for the trace viewer's detail pane.
fn tag_events(events: &mut [SpanEvent], worker: usize, fp: u64, shard: Option<usize>) {
    for e in events.iter_mut() {
        e.tid = worker as u32;
        e.args = vec![("job".to_string(), format!("{fp:016x}"))];
        if let Some(index) = shard {
            e.args.push(("shard".to_string(), index.to_string()));
        }
    }
}

/// Rescans in-flight units every `watchdog_poll`, escalating each past
/// its slow / stalled threshold: the thresholds come from the rolling
/// per-kind shard average (floored by `stall_floor` while the average
/// calibrates), escalations are flight-logged once per unit, and the
/// totals land in the `serve_shards_slow` / `serve_shards_stalled`
/// gauges. Observation only — a stalled shard is never killed, because
/// a slow shard and a hung shard are indistinguishable from outside.
fn watchdog_loop(shared: &Shared) {
    let poll = if shared.cfg.watchdog_poll.is_zero() {
        Duration::from_millis(250)
    } else {
        shared.cfg.watchdog_poll
    };
    let floor = if shared.cfg.stall_floor.is_zero() {
        Duration::from_secs(30)
    } else {
        shared.cfg.stall_floor
    };
    let mut state = shared.state.lock().expect("scheduler lock");
    loop {
        if state.shutdown {
            return;
        }
        let State {
            inflight,
            estimates,
            ..
        } = &mut *state;
        let mut slow = 0i64;
        let mut stalled = 0i64;
        for (&(fp, unit), entry) in inflight.iter_mut() {
            let elapsed = entry.started.elapsed();
            let avg_ns = estimates
                .get(entry.kind)
                .copied()
                .unwrap_or_default()
                .avg_ns();
            let slow_at = floor.max(Duration::from_nanos(
                avg_ns.saturating_mul(4).min(u128::from(u64::MAX)) as u64,
            ));
            let stall_at = slow_at.saturating_mul(4);
            let describe = || {
                let what = if unit == SETUP_UNIT {
                    "setup".to_string()
                } else {
                    format!("shard {unit}")
                };
                format!(
                    "job {fp:016x} {what}: {:.1}s elapsed (kind {}, slow at {:.1}s)",
                    elapsed.as_secs_f64(),
                    entry.kind,
                    slow_at.as_secs_f64(),
                )
            };
            if elapsed >= stall_at {
                stalled += 1;
                if entry.level < 2 {
                    entry.level = 2;
                    flight::record("shard_stalled", describe());
                }
            } else if elapsed >= slow_at {
                slow += 1;
                if entry.level < 1 {
                    entry.level = 1;
                    flight::record("shard_slow", describe());
                }
            }
        }
        shared.slow.store(slow, Ordering::SeqCst);
        shared.stalled.store(stalled, Ordering::SeqCst);
        let (next, _timeout) = shared
            .tick
            .wait_timeout(state, poll)
            .expect("scheduler lock");
        state = next;
    }
}

/// Runs the once-per-job setup off-lock — including resuming any
/// checkpointed shards — then installs the job's run.
fn run_setup(shared: &Shared, worker: usize, fp: u64, spec: &JobSpec) {
    let (outcome, metrics, mut events) =
        rt::obs::observe(|| rt::obs::quarantine(|| spec.prepare()).and_then(|r| r));
    merge_sim(shared, &metrics);
    tag_events(&mut events, worker, fp, None);
    let run = outcome.map(|prep| {
        let prep = Arc::new(prep);
        let mut exec = Executor::new(prep.shards().to_vec(), RetryPolicy::retries(1));
        let ck = shared
            .cfg
            .state_dir
            .as_ref()
            .and_then(|dir| Checkpoint::open(dir.join(format!("{fp:016x}.ck")), fp).ok());
        if let Some(ck) = &ck {
            exec.resume(ck.frames(), |shard, payload| {
                Some(Done {
                    detections: prep.payload_detections(shard, payload)?,
                    payload: payload.to_vec(),
                })
            });
        }
        Run { prep, exec, ck }
    });
    let mut guard = shared.state.lock().expect("scheduler lock");
    let state = &mut *guard;
    finish_inflight(state, fp, SETUP_UNIT);
    let job = state.jobs.get_mut(&fp).expect("setup job exists");
    job.trace.append(&mut events);
    match run {
        Err(message) => fail_job(shared, state, fp, message),
        Ok(run) => {
            state.stats.resumed_shards += run.exec.summary().resumed as u64;
            state.stats.setup_reused += u64::from(run.prep.reused_setup());
            let finished = run.exec.is_finished();
            job.metrics.merge(&metrics);
            job.run = Some(run);
            if finished {
                let body = finish_job(shared, state, fp);
                drop(guard);
                persist_result(shared, fp, &body);
            } else {
                state.rotation.push_back(fp);
                shared.work.notify_all();
            }
        }
    }
}

/// Runs one shard off-lock with panic isolation, validates its payload,
/// then steps the job's executor (and appends the checkpoint frame)
/// under the lock. A panicked shard is retried once; a second panic
/// fails the job.
fn run_shard(shared: &Shared, worker: usize, fp: u64, prep: &PreparedJob, shard: &Shard) {
    if !shared.cfg.shard_delay.is_zero() {
        std::thread::sleep(shared.cfg.shard_delay);
    }
    let (outcome, metrics, mut events) =
        rt::obs::observe(|| rt::obs::quarantine(|| prep.run_shard(shard)));
    merge_sim(shared, &metrics);
    tag_events(&mut events, worker, fp, Some(shard.index));
    let outcome = outcome.map(|frame| {
        let detections = prep
            .payload_detections(shard, &frame.payload)
            .expect("a fresh frame validates against its own shard");
        flight::record(
            "shard_finish",
            format!(
                "job {fp:016x} shard {}: {detections} detections",
                shard.index
            ),
        );
        (frame, detections)
    });
    let mut guard = shared.state.lock().expect("scheduler lock");
    let state = &mut *guard;
    finish_inflight(state, fp, shard.index as u32);
    let job = state.jobs.get_mut(&fp).expect("shard job exists");
    if job.status != Status::Running {
        return; // The job failed while this shard was out.
    }
    let run = job.run.as_mut().expect("running jobs are prepared");
    match outcome {
        Ok((frame, detections)) => {
            if let Some(ck) = &mut run.ck {
                if ck.append(&frame).is_ok() {
                    flight::record(
                        "checkpoint_write",
                        format!("job {fp:016x} shard {} frame appended", shard.index),
                    );
                }
            }
            let done = Done {
                payload: frame.payload,
                detections,
            };
            run.exec.complete(shard.index, done);
            job.metrics.merge(&metrics);
            job.trace.append(&mut events);
            if run.exec.is_finished() {
                let body = finish_job(shared, state, fp);
                drop(guard);
                persist_result(shared, fp, &body);
            }
        }
        Err(message) => {
            if run.exec.fail(shard.index, message.clone()) {
                flight::record(
                    "shard_retry",
                    format!("job {fp:016x} shard {}: {message}", shard.index),
                );
                state.rotation.push_back(fp);
                shared.work.notify_one();
            } else {
                let message = format!("shard {} panicked: {message}", shard.index);
                fail_job(shared, state, fp, message);
            }
        }
    }
}

/// Finalizes a complete job under the lock: body, cache entry, queue
/// accounting. The shard payloads are released once the body exists.
/// Returns the body for [`persist_result`], which the caller runs after
/// releasing the lock.
fn finish_job(shared: &Shared, state: &mut State, fp: u64) -> Arc<Vec<u8>> {
    let job = state.jobs.get_mut(&fp).expect("finishing job exists");
    let run = job.run.as_mut().expect("finished jobs are prepared");
    let payloads: Vec<Vec<u8>> = run
        .exec
        .outputs_mut()
        .map(|d| std::mem::take(&mut d.payload))
        .collect();
    let body = Arc::new(run.prep.finalize(fp, &payloads).into_bytes());
    run.ck = None;
    job.result = Some(Arc::clone(&body));
    job.status = Status::Done;
    state.unfinished -= 1;
    state.stats.completed += 1;
    flight::record("job_done", format!("job {fp:016x}"));
    shared.work.notify_all();
    body
}

/// Writes a finished job's body as its `.res`, off the scheduler lock:
/// creating files can take longer than a cache hit's whole request.
/// Until the rename lands, a restart recomputes the job from its `.req`
/// and checkpoint, which gives the same bytes.
fn persist_result(shared: &Shared, fp: u64, body: &[u8]) {
    if let Some(dir) = &shared.cfg.state_dir {
        // Write-then-rename: a kill mid-write leaves a `.res.tmp`, never
        // a torn `.res`.
        let tmp = dir.join(format!("{fp:016x}.res.tmp"));
        if fs::write(&tmp, body).is_ok() {
            let _ = fs::rename(&tmp, dir.join(format!("{fp:016x}.res")));
        }
    }
}

/// The persisted body of job `fp`, if `<fp>.res` holds a whole one: it
/// parses as JSON and its `"id"` is the fingerprint (a strict prefix of
/// a JSON object never parses). Any other `.res` is deleted, so the job
/// is re-admitted and recomputed rather than served torn.
fn load_result(dir: &Path, fp: u64) -> Option<Vec<u8>> {
    let id = format!("{fp:016x}");
    let path = dir.join(format!("{id}.res"));
    let bytes = fs::read(&path).ok()?;
    let whole = std::str::from_utf8(&bytes)
        .ok()
        .and_then(|text| json::parse(text).ok())
        .is_some_and(|v| v.get("id").and_then(json::Value::as_str) == Some(id.as_str()));
    if !whole {
        let _ = fs::remove_file(&path);
        return None;
    }
    Some(bytes)
}

/// Marks a job failed under the lock and releases its queue slot.
fn fail_job(shared: &Shared, state: &mut State, fp: u64, message: String) {
    flight::record("job_failed", format!("job {fp:016x}: {message}"));
    let job = state.jobs.get_mut(&fp).expect("failing job exists");
    job.status = Status::Failed;
    job.error = Some(message);
    if let Some(run) = &mut job.run {
        run.ck = None;
    }
    state.unfinished -= 1;
    state.stats.failed += 1;
    shared.work.notify_all();
}

fn merge_sim(shared: &Shared, metrics: &Metrics) {
    if !metrics.is_empty() {
        shared.sim.lock().expect("sim metrics lock").merge(metrics);
    }
}
