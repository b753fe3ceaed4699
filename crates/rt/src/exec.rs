//! Resumable, panic-isolated shard execution.
//!
//! Long campaigns (hundreds of faults × three test tiers, multi-chain
//! PPSFP sweeps) need to survive two kinds of trouble the plain
//! [`crate::par`] map does not: a worker panicking mid-run, and the
//! process dying before the run completes. This module supplies both
//! defenses while preserving the workspace determinism contract:
//!
//! * **Shard planning** ([`plan`], [`plan_segmented`]) — the work is cut
//!   into fixed-size shards keyed by item range. The plan is a function
//!   of the *problem size only*, never of the thread count, so records
//!   concatenated in shard order are byte-identical at any parallelism.
//! * **Checkpointing** ([`Checkpoint`], [`encode_checkpoint`],
//!   [`decode_checkpoint`]) — each completed shard's records are
//!   appended to a versioned, length-prefixed binary file with a CRC32
//!   per frame. A re-run with the same fingerprint resumes from the
//!   longest valid prefix; a truncated or corrupted tail is discarded,
//!   never trusted.
//! * **Panic isolation** ([`Executor`], [`run_shards`]) — a steppable
//!   executor holds every shard's state; every shard attempt runs
//!   under [`crate::obs::quarantine`]: a panic is caught, the attempt's
//!   partial telemetry is discarded (so retried runs stay byte-identical
//!   to untroubled ones), and the shard is requeued up to a bounded
//!   retry budget ([`RetryPolicy`]). A shard that exhausts its budget
//!   degrades the run to a partial [`ExecReport`] carrying an explicit
//!   [`ShardFailure`] manifest instead of aborting the process.
//! * **Fault injection** ([`Sabotage`]) — a seeded chaos knob that
//!   panics a chosen shard a chosen number of times, used by the
//!   conformance suite to prove the recovery machinery end to end.
//!
//! # Examples
//!
//! ```
//! use rt::exec::{plan, run_shards, RetryPolicy, Shard, ShardJob};
//!
//! struct Doubler;
//! impl ShardJob for Doubler {
//!     type Record = u64;
//!     fn run(&self, shard: &Shard) -> Vec<u64> {
//!         (shard.start..shard.start + shard.len).map(|i| 2 * i as u64).collect()
//!     }
//! }
//!
//! let shards = plan(10, 4);
//! let report = run_shards(2, &RetryPolicy::none(), None, &shards, &Doubler);
//! assert!(report.is_complete());
//! assert_eq!(report.records, (0..10).map(|i| 2 * i).collect::<Vec<u64>>());
//! ```

use std::collections::VecDeque;
use std::fs;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};

use crate::rng::Rng;

// ---------------------------------------------------------------------------
// Shard planning
// ---------------------------------------------------------------------------

/// One deterministic unit of campaign work: a contiguous item range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard {
    /// Position in the plan (also the checkpoint frame key).
    pub index: usize,
    /// First item covered by this shard.
    pub start: usize,
    /// Number of items covered.
    pub len: usize,
}

impl Shard {
    /// The half-open item range `[start, start + len)`.
    pub fn range(&self) -> std::ops::Range<usize> {
        self.start..self.start + self.len
    }
}

/// Cuts `total` items into shards of at most `shard_size` items. The cut
/// points depend on `total` and `shard_size` only — never on the thread
/// count — so a plan is reproducible across machines and runs.
///
/// # Panics
///
/// Panics if `shard_size == 0`.
pub fn plan(total: usize, shard_size: usize) -> Vec<Shard> {
    plan_segmented(&[total], shard_size)
}

/// Like [`plan`], but over several back-to-back segments (e.g. one per
/// scan chain): shards never straddle a segment boundary, so every shard
/// maps to exactly one segment. `start` offsets are global (cumulative
/// across segments), shard indices run plan-wide.
///
/// Zero-length segments are inert: they emit no (empty) shard, so
/// `[0, n, 0, m]` plans identically to `[n, m]`.
///
/// # Panics
///
/// Panics if `shard_size == 0`.
pub fn plan_segmented(segments: &[usize], shard_size: usize) -> Vec<Shard> {
    assert!(shard_size > 0, "shard size must be positive");
    let mut shards = Vec::new();
    let mut offset = 0usize;
    for &seg in segments {
        let mut pos = 0usize;
        while pos < seg {
            let len = shard_size.min(seg - pos);
            shards.push(Shard {
                index: shards.len(),
                start: offset + pos,
                len,
            });
            pos += len;
        }
        offset += seg;
    }
    shards
}

/// Mixes an arbitrary list of identity words (universe size, seeds,
/// schema versions, …) into a single checkpoint fingerprint. Same parts,
/// same fingerprint — a resumed run must prove it is the same campaign.
///
/// The element count is folded into the accumulator before any part:
/// without it, a prefix-extended list `[a, b]` would collide with `[a]`
/// whenever `b` happens to map the running state back onto itself, and
/// two campaigns differing only in trailing identity words could then
/// trust each other's checkpoints. Seeding with the length makes the
/// whole chain differ between a list and any extension of it.
pub fn fingerprint(parts: &[u64]) -> u64 {
    // pi, nothing up the sleeve
    let mut acc = Rng::seed_from_stream(0x243F_6A88_85A3_08D3, parts.len() as u64).next_u64();
    for &p in parts {
        let mut rng = Rng::seed_from_stream(acc, p);
        acc = rng.next_u64();
    }
    acc
}

// ---------------------------------------------------------------------------
// CRC32 + checkpoint codec
// ---------------------------------------------------------------------------

const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 == 1 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE 802.3 polynomial, reflected) over `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// Checkpoint container magic (`RTCK`).
pub const CHECKPOINT_MAGIC: [u8; 4] = *b"RTCK";
/// Checkpoint container format version.
pub const CHECKPOINT_VERSION: u32 = 1;
/// Header length in bytes: magic + version + fingerprint.
pub const HEADER_LEN: usize = 4 + 4 + 8;
/// Per-frame overhead in bytes: length prefix + shard index + record
/// count + trailing CRC32.
pub const FRAME_OVERHEAD: usize = 4 + 4 + 4 + 4;
/// Largest encodable frame payload, in bytes.
///
/// The frame-size contract: a frame body is `8 + payload.len()` bytes
/// and its length prefix is a little-endian `u32`, so the payload must
/// not exceed `u32::MAX - 8` bytes. Encoding a larger payload is a
/// typed [`OversizedFrame`] error — never a silent `as u32` truncation,
/// which would write a self-consistent frame describing only a prefix
/// of the payload and let the CRC bless the corruption.
pub const MAX_FRAME_PAYLOAD: usize = u32::MAX as usize - 8;

/// Typed encoding error: a frame payload larger than
/// [`MAX_FRAME_PAYLOAD`] cannot be described by the `u32` length prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OversizedFrame {
    /// The offending payload length, in bytes.
    pub payload_len: usize,
}

impl std::fmt::Display for OversizedFrame {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "frame payload of {} bytes exceeds the {} byte frame-size limit",
            self.payload_len, MAX_FRAME_PAYLOAD
        )
    }
}

impl std::error::Error for OversizedFrame {}

/// Checks `payload_len` against the frame-size contract
/// ([`MAX_FRAME_PAYLOAD`]) — the guard every encoding path runs before
/// writing a length prefix.
///
/// # Errors
///
/// Returns [`OversizedFrame`] when the payload cannot be described by
/// the `u32` length prefix.
pub fn check_frame_payload(payload_len: usize) -> Result<(), OversizedFrame> {
    if payload_len > MAX_FRAME_PAYLOAD {
        Err(OversizedFrame { payload_len })
    } else {
        Ok(())
    }
}

/// One checkpointed shard: the shard's plan index, how many records the
/// payload encodes, and the caller-defined payload bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Plan index of the completed shard.
    pub shard: u32,
    /// Number of records encoded in `payload`.
    pub records: u32,
    /// Caller-encoded record bytes (see [`ShardJob::encode`]).
    pub payload: Vec<u8>,
}

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn read_u32(bytes: &[u8], at: usize) -> Option<u32> {
    let end = at.checked_add(4)?;
    Some(u32::from_le_bytes(bytes.get(at..end)?.try_into().ok()?))
}

fn encode_frame(frame: &Frame, out: &mut Vec<u8>) -> Result<(), OversizedFrame> {
    // Body = shard index + record count + payload; the length prefix
    // covers the body, the CRC covers the body too (so a bit flip in
    // either the metadata or the payload invalidates the frame).
    check_frame_payload(frame.payload.len())?;
    let body_len = 8 + frame.payload.len();
    push_u32(out, body_len as u32);
    let body_start = out.len();
    push_u32(out, frame.shard);
    push_u32(out, frame.records);
    out.extend_from_slice(&frame.payload);
    let crc = crc32(&out[body_start..]);
    push_u32(out, crc);
    Ok(())
}

/// Serializes a whole checkpoint (header + frames) to bytes — the pure
/// codec the file-backed [`Checkpoint`] writes incrementally.
///
/// # Errors
///
/// Returns [`OversizedFrame`] if any frame's payload exceeds
/// [`MAX_FRAME_PAYLOAD`] (the frame-size contract).
pub fn encode_checkpoint(fp: u64, frames: &[Frame]) -> Result<Vec<u8>, OversizedFrame> {
    let mut out = Vec::with_capacity(HEADER_LEN);
    out.extend_from_slice(&CHECKPOINT_MAGIC);
    push_u32(&mut out, CHECKPOINT_VERSION);
    out.extend_from_slice(&fp.to_le_bytes());
    for frame in frames {
        encode_frame(frame, &mut out)?;
    }
    Ok(out)
}

/// Result of decoding a checkpoint byte stream: the frames of the
/// longest valid prefix, the byte length of that prefix, and whether the
/// stream decoded cleanly to its end.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Decoded {
    /// Frames recovered from the valid prefix, in file order.
    pub frames: Vec<Frame>,
    /// Byte length of the valid prefix (header + intact frames); a
    /// writer resuming an interrupted file truncates to this length.
    pub valid_len: usize,
    /// `true` when the stream ended exactly at a frame boundary with no
    /// corruption — `false` means a truncated or CRC-failing tail was
    /// discarded.
    pub clean: bool,
}

/// Decodes a checkpoint byte stream against an expected fingerprint.
///
/// A missing/garbled header or a fingerprint mismatch yields zero frames
/// with `valid_len == 0` (the file belongs to some other campaign and
/// must be rewritten from scratch). After a valid header, frames are
/// read until the first undecodable frame — truncated, CRC-corrupted,
/// or carrying a body too short to hold its shard index and record
/// count (a short body is rejected even when its CRC checks out: no
/// writer of this format produces one, so it marks a corrupted or
/// foreign tail, never a frame to panic over). Everything before the
/// first bad frame is trusted, everything from it on is discarded.
pub fn decode_checkpoint(bytes: &[u8], fp: u64) -> Decoded {
    let header_ok = bytes.len() >= HEADER_LEN
        && bytes[..4] == CHECKPOINT_MAGIC
        && read_u32(bytes, 4) == Some(CHECKPOINT_VERSION)
        && bytes[8..16] == fp.to_le_bytes();
    if !header_ok {
        return Decoded {
            frames: Vec::new(),
            valid_len: 0,
            clean: false,
        };
    }
    let mut frames = Vec::new();
    let mut at = HEADER_LEN;
    loop {
        if at == bytes.len() {
            return Decoded {
                frames,
                valid_len: at,
                clean: true,
            };
        }
        let Some(frame) = decode_frame(bytes, at) else {
            break; // truncated, short-body or CRC-corrupted tail
        };
        at += FRAME_OVERHEAD + frame.payload.len();
        frames.push(frame);
    }
    Decoded {
        frames,
        valid_len: at,
        clean: false,
    }
}

/// Decodes the frame starting at byte offset `at`, or `None` when the
/// bytes there do not hold a complete, CRC-valid frame with a body of
/// at least the 8 metadata bytes. Never panics: every field access is
/// bounds-checked, so a hostile or damaged stream degrades to a
/// rejected tail instead of a process abort.
fn decode_frame(bytes: &[u8], at: usize) -> Option<Frame> {
    let body_len = read_u32(bytes, at)? as usize;
    if body_len < 8 {
        return None; // a valid body holds at least shard + record count
    }
    let body_start = at + 4;
    let crc_at = body_start.checked_add(body_len)?;
    let body = bytes.get(body_start..crc_at)?;
    if read_u32(bytes, crc_at)? != crc32(body) {
        return None; // corrupted frame
    }
    Some(Frame {
        shard: read_u32(body, 0)?,
        records: read_u32(body, 4)?,
        payload: body[8..].to_vec(),
    })
}

/// A file-backed checkpoint: opened once per run, appended to after each
/// completed shard, resumed from on the next run with the same
/// fingerprint.
#[derive(Debug)]
pub struct Checkpoint {
    file: fs::File,
    frames: Vec<Frame>,
}

impl Checkpoint {
    /// Opens (or creates) the checkpoint at `path`, recovering every
    /// frame of its longest valid prefix into [`Checkpoint::frames`]. A
    /// file with a foreign or damaged header is rewritten from scratch;
    /// a valid file with a corrupted tail is truncated back to its
    /// longest valid prefix so subsequent appends extend trusted data
    /// only.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from opening, reading or truncating the
    /// file, or from creating its parent directory.
    pub fn open(path: impl Into<PathBuf>, fp: u64) -> io::Result<Checkpoint> {
        let path = path.into();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                fs::create_dir_all(parent)?;
            }
        }
        let mut file = fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let decoded = decode_checkpoint(&bytes, fp);
        if decoded.valid_len == 0 {
            // Foreign or damaged header: start the file over.
            file.set_len(0)?;
            file.seek(SeekFrom::Start(0))?;
            let header = encode_checkpoint(fp, &[]).expect("a frameless checkpoint always fits");
            file.write_all(&header)?;
        } else if decoded.valid_len < bytes.len() {
            // Corrupted tail: drop it, keep the trusted prefix.
            file.set_len(decoded.valid_len as u64)?;
        }
        file.seek(SeekFrom::End(0))?;
        Ok(Checkpoint {
            file,
            frames: decoded.frames,
        })
    }

    /// The frames recovered when the checkpoint was opened, in file
    /// order (appends made through this handle are not re-listed here).
    pub fn frames(&self) -> &[Frame] {
        &self.frames
    }

    /// Appends one completed shard's frame and flushes it to the OS, so
    /// a crash immediately after loses at most the shards still in
    /// flight.
    ///
    /// # Errors
    ///
    /// Returns an `InvalidInput` error wrapping [`OversizedFrame`] when
    /// the frame payload exceeds [`MAX_FRAME_PAYLOAD`], and any I/O
    /// error from the write or flush.
    pub fn append(&mut self, frame: &Frame) -> io::Result<()> {
        let mut bytes = Vec::with_capacity(FRAME_OVERHEAD + frame.payload.len());
        encode_frame(frame, &mut bytes)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
        self.file.write_all(&bytes)?;
        self.file.flush()
    }
}

// ---------------------------------------------------------------------------
// Retry policy + fault injection
// ---------------------------------------------------------------------------

/// Bounded retry: a panicking shard is requeued behind the rest of the
/// plan until it has used its retry budget. Retries are immediate — a
/// shard body is a pure function of the shard, so waiting would change
/// nothing but the wall clock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries allowed per shard after its first attempt.
    pub max_retries: u32,
}

impl RetryPolicy {
    /// No retries: a shard failure is final.
    pub fn none() -> RetryPolicy {
        RetryPolicy::retries(0)
    }

    /// Up to `n` retries per shard.
    pub fn retries(n: u32) -> RetryPolicy {
        RetryPolicy { max_retries: n }
    }
}

/// Deterministic fault injection: panics a chosen shard a chosen number
/// of times, then lets it through. A job wrapped in [`Sabotaged`] trips
/// it at the top of every shard; the conformance suite uses this to
/// prove that a worker panic is isolated, retried and recovered.
#[derive(Debug)]
pub struct Sabotage {
    shard: usize,
    remaining: AtomicU32,
}

impl Sabotage {
    /// Panics shard `shard` on its first attempt only.
    pub fn once(shard: usize) -> Sabotage {
        Sabotage::times(shard, 1)
    }

    /// Panics shard `shard` on its first `times` attempts.
    pub fn times(shard: usize, times: u32) -> Sabotage {
        Sabotage {
            shard,
            remaining: AtomicU32::new(times),
        }
    }

    /// Seeded mutant: derives the victim shard from `seed` over a plan
    /// of `shards` shards and arms it `times` times.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub fn seeded(seed: u64, shards: usize, times: u32) -> Sabotage {
        assert!(shards > 0, "cannot sabotage an empty plan");
        Sabotage::times(Rng::seed_from_u64(seed).below(shards), times)
    }

    /// The shard this sabotage targets.
    pub fn target(&self) -> usize {
        self.shard
    }

    /// Panics if this sabotage targets `shard` and still has charges
    /// left; otherwise does nothing. Call at the top of a shard body.
    pub fn trip(&self, shard: usize) {
        if shard != self.shard {
            return;
        }
        if self
            .remaining
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
            .is_ok()
        {
            panic!("sabotage: injected panic in shard {shard}");
        }
    }
}

// ---------------------------------------------------------------------------
// The executor
// ---------------------------------------------------------------------------

/// A unit of campaign work the executor can run, checkpoint and resume.
///
/// `run` must be a pure function of the shard (plus the job's own
/// immutable state) returning one record per item of `shard.range()`:
/// the executor may invoke it on any thread, retry it after a panic, or
/// skip it entirely when the checkpoint already holds its records.
/// `encode`/`decode` round-trip the shard's records through checkpoint
/// payload bytes; the defaults disable persistence (every frame decodes
/// to `None` and is recomputed).
pub trait ShardJob: Sync {
    /// Per-item result record produced by a shard.
    type Record: Send;

    /// Computes the shard's records. May panic; the executor isolates
    /// and retries.
    fn run(&self, shard: &Shard) -> Vec<Self::Record>;

    /// Encodes `records` into checkpoint payload bytes. The default
    /// encodes nothing (pair with the default `decode`).
    fn encode(&self, _shard: &Shard, _records: &[Self::Record], _out: &mut Vec<u8>) {}

    /// Decodes a checkpoint payload back into records, or `None` when
    /// the payload is unusable (wrong length, unknown flags, …) — the
    /// shard is then recomputed. The default always recomputes.
    fn decode(&self, _shard: &Shard, _payload: &[u8]) -> Option<Vec<Self::Record>> {
        None
    }
}

/// `job` with an optional [`Sabotage`] tripped at the top of every
/// shard — the one place fault injection enters a run.
pub struct Sabotaged<'a, J> {
    /// The job whose shards run after the trip.
    pub job: &'a J,
    /// The injected panic, if any.
    pub sabotage: Option<&'a Sabotage>,
}

impl<J: ShardJob> ShardJob for Sabotaged<'_, J> {
    type Record = J::Record;

    fn run(&self, shard: &Shard) -> Vec<J::Record> {
        if let Some(s) = self.sabotage {
            s.trip(shard.index);
        }
        self.job.run(shard)
    }

    fn encode(&self, shard: &Shard, records: &[J::Record], out: &mut Vec<u8>) {
        self.job.encode(shard, records, out);
    }

    fn decode(&self, shard: &Shard, payload: &[u8]) -> Option<Vec<J::Record>> {
        self.job.decode(shard, payload)
    }
}

/// A shard that exhausted its retry budget: the explicit manifest entry
/// a partial run carries instead of aborting the process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardFailure {
    /// Plan index of the failed shard.
    pub shard: usize,
    /// First item the shard covers.
    pub start: usize,
    /// Number of items the shard covers.
    pub len: usize,
    /// Attempts made (first try + retries).
    pub attempts: u32,
    /// Panic message of the final attempt.
    pub message: String,
}

/// Deterministic, non-generic execution counters — comparable across
/// runs regardless of the record type.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecSummary {
    /// Shards in the plan.
    pub planned: usize,
    /// Shards whose records made it into the report (computed or
    /// resumed).
    pub completed: usize,
    /// Shards restored from the checkpoint without recomputation.
    pub resumed: usize,
    /// Retry attempts across all shards.
    pub retried: usize,
    /// Shards that exhausted the retry budget.
    pub failed: usize,
}

/// The outcome of [`run_shards`]: completed records in shard order plus
/// the incompleteness manifest.
#[derive(Debug, PartialEq)]
pub struct ExecReport<R> {
    /// Records of every completed shard, concatenated in shard (= item)
    /// order. Failed shards contribute nothing; consult `incomplete`
    /// for the gaps.
    pub records: Vec<R>,
    /// Failed shards, in plan order. Empty iff the run is complete.
    pub incomplete: Vec<ShardFailure>,
    /// Execution counters.
    pub summary: ExecSummary,
}

impl<R> ExecReport<R> {
    /// `true` when every planned shard delivered records.
    pub fn is_complete(&self) -> bool {
        self.incomplete.is_empty()
    }
}

enum Slot<T> {
    /// Pending or out with a driver, after this many failed attempts.
    Open(u32),
    Done(T),
    Failed(ShardFailure),
}

/// The steppable shard executor: per-shard state (pending, done or
/// failed), attempt counts under a [`RetryPolicy`], checkpoint-frame
/// resume and the [`ShardFailure`] manifest. It runs nothing itself: a
/// driver takes shards with [`Executor::next_shard`], runs them
/// anywhere and reports back with [`Executor::complete`] or
/// [`Executor::fail`]. [`run_shards`] drives it in parallel waves; the
/// job server steps one per job. `T` is one completed shard's output.
/// Shards are keyed by [`Shard::index`], their position in the plan.
pub struct Executor<T> {
    plan: Vec<Shard>,
    retry: RetryPolicy,
    slots: Vec<Slot<T>>,
    queue: VecDeque<usize>,
    summary: ExecSummary,
}

impl<T> Executor<T> {
    /// An executor with every shard of `plan` pending.
    pub fn new(plan: Vec<Shard>, retry: RetryPolicy) -> Executor<T> {
        Executor {
            slots: plan.iter().map(|_| Slot::Open(0)).collect(),
            queue: (0..plan.len()).collect(),
            summary: ExecSummary {
                planned: plan.len(),
                ..ExecSummary::default()
            },
            plan,
            retry,
        }
    }

    /// Restores shards from checkpoint frames, before the first
    /// [`Executor::next_shard`]: a frame counts when it names a planned
    /// shard, holds one record per item and `decode` accepts its
    /// payload. Later frames win (an append-only file can hold an
    /// interrupted retry).
    pub fn resume(&mut self, frames: &[Frame], mut decode: impl FnMut(&Shard, &[u8]) -> Option<T>) {
        for frame in frames {
            let index = frame.shard as usize;
            let Some(shard) = self.plan.get(index) else {
                continue;
            };
            if frame.records as usize != shard.len {
                continue;
            }
            let Some(output) = decode(shard, &frame.payload) else {
                continue;
            };
            if let Slot::Open(_) = self.slots[index] {
                self.summary.resumed += 1;
                self.summary.completed += 1;
            }
            self.slots[index] = Slot::Done(output);
        }
        let slots = &self.slots;
        self.queue.retain(|&i| matches!(slots[i], Slot::Open(_)));
    }

    /// Takes the next pending shard (plan order, retries queued
    /// behind), or `None` when none is pending.
    pub fn next_shard(&mut self) -> Option<Shard> {
        self.queue.pop_front().map(|i| self.plan[i])
    }

    /// Records a taken shard's output.
    ///
    /// # Panics
    ///
    /// Panics if shard `index` is already done or failed.
    pub fn complete(&mut self, index: usize, output: T) {
        assert!(
            matches!(self.slots[index], Slot::Open(_)),
            "shard {index} is closed"
        );
        self.slots[index] = Slot::Done(output);
        self.summary.completed += 1;
    }

    /// Records a failed attempt of a taken shard: `true` when the retry
    /// budget queues it again, `false`
    /// when it is now a [`ShardFailure`].
    ///
    /// # Panics
    ///
    /// Panics if shard `index` is already done or failed.
    pub fn fail(&mut self, index: usize, message: String) -> bool {
        let Slot::Open(failed) = self.slots[index] else {
            panic!("shard {index} is closed");
        };
        let attempts = failed + 1;
        if attempts <= self.retry.max_retries {
            self.summary.retried += 1;
            self.slots[index] = Slot::Open(attempts);
            self.queue.push_back(index);
            return true;
        }
        let shard = self.plan[index];
        self.slots[index] = Slot::Failed(ShardFailure {
            shard: shard.index,
            start: shard.start,
            len: shard.len,
            attempts,
            message,
        });
        self.summary.failed += 1;
        false
    }

    /// `true` once every shard is done or failed.
    pub fn is_finished(&self) -> bool {
        self.summary.completed + self.summary.failed == self.summary.planned
    }

    /// Execution counters so far.
    pub fn summary(&self) -> &ExecSummary {
        &self.summary
    }

    /// Completed shards' outputs, in plan order.
    pub fn outputs(&self) -> impl Iterator<Item = &T> {
        self.slots.iter().filter_map(|s| match s {
            Slot::Done(output) => Some(output),
            _ => None,
        })
    }

    /// Completed shards' outputs, in plan order, for updating in place.
    pub fn outputs_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.slots.iter_mut().filter_map(|s| match s {
            Slot::Done(output) => Some(output),
            _ => None,
        })
    }
}

impl<R> Executor<Vec<R>> {
    /// Concatenates completed records in plan order and collects the
    /// failure manifest.
    ///
    /// # Panics
    ///
    /// Panics unless [`Executor::is_finished`].
    pub fn into_report(self) -> ExecReport<R> {
        assert!(self.is_finished(), "report of an unfinished run");
        let mut records = Vec::new();
        let mut incomplete = Vec::new();
        for slot in self.slots {
            match slot {
                Slot::Done(mut r) => records.append(&mut r),
                Slot::Failed(f) => incomplete.push(f),
                Slot::Open(_) => {}
            }
        }
        ExecReport {
            records,
            incomplete,
            summary: self.summary,
        }
    }
}

/// Runs `plan` through `job` on up to `threads` workers with panic
/// isolation, bounded retry and optional checkpoint resume: an
/// [`Executor`] drained in waves, each wave's shards mapped in
/// parallel.
///
/// Completed records come back concatenated in shard order —
/// byte-identical at any thread count, after any interrupt/resume cycle,
/// and after any number of recovered panics (a failed attempt's partial
/// telemetry is discarded wholesale). Checkpoint I/O errors never abort
/// the run: persistence degrades to in-memory execution and the error is
/// surfaced through the `exec.checkpoint.io_errors` counter and the
/// [`crate::obs::log`] warning stream.
///
/// # Panics
///
/// Panics if `threads == 0`. Worker panics do *not* propagate; they are
/// converted into retries and, past the budget, [`ShardFailure`]s.
pub fn run_shards<J: ShardJob>(
    threads: usize,
    retry: &RetryPolicy,
    mut checkpoint: Option<&mut Checkpoint>,
    plan: &[Shard],
    job: &J,
) -> ExecReport<J::Record> {
    assert!(threads > 0, "at least one worker thread is required");
    let _span = crate::obs::span("exec.run");
    crate::obs::count("exec.shards.planned", plan.len() as u64);
    let mut exec = Executor::new(plan.to_vec(), retry.clone());
    if let Some(ck) = checkpoint.as_deref() {
        exec.resume(ck.frames(), |shard, payload| job.decode(shard, payload));
    }
    crate::obs::count("exec.shards.resumed", exec.summary().resumed as u64);

    loop {
        let wave: Vec<Shard> = std::iter::from_fn(|| exec.next_shard()).collect();
        if wave.is_empty() {
            break;
        }
        let outcomes = crate::par::parallel_map_with(threads.min(wave.len()), &wave, |shard| {
            crate::obs::quarantine(|| {
                let _span = crate::obs::span(format!("exec.shard.{}", shard.index));
                job.run(shard)
            })
        });
        for (shard, outcome) in wave.iter().zip(outcomes) {
            match outcome {
                Ok(records) => {
                    if let Some(ck) = checkpoint.as_deref_mut() {
                        persist(ck, job, shard, &records);
                    }
                    exec.complete(shard.index, records);
                }
                Err(message) => {
                    crate::obs::log::info(
                        "exec",
                        format!("shard {} panicked: {message}", shard.index),
                    );
                    exec.fail(shard.index, message);
                }
            }
        }
    }

    let report = exec.into_report();
    crate::obs::count("exec.shards.completed", report.summary.completed as u64);
    crate::obs::count("exec.shards.retried", report.summary.retried as u64);
    crate::obs::count("exec.shards.failed", report.summary.failed as u64);
    report
}

fn persist<J: ShardJob>(ck: &mut Checkpoint, job: &J, shard: &Shard, records: &[J::Record]) {
    let mut payload = Vec::new();
    job.encode(shard, records, &mut payload);
    let frame = Frame {
        shard: shard.index as u32,
        records: records.len() as u32,
        payload,
    };
    if let Err(e) = ck.append(&frame) {
        crate::obs::count("exec.checkpoint.io_errors", 1);
        crate::obs::log::info(
            "exec",
            format!("checkpoint append failed ({e}); continuing without persistence"),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// A deterministic job: records derive from the shard index and item
    /// indices only, and round-trip through 8-byte words.
    struct SeededJob;

    impl ShardJob for SeededJob {
        type Record = u64;

        fn run(&self, shard: &Shard) -> Vec<u64> {
            crate::obs::count("job.shards", 1);
            crate::obs::count("job.items", shard.len as u64);
            let mut rng = Rng::seed_from_u64(shard.index as u64);
            shard.range().map(|i| rng.next_u64() ^ i as u64).collect()
        }

        fn encode(&self, _shard: &Shard, records: &[u64], out: &mut Vec<u8>) {
            for r in records {
                out.extend_from_slice(&r.to_le_bytes());
            }
        }

        fn decode(&self, shard: &Shard, payload: &[u8]) -> Option<Vec<u64>> {
            if payload.len() != shard.len * 8 {
                return None;
            }
            Some(
                payload
                    .chunks_exact(8)
                    .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk")))
                    .collect(),
            )
        }
    }

    fn temp_ck(tag: &str) -> PathBuf {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("rt-exec-test-{}-{tag}-{n}.ck", std::process::id()))
    }

    #[test]
    fn plan_covers_every_item_once() {
        let shards = plan(103, 16);
        assert_eq!(shards.len(), 7);
        let mut next = 0usize;
        for (i, s) in shards.iter().enumerate() {
            assert_eq!(s.index, i);
            assert_eq!(s.start, next);
            assert!(s.len <= 16 && s.len > 0);
            next += s.len;
        }
        assert_eq!(next, 103);
        assert!(plan(0, 16).is_empty());
    }

    #[test]
    fn segmented_plan_respects_boundaries() {
        let shards = plan_segmented(&[10, 3, 0, 7], 4);
        let lens: Vec<usize> = shards.iter().map(|s| s.len).collect();
        assert_eq!(lens, vec![4, 4, 2, 3, 4, 3]);
        let starts: Vec<usize> = shards.iter().map(|s| s.start).collect();
        assert_eq!(starts, vec![0, 4, 8, 10, 13, 17]);
        // No shard straddles a segment edge (10, 13, 20).
        for s in &shards {
            for edge in [10usize, 13] {
                assert!(
                    s.start + s.len <= edge || s.start >= edge,
                    "shard {s:?} straddles {edge}"
                );
            }
        }
    }

    #[test]
    fn zero_length_segments_are_inert() {
        // Regression: empty segments must neither emit empty shards nor
        // shift the indices of the shards after them.
        for (padded, plain) in [
            (vec![0, 10, 0, 7], vec![10, 7]),
            (vec![0, 0, 10, 7, 0], vec![10, 7]),
            (vec![0, 1, 0, 0, 64, 0], vec![1, 64]),
        ] {
            let with_zeros = plan_segmented(&padded, 4);
            let without = plan_segmented(&plain, 4);
            assert_eq!(with_zeros, without, "{padded:?} vs {plain:?}");
            assert!(with_zeros.iter().all(|s| s.len > 0), "empty shard emitted");
        }
        assert_eq!(plan_segmented(&[0, 0, 0], 4), Vec::new());
        assert_eq!(plan_segmented(&[], 4), Vec::new());
    }

    #[test]
    fn fingerprint_mixes_all_parts() {
        let base = fingerprint(&[1, 2, 3]);
        assert_eq!(base, fingerprint(&[1, 2, 3]));
        assert_ne!(base, fingerprint(&[1, 2, 4]));
        assert_ne!(base, fingerprint(&[3, 2, 1]), "order must matter");
        assert_ne!(fingerprint(&[]), fingerprint(&[0]));
    }

    #[test]
    fn fingerprint_is_prefix_extension_safe() {
        // Regression (length mixing): a part list and any extension of
        // it must never share a fingerprint, even when the appended
        // word would map the running accumulator onto itself. Pinned
        // with a property sweep over random slices and random
        // extension/truncation/mutation edits.
        crate::check::check_cases("fingerprint prefix extension", 128, |d| {
            let parts: Vec<u64> = (0..d.below(8)).map(|_| d.next_u64()).collect();
            let base = fingerprint(&parts);
            // Any single-word extension differs — including extending
            // by a word equal to the current fingerprint or to zero,
            // the two most plausible accidental fixed points.
            for ext in [d.next_u64(), base, 0] {
                let mut extended = parts.clone();
                extended.push(ext);
                assert_ne!(base, fingerprint(&extended), "{parts:?} + {ext}");
            }
            // Truncating differs (the empty list included).
            if !parts.is_empty() {
                assert_ne!(base, fingerprint(&parts[..parts.len() - 1]), "{parts:?}");
            }
            // Mutating any single element differs.
            for i in 0..parts.len() {
                let mut mutated = parts.clone();
                mutated[i] ^= 1 << d.below(64);
                assert_ne!(base, fingerprint(&mutated), "{parts:?} at {i}");
            }
        });
        // Length-only differences are distinguished too.
        assert_ne!(fingerprint(&[]), fingerprint(&[0]));
        assert_ne!(fingerprint(&[0]), fingerprint(&[0, 0]));
    }

    #[test]
    fn short_body_crc_valid_frame_is_rejected_not_panicking() {
        // Regression: a hand-crafted frame whose CRC is valid but whose
        // body is shorter than the 8 metadata bytes used to reach the
        // `expect("body holds >= 8 bytes")` unwraps. It must be treated
        // as a corrupt tail — zero frames, graceful rejection.
        let fp = 0xDEAD_BEEFu64;
        for body_len in [0usize, 1, 4, 7] {
            let mut bytes = encode_checkpoint(fp, &[]).expect("header fits");
            push_u32(&mut bytes, body_len as u32);
            let body: Vec<u8> = (0..body_len).map(|i| i as u8).collect();
            bytes.extend_from_slice(&body);
            push_u32(&mut bytes, crc32(&body)); // CRC genuinely valid
            let decoded = decode_checkpoint(&bytes, fp);
            assert!(decoded.frames.is_empty(), "body_len {body_len}");
            assert!(!decoded.clean, "body_len {body_len}");
            assert_eq!(decoded.valid_len, HEADER_LEN, "body_len {body_len}");
        }
        // A short-body frame poisons the tail: a well-formed frame
        // appended after it is never reached (prefix semantics), while
        // the same frame before it survives.
        let good = Frame {
            shard: 3,
            records: 1,
            payload: vec![0xAB],
        };
        let mut bytes = encode_checkpoint(fp, std::slice::from_ref(&good)).expect("fits");
        let prefix_len = bytes.len();
        push_u32(&mut bytes, 4);
        let body = 7u32.to_le_bytes();
        bytes.extend_from_slice(&body);
        push_u32(&mut bytes, crc32(&body));
        encode_frame(&good, &mut bytes).expect("fits");
        let decoded = decode_checkpoint(&bytes, fp);
        assert_eq!(decoded.frames, vec![good]);
        assert_eq!(decoded.valid_len, prefix_len);
        assert!(!decoded.clean);
    }

    #[test]
    fn oversized_payload_is_a_typed_error_not_a_truncation() {
        // The frame-size contract: payloads above MAX_FRAME_PAYLOAD are
        // rejected with OversizedFrame (formerly a silent `as u32`
        // truncation at the 4 GiB boundary). The guard is exercised
        // directly — materializing a >4 GiB payload in a test is not.
        assert_eq!(MAX_FRAME_PAYLOAD, u32::MAX as usize - 8);
        assert_eq!(check_frame_payload(0), Ok(()));
        assert_eq!(check_frame_payload(MAX_FRAME_PAYLOAD), Ok(()));
        let err = check_frame_payload(MAX_FRAME_PAYLOAD + 1).unwrap_err();
        assert_eq!(
            err,
            OversizedFrame {
                payload_len: MAX_FRAME_PAYLOAD + 1
            }
        );
        assert!(err.to_string().contains("frame-size limit"), "{err}");
        // In-range frames still round-trip through the fallible codec.
        let frame = Frame {
            shard: 1,
            records: 2,
            payload: vec![1, 2, 3],
        };
        let bytes = encode_checkpoint(9, std::slice::from_ref(&frame)).expect("fits");
        assert_eq!(decode_checkpoint(&bytes, 9).frames, vec![frame]);
    }

    #[test]
    fn crc32_known_vectors() {
        // The standard IEEE test vector plus the empty string.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn codec_roundtrips_arbitrary_frames() {
        crate::check::check_cases("checkpoint codec roundtrip", 64, |d| {
            let fp = d.next_u64();
            let frames: Vec<Frame> = (0..d.below(6))
                .map(|_| Frame {
                    shard: d.below(1000) as u32,
                    records: d.below(1000) as u32,
                    payload: (0..d.below(40)).map(|_| d.below(256) as u8).collect(),
                })
                .collect();
            let bytes = encode_checkpoint(fp, &frames).expect("frames fit");
            let decoded = decode_checkpoint(&bytes, fp);
            assert!(decoded.clean);
            assert_eq!(decoded.frames, frames);
            assert_eq!(decoded.valid_len, bytes.len());
            // A different fingerprint rejects the whole file.
            let foreign = decode_checkpoint(&bytes, fp ^ 1);
            assert!(foreign.frames.is_empty());
            assert_eq!(foreign.valid_len, 0);
        });
    }

    #[test]
    fn truncated_stream_yields_a_clean_prefix() {
        crate::check::check_cases("checkpoint truncation", 64, |d| {
            let fp = d.next_u64();
            let frames: Vec<Frame> = (0..1 + d.below(4))
                .map(|i| Frame {
                    shard: i as u32,
                    records: 1,
                    payload: (0..1 + d.below(20)).map(|_| d.below(256) as u8).collect(),
                })
                .collect();
            let bytes = encode_checkpoint(fp, &frames).expect("frames fit");
            let cut = d.below(bytes.len() + 1);
            let decoded = decode_checkpoint(&bytes[..cut], fp);
            // Whatever survives is an exact prefix of what was written.
            assert!(decoded.frames.len() <= frames.len());
            assert_eq!(decoded.frames[..], frames[..decoded.frames.len()]);
            // A cut is only "clean" when it lands exactly on a frame
            // boundary — the result then looks like a shorter checkpoint.
            let mut boundaries = vec![HEADER_LEN];
            for f in &frames {
                boundaries
                    .push(boundaries.last().expect("nonempty") + FRAME_OVERHEAD + f.payload.len());
            }
            assert_eq!(
                decoded.clean,
                cut >= HEADER_LEN && boundaries.contains(&cut)
            );
            assert!(decoded.valid_len <= cut);
        });
    }

    #[test]
    fn corrupted_byte_never_fabricates_a_frame() {
        crate::check::check_cases("checkpoint corruption", 64, |d| {
            let fp = d.next_u64();
            let frames: Vec<Frame> = (0..1 + d.below(4))
                .map(|i| Frame {
                    shard: i as u32,
                    records: 2,
                    payload: (0..4 + d.below(16)).map(|_| d.below(256) as u8).collect(),
                })
                .collect();
            let mut bytes = encode_checkpoint(fp, &frames).expect("frames fit");
            let at = d.below(bytes.len());
            let flip = 1u8 << d.below(8);
            bytes[at] ^= flip;
            let decoded = decode_checkpoint(&bytes, fp);
            // Every decoded frame must be one that was actually written,
            // in order — corruption may only shorten, never invent.
            assert!(decoded.frames.len() <= frames.len());
            assert_eq!(decoded.frames[..], frames[..decoded.frames.len()]);
            if at < HEADER_LEN {
                assert_eq!(decoded.valid_len, 0, "damaged header must reject all");
            }
        });
    }

    #[test]
    fn checkpoint_file_roundtrip_and_tail_truncation() {
        let path = temp_ck("roundtrip");
        let job = SeededJob;
        let shards = plan(20, 4);
        {
            let mut ck = Checkpoint::open(&path, 77).expect("open");
            assert!(ck.frames().is_empty());
            for shard in &shards[..3] {
                let records = job.run(shard);
                let mut payload = Vec::new();
                job.encode(shard, &records, &mut payload);
                ck.append(&Frame {
                    shard: shard.index as u32,
                    records: records.len() as u32,
                    payload,
                })
                .expect("append");
            }
        }
        // Corrupt the tail: damage the last byte.
        let mut bytes = fs::read(&path).expect("read");
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(&path, &bytes).expect("rewrite");
        let ck = Checkpoint::open(&path, 77).expect("reopen");
        assert_eq!(ck.frames().len(), 2, "corrupt tail frame dropped");
        assert_eq!(
            fs::metadata(&path).expect("meta").len() as usize,
            bytes.len() - (FRAME_OVERHEAD + 4 * 8),
            "file truncated back to the trusted prefix"
        );
        // A foreign fingerprint resets the file entirely.
        let ck = Checkpoint::open(&path, 78).expect("reopen foreign");
        assert!(ck.frames().is_empty());
        assert_eq!(
            fs::metadata(&path).expect("meta").len() as usize,
            HEADER_LEN
        );
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn run_shards_is_thread_count_invariant() {
        let shards = plan(57, 8);
        let job = SeededJob;
        let baseline = run_shards(1, &RetryPolicy::none(), None, &shards, &job);
        assert!(baseline.is_complete());
        assert_eq!(baseline.records.len(), 57);
        for threads in [2, 4, 7] {
            let r = run_shards(threads, &RetryPolicy::none(), None, &shards, &job);
            assert_eq!(r.records, baseline.records, "{threads} threads diverged");
        }
    }

    #[test]
    fn one_shot_panic_with_retry_recovers_byte_identically() {
        let shards = plan(40, 8);
        let ((), straight_metrics, _) = crate::obs::observe(|| {
            let straight = run_shards(2, &RetryPolicy::none(), None, &shards, &SeededJob);
            let once = Sabotage::once(2);
            let sab = Sabotaged {
                job: &SeededJob,
                sabotage: Some(&once),
            };
            let ((), retried_metrics, _) = crate::obs::observe(|| {
                let recovered = crate::check::quiet(|| {
                    run_shards(2, &RetryPolicy::retries(2), None, &shards, &sab)
                });
                assert!(recovered.is_complete(), "retry must recover the shard");
                assert_eq!(recovered.records, straight.records, "records drifted");
                assert_eq!(recovered.summary.retried, 1);
            });
            // The failed attempt's partial telemetry was discarded, so the
            // deterministic job counters match an untroubled run exactly.
            assert_eq!(
                retried_metrics.counter("job.shards"),
                Some(shards.len() as u64)
            );
            assert_eq!(retried_metrics.counter("job.items"), Some(40));
            assert_eq!(retried_metrics.counter("exec.shards.retried"), Some(1));
        });
        assert_eq!(
            straight_metrics.counter("job.shards"),
            Some(shards.len() as u64)
        );
    }

    #[test]
    fn exhausted_budget_degrades_to_a_manifest() {
        let shards = plan(30, 10);
        let always = Sabotage::times(1, u32::MAX);
        let sab = Sabotaged {
            job: &SeededJob,
            sabotage: Some(&always),
        };
        let report =
            crate::check::quiet(|| run_shards(2, &RetryPolicy::retries(2), None, &shards, &sab));
        assert!(!report.is_complete());
        assert_eq!(report.incomplete.len(), 1);
        let failure = &report.incomplete[0];
        assert_eq!(failure.shard, 1);
        assert_eq!((failure.start, failure.len), (10, 10));
        assert_eq!(failure.attempts, 3, "first try + two retries");
        assert!(failure.message.contains("sabotage"), "{}", failure.message);
        // Completed shards still delivered, in order.
        let straight = run_shards(1, &RetryPolicy::none(), None, &shards, &SeededJob);
        let expected: Vec<u64> = straight.records[..10]
            .iter()
            .chain(&straight.records[20..])
            .copied()
            .collect();
        assert_eq!(report.records, expected);
        assert_eq!(report.summary.completed, 2);
        assert_eq!(report.summary.failed, 1);
    }

    #[test]
    fn interrupted_run_resumes_byte_identically() {
        let shards = plan(48, 6);
        let straight = run_shards(3, &RetryPolicy::none(), None, &shards, &SeededJob);
        for threads in [1, 2, 4, 7] {
            let path = temp_ck(&format!("resume-{threads}"));
            let fp = fingerprint(&[48, 6, 33]);
            // Interrupted run: shard 5 dies with no retry budget.
            let once = Sabotage::once(5);
            let sab = Sabotaged {
                job: &SeededJob,
                sabotage: Some(&once),
            };
            let mut ck = Checkpoint::open(&path, fp).expect("open");
            let partial = crate::check::quiet(|| {
                run_shards(threads, &RetryPolicy::none(), Some(&mut ck), &shards, &sab)
            });
            assert!(!partial.is_complete());
            assert_eq!(partial.incomplete[0].shard, 5);
            drop(ck);
            // Resumed run: same fingerprint, fresh process simulation.
            let mut ck = Checkpoint::open(&path, fp).expect("reopen");
            assert_eq!(ck.frames().len(), shards.len() - 1);
            let resumed = run_shards(
                threads,
                &RetryPolicy::none(),
                Some(&mut ck),
                &shards,
                &SeededJob,
            );
            assert!(resumed.is_complete());
            assert_eq!(
                resumed.records, straight.records,
                "resume at {threads} threads not byte-identical"
            );
            assert_eq!(resumed.summary.resumed, shards.len() - 1);
            let _ = fs::remove_file(&path);
        }
    }

    /// Drives an [`Executor`] by hand, the way the job server does:
    /// several shards out with the driver at once, landed in a seeded
    /// random order, retries queued behind the rest.
    fn drive_by_hand<J: ShardJob>(
        plan: &[Shard],
        retry: &RetryPolicy,
        mut ck: Option<&mut Checkpoint>,
        job: &J,
        seed: u64,
    ) -> ExecReport<J::Record> {
        let mut exec = Executor::new(plan.to_vec(), retry.clone());
        if let Some(ck) = ck.as_deref() {
            exec.resume(ck.frames(), |shard, payload| job.decode(shard, payload));
        }
        let mut rng = Rng::seed_from_u64(seed);
        let mut out: Vec<Shard> = Vec::new();
        while !exec.is_finished() {
            if out.is_empty() || rng.below(2) == 0 {
                if let Some(shard) = exec.next_shard() {
                    out.push(shard);
                    continue;
                }
            }
            let shard = out.swap_remove(rng.below(out.len()));
            match crate::obs::quarantine(|| job.run(&shard)) {
                Ok(records) => {
                    if let Some(ck) = ck.as_deref_mut() {
                        persist(ck, job, &shard, &records);
                    }
                    exec.complete(shard.index, records);
                }
                Err(message) => {
                    exec.fail(shard.index, message);
                }
            }
        }
        exec.into_report()
    }

    #[test]
    fn hand_driven_executor_matches_run_shards() {
        // 11 shards. Shard 3 panics twice and recovers on its last
        // retry; shard 7 never recovers.
        let shards = plan(61, 6);
        let retry = RetryPolicy::retries(2);
        let fp = fingerprint(&[61, 6, 17]);
        let run = |threads: Option<usize>, ck: Option<&mut Checkpoint>| {
            let (recovers, dies) = (Sabotage::times(3, 2), Sabotage::times(7, u32::MAX));
            let inner = Sabotaged {
                job: &SeededJob,
                sabotage: Some(&recovers),
            };
            let job = Sabotaged {
                job: &inner,
                sabotage: Some(&dies),
            };
            crate::check::quiet(|| match threads {
                Some(t) => run_shards(t, &retry, ck, &shards, &job),
                None => drive_by_hand(&shards, &retry, ck, &job, 0x5EED),
            })
        };
        // The checkpoint holds the even shards, a frame whose record
        // count is wrong (never trusted) and a duplicate.
        let seeded = temp_ck("hand-seed");
        {
            let mut ck = Checkpoint::open(&seeded, fp).expect("open");
            for shard in shards.iter().filter(|s| s.index % 2 == 0) {
                persist(&mut ck, &SeededJob, shard, &SeededJob.run(shard));
            }
            let mut payload = Vec::new();
            SeededJob.encode(&shards[1], &SeededJob.run(&shards[1]), &mut payload);
            let lying = Frame {
                shard: 1,
                records: shards[1].len as u32 + 1,
                payload,
            };
            ck.append(&lying).expect("append");
            persist(&mut ck, &SeededJob, &shards[0], &SeededJob.run(&shards[0]));
        }
        for with_ck in [false, true] {
            let mut by_hand_ck = None;
            if with_ck {
                let path = temp_ck("hand");
                fs::copy(&seeded, &path).expect("copy");
                by_hand_ck = Some((Checkpoint::open(&path, fp).expect("open"), path));
            }
            let by_hand = run(None, by_hand_ck.as_mut().map(|(ck, _)| ck));
            assert_eq!(by_hand.incomplete.len(), 1);
            assert_eq!(by_hand.incomplete[0].shard, 7);
            assert_eq!(
                by_hand.summary.retried, 4,
                "two for shard 3, two for shard 7"
            );
            assert_eq!(by_hand.summary.resumed, if with_ck { 6 } else { 0 });
            for threads in [1, 2, 4, 7] {
                let mut ck = None;
                if with_ck {
                    let path = temp_ck("waves");
                    fs::copy(&seeded, &path).expect("copy");
                    ck = Some((Checkpoint::open(&path, fp).expect("open"), path));
                }
                let waves = run(Some(threads), ck.as_mut().map(|(ck, _)| ck));
                assert_eq!(by_hand, waves, "{threads} threads, checkpoint {with_ck}");
                if let Some((_, path)) = ck {
                    let _ = fs::remove_file(path);
                }
            }
            if let Some((_, path)) = by_hand_ck {
                let _ = fs::remove_file(path);
            }
        }
        let _ = fs::remove_file(&seeded);
    }

    #[test]
    fn retry_budget_is_per_shard() {
        fn go<J: ShardJob<Record = u64>>(
            by_hand: bool,
            shards: &[Shard],
            job: &J,
        ) -> ExecReport<u64> {
            let retry = RetryPolicy::retries(1);
            crate::check::quiet(|| {
                if by_hand {
                    drive_by_hand(shards, &retry, None, job, 9)
                } else {
                    run_shards(2, &retry, None, shards, job)
                }
            })
        }
        let shards = plan(40, 8);
        let straight = run_shards(1, &RetryPolicy::none(), None, &shards, &SeededJob);
        for by_hand in [false, true] {
            // Shards 0 and 1 panic once each: one retry per shard
            // recovers both.
            let (first, second) = (Sabotage::once(0), Sabotage::once(1));
            let inner = Sabotaged {
                job: &SeededJob,
                sabotage: Some(&first),
            };
            let job = Sabotaged {
                job: &inner,
                sabotage: Some(&second),
            };
            let report = go(by_hand, &shards, &job);
            assert!(report.is_complete(), "by hand: {by_hand}");
            assert_eq!(report.summary.retried, 2);
            assert_eq!(report.records, straight.records);
            // A shard that panics twice spends its one retry and fails.
            let twice = Sabotage::times(2, 2);
            let job = Sabotaged {
                job: &SeededJob,
                sabotage: Some(&twice),
            };
            let report = go(by_hand, &shards, &job);
            assert_eq!(report.incomplete.len(), 1, "by hand: {by_hand}");
            assert_eq!(report.incomplete[0].shard, 2);
            assert_eq!(report.incomplete[0].attempts, 2);
            assert_eq!(report.summary.completed, shards.len() - 1);
        }
    }

    #[test]
    fn sabotage_is_seeded_and_bounded() {
        let s = Sabotage::seeded(123, 7, 2);
        assert!(s.target() < 7);
        assert_eq!(s.target(), Sabotage::seeded(123, 7, 2).target());
        let armed = Sabotage::times(3, 2);
        for _ in 0..2 {
            let caught = std::panic::catch_unwind(|| armed.trip(3));
            assert!(caught.is_err(), "armed sabotage must fire");
        }
        armed.trip(3); // charges spent: no panic
        armed.trip(0); // wrong shard: never fires
    }
}
