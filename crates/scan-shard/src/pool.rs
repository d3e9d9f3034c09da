//! Shard supervisors: one long-lived thread per shard, each owning a
//! private `scan-core` worker pool.
//!
//! A shard is deliberately structured like a remote executor even
//! though it lives in-process: the only way in is a job message over a
//! channel, the only way out is a reply message over the job's own
//! reply channel, and the supervisor may die at any point (chaos
//! `ShardKill` simulates a hard crash by exiting the loop without
//! replying). The executor therefore never shares mutable state with a
//! shard — loss detection is purely observational (reply, timeout, or
//! closed channel), which is exactly the discipline a multi-process
//! transport would force later.
//!
//! This file is the crate's one sanctioned thread-spawn site (see the
//! `xtask` `no-raw-spawn` lint): shard supervisors are long-lived,
//! individually killable, and must *not* be joined while a job is in
//! flight — a watchdog-lost shard may still be running — so scoped
//! threads are the wrong tool.

use std::ops::Range;
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread;

use scan_core::pool::WorkerPool;
use scan_core::{ExecError, ScanDeadline};
use scan_fault::ChaosEvent;

use crate::combine::{load_pair, pair_combine};
use crate::executor::ScanKind;

/// Lock a mutex, ignoring poisoning (the partial/output slots hold
/// plain data; a poisoned lock still guards a consistent value).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Which half of the two-round sharded scan a job runs.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Phase {
    /// Fold the range to the shard's pair total.
    Reduce,
    /// Produce the exclusive scan of the range seeded with `carry`.
    Scan {
        /// Pair carry: combination of everything before the range.
        carry: (u64, bool),
    },
}

/// What a successful job returns.
#[derive(Debug)]
pub(crate) enum Output {
    /// Reduce round: the range's pair total.
    Total((u64, bool)),
    /// Scan round: the exclusive scan of the range — a range-length
    /// piece, or the job's [`Job::out`] buffer with the range written
    /// in place.
    Scanned(Vec<u64>),
}

/// A job's reply, sent on the job's own channel. The executor knows
/// which shard a reply channel belongs to, so the reply carries only
/// the result.
#[derive(Debug)]
pub(crate) struct Reply {
    pub result: Result<Output, ExecError>,
}

/// One unit of work for a shard.
pub(crate) struct Job {
    pub kind: ScanKind,
    pub data: Arc<Vec<u64>>,
    pub heads: Option<Arc<Vec<bool>>>,
    pub range: Range<usize>,
    pub phase: Phase,
    /// The run's full-length output, sent with slot 0's first scan job
    /// only. The shard scans its range into it in place and replies
    /// with the same buffer; every other job replies with a piece.
    pub out: Option<Vec<u64>>,
    /// Chaos event scheduled for this job (`None` when quiet).
    pub inject: ChaosEvent,
    pub deadline: Option<ScanDeadline>,
    pub reply: Sender<Reply>,
}

/// Handle to one shard supervisor thread.
pub(crate) struct Shard {
    tx: Option<Sender<Job>>,
    handle: Option<thread::JoinHandle<()>>,
}

impl Shard {
    /// Spawn shard `index` with a private pool of `threads` lanes. A
    /// failed OS spawn yields a permanently-dead shard rather than an
    /// error — the executor treats it like any other disconnected
    /// shard.
    pub fn spawn(index: usize, threads: usize) -> Shard {
        let (tx, rx) = mpsc::channel::<Job>();
        let handle = thread::Builder::new()
            .name(format!("scan-shard-{index}"))
            .spawn(move || shard_loop(threads, rx));
        match handle {
            Ok(h) => Shard {
                tx: Some(tx),
                handle: Some(h),
            },
            Err(_) => Shard {
                tx: None,
                handle: None,
            },
        }
    }

    /// Whether the job channel is still open from our side. (The
    /// thread may additionally have died; that is discovered on send.)
    pub fn alive(&self) -> bool {
        self.tx.is_some()
    }

    /// Send a job; `false` means the shard is gone. A `false` return
    /// also retires the channel so later callers see `alive() ==
    /// false` without retrying.
    pub fn send(&mut self, job: Job) -> bool {
        match &self.tx {
            Some(tx) => {
                if tx.send(job).is_ok() {
                    true
                } else {
                    self.tx = None;
                    false
                }
            }
            None => false,
        }
    }

    /// Retire the shard: drop the sender so the supervisor drains and
    /// exits. Joining is deferred to `Drop`.
    pub fn kill(&mut self) {
        self.tx = None;
    }
}

impl Drop for Shard {
    fn drop(&mut self) {
        // Close the channel first, or the join would wait forever.
        self.tx = None;
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// Supervisor body: serve jobs until the channel closes or a chaos
/// kill takes the shard down.
fn shard_loop(threads: usize, rx: Receiver<Job>) {
    let pool = WorkerPool::new(threads);
    for mut job in rx {
        match job.inject {
            // Hard crash: exit without replying. The job's reply
            // channel closes, which is how the executor learns.
            ChaosEvent::ShardKill => return,
            ChaosEvent::Delay(d) => thread::sleep(d),
            ChaosEvent::Panic => {
                // A task panic inside the shard's own pool: contained
                // there, reported as a typed WorkerLost.
                let err = pool
                    .try_run(1, None, |_| panic!("chaos: injected shard task panic"))
                    .err()
                    .unwrap_or(ExecError::WorkerLost { panics: 1 });
                let _ = job.reply.send(Reply { result: Err(err) });
                continue;
            }
            _ => {}
        }
        let lie = matches!(job.inject, ChaosEvent::CarryCorrupt | ChaosEvent::Lie);
        let result = execute(&pool, &mut job).map(|out| if lie { corrupt(out) } else { out });
        let _ = job.reply.send(Reply { result });
    }
}

/// Flip one bit of the result — a lying shard. The corruption is
/// minimal on purpose: the O(n) verifier must catch even a single
/// flipped bit in a carry or an output element. (A returned buffer's
/// first element is its range's first too: only slot 0 gets one.)
fn corrupt(out: Output) -> Output {
    match out {
        Output::Total((v, f)) => Output::Total((v ^ 1, f)),
        Output::Scanned(mut v) => {
            if let Some(x) = v.first_mut() {
                *x ^= 1;
            }
            Output::Scanned(v)
        }
    }
}

/// Run one job on the shard's pool.
fn execute(pool: &WorkerPool, job: &mut Job) -> Result<Output, ExecError> {
    let kind = job.kind;
    let data = &job.data[..];
    let heads = job.heads.as_deref().map(Vec::as_slice);
    let deadline = job.deadline.as_ref();
    let range = job.range.clone();
    match job.phase {
        Phase::Reduce => {
            blocked_reduce(pool, kind, data, heads, range, deadline).map(Output::Total)
        }
        Phase::Scan { carry } => {
            // Into the run's buffer when one came with the job, else
            // into a fresh piece.
            let (mut out, at) = match job.out.take() {
                Some(buf) if buf.len() >= range.end => (buf, range.clone()),
                _ => (vec![0; range.len()], 0..range.len()),
            };
            blocked_scan(
                pool,
                kind,
                data,
                heads,
                range,
                carry,
                &mut out[at],
                deadline,
            )?;
            Ok(Output::Scanned(out))
        }
    }
}

/// Split `len` elements into at most `pool.threads()` equal blocks;
/// returns `(block_len, block_count)` with `block_count * block_len >=
/// len` and every block non-empty.
fn blocking(pool: &WorkerPool, len: usize) -> (usize, usize) {
    let lanes = pool.threads().min(len).max(1);
    let block = len.div_ceil(lanes);
    (block, len.div_ceil(block))
}

/// Pair fold of the range, blocked across the shard's pool.
fn blocked_reduce(
    pool: &WorkerPool,
    kind: ScanKind,
    data: &[u64],
    heads: Option<&[bool]>,
    range: Range<usize>,
    deadline: Option<&ScanDeadline>,
) -> Result<(u64, bool), ExecError> {
    let id = (kind.identity(), false);
    let len = range.len();
    if len == 0 {
        return Ok(id);
    }
    let (block, nb) = blocking(pool, len);
    let partials: Vec<Mutex<(u64, bool)>> = (0..nb).map(|_| Mutex::new(id)).collect();
    pool.try_run(nb, deadline, |j| {
        let lo = range.start + j * block;
        let hi = (lo + block).min(range.end);
        let mut acc = id;
        for g in lo..hi {
            acc = pair_combine(kind, acc, load_pair(data, heads, g));
        }
        *lock(&partials[j]) = acc;
    })?;
    let mut total = id;
    for p in &partials {
        total = pair_combine(kind, total, *lock(p));
    }
    Ok(total)
}

/// Exclusive scan of the range seeded with `carry` into `out` (one
/// slot per element of the range), blocked two-pass across the shard's
/// pool: block totals, an exclusive pass over them, then per-block
/// emission. A segment head emits the identity; any other element
/// emits the pair state accumulated before it.
#[allow(clippy::too_many_arguments)]
fn blocked_scan(
    pool: &WorkerPool,
    kind: ScanKind,
    data: &[u64],
    heads: Option<&[bool]>,
    range: Range<usize>,
    carry: (u64, bool),
    out: &mut [u64],
    deadline: Option<&ScanDeadline>,
) -> Result<(), ExecError> {
    let len = range.len();
    if len == 0 {
        return Ok(());
    }
    let id = (kind.identity(), false);
    let (block, nb) = blocking(pool, len);
    // Pass 1: pair totals of every block but the last, whose total no
    // carry needs. A one-lane shard has one block and skips the pass:
    // its carry is the shard's.
    let partials: Vec<Mutex<(u64, bool)>> = (0..nb - 1).map(|_| Mutex::new(id)).collect();
    pool.try_run(nb - 1, deadline, |j| {
        let lo = range.start + j * block;
        let hi = (lo + block).min(range.end);
        let mut acc = id;
        for g in lo..hi {
            acc = pair_combine(kind, acc, load_pair(data, heads, g));
        }
        *lock(&partials[j]) = acc;
    })?;
    // Exclusive pass over block totals, seeded with the shard carry.
    let mut carries = Vec::with_capacity(nb);
    let mut state = carry;
    carries.push(state);
    for p in &partials {
        state = pair_combine(kind, state, *lock(p));
        carries.push(state);
    }
    // Pass 2: emit each block from its carry.
    let chunks: Vec<Mutex<&mut [u64]>> = out.chunks_mut(block).map(Mutex::new).collect();
    pool.try_run(nb, deadline, |j| {
        let lo = range.start + j * block;
        let hi = (lo + block).min(range.end);
        let mut state = carries[j];
        let mut chunk = lock(&chunks[j]);
        for (k, g) in (lo..hi).enumerate() {
            let e = load_pair(data, heads, g);
            chunk[k] = if e.1 { kind.identity() } else { state.0 };
            state = pair_combine(kind, state, e);
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use scan_core::{Max, Sum};

    fn roundtrip(kind: ScanKind, data: &[u64], heads: Option<&[bool]>) -> Vec<u64> {
        let pool = WorkerPool::new(2);
        let range = 0..data.len();
        let total = blocked_reduce(&pool, kind, data, heads, range.clone(), None).unwrap();
        // Whole input in one shard: carry is the identity pair, and the
        // reduce total must equal the inclusive fold.
        let mut acc = (kind.identity(), false);
        for g in 0..data.len() {
            acc = pair_combine(kind, acc, load_pair(data, heads, g));
        }
        assert_eq!(total, acc);
        let mut out = vec![0; data.len()];
        let carry = (kind.identity(), false);
        blocked_scan(&pool, kind, data, heads, range, carry, &mut out, None).unwrap();
        out
    }

    #[test]
    fn flat_kernels_match_scan_core() {
        let data: Vec<u64> = (0..257).map(|i| (i * 7 + 3) % 101).collect();
        assert_eq!(
            roundtrip(ScanKind::Sum, &data, None),
            scan_core::scan::<Sum, _>(&data)
        );
        assert_eq!(
            roundtrip(ScanKind::Max, &data, None),
            scan_core::scan::<Max, _>(&data)
        );
    }

    #[test]
    fn segmented_kernels_match_scan_core() {
        let data: Vec<u64> = (0..100).map(|i| i * 3 + 1).collect();
        let heads: Vec<bool> = (0..100).map(|i| i % 7 == 0).collect();
        let segs = scan_core::Segments::from_flags(heads.clone());
        assert_eq!(
            roundtrip(ScanKind::Sum, &data, Some(&heads)),
            scan_core::seg_scan::<Sum, u64>(&data, &segs)
        );
        assert_eq!(
            roundtrip(ScanKind::Max, &data, Some(&heads)),
            scan_core::seg_scan::<Max, u64>(&data, &segs)
        );
    }

    #[test]
    fn scan_with_carry_continues_a_prefix() {
        // Split [0, 200) into two ranges; the second seeded with the
        // first's total must reproduce the tail of the full scan.
        let data: Vec<u64> = (0..200).map(|i| i + 1).collect();
        let pool = WorkerPool::new(1);
        let full = scan_core::scan::<Sum, _>(&data);
        let t0 = blocked_reduce(&pool, ScanKind::Sum, &data, None, 0..120, None).unwrap();
        let mut tail = vec![0; 80];
        blocked_scan(
            &pool,
            ScanKind::Sum,
            &data,
            None,
            120..200,
            t0,
            &mut tail,
            None,
        )
        .unwrap();
        assert_eq!(tail[..], full[120..]);
    }

    #[test]
    fn scan_job_fills_its_range_of_a_sent_buffer() {
        use std::sync::mpsc;
        use std::sync::Arc;

        let mut shard = Shard::spawn(0, 2);
        let data = Arc::new((1u64..=300).collect::<Vec<_>>());
        let full = scan_core::scan::<Sum, _>(&data);
        let scan = |shard: &mut Shard, out: Option<Vec<u64>>, inject| {
            let (tx, rx) = mpsc::channel();
            assert!(shard.send(Job {
                kind: ScanKind::Sum,
                data: Arc::clone(&data),
                heads: None,
                range: 0..100,
                phase: Phase::Scan { carry: (0, false) },
                out,
                inject,
                deadline: None,
                reply: tx,
            }));
            match rx.recv().unwrap().result {
                Ok(Output::Scanned(v)) => v,
                other => panic!("expected a scan, got {other:?}"),
            }
        };

        // The buffer comes back whole, written only in the job's range.
        let got = scan(&mut shard, Some(vec![7; 300]), ChaosEvent::None);
        assert_eq!(got[..100], full[..100]);
        assert!(got[100..].iter().all(|&x| x == 7));
        // A lie flips the range's first element, as it does a piece's.
        let got = scan(&mut shard, Some(vec![7; 300]), ChaosEvent::CarryCorrupt);
        assert_eq!(got[0], full[0] ^ 1);
        // Without a buffer (or with one too short for the range) the
        // reply is a range-length piece.
        assert_eq!(scan(&mut shard, None, ChaosEvent::None), full[..100]);
        assert_eq!(
            scan(&mut shard, Some(vec![7; 50]), ChaosEvent::None),
            full[..100]
        );
    }

    #[test]
    fn injected_panic_is_contained_and_shard_survives() {
        use std::sync::mpsc;
        use std::sync::Arc;

        let mut shard = Shard::spawn(0, 1);
        let data = Arc::new((1u64..=50).collect::<Vec<_>>());

        let send = |shard: &mut Shard, inject| {
            let (tx, rx) = mpsc::channel();
            assert!(shard.send(Job {
                kind: ScanKind::Sum,
                data: Arc::clone(&data),
                heads: None,
                range: 0..data.len(),
                phase: Phase::Reduce,
                out: None,
                inject,
                deadline: None,
                reply: tx,
            }));
            rx
        };

        // The panic is contained inside the shard's own pool and
        // reported as a typed worker loss...
        let rx = send(&mut shard, ChaosEvent::Panic);
        let reply = rx.recv().unwrap();
        assert!(matches!(
            reply.result,
            Err(ExecError::WorkerLost { .. })
        ));

        // ...and the shard keeps serving afterwards.
        let rx = send(&mut shard, ChaosEvent::None);
        let reply = rx.recv().unwrap();
        match reply.result {
            Ok(Output::Total(t)) => assert_eq!(t, (50 * 51 / 2, false)),
            other => panic!("expected a clean total, got {other:?}"),
        }
        assert!(shard.alive());
    }
}
