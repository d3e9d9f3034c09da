//! Fused multi-way split: one-pass histogram / rank / scatter.
//!
//! The paper's `split` (§2.2.1) routes elements into 2 buckets with two
//! enumerate-scans; the Connection Machine refinement splits into `2^w`
//! buckets by running one enumerate per bucket — `2^w` full scans and
//! `O(2^w · n)` traffic per radix pass. This module fuses the whole
//! pass into three sweeps of total work `O(n + blocks · 2^w)`:
//!
//! 1. **Histogram** — one read of the input. Each block computes a
//!    private bucket histogram and caches every element's bucket id in
//!    a `u16` digit buffer (so the scatter never re-evaluates the key
//!    function, which keeps the disjoint-write argument independent of
//!    the key closure's determinism).
//! 2. **One exclusive `+`-scan** over the `blocks × 2^w` count matrix,
//!    stored **column-major** (`mat[k * nblocks + b]` = count of bucket
//!    `k` in block `b`). Scanning the flat matrix in memory order walks
//!    bucket-major: after the scan, `mat[k * nblocks + b]` is exactly
//!    the output position of block `b`'s first element of bucket `k`,
//!    and the column heads `mat[k * nblocks]` are the bucket bases —
//!    both fall out of a single scan.
//! 3. **Scatter** — one write pass. Each block loads its cursor row
//!    from the scanned matrix and streams elements to their final
//!    positions through a per-block cursor array.
//!
//! The result is stable: within a block, source order is preserved by
//! the monotone cursors; across blocks, by the block-major order of the
//! matrix columns. The inner loops are chunked (deadline checkpoints at
//! [`CANCEL_STRIDE`][crate::parallel] boundaries on the `try_*` path)
//! and branch-light so the compiler can keep them in registers.
//!
//! The same three passes carry the §2.2 operations `pack`, `split` and
//! `split3` ([`crate::ops`]): a split into a fixed 2 or 3 buckets keyed
//! by a flag or [`Bucket`](crate::ops::Bucket) slice, with `pack`
//! writing only its kept bucket. They share the block plan, count
//! matrix, scan and cursor rows (`Partition`) and bring their own
//! per-chunk loops.

use crate::deadline::{self, ScanDeadline};
use crate::element::ScanElem;
use crate::error::{Error, Result};
use crate::parallel::{
    block_range, check, default_schedule, engine_width, go_parallel, plan_blocks, run_blocks,
    scan_span, try_run_blocks, Mode, Schedule, SendPtr, CANCEL_STRIDE,
};
use crate::sync::MinCell;
use core::ops::Range;

/// Maximum bucket count a single `multi_split` accepts (the digit
/// cache is `u16`, so bucket ids must fit 16 bits).
pub const MAX_BUCKETS: usize = 1 << 16;

/// Reusable scratch for [`multi_split_into`]: the per-element digit
/// cache and the `blocks × buckets` count matrix. Hoisting the scratch
/// across the passes of a radix sort removes all per-pass allocation
/// beyond the ping-pong buffers themselves.
#[derive(Debug, Default)]
pub struct MultiSplitScratch {
    digits: Vec<u16>,
    counts: Vec<usize>,
}

impl MultiSplitScratch {
    /// Empty scratch; the buffers grow on first use and are reused.
    pub fn new() -> Self {
        Self::default()
    }
}

/// The blocked count → scan → scatter skeleton shared by the fused
/// multi-way split and the §2.2 compaction kernels ([`compact`],
/// [`pack_by`]). It owns the block plan and the column-major
/// `blocks × buckets` count matrix; each caller owns its per-element
/// loops, which the phases hand one chunk of one block at a time
/// together with that block's counter row. When `fallible` is false,
/// `d` is `None` and panics propagate.
struct Partition<'a> {
    sched: Schedule,
    n: usize,
    nblocks: usize,
    nbuckets: usize,
    mat: &'a mut Vec<usize>,
    d: Option<&'a ScanDeadline>,
    fallible: bool,
}

impl<'a> Partition<'a> {
    /// Plan the blocks for `n` elements and zero the count matrix.
    fn new(
        sched: Schedule,
        n: usize,
        nbuckets: usize,
        mat: &'a mut Vec<usize>,
        d: Option<&'a ScanDeadline>,
        fallible: bool,
    ) -> Self {
        let nblocks = if go_parallel(sched, n) {
            plan_blocks(n, engine_width(sched))
        } else {
            1
        };
        // A single block needs no cross-thread handoff under any schedule.
        let sched = if nblocks == 1 {
            Schedule::Sequential
        } else {
            sched
        };
        mat.clear();
        mat.resize(nblocks * nbuckets, 0);
        Partition {
            sched,
            n,
            nblocks,
            nbuckets,
            mat,
            d,
            fallible,
        }
    }

    /// Run `task` on every block; the fallible form contains panics
    /// and ends with the authoritative deadline check.
    fn run<F: Fn(usize) + Sync>(&self, task: F) -> Result<()> {
        if self.fallible {
            try_run_blocks(self.sched, self.nblocks, self.d, task)?;
            check(self.d)?;
        } else {
            run_blocks(self.sched, self.nblocks, task);
        }
        Ok(())
    }

    /// Feed `body` the [`CANCEL_STRIDE`] chunks of block `b` in order.
    /// The fallible path stops at the first failed deadline check (a
    /// bail latch; the check after the phase is authoritative).
    fn chunks(&self, b: usize, mut body: impl FnMut(Range<usize>)) {
        let r = block_range(self.n, self.nblocks, b);
        let mut lo = r.start;
        while lo < r.end {
            let hi = (lo + CANCEL_STRIDE).min(r.end);
            body(lo..hi);
            lo = hi;
            if self.fallible && check(self.d).is_err() {
                break;
            }
        }
    }

    /// Phase 1: `count(chunk, row)` adds the chunk's bucket counts to
    /// its block's private histogram, which then lands in the matrix
    /// column-major: slot `(k, b)` = block `b`'s count of bucket `k`.
    fn count<C>(&mut self, count: C) -> Result<()>
    where
        C: Fn(Range<usize>, &mut [usize]) + Sync,
    {
        let (nblocks, nbuckets) = (self.nblocks, self.nbuckets);
        let cnt = SendPtr::new(self.mat.as_mut_ptr());
        self.run(|b| {
            let mut local = vec![0usize; nbuckets];
            self.chunks(b, |r| count(r, &mut local));
            let cnt = cnt.get();
            for (k, &c) in local.iter().enumerate() {
                // SAFETY: column-major slot (k, b) is written only by block b.
                unsafe { cnt.add(k * nblocks + b).write(c) };
            }
        })
    }

    /// Phase 2: ONE exclusive +-scan over the flat column-major matrix.
    /// Memory order is bucket-major then block-major, so the scanned
    /// slot (k, b) is the stable output offset for that (bucket, block)
    /// pair, and column heads are the bucket bases. Returns the
    /// per-bucket totals.
    fn offsets(&mut self) -> Vec<usize> {
        let m = self.mat.len();
        let ptr = SendPtr::new(self.mat.as_mut_ptr());
        // In place through `scan_span` so the count matrix rides the same
        // `usize` sum tile as the scans: each tile's loads complete before
        // its writes, and tiles never revisit an index, so reading through
        // the write pointer is sound.
        // SAFETY: single-threaded pass; `scan_span` loads every index
        // before writing it (per tile), and indices are visited once.
        let load = |i: usize| unsafe { *ptr.get().add(i) };
        // SAFETY: as above — `i` was already loaded when this runs.
        let mut write = |i: usize, s: usize| unsafe { ptr.get().add(i).write(s) };
        let acc = scan_span(
            0..m,
            &load,
            0usize,
            &|a: usize, b: usize| a.wrapping_add(b),
            Mode::ExclusiveFwd,
            <crate::op::Sum as crate::op::ScanOp<usize>>::simd_tile(),
            &mut write,
        );
        debug_assert_eq!(acc, self.n, "histogram must cover the input exactly");
        let head = |k: usize| {
            if k < self.nbuckets {
                self.mat[k * self.nblocks]
            } else {
                acc
            }
        };
        (0..self.nbuckets).map(|k| head(k + 1) - head(k)).collect()
    }

    /// Phase 3: `scatter(b, chunk, cursors)` moves each element of
    /// block `b`'s chunk to its bucket's cursor and advances it. Block
    /// `b`'s cursors start at its row of the scanned matrix, so the
    /// cursor ranges `start(k, b)..end(k, b)` of all blocks partition
    /// the output exactly.
    fn scatter<S>(&self, scatter: S) -> Result<()>
    where
        S: Fn(usize, Range<usize>, &mut [usize]) + Sync,
    {
        self.run(|b| {
            let mut cur: Vec<usize> = (0..self.nbuckets)
                .map(|k| self.mat[k * self.nblocks + b])
                .collect();
            self.chunks(b, |r| scatter(b, r, &mut cur));
        })
    }

    /// One past block `b`'s last output position for bucket `k` (after
    /// [`offsets`](Self::offsets)): the next slot in matrix memory
    /// order starts there.
    fn end(&self, k: usize, b: usize) -> usize {
        let next = self.mat.get(k * self.nblocks + b + 1);
        next.copied().unwrap_or(self.n)
    }
}

/// Shared fused implementation. When `fallible` is false, the only
/// reachable error is a precondition violation (length mismatch /
/// out-of-range bucket).
#[allow(clippy::too_many_arguments)]
fn multi_split_core<T, K>(
    sched: Schedule,
    src: &[T],
    dst: &mut [T],
    nbuckets: usize,
    key: &K,
    scratch: &mut MultiSplitScratch,
    d: Option<&ScanDeadline>,
    fallible: bool,
) -> Result<Vec<usize>>
where
    T: ScanElem,
    K: Fn(T) -> usize + Sync,
{
    assert!(nbuckets >= 1, "multi_split: need at least one bucket");
    assert!(
        nbuckets <= MAX_BUCKETS,
        "multi_split: {nbuckets} buckets exceeds MAX_BUCKETS ({MAX_BUCKETS})"
    );
    let n = src.len();
    if dst.len() != n {
        return Err(Error::LengthMismatch {
            expected: n,
            actual: dst.len(),
        });
    }
    if n == 0 {
        return Ok(vec![0; nbuckets]);
    }
    scratch.digits.clear();
    scratch.digits.resize(n, 0);
    let mut part = Partition::new(sched, n, nbuckets, &mut scratch.counts, d, fallible);

    // Phase 1: histograms + digit cache, one read of `src`.
    // First out-of-range bucket id seen by any block (MAX = none).
    let oob = MinCell::new(usize::MAX);
    let dig = SendPtr::new(scratch.digits.as_mut_ptr());
    part.count(|r, local| {
        let dig = dig.get();
        for (i, &x) in r.clone().zip(&src[r]) {
            let k = key(x);
            if k >= nbuckets {
                oob.lower(k);
                return;
            }
            local[k] += 1;
            // SAFETY: `i` is in this block's disjoint range.
            unsafe { dig.add(i).write(k as u16) };
        }
    })?;
    let bad = oob.get();
    if bad != usize::MAX {
        if !fallible {
            // xtask-allow: panic-reachability dead on try_ entries: fallible calls take the Err return below, only the infallible wrappers reach this documented panic
            panic!("multi_split: key mapped to bucket {bad}, but only {nbuckets} buckets exist");
        }
        return Err(Error::IndexOutOfBounds {
            index: bad,
            len: nbuckets,
        });
    }

    let counts = part.offsets();

    // Phase 3: scatter, one write pass over `dst`. The cached digits
    // keep the disjoint-write argument independent of the key
    // closure's determinism.
    let out = SendPtr::new(dst.as_mut_ptr());
    let digits = &scratch.digits;
    part.scatter(|_, r, cur| {
        let out = out.get();
        for (&k, &x) in digits[r.clone()].iter().zip(&src[r]) {
            let k = k as usize;
            let p = cur[k];
            cur[k] = p + 1;
            // SAFETY: positions are an exact partition of 0..n — block
            // b's bucket-k cursor starts at the scanned matrix slot
            // (k, b) and advances once per cached digit, so no two
            // writes (in any block) collide.
            unsafe { out.add(p).write(x) };
        }
    })?;
    Ok(counts)
}

/// A key with a fixed number `B` of buckets, for the compaction
/// kernels. The bucket is a pure function of the `Copy` key, so the
/// count and scatter passes see the same bucket for every index,
/// which the scatter's disjoint-write argument rests on.
pub(crate) trait BucketKey<const B: usize>: Copy + Sync {
    /// The bucket, in `0..B`.
    fn bucket(self) -> usize;
}

impl BucketKey<2> for bool {
    #[inline(always)]
    fn bucket(self) -> usize {
        usize::from(self)
    }
}

impl BucketKey<3> for crate::ops::Bucket {
    #[inline(always)]
    fn bucket(self) -> usize {
        self as usize
    }
}

/// Phase 1 and 2 of the compaction kernel: plan `keys` into blocks,
/// count each block's buckets (one-hot, in registers), and scan the
/// counts. Returns the partition and every bucket's total.
fn count_keys<'a, K, const B: usize>(
    keys: &[K],
    mat: &'a mut Vec<usize>,
) -> (Partition<'a>, [usize; B])
where
    K: BucketKey<B>,
{
    let mut part = Partition::new(default_schedule(), keys.len(), B, mat, None, false);
    let counted = part.count(|r, row| {
        // A chunk is at most `CANCEL_STRIDE` long, so `u32` counters
        // cannot overflow, and they vectorize twice as wide.
        let mut c = [0u32; B];
        for &key in &keys[r] {
            let k = key.bucket();
            for (j, cj) in c.iter_mut().enumerate() {
                *cj += u32::from(k == j);
            }
        }
        for (rj, cj) in row.iter_mut().zip(c) {
            *rj += cj as usize;
        }
    });
    debug_assert!(counted.is_ok(), "the infallible count cannot fail");
    let mut totals = [0usize; B];
    totals.copy_from_slice(&part.offsets());
    (part, totals)
}

/// Stable blocked compaction keyed by element index: the kernel under
/// [`ops::split`](crate::ops::split) and
/// [`ops::split3`](crate::ops::split3). Element `i` goes to bucket
/// `keys[i].bucket()`; the output holds `value(i)` for every element,
/// bucket by bucket, each bucket in index order. Returns the output
/// and every bucket's total.
///
/// The same three passes on the same count matrix as the multi-way
/// split, but without its digit cache: the scatter re-reads the key
/// slice, and with `B` fixed at compile time the counts and cursors
/// stay in registers.
pub(crate) fn compact<K, U, const B: usize>(
    keys: &[K],
    value: impl Fn(usize) -> U + Sync,
) -> (Vec<U>, [usize; B])
where
    K: BucketKey<B>,
    U: Copy + Send,
{
    let n = keys.len();
    if n == 0 {
        return (Vec::new(), [0; B]);
    }
    let mut mat = Vec::new();
    let (part, totals) = count_keys(keys, &mut mat);
    let mut out: Vec<U> = Vec::with_capacity(n);
    let o = SendPtr::new(out.as_mut_ptr());
    let scattered = part.scatter(|_, r, cur| {
        let o = o.get();
        let mut c: [usize; B] = core::array::from_fn(|k| cur[k]);
        for (i, &key) in r.clone().zip(&keys[r]) {
            let k = key.bucket();
            // Select and bump the cursor with constant indices only, so
            // the cursors stay in registers.
            let mut p = 0;
            for (j, cj) in c.iter_mut().enumerate() {
                if k == j {
                    p = *cj;
                }
                *cj += usize::from(k == j);
            }
            // SAFETY: the cursor ranges partition `0..n` exactly (see
            // `Partition::scatter`), so `p` is a distinct in-bounds slot
            // of the uninitialized output, written once.
            unsafe { o.add(p).write(value(i)) };
        }
        cur.copy_from_slice(&c);
    });
    debug_assert!(scattered.is_ok(), "the infallible scatter cannot fail");
    // SAFETY: every slot of `0..n` was written exactly once above.
    unsafe { out.set_len(n) };
    (out, totals)
}

/// The kernel under [`ops::pack`](crate::ops::pack): `value(i)` for
/// every `i` with `keep[i]`, in index order. Counts and scans like
/// [`compact`], then each block streams through its elements writing
/// every one at its kept-cursor, which advances only past kept
/// elements: a dropped element is overwritten by the next kept one,
/// so the loop never branches on the (often random) flags. The block
/// stops when its cursor reaches the end of its range, where only
/// dropped elements remain.
pub(crate) fn pack_by<U>(keep: &[bool], value: impl Fn(usize) -> U + Sync) -> Vec<U>
where
    U: Copy + Send,
{
    if keep.is_empty() {
        return Vec::new();
    }
    let mut mat = Vec::new();
    let (part, [dropped, kept]) = count_keys(keep, &mut mat);
    let mut out: Vec<U> = Vec::with_capacity(kept);
    let o = SendPtr::new(out.as_mut_ptr());
    let part = &part;
    let scattered = part.scatter(|b, r, cur| {
        let o = o.get();
        // Kept elements are bucket 1, placed after the `dropped` ones.
        let lim = part.end(1, b) - dropped;
        let mut c = cur[1] - dropped;
        for (i, &k) in r.clone().zip(&keep[r]) {
            if c == lim {
                break;
            }
            // SAFETY: block `b` owns output slots `c..lim` (its kept
            // range, shifted past the dropped bucket), and `c < lim`,
            // so the write stays inside the block's own range of the
            // uninitialized buffer. The last write to each slot is the
            // kept element of that rank, since `c` reaches `lim` only
            // after the block's last kept element.
            unsafe { o.add(c).write(value(i)) };
            c += usize::from(k);
        }
        cur[1] = c + dropped;
    });
    debug_assert!(scattered.is_ok(), "the infallible scatter cannot fail");
    // SAFETY: every block wrote its whole kept range, and the ranges
    // partition `0..kept`.
    unsafe { out.set_len(kept) };
    out
}

/// Stable `nbuckets`-way split of `src` into `dst` under an explicit
/// schedule, returning the per-bucket counts. `key` maps each element
/// to its bucket in `0..nbuckets`; elements are grouped by bucket in
/// the output, preserving input order within each bucket (exactly the
/// order `⌈d/w⌉` radix passes need).
///
/// # Panics
/// If `nbuckets` is 0 or exceeds [`MAX_BUCKETS`], if `dst.len() !=
/// src.len()`, or if `key` returns a bucket `>= nbuckets`.
pub fn multi_split_into_sched<T, K>(
    sched: Schedule,
    src: &[T],
    dst: &mut [T],
    nbuckets: usize,
    key: K,
    scratch: &mut MultiSplitScratch,
) -> Vec<usize>
where
    T: ScanElem,
    K: Fn(T) -> usize + Sync,
{
    match multi_split_core(sched, src, dst, nbuckets, &key, scratch, None, false) {
        Ok(counts) => counts,
        Err(e) => panic!("multi_split: {e}"),
    }
}

/// [`multi_split_into_sched`] under the process-default schedule.
pub fn multi_split_into<T, K>(
    src: &[T],
    dst: &mut [T],
    nbuckets: usize,
    key: K,
    scratch: &mut MultiSplitScratch,
) -> Vec<usize>
where
    T: ScanElem,
    K: Fn(T) -> usize + Sync,
{
    multi_split_into_sched(default_schedule(), src, dst, nbuckets, key, scratch)
}

/// Allocating convenience: stable multi-way split returning the
/// reordered vector and the per-bucket counts.
pub fn multi_split_by<T, K>(a: &[T], nbuckets: usize, key: K) -> (Vec<T>, Vec<usize>)
where
    T: ScanElem,
    K: Fn(T) -> usize + Sync,
{
    if a.is_empty() {
        return (Vec::new(), vec![0; nbuckets.max(1)]);
    }
    let mut dst = a.to_vec(); // fully overwritten by the scatter
    let mut scratch = MultiSplitScratch::new();
    let counts = multi_split_into(a, &mut dst, nbuckets, key, &mut scratch);
    (dst, counts)
}

/// Fallible [`multi_split_into_sched`]: cooperates with the ambient
/// [`ScanDeadline`] (checked at block boundaries and every few
/// thousand elements), contains operator panics as
/// [`ExecError::WorkerLost`][crate::ExecError::WorkerLost], and
/// reports an out-of-range bucket as [`Error::IndexOutOfBounds`]
/// instead of panicking. On error, `dst`'s contents are unspecified
/// (but initialized).
pub fn try_multi_split_into_sched<T, K>(
    sched: Schedule,
    src: &[T],
    dst: &mut [T],
    nbuckets: usize,
    key: K,
    scratch: &mut MultiSplitScratch,
) -> Result<Vec<usize>>
where
    T: ScanElem,
    K: Fn(T) -> usize + Sync,
{
    let d = deadline::current();
    multi_split_core(sched, src, dst, nbuckets, &key, scratch, d.as_ref(), true)
}

/// [`try_multi_split_into_sched`] under the process-default schedule.
pub fn try_multi_split_into<T, K>(
    src: &[T],
    dst: &mut [T],
    nbuckets: usize,
    key: K,
    scratch: &mut MultiSplitScratch,
) -> Result<Vec<usize>>
where
    T: ScanElem,
    K: Fn(T) -> usize + Sync,
{
    try_multi_split_into_sched(default_schedule(), src, dst, nbuckets, key, scratch)
}

/// Fallible allocating convenience.
pub fn try_multi_split_by<T, K>(a: &[T], nbuckets: usize, key: K) -> Result<(Vec<T>, Vec<usize>)>
where
    T: ScanElem,
    K: Fn(T) -> usize + Sync,
{
    deadline::checkpoint()?;
    if a.is_empty() {
        return Ok((Vec::new(), vec![0; nbuckets.max(1)]));
    }
    let mut dst = a.to_vec();
    let mut scratch = MultiSplitScratch::new();
    let counts = try_multi_split_into(a, &mut dst, nbuckets, key, &mut scratch)?;
    Ok((dst, counts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExecError;

    fn keys(seed: u64, n: usize, bits: u32) -> Vec<u64> {
        let mask = if bits >= 64 {
            u64::MAX
        } else {
            (1 << bits) - 1
        };
        let mut x = seed;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x & mask
            })
            .collect()
    }

    fn reference<T: ScanElem>(
        a: &[T],
        nbuckets: usize,
        key: impl Fn(T) -> usize,
    ) -> (Vec<T>, Vec<usize>) {
        let mut out = Vec::with_capacity(a.len());
        let mut counts = vec![0usize; nbuckets];
        for (k, c) in counts.iter_mut().enumerate() {
            for &x in a {
                if key(x) == k {
                    out.push(x);
                    *c += 1;
                }
            }
        }
        (out, counts)
    }

    #[test]
    fn splits_small_input_stably() {
        let a = [5u64, 7, 3, 1, 4, 2, 7, 2];
        let (got, counts) = multi_split_by(&a, 4, |k| (k & 3) as usize);
        let (want, want_counts) = reference(&a, 4, |k| (k & 3) as usize);
        assert_eq!(got, want);
        assert_eq!(counts, want_counts);
        assert_eq!(counts.iter().sum::<usize>(), a.len());
    }

    #[test]
    fn matches_reference_across_sizes_and_schedules() {
        for sched in [Schedule::Sequential, Schedule::Pooled, Schedule::Spawn] {
            for n in [
                0usize,
                1,
                5,
                1000,
                crate::parallel::PAR_THRESHOLD - 1,
                crate::parallel::PAR_THRESHOLD + 3,
            ] {
                let a = keys(0x9E3779B97F4A7C15 ^ n as u64, n, 8);
                let key = |k: u64| (k & 15) as usize;
                let mut dst = vec![0u64; n];
                let mut scratch = MultiSplitScratch::new();
                let counts = multi_split_into_sched(sched, &a, &mut dst, 16, key, &mut scratch);
                let (want, want_counts) = reference(&a, 16, key);
                assert_eq!(dst, want, "sched={sched:?} n={n}");
                assert_eq!(counts, want_counts, "sched={sched:?} n={n}");
            }
        }
    }

    #[test]
    fn scratch_reuse_across_changing_shapes() {
        let mut scratch = MultiSplitScratch::new();
        for (n, nbuckets) in [(100usize, 4usize), (17, 256), (3000, 2), (100, 100)] {
            let a = keys(n as u64 * 31 + nbuckets as u64, n, 32);
            let key = move |k: u64| (k as usize) % nbuckets;
            let mut dst = vec![0u64; n];
            let counts = multi_split_into(&a, &mut dst, nbuckets, key, &mut scratch);
            let (want, want_counts) = reference(&a, nbuckets, key);
            assert_eq!(dst, want);
            assert_eq!(counts, want_counts);
        }
    }

    #[test]
    fn single_bucket_is_identity() {
        let a = keys(7, 257, 64);
        let (got, counts) = multi_split_by(&a, 1, |_| 0);
        assert_eq!(got, a);
        assert_eq!(counts, vec![257]);
    }

    #[test]
    fn empty_input() {
        let (got, counts) = multi_split_by::<u64, _>(&[], 8, |_| 0);
        assert!(got.is_empty());
        assert_eq!(counts, vec![0; 8]);
    }

    #[test]
    fn tuples_split_stably() {
        // Pair payloads tag the original index; equal buckets keep order.
        let a: Vec<(u64, u64)> = [3u64, 1, 3, 1, 3, 0]
            .iter()
            .enumerate()
            .map(|(i, &k)| (k, i as u64))
            .collect();
        let (got, _) = multi_split_by(&a, 4, |(k, _)| k as usize);
        assert_eq!(got, vec![(0, 5), (1, 1), (1, 3), (3, 0), (3, 2), (3, 4)]);
    }

    #[test]
    #[should_panic(expected = "only 4 buckets exist")]
    fn out_of_range_bucket_panics() {
        let a = [1u64, 2, 9];
        multi_split_by(&a, 4, |k| k as usize);
    }

    #[test]
    fn try_reports_out_of_range_bucket() {
        let a = keys(3, 100, 8);
        let mut dst = vec![0u64; 100];
        let mut scratch = MultiSplitScratch::new();
        let r = try_multi_split_into(&a, &mut dst, 4, |k| k as usize, &mut scratch);
        assert!(matches!(r, Err(Error::IndexOutOfBounds { len: 4, .. })));
    }

    #[test]
    fn try_reports_length_mismatch() {
        let a = [1u64, 2, 3];
        let mut dst = vec![0u64; 2];
        let mut scratch = MultiSplitScratch::new();
        let r = try_multi_split_into(&a, &mut dst, 2, |k| (k & 1) as usize, &mut scratch);
        assert_eq!(
            r,
            Err(Error::LengthMismatch {
                expected: 3,
                actual: 2
            })
        );
    }

    #[test]
    fn try_honors_cancelled_deadline() {
        for sched in [Schedule::Sequential, Schedule::Pooled, Schedule::Spawn] {
            let a = keys(11, crate::parallel::PAR_THRESHOLD * 2, 8);
            let d = ScanDeadline::manual();
            d.cancel();
            let r = deadline::with_deadline(&d, || {
                try_multi_split_by(&a, 16, |k| (k & 15) as usize).map(|(v, _)| v[0])
            });
            let _ = sched; // schedules share the ambient-deadline path
            assert_eq!(r, Err(Error::Exec(ExecError::Cancelled)));
        }
    }

    #[test]
    fn try_matches_infallible_when_unbounded() {
        let a = keys(23, crate::parallel::PAR_THRESHOLD + 17, 16);
        let key = |k: u64| (k & 0xFF) as usize;
        let (want, want_counts) = multi_split_by(&a, 256, key);
        let (got, counts) = try_multi_split_by(&a, 256, key).unwrap();
        assert_eq!(got, want);
        assert_eq!(counts, want_counts);
    }
}
