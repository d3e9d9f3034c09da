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
    block_range, check, default_schedule, engine_width, go_parallel, par_threshold, plan_blocks,
    run_blocks, scan_span, try_run_blocks, Mode, Schedule, SendPtr, CANCEL_STRIDE,
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

/// Raw output columns of a compaction: slot `p` of `values` receives
/// the value of the element placed there and, when present, `index[i]`
/// receives element `i`'s slot.
struct Cols<U> {
    values: SendPtr<U>,
    index: Option<SendPtr<usize>>,
}

impl<U> Clone for Cols<U> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<U> Copy for Cols<U> {}

impl<U> Cols<U> {
    /// Place element `i`, whose value is `v`, at slot `p`.
    ///
    /// # Safety
    /// `i` and `p` are in bounds of their columns, and no other write
    /// (on any thread) targets slot `p` of `values` or slot `i` of
    /// `index` before the columns are joined and read.
    // SAFETY: an `unsafe fn`; every caller states why it meets the
    // contract above.
    #[inline(always)]
    unsafe fn put(self, i: usize, p: usize, v: U) {
        // SAFETY: in bounds and exclusive, per the contract above.
        unsafe { self.values.get().add(p).write(v) };
        if let Some(ix) = self.index {
            // SAFETY: as above.
            unsafe { ix.get().add(i).write(p) };
        }
    }
}

/// Take the cursor of bucket `k` and advance it. The cursors are
/// indexed, not selected by comparing `k` with every bucket: with
/// random buckets the compare-and-select form branched and ran about
/// 5× slower at three buckets.
#[inline(always)]
fn bump<const B: usize>(cur: &mut [usize; B], k: usize) -> usize {
    let p = cur[k];
    cur[k] = p + 1;
    p
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
    let mut out: Vec<U> = Vec::with_capacity(n);
    let cols = Cols {
        values: SendPtr::new(out.as_mut_ptr()),
        index: None,
    };
    let totals = compact_into(keys, 0, &value, cols);
    // SAFETY: `compact_into` wrote every slot of `0..n` exactly once.
    unsafe { out.set_len(n) };
    (out, totals)
}

/// [`compact`] into caller-owned columns: `keys` are the keys of
/// elements `base..base + keys.len()`, and their values land in slots
/// `base..base + keys.len()` of `out` (element indices and slots are
/// both absolute, so a segment compacts in place within its range).
/// Writes every slot of that range exactly once and returns every
/// bucket's total.
fn compact_into<K, U, const B: usize>(
    keys: &[K],
    base: usize,
    value: &(impl Fn(usize) -> U + Sync),
    out: Cols<U>,
) -> [usize; B]
where
    K: BucketKey<B>,
    U: Copy + Send,
{
    if keys.is_empty() {
        return [0; B];
    }
    let mut mat = Vec::new();
    let (part, totals) = count_keys(keys, &mut mat);
    let scattered = part.scatter(|_, r, cur| {
        let mut c: [usize; B] = core::array::from_fn(|k| cur[k]);
        for (i, &key) in r.clone().zip(&keys[r]) {
            let p = bump(&mut c, key.bucket());
            // SAFETY: the cursor ranges partition `0..keys.len()` exactly
            // (see `Partition::scatter`), so `base + p` is a distinct
            // slot of the caller's range, and `base + i` is this
            // block's own element, each written once.
            unsafe { out.put(base + i, base + p, value(base + i)) };
        }
        cur.copy_from_slice(&c);
    });
    debug_assert!(scattered.is_ok(), "the infallible scatter cannot fail");
    totals
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

/// The head-aligned block plan under the segmented derived ops
/// ([`seg_compact`], [`seg_fill`], [`seg_fold`]).
///
/// A segmented split, distribute or copy never moves an element out of
/// its segment, so every segment's output range is its input range.
/// The plan takes the usual balanced blocks and gives each block the
/// segments whose heads lie in it: every interior block boundary in
/// effect moves forward to the next head, so no segment straddles two
/// blocks, and a block reads and writes only its own segments. Blocks
/// need no carries, no count matrix and no offset scan.
///
/// A segment longer than a block (and than the parallel threshold)
/// would leave one thread holding most of the work. Such a segment is
/// necessarily its block's last; it leaves the block and runs on the
/// flat blocked kernels after the pass.
struct SegPlan<'a> {
    heads: &'a [bool],
    sched: Schedule,
    nblocks: usize,
    /// Segments longer than this run on the flat kernels.
    long: usize,
}

impl<'a> SegPlan<'a> {
    /// Plan under the process-default schedule; element 0 is a head
    /// whatever `heads[0]` says.
    fn new(heads: &'a [bool]) -> Self {
        let n = heads.len();
        let sched = default_schedule();
        let (sched, nblocks) = if go_parallel(sched, n) {
            (sched, plan_blocks(n, engine_width(sched)))
        } else {
            (Schedule::Sequential, 1)
        };
        // A short segment's bucket counts share one `usize`, so no
        // block, and no segment in one, may be longer than half of one.
        let half = usize::MAX >> HALF;
        let nblocks = nblocks.max(n.div_ceil(half));
        SegPlan {
            heads,
            sched: if nblocks == 1 {
                Schedule::Sequential
            } else {
                sched
            },
            nblocks,
            long: n.div_ceil(nblocks).max(par_threshold()).min(half),
        }
    }

    /// The first head in `from..to`, or `to` when there is none.
    fn next_head(&self, from: usize, to: usize) -> usize {
        let run = self.heads[from..to].iter().position(|&h| h);
        run.map_or(to, |p| from + p)
    }

    /// Call `span(block, range)` with each block's run of whole short
    /// segments (from its first head to the end of its last segment
    /// that stays), blocks in parallel. Returns the segments that left
    /// their blocks, in order, each with its block.
    fn run(&self, span: impl Fn(usize, Range<usize>) + Sync) -> Vec<(usize, Range<usize>)> {
        let (n, nblocks) = (self.heads.len(), self.nblocks);
        // Per block: its first head, and the head of the long segment
        // it defers.
        let mut first = vec![usize::MAX; nblocks];
        let mut long = vec![usize::MAX; nblocks];
        let (fp, lp) = (
            SendPtr::new(first.as_mut_ptr()),
            SendPtr::new(long.as_mut_ptr()),
        );
        run_blocks(self.sched, nblocks, |b| {
            let r = block_range(n, nblocks, b);
            let s = if b == 0 {
                0
            } else {
                self.next_head(r.start, r.end)
            };
            if s == r.end {
                return;
            }
            let last = self.heads[s + 1..r.end].iter().rposition(|&h| h);
            let last = last.map_or(s, |p| s + 1 + p);
            // `long` is at least a block, so `to` lies past the block.
            let to = last.saturating_add(self.long).saturating_add(1).min(n);
            let mut e = self.next_head(r.end, to);
            // SAFETY: slot `b` is written only by block `b`.
            unsafe { fp.get().add(b).write(s) };
            if e == to && to < n {
                // SAFETY: as above.
                unsafe { lp.get().add(b).write(last) };
                e = last;
            }
            if s < e {
                span(b, s..e);
            }
        });
        // A long segment ends at the first head of the next block that
        // has one: no block in between owns a head.
        let mut out = Vec::new();
        for (b, &h) in long.iter().enumerate() {
            if h != usize::MAX {
                let end = first[b + 1..].iter().find(|&&f| f != usize::MAX);
                out.push((b, h..end.copied().unwrap_or(n)));
            }
        }
        out
    }
}

/// `if c { t } else { f }` without a branch. Head flags are random, and
/// an `if` on them compiled to a mispredicted branch for most operand
/// types; the compiler reads this two-slot array with a conditional
/// move instead.
#[inline(always)]
fn pick<T: Copy>(c: bool, t: T, f: T) -> T {
    [f, t][usize::from(c)]
}

/// Bits per half of a `usize`: a segmented split keeps a segment's
/// first two bucket counts packed in one `usize` slot.
const HALF: u32 = usize::BITS / 2;

/// Columns of a segmented split ([`seg_compact`]); `heads` is empty
/// unless asked for.
pub(crate) struct SegSplitCols<U> {
    /// Within each segment, the values bucket by bucket.
    pub(crate) values: Vec<U>,
    /// The slot each element moved to.
    pub(crate) index: Vec<usize>,
    /// A head at the first slot of every nonempty bucket of every
    /// segment.
    pub(crate) heads: Vec<bool>,
}

/// The kernel under the segmented splits
/// ([`segops::seg_split`](crate::segops::seg_split),
/// [`seg_split_index`](crate::segops::seg_split_index),
/// [`seg_split3`](crate::segops::seg_split3)): within each segment of
/// `heads`, a stable compaction of `value(i)` by `keys[i].bucket()`,
/// on the head-aligned plan ([`SegPlan`]).
///
/// Each block makes two passes over its span of short segments, both
/// without looking for segment ends. The first runs backward and counts
/// each segment's buckets, restarting after every segment's last
/// element, so at a head it holds the segment's totals; it parks the
/// first two counts, packed, in the `index` slot of each element. The
/// second runs forward: at each head it sets `B` cursors to the
/// segment's bucket bases from those totals, then moves every element
/// to its bucket's cursor, records the slot in `index`, and flags the
/// first slot of every bucket. A long segment runs the flat [`compact`]
/// over its slice, into the same columns.
pub(crate) fn seg_compact<K, U, const B: usize>(
    keys: &[K],
    heads: &[bool],
    value: impl Fn(usize) -> U + Sync,
    want_heads: bool,
) -> SegSplitCols<U>
where
    K: BucketKey<B>,
    U: Copy + Send,
{
    debug_assert!(B == 2 || B == 3, "the packed counts hold two buckets");
    let n = keys.len();
    debug_assert_eq!(heads.len(), n, "one head flag per key");
    let mut values: Vec<U> = Vec::with_capacity(n);
    let mut index: Vec<usize> = Vec::with_capacity(n);
    let mut refined = if want_heads {
        vec![false; n]
    } else {
        Vec::new()
    };
    let ix = SendPtr::new(index.as_mut_ptr());
    let cols = Cols {
        values: SendPtr::new(values.as_mut_ptr()),
        index: Some(ix),
    };
    let hp = want_heads.then(|| SendPtr::new(refined.as_mut_ptr()));
    let plan = SegPlan::new(heads);
    let longs = plan.run(|_, r| {
        let ix = ix.get();
        // Backward: suffix counts of the first two buckets within the
        // segment, restarting after each segment's last element.
        let (mut c0, mut c1) = (0usize, 0usize);
        for i in r.clone().rev() {
            let last = i + 1 == r.end || heads[i + 1];
            let k = keys[i].bucket();
            c0 = pick(last, 0, c0) + usize::from(k == 0);
            c1 = pick(last, 0, c1) + usize::from(k == 1);
            // SAFETY: a span's slots are in bounds and touched only by
            // its block; this slot is overwritten by the forward pass.
            unsafe { ix.add(i).write(c0 | c1 << HALF) };
        }
        // Forward: each element's slot from its segment's head, its
        // bucket rank (the running prefix count) and its suffix counts.
        // Bucket `j < B - 1` starts after the segment's totals of the
        // buckets before it, each a prefix plus a suffix count; the last
        // bucket ends with the segment, so its slot needs no totals.
        // The head and ranks are selected from registers only: a select
        // on a freshly loaded operand compiles to a branch, which the
        // random head flags mispredict.
        let (mut head, mut rank) = (r.start, [0usize; B]);
        for i in r.clone() {
            let at_head = heads[i] | (i == r.start);
            head = pick(at_head, i, head);
            for q in &mut rank {
                *q = pick(at_head, 0, *q);
            }
            // SAFETY: initialized by the backward pass above.
            let packed = unsafe { *ix.add(i) };
            let suffix = [packed & (usize::MAX >> HALF), packed >> HALF];
            let mut slot = [i + suffix.iter().take(B - 1).sum::<usize>(); B];
            // Slot `i` gets a refined head when a bucket starts there.
            let (mut base, mut starts) = (head, i == head);
            for ((s, &q), &t) in slot.iter_mut().zip(&rank).zip(&suffix).take(B - 1) {
                *s = base + q;
                base += q + t;
                starts |= base == i;
            }
            if let Some(h) = hp {
                // SAFETY: slot `i` is in the span, which only its block
                // touches.
                unsafe { h.get().add(i).write(starts) };
            }
            let k = keys[i].bucket();
            let mut p = 0;
            for (j, (&s, q)) in slot.iter().zip(&mut rank).enumerate() {
                let hit = usize::from(k == j);
                p |= s & hit.wrapping_neg();
                *q += hit;
            }
            // SAFETY: bucket `k`'s slots of the segment start at its base
            // and its elements take them in rank order, so each slot of
            // the segment's own range is handed out once; `i` is the
            // segment's own element.
            unsafe { cols.put(i, p, value(i)) };
        }
    });
    for (_, r) in longs {
        let totals = compact_into(&keys[r.clone()], r.start, &value, cols);
        if let Some(h) = hp {
            let mut p = r.start;
            for t in totals {
                if t > 0 {
                    // SAFETY: `p` is a slot of the long segment, which
                    // only this loop writes now.
                    unsafe { h.get().add(p).write(true) };
                }
                p += t;
            }
        }
    }
    // SAFETY: the spans and long segments partition `0..n`, and each
    // wrote every value and index slot of its range exactly once.
    unsafe {
        values.set_len(n);
        index.set_len(n);
    }
    SegSplitCols {
        values,
        index,
        heads: refined,
    }
}

/// The kernel under [`segops::seg_copy`](crate::segops::seg_copy)
/// (`fold` = `None`) and
/// [`seg_distribute`](crate::segops::seg_distribute): every element
/// receives its segment's head value or, given a `fold`, the fold of
/// its whole segment.
///
/// On the head-aligned plan ([`SegPlan`]) each block sweeps its span of
/// short segments without looking for their ends: a copy carries the
/// head forward; a distribute folds forward, restarting at every head,
/// then copies each segment's last fold backward over the segment. A
/// segment that left its block gets `long(range)` (a flat parallel
/// reduction, say) in a parallel fill.
pub(crate) fn seg_fill<T, F>(
    a: &[T],
    heads: &[bool],
    fold: Option<F>,
    long: impl Fn(Range<usize>) -> T,
) -> Vec<T>
where
    T: Copy + Send + Sync,
    F: Fn(T, T) -> T + Sync,
{
    let n = a.len();
    debug_assert_eq!(heads.len(), n, "one head flag per element");
    let mut out: Vec<T> = Vec::with_capacity(n);
    let o = SendPtr::new(out.as_mut_ptr());
    let plan = SegPlan::new(heads);
    let longs = plan.run(|_, r| {
        let o = o.get();
        // SAFETY (every access below): a span's slots are in bounds and
        // touched only by its block, and the reads are of slots the
        // forward sweep initialized.
        let Some(fold) = &fold else {
            // Copy: track the head's index, not its value, so that no
            // select picks a freshly loaded operand (the compiler turns
            // such a select back into a branch).
            let mut head = r.start;
            for i in r {
                head = pick(heads[i], i, head);
                // SAFETY: see above.
                unsafe { o.add(i).write(a[head]) };
            }
            return;
        };
        let mut acc = a[r.start];
        // SAFETY: see above.
        unsafe { o.add(r.start).write(acc) };
        for i in r.start + 1..r.end {
            acc = pick(heads[i], a[i], fold(acc, a[i]));
            // SAFETY: see above.
            unsafe { o.add(i).write(acc) };
        }
        // Spread each segment's last fold backward over the segment.
        let mut last = r.end - 1;
        for i in (r.start..r.end - 1).rev() {
            last = pick(heads[i + 1], i, last);
            // SAFETY: see above.
            unsafe { o.add(i).write(*o.add(last)) };
        }
    });
    for (_, r) in longs {
        let (base, len, v) = (r.start, r.len(), long(r));
        let nblocks = plan_blocks(len, engine_width(plan.sched));
        run_blocks(plan.sched, nblocks, |b| {
            let o = o.get();
            for p in block_range(len, nblocks, b) {
                // SAFETY: the blocks partition the segment's range.
                unsafe { o.add(base + p).write(v) };
            }
        });
    }
    // SAFETY: the spans and long segments partition `0..n`, and each
    // wrote every slot of its range.
    unsafe { out.set_len(n) };
    out
}

/// The kernel under [`segops::seg_reduce`](crate::segops::seg_reduce):
/// the `fold` of every segment, one per segment, in segment order.
///
/// On the head-aligned plan ([`SegPlan`]), each block's first segment
/// ordinal comes from a per-block head count. The block then folds its
/// span forward, restarting at every head and writing the running fold
/// at the current segment's ordinal, so a segment's last write is its
/// total. A segment that left its block gets `long(range)`.
pub(crate) fn seg_fold<T, F>(
    a: &[T],
    heads: &[bool],
    fold: F,
    long: impl Fn(Range<usize>) -> T,
) -> Vec<T>
where
    T: Copy + Send + Sync,
    F: Fn(T, T) -> T + Sync,
{
    let n = a.len();
    debug_assert_eq!(heads.len(), n, "one head flag per element");
    if n == 0 {
        return Vec::new();
    }
    let plan = SegPlan::new(heads);
    let nblocks = plan.nblocks;
    // Heads per block, then scanned in place: `first[b]` is block `b`'s
    // first segment ordinal, `first[nblocks]` the segment count.
    let mut first = vec![0usize; nblocks + 1];
    let fp = SendPtr::new(first.as_mut_ptr());
    run_blocks(plan.sched, nblocks, |b| {
        let r = block_range(n, nblocks, b);
        let count = heads[r].iter().filter(|&&h| h).count() + usize::from(b == 0 && !heads[0]);
        // SAFETY: slot `b` is written only by block `b`.
        unsafe { fp.get().add(b).write(count) };
    });
    let mut total = 0;
    for f in &mut first {
        (*f, total) = (total, total + *f);
    }
    let mut out: Vec<T> = Vec::with_capacity(total);
    let o = SendPtr::new(out.as_mut_ptr());
    let first = &first;
    let longs = plan.run(|b, r| {
        let o = o.get();
        let (mut ord, mut acc) = (first[b], a[r.start]);
        for i in r.start + 1..r.end {
            // SAFETY: block `b` owns exactly the segments whose heads it
            // counted, from ordinal `first[b]` on, so `ord` is its own
            // in-bounds slot.
            unsafe { o.add(ord).write(acc) };
            ord += usize::from(heads[i]);
            acc = pick(heads[i], a[i], fold(acc, a[i]));
        }
        // SAFETY: as above.
        unsafe { o.add(ord).write(acc) };
    });
    for (b, r) in longs {
        // A long segment is its block's last segment.
        // SAFETY: as above; the block's span stopped before it.
        unsafe { o.get().add(first[b + 1] - 1).write(long(r)) };
    }
    // SAFETY: every segment's ordinal slot was written, the last write
    // being the segment's fold.
    unsafe { out.set_len(total) };
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
