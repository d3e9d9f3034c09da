//! The executor's verify-and-assemble pass.
//!
//! After round 2 a run's output is in pieces: slot 0's range already
//! sits in the run's output buffer (when the buffer came back from its
//! shard), every other slot's range in a range-length piece. One
//! parallel pass on [`scan_core::pool::global`], over blocks of
//! [`BLOCK`] elements aligned to the slot ranges, puts the output
//! together and checks it. Each block
//!
//! - copies its piece into place;
//! - checks the local recurrence that `scan_fault::verify` uses: the
//!   identity at element 0 and at every segment head, otherwise
//!   `out[g] == out[g - 1] ⊕ a[g - 1]`. By induction from element 0,
//!   that holds everywhere exactly when the output is the scan;
//! - folds the data's true pair total over the block, so the slots'
//!   claimed round-1 totals are checked too — including the last
//!   slot's, which no carry uses.
//!
//! The pass only detects. When anything fails, the executor's
//! sequential loop repairs the output and attributes the fault.

use std::ops::Range;
use std::sync::Mutex;

use scan_core::{ExecError, ScanDeadline};

use crate::combine::pair_combine;
use crate::executor::{lock, Claims, ScanKind};

/// Elements per block of the pass (512 KiB of `u64`).
pub(crate) const BLOCK: usize = 1 << 16;

/// A checked block: whether its elements hold, and the data's pair
/// total over it.
type Verdict = (bool, (u64, bool));

/// Copy every slot's piece into `out` (a `None` piece is already in
/// place) and, if `verify`, check the assembled output and the claimed
/// totals. Returns whether every check held — vacuously when not
/// verifying. Runs under `deadline`.
pub(crate) fn assemble(
    c: &Claims<'_>,
    pieces: &[Option<Vec<u64>>],
    out: &mut [u64],
    verify: bool,
    deadline: Option<&ScanDeadline>,
) -> Result<bool, ExecError> {
    let id = c.kind.identity();
    let blocks: Vec<(usize, Range<usize>)> = c
        .ranges
        .iter()
        .enumerate()
        .flat_map(|(slot, r)| {
            let end = r.end;
            r.clone()
                .step_by(BLOCK)
                .map(move |lo| (slot, lo..(lo + BLOCK).min(end)))
        })
        .collect();
    // The claimed output just before each block, read before `out` is
    // split: a block's check starts from its predecessor.
    let claimed = |slot: usize, g: usize| match &pieces[slot] {
        Some(p) => p[g - c.ranges[slot].start],
        None => out[g],
    };
    let preds: Vec<u64> = blocks
        .iter()
        .map(|(slot, b)| match b.start {
            0 => id,
            lo if lo == c.ranges[*slot].start => claimed(slot - 1, lo - 1),
            lo => claimed(*slot, lo - 1),
        })
        .collect();
    // Each block's output slice and, once checked, its verdict.
    let mut rest = out;
    let cells: Vec<Mutex<(&mut [u64], Verdict)>> = blocks
        .iter()
        .map(|(_, b)| {
            let (dst, tail) = std::mem::take(&mut rest).split_at_mut(b.len());
            rest = tail;
            Mutex::new((dst, (true, (id, false))))
        })
        .collect();
    scan_core::pool::global().try_run(blocks.len(), deadline, |j| {
        let (slot, b) = &blocks[j];
        let mut cell = lock(&cells[j]);
        let (dst, verdict) = &mut *cell;
        if let Some(p) = &pieces[*slot] {
            let lo = b.start - c.ranges[*slot].start;
            dst.copy_from_slice(&p[lo..lo + b.len()]);
        }
        if verify {
            *verdict = check(c, b.clone(), preds[j], dst);
        }
    })?;
    if !verify {
        return Ok(true);
    }
    let mut elems_hold = true;
    let mut totals = vec![(id, false); c.ranges.len()];
    for ((slot, _), cell) in blocks.iter().zip(cells) {
        let (_, (holds, total)) = cell.into_inner().unwrap_or_else(|e| e.into_inner());
        elems_hold &= holds;
        totals[*slot] = pair_combine(c.kind, totals[*slot], total);
    }
    Ok(elems_hold && totals == c.totals)
}

/// Check block `b` of the assembled output `out` against the local
/// recurrence, from the claimed output `pred` just before the block,
/// and fold the data's pair total over the block.
fn check(c: &Claims<'_>, b: Range<usize>, pred: u64, out: &[u64]) -> Verdict {
    match c.kind {
        ScanKind::Sum => check_with(u64::wrapping_add, c, b, pred, out),
        ScanKind::Max => check_with(u64::max, c, b, pred, out),
    }
}

/// [`check`] under the operator `op`, with one loop for flat scans and
/// one for segmented ones, so neither branches on the heads' presence
/// per element.
#[inline(always)]
fn check_with(
    op: impl Fn(u64, u64) -> u64,
    c: &Claims<'_>,
    b: Range<usize>,
    pred: u64,
    out: &[u64],
) -> Verdict {
    let id = c.kind.identity();
    let a = &c.data[b.clone()];
    // What the block's first element must be if it is not a head.
    let first = if b.start == 0 {
        id
    } else {
        op(pred, c.data[b.start - 1])
    };
    match c.heads {
        None => {
            let mut holds = out[0] == first;
            for ((&o, &p), &x) in out[1..].iter().zip(out).zip(a) {
                holds &= o == op(p, x);
            }
            (holds, (a.iter().fold(id, |t, &x| op(t, x)), false))
        }
        Some(heads) => {
            let h = &heads[b.clone()];
            // Element 0 always begins a segment.
            let head0 = h[0] || b.start == 0;
            let mut holds = out[0] == if head0 { id } else { first };
            for (((&o, &p), &x), &head) in out[1..].iter().zip(out).zip(a).zip(&h[1..]) {
                holds &= o == if head { id } else { op(p, x) };
            }
            let mut total = (a[0], head0);
            for (&x, &head) in a[1..].iter().zip(&h[1..]) {
                total = if head {
                    (x, true)
                } else {
                    (op(total.0, x), total.1)
                };
            }
            (holds, total)
        }
    }
}
