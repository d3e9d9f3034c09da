//! Segmented versions of the simple operations (paper §2.3):
//! per-segment `enumerate`, `copy`, `⊕-distribute`, `reduce`, `split`,
//! and three-way `split` — each a constant number of scan-model steps.
//!
//! All but `enumerate` run on one head-aligned blocked kernel in
//! [`crate::multi_split`] (DESIGN §11): a segmented split, distribute
//! or copy never moves an element out of its segment, so each block
//! owns whole segments and works on them alone.

use crate::element::ScanElem;
use crate::error::{Error, Result};
use crate::multi_split::{seg_compact, seg_fill, seg_fold};
use crate::op::{ScanOp, Sum};
use crate::ops::Bucket;
use crate::parallel;
use crate::scan::reduce;
use crate::segmented::{seg_combine, Segments};

/// `Err(Error::LengthMismatch)` unless `len` matches the segmentation,
/// checking the ambient [`crate::deadline`] scope first (every checked
/// segmented op funnels through here, so they all honor deadlines).
fn check_seg_len(len: usize, segs: &Segments) -> Result<()> {
    crate::deadline::checkpoint()?;
    if len != segs.len() {
        return Err(Error::LengthMismatch {
            expected: segs.len(),
            actual: len,
        });
    }
    Ok(())
}

/// Segmented `enumerate`: the `i`-th true element *within its segment*
/// receives the count of true elements before it in the same segment.
///
/// One segmented `+`-scan; each flag is loaded inside the scan, as
/// [`Segments::segment_ids`] does, so no 0/1 vector is built.
pub fn seg_enumerate(flags: &[bool], segs: &Segments) -> Vec<usize> {
    assert_eq!(flags.len(), segs.len(), "seg_enumerate length mismatch");
    parallel::engine(
        parallel::default_schedule(),
        flags.len(),
        |i| (usize::from(flags[i]), segs.is_head(i)),
        (0, false),
        seg_combine::<Sum, usize>,
        |i, s: (usize, bool)| if segs.is_head(i) { 0 } else { s.0 },
        parallel::Mode::ExclusiveFwd,
        None,
    )
    .0
}

/// Segmented `copy`: copy each segment's first element across the
/// segment (the paper implements this with a segmented `max-scan`; see
/// [`crate::simulate::seg_max_scan_via_primitives`] for that route).
///
/// Runs on the head-aligned blocked plan (DESIGN §11): each block
/// carries its segments' heads forward in one pass, and a segment
/// longer than a block gets a parallel fill. `scan_pram::Ctx::seg_copy`
/// still charges the paper's 1 segmented scan, because fusion changes
/// the execution, not the scan-model algorithm.
pub fn seg_copy<T: ScanElem>(a: &[T], segs: &Segments) -> Vec<T> {
    assert_eq!(a.len(), segs.len(), "seg_copy length mismatch");
    seg_fill(a, segs.flags(), None::<fn(T, T) -> T>, |r| a[r.start])
}

/// Checked [`seg_copy`]: `Err(Error::LengthMismatch)` instead of
/// panicking.
pub fn try_seg_copy<T: ScanElem>(a: &[T], segs: &Segments) -> Result<Vec<T>> {
    check_seg_len(a.len(), segs)?;
    Ok(seg_copy(a, segs))
}

/// Per-segment reduction, one value per segment, in segment order.
///
/// Runs on the head-aligned blocked plan (DESIGN §11): each block
/// folds its segments in one forward pass, writing each segment's
/// running fold at its ordinal, and a segment longer than a block runs
/// the flat parallel reduction.
pub fn seg_reduce<O: ScanOp<T>, T: ScanElem>(a: &[T], segs: &Segments) -> Vec<T> {
    assert_eq!(a.len(), segs.len(), "seg_reduce length mismatch");
    seg_fold(a, segs.flags(), O::combine, |r| reduce::<O, T>(&a[r]))
}

/// Checked [`seg_reduce`]: `Err(Error::LengthMismatch)` instead of
/// panicking.
pub fn try_seg_reduce<O: ScanOp<T>, T: ScanElem>(a: &[T], segs: &Segments) -> Result<Vec<T>> {
    check_seg_len(a.len(), segs)?;
    Ok(seg_reduce::<O, T>(a, segs))
}

/// Segmented `⊕-distribute`: every element receives the reduction of
/// its own segment.
///
/// Runs on the head-aligned blocked plan (DESIGN §11): each block
/// folds its segments forward, restarting at heads, then copies each
/// segment's fold backward over it; a segment longer than a block runs
/// the flat parallel reduction and a parallel fill.
/// `scan_pram::Ctx::seg_distribute` still charges 1 segmented scan and
/// 1 elementwise step: fusion changes the execution, not the
/// scan-model algorithm.
pub fn seg_distribute<O: ScanOp<T>, T: ScanElem>(a: &[T], segs: &Segments) -> Vec<T> {
    assert_eq!(a.len(), segs.len(), "seg_distribute length mismatch");
    seg_fill(a, segs.flags(), Some(O::combine), |r| reduce::<O, T>(&a[r]))
}

/// Checked [`seg_distribute`]: `Err(Error::LengthMismatch)` instead of
/// panicking.
pub fn try_seg_distribute<O: ScanOp<T>, T: ScanElem>(a: &[T], segs: &Segments) -> Result<Vec<T>> {
    check_seg_len(a.len(), segs)?;
    Ok(seg_distribute::<O, T>(a, segs))
}

/// Offset of each element's segment head (the base address of the
/// segment each element lives in).
pub fn seg_offsets(segs: &Segments) -> Vec<usize> {
    segs.head_index_per_element()
}

/// Segmented `split`: within each segment independently, pack `false`
/// elements to the bottom and `true` elements to the top, preserving
/// order within both groups. Segment boundaries are unchanged.
///
/// Runs fused on the head-aligned blocked plan (DESIGN §11), with no
/// index vector or permute: a backward pass counts each segment's
/// falses from every element to the segment's end, and a forward pass
/// moves every element to its slot from its segment's head, its rank
/// and those counts. A segment longer than a block runs the flat
/// blocked compaction over its slice.
/// `scan_pram::Ctx::seg_split` still charges the paper's 3 segmented
/// scans, 3 elementwise steps and 1 permute, because fusion changes
/// the execution, not the scan-model algorithm.
pub fn seg_split<T: ScanElem>(a: &[T], flags: &[bool], segs: &Segments) -> Vec<T> {
    assert_eq!(a.len(), flags.len(), "seg_split length mismatch");
    assert_eq!(a.len(), segs.len(), "seg_split length mismatch");
    seg_compact(flags, segs.flags(), |i| a[i], false).values
}

/// Checked [`seg_split`]: `Err(Error::LengthMismatch)` instead of
/// panicking.
pub fn try_seg_split<T: ScanElem>(a: &[T], flags: &[bool], segs: &Segments) -> Result<Vec<T>> {
    check_seg_len(a.len(), segs)?;
    check_seg_len(flags.len(), segs)?;
    Ok(seg_split(a, flags, segs))
}

/// Checked [`seg_split_index`]: `Err(Error::LengthMismatch)` instead of
/// panicking.
pub fn try_seg_split_index(flags: &[bool], segs: &Segments) -> Result<Vec<usize>> {
    check_seg_len(flags.len(), segs)?;
    Ok(seg_split_index(flags, segs))
}

/// Destination index of each element under [`seg_split`], from the
/// same fused kernel with no values moved.
pub fn seg_split_index(flags: &[bool], segs: &Segments) -> Vec<usize> {
    assert_eq!(flags.len(), segs.len(), "seg_split length mismatch");
    seg_compact(flags, segs.flags(), |_| (), false).index
}

/// Result of a segmented three-way split ([`seg_split3`]).
#[derive(Debug, Clone, PartialEq)]
pub struct SegSplit3<T> {
    /// The permuted values: within each old segment, `Lo` then `Mid`
    /// then `Hi`, each group in original order.
    pub values: Vec<T>,
    /// The refined segmentation: every nonempty group of every old
    /// segment becomes a segment of its own (quicksort step 4).
    pub segments: Segments,
    /// Destination index each source element was moved to.
    pub index: Vec<usize>,
}

/// Segmented three-way split with segment refinement — the heart of the
/// paper's quicksort (§2.3.1, Figure 5): within each segment, move `Lo`
/// elements first, `Mid` second, `Hi` last, and start a new segment at
/// the head of each nonempty group.
///
/// Runs fused on the head-aligned blocked plan (DESIGN §11), like
/// [`seg_split`]: a backward pass counts each segment's `Lo` and `Mid`
/// elements from every element to the segment's end, and a forward
/// pass writes each value at its slot, its `index` entry and, where a
/// nonempty group starts, the refined head. A segment longer than a
/// block runs the flat blocked compaction over its slice. `scan_pram::Ctx::seg_split3` still
/// charges 5 segmented scans, 4 elementwise steps and 2 permutes, the
/// paper's schedule: fusion changes the execution, not the scan-model
/// algorithm.
pub fn seg_split3<T: ScanElem>(a: &[T], buckets: &[Bucket], segs: &Segments) -> SegSplit3<T> {
    assert_eq!(a.len(), buckets.len(), "seg_split3 length mismatch");
    assert_eq!(a.len(), segs.len(), "seg_split3 length mismatch");
    let cols = seg_compact(buckets, segs.flags(), |i| a[i], true);
    SegSplit3 {
        values: cols.values,
        segments: Segments::from_flags(cols.heads),
        index: cols.index,
    }
}

/// Checked [`seg_split3`]: `Err(Error::LengthMismatch)` instead of
/// panicking.
pub fn try_seg_split3<T: ScanElem>(
    a: &[T],
    buckets: &[Bucket],
    segs: &Segments,
) -> Result<SegSplit3<T>> {
    if a.len() != buckets.len() {
        return Err(Error::LengthMismatch {
            expected: a.len(),
            actual: buckets.len(),
        });
    }
    check_seg_len(a.len(), segs)?;
    Ok(seg_split3(a, buckets, segs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{Max, Min};

    fn segs(flags: &[bool]) -> Segments {
        Segments::from_flags(flags.to_vec())
    }

    #[test]
    fn seg_enumerate_restarts() {
        let f = [true, true, false, true, false, true];
        let s = segs(&[true, false, false, true, false, false]);
        assert_eq!(seg_enumerate(&f, &s), vec![0, 1, 2, 0, 1, 1]);
    }

    #[test]
    fn seg_copy_broadcasts_heads() {
        let a = [7u32, 1, 2, 9, 3, 4];
        let s = segs(&[true, false, false, true, false, false]);
        assert_eq!(seg_copy(&a, &s), vec![7, 7, 7, 9, 9, 9]);
    }

    #[test]
    fn seg_reduce_and_distribute() {
        let a = [1u32, 2, 3, 10, 20, 5];
        let s = segs(&[true, false, false, true, false, true]);
        assert_eq!(seg_reduce::<Sum, _>(&a, &s), vec![6, 30, 5]);
        assert_eq!(
            seg_distribute::<Sum, _>(&a, &s),
            vec![6, 6, 6, 30, 30, 5]
        );
        assert_eq!(seg_reduce::<Max, _>(&a, &s), vec![3, 20, 5]);
        assert_eq!(seg_reduce::<Min, _>(&a, &s), vec![1, 10, 5]);
    }

    #[test]
    fn seg_split_within_segments() {
        let a = [1u32, 2, 3, 4, 5, 6];
        // segments [1 2 3][4 5 6]; flags T F T | F T F
        let s = segs(&[true, false, false, true, false, false]);
        let f = [true, false, true, false, true, false];
        // seg 0: falses [2], trues [1 3] -> [2 1 3]
        // seg 1: falses [4 6], trues [5] -> [4 6 5]
        assert_eq!(seg_split(&a, &f, &s), vec![2, 1, 3, 4, 6, 5]);
    }

    #[test]
    fn seg_split_single_segment_matches_split() {
        let a = [5u32, 7, 3, 1, 4, 2, 7, 2];
        let f = [true, true, true, true, false, false, true, false];
        let s = Segments::single(8);
        assert_eq!(seg_split(&a, &f, &s), crate::ops::split(&a, &f));
    }

    #[test]
    fn seg_split3_refines_segments() {
        use Bucket::*;
        // One segment [6 2 9 6 1], pivot 6: [> < = ... ] style
        let a = [6u32, 2, 9, 6, 1];
        let b = [Mid, Lo, Hi, Mid, Lo];
        let s = Segments::single(5);
        let r = seg_split3(&a, &b, &s);
        assert_eq!(r.values, vec![2, 1, 6, 6, 9]);
        assert_eq!(
            r.segments.flags(),
            &[true, false, true, false, true],
            "each nonempty group becomes a segment"
        );
    }

    #[test]
    fn seg_split3_empty_groups_make_no_segments() {
        use Bucket::*;
        let a = [4u32, 4];
        let b = [Mid, Mid];
        let s = Segments::single(2);
        let r = seg_split3(&a, &b, &s);
        assert_eq!(r.values, vec![4, 4]);
        assert_eq!(r.segments.flags(), &[true, false]);
        assert_eq!(r.segments.count(), 1);
    }

    #[test]
    fn seg_split3_multiple_segments() {
        use Bucket::*;
        // segments [3 1 2] and [9 7]
        let a = [3u32, 1, 2, 9, 7];
        let s = segs(&[true, false, false, true, false]);
        let b = [Mid, Lo, Lo, Mid, Lo];
        let r = seg_split3(&a, &b, &s);
        assert_eq!(r.values, vec![1, 2, 3, 7, 9]);
        assert_eq!(r.segments.flags(), &[true, false, true, true, true]);
    }

    #[test]
    fn seg_offsets_are_bases() {
        let s = segs(&[true, false, true, false, false]);
        assert_eq!(seg_offsets(&s), vec![0, 0, 2, 2, 2]);
    }

    #[test]
    fn try_variants_match_and_reject() {
        use crate::error::Error;
        let a = [1u32, 2, 3, 10, 20, 5];
        let s = segs(&[true, false, false, true, false, true]);
        assert_eq!(try_seg_copy(&a, &s), Ok(seg_copy(&a, &s)));
        assert_eq!(
            try_seg_reduce::<Sum, _>(&a, &s),
            Ok(seg_reduce::<Sum, _>(&a, &s))
        );
        assert_eq!(
            try_seg_distribute::<Max, _>(&a, &s),
            Ok(seg_distribute::<Max, _>(&a, &s))
        );
        let f = [true, false, true, false, true, false];
        assert_eq!(try_seg_split(&a, &f, &s), Ok(seg_split(&a, &f, &s)));
        assert_eq!(
            try_seg_split_index(&f, &s),
            Ok(seg_split_index(&f, &s))
        );
        use Bucket::*;
        let b = [Mid, Lo, Hi, Mid, Lo, Hi];
        assert_eq!(try_seg_split3(&a, &b, &s), Ok(seg_split3(&a, &b, &s)));

        let short = [1u32, 2];
        let err = Error::LengthMismatch {
            expected: 6,
            actual: 2,
        };
        assert_eq!(try_seg_copy(&short, &s), Err(err.clone()));
        assert_eq!(try_seg_reduce::<Sum, _>(&short, &s), Err(err.clone()));
        assert_eq!(try_seg_distribute::<Sum, _>(&short, &s), Err(err.clone()));
        assert_eq!(try_seg_split(&short, &f[..2], &s), Err(err.clone()));
        assert_eq!(try_seg_split_index(&f[..2], &s), Err(err));
        assert_eq!(
            try_seg_split3(&a, &b[..2], &s),
            Err(Error::LengthMismatch {
                expected: 6,
                actual: 2
            })
        );
    }
}
