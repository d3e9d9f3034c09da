//! Property-based tests for the scan primitives and derived vector
//! operations: every kernel must agree with a trivially-correct
//! sequential reference on arbitrary inputs.

// Not meaningful under the loom model-checking cfg (no global pool).
#![cfg(not(loom))]

use proptest::prelude::*;
use scan_core::op::{And, Max, Min, Or, ScanOp, Sum};
use scan_core::ops::{self, Bucket};
use scan_core::segmented::{
    seg_inclusive_scan, seg_inclusive_scan_backward, seg_scan, seg_scan_backward, Segments,
};
use scan_core::simulate::{self, SoftwareScans};
use scan_core::{allocate, distribute, inclusive_scan, scan, scan_backward};

/// Naive exclusive scan reference.
fn ref_scan<O: ScanOp<T>, T: scan_core::ScanElem>(a: &[T]) -> Vec<T> {
    let mut out = Vec::with_capacity(a.len());
    let mut acc = O::identity();
    for &x in a {
        out.push(acc);
        acc = O::combine(acc, x);
    }
    out
}

/// Naive per-segment exclusive scan reference.
fn ref_seg_scan<O: ScanOp<T>, T: scan_core::ScanElem>(a: &[T], segs: &Segments) -> Vec<T> {
    let mut out = vec![O::identity(); a.len()];
    for (s, e) in segs.ranges() {
        let mut acc = O::identity();
        for i in s..e {
            out[i] = acc;
            acc = O::combine(acc, a[i]);
        }
    }
    out
}

proptest! {
    #[test]
    fn plus_scan_matches_reference(a in proptest::collection::vec(any::<u64>(), 0..2000)) {
        prop_assert_eq!(scan::<Sum, _>(&a), ref_scan::<Sum, _>(&a));
    }

    #[test]
    fn max_scan_matches_reference(a in proptest::collection::vec(any::<u64>(), 0..2000)) {
        prop_assert_eq!(scan::<Max, _>(&a), ref_scan::<Max, _>(&a));
    }

    #[test]
    fn min_scan_matches_reference(a in proptest::collection::vec(any::<i64>(), 0..2000)) {
        prop_assert_eq!(scan::<Min, _>(&a), ref_scan::<Min, _>(&a));
    }

    #[test]
    fn inclusive_is_shifted_exclusive(a in proptest::collection::vec(any::<u32>(), 1..1000)) {
        let exc = scan::<Sum, _>(&a);
        let inc = inclusive_scan::<Sum, _>(&a);
        for i in 0..a.len() {
            prop_assert_eq!(inc[i], exc[i].wrapping_add(a[i]));
        }
    }

    #[test]
    fn backward_is_reversed_forward(a in proptest::collection::vec(any::<u64>(), 0..1000)) {
        let rev: Vec<u64> = a.iter().rev().copied().collect();
        let mut fwd = scan::<Sum, _>(&rev);
        fwd.reverse();
        prop_assert_eq!(scan_backward::<Sum, _>(&a), fwd);
    }

    #[test]
    fn seg_scan_equals_per_segment_scans(
        a in proptest::collection::vec(0u64..1_000_000, 1..1500),
        seed in any::<u64>(),
    ) {
        let flags: Vec<bool> = (0..a.len())
            .map(|i| (seed.wrapping_mul(i as u64 + 1).wrapping_mul(2654435761)).is_multiple_of(5))
            .collect();
        let segs = Segments::from_flags(flags);
        prop_assert_eq!(seg_scan::<Sum, _>(&a, &segs), ref_seg_scan::<Sum, _>(&a, &segs));
        prop_assert_eq!(seg_scan::<Max, _>(&a, &segs), ref_seg_scan::<Max, _>(&a, &segs));
        prop_assert_eq!(seg_scan::<Min, _>(&a, &segs), ref_seg_scan::<Min, _>(&a, &segs));
    }

    #[test]
    fn seg_inclusive_backward_consistency(
        a in proptest::collection::vec(0u64..1000, 1..800),
        seed in any::<u64>(),
    ) {
        let flags: Vec<bool> = (0..a.len())
            .map(|i| (seed ^ (i as u64).wrapping_mul(0x9e3779b97f4a7c15)).is_multiple_of(4))
            .collect();
        let segs = Segments::from_flags(flags);
        // inclusive == exclusive ⊕ own element
        let inc = seg_inclusive_scan::<Sum, _>(&a, &segs);
        let exc = seg_scan::<Sum, _>(&a, &segs);
        for i in 0..a.len() {
            prop_assert_eq!(inc[i], exc[i] + a[i]);
        }
        // backward inclusive == reversed forward inclusive on reversed segments
        let binc = seg_inclusive_scan_backward::<Sum, _>(&a, &segs);
        let bexc = seg_scan_backward::<Sum, _>(&a, &segs);
        for i in 0..a.len() {
            prop_assert_eq!(binc[i], bexc[i] + a[i]);
        }
        // per segment, last exclusive-backward element is identity
        for (_, e) in segs.ranges() {
            prop_assert_eq!(bexc[e - 1], 0);
        }
    }

    #[test]
    fn split_is_stable_partition(
        a in proptest::collection::vec(any::<u32>(), 0..1000),
        seed in any::<u64>(),
    ) {
        let flags: Vec<bool> = (0..a.len())
            .map(|i| (seed >> (i % 60)) & 1 == 1)
            .collect();
        let (got, n_false) = ops::split_count(&a, &flags);
        let mut expect: Vec<u32> = a.iter().zip(&flags).filter(|(_, &f)| !f).map(|(&x, _)| x).collect();
        prop_assert_eq!(expect.len(), n_false);
        expect.extend(a.iter().zip(&flags).filter(|(_, &f)| f).map(|(&x, _)| x));
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn split3_is_stable_three_way(
        a in proptest::collection::vec(any::<u32>(), 0..600),
        seed in any::<u64>(),
    ) {
        let buckets: Vec<Bucket> = (0..a.len())
            .map(|i| match (seed.wrapping_add(i as u64 * 7919)) % 3 {
                0 => Bucket::Lo,
                1 => Bucket::Mid,
                _ => Bucket::Hi,
            })
            .collect();
        let (got, n_lo, n_mid) = ops::split3(&a, &buckets);
        let mut expect: Vec<u32> = Vec::new();
        for want in [Bucket::Lo, Bucket::Mid, Bucket::Hi] {
            expect.extend(
                a.iter().zip(&buckets).filter(|(_, &b)| b == want).map(|(&x, _)| x),
            );
        }
        prop_assert_eq!(got, expect);
        prop_assert_eq!(n_lo, buckets.iter().filter(|&&b| b == Bucket::Lo).count());
        prop_assert_eq!(n_mid, buckets.iter().filter(|&&b| b == Bucket::Mid).count());
    }

    #[test]
    fn pack_equals_filter(
        a in proptest::collection::vec(any::<u64>(), 0..1000),
        seed in any::<u64>(),
    ) {
        let keep: Vec<bool> = (0..a.len()).map(|i| (seed >> (i % 64)) & 1 == 1).collect();
        let expect: Vec<u64> = a.iter().zip(&keep).filter(|(_, &k)| k).map(|(&x, _)| x).collect();
        prop_assert_eq!(ops::pack(&a, &keep), expect);
    }

    #[test]
    fn permute_then_gather_roundtrips(n in 0usize..500, seed in any::<u64>()) {
        let a: Vec<u64> = (0..n as u64).collect();
        // Build a permutation deterministically from the seed.
        let mut idx: Vec<usize> = (0..n).collect();
        let mut state = seed | 1;
        for i in (1..n).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            idx.swap(i, j);
        }
        let p = ops::permute(&a, &idx);
        prop_assert_eq!(ops::gather(&p, &idx), a);
    }

    #[test]
    fn enumerate_assigns_ranks(flags in proptest::collection::vec(any::<bool>(), 0..1000)) {
        let e = ops::enumerate(&flags);
        let mut rank = 0usize;
        for i in 0..flags.len() {
            prop_assert_eq!(e[i], rank);
            if flags[i] { rank += 1; }
        }
        prop_assert_eq!(ops::count(&flags), rank);
    }

    #[test]
    fn allocation_invariants(counts in proptest::collection::vec(0usize..20, 0..200)) {
        let alloc = allocate(&counts);
        prop_assert_eq!(alloc.total, counts.iter().sum::<usize>());
        let nonzero: Vec<usize> = counts.iter().copied().filter(|&c| c > 0).collect();
        prop_assert_eq!(alloc.segments.lengths(), nonzero);
        // distribute repeats each value counts[i] times.
        let vals: Vec<u64> = (0..counts.len() as u64).collect();
        let d = distribute(&vals, &counts);
        let expect: Vec<u64> = counts
            .iter()
            .enumerate()
            .flat_map(|(i, &c)| std::iter::repeat_n(i as u64, c))
            .collect();
        prop_assert_eq!(d, expect);
    }

    #[test]
    fn simulated_scans_match_direct(
        a in proptest::collection::vec(0u64..1_000_000, 0..800),
        seed in any::<u64>(),
    ) {
        let b = SoftwareScans;
        prop_assert_eq!(simulate::min_scan_u64(&b, &a), scan::<Min, _>(&a));
        let bools: Vec<bool> = a.iter().map(|&x| x % 2 == 0).collect();
        prop_assert_eq!(simulate::or_scan(&b, &bools), scan::<Or, _>(&bools));
        prop_assert_eq!(simulate::and_scan(&b, &bools), scan::<And, _>(&bools));
        if !a.is_empty() {
            let flags: Vec<bool> = (0..a.len())
                .map(|i| (seed ^ (i as u64).wrapping_mul(0x2545F4914F6CDD1D)).is_multiple_of(6))
                .collect();
            let segs = Segments::from_flags(flags);
            prop_assert_eq!(
                simulate::seg_max_scan_via_primitives(&b, &a, &segs, 20).unwrap(),
                seg_scan::<Max, _>(&a, &segs)
            );
            prop_assert_eq!(
                simulate::seg_plus_scan_via_primitives(&b, &a, &segs, 40).unwrap(),
                seg_scan::<Sum, _>(&a, &segs)
            );
        }
    }

    #[test]
    fn simulated_float_scans(a in proptest::collection::vec(-1e12f64..1e12, 0..500)) {
        let b = SoftwareScans;
        prop_assert_eq!(simulate::max_scan_f64(&b, &a), scan::<Max, _>(&a));
        prop_assert_eq!(simulate::min_scan_f64(&b, &a), scan::<Min, _>(&a));
    }

    #[test]
    fn seg_split_is_per_segment_stable_partition(
        a in proptest::collection::vec(any::<u32>(), 1..400),
        seed in any::<u64>(),
    ) {
        let flags: Vec<bool> = (0..a.len())
            .map(|i| (seed ^ (i as u64).wrapping_mul(0x94d049bb133111eb)).is_multiple_of(2))
            .collect();
        let seg_flags: Vec<bool> = (0..a.len())
            .map(|i| (seed ^ (i as u64).wrapping_mul(0xbf58476d1ce4e5b9)).is_multiple_of(5))
            .collect();
        let segs = Segments::from_flags(seg_flags);
        let got = scan_core::segops::seg_split(&a, &flags, &segs);
        let mut expect = Vec::with_capacity(a.len());
        for (s, e) in segs.ranges() {
            expect.extend((s..e).filter(|&i| !flags[i]).map(|i| a[i]));
            expect.extend((s..e).filter(|&i| flags[i]).map(|i| a[i]));
        }
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn seg_split3_invariants(
        a in proptest::collection::vec(any::<u32>(), 1..300),
        seed in any::<u64>(),
    ) {
        let buckets: Vec<Bucket> = (0..a.len())
            .map(|i| match (seed ^ (i as u64).wrapping_mul(0x2545F4914F6CDD1D)) % 3 {
                0 => Bucket::Lo,
                1 => Bucket::Mid,
                _ => Bucket::Hi,
            })
            .collect();
        let seg_flags: Vec<bool> = (0..a.len())
            .map(|i| (seed ^ (i as u64).wrapping_mul(0x9e3779b97f4a7c15)).is_multiple_of(4))
            .collect();
        let segs = Segments::from_flags(seg_flags);
        let r = scan_core::segops::seg_split3(&a, &buckets, &segs);
        // Same multiset overall.
        let mut orig = a.clone();
        let mut moved = r.values.clone();
        orig.sort_unstable();
        moved.sort_unstable();
        prop_assert_eq!(orig, moved);
        // Per old segment: Lo then Mid then Hi, stable within groups.
        for (s, e) in segs.ranges() {
            let mut expect = Vec::new();
            for want in [Bucket::Lo, Bucket::Mid, Bucket::Hi] {
                expect.extend((s..e).filter(|&i| buckets[i] == want).map(|i| a[i]));
            }
            prop_assert_eq!(&r.values[s..e], expect.as_slice());
        }
        // Refined heads are exact: a head at the first slot of every
        // nonempty group of every old segment, and nowhere else.
        let mut heads = vec![false; a.len()];
        for (s, e) in segs.ranges() {
            let mut slot = s;
            for want in [Bucket::Lo, Bucket::Mid, Bucket::Hi] {
                let size = (s..e).filter(|&i| buckets[i] == want).count();
                if size > 0 {
                    heads[slot] = true;
                }
                slot += size;
            }
        }
        prop_assert_eq!(r.segments.flags(), heads.as_slice());
        // `index` is the permutation that was applied, and it maps every
        // old segment onto itself.
        prop_assert_eq!(r.index.len(), a.len());
        let mut hit = vec![false; a.len()];
        for (s, e) in segs.ranges() {
            for (i, &p) in r.index.iter().enumerate().take(e).skip(s) {
                prop_assert!((s..e).contains(&p), "index[{}] = {} leaves {}..{}", i, p, s, e);
                prop_assert!(!hit[p], "index hits {} twice", p);
                hit[p] = true;
                prop_assert_eq!(r.values[p], a[i]);
            }
        }
    }

    #[test]
    fn seg_reduce_and_distribute_consistency(
        a in proptest::collection::vec(0u64..100_000, 1..400),
        seed in any::<u64>(),
    ) {
        let flags: Vec<bool> = (0..a.len())
            .map(|i| (seed ^ (i as u64).wrapping_mul(0xd6e8feb86659fd93)).is_multiple_of(6))
            .collect();
        let segs = Segments::from_flags(flags);
        let reduced = scan_core::segops::seg_reduce::<Sum, _>(&a, &segs);
        let distributed = scan_core::segops::seg_distribute::<Sum, _>(&a, &segs);
        prop_assert_eq!(reduced.len(), segs.count());
        for (k, (s, e)) in segs.ranges().into_iter().enumerate() {
            let total: u64 = a[s..e].iter().sum();
            prop_assert_eq!(reduced[k], total);
            for &d in &distributed[s..e] {
                prop_assert_eq!(d, total);
            }
        }
    }

    #[test]
    fn flag_merge_inverts_unmerge(
        a in proptest::collection::vec(any::<u32>(), 0..300),
        b in proptest::collection::vec(any::<u32>(), 0..300),
        seed in any::<u64>(),
    ) {
        // Build a valid flag vector with exactly b.len() trues.
        let n = a.len() + b.len();
        let mut flags = vec![false; n];
        let mut idx: Vec<usize> = (0..n).collect();
        let mut state = seed | 1;
        for i in (1..n).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(99991);
            let j = (state >> 33) as usize % (i + 1);
            idx.swap(i, j);
        }
        for &i in idx.iter().take(b.len()) {
            flags[i] = true;
        }
        let merged = ops::flag_merge(&flags, &a, &b);
        // Unmerge: false positions recover a, true positions recover b.
        let a_back: Vec<u32> = merged.iter().zip(&flags).filter(|(_, &f)| !f).map(|(&x, _)| x).collect();
        let b_back: Vec<u32> = merged.iter().zip(&flags).filter(|(_, &f)| f).map(|(&x, _)| x).collect();
        prop_assert_eq!(a_back, a);
        prop_assert_eq!(b_back, b);
    }
}
