//! Differential tests for the execution engine: every `*_by` entry
//! point, under all three parallel schedules ([`Schedule::Pooled`],
//! [`Schedule::Spawn`], and the single-pass [`Schedule::Lookback`])
//! and all four scan directions, must agree with the sequential
//! reference at sizes straddling `PAR_THRESHOLD`. Segmented scans are
//! checked against the scalar pair fold with the vector ISA on and
//! off, `pack`/`split`/`split3` against the paper's enumerate +
//! permute constructions, and the segmented derived ops (`seg_split3`,
//! `seg_split`, `seg_distribute`, `seg_reduce`, `seg_copy`,
//! `seg_enumerate`) against their segmented-scan + permute
//! constructions, all kept here as oracles.
//!
//! The container running CI may expose a single core, which would give
//! the lazy global pool width 1 and silently skip the parallel paths.
//! [`setup`] pins `SCAN_CORE_THREADS=4` before the pool is first
//! touched so the blocked kernels genuinely run multi-threaded here.

// Not meaningful under the loom model-checking cfg (no global pool).
#![cfg(not(loom))]

use proptest::prelude::*;
use scan_core::ops::{self, Bucket};
use scan_core::parallel::{self, Schedule, PAR_THRESHOLD};
use scan_core::segmented::{
    seg_inclusive_scan, seg_inclusive_scan_backward, seg_scan, seg_scan_backward, Segments,
};
use scan_core::simd::{set_isa_override, Isa, TILE};
use scan_core::{Max, Min, ScanElem, ScanOp, Sum};
use std::sync::{Mutex, Once};

static INIT: Once = Once::new();

/// Pin the pool width to 4 and force pool creation before any test
/// runs a scan. `Once` serializes this against every other test thread,
/// so the `set_var` cannot race a concurrent pool init reading the
/// environment.
fn setup() {
    INIT.call_once(|| {
        std::env::set_var("SCAN_CORE_THREADS", "4");
        assert_eq!(
            scan_core::pool::global().threads(),
            4,
            "pool must honor SCAN_CORE_THREADS"
        );
    });
}

/// Serializes tests that flip the process-wide default schedule.
static SCHED_LOCK: Mutex<()> = Mutex::new(());

/// Run `f` with the default schedule set to `s`, restoring Pooled after.
fn with_default_schedule<R>(s: Schedule, f: impl FnOnce() -> R) -> R {
    let _guard = SCHED_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    parallel::set_default_schedule(s);
    let r = f();
    parallel::set_default_schedule(Schedule::Pooled);
    r
}

const PAR_SCHEDULES: [Schedule; 3] = [Schedule::Pooled, Schedule::Spawn, Schedule::Lookback];

/// Sizes that straddle every interesting boundary: empty, tiny, just
/// below/at/above the parallel threshold, a size that is not a multiple
/// of the block plan, and a couple of larger parallel sizes.
fn sizes() -> Vec<usize> {
    vec![
        0,
        1,
        2,
        3,
        7,
        PAR_THRESHOLD - 1,
        PAR_THRESHOLD,
        PAR_THRESHOLD + 1,
        PAR_THRESHOLD + PAR_THRESHOLD / 4 + 1,
        2 * PAR_THRESHOLD + 7,
    ]
}

/// Deterministic pseudo-random data (splitmix64).
fn data(mut seed: u64, n: usize) -> Vec<u64> {
    (0..n)
        .map(|_| {
            seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        })
        .collect()
}

/// Segment head flags with roughly one head per `period` elements.
fn flags(seed: u64, n: usize, period: u64) -> Vec<bool> {
    data(seed ^ 0x5e65, n)
        .iter()
        .map(|&x| x % period == 0)
        .collect()
}

fn wadd(a: u64, b: u64) -> u64 {
    a.wrapping_add(b)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn forward_scans_match_reference(seed in any::<u64>()) {
        setup();
        for n in sizes() {
            let a = data(seed, n);
            let ex = parallel::seq_exclusive_scan_by(&a, 0u64, wadd);
            let inc = parallel::seq_inclusive_scan_by(&a, 0u64, wadd);
            for sched in PAR_SCHEDULES {
                prop_assert_eq!(
                    parallel::exclusive_scan_by_sched(sched, &a, 0u64, wadd),
                    ex.clone(),
                    "exclusive fwd n={} sched={:?}", n, sched
                );
                prop_assert_eq!(
                    parallel::inclusive_scan_by_sched(sched, &a, 0u64, wadd),
                    inc.clone(),
                    "inclusive fwd n={} sched={:?}", n, sched
                );
            }
        }
    }

    #[test]
    fn backward_scans_match_reversed_reference(seed in any::<u64>()) {
        setup();
        for n in sizes() {
            let a = data(seed, n);
            let rev: Vec<u64> = a.iter().rev().copied().collect();
            let mut ex = parallel::seq_exclusive_scan_by(&rev, 0u64, u64::max);
            ex.reverse();
            let mut inc = parallel::seq_inclusive_scan_by(&rev, 0u64, u64::max);
            inc.reverse();
            for sched in PAR_SCHEDULES {
                prop_assert_eq!(
                    parallel::exclusive_scan_backward_by_sched(sched, &a, 0u64, u64::max),
                    ex.clone(),
                    "exclusive bwd n={} sched={:?}", n, sched
                );
                prop_assert_eq!(
                    parallel::inclusive_scan_backward_by_sched(sched, &a, 0u64, u64::max),
                    inc.clone(),
                    "inclusive bwd n={} sched={:?}", n, sched
                );
            }
        }
    }

    #[test]
    fn scan_with_total_matches_scan_plus_reduce(seed in any::<u64>()) {
        setup();
        for n in sizes() {
            let a = data(seed, n);
            let ex = parallel::seq_exclusive_scan_by(&a, 0u64, wadd);
            let total = parallel::seq_reduce_by(&a, 0u64, wadd);
            for sched in PAR_SCHEDULES {
                let (got, got_total) = with_default_schedule(sched, || {
                    parallel::scan_with_total_by(&a, 0u64, wadd)
                });
                prop_assert_eq!(got, ex.clone(), "with_total scan n={}", n);
                prop_assert_eq!(got_total, total, "with_total total n={}", n);
            }
        }
    }

    #[test]
    fn fused_map_scans_match_unfused(seed in any::<u64>()) {
        setup();
        let g = |x: u64| (x % 17) as u32;
        for n in sizes() {
            let a = data(seed, n);
            let mapped: Vec<u32> = a.iter().map(|&x| g(x)).collect();
            let ex = parallel::seq_exclusive_scan_by(&mapped, 0u32, u32::wrapping_add);
            let rev: Vec<u32> = mapped.iter().rev().copied().collect();
            let mut bex = parallel::seq_exclusive_scan_by(&rev, 0u32, u32::wrapping_add);
            bex.reverse();
            let total = parallel::seq_reduce_by(&mapped, 0u32, u32::wrapping_add);
            for sched in PAR_SCHEDULES {
                let (f_scan, f_back, (f_wt, f_total), f_red) = with_default_schedule(sched, || {
                    (
                        parallel::scan_map_by(&a, g, 0u32, u32::wrapping_add),
                        parallel::scan_map_backward_by(&a, g, 0u32, u32::wrapping_add),
                        parallel::scan_map_with_total_by(&a, g, 0u32, u32::wrapping_add),
                        parallel::reduce_map_by(&a, g, 0u32, u32::wrapping_add),
                    )
                });
                prop_assert_eq!(f_scan, ex.clone(), "scan_map n={} sched={:?}", n, sched);
                prop_assert_eq!(f_back, bex.clone(), "scan_map_backward n={}", n);
                prop_assert_eq!(f_wt, ex.clone(), "scan_map_with_total scan n={}", n);
                prop_assert_eq!(f_total, total, "scan_map_with_total total n={}", n);
                prop_assert_eq!(f_red, total, "reduce_map n={}", n);
            }
        }
    }

    #[test]
    fn reduce_map_tabulate_zip_match_naive(seed in any::<u64>()) {
        setup();
        for n in sizes() {
            let a = data(seed, n);
            let b = data(seed ^ 0xbeef, n);
            let red_ref = parallel::seq_reduce_by(&a, 0u64, u64::max);
            let map_ref: Vec<u64> = a.iter().map(|&x| x ^ 0xff).collect();
            let tab_ref: Vec<u64> = (0..n).map(|i| (i as u64) * 3).collect();
            let zip_ref: Vec<u64> = a.iter().zip(&b).map(|(&x, &y)| x.wrapping_add(y)).collect();
            for sched in PAR_SCHEDULES {
                prop_assert_eq!(
                    parallel::reduce_by_sched(sched, &a, 0u64, u64::max),
                    red_ref,
                    "reduce n={} sched={:?}", n, sched
                );
                prop_assert_eq!(
                    parallel::map_by_sched(sched, &a, |x| x ^ 0xff),
                    map_ref.clone(),
                    "map n={}", n
                );
                let (tab, zip) = with_default_schedule(sched, || {
                    (
                        parallel::tabulate_by(n, |i| (i as u64) * 3),
                        parallel::zip_by(&a, &b, |x: u64, y: u64| x.wrapping_add(y)),
                    )
                });
                prop_assert_eq!(tab, tab_ref.clone(), "tabulate n={}", n);
                prop_assert_eq!(zip, zip_ref.clone(), "zip n={}", n);
            }
        }
    }

    #[test]
    fn max_op_library_wrappers_match(seed in any::<u64>()) {
        setup();
        for n in sizes() {
            let a = data(seed, n);
            let ex: Vec<u64> = {
                let mut out = Vec::with_capacity(n);
                let mut acc = Max::identity();
                for &x in &a {
                    out.push(acc);
                    acc = Max::combine(acc, x);
                }
                out
            };
            for sched in PAR_SCHEDULES {
                let got = with_default_schedule(sched, || scan_core::scan::<Max, _>(&a));
                prop_assert_eq!(got, ex.clone(), "scan::<Max> n={} sched={:?}", n, sched);
            }
        }
    }
}

/// Serializes tests that flip the process-wide ISA pin.
static ISA_LOCK: Mutex<()> = Mutex::new(());

/// Sizes straddling the vector tile width and the parallel threshold.
fn tile_sizes() -> Vec<usize> {
    vec![
        0,
        1,
        5,
        TILE - 1,
        TILE,
        TILE + 1,
        2 * TILE + 3,
        PAR_THRESHOLD - 1,
        PAR_THRESHOLD,
        PAR_THRESHOLD + TILE + 1,
        2 * PAR_THRESHOLD + 7,
    ]
}

/// The scalar `(value, flag)` pair fold, one segment at a time, in all
/// four directions: exclusive/inclusive forward, exclusive/inclusive
/// backward.
fn pair_fold_reference<O: ScanOp<T>, T: ScanElem>(a: &[T], segs: &Segments) -> [Vec<T>; 4] {
    let n = a.len();
    let mut out = [
        vec![O::identity(); n],
        vec![O::identity(); n],
        vec![O::identity(); n],
        vec![O::identity(); n],
    ];
    for (s, e) in segs.ranges() {
        let mut acc = O::identity();
        for i in s..e {
            out[0][i] = acc;
            acc = O::combine(acc, a[i]);
            out[1][i] = acc;
        }
        let mut acc = O::identity();
        for i in (s..e).rev() {
            out[2][i] = acc;
            acc = O::combine(acc, a[i]);
            out[3][i] = acc;
        }
    }
    out
}

fn check_seg_scans_on_every_isa<O: ScanOp<T>, T: ScanElem>(seed: u64, conv: fn(u64) -> T) {
    for n in tile_sizes() {
        let a: Vec<T> = data(seed ^ n as u64, n).into_iter().map(conv).collect();
        let segs = Segments::from_flags(flags(seed, n, 37));
        let want = pair_fold_reference::<O, T>(&a, &segs);
        for sched in PAR_SCHEDULES.into_iter().chain([Schedule::Sequential]) {
            for isa in [Some(Isa::Scalar), None] {
                set_isa_override(isa);
                let got = with_default_schedule(sched, || {
                    [
                        seg_scan::<O, T>(&a, &segs),
                        seg_inclusive_scan::<O, T>(&a, &segs),
                        seg_scan_backward::<O, T>(&a, &segs),
                        seg_inclusive_scan_backward::<O, T>(&a, &segs),
                    ]
                });
                assert!(
                    got == want,
                    "{} n={} isa={:?} sched={:?}",
                    O::NAME,
                    n,
                    isa,
                    sched
                );
            }
            // The raw pair operator through the generic closure engine:
            // the classic (value, flag) associative combine.
            let pairs: Vec<(T, bool)> = (0..n).map(|i| (a[i], segs.is_head(i))).collect();
            let combined = parallel::inclusive_scan_by_sched(
                sched,
                &pairs,
                (O::identity(), false),
                |(v1, f1), (v2, f2)| {
                    if f2 {
                        (v2, true)
                    } else {
                        (O::combine(v1, v2), f1)
                    }
                },
            );
            let got: Vec<T> = combined.iter().map(|&(v, _)| v).collect();
            assert!(
                got == want[1],
                "pair-op {} n={} sched={:?}",
                O::NAME,
                n,
                sched
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// Segmented scans agree with the scalar pair fold whether or not
    /// the vector ISA is enabled, for every operator/element pair that
    /// has a flat vector tile, in all four directions, under every
    /// schedule.
    #[test]
    fn segmented_scans_match_scalar_pair_fold_on_every_isa(seed in any::<u64>()) {
        setup();
        let _guard = ISA_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        check_seg_scans_on_every_isa::<Sum, u64>(seed, |x| x);
        check_seg_scans_on_every_isa::<Sum, usize>(seed, |x| x as usize);
        check_seg_scans_on_every_isa::<Sum, i64>(seed, |x| x as i64);
        check_seg_scans_on_every_isa::<Sum, isize>(seed, |x| x as isize);
        check_seg_scans_on_every_isa::<Max, u64>(seed, |x| x);
        check_seg_scans_on_every_isa::<Max, usize>(seed, |x| x as usize);
        check_seg_scans_on_every_isa::<Max, i64>(seed, |x| x as i64);
        check_seg_scans_on_every_isa::<Max, isize>(seed, |x| x as isize);
        set_isa_override(None);
    }
}

// ---------------------------------------------------------------------------
// Oracles: the enumerate + permute index pipelines of paper §2.2
// (Figures 3 and 11), written with the public primitives. The library
// runs these operations on one blocked compaction kernel; these are
// the step-by-step constructions it must agree with.
// ---------------------------------------------------------------------------

/// `pack`: enumerate the kept flags, then permute into the shorter vector.
fn oracle_pack<T: ScanElem>(a: &[T], keep: &[bool]) -> Vec<T> {
    let dest = ops::enumerate(keep);
    let total = ops::count(keep);
    let Some(&first) = a.first() else {
        return Vec::new();
    };
    let mut out = vec![first; total];
    for i in 0..a.len() {
        if keep[i] {
            out[dest[i]] = a[i];
        }
    }
    out
}

/// `split` (Figure 3): I-down = enumerate(not Flags), I-up = n -
/// back-enumerate(Flags) - 1, select the index, permute.
fn oracle_split_count<T: ScanElem>(a: &[T], flags: &[bool]) -> (Vec<T>, usize) {
    let n = a.len();
    let not_flags: Vec<bool> = flags.iter().map(|&f| !f).collect();
    let i_down = ops::enumerate(&not_flags);
    let n_false = ops::count(&not_flags);
    let i_up = ops::back_enumerate(flags);
    let index = parallel::tabulate_by(n, |i| if flags[i] { n - i_up[i] - 1 } else { i_down[i] });
    (ops::permute_unchecked(a, &index), n_false)
}

/// Three-way split: one enumerate per bucket, offset by the earlier
/// buckets' totals, then permute.
fn oracle_split3<T: ScanElem>(a: &[T], buckets: &[Bucket]) -> (Vec<T>, usize, usize) {
    let count_of = |want: Bucket| {
        let f: Vec<bool> = buckets.iter().map(|&b| b == want).collect();
        (ops::enumerate(&f), ops::count(&f))
    };
    let (lo, n_lo) = count_of(Bucket::Lo);
    let (mid, n_mid) = count_of(Bucket::Mid);
    let (hi, _) = count_of(Bucket::Hi);
    let index = parallel::tabulate_by(buckets.len(), |i| match buckets[i] {
        Bucket::Lo => lo[i],
        Bucket::Mid => n_lo + mid[i],
        Bucket::Hi => n_lo + n_mid + hi[i],
    });
    (ops::permute_unchecked(a, &index), n_lo, n_mid)
}

/// Flag patterns for the compaction tests: all true, all false,
/// alternating, and two random densities.
fn flag_patterns(seed: u64, n: usize) -> Vec<(&'static str, Vec<bool>)> {
    vec![
        ("all-true", vec![true; n]),
        ("all-false", vec![false; n]),
        ("alternating", (0..n).map(|i| i % 2 == 1).collect()),
        ("random-1/2", flags(seed, n, 2)),
        ("random-1/97", flags(seed ^ 7, n, 97)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn compaction_ops_match_enumerate_permute_oracles(seed in any::<u64>()) {
        setup();
        for n in sizes() {
            let a = data(seed, n);
            for (name, f) in flag_patterns(seed, n) {
                let want_pack = oracle_pack(&a, &f);
                let want_idx = oracle_pack(&(0..n).collect::<Vec<usize>>(), &f);
                let want_split = oracle_split_count(&a, &f);
                let buckets: Vec<Bucket> = f
                    .iter()
                    .zip(&a)
                    .map(|(&b, &x)| match (b, x % 2 == 0) {
                        (false, _) => Bucket::Lo,
                        (true, true) => Bucket::Mid,
                        (true, false) => Bucket::Hi,
                    })
                    .collect();
                let want_split3 = oracle_split3(&a, &buckets);
                for sched in [Schedule::Pooled, Schedule::Lookback, Schedule::Sequential] {
                    let (pack, idx, split, split3) = with_default_schedule(sched, || {
                        (
                            ops::pack(&a, &f),
                            ops::pack_indices(&f),
                            ops::split_count(&a, &f),
                            ops::split3(&a, &buckets),
                        )
                    });
                    prop_assert_eq!(&pack, &want_pack, "pack {} n={} sched={:?}", name, n, sched);
                    prop_assert_eq!(&idx, &want_idx, "pack_indices {} n={}", name, n);
                    prop_assert_eq!(&split, &want_split, "split {} n={} sched={:?}", name, n, sched);
                    prop_assert_eq!(&split3, &want_split3, "split3 {} n={} sched={:?}", name, n, sched);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Oracles for the segmented derived ops (paper §2.3): segmented scans,
// whole-vector distributes, an offsets vector, an index vector and a
// permute, step by step, written with the public primitives. The
// library runs `seg_split3`, `seg_split`, `seg_distribute`,
// `seg_reduce` and `seg_copy` on one head-aligned blocked kernel; these
// are the constructions it must agree with.
// ---------------------------------------------------------------------------

/// Per-segment reduction: read each segment's last inclusive value.
fn oracle_seg_reduce<O: ScanOp<T>, T: ScanElem>(a: &[T], segs: &Segments) -> Vec<T> {
    let inc = seg_inclusive_scan::<O, T>(a, segs);
    segs.ranges().iter().map(|&(_, e)| inc[e - 1]).collect()
}

/// Segmented distribute: each segment's last inclusive value, repeated.
fn oracle_seg_distribute<O: ScanOp<T>, T: ScanElem>(a: &[T], segs: &Segments) -> Vec<T> {
    let inc = seg_inclusive_scan::<O, T>(a, segs);
    let mut out = Vec::with_capacity(a.len());
    for (s, e) in segs.ranges() {
        out.extend(std::iter::repeat_n(inc[e - 1], e - s));
    }
    out
}

/// Segmented copy: gather through every element's head index.
fn oracle_seg_copy<T: ScanElem>(a: &[T], segs: &Segments) -> Vec<T> {
    ops::gather(a, &segs.head_index_per_element())
}

/// Segmented enumerate: a segmented `+`-scan of the 0/1 flags.
fn oracle_seg_enumerate(f: &[bool], segs: &Segments) -> Vec<usize> {
    let ones: Vec<usize> = f.iter().map(|&x| usize::from(x)).collect();
    seg_scan::<Sum, _>(&ones, segs)
}

/// Destination of every element under `seg_split`: the segment base,
/// plus the element's rank among its segment's falses, or the
/// segment's false count plus its rank among the trues.
fn oracle_seg_split_index(f: &[bool], segs: &Segments) -> Vec<usize> {
    let not_f: Vec<bool> = f.iter().map(|&x| !x).collect();
    let enum_false = oracle_seg_enumerate(&not_f, segs);
    let enum_true = oracle_seg_enumerate(f, segs);
    let ones: Vec<usize> = not_f.iter().map(|&x| usize::from(x)).collect();
    let n_false = oracle_seg_distribute::<Sum, _>(&ones, segs);
    let base = segs.head_index_per_element();
    (0..f.len())
        .map(|i| {
            base[i]
                + if f[i] {
                    n_false[i] + enum_true[i]
                } else {
                    enum_false[i]
                }
        })
        .collect()
}

/// Segmented three-way split with refinement (§2.3.1): one segmented
/// enumerate per group, per-segment group sizes by distribute, the
/// destination index, a permute, and a scatter of the new head flags
/// from every group's first element.
fn oracle_seg_split3<T: ScanElem>(
    a: &[T],
    buckets: &[Bucket],
    segs: &Segments,
) -> scan_core::segops::SegSplit3<T> {
    let is =
        |want: Bucket| -> Vec<usize> { buckets.iter().map(|&x| usize::from(x == want)).collect() };
    let (lo, mid, hi) = (is(Bucket::Lo), is(Bucket::Mid), is(Bucket::Hi));
    let enum_lo = seg_scan::<Sum, _>(&lo, segs);
    let enum_mid = seg_scan::<Sum, _>(&mid, segs);
    let enum_hi = seg_scan::<Sum, _>(&hi, segs);
    let n_lo = oracle_seg_distribute::<Sum, _>(&lo, segs);
    let n_mid = oracle_seg_distribute::<Sum, _>(&mid, segs);
    let base = segs.head_index_per_element();
    let index: Vec<usize> = (0..a.len())
        .map(|i| {
            base[i]
                + match buckets[i] {
                    Bucket::Lo => enum_lo[i],
                    Bucket::Mid => n_lo[i] + enum_mid[i],
                    Bucket::Hi => n_lo[i] + n_mid[i] + enum_hi[i],
                }
        })
        .collect();
    let values = ops::permute_unchecked(a, &index);
    let mut heads = vec![false; a.len()];
    for i in 0..a.len() {
        let rank = match buckets[i] {
            Bucket::Lo => enum_lo[i],
            Bucket::Mid => enum_mid[i],
            Bucket::Hi => enum_hi[i],
        };
        if rank == 0 {
            heads[index[i]] = true;
        }
    }
    scan_core::segops::SegSplit3 {
        values,
        segments: Segments::from_flags(heads),
        index,
    }
}

/// Parallel cutoff for the segmented-op tests: with the pool pinned to
/// 4 lanes, `min_block` = 64 and inputs of a few thousand elements plan
/// 16 blocks of a few hundred, so segment boundaries fall inside,
/// across and exactly on block boundaries.
const SEG_THRESHOLD: usize = 256;

/// Run `f` with the default schedule set to `s` and the parallel
/// threshold shrunk to [`SEG_THRESHOLD`], restoring both after. Other
/// tests may see the small threshold meanwhile; every result in this
/// file is independent of the block plan.
fn with_small_blocks<R>(s: Schedule, f: impl FnOnce() -> R) -> R {
    let _guard = SCHED_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    parallel::set_par_threshold_override(SEG_THRESHOLD);
    parallel::set_default_schedule(s);
    let r = f();
    parallel::set_default_schedule(Schedule::Pooled);
    parallel::set_par_threshold_override(0);
    r
}

/// Start of every block the engine plans for `n` elements on the
/// 4-lane pool under [`SEG_THRESHOLD`] (`plan_blocks` and
/// `block_range`, restated).
fn block_starts(n: usize) -> Vec<usize> {
    if n < SEG_THRESHOLD {
        return vec![0];
    }
    let lanes = 4;
    let mut nblocks = (n / (SEG_THRESHOLD / 4)).clamp(1, 4 * lanes);
    if nblocks > lanes {
        nblocks -= nblocks % lanes;
    }
    let (base, rem) = (n / nblocks, n % nblocks);
    (0..nblocks).map(|b| b * base + b.min(rem)).collect()
}

/// The segmentations the head-aligned plan must survive.
fn segmentations(seed: u64, n: usize) -> Vec<(&'static str, Segments)> {
    let mut on_boundaries = vec![false; n];
    for s in block_starts(n) {
        if s < n {
            on_boundaries[s] = true;
        }
    }
    // Segments of 3 everywhere except one of about three blocks' length
    // starting a third of the way in.
    let long_start = n / 3;
    let long_end = (long_start + 3 * n / block_starts(n).len()).min(n);
    let long_among_short: Vec<bool> = (0..n)
        .map(|i| i == long_start || (i % 3 == 0 && !(long_start..long_end).contains(&i)))
        .collect();
    let mut headless_first = flags(seed ^ 11, n, 16);
    if let Some(f) = headless_first.first_mut() {
        *f = false;
    }
    vec![
        ("single", Segments::single(n)),
        ("all-heads", Segments::from_flags(vec![true; n])),
        ("on-block-boundaries", Segments::from_flags(on_boundaries)),
        ("long-among-short", Segments::from_flags(long_among_short)),
        ("density-1/2", Segments::from_flags(flags(seed, n, 2))),
        ("density-1/16", Segments::from_flags(flags(seed ^ 1, n, 16))),
        (
            "density-1/256",
            Segments::from_flags(flags(seed ^ 2, n, 256)),
        ),
        (
            "density-1/4096",
            Segments::from_flags(flags(seed ^ 3, n, 4096)),
        ),
        ("flags[0]-false", Segments::from_flags(headless_first)),
    ]
}

/// Bucket patterns for the three-way split: each group alone, and random.
fn bucket_patterns(seed: u64, n: usize) -> Vec<(&'static str, Vec<Bucket>)> {
    let random = data(seed ^ 0xb0c4, n)
        .iter()
        .map(|&x| match x % 3 {
            0 => Bucket::Lo,
            1 => Bucket::Mid,
            _ => Bucket::Hi,
        })
        .collect();
    vec![
        ("all-lo", vec![Bucket::Lo; n]),
        ("all-mid", vec![Bucket::Mid; n]),
        ("all-hi", vec![Bucket::Hi; n]),
        ("random", random),
    ]
}

/// Every segmented derived op on one input, in a fixed order, so one
/// run under a schedule compares against one run of the oracles.
struct SegOps {
    split3: Vec<scan_core::segops::SegSplit3<u64>>,
    split: Vec<u64>,
    split_index: Vec<usize>,
    enumerate: Vec<usize>,
    distribute: [Vec<u64>; 3],
    reduce: [Vec<u64>; 3],
    copy: Vec<u64>,
}

impl SegOps {
    /// Name of the first op whose output differs from `other`'s.
    fn first_mismatch(&self, other: &SegOps) -> Option<&'static str> {
        [
            ("seg_split3", self.split3 == other.split3),
            ("seg_split", self.split == other.split),
            ("seg_split_index", self.split_index == other.split_index),
            ("seg_enumerate", self.enumerate == other.enumerate),
            ("seg_distribute", self.distribute == other.distribute),
            ("seg_reduce", self.reduce == other.reduce),
            ("seg_copy", self.copy == other.copy),
        ]
        .into_iter()
        .find_map(|(name, same)| (!same).then_some(name))
    }
}

fn seg_ops_oracle(a: &[u64], f: &[bool], bk: &[Vec<Bucket>], segs: &Segments) -> SegOps {
    SegOps {
        split3: bk.iter().map(|b| oracle_seg_split3(a, b, segs)).collect(),
        split: ops::permute_unchecked(a, &oracle_seg_split_index(f, segs)),
        split_index: oracle_seg_split_index(f, segs),
        enumerate: oracle_seg_enumerate(f, segs),
        distribute: [
            oracle_seg_distribute::<Sum, _>(a, segs),
            oracle_seg_distribute::<Max, _>(a, segs),
            oracle_seg_distribute::<Min, _>(a, segs),
        ],
        reduce: [
            oracle_seg_reduce::<Sum, _>(a, segs),
            oracle_seg_reduce::<Max, _>(a, segs),
            oracle_seg_reduce::<Min, _>(a, segs),
        ],
        copy: oracle_seg_copy(a, segs),
    }
}

fn seg_ops_library(a: &[u64], f: &[bool], bk: &[Vec<Bucket>], segs: &Segments) -> SegOps {
    use scan_core::segops as so;
    SegOps {
        split3: bk.iter().map(|b| so::seg_split3(a, b, segs)).collect(),
        split: so::seg_split(a, f, segs),
        split_index: so::seg_split_index(f, segs),
        enumerate: so::seg_enumerate(f, segs),
        distribute: [
            so::seg_distribute::<Sum, _>(a, segs),
            so::seg_distribute::<Max, _>(a, segs),
            so::seg_distribute::<Min, _>(a, segs),
        ],
        reduce: [
            so::seg_reduce::<Sum, _>(a, segs),
            so::seg_reduce::<Max, _>(a, segs),
            so::seg_reduce::<Min, _>(a, segs),
        ],
        copy: so::seg_copy(a, segs),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// The segmented derived ops match the scan + distribute + permute
    /// oracles under every schedule, on many small blocks, for every
    /// segmentation shape and bucket pattern, including all three
    /// `SegSplit3` fields.
    #[test]
    fn segmented_ops_match_scan_permute_oracles(seed in any::<u64>()) {
        setup();
        for n in [0usize, 1, 2, 7, SEG_THRESHOLD - 1, 5003, 20011] {
            let a = data(seed ^ n as u64, n);
            let f = flags(seed ^ 0xf1a9, n, 2);
            let bk: Vec<Vec<Bucket>> = bucket_patterns(seed, n).into_iter().map(|(_, b)| b).collect();
            for (name, segs) in segmentations(seed, n) {
                let want = seg_ops_oracle(&a, &f, &bk, &segs);
                for sched in [Schedule::Pooled, Schedule::Lookback, Schedule::Sequential] {
                    let got = with_small_blocks(sched, || seg_ops_library(&a, &f, &bk, &segs));
                    if let Some(field) = got.first_mismatch(&want) {
                        prop_assert!(false, "{} differs: {} n={} sched={:?}", field, name, n, sched);
                    }
                }
            }
        }
    }
}
