//! Runtime-dispatched SIMD tile kernels for the hot scan operators.
//!
//! This is the **only** module in the workspace allowed to mention
//! `is_x86_feature_detected!` or `cfg(target_feature)` (enforced by
//! `cargo xtask lint`, rule `simd-confinement`): every vector path in
//! the crate funnels through the [`SimdTile`] function-pointer bundles
//! built here, and everything outside this module stays ISA-agnostic.
//!
//! # Shape
//!
//! The generic engine ([`crate::parallel`]) stages up to [`TILE`]
//! loaded values in a scratch buffer and hands the buffer to a tile
//! kernel: a seeded in-place scan (`fwd`/`bwd`) or a seeded reduction
//! (`reduce`), each returning the carry-out so consecutive tiles chain
//! exactly like the scalar loop. In-register the kernels run the
//! paper's block decomposition (SNIPPETS.md snippet 1) flattened onto
//! 4×64-bit AVX2 lanes: a Hillis–Steele in-vector inclusive scan
//! (lane shifts by 1 and 2, identity shifted in), then the running
//! carry is folded into all lanes and the last lane is broadcast as
//! the next carry — the `MAX += block_total` loop of the snippet, one
//! vector at a time.
//!
//! # Exactness
//!
//! Tiles are registered (see [`crate::op::ScanOp::simd_tile`]) only
//! for operators where *any* reassociation is bit-exact: wrapping
//! integer addition and integer max/min-style lattice ops. Floats and
//! user closures never get a tile, so the scalar engine's
//! "bit-identical across schedules" contract is preserved — the
//! vector path can reassociate freely without changing a single bit.
//!
//! # Dispatch
//!
//! The ISA is detected once (cached in an atomic): AVX2 on `x86_64`
//! when the CPU reports it, scalar otherwise. `SCAN_CORE_SIMD=0` (or
//! `off`) in the environment pins the scalar fallback — CI runs the
//! tier-1 suite both ways. When the answer is [`Isa::Scalar`] the
//! tile getters return `None` and the generic engine runs its
//! original scalar loops untouched.

use crate::sync::ConfigCell;

/// Elements staged per tile by the engine's vector path. Sized so the
/// value scratch (16 KiB at 8 bytes/element) stays L1-resident while
/// amortizing the per-tile dispatch to nothing.
pub const TILE: usize = 2048;

/// The instruction set the dispatcher selected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Isa {
    /// Portable scalar fallback (also: vector path disabled by env).
    Scalar,
    /// 4×64-bit lanes via AVX2.
    Avx2,
}

impl Isa {
    /// Short name for logs and bench metadata.
    pub fn name(self) -> &'static str {
        match self {
            Isa::Scalar => "scalar",
            Isa::Avx2 => "avx2",
        }
    }
}

const ISA_UNKNOWN: usize = 0;
const ISA_SCALAR: usize = 1;
const ISA_AVX2: usize = 2;

/// Cached dispatch decision; 0 = not yet detected.
static ACTIVE: ConfigCell = ConfigCell::new(ISA_UNKNOWN);

/// The ISA the tile kernels will use, detecting and caching it on
/// first call. Honors `SCAN_CORE_SIMD=0`/`off` (scalar pin).
pub fn active_isa() -> Isa {
    match ACTIVE.get() {
        ISA_SCALAR => Isa::Scalar,
        ISA_AVX2 => Isa::Avx2,
        _ => {
            let isa = detect();
            let enc = match isa {
                Isa::Scalar => ISA_SCALAR,
                Isa::Avx2 => ISA_AVX2,
            };
            ACTIVE.set(enc);
            isa
        }
    }
}

/// Force the dispatch decision (benches and tests): `Some(Isa::Scalar)`
/// pins the scalar fallback, `Some(Isa::Avx2)` pins the vector path
/// (the caller must know the CPU supports it), `None` re-detects on
/// the next [`active_isa`] call.
#[doc(hidden)]
pub fn set_isa_override(isa: Option<Isa>) {
    let enc = match isa {
        None => ISA_UNKNOWN,
        Some(Isa::Scalar) => ISA_SCALAR,
        Some(Isa::Avx2) => ISA_AVX2,
    };
    ACTIVE.set(enc);
}

fn detect() -> Isa {
    if matches!(
        std::env::var("SCAN_CORE_SIMD").as_deref().map(str::trim),
        Ok("0") | Ok("off") | Ok("OFF")
    ) {
        return Isa::Scalar;
    }
    detect_hw()
}

#[cfg(target_arch = "x86_64")]
fn detect_hw() -> Isa {
    if std::arch::is_x86_feature_detected!("avx2") {
        Isa::Avx2
    } else {
        Isa::Scalar
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn detect_hw() -> Isa {
    Isa::Scalar
}

/// A bundle of tile kernels for one `(operator, element)` pair.
///
/// All three functions are *seeded* and *chaining*: they take the
/// running accumulator in traversal order and return the carry-out,
/// so the engine can feed tiles back-to-back and land on exactly the
/// value the scalar loop would have produced (the registered
/// operators are reassociation-exact).
///
/// - `fwd(buf, carry, inclusive)`: in-place left-to-right scan of the
///   tile. Exclusive: slot `i` becomes the state *before* element `i`.
///   Inclusive: the state after. Returns the carry-out.
/// - `bwd`: the same for right-to-left traversal of the tile.
/// - `reduce(buf, carry)`: fold the tile into `carry`.
pub struct SimdTile<S: Copy> {
    pub(crate) fwd: fn(&mut [S], S, bool) -> S,
    pub(crate) bwd: fn(&mut [S], S, bool) -> S,
    pub(crate) reduce: fn(&[S], S) -> S,
}

// ---------------------------------------------------------------------------
// Scalar fallbacks (also the reference the unit tests compare against).
// ---------------------------------------------------------------------------

fn scalar_scan<S: Copy>(buf: &mut [S], carry: S, inclusive: bool, f: impl Fn(S, S) -> S) -> S {
    let mut acc = carry;
    if inclusive {
        for s in buf.iter_mut() {
            acc = f(acc, *s);
            *s = acc;
        }
    } else {
        for s in buf.iter_mut() {
            let x = *s;
            *s = acc;
            acc = f(acc, x);
        }
    }
    acc
}

fn scalar_reduce<S: Copy>(buf: &[S], carry: S, f: impl Fn(S, S) -> S) -> S {
    let mut acc = carry;
    for &s in buf {
        acc = f(acc, s);
    }
    acc
}

// ---------------------------------------------------------------------------
// AVX2 cores: 4×64-bit lanes.
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use core::arch::x86_64::*;

    /// Lanes shifted up by one (`[fill, v0, v1, v2]`).
    #[target_feature(enable = "avx2")]
    fn shift1(v: __m256i, fill: __m256i) -> __m256i {
        let s = _mm256_permute4x64_epi64::<0x90>(v);
        _mm256_blend_epi32::<0b0000_0011>(s, fill)
    }

    /// Lanes shifted up by two (`[fill, fill, v0, v1]`).
    #[target_feature(enable = "avx2")]
    fn shift2(v: __m256i, fill: __m256i) -> __m256i {
        let s = _mm256_permute4x64_epi64::<0x40>(v);
        _mm256_blend_epi32::<0b0000_1111>(s, fill)
    }

    #[target_feature(enable = "avx2")]
    fn add64(a: __m256i, b: __m256i) -> __m256i {
        _mm256_add_epi64(a, b)
    }

    /// Unsigned 64-bit lane max: signed compare after biasing both
    /// operands by `i64::MIN` (flips the sign bit, making the signed
    /// compare order unsigned values correctly).
    #[target_feature(enable = "avx2")]
    fn maxu64(a: __m256i, b: __m256i) -> __m256i {
        let bias = _mm256_set1_epi64x(i64::MIN);
        let gt = _mm256_cmpgt_epi64(_mm256_xor_si256(a, bias), _mm256_xor_si256(b, bias));
        _mm256_blendv_epi8(b, a, gt)
    }

    /// Signed 64-bit lane max.
    #[target_feature(enable = "avx2")]
    fn maxi64(a: __m256i, b: __m256i) -> __m256i {
        let gt = _mm256_cmpgt_epi64(a, b);
        _mm256_blendv_epi8(b, a, gt)
    }

    macro_rules! lane_scan {
        ($fwd:ident, $red:ident, $t:ty, $comb:ident, $id:expr, $sop:expr) => {
            /// Seeded in-place inclusive/exclusive scan of one tile;
            /// returns the carry-out (the inclusive fold of the tile
            /// into the seed).
            #[target_feature(enable = "avx2")]
            pub(super) fn $fwd(buf: &mut [$t], carry: $t, inclusive: bool) -> $t {
                let m = buf.len();
                if m == 0 {
                    return carry;
                }
                let carry_in = carry;
                let idv = _mm256_set1_epi64x($id as i64);
                let mut carry_v = _mm256_set1_epi64x(carry as i64);
                let p = buf.as_mut_ptr();
                let mut j = 0usize;
                while j + 4 <= m {
                    // SAFETY: `j + 4 <= m`, so the unaligned 4-lane
                    // load/store stays inside `buf`.
                    unsafe {
                        let x = _mm256_loadu_si256(p.add(j).cast());
                        let x1 = $comb(shift1(x, idv), x);
                        let x2 = $comb(shift2(x1, idv), x1);
                        let out = $comb(carry_v, x2);
                        _mm256_storeu_si256(p.add(j).cast(), out);
                        carry_v = _mm256_permute4x64_epi64::<0xFF>(out);
                    }
                    j += 4;
                }
                let mut acc = if j == 0 {
                    carry_in
                } else {
                    _mm256_extract_epi64::<0>(carry_v) as $t
                };
                while j < m {
                    acc = ($sop)(acc, buf[j]);
                    buf[j] = acc;
                    j += 1;
                }
                if !inclusive {
                    // Inclusive states → exclusive: shift right by one
                    // and seat the seed at slot 0 (memmove-safe).
                    buf.copy_within(0..m - 1, 1);
                    buf[0] = carry_in;
                }
                acc
            }

            /// Seeded tile reduction (lane-striped, then folded).
            #[target_feature(enable = "avx2")]
            pub(super) fn $red(buf: &[$t], carry: $t) -> $t {
                let m = buf.len();
                let mut acc_v = _mm256_set1_epi64x($id as i64);
                let p = buf.as_ptr();
                let mut j = 0usize;
                while j + 4 <= m {
                    // SAFETY: `j + 4 <= m` keeps the load in bounds.
                    unsafe {
                        acc_v = $comb(acc_v, _mm256_loadu_si256(p.add(j).cast()));
                    }
                    j += 4;
                }
                let h = $comb(acc_v, _mm256_permute4x64_epi64::<0x4E>(acc_v));
                let h = $comb(h, _mm256_permute4x64_epi64::<0xB1>(h));
                let mut acc = ($sop)(carry, _mm256_extract_epi64::<0>(h) as $t);
                while j < m {
                    acc = ($sop)(acc, buf[j]);
                    j += 1;
                }
                acc
            }
        };
    }

    lane_scan!(sum64_fwd, sum64_red, u64, add64, 0u64, |a: u64, b: u64| a
        .wrapping_add(b));
    lane_scan!(
        maxu64_fwd,
        maxu64_red,
        u64,
        maxu64,
        0u64,
        |a: u64, b: u64| a.max(b)
    );
    lane_scan!(
        maxi64_fwd,
        maxi64_red,
        i64,
        maxi64,
        i64::MIN,
        |a: i64, b: i64| a.max(b)
    );
}

// ---------------------------------------------------------------------------
// Dispatch wrappers + tile registry.
// ---------------------------------------------------------------------------

macro_rules! plain_tile {
    ($getter:ident, $wf:ident, $wb:ident, $wr:ident,
     $t:ty, $b:ty, $core_fwd:path, $core_red:path, $sop:expr) => {
        fn $wf(buf: &mut [$t], carry: $t, inclusive: bool) -> $t {
            #[cfg(target_arch = "x86_64")]
            if active_isa() == Isa::Avx2 {
                // SAFETY: the element and the kernel's lane type are
                // both 64-bit plain integers (same size and alignment,
                // every bit pattern valid), so the slice reinterpret is
                // sound; AVX2 availability was just checked, which
                // discharges the target-feature obligation.
                unsafe {
                    let bits =
                        core::slice::from_raw_parts_mut(buf.as_mut_ptr().cast::<$b>(), buf.len());
                    return $core_fwd(bits, carry as $b, inclusive) as $t;
                }
            }
            scalar_scan(buf, carry, inclusive, $sop)
        }
        fn $wb(buf: &mut [$t], carry: $t, inclusive: bool) -> $t {
            // Right-to-left traversal = reverse, forward kernel,
            // reverse back (both reversals stay in L1 at tile size).
            buf.reverse();
            let c = $wf(buf, carry, inclusive);
            buf.reverse();
            c
        }
        fn $wr(buf: &[$t], carry: $t) -> $t {
            #[cfg(target_arch = "x86_64")]
            if active_isa() == Isa::Avx2 {
                // SAFETY: as in the scan wrapper above (shared cast).
                unsafe {
                    let bits = core::slice::from_raw_parts(buf.as_ptr().cast::<$b>(), buf.len());
                    return $core_red(bits, carry as $b) as $t;
                }
            }
            scalar_reduce(buf, carry, $sop)
        }
        /// Tile kernels for this operator/element pair, when the
        /// active ISA has a vector path for them.
        pub(crate) fn $getter() -> Option<&'static SimdTile<$t>> {
            static T: SimdTile<$t> = SimdTile {
                fwd: $wf,
                bwd: $wb,
                reduce: $wr,
            };
            (active_isa() == Isa::Avx2).then_some(&T)
        }
    };
}

macro_rules! sum_op {
    ($t:ty) => {
        |a: $t, b: $t| a.wrapping_add(b)
    };
}
macro_rules! max_op {
    ($t:ty) => {
        |a: $t, b: $t| a.max(b)
    };
}

#[rustfmt::skip]
mod registry {
    use super::*;

    plain_tile!(sum_u64_tile, sum_u64_f, sum_u64_b, sum_u64_r, u64, u64,
        avx2::sum64_fwd, avx2::sum64_red, sum_op!(u64));
    plain_tile!(sum_usize_tile, sum_usize_f, sum_usize_b, sum_usize_r, usize, u64,
        avx2::sum64_fwd, avx2::sum64_red, sum_op!(usize));
    plain_tile!(sum_i64_tile, sum_i64_f, sum_i64_b, sum_i64_r, i64, u64,
        avx2::sum64_fwd, avx2::sum64_red, sum_op!(i64));
    plain_tile!(sum_isize_tile, sum_isize_f, sum_isize_b, sum_isize_r, isize, u64,
        avx2::sum64_fwd, avx2::sum64_red, sum_op!(isize));
    plain_tile!(max_u64_tile, max_u64_f, max_u64_b, max_u64_r, u64, u64,
        avx2::maxu64_fwd, avx2::maxu64_red, max_op!(u64));
    plain_tile!(max_usize_tile, max_usize_f, max_usize_b, max_usize_r, usize, u64,
        avx2::maxu64_fwd, avx2::maxu64_red, max_op!(usize));
    plain_tile!(max_i64_tile, max_i64_f, max_i64_b, max_i64_r, i64, i64,
        avx2::maxi64_fwd, avx2::maxi64_red, max_op!(i64));
    plain_tile!(max_isize_tile, max_isize_f, max_isize_b, max_isize_r, isize, i64,
        avx2::maxi64_fwd, avx2::maxi64_red, max_op!(isize));

}

pub(crate) use registry::*;

#[cfg(test)]
mod tests {
    use super::*;

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

    const LENS: [usize; 9] = [0, 1, 3, 4, 5, 8, 31, 100, 1027];

    #[test]
    fn detection_is_cached_and_overridable() {
        let first = active_isa();
        assert_eq!(active_isa(), first, "detection must be stable");
        set_isa_override(Some(Isa::Scalar));
        assert_eq!(active_isa(), Isa::Scalar);
        assert!(sum_u64_tile().is_none(), "scalar pin must hide tiles");
        set_isa_override(None);
        assert_eq!(active_isa(), first);
    }

    #[test]
    fn plain_tiles_match_scalar_reference() {
        let Some(sum) = sum_u64_tile() else {
            return; // no vector ISA on this machine: nothing to cross-check
        };
        let max = max_u64_tile().expect("isa already confirmed");
        for &n in &LENS {
            let a = data(0xA5, n);
            for inclusive in [false, true] {
                for (tile, op) in [
                    (sum, u64::wrapping_add as fn(u64, u64) -> u64),
                    (max, u64::max as fn(u64, u64) -> u64),
                ] {
                    let seed = 17u64;
                    let mut got = a.clone();
                    let c = (tile.fwd)(&mut got, seed, inclusive);
                    let mut want = a.clone();
                    let wc = scalar_scan(&mut want, seed, inclusive, op);
                    assert_eq!(got, want, "fwd n={n} inclusive={inclusive}");
                    assert_eq!(c, wc, "fwd carry n={n}");

                    let mut got = a.clone();
                    let c = (tile.bwd)(&mut got, seed, inclusive);
                    let mut want: Vec<u64> = a.iter().rev().copied().collect();
                    let wc = scalar_scan(&mut want, seed, inclusive, op);
                    want.reverse();
                    assert_eq!(got, want, "bwd n={n} inclusive={inclusive}");
                    assert_eq!(c, wc, "bwd carry n={n}");

                    assert_eq!(
                        (tile.reduce)(&a, seed),
                        scalar_reduce(&a, seed, op),
                        "reduce n={n}"
                    );
                }
            }
        }
    }

    #[test]
    fn signed_max_tile_handles_negatives() {
        let Some(tile) = max_i64_tile() else {
            return;
        };
        for &n in &LENS {
            let a: Vec<i64> = data(0x5EED, n).iter().map(|&x| x as i64).collect();
            for inclusive in [false, true] {
                let mut got = a.clone();
                let c = (tile.fwd)(&mut got, i64::MIN, inclusive);
                let mut want = a.clone();
                let wc = scalar_scan(&mut want, i64::MIN, inclusive, i64::max);
                assert_eq!(got, want, "n={n} inclusive={inclusive}");
                assert_eq!(c, wc);
            }
        }
    }
}
