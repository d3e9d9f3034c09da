//! The bulk workloads: the stack's large-n paths on one seeded array of
//! 2^26 `u64`s, one family of calls per workload (see [`WORKLOADS`]).
//!
//! The calls are `scan`, `scan_inplace` (into a warm copy made outside
//! the timing), `seg_scan`, `pack`, `CheckedExecutor::checked_plus_scan`,
//! a streaming scan, and a two-shard `ShardedExecutor::scan_arc`. Each
//! output is checked against a digest computed at set-up by the
//! benchmark's own sequential loops. Each call's baseline is a plain
//! pass over the same array that moves the bytes the call moves, and
//! pays the page faults it pays, without the library, in blocks the
//! pool's width of threads share out (see [`Bulk::base`]).

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use scan_core::simulate::SoftwareScans;
use scan_core::{ops, ScanStream, Segments, SliceSource, Sum};
use scan_fault::CheckedExecutor;
use scan_shard::{ScanKind, ShardConfig, ShardedExecutor};

use crate::report::Metrics;
use crate::run::{repeated_setup, shared, timed, Outcome, Run};
use crate::stats::{digest_fold, median, Expect};
use crate::wrap::{TimedScans, TimedSource};
use crate::{gen, trace};

/// Elements in the array: 512 MiB of `u64`.
pub const N: usize = 1 << 26;
/// Stream chunk length.
const CHUNK: usize = 1 << 20;
/// One segment head per this many elements, on average.
const SEG_DENSITY: u64 = 1024;

/// Elements per block of the baseline (512 KiB).
const BASE_BLOCK: usize = 1 << 16;

/// Bytes a scan-like call computes per element: one read, one write.
const SCAN_BYTES: f64 = 16.0;

/// Reference of an exclusive `+`-scan: output digest and total.
pub fn expect_scan(a: &[u64]) -> (Expect, u64) {
    let mut acc = 0u64;
    let mut d = 0u64;
    for (i, &x) in a.iter().enumerate() {
        d = digest_fold(d, i, &[acc]);
        acc = acc.wrapping_add(x);
    }
    (
        Expect {
            len: a.len(),
            digest: d,
        },
        acc,
    )
}

/// Reference of an exclusive segmented `+`-scan (element 0 is a head).
pub fn expect_seg_scan(a: &[u64], heads: &[bool]) -> Expect {
    let mut acc = 0u64;
    let mut d = 0u64;
    for (i, (&x, &h)) in a.iter().zip(heads).enumerate() {
        if h {
            acc = 0;
        }
        d = digest_fold(d, i, &[acc]);
        acc = acc.wrapping_add(x);
    }
    Expect {
        len: a.len(),
        digest: d,
    }
}

/// Reference of `pack`: the kept elements, in order.
pub fn expect_pack(a: &[u64], keep: &[bool]) -> Expect {
    let mut len = 0;
    let mut d = 0u64;
    for (&x, _) in a.iter().zip(keep).filter(|(_, &k)| k) {
        d = digest_fold(d, len, &[x]);
        len += 1;
    }
    Expect { len, digest: d }
}

/// The bulk workloads and the calls each makes per round. Each is one
/// family of large-n calls, so a workload's end-to-end figures move
/// with that family alone.
pub const WORKLOADS: &[(&str, &[&str])] = &[
    ("scan", &["scan", "inplace"]),
    ("segpack", &["seg_scan", "pack"]),
    ("checked", &["checked"]),
    ("stream_shard", &["stream", "shard"]),
];

/// The call kinds of bulk workload `name`.
pub fn kinds(name: &str) -> Option<&'static [&'static str]> {
    WORKLOADS.iter().find(|(w, _)| *w == name).map(|(_, k)| *k)
}

/// How a call that can fail ended, against its reference.
fn outcome_of<E>(res: &Result<Vec<u64>, E>, want: &Expect) -> Outcome {
    match res {
        Ok(out) => Outcome::check(want.matches(out)),
        Err(_) => Outcome::Error,
    }
}

/// Everything one round of a bulk workload needs, built at set-up.
/// Inputs and references only its own calls use are left empty.
pub struct Bulk {
    kinds: &'static [&'static str],
    data: Arc<Vec<u64>>,
    segs: Segments,
    keep: Vec<bool>,
    /// Target of `scan_inplace`, of its baseline and of the copy probes.
    warm: Vec<u64>,
    want_scan: Expect,
    total: u64,
    want_seg: Expect,
    want_pack: Expect,
    checked: CheckedExecutor,
    shard: ShardedExecutor,
    /// Chunks and pulls of the last streaming pass.
    stream_counts: (u64, u64),
}

impl Bulk {
    /// Inputs of `n` elements from `seed` for the calls `kinds`. The
    /// layers always get the span-recording wrappers; with recording
    /// off they cost one relaxed load per call.
    pub fn new(seed: u64, n: usize, kinds: &'static [&'static str]) -> Self {
        let uses = |k: &str| kinds.contains(&k);
        // Values below 2^32 keep every prefix sum of 2^26 of them exact.
        let data = gen::values(seed, 1, n, 32);
        let (mut want_scan, mut total) = (Expect { len: 0, digest: 0 }, 0);
        if kinds.iter().any(|k| !matches!(*k, "seg_scan" | "pack")) {
            (want_scan, total) = expect_scan(&data);
        }
        let (mut segs, mut want_seg) = (Segments::from_flags(Vec::new()), want_scan);
        if uses("seg_scan") {
            let mut heads = gen::flags(seed, 2, n, SEG_DENSITY);
            if let Some(h) = heads.first_mut() {
                *h = true;
            }
            want_seg = expect_seg_scan(&data, &heads);
            segs = Segments::from_flags(heads);
        }
        let (mut keep, mut want_pack) = (Vec::new(), want_scan);
        if uses("pack") {
            keep = gen::flags(seed, 3, n, 2);
            want_pack = expect_pack(&data, &keep);
        }
        Bulk {
            kinds,
            warm: if uses("inplace") {
                data.clone()
            } else {
                Vec::new()
            },
            data: Arc::new(data),
            segs,
            keep,
            want_scan,
            total,
            want_seg,
            want_pack,
            checked: CheckedExecutor::new(Box::new(TimedScans(SoftwareScans))),
            shard: ShardedExecutor::new(ShardConfig::default()),
            stream_counts: (0, 0),
        }
    }

    fn n(&self) -> usize {
        self.data.len()
    }

    /// Stream the data through an exclusive `ScanStream`, digesting
    /// each output chunk as it arrives. Returns the stream's time less
    /// the digesting, whether the output and final carry were right,
    /// and the chunk and pull counts.
    fn stream(&self) -> (f64, Outcome, u64, u64) {
        let mut d = 0u64;
        let mut seen = 0usize;
        let mut check = 0.0;
        let ((res, chunks, pulls), t) = timed("stream.process", || {
            let src = TimedSource(SliceSource::new(&self.data, CHUNK));
            let mut s = ScanStream::<Sum, u64, _>::exclusive(src);
            let res = s.process(|chunk| {
                let (folded, tc) = timed("bench.check", || digest_fold(d, seen, chunk));
                d = folded;
                check += tc;
                seen += chunk.len();
            });
            (res, s.chunks_done(), s.pulls())
        });
        let outcome = match res {
            Ok((carry, _)) => Outcome::check(
                carry == self.total && seen == self.want_scan.len && d == self.want_scan.digest,
            ),
            Err(_) => Outcome::Error,
        };
        (t - check, outcome, chunks, pulls)
    }

    /// One verified call of `kind`: its time in seconds and how it
    /// ended. The output is checked and dropped after the clock stops.
    fn call(&mut self, kind: &str) -> (f64, Outcome) {
        let data: &[u64] = &self.data;
        match kind {
            "scan" => {
                let (out, t) = timed("engine.scan", || scan_core::scan::<Sum, u64>(data));
                (t, Outcome::check(self.want_scan.matches(&out)))
            }
            "seg_scan" => {
                let (out, t) = timed("engine.seg_scan", || {
                    scan_core::seg_scan::<Sum, u64>(data, &self.segs)
                });
                (t, Outcome::check(self.want_seg.matches(&out)))
            }
            "pack" => {
                let (out, t) = timed("engine.pack", || ops::pack(data, &self.keep));
                (t, Outcome::check(self.want_pack.matches(&out)))
            }
            "inplace" => {
                self.warm.copy_from_slice(data);
                let warm = &mut self.warm;
                let ((), t) = timed("engine.inplace", || {
                    scan_core::scan::scan_inplace::<Sum, u64>(warm)
                });
                (t, Outcome::check(self.want_scan.matches(&self.warm)))
            }
            "checked" => {
                let (res, t) = timed("checked.call", || self.checked.checked_plus_scan(data));
                (t, outcome_of(&res, &self.want_scan))
            }
            "stream" => {
                let (t, outcome, chunks, pulls) = self.stream();
                self.stream_counts = (chunks, pulls);
                (t, outcome)
            }
            "shard" => {
                let (res, t) = timed("shard.scan", || {
                    self.shard.scan_arc(ScanKind::Sum, &self.data)
                });
                (t, outcome_of(&res, &self.want_scan))
            }
            _ => unreachable!("bulk call kinds are the ones WORKLOADS lists"),
        }
    }

    /// The baseline of `kind`, its blocks shared out among threads.
    /// `inplace`: add 1 to every element of the warm buffer in place.
    /// `stream`, which writes each output chunk into one small buffer
    /// that stays in cache: sum the array. Every other call allocates
    /// its output, so its baseline copies the array into a fresh zeroed
    /// allocation, whose pages the copy faults in; that copy is freed
    /// after the clock stops.
    fn base(&mut self, kind: &str) -> f64 {
        let data: &[u64] = &self.data;
        match kind {
            "inplace" => shared("base.bulk", self.warm.chunks_mut(BASE_BLOCK), |dst| {
                for x in dst.iter_mut() {
                    *x = x.wrapping_add(1);
                }
                black_box(dst);
            }),
            "stream" => shared("base.bulk", data.chunks(BASE_BLOCK), |src| {
                black_box(src.iter().fold(0u64, |a, &x| a.wrapping_add(x)));
            }),
            _ => {
                let mut fresh = vec![0u64; data.len()];
                let blocks = data.chunks(BASE_BLOCK).zip(fresh.chunks_mut(BASE_BLOCK));
                let t = shared("base.bulk", blocks, |(src, dst)| {
                    dst.copy_from_slice(src);
                    black_box(dst);
                });
                drop(black_box(fresh));
                t
            }
        }
    }

    /// One verified call of each of the workload's kinds, each right
    /// after its baseline.
    pub fn round(&mut self, run: &mut Run) {
        let _r = trace::span("bench.round");
        let (mut round, mut bases) = (0.0, 0.0);
        for (i, &kind) in self.kinds.iter().enumerate() {
            let base = self.base(kind);
            let (t, outcome) = self.call(kind);
            run.record(i, t, base, outcome);
            round += t;
            bases += base;
        }
        run.rounds.push(round);
        run.round_bases.push(bases);
    }
}

/// Set up workload `kinds` (several times, for `setup_s`).
pub fn setup(seed: u64, kinds: &'static [&'static str]) -> (Bulk, f64) {
    repeated_setup(|| Bulk::new(seed, N, kinds))
}

/// Working set: the array plus one output, in MiB.
pub fn working_set_mib() -> f64 {
    (N * 8 * 2) as f64 / (1 << 20) as f64
}

/// Median seconds of `reps` runs of `f`. Each result goes through
/// `black_box`, so the work cannot be optimised away, and is dropped
/// after the clock stops, so freeing it is not timed.
fn median_secs<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let t: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            let r = black_box(f());
            let t = t0.elapsed().as_secs_f64();
            drop(r);
            t
        })
        .collect();
    median(&t)
}

fn gbps(bytes: f64, secs: f64) -> f64 {
    bytes / secs / 1e9
}

/// Direct probes of the traced run, on the workload's own array. On
/// `scan`: the engine rooflines and baselines, a warm copy, a fresh
/// copy (allocate, copy, first touch) and a plain single-threaded scan
/// loop into the warm buffer. On `checked`: `verify_scan` over a scan
/// output. On `stream_shard`: the `scan` call the shard is held to.
pub fn probes(b: &mut Bulk, run: &Run, m: &mut Metrics) {
    const REPS: usize = 5;
    let bytes = b.n() as f64 * SCAN_BYTES;
    if let Some(scan) = run.median_of("scan") {
        let memcpy = median_secs(REPS, || {
            b.warm.copy_from_slice(black_box(&b.data));
            black_box(&mut b.warm);
        });
        let fresh = median_secs(REPS, || black_box(&b.data).to_vec());
        let seq = median_secs(REPS, || {
            let mut acc = 0u64;
            for (o, &x) in b.warm.iter_mut().zip(black_box(&b.data[..])) {
                *o = acc;
                acc = acc.wrapping_add(x);
            }
            black_box(&mut b.warm);
        });
        let scan = gbps(bytes, scan);
        m.set("engine.memcpy_gbps", gbps(bytes, memcpy));
        m.set("engine.fresh_gbps", gbps(bytes, fresh));
        m.set("engine.seq_scan_gbps", gbps(bytes, seq));
        m.set("engine.scan_vs_memcpy", scan / gbps(bytes, memcpy));
        m.set("engine.scan_vs_fresh", scan / gbps(bytes, fresh));
    }
    if run.median_of("checked").is_some() {
        let out = scan_core::scan::<Sum, u64>(&b.data);
        let verify = median_secs(REPS, || {
            let ok = scan_fault::verify_scan::<Sum, u64>(black_box(&b.data), black_box(&out));
            assert!(ok.is_ok(), "verify_scan rejected a correct scan");
        });
        m.set("verify.gbps", gbps(bytes, verify));
    }
    if let Some(shard) = run.median_of("shard") {
        let scan = median_secs(REPS, || scan_core::scan::<Sum, u64>(&b.data));
        m.set("shard.vs_pool", shard / scan);
    }
}

/// Per-call throughputs and layer counters of a measured phase, for
/// the calls the workload makes.
pub fn layer_metrics(b: &Bulk, run: &Run, m: &mut Metrics) {
    let n = b.n() as f64;
    let bytes = n * SCAN_BYTES;
    // pack reads values and flags and writes the kept values.
    let pack_bytes = n * 9.0 + b.want_pack.len as f64 * 8.0;
    for (kind, metric, bytes) in [
        ("scan", "engine.scan_gbps", bytes),
        ("seg_scan", "engine.seg_scan_gbps", bytes),
        ("inplace", "engine.inplace_gbps", bytes),
        ("pack", "engine.pack_gbps", pack_bytes),
        ("checked", "checked.gbps", bytes),
        ("stream", "stream.gbps", bytes),
        ("shard", "shard.gbps", bytes),
    ] {
        if let Some(t) = run.median_of(kind) {
            m.set(metric, gbps(bytes, t));
        }
    }

    if run.median_of("stream").is_some() {
        let (chunks, pulls) = b.stream_counts;
        m.set("stream.chunks", chunks as f64);
        m.set("stream.pulls", pulls as f64);
    }

    if run.median_of("checked").is_some() {
        let st = b.checked.stats();
        m.set("checked.attempts", st.attempts as f64);
        m.set("checked.detections", st.detections as f64);
        m.set("checked.retries", st.retries as f64);
        m.set("checked.fallbacks", st.fallbacks as f64);
        m.set("checked.rescues", st.rescues as f64);
    }

    if run.median_of("shard").is_some() {
        let h = b.shard.health();
        m.set("shard.runs", h.runs as f64);
        m.set("shard.losses", h.losses as f64);
        m.set("shard.recoveries", h.recoveries as f64);
        m.set("shard.inline_rescues", h.inline_rescues as f64);
        m.set("shard.degraded_runs", h.degraded_runs as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every call kind of every bulk workload, in one round.
    const ALL: &[&str] = &[
        "scan", "seg_scan", "pack", "inplace", "checked", "stream", "shard",
    ];

    #[test]
    fn the_workloads_cover_every_call_once() {
        let mut listed: Vec<&str> = WORKLOADS
            .iter()
            .flat_map(|(_, k)| k.iter().copied())
            .collect();
        listed.sort_unstable();
        let mut all = ALL.to_vec();
        all.sort_unstable();
        assert_eq!(listed, all);
    }

    #[test]
    fn a_workload_checks_its_calls_without_the_others_references() {
        for (name, kinds) in WORKLOADS {
            let mut b = Bulk::new(6, 2000, kinds);
            let mut run = Run::new(kinds);
            b.round(&mut run);
            assert_eq!(
                (run.attempted, run.failed),
                (kinds.len() as u64, 0),
                "{name}"
            );
        }
    }

    #[test]
    fn references_match_the_library_on_small_inputs() {
        let b = Bulk::new(3, 5000, ALL);
        let a: &[u64] = &b.data;
        assert!(b.want_scan.matches(&scan_core::scan::<Sum, u64>(a)));
        assert!(b
            .want_seg
            .matches(&scan_core::seg_scan::<Sum, u64>(a, &b.segs)));
        assert!(b.want_pack.matches(&ops::pack(a, &b.keep)));
        assert_eq!(b.total, a.iter().sum::<u64>());
    }

    #[test]
    fn a_round_passes_and_one_flipped_element_fails_each_check() {
        let mut b = Bulk::new(5, 3000, ALL);
        let mut run = Run::new(ALL);
        b.round(&mut run);
        assert_eq!((run.attempted, run.failed), (7, 0));
        let a: &[u64] = &b.data;
        let outputs = [
            (b.want_scan, scan_core::scan::<Sum, u64>(a)),
            (b.want_seg, scan_core::seg_scan::<Sum, u64>(a, &b.segs)),
            (b.want_pack, ops::pack(a, &b.keep)),
        ];
        for (want, out) in outputs {
            for i in [0, out.len() / 2, out.len() - 1] {
                let mut bad = out.clone();
                bad[i] ^= 1;
                assert!(!want.matches(&bad), "flip at {i} passed");
            }
        }
    }
}
