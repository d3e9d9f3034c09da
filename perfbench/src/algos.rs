//! The algorithm workloads: whole algorithms, each called through its
//! `_ctx` twin with a fresh scan-model `Ctx` and checked against a
//! sequential reference computed at set-up. `sorts` runs the radix sort
//! and quicksort, `graphs` list ranking and the minimum spanning tree.
//! Each call's baseline is a plain job on the same input, shared out
//! among the pool's width of threads (see [`Algos::base`]).

use std::hint::black_box;
use std::time::Instant;

use scan_algorithms::graph::mst::minimum_spanning_tree_ctx;
use scan_algorithms::graph::reference::kruskal;
use scan_algorithms::list_rank::{contraction_rank_ctx, random_list, rank_reference};
use scan_algorithms::sort::fused_radix::fused_radix_sort_digits_ctx;
use scan_algorithms::sort::quicksort::{quicksort_ctx, PivotRule};
use scan_pram::stats::StepKind;
use scan_pram::{Ctx, Model};

use crate::report::Metrics;
use crate::run::{repeated_setup, shared, timed, Outcome, Run};
use crate::stats::median;
use crate::{gen, trace};

/// Every algorithm, in the order of [`Algos::counts`].
pub const ALL: &[&str] = &["radix", "quicksort", "list_rank", "mst"];

/// The algorithm workloads and the algorithms each runs per round, two
/// each, so one algorithm's slowdown shows in its workload's figures.
pub const WORKLOADS: &[(&str, &[&str])] = &[
    ("sorts", &["radix", "quicksort"]),
    ("graphs", &["list_rank", "mst"]),
];

/// The algorithms of workload `name`.
pub fn kinds(name: &str) -> Option<&'static [&'static str]> {
    WORKLOADS.iter().find(|(w, _)| *w == name).map(|(_, k)| *k)
}

/// Runs in one baseline: at least one per thread, and enough of the
/// short ones that a baseline lasts about a tenth of a second or more.
fn base_runs(kind: &str) -> usize {
    match kind {
        "radix" => 2,
        "quicksort" => 64,
        "mst" => 32,
        "list_rank" => 48,
        _ => unreachable!("algorithm kinds are the ones ALL lists"),
    }
}

fn index(kind: &str) -> usize {
    ALL.iter()
        .position(|k| *k == kind)
        .expect("algorithm kinds are the ones ALL lists")
}

/// Input sizes of one workload instance.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub radix_keys: usize,
    pub quicksort_keys: usize,
    pub list_nodes: usize,
    pub graph_vertices: usize,
}

/// The benchmark's sizes.
pub const SIZES: Sizes = Sizes {
    radix_keys: 1 << 22,
    quicksort_keys: 1 << 17,
    list_nodes: 1 << 20,
    graph_vertices: 1 << 14,
};

/// Key width of the radix sort and its digit width.
const RADIX_BITS: u32 = 32;
const DIGIT_BITS: u32 = 8;
/// Nodes per block of the list-ranking baseline.
const JUMP_BLOCK: usize = 1 << 14;
/// Extra random edges per vertex on top of the spanning tree.
const EXTRA_EDGES: usize = 3;

/// Step counts of one algorithm run, read from its `Ctx`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub steps: u64,
    pub scan_ops: u64,
    pub permute_ops: u64,
    pub elementwise_ops: u64,
    /// Quicksort iterations or MST rounds; 0 for the others.
    pub loops: u64,
}

impl Counts {
    fn of(ctx: &Ctx, loops: usize) -> Self {
        let s = ctx.stats();
        Counts {
            steps: ctx.steps(),
            scan_ops: s.ops_of(StepKind::Scan) + s.ops_of(StepKind::SegScan),
            permute_ops: s.ops_of(StepKind::Permute),
            elementwise_ops: s.ops_of(StepKind::Elementwise),
            loops: loops as u64,
        }
    }
}

/// Inputs and their references; those of algorithms the workload does
/// not run are left empty.
pub struct Algos {
    kinds: &'static [&'static str],
    seed: u64,
    radix_keys: Vec<u64>,
    radix_want: Vec<u64>,
    qs_keys: Vec<u64>,
    qs_want: Vec<u64>,
    list: Vec<usize>,
    rank_want: Vec<u64>,
    vertices: usize,
    edges: Vec<(usize, usize, u64)>,
    mst_want: (Vec<usize>, u64),
    /// Counts of the first round, per algorithm of [`ALL`].
    pub counts: [Counts; 4],
}

fn sorted(keys: &[u64]) -> Vec<u64> {
    let mut v = keys.to_vec();
    v.sort_unstable();
    v
}

impl Algos {
    pub fn new(seed: u64, sizes: Sizes, kinds: &'static [&'static str]) -> Self {
        let uses = |k: &str| kinds.contains(&k);
        let mut a = Algos {
            kinds,
            seed,
            radix_keys: Vec::new(),
            radix_want: Vec::new(),
            qs_keys: Vec::new(),
            qs_want: Vec::new(),
            list: Vec::new(),
            rank_want: Vec::new(),
            vertices: 0,
            edges: Vec::new(),
            mst_want: (Vec::new(), 0),
            counts: [Counts::default(); 4],
        };
        if uses("radix") {
            a.radix_keys = gen::values(seed, 11, sizes.radix_keys, RADIX_BITS);
            a.radix_want = sorted(&a.radix_keys);
        }
        if uses("quicksort") {
            a.qs_keys = gen::values(seed, 12, sizes.quicksort_keys, 64);
            a.qs_want = sorted(&a.qs_keys);
        }
        if uses("list_rank") {
            a.list = random_list(sizes.list_nodes, seed ^ 0x1157);
            a.rank_want = rank_reference(&a.list);
        }
        if uses("mst") {
            a.vertices = sizes.graph_vertices;
            a.edges = gen::connected_graph(seed, sizes.graph_vertices, EXTRA_EDGES);
            a.mst_want = kruskal(sizes.graph_vertices, &a.edges);
        }
        a
    }

    fn radix_ok(&self, out: &[u64]) -> bool {
        out == self.radix_want
    }

    /// Sorted and a permutation of the input: equal to the sorted input.
    fn quicksort_ok(&self, out: &[u64]) -> bool {
        out == self.qs_want
    }

    fn rank_ok(&self, out: &[u64]) -> bool {
        out == self.rank_want
    }

    /// The same forest (and weight) as Kruskal's on the composite order.
    fn mst_ok(&self, edges: &[usize], weight: u64) -> bool {
        edges == self.mst_want.0 && weight == self.mst_want.1
    }

    /// One verified run of `kind` on a fresh `Ctx`, with random
    /// choices seeded by `rs`: its time, how it ended and its counts.
    fn call(&self, kind: &str, rs: u64) -> (f64, Outcome, Counts) {
        let mut ctx = Ctx::new(Model::Scan);
        match kind {
            "radix" => {
                let (out, t) = timed("algorithms.radix", || {
                    fused_radix_sort_digits_ctx(&mut ctx, &self.radix_keys, RADIX_BITS, DIGIT_BITS)
                });
                (t, Outcome::check(self.radix_ok(&out)), Counts::of(&ctx, 0))
            }
            "quicksort" => {
                let (out, t) = timed("algorithms.quicksort", || {
                    quicksort_ctx(&mut ctx, &self.qs_keys, PivotRule::Random(rs))
                });
                let ok = Outcome::check(self.quicksort_ok(&out.keys));
                (t, ok, Counts::of(&ctx, out.iterations))
            }
            "list_rank" => {
                let (out, t) = timed("algorithms.list_rank", || {
                    contraction_rank_ctx(&mut ctx, &self.list, rs)
                });
                (t, Outcome::check(self.rank_ok(&out)), Counts::of(&ctx, 0))
            }
            "mst" => {
                let (out, t) = timed("algorithms.mst", || {
                    minimum_spanning_tree_ctx(&mut ctx, self.vertices, &self.edges, rs)
                });
                let ok = Outcome::check(self.mst_ok(&out.edges, out.total_weight));
                (t, ok, Counts::of(&ctx, out.rounds))
            }
            _ => unreachable!("algorithm kinds are the ones ALL lists"),
        }
    }

    /// The baseline of `kind`, shared out among threads: `base_runs`
    /// runs of its sequential reference, except for `list_rank`, whose
    /// reference is one long pointer chase that cannot be shared out; its
    /// baseline is `base_runs` pointer-jumping reads through the list
    /// (`next[next[i]]` for every node, in blocks), the random gathers
    /// the contraction itself makes.
    fn base(&self, kind: &str) -> f64 {
        let runs = 0..base_runs(kind);
        if kind == "list_rank" {
            let next = &self.list;
            let blocks = runs.flat_map(|_| next.chunks(JUMP_BLOCK));
            return shared("base.algorithms", blocks, |block| {
                black_box(block.iter().fold(0, |acc, &j| acc ^ next[j]));
            });
        }
        shared("base.algorithms", runs, |_| match kind {
            "radix" => drop(black_box(sorted(&self.radix_keys))),
            "quicksort" => drop(black_box(sorted(&self.qs_keys))),
            "mst" => drop(black_box(kruskal(self.vertices, &self.edges))),
            _ => unreachable!("algorithm kinds are the ones ALL lists"),
        })
    }

    /// One verified run of each of the workload's algorithms, each right
    /// after its baseline. Their own random choices (pivots,
    /// contraction, coin flips) are seeded per round, so a phase's medians cover several draws of them rather
    /// than one; the step counts kept are those of the first round,
    /// which repeat exactly per seed.
    pub fn round(&mut self, run: &mut Run) {
        let _r = trace::span("bench.round");
        let first = run.rounds.is_empty();
        let rs = gen::Rng::new(self.seed, 30 + run.rounds.len() as u64).next_u64();
        let (mut round, mut bases) = (0.0, 0.0);
        for (i, &kind) in self.kinds.iter().enumerate() {
            let base = self.base(kind);
            let (t, outcome, counts) = self.call(kind, rs);
            run.record(i, t, base, outcome);
            if first {
                self.counts[index(kind)] = counts;
            }
            round += t;
            bases += base;
        }
        run.rounds.push(round);
        run.round_bases.push(bases);
    }
}

/// Set up workload `kinds` (several times, for `setup_s`).
pub fn setup(seed: u64, kinds: &'static [&'static str]) -> (Algos, f64) {
    repeated_setup(|| Algos::new(seed, SIZES, kinds))
}

/// Working set of the largest input and its sorted copies, in MiB.
pub fn working_set_mib(kinds: &[&str]) -> f64 {
    let elems = if kinds.contains(&"radix") {
        SIZES.radix_keys
    } else {
        SIZES.list_nodes
    };
    (elems * 8 * 3) as f64 / (1 << 20) as f64
}

/// One 8-bit `multi_split_by` pass over the radix keys, as GB/s of
/// keys read and written (median of several passes); only where the
/// workload sorts them.
pub fn multi_split_probe(a: &Algos, m: &mut Metrics) {
    const REPS: usize = 7;
    if a.radix_keys.is_empty() {
        return;
    }
    let keys = &a.radix_keys;
    let t: Vec<f64> = (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            let out = scan_core::multi_split_by(black_box(keys), 256, |k| (k & 0xff) as usize);
            let t = t0.elapsed().as_secs_f64();
            black_box(out);
            t
        })
        .collect();
    m.set(
        "multi_split.pass_gbps",
        keys.len() as f64 * 16.0 / median(&t) / 1e9,
    );
}

pub fn layer_metrics(a: &Algos, run: &Run, m: &mut Metrics) {
    // (rate metric, input elements, counts metrics, loop-count metric)
    let names: [(&str, usize, [&str; 4], &str); 4] = [
        (
            "radix.mkeys_per_s",
            a.radix_keys.len(),
            [
                "radix.steps",
                "radix.scan_ops",
                "radix.permute_ops",
                "radix.elementwise_ops",
            ],
            "",
        ),
        (
            "quicksort.mkeys_per_s",
            a.qs_keys.len(),
            [
                "quicksort.steps",
                "quicksort.scan_ops",
                "quicksort.permute_ops",
                "quicksort.elementwise_ops",
            ],
            "quicksort.iterations",
        ),
        (
            "list_rank.mnodes_per_s",
            a.list.len(),
            [
                "list_rank.steps",
                "list_rank.scan_ops",
                "list_rank.permute_ops",
                "list_rank.elementwise_ops",
            ],
            "",
        ),
        (
            "mst.medges_per_s",
            a.edges.len(),
            [
                "mst.steps",
                "mst.scan_ops",
                "mst.permute_ops",
                "mst.elementwise_ops",
            ],
            "mst.rounds",
        ),
    ];
    for (kind, (rate, n, counts, loops)) in ALL.iter().zip(names) {
        let Some(t) = run.median_of(kind) else {
            continue;
        };
        let c = a.counts[index(kind)];
        m.set(rate, n as f64 / t / 1e6);
        for (name, v) in
            counts
                .into_iter()
                .zip([c.steps, c.scan_ops, c.permute_ops, c.elementwise_ops])
        {
            m.set(name, v as f64);
        }
        if !loops.is_empty() {
            m.set(loops, c.loops as f64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: Sizes = Sizes {
        radix_keys: 4096,
        quicksort_keys: 2048,
        list_nodes: 4096,
        graph_vertices: 256,
    };

    #[test]
    fn a_round_passes_and_repeats_its_counts() {
        let mut a = Algos::new(9, SMALL, ALL);
        let mut run = Run::new(ALL);
        a.round(&mut run);
        a.round(&mut run);
        assert_eq!((run.attempted, run.failed), (8, 0));
        let first = a.counts;
        let mut again = Run::new(ALL);
        a.round(&mut again);
        assert_eq!(first, a.counts, "step counts must repeat exactly per seed");
        assert!(a.counts.iter().all(|c| c.steps > 0 && c.scan_ops > 0));
    }

    #[test]
    fn each_workload_runs_only_its_algorithms() {
        for (name, kinds) in WORKLOADS {
            let mut a = Algos::new(9, SMALL, kinds);
            let mut run = Run::new(kinds);
            a.round(&mut run);
            assert_eq!((run.attempted, run.failed), (2, 0), "{name}");
            for (k, kind) in ALL.iter().enumerate() {
                assert_eq!(a.counts[k].steps > 0, kinds.contains(kind), "{name} {kind}");
            }
        }
    }

    #[test]
    fn each_check_rejects_one_flipped_element() {
        let a = Algos::new(4, SMALL, ALL);
        let flip = |v: &[u64]| {
            let mut bad = v.to_vec();
            bad[v.len() / 2] ^= 1;
            bad
        };
        let mut ctx = Ctx::new(Model::Scan);
        let radix = fused_radix_sort_digits_ctx(&mut ctx, &a.radix_keys, RADIX_BITS, DIGIT_BITS);
        assert!(a.radix_ok(&radix) && !a.radix_ok(&flip(&radix)));
        let qs = quicksort_ctx(&mut ctx, &a.qs_keys, PivotRule::Random(1)).keys;
        assert!(a.quicksort_ok(&qs) && !a.quicksort_ok(&flip(&qs)));
        let rank = contraction_rank_ctx(&mut ctx, &a.list, 2);
        assert!(a.rank_ok(&rank) && !a.rank_ok(&flip(&rank)));
        let r = minimum_spanning_tree_ctx(&mut ctx, a.vertices, &a.edges, 3);
        assert!(a.mst_ok(&r.edges, r.total_weight));
        let mut bad = r.edges.clone();
        bad[0] ^= 1;
        assert!(!a.mst_ok(&bad, r.total_weight));
        assert!(!a.mst_ok(&r.edges, r.total_weight ^ 1));
    }
}
