//! Deterministic chaos suite for the sharded executor.
//!
//! Every scenario is driven by a seeded [`ChaosPlan`] delivered
//! through the shard job stream ([`ChaosPlan::shard_event_for`]), so
//! the whole failure/recovery schedule replays identically: which job
//! is killed, delayed, or corrupted depends only on the plan's periods
//! and the executor's job counter.

use std::time::Duration;

use scan_core::{Max, Segments, Sum};
use scan_fault::{BreakerConfig, BreakerState, ChaosPlan};
use scan_shard::{
    LossCause, RecoveryPolicy, ScanKind, ShardConfig, ShardError, ShardHealth, ShardedExecutor,
};

fn data(n: usize) -> Vec<u64> {
    (0..n as u64).map(|i| (i * 131 + 17) % 509).collect()
}

fn cfg(shards: usize, chaos: ChaosPlan) -> ShardConfig {
    ShardConfig {
        shards,
        chaos: Some(chaos),
        ..ShardConfig::default()
    }
}

/// A shard killed mid-scan under `Recover`: its ranges are re-executed
/// on survivors (or inline once everyone is dead) and the output stays
/// bit-equal to the single-pool kernel.
#[test]
fn killed_shard_recovers_bit_equal() {
    let plan = ChaosPlan {
        shard_kill_every: 2,
        ..ChaosPlan::quiet(7)
    };
    let ex = ShardedExecutor::new(cfg(3, plan));
    let a = data(1000);
    let want = scan_core::scan::<Sum, _>(&a);
    assert_eq!(ex.scan(ScanKind::Sum, &a).unwrap(), want);
    let h = ex.health();
    assert!(h.losses >= 1, "kill must register as a loss: {h:?}");
    assert!(
        h.recoveries + h.inline_rescues >= 1,
        "lost ranges must be re-executed: {h:?}"
    );
    assert!(
        h.shards.iter().any(|s| s.disconnects >= 1),
        "a killed shard is observed as disconnected: {h:?}"
    );
    // Later runs keep serving correct answers no matter how many
    // shards the plan has taken down by now.
    assert_eq!(ex.scan(ScanKind::Sum, &a).unwrap(), want);
}

/// A stalled shard trips the watchdog, is declared lost, and its range
/// is computed by the trusted inline path.
#[test]
fn stalled_shard_trips_watchdog() {
    let plan = ChaosPlan {
        shard_delay_every: 1,
        delay_us: 100_000,
        ..ChaosPlan::quiet(11)
    };
    let ex = ShardedExecutor::new(ShardConfig {
        watchdog: Duration::from_millis(10),
        reexec_retries: 1,
        ..cfg(2, plan)
    });
    let a = data(300);
    assert_eq!(ex.scan(ScanKind::Sum, &a).unwrap(), scan_core::scan::<Sum, _>(&a));
    let h = ex.health();
    assert!(
        h.shards.iter().any(|s| s.watchdog_losses >= 1),
        "stall must be seen as a watchdog loss: {h:?}"
    );
    assert!(h.inline_rescues >= 1, "{h:?}");
}

/// A lying shard (corrupted carry, then corrupted output) is caught by
/// the verification pass, fixed in place, quarantined by its breaker,
/// and readmitted through a clean probation probe. Output is bit-equal
/// on every run throughout.
#[test]
fn lying_shard_is_quarantined_then_probed_back() {
    let plan = ChaosPlan {
        carry_corrupt_every: 5,
        ..ChaosPlan::quiet(13)
    };
    let ex = ShardedExecutor::new(ShardConfig {
        breaker: BreakerConfig {
            failure_threshold: 1,
            base_quarantine: 2,
            jitter: 0,
            ..BreakerConfig::default()
        },
        ..cfg(2, plan)
    });
    let a = data(200);
    let want = scan_core::scan::<Sum, _>(&a);
    let seg_heads: Vec<bool> = (0..a.len()).map(|i| i % 23 == 4).collect();
    let seg_want = scan_core::seg_scan::<Sum, u64>(&a, &Segments::from_flags(seg_heads.clone()));

    // Readmission = a shard observed Open at one snapshot and Closed
    // at a later one, having served at least one probation probe in
    // between.
    let mut was_open = [false; 2];
    let mut saw_quarantine = false;
    let mut saw_readmission = false;
    for run in 0..30 {
        // Alternate flat and segmented so both kernels face the liar.
        if run % 2 == 0 {
            assert_eq!(ex.scan(ScanKind::Sum, &a).unwrap(), want, "run {run}");
        } else {
            assert_eq!(
                ex.seg_scan(ScanKind::Sum, &a, &seg_heads).unwrap(),
                seg_want,
                "run {run}"
            );
        }
        let h = ex.health();
        for (i, s) in h.shards.iter().enumerate() {
            match s.state {
                BreakerState::Open { .. } => {
                    saw_quarantine = true;
                    was_open[i] = true;
                }
                BreakerState::Closed => {
                    if was_open[i] && s.probes >= 1 {
                        saw_readmission = true;
                    }
                }
            }
        }
        if saw_quarantine && saw_readmission {
            break;
        }
    }
    let h = ex.health();
    assert!(saw_quarantine, "a lie must open the liar's breaker: {h:?}");
    assert!(
        saw_readmission,
        "a clean probe must reclose the breaker: {h:?}"
    );
    assert!(h.shards.iter().map(|s| s.lies).sum::<u64>() >= 1, "{h:?}");
    assert!(
        h.inline_rescues >= 1,
        "lie fixups are counted as inline rescues: {h:?}"
    );
    assert!(
        h.shards.iter().all(|s| s.alive),
        "lying shards are quarantined, not killed: {h:?}"
    );
}

/// When the plan kills every shard, the executor finishes the first
/// run inline and then degrades to the single-pool kernels — still
/// bit-equal, with the degradation visible in the health snapshot.
#[test]
fn total_shard_loss_degrades_gracefully() {
    let plan = ChaosPlan {
        shard_kill_every: 1,
        ..ChaosPlan::quiet(17)
    };
    let ex = ShardedExecutor::new(cfg(2, plan));
    let a = data(400);
    let want = scan_core::scan::<Max, _>(&a);
    assert_eq!(ex.scan(ScanKind::Max, &a).unwrap(), want);
    assert_eq!(ex.scan(ScanKind::Max, &a).unwrap(), want);
    let h = ex.health();
    assert!(h.shards.iter().all(|s| !s.alive), "{h:?}");
    assert!(h.inline_rescues >= 2, "{h:?}");
    assert!(h.degraded_runs >= 1, "{h:?}");
    assert_eq!(h.runs, 2);
}

/// Under `RecoveryPolicy::Fail` the first loss surfaces as a typed
/// error instead of being recovered.
#[test]
fn fail_policy_surfaces_typed_losses() {
    // Killed shard → channel closes → Disconnected.
    let ex = ShardedExecutor::new(ShardConfig {
        policy: RecoveryPolicy::Fail,
        ..cfg(
            2,
            ChaosPlan {
                shard_kill_every: 1,
                ..ChaosPlan::quiet(19)
            },
        )
    });
    let a = data(100);
    assert_eq!(
        ex.scan(ScanKind::Sum, &a),
        Err(ShardError::ShardLost {
            shard: 0,
            cause: LossCause::Disconnected,
        })
    );

    // Stalled shard → Watchdog.
    let ex = ShardedExecutor::new(ShardConfig {
        policy: RecoveryPolicy::Fail,
        watchdog: Duration::from_millis(10),
        ..cfg(
            2,
            ChaosPlan {
                shard_delay_every: 1,
                delay_us: 100_000,
                ..ChaosPlan::quiet(19)
            },
        )
    });
    assert_eq!(
        ex.scan(ScanKind::Sum, &a),
        Err(ShardError::ShardLost {
            shard: 0,
            cause: LossCause::Watchdog,
        })
    );

    // Lying shard → Lied (caught by the verify pass).
    let ex = ShardedExecutor::new(ShardConfig {
        policy: RecoveryPolicy::Fail,
        ..cfg(
            2,
            ChaosPlan {
                carry_corrupt_every: 1,
                ..ChaosPlan::quiet(19)
            },
        )
    });
    assert_eq!(
        ex.scan(ScanKind::Sum, &a),
        Err(ShardError::ShardLost {
            shard: 0,
            cause: LossCause::Lied,
        })
    );
}

/// Below the `min_live` floor the run degrades under `Recover` and
/// fails typed under `Fail`.
#[test]
fn min_live_floor_controls_degradation() {
    let a = data(50);
    let want = scan_core::scan::<Sum, _>(&a);

    let ex = ShardedExecutor::new(ShardConfig {
        shards: 1,
        min_live: 2,
        ..ShardConfig::default()
    });
    assert_eq!(ex.scan(ScanKind::Sum, &a).unwrap(), want);
    let h = ex.health();
    assert_eq!(h.degraded_runs, 1, "{h:?}");

    let ex = ShardedExecutor::new(ShardConfig {
        shards: 1,
        min_live: 2,
        policy: RecoveryPolicy::Fail,
        ..ShardConfig::default()
    });
    assert_eq!(
        ex.scan(ScanKind::Sum, &a),
        Err(ShardError::Degraded { live: 1, need: 2 })
    );
}

/// The chaos schedule is a pure function of the plan and the job
/// counter: two executors with identical configs observe identical
/// histories.
#[test]
fn chaos_schedule_replays_identically() {
    let mk = || {
        ShardedExecutor::new(ShardConfig {
            watchdog: Duration::from_millis(25),
            ..cfg(
                3,
                ChaosPlan {
                    shard_kill_every: 7,
                    carry_corrupt_every: 5,
                    shard_delay_every: 3,
                    delay_us: 1,
                    ..ChaosPlan::quiet(23)
                },
            )
        })
    };
    let (ex1, ex2) = (mk(), mk());
    let a = data(600);
    for _ in 0..4 {
        let r1 = ex1.scan(ScanKind::Sum, &a);
        let r2 = ex2.scan(ScanKind::Sum, &a);
        assert_eq!(r1, r2);
        assert_eq!(r1.unwrap(), scan_core::scan::<Sum, _>(&a));
    }
    let (h1, h2) = (ex1.health(), ex2.health());
    assert_eq!(h1, h2, "replay must produce identical health");
    assert!(h1.losses >= 1);
}

/// Breaker states reported by `health()` are the real gate: a
/// quarantined shard shows `Open` and is skipped until its clock
/// comes up.
#[test]
fn health_reports_breaker_state() {
    let ex = ShardedExecutor::new(ShardConfig {
        breaker: BreakerConfig {
            failure_threshold: 1,
            base_quarantine: 1000,
            jitter: 0,
            ..BreakerConfig::default()
        },
        ..cfg(
            3,
            ChaosPlan {
                carry_corrupt_every: 2,
                ..ChaosPlan::quiet(29)
            },
        )
    });
    let a = data(90);
    let want = scan_core::scan::<Sum, _>(&a);
    for _ in 0..4 {
        assert_eq!(ex.scan(ScanKind::Sum, &a).unwrap(), want);
    }
    let h = ex.health();
    assert!(h.quarantined() >= 1, "{h:?}");
    assert!(h
        .shards
        .iter()
        .any(|s| matches!(s.state, BreakerState::Open { .. }) && s.skipped >= 1),
        "{h:?}");
}

/// Elements of the large-n grid: every shard's range spans several
/// 2^16-element blocks, and the tail leaves a short block.
const BIG: usize = 3 * (1 << 16) + 17;

/// Heads at every range start of a 1-, 2- and 3-shard partition (the
/// live shard count changes as chaos takes shards out), at every 2^16
/// boundary, and every 37 elements.
fn big_heads() -> Vec<bool> {
    let mut heads: Vec<bool> = (0..BIG)
        .map(|i| i % 37 == 0 || i % (1 << 16) == 0)
        .collect();
    for k in 1..=3 {
        let (base, extra) = (BIG / k, BIG % k);
        let mut start = 0;
        for i in 0..k {
            heads[start] = true;
            start += base + usize::from(i < extra);
        }
    }
    heads
}

/// Every counter of a health snapshot on one line: the run-wide
/// `(runs, degraded_runs, losses, recoveries, inline_rescues)`, then
/// per shard `(served, lies, panics, watchdog_losses, disconnects,
/// quarantines, probes, skipped, alive)` and its breaker state.
fn fingerprint(h: &ShardHealth) -> String {
    let mut s = format!(
        "{:?}",
        (
            h.runs,
            h.degraded_runs,
            h.losses,
            h.recoveries,
            h.inline_rescues
        )
    );
    for sh in &h.shards {
        s += &format!(
            " {:?} {:?}",
            (
                sh.served,
                sh.lies,
                sh.panics,
                sh.watchdog_losses,
                sh.disconnects,
                sh.quarantines,
                sh.probes,
                sh.skipped,
                sh.alive,
            ),
            sh.state
        );
    }
    s
}

/// Four runs (alternating `+` and `max`) of every cell of the grid
/// shards {1, 2, 3} x `threads_per_shard` {1, 2} x {flat, segmented}
/// under `plan`, each checked against the single-pool kernels. Returns
/// one `"<shards>x<threads> <flat|seg> <fingerprint>"` line per cell.
fn large_n_grid(plan: ChaosPlan, watchdog: Duration) -> Vec<String> {
    let a = data(BIG);
    let heads = big_heads();
    let segs = Segments::from_flags(heads.clone());
    let mut lines = Vec::new();
    for shards in 1..=3 {
        for threads_per_shard in 1..=2 {
            for seg in [false, true] {
                let ex = ShardedExecutor::new(ShardConfig {
                    threads_per_shard,
                    watchdog,
                    breaker: BreakerConfig {
                        failure_threshold: 1,
                        base_quarantine: 2,
                        jitter: 0,
                        ..BreakerConfig::default()
                    },
                    ..cfg(shards, plan)
                });
                for run in 0..4 {
                    let (kind, got, want) = match (run % 2 == 0, seg) {
                        (true, false) => (
                            ScanKind::Sum,
                            ex.scan(ScanKind::Sum, &a),
                            scan_core::scan::<Sum, _>(&a),
                        ),
                        (false, false) => (
                            ScanKind::Max,
                            ex.scan(ScanKind::Max, &a),
                            scan_core::scan::<Max, _>(&a),
                        ),
                        (true, true) => (
                            ScanKind::Sum,
                            ex.seg_scan(ScanKind::Sum, &a, &heads),
                            scan_core::seg_scan::<Sum, u64>(&a, &segs),
                        ),
                        (false, true) => (
                            ScanKind::Max,
                            ex.seg_scan(ScanKind::Max, &a, &heads),
                            scan_core::seg_scan::<Max, u64>(&a, &segs),
                        ),
                    };
                    assert!(
                        got.as_ref() == Ok(&want),
                        "{shards}x{threads_per_shard} seg={seg} run {run} {kind:?}: wrong output"
                    );
                }
                let tag = if seg { "seg" } else { "flat" };
                lines.push(format!(
                    "{shards}x{threads_per_shard} {tag} {}",
                    fingerprint(&ex.health())
                ));
            }
        }
    }
    lines
}

fn assert_golden(got: &[String], want: &[&str]) {
    for (g, w) in got.iter().zip(want) {
        assert_eq!(g, w);
    }
    assert_eq!(got.len(), want.len(), "{got:#?}");
}

/// Lying shards at large n: every lie is caught, repaired and blamed
/// exactly as recorded.
#[test]
fn large_n_lies_keep_golden_health() {
    let plan = ChaosPlan {
        carry_corrupt_every: 3,
        ..ChaosPlan::quiet(31)
    };
    let got = large_n_grid(plan, Duration::from_secs(5));
    assert_golden(&got, GOLDEN_LIES);
}

/// Killed shards at large n, down to inline rescues and degraded runs.
#[test]
fn large_n_kills_keep_golden_health() {
    let plan = ChaosPlan {
        shard_kill_every: 4,
        ..ChaosPlan::quiet(37)
    };
    let got = large_n_grid(plan, Duration::from_secs(5));
    assert_golden(&got, GOLDEN_KILLS);
}

/// Stalled shards at large n. A delayed job sleeps 300 ms against a
/// 200 ms watchdog, so it is always lost; a job queued behind that
/// sleep is issued at least one watchdog later and so waits at most
/// 100 ms plus its own work, well inside the watchdog.
#[test]
fn large_n_stalls_keep_golden_health() {
    let plan = ChaosPlan {
        shard_delay_every: 5,
        delay_us: 300_000,
        ..ChaosPlan::quiet(41)
    };
    let got = large_n_grid(plan, Duration::from_millis(200));
    assert_golden(&got, GOLDEN_STALLS);
}

const GOLDEN_LIES: &[&str] = &[
    "1x1 flat (4, 1, 2, 0, 1) (6, 2, 0, 0, 0, 2, 1, 1, true) Open { until: 8, backoff: 4 }",
    "1x1 seg (4, 1, 2, 0, 1) (6, 2, 0, 0, 0, 2, 1, 1, true) Open { until: 8, backoff: 4 }",
    "1x2 flat (4, 1, 2, 0, 1) (6, 2, 0, 0, 0, 2, 1, 1, true) Open { until: 8, backoff: 4 }",
    "1x2 seg (4, 1, 2, 0, 1) (6, 2, 0, 0, 0, 2, 1, 1, true) Open { until: 8, backoff: 4 }",
    "2x1 flat (4, 0, 3, 0, 3) (6, 2, 0, 0, 0, 2, 1, 1, true) Open { until: 6, backoff: 2 } (6, 1, 0, 0, 0, 1, 1, 1, true) Closed",
    "2x1 seg (4, 0, 3, 0, 3) (6, 2, 0, 0, 0, 2, 1, 1, true) Open { until: 6, backoff: 2 } (6, 1, 0, 0, 0, 1, 1, 1, true) Closed",
    "2x2 flat (4, 0, 3, 0, 3) (6, 2, 0, 0, 0, 2, 1, 1, true) Open { until: 6, backoff: 2 } (6, 1, 0, 0, 0, 1, 1, 1, true) Closed",
    "2x2 seg (4, 0, 3, 0, 3) (6, 2, 0, 0, 0, 2, 1, 1, true) Open { until: 6, backoff: 2 } (6, 1, 0, 0, 0, 1, 1, 1, true) Closed",
    "3x1 flat (4, 0, 4, 0, 3) (6, 1, 0, 0, 0, 1, 1, 1, true) Closed (6, 1, 0, 0, 0, 1, 0, 1, true) Open { until: 5, backoff: 2 } (2, 2, 0, 0, 0, 2, 0, 3, true) Open { until: 5, backoff: 4 }",
    "3x1 seg (4, 0, 4, 0, 3) (6, 1, 0, 0, 0, 1, 1, 1, true) Closed (6, 1, 0, 0, 0, 1, 0, 1, true) Open { until: 5, backoff: 2 } (2, 2, 0, 0, 0, 2, 0, 3, true) Open { until: 5, backoff: 4 }",
    "3x2 flat (4, 0, 4, 0, 3) (6, 1, 0, 0, 0, 1, 1, 1, true) Closed (6, 1, 0, 0, 0, 1, 0, 1, true) Open { until: 5, backoff: 2 } (2, 2, 0, 0, 0, 2, 0, 3, true) Open { until: 5, backoff: 4 }",
    "3x2 seg (4, 0, 4, 0, 3) (6, 1, 0, 0, 0, 1, 1, 1, true) Closed (6, 1, 0, 0, 0, 1, 0, 1, true) Open { until: 5, backoff: 2 } (2, 2, 0, 0, 0, 2, 0, 3, true) Open { until: 5, backoff: 4 }",
];
const GOLDEN_KILLS: &[&str] = &[
    "1x1 flat (4, 2, 1, 0, 1) (3, 0, 0, 0, 1, 1, 0, 0, false) Open { until: 4, backoff: 2 }",
    "1x1 seg (4, 2, 1, 0, 1) (3, 0, 0, 0, 1, 1, 0, 0, false) Open { until: 4, backoff: 2 }",
    "1x2 flat (4, 2, 1, 0, 1) (3, 0, 0, 0, 1, 1, 0, 0, false) Open { until: 4, backoff: 2 }",
    "1x2 seg (4, 2, 1, 0, 1) (3, 0, 0, 0, 1, 1, 0, 0, false) Open { until: 4, backoff: 2 }",
    "2x1 flat (4, 1, 2, 1, 2) (5, 0, 0, 0, 1, 1, 0, 0, false) Open { until: 5, backoff: 2 } (1, 0, 0, 0, 1, 1, 0, 0, false) Open { until: 3, backoff: 2 }",
    "2x1 seg (4, 1, 2, 1, 2) (5, 0, 0, 0, 1, 1, 0, 0, false) Open { until: 5, backoff: 2 } (1, 0, 0, 0, 1, 1, 0, 0, false) Open { until: 3, backoff: 2 }",
    "2x2 flat (4, 1, 2, 1, 2) (5, 0, 0, 0, 1, 1, 0, 0, false) Open { until: 5, backoff: 2 } (1, 0, 0, 0, 1, 1, 0, 0, false) Open { until: 3, backoff: 2 }",
    "2x2 seg (4, 1, 2, 1, 2) (5, 0, 0, 0, 1, 1, 0, 0, false) Open { until: 5, backoff: 2 } (1, 0, 0, 0, 1, 1, 0, 0, false) Open { until: 3, backoff: 2 }",
    "3x1 flat (4, 2, 3, 2, 1) (1, 0, 0, 0, 1, 1, 0, 0, false) Open { until: 3, backoff: 2 } (2, 0, 0, 0, 1, 1, 0, 0, false) Open { until: 4, backoff: 2 } (6, 0, 0, 0, 1, 1, 0, 0, false) Open { until: 4, backoff: 2 }",
    "3x1 seg (4, 2, 3, 2, 1) (1, 0, 0, 0, 1, 1, 0, 0, false) Open { until: 3, backoff: 2 } (2, 0, 0, 0, 1, 1, 0, 0, false) Open { until: 4, backoff: 2 } (6, 0, 0, 0, 1, 1, 0, 0, false) Open { until: 4, backoff: 2 }",
    "3x2 flat (4, 2, 3, 2, 1) (1, 0, 0, 0, 1, 1, 0, 0, false) Open { until: 3, backoff: 2 } (2, 0, 0, 0, 1, 1, 0, 0, false) Open { until: 4, backoff: 2 } (6, 0, 0, 0, 1, 1, 0, 0, false) Open { until: 4, backoff: 2 }",
    "3x2 seg (4, 2, 3, 2, 1) (1, 0, 0, 0, 1, 1, 0, 0, false) Open { until: 3, backoff: 2 } (2, 0, 0, 0, 1, 1, 0, 0, false) Open { until: 4, backoff: 2 } (6, 0, 0, 0, 1, 1, 0, 0, false) Open { until: 4, backoff: 2 }",
];
const GOLDEN_STALLS: &[&str] = &[
    "1x1 flat (4, 1, 1, 0, 2) (4, 0, 0, 1, 0, 1, 0, 1, true) Open { until: 5, backoff: 2 }",
    "1x1 seg (4, 1, 1, 0, 2) (4, 0, 0, 1, 0, 1, 0, 1, true) Open { until: 5, backoff: 2 }",
    "1x2 flat (4, 1, 1, 0, 2) (4, 0, 0, 1, 0, 1, 0, 1, true) Open { until: 5, backoff: 2 }",
    "1x2 seg (4, 1, 1, 0, 2) (4, 0, 0, 1, 0, 1, 0, 1, true) Open { until: 5, backoff: 2 }",
    "2x1 flat (4, 0, 2, 2, 2) (4, 0, 0, 1, 0, 1, 1, 1, true) Closed (6, 0, 0, 1, 0, 1, 0, 1, true) Open { until: 5, backoff: 2 }",
    "2x1 seg (4, 0, 2, 2, 2) (4, 0, 0, 1, 0, 1, 1, 1, true) Closed (6, 0, 0, 1, 0, 1, 0, 1, true) Open { until: 5, backoff: 2 }",
    "2x2 flat (4, 0, 2, 2, 2) (4, 0, 0, 1, 0, 1, 1, 1, true) Closed (6, 0, 0, 1, 0, 1, 0, 1, true) Open { until: 5, backoff: 2 }",
    "2x2 seg (4, 0, 2, 2, 2) (4, 0, 0, 1, 0, 1, 1, 1, true) Closed (6, 0, 0, 1, 0, 1, 0, 1, true) Open { until: 5, backoff: 2 }",
    "3x1 flat (4, 0, 4, 4, 0) (5, 0, 0, 2, 0, 2, 1, 1, true) Open { until: 8, backoff: 4 } (2, 0, 0, 2, 0, 2, 1, 2, true) Open { until: 7, backoff: 4 } (11, 0, 0, 0, 0, 0, 0, 0, true) Closed",
    "3x1 seg (4, 0, 4, 4, 0) (5, 0, 0, 2, 0, 2, 1, 1, true) Open { until: 8, backoff: 4 } (2, 0, 0, 2, 0, 2, 1, 2, true) Open { until: 7, backoff: 4 } (11, 0, 0, 0, 0, 0, 0, 0, true) Closed",
    "3x2 flat (4, 0, 4, 4, 0) (5, 0, 0, 2, 0, 2, 1, 1, true) Open { until: 8, backoff: 4 } (2, 0, 0, 2, 0, 2, 1, 2, true) Open { until: 7, backoff: 4 } (11, 0, 0, 0, 0, 0, 0, 0, true) Closed",
    "3x2 seg (4, 0, 4, 4, 0) (5, 0, 0, 2, 0, 2, 1, 1, true) Open { until: 8, backoff: 4 } (2, 0, 0, 2, 0, 2, 1, 2, true) Open { until: 7, backoff: 4 } (11, 0, 0, 0, 0, 0, 0, 0, true) Closed",
];
