//! What every workload shares: timed calls, per-kind samples, rounds,
//! baselines, repeated set-up, and the summaries the end-to-end metrics
//! read.
//!
//! Every measured call is paired with a baseline: a plain job of the
//! same shape, written in the benchmark, run on the pool's width of
//! threads just before the call. A shared host speeds up and slows down
//! by tens of percent from one run to the next; the call and its
//! baseline, a few milliseconds apart, see the same host, so the ratio
//! of the two moves with the program and hardly with the host.

use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

use crate::report::Metrics;
use crate::stats::{geomean, median};
use crate::trace;

/// How one verified call ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The output matched its reference.
    Ok,
    /// The call returned an error (or was shed or expired).
    Error,
    /// The call returned an output that differs from its reference.
    Wrong,
}

impl Outcome {
    pub fn check(matches: bool) -> Self {
        if matches {
            Outcome::Ok
        } else {
            Outcome::Wrong
        }
    }
}

/// Samples of one measured phase of a workload.
#[derive(Debug, Clone)]
pub struct Run {
    pub kinds: &'static [&'static str],
    /// Call times in seconds, per kind.
    pub samples: Vec<Vec<f64>>,
    /// Baseline times in seconds, per kind, paired with `samples`.
    pub bases: Vec<Vec<f64>>,
    /// Round times in seconds.
    pub rounds: Vec<f64>,
    /// Summed baseline times of each round, paired with `rounds`.
    pub round_bases: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub wrong: u64,
}

impl Run {
    pub fn new(kinds: &'static [&'static str]) -> Self {
        Run {
            kinds,
            samples: vec![Vec::new(); kinds.len()],
            bases: vec![Vec::new(); kinds.len()],
            rounds: Vec::new(),
            round_bases: Vec::new(),
            attempted: 0,
            failed: 0,
            wrong: 0,
        }
    }

    /// Record one call of kind `kind` that took `secs`, against a
    /// baseline that took `base`.
    pub fn record(&mut self, kind: usize, secs: f64, base: f64, outcome: Outcome) {
        self.samples[kind].push(secs);
        self.bases[kind].push(base);
        self.attempted += 1;
        match outcome {
            Outcome::Ok => {}
            Outcome::Error => self.failed += 1,
            Outcome::Wrong => {
                self.failed += 1;
                self.wrong += 1;
            }
        }
    }

    /// Median call time of `kind` in seconds, if this workload calls it.
    pub fn median_of(&self, kind: &str) -> Option<f64> {
        let i = self.kinds.iter().position(|k| *k == kind)?;
        Some(median(&self.samples[i]))
    }

    /// Add another phase's samples of the same kinds to this one.
    pub fn absorb(&mut self, other: Run) {
        for (mine, theirs) in self.samples.iter_mut().zip(other.samples) {
            mine.extend(theirs);
        }
        for (mine, theirs) in self.bases.iter_mut().zip(other.bases) {
            mine.extend(theirs);
        }
        self.rounds.extend(other.rounds);
        self.round_bases.extend(other.round_bases);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
    }

    pub fn median_round(&self) -> f64 {
        median(&self.rounds)
    }

    /// Median over rounds of a round's time over its baselines' time.
    pub fn round_vs_base(&self) -> f64 {
        median(&ratios(&self.rounds, &self.round_bases))
    }

    /// Geometric mean over kinds of each kind's median ratio of a call's
    /// time to its baseline's.
    pub fn call_vs_base(&self) -> f64 {
        let meds: Vec<f64> = self
            .samples
            .iter()
            .zip(&self.bases)
            .filter(|(s, _)| !s.is_empty())
            .map(|(s, b)| median(&ratios(s, b)))
            .collect();
        geomean(&meds)
    }

    /// The end-to-end metrics this phase measured. The raw times they
    /// are made of are printed above the result line.
    pub fn end_to_end(&self, m: &mut Metrics) {
        println!("# per kind: median call ms, median baseline ms, median call/baseline");
        for ((kind, s), b) in self.kinds.iter().zip(&self.samples).zip(&self.bases) {
            println!(
                "#   {kind:<10} {:>12.4} {:>12.4} {:>10.4}",
                median(s) * 1e3,
                median(b) * 1e3,
                median(&ratios(s, b))
            );
        }
        println!(
            "# rounds: {}, median round {:.4} s, median baselines {:.4} s",
            self.rounds.len(),
            self.median_round(),
            median(&self.round_bases)
        );
        m.set("round_vs_base", self.round_vs_base());
        m.set("call_vs_base", self.call_vs_base());
    }
}

fn ratios(xs: &[f64], bases: &[f64]) -> Vec<f64> {
    xs.iter().zip(bases).map(|(x, b)| x / b).collect()
}

/// Wall time in seconds of running `job` on every item of `items`,
/// inside a span named `name`, on the pool's width of threads that
/// claim the items one at a time (the calling thread is one of them).
/// The baselines run this way, so they load the host as the pool does
/// and, like the pool, let a thread that gets more of the host take
/// more of the work.
pub fn shared<T: Send>(
    name: &'static str,
    items: impl Iterator<Item = T> + Send,
    job: impl Fn(T) + Sync,
) -> f64 {
    let _s = trace::span(name);
    let items = Mutex::new(items);
    let work = || loop {
        let next = items.lock().unwrap_or_else(PoisonError::into_inner).next();
        match next {
            Some(item) => job(item),
            None => break,
        }
    };
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for _ in 1..scan_core::pool::global().threads() {
            s.spawn(work);
        }
        work();
    });
    t0.elapsed().as_secs_f64()
}

/// Run `f` inside a span named `name` and return its result and
/// wall time in seconds.
pub fn timed<R>(name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
    let _s = trace::span(name);
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

/// Fewest set-ups per run, and the time to keep repeating them for.
const SETUP_MIN_REPS: usize = 3;
const SETUP_MAX_REPS: usize = 50;
const SETUP_MIN_TOTAL: Duration = Duration::from_secs(1);

/// Build the workload state several times, dropping each before the
/// next so memory never holds two; returns the last and the median
/// set-up time in seconds.
pub fn repeated_setup<T>(mut build: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::new();
    let mut total = Duration::ZERO;
    let mut last = None;
    while times.len() < SETUP_MIN_REPS || (total < SETUP_MIN_TOTAL && times.len() < SETUP_MAX_REPS)
    {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(build());
        let t = t0.elapsed();
        total += t;
        times.push(t.as_secs_f64());
    }
    (last.expect("at least one set-up ran"), median(&times))
}

/// One round that is not measured, so that caches, the allocator and
/// lazy set-up settle first. Its calls are still checked: the returned
/// run keeps their counts and drops their times.
fn warm_up(kinds: &'static [&'static str], round: &mut impl FnMut(&mut Run)) -> Run {
    let mut warm = Run::new(kinds);
    round(&mut warm);
    Run {
        attempted: warm.attempted,
        failed: warm.failed,
        wrong: warm.wrong,
        ..Run::new(kinds)
    }
}

/// After a warm-up round, run rounds of a workload with call kinds
/// `kinds` until `budget` has passed (at least one).
pub fn measure(
    kinds: &'static [&'static str],
    budget: Duration,
    mut round: impl FnMut(&mut Run),
) -> Run {
    let t0 = Instant::now();
    let mut run = warm_up(kinds, &mut round);
    loop {
        round(&mut run);
        if t0.elapsed() >= budget {
            break;
        }
    }
    run
}

/// After a warm-up round, alternate untraced and traced rounds until
/// `budget` has passed (at least one of each), so drift of the host
/// over the run falls on both phases alike. Returns (untraced, traced).
pub fn measure_alternating(
    kinds: &'static [&'static str],
    budget: Duration,
    mut round: impl FnMut(&mut Run),
) -> (Run, Run) {
    let t0 = Instant::now();
    let (mut base, mut traced) = (warm_up(kinds, &mut round), Run::new(kinds));
    loop {
        round(&mut base);
        trace::enable();
        round(&mut traced);
        trace::disable();
        if t0.elapsed() >= budget {
            break;
        }
    }
    (base, traced)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_pair_each_call_with_its_own_baseline() {
        let mut run = Run::new(&["a", "b"]);
        // Kind a: the host halves its speed for the second pair; the
        // ratio of each pair stays 2.
        run.record(0, 2.0, 1.0, Outcome::Ok);
        run.record(0, 4.0, 2.0, Outcome::Ok);
        run.record(0, 2.0, 1.0, Outcome::Ok);
        for _ in 0..3 {
            run.record(1, 8.0, 1.0, Outcome::Ok);
        }
        run.rounds = vec![3.0, 6.0];
        run.round_bases = vec![1.0, 3.0];
        assert_eq!(run.call_vs_base(), 4.0, "geomean of 2 and 8");
        assert_eq!(run.round_vs_base(), 2.5, "median of 3 and 2");
    }

    #[test]
    fn the_warm_up_round_is_checked_but_not_timed() {
        let mut rounds = 0;
        let run = measure(&["a"], Duration::ZERO, |r| {
            rounds += 1;
            let outcome = if rounds == 1 {
                Outcome::Wrong
            } else {
                Outcome::Ok
            };
            r.record(0, 1.0, 1.0, outcome);
            r.rounds.push(1.0);
            r.round_bases.push(1.0);
        });
        assert_eq!(rounds, 2);
        assert_eq!((run.attempted, run.failed, run.wrong), (2, 1, 1));
        assert_eq!((run.samples[0].len(), run.rounds.len()), (1, 1));
    }

    #[test]
    fn shared_runs_every_item_once() {
        let seen = Mutex::new(Vec::new());
        let t = shared("base.test", 0..100, |i| {
            seen.lock().expect("no panics while held").push(i)
        });
        let mut seen = seen.into_inner().expect("threads joined");
        seen.sort_unstable();
        assert_eq!(seen, (0..100).collect::<Vec<_>>());
        assert!(t >= 0.0);
    }
}
