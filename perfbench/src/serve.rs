//! `serve`: the default `ScanService` driven in a closed loop by one
//! client thread per core. Requests come from a set generated at
//! set-up; each response is checked against a digest of the benchmark's
//! own sequential answer. Before each `submit` the client computes that
//! answer itself, as the request's baseline; those few microseconds are
//! the loop's only think time.

use std::hint::black_box;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use scan_core::ScanDeadline;
use scan_service::{BatchBackend, RequestOp, ScanRequest, ScanService, ServiceConfig, TenantId};

use crate::gen::{self, Rng};
use crate::report::Metrics;
use crate::run::{repeated_setup, Outcome, Run};
use crate::stats::{median, percentile, Expect};
use crate::trace;

pub const KINDS: &[&str] = &["plus", "max", "enumerate", "pack"];

/// Distinct requests generated at set-up; clients draw from them.
const REQUESTS: usize = 1024;
const TENANTS: u64 = 8;
/// Completions that make one round.
const ROUND_REQS: usize = 256;
/// A deadline long enough never to fire.
const DEADLINE: Duration = Duration::from_secs(30);
/// Unmeasured traffic before each measured phase.
pub const WARMUP: Duration = Duration::from_millis(300);

/// A request with its reference answer.
#[derive(Debug, Clone)]
pub struct Prepared {
    tenant: TenantId,
    op: RequestOp,
    kind: usize,
    want: Expect,
}

/// The benchmark's own sequential answer to `op`.
pub fn answer(op: &RequestOp) -> Vec<u64> {
    fn exclusive(xs: impl Iterator<Item = u64>, f: fn(u64, u64) -> u64) -> Vec<u64> {
        let mut acc = 0;
        xs.map(|x| {
            let out = acc;
            acc = f(acc, x);
            out
        })
        .collect()
    }
    match op {
        RequestOp::PlusScan(v) => exclusive(v.iter().copied(), u64::wrapping_add),
        RequestOp::MaxScan(v) => exclusive(v.iter().copied(), u64::max),
        RequestOp::Enumerate(f) => exclusive(f.iter().map(|&b| u64::from(b)), u64::wrapping_add),
        RequestOp::Pack { values, keep } => values
            .iter()
            .zip(keep)
            .filter(|(_, &k)| k)
            .map(|(&v, _)| v)
            .collect(),
    }
}

/// The request mix: 40 % `PlusScan`, 20 % each of `MaxScan`,
/// `Enumerate` and `Pack` (exact shares, in seeded order), over
/// `TENANTS` tenants, with log-uniform lengths.
pub fn requests(seed: u64, count: usize) -> Vec<Prepared> {
    let mut r = Rng::new(seed, 21);
    let mut picks: Vec<usize> = (0..count).map(|k| k * 10 / count).collect();
    gen::shuffle(&mut picks, &mut r);
    picks
        .into_iter()
        .zip(gen::request_lens(seed, count))
        .map(|(pick, len)| {
            let tenant = TenantId(r.below(TENANTS));
            let values = |r: &mut Rng| (0..len).map(|_| r.next_u64() >> 24).collect::<Vec<_>>();
            let flags = |r: &mut Rng| (0..len).map(|_| r.below(2) == 0).collect::<Vec<_>>();
            let (kind, op) = match pick {
                0..=3 => (0, RequestOp::PlusScan(values(&mut r))),
                4..=5 => (1, RequestOp::MaxScan(values(&mut r))),
                6..=7 => (2, RequestOp::Enumerate(flags(&mut r))),
                _ => (
                    3,
                    RequestOp::Pack {
                        values: values(&mut r),
                        keep: flags(&mut r),
                    },
                ),
            };
            let want = Expect::of(&answer(&op));
            Prepared {
                tenant,
                op,
                kind,
                want,
            }
        })
        .collect()
}

pub fn setup(seed: u64) -> (Vec<Prepared>, f64) {
    repeated_setup(|| {
        let reqs = requests(seed, REQUESTS);
        // Construction is part of set-up; the service itself is built
        // fresh for each measured phase.
        drop(ScanService::new(ServiceConfig::default()));
        reqs
    })
}

/// Working set of the request set, in MiB.
pub fn working_set_mib(reqs: &[Prepared]) -> f64 {
    reqs.iter().map(|p| p.op.len() * 8).sum::<usize>() as f64 / (1 << 20) as f64
}

/// What the closed loop saw.
pub struct Loop {
    pub run: Run,
    /// Every `submit` latency, in seconds.
    pub latencies: Vec<f64>,
    pub elapsed: f64,
}

impl Loop {
    fn empty() -> Self {
        Loop {
            run: Run::new(KINDS),
            latencies: Vec::new(),
            elapsed: 0.0,
        }
    }

    /// Add another loop's samples to this one.
    fn absorb(&mut self, other: Loop) {
        self.run.absorb(other.run);
        self.latencies.extend(other.latencies);
        self.elapsed += other.elapsed;
    }
}

/// Length of one untraced or traced block of the traced run.
const BLOCK: Duration = Duration::from_secs(1);

/// Drive `svc` in alternating untraced and traced blocks until `budget`
/// has passed (at least one of each), so drift of the host falls on
/// both alike. Both blocks of a pair replay the same request sequence.
/// Returns (untraced, traced).
pub fn drive_alternating<B: BatchBackend>(
    svc: &ScanService<B>,
    reqs: &[Prepared],
    seed: u64,
    clients: usize,
    budget: Duration,
) -> (Loop, Loop) {
    let (mut base, mut traced) = (Loop::empty(), Loop::empty());
    let t0 = Instant::now();
    for pair in 0u64.. {
        let seed = seed ^ (pair << 32);
        base.absorb(drive(svc, reqs, seed, clients, BLOCK));
        trace::enable();
        traced.absorb(drive(svc, reqs, seed, clients, BLOCK));
        trace::disable();
        if t0.elapsed() >= budget {
            break;
        }
    }
    (base, traced)
}

/// Drive `svc` with `clients` closed-loop clients for `budget`.
pub fn drive<B: BatchBackend>(
    svc: &ScanService<B>,
    reqs: &[Prepared],
    seed: u64,
    clients: usize,
    budget: Duration,
) -> Loop {
    let results = Mutex::new(Vec::new());
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for c in 0..clients {
            let results = &results;
            s.spawn(move || {
                let mut r = Rng::new(seed, 100 + c as u64);
                let mut mine = Vec::new();
                let mut k = 0u64;
                while t0.elapsed() < budget {
                    let p = &reqs[r.below(reqs.len() as u64) as usize];
                    let b0 = Instant::now();
                    drop(black_box(answer(black_box(&p.op))));
                    let base = b0.elapsed().as_secs_f64();
                    let req = ScanRequest::new(p.tenant, p.op.clone())
                        .with_deadline(ScanDeadline::after(DEADLINE));
                    let span = trace::request("service.submit", (c as u64) << 40 | k);
                    let start = Instant::now();
                    let res = svc.submit(req);
                    let done = Instant::now();
                    drop(span);
                    let outcome = match res {
                        Ok(out) => Outcome::check(p.want.matches(&out)),
                        Err(_) => Outcome::Error,
                    };
                    let lat = (done - start).as_secs_f64();
                    mine.push((p.kind, lat, base, (done - t0).as_secs_f64(), outcome));
                    k += 1;
                }
                results
                    .lock()
                    .expect("no client panics while holding the results lock")
                    .extend(mine);
            });
        }
    });
    let elapsed = t0.elapsed().as_secs_f64();
    let mut all = results.into_inner().expect("clients finished");
    let mut run = Run::new(KINDS);
    let mut latencies = Vec::with_capacity(all.len());
    for &(kind, lat, base, _, outcome) in &all {
        run.record(kind, lat, base, outcome);
        latencies.push(lat);
    }
    // Rounds: wall time between every ROUND_REQS-th completion, and the
    // summed baselines of the requests that completed in it.
    all.sort_by(|a, b| a.3.total_cmp(&b.3));
    let marks: Vec<f64> = std::iter::once(0.0)
        .chain(
            all.iter()
                .skip(ROUND_REQS - 1)
                .step_by(ROUND_REQS)
                .map(|r| r.3),
        )
        .collect();
    run.rounds = marks.windows(2).map(|w| w[1] - w[0]).collect();
    run.round_bases = all
        .chunks_exact(ROUND_REQS)
        .map(|c| c.iter().map(|r| r.2).sum())
        .collect();
    Loop {
        run,
        latencies,
        elapsed,
    }
}

/// Number of closed-loop clients: one per core.
pub fn clients() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Request throughput and latency of a loop.
pub fn request_metrics(l: &Loop, m: &mut Metrics) {
    m.set("service.req_per_s", l.latencies.len() as f64 / l.elapsed);
    m.set(
        "service.req_p99_over_p50",
        percentile(&l.latencies, 99.0) / median(&l.latencies),
    );
    m.set("service.req_samples", l.latencies.len() as f64);
}

/// The service's own counters.
pub fn health_metrics<B: BatchBackend>(svc: &ScanService<B>, m: &mut Metrics) {
    let h = svc.health();
    m.set("service.batches", h.batches as f64);
    m.set(
        "service.mean_occupancy",
        h.mean_batch_occupancy().unwrap_or(0.0),
    );
    m.set("service.solo_requests", h.solo_requests as f64);
    m.set("service.shed", h.shed as f64);
    m.set("service.expired_in_queue", h.expired_in_queue as f64);
    m.set(
        "service.batches_retried",
        h.backend_health.batches_retried as f64,
    );
    m.set(
        "service.times_degraded",
        h.backend_health.times_degraded as f64,
    );
    let max_wait = h
        .tenants
        .values()
        .map(|t| t.max_wait_dispatches)
        .max()
        .unwrap_or(0);
    m.set("service.max_wait_dispatches", max_wait as f64);
}

/// How busy the backend was and how big its batches were, from the
/// traced spans and the timing backend's counters.
pub fn backend_metrics(
    spans: &[trace::Span],
    elapsed: f64,
    batches: u64,
    elems: u64,
    m: &mut Metrics,
) {
    let busy: u64 = spans
        .iter()
        .filter(|s| s.name == "engine.batch")
        .map(trace::Span::dur)
        .sum();
    m.set("service.backend_share", busy as f64 / 1e9 / elapsed);
    m.set(
        "service.elems_per_batch",
        elems as f64 / batches.max(1) as f64,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wrap::TimedBackend;
    use scan_service::PoolBackend;

    #[test]
    fn request_set_repeats_per_seed_and_follows_the_mix() {
        let a = requests(1, 400);
        let b = requests(1, 400);
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.op == y.op && x.want == y.want));
        let c = requests(2, 400);
        assert!(a.iter().zip(&c).any(|(x, y)| x.op != y.op));
        let share = |kind| a.iter().filter(|p| p.kind == kind).count();
        assert_eq!([share(0), share(1), share(2), share(3)], [160, 80, 80, 80]);
        assert!(a
            .iter()
            .all(|p| (gen::MIN_REQ_LEN..=gen::MAX_REQ_LEN).contains(&p.op.len())));
    }

    #[test]
    fn the_check_accepts_the_service_and_rejects_one_flip() {
        let reqs = requests(3, 40);
        let svc = ScanService::new(ServiceConfig::default());
        for p in &reqs {
            let out = svc
                .submit(ScanRequest::new(p.tenant, p.op.clone()))
                .expect("an idle service serves every request");
            assert!(p.want.matches(&out));
            let mut bad = out.clone();
            if let Some(x) = bad.last_mut() {
                *x ^= 1;
                assert!(!p.want.matches(&bad));
            }
        }
    }

    #[test]
    fn a_short_loop_completes_every_request_correctly() {
        let reqs = requests(4, 64);
        let svc =
            ScanService::with_backend(ServiceConfig::default(), TimedBackend::new(PoolBackend));
        let l = drive(&svc, &reqs, 4, 2, Duration::from_millis(200));
        assert!(l.run.attempted > 0);
        assert_eq!(l.run.failed, 0);
        assert_eq!(l.latencies.len() as u64, l.run.attempted);
        assert!(svc.health().is_drained());
    }
}
