//! Benchmark of the scan stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload W --seed N --seconds S --trace 0|1
//! ```
//!
//! `W` is one of `scan`, `segpack`, `checked`, `stream_shard` (large-n
//! calls on 2^26 `u64`s), `sorts`, `graphs` (whole algorithms) or
//! `serve` (the service front door). An untraced run (`--trace 0`)
//! sets up the workload several times, measures it for `S` seconds and
//! prints the end-to-end metrics. A traced run (`--trace 1`) alternates
//! untraced and traced rounds for `S` seconds, runs the direct layer
//! probes, writes the spans to `perfbench/out/` and prints the
//! per-layer metrics. Every output is checked; the last line of
//! standard output is the result object. See `perfbench/README.md` for
//! what each metric means.

#![forbid(unsafe_code)]

mod algos;
mod bulk;
mod gen;
mod machine;
mod report;
mod run;
mod serve;
mod stats;
mod trace;
mod wrap;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use report::Metrics;
use run::Run;

#[derive(Debug, Clone, PartialEq, Eq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    traced: bool,
}

const USAGE: &str = "usage: perfbench --workload scan|segpack|checked|stream_shard|sorts|graphs|serve --seed N --seconds S --trace 0|1";

/// The workload a name selects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Bulk(&'static [&'static str]),
    Algos(&'static [&'static str]),
    Serve,
}

fn workload(name: &str) -> Option<Workload> {
    bulk::kinds(name)
        .map(Workload::Bulk)
        .or_else(|| algos::kinds(name).map(Workload::Algos))
        .or((name == "serve").then_some(Workload::Serve))
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => traced = Some(num()? == 1),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if self::workload(&workload).is_none() {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?.max(1),
        traced: traced.unwrap_or(false),
    })
}

/// Round trip of `pool::global().run(threads, no-op)`.
fn pool_probe(m: &mut Metrics) {
    const REPS: usize = 4000;
    let pool = scan_core::pool::global();
    let threads = pool.threads();
    let lat: Vec<f64> = (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            pool.run(threads, |i| {
                std::hint::black_box(i);
            });
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    m.set("pool.threads", threads as f64);
    m.set("pool.dispatch_p50_us", stats::median(&lat));
    m.set("pool.dispatch_p99_us", stats::percentile(&lat, 99.0));
    m.set("pool.respawns", pool.respawns() as f64);
}

/// Call counts summed over a workload's measured phases.
struct Tally {
    attempted: u64,
    failed: u64,
    wrong: u64,
}

impl Tally {
    fn of(runs: &[&Run]) -> Self {
        Tally {
            attempted: runs.iter().map(|r| r.attempted).sum(),
            failed: runs.iter().map(|r| r.failed).sum(),
            wrong: runs.iter().map(|r| r.wrong).sum(),
        }
    }
}

/// Self time per layer of the traced phase, printed in milliseconds per
/// round and recorded as `<layer>.self_share`: the layer's share of the
/// time under top-level spans, so one run's shares sum to 1.
fn layer_self_times(spans: &[trace::Span], rounds: usize, m: &mut Metrics) {
    let by_layer = trace::self_by_layer(spans);
    // The baselines are the benchmark's own jobs, not the stack's; their
    // time is left out of the total the shares are taken of.
    let baselines = by_layer.get("base").copied().unwrap_or(0);
    let total: u64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(trace::Span::dur)
        .sum::<u64>()
        .saturating_sub(baselines);
    let share = |ns: u64| ns as f64 / total.max(1) as f64;
    let per_round = |ns: u64| ns as f64 / 1e6 / rounds.max(1) as f64;
    println!("# self time per layer ({rounds} traced rounds): ms per round, share");
    for (layer, ns) in by_layer {
        if layer == "base" {
            println!(
                "#   {layer:<12} {:>12.3}   (baselines, in no share)",
                per_round(ns)
            );
            continue;
        }
        println!("#   {layer:<12} {:>12.3} {:>8.4}", per_round(ns), share(ns));
        let name = match layer {
            "engine" => "engine.self_share",
            "stream" => "stream.self_share",
            "checked" => "checked.self_share",
            "shard" => "shard.self_share",
            "algorithms" => "algorithms.self_share",
            "service" => "service.self_share",
            _ => continue,
        };
        m.set(name, share(ns));
    }
    let sum = |name: &str| -> u64 {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(trace::Span::dur)
            .sum()
    };
    // Share of a call spent below it, in the layer the wrapper times.
    // The stream's output is digested inside its call; that is not the
    // stream's time.
    let stream = sum("stream.process").saturating_sub(sum("bench.check"));
    for (metric, child, call) in [
        ("stream.source_share", sum("stream.source"), stream),
        (
            "checked.kernel_share",
            sum("checked.kernel"),
            sum("checked.call"),
        ),
    ] {
        if call > 0 {
            m.set(metric, child as f64 / call as f64);
        }
    }
}

fn trace_path(a: &Args) -> PathBuf {
    PathBuf::from("perfbench/out").join(format!("trace-{}-seed{}.jsonl", a.workload, a.seed))
}

fn overhead(base: &Run, traced: &Run, m: &mut Metrics) {
    m.set(
        "trace.overhead_frac",
        traced.median_round() / base.median_round() - 1.0,
    );
}

fn run(a: &Args) -> (Metrics, Tally, Option<Vec<trace::Span>>) {
    let budget = Duration::from_secs(a.seconds);
    let mut m = Metrics::default();
    let print_fingerprint = |ws: f64| {
        println!(
            "{}",
            machine::fingerprint(&a.workload, a.seed, a.traced, ws)
        );
    };
    let (tally, spans) = match workload(&a.workload).expect("parse checked the name") {
        Workload::Bulk(kinds) => {
            let (mut b, setup) = bulk::setup(a.seed, kinds);
            print_fingerprint(bulk::working_set_mib());
            if a.traced {
                let (base, traced) = run::measure_alternating(kinds, budget, |r| b.round(r));
                let spans = trace::snapshot();
                bulk::layer_metrics(&b, &traced, &mut m);
                bulk::probes(&mut b, &traced, &mut m);
                pool_probe(&mut m);
                overhead(&base, &traced, &mut m);
                layer_self_times(&spans, traced.rounds.len(), &mut m);
                (Tally::of(&[&base, &traced]), Some(spans))
            } else {
                let r = run::measure(kinds, budget, |r| b.round(r));
                r.end_to_end(&mut m);
                bulk::layer_metrics(&b, &r, &mut m);
                m.set("setup_s", setup);
                (Tally::of(&[&r]), None)
            }
        }
        Workload::Algos(kinds) => {
            let (mut al, setup) = algos::setup(a.seed, kinds);
            print_fingerprint(algos::working_set_mib(kinds));
            if a.traced {
                let (base, traced) = run::measure_alternating(kinds, budget, |r| al.round(r));
                let spans = trace::snapshot();
                algos::layer_metrics(&al, &traced, &mut m);
                algos::multi_split_probe(&al, &mut m);
                pool_probe(&mut m);
                overhead(&base, &traced, &mut m);
                layer_self_times(&spans, traced.rounds.len(), &mut m);
                (Tally::of(&[&base, &traced]), Some(spans))
            } else {
                let r = run::measure(kinds, budget, |r| al.round(r));
                r.end_to_end(&mut m);
                algos::layer_metrics(&al, &r, &mut m);
                m.set("setup_s", setup);
                (Tally::of(&[&r]), None)
            }
        }
        Workload::Serve => {
            use scan_service::{PoolBackend, ScanService, ServiceConfig};
            let (reqs, setup) = serve::setup(a.seed);
            print_fingerprint(serve::working_set_mib(&reqs));
            let clients = serve::clients();
            // The default configuration, over the default backend in a
            // timing wrapper; with recording off it costs one relaxed
            // load per batch.
            let fresh = || {
                ScanService::with_backend(
                    ServiceConfig::default(),
                    wrap::TimedBackend::new(PoolBackend),
                )
            };
            let warm = serve::drive(&fresh(), &reqs, a.seed ^ 1, clients, serve::WARMUP);
            let svc = fresh();
            if a.traced {
                let (base, tr) = serve::drive_alternating(&svc, &reqs, a.seed, clients, budget);
                let spans = trace::snapshot();
                serve::request_metrics(&tr, &mut m);
                serve::health_metrics(&svc, &mut m);
                let (batches, elems) = svc.backend().batches_and_elems();
                serve::backend_metrics(&spans, tr.elapsed, batches, elems, &mut m);
                pool_probe(&mut m);
                overhead(&base.run, &tr.run, &mut m);
                layer_self_times(&spans, tr.run.rounds.len(), &mut m);
                (Tally::of(&[&warm.run, &base.run, &tr.run]), Some(spans))
            } else {
                let l = serve::drive(&svc, &reqs, a.seed, clients, budget);
                l.run.end_to_end(&mut m);
                serve::request_metrics(&l, &mut m);
                serve::health_metrics(&svc, &mut m);
                println!(
                    "# submit latency: p50 = {:.1} us over {} samples",
                    stats::median(&l.latencies) * 1e6,
                    l.latencies.len()
                );
                if let Some(t) = stats::tail(&l.latencies) {
                    println!(
                        "# submit latency tail: p{} = {:.1} us with {} samples beyond",
                        t.pct,
                        t.value * 1e6,
                        t.beyond
                    );
                }
                m.set("setup_s", setup);
                (Tally::of(&[&warm.run, &l.run]), None)
            }
        }
    };
    if !a.traced {
        m.set("peak_rss_mib", machine::peak_rss_mib());
    }
    (m, tally, spans)
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let (m, tally, spans) = run(&args);
    if let Some(spans) = spans {
        let path = trace_path(&args);
        match trace::write_jsonl(&path, &spans) {
            Ok(()) => println!("# wrote {} spans to {}", spans.len(), path.display()),
            Err(e) => {
                eprintln!("perfbench: writing {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    println!(
        "# metrics ({} attempted, {} failed):",
        tally.attempted, tally.failed
    );
    println!("{}", report::table(&m));
    println!(
        "{}",
        report::result_line(
            args.traced,
            &m,
            tally.wrong == 0,
            tally.attempted,
            tally.failed
        )
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload serve --seed 7 --seconds 10 --trace 1").expect("valid");
        for w in [
            "scan",
            "segpack",
            "checked",
            "stream_shard",
            "sorts",
            "graphs",
        ] {
            assert!(args(&format!("--workload {w} --seed 1 --seconds 1 --trace 0")).is_ok());
        }
        assert_eq!(
            a,
            Args {
                workload: "serve".into(),
                seed: 7,
                seconds: 10,
                traced: true
            }
        );
        assert!(args("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload bulk --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload scan --seconds 1").is_err());
        assert!(args("--workload scan --seed x --seconds 1").is_err());
    }
}
