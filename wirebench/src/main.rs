//! Wire-level serving benchmark for `jsk-serve`. See `README.md` in this
//! directory for the metrics, the workloads and the layer map.
//!
//! ```text
//! wirebench --workload <corpus-tcp|long-trace|fleet-scrape> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` runs the real front door and prints the end-to-end
//! metrics; `--trace 1` runs it untraced and then the traced
//! re-composition, and prints the per-layer metrics. The last line of
//! stdout is one JSON object: `correct`, `attempted`, `failed`, `metrics`.

mod drive;
mod gen;
mod layers;
mod oracle;
mod speed;
mod stats;
mod traced;

use gen::{Plan, Workload, HELD_OUT_SEED};
use oracle::Reference;
use stats::{median, peak_rss_mb, percentile};
use std::fmt::Write as _;
use std::io;
use std::process::ExitCode;
use std::time::Instant;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?);
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|s| *s > 0)
            .ok_or("--seconds must be a positive integer")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Metrics as printed: name, value, unit.
type Metrics = Vec<(&'static str, f64, &'static str)>;

/// A run's verdict on itself.
struct Outcome {
    metrics: Metrics,
    attempted: u64,
    failed: u64,
    /// Why the run is not correct, if it is not.
    problems: Vec<String>,
}

/// Takes a percentile or records why it was refused.
fn pct(problems: &mut Vec<String>, what: &str, samples: &[f64], q: f64) -> f64 {
    match percentile(what, samples, q) {
        Ok(v) => {
            println!(
                "  p{:<4} {what:<16} = {v:.4} ms over {} samples",
                q * 100.0,
                samples.len()
            );
            v
        }
        Err(e) => {
            problems.push(e.to_string());
            f64::NAN
        }
    }
}

/// The verdict tail percentile. A p99 moved 2.5x between identical
/// `corpus-tcp` runs with the hypervisor's steal, which no rescaling
/// undoes: it measured the host's preemptions, not the server.
const VERDICT_TAIL_Q: f64 = 0.90;
/// Verdict-latency percentiles are taken per slice of the window, this many
/// equal slices, and the median over the slices is reported.
const SLICES: usize = 5;

/// The median over [`SLICES`] equal slices of `window` of each slice's
/// `q`-percentile of `samples` (stamped with when each was read). A host
/// stall that spoils one slice does not move it. Every slice's percentile
/// is held to the sample-count rule.
fn sliced_pct(
    problems: &mut Vec<String>,
    what: &str,
    samples: &[(Instant, f64)],
    window: (Instant, Instant),
    q: f64,
) -> f64 {
    let (a, b) = window;
    let len = (b - a).as_secs_f64();
    let mut slices = vec![Vec::new(); SLICES];
    for (t, v) in samples {
        let x = t.saturating_duration_since(a).as_secs_f64() / len;
        slices[((x * SLICES as f64) as usize).min(SLICES - 1)].push(*v);
    }
    let mut per = Vec::with_capacity(SLICES);
    for (k, slice) in slices.iter().enumerate() {
        match percentile(&format!("{what}, slice {k}"), slice, q) {
            Ok(v) => per.push(v),
            Err(e) => {
                problems.push(e.to_string());
                return f64::NAN;
            }
        }
    }
    let m = median(&per);
    println!(
        "  p{:<4} {what:<16} = {m:.4} ms, median of {SLICES} slices {:?} over {:?} samples",
        q * 100.0,
        per.iter()
            .map(|v| (v * 1e3).round() / 1e3)
            .collect::<Vec<_>>(),
        slices.iter().map(Vec::len).collect::<Vec<_>>()
    );
    m
}

/// The end-to-end metrics of one untraced run. Every time is rescaled to
/// the reference host (see `speed.rs`); the raw figures are printed too.
fn end_to_end(plan: &Plan, run: &drive::Run, problems: &mut Vec<String>) -> Metrics {
    let w = plan.workload;
    let speed = &run.speed;
    let verdicts = run.verdicts_in_window();
    // The open loop's rate is set by its schedule, not by host speed.
    let vps = if w == Workload::FleetScrape {
        verdicts as f64 / run.window_s()
    } else {
        verdicts as f64 / run.reference_busy_seconds()
    };
    let rescaled = |samples: &[(Instant, f64)]| -> Vec<(Instant, f64)> {
        samples
            .iter()
            .map(|(t, v)| (*t, v * speed.scale_at(*t)))
            .collect()
    };
    let values = |samples: &[(Instant, f64)]| -> Vec<f64> { samples.iter().map(|s| s.1).collect() };
    let setups = values(&rescaled(&run.setup_s));
    println!(
        "  window {:.1} s: {verdicts} verdicts, {:.2} CPU s; set-ups {:?}",
        run.window_s(),
        run.cpu_s(),
        run.setup_s.iter().map(|s| s.1).collect::<Vec<_>>()
    );
    println!(
        "  verdicts per second of the window: {:?}",
        run.per_second()
    );
    println!(
        "  host speed: {} probes, median {:.1} us (reference {:.1} us); window = {:.2} reference busy s ({:.2} CPU s stolen)",
        speed.len(),
        speed.median_probe_ns() / 1e3,
        speed::REFERENCE_PROBE_NS / 1e3,
        run.reference_busy_seconds(),
        speed.stolen_s()
    );
    let raw = |v: &[(Instant, f64)], q: f64| {
        percentile("raw", &v.iter().map(|s| s.1).collect::<Vec<_>>(), q).unwrap_or(f64::NAN)
    };
    println!(
        "  raw: {:.2} verdicts/s, {:.4} CPU ms/verdict, verdict p50 {:.4} ms, scrape p50 {:.4} ms, set-up {:.6} s",
        verdicts as f64 / run.window_s(),
        run.cpu_s() * 1e3 / verdicts.max(1) as f64,
        raw(&run.log.lat_ms, 0.5),
        raw(&run.log.scrape_ms, 0.5),
        median(&run.setup_s.iter().map(|s| s.1).collect::<Vec<_>>())
    );
    let rss_mean = run.rss_marks.iter().sum::<f64>() / run.rss_marks.len() as f64;
    println!(
        "  resident set over the window: mean {rss_mean:.1} MiB, max {:.1} MiB; process peak {:.1} MiB",
        run.rss_marks.iter().copied().fold(0.0, f64::max),
        peak_rss_mb()
    );
    if verdicts == 0 {
        problems.push("no verdict inside the timed window".into());
    }
    let log = &run.log;
    let lat = rescaled(&log.lat_ms);
    // Scrapes under load are timed by the wall clock; idle scrapes by the
    // process's CPU clock, already rescaled (see `drive::IDLE_SCRAPES`).
    let scrapes: Vec<f64> = if w == Workload::FleetScrape {
        values(&rescaled(&log.scrape_ms))
    } else {
        values(&log.idle_scrape_cpu_ms)
    };
    let tail_name = format!("verdict (p{})", VERDICT_TAIL_Q * 100.0);
    // A set-up is about 1 ms of thread starts and wake-ups; a host that is
    // slow to wake an idle CPU stretched half of them tenfold. Nothing makes
    // a set-up faster than its cost, so the fastest of the repeats is it.
    let m = vec![
        (
            "setup_s",
            setups.iter().copied().fold(f64::INFINITY, f64::min),
            "s",
        ),
        ("verdicts_per_s", vps, "1/s"),
        (
            "cpu_ms_per_verdict",
            run.reference_cpu_s() * 1e3 / verdicts.max(1) as f64,
            "ms",
        ),
        (
            "verdict_p50_ms",
            sliced_pct(problems, "verdict", &lat, run.window, 0.5),
            "ms",
        ),
        (
            "verdict_tail_ms",
            sliced_pct(problems, &tail_name, &lat, run.window, VERDICT_TAIL_Q),
            "ms",
        ),
        (
            "scrape_p50_ms",
            pct(problems, "scrape", &scrapes, 0.5),
            "ms",
        ),
        (
            "scrape_p90_ms",
            pct(problems, "scrape", &scrapes, 0.9),
            "ms",
        ),
        ("rss_mb", rss_mean, "MiB"),
        (
            "verdict_ok_ratio",
            log.ok as f64 / log.attempted.max(1) as f64,
            "ratio",
        ),
    ];
    if w == Workload::FleetScrape {
        let offered = plan.offered_per_s();
        println!("  offered {offered:.1} sites/s, received {vps:.1} verdicts/s in the window");
        match log.series {
            Some((first, last)) if first == last => {
                println!("  observe.series steady at {first} sample lines");
            }
            Some((first, last)) => problems.push(format!(
                "page size changed while timing: {first} -> {last} sample lines"
            )),
            None => problems.push("no timed scrape".into()),
        }
        // A server slower than the offered rate falls further behind all
        // the time; a host that stalls for a few seconds leaves a backlog
        // that drains again. So the halves' medians are compared, not the
        // window's end.
        let marks: Vec<f64> = run.backlog.iter().flatten().map(|b| *b as f64).collect();
        let (first, second) = marks.split_at(marks.len() / 2);
        let (m1, m2) = (median(first), median(second));
        println!(
            "  backlog: {} batches at the window's end, at most {}; half-second medians {m1} in the first half, {m2} in the second",
            marks.last().unwrap_or(&0.0),
            marks.iter().copied().fold(0.0, f64::max)
        );
        if m2 > (2.0 * m1).max(8.0) {
            problems.push(format!(
                "backlog grew: median {m2} batches due and unsent in the window's second half, {m1} in its first"
            ));
        }
        pct(problems, "gen.late", &log.late_ms, w.tail_q());
    }
    m
}

fn run(args: &Args) -> io::Result<Outcome> {
    let plan = Plan::generate(args.workload, args.seed, args.seconds);
    println!(
        "wirebench {} seed {} ({} s window, held-out seed {HELD_OUT_SEED}): input hash {:016x}",
        args.workload.name(),
        args.seed,
        args.seconds,
        plan.hash()
    );
    let reference = Reference::build(plan.submissions());
    println!(
        "  reference: {} distinct submissions served directly",
        reference.len()
    );
    evaluate(args, &plan, &reference)
}

/// Drives `plan` and grades it against `reference`.
fn evaluate(args: &Args, plan: &Plan, reference: &Reference) -> io::Result<Outcome> {
    let mut problems = Vec::new();

    println!("untraced run (jsk_serve::Server behind TcpServer):");
    let untraced = drive::run(plan, reference, args.seconds, None)?;
    let e2e = end_to_end(plan, &untraced, &mut problems);
    let mut attempted = untraced.log.attempted;
    let mut ok = untraced.log.ok;
    let metrics = if args.trace {
        let tracer = traced::Tracer::new();
        println!("traced run (re-composed front door with spans):");
        let traced = drive::run(plan, reference, args.seconds, Some(&tracer))?;
        attempted += traced.log.attempted;
        ok += traced.log.ok;
        per_layer(args, &untraced, &traced, &tracer, &mut problems)?
    } else {
        e2e
    };
    let failed = attempted - ok;
    if failed > 0 {
        problems.push(format!("{failed} of {attempted} submissions failed"));
    }
    Ok(Outcome {
        metrics,
        attempted,
        failed,
        problems,
    })
}

/// The per-layer metrics of a traced run, plus its self-time table,
/// overhead, coverage check and dominant-layer prediction.
fn per_layer(
    args: &Args,
    untraced: &drive::Run,
    traced: &drive::Run,
    tracer: &traced::Tracer,
    problems: &mut Vec<String>,
) -> io::Result<Metrics> {
    use layers::Class;
    let spans = tracer.take_spans();
    let a = layers::analyse(&spans, tracer.at(traced.w0));
    let dir = std::path::Path::new("wirebench/out");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("spans-{}-{}.csv", args.workload.name(), args.seed));
    std::fs::write(&path, layers::span_csv(&spans, &a))?;
    println!(
        "  {} spans recorded; the first {} request trees written to {}",
        spans.len(),
        a.dumped_roots.len(),
        path.display()
    );
    print!("{}", a.table());

    let vps = |r: &drive::Run| r.verdicts_in_window() as f64 / r.window_s();
    let overhead = vps(traced) / vps(untraced);
    println!(
        "  tracing overhead: traced {:.1} vs untraced {:.1} verdicts/s (ratio {overhead:.3})",
        vps(traced),
        vps(untraced)
    );
    let coverage = a.coverage();
    println!(
        "  named layers cover {:.1}% of the traced flush wall time",
        coverage * 100.0
    );
    if coverage < 0.9 {
        problems.push(format!(
            "named layers cover only {:.1}% of flush wall time",
            coverage * 100.0
        ));
    }
    // The dominant layer each workload was chosen to exercise. The closed
    // loops are judged on what their client waits for: every submit and
    // flush round trip, transport included. The scrapes are judged on the
    // server's scrape trees.
    let rtt_ns = traced.log.rtt.as_secs_f64() * 1e9;
    let wire = a.wire_shares(rtt_ns);
    println!(
        "  client-observed submit+flush round trips {:.1} ms; transport (not in any server tree) {:.1}%",
        rtt_ns / 1e6,
        100.0 * wire.last().map_or(0.0, |t| t.1)
    );
    let (view, shares, predicted): (&str, Vec<(&str, f64)>, &[&str]) = match args.workload {
        Workload::CorpusTcp => (
            "round-trip",
            wire.clone(),
            &["jsk-serve", "jsk-shard", "transport"],
        ),
        Workload::LongTrace => ("round-trip", wire.clone(), &["jsk-analyze", "jsk-browser"]),
        Workload::FleetScrape => (
            "scrape-tree",
            layers::LAYERS
                .iter()
                .chain(["(glue)"].iter())
                .map(|l| (*l, a.share(Class::Scrape, l)))
                .collect(),
            &["server", "jsk-observe"],
        ),
    };
    let group: f64 = shares
        .iter()
        .filter(|(l, _)| predicted.contains(l))
        .map(|(_, v)| v)
        .sum();
    let rival = shares
        .iter()
        .filter(|(l, _)| !predicted.contains(l))
        .max_by(|x, y| x.1.total_cmp(&y.1))
        .copied()
        .unwrap_or(("none", 0.0));
    println!(
        "  prediction on {view} wall: {} own {:.1}%, largest other layer {} {:.1}% -> {}",
        predicted.join(" + "),
        group * 100.0,
        rival.0,
        rival.1 * 100.0,
        if group > rival.1 { "MET" } else { "NOT MET" }
    );
    let share = |names: &[&str]| -> f64 {
        wire.iter()
            .filter(|(l, _)| names.contains(l))
            .map(|(_, v)| v)
            .sum()
    };

    let log = &traced.log;
    // The front door's per-request numbers cover submits and flushes; the
    // scrapes have their own metrics below.
    let wire = [Class::Flush, Class::Other];
    let frames_in: u64 = wire
        .iter()
        .map(|c| a.frames.get(c).copied().unwrap_or(0))
        .sum();
    let per_frame = |ns: f64| ns / frames_in.max(1) as f64 / 1e3;
    let decode = a.agg(&wire, "serve.decode");
    let encode = a.agg(&wire, "serve.encode");
    let on_bytes = a.agg(&wire, "serve.on_bytes");
    let serve = a.agg(&[Class::Flush], "shard.serve");
    let site = a.agg(&[Class::Flush], "site");
    let browser = a.agg(&[Class::Flush], "browser.run");
    let hb = a.agg(&[Class::Flush], "analyze.hb");
    let verdicts = serve.n.max(1) as f64;
    let late = pct(problems, "gen.late", &log.late_ms, args.workload.tail_q());
    Ok(vec![
        ("serve.decode_us", per_frame(decode.dur), "us"),
        (
            "serve.encode_us",
            encode.dur / encode.count.max(1) as f64 / 1e3,
            "us",
        ),
        ("serve.session_us", per_frame(on_bytes.self_ns), "us"),
        (
            "transport.wait_us",
            (log.rtt.as_secs_f64() * 1e9 - on_bytes.dur) / log.requests.max(1) as f64 / 1e3,
            "us",
        ),
        (
            "serve.frames_per_verdict",
            (frames_in + encode.count) as f64 / verdicts,
            "count",
        ),
        (
            "serve.bytes_per_verdict",
            (on_bytes.n + encode.n) as f64 / verdicts,
            "count",
        ),
        ("shard.dispatch_us", a.dispatch_ns / 1e3, "us"),
        ("shard.queue_wait_us", a.queue_wait_ns / 1e3, "us"),
        ("shard.join_us", a.join_ns / 1e3, "us"),
        (
            "shard.busy_ratio",
            site.dur / (2.0 * serve.dur.max(1.0)),
            "ratio",
        ),
        (
            "shard.sites_per_batch",
            serve.n as f64 / serve.count.max(1) as f64,
            "count",
        ),
        ("core.setup_us", a.mean_us("core.setup"), "us"),
        (
            "core.kernel_events",
            site.n as f64 / site.count.max(1) as f64,
            "count",
        ),
        ("browser.run_us", a.mean_us("browser.run"), "us"),
        (
            "browser.trace_records",
            browser.n as f64 / browser.count.max(1) as f64,
            "count",
        ),
        (
            "browser.ns_per_record",
            browser.dur / browser.n.max(1) as f64,
            "ns",
        ),
        ("analyze.hb_us", a.mean_us("analyze.hb"), "us"),
        ("analyze.race_us", a.mean_us("analyze.race"), "us"),
        ("analyze.scan_us", a.mean_us("analyze.scan"), "us"),
        (
            "analyze.hb_nodes",
            hb.n as f64 / hb.count.max(1) as f64,
            "count",
        ),
        ("observe.labels_us", a.mean_us("observe.labels"), "us"),
        ("observe.merge_us", a.mean_us("observe.merge"), "us"),
        ("observe.render_us", a.mean_us("observe.render"), "us"),
        (
            "server.metrics_page_us",
            a.mean_us("server.metrics_page"),
            "us",
        ),
        ("observe.series", a.last_series as f64, "count"),
        ("gen.late_tail_ms", late, "ms"),
        ("host.probe_us", traced.speed.median_probe_ns() / 1e3, "us"),
        ("trace.vps_ratio", overhead, "ratio"),
        ("trace.coverage", coverage, "ratio"),
        (
            "share.serve_shard",
            share(&["jsk-serve", "jsk-shard", "transport"]),
            "ratio",
        ),
        (
            "share.browser_analyze",
            share(&["jsk-browser", "jsk-analyze"]),
            "ratio",
        ),
        (
            "share.scrape_page",
            a.share(Class::Scrape, "server") + a.share(Class::Scrape, "jsk-observe"),
            "ratio",
        ),
    ])
}

fn json(outcome: &Outcome) -> String {
    let mut m = String::new();
    for (i, (name, value, unit)) in outcome.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            m,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
        outcome.problems.is_empty(),
        outcome.attempted,
        outcome.failed
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("wirebench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(mut outcome) => {
            for (name, value, unit) in &outcome.metrics {
                println!("  {name:<26} {value:>14.4} {unit}");
            }
            for p in &outcome.problems {
                println!("  FAILED CHECK: {p}");
            }
            // Refused percentiles are NaN, which JSON cannot carry.
            for m in &mut outcome.metrics {
                if !m.1.is_finite() {
                    m.1 = -1.0;
                }
            }
            println!("{}", json(&outcome));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("wirebench: run failed: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_corrupted_reference_fails_the_run() {
        let args = Args {
            workload: Workload::CorpusTcp,
            seed: 5,
            seconds: 1,
            trace: false,
        };
        let plan = Plan::generate(args.workload, args.seed, args.seconds);
        let mut reference = Reference::build(plan.submissions());
        let good = evaluate(&args, &plan, &reference).expect("run completes");
        assert_eq!(good.failed, 0, "{:?}", good.problems);
        assert!(good.problems.is_empty(), "{:?}", good.problems);

        reference.corrupt_except(&plan.warmup[0][0]);
        let bad = evaluate(&args, &plan, &reference).expect("run completes");
        // Only the set-up probe still matches; every other verdict fails.
        assert_eq!(bad.failed, bad.attempted - drive::SETUP_REPEATS as u64);
        assert!(!bad.problems.is_empty());
        let ok_ratio = bad
            .metrics
            .iter()
            .find(|m| m.0 == "verdict_ok_ratio")
            .unwrap()
            .1;
        assert!(ok_ratio < 0.01, "{ok_ratio}");
    }
}
