//! Records a Perfetto-loadable trace and a metrics snapshot of one CVE
//! exploit running against JSKernel.
//!
//! The observer watches the full two-phase event lifecycle: every kernel
//! dispatch is a `kernel.dispatch` span on its thread track, every
//! asynchronous event an async `kevent.*` span from registration to
//! release, every policy decision a `policy.decide` span. Open `kevent`
//! spans at the end of the trace are not a bug — they are orphaned events
//! the watchdog reaped, left visibly unfinished on purpose.
//!
//! ```sh
//! cargo run --example observe_run
//! # then load trace.perfetto.json at https://ui.perfetto.dev
//! ```
//!
//! Knobs: `JSK_OBSERVE=0` disables the observer (the run still prints the
//! oracle verdict); `JSK_OBSERVE_OUT=<dir>` redirects the two output files
//! (default: current directory). Timestamps are simulated time, so the
//! trace is byte-identical across machines and `JSK_JOBS` settings.

use jskernel::attacks::cve_exploits::Exploit2018_5092;
use jskernel::attacks::harness::CveExploit;
use jskernel::browser::browser::Browser;
use jskernel::vuln::oracle;
use jskernel::DefenseKind;
use std::path::PathBuf;

fn main() {
    let seed = 0x5092;
    let exploit = Exploit2018_5092;
    let defense = DefenseKind::JsKernel;

    if !jsk_observe::enabled_from_env() {
        let result = jskernel::attacks::harness::run_cve_attack(&exploit, defense, seed);
        println!(
            "JSK_OBSERVE=0: observer disabled; {} {} the exploit (no trace written)",
            result.defense,
            if result.defended() {
                "defended against"
            } else {
                "was triggered by"
            }
        );
        return;
    }

    // The exploit's interval registers ~1M kernel events before the
    // deferred termination settles; cap the buffer at the opening of the
    // run — registration, first dispatches, the policy denial — which is
    // the part the walkthrough in docs/BOOK.md reads. Metrics still cover
    // the whole run. `JSK_OBSERVE_TRACE=0` skips the buffer entirely
    // (metrics-only — the always-on accounting configuration).
    let cap = 200_000;
    let trace_on = std::env::var("JSK_OBSERVE_TRACE")
        .map_or(true, |v| !matches!(v.trim(), "0" | "false" | "off"));
    let obs = if trace_on {
        jsk_observe::Observer::with_trace_capacity(cap)
    } else {
        jsk_observe::Observer::new()
    }
    .shared();
    let mut cfg = defense
        .config(seed)
        .with_observer(jsk_observe::handle_of(&obs));
    exploit.configure(&mut cfg);
    let mut browser = Browser::new(cfg, defense.mediator());
    exploit.run(&mut browser);
    let report = oracle::scan(browser.trace());
    let triggered = report.is_triggered(exploit.cve());

    let out_dir =
        std::env::var_os("JSK_OBSERVE_OUT").map_or_else(|| PathBuf::from("."), PathBuf::from);
    std::fs::create_dir_all(&out_dir).expect("create output directory");
    let trace_path = out_dir.join("trace.perfetto.json");
    let metrics_path = out_dir.join("metrics.json");

    let observer = obs.borrow();
    std::fs::write(&metrics_path, observer.metrics_json()).expect("write metrics");
    let metrics = observer.metrics();
    println!(
        "CVE-2018-5092 vs {}: {}",
        defense.label(),
        if triggered { "TRIGGERED" } else { "defended" }
    );
    if trace_on {
        let trace_json = observer.chrome_trace_json();
        let summary = jsk_observe::chrome::validate(&trace_json).expect("trace validates");
        std::fs::write(&trace_path, &trace_json).expect("write trace");
        println!(
            "trace: {} events ({} sync spans, {} async spans, {} instants) -> {}",
            summary.events,
            summary.spans,
            summary.async_spans,
            summary.instants,
            trace_path.display()
        );
        if observer.dropped_events() > 0 {
            println!(
                "trace: buffer capped at {cap} events; {} later events dropped \
                 (metrics still cover the full run)",
                observer.dropped_events()
            );
        }
    } else {
        println!("trace: disabled (JSK_OBSERVE_TRACE=0), metrics only");
    }
    println!(
        "metrics: registered={} confirmed={} dispatched={} denials={} -> {}",
        metrics.counter("kernel.registered"),
        metrics.counter("kernel.confirmed"),
        metrics.counter("kernel.dispatched"),
        metrics.counter("kernel.denials"),
        metrics_path.display()
    );
    if trace_on {
        println!("load the trace at https://ui.perfetto.dev (or chrome://tracing)");
    }
}
