//! The perf/correctness regression gate.
//!
//! A committed `bench_results/baseline.json` maps every bench target to
//! the [`BenchRun`] it produced at the CI smoke knobs. The `regress` bench
//! target re-reads the fresh `BENCH_<target>.json` files and diffs them
//! against the baseline:
//!
//! * a **defense-matrix verdict flip** (a ✓ becoming ✗ or vice versa) is
//!   always fatal — that is the paper's Table I changing under your feet;
//! * a **throughput regression** beyond the tolerance (default 25 %,
//!   `JSK_REGRESS_TOL` percent overrides — CI uses a wider band because
//!   wall-clock throughput is machine-dependent) is fatal;
//! * runs produced with different knobs (`JSK_TRIALS` …) are incomparable
//!   and are skipped with a warning rather than diffed — a 3-trial verdict
//!   is not a 25-trial verdict.
//!
//! Regenerate the baseline with `JSK_REGRESS_WRITE=1` (see EXPERIMENTS.md).

use crate::record::{BenchRun, SCHEMA_VERSION};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Every JSON-emitting bench target, in run order.
pub const ALL_TARGETS: [&str; 16] = [
    "table1",
    "table2",
    "table3",
    "fig2",
    "fig3",
    "dromaeo",
    "workerbench",
    "compat",
    "codepen",
    "ablation",
    "micro",
    "hotpath",
    "shards",
    "fuzz",
    "prove",
    "serve",
];

/// The committed baseline: one [`BenchRun`] per target.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Baseline {
    /// Schema version.
    pub schema: u32,
    /// Target name → the run it is held to.
    pub targets: BTreeMap<String, BenchRun>,
}

impl Baseline {
    /// An empty baseline at the current schema.
    #[must_use]
    pub fn new() -> Baseline {
        Baseline {
            schema: SCHEMA_VERSION,
            targets: BTreeMap::new(),
        }
    }
}

/// One comparison outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// Target the finding is about.
    pub target: String,
    /// Whether this finding fails the gate.
    pub fatal: bool,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let tag = if self.fatal { "FAIL" } else { "note" };
        write!(f, "[{tag}] {}: {}", self.target, self.message)
    }
}

impl Finding {
    fn fatal(target: &str, message: String) -> Finding {
        Finding {
            target: target.to_owned(),
            fatal: true,
            message,
        }
    }

    fn note(target: &str, message: String) -> Finding {
        Finding {
            target: target.to_owned(),
            fatal: false,
            message,
        }
    }
}

fn glyph(defended: bool) -> &'static str {
    if defended {
        "✓ (defends)"
    } else {
        "✗ (vulnerable)"
    }
}

/// Minimum baseline wall-clock (ms) for the throughput gate to engage: a
/// sub-quarter-second run measures scheduler jitter, not throughput, so
/// only the substantial targets (table1, ablation, …) are throughput-gated.
pub const MIN_THROUGHPUT_WALL_MS: f64 = 250.0;

/// The throughput tolerance in percent: `JSK_REGRESS_TOL`, default 25.
#[must_use]
pub fn tolerance_pct() -> f64 {
    crate::env_knob("JSK_REGRESS_TOL", 25) as f64
}

/// Diffs a fresh run against its baseline. `tol_pct` is the allowed
/// throughput (and measured-value) drop in percent.
#[must_use]
pub fn compare_runs(baseline: &BenchRun, fresh: &BenchRun, tol_pct: f64) -> Vec<Finding> {
    let target = baseline.record.target.as_str();
    let mut findings = Vec::new();

    if baseline.record.knobs != fresh.record.knobs {
        findings.push(Finding::note(
            target,
            format!(
                "knob mismatch (baseline {:?} vs fresh {:?}); runs are \
                 incomparable, skipping",
                baseline.record.knobs, fresh.record.knobs
            ),
        ));
        return findings;
    }

    let fresh_cells: BTreeMap<(String, String), &crate::record::CellRecord> =
        fresh.record.cells.iter().map(|c| (c.key(), c)).collect();

    for cell in &baseline.record.cells {
        let Some(expected) = cell.verdict else {
            // Value cells: deterministic under fixed knobs, so drift means
            // simulated behavior changed — surface it, but only the verdict
            // matrix gates.
            if let (Some(base_v), Some(f)) = (cell.value, fresh_cells.get(&cell.key())) {
                if let Some(fresh_v) = f.value {
                    let scale = base_v.abs().max(1e-9);
                    let drift = (fresh_v - base_v).abs() / scale * 100.0;
                    if drift > tol_pct {
                        findings.push(Finding::note(
                            target,
                            format!(
                                "value drift at ({}, {}): {base_v:.3} -> {fresh_v:.3} \
                                 ({drift:.1}% > {tol_pct:.0}%)",
                                cell.row, cell.column
                            ),
                        ));
                    }
                }
            }
            continue;
        };
        match fresh_cells.get(&cell.key()) {
            None => findings.push(Finding::fatal(
                target,
                format!(
                    "verdict cell ({}, {}) missing from fresh run",
                    cell.row, cell.column
                ),
            )),
            Some(f) => match f.verdict {
                Some(got) if got != expected => findings.push(Finding::fatal(
                    target,
                    format!(
                        "verdict flip at ({}, {}): baseline {} -> fresh {}",
                        cell.row,
                        cell.column,
                        glyph(expected),
                        glyph(got)
                    ),
                )),
                Some(_) => {}
                None => findings.push(Finding::fatal(
                    target,
                    format!(
                        "cell ({}, {}) lost its verdict in the fresh run",
                        cell.row, cell.column
                    ),
                )),
            },
        }
    }

    let baseline_keys: std::collections::BTreeSet<_> = baseline
        .record
        .cells
        .iter()
        .map(crate::record::CellRecord::key)
        .collect();
    let new_cells = fresh
        .record
        .cells
        .iter()
        .filter(|c| c.verdict.is_some() && !baseline_keys.contains(&c.key()))
        .count();
    if new_cells > 0 {
        findings.push(Finding::note(
            target,
            format!("{new_cells} verdict cell(s) not in baseline — regenerate it"),
        ));
    }

    compare_metrics(target, baseline, fresh, &mut findings);

    if baseline.meta.wall_ms < MIN_THROUGHPUT_WALL_MS {
        // A run this short measures scheduler jitter, not throughput.
        return findings;
    }
    for (name, base_tp, fresh_tp) in [
        (
            "sim-steps/s",
            baseline.meta.steps_per_sec,
            fresh.meta.steps_per_sec,
        ),
        (
            "kernel-events/s",
            baseline.meta.kernel_events_per_sec,
            fresh.meta.kernel_events_per_sec,
        ),
    ] {
        if base_tp > 0.0 && fresh_tp < base_tp * (1.0 - tol_pct / 100.0) {
            findings.push(Finding::fatal(
                target,
                format!(
                    "throughput regression ({name}): {base_tp:.0} -> {fresh_tp:.0} \
                     ({:+.1}% < -{tol_pct:.0}% tolerance)",
                    (fresh_tp / base_tp - 1.0) * 100.0
                ),
            ));
        }
    }

    findings
}

/// Diffs the observability counters. The knobs already matched by the
/// time this runs, so the counters are deterministic: any drift means
/// simulated kernel behavior changed, which is fatal — the counter gate
/// is the regression check the tracing layer buys us.
fn compare_metrics(target: &str, baseline: &BenchRun, fresh: &BenchRun, out: &mut Vec<Finding>) {
    match (&baseline.meta.observe, &fresh.meta.observe) {
        (Some(base), Some(new)) => {
            for (name, base_v) in &base.counters {
                match new.counters.get(name) {
                    None => out.push(Finding::fatal(
                        target,
                        format!("metric counter `{name}` missing from fresh run"),
                    )),
                    Some(new_v) if new_v != base_v => out.push(Finding::fatal(
                        target,
                        format!("metric counter drift `{name}`: {base_v} -> {new_v}"),
                    )),
                    Some(_) => {}
                }
            }
            for name in new.counters.keys() {
                if !base.counters.contains_key(name) {
                    out.push(Finding::note(
                        target,
                        format!("metric counter `{name}` not in baseline — regenerate it"),
                    ));
                }
            }
        }
        (Some(_), None) => out.push(Finding::note(
            target,
            "baseline carries observe metrics but fresh run has none".to_owned(),
        )),
        (None, Some(_)) => out.push(Finding::note(
            target,
            "fresh run carries observe metrics but baseline has none — \
             regenerate the baseline to gate them"
                .to_owned(),
        )),
        (None, None) => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{BenchRecord, CellRecord, Probe, RunMeta};

    fn run(cells: Vec<CellRecord>, steps_per_sec: f64) -> BenchRun {
        BenchRun {
            record: BenchRecord {
                schema: SCHEMA_VERSION,
                target: "t".into(),
                knobs: [("JSK_TRIALS".to_owned(), 3)].into_iter().collect(),
                cells,
                probe: Probe::default(),
            },
            meta: RunMeta {
                jobs: 1,
                wall_ms: 1000.0,
                steps_per_sec,
                kernel_events_per_sec: 0.0,
                observe: None,
            },
        }
    }

    #[test]
    fn identical_runs_pass() {
        let a = run(vec![CellRecord::verdict("r", "c", true)], 1000.0);
        assert!(compare_runs(&a, &a.clone(), 25.0).is_empty());
    }

    #[test]
    fn verdict_flip_is_fatal() {
        let base = run(vec![CellRecord::verdict("r", "c", true)], 1000.0);
        let fresh = run(vec![CellRecord::verdict("r", "c", false)], 1000.0);
        let f = compare_runs(&base, &fresh, 25.0);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].fatal);
        assert!(f[0].message.contains("verdict flip"), "{}", f[0].message);
    }

    #[test]
    fn missing_verdict_cell_is_fatal() {
        let base = run(vec![CellRecord::verdict("r", "c", true)], 1000.0);
        let fresh = run(vec![], 1000.0);
        let f = compare_runs(&base, &fresh, 25.0);
        assert!(f.iter().any(|x| x.fatal && x.message.contains("missing")));
    }

    #[test]
    fn throughput_regression_gates_but_speedup_passes() {
        let base = run(vec![], 1000.0);
        let slow = run(vec![], 700.0);
        let f = compare_runs(&base, &slow, 25.0);
        assert!(f
            .iter()
            .any(|x| x.fatal && x.message.contains("throughput")));
        let fast = run(vec![], 4000.0);
        assert!(compare_runs(&base, &fast, 25.0).is_empty());
        let within = run(vec![], 800.0);
        assert!(compare_runs(&base, &within, 25.0).is_empty());
    }

    #[test]
    fn tiny_runs_skip_the_throughput_gate() {
        let mut base = run(vec![], 1000.0);
        base.meta.wall_ms = 5.0; // measures jitter, not throughput
        let slow = run(vec![], 10.0);
        assert!(compare_runs(&base, &slow, 25.0).is_empty());
    }

    #[test]
    fn knob_mismatch_skips_comparison() {
        let base = run(vec![CellRecord::verdict("r", "c", true)], 1000.0);
        let mut fresh = run(vec![CellRecord::verdict("r", "c", false)], 10.0);
        fresh.record.knobs.insert("JSK_TRIALS".into(), 25);
        let f = compare_runs(&base, &fresh, 25.0);
        assert_eq!(f.len(), 1);
        assert!(!f[0].fatal);
        assert!(f[0].message.contains("knob mismatch"));
    }

    #[test]
    fn value_drift_is_a_note_not_a_failure() {
        let base = run(vec![CellRecord::value("r", "c", 100.0, "ms")], 1000.0);
        let fresh = run(vec![CellRecord::value("r", "c", 160.0, "ms")], 1000.0);
        let f = compare_runs(&base, &fresh, 25.0);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(!f[0].fatal);
        assert!(f[0].message.contains("value drift"));
    }

    fn metrics(pairs: &[(&str, u64)]) -> jsk_observe::MetricsSnapshot {
        let mut reg = jsk_observe::MetricsRegistry::default();
        let mut strings = jsk_observe::Interner::default();
        for (name, v) in pairs {
            reg.counter_add(strings.intern(name), *v);
        }
        reg.snapshot(&strings)
    }

    #[test]
    fn metric_counter_drift_is_fatal() {
        let mut base = run(vec![], 1000.0);
        base.meta.observe = Some(metrics(&[("kernel.dispatched", 100)]));
        let mut fresh = base.clone();
        fresh.meta.observe = Some(metrics(&[("kernel.dispatched", 99)]));
        let f = compare_runs(&base, &fresh, 25.0);
        assert!(
            f.iter()
                .any(|x| x.fatal && x.message.contains("metric counter drift")),
            "{f:?}"
        );
        // Identical snapshots pass clean.
        assert!(compare_runs(&base, &base.clone(), 25.0).is_empty());
    }

    #[test]
    fn missing_metric_counter_is_fatal_but_new_one_is_a_note() {
        let mut base = run(vec![], 1000.0);
        base.meta.observe = Some(metrics(&[("kernel.dispatched", 100)]));
        let mut fresh = base.clone();
        fresh.meta.observe = Some(metrics(&[("kernel.registered", 100)]));
        let f = compare_runs(&base, &fresh, 25.0);
        assert!(
            f.iter().any(|x| x.fatal && x.message.contains("missing")),
            "{f:?}"
        );
        assert!(
            f.iter()
                .any(|x| !x.fatal && x.message.contains("not in baseline")),
            "{f:?}"
        );
    }

    #[test]
    fn one_sided_metrics_are_notes() {
        let mut base = run(vec![], 1000.0);
        base.meta.observe = Some(metrics(&[("kernel.dispatched", 100)]));
        let fresh = run(vec![], 1000.0);
        let f = compare_runs(&base, &fresh, 25.0);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(!f[0].fatal);
        let g = compare_runs(&fresh, &base, 25.0);
        assert_eq!(g.len(), 1, "{g:?}");
        assert!(!g[0].fatal && g[0].message.contains("regenerate"));
    }

    #[test]
    fn baseline_roundtrips() {
        let mut b = Baseline::new();
        b.targets.insert(
            "t".into(),
            run(vec![CellRecord::verdict("r", "c", true)], 1.0),
        );
        let json = serde_json::to_string_pretty(&b).unwrap();
        let back: Baseline = serde_json::from_str(&json).unwrap();
        assert_eq!(b, back);
    }
}
