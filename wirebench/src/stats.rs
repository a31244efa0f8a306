//! Percentiles under the sample-count rule, and process counters read
//! from `/proc`.

use std::fmt;

/// A percentile that was refused: fewer than 10 samples lie beyond it.
#[derive(Debug, Clone, PartialEq)]
pub struct Unsupported {
    /// Which sample set.
    pub what: String,
    /// The requested quantile.
    pub q: f64,
    /// Samples available.
    pub n: usize,
}

impl fmt::Display for Unsupported {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "p{} of {} refused: {} samples leave fewer than 10 beyond it",
            self.q * 100.0,
            self.what,
            self.n
        )
    }
}

/// The `q`-quantile (nearest rank) of `samples`, refused unless at least
/// 10 samples lie strictly beyond its rank.
///
/// # Errors
///
/// [`Unsupported`] when the sample is too small for `q`.
pub fn percentile(what: &str, samples: &[f64], q: f64) -> Result<f64, Unsupported> {
    let n = samples.len();
    let rank = ((q * n as f64).ceil() as usize).max(1);
    if n == 0 || n - rank.min(n) < 10 {
        return Err(Unsupported {
            what: what.to_owned(),
            q,
            n,
        });
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    Ok(v[rank - 1])
}

/// Median of a non-empty set: probe times, per-slice percentiles and
/// backlog readings, which are not latency distributions.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// User + system CPU seconds of this process, all threads included
/// (`/proc/self/stat` fields 14 and 15).
#[must_use]
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // The command name may contain spaces; fields restart after its ')'.
    let rest = &stat[stat.rfind(')').expect("stat has a comm field") + 2..];
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks: u64 = f[11].parse::<u64>().expect("utime") + f[12].parse::<u64>().expect("stime");
    ticks as f64 / CLK_TCK
}

/// CPU seconds the hypervisor took from this machine's CPUs, summed over
/// all of them (`/proc/stat`, the `steal` field of the `cpu` line).
#[must_use]
pub fn steal_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").expect("/proc/stat is readable");
    let line = stat.lines().next().expect("/proc/stat has a cpu line");
    let ticks: u64 = line
        .split_whitespace()
        .nth(8)
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    ticks as f64 / CLK_TCK
}

/// `sysconf(_SC_CLK_TCK)`: 100 on every Linux target this runs on.
const CLK_TCK: f64 = 100.0;

/// Peak resident set size in MiB (`VmHWM`).
#[must_use]
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

/// Current resident set size in MiB (`VmRSS`).
#[must_use]
pub fn rss_mb() -> f64 {
    status_mb("VmRSS:")
}

fn status_mb(field: &str) -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("{field} is reported"));
    kb / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_need_ten_samples_beyond_them() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile("x", &v, 0.5), Ok(50.0));
        assert_eq!(percentile("x", &v, 0.9), Ok(90.0));
        assert!(percentile("x", &v, 0.99).is_err());
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile("x", &v, 0.99), Ok(990.0));
        // A p99 over ~90 samples, as a too-short window would give.
        let v: Vec<f64> = (1..=90).map(f64::from).collect();
        assert_eq!(percentile("x", &v, 0.99).unwrap_err().n, 90);
        assert!(percentile("x", &[], 0.5).is_err());
    }

    #[test]
    fn process_counters_read() {
        assert!(cpu_seconds() >= 0.0);
        assert!(steal_seconds() >= 0.0);
        assert!(peak_rss_mb() > 0.0);
        assert!(rss_mb() > 0.0 && rss_mb() <= peak_rss_mb());
    }
}
