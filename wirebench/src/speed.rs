//! Host-speed normalization.
//!
//! The benchmark runs on shared hosts whose per-core speed drifts by up to
//! 1.7x over minutes, as neighbours come and go on the sibling hardware
//! threads, and whose hypervisor at times takes back a sixth of the CPU
//! time (*steal*). A run's raw times then say more about the host than
//! about the program. So every run also times a fixed reference workload
//! (a *probe*) in the background, ten times a second, on its own thread's
//! CPU clock, and reads the machine's steal counter with each probe. Each
//! time the run reports is rescaled to a host on which one probe takes
//! [`REFERENCE_PROBE_NS`] and nothing is stolen.
//!
//! The probe is the benchmark's own code, never the program's: a change
//! that speeds up the program does not speed up the probe, so it shows in
//! full in the normalized figures.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The probe's CPU time on the reference host: one probe on an unloaded
/// core of the 2-core x86-64 VM the bounds were set on, in its fast phase.
pub const REFERENCE_PROBE_NS: f64 = 400_000.0;
/// Time between probes.
const PROBE_EVERY: Duration = Duration::from_millis(100);
/// A time is rescaled by the median probe within this distance of it.
const NEIGHBOURHOOD: Duration = Duration::from_millis(1000);

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
/// `CLOCK_THREAD_CPUTIME_ID` on Linux.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn clock_ns(clock: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec with the C layout, and
    // the clock ids are constants every Linux kernel supports.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as f64 * 1e9 + ts.tv_nsec as f64
}

/// CPU time of the calling thread, ns. Time the thread spends preempted
/// by the benchmark's own threads does not count; a slower core does.
#[must_use]
pub fn thread_cpu_ns() -> f64 {
    clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU time of the whole process, all threads, ns.
#[must_use]
pub fn process_cpu_ns() -> f64 {
    clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// The fixed reference workload: sorting, hashing, a hash map and string
/// building over seeded data, the kinds of work the program does. Always
/// the same instructions; returns a checksum so none of it is elided.
#[must_use]
pub fn probe_work() -> u64 {
    let mut rng = crate::gen::Rng::new(0x9E0B, 0);
    let mut v: Vec<u64> = (0..6000).map(|_| rng.next_u64()).collect();
    v.sort_unstable();
    let mut map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> =
        HashMap::with_capacity_and_hasher(2048, BuildHasherDefault::default());
    for (i, x) in v.iter().enumerate().step_by(3) {
        map.insert(*x >> 20, i as u64);
    }
    let mut sum = 0u64;
    for x in &v {
        sum = sum.wrapping_add(map.get(&(*x >> 20)).copied().unwrap_or(1));
    }
    let mut s = String::with_capacity(16 * 1024);
    for x in v.iter().take(800) {
        use std::fmt::Write as _;
        let _ = writeln!(s, "{{site=\"{:x}\"}} {}", x >> 40, x % 1000);
    }
    sum.wrapping_add(s.len() as u64) ^ black_box(v[v.len() / 2])
}

/// One probe's CPU time on the calling thread, ns.
#[must_use]
pub fn probe_ns() -> f64 {
    let c0 = thread_cpu_ns();
    black_box(probe_work());
    thread_cpu_ns() - c0
}

/// Probe timings and steal readings taken over a run.
#[derive(Debug, Clone, Default)]
pub struct Speed {
    /// When each probe ended, and its thread CPU time in ns.
    samples: Vec<(Instant, f64)>,
    /// The machine's steal seconds (all CPUs), read after each probe.
    steal: Vec<(Instant, f64)>,
}

impl Speed {
    /// Median probe CPU time, ns, over the whole run.
    #[must_use]
    pub fn median_probe_ns(&self) -> f64 {
        crate::stats::median(&self.samples.iter().map(|s| s.1).collect::<Vec<_>>())
    }

    /// How many probes were taken.
    #[must_use]
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// CPU seconds stolen over the whole run, all CPUs together.
    #[must_use]
    pub fn stolen_s(&self) -> f64 {
        match (self.steal.first(), self.steal.last()) {
            (Some(a), Some(b)) => b.1 - a.1,
            _ => 0.0,
        }
    }

    /// The factor that rescales a wall time measured at `t` to the
    /// reference host: [`Speed::cpu_scale_at`], times the share of the
    /// machine's CPU time the hypervisor left it near `t`.
    #[must_use]
    pub fn scale_at(&self, t: Instant) -> f64 {
        self.cpu_scale_at(t) * (1.0 - self.stolen_share_at(t))
    }

    /// The share of the machine's CPU time stolen between the first and
    /// the last steal reading near `t`; 0 with fewer than two.
    fn stolen_share_at(&self, t: Instant) -> f64 {
        let mut near = self.steal.iter().filter(|(at, _)| close(*at, t));
        let (Some(a), Some(b)) = (near.next(), near.next_back()) else {
            return 0.0;
        };
        let cpus = std::thread::available_parallelism().map_or(1, usize::from) as f64;
        let span = (b.0 - a.0).as_secs_f64();
        if span <= 0.0 {
            return 0.0;
        }
        ((b.1 - a.1) / (cpus * span)).clamp(0.0, 0.9)
    }

    /// The factor that rescales a CPU time measured at `t` to the
    /// reference host: the reference probe time over the median probe near
    /// `t` (over the whole run if no probe is near). Steal does not enter:
    /// CPU clocks do not run while the hypervisor holds the CPU.
    #[must_use]
    pub fn cpu_scale_at(&self, t: Instant) -> f64 {
        let near: Vec<f64> = self
            .samples
            .iter()
            .filter(|(at, _)| close(*at, t))
            .map(|s| s.1)
            .collect();
        let probe = if near.is_empty() {
            self.median_probe_ns()
        } else {
            crate::stats::median(&near)
        };
        REFERENCE_PROBE_NS / probe
    }
}

/// Whether `a` and `b` are within [`NEIGHBOURHOOD`] of each other.
fn close(a: Instant, b: Instant) -> bool {
    a.max(b).duration_since(a.min(b)) <= NEIGHBOURHOOD
}

/// A background thread that probes until stopped.
pub struct Prober {
    stop: Arc<AtomicBool>,
    samples: Arc<Mutex<Speed>>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Prober {
    /// Starts probing every [`PROBE_EVERY`].
    #[must_use]
    pub fn start() -> Prober {
        let stop = Arc::new(AtomicBool::new(false));
        let samples = Arc::new(Mutex::new(Speed::default()));
        let handle = {
            let (stop, samples) = (stop.clone(), samples.clone());
            std::thread::spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    let took = probe_ns();
                    let stolen = crate::stats::steal_seconds();
                    let now = Instant::now();
                    let mut speed = samples.lock().expect("probe samples");
                    speed.samples.push((now, took));
                    speed.steal.push((now, stolen));
                    std::thread::park_timeout(PROBE_EVERY);
                }
            })
        };
        Prober {
            stop,
            samples,
            handle: Some(handle),
        }
    }

    /// Stops the thread, waits for it, and returns what it measured.
    #[must_use]
    pub fn finish(mut self) -> Speed {
        self.halt();
        std::mem::take(&mut *self.samples.lock().expect("probe samples"))
    }

    fn halt(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            h.thread().unpark();
            h.join().expect("probe thread panicked");
        }
    }
}

/// A run that ends early, on an error, still stops and joins the thread.
impl Drop for Prober {
    fn drop(&mut self) {
        self.halt();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_is_deterministic_and_costs_cpu() {
        assert_eq!(probe_work(), probe_work());
        let c0 = thread_cpu_ns();
        black_box(probe_work());
        assert!(thread_cpu_ns() > c0);
    }

    #[test]
    fn a_slow_host_scales_times_down() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        // Twice as slow as the reference, then as fast for a while.
        let speed = Speed {
            samples: (0..40)
                .map(|k| {
                    let probe = if k < 21 { 2.0 } else { 1.0 };
                    (at(100 * k), probe * REFERENCE_PROBE_NS)
                })
                .collect(),
            // Steal grows at a quarter of every CPU's time from 1 s on.
            steal: (0..40u64)
                .map(|k| {
                    let cpus = std::thread::available_parallelism().map_or(1, usize::from);
                    let stolen = 0.025 * k.saturating_sub(10) as f64 * cpus as f64;
                    (at(100 * k), stolen)
                })
                .collect(),
        };
        assert!((speed.cpu_scale_at(at(500)) - 0.5).abs() < 1e-12);
        assert!((speed.cpu_scale_at(at(3500)) - 1.0).abs() < 1e-12);
        // Far from every probe: the run's median, and no steal.
        assert!((speed.scale_at(at(60_000)) - 0.5).abs() < 1e-12);
        // Steal shortens wall time but not CPU time.
        assert!((speed.cpu_scale_at(at(2500)) - 1.0).abs() < 1e-12);
        assert!((speed.scale_at(at(2500)) - 0.75).abs() < 1e-9);
    }
}
