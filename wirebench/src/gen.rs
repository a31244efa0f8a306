//! Seeded input generation. Every submission a run sends is a pure
//! function of `(workload, seed, seconds)`; the server only ever sees the
//! generated submissions. [`Plan::hash`] fingerprints the whole generated
//! input so two runs can be shown to drive identical inputs.

use jsk_serve::job::POLICY_NAMES;
use jsk_serve::protocol::{request_payload, Request};
use jsk_serve::Submission;
use jsk_workloads::schedule::{seed_schedules, Schedule};

/// Site-label variants per (program, policy) in the corpus catalogue:
/// 15 programs x 7 policies x 4 variants = 420 (site, policy) labels.
const VARIANTS: usize = 4;
/// Batches per connection in a closed loop's input list, which the loop
/// cycles through.
const CLOSED_BATCHES: usize = 4096;
/// `fleet-scrape` offered load, in batches per second (mean 4.5 sites a
/// batch, so 504 sites/s). Fixed, never adapted to the machine: about a
/// quarter of the ~2000 sites/s one submitting connection sustains beside
/// the scraper on a 2-core host (2-connection `corpus-tcp` reaches ~6300/s,
/// but one connection serializes its flushes). At half that capacity a
/// shared host that takes back part of the CPU for a few seconds pushes the
/// server past saturation and the backlog never drains; a quarter leaves
/// room to absorb such a spell. A multiple of 8, so every window holds
/// whole balanced sets of batch sizes.
pub const FLEET_BATCHES_PER_S: usize = 112;
/// `fleet-scrape` scrape period.
pub const SCRAPE_EVERY_MS: u64 = 100;
/// Programs whose trace grows with `run_ms`, for `long-trace`.
const LONG_PROGRAMS: [&str; 4] = [
    "listing-1",
    "CVE-2018-5092",
    "CVE-2014-3194",
    "CVE-2013-6646",
];
/// Policies under which all four long programs grow their traces.
const LONG_POLICIES: [&str; 3] = ["kernel", "hardened", "chromezero"];
/// The held-out seed: claims made while tuning on other seeds are
/// confirmed on this one.
pub const HELD_OUT_SEED: u64 = 0x5EED_0D0C;

/// SplitMix64: small, seedable, and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    #[must_use]
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop, 2 connections, batches of 1-16 corpus sites.
    CorpusTcp,
    /// Closed loop, 1 connection, pairs of long-trace sites.
    LongTrace,
    /// Open loop, 1 submitting connection at a fixed Poisson rate plus 1
    /// scraping connection.
    FleetScrape,
}

impl Workload {
    /// Parses a workload name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "corpus-tcp" => Some(Workload::CorpusTcp),
            "long-trace" => Some(Workload::LongTrace),
            "fleet-scrape" => Some(Workload::FleetScrape),
            _ => None,
        }
    }

    /// The workload's name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::CorpusTcp => "corpus-tcp",
            Workload::LongTrace => "long-trace",
            Workload::FleetScrape => "fleet-scrape",
        }
    }

    /// The tail percentile of generator lateness this workload's sample
    /// supports.
    #[must_use]
    pub fn tail_q(self) -> f64 {
        match self {
            Workload::LongTrace => 0.90,
            Workload::CorpusTcp | Workload::FleetScrape => 0.99,
        }
    }
}

/// One run's generated input.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// Per submitting connection, its batches. Closed loops cycle through
    /// them; the open loop sends each once, at `arrivals[i]`.
    pub conns: Vec<Vec<Vec<Submission>>>,
    /// Open loop only: batch `i` is due `arrivals[i]` seconds into the
    /// timed window.
    pub arrivals: Vec<f64>,
    /// Batches served before the timed window. The first is the fixed
    /// set-up probe, whose verdict ends set-up; `fleet-scrape` follows it
    /// with batches that fill every series its timed batches will touch,
    /// so the page size is constant while timing runs.
    pub warmup: Vec<Vec<Submission>>,
}

impl Plan {
    /// Generates the input of `workload` for `seed` and a `seconds`-long
    /// window.
    #[must_use]
    pub fn generate(workload: Workload, seed: u64, seconds: u64) -> Plan {
        let mut rng = Rng::new(seed, 1);
        match workload {
            Workload::CorpusTcp => {
                let cat = catalogue(&mut rng);
                let conns = (0..2)
                    .map(|_| {
                        (0..CLOSED_BATCHES)
                            .map(|_| {
                                let n = 1 + rng.below(16);
                                (0..n).map(|_| cat[rng.below(cat.len())].clone()).collect()
                            })
                            .collect()
                    })
                    .collect();
                Plan {
                    workload,
                    conns,
                    arrivals: Vec::new(),
                    warmup: vec![vec![probe()]],
                }
            }
            Workload::LongTrace => {
                let (long, short) = long_sites(&mut rng);
                // Each cycle pairs every long site (the 38x and 48x runs)
                // with a short one (18x, 28x) in a fresh seeded order, so
                // every run serves the same multiset at the same rate and
                // each flush leaves one worker idle while the other
                // finishes the long site.
                let mut batches = Vec::new();
                while batches.len() < CLOSED_BATCHES / 4 {
                    let (mut l, mut s) = (
                        (0..long.len()).collect::<Vec<_>>(),
                        (0..short.len()).collect::<Vec<_>>(),
                    );
                    rng.shuffle(&mut l);
                    rng.shuffle(&mut s);
                    for (i, j) in l.into_iter().zip(s) {
                        batches.push(vec![long[i].clone(), short[j].clone()]);
                    }
                }
                Plan {
                    workload,
                    conns: vec![batches],
                    arrivals: Vec::new(),
                    warmup: vec![vec![probe()]],
                }
            }
            Workload::FleetScrape => {
                let cat = catalogue(&mut rng);
                // Batch sizes: a shuffled, balanced multiset of 1..=8, so
                // the offered site rate is exact for every seed.
                let n = FLEET_BATCHES_PER_S * seconds as usize;
                let mut sizes: Vec<usize> = (0..n).map(|i| 1 + i % 8).collect();
                rng.shuffle(&mut sizes);
                let batches: Vec<Vec<Submission>> = sizes
                    .iter()
                    .map(|&k| (0..k).map(|_| cat[rng.below(cat.len())].clone()).collect())
                    .collect();
                // Poisson arrivals conditioned on their count: sorted
                // uniform instants over the window.
                let mut arrivals: Vec<f64> = (0..n).map(|_| rng.unit() * seconds as f64).collect();
                arrivals.sort_by(f64::total_cmp);
                // Warm-up: every label twice in a row, so it lands on both
                // shards (submission i homes on shard i % 2).
                let fill = cat
                    .chunks(8)
                    .map(|c| c.iter().flat_map(|s| [s.clone(), s.clone()]).collect());
                let warmup = std::iter::once(vec![probe()]).chain(fill).collect();
                Plan {
                    workload,
                    conns: vec![batches],
                    arrivals,
                    warmup,
                }
            }
        }
    }

    /// Offered sites per second (open loop only).
    #[must_use]
    pub fn offered_per_s(&self) -> f64 {
        let batches = &self.conns[0];
        let sites: usize = batches.iter().map(Vec::len).sum();
        sites as f64 * FLEET_BATCHES_PER_S as f64 / batches.len() as f64
    }

    /// Every submission the plan sends, repeats included.
    pub fn submissions(&self) -> impl Iterator<Item = &Submission> {
        self.warmup
            .iter()
            .chain(self.conns.iter().flatten())
            .flatten()
    }

    /// FNV-1a over every submission's wire payload, the batch
    /// boundaries, and the arrival instants.
    #[must_use]
    pub fn hash(&self) -> u64 {
        let mut h = Fnv::default();
        h.str(self.workload.name());
        for batches in std::iter::once(&self.warmup).chain(&self.conns) {
            h.u64(batches.len() as u64);
            for batch in batches {
                h.u64(batch.len() as u64);
                for sub in batch {
                    h.str(&request_payload(&submit_request(sub)));
                }
            }
        }
        for a in &self.arrivals {
            h.u64(a.to_bits());
        }
        h.0
    }
}

/// The `submit_site` frame for a submission.
#[must_use]
pub fn submit_request(sub: &Submission) -> Request {
    Request::SubmitSite {
        site: sub.site.clone(),
        seed: sub.seed,
        policy: sub.policy.clone(),
        schedule: sub.schedule.clone(),
        deadline_ms: sub.deadline_ms,
    }
}

/// The set-up probe: the same cheap site for every workload and seed, so
/// `setup_s` measures the front door coming up, not a site's work.
fn probe() -> Submission {
    let schedule = seed_schedules().swap_remove(1);
    debug_assert_eq!(schedule.name, "CVE-2017-7843");
    Submission {
        site: "probe".to_owned(),
        seed: 1,
        policy: "kernel".to_owned(),
        schedule,
        deadline_ms: 0,
    }
}

/// 15 seed programs x 7 wire policies x [`VARIANTS`] site labels, each
/// label with its own fixed run seed.
fn catalogue(rng: &mut Rng) -> Vec<Submission> {
    let mut out = Vec::new();
    for schedule in seed_schedules() {
        for (policy, _) in POLICY_NAMES {
            for k in 0..VARIANTS {
                out.push(Submission {
                    site: format!("{}~{k}", schedule.name),
                    seed: rng.next_u64(),
                    policy: (*policy).to_owned(),
                    schedule: schedule.clone(),
                    deadline_ms: 0,
                });
            }
        }
    }
    out
}

/// The 48 `long-trace` sites: each long program under each growing
/// policy at four run lengths, one near each of 18x, 28x, 38x and 48x
/// (seeded within +-1), so every seed serves nearly the same total work.
/// At 48x the largest trace (`CVE-2013-6646` under `chromezero`) is ~40k
/// records; at 64x it passes 50k and that one site takes about a third of
/// each cycle's work.
/// Returned as (38x and 48x sites, 18x and 28x sites).
fn long_sites(rng: &mut Rng) -> (Vec<Submission>, Vec<Submission>) {
    let schedules = seed_schedules();
    let (mut long, mut short) = (Vec::new(), Vec::new());
    for name in LONG_PROGRAMS {
        let base: &Schedule = schedules
            .iter()
            .find(|s| s.name == name)
            .expect("long program is in the seed corpus");
        for policy in LONG_POLICIES {
            for stratum in 0..4u32 {
                let scale = 17 + 10 * stratum + rng.below(3) as u32;
                let mut schedule = base.clone();
                schedule.run_ms *= scale;
                let sub = Submission {
                    site: format!("{name}x{scale}"),
                    seed: rng.next_u64(),
                    policy: policy.to_owned(),
                    schedule,
                    deadline_ms: 0,
                };
                if stratum >= 2 {
                    long.push(sub);
                } else {
                    short.push(sub);
                }
            }
        }
    }
    (long, short)
}

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xCBF2_9CE4_8422_2325)
    }
}

impl Fnv {
    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 = (self.0 ^ u64::from(x)).wrapping_mul(0x0100_0000_01B3);
        }
    }
    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        for w in [
            Workload::CorpusTcp,
            Workload::LongTrace,
            Workload::FleetScrape,
        ] {
            let a = Plan::generate(w, 7, 2).hash();
            assert_eq!(a, Plan::generate(w, 7, 2).hash(), "{}", w.name());
            assert_ne!(a, Plan::generate(w, 8, 2).hash(), "{}", w.name());
        }
    }

    #[test]
    fn fleet_offered_rate_is_exact_for_every_seed() {
        for seed in 0..5 {
            let p = Plan::generate(Workload::FleetScrape, seed, 2);
            assert_eq!(p.arrivals.len(), 2 * FLEET_BATCHES_PER_S);
            assert!((p.offered_per_s() - 4.5 * FLEET_BATCHES_PER_S as f64).abs() < 1e-9);
            assert!(p.arrivals.windows(2).all(|w| w[0] <= w[1]));
        }
    }

    #[test]
    fn long_sites_stay_within_wire_admission() {
        let p = Plan::generate(Workload::LongTrace, 3, 1);
        for sub in p.submissions() {
            assert!(jsk_serve::job::validate(sub).is_ok(), "{}", sub.site);
        }
    }
}
