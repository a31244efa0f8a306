//! The load generator: set-up, closed loops, the open loop and the
//! scraper, all speaking the wire protocol through `jsk_serve::Client`
//! over real TCP sockets on 127.0.0.1.
//!
//! Latency is timed from when a request was *due*: in a closed loop a
//! batch is due the moment the connection's previous flush completed; in
//! the open loop it is due at its scheduled arrival, so a stall also
//! charges the wait it imposes on later batches.

use crate::gen::{Plan, Workload, SCRAPE_EVERY_MS};
use crate::oracle::Reference;
use crate::speed::{probe_ns, process_cpu_ns, Prober, Speed, REFERENCE_PROBE_NS};
use crate::stats::{cpu_seconds, rss_mb};
use crate::traced::{TracedFront, Tracer};
use jsk_serve::{
    Client, Request, Response, Server, ServerConfig, Submission, TcpServer, TcpTransport,
};
use std::io;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-up is repeated this many times per run; `setup_s` is the fastest.
pub const SETUP_REPEATS: usize = 9;
/// Closed-loop warm-up before the timed window.
const WARMUP: Duration = Duration::from_secs(1);
/// The window's process CPU time and resident set are sampled this often,
/// so each part of the window can be rescaled by the host speed of its own
/// moment, and the resident set averaged over it.
const SAMPLE_EVERY: Duration = Duration::from_millis(100);
/// Scrapes of the finished page after the window (`corpus-tcp` and
/// `long-trace`, which scrape nothing while timing). Each is timed by the
/// process's CPU clock: with nothing else running that is the scrape's
/// cost (client, server and socket work), and it leaves out the waits for
/// the host to wake an idle CPU, which doubled the wall-clock p90 in busy
/// spells of the host. A probe runs between scrapes, and each scrape is
/// rescaled by the two probes around it: in some spells the host's speed
/// changes from one scrape to the next.
const IDLE_SCRAPES: usize = 200;

/// The server under test: the real `jsk_serve` front door, or the traced
/// re-composition of it.
pub enum Front {
    /// `jsk_serve::Server` behind `TcpServer`.
    Real(TcpServer),
    /// The traced front door (per-layer run).
    Traced(TracedFront),
}

impl Front {
    /// Starts a front door on an ephemeral 127.0.0.1 port.
    ///
    /// # Errors
    ///
    /// When the listener cannot bind.
    pub fn start(tracer: Option<&Arc<Tracer>>) -> io::Result<Front> {
        match tracer {
            None => {
                let server: Arc<Server> = Server::new(ServerConfig::new(2, 2));
                Ok(Front::Real(TcpServer::bind(server, "127.0.0.1:0")?))
            }
            Some(t) => Ok(Front::Traced(TracedFront::start(t.clone())?)),
        }
    }

    fn addr(&self) -> SocketAddr {
        match self {
            Front::Real(s) => s.local_addr(),
            Front::Traced(t) => t.local_addr(),
        }
    }

    /// Drains and stops the front door, joining its threads.
    pub fn stop(self) {
        match self {
            Front::Real(s) => {
                s.shutdown();
            }
            Front::Traced(t) => t.stop(),
        }
    }
}

/// What one connection recorded.
#[derive(Debug, Default)]
pub struct Log {
    /// Per-verdict latency of timed batches, ms, with when it was read.
    pub lat_ms: Vec<(Instant, f64)>,
    /// Per timed batch: how late its first write started, ms.
    pub late_ms: Vec<f64>,
    /// When each verdict frame was read.
    pub verdict_at: Vec<Instant>,
    /// Submissions sent.
    pub attempted: u64,
    /// Submissions answered by the reference verdict.
    pub ok: u64,
    /// Open loop: when each batch's first write started.
    pub starts: Vec<Instant>,
    /// Client round trips of the submits and flushes written at or after
    /// the window start, and how many there were.
    pub rtt: Duration,
    /// See `rtt`.
    pub requests: u64,
    /// Scrape round trips, ms, with when each ended.
    pub scrape_ms: Vec<(Instant, f64)>,
    /// Idle scrapes: process CPU time of each, ms, rescaled by the probes
    /// on either side of it, with when it ended.
    pub idle_scrape_cpu_ms: Vec<(Instant, f64)>,
    /// Sample lines on the first and last timed page.
    pub series: Option<(usize, usize)>,
}

impl Log {
    fn absorb(&mut self, other: Log) {
        self.lat_ms.extend(other.lat_ms);
        self.late_ms.extend(other.late_ms);
        self.verdict_at.extend(other.verdict_at);
        self.attempted += other.attempted;
        self.ok += other.ok;
        self.starts.extend(other.starts);
        self.rtt += other.rtt;
        self.requests += other.requests;
        self.scrape_ms.extend(other.scrape_ms);
        self.idle_scrape_cpu_ms.extend(other.idle_scrape_cpu_ms);
        self.series = self.series.or(other.series);
    }

    fn round_trip(&mut self, started: Instant, w0: Instant) {
        if started >= w0 {
            self.rtt += started.elapsed();
            self.requests += 1;
        }
    }
}

/// One run's raw measurements.
#[derive(Debug)]
pub struct Run {
    /// Each set-up's duration, s, with when it ended.
    pub setup_s: Vec<(Instant, f64)>,
    /// Scheduled start of the timed window.
    pub w0: Instant,
    /// The window as measured: from when the sampler woke at its start
    /// to when it woke at its end.
    pub window: (Instant, Instant),
    /// Process CPU seconds read at the window's start, every
    /// [`SAMPLE_EVERY`], and at its end.
    pub cpu_marks: Vec<(Instant, f64)>,
    /// Resident set size in MiB, read with each CPU mark.
    pub rss_marks: Vec<f64>,
    /// The host's speed over the run.
    pub speed: Speed,
    /// Everything the connections recorded.
    pub log: Log,
    /// Open loop: batches due but not started, at every half second of
    /// the window.
    pub backlog: Option<Vec<usize>>,
}

impl Run {
    /// Measured window length, s.
    #[must_use]
    pub fn window_s(&self) -> f64 {
        (self.window.1 - self.window.0).as_secs_f64()
    }

    /// Verdicts read in each whole second of the measured window.
    #[must_use]
    pub fn per_second(&self) -> Vec<usize> {
        let (a, b) = self.window;
        let secs = (b - a).as_secs_f64().round() as usize;
        let mut out = vec![0; secs];
        for t in &self.log.verdict_at {
            if *t >= a {
                if let Some(slot) = out.get_mut((*t - a).as_secs() as usize) {
                    *slot += 1;
                }
            }
        }
        out
    }

    /// Process CPU seconds over the measured window.
    #[must_use]
    pub fn cpu_s(&self) -> f64 {
        match (self.cpu_marks.first(), self.cpu_marks.last()) {
            (Some(a), Some(b)) => b.1 - a.1,
            _ => 0.0,
        }
    }

    /// The window's CPU seconds, each slice rescaled to the reference
    /// host by the probes around it.
    #[must_use]
    pub fn reference_cpu_s(&self) -> f64 {
        self.cpu_marks
            .windows(2)
            .map(|w| (w[1].1 - w[0].1) * self.speed.cpu_scale_at(w[0].0 + (w[1].0 - w[0].0) / 2))
            .sum()
    }

    /// The window in reference seconds: each sample interval rescaled by
    /// the host's speed and steal around it. A closed loop keeps every CPU
    /// busy, so it loses exactly the share the hypervisor steals.
    #[must_use]
    pub fn reference_busy_seconds(&self) -> f64 {
        self.cpu_marks
            .windows(2)
            .map(|c| {
                (c[1].0 - c[0].0).as_secs_f64()
                    * self.speed.scale_at(c[0].0 + (c[1].0 - c[0].0) / 2)
            })
            .sum()
    }

    /// Verdicts read inside the measured window.
    #[must_use]
    pub fn verdicts_in_window(&self) -> usize {
        let (a, b) = self.window;
        self.log
            .verdict_at
            .iter()
            .filter(|t| **t >= a && **t <= b)
            .count()
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// Sends one batch and flushes it; grades every per-site response.
/// `timed` batches record latency from `due` and the sender's lateness.
fn send_batch(
    client: &mut Client,
    batch: &[Submission],
    due: Instant,
    timed: bool,
    w0: Instant,
    reference: &Reference,
    log: &mut Log,
) -> io::Result<()> {
    let start = Instant::now();
    if timed {
        log.late_ms.push(ms(start - due));
        log.starts.push(start);
    }
    log.attempted += batch.len() as u64;
    let mut queued = Vec::with_capacity(batch.len());
    for sub in batch {
        let t = Instant::now();
        let resp = client.submit(sub)?;
        log.round_trip(t, w0);
        if matches!(resp, Response::Queued { .. }) {
            queued.push(sub);
        }
    }
    let t = Instant::now();
    let mut resp = client.request(&Request::Flush)?;
    let mut answered = 0;
    while !matches!(resp, Response::FlushOk { .. }) {
        let at = Instant::now();
        // Flush results arrive one per queued submission, in order.
        if let Some(sub) = queued.get(answered) {
            if reference.matches(sub, &resp) {
                log.ok += 1;
                log.verdict_at.push(at);
                if timed {
                    log.lat_ms.push((at, ms(at - due)));
                }
            }
        }
        answered += 1;
        resp = client.read_response()?;
    }
    log.round_trip(t, w0);
    Ok(())
}

/// Counts the sample lines of an exposition page.
fn sample_lines(page: &str) -> usize {
    page.lines().filter(|l| !l.starts_with('#')).count()
}

fn scrape(client: &mut Client, log: &mut Log) -> io::Result<usize> {
    let t = Instant::now();
    let page = client.metrics_page()?;
    log.scrape_ms.push((Instant::now(), ms(t.elapsed())));
    Ok(sample_lines(&page))
}

/// A closed loop over `batches`, cycling, until `end`; batches due before
/// `w0` are warm-up and are not timed.
fn closed_loop(
    addr: SocketAddr,
    batches: &[Vec<Submission>],
    w0: Instant,
    end: Instant,
    reference: &Reference,
) -> io::Result<Log> {
    let mut client = Client::connect(&TcpTransport::new(addr)?)?;
    let mut log = Log::default();
    for batch in batches.iter().cycle() {
        let due = Instant::now();
        if due >= end {
            break;
        }
        send_batch(&mut client, batch, due, due >= w0, w0, reference, &mut log)?;
    }
    client.bye()?;
    Ok(log)
}

/// The open loop: batch `i` is due at `w0 + arrivals[i]`.
fn open_loop(
    addr: SocketAddr,
    batches: &[Vec<Submission>],
    arrivals: &[f64],
    w0: Instant,
    reference: &Reference,
) -> io::Result<Log> {
    let mut client = Client::connect(&TcpTransport::new(addr)?)?;
    let mut log = Log::default();
    for (batch, at) in batches.iter().zip(arrivals) {
        let due = w0 + Duration::from_secs_f64(*at);
        sleep_until(due);
        send_batch(&mut client, batch, due, true, w0, reference, &mut log)?;
    }
    client.bye()?;
    Ok(log)
}

/// Scrapes every [`SCRAPE_EVERY_MS`] from `w0` until `end`, recording
/// the page's sample-line count at the first and last scrape.
fn scraper(addr: SocketAddr, w0: Instant, end: Instant) -> io::Result<Log> {
    let mut client = Client::connect(&TcpTransport::new(addr)?)?;
    let mut log = Log::default();
    let (mut first, mut last) = (None, 0);
    for k in 0.. {
        let due = w0 + Duration::from_millis(SCRAPE_EVERY_MS * k);
        if due >= end {
            break;
        }
        sleep_until(due);
        last = scrape(&mut client, &mut log)?;
        first.get_or_insert(last);
    }
    log.series = first.map(|f| (f, last));
    client.bye()?;
    Ok(log)
}

/// Starts a front door and serves the fixed set-up probe through it;
/// returns the time from server construction to the probe's verdict.
fn set_up(
    tracer: Option<&Arc<Tracer>>,
    plan: &Plan,
    reference: &Reference,
    log: &mut Log,
) -> io::Result<(f64, Front, Client)> {
    let t0 = Instant::now();
    let front = Front::start(tracer)?;
    let mut client = Client::connect(&TcpTransport::new(front.addr())?)?;
    let ok = log.ok;
    send_batch(&mut client, &plan.warmup[0], t0, false, t0, reference, log)?;
    let took = t0.elapsed().as_secs_f64();
    if log.ok == ok {
        return Err(io::Error::other("set-up probe got no correct verdict"));
    }
    Ok((took, front, client))
}

/// Runs `plan` for a `seconds`-long timed window against the real front
/// door (`tracer = None`, set-up repeated [`SETUP_REPEATS`] times) or the
/// traced one (set-up once).
///
/// # Errors
///
/// Any socket or protocol failure.
pub fn run(
    plan: &Plan,
    reference: &Reference,
    seconds: u64,
    tracer: Option<&Arc<Tracer>>,
) -> io::Result<Run> {
    let prober = Prober::start();
    let mut log = Log::default();
    let repeats = if tracer.is_some() { 1 } else { SETUP_REPEATS };
    let mut setup_s = Vec::with_capacity(repeats);
    let (mut front, mut client): (Option<Front>, Option<Client>) = (None, None);
    for _ in 0..repeats {
        if let (Some(f), Some(mut c)) = (front.take(), client.take()) {
            c.bye()?;
            Front::stop(f);
        }
        let (s, f, c) = set_up(tracer, plan, reference, &mut log)?;
        setup_s.push((Instant::now(), s));
        front = Some(f);
        client = Some(c);
    }
    let front = front.expect("at least one set-up");
    let mut client = client.expect("at least one set-up");
    let addr = front.addr();
    let now = Instant::now();
    for batch in &plan.warmup[1..] {
        send_batch(&mut client, batch, now, false, now, reference, &mut log)?;
    }
    client.bye()?;

    let window = Duration::from_secs(seconds);
    let lead = match plan.workload {
        Workload::FleetScrape => Duration::from_millis(100),
        Workload::CorpusTcp | Workload::LongTrace => WARMUP,
    };
    let w0 = Instant::now() + lead;
    let end = w0 + window;
    let (cpu_marks, rss_marks, logs) = std::thread::scope(|scope| {
        let handles: Vec<_> = match plan.workload {
            Workload::CorpusTcp | Workload::LongTrace => plan
                .conns
                .iter()
                .map(|batches| scope.spawn(move || closed_loop(addr, batches, w0, end, reference)))
                .collect(),
            Workload::FleetScrape => vec![
                scope.spawn(move || open_loop(addr, &plan.conns[0], &plan.arrivals, w0, reference)),
                scope.spawn(move || scraper(addr, w0, end)),
            ],
        };
        sleep_until(w0);
        let mut marks = vec![(Instant::now(), cpu_seconds())];
        let mut rss = vec![rss_mb()];
        let mut next = w0;
        while next < end {
            next = (next + SAMPLE_EVERY).min(end);
            sleep_until(next);
            marks.push((Instant::now(), cpu_seconds()));
            rss.push(rss_mb());
        }
        let logs: Vec<io::Result<Log>> = handles
            .into_iter()
            .map(|h| h.join().expect("load generator thread panicked"))
            .collect();
        (marks, rss, logs)
    });
    let measured = (cpu_marks[0].0, cpu_marks[cpu_marks.len() - 1].0);
    for l in logs {
        log.absorb(l?);
    }
    if plan.workload != Workload::FleetScrape {
        let mut client = Client::connect(&TcpTransport::new(addr)?)?;
        let mut before = probe_ns();
        for _ in 0..IDLE_SCRAPES {
            let c0 = process_cpu_ns();
            scrape(&mut client, &mut log)?;
            let cpu_ms = (process_cpu_ns() - c0) / 1e6;
            let after = probe_ns();
            let scale = REFERENCE_PROBE_NS / ((before + after) / 2.0);
            log.idle_scrape_cpu_ms
                .push((Instant::now(), cpu_ms * scale));
            before = after;
        }
        client.bye()?;
    }
    front.stop();
    let speed = prober.finish();

    let backlog = (plan.workload == Workload::FleetScrape).then(|| {
        let due: Vec<Instant> = plan
            .arrivals
            .iter()
            .map(|a| w0 + Duration::from_secs_f64(*a))
            .collect();
        let backlog_at = |t: Instant| {
            let d = due.iter().filter(|x| **x <= t).count();
            let s = log.starts.iter().filter(|x| **x <= t).count();
            d.saturating_sub(s)
        };
        (1..=2 * seconds)
            .map(|k| backlog_at(w0 + Duration::from_millis(500 * k)))
            .collect()
    });
    Ok(Run {
        setup_s,
        w0,
        window: measured,
        cpu_marks,
        rss_marks,
        speed,
        log,
        backlog,
    })
}
