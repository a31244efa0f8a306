//! The traced run: a front door re-composed from the same public
//! functions `jsk_serve`'s session and `jsk_serve::job::run_submission`
//! call, with a span around each call. The program itself is not
//! instrumented; the spans come from here, around the calls into each
//! layer.
//!
//! Per connection the re-composition mirrors `Session::on_bytes` and the
//! TCP connection thread: read up to 4 KiB, decode frames
//! (`FrameDecoder::next_payload` + `parse_request`), handle each request
//! under the same server-lock discipline (`with_wire` per frame, submit,
//! flush and verdict; `merge_site_metrics` per flush; `metrics_page`
//! clones and renders under the lock), encode responses
//! (`response_payload` + `encode_frame`) and write each frame. A flush
//! goes through `ShardPool::serve_with_cancel` with jobs whose closures
//! re-compose `run_submission`: policy config and mediator,
//! `run_schedule_with`, `HbGraph::from_trace`, `detect_races`, `scan`,
//! `MetricsSnapshot::with_labels`.

use jsk_analyze::{detect_races, scan, HbGraph};
use jsk_core::kernel::JsKernel;
use jsk_observe::{handle_of, render_text, MetricsSnapshot, Observer};
use jsk_serve::job::validate;
use jsk_serve::protocol::{
    encode_frame, parse_request, response_payload, FrameDecoder, Request, Response,
    PROTOCOL_VERSION,
};
use jsk_serve::{policy_kind, Submission, WireStats};
use jsk_shard::serve::{ServeConfig, ShardPool, SiteCtx, SiteJob, SiteOutcome, SiteOutput};
use jsk_workloads::schedule::{run_schedule_with, Schedule};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One finished span. Times are ns since the tracer's epoch; `parent` 0
/// means a root; spans of one request share `req`.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Span name (`layer.call`).
    pub name: &'static str,
    /// Unique id (from 1).
    pub id: u64,
    /// Causing span, 0 for a root.
    pub parent: u64,
    /// Request id (0 when the span completed no request).
    pub req: u64,
    /// Start, ns.
    pub start: u64,
    /// End, ns.
    pub end: u64,
    /// The count the layer produced here: bytes read (`serve.on_bytes`),
    /// bytes written (`serve.encode`), sites (`shard.serve`), trace
    /// records (`browser.run`), kernel events dispatched (`site`),
    /// happens-before nodes (`analyze.hb`), series rendered
    /// (`observe.render`).
    pub n: u64,
}

/// In-memory span store.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    next_req: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer whose clock starts now.
    #[must_use]
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            next_req: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        })
    }

    /// ns since the epoch of `t`.
    #[must_use]
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn begin(&self, name: &'static str, parent: u64, req: u64) -> Span {
        Span {
            name,
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            req,
            start: self.at(Instant::now()),
            end: 0,
            n: 0,
        }
    }

    fn end(&self, mut span: Span, buf: &mut Vec<Span>) {
        span.end = self.at(Instant::now());
        buf.push(span);
    }

    fn publish(&self, buf: &mut Vec<Span>) {
        self.spans.lock().expect("span store").append(buf);
    }

    /// Every span recorded so far, leaving the store empty.
    #[must_use]
    pub fn take_spans(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span store"))
    }
}

/// The re-composed server state.
struct State {
    tracer: Arc<Tracer>,
    pool: ShardPool,
    cancel: AtomicBool,
    shared: Mutex<(MetricsSnapshot, WireStats)>,
}

impl State {
    fn with_wire(&self, f: impl FnOnce(&mut WireStats)) {
        f(&mut self.shared.lock().expect("server state").1);
    }
}

/// The traced TCP front door: one thread per connection.
pub struct TracedFront {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: std::thread::JoinHandle<Vec<std::thread::JoinHandle<()>>>,
}

impl TracedFront {
    /// Binds 127.0.0.1 on an ephemeral port and starts accepting.
    ///
    /// # Errors
    ///
    /// When the listener cannot bind.
    pub fn start(tracer: Arc<Tracer>) -> io::Result<TracedFront> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let state = Arc::new(State {
            tracer,
            pool: ShardPool::new(ServeConfig::new(2, 2)),
            cancel: AtomicBool::new(false),
            shared: Mutex::new((MetricsSnapshot::default(), WireStats::default())),
        });
        let accept = {
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut conns = Vec::new();
                for stream in listener.incoming() {
                    if stop.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let state = state.clone();
                    conns.push(std::thread::spawn(move || serve_conn(&state, stream)));
                }
                conns
            })
        };
        Ok(TracedFront { addr, stop, accept })
    }

    /// The bound address.
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting and joins every connection thread (each ends when
    /// its client says `bye` or disconnects).
    pub fn stop(self) {
        self.stop.store(true, Ordering::Release);
        // Wake the blocking accept.
        let _ = TcpStream::connect(self.addr);
        let conns = self.accept.join().expect("accept thread panicked");
        for c in conns {
            c.join().expect("connection thread panicked");
        }
    }
}

fn serve_conn(state: &State, mut stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    state.with_wire(|w| w.connections += 1);
    let t = &state.tracer;
    let mut decoder = FrameDecoder::new(0);
    let mut queue: Vec<Submission> = Vec::new();
    let mut spans = Vec::new();
    let mut buf = [0u8; 4096];
    let mut closed = false;
    while !closed {
        let n = match stream.read(&mut buf) {
            Ok(0) | Err(_) => return,
            Ok(n) => n,
        };
        let mut root = t.begin("serve.on_bytes", 0, 0);
        root.n = n as u64;
        decoder.push(&buf[..n]);
        let mut frames = Vec::new();
        while !closed {
            let mut d = t.begin("serve.decode", root.id, 0);
            let req = match decoder.next_payload() {
                Ok(None) => {
                    t.end(d, &mut spans);
                    break;
                }
                Ok(Some(payload)) => parse_request(&payload),
                Err(e) => Err(e),
            };
            let Ok(req) = req else {
                // The load generator only sends well-formed requests.
                return;
            };
            d.req = t.next_req.fetch_add(1, Ordering::Relaxed);
            root.req = d.req;
            t.end(d, &mut spans);
            state.with_wire(|w| w.frames += 1);
            closed = matches!(req, Request::Bye);
            for resp in handle(state, req, &mut queue, root.id, root.req, &mut spans) {
                let mut e = t.begin("serve.encode", root.id, root.req);
                let frame = encode_frame(&response_payload(&resp));
                e.n = frame.len() as u64;
                t.end(e, &mut spans);
                frames.push(frame);
            }
        }
        t.end(root, &mut spans);
        t.publish(&mut spans);
        for frame in frames {
            if stream.write_all(&frame).is_err() {
                return;
            }
        }
    }
}

fn handle(
    state: &State,
    req: Request,
    queue: &mut Vec<Submission>,
    parent: u64,
    req_id: u64,
    spans: &mut Vec<Span>,
) -> Vec<Response> {
    let t = &state.tracer;
    match req {
        Request::Hello { .. } => vec![Response::HelloOk {
            version: PROTOCOL_VERSION,
            shards: 2,
            queue_capacity: 64,
        }],
        Request::SubmitSite {
            site,
            seed,
            policy,
            schedule,
            deadline_ms,
        } => {
            let sub = Submission {
                site,
                seed,
                policy,
                schedule,
                deadline_ms,
            };
            if let Err((code, message)) = validate(&sub) {
                return vec![Response::Error { code, message }];
            }
            state.with_wire(|w| w.submits += 1);
            let site = sub.site.clone();
            queue.push(sub);
            vec![Response::Queued {
                site,
                depth: queue.len() as u64,
            }]
        }
        Request::Flush => {
            let subs = std::mem::take(queue);
            let mut s = t.begin("shard.serve", parent, req_id);
            let jobs = subs
                .iter()
                .map(|sub| traced_job(t, sub, s.id, req_id))
                .collect();
            let report = state.pool.serve_with_cancel(jobs, &state.cancel);
            s.n = subs.len() as u64;
            t.end(s, spans);
            let m = t.begin("observe.merge", parent, req_id);
            state
                .shared
                .lock()
                .expect("server state")
                .0
                .merge(&report.fleet_metrics);
            t.end(m, spans);
            state.with_wire(|w| w.flushes += 1);
            let mut out = Vec::with_capacity(subs.len() + 1);
            let mut served = 0;
            for (i, sub) in subs.iter().enumerate() {
                let row = &report.shards[i % 2].sites[i / 2];
                out.push(match &row.outcome {
                    SiteOutcome::Served {
                        defended,
                        detail,
                        wedged,
                    } => {
                        served += 1;
                        state.with_wire(|w| w.verdicts += 1);
                        Response::Verdict {
                            site: row.site.clone(),
                            seed: row.seed,
                            policy: sub.policy.clone(),
                            shard: (i % 2) as u64,
                            defended: *defended,
                            detail: detail.clone(),
                            wedged: *wedged,
                            attempts: row.attempts,
                            completed_at_ms: row.completed_at_ms,
                        }
                    }
                    other => Response::Error {
                        code: "unserved".into(),
                        message: format!("{other:?}"),
                    },
                });
            }
            out.push(Response::FlushOk {
                served,
                shed: 0,
                quarantined: 0,
                cancelled: 0,
                deadline_missed: 0,
            });
            out
        }
        Request::Metrics => {
            let p = t.begin("server.metrics_page", parent, req_id);
            let shared = state.shared.lock().expect("server state");
            let mut merged = shared.0.clone();
            merged.merge(&shared.1.snapshot());
            let mut r = t.begin("observe.render", p.id, req_id);
            let text = render_text(&merged);
            r.n = (merged.counters.len() + merged.gauges.len() + merged.histograms.len()) as u64;
            t.end(r, spans);
            drop(shared);
            t.end(p, spans);
            vec![Response::MetricsPage { text }]
        }
        Request::Cancel { .. } => vec![Response::Error {
            code: "not_found".into(),
            message: "the load generator never cancels".into(),
        }],
        Request::Bye => vec![Response::Bye],
    }
}

fn traced_job(t: &Arc<Tracer>, sub: &Submission, parent: u64, req: u64) -> SiteJob {
    let tracer = t.clone();
    let policy = sub.policy.clone();
    let schedule = sub.schedule.clone();
    SiteJob::new(sub.site.clone(), sub.seed, move |ctx| {
        traced_submission(&tracer, parent, req, &policy, &schedule, ctx)
    })
}

/// `jsk_serve::job::run_submission`, call for call, with spans.
fn traced_submission(
    t: &Tracer,
    parent: u64,
    req: u64,
    policy: &str,
    schedule: &Schedule,
    ctx: &SiteCtx,
) -> SiteOutput {
    let mut spans = Vec::with_capacity(8);
    let mut site = t.begin("site", parent, req);
    let c = t.begin("core.setup", site.id, req);
    let kind = policy_kind(policy).expect("validated at admission");
    let mut cfg = kind.config(ctx.seed).with_shard(ctx.shard);
    if let Some(plan) = &ctx.fault {
        cfg = cfg.with_fault(plan.clone());
    }
    let shared = Observer::new().shared();
    cfg = cfg.with_observer(handle_of(&shared));
    let mediator = kind.mediator();
    t.end(c, &mut spans);

    let mut b = t.begin("browser.run", site.id, req);
    let browser = run_schedule_with(schedule, mediator, cfg);
    b.n = browser.trace().len() as u64;
    t.end(b, &mut spans);

    let mut h = t.begin("analyze.hb", site.id, req);
    let graph = HbGraph::from_trace(browser.trace());
    h.n = graph.node_count() as u64;
    t.end(h, &mut spans);
    let r = t.begin("analyze.race", site.id, req);
    let races = detect_races(browser.trace(), &graph).len();
    drop(graph);
    t.end(r, &mut spans);
    let s = t.begin("analyze.scan", site.id, req);
    let _accesses = browser.trace().accesses().count();
    let patterns = scan(browser.trace()).len();
    t.end(s, &mut spans);

    let sim_ms = browser.now().as_nanos() / 1_000_000;
    let stats = browser.mediator_as::<JsKernel>().map(|k| {
        let s = k.stats();
        (
            s.watchdog_expired + s.orphans_reaped + s.equeue_overflow > 0,
            s.dispatched,
        )
    });
    let (wedged, events) = stats.unwrap_or((false, 0));
    let l = t.begin("observe.labels", site.id, req);
    let metrics = shared
        .borrow()
        .metrics()
        .with_labels(&[("site", &ctx.site), ("policy", policy)]);
    t.end(l, &mut spans);
    let out = SiteOutput {
        defended: Some(races == 0),
        detail: format!(
            "policy={policy} races={races} patterns={patterns} console={}",
            browser.console().len()
        ),
        sim_ms,
        wedged,
        metrics,
    };
    let d = t.begin("browser.drop", site.id, req);
    drop(browser);
    t.end(d, &mut spans);
    site.n = events;
    t.end(site, &mut spans);
    t.publish(&mut spans);
    out
}
