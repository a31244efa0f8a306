//! Per-layer numbers from the traced run's spans.
//!
//! A span's self time is its duration minus the part its children cover.
//! Sites run in parallel under `shard.serve`, so their summed time can
//! exceed the wall time they span; to add up to wall time, every child's
//! self time is scaled by `union(children) / sum(children)` of its parent
//! (1 for sequential children). Summed over a tree, these *wall-attributed*
//! self times equal the root's duration exactly, which is what the layer
//! shares and the coverage check use.

use crate::traced::Span;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;

/// The layer (crate) a span's self time belongs to; `None` for the site
/// closure's own glue, which no layer owns.
#[must_use]
pub fn layer_of(name: &str) -> Option<&'static str> {
    Some(match name {
        "serve.on_bytes" | "serve.decode" | "serve.encode" => "jsk-serve",
        "shard.serve" => "jsk-shard",
        "core.setup" => "jsk-core",
        "browser.run" | "browser.drop" => "jsk-browser",
        "analyze.hb" | "analyze.race" | "analyze.scan" => "jsk-analyze",
        "observe.labels" | "observe.merge" | "observe.render" => "jsk-observe",
        "server.metrics_page" => "server",
        _ => return None,
    })
}

/// Every layer, in table order.
pub const LAYERS: [&str; 7] = [
    "jsk-serve",
    "jsk-shard",
    "jsk-core",
    "jsk-browser",
    "jsk-analyze",
    "jsk-observe",
    "server",
];

/// Which kind of request a root span served.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    /// Contains a `shard.serve`.
    Flush,
    /// Contains a `server.metrics_page`.
    Scrape,
    /// Everything else: hello, submit, bye.
    Other,
}

/// Aggregates per span name.
#[derive(Debug, Default, Clone)]
pub struct NameAgg {
    /// Spans.
    pub count: u64,
    /// Sum of durations, ns.
    pub dur: f64,
    /// Sum of self times, ns.
    pub self_ns: f64,
    /// Sum of the layer counts.
    pub n: u64,
}

/// The traced window, analysed.
#[derive(Debug, Default)]
pub struct Analysis {
    /// Per request class and span name.
    pub by_name: BTreeMap<(Class, &'static str), NameAgg>,
    /// Wall-attributed self ns per (class, layer or "(glue)").
    pub attributed: BTreeMap<(Class, &'static str), f64>,
    /// Root wall ns per class, and roots per class.
    pub wall: BTreeMap<Class, (f64, u64)>,
    /// `shard.serve`: mean serve-start to first-site-start, ns.
    pub dispatch_ns: f64,
    /// `shard.serve`: mean last-site-end to serve-return, ns.
    pub join_ns: f64,
    /// Mean serve-start to site-start over sites, ns.
    pub queue_wait_ns: f64,
    /// Request frames decoded, per class.
    pub frames: BTreeMap<Class, u64>,
    /// Series on the last rendered page.
    pub last_series: u64,
    /// Ids of the first roots, for the span dump.
    pub dumped_roots: Vec<u64>,
}

/// Analyses every tree whose root starts at or after `w0` (ns).
#[must_use]
pub fn analyse(spans: &[Span], w0: u64) -> Analysis {
    let index: HashMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: HashMap<u64, Vec<usize>> = HashMap::new();
    for (i, s) in spans.iter().enumerate() {
        if s.parent != 0 {
            children.entry(s.parent).or_default().push(i);
        }
    }
    let mut a = Analysis::default();
    let mut roots: Vec<&Span> = spans
        .iter()
        .filter(|s| s.parent == 0 && s.start >= w0)
        .collect();
    roots.sort_by_key(|s| s.start);
    let (mut dispatch, mut join, mut serves) = (0.0, 0.0, 0u64);
    let (mut wait, mut sites) = (0.0, 0u64);
    for root in roots {
        let mut tree = Vec::new();
        collect(root.id, &index, &children, spans, &mut tree);
        let class = if tree.iter().any(|s| s.name == "shard.serve") {
            Class::Flush
        } else if tree.iter().any(|s| s.name == "server.metrics_page") {
            Class::Scrape
        } else {
            Class::Other
        };
        let w = a.wall.entry(class).or_default();
        w.0 += (root.end - root.start) as f64;
        w.1 += 1;
        if a.dumped_roots.len() < 2000 {
            a.dumped_roots.push(root.id);
        }
        attribute(root, 1.0, class, &children, spans, &mut a);
        for s in &tree {
            if s.name == "shard.serve" {
                let kids: Vec<&Span> = children
                    .get(&s.id)
                    .map(|v| v.iter().map(|&i| &spans[i]).collect())
                    .unwrap_or_default();
                if let (Some(first), Some(last)) = (
                    kids.iter().map(|k| k.start).min(),
                    kids.iter().map(|k| k.end).max(),
                ) {
                    dispatch += first.saturating_sub(s.start) as f64;
                    join += s.end.saturating_sub(last) as f64;
                    serves += 1;
                }
                for k in kids {
                    wait += k.start.saturating_sub(s.start) as f64;
                    sites += 1;
                }
            }
            if s.name == "observe.render" {
                a.last_series = s.n;
            }
        }
    }
    a.dispatch_ns = dispatch / serves.max(1) as f64;
    a.join_ns = join / serves.max(1) as f64;
    a.queue_wait_ns = wait / sites.max(1) as f64;
    a
}

fn collect<'a>(
    id: u64,
    index: &HashMap<u64, usize>,
    children: &HashMap<u64, Vec<usize>>,
    spans: &'a [Span],
    out: &mut Vec<&'a Span>,
) {
    out.push(&spans[index[&id]]);
    for &c in children.get(&id).map_or(&[][..], Vec::as_slice) {
        collect(spans[c].id, index, children, spans, out);
    }
}

/// Length of the union of `[start, end)` intervals.
fn union_len(mut iv: Vec<(u64, u64)>) -> u64 {
    iv.sort_unstable();
    let (mut total, mut cur): (u64, Option<(u64, u64)>) = (0, None);
    for (s, e) in iv {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

fn attribute(
    span: &Span,
    scale: f64,
    class: Class,
    children: &HashMap<u64, Vec<usize>>,
    spans: &[Span],
    a: &mut Analysis,
) {
    let kids: Vec<&Span> = children
        .get(&span.id)
        .map(|v| v.iter().map(|&i| &spans[i]).collect())
        .unwrap_or_default();
    let dur = span.end.saturating_sub(span.start);
    let clipped: Vec<(u64, u64)> = kids
        .iter()
        .map(|k| {
            (
                k.start.max(span.start),
                k.end.min(span.end).max(k.start.max(span.start)),
            )
        })
        .collect();
    let sum: u64 = clipped.iter().map(|(s, e)| e - s).sum();
    let covered = union_len(clipped);
    let self_ns = dur.saturating_sub(covered) as f64;
    let agg = a.by_name.entry((class, span.name)).or_default();
    agg.count += 1;
    agg.dur += dur as f64;
    agg.self_ns += self_ns;
    agg.n += span.n;
    if span.name == "serve.decode" && span.req != 0 {
        *a.frames.entry(class).or_default() += 1;
    }
    let layer = layer_of(span.name).unwrap_or("(glue)");
    *a.attributed.entry((class, layer)).or_default() += self_ns * scale;
    let factor = if sum > 0 {
        covered as f64 / sum as f64
    } else {
        1.0
    };
    for k in kids {
        attribute(k, scale * factor, class, children, spans, a);
    }
}

impl Analysis {
    /// Wall-attributed share of `class`'s root wall time owned by `layer`.
    #[must_use]
    pub fn share(&self, class: Class, layer: &str) -> f64 {
        let wall = self.wall.get(&class).map_or(0.0, |w| w.0);
        if wall == 0.0 {
            return 0.0;
        }
        self.attributed
            .iter()
            .filter(|((c, l), _)| *c == class && *l == layer)
            .map(|(_, v)| v)
            .sum::<f64>()
            / wall
    }

    /// Shares of the client-observed submit and flush round trips
    /// (`client_rtt_ns`): each layer's attributed self time in the flush and
    /// other trees, plus `transport`, the round-trip time no server tree
    /// covers (sockets, wake-ups, the client's own encode and parse).
    #[must_use]
    pub fn wire_shares(&self, client_rtt_ns: f64) -> Vec<(&'static str, f64)> {
        let server: f64 = [Class::Flush, Class::Other]
            .iter()
            .map(|c| self.wall.get(c).map_or(0.0, |w| w.0))
            .sum();
        let total = client_rtt_ns.max(1.0);
        let mut out: Vec<(&'static str, f64)> = LAYERS
            .iter()
            .copied()
            .chain(["(glue)"])
            .map(|l| {
                let v: f64 = [Class::Flush, Class::Other]
                    .iter()
                    .filter_map(|c| self.attributed.get(&(*c, l)))
                    .sum();
                (l, v / total)
            })
            .collect();
        out.push(("transport", (client_rtt_ns - server).max(0.0) / total));
        out
    }

    /// Share of the flush wall time covered by named layers' self times.
    #[must_use]
    pub fn coverage(&self) -> f64 {
        1.0 - self.share(Class::Flush, "(glue)")
    }

    /// Mean duration of `name` in µs, over every request class.
    #[must_use]
    pub fn mean_us(&self, name: &str) -> f64 {
        let a = self.agg(&[Class::Flush, Class::Other, Class::Scrape], name);
        a.dur / a.count.max(1) as f64 / 1e3
    }

    /// Aggregate of `name` over the request classes in `classes`.
    #[must_use]
    pub fn agg(&self, classes: &[Class], name: &str) -> NameAgg {
        let mut out = NameAgg::default();
        for ((c, n), a) in &self.by_name {
            if *n == name && classes.contains(c) {
                out.count += a.count;
                out.dur += a.dur;
                out.self_ns += a.self_ns;
                out.n += a.n;
            }
        }
        out
    }

    /// The per-layer self-time table, one row per layer and a column per
    /// request class.
    #[must_use]
    pub fn table(&self) -> String {
        let classes = [Class::Flush, Class::Other, Class::Scrape];
        let mut out = String::from("layer          ");
        for c in classes {
            let (w, n) = self.wall.get(&c).copied().unwrap_or_default();
            let _ = write!(
                out,
                " | {:>7} {:>6} roots {:>9.1} ms",
                format!("{c:?}"),
                n,
                w / 1e6
            );
        }
        out.push('\n');
        for layer in LAYERS.iter().copied().chain(["(glue)"]) {
            let _ = write!(out, "{layer:<15}");
            for c in classes {
                let v = self.attributed.get(&(c, layer)).copied().unwrap_or(0.0);
                let pct = 100.0 * self.share(c, layer);
                let _ = write!(out, " | {:>9.1} ms {:>5.1}% of wall", v / 1e6, pct.max(0.0));
            }
            out.push('\n');
        }
        out
    }
}

/// Writes the spans of the first dumped trees as CSV (`name,start_ns,
/// end_ns,id,parent,req,n`).
#[must_use]
pub fn span_csv(spans: &[Span], a: &Analysis) -> String {
    let mut keep: std::collections::HashSet<u64> = a.dumped_roots.iter().copied().collect();
    // Children can be recorded before their parents; iterate to a fixpoint.
    loop {
        let before = keep.len();
        for s in spans {
            if keep.contains(&s.parent) {
                keep.insert(s.id);
            }
        }
        if keep.len() == before {
            break;
        }
    }
    let mut out = String::from("name,start_ns,end_ns,id,parent,req,n\n");
    for s in spans.iter().filter(|s| keep.contains(&s.id)) {
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{}",
            s.name, s.start, s.end, s.id, s.parent, s.req, s.n
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, id: u64, parent: u64, start: u64, end: u64) -> Span {
        Span {
            name,
            id,
            parent,
            req: 1,
            start,
            end,
            n: 0,
        }
    }

    #[test]
    fn attributed_self_times_add_up_to_the_root_wall() {
        // A flush: 10 ns of session, a pool running two sites in parallel
        // (glue 10 ns each), then 10 ns of encode.
        let spans = vec![
            sp("serve.on_bytes", 1, 0, 0, 100),
            sp("shard.serve", 2, 1, 10, 90),
            sp("site", 3, 2, 20, 80),
            sp("browser.run", 4, 3, 30, 80),
            sp("site", 5, 2, 20, 80),
            sp("analyze.hb", 6, 5, 20, 70),
            sp("serve.encode", 7, 1, 90, 100),
        ];
        let a = analyse(&spans, 0);
        let total: f64 = LAYERS
            .iter()
            .chain(["(glue)"].iter())
            .map(|l| a.share(Class::Flush, l))
            .sum();
        assert!((total - 1.0).abs() < 1e-9, "{total}");
        // Sites overlap fully: each counts half its time against the wall.
        assert!((a.share(Class::Flush, "jsk-browser") - 0.25).abs() < 1e-9);
        assert!((a.share(Class::Flush, "(glue)") - 0.10).abs() < 1e-9);
        assert!((a.dispatch_ns - 10.0).abs() < 1e-9);
        assert!((a.join_ns - 10.0).abs() < 1e-9);
        assert!((a.coverage() - 0.9).abs() < 1e-9);
    }
}
