//! Spans recorded by the benchmark around its calls into the system
//! (never from inside the library crates), kept in a preallocated
//! in-memory buffer and written out when the run ends.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::json::Json;

/// `parent` of a root span.
pub const NO_PARENT: i64 = -1;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: Cow<'static, str>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the buffer, or [`NO_PARENT`].
    pub parent: i64,
    pub rep: i64,
    /// Submit unit within the rep, −1 outside any unit.
    pub unit: i64,
    /// Calls the span covers (layer replays time a batch of calls).
    pub count: u64,
}

/// The span buffer. A disabled tracer records nothing and hands out
/// [`NO_PARENT`], so the untraced run pays one branch per call site.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
    cap: usize,
    dropped: AtomicU64,
}

impl Tracer {
    pub fn new(on: bool, cap: usize) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Mutex::new(Vec::with_capacity(if on { cap } else { 0 })),
            cap,
            dropped: AtomicU64::new(0),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; [`close`](Self::close) stamps its end.
    pub fn open(&self, name: &'static str, parent: i64, rep: i64, unit: i64) -> i64 {
        if !self.on {
            return NO_PARENT;
        }
        let start = self.now_ns();
        self.push(Span {
            name: Cow::Borrowed(name),
            start_ns: start,
            end_ns: start,
            parent,
            rep,
            unit,
            count: 1,
        })
    }

    pub fn close(&self, id: i64) {
        if id >= 0 {
            let end = self.now_ns();
            self.spans.lock().expect("span buffer poisoned")[id as usize].end_ns = end;
        }
    }

    /// Record a finished span (worker threads report rounds this way).
    pub fn record(&self, span: Span) {
        if self.on {
            self.push(span);
        }
    }

    /// Time `f` under a span covering `count` calls.
    pub fn time<T>(&self, name: &'static str, count: u64, f: impl FnOnce() -> T) -> (T, f64) {
        let start_ns = self.now_ns();
        let started = Instant::now();
        let out = f();
        let secs = started.elapsed().as_secs_f64();
        self.record(Span {
            name: Cow::Borrowed(name),
            start_ns,
            end_ns: self.now_ns(),
            parent: NO_PARENT,
            rep: -1,
            unit: -1,
            count,
        });
        (out, secs)
    }

    /// Durations of every recorded span called `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<u64> {
        let spans = self.spans.lock().expect("span buffer poisoned");
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .collect()
    }

    fn push(&self, span: Span) -> i64 {
        let mut spans = self.spans.lock().expect("span buffer poisoned");
        if spans.len() >= self.cap {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return NO_PARENT;
        }
        spans.push(span);
        spans.len() as i64 - 1
    }

    pub fn to_json(&self, workload: &str) -> Json {
        let spans = self.spans.lock().expect("span buffer poisoned");
        Json::obj([
            ("workload", Json::str(workload)),
            (
                "dropped",
                Json::Num(self.dropped.load(Ordering::Relaxed) as f64),
            ),
            (
                "spans",
                Json::Arr(
                    spans
                        .iter()
                        .map(|s| {
                            Json::obj([
                                ("name", Json::str(&*s.name)),
                                ("start_ns", Json::Num(s.start_ns as f64)),
                                ("end_ns", Json::Num(s.end_ns as f64)),
                                ("parent", Json::Num(s.parent as f64)),
                                ("rep", Json::Num(s.rep as f64)),
                                ("unit", Json::Num(s.unit as f64)),
                                ("count", Json::Num(s.count as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

pub fn spans_from_json(doc: &Json) -> Result<Vec<Span>, String> {
    let items = doc.get("spans").ok_or("no `spans` array")?.as_arr();
    items
        .iter()
        .map(|s| {
            let num = |k: &str| {
                s.get(k)
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("span without `{k}`"))
            };
            Ok(Span {
                name: s
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("span without `name`")?
                    .to_string()
                    .into(),
                start_ns: num("start_ns")? as u64,
                end_ns: num("end_ns")? as u64,
                parent: num("parent")? as i64,
                rep: num("rep")? as i64,
                unit: num("unit")? as i64,
                count: num("count")? as u64,
            })
        })
        .collect()
}

/// Self time of every span: its duration minus the part of its own
/// interval that its direct children cover. Children may overlap each
/// other (two workers answer rounds under one `submit`), so the
/// covered part is the length of the *union* of the child intervals,
/// clipped to the parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent >= 0 && (s.parent as usize) < spans.len() {
            let p = &spans[s.parent as usize];
            let (lo, hi) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
            if hi > lo {
                children[s.parent as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = 0u64;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// The `benchmark layers` table: per span name, how many spans, the
/// calls they cover, total and self time, and self time's share of
/// all self time (which sums to the traced wall, counted once).
pub fn layers_table(spans: &[Span]) -> String {
    let selfs = self_times(spans);
    // name -> (spans, calls, total ns, self ns)
    let mut rows: BTreeMap<&str, (u64, u64, u64, u64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(&selfs) {
        let row = rows.entry(&*s.name).or_default();
        row.0 += 1;
        row.1 += s.count;
        row.2 += s.end_ns - s.start_ns;
        row.3 += own;
    }
    let all_self: u64 = rows.values().map(|r| r.3).sum();
    let mut ordered: Vec<_> = rows.into_iter().collect();
    ordered.sort_by_key(|row| std::cmp::Reverse(row.1 .3));
    let mut out = format!(
        "{:<34} {:>8} {:>10} {:>12} {:>12} {:>7}\n",
        "span", "spans", "calls", "total ms", "self ms", "self %"
    );
    for (name, (n, calls, total, own)) in ordered {
        let _ = writeln!(
            out,
            "{:<34} {:>8} {:>10} {:>12.3} {:>12.3} {:>7.2}",
            name,
            n,
            calls,
            total as f64 / 1e6,
            own as f64 / 1e6,
            100.0 * own as f64 / all_self.max(1) as f64
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: i64) -> Span {
        Span {
            name: Cow::Borrowed(name),
            start_ns: start,
            end_ns: end,
            parent,
            rep: 0,
            unit: -1,
            count: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("rep", 0, 100, NO_PARENT),
            span("setup", 10, 30, 0),
            span("stream", 30, 90, 0),
            // two workers' rounds overlap under one submit
            span("submit", 40, 80, 2),
            span("round", 45, 60, 3),
            span("round", 50, 70, 3),
            // a child reported past its parent's end is clipped
            span("round", 75, 95, 3),
        ];
        let own = self_times(&spans);
        assert_eq!(own[0], 100 - 20 - 60, "rep minus setup and stream");
        assert_eq!(own[1], 20, "a leaf keeps its whole duration");
        assert_eq!(own[2], 60 - 40);
        assert_eq!(own[3], 40 - (70 - 45) - (80 - 75), "union, clipped");
        assert_eq!(own[4], 15);
        // self times of a tree sum to the root's duration, plus what
        // overlapping (50..60, twice) or overhanging (80..95) children add
        assert_eq!(own.iter().sum::<u64>(), 100 + 10 + 15);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let t = Tracer::new(false, 8);
        let id = t.open("rep", NO_PARENT, 0, -1);
        assert_eq!(id, NO_PARENT);
        t.close(id);
        assert_eq!(t.to_json("w").get("spans").unwrap().as_arr().len(), 0);
    }

    #[test]
    fn a_full_buffer_drops_and_counts() {
        let t = Tracer::new(true, 2);
        let a = t.open("a", NO_PARENT, 0, -1);
        let b = t.open("b", a, 0, 0);
        let c = t.open("c", b, 0, 0);
        assert_eq!((a, b, c), (0, 1, NO_PARENT));
        t.close(c);
        t.close(b);
        let doc = t.to_json("w");
        assert_eq!(doc.get("dropped").unwrap().as_f64(), Some(1.0));
        let back = spans_from_json(&Json::parse(&doc.render()).unwrap()).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[1].parent, 0);
        assert!(layers_table(&back).contains("self ms"));
    }
}
