//! The ledger's own span recorder: spans around calls into the program,
//! under one root span per op. Nothing here runs inside the program;
//! spans inside the crates are a later change.

use std::sync::Mutex;
use std::time::Instant;

use crate::json::Json;

/// One finished (or still open) span. Times are nanoseconds since the
/// recorder's epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one; `None` for an op's root.
    pub parent: Option<usize>,
    /// The op every span of one request shares.
    pub op: u64,
    /// Work counted at the same boundary: tasks submitted, objects
    /// fetched, bytes put.
    pub items: u64,
    /// Recording thread (0 = driver, 1 = open-loop collector).
    pub lane: u32,
}

/// Handle to an open span; `None` when recording is off.
pub type SpanId = Option<usize>;

/// Collects spans in memory; written out when the rep ends. With
/// recording off every method is one branch, so untraced reps measure
/// the program and not the recorder.
pub struct Recorder {
    on: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new(on: bool) -> Self {
        Recorder {
            on,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn nanos(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans.lock().expect("a recording thread panicked")
    }

    /// Opens a span that started at `start` (an open-loop op starts when
    /// it was due, which is before anything ran).
    pub fn open(
        &self,
        name: &'static str,
        op: u64,
        parent: SpanId,
        lane: u32,
        start: Instant,
    ) -> SpanId {
        if !self.on {
            return None;
        }
        let start_ns = self.nanos(start);
        let mut spans = self.lock();
        spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
            items: 0,
            lane,
        });
        Some(spans.len() - 1)
    }

    /// Closes a span at `end`.
    pub fn close(&self, id: SpanId, end: Instant) {
        if let Some(i) = id {
            let end_ns = self.nanos(end);
            self.lock()[i].end_ns = end_ns;
        }
    }

    /// Runs `f` inside a span under `parent`, counting `items` of work.
    pub fn call<T>(
        &self,
        name: &'static str,
        parent: SpanId,
        lane: u32,
        items: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let Some(p) = parent.filter(|_| self.on) else {
            return f();
        };
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let (start_ns, end_ns) = (self.nanos(start), self.nanos(end));
        let mut spans = self.lock();
        let op = spans[p].op;
        spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            op,
            items,
            lane,
        });
        out
    }

    /// Takes the recorded spans.
    pub fn finish(self) -> Vec<Span> {
        self.spans
            .into_inner()
            .expect("a recording thread panicked")
    }
}

/// Per-span self time: its duration minus the part of that interval its
/// child spans cover (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (a, b) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if a < b {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                if b > reach {
                    covered += b - a.max(reach);
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Which share of the op time a span's self time is booked under.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Category {
    Submit,
    Get,
    Put,
    /// The op's root span: whatever no call into the program covers.
    DriverOther,
}

pub fn category(name: &str) -> Category {
    if name.starts_with("submit") {
        Category::Submit
    } else if name.starts_with("get") {
        Category::Get
    } else if name == "put" {
        Category::Put
    } else {
        Category::DriverOther
    }
}

/// Shares of total self time by category, indexed by `Category as
/// usize`; they sum to 1.
pub fn shares(spans: &[Span]) -> [f64; 4] {
    let mut by_cat = [0u64; 4];
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        by_cat[category(s.name) as usize] += self_ns;
    }
    let total: u64 = by_cat.iter().sum();
    if total == 0 {
        return [0.0, 0.0, 0.0, 1.0];
    }
    by_cat.map(|ns| ns as f64 / total as f64)
}

/// Durations in µs of every span of category `of`, ascending.
pub fn durations_us(spans: &[Span], of: Category) -> Vec<f64> {
    crate::stats::sorted(
        spans
            .iter()
            .filter(|s| category(s.name) == of)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect(),
    )
}

/// The spans as a Chrome-trace document (`chrome://tracing`, Perfetto):
/// complete events with µs timestamps, one thread lane per recording
/// thread plus one for the op roots.
pub fn chrome_trace(spans: &[Span]) -> Json {
    let events = spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let lane = if s.parent.is_none() { 0 } else { s.lane + 1 };
            Json::obj([
                ("name", Json::Str(s.name.into())),
                ("ph", Json::Str("X".into())),
                ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                ("dur", Json::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
                ("pid", Json::Num(1.0)),
                ("tid", Json::Num(f64::from(lane))),
                (
                    "args",
                    Json::obj([
                        ("span", Json::Num(i as f64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("op", Json::Num(s.op as f64)),
                        ("items", Json::Num(s.items as f64)),
                    ]),
                ),
            ])
        })
        .collect();
    Json::obj([
        ("displayTimeUnit", Json::Str("ns".into())),
        ("traceEvents", Json::Arr(events)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
            items: 1,
            lane: 0,
        }
    }

    #[test]
    fn self_time_is_span_minus_child_coverage() {
        let spans = [
            span("op", 0, 100, None),
            span("submit1", 10, 30, Some(0)),
            span("get", 40, 90, Some(0)),
            // Overlaps `get` and runs past the root: only 90..100 is new.
            span("put", 80, 120, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![100 - 20 - 50 - 10, 20, 50, 40]);
    }

    #[test]
    fn shares_sum_to_one() {
        let spans = [
            span("op", 0, 1000, None),
            span("submit_many", 0, 100, Some(0)),
            span("get_many", 150, 900, Some(0)),
            span("op", 1000, 1500, None),
            span("put", 1000, 1200, Some(3)),
            span("submit2", 1200, 1250, Some(3)),
            span("get", 1300, 1500, Some(3)),
        ];
        let s = shares(&spans);
        assert!((s.iter().sum::<f64>() - 1.0).abs() < 1e-12, "{s:?}");
        assert!((s[0] - 150.0 / 1500.0).abs() < 1e-12);
        assert!((s[1] - 950.0 / 1500.0).abs() < 1e-12);
        assert!((s[2] - 200.0 / 1500.0).abs() < 1e-12);
        assert!((s[3] - 200.0 / 1500.0).abs() < 1e-12);
        assert_eq!(shares(&[]), [0.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn recorder_links_calls_to_their_op_and_is_inert_when_off() {
        let rec = Recorder::new(true);
        let root = rec.open("op", 7, None, 0, Instant::now());
        assert_eq!(rec.call("submit1", root, 0, 1, || 5), 5);
        rec.close(root, Instant::now());
        let spans = rec.finish();
        assert_eq!(spans.len(), 2);
        assert_eq!(
            (spans[1].parent, spans[1].op, spans[1].name),
            (Some(0), 7, "submit1")
        );
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);

        let off = Recorder::new(false);
        let root = off.open("op", 1, None, 0, Instant::now());
        assert_eq!(root, None);
        assert_eq!(off.call("get", root, 0, 1, || 9), 9);
        off.close(root, Instant::now());
        assert!(off.finish().is_empty());
    }

    #[test]
    fn chrome_trace_parses_back_with_one_event_per_span() {
        let spans = [span("op", 0, 2500, None), span("get", 500, 2000, Some(0))];
        let doc = Json::parse(&chrome_trace(&spans).emit()).unwrap();
        let Some(Json::Arr(events)) = doc.get("traceEvents") else {
            panic!("no traceEvents");
        };
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("dur").and_then(Json::as_f64), Some(1.5));
        assert_eq!(events[1].get("ph"), Some(&Json::Str("X".into())));
    }
}
