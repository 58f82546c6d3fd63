//! In-memory span recorder for the traced run.
//!
//! A span is one timed call at a layer boundary (workload, cell, build,
//! compile, construct, run, snapshot, restore) with the span that caused
//! it. Spans stay in memory until the run ends; [`self_times`] then
//! charges each span only for the time none of its children cover, and
//! [`chrome_json`] writes them in the Chrome/Perfetto trace format.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// One finished span; times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    /// Worker thread that ran the span (0 = the main thread).
    pub tid: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans. A disabled tracer only runs the closures, so the
/// untraced runs go through the same code at the cost of one branch.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    tid: u32,
    /// Span-id source shared with every forked tracer.
    ids: Arc<AtomicU64>,
    open: Vec<u64>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            tid: 0,
            ids: Arc::new(AtomicU64::new(0)),
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Run `f` inside a span named `name`, a child of the innermost open
    /// span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        // A counter that publishes nothing else.
        let id = self.ids.fetch_add(1, Ordering::Relaxed);
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.open.push(id);
        let r = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            name,
            tid: self.tid,
            start_ns,
            end_ns,
        });
        r
    }

    /// A tracer for worker thread `tid` (≥ 1) whose spans nest under this
    /// tracer's innermost open span and share its epoch.
    pub fn fork(&self, tid: u32) -> Tracer {
        Tracer {
            on: self.on,
            epoch: self.epoch,
            tid,
            ids: Arc::clone(&self.ids),
            open: self.open.last().copied().into_iter().collect(),
            spans: Vec::new(),
        }
    }

    /// Take over a forked tracer's finished spans.
    pub fn join(&mut self, child: Tracer) {
        self.spans.extend(child.spans);
    }

    /// Hand over the spans finished so far. Ids stay unique across calls.
    pub fn take_spans(&mut self) -> Vec<Span> {
        std::mem::take(&mut self.spans)
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// Self time of every span, by id: its duration minus the part of its
/// interval that the union of its children's intervals covers. Children
/// on other threads may overlap each other; overlap is counted once.
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut iv = children.remove(&s.id).unwrap_or_default();
            iv.sort_unstable();
            let (mut covered, mut reach) = (0, s.start_ns);
            for (a, b) in iv {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.id, s.dur_ns() - covered)
        })
        .collect()
}

/// Self time summed per span name, in nanoseconds.
pub fn self_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let selfs = self_times(spans);
    let mut out = BTreeMap::new();
    for s in spans {
        *out.entry(s.name).or_insert(0) += selfs[&s.id];
    }
    out
}

/// Spans as a Chrome trace (`chrome://tracing`, Perfetto): one complete
/// ("X") event per span, with its id, parent and self time as arguments.
pub fn chrome_json(spans: &[Span]) -> String {
    let selfs = self_times(spans);
    let mut out = String::from("{\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{},\"parent\":{},\"self_us\":{:.3}}}}}",
            s.name,
            s.tid,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.id,
            parent,
            selfs[&s.id] as f64 / 1e3,
        );
    }
    out.push_str("\n]}\n");
    out
}
