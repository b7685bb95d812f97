//! In-memory spans for the traced run.
//!
//! The benchmark wraps each public layer call it makes in a span: a name,
//! an optional attribute (the benchmark a VM run belongs to), start and
//! end, and the span that caused it. Spans are kept in memory while the
//! run measures and written out once at the end, so recording costs a
//! clock read and a short lock, never I/O.

use std::cell::Cell;
use std::collections::{HashMap, HashSet};
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Spans a trace file holds at most: a whole `fig-cold` or `compile-mix`
/// pass fits; a `serve-pipelined` window is cut.
const MAX_WRITTEN: usize = 20_000;

/// One finished span.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub attr: &'static str,
    pub start_us: f64,
    pub end_us: f64,
}

impl SpanRec {
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// The span store of one traced run.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRec>>,
}

thread_local! {
    /// The span current on this thread (0 = none).
    static CURRENT: Cell<u64> = const { Cell::new(0) };
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn micros(&self, at: Instant) -> f64 {
        at.duration_since(self.epoch).as_secs_f64() * 1e6
    }

    /// Opens a span parented to the thread's current span; it becomes
    /// current until the guard drops.
    pub fn span(&self, name: &'static str) -> Guard<'_> {
        self.span_with(name, "")
    }

    /// [`Tracer::span`] with an attribute.
    pub fn span_with(&self, name: &'static str, attr: &'static str) -> Guard<'_> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = CURRENT.with(|c| c.replace(id));
        Guard {
            tracer: self,
            id,
            parent,
            name,
            attr,
            start: Instant::now(),
        }
    }

    /// Makes `parent` the current span of this thread until the guard
    /// drops — how work handed to another thread keeps its parent.
    pub fn enter(&self, parent: u64) -> Entered {
        Entered {
            prev: CURRENT.with(|c| c.replace(parent)),
        }
    }

    /// The current span of this thread.
    pub fn current(&self) -> u64 {
        CURRENT.with(Cell::get)
    }

    /// Records a span whose start and end were taken elsewhere (a request
    /// in flight on a socket is not scoped to one stack frame).
    pub fn record(&self, name: &'static str, parent: u64, start: Instant, end: Instant) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.push(SpanRec {
            id,
            parent,
            name,
            attr: "",
            start_us: self.micros(start),
            end_us: self.micros(end),
        });
    }

    fn push(&self, rec: SpanRec) {
        self.spans.lock().expect("span store poisoned").push(rec);
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<SpanRec> {
        self.spans.lock().expect("span store poisoned").clone()
    }

    /// Writes the first `MAX_WRITTEN` spans under the root span `root` (the
    /// last pass of a run) as JSON lines, parents before children.
    pub fn write_tree(&self, root: u64, path: &Path) -> std::io::Result<()> {
        let spans = self.spans();
        let mut keep = HashSet::from([root]);
        let mut tree: Vec<&SpanRec> = Vec::new();
        let mut ordered: Vec<&SpanRec> = spans.iter().collect();
        ordered.sort_by(|a, b| a.start_us.total_cmp(&b.start_us));
        for rec in ordered {
            if rec.id == root || keep.contains(&rec.parent) {
                keep.insert(rec.id);
                tree.push(rec);
            }
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for rec in tree.into_iter().take(MAX_WRITTEN) {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"attr\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3}}}",
                rec.id, rec.parent, rec.name, rec.attr, rec.start_us, rec.end_us
            )?;
        }
        out.flush()
    }
}

/// An open span; records itself on drop.
pub struct Guard<'t> {
    tracer: &'t Tracer,
    id: u64,
    parent: u64,
    name: &'static str,
    attr: &'static str,
    start: Instant,
}

impl Guard<'_> {
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        let end = Instant::now();
        CURRENT.with(|c| c.set(self.parent));
        self.tracer.push(SpanRec {
            id: self.id,
            parent: self.parent,
            name: self.name,
            attr: self.attr,
            start_us: self.tracer.micros(self.start),
            end_us: self.tracer.micros(end),
        });
    }
}

/// Restores the thread's previous current span on drop.
pub struct Entered {
    prev: u64,
}

impl Drop for Entered {
    fn drop(&mut self) {
        CURRENT.with(|c| c.set(self.prev));
    }
}

/// Sum of the durations of the spans named `name` (and carrying `attr`,
/// if given) under each root in `roots`, in seconds, one value per root.
pub fn per_root_sum_s(
    spans: &[SpanRec],
    roots: &[u64],
    name: &str,
    attr: Option<&str>,
) -> Vec<f64> {
    let parents: HashMap<u64, u64> = spans.iter().map(|s| (s.id, s.parent)).collect();
    let root_of = |mut id: u64| {
        while let Some(&p) = parents.get(&id) {
            if p == 0 {
                break;
            }
            id = p;
        }
        id
    };
    let mut sums: HashMap<u64, f64> = HashMap::new();
    for s in spans {
        if s.name == name && attr.is_none_or(|a| s.attr == a) {
            *sums.entry(root_of(s.id)).or_default() += s.dur_us() / 1e6;
        }
    }
    roots
        .iter()
        .map(|r| sums.get(r).copied().unwrap_or(0.0))
        .collect()
}

/// Durations of every span named `name`, in microseconds.
pub fn durations_us(spans: &[SpanRec], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(SpanRec::dur_us)
        .collect()
}
