//! In-memory span recorder for the traced run.
//!
//! A span is `(name, start, end, parent, request)`.  Spans opened with
//! [`Tracer::span`] nest through a per-thread stack; spans recorded on
//! helper threads the benchmark does not own (the cluster coordinator's RPC
//! fan-out) attach to the benchmark thread's innermost open span and to the
//! request set with [`Tracer::set_request`].  The recorder keeps every span in memory and
//! writes them as JSON lines when the run ends.

use std::cell::RefCell;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::report::{num, string};

/// One recorded span; times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    /// 0 for a root span.
    pub parent: u64,
    pub request: u64,
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    next_id: AtomicU64,
    /// Request id and innermost open span of the benchmark thread, adopted
    /// by spans from foreign threads.
    request: AtomicU64,
    current: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            request: AtomicU64::new(0),
            current: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts a new request: later spans carry its id.
    pub fn set_request(&self, request: u64) {
        self.request.store(request, Ordering::SeqCst);
    }

    /// Runs `f` inside a span named `name`, returning its result and the
    /// span's id (0 when tracing is off).
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> (R, u64) {
        if !self.on {
            return (f(), 0);
        }
        let id = self.next_id.fetch_add(1, Ordering::SeqCst);
        let parent = STACK.with(|s| {
            let mut s = s.borrow_mut();
            let parent = s.last().copied().unwrap_or(0);
            s.push(id);
            parent
        });
        let outer = self.current.swap(id, Ordering::SeqCst);
        let start = self.now();
        let out = f();
        let end = self.now();
        self.current.store(outer, Ordering::SeqCst);
        STACK.with(|s| s.borrow_mut().pop());
        self.push(Span {
            id,
            parent,
            request: self.request.load(Ordering::SeqCst),
            name,
            start,
            end,
        });
        (out, id)
    }

    /// Records a span measured on a thread outside the benchmark's own
    /// stack; it becomes a child of the benchmark thread's innermost open
    /// span.
    pub fn record_foreign(&self, name: &'static str, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        let since = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        let id = self.next_id.fetch_add(1, Ordering::SeqCst);
        self.push(Span {
            id,
            parent: self.current.load(Ordering::SeqCst),
            request: self.request.load(Ordering::SeqCst),
            name,
            start: since(start),
            end: since(end),
        });
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span list lock").push(span);
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list lock").clone()
    }

    /// Writes every span as one JSON line to `path`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"request\": {}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.id,
                s.parent,
                s.request,
                string(s.name),
                num(s.start as f64),
                num(s.end as f64)
            )?;
        }
        out.flush()
    }
}

/// Total length of the union of `intervals` clipped to `[lo, hi]`.
pub fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.retain(|&(s, e)| e > lo && s < hi);
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        let (s, e) = (s.max(lo), e.min(hi));
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

/// Self times and counts by span name.
pub struct SpanIndex {
    spans: Vec<Span>,
}

impl SpanIndex {
    pub fn new(spans: Vec<Span>) -> Self {
        SpanIndex { spans }
    }

    /// Duration of span `s` minus the part of it its children cover, in ns.
    pub fn self_ns(&self, s: &Span) -> u64 {
        let children: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|c| c.parent == s.id)
            .map(|c| (c.start, c.end))
            .collect();
        s.dur() - covered(children, s.start, s.end)
    }

    /// Summed self time of every span named `name`, in ms.
    pub fn self_ms(&self, name: &str) -> f64 {
        self.named(name).map(|s| self.self_ns(s)).sum::<u64>() as f64 / 1e6
    }

    /// Union of the children named `child` of every span named `name`, in
    /// ms, summed over those spans.
    pub fn child_union_ms(&self, name: &str, child: &str) -> f64 {
        self.named(name)
            .map(|s| {
                let kids: Vec<(u64, u64)> = self
                    .spans
                    .iter()
                    .filter(|c| c.parent == s.id && c.name == child)
                    .map(|c| (c.start, c.end))
                    .collect();
                covered(kids, s.start, s.end)
            })
            .sum::<u64>() as f64
            / 1e6
    }

    pub fn count(&self, name: &str) -> usize {
        self.named(name).count()
    }

    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps_and_clips() {
        assert_eq!(covered(vec![(0, 10), (5, 15), (20, 30)], 0, 100), 25);
        assert_eq!(covered(vec![(0, 10), (5, 15)], 8, 12), 4);
        assert_eq!(covered(vec![], 0, 10), 0);
    }

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer::new(true);
        let ((), parent) = t.span("outer", || {
            t.span("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let idx = SpanIndex::new(t.spans());
        let outer = *idx.named("outer").next().unwrap();
        assert_eq!(outer.id, parent);
        let inner = *idx.named("inner").next().unwrap();
        assert_eq!(inner.parent, outer.id);
        assert_eq!(idx.self_ns(&outer), outer.dur() - inner.dur());
    }
}
