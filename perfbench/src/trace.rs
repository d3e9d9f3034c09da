//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only from the benchmark's own code, around each
//! call into a layer and inside the timing wrappers the benchmark hands
//! to a layer. A span's parent is the innermost span open on the same
//! thread; a child inherits its parent's request id. Recording is off
//! unless [`enable`] was called, so untraced runs pay one relaxed load
//! per span site.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::Instant;

/// One recorded interval; times are nanoseconds since the trace epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    pub req: u64,
    pub thread: u32,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }

    /// The layer a span belongs to: its name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

// A statistic switch: it publishes no other data.
static ON: AtomicBool = AtomicBool::new(false);
static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static THREAD: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
    /// Open spans on this thread: (index, request id).
    static STACK: RefCell<Vec<(usize, u64)>> = const { RefCell::new(Vec::new()) };
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

fn spans() -> std::sync::MutexGuard<'static, Vec<Span>> {
    // A panic while recording cannot leave a half-written span: every
    // update is a single push or field store.
    SPANS.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Start recording.
pub fn enable() {
    EPOCH.get_or_init(Instant::now);
    ON.store(true, Ordering::Relaxed);
}

/// Stop recording; spans recorded so far are kept.
pub fn disable() {
    ON.store(false, Ordering::Relaxed);
}

/// Closes its span when dropped.
#[must_use = "the span closes when this guard drops"]
pub struct Guard(Option<usize>);

/// Open a span named `name`; it inherits the request id of the span
/// it nests in (0 at top level).
pub fn span(name: &'static str) -> Guard {
    open(name, None)
}

/// Open a span that starts request `req`.
pub fn request(name: &'static str, req: u64) -> Guard {
    open(name, Some(req))
}

fn open(name: &'static str, req: Option<u64>) -> Guard {
    if !ON.load(Ordering::Relaxed) {
        return Guard(None);
    }
    let (parent, inherited) = STACK.with(|s| s.borrow().last().copied()).unzip();
    let req = req.or(inherited).unwrap_or(0);
    let thread = THREAD.with(|t| *t);
    let mut all = spans();
    let idx = all.len();
    all.push(Span {
        name,
        start: now_ns(),
        end: 0,
        parent,
        req,
        thread,
    });
    drop(all);
    STACK.with(|s| s.borrow_mut().push((idx, req)));
    Guard(Some(idx))
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some(idx) = self.0 {
            let end = now_ns();
            STACK.with(|s| s.borrow_mut().pop());
            spans()[idx].end = end;
        }
    }
}

/// A copy of every span recorded so far.
pub fn snapshot() -> Vec<Span> {
    spans().clone()
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for (s, e) in intervals {
        let s = s.max(reach);
        let e = e.min(hi);
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Self time of every span: its duration minus the part of it its
/// children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, kids)| s.dur() - covered(kids, s.start, s.end))
        .collect()
}

/// Total self time per layer, in nanoseconds.
pub fn self_by_layer(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut by = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *by.entry(s.layer()).or_insert(0) += t;
    }
    by
}

/// Write spans as JSON lines.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{},\"thread\":{}}}",
            s.name, s.start, s.end, s.req, s.thread
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            req: 0,
            thread: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            at("service.submit", 0, 100, None),
            at("engine.batch", 10, 40, Some(0)),
            at("engine.batch", 30, 50, Some(0)), // overlaps the first
            at("checked.kernel", 20, 30, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![60, 20, 20, 10]);
        let by = self_by_layer(&spans);
        assert_eq!(by["service"], 60);
        assert_eq!(by["engine"], 40);
        assert_eq!(by["checked"], 10);
    }

    #[test]
    fn spans_nest_and_inherit_the_request_id() {
        // The recorder is process-global and other tests may record
        // while it is on, so find this test's spans by name and nesting.
        enable();
        {
            let _r = request("bench.req", 42);
            let _c = span("bench.child");
        }
        disable();
        {
            let _off = span("bench.off");
        }
        let all = snapshot();
        let outer = all
            .iter()
            .position(|s| s.name == "bench.req" && s.req == 42)
            .expect("the request span was recorded");
        let inner = all
            .iter()
            .find(|s| s.parent == Some(outer))
            .expect("the child span was recorded");
        assert_eq!((inner.name, inner.req), ("bench.child", 42));
        assert!(all[outer].start <= inner.start && inner.end <= all[outer].end);
        assert!(all.iter().all(|s| s.name != "bench.off"));
    }
}
