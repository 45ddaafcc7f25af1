//! In-memory span ledger for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around its calls into
//! each layer's public functions; nothing inside the program is touched.
//! A span's parent is the innermost open span on the same thread, or an
//! explicit parent for work fanned out to pool threads. Spans stay in
//! memory and are written out once, when the run ends.
//!
//! Self time follows the usual definition: a span's duration minus the
//! part of its interval that its children cover (the union of their
//! intervals, so parallel children are not double-subtracted). The pass
//! span's self time is therefore exactly the time no layer claimed — the
//! `unattributed` line of the reconciliation.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub thread: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl SpanRecord {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-name aggregate.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerSummary {
    pub calls: u64,
    pub total_s: f64,
    pub self_s: f64,
}

thread_local! {
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}
static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);

/// Span and counter store for one traced run.
pub struct Ledger {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRecord>>,
    counts: Mutex<BTreeMap<&'static str, f64>>,
}

impl Default for Ledger {
    fn default() -> Self {
        Ledger {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            counts: Mutex::new(BTreeMap::new()),
        }
    }
}

impl Ledger {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span on this thread. `f` receives the new span's id.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce(u64) -> R) -> R {
        let parent = OPEN.with(|o| o.borrow().last().copied());
        self.span_under(parent, name, f)
    }

    /// Runs `f` inside a span with an explicit parent (for pool threads,
    /// whose own stack does not hold the span that fanned the work out).
    pub fn span_under<R>(
        &self,
        parent: Option<u64>,
        name: &'static str,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        OPEN.with(|o| o.borrow_mut().push(id));
        let start_ns = self.now_ns();
        let out = f(id);
        let end_ns = self.now_ns();
        OPEN.with(|o| o.borrow_mut().pop());
        let thread = THREAD.with(|t| *t);
        self.spans.lock().expect("ledger lock").push(SpanRecord {
            id,
            parent,
            name,
            thread,
            start_ns,
            end_ns,
        });
        out
    }

    /// Adds `delta` to the named count.
    pub fn count(&self, name: &'static str, delta: f64) {
        *self
            .counts
            .lock()
            .expect("ledger lock")
            .entry(name)
            .or_default() += delta;
    }

    /// The named count (0 when never incremented).
    pub fn counted(&self, name: &str) -> f64 {
        self.counts
            .lock()
            .expect("ledger lock")
            .get(name)
            .copied()
            .unwrap_or(0.0)
    }

    /// All closed spans, in close order.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.spans.lock().expect("ledger lock").clone()
    }

    /// Calls, total and self time per span name.
    pub fn summary(&self) -> BTreeMap<&'static str, LayerSummary> {
        summarize(&self.spans())
    }

    /// The ledger as JSON lines: one span per line, then one line per count.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in self.spans() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"span\": \"{}\", \"id\": {}, \"parent\": {}, \"thread\": {}, \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.id, parent, s.thread, s.start_ns, s.end_ns
            );
        }
        for (name, v) in self.counts.lock().expect("ledger lock").iter() {
            let _ = writeln!(out, "{{\"count\": \"{name}\", \"value\": {v}}}");
        }
        out
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered_ns(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = lo;
    for (s, e) in intervals {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

/// Aggregates spans by name: calls, summed duration, summed self time.
pub fn summarize(spans: &[SpanRecord]) -> BTreeMap<&'static str, LayerSummary> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, LayerSummary> = BTreeMap::new();
    for s in spans {
        let kids = children.get(&s.id).cloned().unwrap_or_default();
        let self_ns = s.duration_ns() - covered_ns(kids, s.start_ns, s.end_ns);
        let e = out.entry(s.name).or_default();
        e.calls += 1;
        e.total_s += s.duration_ns() as f64 * 1e-9;
        e.self_s += self_ns as f64 * 1e-9;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, parent: Option<u64>, name: &'static str, s: u64, e: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name,
            thread: 0,
            start_ns: s,
            end_ns: e,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Parent [0, 100); two overlapping parallel children cover [10, 70).
        let spans = vec![
            rec(2, Some(1), "child", 10, 50),
            rec(3, Some(1), "child", 30, 70),
            rec(1, None, "pass", 0, 100),
        ];
        let s = summarize(&spans);
        assert_eq!(s["pass"].calls, 1);
        assert!((s["pass"].self_s - 40e-9).abs() < 1e-15);
        assert_eq!(s["child"].calls, 2);
        assert!((s["child"].total_s - 80e-9).abs() < 1e-15);
        assert!((s["child"].self_s - 80e-9).abs() < 1e-15);
    }

    #[test]
    fn nested_spans_find_their_parent() {
        let ledger = Ledger::default();
        ledger.span("pass", |_| {
            ledger.span("a", |_| ());
            ledger.span("b", |_| ledger.span("c", |_| ()));
        });
        let spans = ledger.spans();
        let id = |n: &str| spans.iter().find(|s| s.name == n).unwrap().id;
        let parent = |n: &str| spans.iter().find(|s| s.name == n).unwrap().parent;
        assert_eq!(parent("pass"), None);
        assert_eq!(parent("a"), Some(id("pass")));
        assert_eq!(parent("c"), Some(id("b")));
    }
}
