//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span has a name, a start and an end (nanoseconds since the run
//! began), the span that was open when it started, and the request id
//! of the root operation it belongs to. Spans stay in memory and are
//! written out as JSON lines when the run ends.
//!
//! A traced run records spans in about half of its phases (rounds of
//! days, chunks of requests), picked by a hash of the phase number so
//! that no periodic cadence of the workload (a spill every other day, a
//! commit every 2nd day) lines up with them. The tracing overhead is
//! the timed wall time of the traced half against the untraced half's,
//! under the same machine conditions. Outside a traced phase
//! [`Tracer::span`] records nothing.
//!
//! A layer's *self time* is its span's duration minus the time its
//! child spans cover. Spans here are strictly nested on one thread,
//! so that is the duration minus the sum of the children's durations.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use wave_obs::SplitMix64;

use crate::stats::Samples;

#[derive(Debug, Clone)]
pub struct SpanRecord {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

/// Per-name aggregate of the recorded spans.
#[derive(Debug, Default)]
pub struct SpanStats {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub durations_ns: Samples,
}

pub struct Tracer {
    traced_run: bool,
    on: Cell<bool>,
    origin: Instant,
    spans: RefCell<Vec<SpanRecord>>,
    open: RefCell<Vec<usize>>,
    requests: Cell<u64>,
}

/// Closes its span when dropped.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    idx: Option<usize>,
}

impl Tracer {
    /// A tracer for a traced run (`true`) or an untraced one. Both
    /// start outside any traced phase.
    pub fn new(traced_run: bool) -> Self {
        Tracer {
            traced_run,
            on: Cell::new(false),
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            requests: Cell::new(0),
        }
    }

    pub fn traced_run(&self) -> bool {
        self.traced_run
    }

    /// Enters phase `i`; a traced run records spans in it if the low
    /// bit of its hash is 0.
    pub fn phase(&self, i: u64) {
        let traced = SplitMix64::new(i).next_u64() & 1 == 0;
        self.on.set(self.traced_run && traced);
    }

    /// Whether spans are being recorded now.
    pub fn enabled(&self) -> bool {
        self.on.get()
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; a span opened with none open starts a request.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        if !self.enabled() {
            return SpanGuard {
                tracer: self,
                idx: None,
            };
        }
        let mut spans = self.spans.borrow_mut();
        let mut open = self.open.borrow_mut();
        let parent = open.last().copied();
        let request = match parent {
            Some(p) => spans[p].request,
            None => {
                self.requests.set(self.requests.get() + 1);
                self.requests.get()
            }
        };
        let idx = spans.len();
        spans.push(SpanRecord {
            name,
            start_ns: 0,
            end_ns: 0,
            parent,
            request,
        });
        open.push(idx);
        // Start the clock last so bookkeeping is not charged to the span.
        spans[idx].start_ns = self.now_ns();
        SpanGuard {
            tracer: self,
            idx: Some(idx),
        }
    }

    /// Aggregates the recorded spans by name, with self times.
    pub fn summary(&self) -> BTreeMap<&'static str, SpanStats> {
        let spans = self.spans.borrow();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SpanStats> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            let st = out.entry(s.name).or_default();
            st.count += 1;
            st.total_ns += dur;
            st.self_ns += dur.saturating_sub(child_ns[i]);
            st.durations_ns.push(dur as f64);
        }
        out
    }

    /// Writes every span as one JSON line to `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.borrow().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(idx) = self.idx {
            let end = self.tracer.now_ns();
            self.tracer.spans.borrow_mut()[idx].end_ns = end;
            self.tracer.open.borrow_mut().pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Enters the first phase whose tracing is `on`.
    fn enter(t: &Tracer, on: bool) {
        (0..).find(|&i| {
            t.phase(i);
            t.enabled() == on
        });
    }

    #[test]
    fn self_time_excludes_children() {
        let t = Tracer::new(true);
        enter(&t, true);
        {
            let _root = t.span("root");
            let _child = t.span("child");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let s = t.summary();
        let root = &s["root"];
        let child = &s["child"];
        assert!(root.total_ns >= child.total_ns);
        assert!(root.self_ns < child.total_ns);
        assert_eq!(t.spans.borrow()[1].request, t.spans.borrow()[0].request);
    }

    #[test]
    fn untraced_phases_and_runs_record_nothing() {
        let t = Tracer::new(false);
        assert!((0..64).all(|i| {
            t.phase(i);
            !t.enabled()
        }));
        let t = Tracer::new(true);
        enter(&t, false);
        drop(t.span("x"));
        assert!(t.summary().is_empty());
        let traced = (0..1000)
            .filter(|&i| {
                t.phase(i);
                t.enabled()
            })
            .count();
        assert!(
            (400..600).contains(&traced),
            "{traced} of 1000 phases traced"
        );
    }
}
