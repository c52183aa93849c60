//! Spans recorded by the benchmark around its own calls into each layer.
//!
//! Spans live in memory and are written once, at exit, as Chrome
//! trace-event JSON (load it in `chrome://tracing` or Perfetto). A span's
//! self time is its duration minus the part its children cover; because
//! the benchmark is single-threaded and spans nest strictly, the self
//! times under a pass add up to the pass exactly.

use std::time::Instant;

use crate::alloc;
use crate::json::{obj, s, Value};

/// One closed span.
#[derive(Clone, Debug)]
pub struct Span {
    /// What was called, e.g. `run_scenario` (fixed vocabulary).
    pub name: &'static str,
    /// Which one, e.g. the cell label.
    pub label: String,
    /// Start, in ns since the recorder was created.
    pub start_ns: u64,
    /// End, in ns since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// End minus start.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The recorder. Switched off, `within` only calls its closure — that is
/// how the timed runs execute the same code with tracing off. On or off,
/// it is also the clock of a pass: [`Spans::pass`] times the pass and
/// [`Spans::lap`] splits it into units.
pub struct Spans {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    lap_from: Instant,
    laps: Vec<u64>,
}

impl Spans {
    /// A recorder that records nothing.
    pub fn off() -> Spans {
        Spans {
            on: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            lap_from: Instant::now(),
            laps: Vec::new(),
        }
    }

    /// A recording recorder with room for `capacity` spans, reserved now
    /// so the buffer never grows inside a counted pass.
    pub fn on(capacity: usize) -> Spans {
        Spans {
            on: true,
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(16),
            lap_from: Instant::now(),
            laps: Vec::new(),
        }
    }

    /// Runs `f` inside a span called `name`, labelled `label`.
    pub fn within<T>(
        &mut self,
        name: &'static str,
        label: &str,
        f: impl FnOnce(&mut Spans) -> T,
    ) -> T {
        if !self.on {
            return f(self);
        }
        let index = alloc::uncounted(|| {
            let index = self.spans.len();
            self.spans.push(Span {
                name,
                label: label.to_string(),
                start_ns: 0,
                end_ns: 0,
                parent: self.open.last().copied(),
            });
            self.open.push(index);
            index
        });
        self.spans[index].start_ns = self.epoch.elapsed().as_nanos() as u64;
        let out = f(self);
        self.spans[index].end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.open.pop();
        out
    }

    /// Runs `f` as the timed region of one pass, inside the root span,
    /// and returns its result with the host time of each unit of the
    /// pass, in ns: `f` ends a unit (a cell, a group, a plan) by calling
    /// [`Spans::lap`], and whatever follows its last call is the final
    /// unit. The units add up to the pass. Whatever a workload does after
    /// this returns — reading counters, folding digests of its own — is
    /// outside both the span and the time.
    pub fn pass<T>(&mut self, label: &str, f: impl FnOnce(&mut Spans) -> T) -> (T, Vec<u64>) {
        alloc::uncounted(|| self.laps = Vec::with_capacity(1024));
        self.lap_from = Instant::now();
        let out = self.within("pass", label, f);
        self.lap();
        (out, std::mem::take(&mut self.laps))
    }

    /// Ends the current unit of the pass and starts the next.
    pub fn lap(&mut self) {
        let now = Instant::now();
        let ns = now.duration_since(self.lap_from).as_nanos() as u64;
        alloc::uncounted(|| self.laps.push(ns));
        self.lap_from = now;
    }

    /// Every closed span, in start order.
    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Forgets every span (between traced passes).
    pub fn clear(&mut self) {
        self.spans.clear();
        self.open.clear();
    }

    /// Self time of every span: its duration minus its direct children's.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent] = own[parent].saturating_sub(span.dur_ns());
            }
        }
        own
    }

    /// Sum of the self times of the spans called `name`.
    pub fn self_ns_of(&self, name: &str) -> u64 {
        self.self_times_ns()
            .iter()
            .zip(&self.spans)
            .filter(|(_, span)| span.name == name)
            .map(|(own, _)| own)
            .sum()
    }

    /// Durations of the spans called `name`, in start order.
    pub fn durations_ns_of(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|span| span.name == name)
            .map(Span::dur_ns)
            .collect()
    }

    /// The trace as Chrome trace-event JSON: one complete (`"X"`) event
    /// per span, timestamps in microseconds.
    pub fn to_chrome_trace(&self, workload: &str) -> Value {
        let own = self.self_times_ns();
        let events = self
            .spans
            .iter()
            .zip(&own)
            .enumerate()
            .map(|(index, (span, own_ns))| {
                obj(vec![
                    ("name", s(span.name)),
                    ("cat", s(workload)),
                    ("ph", s("X")),
                    ("ts", Value::Num(span.start_ns as f64 / 1e3)),
                    ("dur", Value::Num(span.dur_ns() as f64 / 1e3)),
                    ("pid", Value::Num(1.0)),
                    ("tid", Value::Num(1.0)),
                    (
                        "args",
                        obj(vec![
                            ("label", s(span.label.as_str())),
                            ("id", Value::Num(index as f64)),
                            (
                                "parent",
                                span.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                            ),
                            ("self_us", Value::Num(*own_ns as f64 / 1e3)),
                        ]),
                    ),
                ])
            })
            .collect();
        obj(vec![
            ("traceEvents", Value::Arr(events)),
            ("displayTimeUnit", s("ms")),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_add_up_to_the_root() {
        let mut spans = Spans::on(8);
        spans.within("pass", "", |spans| {
            spans.within("run", "a", |spans| {
                spans.within("inner", "x", |_| std::hint::black_box(1 + 1));
            });
            spans.within("digest", "a", |_| ());
        });
        let all = spans.all();
        assert_eq!(all.len(), 4);
        assert_eq!(all[1].parent, Some(0));
        assert_eq!(all[2].parent, Some(1));
        assert_eq!(all[3].parent, Some(0));
        let total: u64 = spans.self_times_ns().iter().sum();
        assert_eq!(total, all[0].dur_ns());
        assert_eq!(spans.durations_ns_of("run").len(), 1);
    }

    #[test]
    fn off_records_nothing() {
        let mut spans = Spans::off();
        assert_eq!(spans.within("pass", "", |_| 7), 7);
        assert!(spans.all().is_empty());
    }
}
