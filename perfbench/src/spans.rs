//! Host-time spans recorded around calls into each layer.
//!
//! Spans are kept in memory while the benchmark runs and written out once
//! at the end. Recording is thread-safe because the parallel suite runs
//! experiments on pool workers; a span names its parent explicitly rather
//! than through a per-thread stack for the same reason.

use std::sync::Mutex;
use std::time::Instant;

/// One finished (or still open) span. Times are seconds since the
/// recorder's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub parent: Option<usize>,
    pub start_s: f64,
    pub end_s: f64,
}

impl Span {
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span named `name` under `parent`. `f` receives the
    /// new span's id so it can open child spans.
    pub fn record<R>(
        &self,
        name: impl Into<String>,
        parent: Option<usize>,
        f: impl FnOnce(usize) -> R,
    ) -> R {
        self.record_timed(name, parent, f).0
    }

    /// Like [`Spans::record`], also returning the span's duration.
    pub fn record_timed<R>(
        &self,
        name: impl Into<String>,
        parent: Option<usize>,
        f: impl FnOnce(usize) -> R,
    ) -> (R, f64) {
        let (id, start_s) = {
            let mut spans = self.spans.lock().expect("span list poisoned");
            let start_s = self.epoch.elapsed().as_secs_f64();
            spans.push(Span {
                name: name.into(),
                parent,
                start_s,
                end_s: start_s,
            });
            (spans.len() - 1, start_s)
        };
        let result = f(id);
        let end_s = self.epoch.elapsed().as_secs_f64();
        self.spans.lock().expect("span list poisoned")[id].end_s = end_s;
        (result, end_s - start_s)
    }

    pub fn snapshot(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned").clone()
    }

    /// Summed duration of every span called `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.snapshot()
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_s)
            .sum()
    }
}

/// Each span's self time: its duration minus the union of the intervals
/// its children cover (children of a parallel parent may overlap).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start_s, span.end_s));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut intervals)| {
            intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut open: Option<(f64, f64)> = None;
            for (start, end) in intervals {
                match open {
                    Some((s, e)) if start <= e => open = Some((s, e.max(end))),
                    _ => {
                        if let Some((s, e)) = open {
                            covered += e - s;
                        }
                        open = Some((start, end));
                    }
                }
            }
            if let Some((s, e)) = open {
                covered += e - s;
            }
            span.duration_s() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, parent: Option<usize>, start_s: f64, end_s: f64) -> Span {
        Span {
            name: name.to_owned(),
            parent,
            start_s,
            end_s,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("root", None, 0.0, 10.0),
            span("a", Some(0), 1.0, 4.0),
            span("b", Some(0), 3.0, 5.0),
            span("c", Some(0), 7.0, 8.0),
            span("leaf", Some(1), 1.0, 2.0),
        ];
        let self_s = self_times(&spans);
        assert!((self_s[0] - 5.0).abs() < 1e-12, "{self_s:?}");
        assert!((self_s[1] - 2.0).abs() < 1e-12, "{self_s:?}");
        assert!((self_s[4] - 1.0).abs() < 1e-12, "{self_s:?}");
    }

    #[test]
    fn recorded_spans_nest_and_close() {
        let spans = Spans::new();
        spans.record("outer", None, |outer| {
            spans.record("inner", Some(outer), |_| ());
        });
        let recorded = spans.snapshot();
        assert_eq!(recorded.len(), 2);
        assert_eq!(recorded[1].parent, Some(0));
        assert!(recorded[0].end_s >= recorded[1].end_s);
        assert!(spans.total_s("inner") >= 0.0);
    }
}
