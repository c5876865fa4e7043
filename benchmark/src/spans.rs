//! The benchmark's own span recorder for the traced pass.
//!
//! Spans wrap the calls the benchmark makes into each layer; nothing
//! inside the program is instrumented. They are kept in memory and
//! written out when the pass ends. With the recorder off (the end-to-end
//! pass) `scope` is a plain call.

use serde::Value;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a span in the recorder.
pub type SpanId = u32;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-boundary name (`op`, `codec.wrap`, `sink.write_chunk`, ...).
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// The op every span of one operation shares.
    pub op: u32,
}

/// Thread-safe span store; `off()` records nothing.
pub struct Recorder {
    origin: Instant,
    spans: Option<Mutex<Vec<Span>>>,
}

impl Recorder {
    /// A recorder that records nothing (tracing off).
    pub fn off() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: None,
        }
    }

    /// A recording recorder.
    pub fn on() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Some(Mutex::new(Vec::new())),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.spans.is_some()
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span. `f` receives the new span's id so that it
    /// can parent its own children, including ones on other threads.
    pub fn scope<R>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        op: u32,
        f: impl FnOnce(Option<SpanId>) -> R,
    ) -> R {
        let Some(spans) = &self.spans else {
            return f(None);
        };
        let id = {
            let mut spans = spans.lock().expect("no span holder panics");
            let start_ns = self.now_ns();
            spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
                op,
            });
            (spans.len() - 1) as SpanId
        };
        let out = f(Some(id));
        let end_ns = self.now_ns();
        spans.lock().expect("no span holder panics")[id as usize].end_ns = end_ns;
        out
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        match &self.spans {
            Some(s) => s.lock().expect("no span holder panics").clone(),
            None => Vec::new(),
        }
    }
}

/// Self time of every span: its duration minus the part of that interval
/// its children cover. Children may overlap one another (worker threads)
/// or, across threads, poke past the parent; the covered part is the
/// union of the child intervals clipped to the parent, so it can never
/// exceed the parent.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let a = s.start_ns.max(parent.start_ns);
            let b = s.end_ns.min(parent.end_ns);
            if b > a {
                children[p as usize].push((a, b));
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
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// The first span that starts before or ends after its parent, if any.
/// Every span the benchmark records is opened and closed inside its
/// parent's scope (the pipelines join their threads before they return),
/// so one that sticks out is a bug in the recording, and self times
/// computed by clipping it would hide that.
pub fn first_escaping(spans: &[Span]) -> Option<&Span> {
    spans.iter().find(|s| {
        s.parent.is_some_and(|p| {
            let parent = &spans[p as usize];
            s.start_ns < parent.start_ns || s.end_ns > parent.end_ns
        })
    })
}

/// Total self time per span name, in first-seen order.
pub fn self_time_by_name(spans: &[Span]) -> Vec<(&'static str, u64, usize)> {
    let mut out: Vec<(&'static str, u64, usize)> = Vec::new();
    for (s, self_ns) in spans.iter().zip(self_times_ns(spans)) {
        match out.iter_mut().find(|(n, _, _)| *n == s.name) {
            Some(row) => {
                row.1 += self_ns;
                row.2 += 1;
            }
            None => out.push((s.name, self_ns, 1)),
        }
    }
    out
}

/// The span file: every span with its self time, plus the per-name sums.
pub fn to_json(workload: &str, spans: &[Span]) -> Value {
    let selfs = self_times_ns(spans);
    let rows = spans
        .iter()
        .zip(&selfs)
        .enumerate()
        .map(|(id, (s, &self_ns))| {
            Value::Map(vec![
                ("id".into(), Value::U64(id as u64)),
                ("name".into(), Value::Str(s.name.into())),
                ("op".into(), Value::U64(u64::from(s.op))),
                (
                    "parent".into(),
                    s.parent.map_or(Value::Null, |p| Value::U64(u64::from(p))),
                ),
                ("start_ns".into(), Value::U64(s.start_ns)),
                ("end_ns".into(), Value::U64(s.end_ns)),
                ("self_ns".into(), Value::U64(self_ns)),
            ])
        })
        .collect();
    let by_name = self_time_by_name(spans)
        .into_iter()
        .map(|(name, self_ns, count)| {
            Value::Map(vec![
                ("name".into(), Value::Str(name.into())),
                ("count".into(), Value::U64(count as u64)),
                ("self_ns".into(), Value::U64(self_ns)),
            ])
        })
        .collect();
    Value::Map(vec![
        ("workload".into(), Value::Str(workload.into())),
        ("self_time_by_name".into(), Value::Seq(by_name)),
        ("spans".into(), Value::Seq(rows)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name: "s",
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn nested_children_subtract_from_each_level() {
        // root 0..100 > a 10..60 > b 20..30
        let spans = [
            span(0, 100, None),
            span(10, 60, Some(0)),
            span(20, 30, Some(1)),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 40, 10]);
    }

    #[test]
    fn overlapping_children_count_their_union_once() {
        // Two worker spans overlap on 30..50; union is 10..70.
        let spans = [
            span(0, 100, None),
            span(10, 50, Some(0)),
            span(30, 70, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![40, 40, 40]);
    }

    #[test]
    fn a_child_poking_past_its_parent_is_clipped() {
        let spans = [
            span(10, 50, None),
            span(0, 20, Some(0)),
            span(40, 90, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans)[0], 20);
        assert_eq!(first_escaping(&spans), Some(&spans[1]));
        assert_eq!(first_escaping(&spans[..1]), None);
        // A child wholly outside covers nothing.
        let spans = [span(10, 50, None), span(60, 70, Some(0))];
        assert_eq!(self_times_ns(&spans)[0], 40);
    }

    #[test]
    fn recorder_links_parents_and_shares_the_op_id() {
        let rec = Recorder::on();
        rec.scope("op", None, 7, |op| {
            rec.scope("inner", op, 7, |_| std::hint::black_box(1 + 1));
        });
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(
            (spans[0].name, spans[0].parent, spans[0].op),
            ("op", None, 7)
        );
        assert_eq!(
            (spans[1].name, spans[1].parent, spans[1].op),
            ("inner", Some(0), 7)
        );
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        for (s, self_ns) in spans.iter().zip(self_times_ns(&spans)) {
            assert!(self_ns <= s.end_ns - s.start_ns);
        }
    }

    #[test]
    fn recorder_off_records_nothing_and_still_runs_the_call() {
        let rec = Recorder::off();
        assert_eq!(rec.scope("op", None, 0, |id| (id, 5)), (None, 5));
        assert!(rec.spans().is_empty());
    }
}
