#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # lcpio-trace — stage-level observability for the compressed-I/O pipeline
//!
//! The paper attributes energy and runtime to pipeline *phases*
//! (compression vs. data writing, §V–VI); this crate gives the
//! reproduction the matching instrument: named **spans** (wall-time
//! aggregates with count/min/max) and monotonic **counters**, collected
//! into a process-global registry and exported as a machine-readable JSON
//! report.
//!
//! Two build configurations, selected by the `enabled` cargo feature:
//!
//! * **disabled** (default) — every entry point is an inline no-op; the
//!   span guard and stopwatch are zero-sized, so the optimizer erases the
//!   instrumentation entirely. Codec hot paths pay nothing.
//! * **enabled** — spans and counters aggregate under a global mutex.
//!   Callers keep the cost negligible by instrumenting at *stage*
//!   granularity (one span per pipeline stage or chunk, one counter add
//!   per compression call) and by batching per-block timings through
//!   [`Stopwatch`], which accumulates locally and commits once.
//!
//! Naming convention: dotted lowercase paths, `<crate>.<stage>[.<detail>]`
//! — e.g. `sz.huffman`, `zfp.coder`, `powersim.energy.compute_uj`.
//! Energies are recorded in microjoules (`_uj`), times in nanoseconds
//! (`_ns` inside span stats), sizes in bytes.
//!
//! ```
//! let _guard = lcpio_trace::span("doc.example");
//! lcpio_trace::counter_add("doc.bytes_in", 4096);
//! let report = lcpio_trace::snapshot();
//! // With the `enabled` feature the report carries the span + counter;
//! // without it the report is empty — either way this compiles and runs.
//! let json = report.to_json();
//! assert!(json.contains("spans"));
//! ```

use std::collections::BTreeMap;

/// Aggregated wall-time statistics for one named span.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// Number of times the span was entered.
    pub count: u64,
    /// Total nanoseconds across all entries.
    pub total_ns: u64,
    /// Shortest single entry (ns).
    pub min_ns: u64,
    /// Longest single entry (ns).
    pub max_ns: u64,
}

impl SpanStat {
    /// Fold one observed duration into the aggregate.
    pub fn record(&mut self, ns: u64) {
        if self.count == 0 {
            self.min_ns = ns;
            self.max_ns = ns;
        } else {
            self.min_ns = self.min_ns.min(ns);
            self.max_ns = self.max_ns.max(ns);
        }
        self.count += 1;
        self.total_ns += ns;
    }

    /// Merge another aggregate into this one.
    pub fn merge(&mut self, other: &SpanStat) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        self.count += other.count;
        self.total_ns += other.total_ns;
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// Longest/shortest entry ratio — the chunk-imbalance figure of merit.
    /// Returns 1.0 for empty or zero-minimum aggregates.
    pub fn imbalance(&self) -> f64 {
        if self.count == 0 || self.min_ns == 0 {
            1.0
        } else {
            self.max_ns as f64 / self.min_ns as f64
        }
    }
}

/// A point-in-time copy of the global registry: every span aggregate and
/// counter value, sorted by name for deterministic output.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Report {
    /// Span aggregates keyed by span name.
    pub spans: BTreeMap<String, SpanStat>,
    /// Counter values keyed by counter name.
    pub counters: BTreeMap<String, u64>,
}

/// Escape a string for embedding in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl Report {
    /// True when nothing was recorded (always the case with the `enabled`
    /// feature off).
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty() && self.counters.is_empty()
    }

    /// Look up a span aggregate by name.
    pub fn span(&self, name: &str) -> Option<&SpanStat> {
        self.spans.get(name)
    }

    /// Look up a counter value by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// Render as a JSON object with `"spans"` and `"counters"` members.
    /// Hand-rolled so the crate stays dependency-free; names are escaped,
    /// output order is the registry's sorted order.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"spans\": {");
        for (i, (name, s)) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    \"{}\": {{\"count\": {}, \"total_ns\": {}, \"min_ns\": {}, \"max_ns\": {}}}",
                json_escape(name),
                s.count,
                s.total_ns,
                s.min_ns,
                s.max_ns
            ));
        }
        if !self.spans.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n  \"counters\": {");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    \"{}\": {}", json_escape(name), v));
        }
        if !self.counters.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("}\n}");
        out
    }
}

#[cfg(feature = "enabled")]
mod imp {
    use super::{Report, SpanStat};
    use std::collections::BTreeMap;
    use std::sync::{Mutex, OnceLock};
    use std::time::Instant;

    #[derive(Default)]
    struct State {
        spans: BTreeMap<&'static str, SpanStat>,
        counters: BTreeMap<&'static str, u64>,
    }

    fn state() -> &'static Mutex<State> {
        static STATE: OnceLock<Mutex<State>> = OnceLock::new();
        STATE.get_or_init(|| Mutex::new(State::default()))
    }

    /// True — spans and counters are being collected.
    pub fn collecting() -> bool {
        true
    }

    /// RAII guard: measures from construction to drop, then folds the
    /// duration into the global aggregate for `name`.
    #[must_use = "a span records on drop; binding to _ discards it immediately"]
    pub struct Span {
        name: &'static str,
        start: Instant,
    }

    /// Enter a span.
    pub fn span(name: &'static str) -> Span {
        Span { name, start: Instant::now() }
    }

    impl Drop for Span {
        fn drop(&mut self) {
            let ns = self.start.elapsed().as_nanos() as u64;
            let mut st = state().lock().expect("trace registry lock");
            st.spans.entry(self.name).or_default().record(ns);
        }
    }

    /// Add to a monotonic counter.
    pub fn counter_add(name: &'static str, v: u64) {
        let mut st = state().lock().expect("trace registry lock");
        *st.counters.entry(name).or_insert(0) += v;
    }

    /// A locally-accumulating stopwatch for per-block loops: `lap` cost is
    /// two `Instant::now()` calls with no locking; the global registry is
    /// touched once, at [`Stopwatch::commit`].
    #[derive(Default)]
    pub struct Stopwatch {
        agg: SpanStat,
    }

    impl Stopwatch {
        /// New stopped stopwatch.
        pub fn new() -> Self {
            Stopwatch { agg: SpanStat::default() }
        }

        /// Time one closure invocation as a single lap.
        #[inline]
        pub fn lap<R>(&mut self, f: impl FnOnce() -> R) -> R {
            let t0 = Instant::now();
            let r = f();
            self.agg.record(t0.elapsed().as_nanos() as u64);
            r
        }

        /// Merge the accumulated laps into the global span `name`.
        pub fn commit(self, name: &'static str) {
            if self.agg.count == 0 {
                return;
            }
            let mut st = state().lock().expect("trace registry lock");
            st.spans.entry(name).or_default().merge(&self.agg);
        }
    }

    /// Copy the registry out.
    pub fn snapshot() -> Report {
        let st = state().lock().expect("trace registry lock");
        Report {
            spans: st.spans.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
            counters: st.counters.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        }
    }

    /// Clear every span and counter.
    pub fn reset() {
        let mut st = state().lock().expect("trace registry lock");
        st.spans.clear();
        st.counters.clear();
    }
}

#[cfg(not(feature = "enabled"))]
mod imp {
    use super::Report;

    /// False — the `enabled` feature is off; nothing is collected.
    #[inline(always)]
    pub fn collecting() -> bool {
        false
    }

    /// Zero-sized no-op span guard.
    ///
    /// The explicit [`Drop`] keeps `drop(span)` call sites — used to end a
    /// span before the enclosing scope — valid under `clippy::drop_non_drop`
    /// in both feature configurations.
    pub struct Span;

    impl Drop for Span {
        #[inline(always)]
        fn drop(&mut self) {}
    }

    /// Enter a span (no-op).
    #[inline(always)]
    pub fn span(_name: &'static str) -> Span {
        Span
    }

    /// Add to a counter (no-op).
    #[inline(always)]
    pub fn counter_add(_name: &'static str, _v: u64) {}

    /// Zero-sized no-op stopwatch.
    #[derive(Default)]
    pub struct Stopwatch;

    impl Stopwatch {
        /// New stopwatch (no-op).
        #[inline(always)]
        pub fn new() -> Self {
            Stopwatch
        }

        /// Run the closure without timing it.
        #[inline(always)]
        pub fn lap<R>(&mut self, f: impl FnOnce() -> R) -> R {
            f()
        }

        /// Discard (no-op).
        #[inline(always)]
        pub fn commit(self, _name: &'static str) {}
    }

    /// Empty report.
    #[inline(always)]
    pub fn snapshot() -> Report {
        Report::default()
    }

    /// No-op.
    #[inline(always)]
    pub fn reset() {}
}

pub use imp::{collecting, counter_add, reset, snapshot, span, Span, Stopwatch};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_stat_record_and_merge() {
        let mut a = SpanStat::default();
        a.record(10);
        a.record(30);
        assert_eq!(a.count, 2);
        assert_eq!(a.total_ns, 40);
        assert_eq!(a.min_ns, 10);
        assert_eq!(a.max_ns, 30);
        let mut b = SpanStat::default();
        b.record(5);
        b.merge(&a);
        assert_eq!(b.count, 3);
        assert_eq!(b.total_ns, 45);
        assert_eq!(b.min_ns, 5);
        assert_eq!(b.max_ns, 30);
        assert_eq!(b.imbalance(), 6.0);
        assert_eq!(SpanStat::default().imbalance(), 1.0);
    }

    #[test]
    fn report_json_is_well_formed() {
        let mut r = Report::default();
        r.spans.insert("sz.huffman".to_string(), SpanStat { count: 2, total_ns: 100, min_ns: 40, max_ns: 60 });
        r.counters.insert("sz.bytes_in".to_string(), 4096);
        let json = r.to_json();
        assert!(json.contains("\"sz.huffman\""));
        assert!(json.contains("\"total_ns\": 100"));
        assert!(json.contains("\"sz.bytes_in\": 4096"));
        // Braces balance.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn empty_report_json() {
        let json = Report::default().to_json();
        assert!(json.contains("\"spans\": {}"));
        assert!(json.contains("\"counters\": {}"));
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_escape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
    }

    #[test]
    fn api_is_callable_in_both_configurations() {
        reset();
        {
            let _g = span("test.span");
            counter_add("test.counter", 7);
            let mut sw = Stopwatch::new();
            let v = sw.lap(|| 41 + 1);
            assert_eq!(v, 42);
            sw.commit("test.stopwatch");
        }
        let rep = snapshot();
        if collecting() {
            assert_eq!(rep.counter("test.counter"), Some(7));
            assert!(rep.span("test.span").is_some());
            assert!(rep.span("test.stopwatch").is_some());
        } else {
            assert!(rep.is_empty());
        }
    }
}
