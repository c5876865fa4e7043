//! The machine-readable ledger a pass writes, and `--compare` over two
//! of them.
//!
//! Both passes write the same shape: a header (pass, seed, input sizes,
//! environment) and named result sections, each with a `noisy` flag, op
//! accounting and `metrics: {name: {value, unit}}`. The end-to-end pass
//! has one section per workload; the traced pass has the one section
//! `per_layer`.

use crate::declared::{Better, END_TO_END, PER_LAYER};
use serde::Value;

/// One result section of a ledger.
#[derive(Debug, Clone, PartialEq)]
pub struct Section {
    /// Workload name, or `per_layer`.
    pub name: String,
    /// Calibration drifted by more than 5 % around the measurement.
    pub noisy: bool,
    /// Ops attempted.
    pub ops: u64,
    /// Ops that failed.
    pub failed_ops: u64,
    /// The declared metrics, `(name, value, unit)` in print order.
    pub metrics: Vec<(String, f64, String)>,
    /// Undeclared figures that are printed and compared for information:
    /// the window's own statistics.
    pub info: Vec<(String, f64, String)>,
    /// Further fields for readers of the file (`--compare` ignores them).
    pub extra: Vec<(String, Value)>,
}

impl Section {
    /// `failed ÷ attempted`, in percent.
    pub fn failed_ops_pct(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.failed_ops as f64 / self.ops as f64 * 100.0
        }
    }

    fn to_value(&self) -> Value {
        let map_of = |list: &[(String, f64, String)]| {
            Value::Map(
                list.iter()
                    .map(|(name, value, unit)| (name.clone(), metric_value(*value, unit)))
                    .collect(),
            )
        };
        let mut fields = vec![
            ("noisy".to_string(), Value::Bool(self.noisy)),
            ("ops".to_string(), Value::U64(self.ops)),
            ("failed_ops".to_string(), Value::U64(self.failed_ops)),
            (
                "failed_ops_pct".to_string(),
                Value::F64(self.failed_ops_pct()),
            ),
            ("metrics".to_string(), map_of(&self.metrics)),
            ("info".to_string(), map_of(&self.info)),
        ];
        fields.extend(self.extra.iter().cloned());
        Value::Map(fields)
    }
}

/// `{"value": v, "unit": u}`.
pub fn metric_value(value: f64, unit: &str) -> Value {
    Value::Map(vec![
        ("value".to_string(), Value::F64(value)),
        ("unit".to_string(), Value::Str(unit.to_string())),
    ])
}

/// A whole ledger: header fields, then the sections.
#[derive(Debug, Clone, PartialEq)]
pub struct Ledger {
    /// `end_to_end` or `per_layer`.
    pub pass: String,
    /// The seed the traffic order was drawn from (`--seed`).
    pub seed: u64,
    /// The seed the fields were generated from (`--field-seed`).
    pub field_seed: u64,
    /// Input sizes and window length; two ledgers compare only if equal.
    pub inputs: Vec<(String, f64)>,
    /// Machine and build description.
    pub env: Vec<(String, Value)>,
    /// The result sections.
    pub sections: Vec<Section>,
}

impl Ledger {
    /// The JSON document.
    pub fn to_value(&self) -> Value {
        Value::Map(vec![
            (
                "schema".to_string(),
                Value::Str("lcpio-benchmark/1".to_string()),
            ),
            ("pass".to_string(), Value::Str(self.pass.clone())),
            ("seed".to_string(), Value::U64(self.seed)),
            ("field_seed".to_string(), Value::U64(self.field_seed)),
            (
                "inputs".to_string(),
                Value::Map(
                    self.inputs
                        .iter()
                        .map(|(k, v)| (k.clone(), Value::F64(*v)))
                        .collect(),
                ),
            ),
            ("env".to_string(), Value::Map(self.env.clone())),
            (
                "results".to_string(),
                Value::Map(
                    self.sections
                        .iter()
                        .map(|s| (s.name.clone(), s.to_value()))
                        .collect(),
                ),
            ),
        ])
    }

    /// Parse what [`Ledger::to_value`] wrote.
    pub fn parse(text: &str) -> Result<Ledger, String> {
        let doc = serde_json::parse(text).map_err(|e| e.to_string())?;
        let top = doc.as_map().ok_or("ledger is not a JSON object")?;
        let get = |key: &str| {
            top.iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .ok_or(format!("ledger has no `{key}`"))
        };
        let map_of = |v: &Value, what: &str| {
            v.as_map()
                .map(<[_]>::to_vec)
                .ok_or(format!("`{what}` is not an object"))
        };
        let text_of = |v: &Value, what: &str| match v {
            Value::Str(s) => Ok(s.clone()),
            _ => Err(format!("`{what}` is not a string")),
        };
        let mut sections = Vec::new();
        for (name, body) in map_of(get("results")?, "results")? {
            let body = map_of(&body, &name)?;
            let field = |key: &str| {
                body.iter()
                    .find(|(k, _)| k == key)
                    .map(|(_, v)| v)
                    .ok_or(format!("`{name}` has no `{key}`"))
            };
            let list_of = |key: &str| -> Result<Vec<(String, f64, String)>, String> {
                let mut list = Vec::new();
                for (metric, mv) in map_of(field(key)?, key)? {
                    let mv = map_of(&mv, &metric)?;
                    let part = |key: &str| {
                        mv.iter()
                            .find(|(k, _)| k == key)
                            .map(|(_, v)| v)
                            .ok_or(format!("`{metric}` has no `{key}`"))
                    };
                    let value = part("value")?
                        .as_f64()
                        .ok_or(format!("`{metric}` value is not a number"))?;
                    list.push((metric.clone(), value, text_of(part("unit")?, "unit")?));
                }
                Ok(list)
            };
            let (metrics, info) = (list_of("metrics")?, list_of("info")?);
            sections.push(Section {
                noisy: matches!(field("noisy")?, Value::Bool(true)),
                ops: field("ops")?.as_u64().ok_or("`ops` is not a count")?,
                failed_ops: field("failed_ops")?
                    .as_u64()
                    .ok_or("`failed_ops` is not a count")?,
                metrics,
                info,
                extra: Vec::new(),
                name,
            });
        }
        Ok(Ledger {
            pass: text_of(get("pass")?, "pass")?,
            seed: get("seed")?.as_u64().ok_or("`seed` is not a count")?,
            field_seed: get("field_seed")?
                .as_u64()
                .ok_or("`field_seed` is not a count")?,
            inputs: map_of(get("inputs")?, "inputs")?
                .into_iter()
                .map(|(k, v)| v.as_f64().map(|v| (k, v)).ok_or("an input is not a number"))
                .collect::<Result<_, _>>()?,
            env: map_of(get("env")?, "env")?,
            sections,
        })
    }
}

/// What `--compare` concluded about one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within its bound (or better).
    Within,
    /// Worse than the base by more than its bound.
    Regression,
    /// An exact metric that differs at all.
    ExactDrift,
    /// Either side was measured in a noisy window: neither "unchanged"
    /// nor "regressed" can be claimed.
    Unresolved,
    /// A per-layer timing: reported, not judged (it has no bound).
    Info,
    /// Present in the base, absent from the other ledger.
    Missing,
}

impl Verdict {
    fn fails(self) -> bool {
        matches!(
            self,
            Verdict::Regression | Verdict::ExactDrift | Verdict::Missing
        )
    }

    fn label(self) -> &'static str {
        match self {
            Verdict::Within => "ok",
            Verdict::Regression => "REGRESSION",
            Verdict::ExactDrift => "EXACT-DRIFT",
            Verdict::Unresolved => "unresolved",
            Verdict::Info => "info",
            Verdict::Missing => "MISSING",
        }
    }
}

/// One compared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Section (workload or `per_layer`).
    pub section: String,
    /// Metric name.
    pub metric: String,
    /// Value in the base ledger A.
    pub base: f64,
    /// Value in ledger B.
    pub other: f64,
    /// Unit.
    pub unit: String,
    /// The judgement.
    pub verdict: Verdict,
}

/// Direction, bound and exactness of a declared metric; an undeclared
/// name (the window's own statistics) is reported like a per-layer
/// timing, without a verdict.
fn rule_of(metric: &str) -> (Better, Option<f64>, bool) {
    if let Some(m) = END_TO_END.iter().find(|m| m.name == metric) {
        return (m.better, Some(m.bound), m.exact);
    }
    match PER_LAYER.iter().find(|m| m.name == metric) {
        Some(m) => (m.better, None, m.exact),
        None => (Better::Lower, None, false),
    }
}

fn judge(metric: &str, base: f64, other: f64, noisy: bool) -> Verdict {
    let (better, bound, exact) = rule_of(metric);
    if exact {
        // Counts and modeled values do not depend on machine noise.
        return if base.to_bits() == other.to_bits() {
            Verdict::Within
        } else {
            Verdict::ExactDrift
        };
    }
    let Some(bound) = bound else {
        return Verdict::Info;
    };
    if noisy {
        return Verdict::Unresolved;
    }
    let worsened = match better {
        Better::Higher => (base - other) / base,
        Better::Lower => (other - base) / base,
    };
    if worsened > bound {
        Verdict::Regression
    } else {
        Verdict::Within
    }
}

/// Outcome of comparing ledger B against base A.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// Every metric of A, in A's order.
    pub rows: Vec<Row>,
    /// Sections whose failed-op share rose, with `(A %, B %)`.
    pub failed_ops_rose: Vec<(String, f64, f64)>,
}

impl Comparison {
    /// Whether `--compare` must exit non-zero.
    pub fn fails(&self) -> bool {
        !self.failed_ops_rose.is_empty() || self.rows.iter().any(|r| r.verdict.fails())
    }

    /// The printed report: one line per metric, every delta with its base.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for r in &self.rows {
            let delta = if r.verdict == Verdict::Missing {
                "absent".to_string()
            } else if r.base == 0.0 {
                // A count that is expected to be 0 has no relative change.
                format!("{:+} from 0", r.other - r.base)
            } else {
                format!(
                    "{:+.2} % of {}",
                    (r.other - r.base) / r.base * 100.0,
                    r.base
                )
            };
            out.push_str(&format!(
                "{} {} {} -> {} {} ({delta}) {}\n",
                r.section,
                r.metric,
                r.base,
                r.other,
                r.unit,
                r.verdict.label()
            ));
        }
        for (section, a, b) in &self.failed_ops_rose {
            out.push_str(&format!(
                "{section} failed_ops_pct {a} -> {b} % FAILED-OPS-ROSE\n"
            ));
        }
        let count = |v: Verdict| self.rows.iter().filter(|r| r.verdict == v).count();
        out.push_str(&format!(
            "compare: {} regressions, {} exact drifts, {} missing, {} unresolved (noisy window), {} sections with more failed ops\n",
            count(Verdict::Regression),
            count(Verdict::ExactDrift),
            count(Verdict::Missing),
            count(Verdict::Unresolved),
            self.failed_ops_rose.len()
        ));
        out
    }
}

/// Compare B against the base A. The ledgers must come from the same
/// pass, seeds and input sizes: exact metrics are exact only then.
pub fn compare(a: &Ledger, b: &Ledger) -> Result<Comparison, String> {
    let key = |l: &Ledger| (l.pass.clone(), l.seed, l.field_seed, l.inputs.clone());
    if key(a) != key(b) {
        return Err(format!(
            "ledgers are not comparable: A is {:?}, B is {:?}",
            key(a),
            key(b)
        ));
    }
    let mut rows = Vec::new();
    let mut failed_ops_rose = Vec::new();
    for sa in &a.sections {
        let sb = b.sections.iter().find(|s| s.name == sa.name);
        if let Some(sb) = sb {
            if sb.failed_ops_pct() > sa.failed_ops_pct() {
                failed_ops_rose.push((sa.name.clone(), sa.failed_ops_pct(), sb.failed_ops_pct()));
            }
        }
        for (metric, base, unit) in sa.metrics.iter().chain(&sa.info) {
            let other = sb.and_then(|s| {
                s.metrics
                    .iter()
                    .chain(&s.info)
                    .find(|(m, _, _)| m == metric)
            });
            let (other, verdict) = match (sb, other) {
                (Some(sb), Some((_, other, _))) => {
                    (*other, judge(metric, *base, *other, sa.noisy || sb.noisy))
                }
                _ => (f64::NAN, Verdict::Missing),
            };
            rows.push(Row {
                section: sa.name.clone(),
                metric: metric.clone(),
                base: *base,
                other,
                unit: unit.clone(),
                verdict,
            });
        }
    }
    Ok(Comparison {
        rows,
        failed_ops_rose,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ledger(noisy: bool, failed_ops: u64, metrics: &[(&str, f64)]) -> Ledger {
        Ledger {
            pass: "end_to_end".into(),
            seed: 11,
            field_seed: 11,
            inputs: vec![("side".into(), 96.0)],
            env: vec![("avx2".into(), Value::Bool(true))],
            sections: vec![Section {
                name: "dump3d_sz".into(),
                noisy,
                ops: 200,
                failed_ops,
                metrics: metrics
                    .iter()
                    .map(|(n, v)| (n.to_string(), *v, "u".to_string()))
                    .collect(),
                info: vec![("window_p50_ms".into(), 80.0, "ms".into())],
                extra: vec![("wall_s".into(), Value::F64(10.5))],
            }],
        }
    }

    const BASE: [(&str, f64); 4] = [
        ("throughput_mbps", 50.0),
        ("op_p50_ms", 70.0),
        ("stored_ratio", 3.25),
        ("sz.huffman_build_us", 400.0),
    ];

    fn verdicts(a: &Ledger, b: &Ledger) -> Vec<Verdict> {
        compare(a, b)
            .unwrap()
            .rows
            .iter()
            .map(|r| r.verdict)
            .collect()
    }

    #[test]
    fn a_ledger_survives_the_round_trip_through_json() {
        let a = ledger(true, 2, &BASE);
        let text = serde_json::to_string_pretty(&a.to_value()).unwrap();
        let mut back = Ledger::parse(&text).unwrap();
        back.sections[0].extra = a.sections[0].extra.clone();
        assert_eq!(back, a);
        assert!(!compare(&a, &back).unwrap().fails());
    }

    #[test]
    fn worsening_beyond_the_bound_is_a_regression_in_either_direction() {
        let a = ledger(false, 0, &BASE);
        let bound = |name| END_TO_END.iter().find(|m| m.name == name).unwrap().bound;
        // throughput (higher is better): one point inside the bound
        // passes, one point outside fails.
        let t = bound("throughput_mbps");
        let mut m = BASE;
        m[0].1 = 50.0 * (1.0 - t + 0.01);
        assert_eq!(verdicts(&a, &ledger(false, 0, &m))[0], Verdict::Within);
        m[0].1 = 50.0 * (1.0 - t - 0.01);
        let c = compare(&a, &ledger(false, 0, &m)).unwrap();
        assert_eq!(c.rows[0].verdict, Verdict::Regression);
        assert!(c.fails());
        let delta = format!("{:+.2} % of 50", -(t + 0.01) * 100.0);
        assert!(c.render().contains(&delta), "{}", c.render());
        // p50 (lower is better): beyond the bound fails, any improvement passes.
        let mut m = BASE;
        m[1].1 = 70.0 * (1.0 + bound("op_p50_ms") + 0.01);
        assert_eq!(verdicts(&a, &ledger(false, 0, &m))[1], Verdict::Regression);
        m[1].1 = 35.0;
        assert_eq!(verdicts(&a, &ledger(false, 0, &m))[1], Verdict::Within);
    }

    #[test]
    fn an_exact_metric_may_not_move_at_all_even_in_a_noisy_window() {
        let a = ledger(false, 0, &BASE);
        let mut m = BASE;
        m[2].1 = 3.2500000000000004;
        let c = compare(&a, &ledger(true, 0, &m)).unwrap();
        assert_eq!(c.rows[2].verdict, Verdict::ExactDrift);
        assert!(c.fails());
    }

    #[test]
    fn a_noisy_side_makes_timings_unresolved_not_unchanged() {
        let a = ledger(false, 0, &BASE);
        let mut m = BASE;
        m[0].1 = 30.0;
        let c = compare(&a, &ledger(true, 0, &m)).unwrap();
        assert_eq!(c.rows[0].verdict, Verdict::Unresolved);
        assert_eq!(c.rows[1].verdict, Verdict::Unresolved);
        assert_eq!(c.rows[2].verdict, Verdict::Within);
        assert!(!c.fails());
        assert_eq!(
            verdicts(&ledger(true, 0, &BASE), &ledger(false, 0, &m))[0],
            Verdict::Unresolved
        );
    }

    #[test]
    fn per_layer_timings_are_reported_without_a_verdict() {
        let a = ledger(false, 0, &BASE);
        let mut m = BASE;
        m[3].1 = 4000.0;
        let c = compare(&a, &ledger(false, 0, &m)).unwrap();
        assert_eq!(c.rows[3].verdict, Verdict::Info);
        // So is the window's own statistic, whatever it did.
        assert_eq!(
            (c.rows[4].metric.as_str(), c.rows[4].verdict),
            ("window_p50_ms", Verdict::Info)
        );
        assert!(!c.fails());
    }

    #[test]
    fn more_failed_ops_or_a_missing_metric_fail_the_comparison() {
        let a = ledger(false, 0, &BASE);
        let c = compare(&a, &ledger(false, 1, &BASE)).unwrap();
        assert_eq!(c.failed_ops_rose, vec![("dump3d_sz".to_string(), 0.0, 0.5)]);
        assert!(c.fails());
        let c = compare(&a, &ledger(false, 0, &BASE[..3])).unwrap();
        assert_eq!(c.rows[3].verdict, Verdict::Missing);
        assert!(c.fails());
    }

    #[test]
    fn ledgers_of_different_seeds_or_sizes_are_refused() {
        let a = ledger(false, 0, &BASE);
        let mut b = a.clone();
        b.seed = 12;
        assert!(compare(&a, &b).is_err());
        let mut b = a.clone();
        b.field_seed = 12;
        assert!(compare(&a, &b).is_err());
        let mut b = a.clone();
        b.inputs = vec![("side".into(), 32.0)];
        assert!(compare(&a, &b).is_err());
    }
}
