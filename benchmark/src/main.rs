//! The repo benchmark. See `benchmark/README.md`.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     [--workload NAME] [--seed S] [--seconds W] [--trace [0|1]] [--out FILE] [--smoke]
//! cargo run --release --manifest-path benchmark/Cargo.toml -- --compare A.json B.json
//! ```
//!
//! Without `--trace` it runs the end-to-end pass (tracing off) and prints
//! every end-to-end metric; with `--trace` it runs the traced pass and
//! prints every per-layer metric. Each line is `workload metric value
//! unit`; the last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`.

mod alloc;
mod calib;
mod declared;
mod energy;
mod layers;
mod ledger;
mod spans;
mod stats;
mod workloads;

use calib::Calibrator;
use ledger::{Ledger, Section};
use serde::Value;
use spans::Recorder;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{Scale, Seeds, Stop};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// A run sets the workload up until it has done so `SETUP_REPS` times
/// and spent `SETUP_MIN_S` on it: three times for the 3 s set-ups of the
/// 3-D workloads, some forty times for `serve_mixed`'s 0.05 s. `setup_s`
/// is the fastest (the sandbox's noise only adds time; the median of
/// three moved by 35 % between two ten-seed rounds run back to back) and
/// the last set-up is used.
const SETUP_REPS: usize = 3;
const SETUP_MIN_S: f64 = 2.0;
/// Ops per lane on each side of the traced pass's overhead comparison
/// (one whole op cycle where that is longer, so both sides see the same
/// mix of kinds).
const TRACE_OPS: usize = 20;

const USAGE: &str = "usage: lcpio-benchmark [--workload NAME] [--seed S] [--field-seed F] \
[--seconds W | --window-s W] [--trace [0|1]] [--smoke] [--out FILE]
       lcpio-benchmark --compare A.json B.json
       lcpio-benchmark --emit benchmark-json|readme-tables";

/// What one invocation measures.
struct Options {
    workloads: Vec<&'static str>,
    seeds: Seeds,
    seconds: f64,
    trace: bool,
    scale: Scale,
    smoke: bool,
    out: Option<PathBuf>,
}

enum Command {
    Run(Options),
    Compare(PathBuf, PathBuf),
    Emit(String),
}

fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut o = Options {
        workloads: declared::WORKLOADS.iter().map(|w| w.name).collect(),
        seeds: Seeds {
            field: workloads::DEFAULT_SEED,
            traffic: workloads::DEFAULT_SEED,
        },
        seconds: declared::RUN_SECONDS as f64,
        trace: false,
        scale: Scale::FULL,
        smoke: false,
        out: None,
    };
    let mut seconds_given = false;
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                let decl = declared::WORKLOADS
                    .iter()
                    .find(|w| w.name == name)
                    .ok_or(format!("unknown workload `{name}`"))?;
                o.workloads = vec![decl.name];
            }
            "--seed" | "--field-seed" => {
                let seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("{arg}: {e}"))?;
                if arg == "--seed" {
                    o.seeds.traffic = seed;
                } else {
                    o.seeds.field = seed;
                }
            }
            "--seconds" | "--window-s" => {
                o.seconds = value("seconds")?
                    .parse()
                    .map_err(|e| format!("{arg}: {e}"))?;
                if !(o.seconds > 0.0 && o.seconds.is_finite()) {
                    return Err(format!("{arg} must be positive"));
                }
                seconds_given = true;
            }
            "--out" => o.out = Some(PathBuf::from(value("a file")?)),
            "--smoke" => o.smoke = true,
            "--trace" => {
                // The driver passes `--trace 0|1`; by hand a bare flag.
                o.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--compare" => {
                let a = PathBuf::from(value("two ledgers")?);
                return Ok(Command::Compare(a, PathBuf::from(value("two ledgers")?)));
            }
            "--emit" => return Ok(Command::Emit(value("what to emit")?.clone())),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if o.smoke {
        o.scale = Scale::SMOKE;
        if !seconds_given {
            o.seconds = 1.0;
        }
    }
    Ok(Command::Run(o))
}

/// The benchmark's own directory, relative to the working directory when
/// it lies below it: Unix socket paths are limited to about 100 bytes.
fn bench_dir() -> PathBuf {
    if Path::new("benchmark/Cargo.toml").is_file() {
        return PathBuf::from("benchmark");
    }
    let dir = std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from);
    match std::env::current_dir() {
        Ok(cwd) => dir.strip_prefix(&cwd).map(Path::to_path_buf).unwrap_or(dir),
        Err(_) => dir,
    }
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Machine and build description for the ledger header.
fn environment(malloc_pinned: bool) -> Vec<(String, Value)> {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    // A driver checkout is not a git repository; do not let git search
    // the directories above it.
    let git_commit = Path::new(".git")
        .exists()
        .then(|| command_line("git", &["rev-parse", "HEAD"]))
        .flatten()
        .unwrap_or_else(|| "unknown".to_string());
    vec![
        (
            "available_parallelism".to_string(),
            Value::U64(std::thread::available_parallelism().map_or(0, |p| p.get() as u64)),
        ),
        ("cpu_model".to_string(), Value::Str(cpu_model)),
        (
            "avx2".to_string(),
            Value::Bool(lcpio_sz::kernels::simd_available()),
        ),
        (
            "rustc".to_string(),
            Value::Str(
                command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".to_string()),
            ),
        ),
        ("git_commit".to_string(), Value::Str(git_commit)),
        (
            "storage".to_string(),
            Value::Str("sandbox page cache, not a device".to_string()),
        ),
        (
            "malloc_thresholds_pinned".to_string(),
            Value::Bool(malloc_pinned),
        ),
    ]
}

fn inputs_of(o: &Options) -> Vec<(String, f64)> {
    vec![
        ("seconds".to_string(), o.seconds),
        ("side".to_string(), o.scale.side as f64),
        ("chunk_elements".to_string(), o.scale.chunk_elements as f64),
        ("stream_chunks".to_string(), workloads::STREAM_CHUNKS as f64),
        (
            "request_elements".to_string(),
            o.scale.request_elements as f64,
        ),
        ("warmup_ops".to_string(), workloads::WARMUP_OPS as f64),
    ]
}

/// One workload's set-up, timed; its scratch directory comes with it.
fn timed_set_up(
    name: &str,
    o: &Options,
    out_dir: &Path,
) -> Result<(Box<dyn workloads::Workload>, PathBuf, f64), String> {
    let dir = workloads::scratch_dir(out_dir, name)?;
    let t0 = Instant::now();
    let w = workloads::set_up(name, &o.scale, o.seeds, &dir)?;
    Ok((w, dir, t0.elapsed().as_secs_f64()))
}

fn discard(w: Box<dyn workloads::Workload>, dir: &Path) {
    w.tear_down();
    // Best effort: a leftover scratch directory is cleared by the next run.
    let _ = std::fs::remove_dir_all(dir);
}

/// The end-to-end pass of one workload: the set-ups, one window with
/// tracing off, the output checks.
fn end_to_end(
    name: &str,
    o: &Options,
    out_dir: &Path,
    calib: &mut Calibrator,
) -> Result<Section, String> {
    let mut setup_s: Vec<f64> = Vec::new();
    let mut current: Option<(Box<dyn workloads::Workload>, PathBuf)> = None;
    // The smoke check only proves that set-up runs.
    while current.is_none()
        || (!o.smoke && (setup_s.len() < SETUP_REPS || setup_s.iter().sum::<f64>() < SETUP_MIN_S))
    {
        if let Some((w, dir)) = current.take() {
            discard(w, &dir);
        }
        let (w, dir, secs) = timed_set_up(name, o, out_dir)?;
        setup_s.push(secs);
        current = Some((w, dir));
    }
    let (mut w, dir) = current.expect("at least one set-up ran");
    let setup_samples = Value::Seq(setup_s.iter().map(|s| Value::F64(*s)).collect());

    let calib_before = calib.measure_ms();
    alloc::reset_peak();
    let lanes = workloads::run_lanes(
        w.as_mut(),
        Stop::Window(Duration::from_secs_f64(o.seconds)),
        &Recorder::off(),
    );
    // Not the harness's own calibration buffer.
    let peak_heap_bytes = alloc::peak_bytes() - calib.heap_bytes();
    let calib_after = calib.measure_ms();
    let (kinds, cycle) = (w.kinds(), w.cycle_len());
    let check_failures = w.check();
    discard(w, &dir);

    let s = workloads::summarize(&lanes, kinds, cycle, o.scale.min_beyond)
        .map_err(|e| format!("{name}: {e}"))?;
    for f in &check_failures {
        eprintln!("{name}: check failed: {f}");
    }
    let drift = calib::drift_pct(calib_before, calib_after);
    let metric = |n: &str, v: f64| {
        let decl = declared::END_TO_END
            .iter()
            .find(|m| m.name == n)
            .expect("declared metric");
        (n.to_string(), v, decl.unit.to_string())
    };
    let kinds = s.kinds.iter().map(|k| {
        Value::Map(vec![
            ("name".to_string(), Value::Str(k.name.to_string())),
            ("ops".to_string(), Value::U64(k.ops as u64)),
            ("min_ms".to_string(), Value::F64(k.min_ms)),
            ("p50_ms".to_string(), Value::F64(k.p50_ms)),
        ])
    });
    // The window's own statistics: what the issue defines, printed and
    // compared but not declared (see `workloads`). A window under 100 ops
    // (the smoke run) has no 90th percentile.
    let mut info = vec![
        (
            "window_throughput_mbps".to_string(),
            s.window_throughput_mbps,
            "MB/s".to_string(),
        ),
        (
            "window_p50_ms".to_string(),
            s.window_p50_ms,
            "ms".to_string(),
        ),
    ];
    info.extend(
        s.window_p90_ms
            .map(|v| ("window_p90_ms".to_string(), v, "ms".to_string())),
    );
    Ok(Section {
        name: name.to_string(),
        noisy: drift.abs() > calib::NOISY_DRIFT_PCT,
        ops: s.ops as u64,
        // A failed post-window check spoils the window as one more op.
        failed_ops: (s.failed + check_failures.len()) as u64,
        metrics: vec![
            metric("throughput_mbps", s.throughput_mbps),
            metric("op_p50_ms", s.op_p50_ms),
            metric("op_p90_ms", s.op_p90_ms),
            metric("stored_ratio", s.stored_ratio),
            metric("modeled_j_per_gb", s.modeled_j_per_gb),
            metric("peak_heap_mb", peak_heap_bytes as f64 / 1e6),
            metric("setup_s", stats::min(setup_s.iter().copied())),
        ],
        info,
        extra: vec![
            ("wall_s".to_string(), Value::F64(s.wall_s)),
            ("position_repeats".to_string(), Value::U64(s.repeats as u64)),
            ("under_100_ops".to_string(), Value::Bool(s.ops < 100)),
            ("setup_s_samples".to_string(), setup_samples),
            ("calib_before_ms".to_string(), Value::F64(calib_before)),
            ("calib_after_ms".to_string(), Value::F64(calib_after)),
            ("calib_drift_pct".to_string(), Value::F64(drift)),
            ("kinds".to_string(), Value::Seq(kinds.collect())),
            (
                "check_failures".to_string(),
                Value::Seq(check_failures.into_iter().map(Value::Str).collect()),
            ),
        ],
    })
}

/// What the traced ops of one workload showed.
struct Traced {
    ops: u64,
    failed_ops: u64,
    overhead_pct: f64,
    detail: Value,
}

/// The traced ops of one workload: 20 untraced then 20 traced ops per
/// lane in one process; the span file; the median over the ops of how
/// much longer the traced op took than the untraced op at the same place
/// of the sequence.
fn traced_ops(name: &str, o: &Options, out_dir: &Path) -> Result<Traced, String> {
    let (mut w, dir, _) = timed_set_up(name, o, out_dir)?;
    // One whole op cycle where that is longer, so that both sides see
    // the same mix of kinds.
    let ops = Stop::Ops(TRACE_OPS.max(w.cycle_len()));
    let untraced = workloads::run_lanes(w.as_mut(), ops, &Recorder::off());
    let rec = Recorder::on();
    let traced = workloads::run_lanes(w.as_mut(), ops, &rec);
    let check_failures = w.check();
    discard(w, &dir);
    for f in &check_failures {
        eprintln!("{name}: check failed: {f}");
    }

    let all_spans = rec.spans();
    if let Some(s) = spans::first_escaping(&all_spans) {
        return Err(format!(
            "{name}: span `{}` of op {} is not inside its parent",
            s.name, s.op
        ));
    }
    let file = out_dir.join(format!("trace-{name}.json"));
    let text =
        serde_json::to_string(&spans::to_json(name, &all_spans)).map_err(|e| e.to_string())?;
    std::fs::write(&file, text).map_err(|e| format!("writing {}: {e}", file.display()))?;

    let pairs = untraced.iter().flatten().zip(traced.iter().flatten());
    let mut overheads: Vec<f64> = pairs
        .map(|(u, t)| (t.latency_ms() - u.latency_ms()) / u.latency_ms() * 100.0)
        .collect();
    let overhead_pct = stats::median(&mut overheads);
    let failed = untraced
        .iter()
        .chain(&traced)
        .flatten()
        .filter(|op| !op.ok)
        .count();
    let by_name = spans::self_time_by_name(&all_spans)
        .into_iter()
        .map(|(span, self_ns, count)| {
            Value::Map(vec![
                ("span".to_string(), Value::Str(span.to_string())),
                ("count".to_string(), Value::U64(count as u64)),
                ("self_ms".to_string(), Value::F64(self_ns as f64 / 1e6)),
            ])
        })
        .collect();
    Ok(Traced {
        ops: 2 * overheads.len() as u64,
        failed_ops: (failed + check_failures.len()) as u64,
        overhead_pct,
        detail: Value::Map(vec![
            ("trace_overhead_pct".to_string(), Value::F64(overhead_pct)),
            (
                "span_file".to_string(),
                Value::Str(file.display().to_string()),
            ),
            ("self_time_by_span".to_string(), Value::Seq(by_name)),
        ]),
    })
}

/// The traced pass: traced ops of every selected workload, then every
/// layer probe, between two calibration readings.
fn traced_pass(o: &Options, out_dir: &Path, calib: &mut Calibrator) -> Result<Section, String> {
    let calib_before = calib.measure_ms();
    let mut traced = Vec::new();
    for name in &o.workloads {
        traced.push((*name, traced_ops(name, o, out_dir)?));
    }
    let mut overheads: Vec<f64> = traced.iter().map(|(_, t)| t.overhead_pct).collect();
    let probe_dir = workloads::scratch_dir(out_dir, "layers")?;
    let probed = layers::run_all(&o.scale, o.seeds, o.seconds, &probe_dir);
    let _ = std::fs::remove_dir_all(&probe_dir);
    let (mut values, fewest_reps) = probed?;
    let calib_after = calib.measure_ms();
    let drift = calib::drift_pct(calib_before, calib_after);
    values.push(("bench.calib_ms", calib_before));
    values.push(("bench.calib_drift_pct", drift.abs()));
    values.push(("bench.trace_overhead_pct", stats::median(&mut overheads)));

    // Every declared metric exactly once, in declaration order.
    let mut metrics = Vec::new();
    for decl in declared::PER_LAYER {
        let found: Vec<f64> = values
            .iter()
            .filter(|(n, _)| *n == decl.name)
            .map(|(_, v)| *v)
            .collect();
        match found.as_slice() {
            [v] => metrics.push((decl.name.to_string(), *v, decl.unit.to_string())),
            _ => {
                return Err(format!(
                    "per-layer metric `{}` was measured {} times",
                    decl.name,
                    found.len()
                ))
            }
        }
    }
    if let Some((extra, _)) = values
        .iter()
        .find(|(n, _)| !declared::PER_LAYER.iter().any(|d| d.name == *n))
    {
        return Err(format!(
            "per-layer metric `{extra}` is measured but not declared"
        ));
    }
    Ok(Section {
        name: "per_layer".to_string(),
        noisy: drift.abs() > calib::NOISY_DRIFT_PCT,
        ops: traced.iter().map(|(_, t)| t.ops).sum(),
        failed_ops: traced.iter().map(|(_, t)| t.failed_ops).sum(),
        metrics,
        info: Vec::new(),
        extra: vec![
            ("calib_before_ms".to_string(), Value::F64(calib_before)),
            ("calib_after_ms".to_string(), Value::F64(calib_after)),
            (
                "fewest_probe_reps".to_string(),
                Value::U64(fewest_reps as u64),
            ),
            (
                "traced".to_string(),
                Value::Map(
                    traced
                        .into_iter()
                        .map(|(n, t)| (n.to_string(), t.detail))
                        .collect(),
                ),
            ),
        ],
    })
}

/// Print `section metric value unit` lines, the op accounting, and build
/// the result line's metric map (keys carry the workload when several
/// ran).
fn report(sections: &[Section]) -> Value {
    let mut metrics = Vec::new();
    for s in sections {
        for (name, value, unit) in &s.metrics {
            println!("{} {name} {value} {unit}", s.name);
            let key = if sections.len() == 1 {
                name.clone()
            } else {
                format!("{}.{name}", s.name)
            };
            metrics.push((key, ledger::metric_value(*value, unit)));
        }
        for (name, value, unit) in &s.info {
            println!("{} {name} {value} {unit}", s.name);
        }
        println!("{} ops {} count", s.name, s.ops);
        println!("{} failed_ops {} count", s.name, s.failed_ops);
        println!("{} failed_ops_pct {} %", s.name, s.failed_ops_pct());
        if s.noisy {
            println!(
                "{} noisy true (calibration drifted by more than {} %)",
                s.name,
                calib::NOISY_DRIFT_PCT
            );
        }
    }
    let attempted: u64 = sections.iter().map(|s| s.ops).sum();
    let failed: u64 = sections.iter().map(|s| s.failed_ops).sum();
    Value::Map(vec![
        ("correct".to_string(), Value::Bool(failed == 0)),
        ("attempted".to_string(), Value::U64(attempted)),
        ("failed".to_string(), Value::U64(failed)),
        ("metrics".to_string(), Value::Map(metrics)),
    ])
}

/// The `--smoke` schema check: what this pass printed against what the
/// root `BENCHMARK.json` declares, in both directions, plus the
/// contract's limits on names and counts.
fn smoke_check(o: &Options, sections: &[Section]) -> Vec<String> {
    let path = bench_dir().join("../BENCHMARK.json");
    let declared = std::fs::read_to_string(&path)
        .map_err(|e| format!("reading {}: {e}", path.display()))
        .and_then(|text| serde_json::parse(&text).map_err(|e| format!("{}: {e}", path.display())));
    let declared = match declared {
        Ok(v) => v,
        Err(e) => return vec![e],
    };
    let names_in = |key: &str| -> Vec<String> {
        let list = declared
            .as_map()
            .and_then(|m| m.iter().find(|(k, _)| k == key))
            .and_then(|(_, v)| v.as_seq());
        list.unwrap_or(&[])
            .iter()
            .filter_map(
                |entry| match entry.as_map()?.iter().find(|(k, _)| k == "name")? {
                    (_, Value::Str(name)) => Some(name.clone()),
                    _ => None,
                },
            )
            .collect()
    };
    let (workloads, end_to_end, per_layer) = (
        names_in("workloads"),
        names_in("end_to_end"),
        names_in("per_layer"),
    );
    let mut problems = Vec::new();
    for (what, names, limit) in [
        ("workloads", &workloads, 8),
        ("end_to_end", &end_to_end, 16),
        ("per_layer", &per_layer, 128),
    ] {
        if names.is_empty() || names.len() > limit {
            problems.push(format!(
                "BENCHMARK.json lists {} {what}; 1 to {limit} are allowed",
                names.len()
            ));
        }
        for n in names {
            if !declared::well_formed_name(n) {
                problems.push(format!(
                    "`{n}` in {what} is not made of letters, digits, `_`, `.` and `-`"
                ));
            }
        }
    }
    let mut both_ways = |what: &str, printed: Vec<&str>, declared: &[String]| {
        for p in &printed {
            if !declared.iter().any(|d| d == p) {
                problems.push(format!(
                    "{what} `{p}` is printed but not declared in BENCHMARK.json"
                ));
            }
        }
        for d in declared {
            if !printed.contains(&d.as_str()) {
                problems.push(format!(
                    "{what} `{d}` is declared in BENCHMARK.json but not printed"
                ));
            }
        }
    };
    fn metrics_of(s: &Section) -> Vec<&str> {
        s.metrics.iter().map(|(n, _, _)| n.as_str()).collect()
    }
    if o.trace {
        both_ways("per-layer metric", metrics_of(&sections[0]), &per_layer);
    } else {
        both_ways(
            "workload",
            sections.iter().map(|s| s.name.as_str()).collect(),
            &workloads,
        );
        for s in sections {
            both_ways("end-to-end metric", metrics_of(s), &end_to_end);
        }
    }
    problems
}

fn run(o: &Options) -> Result<bool, String> {
    let malloc_pinned = alloc::pin_malloc_thresholds();
    let out_dir = bench_dir().join("out");
    std::fs::create_dir_all(&out_dir)
        .map_err(|e| format!("creating {}: {e}", out_dir.display()))?;
    let mut calib = Calibrator::new();
    let (pass, default_out, sections) = if o.trace {
        (
            "per_layer",
            "ledger.layers.json",
            vec![traced_pass(o, &out_dir, &mut calib)?],
        )
    } else {
        let mut sections = Vec::new();
        for name in &o.workloads {
            sections.push(end_to_end(name, o, &out_dir, &mut calib)?);
        }
        ("end_to_end", "ledger.json", sections)
    };
    let result = report(&sections);
    let mut all_ok = sections.iter().all(|s| s.failed_ops == 0);
    if o.smoke {
        let problems = smoke_check(o, &sections);
        for p in &problems {
            eprintln!("smoke: {p}");
        }
        println!("smoke {} problems", problems.len());
        all_ok &= problems.is_empty();
    }
    let ledger = Ledger {
        pass: pass.to_string(),
        seed: o.seeds.traffic,
        field_seed: o.seeds.field,
        inputs: inputs_of(o),
        env: environment(malloc_pinned),
        sections,
    };
    let out = o.out.clone().unwrap_or_else(|| out_dir.join(default_out));
    let text = serde_json::to_string_pretty(&ledger.to_value()).map_err(|e| e.to_string())?;
    std::fs::write(&out, text + "\n").map_err(|e| format!("writing {}: {e}", out.display()))?;
    println!("ledger {}", out.display());
    println!(
        "{}",
        serde_json::to_string(&result).map_err(|e| e.to_string())?
    );
    Ok(all_ok)
}

fn compare(a: &Path, b: &Path) -> Result<bool, String> {
    let load = |p: &Path| {
        let text =
            std::fs::read_to_string(p).map_err(|e| format!("reading {}: {e}", p.display()))?;
        Ledger::parse(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    let comparison = ledger::compare(&load(a)?, &load(b)?)?;
    print!("{}", comparison.render());
    Ok(!comparison.fails())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match parse_args(&args) {
        Ok(Command::Run(o)) => run(&o),
        Ok(Command::Compare(a, b)) => compare(&a, &b),
        Ok(Command::Emit(what)) => match what.as_str() {
            "benchmark-json" => serde_json::to_string_pretty(&declared::benchmark_json())
                .map(|text| {
                    println!("{text}");
                    true
                })
                .map_err(|e| e.to_string()),
            "readme-tables" => {
                print!("{}", declared::readme_tables());
                Ok(true)
            }
            other => Err(format!("cannot emit `{other}`\n{USAGE}")),
        },
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}
