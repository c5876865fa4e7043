//! Command-line interface logic (the `lcpio-cli` binary is a thin shim
//! over [`parse`] + [`run`] so everything here is unit-testable).
//!
//! Field files use a tiny self-describing container:
//!
//! ```text
//! magic  b"LCPF"
//! u8     element tag (0 = f32, 1 = f64)
//! u8     rank
//! u64×r  dims (LE)
//! ...    raw little-endian element data
//! ```
//!
//! Subcommands:
//!
//! ```text
//! gen        --dataset cesm|hacc|nyx|isabel --scale N --seed S -o field.lcpf
//! compress   --codec sz|zfp --eb 1e-3 [--rel|--pwrel] [--threads N] -i in.lcpf -o out.bin
//! decompress -i out.bin -o restored.lcpf
//! info       -i out.bin
//! codecs
//! quality    -a original.lcpf -b restored.lcpf
//! sweep      [--scale N] [--reps R] [--policy fixed|heuristic|adaptive]
//!            -o sweep.json        (alias: experiment)
//! tables     -i sweep.json
//! tune       -i sweep.json
//! dump       [--gb 512]
//! pipeline   --codec sz|zfp --eb 1e-3 [--threads N] [--queue-depth D]
//!            [--writers W] [--chunk-elems N] [--wire]
//!            [--policy fixed|heuristic|adaptive] -i in.lcpf -o out.lcs
//! restart    [--queue-depth D] [--readers R] [--workers W] [--streamed]
//!            [--policy fixed|heuristic|adaptive] -i in.lcs -o restored.lcpf
//! serve      (--socket PATH | --tcp HOST:PORT) [--workers N] [--queue-depth D]
//!            [--codec sz|zfp] [--eb 1e-3] [--policy fixed|heuristic|adaptive]
//!            [--timeout-ms T] [--drive N [--clients C] [--chunk-elems E]]
//! ```
//!
//! `--policy` selects the per-chunk codec/DVFS policy: `pipeline` plans
//! every chunk through it (non-fixed wire output carries the per-frame
//! codec-tag field), `restart` re-prices the modelled read-back energy
//! under it, `sweep` highlights its records from the policy axis, and
//! `serve` uses it as the default for requests that carry no `POLICY`
//! field. When the flag is absent the kind is `fixed`.
//!
//! `serve` runs the `lcpio-serve` daemon (protocol spec: `PROTOCOL.md`).
//! Without `--drive` it serves until a client sends a `SHUTDOWN` request;
//! with `--drive N` it self-drives N mixed-workload requests through the
//! client driver, prints throughput and latency percentiles, then drains
//! and exits — the form the walkthrough and CI use. `--timeout-ms` guards
//! both directions of a connection: a frame stalled mid-way that long, or
//! a response the client has not taken within it, closes the connection.
//!
//! Codec dispatch goes through [`lcpio_codec::registry`]: `compress`
//! resolves the backend by name, `decompress`/`info` sniff the container
//! magic, and `codecs` prints the registry's supported-container table.
//!
//! A flag the subcommand does not read (a misspelling, or another
//! subcommand's flag) is a usage error naming the flag, never ignored.
//!
//! Every subcommand additionally accepts `--metrics out.json` (anywhere
//! on the line): after the command finishes, the spans and counters
//! collected by `lcpio-trace` during the run are written to the given
//! path as JSON, together with the command name and wall time. The
//! counts `pipeline`, `restart` and `serve` keep themselves (their
//! outcome's, or the server's stats) join the report's counters. With
//! the `trace` feature disabled the file is still written and holds
//! only those counts.

use lcpio_core::characteristics::{
    compression_power_curves, compression_runtime_curves, transit_power_curves,
    transit_runtime_curves,
};
use lcpio_core::datadump::{run_data_dump, DataDumpConfig};
use lcpio_core::experiment::{run_full_sweep, ExperimentConfig, SweepResult};
use lcpio_core::models::{compression_model_table, transit_model_table};
use lcpio_core::pipeline::is_stream_container;
use lcpio_core::report::{render_dump, render_model_table, render_tuning};
use lcpio_core::tuning::{evaluate_rule, TuningRule};
use lcpio_core::PolicyKind;
use lcpio_codec::{registry, render_container_table, BoundSpec, CodecError};
use lcpio_datagen::{metrics, Dataset};
use std::io::Write;
use std::path::{Path, PathBuf};

/// Field-container magic.
pub const FIELD_MAGIC: [u8; 4] = *b"LCPF";

/// CLI errors with user-facing messages.
#[derive(Debug)]
pub enum CliError {
    /// Bad invocation; the string is the usage hint.
    Usage(String),
    /// Filesystem problem.
    Io(std::io::Error),
    /// Codec or pipeline failure.
    Codec(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(m) => write!(f, "usage error: {m}"),
            CliError::Io(e) => write!(f, "io error: {e}"),
            CliError::Codec(m) => write!(f, "codec error: {m}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

/// A parsed command, ready to run.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Generate a synthetic field file.
    Gen {
        /// Which dataset generator to use.
        dataset: Dataset,
        /// Element-count divisor.
        scale: usize,
        /// RNG seed.
        seed: u64,
        /// Destination field file.
        output: PathBuf,
    },
    /// Compress a field file.
    Compress {
        /// "sz" or "zfp".
        codec: String,
        /// Error bound (absolute unless a relative flag is set).
        eb: f64,
        /// Use a value-range-relative bound (SZ only).
        rel: bool,
        /// Use a pointwise-relative bound (SZ only).
        pwrel: bool,
        /// Worker threads for chunked SZ/ZFP (0 or 1 = serial).
        threads: usize,
        /// Input field file.
        input: PathBuf,
        /// Output compressed file.
        output: PathBuf,
    },
    /// Decompress back into a field file (codec auto-detected).
    Decompress {
        /// Compressed input.
        input: PathBuf,
        /// Destination field file.
        output: PathBuf,
    },
    /// Print stream information.
    Info {
        /// File to describe.
        input: PathBuf,
    },
    /// List the registered codecs and their container formats.
    Codecs,
    /// Compare two field files.
    Quality {
        /// Original field.
        a: PathBuf,
        /// Reconstructed field.
        b: PathBuf,
    },
    /// Run the paper sweep and save it as JSON.
    Sweep {
        /// Dataset element-count divisor.
        scale: usize,
        /// Repetitions per measurement point.
        reps: u32,
        /// Policy whose records the summary highlights.
        policy: PolicyKind,
        /// Destination JSON file.
        output: PathBuf,
    },
    /// Print Tables IV/V from a saved sweep.
    Tables {
        /// Saved sweep JSON.
        input: PathBuf,
    },
    /// Print the Eqn-3 tuning evaluation from a saved sweep.
    Tune {
        /// Saved sweep JSON.
        input: PathBuf,
    },
    /// Run the Figure-6 data-dump study.
    Dump {
        /// Uncompressed volume in GB.
        gb: f64,
    },
    /// Stream a field through the overlapped compress→write pipeline.
    Pipeline {
        /// "sz" or "zfp".
        codec: String,
        /// Absolute error bound for every chunk.
        eb: f64,
        /// Compression worker threads (0 = all available cores).
        threads: usize,
        /// Bounded-queue depth between the stages (≥ 1).
        queue_depth: usize,
        /// Writer workers draining the queue (≥ 1).
        writers: usize,
        /// Elements per chunk.
        chunk_elems: usize,
        /// Emit the `LCW1` wire envelope instead of the legacy `LCS1`
        /// header (`--wire`).
        wire: bool,
        /// Per-chunk codec/DVFS policy planning every chunk.
        policy: PolicyKind,
        /// Input field file.
        input: PathBuf,
        /// Output streaming container (`LCS1` legacy or `LCW1` wire).
        output: PathBuf,
    },
    /// Restart: stream an `LCS1`/`LCW1` container back through the
    /// overlapped read→decompress pipeline into a field file.
    Restart {
        /// Bounded prefetch-queue depth between read and decode (≥ 1).
        queue_depth: usize,
        /// Reader workers issuing positioned frame reads (≥ 1).
        readers: usize,
        /// Decode workers draining the prefetch queue (0 = all cores).
        workers: usize,
        /// Decode incrementally from a forward-only read of the file
        /// (`--streamed`) instead of positioned frame reads.
        streamed: bool,
        /// Policy the modelled read-back energy is re-priced under.
        policy: PolicyKind,
        /// Input streaming container (`LCS1` legacy or `LCW1` wire).
        input: PathBuf,
        /// Destination field file.
        output: PathBuf,
    },
    /// Run the compression-service daemon (`lcpio-serve`).
    Serve {
        /// Unix socket path (exactly one of `socket`/`tcp`).
        socket: Option<PathBuf>,
        /// TCP `host:port` address (exactly one of `socket`/`tcp`).
        tcp: Option<String>,
        /// Worker shards (each one thread, one bounded queue and at most
        /// one running job).
        workers: usize,
        /// Bounded queue depth per shard (full ⇒ typed `BUSY`).
        queue_depth: usize,
        /// Default codec for requests that carry no `CODEC` field.
        codec: String,
        /// Default absolute error bound for requests without `BOUND`.
        eb: f64,
        /// Default policy for requests that carry no `POLICY` field.
        policy: PolicyKind,
        /// Milliseconds a connection may stall mid-frame (slow-loris
        /// guard) or take to accept one response before it is closed.
        timeout_ms: u64,
        /// Self-drive this many mixed-workload requests then drain
        /// (0 = serve until a client `SHUTDOWN`).
        drive: usize,
        /// Concurrent driver connections (with `--drive`).
        clients: usize,
        /// Elements per driven request chunk (with `--drive`).
        chunk_elems: usize,
    },
}

/// Top-level usage text.
pub fn usage() -> &'static str {
    "lcpio-cli <gen|compress|decompress|info|codecs|quality|sweep|tables|tune|dump|pipeline|restart|serve> [options]\n\
     (`experiment` is an alias for `sweep`; pipeline/restart/sweep/serve accept \
     --policy fixed|heuristic|adaptive)\n\
     run `lcpio-cli <command>` with missing options to see its requirements"
}

/// The flags of one invocation, in the order given. Reading a flag
/// consumes it, so whatever is left once a subcommand has read every flag
/// it knows is a flag it does not read: [`Flags::finish`] rejects it
/// instead of silently ignoring a typo.
struct Flags(Vec<(String, String)>);

fn parse_flags(args: &[String]) -> Result<Flags, CliError> {
    let mut flags: Vec<(String, String)> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if !a.starts_with('-') {
            return Err(CliError::Usage(format!("unexpected argument `{a}`")));
        }
        let key = a.trim_start_matches('-').to_string();
        // Boolean flags take no value.
        let val = if matches!(key.as_str(), "rel" | "pwrel" | "wire" | "streamed") {
            i += 1;
            "true".to_string()
        } else {
            i += 2;
            args.get(i - 1)
                .ok_or_else(|| CliError::Usage(format!("flag `{a}` needs a value")))?
                .clone()
        };
        // A repeated flag keeps its last value.
        flags.retain(|(k, _)| *k != key);
        flags.push((key, val));
    }
    Ok(Flags(flags))
}

impl Flags {
    /// Consume `key`, returning its value if it was given.
    fn take(&mut self, key: &str) -> Option<String> {
        let i = self.0.iter().position(|(k, _)| k == key)?;
        Some(self.0.remove(i).1)
    }

    /// Consume `key`, falling back to `default`.
    fn or(&mut self, key: &str, default: &str) -> String {
        self.take(key).unwrap_or_else(|| default.to_string())
    }

    /// Consume a required flag under any of its spellings (the first
    /// spelling listed wins when several were given).
    fn req(&mut self, keys: &[&str]) -> Result<String, CliError> {
        keys.iter()
            .filter_map(|k| self.take(k))
            .reduce(|first, _| first)
            .ok_or_else(|| CliError::Usage(format!("missing required flag --{}", keys[0])))
    }

    /// Reject the first flag `cmd` did not read.
    fn finish(self, cmd: &str) -> Result<(), CliError> {
        match self.0.first() {
            Some((key, _)) => {
                let dashes = if key.len() == 1 { "-" } else { "--" };
                Err(CliError::Usage(format!("unknown flag `{dashes}{key}` for `{cmd}`")))
            }
            None => Ok(()),
        }
    }
}

/// Parse `--policy`; absent means `fixed`.
fn parse_policy(m: &mut Flags) -> Result<PolicyKind, CliError> {
    match m.take("policy") {
        None => Ok(PolicyKind::Fixed),
        Some(s) => PolicyKind::parse(&s).ok_or_else(|| {
            CliError::Usage(format!("unknown policy `{s}`; expected fixed|heuristic|adaptive"))
        }),
    }
}

fn parse_dataset(s: &str) -> Result<Dataset, CliError> {
    match s.to_ascii_lowercase().as_str() {
        "cesm" | "cesm-atm" => Ok(Dataset::CesmAtm),
        "hacc" => Ok(Dataset::Hacc),
        "nyx" => Ok(Dataset::Nyx),
        "isabel" => Ok(Dataset::Isabel),
        _ => Err(CliError::Usage(format!("unknown dataset `{s}`"))),
    }
}

fn parse_num<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, CliError> {
    s.parse().map_err(|_| CliError::Usage(format!("cannot parse {what} `{s}`")))
}

/// Parse a flag that must be a finite, strictly positive number
/// (`--eb`, `--gb`): zeros, negatives, `inf` and `nan` are usage errors,
/// not values to hand to the codecs.
fn parse_pos_f64(s: &str, what: &str) -> Result<f64, CliError> {
    let v: f64 = parse_num(s, what)?;
    if !v.is_finite() || v <= 0.0 {
        return Err(CliError::Usage(format!("{what} must be finite and positive, got `{s}`")));
    }
    Ok(v)
}

/// Parse an integer flag that must be at least 1 (`--scale`, `--reps`).
fn parse_nonzero<T>(s: &str, what: &str) -> Result<T, CliError>
where
    T: std::str::FromStr + PartialEq + From<u8>,
{
    let v: T = parse_num(s, what)?;
    if v == T::from(0u8) {
        return Err(CliError::Usage(format!("{what} must be at least 1, got `{s}`")));
    }
    Ok(v)
}

/// Hard ceiling on `--threads` (0 still means "all available cores").
const MAX_THREADS: usize = 4096;

fn parse_threads(s: &str) -> Result<usize, CliError> {
    let v: usize = parse_num(s, "threads")?;
    if v > MAX_THREADS {
        return Err(CliError::Usage(format!("threads must be at most {MAX_THREADS}, got `{s}`")));
    }
    Ok(v)
}

/// A parsed command plus session-level options that apply to every
/// subcommand.
#[derive(Debug, Clone, PartialEq)]
pub struct Invocation {
    /// The subcommand to execute.
    pub command: Command,
    /// Write a JSON metrics report (spans, counters, wall time) to this
    /// path after the command finishes.
    pub metrics: Option<PathBuf>,
}

/// Parse an argument vector (without the program name), extracting
/// session-level flags like `--metrics out.json` that may appear anywhere
/// on the command line.
pub fn parse_invocation(args: &[String]) -> Result<Invocation, CliError> {
    let mut rest = Vec::with_capacity(args.len());
    let mut metrics = None;
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--metrics" {
            let v = args
                .get(i + 1)
                .ok_or_else(|| CliError::Usage("flag `--metrics` needs a value".to_string()))?;
            metrics = Some(PathBuf::from(v));
            i += 2;
        } else {
            rest.push(args[i].clone());
            i += 1;
        }
    }
    Ok(Invocation { command: parse(&rest)?, metrics })
}

/// Parse an argument vector (without the program name). A flag the
/// subcommand does not read is a usage error, not a no-op.
pub fn parse(args: &[String]) -> Result<Command, CliError> {
    let (cmd, rest) = args.split_first().ok_or_else(|| CliError::Usage(usage().to_string()))?;
    let mut m = parse_flags(rest)?;
    let command = match cmd.as_str() {
        "gen" => Command::Gen {
            dataset: parse_dataset(&m.req(&["dataset", "d"])?)?,
            scale: parse_nonzero(&m.or("scale", "4096"), "scale")?,
            seed: parse_num(&m.or("seed", "1"), "seed")?,
            output: PathBuf::from(m.req(&["o", "output"])?),
        },
        "compress" => Command::Compress {
            codec: m.req(&["codec", "c"])?.to_ascii_lowercase(),
            eb: parse_pos_f64(&m.or("eb", "1e-3"), "error bound")?,
            rel: m.take("rel").is_some(),
            pwrel: m.take("pwrel").is_some(),
            threads: parse_threads(&m.or("threads", "0"))?,
            input: PathBuf::from(m.req(&["i", "input"])?),
            output: PathBuf::from(m.req(&["o", "output"])?),
        },
        "decompress" => Command::Decompress {
            input: PathBuf::from(m.req(&["i", "input"])?),
            output: PathBuf::from(m.req(&["o", "output"])?),
        },
        "info" => Command::Info { input: PathBuf::from(m.req(&["i", "input"])?) },
        "codecs" => Command::Codecs,
        "quality" => Command::Quality {
            a: PathBuf::from(m.req(&["a"])?),
            b: PathBuf::from(m.req(&["b"])?),
        },
        "sweep" | "experiment" => Command::Sweep {
            scale: parse_nonzero(&m.or("scale", "256"), "scale")?,
            reps: parse_nonzero(&m.or("reps", "10"), "reps")?,
            policy: parse_policy(&mut m)?,
            output: PathBuf::from(m.req(&["o", "output"])?),
        },
        "tables" => Command::Tables { input: PathBuf::from(m.req(&["i", "input"])?) },
        "tune" => Command::Tune { input: PathBuf::from(m.req(&["i", "input"])?) },
        "dump" => Command::Dump { gb: parse_pos_f64(&m.or("gb", "512"), "gb")? },
        "pipeline" => Command::Pipeline {
            codec: m.req(&["codec", "c"])?.to_ascii_lowercase(),
            eb: parse_pos_f64(&m.or("eb", "1e-3"), "error bound")?,
            threads: parse_threads(&m.or("threads", "0"))?,
            queue_depth: parse_nonzero(&m.or("queue-depth", "4"), "queue-depth")?,
            writers: parse_nonzero(&m.or("writers", "1"), "writers")?,
            chunk_elems: parse_nonzero(&m.or("chunk-elems", "262144"), "chunk-elems")?,
            wire: m.take("wire").is_some(),
            policy: parse_policy(&mut m)?,
            input: PathBuf::from(m.req(&["i", "input"])?),
            output: PathBuf::from(m.req(&["o", "output"])?),
        },
        "restart" => Command::Restart {
            queue_depth: parse_nonzero(&m.or("queue-depth", "4"), "queue-depth")?,
            readers: parse_nonzero(&m.or("readers", "1"), "readers")?,
            workers: parse_threads(&m.or("workers", "0"))?,
            streamed: m.take("streamed").is_some(),
            policy: parse_policy(&mut m)?,
            input: PathBuf::from(m.req(&["i", "input"])?),
            output: PathBuf::from(m.req(&["o", "output"])?),
        },
        "serve" => {
            let socket = m.take("socket").map(PathBuf::from);
            let tcp = m.take("tcp");
            if socket.is_some() == tcp.is_some() {
                return Err(CliError::Usage(
                    "serve needs exactly one of --socket PATH or --tcp HOST:PORT".to_string(),
                ));
            }
            Command::Serve {
                socket,
                tcp,
                workers: parse_nonzero(&m.or("workers", "2"), "workers")?,
                queue_depth: parse_nonzero(&m.or("queue-depth", "8"), "queue-depth")?,
                codec: m.or("codec", "sz").to_ascii_lowercase(),
                eb: parse_pos_f64(&m.or("eb", "1e-3"), "error bound")?,
                policy: parse_policy(&mut m)?,
                timeout_ms: parse_nonzero(&m.or("timeout-ms", "30000"), "timeout-ms")?,
                drive: parse_num(&m.or("drive", "0"), "drive")?,
                clients: parse_nonzero(&m.or("clients", "4"), "clients")?,
                chunk_elems: parse_nonzero(&m.or("chunk-elems", "16384"), "chunk-elems")?,
            }
        }
        other => return Err(CliError::Usage(format!("unknown command `{other}`\n{}", usage()))),
    };
    m.finish(cmd)?;
    Ok(command)
}

/// Write a field container (f32).
pub fn write_field(path: &Path, data: &[f32], dims: &[usize]) -> Result<(), CliError> {
    let mut bytes = Vec::with_capacity(data.len() * 4 + 64);
    bytes.extend_from_slice(&FIELD_MAGIC);
    bytes.push(0); // f32 tag
    bytes.push(dims.len() as u8);
    for &d in dims {
        bytes.extend_from_slice(&(d as u64).to_le_bytes());
    }
    for &v in data {
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    std::fs::write(path, bytes)?;
    Ok(())
}

/// Read a field container (f32).
pub fn read_field(path: &Path) -> Result<(Vec<f32>, Vec<usize>), CliError> {
    let bytes = std::fs::read(path)?;
    if bytes.len() < 6 || bytes[..4] != FIELD_MAGIC {
        return Err(CliError::Codec(format!("{} is not a field file", path.display())));
    }
    if bytes[4] != 0 {
        return Err(CliError::Codec("only f32 field files are supported here".to_string()));
    }
    let rank = bytes[5] as usize;
    if rank == 0 || rank > 4 || bytes.len() < 6 + rank * 8 {
        return Err(CliError::Codec("corrupt field header".to_string()));
    }
    let mut dims = Vec::with_capacity(rank);
    for r in 0..rank {
        let off = 6 + r * 8;
        dims.push(u64::from_le_bytes(bytes[off..off + 8].try_into().expect("8 bytes")) as usize);
    }
    // A forged header must not be allowed to overflow the expected-length
    // arithmetic (wrapping could make a bogus size "match" in release
    // builds, and the multiplications panic in debug builds).
    let n = dims
        .iter()
        .try_fold(1usize, |acc, &d| acc.checked_mul(d))
        .ok_or_else(|| CliError::Codec("field dims overflow".to_string()))?;
    let data_off = 6 + rank * 8;
    let expected = n
        .checked_mul(4)
        .and_then(|b| b.checked_add(data_off))
        .ok_or_else(|| CliError::Codec("field dims overflow".to_string()))?;
    if bytes.len() != expected {
        return Err(CliError::Codec("field payload length mismatch".to_string()));
    }
    let data: Vec<f32> = bytes[data_off..]
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect();
    Ok((data, dims))
}

/// The subcommand's name, as typed on the command line.
fn command_name(cmd: &Command) -> &'static str {
    match cmd {
        Command::Gen { .. } => "gen",
        Command::Compress { .. } => "compress",
        Command::Decompress { .. } => "decompress",
        Command::Info { .. } => "info",
        Command::Codecs => "codecs",
        Command::Quality { .. } => "quality",
        Command::Sweep { .. } => "sweep",
        Command::Tables { .. } => "tables",
        Command::Tune { .. } => "tune",
        Command::Dump { .. } => "dump",
        Command::Pipeline { .. } => "pipeline",
        Command::Restart { .. } => "restart",
        Command::Serve { .. } => "serve",
    }
}

/// Execute an invocation: run the command, then — when `--metrics` was
/// given — write the trace report collected during the run, with the
/// command's own counts merged into its counters, as JSON.
///
/// The report is written even when the command itself fails (the spans
/// and counters up to the failure are often exactly what's needed to
/// debug it), but a command error takes precedence over a report-write
/// error.
pub fn run_invocation(inv: Invocation, out: &mut dyn Write) -> Result<(), CliError> {
    let name = command_name(&inv.command);
    lcpio_trace::reset();
    let start = std::time::Instant::now();
    let result = run(inv.command, out);
    if let Some(path) = &inv.metrics {
        let mut report = lcpio_trace::snapshot();
        let counts = result.as_deref().unwrap_or_default();
        report.counters.extend(counts.iter().map(|&(name, n)| (name.to_string(), n)));
        let json = format!(
            "{{\n\"command\": \"{}\",\n\"wall_s\": {:.6},\n\"trace_enabled\": {},\n\"report\": {}\n}}\n",
            name,
            start.elapsed().as_secs_f64(),
            lcpio_trace::collecting(),
            report.to_json()
        );
        let write_result = std::fs::write(path, json);
        result?;
        write_result?;
        return Ok(());
    }
    result.map(drop)
}

/// Execute a command, writing human-readable output to `out`. Returns the
/// counts the command keeps itself, for `--metrics`: the outcome's for
/// `pipeline` and `restart`, the server's for `serve`, none otherwise.
pub fn run(cmd: Command, out: &mut dyn Write) -> Result<Vec<(&'static str, u64)>, CliError> {
    let mut counts = Vec::new();
    match cmd {
        Command::Gen { dataset, scale, seed, output } => {
            let field = dataset.generate(scale, seed);
            let dims: Vec<usize> = field.dims().extents().to_vec();
            write_field(&output, &field.data, &dims)?;
            writeln!(
                out,
                "wrote {} ({} elements, dims {}) to {}",
                dataset.name(),
                field.data.len(),
                field.dims(),
                output.display()
            )?;
        }
        Command::Compress { codec, eb, rel, pwrel, threads, input, output } => {
            let (data, dims) = read_field(&input)?;
            let backend = registry().by_name(&codec).ok_or_else(|| {
                CliError::Usage(format!(
                    "unknown codec `{codec}`; registered codecs: {}",
                    registry().names().join(", ")
                ))
            })?;
            if rel && pwrel {
                return Err(CliError::Usage(
                    "--rel and --pwrel are mutually exclusive".to_string(),
                ));
            }
            let bound = if pwrel {
                BoundSpec::PointwiseRelative(eb)
            } else if rel {
                BoundSpec::ValueRangeRelative(eb)
            } else {
                BoundSpec::Absolute(eb)
            };
            let encoded = if threads > 1 {
                backend.compress_chunked(&data, &dims, bound, threads)
            } else {
                backend.compress(&data, &dims, bound)
            }
            .map_err(codec_error)?;
            let ratio = encoded.stats.ratio();
            std::fs::write(&output, &encoded.bytes)?;
            writeln!(
                out,
                "compressed {} -> {} ({:.2}x) with {codec}",
                input.display(),
                output.display(),
                ratio
            )?;
        }
        Command::Decompress { input, output } => {
            let bytes = std::fs::read(&input)?;
            let (data, dims) = decode_any(&bytes)?;
            write_field(&output, &data, &dims)?;
            writeln!(
                out,
                "decompressed {} -> {} ({} elements)",
                input.display(),
                output.display(),
                data.len()
            )?;
        }
        Command::Info { input } => {
            let bytes = std::fs::read(&input)?;
            writeln!(out, "{}", describe(&bytes))?;
        }
        Command::Codecs => {
            writeln!(out, "registered codecs: {}\n", registry().names().join(", "))?;
            write!(out, "{}", render_container_table())?;
        }
        Command::Quality { a, b } => {
            let (da, _) = read_field(&a)?;
            let (db, _) = read_field(&b)?;
            let m = metrics::quality(&da, &db)
                .ok_or_else(|| CliError::Codec("fields are not comparable".to_string()))?;
            writeln!(
                out,
                "max abs err {:.3e}  rmse {:.3e}  nrmse {:.3e}  psnr {:.2} dB  corr {:.6}",
                m.max_abs_error, m.rmse, m.nrmse, m.psnr_db, m.correlation
            )?;
        }
        Command::Sweep { scale, reps, policy, output } => {
            let mut cfg = ExperimentConfig::paper();
            cfg.scale = scale;
            cfg.reps = reps;
            let sweep = run_full_sweep(&cfg);
            std::fs::write(&output, sweep.to_json())?;
            writeln!(
                out,
                "swept {} compression, {} transit and {} policy records into {}",
                sweep.compression.len(),
                sweep.transit.len(),
                sweep.policy.len(),
                output.display()
            )?;
            // Highlight the requested policy's best arm per chip from the
            // adaptive axis.
            let focus: Vec<_> =
                sweep.policy.iter().filter(|r| r.policy == policy.name()).collect();
            let mut seen = Vec::new();
            for r in &focus {
                let chip = r.chip.name();
                if seen.contains(&chip) {
                    continue;
                }
                seen.push(chip);
                let best = focus
                    .iter()
                    .filter(|x| x.chip == r.chip)
                    .min_by(|a, b| a.energy_j.total_cmp(&b.energy_j))
                    .expect("non-empty by construction");
                writeln!(
                    out,
                    "  {chip}: best {} arm `{}` — {:.3} J, {:.2}x, planned in {:.4} s",
                    policy.name(),
                    best.label,
                    best.energy_j,
                    best.ratio(),
                    best.plan_s
                )?;
            }
        }
        Command::Tables { input } => {
            let sweep = load_sweep(&input)?;
            let t4 = compression_model_table(&sweep.compression);
            let t5 = transit_model_table(&sweep.transit);
            writeln!(out, "{}", render_model_table("TABLE IV — compression power models", &t4))?;
            writeln!(out, "{}", render_model_table("TABLE V — data-transit power models", &t5))?;
        }
        Command::Tune { input } => {
            let sweep = load_sweep(&input)?;
            let report = evaluate_rule(
                TuningRule::PAPER,
                &compression_power_curves(&sweep.compression),
                &compression_runtime_curves(&sweep.compression),
                &transit_power_curves(&sweep.transit),
                &transit_runtime_curves(&sweep.transit),
            );
            writeln!(out, "{}", render_tuning(&report))?;
        }
        Command::Dump { gb } => {
            let cfg = DataDumpConfig { total_bytes: gb * 1e9, ..DataDumpConfig::paper() };
            let (rows, summary) =
                run_data_dump(&cfg).map_err(|e| CliError::Codec(e.to_string()))?;
            writeln!(out, "{}", render_dump(&format!("{gb:.0} GB data dump:"), &rows))?;
            writeln!(
                out,
                "mean savings: {:.1} kJ ({:.1}%)",
                summary.mean_saved_j / 1e3,
                summary.mean_savings * 100.0
            )?;
        }
        Command::Pipeline {
            codec,
            eb,
            threads,
            queue_depth,
            writers,
            chunk_elems,
            wire,
            policy,
            input,
            output,
        } => {
            let (data, _dims) = read_field(&input)?;
            let compressor = match codec.as_str() {
                "sz" => lcpio_core::Compressor::Sz,
                "zfp" => lcpio_core::Compressor::Zfp,
                other => {
                    return Err(CliError::Usage(format!(
                        "unknown codec `{other}`; registered codecs: {}",
                        registry().names().join(", ")
                    )))
                }
            };
            let cfg = lcpio_core::pipeline::PipelineConfig {
                compressor,
                bound: BoundSpec::Absolute(eb),
                chunk_elements: chunk_elems,
                queue_depth,
                writers,
                compress_threads: threads,
                wire_format: wire,
                policy,
                ..lcpio_core::pipeline::PipelineConfig::default()
            };
            // The sink writes to `<output>.part` and renames only on
            // success, so a failed run never leaves a partial container.
            let sink = lcpio_core::pipeline::FileSink::create(&output)?;
            let outcome = stream_pipeline(&data, &cfg, sink)?;
            writeln!(
                out,
                "streamed {} -> {} with {codec}: {} chunks, {:.2}x, \
                 {} write retries, {} raw fallbacks, {:.3} s",
                input.display(),
                output.display(),
                outcome.chunks,
                outcome.ratio(),
                outcome.write_retries,
                outcome.raw_fallbacks,
                outcome.wall_s
            )?;
            counts = vec![
                ("pipeline.chunks", outcome.chunks as u64),
                ("pipeline.write_retries", outcome.write_retries),
                ("pipeline.raw_fallbacks", outcome.raw_fallbacks as u64),
            ];
            if policy != PolicyKind::Fixed {
                let [raw, sz, zfp] = outcome.codec_chunks;
                writeln!(
                    out,
                    "policy {}: planned {} chunks in {:.4} s (sz {sz}, zfp {zfp}, raw {raw})",
                    policy.name(),
                    outcome.chunks,
                    outcome.plan_s
                )?;
            }
        }
        Command::Restart { queue_depth, readers, workers, streamed, policy, input, output } => {
            let cfg = lcpio_core::pipeline::RestartConfig {
                queue_depth,
                readers,
                workers,
                ..lcpio_core::pipeline::RestartConfig::default()
            };
            let (data, outcome) = if streamed {
                let mut file = std::fs::File::open(&input)
                    .map_err(|e| CliError::Codec(format!("{}: {e}", input.display())))?;
                lcpio_core::pipeline::run_restart_streamed(&mut file, &cfg)
                    .map_err(|e| CliError::Codec(e.to_string()))?
            } else {
                let source = lcpio_core::pipeline::FileSource::open(&input)
                    .map_err(|e| CliError::Codec(format!("{}: {e}", input.display())))?;
                lcpio_core::pipeline::run_restart(&source, &cfg)
                    .map_err(|e| CliError::Codec(e.to_string()))?
            };
            let n = data.len();
            write_field(&output, &data, &[n])?;
            writeln!(
                out,
                "restarted {} -> {}: {} chunks, {} elements, {:.2}x, \
                 {} read retries, {} decode retries, {:.3} s",
                input.display(),
                output.display(),
                outcome.chunks,
                outcome.elements,
                outcome.ratio(),
                outcome.read_retries,
                outcome.decode_retries,
                outcome.wall_s
            )?;
            counts = vec![
                ("restart.chunks", outcome.chunks as u64),
                ("restart.read_retries", outcome.read_retries),
                ("restart.decode_retries", outcome.decode_retries),
            ];
            if streamed {
                writeln!(
                    out,
                    "streamed decode peak buffering: {} bytes",
                    outcome.peak_buffered_bytes
                )?;
            }
            if policy != PolicyKind::Fixed {
                // Re-price the read-back energy of a volume this size
                // under the chosen policy: the decode phase runs the
                // planned codec at the plan's DVFS frequency.
                let rb_cfg = lcpio_core::readback::ReadbackConfig {
                    total_bytes: (outcome.elements.max(1) * 4) as f64,
                    policy,
                    ..lcpio_core::readback::ReadbackConfig::quick()
                };
                let rb = lcpio_core::readback::run_readback(&rb_cfg)
                    .map_err(|e| CliError::Codec(e.to_string()))?;
                writeln!(
                    out,
                    "modelled read-back energy under `{}` policy: \
                     {:.3} J decode + {:.3} J fetch ({:.2}x overlap speedup; \
                     fixed-tuned decode {:.3} J)",
                    policy.name(),
                    rb.policy_overlap.cpu_j,
                    rb.policy_overlap.io_j,
                    rb.policy_overlap.speedup(),
                    rb.tuned_overlap.cpu_j
                )?;
            }
        }
        Command::Serve {
            socket,
            tcp,
            workers,
            queue_depth,
            codec,
            eb,
            policy,
            timeout_ms,
            drive,
            clients,
            chunk_elems,
        } => {
            let default_codec = match codec.as_str() {
                "sz" => lcpio_codec::CodecId::Sz,
                "zfp" => lcpio_codec::CodecId::Zfp,
                other => {
                    return Err(CliError::Usage(format!(
                        "unknown codec `{other}`; serve accepts sz|zfp"
                    )))
                }
            };
            let endpoint = match (&socket, &tcp) {
                (Some(p), None) => lcpio_serve::Endpoint::Unix(p.clone()),
                (None, Some(a)) => lcpio_serve::Endpoint::Tcp(a.clone()),
                _ => unreachable!("parse enforces exactly one of --socket/--tcp"),
            };
            let cfg = lcpio_serve::ServeConfig {
                workers,
                queue_depth,
                read_timeout: std::time::Duration::from_millis(timeout_ms),
                default_codec,
                default_bound: BoundSpec::Absolute(eb),
                default_policy: policy,
                ..lcpio_serve::ServeConfig::default()
            };
            let server = lcpio_serve::Server::bind(&endpoint, cfg)?;
            writeln!(
                out,
                "serving on {} with {workers} worker shard(s), queue depth {queue_depth}, \
                 default codec {codec}, policy {}",
                server.endpoint(),
                policy.name()
            )?;
            if drive > 0 {
                let wl = lcpio_serve::WorkloadConfig {
                    requests: drive,
                    clients,
                    chunk_elements: chunk_elems,
                    codec: default_codec,
                    bound: BoundSpec::Absolute(eb),
                    policy,
                    ..Default::default()
                };
                let report = lcpio_serve::drive(server.endpoint(), &wl)
                    .map_err(|e| CliError::Codec(e.to_string()))?;
                server.shutdown();
                writeln!(
                    out,
                    "drove {} requests ({} ok, {} busy, {} errors) in {:.3} s: \
                     {:.1} req/s, p50 {} us, p99 {} us",
                    report.requests,
                    report.ok,
                    report.busy,
                    report.errors,
                    report.wall_s,
                    report.req_per_s,
                    report.p50_us,
                    report.p99_us
                )?;
            }
            counts = server.wait().counts().to_vec();
            let line: Vec<String> = counts
                .iter()
                .map(|(name, n)| format!("{} {n}", name.trim_start_matches("serve.")))
                .collect();
            writeln!(out, "drained: {}", line.join(", "))?;
        }
    }
    Ok(counts)
}

/// Run the streaming pipeline into a [`lcpio_core::pipeline::FileSink`],
/// committing the container only on success.
fn stream_pipeline(
    data: &[f32],
    cfg: &lcpio_core::pipeline::PipelineConfig,
    mut sink: lcpio_core::pipeline::FileSink,
) -> Result<lcpio_core::pipeline::StreamOutcome, CliError> {
    let outcome = lcpio_core::pipeline::run_streaming(data, cfg, &mut sink)
        .map_err(|e| CliError::Codec(e.to_string()))?;
    sink.commit()?;
    Ok(outcome)
}

fn load_sweep(path: &Path) -> Result<SweepResult, CliError> {
    let json = std::fs::read_to_string(path)?;
    serde_json::from_str(&json).map_err(|e| CliError::Codec(format!("bad sweep file: {e}")))
}

/// Map a codec-layer failure onto the CLI error taxonomy: a bound the
/// backend cannot honor is the user's mistake (usage), everything else is
/// a codec failure.
fn codec_error(e: CodecError) -> CliError {
    match e {
        CodecError::UnsupportedBound { .. } => CliError::Usage(e.to_string()),
        other => CliError::Codec(other.to_string()),
    }
}

/// The registry's known magics, comma-separated, for error messages.
fn known_containers() -> String {
    registry().list().iter().map(|(_, i)| i.magic_str()).collect::<Vec<_>>().join(", ")
}

/// Decode a compressed buffer whose codec is identified by its magic.
///
/// `LCS1` streaming containers (legacy or `LCW1`-wrapped) are decoded by
/// the pipeline module (their frames, in turn, go through the registry);
/// everything else resolves directly through the registry's magic
/// sniffing, which unwraps codec-container `LCW1` envelopes itself.
fn decode_any(bytes: &[u8]) -> Result<(Vec<f32>, Vec<usize>), CliError> {
    if is_stream_container(bytes) {
        let data = lcpio_core::pipeline::decode_stream(bytes)
            .map_err(|e| CliError::Codec(e.to_string()))?;
        let n = data.len();
        return Ok((data, vec![n]));
    }
    registry().decompress_auto(bytes, 0).map_err(|e| match e {
        CodecError::UnknownMagic(m) => {
            let ascii: String =
                m.iter().map(|&b| if b.is_ascii_graphic() { b as char } else { '.' }).collect();
            CliError::Codec(format!(
                "unrecognized stream: first 4 bytes are {m:02x?} (`{ascii}`); \
                 known containers: {}",
                known_containers()
            ))
        }
        CodecError::TooShort => CliError::Codec(format!(
            "stream too short ({} bytes, need at least a 4-byte magic); known containers: {}",
            bytes.len(),
            known_containers()
        )),
        other => CliError::Codec(other.to_string()),
    })
}

/// One-line description of a stream or field file.
fn describe(bytes: &[u8]) -> String {
    if bytes.len() < 4 {
        return "unrecognized (too short)".to_string();
    }
    let kind = if bytes[..4] == FIELD_MAGIC {
        "raw field container"
    } else {
        lcpio_core::pipeline::describe(bytes).unwrap_or("unrecognized")
    };
    format!("{kind}, {} bytes", bytes.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(|w| w.to_string()).collect()
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("lcpio-cli-tests");
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir.join(name)
    }

    #[test]
    fn parse_gen() {
        let c = parse(&argv("gen --dataset nyx --scale 8192 --seed 7 -o out.lcpf")).expect("parse");
        assert_eq!(
            c,
            Command::Gen {
                dataset: Dataset::Nyx,
                scale: 8192,
                seed: 7,
                output: PathBuf::from("out.lcpf")
            }
        );
    }

    #[test]
    fn parse_compress_with_defaults() {
        let c = parse(&argv("compress --codec sz -i a -o b")).expect("parse");
        match c {
            Command::Compress { codec, eb, rel, pwrel, threads, .. } => {
                assert_eq!(codec, "sz");
                assert_eq!(eb, 1e-3);
                assert!(!rel && !pwrel);
                assert_eq!(threads, 0);
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse(&argv("frobnicate")).is_err());
        assert!(parse(&argv("gen --dataset marsupial -o x")).is_err());
        assert!(parse(&argv("gen --dataset nyx")).is_err(), "missing -o");
        assert!(parse(&argv("compress --codec sz --eb nope -i a -o b")).is_err());
        assert!(parse(&[]).is_err());
    }

    /// The usage error a misspelled flag must produce: it names the flag
    /// as typed and the subcommand that does not read it.
    fn assert_unknown_flag(line: &str, flag: &str, cmd: &str) {
        match parse(&argv(line)) {
            Err(CliError::Usage(m)) => {
                assert_eq!(m, format!("unknown flag `{flag}` for `{cmd}`"), "{line}")
            }
            other => panic!("`{line}` must be a usage error, got {other:?}"),
        }
    }

    #[test]
    fn field_commands_reject_flags_they_do_not_read() {
        assert_unknown_flag("gen --dataset nyx --sclae 3 --bogus yes -o x", "--sclae", "gen");
        assert_unknown_flag("compress --codec sz -i a -o b --thread 2", "--thread", "compress");
        assert_unknown_flag("compress --codec sz -i a -o b --wire", "--wire", "compress");
        assert_unknown_flag("decompress -i a -o b --threads 2", "--threads", "decompress");
        assert_unknown_flag("info -i a -v 1", "-v", "info");
        assert_unknown_flag("codecs --all yes", "--all", "codecs");
        assert_unknown_flag("quality -a x -b y -c z", "-c", "quality");
        // Every spelling of a flag the command does read still parses, and
        // a repeated flag keeps its last value.
        assert!(parse(&argv("gen -d nyx --output x")).is_ok());
        let c = parse(&argv("gen --dataset nyx --scale 2 --scale 8 -o x")).expect("parse");
        assert!(matches!(c, Command::Gen { scale: 8, .. }));
    }

    #[test]
    fn model_commands_reject_flags_they_do_not_read() {
        assert_unknown_flag("dump --gb 1 --queue-depht 9", "--queue-depht", "dump");
        assert_unknown_flag("sweep --scale 4096 --rep 1 -o s.json", "--rep", "sweep");
        assert_unknown_flag("experiment --seed 3 -o s.json", "--seed", "experiment");
        assert_unknown_flag("tables -i s.json -o t.txt", "-o", "tables");
        assert_unknown_flag("tune -i s.json --rule paper", "--rule", "tune");
    }

    #[test]
    fn pipeline_commands_reject_flags_they_do_not_read() {
        assert_unknown_flag(
            "pipeline --codec sz -i a -o b --queue-depht 9",
            "--queue-depht",
            "pipeline",
        );
        assert_unknown_flag("pipeline --codec sz -i a -o b --streamed", "--streamed", "pipeline");
        assert_unknown_flag("restart -i a -o b --writers 2", "--writers", "restart");
        assert_unknown_flag("restart -i a -o b --wire", "--wire", "restart");
    }

    #[test]
    fn serve_rejects_flags_it_does_not_read() {
        assert_unknown_flag("serve --socket /tmp/s.sock --worker 4", "--worker", "serve");
        assert_unknown_flag("serve --tcp 127.0.0.1:0 --drive 4 --client 2", "--client", "serve");
    }

    #[test]
    fn parse_serve_defaults_and_endpoint_exclusivity() {
        let c = parse(&argv("serve --socket /tmp/s.sock")).expect("parse");
        match c {
            Command::Serve {
                socket, tcp, workers, queue_depth, codec, eb, drive, clients, chunk_elems, ..
            } => {
                assert_eq!(socket, Some(PathBuf::from("/tmp/s.sock")));
                assert_eq!(tcp, None);
                assert_eq!(workers, 2);
                assert_eq!(queue_depth, 8);
                assert_eq!(codec, "sz");
                assert_eq!(eb, 1e-3);
                assert_eq!(drive, 0);
                assert_eq!(clients, 4);
                assert_eq!(chunk_elems, 16384);
            }
            other => panic!("wrong command {other:?}"),
        }
        // Exactly one endpoint: neither and both are usage errors.
        assert!(parse(&argv("serve")).is_err());
        assert!(parse(&argv("serve --socket a --tcp 127.0.0.1:0")).is_err());
        assert!(parse(&argv("serve --tcp 127.0.0.1:0 --workers 0")).is_err());
    }

    #[test]
    fn run_serve_self_driven() {
        let cmd = parse(&argv(
            "serve --tcp 127.0.0.1:0 --workers 2 --drive 10 --clients 2 --chunk-elems 2048",
        ))
        .expect("parse");
        let mut out = Vec::new();
        run(cmd, &mut out).expect("run");
        let transcript = String::from_utf8(out).expect("utf8");
        assert!(transcript.contains("serving on tcp:127.0.0.1:"), "{transcript}");
        assert!(transcript.contains("req/s"), "{transcript}");
        assert!(transcript.contains("p99"), "{transcript}");
        assert!(transcript.contains("10 requests (10 ok, 0 busy, 0 errors)"), "{transcript}");
        // One counts line, named as `--metrics` names them.
        assert_eq!(transcript.matches("drained: ").count(), 1, "{transcript}");
        assert!(transcript.contains(", requests 10, "), "{transcript}");
        assert!(transcript.contains(", busy_rejected 0, errors 0, "), "{transcript}");
    }

    #[test]
    fn field_file_roundtrip() {
        let path = tmp("roundtrip.lcpf");
        let data: Vec<f32> = (0..60).map(|i| i as f32 * 0.5).collect();
        write_field(&path, &data, &[3, 4, 5]).expect("write");
        let (back, dims) = read_field(&path).expect("read");
        assert_eq!(back, data);
        assert_eq!(dims, vec![3, 4, 5]);
    }

    #[test]
    fn read_field_rejects_corruption() {
        let path = tmp("corrupt.lcpf");
        std::fs::write(&path, b"not a field").expect("write");
        assert!(read_field(&path).is_err());
    }

    #[test]
    fn read_field_rejects_forged_oversized_dims() {
        // A header whose dims multiply past usize::MAX (or whose byte count
        // does) must be rejected with an error — not a debug-build panic or
        // a release-build wraparound that could "match" the payload length.
        for dims in [
            vec![u64::MAX, u64::MAX],
            vec![u64::MAX / 2, 3],
            vec![(usize::MAX / 4) as u64 + 1], // n*4 overflows, n itself fits
        ] {
            let path = tmp("forged.lcpf");
            let mut bytes = Vec::new();
            bytes.extend_from_slice(&FIELD_MAGIC);
            bytes.push(0); // f32 tag
            bytes.push(dims.len() as u8);
            for &d in &dims {
                bytes.extend_from_slice(&d.to_le_bytes());
            }
            bytes.extend_from_slice(&[0u8; 16]); // token payload
            std::fs::write(&path, bytes).expect("write");
            let err = read_field(&path).expect_err("forged dims must be rejected");
            assert!(
                matches!(err, CliError::Codec(_)),
                "dims {dims:?}: wrong error {err:?}"
            );
        }
    }

    #[test]
    fn parse_rejects_degenerate_numbers() {
        // Zero / negative / non-finite numeric flags are usage errors at
        // parse time, before any work starts.
        for cmd in [
            "compress --codec sz --eb 0 -i a -o b",
            "compress --codec sz --eb -1e-3 -i a -o b",
            "compress --codec sz --eb inf -i a -o b",
            "compress --codec sz --eb nan -i a -o b",
            "compress --codec sz --threads 1000000 -i a -o b",
            "gen --dataset nyx --scale 0 -o x",
            "sweep --scale 0 -o x",
            "sweep --reps 0 -o x",
            "dump --gb 0",
            "dump --gb -512",
            "dump --gb inf",
        ] {
            let err = parse(&argv(cmd)).expect_err(cmd);
            assert!(matches!(err, CliError::Usage(_)), "{cmd}: wrong error {err:?}");
        }
        // The boundary values stay accepted.
        assert!(parse(&argv("compress --codec sz --eb 1e-12 --threads 0 -i a -o b")).is_ok());
        assert!(parse(&argv("gen --dataset nyx --scale 1 -o x")).is_ok());
        assert!(parse(&argv("sweep --reps 1 -o x")).is_ok());
    }

    #[test]
    fn parse_invocation_extracts_metrics_anywhere() {
        let inv = parse_invocation(&argv("--metrics m.json dump --gb 64")).expect("parse");
        assert_eq!(inv.metrics, Some(PathBuf::from("m.json")));
        assert_eq!(inv.command, Command::Dump { gb: 64.0 });
        let inv = parse_invocation(&argv("dump --gb 64 --metrics m.json")).expect("parse");
        assert_eq!(inv.metrics, Some(PathBuf::from("m.json")));
        let inv = parse_invocation(&argv("dump --gb 64")).expect("parse");
        assert_eq!(inv.metrics, None);
        assert!(parse_invocation(&argv("dump --metrics")).is_err());
    }

    #[test]
    fn metrics_report_is_written_as_json() {
        let field = tmp("metrics.lcpf");
        let comp = tmp("metrics.sz");
        let report = tmp("metrics.json");
        let mut out = Vec::new();
        run_invocation(
            parse_invocation(&argv(&format!(
                "gen --dataset nyx --scale 65536 --seed 9 -o {}",
                field.display()
            )))
            .expect("parse"),
            &mut out,
        )
        .expect("gen");
        run_invocation(
            parse_invocation(&argv(&format!(
                "compress --codec sz --eb 1e-2 --threads 2 -i {} -o {} --metrics {}",
                field.display(),
                comp.display(),
                report.display()
            )))
            .expect("parse"),
            &mut out,
        )
        .expect("compress");
        let json = std::fs::read_to_string(&report).expect("metrics file written");
        assert!(json.contains("\"command\": \"compress\""), "{json}");
        assert!(json.contains("\"wall_s\""), "{json}");
        assert!(json.contains("\"spans\""), "{json}");
        assert!(json.contains("\"counters\""), "{json}");
        // Span/counter contents exist only when the trace feature is on
        // (the --no-default-features CI leg writes an empty report).
        if cfg!(feature = "trace") {
            assert!(json.contains("\"trace_enabled\": true"), "{json}");
            assert!(json.contains("sz.predict_quantize"), "{json}");
            assert!(json.contains("sz.chunk.compress"), "{json}");
            assert!(json.contains("\"sz.bytes_in\""), "{json}");
        } else {
            assert!(json.contains("\"trace_enabled\": false"), "{json}");
        }
    }

    #[test]
    fn end_to_end_gen_compress_decompress_quality() {
        let field = tmp("e2e.lcpf");
        let comp = tmp("e2e.sz");
        let back = tmp("e2e-back.lcpf");
        let mut out = Vec::new();
        run(
            parse(&argv(&format!(
                "gen --dataset nyx --scale 65536 --seed 3 -o {}",
                field.display()
            )))
            .expect("parse"),
            &mut out,
        )
        .expect("gen");
        run(
            parse(&argv(&format!(
                "compress --codec sz --eb 1e-2 -i {} -o {}",
                field.display(),
                comp.display()
            )))
            .expect("parse"),
            &mut out,
        )
        .expect("compress");
        run(
            parse(&argv(&format!(
                "decompress -i {} -o {}",
                comp.display(),
                back.display()
            )))
            .expect("parse"),
            &mut out,
        )
        .expect("decompress");
        run(
            parse(&argv(&format!("quality -a {} -b {}", field.display(), back.display())))
                .expect("parse"),
            &mut out,
        )
        .expect("quality");
        let text = String::from_utf8(out).expect("utf8 output");
        assert!(text.contains("compressed"), "{text}");
        assert!(text.contains("max abs err"), "{text}");
        // The reported max error must respect the bound.
        let (orig, _) = read_field(&field).expect("read");
        let (rec, _) = read_field(&back).expect("read");
        let err = orig
            .iter()
            .zip(&rec)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(err <= 1e-2);
    }

    #[test]
    fn zfp_and_pwrel_streams_auto_detect() {
        let field = tmp("auto.lcpf");
        let mut out = Vec::new();
        run(
            parse(&argv(&format!(
                "gen --dataset nyx --scale 65536 --seed 5 -o {}",
                field.display()
            )))
            .expect("parse"),
            &mut out,
        )
        .expect("gen");
        for (codec, extra, name) in [
            ("zfp", "", "auto.zfp"),
            ("zfp", "--threads 3", "auto.zfpp"),
            ("sz", "--threads 3", "auto.szp"),
            ("sz", "--pwrel", "auto.szpr"),
        ] {
            let comp = tmp(name);
            let back = tmp(&format!("{name}.back"));
            run(
                parse(&argv(&format!(
                    "compress --codec {codec} --eb 1e-2 {extra} -i {} -o {}",
                    field.display(),
                    comp.display()
                )))
                .expect("parse"),
                &mut out,
            )
            .expect("compress");
            run(
                parse(&argv(&format!(
                    "decompress -i {} -o {}",
                    comp.display(),
                    back.display()
                )))
                .expect("parse"),
                &mut out,
            )
            .expect("decompress");
            let mut info_out = Vec::new();
            run(
                parse(&argv(&format!("info -i {}", comp.display()))).expect("parse"),
                &mut info_out,
            )
            .expect("info");
            let info_text = String::from_utf8(info_out).expect("utf8");
            assert!(info_text.contains("stream"), "{info_text}");
        }
    }

    #[test]
    fn sweep_tables_tune_pipeline_via_files() {
        let sweep_path = tmp("sweep.json");
        let mut out = Vec::new();
        run(
            parse(&argv(&format!(
                "sweep --scale 16384 --reps 2 -o {}",
                sweep_path.display()
            )))
            .expect("parse"),
            &mut out,
        )
        .expect("sweep");
        run(
            parse(&argv(&format!("tables -i {}", sweep_path.display()))).expect("parse"),
            &mut out,
        )
        .expect("tables");
        run(
            parse(&argv(&format!("tune -i {}", sweep_path.display()))).expect("parse"),
            &mut out,
        )
        .expect("tune");
        let text = String::from_utf8(out).expect("utf8");
        assert!(text.contains("TABLE IV"), "{text}");
        assert!(text.contains("Broadwell"), "{text}");
        assert!(text.contains("Eqn-3"), "{text}");
    }

    #[test]
    fn parse_pipeline_with_defaults_and_knobs() {
        let c = parse(&argv("pipeline --codec sz -i a -o b")).expect("parse");
        match c {
            Command::Pipeline { codec, eb, threads, queue_depth, writers, chunk_elems, wire, .. } => {
                assert_eq!(codec, "sz");
                assert_eq!(eb, 1e-3);
                assert_eq!(threads, 0);
                assert_eq!(queue_depth, 4);
                assert_eq!(writers, 1);
                assert_eq!(chunk_elems, 262144);
                assert!(!wire, "legacy LCS1 output is the default");
            }
            other => panic!("wrong command {other:?}"),
        }
        let c = parse(&argv(
            "pipeline --codec zfp --eb 1e-2 --queue-depth 2 --writers 3 --chunk-elems 4096 \
             --wire -i a -o b",
        ))
        .expect("parse");
        match c {
            Command::Pipeline { codec, queue_depth, writers, chunk_elems, wire, .. } => {
                assert_eq!(codec, "zfp");
                assert_eq!(queue_depth, 2);
                assert_eq!(writers, 3);
                assert_eq!(chunk_elems, 4096);
                assert!(wire, "--wire is a boolean flag");
            }
            other => panic!("wrong command {other:?}"),
        }
        // Degenerate knobs are usage errors at parse time.
        for cmd in [
            "pipeline --codec sz --queue-depth 0 -i a -o b",
            "pipeline --codec sz --writers 0 -i a -o b",
            "pipeline --codec sz --chunk-elems 0 -i a -o b",
            "pipeline --codec sz --eb 0 -i a -o b",
        ] {
            assert!(matches!(parse(&argv(cmd)), Err(CliError::Usage(_))), "{cmd}");
        }
    }

    #[test]
    fn pipeline_end_to_end_stream_info_decompress() {
        let field = tmp("pipe.lcpf");
        let stream = tmp("pipe.lcs");
        let back = tmp("pipe-back.lcpf");
        let mut out = Vec::new();
        run(
            parse(&argv(&format!(
                "gen --dataset nyx --scale 65536 --seed 11 -o {}",
                field.display()
            )))
            .expect("parse"),
            &mut out,
        )
        .expect("gen");
        run(
            parse(&argv(&format!(
                "pipeline --codec sz --eb 1e-2 --queue-depth 2 --chunk-elems 2048 -i {} -o {}",
                field.display(),
                stream.display()
            )))
            .expect("parse"),
            &mut out,
        )
        .expect("pipeline");
        // No `.part` remnant after a successful commit.
        assert!(!Path::new(&format!("{}.part", stream.display())).exists());
        let mut info_out = Vec::new();
        run(parse(&argv(&format!("info -i {}", stream.display()))).expect("parse"), &mut info_out)
            .expect("info");
        let info_text = String::from_utf8(info_out).expect("utf8");
        assert!(info_text.contains("streaming pipeline container"), "{info_text}");
        run(
            parse(&argv(&format!(
                "decompress -i {} -o {}",
                stream.display(),
                back.display()
            )))
            .expect("parse"),
            &mut out,
        )
        .expect("decompress");
        // Error bound holds across the streamed chunks.
        let (orig, _) = read_field(&field).expect("read");
        let (rec, _) = read_field(&back).expect("read");
        assert_eq!(orig.len(), rec.len());
        let err = orig.iter().zip(&rec).map(|(a, b)| (a - b).abs()).fold(0.0f32, f32::max);
        assert!(err <= 1e-2 * 1.001, "max err {err}");
        let text = String::from_utf8(out).expect("utf8");
        assert!(text.contains("streamed"), "{text}");
        assert!(text.contains("chunks"), "{text}");
    }

    #[test]
    fn parse_restart_with_defaults_and_knobs() {
        let c = parse(&argv("restart -i a -o b")).expect("parse");
        assert_eq!(
            c,
            Command::Restart {
                queue_depth: 4,
                readers: 1,
                workers: 0,
                streamed: false,
                policy: PolicyKind::Fixed,
                input: PathBuf::from("a"),
                output: PathBuf::from("b"),
            }
        );
        let c =
            parse(&argv("restart --queue-depth 2 --readers 2 --workers 3 --streamed -i a -o b"))
                .expect("parse");
        match c {
            Command::Restart { queue_depth, readers, workers, streamed, .. } => {
                assert_eq!((queue_depth, readers, workers), (2, 2, 3));
                assert!(streamed, "--streamed is a boolean flag");
            }
            other => panic!("wrong command {other:?}"),
        }
        for cmd in [
            "restart --queue-depth 0 -i a -o b",
            "restart --readers 0 -i a -o b",
            "restart --workers 1000000 -i a -o b",
            "restart -i a",
        ] {
            assert!(matches!(parse(&argv(cmd)), Err(CliError::Usage(_))), "{cmd}");
        }
    }

    #[test]
    fn restart_end_to_end_matches_sequential_decompress() {
        let field = tmp("restart.lcpf");
        let stream = tmp("restart.lcs");
        let seq_back = tmp("restart-seq.lcpf");
        let pipe_back = tmp("restart-pipe.lcpf");
        let pipe_metrics = tmp("restart-pipeline-metrics.json");
        let restart_metrics = tmp("restart-metrics.json");
        let mut out = Vec::new();
        run(
            parse(&argv(&format!(
                "gen --dataset nyx --scale 65536 --seed 13 -o {}",
                field.display()
            )))
            .expect("parse"),
            &mut out,
        )
        .expect("gen");
        run_invocation(
            parse_invocation(&argv(&format!(
                "pipeline --codec sz --eb 1e-2 --chunk-elems 512 -i {} -o {} --metrics {}",
                field.display(),
                stream.display(),
                pipe_metrics.display()
            )))
            .expect("parse"),
            &mut out,
        )
        .expect("pipeline");
        run(
            parse(&argv(&format!(
                "decompress -i {} -o {}",
                stream.display(),
                seq_back.display()
            )))
            .expect("parse"),
            &mut out,
        )
        .expect("decompress");
        run_invocation(
            parse_invocation(&argv(&format!(
                "restart --queue-depth 2 --workers 2 -i {} -o {} --metrics {}",
                stream.display(),
                pipe_back.display(),
                restart_metrics.display()
            )))
            .expect("parse"),
            &mut out,
        )
        .expect("restart");
        // The outcomes' counts reach `--metrics` with tracing on or off.
        let pipe_json = std::fs::read_to_string(&pipe_metrics).expect("pipeline metrics");
        assert!(pipe_json.contains("\"pipeline.chunks\": 5"), "{pipe_json}");
        assert!(pipe_json.contains("\"pipeline.write_retries\": 0"), "{pipe_json}");
        let restart_json = std::fs::read_to_string(&restart_metrics).expect("restart metrics");
        assert!(restart_json.contains("\"restart.chunks\": 5"), "{restart_json}");
        assert!(restart_json.contains("\"restart.read_retries\": 0"), "{restart_json}");
        // The overlapped restart reconstructs bit-identically to the
        // sequential decode of the same stream.
        let (seq, _) = read_field(&seq_back).expect("read");
        let (pipe, _) = read_field(&pipe_back).expect("read");
        assert_eq!(seq.len(), pipe.len());
        for (a, b) in seq.iter().zip(&pipe) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        let text = String::from_utf8(out).expect("utf8");
        assert!(text.contains("restarted"), "{text}");
    }

    #[test]
    fn wire_pipeline_streamed_restart_round_trip() {
        // `--wire` emits an LCW1 envelope; info/decompress/restart (both
        // positioned and `--streamed`) must all accept it and agree with
        // the legacy-format decode of the same data.
        let field = tmp("wire.lcpf");
        let legacy = tmp("wire-legacy.lcs");
        let wired = tmp("wire.lcw");
        let legacy_back = tmp("wire-legacy-back.lcpf");
        let wired_back = tmp("wire-back.lcpf");
        let streamed_back = tmp("wire-streamed-back.lcpf");
        let mut out = Vec::new();
        run(
            parse(&argv(&format!(
                "gen --dataset nyx --scale 65536 --seed 17 -o {}",
                field.display()
            )))
            .expect("parse"),
            &mut out,
        )
        .expect("gen");
        for (flags, path) in [("", &legacy), ("--wire ", &wired)] {
            run(
                parse(&argv(&format!(
                    "pipeline --codec sz --eb 1e-2 --chunk-elems 2048 {flags}-i {} -o {}",
                    field.display(),
                    path.display()
                )))
                .expect("parse"),
                &mut out,
            )
            .expect("pipeline");
        }
        let wired_bytes = std::fs::read(&wired).expect("read wire stream");
        assert_eq!(&wired_bytes[..4], b"LCW1");
        let mut info_out = Vec::new();
        run(parse(&argv(&format!("info -i {}", wired.display()))).expect("parse"), &mut info_out)
            .expect("info");
        let info_text = String::from_utf8(info_out).expect("utf8");
        assert!(info_text.contains("LCW1 wire envelope (LCS1 streaming container)"), "{info_text}");
        run(
            parse(&argv(&format!(
                "decompress -i {} -o {}",
                legacy.display(),
                legacy_back.display()
            )))
            .expect("parse"),
            &mut out,
        )
        .expect("decompress legacy");
        run(
            parse(&argv(&format!(
                "restart --queue-depth 2 --workers 2 -i {} -o {}",
                wired.display(),
                wired_back.display()
            )))
            .expect("parse"),
            &mut out,
        )
        .expect("restart wire");
        run(
            parse(&argv(&format!(
                "restart --streamed --queue-depth 2 --workers 2 -i {} -o {}",
                wired.display(),
                streamed_back.display()
            )))
            .expect("parse"),
            &mut out,
        )
        .expect("streamed restart wire");
        let (legacy_vals, _) = read_field(&legacy_back).expect("read");
        let (wired_vals, _) = read_field(&wired_back).expect("read");
        let (streamed_vals, _) = read_field(&streamed_back).expect("read");
        assert_eq!(legacy_vals.len(), wired_vals.len());
        assert_eq!(legacy_vals.len(), streamed_vals.len());
        for ((a, b), c) in legacy_vals.iter().zip(&wired_vals).zip(&streamed_vals) {
            assert_eq!(a.to_bits(), b.to_bits());
            assert_eq!(a.to_bits(), c.to_bits());
        }
        let text = String::from_utf8(out).expect("utf8");
        assert!(text.contains("peak buffering"), "{text}");
    }

    #[test]
    fn parse_policy_flag_and_experiment_alias() {
        // Explicit --policy wins on all three subcommands.
        match parse(&argv("pipeline --codec sz --policy adaptive -i a -o b")).expect("parse") {
            Command::Pipeline { policy, .. } => assert_eq!(policy, PolicyKind::Adaptive),
            other => panic!("wrong command {other:?}"),
        }
        match parse(&argv("restart --policy heuristic -i a -o b")).expect("parse") {
            Command::Restart { policy, .. } => assert_eq!(policy, PolicyKind::Heuristic),
            other => panic!("wrong command {other:?}"),
        }
        match parse(&argv("sweep --policy fixed -o s.json")).expect("parse") {
            Command::Sweep { policy, .. } => assert_eq!(policy, PolicyKind::Fixed),
            other => panic!("wrong command {other:?}"),
        }
        // `experiment` is an alias for `sweep`.
        assert_eq!(
            parse(&argv("experiment --scale 64 --policy adaptive -o s.json")).expect("parse"),
            parse(&argv("sweep --scale 64 --policy adaptive -o s.json")).expect("parse"),
        );
        // Absent flag means fixed.
        match parse(&argv("pipeline --codec sz -i a -o b")).expect("parse") {
            Command::Pipeline { policy, .. } => assert_eq!(policy, PolicyKind::Fixed),
            other => panic!("wrong command {other:?}"),
        }
        // Garbage is a usage error.
        assert!(matches!(
            parse(&argv("pipeline --codec sz --policy greedy -i a -o b")),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn adaptive_pipeline_restart_round_trip_reports_policy() {
        // An adaptive wire pipeline mixes codecs per chunk; restart must
        // reconstruct it and report the re-priced read-back energy.
        let field = tmp("policy.lcpf");
        let stream = tmp("policy.lcw");
        let back = tmp("policy-back.lcpf");
        let mut out = Vec::new();
        run(
            parse(&argv(&format!(
                "gen --dataset cesm --scale 16384 --seed 19 -o {}",
                field.display()
            )))
            .expect("parse"),
            &mut out,
        )
        .expect("gen");
        run(
            parse(&argv(&format!(
                "pipeline --codec sz --eb 1e-3 --chunk-elems 4096 --wire --policy adaptive \
                 -i {} -o {}",
                field.display(),
                stream.display()
            )))
            .expect("parse"),
            &mut out,
        )
        .expect("pipeline");
        run(
            parse(&argv(&format!(
                "restart --queue-depth 2 --workers 2 --policy adaptive -i {} -o {}",
                stream.display(),
                back.display()
            )))
            .expect("parse"),
            &mut out,
        )
        .expect("restart");
        let text = String::from_utf8(out).expect("utf8");
        assert!(text.contains("policy adaptive: planned"), "{text}");
        assert!(text.contains("modelled read-back energy under `adaptive`"), "{text}");
        // Bound holds through the mixed-codec container.
        let (orig, _) = read_field(&field).expect("read");
        let (rec, _) = read_field(&back).expect("read");
        assert_eq!(orig.len(), rec.len());
        let err = orig.iter().zip(&rec).map(|(a, b)| (a - b).abs()).fold(0.0f32, f32::max);
        assert!(err <= 1e-3 * 1.001, "max err {err}");
    }

    #[test]
    fn describe_recognizes_magics() {
        assert!(describe(b"SZL1xxxx").contains("SZ compressed"));
        assert!(describe(b"SZLPxxxx").contains("SZ chunked"));
        assert!(describe(b"ZFLPxxxx").contains("chunked"));
        assert!(describe(b"LCPFxxxx").contains("field"));
        assert!(describe(b"LCS1xxxx").contains("streaming pipeline"));
        assert!(describe(b"??").contains("unrecognized"));
        assert!(describe(b"NOPExxxx").contains("unrecognized"));
    }

    #[test]
    fn unknown_codec_lists_registered_names() {
        let field = tmp("unknown-codec.lcpf");
        write_field(&field, &[1.0; 16], &[16]).expect("write");
        let cmd = parse(&argv(&format!(
            "compress --codec lz4 --eb 1e-2 -i {} -o /dev/null",
            field.display()
        )))
        .expect("parse");
        let mut out = Vec::new();
        let err = run(cmd, &mut out).expect_err("lz4 is not registered");
        let msg = err.to_string();
        assert!(msg.contains("unknown codec `lz4`"), "{msg}");
        assert!(msg.contains("sz") && msg.contains("zfp"), "{msg}");
    }

    #[test]
    fn decompress_unknown_magic_lists_known_containers() {
        // Satellite: the unknown-magic error must name every registered
        // container and echo the first 4 bytes seen.
        let bogus = tmp("bogus.bin");
        std::fs::write(&bogus, b"NOPE then some payload").expect("write");
        let cmd = parse(&argv(&format!(
            "decompress -i {} -o /dev/null",
            bogus.display()
        )))
        .expect("parse");
        let mut out = Vec::new();
        let msg = run(cmd, &mut out).expect_err("bogus magic").to_string();
        for magic in ["SZL1", "SZLP", "SZPR", "ZFL1", "ZFLP"] {
            assert!(msg.contains(magic), "{msg}");
        }
        assert!(msg.contains("NOPE"), "first 4 bytes missing: {msg}");

        let short = tmp("short.bin");
        std::fs::write(&short, b"SZ").expect("write");
        let cmd = parse(&argv(&format!("decompress -i {} -o /dev/null", short.display())))
            .expect("parse");
        let msg = run(cmd, &mut out).expect_err("short stream").to_string();
        assert!(msg.contains("too short"), "{msg}");
        assert!(msg.contains("SZL1"), "{msg}");
    }

    #[test]
    fn codecs_subcommand_prints_container_table() {
        let cmd = parse(&argv("codecs")).expect("parse");
        assert_eq!(cmd, Command::Codecs);
        let mut out = Vec::new();
        run(cmd, &mut out).expect("codecs");
        let text = String::from_utf8(out).expect("utf8");
        assert!(text.contains("registered codecs: sz, zfp"), "{text}");
        for magic in ["SZL1", "SZLP", "SZPR", "ZFL1", "ZFLP"] {
            assert!(text.contains(magic), "{text}");
        }
    }

    #[test]
    fn rel_and_pwrel_are_mutually_exclusive() {
        let field = tmp("relpwrel.lcpf");
        write_field(&field, &[1.0; 16], &[16]).expect("write");
        let cmd = parse(&argv(&format!(
            "compress --codec sz --eb 1e-2 --rel --pwrel -i {} -o /dev/null",
            field.display()
        )))
        .expect("parse");
        let mut out = Vec::new();
        assert!(matches!(run(cmd, &mut out), Err(CliError::Usage(_))));
    }

    #[test]
    fn zfp_rejects_relative_flags() {
        let field = tmp("zfprel.lcpf");
        write_field(&field, &[1.0; 16], &[16]).expect("write");
        let cmd = parse(&argv(&format!(
            "compress --codec zfp --eb 1e-2 --rel -i {} -o /dev/null",
            field.display()
        )))
        .expect("parse");
        let mut out = Vec::new();
        assert!(run(cmd, &mut out).is_err());
    }
}
