//! Executes the EXPERIMENTS.md walkthrough verbatim.
//!
//! The first fenced ```bash block of the "Walkthrough" section is the
//! repo's front-door demo; this test parses every `lcpio-cli` line out of
//! it and runs each through [`lcpio::cli::parse_invocation`] /
//! [`lcpio::cli::run_invocation`] in a scratch directory, so the
//! documented commands cannot drift from the CLI they describe.
//!
//! This file deliberately contains a single `#[test]`: it changes the
//! process working directory, which would race against sibling tests in
//! the same binary.

use lcpio::cli::{parse_invocation, run_invocation};

/// Pull the `lcpio-cli …` lines out of the first fenced bash block that
/// follows the walkthrough heading.
fn walkthrough_commands(md: &str) -> Vec<String> {
    let section = md
        .split("## Walkthrough")
        .nth(1)
        .expect("EXPERIMENTS.md must keep its Walkthrough section");
    let block = section
        .split("```bash")
        .nth(1)
        .and_then(|rest| rest.split("```").next())
        .expect("the Walkthrough section must keep its fenced bash block");
    block
        .lines()
        .map(str::trim)
        .filter(|l| l.starts_with("lcpio-cli "))
        .map(|l| l.trim_start_matches("lcpio-cli ").to_string())
        .collect()
}

#[test]
fn walkthrough_commands_run_as_documented() {
    let md = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/EXPERIMENTS.md"))
        .expect("read EXPERIMENTS.md");
    let commands = walkthrough_commands(&md);
    assert!(
        commands.len() >= 7,
        "the walkthrough should cover gen → pipeline → decode → restart → sweep → fit → tune \
         → serve, found {} commands",
        commands.len()
    );

    let dir = std::env::temp_dir().join("lcpio-walkthrough-smoke");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    std::env::set_current_dir(&dir).expect("enter scratch dir");

    let mut transcript = String::new();
    for cmd in &commands {
        let args: Vec<String> = cmd.split_whitespace().map(str::to_string).collect();
        let inv = parse_invocation(&args)
            .unwrap_or_else(|e| panic!("documented command `lcpio-cli {cmd}` must parse: {e}"));
        let mut out = Vec::new();
        run_invocation(inv, &mut out)
            .unwrap_or_else(|e| panic!("documented command `lcpio-cli {cmd}` must run: {e}"));
        transcript.push_str(&String::from_utf8_lossy(&out));
    }

    // The walkthrough's artifacts exist and its claims hold.
    for artifact in
        ["nyx.lcpf", "nyx.lcs", "restored.lcpf", "restart.lcpf", "sweep.json", "serve-metrics.json"]
    {
        assert!(dir.join(artifact).exists(), "walkthrough must produce {artifact}");
    }
    assert!(
        transcript.contains("restarted"),
        "`restart` must report the overlapped restore:\n{transcript}"
    );
    assert!(
        transcript.contains("streaming pipeline container"),
        "`info` must identify the LCS1 stream:\n{transcript}"
    );
    assert!(
        transcript.contains("TABLE IV") && transcript.contains("TABLE V"),
        "`tables` must print both model tables"
    );
    assert!(
        transcript.contains("combined"),
        "`tune` must print the combined Eqn-3 savings:\n{transcript}"
    );
    assert!(
        transcript.contains("req/s") && transcript.contains("p99"),
        "`serve --drive` must report throughput and tail latency:\n{transcript}"
    );
    let metrics =
        std::fs::read_to_string(dir.join("serve-metrics.json")).expect("read serve metrics");
    // The server's own counts, with tracing on or off.
    assert!(
        metrics.contains("serve.requests") && metrics.contains("serve.energy_uj"),
        "the serve metrics report must carry the serve.* counters:\n{metrics}"
    );
}
