//! Markdown link check: every intra-repo link in every tracked `*.md`
//! file must point at a path that exists, and every `lcpio-bench` target
//! the current docs cite must be declared in `crates/bench/Cargo.toml`.
//! Dead links and dead target names fail the build (the CI `docs` job runs
//! this test), so the navigation docs — README, ARCHITECTURE, DESIGN,
//! EXPERIMENTS — cannot silently rot as files move.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// All markdown files in the repo, skipping build output and VCS innards.
fn markdown_files(root: &Path) -> Vec<PathBuf> {
    let mut found = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let entries = match std::fs::read_dir(&dir) {
            Ok(e) => e,
            Err(_) => continue,
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if name != "target" && name != ".git" && name != "node_modules" {
                    stack.push(path);
                }
            } else if name.ends_with(".md") {
                found.push(path);
            }
        }
    }
    found.sort();
    found
}

/// Extract `[text](dest)` destinations from one markdown body, skipping
/// fenced code blocks (command examples routinely contain brackets).
fn link_targets(md: &str) -> Vec<String> {
    let mut targets = Vec::new();
    let mut in_fence = false;
    for line in md.lines() {
        if line.trim_start().starts_with("```") {
            in_fence = !in_fence;
            continue;
        }
        if in_fence {
            continue;
        }
        let bytes = line.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            // Find the next "](" pair, then take the balanced-paren-free
            // destination up to the closing ')'.
            if bytes[i] == b']' && i + 1 < bytes.len() && bytes[i + 1] == b'(' {
                if let Some(close) = line[i + 2..].find(')') {
                    targets.push(line[i + 2..i + 2 + close].to_string());
                    i += 2 + close;
                }
            }
            i += 1;
        }
    }
    targets
}

#[test]
fn intra_repo_markdown_links_resolve() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let files = markdown_files(&root);
    assert!(
        files.iter().any(|f| f.ends_with("README.md"))
            && files.iter().any(|f| f.ends_with("ARCHITECTURE.md")),
        "README.md and ARCHITECTURE.md must exist at the repo root"
    );

    let mut dead = Vec::new();
    let mut checked = 0usize;
    for file in &files {
        let body = std::fs::read_to_string(file).expect("read markdown");
        for target in link_targets(&body) {
            // External and in-page links are out of scope.
            if target.starts_with("http://")
                || target.starts_with("https://")
                || target.starts_with("mailto:")
                || target.starts_with('#')
                || target.is_empty()
            {
                continue;
            }
            // Strip any #anchor and treat the rest as a path relative to
            // the linking file.
            let path_part = target.split('#').next().unwrap_or("");
            if path_part.is_empty() {
                continue;
            }
            let resolved = file.parent().expect("md file has a parent").join(path_part);
            checked += 1;
            if !resolved.exists() {
                dead.push(format!(
                    "{} -> {}",
                    file.strip_prefix(&root).unwrap_or(file).display(),
                    target
                ));
            }
        }
    }
    assert!(checked > 10, "expected to find intra-repo links to check, found {checked}");
    assert!(dead.is_empty(), "dead intra-repo markdown links:\n  {}", dead.join("\n  "));
}

/// Docs that describe the tree as it is. CHANGES.md, ROADMAP.md and
/// ISSUE.md are history and may name targets that are gone.
const CURRENT_DOCS: &[&str] = &[
    "README.md",
    "DESIGN.md",
    "ARCHITECTURE.md",
    "EXPERIMENTS.md",
    ".claude/skills/verify/SKILL.md",
];

/// The `name` of every `[[bench]]` table in a manifest.
fn bench_targets(manifest: &str) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    let mut in_bench = false;
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            in_bench = line == "[[bench]]";
        } else if let Some(name) = line.strip_prefix("name = \"").filter(|_| in_bench) {
            names.insert(name.trim_end_matches('"').to_string());
        }
    }
    names
}

/// Bench-target names one markdown body cites: the word after every
/// `--bench`, and every back-ticked word shaped like a target name
/// (`table<N>…`, `fig<N>…`, `eqn3_…`, `ablation_…`, `ext_…`, `criterion_…`),
/// which may end in a `*` glob. Ledger row names are not matched: they
/// share their `sz.` / `serve.` / `pipeline.` prefixes with span, counter
/// and file names.
fn cited_bench_targets(md: &str) -> Vec<String> {
    let name_len = |s: &str| {
        s.find(|c: char| !(c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'))
            .unwrap_or(s.len())
    };
    let target_shaped = |word: &str| {
        let stem = word.strip_suffix('*').unwrap_or(word);
        let numbered = |prefix: &str| {
            stem.strip_prefix(prefix).is_some_and(|r| r.starts_with(|c: char| c.is_ascii_digit()))
        };
        name_len(stem) == stem.len()
            && (numbered("table")
                || numbered("fig")
                || ["eqn3_", "ablation_", "ext_", "criterion_"].iter().any(|p| stem.starts_with(p)))
    };
    let mut cited = Vec::new();
    let mut in_fence = false;
    for line in md.lines() {
        for rest in line.split("--bench ").skip(1) {
            match name_len(rest) {
                0 => {} // a placeholder such as `--bench <target>`
                n => cited.push(rest[..n].to_string()),
            }
        }
        if line.trim_start().starts_with("```") {
            in_fence = !in_fence;
        } else if !in_fence {
            // Odd pieces of a split on back-ticks are the inline code spans.
            cited.extend(
                line.split('`').skip(1).step_by(2).filter(|w| target_shaped(w)).map(String::from),
            );
        }
    }
    cited
}

#[test]
fn cited_bench_targets_exist() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let read = |rel: &str| {
        std::fs::read_to_string(root.join(rel)).unwrap_or_else(|e| panic!("read {rel}: {e}"))
    };
    let targets = bench_targets(&read("crates/bench/Cargo.toml"));
    assert!(targets.contains("fig6_data_dump"), "manifest parse drifted: {targets:?}");

    let mut dead = BTreeSet::new();
    let mut checked = 0usize;
    for doc in CURRENT_DOCS {
        for name in cited_bench_targets(&read(doc)) {
            checked += 1;
            let declared = match name.strip_suffix('*') {
                Some(stem) => targets.iter().any(|t| t.starts_with(stem)),
                None => targets.contains(&name),
            };
            if !declared {
                dead.insert(format!("{doc}: {name}"));
            }
        }
    }
    assert!(checked > 20, "expected bench-target citations to check, found {checked}");
    assert!(
        dead.is_empty(),
        "docs cite bench targets that crates/bench/Cargo.toml does not declare:\n  {}",
        dead.into_iter().collect::<Vec<_>>().join("\n  ")
    );
}
