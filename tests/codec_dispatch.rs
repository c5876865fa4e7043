//! Enforces the codec-abstraction boundary: outside the backend crates and
//! their adapters, nothing may call `sz::compress*` / `zfp::compress*`
//! directly — all compression dispatches through `lcpio_codec::registry()`.
//! Also pins the README's supported-container table to the registry, and
//! keeps `unsafe` confined to the one crate DESIGN §8 names.

use std::fs;
use std::path::{Path, PathBuf};

/// Directories whose sources are *allowed* to name the backends: the
/// backends themselves, the adapter crate, and the vendored shims.
const ALLOWED_DIRS: &[&str] = &["crates/sz", "crates/zfp", "crates/codec", "crates/shims"];

/// Files exempt from the rule, each for a documented reason:
/// - `ablation_sz_predictor.rs` / `ablation_zfp_modes.rs`: ablations that
///   deliberately drive backend-internal knobs the trait does not expose.
/// - this file, which spells the forbidden patterns out in `concat!` pieces
///   but is excluded by name for robustness.
const EXEMPT_FILES: &[&str] = &[
    "ablation_sz_predictor.rs",
    "ablation_zfp_modes.rs",
    "codec_dispatch.rs",
];

fn collect_rs_files(dir: &Path, root: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("readable dir") {
        let entry = entry.expect("dir entry");
        let path = entry.path();
        let rel = path.strip_prefix(root).expect("under root");
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        if path.is_dir() {
            if rel_str == "target" || rel_str.starts_with('.') {
                continue;
            }
            if ALLOWED_DIRS.iter().any(|d| rel_str == *d) {
                continue;
            }
            collect_rs_files(&path, root, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let name = path.file_name().expect("file name").to_string_lossy();
            if EXEMPT_FILES.iter().any(|f| *f == name) {
                continue;
            }
            out.push(path);
        }
    }
}

/// True if `line` contains `needle` at a position not preceded by "de"
/// (so "decompress..." never trips a "compress..." pattern).
fn contains_not_decompress(line: &str, needle: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = line[start..].find(needle) {
        let abs = start + pos;
        if abs < 2 || &line[abs - 2..abs] != "de" {
            return true;
        }
        start = abs + 1;
    }
    false
}

#[test]
fn no_direct_backend_compress_calls_outside_adapters() {
    // Built from pieces so this file can never match its own patterns.
    let direct_calls = [
        concat!("sz:", ":compress"),  // also catches lcpio_sz::compress*
        concat!("zfp:", ":compress"), // also catches lcpio_zfp::compress*
        concat!(":", ":compress_pointwise_rel"),
    ];
    let backend_crates =
        [concat!("lcpio", "_sz"), concat!("lcpio", "_zfp"), "lcpio::sz", "lcpio::zfp"];

    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    collect_rs_files(&root, &root, &mut files);
    assert!(
        files.len() > 20,
        "walker found only {} files — broken exclusion logic?",
        files.len()
    );

    let mut violations = Vec::new();
    for path in &files {
        let src = fs::read_to_string(path).expect("readable source");
        let rel = path.strip_prefix(&root).expect("under root").display();
        for (lineno, line) in src.lines().enumerate() {
            for pat in &direct_calls {
                if contains_not_decompress(line, pat) {
                    violations.push(format!("{rel}:{}: `{}`", lineno + 1, line.trim()));
                }
            }
            // Importing a backend compress function under a bare name would
            // dodge the path patterns above — forbid that too.
            let trimmed = line.trim_start();
            if trimmed.starts_with("use ")
                && backend_crates.iter().any(|c| trimmed.contains(c))
                && contains_not_decompress(trimmed, "compress")
            {
                violations.push(format!("{rel}:{}: `{}`", lineno + 1, line.trim()));
            }
        }
    }
    assert!(
        violations.is_empty(),
        "direct backend compress calls outside crates/{{sz,zfp,codec,shims}} — \
         route these through lcpio_codec::registry():\n{}",
        violations.join("\n")
    );
}

#[test]
fn readme_container_table_matches_registry() {
    let readme = fs::read_to_string(
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("README.md"),
    )
    .expect("README.md");
    let table = lcpio::codec::render_container_table();
    assert!(
        readme.contains(&table),
        "README.md's supported-container table is out of sync with \
         CodecRegistry::list(); paste this verbatim:\n{table}"
    );
}

/// The one crate root allowed to omit `#![forbid(unsafe_code)]`: the AVX2
/// bit transpose in `crates/zfp/src/coder.rs` is the workspace's only
/// `unsafe` (DESIGN §8).
const UNSAFE_CRATE: &str = "crates/zfp/src/lib.rs";

#[test]
fn every_crate_root_but_zfp_forbids_unsafe() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let mut roots = vec![root.join("src/lib.rs")];
    for entry in fs::read_dir(root.join("crates")).expect("crates dir") {
        let lib = entry.expect("dir entry").path().join("src/lib.rs");
        if lib.is_file() {
            roots.push(lib);
        }
    }
    assert!(roots.len() > 10, "walker found only {} crate roots", roots.len());

    let mut missing = Vec::new();
    for lib in &roots {
        let rel = lib.strip_prefix(&root).expect("under root");
        let rel = rel.to_string_lossy().replace('\\', "/");
        let src = fs::read_to_string(lib).expect("readable crate root");
        let forbids = src.lines().any(|l| l.trim() == "#![forbid(unsafe_code)]");
        if rel != UNSAFE_CRATE && !forbids {
            missing.push(rel);
        }
    }
    assert!(
        missing.is_empty(),
        "crate roots without `#![forbid(unsafe_code)]`: {}",
        missing.join(", ")
    );
}
