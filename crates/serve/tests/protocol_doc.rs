//! PROTOCOL.md must match the implementation: every operation, TLV tag,
//! and status code in the spec's tables exists in `protocol.rs` under the
//! same name and number, and vice versa — drift in either direction
//! fails here. The worked-example hexdump is also decoded and checked.

use std::collections::BTreeSet;

use lcpio_serve::protocol::{self, op, reqtag, resptag, status, Op, Request, Response};

fn spec_text() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../PROTOCOL.md");
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

/// Extract `(code, NAME)` pairs from the markdown table rows of the
/// section introduced by `heading` (up to the next `## ` heading). Rows
/// look like `` | `0x01` | OP | ... | `` or `` | `1` | COMPRESS | ... | ``.
fn table_pairs(spec: &str, heading: &str) -> BTreeSet<(u8, String)> {
    let start = spec
        .find(heading)
        .unwrap_or_else(|| panic!("PROTOCOL.md is missing the `{heading}` section"));
    let body = &spec[start + heading.len()..];
    let end = body.find("\n## ").unwrap_or(body.len());
    let mut pairs = BTreeSet::new();
    for line in body[..end].lines() {
        let cells: Vec<&str> = line.split('|').map(str::trim).collect();
        // A data row is `| cell | cell | ... |` → first and last splits empty.
        if cells.len() < 4 || !cells[0].is_empty() {
            continue;
        }
        let code_cell = cells[1].trim_matches('`');
        let code = if let Some(hex) = code_cell.strip_prefix("0x") {
            u8::from_str_radix(hex, 16).ok()
        } else {
            code_cell.parse::<u8>().ok()
        };
        let Some(code) = code else { continue };
        let name = cells[2].trim_matches('`');
        if !name.is_empty() && name.chars().all(|c| c.is_ascii_uppercase() || c == '_') {
            pairs.insert((code, name.to_string()));
        }
    }
    assert!(!pairs.is_empty(), "no parseable rows under `{heading}` — table format drifted?");
    pairs
}

fn code_pairs(all: &[(u8, &str)]) -> BTreeSet<(u8, String)> {
    all.iter().map(|(c, n)| (*c, n.to_string())).collect()
}

#[test]
fn operations_match_spec() {
    let spec = table_pairs(&spec_text(), "## Operations");
    assert_eq!(spec, code_pairs(op::ALL), "spec vs protocol::op::ALL");
}

#[test]
fn request_fields_match_spec() {
    let spec = table_pairs(&spec_text(), "## Request fields");
    assert_eq!(spec, code_pairs(reqtag::ALL), "spec vs protocol::reqtag::ALL");
}

#[test]
fn response_fields_match_spec() {
    let spec = table_pairs(&spec_text(), "## Response fields");
    assert_eq!(spec, code_pairs(resptag::ALL), "spec vs protocol::resptag::ALL");
}

#[test]
fn status_codes_match_spec() {
    let spec = table_pairs(&spec_text(), "## Status codes");
    assert_eq!(spec, code_pairs(status::ALL), "spec vs protocol::status::ALL");
}

/// Pull every ```text fenced hexdump out of the worked-example section.
fn worked_example_frames(spec: &str) -> Vec<Vec<u8>> {
    let start = spec.find("## Worked example").expect("worked example section");
    let body = &spec[start..];
    let end = body[2..].find("\n## ").map(|i| i + 2).unwrap_or(body.len());
    let mut frames = Vec::new();
    let mut rest = &body[..end];
    while let Some(open) = rest.find("```text") {
        let after = &rest[open + 7..];
        let close = after.find("```").expect("unclosed fence in worked example");
        let hex: Vec<u8> = after[..close]
            .split_whitespace()
            .map(|tok| {
                u8::from_str_radix(tok, 16)
                    .unwrap_or_else(|e| panic!("bad hex byte {tok:?} in worked example: {e}"))
            })
            .collect();
        frames.push(hex);
        rest = &after[close + 3..];
    }
    assert_eq!(frames.len(), 2, "expected a request and a response hexdump");
    frames
}

#[test]
fn worked_example_decodes_as_documented() {
    let frames = worked_example_frames(&spec_text());

    let (req, used) = Request::decode(&frames[0]).expect("worked-example request decodes");
    assert_eq!(used, frames[0].len());
    assert_eq!(req.op, Op::Ping);
    assert_eq!(req.id, 42);
    assert!(req.payload.is_empty());
    // The spec's bytes are exactly what the implementation emits.
    assert_eq!(Request::control(42, Op::Ping).encode(), frames[0]);

    let (resp, used) = Response::decode(&frames[1]).expect("worked-example response decodes");
    assert_eq!(used, frames[1].len());
    assert_eq!(resp.status, status::OK);
    assert_eq!(resp.id, 42);
    assert!(resp.payload.is_empty());
    assert_eq!(Response::of_status(42, status::OK, "").encode(), frames[1]);
}

#[test]
fn spec_documents_the_live_constants() {
    let spec = spec_text();
    for needle in [
        "`LCRQ`",
        "`LCRS`",
        &format!("2^{}", protocol::MAX_HEADER_LEN.trailing_zeros()),
        &format!("2^{}", protocol::MAX_PAYLOAD_LEN.trailing_zeros()),
        &format!("`MAX_RANK` | {}", protocol::MAX_RANK),
    ] {
        assert!(spec.contains(needle), "PROTOCOL.md lost mention of {needle}");
    }
}
