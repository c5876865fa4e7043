#!/usr/bin/env python3
"""Non-test line count: non-blank, non-`//` lines before a file's first
`#[cfg(test)]`, over `src/` and `crates/*/src` except the shims. Run from
the repository root."""
import os
def count(p):
    n = 0
    for line in open(p):
        s = line.strip()
        if s.startswith("#[cfg(test)]"): break
        n += bool(s) and not s.startswith("//")
    return n
dirs = ["src"] + [f"crates/{c}/src" for c in os.listdir("crates") if c != "shims"]
files = [os.path.join(dp, f) for d in dirs for dp, _, fs in os.walk(d) for f in fs if f.endswith(".rs")]
print(sum(map(count, files)))
