#!/usr/bin/env python3
"""Dead-surface audit: print every `pub` item in `crates/*/src` and `src/`
whose name occurs nowhere in `crates/`, `src/`, `tests/`, `examples/` or
`benchmark/src` except its own definition, its file's `#[cfg(test)]` tail
and `pub use` re-exports. Run from the repository root; no output means
no hit. CI fails on any output."""
import os, re
from collections import Counter
WORD = re.compile(r"[A-Za-z_]\w*")
DEF = re.compile(r"^\s*pub\s+(?:const\s+)?(fn|struct|enum|const|trait|type|static)\s+([A-Za-z_]\w*)")
total, tests, defs = Counter(), {}, []
for top in ["crates", "src", "tests", "examples", "benchmark/src"]:
    for dp, dns, fs in os.walk(top):
        dns[:] = [d for d in dns if d not in ("target", "shims")]
        for f in (f for f in fs if f.endswith(".rs")):
            path = os.path.join(dp, f)
            in_test, tests[path] = False, Counter()
            is_src = path.startswith("src/") or re.match(r"crates/[^/]+/src/", path)
            for ln, line in enumerate(open(path), 1):
                if line.lstrip().startswith("pub use"):
                    continue
                in_test = in_test or line.strip().startswith("#[cfg(test)]")
                words = Counter(WORD.findall(line))
                total.update(words)
                if in_test:
                    tests[path].update(words)
                elif is_src and (m := DEF.match(line)):
                    defs.append((path, ln, m.group(1), m.group(2)))
for path, ln, kind, name in defs:
    if total[name] - tests[path][name] <= 1:
        print(f"{path}:{ln}: pub {kind} {name}")
