#!/usr/bin/env python3
"""Alternating parent/change pairs of the repo benchmark.

    python3 tools/ab_pairs.py PARENT_ROOT CHANGE_ROOT --workload dump3d_sz \\
        [--pairs 10] [--seconds 15] [--seed 11]

Each root is a copy of the repository with
`benchmark/target/release/lcpio-benchmark` already built; each binary runs
from its own root, and the side that goes first alternates from pair to
pair. Every run's last stdout line is the benchmark's result JSON. For each
`end_to_end` metric that `BENCHMARK.json` (in CHANGE_ROOT) declares, this
prints the per-pair values, each side's median [quartiles], and how many
pairs the change wins in the metric's `better` direction (ties count for
neither side). Exits 1 if any run reports `failed > 0` or does not finish.
"""
import argparse, json, os, statistics, subprocess, sys

BINARY = "benchmark/target/release/lcpio-benchmark"


def run(root, args):
    cmd = [os.path.join(root, BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.exit(f"{root}: exit {out.returncode}, no result line\n{out.stderr[-2000:]}")


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("parent")
    p.add_argument("change")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=15)
    p.add_argument("--seed", type=int, default=11)
    args = p.parse_args()
    with open(os.path.join(args.change, "BENCHMARK.json")) as f:
        declared = json.load(f)["end_to_end"]

    runs = {"parent": [], "change": []}
    failed = 0
    for i in range(args.pairs):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for side in order:
            result = run(getattr(args, side), args)
            failed += result["failed"]
            runs[side].append(result["metrics"])
            print(f"pair {i + 1}/{args.pairs} {side}: failed {result['failed']} of "
                  f"{result['attempted']}", file=sys.stderr, flush=True)

    print(f"workload {args.workload}, {args.pairs} pairs, {args.seconds} s, seed {args.seed}; "
          "median [q1, q3]")
    for metric in declared:
        name, higher = metric["name"], metric["better"] == "higher"
        a = [m[name]["value"] for m in runs["parent"]]
        b = [m[name]["value"] for m in runs["change"]]
        wins = sum((y > x) if higher else (y < x) for x, y in zip(a, b))
        (a1, am, a3), (b1, bm, b3) = quartiles(a), quartiles(b)
        ratio = f"{bm / am:.3f}x" if am else "n/a"
        print(f"\n{name} ({metric['unit']}, {metric['better']} is better)")
        print("  pairs  " + "  ".join(f"{x:.4g}->{y:.4g}" for x, y in zip(a, b)))
        print(f"  parent {am:.4g} [{a1:.4g}, {a3:.4g}]  change {bm:.4g} [{b1:.4g}, {b3:.4g}]  "
              f"change/parent {ratio}  change wins {wins} of {len(a)}"
              + ("  (identical in every pair)" if a == b else ""))
    if failed:
        print(f"\n{failed} failed operations", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
