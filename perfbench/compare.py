"""Compare two result sets of the benchmark, workload by workload.

A result set is a directory that ``run.py --out DIR`` appended to, one
``<workload>.jsonl`` per workload, typically holding ten or more runs with
distinct seeds.  Measure the parent commit into one directory and the
change into another, alternating which runs first, then::

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

For every workload and end-to-end metric this prints each side's median
and quartiles, the share of seed-matched pairs the change won (ties count
for neither side), and a verdict:

* ``improved`` — the change won at least nine tenths of the pairs and its
  median beats the parent's by more than the parent's own quartile spread;
* ``unresolved`` — either side's quartile spread, as a share of its
  median, is wider than the metric's bound, and not every run of the
  change reads better than every run of the parent;
* ``regressed`` — the change's median is worse than the parent's by more
  than the metric's bound (from ``BENCHMARK.json``);
* ``unchanged`` — otherwise.

Failed operations are compared separately, as failed over attempted.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WIN_SHARE = 0.9


def load(directory: Path) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = {}
    for path in sorted(directory.glob("*.jsonl")):
        for line in path.read_text().splitlines():
            if line.strip():
                record = json.loads(line)
                if record.get("trace") == 0:
                    runs.setdefault(record["workload"], []).append(record)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def paired(base: list[dict], change: list[dict], metric: str):
    """(parent, change) values of runs with the same seed, in run order."""
    by_seed: dict[int, list[float]] = {}
    for run in base:
        by_seed.setdefault(run["seed"], []).append(
            run["metrics"][metric]["value"]
        )
    pairs = []
    for run in change:
        pending = by_seed.get(run["seed"])
        if pending:
            pairs.append((pending.pop(0), run["metrics"][metric]["value"]))
    return pairs


def verdict(base_vals, change_vals, pairs, better: str, bound: float):
    sign = 1.0 if better == "lower" else -1.0

    def beats(a, b):  # a reads better than b
        return sign * (a - b) < 0

    bq1, bmed, bq3 = quartiles(base_vals)
    cq1, cmed, cq3 = quartiles(change_vals)
    wins = sum(1 for b, c in pairs if beats(c, b))
    if (pairs and wins >= WIN_SHARE * len(pairs) and beats(cmed, bmed)
            and abs(cmed - bmed) > bq3 - bq1):
        return "improved", wins
    spread = max((bq3 - bq1) / bmed, (cq3 - cq1) / cmed)
    all_better = all(beats(c, b) for c in change_vals for b in base_vals)
    if spread > bound and not all_better:
        return "unresolved", wins
    if sign * (cmed - bmed) / bmed > bound:
        return "regressed", wins
    return "unchanged", wins


def compare(base: dict, change: dict, spec: dict) -> list[str]:
    lines = []
    for workload in sorted(set(base) & set(change)):
        b_runs, c_runs = base[workload], change[workload]
        lines.append(f"== {workload}: {len(b_runs)} parent run(s), "
                     f"{len(c_runs)} change run(s)")
        lines.append(f"{'metric':22s} {'parent q1/med/q3':>32s} "
                     f"{'change q1/med/q3':>32s} {'won':>7s}  verdict")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b_vals = [r["metrics"][name]["value"] for r in b_runs]
            c_vals = [r["metrics"][name]["value"] for r in c_runs]
            pairs = paired(b_runs, c_runs, name)
            outcome, wins = verdict(
                b_vals, c_vals, pairs, metric["better"], metric["bound"]
            )
            fmt = "{:.4g}/{:.4g}/{:.4g}"
            lines.append(
                f"{name:22s} {fmt.format(*quartiles(b_vals)):>32s} "
                f"{fmt.format(*quartiles(c_vals)):>32s} "
                f"{wins:>3d}/{len(pairs):<3d}  {outcome}"
            )
        for side, runs in (("parent", b_runs), ("change", c_runs)):
            failed = sum(r["failed"] for r in runs)
            attempted = sum(r["attempted"] for r in runs)
            wrong = sum(1 for r in runs if not r["correct"])
            lines.append(
                f"failed_share {side}: {failed}/{attempted} = "
                f"{failed / attempted:.6f}; incorrect runs: {wrong}"
            )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    base, change = load(args.parent), load(args.change)
    if not set(base) & set(change):
        print("no workload appears in both result sets", file=sys.stderr)
        return 2
    print("\n".join(compare(base, change, spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
