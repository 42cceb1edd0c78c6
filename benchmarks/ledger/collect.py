"""Run the benchmark over many seeds, check every result, report spreads.

Usage, from the root of a checkout::

    python3 benchmarks/ledger/collect.py [--workloads a,b] [--seeds 1-10]
        [--sets 2] [--trace 0|1] [--out FILE]

Each run is ``run.py`` in its own interpreter, with ``run_seconds`` from
``BENCHMARK.json``.  Every result line is checked against the declared
metrics (names, units, finite values) and must report ``correct``.  For
each end-to-end metric and workload the script prints, per set of seeds,
the median and the spread: the distance between the first and third
quartile (``statistics.quantiles(values, n=4)``) as a share of the
median.  With two sets it also prints how far the second median moved
from the first, in the direction the metric calls worse, and exits 1
when a spread (set-up's excepted) or that move exceeds the metric's
bound.  ``--out`` writes every parsed run and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=180
    )
    if done.returncode != 0:
        raise SystemExit(
            f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}"
        )
    lines = done.stdout.strip().split("\n")
    parsed = {"workload": workload, "seed": seed, "trace": trace}
    for line in lines[:-1]:
        key, _, rest = line.partition(" ")
        if key in ("machine", "info", "samples", "layers"):
            parsed[key] = json.loads(rest)
    parsed["result"] = json.loads(lines[-1])
    return parsed


def check(result: dict, declared: dict[str, dict]) -> list[str]:
    """Problems with one result line against the declared metrics."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append("correct is not true")
    if not result.get("attempted", 0) >= 1:
        problems.append("attempted < 1")
    metrics = result.get("metrics", {})
    if set(metrics) != set(declared):
        problems.append(
            f"metrics differ: missing {sorted(set(declared) - set(metrics))}"
            f", extra {sorted(set(metrics) - set(declared))}"
        )
    for name, entry in metrics.items():
        if name in declared and entry.get("unit") != declared[name]["unit"]:
            problems.append(f"{name}: unit {entry.get('unit')!r}")
        value = entry.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r}")
    return problems


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = (
        args.workloads.split(",") if args.workloads
        else [workload["name"] for workload in spec["workloads"]]
    )
    table = spec["per_layer"] if args.trace else spec["end_to_end"]
    declared = {metric["name"]: metric for metric in table}
    runs = []
    for set_index in range(args.sets):
        for workload in workloads:
            for seed in seed_range(args.seeds):
                run = run_once(workload, seed, spec["run_seconds"], args.trace)
                run["set"] = set_index
                problems = check(run["result"], declared)
                if problems:
                    raise SystemExit(
                        f"{workload} seed {seed}: " + "; ".join(problems)
                    )
                runs.append(run)
                print(
                    f"set {set_index} {workload} seed {seed}: " + " ".join(
                        f"{name}={entry['value']:.4g}"
                        for name, entry in run["result"]["metrics"].items()
                        if not args.trace
                    ),
                    flush=True,
                )
    summary = (
        None if args.trace or len(seed_range(args.seeds)) < 4
        else summarize(runs, workloads, declared, args.sets)
    )
    if args.out is not None:
        args.out.write_text(
            json.dumps({"runs": runs, "summary": summary}, indent=1) + "\n"
        )
    if summary is None:
        return 0
    print(f"\n{'workload':<11} {'metric':<12} {'bound':>6} "
          + " ".join(f"{'median' + str(s):>10} {'spread' + str(s):>8}"
                     for s in range(args.sets))
          + ("  worse" if args.sets > 1 else ""))
    for row in summary["rows"]:
        print(
            f"{row['workload']:<11} {row['metric']:<12} {row['bound']:>6} "
            + " ".join(
                f"{median:>10.4g} {spread_:>8.3f}"
                for median, spread_ in zip(row["medians"], row["spreads"])
            )
            + (f"  {row['worse']:+.3f}" if "worse" in row else "")
        )
    return 0 if summary["accepted"] else 1


def summarize(runs, workloads, declared, sets: int) -> dict:
    """Per workload and metric: each set's median and spread.

    ``accepted`` applies the acceptance rule: every spread but set-up's
    within its bound, and no later set's median worse than the first
    set's by more than the bound.
    """
    rows, accepted = [], True
    for workload in workloads:
        for name, metric in declared.items():
            row = {
                "workload": workload, "metric": name,
                "bound": metric["bound"], "medians": [], "spreads": [],
            }
            for set_index in range(sets):
                values = [
                    run["result"]["metrics"][name]["value"]
                    for run in runs
                    if run["workload"] == workload and run["set"] == set_index
                ]
                row["medians"].append(statistics.median(values))
                row["spreads"].append(spread(values))
                if name != "setup_s" and row["spreads"][-1] > metric["bound"]:
                    accepted = False
            if sets > 1:
                first, last = row["medians"][0], row["medians"][-1]
                change = (last - first) / first
                row["worse"] = change if metric["better"] == "lower" else -change
                accepted &= row["worse"] <= metric["bound"]
            rows.append(row)
    return {"rows": rows, "accepted": accepted}


if __name__ == "__main__":
    sys.exit(main())
