"""Run one workload of the repository benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 benchmarks/ledger/run.py --workload NAME --seed N \\
        --seconds S --trace 0|1 [--out FILE]

A run makes the inputs from the seed and performs ``S x rate``
operations, the amount of work that takes ``S`` seconds on the reference
machine (fixed work, so a faster commit is measured on the same work).
Times are corrected for the shared host's speed by ``hostclock``.

An untraced run (``--trace 0``) sets the system up three times
(``setup_s`` is the median), runs the operations on the third set-up and
checks the outputs.  A traced run (``--trace 1``) makes three passes of
one set-up plus the operations: a warm-up, a pass with every public call
into the program wrapped by ``calltrace.CallTracer`` and a
``repro.obs.tracer.Tracer`` passed through the public ``tracer=``
parameters, and an untraced reference; it reports the per-layer ledger.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 only when every correctness gate passed and no operation failed.
``--out`` also writes the full ledger as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: Fewest operations a run measures, however short ``--seconds`` is.
MIN_OPS = 2


def machine_header(workload: str, seed: int, trace: bool) -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "commit": git_commit(),
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "clock": "all times wall-clock; no simulated ticks",
        "host_correction": (
            "each interval x reference probe / adjacent probe "
            "(hostclock.py); raw wall times on the samples line"
        ),
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` (absent in exported trees)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").split("\n"):
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return "unknown"


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_pass(workload_cls, seed, workdir, n_ops, setups, calls=None):
    """Inputs, ``setups`` timed set-ups, ``n_ops`` operations, the gates.

    Operations run on the last set-up.  Returns the workload, its clock,
    what it measured, the program's tracer and the pass's wall seconds.
    """
    from hostclock import HostClock
    from repro.obs.tracer import Tracer

    program = Tracer() if calls is not None else None
    workload = workload_cls(seed, workdir, tracer=program)
    workload.prepare()
    clock = HostClock(calls)
    started = perf_counter()
    system = None
    for _ in range(setups):
        if system is not None:
            workload.close(system)
            system = None
        gc.collect()
        clock.probe()
        with clock.time("setup"):
            system = workload.setup()
        clock.probe()
    gc.collect()
    try:
        measured = workload.measure(system, n_ops, clock)
        clock.probe()
        workload.verify(system, measured)
    finally:
        workload.close(system)
    return workload, clock, measured, program, perf_counter() - started


def work_seconds(workload, clock) -> float:
    """Set-up plus operation seconds of one pass, at the reference speed."""
    return sum(
        sum(clock.seconds(kind)) for kind in ("setup", *workload.busy)
    )


def untraced(workload_cls, seed, n_ops, workdir):
    workload, clock, measured, _, _ = run_pass(
        workload_cls, seed, workdir, n_ops, SETUPS
    )
    ops = clock.seconds("op")
    busy = sum(sum(clock.seconds(kind)) for kind in workload.busy)
    metrics = {
        "op_p50_ms": metric(1e3 * statistics.median(ops), "ms"),
        "ops_per_s": metric(len(ops) / busy, "1/s"),
        "setup_s": metric(statistics.median(clock.seconds("setup")), "s"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
    }
    # Tails are reported, not bounded: most workloads hold fewer than ten
    # samples beyond p90, and p99 spreads widely (README.md).
    samples = {
        "ops": len(ops),
        "op_p90_ms": 1e3 * percentile(ops, 90),
        "op_p99_ms": 1e3 * percentile(ops, 99),
        "setups": len(clock.seconds("setup")),
        "wall_op_p50_ms": 1e3 * statistics.median(clock.raw("op")),
        "host_factor": clock.host_factor(),
    }
    return measured, {
        "metrics": metrics,
        "samples": samples,
        "op_ms": [1e3 * seconds for seconds in ops],
        "setup_s": clock.seconds("setup"),
    }


def traced(workload_cls, seed, n_ops, workdir):
    """Warm-up pass, traced pass, untraced reference pass; same work each."""
    from calltrace import CallTracer
    from repro.obs.report import StageReport

    # The first pass pays the process's one-time costs, so neither timed
    # pass does.
    run_pass(workload_cls, seed, workdir, n_ops, 1)
    calls = CallTracer()
    with calls.installed():
        workload, clock, measured, program, wall_s = run_pass(
            workload_cls, seed, workdir, n_ops, 1, calls
        )
    ledger = calls.ledger()
    program_trace = StageReport.from_tracer(program).to_dict()
    factor = clock.host_factor()
    traced_s = work_seconds(workload, clock)
    ops = len(clock.seconds("op"))
    # Free the traced pass's system so the reference pass runs on a heap
    # of the same size.
    calls = program = workload = clock = None
    gc.collect()
    reference, reference_clock, *_ = run_pass(
        workload_cls, seed, workdir, n_ops, 1
    )
    overhead = traced_s / work_seconds(reference, reference_clock)
    metrics = layer_metrics(ledger, measured, wall_s, factor, overhead)
    layers = {
        layer: ledger.layer_self_s(layer) / factor
        for layer in {name.split(".", 1)[0] for name in ledger.names}
    }
    samples = {
        "ops": ops,
        "spans": ledger.n_spans,
        "traced_ops": ledger.n_ops,
        "host_factor": factor,
    }
    return measured, {
        "metrics": metrics,
        "samples": samples,
        "layers_self_s": dict(
            sorted(layers.items(), key=lambda item: -item[1])
        ),
        "spans": {
            name: {
                "calls": stats.calls,
                "total_s": stats.total_s / factor,
                "self_s": stats.self_s / factor,
                "items": stats.items,
            }
            for name, stats in sorted(ledger.names.items())
        },
        "program_trace": program_trace,
    }


#: Layers whose self time is reported in seconds; every workload runs
#: them, in set-up or in its operations.
COMMON_LAYERS = ("crawler", "gather", "store", "ingest", "text", "search")
#: Layers only some workloads run; reported as a share of the traced wall
#: time so that a layer a workload never calls reads 0 %, not 0 s.
SHARE_LAYERS = (
    "features", "training", "classifier", "ranking", "alerts", "serve",
    "shards", "stream", "wal", "checkpoint",
)


def layer_metrics(ledger, measured, wall_s, factor, overhead) -> dict:
    """The declared per-layer metrics; seconds at the reference speed."""
    counters = measured.counters
    metrics = {
        f"{layer}.self_s": metric(ledger.layer_self_s(layer) / factor, "s")
        for layer in COMMON_LAYERS
    }
    metrics["index.postings.self_s"] = metric(
        ledger.stat("index.postings").self_s / factor, "s"
    )
    for layer in SHARE_LAYERS:
        metrics[f"{layer}.self_pct"] = metric(
            100 * ledger.layer_self_s(layer) / wall_s, "%"
        )
    searches = [seconds / factor for seconds in ledger.entries["search"]]
    metrics["search.calls"] = metric(len(searches), "count")
    metrics["search.p50_ms"] = metric(1e3 * statistics.median(searches), "ms")
    metrics["search.p99_ms"] = metric(1e3 * percentile(searches, 99), "ms")
    pages = ledger.stat("crawler.crawl").items
    text_lookups = counters.get("text.lookups", 0)
    cache_lookups = counters.get("serve.cache.lookups", 0)
    metrics.update({
        "crawler.pages": metric(pages, "count"),
        "crawler.new_doc_ratio": metric(
            ledger.stat("gather.gather").items / pages if pages else 0.0,
            "ratio",
        ),
        "store.bytes_per_doc": metric(counters["store.bytes_per_doc"], "B"),
        "text.calls": metric(
            sum(
                stats.calls
                for name, stats in ledger.names.items()
                if name.startswith("text.")
            ),
            "count",
        ),
        "text.hit_rate": metric(
            counters["text.hits"] / text_lookups if text_lookups else 0.0,
            "ratio",
        ),
        "features.rows": metric(
            ledger.stat("features.transform").items, "count"
        ),
        "index.clone.calls": metric(
            ledger.stat("index.clone").calls, "count"
        ),
        "training.snippets": metric(
            ledger.stat("training.annotate_snippets").items, "count"
        ),
        "classifier.score.items": metric(
            ledger.stat("classifier.score").items, "count"
        ),
        "alerts.new_docs": metric(
            counters.get("alerts.new_docs", 0), "count"
        ),
        "alerts.minted": metric(counters.get("alerts.minted", 0), "count"),
        "serve.cache.hit_rate": metric(
            counters.get("serve.cache.hits", 0) / cache_lookups
            if cache_lookups
            else 0.0,
            "ratio",
        ),
        "serve.cache.invalidated": metric(
            counters.get("serve.cache.invalidated", 0), "count"
        ),
        "serve.workers.wait_pct": metric(
            100 * ledger.stat("serve.workers.execute").self_s / wall_s, "%"
        ),
        "serve.admission.refused": metric(
            ledger.stat("serve.admission.admit").items, "count"
        ),
        "stream.docs_ingested": metric(
            ledger.stat("stream.process_batch").items, "count"
        ),
        "stream.late": metric(counters.get("stream.late", 0), "count"),
        "wal.append.calls": metric(
            ledger.stat("wal.append").calls, "count"
        ),
        "checkpoint.bytes": metric(
            ledger.stat("checkpoint.save").items, "B"
        ),
        "obs.tracing_overhead": metric(overhead, "ratio"),
        "obs.span_coverage": metric(ledger.coverage, "ratio"),
        "obs.spans": metric(ledger.n_spans, "count"),
        "obs.traced_wall_s": metric(wall_s / factor, "s"),
    })
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n", 1)[0]
    )
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(
            f"error: no program source at {source}; run from the root of a "
            "full checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(source))
    from workloads import WORKLOADS, GateFailure

    workload_cls = WORKLOADS.get(args.workload)
    if workload_cls is None:
        print(
            f"error: unknown workload {args.workload!r}; "
            f"choose from {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2

    header = machine_header(args.workload, args.seed, bool(args.trace))
    print("machine " + json.dumps(header, sort_keys=True))
    n_ops = max(MIN_OPS, round(args.seconds * workload_cls.rate))
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        measured, report = (traced if args.trace else untraced)(
            workload_cls, args.seed, n_ops, workdir
        )
    except GateFailure as failure:
        print(f"error: wrong program output: {failure}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    print("info " + json.dumps(measured.info, sort_keys=True))
    print("samples " + json.dumps(report["samples"], sort_keys=True))
    if args.trace:
        print("layers " + json.dumps(report["layers_self_s"]))
    for name, entry in report["metrics"].items():
        print(f"metric {name} {entry['value']:.6g} {entry['unit']}")
    if args.out is not None:
        args.out.write_text(json.dumps(
            {"machine": header, "info": measured.info, **report},
            indent=1,
            sort_keys=True,
        ) + "\n")
    correct = measured.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": measured.attempted,
        "failed": measured.failed,
        "metrics": report["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
