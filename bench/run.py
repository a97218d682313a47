"""aspexplain benchmark: one workload per process, one client in a
closed loop on one thread.

    python3 bench/run.py --workload chain-padded --seed 1 --seconds 28 --trace 0

The workload's inputs are generated from ``--seed`` into a scratch
directory under ``bench/.work``. Each op is one CLI request run in
process through ``aspexplain.cli.main(argv)`` with stdout and stderr
captured: read the files, parse, ground, explain/verify/convert,
render. Every output is checked against what the generator knows by
construction (``check.py`` imports nothing from aspexplain).

Op times are scaled by a reference loop timed around each op, which
takes out most of a shared host's drifting CPU speed.
``--trace 0`` measures the end-to-end metrics with no wrapper installed.
``--trace 1`` replays the ops of an untraced pass with spans around the
layer boundaries and reports per-layer figures and the tracing
overhead. The last line of stdout is one JSON object; a full report
goes to ``bench/results/``. See ``bench/README.md``.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
PACKAGE = "aspexplain"

import spans  # noqa: E402  (bench/ is on sys.path as the script's directory)
from workloads import WORKLOADS  # noqa: E402

END_TO_END = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "ok_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

_MS, _N = "ms/op", "count/op"
PER_LAYER = {
    "ground.instantiate_for_head.calls": _N,
    "ground.instantiate_for_head.self_ms": _MS,
    "ground.instantiated_rules": _N,
    "model.supports.calls": _N,
    "model.supports.self_ms": _MS,
    "model.supports.accept_ratio": "ratio",
    "engine.create_tree.self_ms": _MS,
    "engine.create_tree.errors": _N,
    "trees.andor_vertices": _N,
    "engine.calculate_weight.self_ms": _MS,
    "engine.calculate_difference.self_ms": _MS,
    "engine.extract_exp.self_ms": _MS,
    "engine.explanation_rules": _N,
    "parser.parse_program.self_ms": _MS,
    "parser.parse_answer_set.self_ms": _MS,
    "parser.rules": _N,
    "parser.atoms": _N,
    "model.verify_answer_set.self_ms": _MS,
    "ground.ground_program.self_ms": _MS,
    "ground.ground_rules": _N,
    "justify.explanation_to_justification.self_ms": _MS,
    "serialize.parse_json.self_ms": _MS,
    "serialize.emit_json.self_ms": _MS,
    "nl.render_nl.self_ms": _MS,
    "cli.main.self_ms": _MS,
    **{"layer.%s.self_ms" % layer: _MS for layer in spans.LAYERS},
    "trace.overhead_ratio": "ratio",
    "trace.spans": _N,
    "probe.deep_chain.fail_ratio": "ratio",
}

SETUP_REPS = 9
WARMUP_OPS = 3
REF_SECONDS = 1e-3  # nominal time of reference_loop(); op times are scaled to it


def reference_loop() -> float:
    """Time a fixed pure-Python job of tuple, frozenset, dict and sort
    work, the kind aspexplain does, taking about REF_SECONDS here. Timed
    next to each op, it measures how fast the shared CPU runs at that
    moment; the speed of a shared host drifts by tens of percent over
    seconds, and dividing by it removes most of that drift."""
    t0 = perf_counter()
    d: dict = {}
    for i in range(600):
        k = ("p%d" % (i % 97), i % 13)
        d[k] = d.get(k, frozenset()) | frozenset((k, (i, i + 1)))
        if i % 50 == 0:
            sorted(d)
    return perf_counter() - t0


def setup_once(inputs: list) -> tuple[float, float]:
    """Import aspexplain afresh and parse the workload's inputs once;
    returns the wall time and the reference time around it."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    before = reference_loop()
    t0 = perf_counter()
    ax = importlib.import_module(PACKAGE)
    for lp, as_ in inputs:
        ax.parse_program(Path(lp).read_text(encoding="utf-8"))
        ax.parse_answer_set(Path(as_).read_text(encoding="utf-8"))
    dt = perf_counter() - t0
    return dt, (before + reference_loop()) / 2


def run_op(cli, op) -> tuple[float, str]:
    """Time one request; returns its wall time and an error message,
    empty when the op succeeded and its output passed the check."""
    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(op.argv)
    except (Exception, SystemExit) as exc:  # an escaping exception fails the op
        return perf_counter() - t0, "%s: %s" % (type(exc).__name__, str(exc)[:200])
    dt = perf_counter() - t0
    if code != op.code:
        return dt, "exit %s, expected %d: %s" % (code, op.code, err.getvalue()[:200])
    try:
        op.check(out.getvalue(), err.getvalue())
    except Exception as exc:  # any failure to read the output is a wrong output
        return dt, "%s: %s" % (type(exc).__name__, str(exc)[:200])
    return dt, ""


@dataclass
class Samples:
    ops: list = field(default_factory=list)
    wall: list = field(default_factory=list)  # seconds per op
    ref: list = field(default_factory=list)  # reference-loop seconds around each op
    errors: list = field(default_factory=list)  # "" for a successful op
    rounds: int = 0

    def run(self, cli, op) -> None:
        # Start each op without the previous op's cyclic garbage, as a
        # fresh CLI process would.
        gc.collect()
        before = reference_loop()
        dt, err = run_op(cli, op)
        self.ref.append((before + reference_loop()) / 2)
        self.ops.append(op)
        self.wall.append(dt)
        self.errors.append(err)

    @property
    def scaled(self) -> list:
        """Op times in seconds at the speed where the reference loop
        takes REF_SECONDS."""
        return [t * REF_SECONDS / r for t, r in zip(self.wall, self.ref)]

    @property
    def failed(self) -> int:
        return sum(1 for e in self.errors if e)


def run_rounds(cli, wl, rng: random.Random, seconds: float) -> Samples:
    """Whole rounds, at least one, until another round as long as the
    last would overrun ``seconds``."""
    s = Samples()
    deadline = perf_counter() + seconds
    while True:
        began = perf_counter()
        for op in wl.round(rng):
            s.run(cli, op)
        s.rounds += 1
        now = perf_counter()
        if now + (now - began) > deadline:
            return s


def tail_quantile(n: int, q: float = 0.9, beyond: int = 10) -> float:
    """``q``, or the highest quantile with at least ``beyond`` samples
    above it when there are too few samples for ``q``."""
    if n - math.ceil(q * n) >= beyond:
        return q
    return max(0.5, (n - beyond) / n)


def quantile(values: list, q: float) -> float:
    """Nearest-rank quantile."""
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def latency_figures(times: list, errors: list, q: float) -> dict:
    """Throughput and latency of one pass; a failed op counts as +inf."""
    lat = [t if not e else math.inf for t, e in zip(times, errors)]
    ok = sum(1 for e in errors if not e)
    return {
        "ops_per_s": ok / sum(times),
        "latency_p50_ms": quantile(lat, 0.5) * 1e3,
        "latency_p90_ms": quantile(lat, q) * 1e3,
    }


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
    }


def by_kind(s: Samples) -> dict:
    out = {}
    scaled = s.scaled
    for kind in sorted({op.kind for op in s.ops}):
        idx = [i for i, op in enumerate(s.ops) if op.kind == kind]
        out[kind] = {
            "ops": len(idx),
            "failed": sum(1 for i in idx if s.errors[i]),
            "median_ms": statistics.median(scaled[i] for i in idx) * 1e3,
            "median_wall_ms": statistics.median(s.wall[i] for i in idx) * 1e3,
        }
    return out


def timed_run(cli, wl, rng, seconds: float, report: dict) -> tuple[dict, int, int]:
    if spans.installed(PACKAGE):
        raise RuntimeError("wrappers are installed before the timed loop")
    s = run_rounds(cli, wl, rng, seconds)
    wrappers = spans.installed(PACKAGE)
    if wrappers:
        raise RuntimeError("wrappers were installed during the timed loop")
    n = len(s.ops)
    q = tail_quantile(n)
    metrics = latency_figures(s.scaled, s.errors, q)
    metrics["ok_ratio"] = (n - s.failed) / n
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    report.update({
        "samples": n,
        "rounds": s.rounds,
        "tail_quantile": q,
        "wall": latency_figures(s.wall, s.errors, q),
        "reference_loop_ms": {"median": statistics.median(s.ref) * 1e3,
                              "min": min(s.ref) * 1e3, "max": max(s.ref) * 1e3},
        "op_wall_seconds": sum(s.wall),
        "wrappers_installed": wrappers,
        "by_kind": by_kind(s),
        "errors": [e for e in s.errors if e][:10],
    })
    return metrics, n, s.failed


def traced_run(cli, wl, rng, seconds: float, report: dict, spans_path: Path):
    # An untraced pass first, then the same ops again with wrappers.
    plain = run_rounds(cli, wl, rng, seconds / 3)
    tracer = spans.Tracer()
    rebound = spans.install(tracer, PACKAGE)
    traced = Samples()
    for i, op in enumerate(plain.ops):
        tracer.begin_op(i)
        traced.run(cli, op)
        tracer.end_op()
    # The known-defect probes, once per round, so they keep the share of
    # the traced ops that the workload intends.
    probes = Samples()
    for i, op in enumerate(wl.probes * plain.rounds, start=len(plain.ops)):
        tracer.begin_op(i)
        probes.run(cli, op)
        tracer.end_op()
    n_traced = len(traced.ops) + len(probes.ops)
    summary = spans.summarize(tracer, n_traced)
    summary["trace.overhead_ratio"] = sum(traced.scaled) / sum(plain.scaled) - 1
    summary["probe.deep_chain.fail_ratio"] = probes.failed / n_traced
    tracer.write(spans_path)
    layers = {layer: summary["layer.%s.self_ms" % layer] for layer in spans.LAYERS}
    ranked = sorted(layers, key=layers.get, reverse=True)
    predicted = list(wl.dominant)
    errors = [e for e in plain.errors + traced.errors if e]
    report.update({
        "traced_ops": n_traced,
        "probe_ops": len(probes.ops),
        "probe_errors": [e for e in probes.errors if e][:3],
        "names_rebound": rebound,
        "spans_file": str(spans_path.relative_to(ROOT)),
        "layer_share": {k: layers[k] / sum(layers.values()) for k in ranked},
        "dominant_predicted": predicted,
        "dominant_measured": ranked[:len(predicted)],
        "dominant_confirmed": sorted(ranked[:len(predicted)]) == sorted(predicted),
        "all_layer_figures": summary,
        "errors": errors[:10],
    })
    metrics = {name: summary.get(name, 0.0) for name in PER_LAYER}
    return metrics, len(plain.ops) + len(traced.ops), len(errors)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=28)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / PACKAGE / "__init__.py").is_file():
        print("error: %s not found; run from a checkout of the repository"
              % (SRC / PACKAGE), file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = BENCH / ".work" / ("%s-s%d-p%d" % (args.workload, args.seed, os.getpid()))
    work.mkdir(parents=True)
    try:
        wl = WORKLOADS[args.workload](work, args.seed)
        setups = [setup_once(wl.inputs) for _ in range(SETUP_REPS)]
        ax = sys.modules[PACKAGE]
        if not Path(ax.__file__).resolve().is_relative_to(SRC.resolve()):
            print("error: imported %s from %s, not from %s" % (PACKAGE, ax.__file__, SRC),
                  file=sys.stderr)
            return 2
        cli = importlib.import_module(PACKAGE + ".cli")
        rng = random.Random(args.seed)
        for op in wl.round(random.Random(args.seed + 1))[:WARMUP_OPS]:
            run_op(cli, op)
        # Keep the generator's and the package's long-lived objects out of
        # the collections that run before and during each op.
        gc.collect()
        gc.freeze()
        report = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "environment": environment(),
            "setup_runs": [{"wall_s": t, "reference_ms": r * 1e3} for t, r in setups],
        }
        results = BENCH / "results"
        results.mkdir(exist_ok=True)
        stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
        if args.trace:
            metrics, attempted, failed = traced_run(
                cli, wl, rng, args.seconds, report, results / (stem + "-spans.tsv.gz"))
            units = PER_LAYER
        else:
            metrics, attempted, failed = timed_run(cli, wl, rng, args.seconds, report)
            metrics["setup_s"] = statistics.median(t * REF_SECONDS / r for t, r in setups)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    report["result"] = result
    (results / (stem + ".json")).write_text(json.dumps(report, indent=2) + "\n")
    env = report["environment"]
    print("workload %s seed %d trace %d: %d ops, %d failed (python %s, %s, nproc %s)"
          % (args.workload, args.seed, args.trace, attempted, failed,
             env["python"], env["cpu_model"], env["nproc"]))
    if not args.trace:
        print("  samples %d, tail quantile %.3f" % (report["samples"], report["tail_quantile"]))
    else:
        print("  dominant layer predicted %s, measured %s: %s" % (
            "+".join(report["dominant_predicted"]), "+".join(report["dominant_measured"]),
            "confirmed" if report["dominant_confirmed"] else "MISMATCH"))
    for k in units:
        print("  %-46s %14.6g %s" % (k, metrics[k], units[k]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
