"""gamma-forge benchmark: run a workload of CLI commands and report metrics.

One run of one workload (the form the BENCHMARK.json command takes):

    python3 perfbench/run.py --workload verify-split-155 --seed 1 --seconds 20 --trace 0

runs whole rounds of the workload, each command in a fresh process, for about
--seconds seconds, checks every output against the stored reference and
prints one JSON object as its last line.  --trace 0 gives the end-to-end
metrics; --trace 1 alternates untraced and traced rounds and gives the
per-layer metrics.

All workloads, with a table of every metric and its unit:

    python3 perfbench/run.py --workload all [--runs N] [--out FILE]

Smoke mode, each workload once on tiny inputs, untraced and traced:

    python3 perfbench/run.py --smoke

Run from the root of a checkout: the program is taken from ./src.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import tracer
import workloads as wl

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 11
OP_TIMEOUT_S = 150.0

END_TO_END = {"op_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "exhaustive_share": "ratio"}


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in tracer.span_metric_names():
        if name.endswith("_s"):
            units[name] = "s"
        elif name.startswith("tableio.bytes"):
            units[name] = "bytes"
        else:
            units[name] = "count"
    units.update({"process.cpu_share": "ratio", "trace.overhead_share": "ratio"})
    return units


@dataclass
class Round:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    ops: int = 0
    failed: int = 0
    exhaustive: int = 0
    verdicts: int = 0
    layers: dict = field(default_factory=dict)


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("GAMMA_FORGE_TABLE_CAP", None)
    return env


def spawn(argv: list[str], cwd: Path, out_path: Path) -> dict:
    """Run argv to completion through launch.py; return its exit code, wall
    seconds, CPU seconds and peak RSS."""
    result_path = out_path.with_suffix(".result.json")
    result_path.unlink(missing_ok=True)
    launcher = [sys.executable, str(HERE / "launch.py"), str(result_path), str(OP_TIMEOUT_S)]
    with open(out_path, "wb") as out, open(out_path.with_suffix(".err"), "wb") as err:
        proc = subprocess.Popen(launcher + argv, cwd=cwd, env=child_env(),
                                stdout=out, stderr=err)
        try:
            proc.wait(OP_TIMEOUT_S + 10)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    return json.loads(result_path.read_text())


def measure_setup() -> float:
    """Median wall seconds for a fresh interpreter to import gamma_forge.cli."""
    argv = [sys.executable, "-c", "import gamma_forge.cli"]
    subprocess.run(argv, env=child_env(), check=True)  # compile the .pyc files once
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(argv, env=child_env(), check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


@contextlib.contextmanager
def scratch_dir(label: str):
    """A fresh directory under .perfbench_work/ in the checkout, removed after."""
    path = ROOT / ".perfbench_work" / f"{os.getpid()}-{label}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            path.parent.rmdir()


def run_round(ops, ctx, ref, workdir: Path, traced: bool, record: dict | None = None) -> Round:
    """Run every op of one round in order and check each output."""
    wl.start_round(ops, workdir)
    r = Round()
    for i, op in enumerate(ops):
        out_path = workdir / f"op{i}.out"
        spans_path = workdir / f"op{i}.spans.json"
        prefix = [sys.executable, str(HERE / "tracer.py"), str(spans_path)] if traced \
            else [sys.executable, "-m", "gamma_forge.cli"]
        r.ops += 1
        try:
            res = spawn(prefix + list(op.args), workdir, out_path)
        except (OSError, ValueError) as exc:  # the launcher left no result
            r.failed += 1
            print(f"FAILED {op.key}: no result from launch.py ({exc})", file=sys.stderr)
            continue
        r.wall_s += res["wall_s"]
        r.cpu_s += res["cpu_s"]
        r.rss_mb = max(r.rss_mb, res["maxrss_kb"] / 1024.0)
        try:
            summary = wl.summarize(op, out_path.read_text(), res["exit"], workdir, ctx)
            if record is not None:
                record[op.key] = summary
            reason = None if record is not None else wl.mismatch(summary, ref[op.key])
        except Exception as exc:  # any unreadable output is a failed op
            reason = f"{type(exc).__name__}: {exc}"
        if reason is not None:
            r.failed += 1
            print(f"FAILED {op.key} ({' '.join(op.args)}): {reason}", file=sys.stderr)
            continue
        e, v = wl.verdict_counts(op, summary)
        r.exhaustive += e
        r.verdicts += v
        if traced:
            layers = tracer.layer_metrics(json.loads(spans_path.read_text()), res["wall_s"])
            for k, val in layers.items():
                r.layers[k] = r.layers.get(k, 0.0) + val
    # per-layer numbers are per operation, like op_s
    r.layers = {k: v / r.ops for k, v in r.layers.items()}
    return r


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False) -> dict:
    workload = wl.WORKLOADS[name]
    ref = wl.load_reference(workload, smoke)
    with scratch_dir(name) as workdir:
        setup_s = None if trace else measure_setup()
        ops, ctx = wl.prepare(workload, seed, workdir, smoke)
        plain: list[Round] = []
        traced: list[Round] = []
        start = time.perf_counter()
        while True:
            plain.append(run_round(ops, ctx, ref, workdir, traced=False))
            if trace:
                traced.append(run_round(ops, ctx, ref, workdir, traced=True))
            elapsed = time.perf_counter() - start
            # start another round only if it should end within the time given
            if elapsed * (len(plain) + 1) / len(plain) > seconds:
                break
    rounds = plain + traced
    attempted = sum(r.ops for r in rounds)
    failed = sum(r.failed for r in rounds)
    op_s = statistics.median(r.wall_s / r.ops for r in plain)
    if trace:
        metrics = {k: statistics.median(r.layers.get(k, 0.0) for r in traced)
                   for k in per_layer_units()}
        metrics["process.cpu_share"] = statistics.median(r.cpu_s / r.wall_s for r in plain)
        traced_op_s = statistics.median(r.wall_s / r.ops for r in traced)
        metrics["trace.overhead_share"] = traced_op_s / op_s - 1.0
        units = per_layer_units()
    else:
        verdicts = sum(r.verdicts for r in plain)
        metrics = {
            "op_s": op_s,
            "setup_s": setup_s,
            "peak_rss_mb": statistics.median(r.rss_mb for r in plain),
            "exhaustive_share": sum(r.exhaustive for r in plain) / verdicts if verdicts else 0.0,
        }
        units = END_TO_END
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


# ---------------------------------------------------------------------------
# All workloads


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_all(runs: int, seed: int, seconds: float, out: str | None) -> int:
    report = {"environment": {
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "machine": platform.machine(),
        "seconds": seconds, "runs": runs, "first_seed": seed}, "workloads": {}}
    bad = 0
    for name in wl.WORKLOADS:
        entry = {"end_to_end": {}, "per_layer": {}}
        results = [run_workload(name, seed + i, seconds, trace=False) for i in range(runs)]
        traced = run_workload(name, seed, seconds, trace=True)
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        bad += failed + traced["failed"]
        print(f"\n{name}: {runs} run(s), {attempted} ops, "
              f"fail_share {failed / attempted:.4f} ratio")
        entry["ops"] = attempted
        entry["fail_share"] = failed / attempted
        for metric, unit in END_TO_END.items():
            vals = [r["metrics"][metric]["value"] for r in results]
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / med if med else 0.0
            entry["end_to_end"][metric] = {"median": med, "q1": q1, "q3": q3,
                                           "spread": spread, "unit": unit, "values": vals}
            print(f"  {metric:<22} {med:12.4f} {unit:<6} quartile spread {spread:.4f}")
        print(f"  traced run: {traced['attempted']} ops, per op:")
        for metric, m in traced["metrics"].items():
            entry["per_layer"][metric] = m
            if m["value"]:
                print(f"    {metric:<48} {m['value']:12.4f} {m['unit']}")
        report["workloads"][name] = entry
    if out:
        Path(out).write_text(json.dumps(report, indent=2) + "\n")
    return 1 if bad else 0


def run_smoke() -> int:
    bad = 0
    for name in wl.WORKLOADS:
        for trace in (False, True):
            res = run_workload(name, 1, 0, trace=trace, smoke=True)
            ok = res["correct"] and res["attempted"] > 0
            bad += not ok
            print(f"smoke {name} trace={int(trace)}: {'ok' if ok else 'FAILED'} "
                  f"({res['attempted']} ops)")
    return 1 if bad else 0


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=[*wl.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=24.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--runs", type=int, default=1, help="runs per workload with --workload all")
    p.add_argument("--out", help="write the --workload all results as JSON here")
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "gamma_forge" / "cli.py").is_file():
        print(f"error: no src/gamma_forge/cli.py under {ROOT}; run from the root of "
              "a gamma-forge checkout", file=sys.stderr)
        return 2
    if args.smoke:
        return run_smoke()
    if args.workload is None:
        p.error("--workload is required")
    if args.workload == "all":
        return run_all(args.runs, args.seed, args.seconds, args.out)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
