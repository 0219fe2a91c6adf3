"""gridaudit benchmark: one workload, measured for a fixed time.

    python3 gridbench/run.py --workload audit-grid --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout. The workload's inputs are made
from ``--seed``. With ``--trace 0`` the benchmark drives the real CLI,
one ``python -m gridaudit.cli`` child at a time in a closed loop, and
reports the end-to-end metrics. With ``--trace 1`` it replays the same
inputs in-process with a span around every layer call and reports the
per-layer metrics. Every output is checked against a known answer. The
last line of standard output is the JSON result; the line before it
holds per-command detail.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import re
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".gridbench_work"
# setup_s is the median of at least SETUP_REPEATS batches of input generations,
# repeated until SETUP_SECONDS are spent. A batch repeats the generation until
# SETUP_BATCH_S are spent, since one generation can take 0.03 s, far less than
# the probes around each timed step.
SETUP_REPEATS, SETUP_SECONDS, SETUP_BATCH_S = 7, 4.0, 0.3

# The shared host the benchmark was built on runs up to 1.7 times slower in
# spells of seconds to minutes, in CPU time as much as in wall time. So every
# timed step, each CLI child and each input generation, is bracketed by a
# fixed probe, and its time is scaled by PROBE_REF_S over the mean of the two
# probe times: the timed metrics read in seconds of a host on which the probe
# takes PROBE_REF_S. The probe does not run gridaudit, so a change to the
# program moves the scaled times as much as the wall times.
PROBE_REF_S = 0.1
PROBE_CELLS, PROBE_STEPS = 12_000, 700_000
_PROBE_REF = re.compile(r"([A-Z]+)([0-9]+)")


def _probe() -> float:
    """Seconds a fixed piece of pure-Python work takes now.

    About half of it is dict, string and regex work on a column of copied
    formulas, the rest integer arithmetic. In a slow spell the first slows
    more than a CLI operation and the second less.
    """
    gc.collect()
    start = time.perf_counter()
    cells = {}
    for i in range(PROBE_CELLS):
        col, row = chr(65 + i % 12), i // 12 + 2
        cells[f"{col}{row}"] = f"={col}{row - 1}*1+{i % 7}"
    refs = {key: [f"{m[1]}{m[2]}" for m in _PROBE_REF.finditer(text)]
            for key, text in cells.items()}
    depth: dict[str, int] = {}
    for key in cells:
        depth[key] = sum(depth.get(ref, 0) + 1 for ref in refs[key])
    sorted(depth.items(), key=lambda kv: (kv[1], kv[0]))
    x = 0
    for i in range(PROBE_STEPS):
        x = (x * 31 + i) % 1_000_003
    return time.perf_counter() - start


class _Scaler:
    """Scales the time of each step between two probes to the reference host."""

    def __init__(self) -> None:
        _probe()  # the first call in a process runs cold
        self.probes = [_probe()]

    def __call__(self, seconds: float) -> float:
        self.probes.append(_probe())
        return seconds * PROBE_REF_S / ((self.probes[-2] + self.probes[-1]) / 2)


def _child_env() -> dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def _run_cli(argv: tuple[str, ...], env: dict[str, str], workdir: Path
             ) -> tuple[int, float, float, Path]:
    """One CLI child; returns exit code, wall seconds, peak RSS in MB, stdout file."""
    out = workdir / "stdout.txt"
    with out.open("wb") as stdout, (workdir / "stderr.txt").open("wb") as stderr:
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, "-m", "gridaudit.cli", *argv],
                             env, file_actions=[(os.POSIX_SPAWN_DUP2, stdout.fileno(), 1),
                                                (os.POSIX_SPAWN_DUP2, stderr.fileno(), 2)])
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - start
    return os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss / 1024, out


def untraced(w, seed: int, seconds: float, workdir: Path) -> dict:
    from workloads import verify, write_inputs

    scale = _Scaler()
    setups: list[float] = []  # scaled, per generation
    spent = 0.0
    while len(setups) < SETUP_REPEATS or spent < SETUP_SECONDS:
        batch: list[float] = []
        while sum(batch) < SETUP_BATCH_S:
            gc.collect()
            inputs, took = write_inputs(w, seed, workdir)
            batch.append(took)
        spent += sum(batch)
        setups.append(scale(sum(batch)) / len(batch))
    env = _child_env()
    _run_cli(("--version",), env, workdir)  # warm the file cache before timing
    ops = w.ops(inputs)
    samples: dict[str, list[float]] = {}  # scaled, per command
    cycles: list[float] = []  # scaled
    walls: list[float] = []  # wall time of a cycle and its probes
    peak = 0.0
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while not walls or time.perf_counter() + statistics.median(walls) <= deadline:
        start = time.perf_counter()
        cycle = 0.0
        for op in ops:
            code, wall, rss, stdout = _run_cli(op.argv, env, workdir)
            attempted += 1
            took = scale(wall)
            cycle += took
            peak = max(peak, rss)
            samples.setdefault(f"{op.name}_s", []).append(took)
            try:
                verify(op, inputs, code, stdout, workdir / "stderr.txt")
            except Exception as exc:  # any malformed or wrong output fails the operation
                failed += 1
                print(f"{w.name} {op.name} failed: {exc}", file=sys.stderr)
        cycles.append(cycle)
        walls.append(time.perf_counter() - start)
    detail = {name: {"median": statistics.median(v), "n": len(v)}
              for name, v in samples.items()}
    detail["failed_frac"] = failed / attempted
    metrics = {
        "cycle_ref_s": (statistics.median(cycles), "s"),
        "peak_rss_mb": (peak, "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    return {"attempted": attempted, "failed": failed, "metrics": metrics,
            "detail": {"cycles": len(cycles), "operations": detail,
                       "probe_s": statistics.median(scale.probes)}}


def traced(w, seed: int, seconds: float, workdir: Path) -> dict:
    import tracing

    tracer = tracing.Tracer()
    runs: list[dict[str, float]] = []
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    with tracing.instrumented(tracer):
        while not runs or time.perf_counter() + took <= deadline:
            start = time.perf_counter()
            attempted += 1
            try:
                runs.append(tracing.replay(w, seed, tracer, workdir))
            except Exception:  # a failed replay is reported, not fatal
                failed += 1
                traceback.print_exc()
                if not runs:
                    break
            took = time.perf_counter() - start
            tracer.run += 1
    tracer.write(WORK / f"spans-{w.name}-{seed}.jsonl")
    metrics = {}
    if runs:
        for name in runs[0]:
            unit = "s" if name.endswith("_s") else (
                "fraction" if name.endswith("_frac") else "count")
            metrics[name] = (statistics.median(r[name] for r in runs), unit)
        metrics["cli.import_s"] = (tracing.import_seconds(_child_env()), "s")
    return {"attempted": attempted, "failed": failed, "metrics": metrics,
            "detail": {"replays": len(runs)}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gridaudit" / "cli.py").is_file():
        print(f"error: no gridaudit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: workload must be one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**63 or args.seconds <= 0:
        print("error: need 0 <= --seed < 2**63 and --seconds > 0", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    workdir = WORK / f"{w.name}-{args.seed}-{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        result = (traced if args.trace else untraced)(w, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"workload": w.name, "seed": args.seed, **result["detail"]}))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
