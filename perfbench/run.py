"""Cold-process benchmark of circunits.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0

Closed loop, one caller: passes run one after another, each in a fresh
interpreter (worker.py), so every pass pays interpreter start, import and
the filling of the library's evaluation cache, as a CLI user does.  Passes
repeat until ``--seconds`` have gone by; every pass of a run uses the same
inputs, drawn from ``--seed``.

--trace 0 prints the end-to-end metrics, each the median over the run's
untraced passes: setup_s (interpreter start until circunits is imported
and the inputs are generated; extra set-up-only processes add samples),
wall_s (first call until the last output is checked), certified_s (items
at n = 4..7), explore_s (items at n >= 8) and peak_rss_mb.

--trace 1 alternates untraced and traced passes and prints the per-layer
metrics of the traced passes (medians), plus trace.overhead_frac.

Times are reported in reference seconds: each process's measured times
are multiplied by REFERENCE_CALIBRATION_S over the time that process took
for the worker's fixed calibration loop.  On a shared machine whose speed
drifts by half over minutes, that keeps runs made at different times
comparable; the raw medians are printed on stderr.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics; failed / attempted is the failed fraction.  The run
exits 2 without a result when the checkout holds no circunits sources or
a pass cannot complete.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layertrace
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = HERE / "out"

SETUP_SPAWNS = 12  # set-up-only processes per untraced run
MIN_PASSES = 3  # untraced passes per untraced run, even past --seconds
HARD_LIMIT_S = 170.0  # a run ends well inside the 180 s allowed

# The calibration loop's time on the 2-core VM the baseline was measured
# on, in its fast periods; times are scaled to that speed.
REFERENCE_CALIBRATION_S = 0.06

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "certified_s": "s",
    "explore_s": "s",
}
TIMES = ("setup_s", "wall_s", "certified_s", "explore_s")


class PassError(Exception):
    pass


def _spawn(args: argparse.Namespace, deadline: float, *extra: str) -> dict:
    cmd = [
        sys.executable,
        str(WORKER),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--size",
        args.size,
        *extra,
    ]
    env = dict(os.environ, PYTHONHASHSEED="0")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - spawned),
        )
    except subprocess.TimeoutExpired as exc:
        raise PassError(f"pass did not finish in time: {' '.join(cmd)}") from exc
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassError(f"pass exited with {proc.returncode}: {' '.join(cmd)}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready"] - spawned
    _to_reference_seconds(result)
    return result


def _to_reference_seconds(result: dict) -> None:
    """Scale a process's times by its calibration; keep the raw ones."""
    scale = REFERENCE_CALIBRATION_S / result["calibration_s"]
    result["raw"] = {k: result[k] for k in TIMES if k in result}
    for key in result["raw"]:
        result[key] *= scale
    for key, value in result.get("layers", {}).items():
        if key.endswith(".self_s"):
            result["layers"][key] = value * scale


def _median(passes: list[dict], key: str) -> float:
    return statistics.median(p[key] for p in passes)


def run(args: argparse.Namespace) -> dict:
    started = time.monotonic()
    deadline = started + HARD_LIMIT_S
    setups = []
    if not args.trace:
        for _ in range(SETUP_SPAWNS):
            setups.append(_spawn(args, deadline, "--setup-only"))

    plain: list[dict] = []
    traced: list[dict] = []
    durations: list[float] = []
    measure_from = time.monotonic()
    while True:
        now = time.monotonic()
        typical = statistics.median(durations) if durations else 0.0
        enough = len(plain) >= MIN_PASSES or (args.trace and traced)
        # stop at the pass boundary nearest to --seconds
        if enough and now - measure_from + typical / 2 >= args.seconds:
            break
        if now + 1.5 * max(durations, default=0.0) > deadline:
            if not plain or (args.trace and not traced):
                raise PassError("not enough time left for a pass")
            break
        want_traced = bool(args.trace) and len(traced) < len(plain)
        extra = ["--trace", "1" if want_traced else "0"]
        if want_traced:
            OUT.mkdir(exist_ok=True)
            extra += ["--spans", str(OUT / f"{args.workload}-pass{len(traced)}.spans.tsv")]
        result = _spawn(args, deadline, *extra)
        durations.append(time.monotonic() - now)
        (traced if want_traced else plain).append(result)

    passes = plain + traced
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    digests = {p["output_digest"] for p in passes}
    correct = failed == 0 and len(digests) == 1

    if args.trace:
        metrics = {}
        for name in layertrace.metric_names():
            values = [p["layers"][name] for p in traced if name in p["layers"]]
            if values:
                metrics[name] = statistics.median(values)
        ratio = _median(traced, "wall_s") / _median(plain, "wall_s")
        metrics[layertrace.OVERHEAD] = ratio - 1.0
        units = {name: layertrace.metric_unit(name) for name in metrics}
    else:
        metrics = {name: _median(plain, name) for name in E2E_UNITS}
        metrics["setup_s"] = _median(setups + plain, "setup_s")
        units = E2E_UNITS
        raw = {k: _median([p["raw"] for p in plain], k) for k in TIMES}
        raw["setup_s"] = _median([p["raw"] for p in setups + plain], "setup_s")
        print(f"raw medians in seconds: {json.dumps(raw)}", file=sys.stderr)

    print(
        f"{args.workload}: {len(plain)} untraced + {len(traced)} traced passes, "
        f"failed_frac {failed}/{attempted} = {failed / attempted:.3g}, "
        f"outputs {'identical' if len(digests) == 1 else 'DIFFER'} across passes",
        file=sys.stderr,
    )
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "smoke"), default="full", help="smoke: reduced inputs"
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "circunits" / "__init__.py").is_file():
        print(f"no circunits sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = run(args)
    except PassError as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
