"""One cold pass of a workload, in a fresh interpreter.

Started by run.py.  It imports circunits from the checkout's ``src``,
generates the workload's inputs, and stamps the monotonic clock: the
parent turns that stamp into the set-up time.  Unless ``--setup-only`` is
given it then runs every item once, checks each output against its known
answer, and prints one JSON line with its timings.  With ``--trace 1`` the
layers are wrapped first and the line also carries per-layer metrics.

Every process also times a fixed calibration loop that does not touch the
library, next to its measured work, so that run.py can scale the timings
to a reference machine speed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _import_library() -> SimpleNamespace:
    sys.path.insert(0, str(SRC))
    import circunits
    from circunits import circular_units, congruence, group_ring

    if not Path(circunits.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"circunits imported from {circunits.__file__}, not {SRC}")
    return SimpleNamespace(
        Level=circunits.Level,
        CycInt=circunits.CycInt,
        NotIntegral=circunits.NotIntegral,
        circular_units=circular_units,
        congruence=congruence,
        group_ring=group_ring,
    )


def _calibration_loop() -> None:
    """Fixed pure-Python work in the library's style: a negacyclic
    schoolbook product of 64 big integers and a shift/xor product loop."""
    m = 64
    a = [3 ** (i + 40) * (1 - 2 * (i & 1)) for i in range(m)]
    b = [5 ** (i + 30) for i in range(m)]
    acc = [0] * m
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            if i + j < m:
                acc[i + j] += ai * bj
            else:
                acc[i + j - m] -= ai * bj
    x, full = (1 << 255) | 12345, (1 << 256) - 1
    for _ in range(600):
        product, z = 0, x
        for shift in range(41):
            if z & 1:
                product ^= x << shift
            z >>= 1
        x = (product ^ (product >> 256)) & full | 1


def calibrate(repeats: int = 16) -> float:
    """Seconds the calibration loop takes now, 0.06 s at full speed."""
    started = time.perf_counter()
    for _ in range(repeats):
        _calibration_loop()
    return time.perf_counter() - started


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", default=None, help="write traced spans here")
    args = parser.parse_args()

    lib = _import_library()
    import workloads

    items = workloads.build(lib, args.workload, args.seed, args.size)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready, "calibration_s": calibrate()}))
        return 0
    calibration_before = calibrate()

    tracer = None
    if args.trace:
        import layertrace

        tracer = layertrace.Tracer()
        tracer.install()

    digest = hashlib.sha256()
    failed = 0
    certified_s = explore_s = 0.0
    clock = time.perf_counter
    first = clock()
    for idx, item in enumerate(items):
        if tracer is not None:
            tracer.item = idx
        started = clock()
        try:
            output = item.run()
        except Exception:  # noqa: BLE001 - any raise is a failed item
            failed += 1
            output = "failed"
            print(f"{item.label}: FAILED", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
        elapsed = clock() - started
        if item.level in workloads.CERTIFIED:
            certified_s += elapsed
        else:
            explore_s += elapsed
        digest.update(f"{item.label}\n{output}\n".encode())
    wall_s = clock() - first

    result = {
        "ready": ready,
        "calibration_s": (calibration_before + calibrate()) / 2,
        "wall_s": wall_s,
        "certified_s": certified_s,
        "explore_s": explore_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": len(items),
        "failed": failed,
        "output_digest": digest.hexdigest(),
    }
    if tracer is not None:
        result["layers"] = tracer.summary()
        if args.spans:
            tracer.write_spans(args.spans, [item.label for item in items])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
