"""Run one round of a workload in this fresh interpreter and print it as JSON.

Usage: worker.py WORKLOAD SEED ROUND MODE

MODE is ``probe`` (set up, run nothing), ``run`` (untraced) or ``trace``
(with tracing.Tracer installed; the spans go to ``perfbench/out/spans``).
The result carries ``ready_at``, the CLOCK_MONOTONIC time just before the
first case, from which run.py computes the set-up time, and the times of a
fixed calibration loop run three times before the first case and once after
each case, by which run.py scales the times to a reference machine speed.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import ysym.sweeps  # noqa: E402,F401  (imports every layer the cases use)

import workloads  # noqa: E402

CALIBRATION_LOOPS = 5000


def calibration_s() -> float:
    """Time of a fixed pure-Python loop of int-keyed dict updates.

    The loop allocates nothing the garbage collector tracks, so it moves no
    collection into or out of the cases.  On a shared machine its time
    drifts with the machine's speed, as the cases' times do.
    """
    start = time.perf_counter()
    table: dict[int, int] = {}
    get = table.get
    for i in range(CALIBRATION_LOOPS):
        key = (i * 7919) & 1023
        table[key] = get(key, 0) + i
    return time.perf_counter() - start


def main(workload: str, seed: int, round_index: int, mode: str) -> dict:
    cases = workloads.make_round(workload, seed, round_index)
    tracer = None
    if mode == "trace":
        from tracing import Tracer

        tracer = Tracer().install()
    ready_at = time.monotonic()
    calibration = [calibration_s() for _ in range(3)]
    out = {
        "ready_at": ready_at,
        "calibration_s": calibration,
        "inputs_digest": workloads.digest(cases),
    }
    if mode == "probe":
        return out
    seconds, digests, failures = [], [], []
    for index, case in enumerate(cases):
        if tracer is not None:
            tracer.case = index
        start = time.perf_counter()
        try:
            ok, payload = workloads.run_case(case)
        except Exception:
            ok, payload = False, traceback.format_exc(limit=3)
        seconds.append(time.perf_counter() - start)
        calibration.append(calibration_s())
        digests.append(workloads.digest([ok, payload]))
        if not ok:
            failures.append({"case": index, "input": repr(case)[:300], "detail": str(payload)[:600]})
    out.update(
        case_seconds=seconds,
        case_digests=digests,
        failures=failures,
        peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    )
    if tracer is not None:
        tracer.uninstall()
        out["per_layer"] = tracer.per_layer()
        out["spans"] = len(tracer.spans)
        spans_dir = os.path.join(HERE, "out", "spans")
        os.makedirs(spans_dir, exist_ok=True)
        path = os.path.join(spans_dir, f"{workload}-seed{seed}-round{round_index}.tsv.gz")
        tracer.write_spans(path)
        out["spans_file"] = os.path.relpath(path, os.path.dirname(HERE))
    return out


if __name__ == "__main__":
    name, seed_arg, round_arg, mode_arg = sys.argv[1:5]
    print(json.dumps(main(name, int(seed_arg), int(round_arg), mode_arg)))
