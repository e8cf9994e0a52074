"""Seeded benchmark of ysym: four closed-loop workloads and a traced run.

    python3 perfbench/run.py --workload products --seed 1 --seconds 20 --trace 0

Run it from anywhere; it benchmarks the sources in ``src/`` beside this
directory and needs nothing installed.  One client in one process runs the
cases of a workload back to back, single-threaded.  Each round of cases
runs in a fresh interpreter (worker.py), so caches start cold and peak RSS
belongs to the workload.  Whole rounds run until the cases have taken
``--seconds`` in all and the tail percentile has at least ten cases beyond
it, so a run measures at least ``--seconds`` and at most one round more.

Times are scaled to a reference machine speed.  The worker times a fixed
pure-Python calibration loop before the first case and after each case;
each case time is multiplied by REFERENCE_CALIBRATION_S over the median of
the loops around it, and each set-up time by it over the loops after it.
On a shared machine whose speed drifts by a third over minutes, the loop
drifts with the cases, so the scaled times hold still while the wall times
do not.  The wall-clock values are printed and logged beside them.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs round 0
untraced and then traced on the same inputs, checks that the two give the
same per-case result digests, reports the per-layer metrics and the tracing
overhead, and writes the spans under ``perfbench/out/spans``.  Every run is
appended to ``perfbench/out/runs.jsonl`` with its environment.  The last
line of standard output is one JSON object; the exit code is 1 when any
exact check fails and 2 when the sources are missing.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

from tracing import PER_LAYER  # noqa: E402
from workloads import WORKLOADS, digest  # noqa: E402

END_TO_END = (
    ("cases_per_s", "1/s"),
    ("case_ms_p50", "ms"),
    ("case_ms_tail", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)
SETUP_SAMPLES = 5
WALL_LIMIT_S = 150.0
# The calibration loop's time at the reference speed: about its median on
# the 2-core Intel Xeon machine on which the bounds in BENCHMARK.json were set.
REFERENCE_CALIBRATION_S = 0.001


class WorkerFailed(RuntimeError):
    pass


def run_worker(workload: str, seed: int, round_index: int, mode: str, deadline: float) -> dict:
    """One round in a fresh interpreter; adds its set-up time and the scaled times."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed),
           str(round_index), mode]
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT,
                              timeout=max(1.0, deadline - spawned_at))
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"{workload} round {round_index} ({mode}) ran past the time limit")
    if proc.returncode != 0:
        raise WorkerFailed(f"{workload} round {round_index} ({mode}) exited "
                           f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["setup_s"] = result["ready_at"] - spawned_at
    result["scaled_case_s"], result["scaled_setup_s"] = scaled(result)
    return result


def scaled(result: dict) -> tuple[list[float], float]:
    """A round's case times and set-up time at the reference speed.

    Three loops ran before case 0 and one after each case, so case i ran
    between loops i+2 and i+3; its speed is the median of the two loops
    before and the two after it, so one disturbed loop does not count.  The
    set-up takes the median of the three loops that follow it.
    """
    loops = result["calibration_s"]
    cases = [
        t * REFERENCE_CALIBRATION_S / statistics.median(loops[i + 1 : i + 5])
        for i, t in enumerate(result.get("case_seconds", ()))
    ]
    return cases, result["setup_s"] * REFERENCE_CALIBRATION_S / statistics.median(loops[:3])


def tail(values: list[float], percentile: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of values strictly beyond its rank."""
    ordered = sorted(values)
    rank = max(1, math.ceil(percentile / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def min_cases(percentile: float) -> int:
    """Fewest cases that leave at least ten beyond the percentile's rank."""
    return math.ceil(10 / (1 - percentile / 100) - 1e-9)


def environment(args) -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.machine(),
        "platform": platform.platform(),
        "seed": args.seed,
        "seconds": args.seconds,
    }


def end_to_end(case_s: list[float], setups: list[float], peak_kb: int,
               percentile: float) -> dict[str, float]:
    return {
        "cases_per_s": len(case_s) / sum(case_s),
        "case_ms_p50": statistics.median(case_s) * 1000,
        "case_ms_tail": tail(case_s, percentile)[0] * 1000,
        "peak_rss_mb": peak_kb / 1024,
        "setup_s": statistics.median(setups),
    }


def measure(args, deadline: float) -> tuple[dict, list[dict]]:
    """Untraced rounds until the wall case time reaches --seconds; end-to-end metrics."""
    workload = WORKLOADS[args.workload]
    rounds: list[dict] = []
    case_s: list[float] = []
    while True:
        result = run_worker(args.workload, args.seed, len(rounds), "run", deadline)
        rounds.append(result)
        case_s += result["case_seconds"]
        mean_round = sum(case_s) / len(rounds)
        enough = len(case_s) >= min_cases(workload.tail_percentile)
        if enough and sum(case_s) >= args.seconds:
            break
        if time.monotonic() + 2 * mean_round + 5 > deadline:
            if not enough:
                raise WorkerFailed("too slow to reach the tail's case count in time")
            break
    setups = rounds[:]
    while len(setups) < SETUP_SAMPLES:
        setups.append(run_worker(args.workload, args.seed, 0, "probe", deadline))
    peak_kb = max(r["peak_rss_kb"] for r in rounds)
    percentile = workload.tail_percentile
    metrics = end_to_end([t for r in rounds for t in r["scaled_case_s"]],
                         [r["scaled_setup_s"] for r in setups], peak_kb, percentile)
    notes = {
        "tail": {"percentile": percentile, "cases": len(case_s),
                 "beyond": tail(case_s, percentile)[1]},
        "wall": end_to_end(case_s, [r["setup_s"] for r in setups], peak_kb, percentile),
        "setup_samples_s": [r["setup_s"] for r in setups],
    }
    return {"metrics": metrics, "notes": notes}, rounds


def trace(args, deadline: float) -> tuple[dict, list[dict]]:
    """Round 0 untraced then traced: per-layer metrics, overhead, digest check."""
    plain = run_worker(args.workload, args.seed, 0, "run", deadline)
    traced = run_worker(args.workload, args.seed, 0, "trace", deadline)
    same = plain["case_digests"] == traced["case_digests"]
    untraced_rate = len(plain["scaled_case_s"]) / sum(plain["scaled_case_s"])
    traced_rate = len(traced["scaled_case_s"]) / sum(traced["scaled_case_s"])
    notes = {
        "digests_match": same,
        "cases_per_s_untraced": untraced_rate,
        "cases_per_s_traced": traced_rate,
        "overhead": untraced_rate / traced_rate,
        "spans": traced["spans"],
        "spans_file": traced["spans_file"],
    }
    return {"metrics": traced["per_layer"], "notes": notes}, [plain, traced]


def report_lines(args, summary: dict, attempted: int, failed: int) -> list[str]:
    workload = WORKLOADS[args.workload]
    notes = summary["notes"]
    lines = [f"workload {args.workload}: {workload.why}", f"budget: {workload.budget}"]
    if args.workload == "verify":
        lines.append(f"seed {args.seed} is unused: the sweep enumeration is deterministic")
    unit = units(args.trace)
    for name, value in summary["metrics"].items():
        extra = ""
        if name == "case_ms_tail":
            t = notes["tail"]
            extra = f"  (p{t['percentile']:g} of {t['cases']} cases, {t['beyond']} beyond it)"
        if "wall" in notes and name != "peak_rss_mb":
            extra = f"  wall {notes['wall'][name]:.6g}{extra}"
        lines.append(f"{name:48s} {value:>16.6g} {unit[name]}{extra}")
    ratio = failed / attempted if attempted else 0.0
    lines.append(f"{'cases_failed_ratio':48s} {ratio:>16.6g} ratio  ({failed} failed of {attempted} attempted)")
    if args.trace:
        lines.append(
            f"tracing overhead: {notes['cases_per_s_untraced']:.4g} cases/s untraced, "
            f"{notes['cases_per_s_traced']:.4g} traced ({notes['overhead']:.3f}x); "
            f"per-case result digests {'match' if notes['digests_match'] else 'DIFFER'}"
        )
    return lines


def units(trace_on: int) -> dict[str, str]:
    return {m: u for m, u, _ in PER_LAYER} if trace_on else dict(END_TO_END)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "ysym", "__init__.py")):
        print(f"error: no ysym sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    started = time.monotonic()
    record = {
        "utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "workload": args.workload,
        "trace": args.trace,
        "why": WORKLOADS[args.workload].why,
        "budget": WORKLOADS[args.workload].budget,
        "environment": environment(args),
    }
    try:
        summary, rounds = (trace if args.trace else measure)(args, started + WALL_LIMIT_S)
    except WorkerFailed as exc:
        record.update(wall_s=time.monotonic() - started, error=str(exc))
        append_record(record)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted = sum(len(r["case_seconds"]) for r in rounds)
    failures = [dict(f, round=i) for i, r in enumerate(rounds) for f in r["failures"]]
    correct = not failures and summary["notes"].get("digests_match", True)
    for line in report_lines(args, summary, attempted, len(failures)):
        print(line)
    env = record["environment"]
    print(f"environment: Python {env['python']}, nproc {env['nproc']}, CPU {env['cpu_model']}, "
          f"seed {args.seed}, {attempted} cases in {len(rounds)} rounds")
    for f in failures[:5]:
        print(f"FAILED round {f['round']} case {f['case']}: {f['input']}\n  {f['detail']}")
    record.update(
        wall_s=time.monotonic() - started,
        correct=correct,
        attempted=attempted,
        failed=len(failures),
        metrics=summary["metrics"],
        notes=summary["notes"],
        rounds=[
            {
                "mode": "trace" if "per_layer" in r else "run",
                "cases": len(r["case_seconds"]),
                "case_s": sum(r["case_seconds"]),
                "setup_s": r["setup_s"],
                "peak_rss_kb": r["peak_rss_kb"],
                "inputs_digest": r["inputs_digest"],
                "results_digest": digest(r["case_digests"]),
            }
            for r in rounds
        ],
        failures=failures,
    )
    append_record(record)
    unit = units(args.trace)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": unit[k]} for k, v in summary["metrics"].items()},
    }))
    return 0 if correct else 1


def append_record(record: dict) -> None:
    """Keep every run, failed ones too, in perfbench/out/runs.jsonl."""
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "runs.jsonl"), "a") as fh:
        fh.write(json.dumps(record) + "\n")


if __name__ == "__main__":
    sys.exit(main())
