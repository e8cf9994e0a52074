"""Write BENCH_<tag>.json: where the time and memory of this checkout go.

    python3 tools/bench.py --tag 14

Run it from anywhere; it measures the sources in ``src/`` of the checkout it
sits in, needs nothing installed, and writes ``BENCH_<tag>.json`` at the root
of that checkout.  Every part runs in a fresh child process, one at a time,
and the peak RSS of a part is the ``ru_maxrss`` that ``os.wait4`` reports for
its child:

- ``suites``: ``ysym verify --suites <s> --jobs 1`` for each suite at its
  default bound, with the suite's own elapsed time, its case count and
  whether it passed;
- ``tier1``: the tier-1 tests, ``python -m pytest -q
  --continue-on-collection-errors``, with their wall time, exit code and
  pytest's summary line;
- ``perfbench``: ``perfbench/run.py --workload <w> --seed 1 --seconds 20``
  (the run length of BENCHMARK.json) three times per workload, alternating
  workloads, and for each end-to-end metric the median over the three
  beside every run's value;
- the Python version, the CPU count and model, and the commit.

The parts take about ten minutes on a 2-core machine, most of it in the
twelve perfbench runs.
Compare two files only when they were measured on the same machine, close
together in time: a shared machine's speed drifts.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("products", "certificates", "dregular", "verify")
SEED = 1
SECONDS = 20
REPEATS = 3


def _env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def run_child(cmd: list[str]) -> dict:
    """Run cmd in ROOT; its wall time, peak RSS, exit code, stdout and stderr."""
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return {
            "wall_s": round(wall, 3),
            "peak_rss_mb": round(usage.ru_maxrss / 1024, 1),
            "exit_code": proc.returncode,
            "stdout": out.read().decode(),
            "stderr": err.read().decode(),
        }


def suite_names() -> list[str]:
    code = "from ysym.sweeps import SUITES; print(','.join(SUITES))"
    done = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT, env=_env(), capture_output=True, text=True, check=True,
    )
    return done.stdout.strip().split(",")


def measure_suite(name: str) -> dict:
    run = run_child([sys.executable, "-m", "ysym.cli", "verify", "--suites", name, "--jobs", "1"])
    if run["exit_code"] not in (0, 1):
        raise RuntimeError(f"suite {name} exited {run['exit_code']}: {run['stderr'][-2000:]}")
    (report,) = json.loads(run["stdout"])["suites"]
    return {
        "max_n": report["max_n"],
        "cases": report["cases"],
        "ok": report["ok"],
        "elapsed_s": report["elapsed_seconds"],
        "process_s": run["wall_s"],
        "peak_rss_mb": run["peak_rss_mb"],
    }


def measure_tier1() -> dict:
    run = run_child([sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"])
    lines = [line for line in run["stdout"].splitlines() if line.strip()]
    return {
        "command": "python -m pytest -q --continue-on-collection-errors",
        "wall_s": run["wall_s"],
        "peak_rss_mb": run["peak_rss_mb"],
        "exit_code": run["exit_code"],
        "summary": lines[-1].strip("= ") if lines else "",
    }


def measure_perfbench(seed: int, seconds: float, repeats: int) -> dict:
    runs: dict[str, list[dict]] = {w: [] for w in WORKLOADS}
    correct = {w: True for w in WORKLOADS}
    for _ in range(repeats):
        for w in WORKLOADS:
            cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", w,
                   "--seed", str(seed), "--seconds", str(seconds)]
            run = run_child(cmd)
            lines = run["stdout"].strip().splitlines()
            if not lines:
                raise RuntimeError(f"perfbench {w} printed nothing: {run['stderr'][-2000:]}")
            result = json.loads(lines[-1])
            correct[w] = correct[w] and result["correct"]
            runs[w].append({k: m["value"] for k, m in result["metrics"].items()})
    workloads = {}
    for w, values in runs.items():
        workloads[w] = {
            "correct": correct[w],
            "median": {k: statistics.median(v[k] for v in values) for k in values[0]},
            "runs": values,
        }
    return {"seed": seed, "seconds": seconds, "repeats": repeats, "workloads": workloads}


def environment() -> dict:
    def git(*args: str) -> str:
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
        return done.stdout.strip() if done.returncode == 0 else "unknown"

    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "commit": git("describe", "--always", "--dirty"),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--tag", required=True, help="names the output file BENCH_<tag>.json")
    args = parser.parse_args(argv)
    bench = {"tag": args.tag, "environment": environment()}
    bench["suites"] = {}
    for name in suite_names():
        bench["suites"][name] = measure_suite(name)
        print(f"suite {name}: {bench['suites'][name]}", file=sys.stderr)
    bench["tier1"] = measure_tier1()
    print(f"tier1: {bench['tier1']}", file=sys.stderr)
    bench["perfbench"] = measure_perfbench(SEED, SECONDS, REPEATS)
    path = os.path.join(ROOT, f"BENCH_{args.tag}.json")
    with open(path, "w") as fh:
        fh.write(json.dumps(bench, indent=2) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
