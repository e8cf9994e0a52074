"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import PER_LAYER, Tracer  # noqa: E402


def small(case: tuple) -> bool:
    """The cheap part of a round: small shapes, and the two fastest sweeps."""
    if case[0] == "sweep":
        return case[1] in ("garnir", "corner_product")
    return case[-1] <= 240


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_round_has_no_failures(name):
    cases = [c for c in workloads.make_round(name, 0, 0) if small(c)]
    assert len(cases) >= 5
    for case in cases:
        ok, _ = workloads.run_case(case)
        assert ok, case


def test_same_seed_same_inputs_other_seed_other_inputs():
    for name in ("products", "certificates", "dregular"):
        first = workloads.digest(workloads.make_round(name, 7, 0))
        assert first == workloads.digest(workloads.make_round(name, 7, 0))
        assert first != workloads.digest(workloads.make_round(name, 8, 0))
        assert first != workloads.digest(workloads.make_round(name, 7, 1))


def test_products_inputs_respect_the_budget():
    for case in workloads.make_round("products", 3, 0):
        _, rows, degree, mu, pairs = case
        lam = tuple(len(r) for r in rows)
        assert pairs == workloads.group_pairs(lam) <= workloads.PRODUCTS_MAX_PAIRS
        assert degree in (sum(lam), sum(lam) + 1)
        assert rows != workloads.fill(lam, range(1, sum(lam) + 1))


def test_exact_counters():
    from ysym import symmetrizer, tableau

    tracer = Tracer().install()
    try:
        c = symmetrizer.young_symmetrizer(tableau.YoungTableau([[9, 4], [6]]), 11).c
        before = tracer.counts["algebra.mul.term_products"]
        c * c
        assert tracer.counts["algebra.mul.term_products"] - before == 16

        T = tableau.YoungTableau([[8, 2], [5]])
        misses = tracer.counts["symmetrizer.young_symmetrizer.misses"]
        symmetrizer.young_symmetrizer(T, 10)
        symmetrizer.young_symmetrizer(T, 10)
        assert tracer.counts["symmetrizer.young_symmetrizer.misses"] - misses == 1
    finally:
        tracer.uninstall()
    calls, _ = tracer.self_times()
    assert calls["symmetrizer.young_symmetrizer"] == 3
    assert calls["algebra.mul"] == 3  # a*b in each of the two builds, then c*c
    assert symmetrizer.young_symmetrizer.__name__ == "young_symmetrizer"
    assert not hasattr(symmetrizer.young_symmetrizer, "__wrapped__")


def test_self_time_excludes_children():
    tracer = Tracer()
    tracer.spans += [["outer", 0.0, 10.0, -1, 0], ["inner", 2.0, 5.0, 0, 0], ["inner", 6.0, 7.0, 0, 0]]
    calls, self_s = tracer.self_times()
    assert calls == {"outer": 1, "inner": 2}
    assert self_s["outer"] == pytest.approx(6.0)
    assert self_s["inner"] == pytest.approx(4.0)


def test_tail_leaves_ten_cases_beyond():
    for percentile in (90.0, 95.0, 97.5):
        n = run.min_cases(percentile)
        _, beyond = run.tail(list(range(n)), percentile)
        assert beyond >= 10
        _, beyond = run.tail(list(range(n - 1)), percentile)
        assert beyond < 10


def test_scaling_divides_out_the_machine_speed():
    ref = run.REFERENCE_CALIBRATION_S
    # A machine twice as slow doubles the loop and the case times alike.
    fast = {"case_seconds": [0.01, 0.03], "calibration_s": [ref] * 5, "setup_s": 0.1}
    slow = {"case_seconds": [0.02, 0.06], "calibration_s": [2 * ref] * 5, "setup_s": 0.2}
    assert run.scaled(fast) == pytest.approx(run.scaled(slow))
    assert run.scaled(fast)[0] == pytest.approx([0.01, 0.03])
    # Each case is scaled by the loops around it; one disturbed loop is outvoted.
    loops = [2 * ref, 2 * ref, 2 * ref, 9 * ref, 2 * ref, 2 * ref]
    mixed = {"case_seconds": [0.01] * 3, "calibration_s": loops, "setup_s": 0.1}
    assert run.scaled(mixed) == pytest.approx(([0.005, 0.005, 0.005], 0.05))


def traced_products_run() -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "products",
         "--seed", "5", "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_traced_runs_match_untraced_and_repeat_their_counts():
    first, second = traced_products_run(), traced_products_run()
    # correct means no check failed and the traced per-case result digests
    # equal the untraced ones on the same inputs.
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == {name for name, _, _ in PER_LAYER}
    counts = [name for name, unit, _ in PER_LAYER if unit == "count"]
    assert {k: first["metrics"][k] for k in counts} == {k: second["metrics"][k] for k in counts}
    assert first["metrics"]["algebra.mul.term_products"]["value"] > 0
