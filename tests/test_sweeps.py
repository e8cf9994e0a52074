import pytest

from ysym import sweeps
from ysym.sweeps import (
    SUITES,
    run_suite,
    run_suites,
)


def test_suite_names_have_defaults():
    assert list(SUITES) == [
        "idempotence",
        "garnir",
        "corner_product",
        "product_expansion",
        "congruences",
        "shuffling",
        "certificates",
        "symmetrized",
    ]
    for name, (bound, cases, case) in SUITES.items():
        assert bound >= 1
        assert cases.__name__ == f"{name}_cases" and case.__name__ == f"{name}_case"



def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("bogus", 3)


def test_run_suites_aggregates():
    ok, report = run_suites(["idempotence", "garnir"], max_n=3)
    assert ok
    assert [s["suite"] for s in report["suites"]] == ["idempotence", "garnir"]
    assert all(s["ok"] for s in report["suites"])


def test_default_bound_is_the_suite_default():
    assert SUITES["idempotence"][0] == 7
    report = run_suite("garnir")
    assert report.max_n == SUITES["garnir"][0] == 6
    assert report.ok


def test_empty_suite_is_not_a_pass():
    report = run_suite("garnir", 1)
    assert report.cases == 0
    assert not report.ok
    assert report.to_json()["ok"] is False


def test_parallel_matches_serial():
    serial = run_suite("garnir", 4, jobs=1)
    parallel = run_suite("garnir", 4, jobs=2)
    assert serial.ok and parallel.ok
    assert serial.cases == parallel.cases


def test_integrality_stats_present():
    report = run_suite("product_expansion", 4)
    assert report.ok
    assert "integral_fraction" in report.stats
    num, den = report.stats["integral_fraction"].split("/")
    assert int(den) == report.cases
    assert 0 <= int(num) <= int(den)


def test_dn_certificates_count_nonzero_targets(monkeypatch):
    # a certificate of a zero target verifies at any scale, so a case needs
    # at least one nonzero target to show anything
    for n, nonzero in ((2, 12), (3, 226)):
        r = sweeps.symmetrized_case(("dn-certificates", 2, n))
        assert r.ok
        assert r.stats == {"nonzero_targets": nonzero}
    every = sweeps._dn_fillings
    zero_only = lambda lam, n, d: [f for f in every(lam, n, d) if f.has_column_repeat()]
    monkeypatch.setattr(sweeps, "_dn_fillings", zero_only)
    r = sweeps.symmetrized_case(("dn-certificates", 2, 2))
    assert not r.ok
    assert r.stats == {"nonzero_targets": 0}
