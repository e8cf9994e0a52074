import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ysym
from ysym.algebra import AlgebraElement
from ysym.cli import _check_brute_budget, main
from ysym.symmetrizer import closed_form_multiplier
from ysym.tableau import Partition, YoungTableau, partitions
from ysym.tensor import DnFilling


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_product_equal_tableaux(capsys):
    code, out, _ = run(capsys, ["product", "--shape", "2", "--tableau", "1,2", "--subshape", "2"])
    assert code == 0
    data = json.loads(out)
    assert data["alpha"] == 2
    mult = AlgebraElement.from_json(data["multiplier"])
    assert mult == AlgebraElement.unit(2).scale(2)


def test_product_nine_entry_case(capsys):
    code, out, _ = run(
        capsys,
        [
            "product",
            "--shape",
            "4,3,1,1",
            "--tableau",
            "1,2,3,4/5,6,7/8/9",
            "--subshape",
            "4,3,1",
        ],
    )
    assert code == 0
    data = json.loads(out)
    t = YoungTableau.parse("1,2,3,4/5,6,7/8/9")
    s = t.restrict(Partition.parse("4,3,1"))
    want = closed_form_multiplier(t, s, 9).element
    assert AlgebraElement.from_json(data["multiplier"]) == want


def test_product_brute_agreement(capsys):
    code, out, _ = run(
        capsys,
        ["product", "--shape", "2,2", "--subshape", "2", "--brute"],
    )
    assert code == 0
    data = json.loads(out)
    assert data["agree"] is True


def test_product_empty_subshape_brute(capsys):
    code, out, err = run(capsys, ["product", "--shape", "2", "--subshape", "", "--brute"])
    assert code == 0, err
    data = json.loads(out)
    assert data["agree"] is True
    assert data["alpha"] == 1
    assert AlgebraElement.from_json(data["multiplier"]) == AlgebraElement.unit(2)


def test_product_bad_input(capsys):
    code, _, err = run(capsys, ["product", "--shape", "1,2", "--subshape", "1"])
    assert code == 2
    assert "error:" in err


def test_product_subshape_not_contained(capsys):
    code, _, err = run(capsys, ["product", "--shape", "2,1", "--subshape", "3"])
    assert code == 2
    assert "error:" in err


def test_product_degree_above_256_rejected(capsys):
    code, out, err = run(capsys, ["product", "--shape", "2", "--tableau", "1,300", "--subshape", "1"])
    assert code == 2
    assert out == ""
    assert "exceeds 256" in err


def test_product_over_pair_budget_rejected(capsys):
    # --brute expands c(T) for T of shape 9: |R|*|C| = 9! is above 8!
    code, out, err = run(capsys, ["product", "--shape", "9", "--subshape", "8", "--brute"])
    assert code == 2
    assert out == ""
    assert "budget of 40320" in err


def test_product_brute_over_product_budget_refused(capsys, monkeypatch):
    # c(8) * c(8) would form 8!^2 term products, above (7!)^2 = 25,401,600:
    # refused from the shapes alone, before the multiplier is expanded
    def unreachable(*args):
        raise AssertionError("--brute built something before refusing")

    monkeypatch.setattr("ysym.cli.expand_product", unreachable)
    code, out, err = run(capsys, ["product", "--shape", "8", "--subshape", "8", "--brute"])
    assert code == 2
    assert out == ""
    assert "1625702400 term products" in err and "budget of 25401600" in err


def test_brute_budget_admits_every_input_up_to_seven():
    for n in range(1, 8):
        for lam in partitions(n):
            for m in range(n + 1):
                for mu in partitions(m, within=lam):
                    _check_brute_budget(lam, mu)


def _run_with_hash_seed(argv, seed):
    env = dict(os.environ, PYTHONHASHSEED=str(seed))
    src = str(Path(ysym.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "ysym.cli", *argv], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize(
    "argv",
    [
        ["product", "--shape", "3,2,1", "--subshape", "2,1", "--brute"],
        ["certificate", "--filling", "1,2,3,6/4,5/7", "--k", "5", "--check"],
    ],
    ids=["product", "certificate"],
)
def test_output_independent_of_hash_seed(argv):
    # bytes hashes are salted by PYTHONHASHSEED; no output may depend on them
    assert _run_with_hash_seed(argv, 0) == _run_with_hash_seed(argv, 1)


def test_verify_single_suite(capsys, tmp_path):
    out_file = tmp_path / "report.json"
    code, _, err = run(
        capsys,
        ["verify", "--suites", "garnir", "--max-n", "4", "--out", str(out_file)],
    )
    assert code == 0
    assert "PASS garnir" in err
    report = json.loads(out_file.read_text())
    assert report["ok"] is True
    assert report["suites"][0]["suite"] == "garnir"
    assert report["suites"][0]["cases"] > 0


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, ["verify", "--suites", "nonsense"])
    assert code == 2
    assert "unknown suite" in err


def test_verify_empty_suite_list(capsys, monkeypatch):
    from ysym import cli

    monkeypatch.setattr(cli, "run_suites", lambda *args: pytest.fail("a suite ran"))
    code, out, err = run(capsys, ["verify", "--suites", ""])
    assert code == 2
    assert "no suites selected" in err
    assert out == ""


def test_verify_max_n_override(capsys, tmp_path):
    out_file = tmp_path / "report.json"
    code, _, _ = run(
        capsys, ["verify", "--suites", "idempotence", "--max-n", "3", "--out", str(out_file)]
    )
    assert code == 0
    report = json.loads(out_file.read_text())
    assert report["suites"][0]["max_n"] == 3


@pytest.mark.parametrize("value", ["0", "-1"])
def test_verify_max_n_rejected(capsys, monkeypatch, value):
    from ysym import cli

    monkeypatch.setattr(cli, "run_suites", lambda *args: pytest.fail("a suite ran"))
    code, _, err = run(capsys, ["verify", "--suites", "garnir", "--max-n", value])
    assert code == 2
    assert "--max-n must be at least 1" in err


def test_certificate_with_check(capsys):
    code, out, _ = run(
        capsys,
        ["certificate", "--filling", "1,2,3,6/4,5/7", "--k", "5", "--check"],
    )
    assert code == 0
    data = json.loads(out)
    assert data["verified"] is True
    assert data["scale"] == str(Partition.parse("3,2").hook_product())
    assert data["cutoff"] == 5


def test_certificate_split_failure(capsys):
    code, _, err = run(capsys, ["certificate", "--filling", "2,1/3", "--k", "1"])
    assert code == 2
    assert "diagram" in err


def test_certificate_symmetrized(capsys):
    # a zero target would verify at any scale
    assert not DnFilling.parse("1,1,2,3/2,3", 2).realize().is_zero()
    code, out, _ = run(
        capsys,
        ["certificate", "--filling", "1,1,2,3/2,3", "--k", "1", "--d", "2", "--check"],
    )
    assert code == 0
    data = json.loads(out)
    assert data["verified"] is True
    assert data["d"] == 2
    assert len(data["summands"]) == 2


def test_certificate_symmetrized_over_budget(capsys):
    code, out, err = run(
        capsys,
        ["certificate", "--filling", "1,1,1,2,3,4,4/2,2,3,3,4", "--k", "2", "--d", "3"],
    )
    assert code == 2
    assert out == ""
    assert "budget" in err


def test_graph_command(capsys, tmp_path):
    gfile = tmp_path / "g.txt"
    gfile.write_text("n=4 d=3; 1-2 1-2 1-3 2-3 3-4\n")
    code, out, _ = run(capsys, ["graph", "--file", str(gfile), "--check"])
    assert code == 0
    data = json.loads(out)
    assert data["shape"] == "7,5"
    assert data["canonical"] == "1,1,1,2,3,4,4/2,2,3,3,4"


def test_graph_edgeless_inline(capsys):
    code, out, _ = run(capsys, ["graph", "--graph", "n=3 d=2;"])
    assert code == 0
    data = json.loads(out)
    assert data["shape"] == "6"
    assert data["tabloid"] == "1,1,2,2,3,3"


def test_graph_bad_degree(capsys):
    code, _, err = run(capsys, ["graph", "--graph", "n=2 d=1; 1-2 1-2"])
    assert code == 2
    assert "degree" in err


def test_graph_check_verifies_round_trip(capsys):
    code, out, _ = run(capsys, ["graph", "--graph", "n=3 d=2; 1-2 2-3 3-1", "--check"])
    assert code == 0
    assert json.loads(out)["verified"] is True


def test_graph_check_rejects_wrong_tabloid(capsys, monkeypatch):
    from ysym import cli
    from ysym.tensor import MultiGraph, graph_tabloid

    other = graph_tabloid(MultiGraph.parse("n=3 d=2; 1-2 1-3"))
    monkeypatch.setattr(cli, "graph_tabloid", lambda q: other)
    code, out, _ = run(capsys, ["graph", "--graph", "n=3 d=2; 1-2 2-3 3-1", "--check"])
    assert code == 1
    assert json.loads(out)["verified"] is False

