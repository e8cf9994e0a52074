"""Command line front end: products, certificates, graphs and sweeps.

Every command is deterministic given its flags, prints JSON to stdout (or
``--out``), and uses the exit code to report whether all exact checks
passed (0) or not (1); malformed input exits with 2.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .sweeps import SUITES, run_suites
from .symmetrizer import _check_pair_budget, expand_product, young_symmetrizer
from .tableau import Partition, YoungTableau
from .tensor import (
    DnFilling,
    MultiGraph,
    graph_tabloid,
    membership_certificate,
    symmetrized_membership_certificate,
)


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


# The most term products ``product --brute`` may form.  c(T) * c(S) forms
# |R(T)||C(T)| * |R(S)||C(S)| of them, and |R||C| is at most n!, so every
# input with n <= 7 fits; c(8) * c(8) alone would be 1.6e9.
_BRUTE_PRODUCT_BUDGET = math.factorial(7) ** 2


def _check_brute_budget(lam: Partition, mu: Partition) -> None:
    """Refuse, with ValueError, a --brute convolution above the budget,
    from the two shapes alone and before anything is built."""
    products = _check_pair_budget(lam, "symmetrizer") * _check_pair_budget(mu, "symmetrizer")
    if products > _BRUTE_PRODUCT_BUDGET:
        raise ValueError(
            f"--brute on shapes {lam} and {mu} would form {products} term products, "
            f"above the budget of {_BRUTE_PRODUCT_BUDGET}"
        )


def cmd_product(args: argparse.Namespace) -> int:
    lam = Partition.parse(args.shape)
    tableau = (
        YoungTableau.parse(args.tableau) if args.tableau else YoungTableau.canonical(lam)
    )
    if tableau.shape != lam:
        raise ValueError(f"tableau shape {tableau.shape} does not match --shape {lam}")
    mu = Partition.parse(args.subshape)
    if not lam.contains(mu):
        raise ValueError(f"subshape {mu} not contained in {lam}")
    if args.brute:
        _check_brute_budget(lam, mu)
    sub = tableau.restrict(mu)
    n = tableau.max_entry()
    mult = expand_product(tableau, sub, n)
    payload = {
        "shape": str(lam),
        "tableau": str(tableau),
        "subshape": str(mu),
        "alpha": mult.alpha,
        "source": mult.source,
        "all_integer_coefficients": mult.all_integral(),
        "multiplier": mult.element.to_json(),
    }
    agree = True
    if args.brute:
        ct = young_symmetrizer(tableau, n).c
        cs = young_symmetrizer(sub, n).c
        brute = ct * cs
        formula = ct * mult.element
        agree = brute == formula
        payload["brute_product"] = brute.to_json()
        payload["agree"] = agree
    _emit(payload, args.out)
    return 0 if agree else 1


def cmd_verify(args: argparse.Namespace) -> int:
    names = list(SUITES) if args.suites is None else [s.strip() for s in args.suites.split(",")]
    if names == [""]:
        raise ValueError("no suites selected")
    if args.max_n is not None and args.max_n < 1:
        raise ValueError("--max-n must be at least 1")
    if args.jobs < 1:
        raise ValueError("--jobs must be at least 1")
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITES)}")
    ok, report = run_suites(names, args.max_n, args.jobs)
    for suite in report["suites"]:
        status = "PASS" if suite["ok"] else "FAIL"
        line = (
            f"{status} {suite['suite']} max_n={suite['max_n']} "
            f"cases={suite['cases']} elapsed={suite['elapsed_seconds']}s"
        )
        if suite["stats"]:
            line += f" stats={suite['stats']}"
        print(line, file=sys.stderr)
        for failure in suite["failures"]:
            print(f"  FAIL {failure['case']}: {failure['detail']}", file=sys.stderr)
    _emit(report, args.out)
    return 0 if ok else 1


def cmd_certificate(args: argparse.Namespace) -> int:
    if args.d == 1:
        filling = YoungTableau.parse(args.filling)
        cert = membership_certificate(filling, args.k)
    else:
        filling = DnFilling.parse(args.filling, args.d)
        cert = symmetrized_membership_certificate(filling, args.k)
    payload = cert.to_json()
    ok = True
    if args.check:
        ok = cert.verify()
        payload["verified"] = ok
    _emit(payload, args.out)
    return 0 if ok else 1


def cmd_graph(args: argparse.Namespace) -> int:
    if args.file:
        with open(args.file) as fh:
            text = fh.read()
    else:
        text = args.graph
    q = MultiGraph.parse(text)
    if args.d is not None and args.d != q.d:
        q = MultiGraph(q.n, args.d, q.edges)
    tabloid = graph_tabloid(q)
    payload = {
        "graph": str(q),
        "d": q.d,
        "vertices": q.n,
        "edges": q.edge_count,
        "shape": str(tabloid.shape),
        "tabloid": str(tabloid),
        "canonical": str(tabloid.canonical()),
    }
    ok = True
    if args.check:
        # Round trip: the labels, their multiplicity and the height-2
        # columns of the tabloid must give back q.
        edges = tuple(sorted(tuple(sorted(c)) for c in tabloid.columns() if len(c) == 2))
        rebuilt = (tabloid.n, tabloid.d, edges)
        round_trip = len(tabloid.rows) <= 2 and rebuilt == (q.n, q.d, q.edges)
        zero_ok = not tabloid.has_column_repeat() or tabloid.realize().is_zero()
        ok = round_trip and zero_ok
        payload["verified"] = ok
    _emit(payload, args.out)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ysym",
        description="Exact products of Young symmetrizers and tabloid ideal certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("product", help="multiplier E with c(T)c(S) = c(T)E")
    p.add_argument("--shape", required=True, help="partition, e.g. 4,3,1,1")
    p.add_argument("--tableau", help="rows like 1,2,3,4/5,6,7/8/9 (default canonical)")
    p.add_argument("--subshape", required=True, help="subdiagram partition")
    p.add_argument("--brute", action="store_true", help="compare against direct convolution")
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.set_defaults(func=cmd_product)

    p = sub.add_parser("verify", help="run exhaustive identity sweeps")
    p.add_argument("--suites", help=f"comma list from: {','.join(SUITES)}")
    p.add_argument("--max-n", type=int, dest="max_n", help="override every suite bound")
    p.add_argument("--jobs", type=int, default=1, help="worker processes")
    p.add_argument("--out", help="write the JSON report here")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("certificate", help="ideal membership certificate for a filling")
    p.add_argument("--filling", required=True, help="rows like 1,2,3,6/4,5/7")
    p.add_argument("--k", type=int, required=True, help="cutoff: generators use 1..k")
    p.add_argument("--d", type=int, default=1, help="block size for d-regular fillings")
    p.add_argument("--check", action="store_true", help="re-verify the certificate")
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.set_defaults(func=cmd_certificate)

    p = sub.add_parser("graph", help="covariant tabloid of a multigraph")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--file", help="file containing: n=4 d=3; 1-2 1-2 2-3 ...")
    src.add_argument("--graph", help="the same syntax inline")
    p.add_argument("--d", type=int, help="override the degree bound")
    p.add_argument("--check", action="store_true", help="validate the produced tabloid")
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.set_defaults(func=cmd_graph)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
