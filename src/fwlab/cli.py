"""Command-line front end.

Two command paths: ``cmd_model`` runs ``free``, ``lattice`` and ``matrix``, each subparser
giving the (ModelSpec, ToleranceConfig) it reads as its ``spec`` default, and ``cmd_sweep``
runs a lattice over a list of strengths.  Exit codes: 0 on success, 1 on usage or build
errors, 2 when a report contains a method-level error record.  All metric output goes
through the report serializers; nothing is printed in ad-hoc formats.
"""

from __future__ import annotations

import argparse
import math
import os
import shlex
import sys
from dataclasses import replace

from .errors import FWLabError
from .fileio import write_text
from .harness import (METHOD_STEPWISE, METHOD_TAGS, METHOD_WEAK_FIELD, run_comparison,
                      run_comparisons)
from .models import KIND_EXPLICIT, KIND_FREE, KIND_LATTICE, ModelSpec, parse_potential
from .report import emit_report, json_text
from .stepwise import STOP_TOLERANCE, ToleranceConfig

_METHOD_HELP = (
    "comma-separated subset of: "
    "eriksen (one-shot U = (1 + b*lam)/2 * [1 + (b*lam + lam*b - 2)/4]^(-1/2) "
    "with lam = H/sqrt(H^2) from one eigh of H and b the block involution), "
    "eriksenalt (polar factor U = P Q^H of the SVD F = P S Q^H, F = 1 + b*lam), "
    "exactcase (commuting-case closed form U = (eps + m + b*O)/sqrt(2 eps (eps + m)), "
    "eps = sqrt(m^2 + O^2)), "
    "stepwise (iterated exp(b*O_k/(2m)) rotations until the odd block falls "
    "below tolerance), "
    "weakfield (approximate root R = eps + L, eps*L + L*eps = {b*m+O,E}, exact to first "
    "order in E, the closed root when [E,O] = 0 and c*R for c*H, driving a surrogate "
    "one-shot transform)"
)


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage failures exit with status 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_methods(text: str) -> tuple[str, ...]:
    return tuple(tok.strip() for tok in text.split(",") if tok.strip())


def _parse_momentum(text: str):
    try:
        return tuple(float(tok) for tok in text.split(","))
    except ValueError:
        raise ValueError(f"bad momentum {text!r}") from None


def _add_methods(parser):
    parser.add_argument("--methods", default=",".join(METHOD_TAGS), help=_METHOD_HELP)


def _add_output(parser):
    parser.add_argument("--out", default=None, help="output path; stdout when omitted")
    parser.add_argument("--format", default="json", choices=("json", "csv"),
                        help="report serialization format")


def _add_lattice_arguments(parser):
    parser.add_argument("--n", type=int, required=True,
                        help="site count; even, at least 4")
    parser.add_argument("--L", type=float, required=True, dest="length",
                        help="box half-length; sites at -L + (j + 1/2) * 2L/n")
    parser.add_argument("--mass", type=float, required=True, help="positive mass")
    parser.add_argument("--potential", required=True,
                        help="zero | constant:c | gaussian:g,width | step:g,edge "
                             "| linear:g | file:path")
    parser.add_argument("--tol", type=float, default=ToleranceConfig.stepwise_tol,
                        help="stepwise odd-ratio target")
    parser.add_argument("--max-iter", type=int, default=ToleranceConfig.max_iterations,
                        help="stepwise iteration cap")
    _add_methods(parser)


def build_parser() -> _Parser:
    parser = _Parser(
        prog="fwlab",
        description="Block-diagonalizing transforms for Dirac-type Hamiltonians: "
                    "one-shot sign-operator construction, commuting-case closed "
                    "forms, weak-field roots, and the iterative scheme, compared "
                    "on one model at a time.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    free = sub.add_parser("free", help="4x4 free-particle model",
                          description="Free particle: H = beta*m + alpha.p.")
    free.add_argument("--mass", type=float, required=True, help="positive mass")
    free.add_argument("--p", default="0,0,0", help="momentum components x,y,z")
    _add_methods(free)
    _add_output(free)
    free.set_defaults(func=cmd_model, spec=lambda args: (ModelSpec(
        kind=KIND_FREE, mass=args.mass, momentum=_parse_momentum(args.p)), ToleranceConfig()))

    lattice = sub.add_parser("lattice", help="1D two-component lattice model",
                             description="Periodic two-component Dirac operator "
                                         "with a scalar potential.")
    _add_lattice_arguments(lattice)
    _add_output(lattice)
    lattice.set_defaults(func=cmd_model, spec=_lattice_spec)

    matrix = sub.add_parser("matrix", help="explicit matrix from a file",
                            description="Run the methods on a matrix loaded from "
                                        "a graded matrix file.")
    matrix.add_argument("--file", required=True, help="graded matrix file path")
    matrix.add_argument("--mass", type=float, required=True,
                        help="positive mass used for the even/odd split")
    _add_methods(matrix)
    _add_output(matrix)
    matrix.set_defaults(func=cmd_model, spec=lambda args: (ModelSpec(
        kind=KIND_EXPLICIT, mass=args.mass, path=args.file), ToleranceConfig()))

    sweep = sub.add_parser("sweep", help="sweep the potential strength",
                           description="Re-run a lattice configuration over a list "
                                       "of potential strengths and summarize "
                                       "convergence orders (log2 error ratios).")
    sweep.add_argument("--base", required=True,
                       help="quoted lattice arguments, e.g. "
                            "\"--n 32 --L 8 --mass 1 --potential gaussian:0.2,1.0\"")
    sweep.add_argument("--param", required=True, choices=("g",),
                       help="swept parameter; g is the potential strength")
    sweep.add_argument("--values", required=True,
                       help="comma-separated strengths, e.g. 0.2,0.1,0.05")
    sweep.add_argument("--out", required=True, help="output directory")
    sweep.set_defaults(func=cmd_sweep)

    return parser


def _lattice_spec(args) -> tuple[ModelSpec, ToleranceConfig]:
    spec = ModelSpec(
        kind=KIND_LATTICE, mass=args.mass, n=args.n, length=args.length,
        potential=parse_potential(args.potential),
    )
    return spec, ToleranceConfig(stepwise_tol=args.tol, max_iterations=args.max_iter)


def cmd_model(args) -> int:
    """One model's report, to stdout or ``--out``: the path of every single-model command."""
    spec, tolerances = args.spec(args)
    report = run_comparison(spec, _parse_methods(args.methods), tolerances)
    text = emit_report(report, args.format, args.out)
    if args.out is None:
        sys.stdout.write(text)
    return 2 if report.has_errors() else 0


def _orders(values, errors):
    """Empirical convergence orders between consecutive sweep points, whose strengths differ;
    None for a pair without two positive errors and two strengths of one sign."""
    orders = []
    for (v0, e0), (v1, e1) in zip(zip(values, errors), zip(values[1:], errors[1:])):
        usable = (e0 is not None and e1 is not None and e0 > 0.0 and e1 > 0.0
                  and v0 * v1 > 0.0)
        orders.append(math.log(e0 / e1) / math.log(v0 / v1) if usable else None)
    return orders


def _sweep_summary(values, reports):
    summary = {"param": "g", "values": list(values)}
    methods_present = {row.method for report in reports for row in report.methods}
    if METHOD_WEAK_FIELD in methods_present:
        errors = [report.row(METHOD_WEAK_FIELD).extras.get("sqrt_relative_error")
                  for report in reports]
        summary["weakfield"] = {
            "sqrt_relative_error": errors,
            "orders": _orders(values, errors),
        }
    if METHOD_STEPWISE in methods_present:
        rows = [report.row(METHOD_STEPWISE) for report in reports]
        block = [None if row.diagnostics is None
                 else row.diagnostics.block_diagonality for row in rows]
        reasons = [row.extras.get("stop_reason") for row in rows]
        summary["stepwise"] = {
            "block_diagonality": block,
            "stop_reasons": reasons,
            "stagnation_values": [v for v, reason in zip(values, reasons)
                                  if reason == "stagnation"],
            # a point stopped at --tol sits just under it, so its ratios are noise
            "orders": _orders(values, [None if reason == STOP_TOLERANCE else b
                                       for b, reason in zip(block, reasons)]),
        }
    return summary


def cmd_sweep(args) -> int:
    lattice_parser = _Parser(prog="fwlab sweep --base")
    _add_lattice_arguments(lattice_parser)
    base = lattice_parser.parse_args(shlex.split(args.base))
    spec, tolerances = _lattice_spec(base)
    try:
        values = tuple(float(tok) for tok in args.values.split(",") if tok.strip())
    except ValueError:
        raise ValueError(f"bad --values {args.values!r}") from None
    if not values:
        raise ValueError("--values must contain at least one number")
    for k, value in enumerate(values):
        if value in values[:k]:
            raise ValueError(f"--values repeats {value!r}; each strength writes one report")

    specs = [replace(spec, potential=spec.potential.with_strength(value)) for value in values]
    reports = run_comparisons(specs, _parse_methods(base.methods), tolerances)

    os.makedirs(args.out, exist_ok=True)
    for value, report in zip(values, reports):
        emit_report(report, "json", os.path.join(args.out, f"report_g{value!r}.json"))
    write_text(os.path.join(args.out, "summary.json"), json_text(_sweep_summary(values, reports)))
    return 2 if any(r.has_errors() for r in reports) else 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"fwlab: i/o error: {exc}", file=sys.stderr)
        return 1
    except (FWLabError, ValueError) as exc:
        print(f"fwlab: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
