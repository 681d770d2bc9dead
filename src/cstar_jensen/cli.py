"""Command line front end.

Subcommands:

  verify       run a scenario's check campaign and print one line per result
  decompose    split one mapping into additive + quadratic + constant parts
  example-l2   build the sequence-space pair for a scalar p and validate it
  solve-kernel solve the intertwining kernel for a scenario's coefficient
  list-checks  print the fixed identity ids

Exit codes: 0 when every check passes, 1 when at least one check fails,
2 on usage, IO or validation errors. --scenario accepts a filesystem path
first, then the name of a bundled scenario.
"""
from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import catalog
from . import harness
from . import identities as idn
from . import mappings as mp
from .errors import CstarJensenError, ValidationError

KERNEL_CHECK_TOL = mp.KERNEL_RESIDUAL_TOL


def _resolve_scenario(arg: str) -> str:
    if os.path.exists(arg):
        return arg
    try:
        path = catalog.bundled_scenario_path(arg)
    except ValidationError:
        raise ValidationError(
            f"{arg!r} is neither an existing file nor a bundled scenario name; "
            f"bundled names: {', '.join(catalog.SCENARIO_NAMES)}"
        ) from None
    if not os.path.exists(path):
        raise ValidationError(
            f"bundled scenario {arg!r} resolved to {path}, which does not exist"
        )
    return path


def _print_report(report: harness.CampaignReport) -> None:
    width = max(len(entry.identity_id) for _, entry in report.results)
    for label, entry in report.results:
        status = "PASS" if entry.passed else "FAIL"
        print(
            f"{status} {entry.identity_id:<{width}} {label}: "
            f"max_residual={entry.max_residual:.3e} samples={entry.samples}"
        )
    verdict = "pass" if report.overall_pass else "FAIL"
    print(f"overall: {verdict} ({len(report.results)} checks)")


def _cmd_verify(args) -> int:
    scenario = harness.load_scenario(
        _resolve_scenario(args.scenario),
        seed=args.seed,
        samples=args.samples,
        tol=args.tol,
    )
    report = harness.run_suite(scenario)
    _print_report(report)
    if args.report:
        harness.emit_report(report, args.report)
        print(f"report written to {args.report}")
    return 0 if report.overall_pass else 1


def _cmd_decompose(args) -> int:
    scenario = harness.load_scenario(_resolve_scenario(args.scenario))
    dec, report = harness.run_decompose(scenario, args.mapping)
    _print_report(report)
    harness.emit_report(report, args.report)
    print(f"report written to {args.report}")
    return 0 if report.overall_pass else 1


def _cmd_example_l2(args) -> int:
    pair = mp.interleave_pair(args.p, args.n)
    orth, balance = mp.pair_condition_residuals(
        pair.phi, pair.psi, pair.coefficient
    )
    print(f"pair: F rank {pair.phi.domain.rank} -> E rank {pair.phi.codomain.rank}")
    print(f"coefficient: (1 - p) with p = {args.p:g}")
    print(f"orthogonality residual: {orth:.3e}")
    print(f"balance residual:       {balance:.3e}")
    bound = 1e-12
    ok = orth <= bound and balance <= bound
    print(f"validation {'pass' if ok else 'FAIL'} (bound {bound:.1e})")
    return 0 if ok else 1


def _optional(value: float | None) -> str:
    return "none" if value is None else f"{value:.3e}"


def _cmd_solve_kernel(args) -> int:
    scenario = harness.load_scenario(_resolve_scenario(args.scenario))
    solution = mp.solve_abiadditive_kernel(scenario.coefficient, scenario.space_g)
    print(f"kernel dimension: {solution.dimension}")
    print(
        f"singular values: smallest kept {_optional(solution.smallest_kept)}, "
        f"largest dropped {_optional(solution.largest_dropped)}, "
        f"threshold {solution.threshold:.3e}"
    )
    residuals = []
    for i, member in enumerate(solution.basis):
        r = mp.kernel_constraint_residual(
            member, scenario.coefficient, seed=[scenario.seed, i]
        )
        residuals.append(r)
        print(f"basis[{i}]: constraint residual {r:.3e}")
    if solution.dimension == 0:
        print("only the zero map intertwines both conjugations")
        return 0
    # np.max propagates NaN where the builtin max would drop it
    worst = float(np.max(residuals))
    ok = worst <= KERNEL_CHECK_TOL
    print(
        f"re-verification {'pass' if ok else 'FAIL'} "
        f"(worst {worst:.3e}, bound {KERNEL_CHECK_TOL:.1e})"
    )
    return 0 if ok else 1


def _cmd_list_checks(_args) -> int:
    for check_id in idn.CHECK_IDS:
        print(check_id)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cstar-jensen",
        description="Verify orthogonally a-Jensen mappings on Hilbert C*-modules.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run a scenario's check campaign")
    p_verify.add_argument("--scenario", required=True, help="path or bundled name")
    p_verify.add_argument("--seed", type=int, default=None, help="override the seed")
    p_verify.add_argument(
        "--samples", type=int, default=None, help="override the sample count"
    )
    p_verify.add_argument("--tol", type=float, default=None, help="override the tolerance")
    p_verify.add_argument("--report", default=None, help="write a canonical JSON report")
    p_verify.set_defaults(func=_cmd_verify)

    p_dec = sub.add_parser("decompose", help="decompose one labelled mapping")
    p_dec.add_argument("--scenario", required=True, help="path or bundled name")
    p_dec.add_argument("--mapping", required=True, help="label of the mapping")
    p_dec.add_argument("--report", required=True, help="write a canonical JSON report")
    p_dec.set_defaults(func=_cmd_decompose)

    p_l2 = sub.add_parser(
        "example-l2", help="validate the sequence-space pair for a scalar p"
    )
    p_l2.add_argument("--p", type=float, required=True, help="scalar in (0, 1)")
    p_l2.add_argument("--n", type=int, required=True, help="even ambient rank")
    p_l2.set_defaults(func=_cmd_example_l2)

    p_kern = sub.add_parser(
        "solve-kernel", help="solve the intertwining kernel for a coefficient"
    )
    p_kern.add_argument("--scenario", required=True, help="path or bundled name")
    p_kern.set_defaults(func=_cmd_solve_kernel)

    p_list = sub.add_parser("list-checks", help="print the fixed identity ids")
    p_list.set_defaults(func=_cmd_list_checks)

    return parser


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except CstarJensenError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    raise SystemExit(cli_main())


if __name__ == "__main__":
    main()
