"""The symclone command: coeffs, clone, tables and verify.  Exit codes: 0
success, 1 verification failure, 2 usage, input or IO error; all but
argparse's usage errors print one JSON line {"error": ..., "code": 2} on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .cloner import clone_amplitudes, clone_channel
from .oracle import oracle_clone
from .serialize import (
    FormatError,
    read_sym_operator,
    sym_operator_to_dict,
    write_amplitudes_csv,
    write_document,
    write_sym_operator,
    write_tables_csv,
)
from .symspace import InvalidParameterError, ResourceLimitError, reduce_one, require_room
from .verify import SUITES, run_suite


def _emit_error(message: str, code: int) -> None:
    print(json.dumps({"error": message, "code": code}), file=sys.stderr)


def _finite_float(text: str, least: float = -math.inf) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value >= least):
        bound = f" >= {least:g}" if math.isfinite(least) else ""
        raise argparse.ArgumentTypeError(f"expected a finite number{bound}, got {text!r}")
    return value


def _seed(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return int(text)


def _parse_range(text: str) -> range:
    """"3" -> range(3, 4); "2:5" -> range(2, 6), i.e. 2..5 inclusive."""
    try:
        if ":" in text:
            lo_text, hi_text = text.split(":", 1)
            lo, hi = int(lo_text), int(hi_text)
        else:
            lo = hi = int(text)
    except ValueError:
        raise InvalidParameterError(f"expected N or N:M, got {text!r}") from None
    return range(lo, hi + 1)


def _cmd_coeffs(args) -> int:
    amps = clone_amplitudes(args.d, args.m, args.l)
    write_amplitudes_csv(args.out, amps)
    print(f"wrote {amps.occupancy.size} amplitude rows to {args.out}")
    return 0


def _cmd_clone(args) -> int:
    op = read_sym_operator(args.input)
    if not args.no_validate:
        op.validate_density(check_psd=args.check_psd)
    out = clone_channel(op, args.l)
    extra = {}
    fast = reduce_one(out) if args.reduced or args.oracle else None
    if args.reduced:
        extra["reduced"] = sym_operator_to_dict(fast)["entries"]
    if args.oracle:
        _, slow = oracle_clone(op, args.l)
        residual = float(np.max(np.abs(fast.entries - slow.entries)))
        extra["oracle_residual"] = residual
        print(f"oracle residual {residual:.3e}")
    write_sym_operator(args.out, out, extra=extra or None)
    print(f"cloned (d={op.d}, m={op.m}) -> l={args.l}, wrote {args.out}")
    return 0


def _cmd_tables(args) -> int:
    ds, ns, ms = _parse_range(args.d), _parse_range(args.n), _parse_range(args.m)
    # (d, n, m) points before filtering; len() overflows past sys.maxsize
    require_room(math.prod(max(0, r.stop - r.start) for r in (ds, ns, ms)), "table grid")
    triples = [(d, n, m) for d in ds for n in ns for m in ms if d >= 2 and 1 <= n <= m]
    if not triples:
        raise InvalidParameterError(
            "empty table grid: no (d, n, m) with d >= 2 and 1 <= n <= m in the given ranges"
        )
    write_tables_csv(args.out, triples)
    print(f"wrote {len(triples)} table rows to {args.out}")
    return 0


def _cmd_verify(args) -> int:
    report = run_suite(
        args.suite,
        seed=args.seed,
        tol=args.tol,
        eta_factor=args.eta_factor,
        quick=args.quick,
    )
    if args.out:
        write_document(args.out, report.to_dict())
    for case in report.cases:
        status = "PASS" if case.passed else "FAIL"
        desc = " ".join(f"{key}={value}" for key, value in case.params.items())
        print(f"{status} {desc} residual={case.residual:.3e} tol={case.tol:g}")
    print(
        f"suite={report.suite} overall={report.overall} "
        f"cases={len(report.cases)} seed={report.seed}"
    )
    return 0 if report.passed else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symclone",
        description="Universal cloning on the symmetric subspace of qudits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeffs", help="write the exact amplitude table as CSV")
    p.add_argument("--d", type=int, required=True, help="levels per system")
    p.add_argument("--m", type=int, required=True, help="input particle number")
    p.add_argument("--l", type=int, required=True, help="output particle number")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_coeffs)

    p = sub.add_parser("clone", help="apply the cloning channel to an operator file")
    p.add_argument("input", help="input operator JSON path")
    p.add_argument("--l", type=int, required=True, help="output particle number")
    p.add_argument("--out", required=True, help="output operator JSON path")
    p.add_argument(
        "--reduced", action="store_true", help="attach the single-site reduction"
    )
    p.add_argument(
        "--oracle",
        action="store_true",
        help="attach the residual against the full tensor-product construction",
    )
    p.add_argument(
        "--no-validate",
        action="store_true",
        help="skip the Hermiticity/trace check on the input",
    )
    p.add_argument(
        "--check-psd",
        action="store_true",
        help="also inspect positivity of the input (warns, never rejects)",
    )
    p.set_defaults(func=_cmd_clone)

    p = sub.add_parser("tables", help="write closed-form fidelity/shrink tables as CSV")
    p.add_argument("--d", default="2:4", help="levels, N or N:M (default 2:4)")
    p.add_argument("--n", default="1:3", help="input copies, N or N:M (default 1:3)")
    p.add_argument("--m", default="1:6", help="output copies, N or N:M (default 1:6)")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_tables)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=SUITES + ("all",), help="suite to run")
    p.add_argument("--seed", type=_seed, default=0, help="seed for random inputs")
    p.add_argument(
        "--tol",
        type=lambda text: _finite_float(text, least=0.0) + 0.0,  # -0 reports as +0.0
        default=None,
        help="override the suite tolerance (>= 0)",
    )
    p.add_argument("--out", default=None, help="write the JSON report here")
    p.add_argument(
        "--eta-factor",
        type=_finite_float,
        default=1.0,
        help="multiply the closed-form shrinking factor (negative-control hook)",
    )
    p.add_argument(
        "--quick", action="store_true", help="smaller grids for a smoke run"
    )
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code else 0
    try:
        return args.func(args)
    except (InvalidParameterError, FormatError, ResourceLimitError, OSError) as e:
        _emit_error(str(e), 2)
        return 2


if __name__ == "__main__":
    sys.exit(main())
