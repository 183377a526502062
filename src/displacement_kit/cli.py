"""Batch command-line front end.

Subcommands construct an instance from flags, evaluate or materialize the
requested operator, and print JSON (default), CSV, or a readable table.
The CLI parses and passes values on: every range check (gamma, orders,
tolerances) is the library's, and its DisplacementKitError becomes exit 2.
``--seed`` belongs to ``verify``, the one subcommand that samples.
Exit codes: 0 success / all checks pass, 1 verification failure, 2 usage or
input error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

import numpy as np

from .dense_oracle import materialize
from .displacement_calculus import projector_fix, pseudo_inverse, set_valued_inverse, skew_part
from .errors import DisplacementKitError, ParameterError
from .io_utils import load_matrix, load_vector
from .isometry_core import make_circular_shift, make_dense, make_rotator
from .iteration_lab import proximal_point
from .verification import OPERATOR_BUILDERS, reproduce_worked_examples, run_verification


def _parse_gamma(text: str) -> float:
    """Accept decimals and exact p/q rationals ("1/2", "0.5", "2")."""
    try:
        return float(Fraction(text))
    except (ValueError, ZeroDivisionError, OverflowError):
        raise argparse.ArgumentTypeError(
            f"invalid gamma {text!r}: expected a decimal or a p/q rational"
        ) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="displacement-kit",
        description=(
            "Closed-form resolvents, Yosida approximations, and generalized "
            "inverses of displacement mappings of finite-order isometries."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    instance = argparse.ArgumentParser(add_help=False)
    instance.add_argument(
        "--kind",
        choices=["rotator", "shift", "dense-file"],
        required=True,
        help="instance family",
    )
    instance.add_argument("--m", type=int, required=True, help="certified order (>= 2)")
    instance.add_argument(
        "--blocks", type=int, default=1, help="rotator only: number of 2x2 blocks"
    )
    instance.add_argument(
        "--block-dim", type=int, default=1, help="shift only: dimension of each block"
    )
    instance.add_argument(
        "--matrix-path", help="dense-file only: JSON or CSV matrix to certify and use"
    )
    instance.add_argument(
        "--dense-tol",
        type=float,
        default=1e-10,
        help="dense-file only: certification tolerance (default 1e-10)",
    )

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=["json", "csv", "pretty"], default="json")

    sub.add_parser(
        "show",
        parents=[instance, common],
        help="materialize the isometry, fixed projector, skew part, and pseudoinverse",
    )

    for name, blurb in (
        ("resolvent", "closed-form resolvent of gamma*(Id - R), or of its inverse"),
        ("yosida", "Yosida approximation of Id - R, or of its inverse"),
    ):
        p = sub.add_parser(name, parents=[instance, common], help=blurb)
        p.add_argument("--gamma", type=_parse_gamma, required=True)
        p.add_argument("--inverse", action="store_true", help="use the inverse mapping")
        p.add_argument("--materialize", action="store_true", help="include the dense matrix")
        p.add_argument("--apply", metavar="FILE", help="apply the operator to this vector file")

    p_pinv = sub.add_parser(
        "pinv", parents=[instance, common], help="Moore-Penrose inverse of Id - R"
    )
    p_pinv.add_argument("--materialize", action="store_true")
    p_pinv.add_argument("--apply", metavar="FILE")

    p_solve = sub.add_parser(
        "solve",
        parents=[instance, common],
        help="set-valued solve of (Id - R) x = y: particular point plus fixed-space basis",
    )
    p_solve.add_argument("--rhs", metavar="FILE", required=True, help="right-hand side vector")
    p_solve.add_argument(
        "--tol", type=float, default=1e-9, help="relative range-membership threshold"
    )

    p_iter = sub.add_parser(
        "iterate", parents=[instance, common], help="proximal-point iteration with the resolvent"
    )
    p_iter.add_argument("--gamma", type=_parse_gamma, required=True)
    p_iter.add_argument("--x0", metavar="FILE", required=True, help="starting vector")
    p_iter.add_argument("--max-iter", type=int, default=10_000)
    p_iter.add_argument("--tol", type=float, default=1e-12, help="step-norm stopping tolerance")

    p_verify = sub.add_parser(
        "verify", parents=[common], help="run the full invariant battery against the dense oracle"
    )
    p_verify.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    p_verify.add_argument("--max-m", type=int, default=8, help="largest order in the grid")
    p_verify.add_argument("--max-dim", type=int, default=64, help="largest dimension in the grid")

    p_repro = sub.add_parser(
        "reproduce-paper",
        parents=[common],
        help="re-derive the tabulated small-instance matrices and diff them at 1e-12",
    )
    p_repro.add_argument("--gamma", type=_parse_gamma, default=1.0)

    return parser


def _instance(args):
    if args.kind == "rotator":
        return make_rotator(args.m, args.blocks)
    if args.kind == "shift":
        return make_circular_shift(args.m, args.block_dim)
    if not args.matrix_path:
        raise ParameterError("--matrix-path is required for --kind dense-file")
    return make_dense(load_matrix(args.matrix_path), args.m, args.dense_tol)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _emit_csv(payload: dict) -> None:
    lines = []
    for key, value in payload.items():
        if isinstance(value, list) and value and isinstance(value[0], list):
            lines.append(f"# {key}")
            lines.extend(",".join(_fmt(v) for v in row) for row in value)
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            columns = [c for c in value[0] if not isinstance(value[0][c], list)]
            lines.append(f"# {key}")
            lines.append(",".join(columns))
            lines.extend(",".join(_fmt(row[c]) for c in columns) for row in value)
        elif isinstance(value, list):
            lines.append(f"{key}," + ",".join(_fmt(v) for v in value))
        else:
            lines.append(f"{key},{_fmt(value)}")
    print("\n".join(lines))


def _emit_pretty(payload: dict) -> None:
    for key, value in payload.items():
        if isinstance(value, list) and value and isinstance(value[0], list):
            print(f"{key}:")
            for row in value:
                print("  " + "  ".join(f"{v: .12f}" for v in row))
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            print(f"{key}:")
            for row in value:
                status = ""
                if "pass" in row:
                    status = "PASS  " if row["pass"] else "FAIL  "
                detail = "  ".join(
                    f"{c}={_fmt(v)}" for c, v in row.items() if not isinstance(v, list)
                )
                print(f"  {status}{detail}")
        elif isinstance(value, list):
            print(f"{key}: " + "  ".join(_fmt(v) for v in value))
        else:
            print(f"{key}: {_fmt(value)}")


#: json's C encoder, which it uses only when ``indent`` is None
_encode = json.JSONEncoder().encode
#: the types of the JSON scalars: no JSON text of them holds ", ", so a list of
#: them alone is encoded in one call and laid out by replacing its separators
_SCALARS = frozenset((float, int, bool, type(None)))
#: items per chunk of a list of scalars, so that a long vector is not one string
_SLICE = 1024


def _json_chunks(value, pad: str = "\n"):
    """Yield the text of ``json.dumps(value, indent=2)`` in pieces of at most one
    list of scalars, or _SLICE items of a longer one.

    ``pad`` is the newline and indentation of the line that holds ``value``.
    Dicts, and lists holding anything but scalars, are taken apart here as
    json's pure-Python indenting encoder does; a list of scalars goes to the C
    encoder whole, in place of that encoder's one chunk per item.
    """
    inner = pad + "  "
    if isinstance(value, dict) and value:
        sep = "{"
        for key, item in value.items():
            if not isinstance(key, str):  # the CLI's keys are; json would convert others
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            yield sep + inner + _encode(key) + ": "
            yield from _json_chunks(item, inner)
            sep = ","
        yield pad + "}"
    elif isinstance(value, (list, tuple)) and value:
        if set(map(type, value)) <= _SCALARS:
            for start in range(0, len(value), _SLICE):
                text = _encode(value[start : start + _SLICE])
                yield ("," if start else "[") + inner + text[1:-1].replace(", ", "," + inner)
        else:
            sep = "["
            for item in value:
                yield sep + inner
                yield from _json_chunks(item, inner)
                sep = ","
        yield pad + "]"
    else:
        yield _encode(value)  # a scalar, a string, or an empty list or dict


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        # the bytes of print(json.dumps(payload, indent=2)), written a chunk at a
        # time so that the whole document is never one string
        for chunk in _json_chunks(payload):
            sys.stdout.write(chunk)
        sys.stdout.write("\n")
    elif fmt == "csv":
        _emit_csv(payload)
    else:
        _emit_pretty(payload)


def _operator_payload(args, op, name: str, gamma=None) -> dict:
    payload = {"operator": name}
    if gamma is not None:
        payload["gamma"] = float(gamma)
    payload["m"] = op.order
    payload["coefficients"] = op.coefficients.tolist()
    if getattr(args, "materialize", False):
        payload["matrix"] = materialize(op).tolist()
    if getattr(args, "apply", None):
        payload["result"] = op.apply(load_vector(args.apply)).tolist()
    return payload


def _dispatch(args) -> int:
    if args.command == "show":
        R = _instance(args)
        _emit(
            {
                "kind": R.kind,
                "m": R.order,
                "dim": R.dim,
                "isometry": materialize(R).tolist(),
                "fixed_projector": materialize(projector_fix(R)).tolist(),
                "skew_part": materialize(skew_part(R)).tolist(),
                "pseudo_inverse": materialize(pseudo_inverse(R)).tolist(),
            },
            args.format,
        )
        return 0

    if args.command in ("resolvent", "yosida"):
        R = _instance(args)
        name = args.command + ("_inverse" if args.inverse else "")
        op = OPERATOR_BUILDERS[name](R, args.gamma)
        _emit(_operator_payload(args, op, name, args.gamma), args.format)
        return 0

    if args.command == "pinv":
        R = _instance(args)
        _emit(_operator_payload(args, pseudo_inverse(R), "pseudo_inverse"), args.format)
        return 0

    if args.command == "solve":
        R = _instance(args)
        rhs = load_vector(args.rhs)
        solution = set_valued_inverse(R, rhs, tol=args.tol)
        if solution is None:
            _emit({"message": "not in range of M"}, args.format)
        else:
            _emit({"point": solution.point.tolist(), "basis": solution.basis.tolist()}, args.format)
        return 0

    if args.command == "iterate":
        R = _instance(args)
        trajectory = proximal_point(
            R, args.gamma, load_vector(args.x0), max_iter=args.max_iter, stop_tol=args.tol
        )
        if args.format == "csv":
            print("\n".join(format(r, ".17g") for r in trajectory.residuals))
        else:
            _emit(trajectory.to_dict(), args.format)
        return 0

    if args.command == "verify":
        reports = run_verification(seed=args.seed, max_m=args.max_m, max_dim=args.max_dim)
        all_pass = all(r.passed for r in reports)
        _emit({"reports": [r.to_dict() for r in reports], "all_pass": all_pass}, args.format)
        return 0 if all_pass else 1

    if args.command == "reproduce-paper":
        rows = reproduce_worked_examples(args.gamma)
        payload_rows = [dict(r, matrix=r["matrix"].tolist()) for r in rows]
        all_pass = all(r["pass"] for r in rows)
        _emit({"cases": payload_rows, "all_pass": all_pass}, args.format)
        return 0 if all_pass else 1

    raise ParameterError(f"unknown command {args.command!r}")  # unreachable


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except DisplacementKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
