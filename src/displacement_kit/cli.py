"""Batch command-line front end.

Each subcommand builds its payload from the flags as a dict of plain values and
float arrays, kept as arrays, and :func:`main` prints it as JSON (default), CSV,
or a readable table, each array turned into text a row at a time.
The CLI parses and passes values on: every range check (gamma, orders,
tolerances) is the library's, and so is every default: an option left out is
left out of the library call.  ``--seed`` belongs to ``verify``, the one
subcommand that samples.  Exit codes: 0 success, 1 when the payload's
``all_pass`` is false, 2 usage or input error (a DisplacementKitError).
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
    library = argparse.SUPPRESS  # an option left out is left out of the library call

    instance = argparse.ArgumentParser(add_help=False)
    instance.add_argument(
        "--kind",
        choices=["rotator", "shift", "dense-file"],
        required=True,
        help="instance family",
    )
    instance.add_argument("--m", type=int, required=True, help="certified order (>= 2)")
    instance.add_argument(
        "--blocks", type=int, default=library, help="rotator only: number of 2x2 blocks"
    )
    instance.add_argument(
        "--block-dim", type=int, default=library, help="shift only: dimension of each block"
    )
    instance.add_argument(
        "--matrix-path", help="dense-file only: JSON or CSV matrix to certify and use"
    )
    instance.add_argument(
        "--dense-tol",
        type=float,
        default=library,
        help="dense-file only: certification tolerance (default: make_dense's tol)",
    )

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=["json", "csv", "pretty"], default="json")

    family = argparse.ArgumentParser(add_help=False)  # resolvent and yosida
    family.add_argument("--gamma", type=_parse_gamma, required=True)
    family.add_argument("--inverse", action="store_true", help="use the inverse mapping")

    operator = argparse.ArgumentParser(add_help=False)  # resolvent, yosida and pinv
    operator.add_argument("--materialize", action="store_true", help="include the dense matrix")
    operator.add_argument("--apply", metavar="FILE", help="apply the operator to this vector file")

    sub.add_parser(
        "show",
        parents=[instance, common],
        help="materialize the isometry, fixed projector, skew part, and pseudoinverse",
    )

    for name, blurb in (
        ("resolvent", "closed-form resolvent of gamma*(Id - R), or of its inverse"),
        ("yosida", "Yosida approximation of Id - R, or of its inverse"),
    ):
        sub.add_parser(name, parents=[instance, common, family, operator], help=blurb)

    sub.add_parser(
        "pinv", parents=[instance, common, operator], help="Moore-Penrose inverse of Id - R"
    )

    p_solve = sub.add_parser(
        "solve",
        parents=[instance, common],
        help="set-valued solve of (Id - R) x = y: particular point plus fixed-space basis",
    )
    p_solve.add_argument("--rhs", metavar="FILE", required=True, help="right-hand side vector")
    p_solve.add_argument(
        "--tol", type=float, default=library, help="relative range-membership threshold"
    )

    p_iter = sub.add_parser(
        "iterate", parents=[instance, common], help="proximal-point iteration with the resolvent"
    )
    p_iter.add_argument("--gamma", type=_parse_gamma, required=True)
    p_iter.add_argument("--x0", metavar="FILE", required=True, help="starting vector")
    p_iter.add_argument("--max-iter", type=int, default=library)
    p_iter.add_argument("--tol", type=float, default=library, help="step-norm stopping tolerance")

    p_verify = sub.add_parser(
        "verify", parents=[common], help="run the full invariant battery against the dense oracle"
    )
    p_verify.add_argument("--seed", type=int, default=library, help="RNG seed")
    p_verify.add_argument("--max-m", type=int, default=library, help="largest order in the grid")
    p_verify.add_argument("--max-dim", type=int, default=library, help="largest grid dimension")

    p_repro = sub.add_parser(
        "reproduce-paper",
        parents=[common],
        help="re-derive the tabulated small-instance matrices and diff them entrywise",
    )
    p_repro.add_argument("--gamma", type=_parse_gamma, default=library)

    return parser


def _given(args, **keywords) -> dict:
    """The library keywords, as ``keyword=dest``, whose options were given."""
    return {key: getattr(args, dest) for key, dest in keywords.items() if dest in args}


def _instance(args):
    if args.kind == "rotator":
        return make_rotator(args.m, **_given(args, blocks="blocks"))
    if args.kind == "shift":
        return make_circular_shift(args.m, **_given(args, block_dim="block_dim"))
    if not args.matrix_path:
        raise ParameterError("--matrix-path is required for --kind dense-file")
    return make_dense(load_matrix(args.matrix_path), args.m, **_given(args, tol="dense_tol"))


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _items(value):
    """``value``, or the ``tolist()`` of an array: made a row or a slice at a time."""
    return value.tolist() if isinstance(value, np.ndarray) else value


def _is_rows(value) -> bool:
    """A 2-d array with rows, or a list of lists or 1-d arrays: printed a row a line."""
    if isinstance(value, np.ndarray):
        return value.ndim == 2 and len(value) > 0
    return isinstance(value, list) and bool(value) and isinstance(value[0], (list, np.ndarray))


def _is_records(value) -> bool:
    return isinstance(value, list) and bool(value) and isinstance(value[0], dict)


def _csv_lines(payload: dict):
    for key, value in payload.items():
        if _is_rows(value):
            yield f"# {key}"
            for row in value:
                yield ",".join(_fmt(v) for v in _items(row))
        elif _is_records(value):
            columns = [c for c in value[0] if not isinstance(value[0][c], (list, np.ndarray))]
            yield f"# {key}"
            yield ",".join(columns)
            for row in value:
                yield ",".join(_fmt(row[c]) for c in columns)
        elif isinstance(value, (list, np.ndarray)):
            yield f"{key}," + ",".join(_fmt(v) for v in _items(value))
        else:
            yield f"{key},{_fmt(value)}"


def _pretty_lines(payload: dict):
    for key, value in payload.items():
        if _is_rows(value):
            yield f"{key}:"
            for row in value:
                yield "  " + "  ".join(f"{v: .12f}" for v in _items(row))
        elif _is_records(value):
            yield f"{key}:"
            for row in value:
                status = ""
                if "pass" in row:
                    status = "PASS  " if row["pass"] else "FAIL  "
                detail = "  ".join(
                    f"{c}={_fmt(v)}"
                    for c, v in row.items()
                    if not isinstance(v, (list, np.ndarray))
                )
                yield f"  {status}{detail}"
        elif isinstance(value, (list, np.ndarray)):
            yield f"{key}: " + "  ".join(_fmt(v) for v in _items(value))
        else:
            yield f"{key}: {_fmt(value)}"


#: json's C encoder, which it uses only when ``indent`` is None
_encode = json.JSONEncoder().encode
#: the types of the JSON scalars: a list of them alone is indented only between
#: its items, so one call of an encoder with that item separator lays it out
_SCALARS = frozenset((float, int, bool, type(None)))
#: items per chunk of a list of scalars, so that a long vector is not one string
_SLICE = 1024


def _is_flat(value) -> bool:
    """A 1-d array, or a list of JSON scalars alone: encoded a slice at a time."""
    if isinstance(value, np.ndarray):
        return value.ndim == 1
    return set(map(type, value)) <= _SCALARS


def _json_chunks(value, pad: str = "\n"):
    """Yield the text of ``json.dumps(value, indent=2)``, where each array stands
    for its ``tolist()``, in pieces of at most one list of scalars, or _SLICE
    items of a longer one.

    ``pad`` is the newline and indentation of the line that holds ``value``.
    Dicts, lists holding anything but scalars, and arrays of two or more axes
    are taken apart here as json's pure-Python indenting encoder does, an array
    row by row; a list of scalars, or a 1-d array made a list a slice at a time,
    goes to the C encoder whole, in place of that encoder's one chunk per item,
    with the newline and indentation in its item separator.
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
    elif isinstance(value, (list, tuple, np.ndarray)) and len(value):
        if _is_flat(value):
            encode = json.JSONEncoder(separators=("," + inner, ": ")).encode  # C, no indent
            for start in range(0, len(value), _SLICE):
                text = encode(_items(value[start : start + _SLICE]))
                yield ("," if start else "[") + inner + text[1:-1]
        else:
            sep = "["
            for item in value:
                yield sep + inner
                yield from _json_chunks(item, inner)
                sep = ","
        yield pad + "]"
    else:
        yield _encode(_items(value))  # a scalar, a string, or an empty list, dict or array


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        # the bytes of print(json.dumps(payload, indent=2)) with each array's
        # tolist(), written a chunk at a time so that the whole document is never
        # one string and no array is ever a list as a whole
        for chunk in _json_chunks(payload):
            sys.stdout.write(chunk)
        sys.stdout.write("\n")
    else:  # a line at a time, so that the whole document is never one string
        for line in (_csv_lines if fmt == "csv" else _pretty_lines)(payload):
            print(line)


def _payload(args) -> dict:
    """The data that subcommand ``args.command`` prints."""
    if args.command == "verify":
        reports = run_verification(**_given(args, seed="seed", max_m="max_m", max_dim="max_dim"))
        all_pass = all(r.passed for r in reports)
        return {"reports": [r.to_dict() for r in reports], "all_pass": all_pass}
    if args.command == "reproduce-paper":
        rows = reproduce_worked_examples(**_given(args, gamma="gamma"))
        return {"cases": rows, "all_pass": all(r["pass"] for r in rows)}

    R = _instance(args)
    if args.command == "show":
        return {
            "kind": R.kind,
            "m": R.order,
            "dim": R.dim,
            "isometry": materialize(R),
            "fixed_projector": materialize(projector_fix(R)),
            "skew_part": materialize(skew_part(R)),
            "pseudo_inverse": materialize(pseudo_inverse(R)),
        }
    if args.command == "solve":
        solution = set_valued_inverse(R, load_vector(args.rhs), **_given(args, tol="tol"))
        if solution is None:
            return {"message": "not in range of M"}
        return {"point": solution.point, "basis": solution.basis}
    if args.command == "iterate":
        return proximal_point(
            R, args.gamma, load_vector(args.x0), **_given(args, max_iter="max_iter", stop_tol="tol")
        ).to_dict()

    if args.command == "pinv":
        op, payload = pseudo_inverse(R), {"operator": "pseudo_inverse"}
    else:
        name = args.command + ("_inverse" if args.inverse else "")
        op = OPERATOR_BUILDERS[name](R, args.gamma)
        payload = {"operator": name, "gamma": float(args.gamma)}
    payload.update(m=op.order, coefficients=op.coefficients)
    if args.materialize:
        payload["matrix"] = materialize(op)
    if args.apply:
        payload["result"] = op.apply(load_vector(args.apply))
    return payload


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        payload = _payload(args)
    except DisplacementKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.command == "iterate" and args.format == "csv":  # the residuals alone, one a line
        print("\n".join(format(r, ".17g") for r in payload["residuals"]))
    else:
        _emit(payload, args.format)
    return 0 if payload.get("all_pass", True) else 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
