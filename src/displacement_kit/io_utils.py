"""File formats: matrices and vectors as JSON arrays-of-rows or CSV (row-major,
'.' decimal separator).  A JSON file holds ``ndarray.tolist()``, the form in
which the CLI prints its arrays too."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import ParameterError
from .isometry_core import _check_array, _real_array


def _read_json(path: str):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParameterError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParameterError(f"{path} is not valid JSON: {exc}") from exc


def _real_or_raise(obj, path: str, expected: str) -> np.ndarray:
    try:
        return _real_array(obj, path)
    except ParameterError:
        raise ParameterError(f"{path}: expected {expected}") from None


def _checked(arr: np.ndarray, path: str, shape: tuple, kind: str) -> np.ndarray:
    """``arr`` (already float) through ``_check_array``, which can then only fail on
    the number of axes or on a NaN/inf entry; each keeps this module's message."""
    try:
        return _check_array(arr, path, shape)
    except ParameterError:
        if arr.ndim != len(shape):
            shape_text = f"expected a {kind}, got array of shape {arr.shape}"
            raise ParameterError(f"{path}: {shape_text}") from None
        raise ParameterError(f"{path} contains non-finite entries") from None


def load_matrix(path) -> np.ndarray:
    """Read a matrix from a .json (arrays-of-rows) or CSV file."""
    p = str(path)
    if p.endswith(".json"):
        arr = _real_or_raise(_read_json(p), p, "an array of equal-length rows")
    else:
        try:
            arr = np.loadtxt(p, delimiter=",", ndmin=2)
        except OSError as exc:
            raise ParameterError(f"cannot read {p}: {exc}") from exc
        except ValueError as exc:
            raise ParameterError(f"{p} is not a rectangular CSV matrix: {exc}") from exc
    return _checked(arr, p, (None, None), "matrix")


def load_vector(path) -> np.ndarray:
    """Read a vector from a .json (flat array) or CSV (single row or column) file."""
    p = str(path)
    if p.endswith(".json"):
        arr = _real_or_raise(_read_json(p), p, "a flat array of numbers")
    else:
        try:
            arr = np.atleast_1d(np.loadtxt(p, delimiter=","))
        except OSError as exc:
            raise ParameterError(f"cannot read {p}: {exc}") from exc
        except ValueError as exc:
            raise ParameterError(f"{p} is not a CSV vector: {exc}") from exc
    if arr.ndim == 2 and 1 in arr.shape:
        arr = arr.ravel()
    return _checked(arr, p, (None,), "vector")

