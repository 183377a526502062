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


def _load(path, shape: tuple, kind: str, json_form: str, csv_form: str) -> np.ndarray:
    """A finite float array of ``len(shape)`` axes from a .json or CSV file.

    ``json_form`` and ``csv_form`` name the layout in the message of a file
    that does not parse as one; a vector may also come as a single row or column.
    ``_check_array`` can then only fail on the number of axes or on a NaN/inf
    entry, and each keeps this module's message.
    """
    p = str(path)
    if p.endswith(".json"):
        obj = _read_json(p)
        try:
            arr = _real_array(obj, p)
        except ParameterError:
            raise ParameterError(f"{p}: expected {json_form}") from None
    else:
        try:
            arr = np.loadtxt(p, delimiter=",", ndmin=len(shape))
        except OSError as exc:
            raise ParameterError(f"cannot read {p}: {exc}") from exc
        except ValueError as exc:
            raise ParameterError(f"{p} is not a {csv_form}: {exc}") from exc
    if len(shape) == 1 and arr.ndim == 2 and 1 in arr.shape:
        arr = arr.ravel()
    try:
        return _check_array(arr, p, shape)
    except ParameterError:
        if arr.ndim == len(shape):
            raise ParameterError(f"{p} contains non-finite entries") from None
        raise ParameterError(f"{p}: expected a {kind}, got array of shape {arr.shape}") from None


def load_matrix(path) -> np.ndarray:
    """Read a matrix from a .json (arrays-of-rows) or CSV file."""
    return _load(
        path, (None, None), "matrix", "an array of equal-length rows", "rectangular CSV matrix"
    )


def load_vector(path) -> np.ndarray:
    """Read a vector from a .json (flat array) or CSV (single row or column) file."""
    return _load(path, (None,), "vector", "a flat array of numbers", "CSV vector")
