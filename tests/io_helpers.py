"""Writers of the matrix and vector files that ``io_utils`` reads, for the tests."""

import json
from pathlib import Path

import numpy as np


def save_matrix(path, matrix) -> None:
    """Write a matrix as JSON arrays-of-rows (.json) or CSV (anything else)."""
    p = str(path)
    arr = np.asarray(matrix, dtype=float)
    if p.endswith(".json"):
        Path(p).write_text(json.dumps(arr.tolist()))
    else:
        np.savetxt(p, np.atleast_2d(arr), delimiter=",", fmt="%.17g")


def save_vector(path, vector) -> None:
    """Write a vector as a flat JSON array (.json) or a one-row CSV (anything else)."""
    p = str(path)
    arr = np.asarray(vector, dtype=float)
    if p.endswith(".json"):
        Path(p).write_text(json.dumps(arr.tolist()))
    else:
        np.savetxt(p, arr.reshape(1, -1), delimiter=",", fmt="%.17g")
