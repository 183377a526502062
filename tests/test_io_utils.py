"""Matrix/vector file formats and the wire schemas the CLI prints in them."""

import json

import numpy as np
import pytest

from displacement_kit import ParameterError
from displacement_kit.cli import main
from displacement_kit.io_utils import load_matrix, load_vector
from io_helpers import save_matrix, save_vector


def test_matrix_json_round_trip(tmp_path):
    path = tmp_path / "mat.json"
    a = np.array([[1.0, 2.5], [-3.0, 0.125]])
    save_matrix(path, a)
    np.testing.assert_array_equal(load_matrix(path), a)
    # the file really is arrays-of-rows JSON
    assert json.loads(path.read_text()) == [[1.0, 2.5], [-3.0, 0.125]]


def test_matrix_csv_round_trip(tmp_path):
    path = tmp_path / "mat.csv"
    a = np.array([[1.0, 1 / 3], [2.0, -0.7]])
    save_matrix(path, a)
    np.testing.assert_array_equal(load_matrix(path), a)
    assert "." in path.read_text()  # '.' decimal separator, row-major lines


def test_vector_round_trips(tmp_path):
    v = np.array([1.0, -2.0, 0.5])
    jpath = tmp_path / "v.json"
    cpath = tmp_path / "v.csv"
    save_vector(jpath, v)
    save_vector(cpath, v)
    np.testing.assert_array_equal(load_vector(jpath), v)
    np.testing.assert_array_equal(load_vector(cpath), v)


def test_vector_accepts_csv_column(tmp_path):
    path = tmp_path / "col.csv"
    path.write_text("1.0\n2.0\n3.0\n")
    np.testing.assert_array_equal(load_vector(path), [1.0, 2.0, 3.0])


@pytest.mark.parametrize("text", ["[[1, 2, 3]]", "[[1], [2], [3]]"], ids=["row", "column"])
def test_vector_accepts_a_json_row_or_column(tmp_path, text):
    path = tmp_path / "v.json"
    path.write_text(text)
    np.testing.assert_array_equal(load_vector(path), [1.0, 2.0, 3.0])


def test_vector_accepts_single_entry(tmp_path):
    path = tmp_path / "one.csv"
    path.write_text("4.25\n")
    np.testing.assert_array_equal(load_vector(path), [4.25])


def test_load_matrix_missing_file_names_path(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(ParameterError, match="nope.json"):
        load_matrix(missing)


def test_load_matrix_rejects_malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ParameterError, match="bad.json"):
        load_matrix(path)


def test_load_matrix_rejects_ragged_rows(tmp_path):
    path = tmp_path / "ragged.json"
    path.write_text("[[1.0, 2.0], [3.0]]")
    with pytest.raises(ParameterError):
        load_matrix(path)


def test_load_matrix_rejects_non_finite(tmp_path):
    path = tmp_path / "inf.json"
    path.write_text('[[1.0, 2.0], [3.0, 1e999]]')
    with pytest.raises(ParameterError, match="finite"):
        load_matrix(path)


@pytest.mark.parametrize("suffix", [".json", ".csv"])
def test_load_vector_rejects_non_finite_naming_path(tmp_path, suffix):
    path = tmp_path / f"inf{suffix}"
    path.write_text("[1.0, -1e999]" if suffix == ".json" else "1.0,inf\n")
    with pytest.raises(ParameterError) as info:
        load_vector(path)
    assert str(info.value) == f"{path} contains non-finite entries"


@pytest.mark.parametrize(
    "load, text, message",
    [
        (load_matrix, '[[1.0, "2"], [3.0, 4.0]]', "expected an array of equal-length rows"),
        (load_matrix, "[[1.0, null], [3.0, 4.0]]", "expected an array of equal-length rows"),
        (load_vector, '[1.0, "2"]', "expected a flat array of numbers"),
        (load_vector, "[1.0, {}]", "expected a flat array of numbers"),
    ],
)
def test_load_refuses_non_numeric_json_naming_path(tmp_path, load, text, message):
    path = tmp_path / "words.json"
    path.write_text(text)
    with pytest.raises(ParameterError) as info:
        load(path)
    assert str(info.value) == f"{path}: {message}"


@pytest.mark.parametrize(
    "load, text, message",
    [
        (load_matrix, "[1.0, 2.0]", "expected a matrix, got array of shape (2,)"),
        (load_vector, "3.5", "expected a vector, got array of shape ()"),
        (load_vector, "[[[1.0]]]", "expected a vector, got array of shape (1, 1, 1)"),
    ],
)
def test_load_rejects_wrong_shape_naming_path(tmp_path, load, text, message):
    path = tmp_path / "shape.json"
    path.write_text(text)
    with pytest.raises(ParameterError) as info:
        load(path)
    assert str(info.value) == f"{path}: {message}"


@pytest.mark.parametrize(
    "load, name, text, prefix",
    [
        (load_matrix, "m.csv", "1.0,2.0\n3.0\n", "{path} is not a rectangular CSV matrix: "),
        (load_vector, "v.csv", "1.0,x\n", "{path} is not a CSV vector: "),
        (load_matrix, "missing.csv", None, "cannot read {path}: "),
        (load_vector, "missing.csv", None, "cannot read {path}: "),
        (load_vector, "missing.json", None, "cannot read {path}: "),
        (load_vector, "bad.json", "[1.0,", "{path} is not valid JSON: "),
        (load_vector, "m.csv", "1,2\n3,4\n", "{path}: expected a vector, got array of shape (2, 2)"),
    ],
)
def test_load_names_the_path_and_the_form_for_each_format(tmp_path, load, name, text, prefix):
    # the matrix and the vector reader are one, with each message of its own
    path = tmp_path / name
    if text is not None:
        path.write_text(text)
    with pytest.raises(ParameterError) as info:
        load(path)
    assert str(info.value).startswith(prefix.format(path=path))


def test_load_converts_integers_to_float(tmp_path):
    path = tmp_path / "ints.json"
    path.write_text("[[1, 0], [0, 1]]")
    loaded = load_matrix(path)
    assert loaded.dtype == np.float64
    np.testing.assert_array_equal(loaded, np.eye(2))


def test_load_vector_rejects_matrix_shape(tmp_path):
    path = tmp_path / "mat.json"
    path.write_text("[[1.0, 2.0], [3.0, 4.0]]")
    with pytest.raises(ParameterError):
        load_vector(path)


def _cli_json(capsys, *argv):
    assert main(list(argv)) == 0
    return json.loads(capsys.readouterr().out)


def test_polynomial_wire_schema(capsys, tmp_path):
    data = _cli_json(capsys, "pinv", "--kind", "shift", "--m", "3")
    assert {k: data[k] for k in ("m", "coefficients")} == {"m": 3, "coefficients": [1 / 3, 0.0, -1 / 3]}
    # the coefficient list is the JSON vector format the loaders read
    path = tmp_path / "coefficients.json"
    path.write_text(json.dumps(data["coefficients"]))
    np.testing.assert_array_equal(load_vector(path), [1 / 3, 0.0, -1 / 3])


def test_affine_subspace_wire_schema(capsys, tmp_path):
    rhs = tmp_path / "rhs.json"
    save_vector(rhs, [1.0, -1.0])
    data = _cli_json(capsys, "solve", "--kind", "shift", "--m", "2", "--rhs", str(rhs))
    assert set(data) == {"point", "basis"}
    np.testing.assert_allclose(data["point"], [0.5, -0.5], rtol=0, atol=1e-15)
    assert len(data["basis"]) == 1 and len(data["basis"][0]) == 2
    # point and basis are the JSON vector and matrix formats the loaders read
    point, basis = tmp_path / "point.json", tmp_path / "basis.json"
    point.write_text(json.dumps(data["point"]))
    basis.write_text(json.dumps(data["basis"]))
    np.testing.assert_array_equal(load_vector(point), data["point"])
    np.testing.assert_array_equal(load_matrix(basis), data["basis"])
