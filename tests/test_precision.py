"""The one conversion between a half-precision and its structure's array
form: `as_array` and its inverse `from_array`."""

import numpy as np
import pytest

from covsel.errors import NotPositiveDefiniteError, SupportError
from covsel.precision import DiagPrecision, FullPrecision, IsoPrecision, as_array, from_array

FULL = FullPrecision(np.array([[1.0, 0.3], [0.3, 2.0]]))
FULL_DIAG = FullPrecision(np.diag([0.5, 2.0]))
FULL_ISO = FullPrecision(0.7 * np.eye(2))
DIAG = DiagPrecision(np.array([0.5, 2.0]))
DIAG_ISO = DiagPrecision(np.array([0.7, 0.7]))
ISO = IsoPrecision(0.7, 2)


@pytest.mark.parametrize(
    "theta, structure, want",
    [
        (FULL, "A", [[1.0, 0.3], [0.3, 2.0]]),
        (FULL_DIAG, "D", [0.5, 2.0]),
        (FULL_ISO, "C", 0.7),
        (DIAG, "A", [[0.5, 0.0], [0.0, 2.0]]),
        (DIAG, "D", [0.5, 2.0]),
        (DIAG_ISO, "C", 0.7),
        (ISO, "A", [[0.7, 0.0], [0.0, 0.7]]),
        (ISO, "D", [0.7, 0.7]),
        (ISO, "C", 0.7),
    ],
)
def test_as_array(theta, structure, want):
    got = as_array(theta, structure)
    assert np.shape(got) == np.shape(want)
    np.testing.assert_array_equal(got, want)
    back = from_array(structure, got, theta.dim)
    assert (back.structure, back.dim) == (structure, theta.dim)
    np.testing.assert_array_equal(back.as_matrix(), theta.as_matrix())


@pytest.mark.parametrize(
    "theta, structure, message",
    [
        (FULL, "D", "half-precision is not diagonal"),
        (FULL, "C", "half-precision is not diagonal"),
        (FULL_DIAG, "C", "half-precision is not a multiple of the identity"),
        (DIAG, "C", "half-precision is not a multiple of the identity"),
    ],
)
def test_as_array_outside_the_structure(theta, structure, message):
    with pytest.raises(SupportError, match=message):
        as_array(theta, structure)


@pytest.mark.parametrize(
    "structure, value, kind, error",
    [
        ("A", [[2.0, 0.5], [0.5, 1.0]], FullPrecision, NotPositiveDefiniteError),
        ("D", [1.0, 2.0], DiagPrecision, SupportError),
        ("C", 1.5, IsoPrecision, SupportError),
    ],
)
def test_from_array_validates(structure, value, kind, error):
    assert isinstance(from_array(structure, np.asarray(value), 2), kind)
    with pytest.raises(error):
        from_array(structure, -np.asarray(value), 2)
