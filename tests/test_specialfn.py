import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import gammaln

from covsel.errors import AsymmetricMatrixError, NotPositiveDefiniteError
from covsel.specialfn import chol_log_det, cholesky_stack, log_mv_gamma, symmetrize, tril_inverse


def random_pd(rng, d, dof=None):
    # Wishart-style sample: G G^T with a couple extra degrees of freedom
    g = rng.standard_normal((d, (dof or d) + 2))
    return g @ g.T / (d + 2)


class TestLogMvGamma:
    def test_univariate_reduces_to_log_gamma(self):
        assert log_mv_gamma(1, 2.5) == pytest.approx(float(gammaln(2.5)), abs=1e-12)
        assert log_mv_gamma(1, 2.5) == pytest.approx(0.28468, abs=1e-5)

    def test_d2_product_formula(self):
        # Gamma_2(1.5) = sqrt(pi) * Gamma(1.5) * Gamma(1) = pi/2
        assert log_mv_gamma(2, 1.5) == pytest.approx(math.log(math.pi / 2), abs=1e-12)
        assert log_mv_gamma(2, 1.5) == pytest.approx(0.45158, abs=1e-5)

    def test_d3_product_formula(self):
        expected = 1.5 * math.log(math.pi) + float(
            gammaln(3.0) + gammaln(2.5) + gammaln(2.0)
        )
        assert log_mv_gamma(3, 3.0) == pytest.approx(expected, abs=1e-12)
        assert log_mv_gamma(3, 3.0) == pytest.approx(2.69493, abs=1e-5)

    def test_matches_scalar_log_gamma_on_grid(self):
        rng = np.random.default_rng(1)
        a = rng.uniform(0.5, 50.0, size=1000)
        got = np.array([log_mv_gamma(1, v) for v in a])
        np.testing.assert_allclose(got, gammaln(a), atol=1e-12, rtol=0)

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_recurrence(self, d):
        rng = np.random.default_rng(d)
        for a in rng.uniform(d / 2 + 0.3, 30.0, size=50):
            lhs = log_mv_gamma(d, a + 1) - log_mv_gamma(d, a)
            rhs = sum(math.log(a + (1 - j) / 2) for j in range(1, d + 1))
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_dimension_rejected(self):
        with pytest.raises(ValueError, match="dimension must be >= 1, got 0"):
            log_mv_gamma(0, 1.0)

    def test_pole_rejected(self):
        with pytest.raises(ValueError):
            log_mv_gamma(3, 1.0)
        with pytest.raises(ValueError):
            log_mv_gamma(1, 0.0)


class TestCholLogDet:
    def test_identity(self):
        for d in (1, 2, 5):
            assert chol_log_det(np.eye(d)) == 0.0

    def test_diagonal(self):
        assert chol_log_det(np.diag([4.0, 9.0])) == pytest.approx(math.log(36.0), abs=1e-12)

    def test_indefinite_rejected(self):
        with pytest.raises(NotPositiveDefiniteError):
            chol_log_det(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_asymmetric_rejected(self):
        with pytest.raises(AsymmetricMatrixError):
            chol_log_det(np.array([[1.0, 0.5], [0.2, 1.0]]))

    def test_against_eigenvalue_oracle(self):
        rng = np.random.default_rng(7)
        for d in range(1, 7):
            for _ in range(20):
                s = random_pd(rng, d)
                eig = np.linalg.eigvalsh(s)
                assert chol_log_det(s) == pytest.approx(np.log(eig).sum(), abs=1e-8)

    def test_symmetrize_tolerates_roundoff(self):
        s = np.array([[2.0, 0.3], [0.3 + 1e-12, 1.0]])
        out = symmetrize(s)
        np.testing.assert_allclose(out, out.T)

    def test_symmetrize_near_the_largest_float(self):
        # s + s^T overflows above half the largest float, so s is halved first;
        # a RuntimeWarning would fail the test (pytest's filterwarnings)
        s = np.array([[1e308, 0.5], [0.5, 2.0]])
        np.testing.assert_array_equal(symmetrize(s), s)
        t = np.array([[3.0, 1.0], [1.0 + 2e-16, 1.0]])
        np.testing.assert_array_equal(symmetrize(t), (t + t.T) / 2)



def cholesky_loop(m, what):
    """The per-member loop `cholesky_stack` ran once any member failed,
    kept as its oracle."""
    chol, errors = np.empty_like(m), {}
    for i, mi in enumerate(m):
        try:
            chol[i] = np.linalg.cholesky(mi)
        except np.linalg.LinAlgError as exc:
            chol[i] = np.eye(m.shape[-1])
            errors[i] = NotPositiveDefiniteError(f"{what} is not positive definite: {exc}")
    return chol, errors


class TestCholeskyStack:
    @pytest.mark.parametrize(
        "r, bad",
        [(1, ()), (1, (0,)), (2, (1,)), (7, (0, 6)), (64, (5,)), (64, (30, 31, 32, 63)),
         (33, tuple(range(33)))],
    )
    def test_matches_the_per_member_loop(self, r, bad):
        rng = np.random.default_rng(r + len(bad))
        m = np.stack([random_pd(rng, 3) for _ in range(r)])
        m[list(bad)] = np.diag([1.0, -1.0, 1.0])
        chol, errors = cholesky_stack(m, "s + B")
        want_chol, want_errors = cholesky_loop(m, "s + B")
        np.testing.assert_array_equal(chol, want_chol)
        assert list(errors) == list(want_errors) == list(bad)
        assert [(type(e), str(e)) for e in errors.values()] == [
            (type(e), str(e)) for e in want_errors.values()
        ]

    def test_retries_only_the_halves_that_fail(self, monkeypatch):
        calls = []
        cholesky = np.linalg.cholesky

        def counting(a):
            calls.append(len(a))
            return cholesky(a)

        rng = np.random.default_rng(3)
        m = np.stack([random_pd(rng, 3) for _ in range(64)])
        m[40] = 0.0
        monkeypatch.setattr(np.linalg, "cholesky", counting)
        assert list(cholesky_stack(m)[1]) == [40]
        # the whole stack, then both halves at each of log2(64) = 6 levels
        assert len(calls) == 13 and sum(calls) == 64 + 2 * (32 + 16 + 8 + 4 + 2 + 1)


def conditioned_factors(seed, r, d, log_cond):
    """Cholesky factors of r random d x d positive definite matrices whose
    eigenvalues span 10^log_cond, at scales from 1e-3 to 1e3."""
    rng = np.random.default_rng(seed)
    m = np.empty((r, d, d))
    for i in range(r):
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        eigenvalues = np.logspace(0, log_cond, d) * 10 ** rng.uniform(-3, 3)
        m[i] = (q * eigenvalues) @ q.T
    return np.linalg.cholesky((m + m.swapaxes(-1, -2)) / 2)


def assert_inverse_close(got, chol, rtol=1e-12):
    """Each matrix of `got` within rtol of LAPACK's inverse of its factor,
    relative to the inverse's largest entry."""
    want = np.linalg.inv(chol)
    scale = np.abs(want).max(axis=(-2, -1), initial=0.0)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want).max(axis=(-2, -1), initial=0.0) <= rtol * scale)


class TestTrilInverse:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        r=st.integers(0, 6),
        d=st.integers(1, 8),
        log_cond=st.floats(0.0, 12.0),
    )
    def test_matches_lapack_inverse(self, seed, r, d, log_cond):
        chol = conditioned_factors(seed, r, d, log_cond)
        inv = tril_inverse(chol)
        assert_inverse_close(inv, chol)
        assert np.all(np.triu(inv, 1) == 0) and not np.signbit(np.triu(inv, 1)).any()
        assert np.diagonal(inv, axis1=-2, axis2=-1).tobytes() == (
            1 / np.diagonal(chol, axis1=-2, axis2=-1)
        ).tobytes()

    @pytest.mark.parametrize("d", range(1, 9))
    def test_one_matrix_and_stacks_of_any_shape(self, d):
        chol = conditioned_factors(d, 6, d, 4.0)
        inv = tril_inverse(chol)
        assert tril_inverse(chol[2]).tobytes() == inv[2].tobytes()
        assert tril_inverse(chol.reshape(2, 3, d, d)).tobytes() == inv.tobytes()
        for rows in ([0], [1, 2, 3], [0, 2, 4], [5, 0]):  # stack-mates move no bit
            assert tril_inverse(chol[rows]).tobytes() == inv[rows].tobytes()

    @pytest.mark.parametrize("d", [0, 1, 3, 8])
    def test_empty_stack(self, d):
        inv = tril_inverse(np.empty((0, d, d)))
        assert inv.shape == (0, d, d)
        assert tril_inverse(np.empty((3, 0, 0))).shape == (3, 0, 0)

    def test_identity_stand_ins_of_cholesky_stack(self):
        rng = np.random.default_rng(8)
        m = np.stack([random_pd(rng, 4) for _ in range(5)])
        m[[1, 3]] = np.diag([1.0, -1.0, 1.0, 1.0])  # not positive definite
        chol, errors = cholesky_stack(m)
        assert sorted(errors) == [1, 3]
        inv = tril_inverse(chol)
        assert inv[[1, 3]].tobytes() == np.broadcast_to(np.eye(4), (2, 4, 4)).tobytes()
        assert_inverse_close(inv, chol)

    def test_diagonal_factor_is_lapacks_bit_for_bit(self):
        # the Cholesky factor of simulate's generating rate beta I, and of any diagonal
        chol = np.linalg.cholesky(np.diag([0.5, 1.0, 3.0, 7.3]))[None] * [[[1.0]], [[2.5]]]
        inv = tril_inverse(chol)
        assert inv.tobytes() == np.linalg.inv(chol).tobytes()
        assert not np.signbit(inv).any()
