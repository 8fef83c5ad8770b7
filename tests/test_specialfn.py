import math

import numpy as np
import pytest
from scipy.special import gammaln

from covsel.errors import AsymmetricMatrixError, NotPositiveDefiniteError
from covsel.specialfn import chi_square_sf, chol_log_det, log_mv_gamma, symmetrize


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


class TestChiSquareSf:
    def test_at_zero(self):
        assert chi_square_sf(0.0, 1) == 1.0

    def test_one_dof_normal_tail(self):
        # P(chi2_1 > x) = 2 (1 - Phi(sqrt(x)))
        x = 4.05
        expected = 2 * (1 - 0.5 * (1 + math.erf(math.sqrt(x) / math.sqrt(2))))
        assert chi_square_sf(x, 1) == pytest.approx(expected, abs=1e-10)
        assert chi_square_sf(x, 1) == pytest.approx(0.04417, abs=1e-4)

    def test_standard_quantile(self):
        assert chi_square_sf(3.841459, 1) == pytest.approx(0.05, abs=1e-6)

    def test_two_dof_closed_form(self):
        for x in (0.1, 1.0, 5.0, 20.0):
            assert chi_square_sf(x, 2) == pytest.approx(math.exp(-x / 2), abs=1e-12)

    def test_accuracy_against_quadrature(self):
        # independent oracle: numerically integrate the density tail
        from scipy.integrate import quad

        for dof in range(1, 11):
            for x in (0.5, 2.0, 7.0):
                def dens(t):
                    return (
                        t ** (dof / 2 - 1)
                        * math.exp(-t / 2)
                        / (2 ** (dof / 2) * math.exp(gammaln(dof / 2)))
                    )

                val, _ = quad(dens, x, np.inf, epsabs=1e-12, epsrel=1e-12)
                assert chi_square_sf(x, dof) == pytest.approx(val, abs=1e-8)

    def test_clamping(self):
        assert chi_square_sf(-1.0, 1) == 1.0
        assert chi_square_sf(1e9, 3) == 0.0
