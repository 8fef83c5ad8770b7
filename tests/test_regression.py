"""Conjugate multivariate regression.

The package computes everything from the Gram matrix of [X Y] and scores
the covariate subsets of one size as one stack. Two implementations it
replaced are kept here as oracles, so that the stacked Gram path is the
package's only one: the n-row implementation (coefficients, residual and
effective scatters, joint mode, evidence and flexibility on the raw
rows), and the per-subset Gram path, which sliced the Gram matrix and
the prior for one subset at a time and finished each structure's report
with scalar half-precision arithmetic.
"""

import inspect
import math
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

import covsel.regression as regression
from covsel.data import SuffStats
from covsel.errors import (
    ConfigError,
    CovselError,
    DimensionMismatchError,
    EmptyDatasetError,
    NonRegularPriorError,
    SupportError,
)
from covsel.precision import DiagPrecision, FullPrecision, IsoPrecision
from covsel.priors import (
    GammaHyper,
    GammaVecHyper,
    WishartHyper,
    conjugate_update,
    log_normalizer,
    log_prior_density,
    sample_half_precision,
)
from covsel.regression import (
    EffectiveStats,
    RegressionData,
    RegressionFit,
    RegressionHyper,
    effective_stats,
    enumerate_covariates,
    fit_coefficients,
    fit_regression,
    joint_flexibility,
    joint_map,
    lambda_path,
    log_evidence_regression,
    log_joint_prior,
    log_likelihood_regression,
    residual_stats,
    standard_hypers,
)
from covsel.specialfn import LOG_PI, chol_log_det, cholesky_pd
from covsel.structures import (
    fit_structure,
    flexibility,
    log_evidence,
    log_likelihood,
    param_count,
)

from conftest import regression_pick, theta_log_det, theta_trace_product

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True)


# ---------------------------------------------------------------------------
# Oracle: the n-row implementation the Gram statistics replaced
# ---------------------------------------------------------------------------


def rows_fit_coefficients(data, nu, lam):
    if data.d2 == 0:
        return np.zeros((data.d1, 0))
    gram = data.x.T @ data.x + lam
    rhs = data.y.T @ data.x + nu @ lam
    return np.linalg.solve(gram.T, rhs.T).T


def rows_residual_stats(data, gamma_hat):
    eps = data.y - data.x @ np.atleast_2d(gamma_hat).T if data.d2 else data.y
    s = eps.T @ eps
    return SuffStats(n=data.n, d=data.d1, s=(s + s.T) / 2)


def rows_effective_stats(data, rh):
    gamma_hat = rows_fit_coefficients(data, rh.nu, rh.lam)
    r = rows_residual_stats(data, gamma_hat).s
    if data.d2:
        dev = gamma_hat - rh.nu
        r = r + dev @ rh.lam @ dev.T
    return gamma_hat, SuffStats(n=data.n, d=data.d1, s=(r + r.T) / 2)


def rows_log_likelihood(data, gamma, theta):
    n, d1 = data.n, data.d1
    if n == 0:
        return 0.0
    q = rows_residual_stats(data, gamma).s
    return float(n / 2 * theta_log_det(theta) - n * d1 / 2 * LOG_PI - theta_trace_product(theta, q))


def rows_log_evidence(data, rh):
    _, eff = rows_effective_stats(data, rh)
    lam_factor = 0.0
    if data.d2:
        lam_factor = data.d1 / 2 * (
            chol_log_det(rh.lam) - chol_log_det(data.x.T @ data.x + rh.lam)
        )
    # the structure evidence as the ratio of prior to posterior normalizers
    post = conjugate_update(rh.cov, eff)
    evidence = -eff.n * eff.d / 2 * LOG_PI + log_normalizer(rh.cov) - log_normalizer(post)
    return float(lam_factor + evidence)


def rows_joint_flexibility(data, rh, gamma, theta):
    gamma_hat, eff = rows_effective_stats(data, rh)
    lam_post = data.x.T @ data.x + rh.lam if data.d2 else rh.lam
    post = RegressionHyper(nu=gamma_hat, lam=lam_post, cov=conjugate_update(rh.cov, eff))
    return log_joint_prior(post, gamma, theta) - log_joint_prior(rh, gamma, theta)


def rows_joint_map(data, rh):
    gamma_hat, eff = rows_effective_stats(data, rh)
    post = conjugate_update(rh.cov, eff)
    d1, d2 = data.d1, data.d2
    if isinstance(post, WishartHyper):
        mult = post.alpha + d2 / 2 - (d1 + 1) / 2
        if mult <= 0:
            raise NonRegularPriorError("joint posterior mode undefined for structure A")
        inv = np.linalg.inv(cholesky_pd(post.rate))
        return gamma_hat, FullPrecision(mult * (inv.T @ inv))
    if isinstance(post, GammaVecHyper):
        shape = post.alpha + d2 / 2
        if shape <= 1:
            raise NonRegularPriorError("joint posterior mode undefined for structure D")
        return gamma_hat, DiagPrecision((shape - 1) / post.rate)
    shape = post.alpha + d1 * d2 / 2
    if shape <= 1:
        raise NonRegularPriorError("joint posterior mode undefined for structure C")
    return gamma_hat, IsoPrecision((shape - 1) / post.rate, d1)


def rows_fit_regression(data, hypers):
    """{structure: (gamma_hat, map, report fields)}, or the CovselError raised."""
    out = {}
    for structure, rh in hypers.items():
        try:
            gamma_hat, theta = rows_joint_map(data, rh)
        except CovselError as exc:
            out[structure] = exc
            continue
        ll = rows_log_likelihood(data, gamma_hat, theta)
        k = param_count(structure, data.d1) + data.d1 * data.d2
        fields = {
            "log_lik_at_map": ll,
            "log_evidence": rows_log_evidence(data, rh),
            "flexibility_at_map": rows_joint_flexibility(data, rh, gamma_hat, theta),
            "bic": None,
            "pc_bic": None,
            "kic": None,
            "k": k,
        }
        if data.n >= 1:
            lp = log_joint_prior(rh, gamma_hat, theta)
            fields["bic"] = ll - k / 2 * math.log(data.n)
            fields["pc_bic"] = ll + lp - k / 2 * math.log(data.n)
        out[structure] = (gamma_hat, theta, fields)
    return out


def close(got, want, rtol=1e-9):
    return abs(got - want) <= rtol * max(1.0, abs(want))


def map_array(theta):
    field = {"A": "matrix", "D": "diag", "C": "value"}[theta.structure]
    return np.atleast_1d(getattr(theta, field))


def random_case(seed, n, d1, d2, collinear, exact):
    """Data and standard hypers with a random shape and rate, a non-zero
    nu and a non-identity Lambda. `collinear` makes the last covariate
    column the first plus 1e-6 noise; `exact` makes the responses a
    1e-6-noise fit with nu at the true coefficients, so R is tiny."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d2))
    if collinear and d2 >= 2:
        x[:, -1] = x[:, 0] + 1e-6 * rng.standard_normal(n)
    gamma = rng.standard_normal((d1, d2))
    noise = 1e-6 if exact else rng.uniform(0.2, 2.0)
    y = x @ gamma.T + noise * rng.standard_normal((n, d1))
    g = rng.standard_normal((d2, d2 + 2))
    lam = g @ g.T / (d2 + 2) + 0.2 * np.eye(d2)
    nu = gamma + 1e-7 * rng.standard_normal((d1, d2)) if exact else rng.standard_normal((d1, d2))
    # shapes at or below (d1 + 1)/2 make some joint modes undefined at small n
    alpha = rng.uniform((d1 - 1) / 2 + 0.05, 5.0)
    hypers = standard_hypers(d1, d2, alpha=alpha, beta=rng.uniform(0.05, 3.0), nu=nu, lam=lam)
    return rng, RegressionData(y, x), hypers


regression_cases = st.builds(
    random_case,
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(0, 12),
    d1=st.integers(1, 3),
    d2=st.integers(0, 4),
    collinear=st.booleans(),
    exact=st.booleans(),
)


def toy_data(rng, n=20, d1=2, d2=3, noise=0.5):
    x = rng.standard_normal((n, d2))
    gamma = rng.standard_normal((d1, d2))
    y = x @ gamma.T + noise * rng.standard_normal((n, d1))
    return RegressionData(y, x)


class TestRegressionData:
    def test_overflowing_gram_is_a_support_error(self):
        # 1e200^2 overflows a float; a RuntimeWarning would fail the test
        with pytest.raises(SupportError, match="Gram matrix .* overflows"):
            RegressionData([[1e200], [2.0], [4.0]], [1.0, 3.0, 5.0])
        data = RegressionData([[1e154], [2.0], [4.0]], [1.0, 3.0, 5.0])
        assert data.gram[1, 1] == 1e154 * 1e154 + 20.0


class TestFitCoefficients:
    def test_empty_sample_returns_prior_mean(self):
        data = RegressionData(np.empty((0, 2)), np.empty((0, 3)))
        nu = np.arange(6.0).reshape(2, 3)
        np.testing.assert_allclose(fit_coefficients(data, nu, np.eye(3)), nu)

    def test_scalar_case(self):
        data = RegressionData([[2.0]], [[1.0]])
        got = fit_coefficients(data, np.zeros((1, 1)), np.eye(1))
        assert got[0, 0] == pytest.approx(1.0)

    def test_infinite_regularization_limit(self):
        rng = np.random.default_rng(0)
        data = toy_data(rng)
        nu = rng.standard_normal((2, 3))
        got = fit_coefficients(data, nu, 1e8 * np.eye(3))
        np.testing.assert_allclose(got, nu, rtol=1e-6)


class TestResidualStats:
    def test_perfect_fit(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((10, 2))
        gamma = np.array([[1.0, -2.0], [0.5, 3.0]])
        data = RegressionData(x @ gamma.T, x)
        st = residual_stats(data, gamma)
        # the scatter comes from the Gram matrix, so it is zero to the
        # rounding of Gram-scale sums
        np.testing.assert_allclose(st.s, np.zeros((2, 2)), atol=1e-13 * np.abs(data.gram).max())

    def test_scalar_residual(self):
        data = RegressionData([[2.0]], [[1.0]])
        st = residual_stats(data, np.array([[1.0]]))
        assert st.s_total == pytest.approx(1.0)

    def test_empty(self):
        data = RegressionData(np.empty((0, 1)), np.empty((0, 1)))
        assert residual_stats(data, np.zeros((1, 1))).n == 0


class TestLogEvidenceRegression:
    def test_no_covariates_reduces_to_plain_evidence(self):
        rng = np.random.default_rng(2)
        y = rng.standard_normal((15, 3))
        data = RegressionData(y, np.empty((15, 0)))
        s = y.T @ y
        stats = SuffStats(n=15, d=3, s=(s + s.T) / 2)
        for cov in (
            WishartHyper(3.0, np.eye(3)),
            GammaVecHyper(2.0, np.ones(3)),
            GammaHyper(2.0, 1.0, 3),
        ):
            rh = RegressionHyper(np.zeros((3, 0)), np.zeros((0, 0)), cov)
            assert log_evidence_regression(data, rh) == pytest.approx(
                log_evidence(cov, stats), abs=1e-10
            )

    def test_quadrature_oracle_d1_d2_one(self):
        rng = np.random.default_rng(3)
        n = 6
        x = rng.standard_normal((n, 1))
        y = 0.8 * x + 0.4 * rng.standard_normal((n, 1))
        data = RegressionData(y, x)
        alpha, beta, lam = 2.0, 1.0, 1.5
        rh = RegressionHyper(np.zeros((1, 1)), lam * np.eye(1), GammaHyper(alpha, beta, 1))

        xs = x[:, 0]
        ys = y[:, 0]

        def log_integrand(g, t):
            eta = math.exp(t)
            resid = ys - g * xs
            ll = n / 2 * math.log(eta / math.pi) - eta * float(resid @ resid)
            # coefficient prior: N(0, 1/(2 eta lam)), density (eta lam / pi)^(1/2) ...
            lp_g = 0.5 * math.log(eta * lam / math.pi) - eta * lam * g * g
            lp_e = alpha * math.log(beta) - math.lgamma(alpha) + (alpha - 1) * t - beta * eta
            return ll + lp_g + lp_e + t  # + t from eta = exp(t)

        g_hat, theta_hat = joint_map(data, rh)
        shift = log_integrand(float(g_hat[0, 0]), math.log(theta_hat.value))
        val, _ = integrate.dblquad(
            lambda t, g: math.exp(log_integrand(g, t) - shift),
            -8.0,
            8.0,
            -12.0,
            8.0,
            epsabs=1e-11,
            epsrel=1e-9,
        )
        oracle = shift + math.log(val)
        assert log_evidence_regression(data, rh) == pytest.approx(oracle, abs=1e-5)

    def test_iris_full_model_value(self, iris_regression):
        y, x, _ = iris_regression
        data = RegressionData(y, x)
        hypers = standard_hypers(2, 3)
        fit = fit_regression(data, hypers)
        assert fit.reports["A"].log_evidence == pytest.approx(-61.2, abs=0.1)


class TestJointIdentity:
    def test_identity_at_arbitrary_points(self):
        rng = np.random.default_rng(4)
        for cov in (
            WishartHyper(3.0, np.eye(2) + 0.2),
            GammaVecHyper(2.0, np.array([0.7, 1.3])),
            GammaHyper(2.5, 1.2, 2),
        ):
            data = toy_data(rng, n=12, d1=2, d2=2)
            rh = RegressionHyper(np.zeros((2, 2)), 0.8 * np.eye(2), cov)
            log_evi = log_evidence_regression(data, rh)
            for _ in range(20):
                gamma = rng.standard_normal((2, 2))
                theta = sample_half_precision(cov, rng)
                resid = log_evi - (
                    log_likelihood_regression(data, gamma, theta)
                    - joint_flexibility(data, rh, gamma, theta)
                )
                assert abs(resid) < 1e-8

    def test_identity_at_joint_map(self):
        rng = np.random.default_rng(5)
        data = toy_data(rng, n=25, d1=3, d2=2)
        rh = standard_hypers(3, 2)["A"]
        gamma, theta = joint_map(data, rh)
        lhs = log_evidence_regression(data, rh)
        rhs = log_likelihood_regression(data, gamma, theta) - joint_flexibility(
            data, rh, gamma, theta
        )
        assert lhs == pytest.approx(rhs, abs=1e-8)

    def test_joint_map_maximizes_posterior(self):
        rng = np.random.default_rng(6)
        data = toy_data(rng, n=18, d1=2, d2=2)
        for structure, rh in standard_hypers(2, 2).items():
            gamma, theta = joint_map(data, rh)
            # log posterior = log prior + log lik (up to the evidence constant)
            def log_post(g, th):
                return log_joint_prior(rh, g, th) + log_likelihood_regression(data, g, th)

            best = log_post(gamma, theta)
            for _ in range(60):
                g = gamma + 0.05 * rng.standard_normal(gamma.shape)
                th = sample_half_precision(rh.cov, rng)
                assert log_post(g, th) <= best + 1e-9


class TestScaleCovariance:
    def test_common_log_evidence_shift(self):
        rng = np.random.default_rng(7)
        data = toy_data(rng, n=14, d1=2, d2=2)
        c = 3.7
        scaled = RegressionData(c * data.y, data.x)
        base = standard_hypers(2, 2, alpha=2.0, beta=1.0)
        scaled_hypers = {
            "A": RegressionHyper(c * base["A"].nu, base["A"].lam, WishartHyper(2.0, c**2 * np.eye(2))),
            "D": RegressionHyper(c * base["D"].nu, base["D"].lam, GammaVecHyper(2.0, np.full(2, c**2))),
            "C": RegressionHyper(c * base["C"].nu, base["C"].lam, GammaHyper(2.0, c**2, 2)),
        }
        shifts = []
        for s in ("A", "D", "C"):
            shifts.append(
                log_evidence_regression(scaled, scaled_hypers[s])
                - log_evidence_regression(data, base[s])
            )
        expected = -data.n * data.d1 * math.log(c)
        np.testing.assert_allclose(shifts, expected, atol=1e-8)


class TestEnumerateCovariates:
    def test_subset_count(self):
        rng = np.random.default_rng(8)
        data = toy_data(rng, n=10, d1=2, d2=3)
        fits = enumerate_covariates(data, standard_hypers(2, 3))
        assert len(fits) == 7  # nonempty subsets of 3 candidates

    def test_single_candidate(self):
        rng = np.random.default_rng(9)
        data = toy_data(rng, n=10, d1=1, d2=1)
        fits = enumerate_covariates(data, standard_hypers(1, 1))
        assert len(fits) == 1

    def test_invariant_to_candidate_order(self):
        rng = np.random.default_rng(10)
        data = toy_data(rng, n=12, d1=2, d2=3)
        names = ("a", "b", "c")
        fits = enumerate_covariates(data, standard_hypers(2, 3), names=names)
        perm = [2, 0, 1]
        data_p = RegressionData(data.y, data.x[:, perm])
        names_p = tuple(names[i] for i in perm)
        fits_p = enumerate_covariates(data_p, standard_hypers(2, 3), names=names_p)

        def table(fs):
            return {
                frozenset(f.subset): {s: round(r.log_evidence, 9) for s, r in f.reports.items()}
                for f in fs
            }

        assert table(fits) == table(fits_p)

    def test_cap(self):
        rng = np.random.default_rng(11)
        data = toy_data(rng, n=5, d1=1, d2=3)
        with pytest.raises(ConfigError):
            enumerate_covariates(data, standard_hypers(1, 3), max_candidates=2)

    def test_names_of_another_count_raise(self):
        data = toy_data(np.random.default_rng(13), n=10, d1=1, d2=3)
        with pytest.raises(ConfigError, match="names length must match the covariate count"):
            enumerate_covariates(data, standard_hypers(1, 3), names=["a", "b"])

    def test_repeated_names_raise(self):
        data = toy_data(np.random.default_rng(13), n=10, d1=1, d2=3)
        with pytest.raises(ConfigError, match="covariate names must be distinct"):
            enumerate_covariates(data, standard_hypers(1, 3), names=["a", "a", "b"])

    def test_no_hypers_raise(self):
        data = toy_data(np.random.default_rng(14), n=20, d1=2, d2=3)
        with pytest.raises(ConfigError, match="no structure's hyperparameters"):
            enumerate_covariates(data, {})

    def test_fit_regression_without_hypers_raises(self):
        data = toy_data(np.random.default_rng(14), n=20, d1=2, d2=3)
        with pytest.raises(ConfigError, match="no structure's hyperparameters"):
            fit_regression(data, {})

    def test_fit_regression_labels_every_column(self):
        # `()` is the label of the fit with no covariates, not of the fit with all
        data = toy_data(np.random.default_rng(12), n=10, d1=2, d2=3)
        fit = fit_regression(data, standard_hypers(2, 3))
        assert fit.subset == (0, 1, 2)
        everything = enumerate_covariates(data, standard_hypers(2, 3), include_empty=True)
        assert {f.subset for f in everything} >= {(), (0, 1, 2)}
        assert "subset" not in inspect.signature(fit_regression).parameters
        with pytest.raises(TypeError):
            fit_regression(data, standard_hypers(2, 3), subset=(0,))

    def test_iris_argmax(self, iris_regression):
        y, x, names = iris_regression
        data = RegressionData(y, x)
        fits = enumerate_covariates(data, standard_hypers(2, 3), names=names)
        best = fits[0]
        assert set(best.subset) == {"Int", "PL"}
        assert regression_pick(best, "evidence")[0] == "A"


class TestLambdaPath:
    def _donkey_like(self, rng, n=100, d2=3):
        x = np.column_stack([np.ones(n), rng.standard_normal((n, d2 - 1))])
        gamma = np.array([[0.5, 1.0, -0.7]])[:, :d2]
        y = x @ gamma.T + 0.3 * rng.standard_normal((n, 1))
        return RegressionData(y, x)

    def test_finite_and_continuous(self):
        rng = np.random.default_rng(12)
        data = self._donkey_like(rng)
        grid = np.linspace(0.05, 5.0, 80)
        rows = lambda_path(data, grid)
        flex = np.array([r.flexibility for r in rows])
        evid = np.array([r.log_evidence for r in rows])
        assert np.all(np.isfinite(flex)) and np.all(np.isfinite(evid))
        assert np.abs(np.diff(flex)).max() < 10 * (grid[1] - grid[0]) / 0.05

    def test_non_regular_flag(self):
        rng = np.random.default_rng(13)
        data = self._donkey_like(rng, n=30)
        rows = lambda_path(data, [0.1, 0.49, 0.5, 1.0])
        assert [r.non_regular for r in rows] == [True, True, False, False]

    def test_positive_grid_required(self):
        rng = np.random.default_rng(14)
        data = self._donkey_like(rng, n=10)
        with pytest.raises(ConfigError):
            lambda_path(data, [0.0, 1.0])

    def test_empty_dataset(self):
        data = RegressionData(np.empty((0, 1)), np.empty((0, 2)))
        with pytest.raises(EmptyDatasetError):
            lambda_path(data, [1.0])

    def test_univariate_response_required(self):
        rng = np.random.default_rng(15)
        data = toy_data(rng, n=10, d1=2, d2=2)
        with pytest.raises(ConfigError):
            lambda_path(data, [1.0])

    def test_flexibility_minus_bic_penalty_converges(self):
        # the flexibility of the joint family tracks (k/2) log n plus a
        # lambda-dependent constant as n grows
        rng = np.random.default_rng(16)
        lam = 1.5
        gamma0 = np.array([[0.5, -0.8]])
        for_reps = []
        for n in (100, 1000, 10_000):
            vals = []
            for _ in range(30):
                x = np.column_stack([np.ones(n), rng.standard_normal(n)])
                y = x @ gamma0.T + 0.4 * rng.standard_normal((n, 1))
                row = lambda_path(RegressionData(y, x), [lam])[0]
                vals.append(row.flexibility - row.bic_penalty)
            for_reps.append(np.mean(vals))
        assert abs(for_reps[2] - for_reps[1]) < abs(for_reps[1] - for_reps[0])
        assert abs(for_reps[2] - for_reps[1]) < 0.1


class TestValidation:
    def test_shape_mismatch(self):
        data = RegressionData(np.zeros((4, 2)), np.zeros((4, 3)))
        rh = RegressionHyper(np.zeros((2, 2)), np.eye(2), GammaHyper(2.0, 1.0, 2))
        with pytest.raises(DimensionMismatchError):
            log_evidence_regression(data, rh)

    def test_row_count_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            RegressionData(np.zeros((4, 2)), np.zeros((5, 1)))

    def test_a_bare_covariate_vector_is_one_column(self):
        data = RegressionData(np.ones((4, 1)), np.arange(4.0))
        assert (data.d2, data.x.shape) == (1, (4, 1))
        np.testing.assert_array_equal(data.x[:, 0], np.arange(4.0))

    def test_likelihood_theta_of_another_dimension(self):
        data = RegressionData(np.ones((4, 1)), np.arange(4.0))
        with pytest.raises(DimensionMismatchError, match="theta dimension"):
            regression.log_likelihood_regression(data, np.zeros((1, 1)), DiagPrecision(np.ones(2)))

    def test_more_nu_columns_than_lambda(self):
        with pytest.raises(DimensionMismatchError, match="nu column count must match Lambda"):
            RegressionHyper(np.zeros((1, 3)), np.eye(2), GammaHyper(2.0, 1.0, 1))

    def test_non_finite_nu_rejected(self):
        with pytest.raises(ValueError, match="nu entries must be finite"):
            RegressionHyper(np.array([[np.nan]]), np.eye(1), GammaHyper(2.0, 1.0, 1))

    def test_lambda_must_be_a_matrix(self):
        with pytest.raises(DimensionMismatchError):
            RegressionHyper(np.zeros((1, 1)), np.array([2.0]), GammaHyper(2.0, 1.0, 1))

    def test_prior_filed_under_another_structure_key(self):
        # scored under the key's label, C's evidence would be reported as A's
        data = toy_data(np.random.default_rng(37), d2=2)
        h = standard_hypers(2, 2)
        swapped = {"A": h["C"], "C": h["A"], "D": h["D"]}
        with pytest.raises(ConfigError, match="key 'A' holds a structure-C prior"):
            fit_regression(data, swapped)
        with pytest.raises(ConfigError):
            enumerate_covariates(data, swapped)


def rows_enumerate(data, hypers, include_empty):
    """[(subset, rows_fit_regression of the subset)], sorted by the best
    log evidence, descending, as the n-row enumeration was."""
    out = []
    for size in range(0 if include_empty else 1, data.d2 + 1):
        for idx in combinations(range(data.d2), size):
            cols = list(idx)
            sub = RegressionData(data.y, data.x[:, cols])
            sliced = {
                s: RegressionHyper(rh.nu[:, cols], rh.lam[np.ix_(cols, cols)], rh.cov)
                for s, rh in hypers.items()
            }
            out.append((idx, rows_fit_regression(sub, sliced)))
    return out


def first_error(want):
    return next((w for w in want.values() if isinstance(w, CovselError)), None)


def assert_fit_matches(fit, want):
    """Every FitReport field, the MAP and the coefficients to 1e-9
    relative (absolute below magnitude 1)."""
    for structure, (gamma_hat, theta, fields) in want.items():
        rep = fit.reports[structure]
        assert rep.structure == structure
        np.testing.assert_allclose(fit.gamma_hats[structure], gamma_hat, rtol=1e-9, atol=1e-9)
        got_map, want_map = map_array(rep.map), map_array(theta)
        assert np.abs(got_map - want_map).max() <= 1e-9 * np.abs(want_map).max(), structure
        for key, value in fields.items():
            got = getattr(rep, key)
            if value is None:
                assert got is None, (structure, key)
            else:
                assert close(got, value), (structure, key, got, value)


class TestGramPathAgainstRows:
    @PROPERTY
    @given(case=regression_cases)
    def test_every_report_field_and_map(self, case):
        _, data, hypers = case
        want = rows_fit_regression(data, hypers)
        error = first_error(want)
        if error is not None:
            with pytest.raises(type(error)):
                fit_regression(data, hypers)
            return
        fit = fit_regression(data, hypers)
        assert_fit_matches(fit, want)
        gamma_hat = want["C"][0]
        q = rows_residual_stats(data, gamma_hat).s
        q_at_gamma = residual_stats(data, gamma_hat)
        assert q_at_gamma.n == data.n
        assert np.abs(q_at_gamma.s - q).max() <= 1e-9 * max(1.0, np.abs(data.gram).max())

    @pytest.mark.slow
    @PROPERTY
    @given(case=regression_cases, include_empty=st.booleans())
    def test_enumeration_order_and_values(self, case, include_empty):
        _, data, hypers = case
        want = rows_enumerate(data, hypers, include_empty)
        error = next((e for _, w in want for e in [first_error(w)] if e is not None), None)
        if error is not None:
            with pytest.raises(type(error)):
                enumerate_covariates(data, hypers, include_empty=include_empty)
            return
        fits = enumerate_covariates(data, hypers, include_empty=include_empty)
        best = {idx: max(f["log_evidence"] for _, _, f in w.values()) for idx, w in want}
        order = [idx for idx, _ in sorted(want, key=lambda item: -best[item[0]])]
        if data.n >= 1:
            assert [f.subset for f in fits] == order
        else:
            # every evidence is 0 up to rounding; ties may fall either way
            assert sorted(f.subset for f in fits) == sorted(order)
        by_subset = dict(want)
        for fit in fits:
            assert_fit_matches(fit, by_subset[fit.subset])

    def test_iris_enumeration(self, iris_regression):
        y, x, names = iris_regression
        data = RegressionData(y, x)
        hypers = standard_hypers(2, 3)
        fits = enumerate_covariates(data, hypers, names=names)
        want = {
            tuple(sorted(names[i] for i in idx)): w
            for idx, w in rows_enumerate(data, hypers, False)
        }
        for fit in fits:
            assert_fit_matches(fit, want[fit.subset])


class TestEvidenceIdentityOnGram:
    @PROPERTY
    @given(case=regression_cases)
    def test_at_random_coefficients_and_precision(self, case):
        rng, data, hypers = case
        for rh in hypers.values():
            log_evi = log_evidence_regression(data, rh)
            assert close(log_evi, rows_log_evidence(data, rh))
            for _ in range(3):
                gamma = rng.standard_normal((data.d1, data.d2))
                theta = sample_half_precision(rh.cov, rng)
                ll = log_likelihood_regression(data, gamma, theta)
                assert close(ll, rows_log_likelihood(data, gamma, theta), 1e-8)
                rhs = ll - joint_flexibility(data, rh, gamma, theta)
                assert close(rhs, log_evi, 1e-8)


# ---------------------------------------------------------------------------
# Oracle: the per-subset Gram path the stacked scorer replaced
# ---------------------------------------------------------------------------


def subset_effective_stats(data, rh, idx):
    """(gamma_hat, R, shrink, log|Lambda|, log|X^T X + Lambda|) of covariate
    columns `idx`, from the Gram matrix and the prior sliced to them."""
    cols = list(idx)
    keep = [*cols, *range(data.d2, data.gram.shape[0])]
    gram, p = data.gram[np.ix_(keep, keep)], len(cols)
    nu, lam = rh.nu[:, cols], rh.lam[np.ix_(cols, cols)]
    lam_nu = lam @ nu.T
    r = gram[p:, p:] + nu @ lam_nu
    gamma_hat, log_det_lam, log_det_post_lam = np.zeros((data.d1, 0)), 0.0, 0.0
    if p:
        c = cholesky_pd(gram[:p, :p] + lam)
        w = np.linalg.solve(c, gram[:p, p:] + lam_nu)
        r = r - w.T @ w
        gamma_hat = np.linalg.solve(c.T, w).T
        log_det_lam = chol_log_det(lam)
        log_det_post_lam = 2.0 * float(np.log(np.diag(c)).sum())
    dev = gamma_hat - nu
    shrink = dev @ lam @ dev.T
    return gamma_hat, (r + r.T) / 2, (shrink + shrink.T) / 2, log_det_lam, log_det_post_lam


def subset_report(structure, rh, n, eff):
    """One structure's report: the joint mode from a batch of one through the
    kernel, then the coefficient block in scalar half-precision arithmetic on
    the structure-only evidence, flexibility and log prior."""
    gamma_hat, r, shrink, log_det_lam, log_det_post_lam = eff
    d1, d2 = gamma_hat.shape
    block = EffectiveStats(*(np.asarray(v)[None] for v in eff))
    rep = fit_structure(rh.cov, r[None], n, coef=block).report(0)
    theta, stats = rep.map, SuffStats(n=n, d=d1, s=r)
    quad = theta_trace_product(theta, shrink)
    lam_factor = d1 / 2 * (log_det_lam - log_det_post_lam)
    ll = log_likelihood(theta, SuffStats(n=n, d=d1, s=r - shrink))
    coef_prior = d1 / 2 * log_det_lam + d2 / 2 * theta_log_det(theta) - quad
    lp = log_prior_density(rh.cov, theta) - d1 * d2 / 2 * LOG_PI + coef_prior
    k = param_count(structure, d1) + d1 * d2
    bic = pc_bic = None
    if n >= 1:
        bic, pc_bic = ll - k / 2 * math.log(n), ll + lp - k / 2 * math.log(n)
    return replace(
        rep,
        structure=structure,
        log_lik_at_map=ll,
        log_evidence=log_evidence(rh.cov, stats) + lam_factor,
        flexibility_at_map=flexibility(rh.cov, stats, theta) - lam_factor + quad,
        bic=bic,
        pc_bic=pc_bic,
        kic=None,
        k=k,
    )


def subset_enumerate(data, hypers, include_empty, criterion="evidence"):
    """Every subset's RegressionFit, one subset and one structure at a
    time, with each (nu, Lambda)'s effective statistics shared."""
    fits = []
    for size in range(0 if include_empty else 1, data.d2 + 1):
        for idx in combinations(range(data.d2), size):
            shared, gammas, reports = {}, {}, {}
            for structure, rh in hypers.items():
                key = (rh.nu.tobytes(), rh.lam.tobytes())
                if key not in shared:
                    shared[key] = subset_effective_stats(data, rh, idx)
                gammas[structure] = shared[key][0]
                reports[structure] = subset_report(structure, rh, data.n, shared[key])
            fits.append(RegressionFit(subset=idx, gamma_hats=gammas, reports=reports))
    fits.sort(key=lambda f: -regression_pick(f, criterion)[1])
    return fits


def assert_same_fits(got, want, rtol=1e-12):
    """Equal subsets, structures, k and every value to `rtol` relative
    (absolute below magnitude 1)."""
    assert [f.subset for f in got] == [f.subset for f in want]
    for g, w in zip(got, want):
        assert g.gamma_hats.keys() == w.gamma_hats.keys() == g.reports.keys()
        for s, rep in w.reports.items():
            pairs = [
                (g.gamma_hats[s], w.gamma_hats[s]),
                (map_array(g.reports[s].map), map_array(rep.map)),
            ]
            for field in ("log_lik_at_map", "log_evidence", "flexibility_at_map", "bic", "pc_bic"):
                value = getattr(rep, field)
                assert (getattr(g.reports[s], field) is None) == (value is None), (s, field)
                if value is not None:
                    pairs.append((getattr(g.reports[s], field), value))
            assert (g.reports[s].structure, g.reports[s].k, g.reports[s].kic) == (s, rep.k, None)
            for a, b in pairs:
                assert np.all(np.abs(np.subtract(a, b)) <= rtol * np.maximum(1.0, np.abs(b))), (
                    g.subset, s, a, b
                )


class TestStackedPathAgainstPerSubset:
    @PROPERTY
    @given(
        case=regression_cases,
        include_empty=st.booleans(),
        criterion=st.sampled_from(["evidence", "pcbic"]),
    )
    def test_enumeration_matches_per_subset_path(self, case, include_empty, criterion):
        _, data, hypers = case
        if criterion == "pcbic" and data.n == 0:
            criterion = "evidence"  # pcBIC has no value at n = 0
        try:
            want = subset_enumerate(data, hypers, include_empty, criterion)
        except CovselError as exc:
            with pytest.raises(type(exc)):
                enumerate_covariates(data, hypers, include_empty=include_empty, criterion=criterion)
            return
        got = enumerate_covariates(data, hypers, include_empty=include_empty, criterion=criterion)
        if data.n == 0:
            # every evidence is 0 up to rounding; ties may fall either way
            got = sorted(got, key=lambda f: f.subset)
            want = sorted(want, key=lambda f: f.subset)
        assert_same_fits(got, want)

    def test_regress_enum_shaped_data(self):
        # many rows, three responses and ten candidates, as the benchmark's input
        rng = np.random.default_rng(40)
        x = rng.standard_normal((2000, 10))
        y = x[:, :3] @ rng.standard_normal((3, 3)) + rng.standard_normal((2000, 3))
        data = RegressionData(y, x)
        hypers = standard_hypers(3, 10)
        assert_same_fits(enumerate_covariates(data, hypers), subset_enumerate(data, hypers, False))


class TestSharedStatistics:
    def test_one_effective_stats_call_per_distinct_prior(self, monkeypatch):
        calls = []
        original = regression.effective_stats

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(regression, "effective_stats", counted)
        data = toy_data(np.random.default_rng(30), n=15, d1=2, d2=3)
        hypers = standard_hypers(2, 3)
        fit_regression(data, hypers)
        assert len(calls) == 1
        hypers["D"] = RegressionHyper(hypers["D"].nu, 2.0 * np.eye(3), hypers["D"].cov)
        fit = fit_regression(data, hypers)
        assert len(calls) == 3
        assert fit.reports["D"].log_evidence == pytest.approx(
            log_evidence_regression(data, hypers["D"]), abs=1e-9
        )

    def test_each_size_and_chunk_computes_statistics_once_per_distinct_prior(self, monkeypatch):
        calls = []
        original = regression.effective_stats

        def counted(*args):
            calls.append(args)
            return original(*args)

        data = toy_data(np.random.default_rng(36), n=15, d1=2, d2=5)
        hypers = standard_hypers(2, 5)
        hypers["D"] = RegressionHyper(hypers["D"].nu, 2.0 * np.eye(5), hypers["D"].cov)
        whole = enumerate_covariates(data, hypers, include_empty=True)
        monkeypatch.setattr(regression, "effective_stats", counted)
        monkeypatch.setattr(regression, "_MAX_STACK", 4)
        chunked = enumerate_covariates(data, hypers, include_empty=True)
        # sizes 0..5 have 1, 5, 10, 10, 5, 1 subsets: 1, 2, 3, 3, 2, 1 chunks of
        # at most 4, each scored once for each of two distinct (nu, Lambda)
        assert len(calls) == 2 * 12
        assert all(len(args[2]) <= 4 for args in calls)
        assert_same_fits(chunked, whole, rtol=0.0)

    def test_subset_statistics_are_slices_of_the_gram_matrix(self):
        rng = np.random.default_rng(31)
        data = toy_data(rng, n=40, d1=2, d2=4)
        cols = [3, 0]
        want = RegressionData(data.y, data.x[:, cols])
        assert (want.n, want.d1, want.d2) == (40, 2, 2)
        z = cols + [data.d2 + j for j in range(data.d1)]
        np.testing.assert_allclose(data.gram[np.ix_(z, z)], want.gram, rtol=1e-12, atol=1e-12)
        # an identity prior slices to an identity prior, so only the data side differs
        rh = RegressionHyper(np.zeros((2, 4)), np.eye(4), GammaHyper(2.0, 1.0, 2))
        sub_rh = RegressionHyper(np.zeros((2, 2)), np.eye(2), rh.cov)
        stacked = effective_stats(data, rh, np.array([cols]))
        for got, alone in zip(stacked, effective_stats(want, sub_rh)):
            np.testing.assert_allclose(got, alone, rtol=1e-12, atol=1e-12)

    def test_prior_subset_is_the_sliced_prior(self):
        rng = np.random.default_rng(32)
        g = rng.standard_normal((4, 6))
        rh = RegressionHyper(rng.standard_normal((2, 4)), g @ g.T, GammaHyper(2.0, 1.0, 2))
        # with no rows the statistics are those of the prior alone
        data = RegressionData(np.empty((0, 2)), np.empty((0, 4)))
        cols = [3, 1]
        eff = effective_stats(data, rh, np.array([cols]))
        want = RegressionHyper(rh.nu[:, cols], rh.lam[np.ix_(cols, cols)], rh.cov)
        np.testing.assert_allclose(eff.gamma_hat[0], want.nu, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(eff.log_det_lam[0], np.linalg.slogdet(want.lam)[1], rtol=1e-12)
        np.testing.assert_allclose(eff.log_det_post_lam[0], eff.log_det_lam[0], rtol=1e-12)
        np.testing.assert_allclose(eff.shrink[0], np.zeros((2, 2)), atol=1e-12)

    def test_stacked_statistics_are_those_of_the_restricted_data_and_prior(self):
        rng = np.random.default_rng(31)
        data = toy_data(rng, n=40, d1=2, d2=4)
        g = rng.standard_normal((4, 6))
        rh = RegressionHyper(rng.standard_normal((2, 4)), g @ g.T, GammaHyper(2.0, 1.0, 2))
        subsets = np.array([[3, 0], [1, 2], [2, 1]])
        stacked = effective_stats(data, rh, subsets)
        for i, cols in enumerate(subsets):
            sub = RegressionData(data.y, data.x[:, cols])
            sub_rh = RegressionHyper(rh.nu[:, cols], rh.lam[np.ix_(cols, cols)], rh.cov)
            alone = effective_stats(sub, sub_rh)
            for got, want in zip(stacked, alone):
                np.testing.assert_allclose(got[i], want[0], rtol=1e-12, atol=1e-12)

    def test_empty_subset_is_a_stack_of_zero_columns(self):
        rng = np.random.default_rng(32)
        data = toy_data(rng, n=9, d1=3, d2=2)
        rh = standard_hypers(3, 2)["A"]
        eff = effective_stats(data, rh, np.zeros((2, 0), dtype=int))
        assert eff.gamma_hat.shape == (2, 3, 0)
        np.testing.assert_array_equal(eff.log_det_lam, [0.0, 0.0])
        np.testing.assert_array_equal(eff.log_det_post_lam, [0.0, 0.0])
        for r in eff.scatter:
            np.testing.assert_allclose(r, data.y.T @ data.y, rtol=1e-12)
        np.testing.assert_array_equal(eff.shrink, np.zeros((2, 3, 3)))


class TestFitFailure:
    def test_first_failure_by_subset_then_hypers_order(self):
        # no rows: with one covariate neither A (alpha 0.6) nor D (alpha 0.4)
        # has a mode, with two both do; the error raised is that of the first
        # structure in `hypers` at the first subset
        data = RegressionData(np.empty((0, 2)), np.empty((0, 2)))
        nu, lam = np.zeros((2, 2)), np.eye(2)
        a = RegressionHyper(nu, lam, WishartHyper(0.6, np.eye(2)))
        d = RegressionHyper(nu, lam, GammaVecHyper(0.4, np.ones(2)))
        cases = [({"A": a, "D": d}, "shape 1.1 <="), ({"D": d, "A": a}, "shape 0.9 <=")]
        for hypers, message in cases:
            with pytest.raises(NonRegularPriorError, match=message):
                enumerate_covariates(data, hypers)
            assert set(fit_regression(data, hypers).reports) == {"A", "D"}


class TestCoefficientBlockInTheKernel:
    """`fit_structure` with a regression's coefficient block: a subset it cannot
    fit is blanked by the kernel's one mask and keeps its evidence."""

    def fit_and_check(self, data, rh, subsets, failed):
        eff = effective_stats(data, rh, subsets)
        fit = fit_structure(rh.cov, eff.scatter, data.n, coef=eff)
        assert sorted(fit.errors) == failed
        assert fit.kic is None
        for i, cols in enumerate(subsets.tolist()):
            for field in ("map", "log_lik", "flexibility", "log_prior", "bic", "pc_bic"):
                values = getattr(fit, field)
                if values is not None:
                    assert np.isnan(values[i]).all() == (i in failed), (i, field)
                    assert np.isfinite(values[i]).all() == (i not in failed), (i, field)
            sub = RegressionData(data.y, data.x[:, cols])
            sub_rh = RegressionHyper(rh.nu[:, cols], rh.lam[np.ix_(cols, cols)], rh.cov)
            assert np.isfinite(fit.log_evidence[i])
            assert fit.log_evidence[i] == pytest.approx(
                log_evidence_regression(sub, sub_rh), rel=1e-12, abs=1e-12
            )
        return fit

    def test_near_singular_rate_fails_its_subset_alone(self):
        # y0 = 0 and a prior mean of 0 on every covariate but the second: a subset
        # without it has a zero first diagonal in R, so with a subnormal rate the
        # D mode overflows there; a subset with it gains a positive shrink term
        rng = np.random.default_rng(42)
        y = np.column_stack([np.zeros(5), rng.standard_normal(5)])
        data = RegressionData(y, rng.standard_normal((5, 3)))
        nu = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
        rh = RegressionHyper(nu, np.eye(3), GammaVecHyper(2.0, np.array([1e-310, 1.0])))
        fit = self.fit_and_check(data, rh, np.array([[0, 2], [0, 1], [1, 2]]), [0])
        assert "posterior mode is not finite" in str(fit.errors[0])
        assert fit.bic is not None and fit.pc_bic is not None

    def test_non_regular_mode_at_no_rows(self):
        # as in TestFitFailure: A (alpha 0.6) has no mode with one covariate, one with two
        data = RegressionData(np.empty((0, 2)), np.empty((0, 2)))
        rh = RegressionHyper(np.zeros((2, 2)), np.eye(2), WishartHyper(0.6, np.eye(2)))
        for subsets, failed in [([[0], [1]], [0, 1]), ([[0, 1]], [])]:
            fit = self.fit_and_check(data, rh, np.array(subsets), failed)
            assert fit.bic is None and fit.pc_bic is None
            assert all(isinstance(e, NonRegularPriorError) for e in fit.errors.values())


class TestBestStructure:
    def test_kic_is_undefined_for_regression(self):
        data = toy_data(np.random.default_rng(33))
        with pytest.raises(ConfigError, match="undefined"):
            enumerate_covariates(data, standard_hypers(2, 3), criterion="kic")

    def test_enumeration_rejects_kic_before_fitting(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("a fit ran")

        for name in ("effective_stats", "fit_structure", "_fit_subsets", "fit_regression"):
            monkeypatch.setattr(regression, name, fail)
        data = toy_data(np.random.default_rng(34))
        with pytest.raises(ConfigError):
            enumerate_covariates(data, standard_hypers(2, 3), criterion="kic")

    def test_enumeration_ranks_every_subset_with_one_call(self, monkeypatch):
        shapes = []
        original = regression.simplest_best

        def counted(values):
            shapes.append(values.shape)
            return original(values)

        data = toy_data(np.random.default_rng(38), n=15, d1=2, d2=5)
        monkeypatch.setattr(regression, "_MAX_STACK", 4)
        monkeypatch.setattr(regression, "simplest_best", counted)
        fits = enumerate_covariates(data, standard_hypers(2, 5), include_empty=True)
        assert shapes == [(32, 3)]
        best = [regression_pick(fit, "evidence")[1] for fit in fits]
        assert best == sorted(best, reverse=True)

    def test_no_candidates_and_no_empty_subset_gives_no_fits(self):
        data = RegressionData(np.random.default_rng(39).standard_normal((15, 2)), np.empty((15, 0)))
        assert enumerate_covariates(data, standard_hypers(2, 0)) == []
        assert len(enumerate_covariates(data, standard_hypers(2, 0), include_empty=True)) == 1

    def test_bic_at_n_zero_has_no_value(self):
        data = RegressionData(np.empty((0, 2)), np.empty((0, 3)))
        fit = fit_regression(data, standard_hypers(2, 3))
        assert regression_pick(fit, "bic")[0] is None
        with pytest.raises(EmptyDatasetError):
            enumerate_covariates(data, standard_hypers(2, 3), criterion="bic")

    def test_values_within_tolerance_go_to_the_simplest_structure(self):
        fit = fit_regression(toy_data(np.random.default_rng(35)), standard_hypers(2, 3))
        near = {"A": 100.0 + 2e-8, "D": 100.0 + 1e-8, "C": 100.0}  # within 1e-9 relative
        reports = {s: replace(r, log_evidence=near[s]) for s, r in fit.reports.items()}
        assert regression_pick(replace(fit, reports=reports), "evidence") == ("C", 100.0)
        near["D"] = 101.0
        reports = {s: replace(r, log_evidence=near[s]) for s, r in fit.reports.items()}
        assert regression_pick(replace(fit, reports=reports), "evidence") == ("D", 101.0)

    def test_tie_at_n_zero_goes_to_the_simplest_structure(self):
        data = RegressionData(np.empty((0, 2)), np.empty((0, 3)))
        fit = fit_regression(data, standard_hypers(2, 3))
        assert {rep.log_evidence for rep in fit.reports.values()} == {0.0}
        assert regression_pick(fit, "evidence") == ("C", 0.0)
