import dataclasses
import json
import math

import numpy as np
import pytest
from scipy.stats import ks_2samp

import covsel.asymptotics as asymptotics
import covsel.montecarlo as montecarlo
import covsel.priors as priors
from covsel.asymptotics import (
    GapStudyRow,
    RateStudyConfig,
    RateStudyRow,
    flexibility_bic_gap,
    flexibility_gap_study,
    linear_rate_constant,
    log_rate_constant,
    rate_study,
    second_moment_matrix,
)
from covsel.cli import _fixed_theta
from covsel.data import SuffStats
from covsel.errors import (
    AsymmetricMatrixError,
    ConfigError,
    CovselError,
    NotPositiveDefiniteError,
    SupportError,
)
from covsel.montecarlo import gaussian_rows, oracle_hyper
from covsel.precision import DiagPrecision, FullPrecision, IsoPrecision
from covsel.priors import (
    GammaHyper,
    GammaVecHyper,
    WishartHyper,
    matched_family,
    prior_sample_size,
    sample_half_precision,
    sample_prior,
)
from covsel.specialfn import chol_log_det
from covsel.structures import criteria, fit_structure, log_evidence, param_count

from conftest import draw_per_n, rate_study_per_n, sample_prior_loop


# ---------------------------------------------------------------------------
# Oracles: the row sampler the Wishart stacks replaced, and the
# per-replicate scoring loops the stacked studies replaced
# ---------------------------------------------------------------------------


def row_scatters(h, n, reps, seed, theta=None):
    """(scatters, covariances) of `reps` replicates drawn row by row: per
    stream (seed, n, rep), a half-precision from the prior `h` (unless
    `theta` is fixed), then n rows from N(0, (2 theta)^{-1})."""
    s, sigma = np.empty((reps, h.dim, h.dim)), np.empty((reps, h.dim, h.dim))
    for rep in range(reps):
        rng = np.random.default_rng(np.random.SeedSequence((seed, int(n), rep)))
        t = theta or sample_half_precision(h, rng)
        x = gaussian_rows(t, n, rng)
        s[rep] = x.T @ x
        sigma[rep] = np.linalg.inv(2 * t.as_matrix())
    return s, sigma


def wishart_covariances(h, n, reps, seed, theta=None):
    """The covariances (2 theta)^{-1} behind `asymptotics._draw`'s stack,
    replayed from its stream: the theta stack is drawn first."""
    if theta is not None:
        return np.broadcast_to(np.linalg.inv(2 * theta.as_matrix()), (reps, h.dim, h.dim))
    draws = sample_prior(h, reps, np.random.default_rng(np.random.SeedSequence((seed, int(n)))))
    if h.structure == "A":
        return np.linalg.inv(2 * draws)
    eta = draws if h.structure == "D" else np.repeat(draws[:, None], h.dim, axis=1)
    return np.einsum("ri,ij->rij", 1 / (2 * eta), np.eye(h.dim))


def per_replicate_rate_study(config):
    """(rows, slope) of `rate_study`, two scalar evidences per replicate of
    the stack `_draw` gives."""
    full, nested = config.pair.split("-vs-")
    family = matched_family(config.hyper)
    nested_true = config.truth == nested
    rows, means = [], []
    for n in config.n_grid:
        s = asymptotics._draw(config.hyper, n, config.reps, config.seed, config.fixed_theta)[0]
        vals = np.empty(config.reps)
        for rep in range(config.reps):
            stats = SuffStats(n=n, d=config.hyper.dim, s=s[rep])
            vals[rep] = log_evidence(family.for_structure(full), stats) - log_evidence(
                family.for_structure(nested), stats
            )
        scaled = vals / (np.log(n) if nested_true else float(n))
        se = float(scaled.std(ddof=1) / np.sqrt(config.reps)) if config.reps > 1 else 0.0
        rows.append(RateStudyRow(n=int(n), scaled_mean=float(scaled.mean()), se=se))
        means.append(float(vals.mean()))
    grid = np.asarray(config.n_grid, dtype=float)
    xreg = np.log(grid) if nested_true else grid
    xc = xreg - xreg.mean()
    slope = float(xc @ (np.asarray(means) - np.mean(means)) / (xc @ xc)) if len(grid) > 1 else None
    return rows, slope


def per_replicate_gap_study(h, theta0, n_grid, reps, seed):
    """`flexibility_gap_study` with one scalar `criteria` call per replicate
    of the stack `_draw` gives."""
    gap = flexibility_bic_gap(h, theta0)
    k = param_count(theta0.structure, theta0.dim)
    rows = []
    for n in n_grid:
        s = asymptotics._draw(h, n, reps, seed, theta0)[0]
        flex_term, kic_err = np.empty(reps), np.empty(reps)
        for rep in range(reps):
            fit = criteria(h, SuffStats(n=n, d=h.dim, s=s[rep]))
            flex_term[rep] = fit.flexibility_at_map - k / 2 * np.log(n)
            kic_err[rep] = abs(fit.kic - fit.log_evidence)
        rows.append(
            GapStudyRow(
                n=int(n),
                mean_gap_error=float(np.abs(flex_term - gap).mean()),
                mean_flex_minus_bic_penalty=float(flex_term.mean()),
                mean_abs_flex_minus_kic_penalty=float(kic_err.mean()),
            )
        )
    return rows


# ---------------------------------------------------------------------------
# Oracles: the per-pair rate formulas, the structure-D second moment and
# the target chain that one formula and `second_moment_matrix` replaced
# ---------------------------------------------------------------------------


def hadamard_half_log_ratio(v):
    """(1/2) log(prod_j V_jj / |V|): the A-vs-D constant."""
    v = np.asarray(v, dtype=float)
    ld = chol_log_det(v)
    return float(0.5 * (np.log(np.diag(v)).sum() - ld))


def amgm_half_log_ratio(v):
    """(d/2) log((tr V / d) / |V|^(1/d)): the A-vs-C constant."""
    v = np.asarray(v, dtype=float)
    d = v.shape[0]
    ld = chol_log_det(v)
    return float(d / 2 * (np.log(np.trace(v) / d) - ld / d))


def amgm_vector_ratio(v):
    """(d/2) log(mean v / geometric mean v) of the per-axis second moments
    v: the D-vs-C constant."""
    v = np.ravel(np.asarray(v, dtype=float))
    if np.any(v <= 0):
        raise ConfigError("per-axis second moments must be positive")
    d = v.size
    return float(d / 2 * (np.log(v.mean()) - np.log(v).mean()))


def second_moment_diag(h):
    """Per-axis second moments beta_j / (2 alpha - 2) under a structure-D prior."""
    m = prior_sample_size(h).m
    if m <= 0:
        raise ConfigError("second moment requires prior sample size 2a-2 > 0")
    return h.rate / m


def chain_study_target(config):
    """`rate_study`'s target for a nested-true or a fixed-theta study, by pair."""
    nested = config.pair.split("-vs-")[1]
    if config.truth == nested:
        return log_rate_constant(config.pair, config.hyper.dim)
    sigma = np.linalg.inv(2 * config.fixed_theta.as_matrix())
    if config.pair == "D-vs-C":
        return amgm_vector_ratio(np.diag(sigma))
    return {"A-vs-D": hadamard_half_log_ratio, "A-vs-C": amgm_half_log_ratio}[config.pair](sigma)


def random_pd(rng, d, dof=None):
    # Wishart-style sample: G G^T with a couple extra degrees of freedom
    g = rng.standard_normal((d, (dof or d) + 2))
    return g @ g.T / (d + 2)


class TestLogRateConstant:
    def test_full_vs_iso_d5(self):
        assert log_rate_constant("A-vs-C", 5) == -7.0

    def test_diag_vs_iso_d5(self):
        assert log_rate_constant("D-vs-C", 5) == -2.0

    def test_d1_degenerate(self):
        assert log_rate_constant("A-vs-D", 1) == 0.0

    def test_unknown_pair(self):
        with pytest.raises(ConfigError):
            log_rate_constant("A-vs-B", 3)


class TestLinearRateConstant:
    def test_identity_second_moment(self):
        for pair in ("A-vs-D", "A-vs-C"):
            assert linear_rate_constant(pair, np.eye(3)) == pytest.approx(0.0, abs=1e-12)
        assert linear_rate_constant("D-vs-C", np.ones(3)) == pytest.approx(0.0, abs=1e-12)

    def test_hand_values(self):
        v = np.array([[1.0, 0.5], [0.5, 1.0]])
        assert linear_rate_constant("A-vs-D", v) == pytest.approx(0.14384, abs=1e-5)
        assert linear_rate_constant("D-vs-C", np.array([1.0, 4.0])) == pytest.approx(
            math.log(2.5 / 2), abs=1e-12
        )

    def test_nonnegative_and_zero_iff_structured(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            d = int(rng.integers(2, 5))
            g = rng.standard_normal((d, d + 2))
            v = g @ g.T / d
            assert linear_rate_constant("A-vs-D", v) >= -1e-12
            assert linear_rate_constant("A-vs-C", v) >= -1e-12
        assert abs(linear_rate_constant("A-vs-D", np.diag([1.0, 3.0]))) < 1e-12
        assert abs(linear_rate_constant("A-vs-C", 2.5 * np.eye(3))) < 1e-12

    def test_hadamard_identity_and_diagonal(self):
        assert linear_rate_constant("A-vs-D", np.eye(3)) == 0.0
        assert abs(linear_rate_constant("A-vs-D", np.diag([2.0, 3.0, 5.0]))) <= 1e-12

    def test_hadamard_hand_value(self):
        v = np.array([[1.0, 0.5], [0.5, 1.0]])  # det = 3/4
        assert linear_rate_constant("A-vs-D", v) == pytest.approx(0.5 * math.log(4 / 3), abs=1e-12)
        assert linear_rate_constant("A-vs-D", v) == pytest.approx(0.14384, abs=1e-5)

    def test_amgm_scalar_identity(self):
        for c in (0.1, 1.0, 7.5):
            assert abs(linear_rate_constant("A-vs-C", c * np.eye(4))) <= 1e-12

    def test_amgm_hand_values(self):
        assert linear_rate_constant("A-vs-C", np.diag([1.0, 4.0])) == pytest.approx(
            math.log(2.5 / 2.0), abs=1e-12
        )
        v = np.array([[1.0, 0.5], [0.5, 1.0]])
        # tr/d = 1, |V|^(1/2) = sqrt(3)/2
        assert linear_rate_constant("A-vs-C", v) == pytest.approx(
            math.log(1 / math.sqrt(0.75)), abs=1e-12
        )

    def test_nonnegative_on_random_pd(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            d = int(rng.integers(1, 6))
            v = random_pd(rng, d)
            assert linear_rate_constant("A-vs-D", v) >= -1e-12
            assert linear_rate_constant("A-vs-C", v) >= -1e-12
            assert linear_rate_constant("D-vs-C", v) >= -1e-12

    def test_equals_the_per_pair_formulas(self):
        # A-vs-D keeps Hadamard's arithmetic exactly; the C pairs reorder
        # the AM/GM arithmetic and may differ in the last bits
        rng = np.random.default_rng(12)
        for _ in range(2000):
            v = random_pd(rng, int(rng.integers(1, 7)))
            assert linear_rate_constant("A-vs-D", v) == hadamard_half_log_ratio(v)
            for pair, old in (
                ("A-vs-C", amgm_half_log_ratio(v)),
                ("D-vs-C", amgm_vector_ratio(np.diag(v))),
            ):
                assert abs(linear_rate_constant(pair, v) - old) <= 1e-15 * max(1.0, abs(old))
            assert linear_rate_constant("D-vs-C", np.diag(v)) == linear_rate_constant("D-vs-C", v)

    @pytest.mark.parametrize("pair", ["A-vs-D", "A-vs-C", "D-vs-C"])
    @pytest.mark.parametrize("shape", [(7,), (2, 3)])
    def test_stack_gives_one_value_per_matrix(self, pair, shape):
        rng = np.random.default_rng(13)
        for d in (1, 2, 5):
            v = np.array([random_pd(rng, d) for _ in range(np.prod(shape))]).reshape(*shape, d, d)
            got = linear_rate_constant(pair, v)
            want = np.array([linear_rate_constant(pair, m) for m in v.reshape(-1, d, d)])
            assert got.shape == shape
            np.testing.assert_allclose(got.ravel(), want, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("v", [[[1.0, 0.5], [0.5, 1.0]], np.eye(3)])
    def test_d_vs_c_reads_the_diagonal_of_a_matrix(self, v):
        # a constant diagonal: the D-vs-C rate is 0 whatever lies off it
        assert linear_rate_constant("D-vs-C", v) == 0.0

    @pytest.mark.parametrize(
        "pair, v, error",
        [
            # A pairs need the matrix, not the per-axis moments
            ("A-vs-D", np.ones(3), ConfigError),
            ("A-vs-C", np.ones(3), ConfigError),
            # a non-positive per-axis moment, as a vector or on a diagonal
            ("D-vs-C", np.array([1.0, 0.0, 2.0]), ConfigError),
            ("D-vs-C", np.diag([1.0, -1.0]), ConfigError),
            # neither a vector nor square matrices
            ("D-vs-C", np.ones((2, 3)), ConfigError),
            ("D-vs-C", np.ones((2, 2, 3)), ConfigError),
            ("A-vs-D", np.array([[1.0, 2.0], [2.0, 1.0]]), NotPositiveDefiniteError),
            # indefinite with a negative diagonal: the factorization fails first
            ("A-vs-C", np.array([[-1.0, 0.0], [0.0, 1.0]]), NotPositiveDefiniteError),
            ("A-vs-D", np.array([[1.0, 0.5], [0.0, 1.0]]), AsymmetricMatrixError),
            ("A-vs-B", np.eye(2), ConfigError),
        ],
    )
    def test_rejects(self, pair, v, error):
        with pytest.raises(error):
            linear_rate_constant(pair, v)


class TestSecondMoment:
    def test_closed_form_wishart(self):
        h = WishartHyper(4.0, np.diag([2.0, 1.0, 0.5]))
        # prior sample size 2*alpha - (d+1) = 4 at d = 3
        np.testing.assert_allclose(second_moment_matrix(h), h.rate / 4.0)

    def test_closed_form_diag(self):
        h = GammaVecHyper(2.0, np.array([1.0, 4.0]))
        np.testing.assert_allclose(np.diag(second_moment_matrix(h)), h.rate / 2.0)

    def test_closed_form_iso(self):
        # beta / (2 alpha - 2) per axis: 2 / 4 at alpha = 3
        h = GammaHyper(3.0, 2.0, 3)
        np.testing.assert_allclose(second_moment_matrix(h), 0.5 * np.eye(3), rtol=1e-15)

    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_diag_equals_the_per_axis_formula(self, d):
        rng = np.random.default_rng(d)
        for alpha in (1.1, 2.0, 3.7):
            h = GammaVecHyper(alpha, rng.uniform(0.1, 5.0, size=d))
            v = second_moment_matrix(h)
            assert np.array_equal(np.diag(v), second_moment_diag(h))
            assert np.array_equal(v, np.diag(np.diag(v)))

    @pytest.mark.slow
    def test_mc_pipeline_matches_closed_form(self):
        # draw H from the prior, one observation per draw, pool the scatter
        rng = np.random.default_rng(1)
        h = WishartHyper(4.0, np.array([[2.0, 0.3, 0.1], [0.3, 1.5, -0.2], [0.1, -0.2, 1.0]]))
        reps = 40_000
        outer = np.empty((reps, 3, 3))
        for i in range(reps):
            theta = sample_half_precision(h, rng)
            x = gaussian_rows(theta, 1, rng)[0]
            outer[i] = np.outer(x, x)
        mean = outer.mean(axis=0)
        se = outer.std(axis=0, ddof=1) / math.sqrt(reps)
        target = second_moment_matrix(h)
        assert np.all(np.abs(mean - target) < 3 * se)

    def test_mc_pipeline_diag(self):
        rng = np.random.default_rng(2)
        h = GammaVecHyper(2.0, np.array([0.5, 2.0]))
        reps = 40_000
        sq = np.empty((reps, 2))
        for i in range(reps):
            theta = sample_half_precision(h, rng)
            sq[i] = gaussian_rows(theta, 1, rng)[0] ** 2
        se = sq.std(axis=0, ddof=1) / math.sqrt(reps)
        assert np.all(np.abs(sq.mean(axis=0) - np.diag(second_moment_matrix(h))) < 3 * se)

    @pytest.mark.parametrize(
        "h",
        [
            WishartHyper(3.0, np.eye(5)),  # m = 2 alpha - (d+1) = 0
            GammaVecHyper(1.0, np.ones(3)),  # m = 2 alpha - 2 = 0
            GammaHyper(0.5, 1.0, 2),  # m = (2 alpha - 2) / d < 0
        ],
    )
    def test_regularity_required(self, h):
        with pytest.raises(ConfigError, match="prior sample size"):
            second_moment_matrix(h)


class TestFlexibilityBicGap:
    def test_worked_d1_value(self):
        h = GammaHyper(2.0, 1.0, 1)
        gap = flexibility_bic_gap(h, IsoPrecision(1.0, 1))
        assert gap == pytest.approx(1 + 0.5 * math.log(1 / (4 * math.pi)), abs=1e-12)

    def test_continuous_on_grid(self):
        h = GammaHyper(2.0, 1.0, 1)
        grid = np.linspace(0.1, 10.0, 400)
        vals = np.array([flexibility_bic_gap(h, IsoPrecision(float(e), 1)) for e in grid])
        assert np.all(np.isfinite(vals))
        # steepest slope on this range is about -19 (at eta = 0.1)
        assert np.abs(np.diff(vals)).max() < 25 * (grid[1] - grid[0])

    def test_non_regular_rejected(self):
        with pytest.raises(ConfigError):
            flexibility_bic_gap(GammaHyper(1.0, 1.0, 1), IsoPrecision(1.0, 1))


class TestGapStudy:
    def test_convergence_to_gap_and_kic(self):
        h = GammaHyper(2.0, 1.0, 1)
        theta0 = IsoPrecision(1.0, 1)
        rows = flexibility_gap_study(
            h, theta0, (100, 1000, 10_000, 100_000), reps=200, seed=5
        )
        errs = [r.mean_gap_error for r in rows]
        assert errs == sorted(errs, reverse=True)
        assert errs[-1] < 0.05
        kic_errs = [r.mean_abs_flex_minus_kic_penalty for r in rows]
        assert kic_errs == sorted(kic_errs, reverse=True)
        assert kic_errs[-1] < 0.05

    @pytest.mark.parametrize(
        "h, theta0",
        [
            (GammaHyper(2.0, 1.0, 1), IsoPrecision(1.0, 1)),
            (GammaVecHyper(3.0, np.array([1.0, 2.0, 0.5])), DiagPrecision(np.array([0.5, 1, 2]))),
            (WishartHyper(4.0, np.eye(3)), FullPrecision(np.eye(3) + 0.3)),
        ],
    )
    def test_equals_per_replicate_criteria(self, h, theta0):
        args = (h, theta0, (3, 20, 150), 7, 11)
        assert flexibility_gap_study(*args) == per_replicate_gap_study(*args)

    @pytest.mark.parametrize(
        "h, theta0, n_grid, reps",
        [
            # theta0 of another structure, or another dimension, than h
            (GammaHyper(2.0, 1.0, 2), FullPrecision(np.eye(2)), (10,), 3),
            (GammaVecHyper(2.0, np.ones(2)), IsoPrecision(1.0, 2), (10,), 3),
            (GammaHyper(2.0, 1.0, 2), IsoPrecision(1.0, 3), (10,), 3),
            # no replicates, n = 0, an empty or unsorted grid, n < d
            (GammaHyper(2.0, 1.0, 1), IsoPrecision(1.0, 1), (10,), 0),
            (GammaHyper(2.0, 1.0, 1), IsoPrecision(1.0, 1), (0, 10), 3),
            (GammaHyper(2.0, 1.0, 1), IsoPrecision(1.0, 1), (), 3),
            (GammaHyper(2.0, 1.0, 1), IsoPrecision(1.0, 1), (20, 10), 3),
            (WishartHyper(4.0, np.eye(3)), FullPrecision(np.eye(3)), (2, 10), 3),
            # a repeated n: a study's slope would divide by a zero spread of n
            (GammaHyper(2.0, 1.0, 3), IsoPrecision(1.0, 3), (10, 10), 3),
        ],
    )
    def test_rejects_invalid_inputs(self, h, theta0, n_grid, reps):
        with pytest.raises(ConfigError):
            flexibility_gap_study(h, theta0, n_grid, reps, 0)


class TestRateStudy:
    @pytest.mark.parametrize(
        "pair, truth, hyper, fixed_theta, n_grid",
        [
            # nested true
            ("A-vs-C", "C", oracle_hyper("C", 4, 2.0), None, (4, 5, 30)),
            # full true at a fixed half-precision
            ("A-vs-D", "A", oracle_hyper("A", 2, 2.0), FullPrecision(np.eye(2) + 0.4), (2, 5, 30)),
            # D against C, full true, from the prior
            ("D-vs-C", "D", oracle_hyper("D", 3, 2.0), None, (3, 5, 30)),
            # m = -1.5 at d = 1: at n = 1 neither posterior has a mode, but
            # both have an evidence
            ("A-vs-C", "A", WishartHyper(0.25, np.eye(1)), FullPrecision(np.eye(1)), (1, 5, 30)),
        ],
    )
    def test_equals_per_replicate_evidences(self, pair, truth, hyper, fixed_theta, n_grid):
        config = RateStudyConfig(
            pair=pair, truth=truth, hyper=hyper, n_grid=n_grid, reps=9, seed=4,
            fixed_theta=fixed_theta,
        )
        result = rate_study(config)
        assert (result.rows, result.slope) == per_replicate_rate_study(config)

    def test_failed_replicate_raises(self, monkeypatch):
        kernel = asymptotics._defined_evidence

        def indefinite_second_scatter(h, s, n):
            # B + s of replicate 1 is not positive definite for structure A
            s = s.copy()
            s[1] = [[1.0, 3.0, 0.0], [3.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
            return kernel(h, s, n)

        monkeypatch.setattr(asymptotics, "_defined_evidence", indefinite_second_scatter)
        config = RateStudyConfig(
            pair="A-vs-C", truth="C", hyper=oracle_hyper("C", 3, 2.0), n_grid=(10,), reps=3, seed=0
        )
        with pytest.raises(NotPositiveDefiniteError):
            rate_study(config)

    def test_undrawable_replicate_raises(self):
        # shape 0.005: some prior draws are outside the support or too small
        # for the scatter of their rows to be finite
        config = RateStudyConfig(
            pair="D-vs-C", truth="C", hyper=GammaHyper(0.005, 0.5, 2), n_grid=(10,), reps=200, seed=0
        )
        with pytest.raises(SupportError):
            rate_study(config)
        with pytest.raises(SupportError, match="overflows"):
            flexibility_gap_study(GammaHyper(2.0, 1.0, 2), IsoPrecision(1e-320, 2), (10,), 3, 0)

    def test_d1_full_vs_diag_is_identically_zero(self):
        config = RateStudyConfig(
            pair="A-vs-D",
            truth="D",
            hyper=GammaVecHyper(2.0, np.array([0.5])),
            n_grid=(10, 100),
            reps=5,
            seed=0,
        )
        result = rate_study(config)
        for row in result.rows:
            assert row.scaled_mean == pytest.approx(0.0, abs=1e-10)

    def test_nested_true_smoke(self):
        config = RateStudyConfig(
            pair="D-vs-C",
            truth="C",
            hyper=oracle_hyper("C", 5, 2.0),
            n_grid=(100, 1000),
            reps=40,
            seed=1,
        )
        result = rate_study(config)
        assert result.target == -2.0
        assert result.regressor == "log_n"
        # the scaled statistic at the largest n should be in the right ballpark
        assert result.rows[-1].scaled_mean < -1.0

    def test_full_true_fixed_theta_target(self):
        sigma = np.array([[1.0, 0.5], [0.5, 1.0]])
        config = RateStudyConfig(
            pair="A-vs-D",
            truth="A",
            hyper=oracle_hyper("A", 2, 2.0),
            n_grid=(2000,),
            reps=40,
            seed=2,
            fixed_theta=FullPrecision(0.5 * np.linalg.inv(sigma)),
        )
        result = rate_study(config)
        assert result.target == pytest.approx(0.5 * math.log(4 / 3), abs=1e-12)
        assert result.slope is None
        assert result.rows[0].scaled_mean == pytest.approx(result.target, rel=0.2)

    def test_determinism(self):
        config = RateStudyConfig(
            pair="A-vs-C",
            truth="C",
            hyper=oracle_hyper("C", 3, 2.0),
            n_grid=(50, 200),
            reps=10,
            seed=3,
        )
        r1 = rate_study(config)
        r2 = rate_study(config)
        assert r1 == r2

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            RateStudyConfig(
                pair="A-vs-C",
                truth="D",
                hyper=oracle_hyper("D", 3, 2.0),
                n_grid=(10,),
                reps=1,
                seed=0,
            )
        with pytest.raises(ConfigError):
            RateStudyConfig(
                pair="A-vs-C",
                truth="C",
                hyper=oracle_hyper("C", 3, 2.0),
                n_grid=(100, 10),
                reps=1,
                seed=0,
            )

    @pytest.mark.parametrize(
        "hyper, fixed_theta, message",
        [
            (oracle_hyper("C", 3, 2.0), None, "hyper structure must match the truth"),
            (oracle_hyper("A", 3, 2.0), FullPrecision(np.eye(2)), "fixed_theta dimension"),
        ],
        ids=["hyper-of-another-structure", "fixed-theta-of-another-dimension"],
    )
    def test_config_rejects_a_mismatched_hyper_or_theta(self, hyper, fixed_theta, message):
        with pytest.raises(ConfigError, match=message):
            RateStudyConfig("A-vs-C", "A", hyper, (10,), 1, 0, fixed_theta)

    FIXED_SIGMAS = [
        "2,0.6,0.3,0,0;0.6,1.5,0.4,0.2,0;0.3,0.4,1,0.3,0.1;0,0.2,0.3,0.8,0.2;0,0,0.1,0.2,0.5",
        "1,0.5;0.5,1",
        "3",
    ]

    @staticmethod
    def nested_true_configs(beta_inverse):
        return [
            RateStudyConfig(pair, truth, oracle_hyper(truth, d, beta_inverse), (max(d, 2),), 1, 0)
            for d in range(1, 9)
            for pair, truth in [("A-vs-D", "D"), ("A-vs-C", "C"), ("D-vs-C", "C")]
        ]

    def test_target_equals_the_chain(self):
        # nested true, from the CLI's generating hypers at its default beta_inverse
        for config in self.nested_true_configs(2.0):
            assert rate_study(config).target == chain_study_target(config)

    @pytest.mark.parametrize("beta_inverse", [0.1, 0.3, 1.0, 3.7, 10.0])
    def test_target_near_the_chain_at_other_scales(self, beta_inverse):
        # nested true, the target is -(k - l)/2 at every scale; at a fixed
        # theta of the CLI's --fixed-sigma matrices scaled by beta_inverse,
        # the scale-invariant target is the chain's up to rounding
        for config in self.nested_true_configs(beta_inverse):
            assert rate_study(config).target == chain_study_target(config)
        for sigma in self.FIXED_SIGMAS:
            theta = FullPrecision(_fixed_theta(sigma).as_matrix() / beta_inverse)
            for pair in ("A-vs-D", "A-vs-C"):
                hyper = oracle_hyper("A", theta.dim, beta_inverse)
                config = RateStudyConfig(pair, "A", hyper, (5, 50), 3, 0, fixed_theta=theta)
                old = chain_study_target(config)
                assert abs(rate_study(config).target - old) <= 1e-12 * max(1.0, abs(old))

    @pytest.mark.parametrize("pair, truth", [("A-vs-D", "A"), ("A-vs-C", "A"), ("D-vs-C", "D")])
    @pytest.mark.parametrize("d, beta_inverse", [(2, 2.0), (3, 0.5), (4, 2.0), (5, 3.7)])
    def test_full_true_target_is_the_mean_rate_of_the_draws(self, pair, truth, d, beta_inverse):
        # theta from the prior: each (seed, n) stream draws the theta stack
        # first, and the target is the mean of each draw's own rate at
        # V = (2 theta)^{-1}
        hyper = oracle_hyper(truth, d, beta_inverse)
        n_grid, reps, seed = (d, 10 * d, 100 * d), 7, 3
        result = rate_study(RateStudyConfig(pair, truth, hyper, n_grid, reps, seed))
        rates = []
        for n in n_grid:
            rng = np.random.default_rng(np.random.SeedSequence((seed, n)))
            for theta in sample_prior(hyper, reps, rng):
                v = np.linalg.inv(2 * theta) if truth == "A" else 1 / (2 * theta)
                rates.append(linear_rate_constant(pair, v))
        want = float(np.mean(rates))
        assert want > 0.01
        assert abs(result.target - want) <= 1e-12 * max(1.0, abs(want))

    @pytest.mark.parametrize(
        "pair, truth, theta",
        [
            ("A-vs-D", "A", _fixed_theta(FIXED_SIGMAS[0])),
            ("A-vs-C", "A", _fixed_theta(FIXED_SIGMAS[0])),
            ("A-vs-C", "A", _fixed_theta(FIXED_SIGMAS[1])),
            ("A-vs-D", "A", _fixed_theta(FIXED_SIGMAS[2])),
            ("D-vs-C", "D", DiagPrecision(np.array([0.5, 1.0, 2.0, 0.3]))),
        ],
    )
    def test_fixed_theta_target_is_the_chain(self, pair, truth, theta):
        # a fixed theta is every draw: the mean of its rate is its rate
        hyper = oracle_hyper(truth, theta.dim, 2.0)
        config = RateStudyConfig(pair, truth, hyper, (5, 50, 500), 4, 1, fixed_theta=theta)
        old = chain_study_target(config)
        assert abs(rate_study(config).target - old) <= 1e-12 * max(1.0, abs(old))

    @pytest.mark.parametrize(
        "field, value", [("reps", 2.5), ("n_grid", (100.5,)), ("n_grid", (10, 20.0)), ("seed", 1.5)]
    )
    def test_non_integral_design_rejected(self, field, value):
        # rate_study would otherwise fail with a bare TypeError
        kwargs = dict(pair="A-vs-C", truth="C", hyper=oracle_hyper("C", 3, 2.0), n_grid=(10,),
                      reps=2, seed=0)
        kwargs[field] = value
        with pytest.raises(ConfigError, match="integers"):
            RateStudyConfig(**kwargs)
        if field != "n_grid":
            h, theta0 = GammaHyper(2.0, 1.0, 1), IsoPrecision(1.0, 1)
            design = {"n_grid": (10,), "reps": 2, "seed": 0, field: value}
            with pytest.raises(ConfigError, match="integers"):
                flexibility_gap_study(h, theta0, **design)

    def test_numpy_integers_accepted(self):
        kwargs = dict(pair="A-vs-C", truth="C", hyper=oracle_hyper("C", 3, 2.0))
        plain = RateStudyConfig(**kwargs, n_grid=(10, 20), reps=3, seed=1)
        numpy = RateStudyConfig(
            **kwargs, n_grid=tuple(np.array([10, 20])), reps=np.int32(3), seed=np.uint8(1)
        )
        assert rate_study(numpy) == rate_study(plain)

    @pytest.mark.parametrize("pair, truth", [("A-vs-C", "C"), ("A-vs-D", "D"), ("D-vs-C", "C")])
    def test_nested_true_needs_n_at_least_2(self, pair, truth):
        # the statistic is scaled by log n, and log 1 = 0
        with pytest.raises(ConfigError, match="n >= 2"):
            RateStudyConfig(
                pair=pair,
                truth=truth,
                hyper=oracle_hyper(truth, 3, 2.0),
                n_grid=(1, 10),
                reps=5,
                seed=0,
            )

    @pytest.mark.parametrize("d, n_grid", [(3, (2, 10)), (5, (4, 100))])
    def test_n_below_d_rejected(self, d, n_grid):
        # the scatters are Wishart stacks drawn by Bartlett, which needs n >= d
        with pytest.raises(ConfigError, match="n >= d"):
            RateStudyConfig(
                pair="A-vs-C", truth="A", hyper=oracle_hyper("A", d, 2.0), n_grid=n_grid, reps=5,
                seed=0,
            )

    @pytest.mark.parametrize(
        "pair, truth, fixed_theta",
        [
            ("A-vs-D", "D", FullPrecision(np.array([[1.0, 0.4], [0.4, 1.0]]))),
            ("A-vs-C", "C", FullPrecision(np.array([[1.0, 0.4], [0.4, 1.0]]))),
            ("D-vs-C", "C", DiagPrecision(np.array([1.0, 2.0]))),
        ],
    )
    def test_fixed_theta_outside_the_truth_structure_rejected(self, pair, truth, fixed_theta):
        with pytest.raises(ConfigError, match="structure"):
            RateStudyConfig(
                pair=pair, truth=truth, hyper=oracle_hyper(truth, 2, 2.0), n_grid=(10,), reps=5,
                seed=0, fixed_theta=fixed_theta,
            )

    def test_fixed_theta_of_the_truth_structure_in_another_form(self):
        # a diagonal FullPrecision is a structure-D half-precision
        kwargs = dict(pair="A-vs-D", truth="D", hyper=oracle_hyper("D", 2, 2.0), n_grid=(10, 50),
                      reps=5, seed=0)
        as_full = RateStudyConfig(**kwargs, fixed_theta=FullPrecision(np.diag([0.5, 2.0])))
        as_diag = RateStudyConfig(**kwargs, fixed_theta=DiagPrecision(np.array([0.5, 2.0])))
        assert rate_study(as_full) == rate_study(as_diag)

    @pytest.mark.parametrize(
        "h, draws, half_precision",
        [
            # replicate 1 is indefinite, negative or zero
            (WishartHyper(4.0, np.eye(2)), [np.eye(2), [[1.0, 2.0], [2.0, 1.0]]], FullPrecision),
            (GammaVecHyper(2.0, np.ones(2)), [[1.0, 1.0], [1.0, -1.0]], DiagPrecision),
            (GammaHyper(2.0, 1.0, 2), [1.0, 0.0], lambda eta: IsoPrecision(eta, 2)),
        ],
    )
    def test_undrawable_prior_draw_fails_as_sample_half_precision_would(
        self, monkeypatch, h, draws, half_precision
    ):
        draws = np.array(draws)
        with pytest.raises(CovselError) as rejected:
            half_precision(draws[1])
        monkeypatch.setattr(asymptotics, "sample_prior", lambda h, size, rng: draws)
        with pytest.raises(type(rejected.value)):
            asymptotics._draw(h, 10, 2, 0, None)

    @pytest.mark.parametrize(
        "eta, message",
        [
            # replicate 0 overflows, replicate 1 is outside the support
            ([1e-320, 0.0, 1.0], "overflows"),
            ([0.0, 1e-320, 1.0], "positive and finite"),
        ],
    )
    def test_lowest_failing_replicate_raises(self, monkeypatch, eta, message):
        monkeypatch.setattr(asymptotics, "sample_prior", lambda h, size, rng: np.array(eta))
        with pytest.raises(SupportError, match=message):
            asymptotics._draw(GammaHyper(2.0, 1.0, 2), 10, 3, 0, None)

    def test_rates_far_beyond_the_default_grid(self):
        # Bounds fixed before the first run: the nested-true slope within 5%
        # of -(k - l)/2 = -7 on n = 10^2 ... 10^6, and the full-true scaled
        # mean at n = 10^6 within 1% of (1/2) log(4/3).
        nested = RateStudyConfig(
            pair="A-vs-C", truth="C", hyper=oracle_hyper("C", 5, 2.0),
            n_grid=(100, 1000, 10_000, 100_000, 1_000_000), reps=200, seed=108,
        )
        slope = rate_study(nested).slope
        assert abs(slope + 7.0) <= 0.05 * 7.0, slope
        sigma = np.array([[1.0, 0.5], [0.5, 1.0]])
        full = RateStudyConfig(
            pair="A-vs-D", truth="A", hyper=oracle_hyper("A", 2, 2.0), n_grid=(1_000_000,),
            reps=200, seed=108, fixed_theta=FullPrecision(0.5 * np.linalg.inv(sigma)),
        )
        target = 0.5 * math.log(4 / 3)
        got = rate_study(full).rows[0].scaled_mean
        assert abs(got - target) <= 0.01 * target, got

    def test_studies_never_draw_rows(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a study drew rows")

        for name in ("gaussian_rows", "draw_scatters"):
            monkeypatch.setattr(montecarlo, name, forbidden)
        monkeypatch.setattr(priors, "sample_half_precision", forbidden)
        for truth, fixed in (("C", None), ("A", FullPrecision(np.eye(3) + 0.3))):
            config = RateStudyConfig(
                pair="A-vs-C", truth=truth, hyper=oracle_hyper(truth, 3, 2.0), n_grid=(10, 100),
                reps=20, seed=0, fixed_theta=fixed,
            )
            assert len(rate_study(config).rows) == 2
        h = GammaVecHyper(3.0, np.array([1.0, 2.0, 0.5]))
        rows = flexibility_gap_study(h, DiagPrecision(np.array([0.5, 1, 2])), (10, 100), 20, 0)
        assert len(rows) == 2


class TestWishartScatters:
    """The Wishart stacks of `_draw` against the row sampler they replaced.

    Seeds and bounds were fixed before the first run. Per replicate,
    z_ij = (S_ij - n Sigma_ij) / sqrt(n (Sigma_ij^2 + Sigma_ii Sigma_jj))
    has mean 0 and variance 1 given Sigma; over 3 000 replicates the mean
    of z and of z^2 - 1 must lie within 4.5 standard errors of 0, for
    each entry i <= j. The row sampler passes the same check, which shows
    that the check holds for the law the stacks must reproduce. The log
    evidence ratios of 2 000 replicates of each sampler must pass a
    two-sample KS test at p > 0.001, at n = d and n = 100.
    """

    Z = 4.5
    CASES = [
        (WishartHyper(4.0, np.array([[1.0, 0.3, 0.1], [0.3, 0.8, -0.2], [0.1, -0.2, 0.6]])), None),
        (WishartHyper(4.0, np.eye(3)), FullPrecision(np.eye(3) + 0.3)),
        (GammaVecHyper(3.0, np.array([1.0, 2.0, 0.5])), None),
        (GammaVecHyper(3.0, np.array([1.0, 2.0, 0.5])), DiagPrecision(np.array([0.5, 1, 2]))),
        (GammaHyper(3.0, 2.0, 3), None),
        (GammaHyper(3.0, 2.0, 3), IsoPrecision(0.7, 3)),
    ]

    @pytest.mark.parametrize("sampler", ["wishart", "rows"])
    @pytest.mark.parametrize("n", [3, 40])
    @pytest.mark.parametrize("h, theta", CASES)
    def test_first_and_second_moments(self, h, theta, n, sampler):
        reps, seed = 3000, 21
        if sampler == "wishart":
            s = asymptotics._draw(h, n, reps, seed, theta)[0]
            sigma = wishart_covariances(h, n, reps, seed, theta)
        else:
            s, sigma = row_scatters(h, n, reps, seed, theta)
        diag = np.diagonal(sigma, axis1=-2, axis2=-1)
        var = n * (sigma**2 + diag[:, :, None] * diag[:, None, :])
        z = (s - n * sigma) / np.sqrt(var)
        upper = np.triu_indices(h.dim)
        z = z[:, upper[0], upper[1]]
        assert np.all(np.abs(z.mean(axis=0)) <= self.Z / math.sqrt(reps)), z.mean(axis=0)
        z2 = z**2
        se2 = z2.std(axis=0, ddof=1) / math.sqrt(reps)
        assert np.all(np.abs(z2.mean(axis=0) - 1) <= self.Z * se2), z2.mean(axis=0)

    @pytest.mark.parametrize("truth, seed, n", [("C", 8, 6), ("A", 9, 40)])
    def test_equal_to_the_column_loop(self, truth, seed, n):
        # the theta stack and then W, each from the oracle of `sample_prior`
        h, reps = oracle_hyper(truth, 4, 2.0), 300
        rng = np.random.default_rng(np.random.SeedSequence((seed, n)))
        draws = sample_prior_loop(h, reps, rng)
        w = sample_prior_loop(WishartHyper(n / 2, np.eye(4) / 2), reps, rng)
        s, errors = montecarlo.scatters_from(truth, draws, w)
        got_s, got_draws, _ = asymptotics._draw(h, n, reps, seed, None)
        assert not errors
        assert got_s.tobytes() == s.tobytes() and got_draws.tobytes() == draws.tobytes()

    # The per-n path the studies replaced (`draw_per_n`: a standard Wishart
    # hyper and its Bartlett scale per n, every theta factored on every call)
    # must give the same bytes over this grid, with 2 seeds per case.
    DIMS = [1, 2, 3, 5, 8]

    @staticmethod
    def n_grid(d, nested_true=False):
        return tuple(sorted({max(d, 2) if nested_true else d, d + 1, 37, 1000}))

    @staticmethod
    def fixed_theta(structure, d):
        """A fixed theta of `structure` in dimension d, not a multiple of I
        (except for C)."""
        if structure == "C":
            return IsoPrecision(0.7, d)
        if structure == "D":
            return DiagPrecision(np.linspace(0.4, 2.0, d))
        a = np.random.default_rng(d).standard_normal((d, d))
        return FullPrecision((a @ a.T + d * np.eye(d)) / 4)

    @pytest.mark.parametrize("fixed", [False, True])
    @pytest.mark.parametrize("structure", ["A", "D", "C"])
    @pytest.mark.parametrize("d", DIMS)
    def test_draw_equal_to_the_per_n_path(self, d, structure, fixed):
        h = oracle_hyper(structure, d, 2.0)
        theta = self.fixed_theta(structure, d) if fixed else None
        for seed in (3, 17):
            for n in self.n_grid(d):
                want_s, want_draws = draw_per_n(h, n, 9, seed, theta)
                forms = [theta] + ([asymptotics._fixed(structure, theta)] if fixed else [])
                for form in forms:  # a half-precision and its `_fixed` form
                    s, draws, _ = asymptotics._draw(h, n, 9, seed, form)
                    assert s.tobytes() == want_s.tobytes()
                    assert draws.tobytes() == want_draws.tobytes()

    @pytest.mark.parametrize("study", ["nested", "drawn", "fixed"])
    @pytest.mark.parametrize("pair", ["A-vs-D", "A-vs-C", "D-vs-C"])
    @pytest.mark.parametrize("d", DIMS)
    def test_rate_study_equal_to_the_per_n_path(self, d, pair, study):
        full, nested = pair.split("-vs-")
        truth = nested if study == "nested" else full
        for seed in (3, 17):
            config = RateStudyConfig(
                pair=pair, truth=truth, hyper=oracle_hyper(truth, d, 2.0),
                n_grid=self.n_grid(d, study == "nested"), reps=9, seed=seed,
                fixed_theta=self.fixed_theta(truth, d) if study == "fixed" else None,
            )
            got, want = rate_study(config), rate_study_per_n(config)
            if truth == "A":
                # log|V| from the scatters' factor, where the oracle factors V again
                assert got.target == pytest.approx(want.target, rel=1e-12, abs=0)
                got = dataclasses.replace(got, target=want.target)
            # floats as repr: every bit
            assert json.dumps(got.to_jsonable()) == json.dumps(want.to_jsonable())

    @pytest.mark.parametrize("structure", ["A", "D", "C"])
    @pytest.mark.parametrize("d", DIMS)
    def test_gap_study_rows_equal_to_the_per_n_path(self, d, structure):
        h, theta0 = oracle_hyper(structure, d, 2.0), self.fixed_theta(structure, d)
        grid = self.n_grid(d)
        gap, k = flexibility_bic_gap(h, theta0), param_count(structure, d)
        for seed in (3, 17):
            want = []
            for n in grid:
                fit = fit_structure(h, draw_per_n(h, n, 9, seed, theta0)[0], n)
                flex_term = fit.defined("flexibility") - k / 2 * np.log(n)
                kic_err = np.abs(fit.kic - fit.log_evidence)
                values = (np.abs(flex_term - gap).mean(), flex_term.mean(), kic_err.mean())
                want.append(GapStudyRow(int(n), *map(float, values)))
            got = flexibility_gap_study(h, theta0, grid, 9, seed)
            assert repr(got) == repr(want)

    @pytest.mark.parametrize("h", [oracle_hyper(s, 5, 2.0) for s in ("A", "D", "C")])
    def test_scatters_exactly_symmetric(self, h):
        # the D scatter scales W by r_i r_j, formed before W's entry
        s = asymptotics._draw(h, 100, 2000, 1, None)[0]
        assert np.array_equal(s, s.swapaxes(-1, -2))

    @pytest.mark.parametrize("large_n", [False, True])
    @pytest.mark.parametrize(
        "pair, truth, hyper, theta",
        [
            ("A-vs-C", "C", oracle_hyper("C", 4, 2.0), None),
            ("A-vs-D", "A", oracle_hyper("A", 3, 2.0), FullPrecision(np.eye(3) + 0.3)),
            ("D-vs-C", "D", oracle_hyper("D", 3, 2.0), None),
        ],
    )
    def test_log_evidence_ratio_matches_row_sampler(self, pair, truth, hyper, theta, large_n):
        reps, n = 2000, 100 if large_n else hyper.dim
        family = matched_family(hyper)
        full, nested = pair.split("-vs-")

        def log_ratio(s):
            fits = [fit_structure(family.for_structure(x), s, n) for x in (full, nested)]
            return fits[0].log_evidence - fits[1].log_evidence

        stacked = log_ratio(asymptotics._draw(hyper, n, reps, 31, theta)[0])
        rows = log_ratio(row_scatters(hyper, n, reps, 32, theta)[0])
        assert ks_2samp(stacked, rows).pvalue > 1e-3
