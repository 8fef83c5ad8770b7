import math

import numpy as np
import pytest

import covsel.asymptotics as asymptotics
from covsel.asymptotics import (
    GapStudyRow,
    RateStudyConfig,
    RateStudyRow,
    flexibility_bic_gap,
    flexibility_gap_study,
    linear_rate_constant,
    log_rate_constant,
    rate_study,
    second_moment_diag,
    second_moment_matrix,
)
from covsel.data import SuffStats
from covsel.errors import ConfigError, NotPositiveDefiniteError
from covsel.montecarlo import gaussian_rows, oracle_hyper
from covsel.precision import DiagPrecision, FullPrecision, IsoPrecision
from covsel.priors import (
    GammaHyper,
    GammaVecHyper,
    WishartHyper,
    matched_family,
    sample_half_precision,
)
from covsel.structures import criteria, log_evidence, param_count


# ---------------------------------------------------------------------------
# Oracles: the per-replicate loops the stacked studies replaced
# ---------------------------------------------------------------------------


def _replicate_stats(seed, n, rep, theta, hyper):
    rng = np.random.default_rng(np.random.SeedSequence((seed, int(n), rep)))
    x = gaussian_rows(theta or sample_half_precision(hyper, rng), n, rng)
    s = x.T @ x
    return SuffStats(n=n, d=hyper.dim, s=(s + s.T) / 2)


def per_replicate_rate_study(config):
    """(rows, slope) of `rate_study`, two scalar evidences per replicate."""
    full, nested = config.pair.split("-vs-")
    family = matched_family(config.hyper)
    nested_true = config.truth == nested
    rows, means = [], []
    for n in config.n_grid:
        vals = np.empty(config.reps)
        for rep in range(config.reps):
            stats = _replicate_stats(config.seed, n, rep, config.fixed_theta, config.hyper)
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
    """`flexibility_gap_study` with one scalar `criteria` call per replicate."""
    gap = flexibility_bic_gap(h, theta0)
    k = param_count(theta0.structure, theta0.dim)
    rows = []
    for n in n_grid:
        flex_term, kic_err = np.empty(reps), np.empty(reps)
        for rep in range(reps):
            fit = criteria(h, _replicate_stats(seed, n, rep, theta0, h))
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


class TestSecondMoment:
    def test_closed_form_wishart(self):
        h = WishartHyper(4.0, np.diag([2.0, 1.0, 0.5]))
        # prior sample size 2*alpha - (d+1) = 4 at d = 3
        np.testing.assert_allclose(second_moment_matrix(h), h.rate / 4.0)

    def test_closed_form_diag(self):
        h = GammaVecHyper(2.0, np.array([1.0, 4.0]))
        np.testing.assert_allclose(second_moment_diag(h), h.rate / 2.0)

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
        assert np.all(np.abs(sq.mean(axis=0) - second_moment_diag(h)) < 3 * se)

    def test_regularity_required(self):
        with pytest.raises(ConfigError):
            second_moment_matrix(WishartHyper(3.0, np.eye(5)))  # m = 0


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


class TestRateStudy:
    @pytest.mark.parametrize(
        "pair, truth, hyper, fixed_theta, n_grid",
        [
            # nested true
            ("A-vs-C", "C", oracle_hyper("C", 4, 2.0), None, (2, 5, 30)),
            # full true at a fixed half-precision
            ("A-vs-D", "A", oracle_hyper("A", 2, 2.0), FullPrecision(np.eye(2) + 0.4), (2, 5, 30)),
            # D against C, full true, from the prior
            ("D-vs-C", "D", oracle_hyper("D", 3, 2.0), None, (2, 5, 30)),
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
        kernel = asymptotics.fit_structure

        def indefinite_second_scatter(h, s, n):
            # B + s of replicate 1 is not positive definite for structure A
            s = s.copy()
            s[1] = [[1.0, 3.0, 0.0], [3.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
            return kernel(h, s, n)

        monkeypatch.setattr(asymptotics, "fit_structure", indefinite_second_scatter)
        config = RateStudyConfig(
            pair="A-vs-C", truth="C", hyper=oracle_hyper("C", 3, 2.0), n_grid=(10,), reps=3, seed=0
        )
        with pytest.raises(NotPositiveDefiniteError):
            rate_study(config)

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
