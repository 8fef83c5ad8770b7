import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, stats as sps

from covsel.data import Dataset, SuffStats, suff_stats
import covsel.priors as priors
from covsel.errors import (
    ConfigError,
    CovselError,
    DegenerateScatterError,
    DimensionMismatchError,
    EmptyDatasetError,
    SupportError,
)
from covsel.precision import DiagPrecision, FullPrecision, IsoPrecision, as_array, from_array
from covsel.priors import (
    GammaHyper,
    GammaVecHyper,
    HyperTriple,
    WishartHyper,
    conjugate_update,
    empirical_bayes,
    family,
    hyper_from_jsonable,
    hyper_to_jsonable,
    kl_objective,
    log_normalizer,
    log_normalizer_at,
    log_prior_density,
    match_down,
    match_up,
    matched_family,
    mclust_default,
    moment_hypers,
    prior_sample_size,
    rate_matrix,
    sample_half_precision,
    sample_prior,
    shape_for_sample_size,
)
from covsel.specialfn import log_mv_gamma
from covsel.structures import flexibility, param_count

from conftest import sample_prior_loop, stack_hypers, theta_log_det, theta_trace_product


def random_stats(rng, n, d):
    return suff_stats(Dataset(rng.standard_normal((n, d))))


class TestPriorSampleSize:
    def test_wishart(self):
        ps = prior_sample_size(WishartHyper(4.0, np.eye(5)))
        assert ps.m == 2.0 and not ps.non_regular

    def test_gamma_c(self):
        ps = prior_sample_size(GammaHyper(6.0, 1.0, 5))
        assert ps.m == pytest.approx(2.0)

    def test_boundary_non_regular(self):
        ps = prior_sample_size(GammaVecHyper(1.0, np.ones(3)))
        assert ps.m == 0.0 and ps.non_regular


class TestConjugateUpdate:
    def test_wishart(self):
        h = conjugate_update(
            WishartHyper(4.0, np.eye(2)), SuffStats(n=3, d=2, s=2 * np.eye(2))
        )
        assert h.alpha == 5.5
        np.testing.assert_allclose(h.rate, 3 * np.eye(2))

    def test_gamma(self):
        h = conjugate_update(GammaHyper(2.0, 1.0, 1), SuffStats(n=1, d=1, s=[[1.0]]))
        assert (h.alpha, h.rate) == (2.5, 2.0)

    def test_empty_update_is_identity(self):
        h0 = GammaVecHyper(2.0, np.array([1.0, 3.0]))
        h1 = conjugate_update(h0, SuffStats(n=0, d=2, s=np.zeros((2, 2))))
        assert h1.alpha == h0.alpha
        np.testing.assert_allclose(h1.rate, h0.rate)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            conjugate_update(GammaHyper(2.0, 1.0, 2), SuffStats(n=1, d=3, s=np.eye(3)))


class TestMatching:
    def test_down_to_diag(self):
        beta = 0.7
        g = match_down(WishartHyper(4.0, beta * np.eye(5)), "D")
        assert g.alpha == 2.0
        np.testing.assert_allclose(g.rate, np.full(5, beta))

    def test_down_to_iso(self):
        beta = 0.7
        g = match_down(WishartHyper(4.0, beta * np.eye(5)), "C")
        assert g.alpha == 6.0
        assert g.rate == pytest.approx(5 * beta)

    def test_up_from_diag(self):
        w = match_up(GammaVecHyper(2.0, np.full(5, 0.7)), "A")
        assert w.alpha == 4.0
        np.testing.assert_allclose(w.rate, 0.7 * np.eye(5))

    def test_up_from_iso(self):
        w = match_up(GammaHyper(6.0, 5 * 0.7, 5), "A")
        assert w.alpha == 4.0
        np.testing.assert_allclose(w.rate, 0.7 * np.eye(5))

    def test_d1_all_coincide(self):
        w = WishartHyper(3.0, np.array([[2.0]]))
        c = match_down(w, "C")
        assert c.alpha == pytest.approx(3.0)
        assert c.rate == pytest.approx(2.0)

    def test_round_trip_diag(self):
        g = GammaVecHyper(2.5, np.array([0.3, 1.0, 4.0]))
        back = match_down(match_up(g, "A"), "D")
        assert back.alpha == pytest.approx(g.alpha)
        np.testing.assert_allclose(back.rate, g.rate)

    def test_round_trip_iso_through_diag(self):
        c = GammaHyper(6.0, 3.5, 5)
        back = match_down(match_up(c, "D"), "C")
        assert back.alpha == pytest.approx(c.alpha)
        assert back.rate == pytest.approx(c.rate)

    def test_sample_size_preserved(self):
        rng = np.random.default_rng(0)
        g = rng.standard_normal((4, 6))
        w = WishartHyper(5.0, g @ g.T / 6)
        m = prior_sample_size(w).m
        for target in ("D", "C"):
            assert prior_sample_size(match_down(w, target)).m == pytest.approx(m)
        gv = GammaVecHyper(3.0, np.array([1.0, 2.0, 0.5]))
        assert prior_sample_size(match_up(gv, "A")).m == pytest.approx(
            prior_sample_size(gv).m
        )

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(1, 6),
        structure=st.sampled_from(["A", "D", "C"]),
        frac=st.floats(0.0, 1.0),
    )
    def test_sample_size_preserved_in_every_direction(self, seed, d, structure, frac):
        # m from just above the smallest valid value (-2/d, for C) to 6,
        # so non-regular priors (m <= 0) are included
        rng = np.random.default_rng(seed)
        m = -1.9 / d + frac * (6.0 + 1.9 / d)
        alpha = shape_for_sample_size(structure, m, d)
        g = rng.standard_normal((d, d + 2))
        h = {
            "A": lambda: WishartHyper(alpha, g @ g.T / (d + 2) + 0.1 * np.eye(d)),
            "D": lambda: GammaVecHyper(alpha, rng.uniform(0.3, 3.0, size=d)),
            "C": lambda: GammaHyper(alpha, rng.uniform(0.3, 3.0), d),
        }[structure]()
        assert prior_sample_size(h).m == pytest.approx(m, rel=1e-12, abs=1e-12)
        order = "CDA"
        for target in order[: order.index(structure)]:
            assert prior_sample_size(match_down(h, target)).m == pytest.approx(m, abs=1e-12)
        for target in order[order.index(structure) + 1 :]:
            assert prior_sample_size(match_up(h, target)).m == pytest.approx(m, abs=1e-12)
        for member in matched_family(h):
            assert prior_sample_size(member).m == pytest.approx(m, abs=1e-12)

    def test_rate_matrix(self):
        b = np.array([[2.0, 0.3], [0.3, 1.0]])
        assert np.array_equal(rate_matrix(WishartHyper(3.0, b)), b)
        assert np.array_equal(rate_matrix(GammaVecHyper(2.0, [0.5, 3.0])), np.diag([0.5, 3.0]))
        # the isotropic matrix whose trace is beta
        assert np.array_equal(rate_matrix(GammaHyper(2.0, 3.0, 2)), 1.5 * np.eye(2))
        # a stacked rate gives a stack of matrices
        stacked = rate_matrix(GammaHyper(2.0, np.array([2.0, 4.0]), 2))
        assert np.array_equal(stacked, np.array([np.eye(2), 2 * np.eye(2)]))
        stacked = rate_matrix(GammaVecHyper(2.0, np.array([[1.0, 2.0], [3.0, 4.0]])))
        assert np.array_equal(stacked, np.array([np.diag([1.0, 2.0]), np.diag([3.0, 4.0])]))

    def test_matching_takes_the_statistic_of_the_rate_matrix(self):
        for h in (
            WishartHyper(3.0, np.array([[2.0, 0.3], [0.3, 1.0]])),
            GammaVecHyper(2.0, [0.5, 3.0]),
            GammaHyper(2.0, 3.0, 2),
        ):
            b = rate_matrix(h)
            triple = matched_family(h)
            assert np.array_equal(triple.a.rate, b)
            assert np.array_equal(triple.d.rate, np.diag(b))
            assert triple.c.rate == np.trace(b)

    def test_direction_enforced(self):
        with pytest.raises(ConfigError):
            match_down(GammaHyper(2.0, 1.0, 3), "A")
        with pytest.raises(ConfigError):
            match_up(WishartHyper(4.0, np.eye(2)), "C")

    @pytest.mark.parametrize("match", [match_down, match_up])
    def test_unknown_target_rejected(self, match):
        with pytest.raises(ValueError, match="unknown structure 'X'"):
            match(GammaVecHyper(2.0, np.ones(2)), "X")


class TestKlObjective:
    def test_matched_attains_normalizer_ratio(self):
        # at the matched hyperparameters the integrand is constant in eta,
        # so the MC spread collapses to floating-point noise
        rng = np.random.default_rng(10)
        full = GammaVecHyper(2.0, np.array([1.0, 2.0, 3.0]))
        nested = match_down(full, "C")
        est, se = kl_objective(full, nested, 200_000, rng)
        closed = log_normalizer(nested) - log_normalizer(full)
        assert abs(est - closed) < max(3 * se, 1e-9)

    def test_matched_attains_ratio_wishart_full(self):
        rng = np.random.default_rng(11)
        full = WishartHyper(4.0, np.diag([0.5, 1.0, 2.0]))
        nested = match_down(full, "D")
        est, se = kl_objective(full, nested, 200_000, rng)
        closed = log_normalizer(nested) - log_normalizer(full)
        assert abs(est - closed) < max(3 * se, 1e-9)

    def test_identical_densities_at_d1(self):
        rng = np.random.default_rng(12)
        full = WishartHyper(3.0, np.array([[1.5]]))
        nested = match_down(full, "C")
        est, se = kl_objective(full, nested, 10_000, rng)
        assert abs(est) < max(3 * se, 1e-12)

    def test_perturbed_exceeds_matched(self):
        rng = np.random.default_rng(13)
        full = GammaVecHyper(2.0, np.array([1.0, 2.0, 3.0]))
        matched = match_down(full, "C")
        base, base_se = kl_objective(full, matched, 100_000, rng)
        m = prior_sample_size(matched).m
        worse = GammaHyper((1.2 * m * 3 + 2) / 2, matched.rate, 3)
        est, se = kl_objective(full, worse, 100_000, rng)
        assert est - base > 3 * np.hypot(base_se, se)

    @pytest.mark.parametrize(
        "full, nested, n_samples, error, message",
        [
            (GammaVecHyper(2.0, np.ones(3)), GammaHyper(2.0, 1.0, 3), 0, ConfigError, ">= 1"),
            (GammaHyper(2.0, 1.0, 3), GammaVecHyper(2.0, np.ones(3)), 5, ConfigError, "below C"),
            (
                GammaVecHyper(2.0, np.ones(3)),
                GammaHyper(2.0, 1.0, 2),
                5,
                DimensionMismatchError,
                "different dimensions",
            ),
        ],
        ids=["no-samples", "nesting-reversed", "dimensions"],
    )
    def test_rejects(self, full, nested, n_samples, error, message):
        with pytest.raises(error, match=message):
            kl_objective(full, nested, n_samples, np.random.default_rng(0))


class TestEmpiricalBayes:
    def test_worked_values(self):
        st = SuffStats(n=2, d=5, s=2 * np.eye(5))
        triple = empirical_bayes(st, m=2.0)
        assert (triple.a.alpha, triple.d.alpha, triple.c.alpha) == (4.0, 2.0, 6.0)
        np.testing.assert_allclose(triple.a.rate, 2 * np.eye(5))
        np.testing.assert_allclose(triple.d.rate, np.full(5, 2.0))
        assert triple.c.rate == pytest.approx(10.0)

    def test_empty_rejected(self):
        with pytest.raises(EmptyDatasetError):
            empirical_bayes(SuffStats(n=0, d=2, s=np.zeros((2, 2))))

    def test_singular_scatter_rejected(self):
        st = SuffStats(n=1, d=3, s=np.outer([1.0, 0, 0], [1.0, 0, 0]))
        with pytest.raises(DegenerateScatterError):
            empirical_bayes(st)

    def test_d1_rates_coincide(self):
        rng = np.random.default_rng(14)
        st = random_stats(rng, 9, 1)
        triple = empirical_bayes(st)
        assert triple.a.rate[0, 0] == pytest.approx(triple.d.rate[0])
        assert triple.d.rate[0] == pytest.approx(triple.c.rate)


def scalar_empirical_bayes(stats, m=2.0):
    """The per-replicate empirical-Bayes builder `moment_hypers` replaced,
    kept as its oracle."""
    if stats.n < 1:
        raise EmptyDatasetError("empirical Bayes requires at least one observation")
    d = stats.d
    alpha_a = shape_for_sample_size("A", m, d)
    alpha_d = shape_for_sample_size("D", m, d)
    alpha_c = shape_for_sample_size("C", m, d)
    b = (2 * alpha_a - d - 1) * stats.s / stats.n
    try:
        wish = WishartHyper(alpha_a, b)
    except CovselError as exc:
        raise DegenerateScatterError(
            f"scatter matrix is singular at n={stats.n}, d={d}: {exc}"
        ) from exc
    if np.any(stats.s_diag <= 0) or stats.s_total <= 0:
        raise DegenerateScatterError("scatter diagonal must be strictly positive")
    gvec = GammaVecHyper(alpha_d, (2 * alpha_d - 2) * stats.s_diag / stats.n)
    gam = GammaHyper(alpha_c, (2 * alpha_c - 2) * stats.s_total / (stats.n * d), d)
    return HyperTriple(wish, gvec, gam)


def scalar_mclust_default(stats):
    """The per-replicate mclust builder `moment_hypers` replaced, kept as
    its oracle."""
    if stats.n < 1:
        raise EmptyDatasetError("mclust default requires at least one observation")
    d = stats.d
    alpha = (d + 2) / 2
    try:
        wish = WishartHyper(alpha, 2 * stats.s / stats.n)
    except CovselError as exc:
        raise DegenerateScatterError(
            f"scatter matrix is singular at n={stats.n}, d={d}: {exc}"
        ) from exc
    if stats.s_total <= 0:
        raise DegenerateScatterError("scatter trace must be strictly positive")
    rate = 2 * stats.s_total / (stats.n * d)
    return HyperTriple(wish, GammaVecHyper(alpha, np.full(d, rate)), GammaHyper(alpha, rate, d))


def scatter_stack(rng, n, d):
    """Scatters of n rows with column scales spread over six decades, and
    rank-deficient members: the scatters of no rows and of fewer than d
    rows, one with a zero row and column, and an integer rank-one product."""
    scales = 10.0 ** rng.uniform(-3, 3, size=d)
    rows = [n] * 5 + [0, int(rng.integers(1, d)) if d > 1 else 0]
    s = []
    for k in rows:
        x = rng.standard_normal((k, d)) * scales
        s.append(x.T @ x)
    zero_col = s[0].copy()
    j = int(rng.integers(d))
    zero_col[j, :] = zero_col[:, j] = 0.0
    v = rng.integers(-3, 4, size=d).astype(float)
    s = np.stack(s + [zero_col, np.outer(v, v)])
    return s[rng.permutation(len(s))]


class TestMomentHypers:
    """The stacked builder against the per-replicate builders it replaced."""

    @pytest.mark.parametrize("d", range(1, 7))
    def test_matches_the_scalar_builders_bit_for_bit(self, d):
        rng = np.random.default_rng(40 + d)
        for n in range(d, 13):
            s = scatter_stack(rng, n, d)
            for m in (0.3, 1.7, 2, 5.5):
                for scheme, oracle in (
                    ("empirical-bayes", lambda stats: scalar_empirical_bayes(stats, m)),
                    ("mclust-default", scalar_mclust_default),
                ):
                    triple, errors = moment_hypers(scheme, s, n, m)
                    for i in range(len(s)):
                        stats = SuffStats(n=n, d=d, s=s[i])
                        try:
                            want = oracle(stats)
                        except DegenerateScatterError as exc:
                            assert type(errors[i]) is DegenerateScatterError
                            assert str(errors[i]) == str(exc)
                            continue
                        assert i not in errors
                        a, vec, c = triple
                        np.testing.assert_array_equal(
                            [a.alpha, vec.alpha, c.alpha], [h.alpha for h in want]
                        )
                        np.testing.assert_array_equal(a.rate[i], want.a.rate)
                        np.testing.assert_array_equal(a.log_det_rate[i], want.a.log_det_rate)
                        np.testing.assert_array_equal(vec.rate[i], want.d.rate)
                        np.testing.assert_array_equal(c.rate[i], want.c.rate)
                        assert c.dim == want.c.dim == d
                    assert errors, "every stack holds rank-deficient members"
                    assert np.isfinite(triple.a.log_det_rate).all()

    def test_scalar_builders_are_the_oracles_bit_for_bit(self):
        rng = np.random.default_rng(47)
        for d in (1, 3, 6):
            for stats in (random_stats(rng, d, d), random_stats(rng, 12, d)):
                for m in (0.3, 1.7, 2, 5.5):
                    got = (*empirical_bayes(stats, m), *mclust_default(stats))
                    want = (*scalar_empirical_bayes(stats, m), *scalar_mclust_default(stats))
                    for g, w in zip(got, want):
                        assert (type(g), g.alpha, g.dim) == (type(w), w.alpha, w.dim)
                        np.testing.assert_array_equal(g.rate, w.rate)
                    for g, w in zip(got[::3], want[::3]):  # the two Wishart rates
                        assert g.log_det_rate == w.log_det_rate
                    assert type(got[2].rate) is type(got[5].rate) is float
        singular = SuffStats(n=3, d=3, s=np.outer([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]))
        for build, oracle in (
            (empirical_bayes, scalar_empirical_bayes),
            (mclust_default, scalar_mclust_default),
        ):
            with pytest.raises(DegenerateScatterError) as want:
                oracle(singular)
            with pytest.raises(DegenerateScatterError) as got:
                build(singular)
            assert str(got.value) == str(want.value)

    @pytest.mark.parametrize(
        "scheme, diagonals, failed, message",
        [
            ("empirical-bayes", [1, (2, -1), -1, 2], [1, 2], "scatter diagonal must be"),
            ("mclust-default", [1, -1, 2, (-2, 1)], [1, 3], "scatter trace must be"),
        ],
    )
    def test_non_positive_gamma_rates_fail_alone(
        self, monkeypatch, scheme, diagonals, failed, message
    ):
        # a positive definite Wishart rate already gives positive gamma
        # rates, so the second check only acts once the first is skipped:
        # every diagonal b passes, with the Cholesky factor of |b|
        monkeypatch.setattr(priors, "cholesky_stack", lambda b: (np.sqrt(np.abs(b)), {}))
        s = np.stack([np.diag(np.broadcast_to(v, 2).astype(float)) for v in diagonals])
        triple, errors = moment_hypers(scheme, s, 4)
        assert sorted(errors) == failed
        assert all(type(exc) is DegenerateScatterError for exc in errors.values())
        assert all(str(exc) == message + " strictly positive" for exc in errors.values())
        np.testing.assert_array_equal(triple.a.rate[failed], np.stack([np.eye(2)] * len(failed)))
        np.testing.assert_array_equal(triple.a.log_det_rate[failed], 0.0)
        np.testing.assert_array_equal(triple.d.rate[failed], 1.0)
        np.testing.assert_array_equal(triple.c.rate[failed], 1.0)

    @pytest.mark.parametrize("scheme", ["empirical-bayes", "mclust-default"])
    def test_overflowing_rates_fail_alone(self, scheme):
        # at n = 1 the Wishart rate m s or 2 s overflows, and LAPACK factors
        # it without raising; the empirical-Bayes rate m s_11 overflows too
        s = np.stack([np.eye(3), np.diag([1e308, 1.0, 1.0]), 2 * np.eye(3)])
        # a RuntimeWarning would fail the test (pytest's filterwarnings)
        triple, errors = moment_hypers(scheme, s, 1)
        assert list(errors) == [1] and type(errors[1]) is DegenerateScatterError
        assert str(errors[1]).endswith("rates overflow")
        np.testing.assert_array_equal(triple.a.rate[1], np.eye(3))
        assert triple.a.log_det_rate[1] == 0.0
        np.testing.assert_array_equal(triple.d.rate[1], 1.0)
        assert triple.c.rate[1] == 1.0
        rest, rest_errors = moment_hypers(scheme, s[[0, 2]], 1)
        assert rest_errors == {}
        for h, want in zip(triple, rest):
            np.testing.assert_array_equal(h.rate[[0, 2]], want.rate)

    @pytest.mark.parametrize("m", [0, 0.0, -1.5])
    def test_non_positive_prior_sample_size_is_a_config_error(self, m):
        stats = SuffStats(n=6, d=5, s=np.eye(5))
        with pytest.raises(ConfigError, match="prior sample size"):
            empirical_bayes(stats, m=m)
        with pytest.raises(ConfigError, match="prior sample size"):
            moment_hypers("empirical-bayes", np.stack([np.eye(5)] * 3), 6, m)
        # the mclust rates do not use m
        assert moment_hypers("mclust-default", np.stack([np.eye(5)] * 3), 6, m)[1] == {}

    def test_rejects_an_unknown_scheme_and_no_observations(self):
        with pytest.raises(ConfigError):
            moment_hypers("oracle", np.stack([np.eye(2)]), 3)
        for scheme in ("empirical-bayes", "mclust-default"):
            with pytest.raises(EmptyDatasetError):
                moment_hypers(scheme, np.zeros((2, 2, 2)), 0)


class TestMclustDefault:
    def test_shapes(self):
        rng = np.random.default_rng(15)
        triple = mclust_default(random_stats(rng, 8, 5))
        assert triple.a.alpha == triple.d.alpha == triple.c.alpha == 3.5

    def test_rates(self):
        st = SuffStats(n=2, d=5, s=2 * np.eye(5))
        triple = mclust_default(st)
        np.testing.assert_allclose(triple.a.rate, 2 * np.eye(5))
        assert triple.c.rate == pytest.approx(2 * st.s_total / (2 * 5))
        np.testing.assert_allclose(triple.d.rate, np.full(5, triple.c.rate))


class TestSampler:
    def test_wishart_mean(self):
        rng = np.random.default_rng(16)
        g = rng.standard_normal((3, 5))
        h = WishartHyper(4.0, g @ g.T / 5 + 0.5 * np.eye(3))
        draws = np.stack(
            [sample_half_precision(h, rng).matrix for _ in range(20_000)]
        )
        mean = draws.mean(axis=0)
        se = draws.std(axis=0, ddof=1) / np.sqrt(draws.shape[0])
        target = h.alpha * np.linalg.inv(h.rate)
        assert np.all(np.abs(mean - target) < 3 * se)

    def test_gamma_mean(self):
        rng = np.random.default_rng(17)
        h = GammaHyper(3.0, 2.0, 4)
        vals = np.array([sample_half_precision(h, rng).value for _ in range(20_000)])
        se = vals.std(ddof=1) / np.sqrt(vals.size)
        assert abs(vals.mean() - 1.5) < 3 * se

    def test_wishart_d1_is_gamma(self):
        rng = np.random.default_rng(18)
        h = WishartHyper(2.5, np.array([[1.7]]))
        draws = np.array(
            [sample_half_precision(h, rng).matrix[0, 0] for _ in range(10_000)]
        )
        res = sps.kstest(draws, "gamma", args=(2.5, 0.0, 1 / 1.7))
        assert res.statistic < 1.63 / np.sqrt(draws.size)  # 1% critical value

    def test_shape_constraint(self):
        h = WishartHyper(1.2, np.eye(3))  # valid density, 2a = 2.4 > d-1 = 2
        sample_half_precision(h, np.random.default_rng(0))
        with pytest.raises(SupportError):
            WishartHyper(0.9, np.eye(3))

    @pytest.mark.parametrize("alpha", [np.nan, np.inf])
    @pytest.mark.parametrize("structure", ["A", "D", "C"])
    def test_non_finite_shape_rejected(self, structure, alpha):
        # NaN passes a bare `alpha <= bound` check, and inf is no density
        make = {
            "A": lambda: WishartHyper(alpha, np.eye(2)),
            "D": lambda: GammaVecHyper(alpha, np.ones(2)),
            "C": lambda: GammaHyper(alpha, 1.0, 2),
        }[structure]
        with pytest.raises(SupportError):
            make()


def bartlett_loop(h, rng):
    """The element-by-element Bartlett sampler that `sample_prior`'s A draw
    replaced, kept as its oracle: one scalar draw at a time, column by
    column, the chi-square first."""
    d, nu = h.dim, 2 * h.alpha
    a = np.zeros((d, d))
    for j in range(d):
        a[j, j] = np.sqrt(rng.chisquare(nu - j))
        for i in range(j + 1, d):
            a[i, j] = rng.standard_normal()
    fa = np.linalg.inv(np.linalg.cholesky(2 * h.rate)).T @ a
    return fa @ fa.T


class TestSamplerOracles:
    @pytest.mark.parametrize("d", range(1, 7))
    @pytest.mark.parametrize("excess", [0.05, 0.25, 0.5, 3.0])  # alpha - (d-1)/2
    def test_bartlett_loop_bit_identical(self, d, excess):
        g = np.random.default_rng(d).standard_normal((d, d + 2))
        h = WishartHyper((d - 1) / 2 + excess, g @ g.T / d + 0.3 * np.eye(d))
        old, new = np.random.default_rng(30), np.random.default_rng(30)
        for _ in range(50):
            # nearer the boundary, draws are often numerically singular and
            # FullPrecision rejects them; there the raw batch of one is compared
            if excess < 0.25:
                draw = sample_prior(h, 1, new)[0]
            else:
                draw = sample_half_precision(h, new).matrix
            np.testing.assert_array_equal(draw, bartlett_loop(h, old))
        assert new.bit_generator.state == old.bit_generator.state

    @pytest.mark.parametrize("d", range(1, 7))
    @pytest.mark.parametrize("size", [1, 7, 400])
    def test_stacks_equal_the_column_loop(self, d, size):
        g = np.random.default_rng(d).standard_normal((d, d + 2))
        h = WishartHyper((d - 1) / 2 + 0.5, g @ g.T / d + 0.3 * np.eye(d))
        old, new = np.random.default_rng(35), np.random.default_rng(35)
        for _ in range(3):
            assert sample_prior(h, size, new).tobytes() == sample_prior_loop(h, size, old).tobytes()
        assert new.bit_generator.state == old.bit_generator.state

    def test_gamma_draws_match_scalar(self):
        hd, hc = GammaVecHyper(2.5, np.array([0.5, 1.0, 2.0])), GammaHyper(6.0, 1.5, 3)
        old, new = np.random.default_rng(31), np.random.default_rng(31)
        for _ in range(20):
            np.testing.assert_array_equal(
                sample_half_precision(hd, new).diag, old.gamma(hd.alpha, 1.0, size=3) / hd.rate
            )
            assert sample_half_precision(hc, new).value == float(old.gamma(hc.alpha, 1 / hc.rate))
        expected_d = np.stack([old.gamma(hd.alpha, 1.0, size=3) / hd.rate for _ in range(40)])
        np.testing.assert_array_equal(sample_prior(hd, 40, new), expected_d)
        expected_c = np.array([old.gamma(hc.alpha, 1 / hc.rate) for _ in range(40)])
        np.testing.assert_array_equal(sample_prior(hc, 40, new), expected_c)
        assert new.bit_generator.state == old.bit_generator.state

    def test_batch_shapes(self):
        rng = np.random.default_rng(32)
        family = matched_family(WishartHyper(4.0, np.eye(3)))
        shapes = [sample_prior(h, 7, rng).shape for h in family]
        assert shapes == [(7, 3, 3), (7, 3), (7,)]

    @pytest.mark.parametrize("structure", ["A", "D", "C"])
    def test_stacked_rate_rejected(self, structure):
        stacked = stack_hypers(
            [matched_family(WishartHyper(4.0, b * np.eye(3))) for b in (1.0, 2.0)]
        ).for_structure(structure)
        rng = np.random.default_rng(33)
        with pytest.raises(DimensionMismatchError, match="stacked rate"):
            sample_half_precision(stacked, rng)
        with pytest.raises(DimensionMismatchError, match="stacked rate"):
            sample_prior(stacked, 4, rng)
        assert "_bartlett_scale" not in vars(stacked)  # never factored
        # the per-theta densities would read the first replicate's rate alone
        theta = from_array(structure, {"A": np.eye(3), "D": np.ones(3), "C": 1.0}[structure], 3)
        with pytest.raises(DimensionMismatchError, match="stacked rate"):
            log_prior_density(stacked, theta)
        with pytest.raises(DimensionMismatchError, match="stacked rate"):
            flexibility(stacked, SuffStats(n=4, d=3, s=np.eye(3)), theta)

    @pytest.mark.parametrize(
        "h",
        [
            WishartHyper(50.0, 1e-308 * np.eye(3)),
            GammaVecHyper(50.0, np.full(3, 1e-308)),
            GammaHyper(50.0, 1e-308, 3),
        ],
        ids=["A", "D", "C"],
    )
    def test_an_overflowing_draw_warns_nothing(self, h):
        # a finite 1 / rate, but every draw overflows (in the matrix product,
        # the division or the product); its inf or NaN is left for
        # `scatters_from` to reject, and a RuntimeWarning would fail the test
        # (pytest's filterwarnings)
        draws = sample_prior(h, 4, np.random.default_rng(36))
        assert not np.isfinite(draws.reshape(4, -1)).all(axis=1).any()

    def test_wishart_rate_factored_once_per_hyper(self, monkeypatch):
        calls = []

        def counting(m):
            calls.append(m)
            return np.linalg.cholesky(m)

        monkeypatch.setattr(priors, "cholesky_pd", counting)
        h, rng = WishartHyper(4.0, np.eye(3)), np.random.default_rng(34)
        for size in (1, 5, 2):
            sample_prior(h, size, rng)
        assert len(calls) == 1


class TestLogPriorDensity:
    def test_unit_gamma(self):
        assert log_prior_density(
            GammaHyper(1.0, 1.0, 1), IsoPrecision(1.0, 1)
        ) == pytest.approx(-1.0)

    def test_wishart_d1_equals_gamma(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            a, b, x = rng.uniform(0.6, 5.0, size=3)
            w = log_prior_density(WishartHyper(a, np.array([[b]])), FullPrecision([[x]]))
            g = log_prior_density(GammaHyper(a, b, 1), IsoPrecision(x, 1))
            assert w == pytest.approx(g, abs=1e-12)

    def test_normalization_by_quadrature(self):
        h = GammaHyper(2.3, 1.7, 1)
        val, _ = integrate.quad(
            lambda x: np.exp(log_prior_density(h, IsoPrecision(x, 1))), 0, 80
        )
        assert val == pytest.approx(1.0, abs=1e-6)

    def test_wishart_at_diag_and_iso_embeddings(self):
        h = WishartHyper(4.0, np.diag([1.0, 2.0]))
        full = log_prior_density(h, FullPrecision(np.diag([0.5, 0.25])))
        diag = log_prior_density(h, DiagPrecision(np.array([0.5, 0.25])))
        assert full == pytest.approx(diag, abs=1e-12)

    def test_support_enforced(self):
        h = GammaVecHyper(2.0, np.array([1.0, 1.0]))
        with pytest.raises(SupportError):
            log_prior_density(h, FullPrecision([[1.0, 0.5], [0.5, 1.0]]))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError, match="3 != parameter dimension 2"):
            log_prior_density(GammaVecHyper(2.0, np.ones(3)), DiagPrecision(np.ones(2)))


class TestSerialization:
    @pytest.mark.parametrize(
        "h",
        [
            WishartHyper(4.0, np.array([[2.0, 0.1], [0.1, 1.0]])),
            GammaVecHyper(2.0, np.array([1.0, 2.0])),
            GammaHyper(6.0, 2.5, 5),
        ],
    )
    def test_round_trip(self, h):
        back = hyper_from_jsonable(hyper_to_jsonable(h))
        assert type(back) is type(h)
        assert back.alpha == h.alpha
        np.testing.assert_allclose(np.asarray(back.rate), np.asarray(h.rate))
        assert back.dim == h.dim

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"structure": "A", "alpha": 4.0, "rate": [np.eye(2).tolist()] * 3}, "ndim 2"),
            ({"structure": "A", "alpha": 4.0, "rate": [1.0, 2.0]}, "ndim 2"),
            ({"structure": "D", "alpha": 2.0, "rate": [[1.0, 2.0]] * 3}, "ndim 1"),
            ({"structure": "C", "alpha": 2.0, "rate": [1.0, 2.0], "dim": 2}, "ndim 0"),
            ({"structure": "C", "alpha": 2.0, "rate": 1.0, "dim": 2.7}, "integer"),
            ({"structure": "B", "alpha": 2.0, "rate": 1.0}, "unknown structure"),
        ],
    )
    def test_rejects_stacked_rates_fractional_dims_and_unknown_structures(self, doc, message):
        with pytest.raises(ConfigError, match=message):
            hyper_from_jsonable(doc)


class TestGammaHyper:
    @pytest.mark.parametrize("dim", [0, 2.7, 2.0, "2"])
    def test_dim_must_be_a_positive_integer(self, dim):
        with pytest.raises(ValueError, match="integer >= 1"):
            GammaHyper(2.0, 1.0, dim)

    def test_vector_rate_must_be_nonempty(self):
        with pytest.raises(ValueError, match="nonempty vector"):
            GammaVecHyper(2.0, [])


class TestMatchedFamily:
    def test_family_consistency(self):
        c = GammaHyper(6.0, 2.5, 5)
        fam = matched_family(c)
        assert fam.c is c
        assert fam.a.alpha == 4.0
        m = prior_sample_size(c).m
        for h in fam:
            assert prior_sample_size(h).m == pytest.approx(m)


# ---------------------------------------------------------------------------
# The per-structure formulas that `priors.family` replaced, kept as oracles.
# ---------------------------------------------------------------------------


def branch_prior_sample_size(h):
    if isinstance(h, WishartHyper):
        return 2 * h.alpha - (h.dim + 1)
    if isinstance(h, GammaVecHyper):
        return 2 * h.alpha - 2
    return (2 * h.alpha - 2) / h.dim


def branch_shape_for_sample_size(structure, m, d):
    if structure == "A":
        return (m + d + 1) / 2
    if structure == "D":
        return (m + 2) / 2
    return (m * d + 2) / 2


def branch_param_count(structure, d):
    if structure == "A":
        return d * (d + 1) // 2
    if structure == "D":
        return d
    return 1


def branch_log_normalizer_at(structure, alpha, log_rate, d):
    if structure == "A":
        value = alpha * log_rate - log_mv_gamma(d, alpha)
    elif structure == "D":
        value = alpha * log_rate - d * math.lgamma(alpha)
    else:
        value = alpha * log_rate - math.lgamma(alpha)
    return value if isinstance(value, np.ndarray) else float(value)


def branch_match_down(h, target):
    d = h.dim
    alpha = branch_shape_for_sample_size(target, branch_prior_sample_size(h), d)
    if isinstance(h, WishartHyper):
        if target == "D":
            return GammaVecHyper(alpha, np.diag(h.rate).copy())
        return GammaHyper(alpha, float(np.trace(h.rate)), d)
    return GammaHyper(alpha, float(h.rate.sum()), d)


def branch_match_up(h, target):
    d = h.dim
    alpha = branch_shape_for_sample_size(target, branch_prior_sample_size(h), d)
    if isinstance(h, GammaVecHyper):
        return WishartHyper(alpha, np.diag(h.rate))
    if target == "A":
        return WishartHyper(alpha, (h.rate / d) * np.eye(d))
    return GammaVecHyper(alpha, np.full(d, h.rate / d))


def branch_match(h, target):
    if "CDA".index(target) < "CDA".index(h.structure):
        return branch_match_down(h, target)
    return branch_match_up(h, target)


def branch_log_prior_density(h, theta):
    if isinstance(h, WishartHyper):
        d = h.dim
        return float(
            log_normalizer(h)
            + (h.alpha - (d + 1) / 2) * theta_log_det(theta)
            - theta_trace_product(theta, h.rate)
        )
    if isinstance(h, GammaVecHyper):
        eta = as_array(theta, "D")
        return float(log_normalizer(h) + (h.alpha - 1) * np.log(eta).sum() - h.rate @ eta)
    eta = as_array(theta, "C")
    return float(log_normalizer(h) + (h.alpha - 1) * np.log(eta) - h.rate * eta)


def branch_kl_objective(full, nested, n_samples, rng):
    """kl_objective's hand-expanded densities, one per nesting."""
    d = full.dim
    eta = sample_prior(nested, n_samples, rng)
    if isinstance(nested, GammaHyper):
        log_n = log_normalizer(nested) + (nested.alpha - 1) * np.log(eta) - nested.rate * eta
        if isinstance(full, GammaVecHyper):
            log_f = (
                log_normalizer(full) + d * (full.alpha - 1) * np.log(eta) - full.rate.sum() * eta
            )
        else:
            log_f = (
                log_normalizer(full)
                + (full.alpha - (d + 1) / 2) * d * np.log(eta)
                - np.trace(full.rate) * eta
            )
    else:
        log_eta = np.log(eta)
        log_n = (
            log_normalizer(nested) + (nested.alpha - 1) * log_eta.sum(axis=1) - eta @ nested.rate
        )
        log_f = (
            log_normalizer(full)
            + (full.alpha - (d + 1) / 2) * log_eta.sum(axis=1)
            - eta @ np.diag(full.rate)
        )
    diffs = log_n - log_f
    return float(diffs.mean()), float(diffs.std(ddof=1) / np.sqrt(n_samples))


def branch_log_det_h(structure, d, log_x):
    """log|H| from log|x| of H's array form: d log eta for C."""
    return d * log_x if structure == "C" else log_x


def branch_hessian_logdet(structure, d, log_det_h):
    """The log-partition Hessian's log-determinant from log|H|."""
    if structure == "C":
        return math.log(d / 2) - 2 / d * log_det_h
    if structure == "D":
        return -d * math.log(2) - 2 * log_det_h
    return -d * math.log(2) - (d + 1) * log_det_h


def random_hyper(rng, structure, d, m):
    alpha = branch_shape_for_sample_size(structure, m, d)
    if structure == "A":
        g = rng.standard_normal((d, d + 2))
        return WishartHyper(alpha, g @ g.T / (d + 2))
    if structure == "D":
        return GammaVecHyper(alpha, rng.uniform(0.2, 3.0, size=d))
    return GammaHyper(alpha, float(rng.uniform(0.2, 3.0)), d)


def assert_same_hyper(got, want):
    assert type(got) is type(want)
    assert got.alpha == want.alpha and got.dim == want.dim
    assert np.array_equal(np.asarray(got.rate), np.asarray(want.rate))


class TestFamilyOracles:
    @pytest.mark.parametrize("d", range(1, 7))
    def test_param_counts_and_log_gamma_terms_exact(self, d):
        rng = np.random.default_rng(200 + d)
        log_rates = rng.normal(0.0, 3.0, size=5)
        for structure in "ADC":
            fam = family(structure, d)
            assert fam.k == param_count(structure, d) == branch_param_count(structure, d)
            for alpha in (d - 1) / 2 + np.array([1e-3, 0.5, 1.0, 2.75, 40.0, 1e6]):
                alpha = float(alpha)
                assert -fam.log_gamma(alpha) == branch_log_normalizer_at(structure, alpha, 0.0, d)
                for log_rate in log_rates.tolist():
                    got = log_normalizer_at(structure, alpha, log_rate, d)
                    assert type(got) is float
                    assert got == branch_log_normalizer_at(structure, alpha, log_rate, d)
                got = log_normalizer_at(structure, alpha, log_rates, d)
                want = branch_log_normalizer_at(structure, alpha, log_rates, d)
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("d", range(1, 7))
    def test_det_scales_and_hessian_terms_exact(self, d):
        rng = np.random.default_rng(300 + d)
        log_x = np.concatenate([[0.0, -0.0, -1e6, 1e6, 709.8], rng.normal(0.0, 5.0, size=6)])
        for structure in "ADC":
            fam = family(structure, d)
            c, b = fam.hessian
            log_det_h = fam.det_scale * log_x
            want = branch_log_det_h(structure, d, log_x)
            assert log_det_h.tobytes() == want.tobytes()
            got = c - b * log_det_h
            assert got.tobytes() == branch_hessian_logdet(structure, d, want).tobytes()
            for v in log_x.tolist():
                assert fam.det_scale * v == branch_log_det_h(structure, d, v)
                assert c - b * (fam.det_scale * v) == branch_hessian_logdet(
                    structure, d, branch_log_det_h(structure, d, v)
                )

    @pytest.mark.parametrize("d", range(1, 7))
    def test_shapes_and_sample_sizes_exact_at_m2(self, d):
        rng = np.random.default_rng(d)
        for structure in "ADC":
            alpha = shape_for_sample_size(structure, 2.0, d)
            assert alpha == branch_shape_for_sample_size(structure, 2.0, d)
            h = random_hyper(rng, structure, d, 2.0)
            assert prior_sample_size(h).m == branch_prior_sample_size(h) == 2.0

    def test_shapes_and_sample_sizes_elsewhere(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            d, m = int(rng.integers(1, 9)), float(rng.uniform(-1.9, 40.0))
            for structure in "ADC":
                alpha = shape_for_sample_size(structure, m, d)
                want = branch_shape_for_sample_size(structure, m, d)
                assert abs(alpha - want) <= 1e-12 * abs(want)
                h = random_hyper(rng, structure, d, max(m, 0.5))
                want = branch_prior_sample_size(h)
                assert abs(prior_sample_size(h).m - want) <= 1e-12 * max(1.0, abs(want))

    @pytest.mark.parametrize("d", range(1, 7))
    def test_matching_exact_at_m2(self, d):
        rng = np.random.default_rng(100 + d)
        for source in "ADC":
            h = random_hyper(rng, source, d, 2.0)
            for target in "ADC".replace(source, ""):
                match = match_down if "CDA".index(target) < "CDA".index(source) else match_up
                assert_same_hyper(match(h, target), branch_match(h, target))
            for got, structure in zip(matched_family(h), "ADC"):
                assert_same_hyper(got, h if structure == source else branch_match(h, structure))

    @pytest.mark.parametrize("full, nested", [("D", "C"), ("A", "C"), ("A", "D")])
    def test_kl_objective_matches_the_expanded_densities(self, full, nested):
        rng = np.random.default_rng(7)
        for d in (1, 2, 3, 5):
            hf = random_hyper(rng, full, d, 3.0)
            hn = random_hyper(rng, nested, d, 1.5)
            got = kl_objective(hf, hn, 2_000, np.random.default_rng(d))
            want = branch_kl_objective(hf, hn, 2_000, np.random.default_rng(d))
            for g, w in zip(got, want):
                assert abs(g - w) <= 1e-12 * abs(w), (full, nested, d)

    def test_log_prior_density_matches_the_branches(self):
        rng = np.random.default_rng(41)
        for d in range(1, 7):
            eta = rng.uniform(0.2, 2.0, size=d)
            g = rng.standard_normal((d, d + 1))
            thetas = {
                "A": FullPrecision(g @ g.T / (d + 1) + 0.1 * np.eye(d)),
                "D": DiagPrecision(eta),
                "C": IsoPrecision(float(eta[0]), d),
            }
            # each prior at its own structure and at the simpler ones it embeds
            for structure, supported in (("A", "ADC"), ("D", "DC"), ("C", "C")):
                h = random_hyper(rng, structure, d, 2.5)
                for s in supported:
                    got = log_prior_density(h, thetas[s])
                    want = branch_log_prior_density(h, thetas[s])
                    assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (structure, s, d)
