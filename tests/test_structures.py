import math

import numpy as np
import pytest
from scipy.special import gammaln

from covsel.data import Dataset, SuffStats, suff_stats
from covsel.errors import ConfigError, NonRegularPriorError, NotPositiveDefiniteError
from covsel.montecarlo import gaussian_rows
from covsel.precision import DiagPrecision, FullPrecision, IsoPrecision
from covsel.specialfn import LOG_PI, chol_log_det, log_mv_gamma
from covsel.priors import (
    GammaHyper,
    GammaVecHyper,
    WishartHyper,
    conjugate_update,
    log_prior_density,
    matched_family,
    sample_half_precision,
)
from covsel.structures import (
    criteria,
    evidence_oracle,
    flexibility,
    log_evidence,
    log_evidence_flat,
    log_likelihood,
    log_partition_hessian_logdet,
    map_estimate,
    param_count,
    select_structure,
)


def random_case(rng, d=None, n=None):
    """A random (hyper, stats, theta) triple across all structures."""
    d = d or int(rng.integers(1, 6))
    n = n if n is not None else int(rng.integers(0, 51))
    structure = rng.choice(["A", "D", "C"])
    if structure == "A":
        g = rng.standard_normal((d, d + 2))
        h = WishartHyper(rng.uniform((d + 1) / 2 + 0.1, 6.0), g @ g.T / (d + 2))
    elif structure == "D":
        h = GammaVecHyper(rng.uniform(1.1, 5.0), rng.uniform(0.3, 3.0, size=d))
    else:
        h = GammaHyper(rng.uniform(1.1, 8.0), rng.uniform(0.3, 3.0), d)
    stats = suff_stats(Dataset(rng.standard_normal((n, d))))
    theta = sample_half_precision(h, rng)
    return h, stats, theta


class TestLogLikelihood:
    def test_standard_normal_point(self):
        stats = SuffStats(n=1, d=1, s=[[1.0]])
        got = log_likelihood(IsoPrecision(0.5, 1), stats)
        assert got == pytest.approx(-0.5 * math.log(2 * math.pi) - 0.5, abs=1e-12)
        assert got == pytest.approx(-1.41894, abs=1e-5)

    def test_empty_sample(self):
        stats = SuffStats(n=0, d=3, s=np.zeros((3, 3)))
        assert log_likelihood(DiagPrecision(np.ones(3)), stats) == 0.0

    def test_embedding_consistency(self):
        rng = np.random.default_rng(2)
        stats = suff_stats(Dataset(rng.standard_normal((9, 3))))
        eta = np.array([0.5, 1.5, 0.7])
        ll_diag = log_likelihood(DiagPrecision(eta), stats)
        ll_full = log_likelihood(FullPrecision(np.diag(eta)), stats)
        assert ll_diag == pytest.approx(ll_full, abs=1e-12)

    def test_diag_data_full_vs_diag_likelihood(self):
        # data generated under a diagonal covariance: the A-machinery at the
        # embedded parameter must reproduce the D log-likelihood exactly
        rng = np.random.default_rng(3)
        eta = np.array([0.4, 2.0])
        x = gaussian_rows(DiagPrecision(eta), 40, rng)
        stats = suff_stats(Dataset(x))
        assert log_likelihood(FullPrecision(np.diag(eta)), stats) == pytest.approx(
            log_likelihood(DiagPrecision(eta), stats), abs=1e-10
        )


class TestMapEstimate:
    def test_prior_mode_gamma(self):
        theta = map_estimate(GammaHyper(2.0, 1.0, 3), SuffStats(n=0, d=3, s=np.zeros((3, 3))))
        assert theta.value == pytest.approx(1.0)

    def test_prior_mode_wishart(self):
        h = WishartHyper(4.0, np.diag([1.0, 2.0]))
        theta = map_estimate(h, SuffStats(n=0, d=2, s=np.zeros((2, 2))))
        np.testing.assert_allclose(
            theta.matrix, (4.0 - 1.5) * np.linalg.inv(h.rate), atol=1e-12
        )

    def test_worked_gamma_case_against_grid_search(self):
        h = GammaHyper(2.0, 1.0, 1)
        stats = SuffStats(n=1, d=1, s=[[1.0]])
        theta = map_estimate(h, stats)
        assert theta.value == pytest.approx(0.75)
        grid = np.linspace(1e-3, 5, 200_001)
        post = (
            np.array([log_likelihood(IsoPrecision(v, 1), stats) for v in grid])
            + np.array([log_prior_density(h, IsoPrecision(v, 1)) for v in grid])
        )
        assert grid[np.argmax(post)] == pytest.approx(0.75, abs=1e-4)

    def test_non_regular_rejected(self):
        with pytest.raises(NonRegularPriorError):
            map_estimate(GammaHyper(1.0, 1.0, 1), SuffStats(n=0, d=1, s=[[0.0]]))

    def test_map_optimality_random(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            h, stats, _ = random_case(rng)
            try:
                theta = map_estimate(h, stats)
            except NonRegularPriorError:
                continue
            post = conjugate_update(h, stats)
            best = log_prior_density(post, theta)
            for _ in range(100):
                other = sample_half_precision(post, rng)
                assert log_prior_density(post, other) <= best + 1e-9


class TestLogEvidence:
    def test_empty_sample_is_zero(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            h, _, _ = random_case(rng, d=3)
            stats = SuffStats(n=0, d=3, s=np.zeros((3, 3)))
            assert log_evidence(h, stats) == pytest.approx(0.0, abs=1e-12)

    def test_worked_d1_value(self):
        stats = SuffStats(n=1, d=1, s=[[1.0]])
        assert log_evidence(GammaHyper(2.0, 1.0, 1), stats) == pytest.approx(
            -2.0205, abs=1e-4
        )

    def test_d1_structures_coincide(self):
        rng = np.random.default_rng(6)
        stats = suff_stats(Dataset(rng.standard_normal((12, 1))))
        fam = matched_family(GammaHyper(3.0, 1.3, 1))
        va = log_evidence(fam.a, stats)
        vd = log_evidence(fam.d, stats)
        vc = log_evidence(fam.c, stats)
        assert va == pytest.approx(vd, abs=1e-10)
        assert vd == pytest.approx(vc, abs=1e-10)

    def test_monotone_update_chain_rule(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            h, _, _ = random_case(rng, d=3)
            rows = rng.standard_normal((14, 3))
            full = suff_stats(Dataset(rows))
            head = suff_stats(Dataset(rows[:6]))
            tail = suff_stats(Dataset(rows[6:]))
            lhs = log_evidence(h, full)
            rhs = log_evidence(h, head) + log_evidence(conjugate_update(h, head), tail)
            assert lhs == pytest.approx(rhs, abs=1e-8)


class TestFlexibility:
    def test_zero_at_empty_sample(self):
        rng = np.random.default_rng(8)
        h, _, theta = random_case(rng, d=2, n=0)
        stats = SuffStats(n=0, d=2, s=np.zeros((2, 2)))
        assert flexibility(h, stats, theta) == pytest.approx(0.0, abs=1e-12)

    def test_bayes_identity_at_random_theta(self):
        rng = np.random.default_rng(9)
        for _ in range(40):
            h, stats, _ = random_case(rng)
            log_evi = log_evidence(h, stats)
            for _ in range(5):
                theta = sample_half_precision(h, rng)
                resid = log_evi - (
                    log_likelihood(theta, stats) - flexibility(h, stats, theta)
                )
                assert abs(resid) < 1e-8

    def test_printed_iso_closed_form(self):
        # the printed constant-diagonal flexibility expansion at the MAP
        rng = np.random.default_rng(10)
        for _ in range(20):
            d = int(rng.integers(1, 5))
            h = GammaHyper(rng.uniform(1.2, 6.0), rng.uniform(0.5, 2.0), d)
            stats = suff_stats(Dataset(rng.standard_normal((int(rng.integers(1, 30)), d))))
            n, s2 = stats.n, stats.s_total
            a, b = h.alpha, h.rate
            printed = (
                gammaln(a)
                - gammaln((n * d + 2 * a) / 2)
                + a * np.log((s2 + b) / b)
                + n * d / 2 * np.log((n * d + 2 * a - 2) / 2)
                - (n * d + 2 * a - 2) / 2 * s2 / (s2 + b)
            )
            got = flexibility(h, stats, map_estimate(h, stats))
            assert got == pytest.approx(float(printed), abs=1e-8)

    def test_full_expansion_needs_shape_shift(self):
        # the identity-based value matches the expansion with the posterior
        # shape offset (d+1)/2 (the same offset the MAP uses); the variant
        # with (d-1)/2 in the last two factors disagrees for every d
        rng = np.random.default_rng(11)
        d = 3
        g = rng.standard_normal((d, d + 3))
        h = WishartHyper(4.2, g @ g.T / d)
        stats = suff_stats(Dataset(rng.standard_normal((17, d))))
        n, a = stats.n, h.alpha
        sb = stats.s + h.rate
        from covsel.specialfn import chol_log_det, log_mv_gamma

        def expansion(offset):
            mult = n / 2 + a - offset
            tr = float(np.trace(stats.s @ np.linalg.inv(sb)))
            return (
                log_mv_gamma(d, a)
                - log_mv_gamma(d, n / 2 + a)
                + a * (chol_log_det(sb) - chol_log_det(h.rate))
                + n * d / 2 * np.log(mult)
                - mult * tr
            )

        got = flexibility(h, stats, map_estimate(h, stats))
        assert got == pytest.approx(expansion((d + 1) / 2), abs=1e-8)
        assert abs(got - expansion((d - 1) / 2)) > 1e-2


class TestCriteria:
    def test_worked_report_n1(self):
        h = GammaHyper(2.0, 1.0, 1)
        stats = SuffStats(n=1, d=1, s=[[1.0]])
        rep = criteria(h, stats)
        assert rep.map.value == pytest.approx(0.75)
        # log n = 0 at n = 1, so pcBIC is loglik plus log prior at the MAP
        lp = log_prior_density(h, rep.map)
        assert rep.pc_bic == pytest.approx(rep.log_lik_at_map + lp, abs=1e-12)
        assert rep.bic == pytest.approx(rep.log_lik_at_map, abs=1e-12)

    def test_internal_identity(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            h, stats, _ = random_case(rng, n=int(rng.integers(1, 40)))
            try:
                rep = criteria(h, stats)
            except NonRegularPriorError:
                continue
            assert rep.log_evidence == pytest.approx(
                rep.log_lik_at_map - rep.flexibility_at_map, abs=1e-8
            )
            assert rep.k == param_count(rep.structure, stats.d)

    def test_missing_criteria_at_n0(self):
        rep = criteria(GammaHyper(2.0, 1.0, 2), SuffStats(n=0, d=2, s=np.zeros((2, 2))))
        assert rep.bic is None and rep.pc_bic is None and rep.kic is None

    def test_kic_tracks_evidence_closer_than_pcbic(self):
        # at n = 1000 the Kashyap correction should beat pcBIC on average
        rng = np.random.default_rng(13)
        h = GammaHyper(2.0, 1.0, 1)
        kic_err = pcbic_err = 0.0
        for _ in range(100):
            eta = float(rng.gamma(2.0, 1.0))
            x = gaussian_rows(IsoPrecision(eta, 1), 1000, rng)
            rep = criteria(h, suff_stats(Dataset(x)))
            kic_err += abs(rep.log_evidence - rep.kic)
            pcbic_err += abs(rep.log_evidence - rep.pc_bic)
        assert kic_err < pcbic_err


class TestLogPartitionHessian:
    def test_iso_closed_form(self):
        assert log_partition_hessian_logdet(IsoPrecision(1.0, 1)) == pytest.approx(
            math.log(0.5), abs=1e-12
        )
        assert log_partition_hessian_logdet(IsoPrecision(2.0, 3)) == pytest.approx(
            math.log(3 / 8), abs=1e-12
        )

    def test_diag_closed_form(self):
        eta = np.array([0.5, 2.0])
        expected = -np.log(2 * eta**2).sum()
        assert log_partition_hessian_logdet(DiagPrecision(eta)) == pytest.approx(
            float(expected), abs=1e-12
        )

    def test_full_at_identity(self):
        # Hessian of -(1/2)log|H| at H = I: 1/2 per diagonal coordinate,
        # 1 per off-diagonal coordinate, so logdet = -d log 2
        for d in (1, 2, 3, 4):
            got = log_partition_hessian_logdet(FullPrecision(np.eye(d)))
            assert got == pytest.approx(-d * math.log(2), abs=1e-6)

    def test_full_consistent_with_diag_on_diagonal_matrices(self):
        # the full-coordinate Hessian at a diagonal H is block diagonal;
        # its determinant is the diagonal block times prod 1/(2 eta_i eta_j)
        eta = np.array([0.5, 1.5, 2.5])
        got = log_partition_hessian_logdet(FullPrecision(np.diag(eta)))
        diag_block = -np.log(2 * eta**2).sum()
        off_block = -sum(
            np.log(2 * eta[i] * eta[j]) for i in range(3) for j in range(i + 1, 3)
        ) + 3 * math.log(2)
        # off-diagonal coordinate (i, j): second derivative is
        # (H^-1)_ii (H^-1)_jj + (H^-1)_ij^2 = 1/(eta_i eta_j) at diagonal H
        expected = diag_block + sum(
            -np.log(eta[i] * eta[j]) for i in range(3) for j in range(i + 1, 3)
        )
        assert got == pytest.approx(float(expected), abs=1e-6)
        del off_block


class TestEvidenceOracles:
    def test_quadrature_d1_worked_case(self):
        stats = SuffStats(n=1, d=1, s=[[1.0]])
        est, err = evidence_oracle(GammaHyper(2.0, 1.0, 1), stats, "quadrature")
        assert err < 1e-8
        assert est == pytest.approx(log_evidence(GammaHyper(2.0, 1.0, 1), stats), abs=1e-8)

    def test_quadrature_random_d1_cases(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            h, stats, _ = random_case(rng, d=1, n=int(rng.integers(1, 25)))
            est, _ = evidence_oracle(h, stats, "quadrature")
            assert est == pytest.approx(log_evidence(h, stats), abs=1e-6)

    def test_quadrature_diag_d2(self):
        rng = np.random.default_rng(15)
        h = GammaVecHyper(2.0, np.array([1.0, 0.5]))
        stats = suff_stats(Dataset(rng.standard_normal((6, 2))))
        est, _ = evidence_oracle(h, stats, "quadrature")
        assert est == pytest.approx(log_evidence(h, stats), abs=1e-6)

    def test_quadrature_dimension_cap(self):
        h = WishartHyper(4.0, np.eye(2))
        with pytest.raises(ConfigError):
            evidence_oracle(h, SuffStats(n=2, d=2, s=np.eye(2)), "quadrature")

    def test_prior_mc_wishart_d2(self):
        rng = np.random.default_rng(16)
        h = WishartHyper(3.0, np.eye(2))
        stats = suff_stats(Dataset(rng.standard_normal((3, 2))))
        est, se = evidence_oracle(h, stats, "prior-mc", budget=100_000, rng=rng)
        assert abs(est - log_evidence(h, stats)) < 3 * se

    def test_empty_sample(self):
        stats = SuffStats(n=0, d=1, s=[[0.0]])
        assert evidence_oracle(GammaHyper(2.0, 1.0, 1), stats, "quadrature") == (0.0, 0.0)


def closed_form_log_evidence_flat(structure, stats):
    """The flat-prior evidence as the three closed forms the package
    replaced with the log normalizer of the would-be posterior: the base
    term, the log-gamma term and -alpha times the log statistic."""
    n, d = stats.n, stats.d
    base = -n * d / 2 * LOG_PI
    if structure == "C":
        alpha = (n * d + 2) / 2
        return [base, math.lgamma(alpha), -alpha * np.log(stats.s_total)]
    if structure == "D":
        alpha = (n + 2) / 2
        return [base, d * math.lgamma(alpha), -alpha * np.log(stats.s_diag).sum()]
    alpha = (n + d + 1) / 2
    return [base, log_mv_gamma(d, alpha), -alpha * chol_log_det(stats.s)]


class TestFlatPrior:
    def test_matches_the_closed_forms(self):
        # 1e-13 relative to the terms' magnitudes, which can cancel to a value near 0
        rng = np.random.default_rng(22)
        for _ in range(300):
            d = int(rng.integers(1, 7))
            n = int(rng.integers(d + 1, 80))
            scale = 10.0 ** rng.uniform(-6, 6)
            stats = suff_stats(Dataset(scale * rng.standard_normal((n, d))))
            # C and D at n <= d too
            small = SuffStats(n=int(rng.integers(1, d + 1)), d=d, s=stats.s)
            for structure, case in [(s, stats) for s in "ADC"] + [(s, small) for s in "DC"]:
                terms = closed_form_log_evidence_flat(structure, case)
                got = log_evidence_flat(structure, case)
                assert abs(got - sum(terms)) <= 1e-13 * sum(map(abs, terms)), (structure, case.n, d)

    @pytest.mark.parametrize("structure", ["A", "D", "C"])
    def test_zero_scatter_raises(self, structure):
        # a RuntimeWarning from log(0) would fail the test (pytest's filterwarnings)
        with pytest.raises(NotPositiveDefiniteError):
            log_evidence_flat(structure, SuffStats(n=3, d=2, s=np.zeros((2, 2))))

    def test_iso_matches_likelihood_integral(self):
        rng = np.random.default_rng(17)
        stats = suff_stats(Dataset(rng.standard_normal((5, 1))))
        from scipy.integrate import quad

        val, _ = quad(
            lambda e: np.exp(log_likelihood(IsoPrecision(e, 1), stats)), 0, 100
        )
        assert log_evidence_flat("C", stats) == pytest.approx(math.log(val), abs=1e-8)

    def test_diag_factorizes(self):
        rng = np.random.default_rng(18)
        stats = suff_stats(Dataset(rng.standard_normal((7, 2))))
        lhs = log_evidence_flat("D", stats)
        per_axis = sum(
            log_evidence_flat("C", SuffStats(n=7, d=1, s=[[sj]])) for sj in stats.s_diag
        )
        assert lhs == pytest.approx(per_axis, abs=1e-10)

    def test_full_needs_n_above_d(self):
        rng = np.random.default_rng(19)
        stats = suff_stats(Dataset(rng.standard_normal((3, 3))))
        with pytest.raises(ConfigError):
            log_evidence_flat("A", stats)
        stats = suff_stats(Dataset(rng.standard_normal((4, 3))))
        assert np.isfinite(log_evidence_flat("A", stats))


class TestSelectStructure:
    def test_d1_tie_goes_to_iso(self):
        rng = np.random.default_rng(20)
        stats = suff_stats(Dataset(rng.standard_normal((10, 1))))
        fam = matched_family(GammaHyper(2.0, 1.0, 1))
        result = select_structure(stats, fam, "evidence")
        assert result.best.structure == "C"
        vals = [rep.log_evidence for rep in result.ranked]
        assert max(vals) - min(vals) < 1e-9

    def test_correlated_data_selects_full(self):
        rng = np.random.default_rng(21)
        sigma = np.array([[1.0, 0.9], [0.9, 1.0]])
        x = rng.standard_normal((200, 2)) @ np.linalg.cholesky(sigma).T
        stats = suff_stats(Dataset(x))
        fam = matched_family(WishartHyper(2.5, 0.5 * np.eye(2)))
        assert select_structure(stats, fam, "evidence").best.structure == "A"

    def test_errors_reported_as_skipped(self):
        stats = SuffStats(n=0, d=2, s=np.zeros((2, 2)))
        fam = matched_family(GammaVecHyper(1.0, np.ones(2)))  # m = 0: no MAP at n = 0
        with pytest.raises(ConfigError):
            select_structure(stats, fam, "evidence")
