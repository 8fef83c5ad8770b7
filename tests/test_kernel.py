"""The batched scoring kernel (`fit_stack`) against independent oracles.

The oracles are the scalar formulas the kernel replaced: the per-structure
posterior mode, the evidence as a ratio of prior to posterior normalizing
constants, the criteria assembled from the scalar likelihood, evidence,
flexibility and prior density, and a central-difference log-partition
Hessian. They are kept here, not in the package, so that
the kernel is the package's only implementation.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import binom

import covsel.cli as cli
import covsel.montecarlo as montecarlo
from covsel.data import SuffStats
from covsel.errors import (
    DimensionMismatchError,
    NonRegularPriorError,
    NotPositiveDefiniteError,
    SupportError,
)
from covsel.montecarlo import SimConfig, mcnemar, run_cell
from covsel.precision import DiagPrecision, FullPrecision, IsoPrecision, as_array
from covsel.priors import (
    GammaHyper,
    GammaVecHyper,
    HyperTriple,
    WishartHyper,
    conjugate_update,
    empirical_bayes,
    log_normalizer,
    log_prior_density,
    matched_family,
    moment_hypers,
    sample_half_precision,
)
from covsel.regression import _Stack
from covsel.specialfn import LOG_PI, cholesky_pd
from covsel.structures import (
    SIMPLEST_FIRST,
    _defined_evidence,
    _evidence,
    criteria,
    fit_stack,
    fit_structure,
    flexibility,
    log_evidence,
    log_likelihood,
    log_partition_hessian_logdet,
    param_count,
    select_structure,
    simplest_best,
)

from conftest import a_mode_lapack, best_structures, stack_hypers

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)


# ---------------------------------------------------------------------------
# Oracles: the scalar formulas the kernel replaced
# ---------------------------------------------------------------------------


def _pack_full(hm):
    d = hm.shape[0]
    iu, ju = np.triu_indices(d, k=1)
    return np.concatenate([np.diag(hm), hm[iu, ju]]), iu, ju


def _unpack_full(coords, d, iu, ju):
    hm = np.zeros((d, d))
    hm[np.arange(d), np.arange(d)] = coords[:d]
    hm[iu, ju] = coords[d:]
    hm[ju, iu] = coords[d:]
    return hm


def _grad_full(hm, iu, ju):
    # gradient of -(1/2) log|H|: -(1/2) (H^-1)_jj on diagonal coordinates,
    # -(H^-1)_ij on off-diagonal ones (both symmetric entries move together)
    hinv = np.linalg.inv(hm)
    return np.concatenate([-0.5 * np.diag(hinv), -hinv[iu, ju]])


def finite_difference_hessian_logdet(hm):
    """Central differences of the analytic gradient over the (diagonal,
    upper-triangle) coordinates: k = d(d+1)/2 gradient pairs."""
    d = hm.shape[0]
    coords, iu, ju = _pack_full(hm)
    k = coords.size
    scale = max(float(np.abs(coords).max()), 1e-8)
    hess = np.empty((k, k))
    for idx in range(k):
        step = 1e-5 * max(abs(coords[idx]), scale)
        up = coords.copy()
        up[idx] += step
        dn = coords.copy()
        dn[idx] -= step
        gu = _grad_full(_unpack_full(up, d, iu, ju), iu, ju)
        gd = _grad_full(_unpack_full(dn, d, iu, ju), iu, ju)
        hess[idx] = (gu - gd) / (2 * step)
    sign, logdet = np.linalg.slogdet((hess + hess.T) / 2)
    assert sign > 0
    return float(logdet)


def explicit_hessian_logdet(hm):
    """The k x k Hessian written out entry by entry, (1/2) tr(X E_a X E_b)
    with X = H^-1 and E_a the symmetric unit matrix of coordinate a."""
    d = hm.shape[0]
    x = np.linalg.inv(hm)
    units = []
    for i, j in [(i, i) for i in range(d)] + list(zip(*np.triu_indices(d, k=1))):
        e = np.zeros((d, d))
        e[i, j] = e[j, i] = 1.0
        units.append(x @ e)
    hess = np.array([[0.5 * np.trace(a @ b) for b in units] for a in units])
    sign, logdet = np.linalg.slogdet(hess)
    assert sign > 0
    return float(logdet)


def scalar_map(h, stats):
    """Posterior mode from the conjugate update, one structure at a time."""
    post = conjugate_update(h, stats)
    d = stats.d
    if isinstance(post, WishartHyper):
        mult = post.alpha - (d + 1) / 2
        if mult <= 0:
            raise NonRegularPriorError("no mode")
        inv = np.linalg.inv(cholesky_pd(post.rate))
        return FullPrecision(mult * (inv.T @ inv))
    if post.alpha <= 1:
        raise NonRegularPriorError("no mode")
    if isinstance(post, GammaVecHyper):
        return DiagPrecision((post.alpha - 1) / post.rate)
    return IsoPrecision((post.alpha - 1) / post.rate, d)


def scalar_log_evidence(h, stats):
    """Base measure plus the log-ratio of the prior's and the conjugate
    posterior's normalizing constants."""
    post = conjugate_update(h, stats)
    return float(-stats.n * stats.d / 2 * LOG_PI + log_normalizer(h) - log_normalizer(post))


def scalar_criteria(h, stats):
    """MAP, likelihood, evidence, flexibility, prior density and the BIC
    family from the scalar closed forms; the A Hessian written out."""
    theta = scalar_map(h, stats)
    k = param_count(h.structure, stats.d)
    ll = log_likelihood(theta, stats)
    lp = log_prior_density(h, theta)
    out = {
        "log_lik": ll,
        "log_evidence": scalar_log_evidence(h, stats),
        "flexibility": flexibility(h, stats, theta),
        "log_prior": lp,
    }
    if stats.n >= 1:
        log_n = math.log(stats.n)
        hess = (
            explicit_hessian_logdet(theta.matrix)
            if isinstance(theta, FullPrecision)
            else log_partition_hessian_logdet(theta)
        )
        out["bic"] = ll - k / 2 * log_n
        out["pc_bic"] = ll + lp - k / 2 * log_n
        out["kic"] = out["pc_bic"] - 0.5 * hess + k / 2 * math.log(2 * math.pi)
    return theta, out


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------


def random_shapes(rng, d):
    return rng.uniform((d + 1) / 2 + 0.2, 6.0), rng.uniform(1.1, 5.0), rng.uniform(1.1, 8.0)


def random_triple(rng, d, shapes=None):
    alpha_a, alpha_d, alpha_c = random_shapes(rng, d) if shapes is None else shapes
    g = rng.standard_normal((d, d + 2))
    return HyperTriple(
        WishartHyper(alpha_a, g @ g.T / (d + 2) + 0.1 * np.eye(d)),
        GammaVecHyper(alpha_d, rng.uniform(0.3, 3.0, size=d)),
        GammaHyper(alpha_c, rng.uniform(0.3, 3.0), d),
    )


def random_scatters(rng, r, n, d, near_singular):
    """r scatters of n rows; n <= d gives singular ones, `near_singular`
    shrinks one axis by 1e-6."""
    scale = np.ones(d)
    if near_singular:
        scale[-1] = 1e-6
    rows = rng.standard_normal((r, n, d)) * scale
    s = np.einsum("rni,rnj->rij", rows, rows)
    return (s + np.swapaxes(s, 1, 2)) / 2


def ill_conditioned_scatters(rng, r, d, spread):
    """r positive definite scatters whose eigenvalues span 10^-spread to
    10^spread, in random directions."""
    q, _ = np.linalg.qr(rng.standard_normal((r, d, d)))
    s = (q * 10.0 ** rng.uniform(-spread, spread, size=(r, 1, d))) @ q.swapaxes(1, 2)
    return (s + np.swapaxes(s, 1, 2)) / 2


cases = st.builds(
    lambda seed, d, n, r, near: (np.random.default_rng(seed), d, n, r, near),
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 6),
    n=st.integers(0, 12),
    r=st.integers(1, 5),
    near=st.booleans(),
)


def close(got, want, rtol):
    return abs(got - want) <= rtol * max(1.0, abs(want))


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------


class TestInvariance:
    """fit_stack's evidence and criteria under changes of coordinates that
    leave the model unchanged."""

    FIELDS = ("log_evidence", "log_lik", "flexibility", "log_prior", "bic", "pc_bic", "kic")

    def assert_same(self, got, want, structures):
        for structure in structures:
            assert np.array_equal(got[structure].valid, want[structure].valid)
            for key in self.FIELDS:
                g, w = getattr(got[structure], key), getattr(want[structure], key)
                if w is None:
                    assert g is None
                    continue
                for gi, wi in zip(g, w):
                    assert close(float(gi), float(wi), 1e-9), (structure, key)

    @PROPERTY
    @given(case=cases)
    def test_coordinate_permutation(self, case):
        # permuting the coordinates of the scatters and of the rates together
        rng, d, n, r, near = case
        s = random_scatters(rng, r, n, d, near)
        hypers = random_triple(rng, d)
        perm = rng.permutation(d)
        permuted = HyperTriple(
            WishartHyper(hypers.a.alpha, hypers.a.rate[np.ix_(perm, perm)]),
            GammaVecHyper(hypers.d.alpha, hypers.d.rate[perm]),
            hypers.c,
        )
        got = fit_stack(s[:, perm][:, :, perm], n, permuted)
        self.assert_same(got, fit_stack(s, n, hypers), SIMPLEST_FIRST)

    @PROPERTY
    @given(case=cases)
    def test_rotation_for_full_and_isotropic_structures(self, case):
        # with B proportional to I, A and C see the scatter only through
        # rotation-invariant functions; D does not
        rng, d, n, r, near = case
        s = random_scatters(rng, r, n, d, near)
        shapes = random_shapes(rng, d)
        b = rng.uniform(0.3, 3.0)
        hypers = HyperTriple(
            WishartHyper(shapes[0], b * np.eye(d)),
            GammaVecHyper(shapes[1], np.full(d, b)),
            GammaHyper(shapes[2], rng.uniform(0.3, 3.0), d),
        )
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        rotated = np.einsum("ij,rjk,lk->ril", q, s, q)
        rotated = (rotated + np.swapaxes(rotated, 1, 2)) / 2
        self.assert_same(fit_stack(rotated, n, hypers), fit_stack(s, n, hypers), ("A", "C"))


class TestAModeAgainstLapack:
    """The A mode, from `tril_inverse` of each posterior rate's factor, against
    `a_mode_lapack`, the general inverse it replaced: within 1e-12 of each
    mode's largest entry, on valid replicates."""

    @PROPERTY
    @given(case=cases, spread=st.floats(0.0, 6.0))
    def test_mode_matches_the_lapack_inverse(self, case, spread):
        rng, d, n, r, near = case
        if near:
            s = ill_conditioned_scatters(rng, r, d, spread)
        else:
            s = random_scatters(rng, r, n, d, False)
        h = random_triple(rng, d).a
        fit = fit_structure(h, s, n)
        want = a_mode_lapack(h, s, n)[fit.valid]
        got = fit.map[fit.valid]
        scale = np.abs(want).max(axis=(-2, -1), initial=0.0)
        assert np.all(np.abs(got - want).max(axis=(-2, -1), initial=0.0) <= 1e-12 * scale)


class TestClosedFormHessian:
    @pytest.mark.parametrize("d", range(1, 9))
    def test_matches_finite_differences(self, d):
        rng = np.random.default_rng(100 + d)
        for _ in range(3):
            g = rng.standard_normal((d, d + 4))
            hm = g @ g.T / (d + 4) + 0.5 * np.eye(d)
            got = log_partition_hessian_logdet(FullPrecision(hm))
            assert close(got, finite_difference_hessian_logdet(hm), 1e-6)

    @PROPERTY
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 8), spread=st.floats(0.0, 1.5))
    def test_matches_explicit_hessian(self, seed, d, spread):
        # condition numbers of H up to 1e3: the written-out Hessian's is
        # the square of that, and it loses digits beyond
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        hm = (q * 10.0 ** rng.uniform(-spread, spread, size=d)) @ q.T
        got = log_partition_hessian_logdet(FullPrecision((hm + hm.T) / 2))
        assert close(got, explicit_hessian_logdet(hm), 1e-8)


class TestKernelAgainstScalarFormulas:
    @PROPERTY
    @given(case=cases, stacked=st.booleans())
    def test_every_output(self, case, stacked):
        rng, d, n, r, near = case
        s = random_scatters(rng, r, n, d, near)
        shapes = random_shapes(rng, d)
        triples = [random_triple(rng, d, shapes) for _ in range(r)] if stacked else None
        hypers = stack_hypers(triples) if stacked else random_triple(rng, d)
        fits = fit_stack(s, n, hypers)
        for i in range(r):
            stats = SuffStats(n=n, d=d, s=s[i])
            for structure, fit in fits.items():
                h = (triples[i] if stacked else hypers).for_structure(structure)
                theta, want = scalar_criteria(h, stats)
                assert fit.valid[i]
                np.testing.assert_allclose(
                    fit.map[i], getattr(theta, {"A": "matrix", "D": "diag", "C": "value"}[structure]),
                    rtol=1e-10, atol=0,
                )
                for key, value in want.items():
                    assert close(float(getattr(fit, key)[i]), value, 1e-10), (structure, key)
                if n == 0:
                    assert fit.bic is None and fit.pc_bic is None and fit.kic is None

    @PROPERTY
    @given(case=cases)
    def test_evidence_identity_at_random_theta(self, case):
        rng, d, n, r, near = case
        s = random_scatters(rng, r, n, d, near)
        hypers = random_triple(rng, d)
        fits = fit_stack(s, n, hypers)
        for structure, fit in fits.items():
            h = hypers.for_structure(structure)
            for i in range(r):
                stats = SuffStats(n=n, d=d, s=s[i])
                theta = sample_half_precision(h, rng)
                resid = fit.log_evidence[i] - (
                    log_likelihood(theta, stats) - flexibility(h, stats, theta)
                )
                assert abs(resid) <= 1e-8 * max(1.0, abs(fit.log_evidence[i]))

    def test_batch_equals_batches_of_one(self):
        rng = np.random.default_rng(7)
        d, n = 4, 6
        s = random_scatters(rng, 8, n, d, False)
        triples = [empirical_bayes(SuffStats(n=n, d=d, s=si)) for si in s]
        fits = fit_stack(s, n, stack_hypers(triples))
        for i, triple in enumerate(triples):
            stats = SuffStats(n=n, d=d, s=s[i])
            for structure in SIMPLEST_FIRST:
                one = criteria(triple.for_structure(structure), stats)
                many = fits[structure].report(i)
                for key in ("log_lik_at_map", "log_evidence", "flexibility_at_map", "bic", "kic"):
                    assert close(getattr(many, key), getattr(one, key), 1e-12)


class TestRows:
    """The CLI's `fits` template, filled from a StackFit's whole columns, is
    each replicate's report in JSON form."""

    @pytest.mark.parametrize("n, stacked", [(0, False), (1, False), (7, False), (7, True)])
    def test_rows_are_the_reports(self, n, stacked):
        rng = np.random.default_rng(41)
        d, r = 3, 5
        s = random_scatters(rng, r, n, d, False)
        if stacked:  # one rate per replicate
            hypers, errors = moment_hypers("empirical-bayes", s, n)
            assert errors == {}
        else:
            hypers = random_triple(rng, d)
        for structure, fit in fit_stack(s, n, hypers).items():
            assert fit.errors == {}
            stack = _Stack([()] * r, {structure: fit}, {})
            rows = cli._item_format(stack)(np.arange(len(stack.labels)))
            want = [
                cli._json_text(
                    {"reports": {structure: fit.report(i).to_jsonable()}, "subset": []},
                    cli._ITEM_PAD,
                )
                for i in range(r)
            ]
            assert rows == want, structure
            assert ['"bic": null' in row for row in rows] == [n == 0] * r


class TestFailuresStayPerReplicate:
    def test_one_indefinite_posterior_rate_fails_alone(self):
        rng = np.random.default_rng(8)
        s = random_scatters(rng, 4, 5, 2, False)
        s[2] = [[1.0, 3.0], [3.0, 1.0]]  # B + s = [[2, 3], [3, 2]] is indefinite
        fam = matched_family(WishartHyper(2.5, np.eye(2)))
        fits = fit_stack(s, 5, fam)
        assert fits["A"].valid.tolist() == [True, True, False, True]
        assert isinstance(fits["A"].errors[2], NotPositiveDefiniteError)
        assert np.isnan(fits["A"].log_evidence[2]) and np.isnan(fits["A"].map[2]).all()
        for i in (0, 1, 3):
            solo = fit_stack(s[i : i + 1], 5, fam)["A"]
            assert fits["A"].log_evidence[i] == solo.log_evidence[0]
        with pytest.raises(NotPositiveDefiniteError):
            fits["A"].report(2)
        with pytest.raises(NotPositiveDefiniteError):
            log_evidence(fam.a, SuffStats(n=5, d=2, s=s[2]))
        # the replicate is still ranked among the structures that could be fit
        assert best_structures(fits, "evidence")[2] in ("C", "D")

    def test_non_regular_prior_marks_every_replicate(self):
        # m = 0 for D and C: no posterior mode at n = 0
        hypers = HyperTriple(
            WishartHyper(3.0, np.eye(2)), GammaVecHyper(1.0, np.ones(2)), GammaHyper(1.0, 2.0, 2)
        )
        fits = fit_stack(np.zeros((3, 2, 2)), 0, hypers)
        assert not fits["D"].valid.any() and not fits["C"].valid.any()
        assert isinstance(fits["D"].errors[1], NonRegularPriorError)
        assert best_structures(fits, "evidence") == ["A", "A", "A"]

    def test_non_regular_prior_keeps_its_evidence(self):
        # m = 2 * 1.2 - 4 < 0: at n = 1 the posterior of A is proper but has
        # no mode. D and C fit the data badly, so A has the largest evidence.
        hypers = HyperTriple(
            WishartHyper(1.2, np.eye(3)),
            GammaVecHyper(2.0, np.full(3, 50.0)),
            GammaHyper(2.0, 150.0, 3),
        )
        s = random_scatters(np.random.default_rng(10), 4, 1, 3, False)
        fits = fit_stack(s, 1, hypers)
        a = fits["A"]
        assert not a.valid.any()
        assert all(isinstance(error, NonRegularPriorError) for error in a.errors.values())
        for field in ("map", "log_lik", "flexibility", "log_prior", "bic", "pc_bic", "kic"):
            assert np.isnan(getattr(a, field)).all(), field
        for i in range(4):
            stats = SuffStats(n=1, d=3, s=s[i])
            want = scalar_log_evidence(hypers.a, stats)
            assert a.log_evidence[i] == log_evidence(hypers.a, stats) == want
            result = select_structure(stats, hypers, "evidence")
            assert result.skipped["A"].startswith("NonRegularPriorError")
            assert [rep.structure for rep in result.ranked] == ["D", "C"]
        assert (a.log_evidence > np.maximum(fits["D"].log_evidence, fits["C"].log_evidence)).all()
        assert best_structures(fits, "evidence") == ["D"] * 4
        # an improper posterior has no evidence either
        s[3] = [[1.0, 3.0, 0.0], [3.0, 1.0, 0.0], [0.0, 0.0, 1.0]]  # B + s is indefinite
        a = fit_stack(s, 1, hypers)["A"]
        assert np.isnan(a.log_evidence[3]) and isinstance(a.errors[3], NotPositiveDefiniteError)
        with pytest.raises(NotPositiveDefiniteError):
            log_evidence(hypers.a, SuffStats(n=1, d=3, s=s[3]))

    @PROPERTY
    @given(case=cases)
    def test_evidence_is_the_scalar_formula_exactly(self, case):
        # shapes down to the edge of each prior's support, regular or not
        rng, d, n, r, near = case
        s = random_scatters(rng, r, n, d, near)
        shapes = (
            rng.uniform((d - 1) / 2 + 0.05, 6.0), rng.uniform(0.05, 5.0), rng.uniform(0.05, 8.0)
        )
        for h in random_triple(rng, d, shapes):
            for i in range(r):
                stats = SuffStats(n=n, d=d, s=s[i])
                assert log_evidence(h, stats) == scalar_log_evidence(h, stats)

    @pytest.mark.parametrize(
        "name, scheme", [("fit_stack", "oracle"), ("moment_hypers", "empirical-bayes")]
    )
    def test_type_error_in_scoring_propagates_from_run_cell(self, monkeypatch, name, scheme):
        def broken(*args, **kwargs):
            raise TypeError("programming error")

        monkeypatch.setattr(montecarlo, name, broken)
        with pytest.raises(TypeError):
            run_cell(SimConfig(d=2, n_values=(4,), reps=3, seed=1, scheme=scheme), "C", 4)


class TestReports:
    """`StackFit.report` hands on the kernel's MAP array without checking it
    again; the half-precision a caller builds from it must still be valid."""

    @PROPERTY
    @given(case=cases, stacked=st.booleans(), spread=st.floats(0.0, 8.0))
    def test_every_valid_map_builds_its_half_precision(self, case, stacked, spread):
        rng, d, n, r, near = case
        s = random_scatters(rng, r, n, d, near) + ill_conditioned_scatters(rng, r, d, spread)
        shapes = random_shapes(rng, d)
        hypers = (
            stack_hypers([random_triple(rng, d, shapes) for _ in range(r)])
            if stacked
            else random_triple(rng, d)
        )
        for structure, fit in fit_stack(s, n, hypers).items():
            for i in np.flatnonzero(fit.valid):
                rep = fit.report(i)
                theta = rep.map  # FullPrecision symmetrizes and factors here
                assert (theta.structure, theta.dim) == (structure, d)
                # the kernel's A mode is exactly symmetric, so nothing changes
                np.testing.assert_array_equal(as_array(theta, structure), fit.map[i])
                assert rep.to_jsonable()["map"] == np.asarray(as_array(theta, structure)).tolist()


class TestNonFiniteMode:
    """A rate the prior accepts can be so close to singular that the mode
    overflows; that replicate fails alone, with its evidence kept."""

    @pytest.mark.parametrize("structure", SIMPLEST_FIRST)
    def test_overflowing_mode_fails_its_replicate(self, structure):
        tiny = 1e-310
        hypers = HyperTriple(
            WishartHyper(2.0, tiny * np.eye(2)),
            GammaVecHyper(2.0, np.array([tiny, 1.0])),
            GammaHyper(2.0, tiny, 2),
        )
        s = np.stack([np.zeros((2, 2)), np.eye(2)])
        # a RuntimeWarning would fail the test (pytest's filterwarnings)
        fit = fit_stack(s, 5, hypers)[structure]
        assert fit.valid.tolist() == [False, True]
        assert isinstance(fit.errors[0], SupportError)
        assert "posterior mode is not finite" in str(fit.errors[0])
        for field in ("map", "log_lik", "flexibility", "log_prior", "bic", "kic"):
            assert np.isnan(getattr(fit, field)[0]).all(), field
            assert np.isfinite(getattr(fit, field)[1]).all(), field
        h = hypers.for_structure(structure)
        for i in range(2):
            stats = SuffStats(n=5, d=2, s=s[i])
            assert fit.log_evidence[i] == log_evidence(h, stats) == scalar_log_evidence(h, stats)
        with pytest.raises(SupportError):
            fit.report(0)
        assert fit.report(1).map.structure == structure


class TestOverflowingPosteriorRate:
    """A prior rate plus a statistic can overflow a float; that replicate's
    posterior is improper, so it fails alone with a NaN evidence, and the
    other replicates of the stack keep their values exactly."""

    @pytest.mark.parametrize("structure", SIMPLEST_FIRST)
    def test_fails_its_replicate_alone(self, structure):
        hypers = HyperTriple(
            WishartHyper(2.0, 1e308 * np.eye(2)),
            GammaVecHyper(2.0, np.full(2, 1e308)),
            GammaHyper(2.0, 1e308, 2),
        )
        s = random_scatters(np.random.default_rng(3), 4, 5, 2, False)
        s[1] = 1e308 * np.eye(2)  # 1e308 + 1e308 overflows in every structure's rate
        # a RuntimeWarning would fail the test (pytest's filterwarnings)
        fit = fit_stack(s, 5, hypers)[structure]
        assert fit.valid.tolist() == [True, False, True, True]
        assert list(fit.errors) == [1] and type(fit.errors[1]) is SupportError
        assert str(fit.errors[1]) == "the posterior rate overflows"
        assert np.isnan(fit.log_evidence[1])
        rest = fit_stack(s[[0, 2, 3]], 5, hypers)[structure]
        for field in ("map", "log_lik", "log_evidence", "flexibility", "log_prior", "bic", "kic"):
            assert np.isnan(getattr(fit, field)[1]).all(), field
            np.testing.assert_array_equal(getattr(fit, field)[[0, 2, 3]], getattr(rest, field))
        with pytest.raises(SupportError, match="posterior rate overflows"):
            log_evidence(hypers.for_structure(structure), SuffStats(n=5, d=2, s=s[1]))

    def test_a_structure_whose_rate_overflows_is_skipped(self):
        # tr s = 4 (7.7e153)^2 overflows; the diagonal and the matrix do not
        s = (7.7e153**2) * np.eye(4)
        hypers = HyperTriple(
            WishartHyper(4.0, np.eye(4)), GammaVecHyper(2.0, np.ones(4)), GammaHyper(5.0, 4.0, 4)
        )
        result = select_structure(SuffStats(n=4, d=4, s=s), hypers)
        assert result.skipped == {"C": "SupportError: the posterior rate overflows"}
        assert [rep.structure for rep in result.ranked] == ["D", "A"]


class TestOneFailurePath:
    """Failures are marked in the kernel's one final mask and surfaced by
    `StackFit.report` and `StackFit.defined`."""

    @pytest.mark.parametrize("structure", SIMPLEST_FIRST)
    def test_hyper_of_another_dimension_raises(self, structure):
        hypers = matched_family(WishartHyper(3.0, np.eye(3)))
        with pytest.raises(DimensionMismatchError):
            fit_structure(hypers.for_structure(structure), np.stack([np.eye(2)] * 2), 5)
        with pytest.raises(DimensionMismatchError):
            select_structure(SuffStats(n=5, d=2, s=np.eye(2)), hypers, "evidence")

    def test_defined_raises_the_lowest_undefined_replicates_error(self):
        # replicate 1's mode overflows (its evidence stays defined) and
        # replicate 2's posterior rate is indefinite (no evidence either)
        s = np.stack([np.eye(2), np.zeros((2, 2)), [[1.0, 3.0], [3.0, 1.0]], np.eye(2)])
        fit = fit_structure(WishartHyper(2.0, 1e-310 * np.eye(2)), s, 5)
        assert fit.valid.tolist() == [True, False, False, True]
        for field, i, kind in (
            ("flexibility", 1, SupportError),
            ("kic", 1, SupportError),
            ("log_evidence", 2, NotPositiveDefiniteError),
        ):
            with pytest.raises(kind) as caught:
                fit.defined(field)
            assert caught.value is fit.errors[i]
        whole = fit_structure(WishartHyper(2.0, 1e-310 * np.eye(2)), s[[0, 3]], 5)
        for field in ("log_evidence", "flexibility", "log_lik", "bic", "pc_bic", "kic"):
            assert whole.defined(field) is getattr(whole, field)


class TestEvidenceStep:
    """`_evidence`, the step that `log_evidence` and `rate_study` call alone,
    gives the kernel's evidence bit for bit, NaN positions included."""

    @pytest.mark.parametrize("stacked", [False, True])
    @pytest.mark.parametrize("structure", SIMPLEST_FIRST)
    def test_equals_the_kernels_evidence(self, structure, stacked):
        rng = np.random.default_rng(43)
        d, n, r = 3, 6, 5
        s = random_scatters(rng, r, n, d, False)
        triples = [random_triple(rng, d) for _ in range(r)]
        h = (stack_hypers(triples) if stacked else triples[0]).for_structure(structure)
        got, errors, _ = _evidence(h, s, n)
        assert errors == {} and np.isfinite(got).all()
        assert np.array_equal(got, fit_structure(h, s, n).log_evidence, equal_nan=True)
        assert np.array_equal(_defined_evidence(h, s, n), got)

    def test_improper_replicate_raises_what_defined_raises(self):
        rng = np.random.default_rng(44)
        s = random_scatters(rng, 5, 5, 2, False)
        s[[1, 3]] = [[1.0, 3.0], [3.0, 1.0]]  # B + s = [[2, 3], [3, 2]] is indefinite
        h = WishartHyper(2.5, np.eye(2))
        got, errors, _ = _evidence(h, s, 5)
        fit = fit_structure(h, s, 5)
        assert np.array_equal(got, fit.log_evidence, equal_nan=True)
        assert np.isnan(got).tolist() == [False, True, False, True, False]
        assert sorted(errors) == [1, 3]
        with pytest.raises(NotPositiveDefiniteError) as want:
            fit.defined("log_evidence")
        with pytest.raises(NotPositiveDefiniteError) as caught:
            _defined_evidence(h, s, 5)
        assert type(caught.value) is type(want.value)
        assert str(caught.value) == str(want.value)

    @pytest.mark.parametrize(
        "h, n",
        [
            (WishartHyper(1.2, np.eye(3)), 1),  # shape 1.7 <= (d+1)/2 = 2
            (GammaVecHyper(0.2, np.ones(3)), 1),  # gamma shape 0.7 <= 1
            (GammaHyper(0.5, 3.0, 3), 0),  # gamma shape 0.5 <= 1
        ],
    )
    def test_non_regular_prior_keeps_its_evidence(self, h, n):
        s = random_scatters(np.random.default_rng(45), 4, n, 3, False)
        got, errors, _ = _evidence(h, s, n)
        fit = fit_structure(h, s, n)
        assert not fit.valid.any() and errors == {} and np.isfinite(got).all()
        assert np.array_equal(got, fit.log_evidence, equal_nan=True)


class TestTieBreak:
    def test_simplest_wins_across_an_old_bin_edge(self):
        # values below 1 in size have tolerance 1e-9; C and A sit 0.02 of it
        # apart, on either side of the edge of the old round(v / tol) bins,
        # which ranked A first
        tol = 1e-9
        c_val, a_val = (123456 + 0.49) * tol, (123456 + 0.51) * tol
        assert round(a_val / tol) != round(c_val / tol)
        values = np.array([[c_val, -1.0, a_val]])
        assert simplest_best(values).tolist() == [0]

    def test_full_ranking_uses_the_same_rule(self):
        rng = np.random.default_rng(9)
        d, n = 1, 10
        stats = SuffStats(n=n, d=d, s=random_scatters(rng, 1, n, d, False)[0])
        ranked = select_structure(stats, matched_family(GammaHyper(2.0, 1.0, 1)), "evidence").ranked
        # at d = 1 the three evidences coincide: simplicity orders all three
        assert [rep.structure for rep in ranked] == ["C", "D", "A"]


class TestMcNemarExactPath:
    def test_matches_binomial_cdf(self):
        for total in range(1, 120):
            for b in range(total + 1):
                want = min(1.0, 2.0 * float(binom.cdf(min(b, total - b), total, 0.5)))
                got = mcnemar(b, total - b, method="exact").p_value
                assert abs(got - want) <= 1e-11 * want

    @pytest.mark.parametrize("total", [500, 2000, 10_000])
    def test_matches_binomial_cdf_at_large_totals(self, total):
        # b at 0 to 8 standard deviations below total / 2: p from 1 down to 1e-15
        sd = math.sqrt(total) / 2
        for k in (0, 1, 2, 3, 5, 8):
            b = int(total / 2 - k * sd)
            want = min(1.0, 2.0 * float(binom.cdf(b, total, 0.5)))
            got = mcnemar(b, total - b, method="exact").p_value
            assert abs(got - want) <= 1e-11 * want
