import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import covsel.montecarlo as montecarlo
import covsel.priors as priors
import covsel.structures as structures
from covsel.asymptotics import second_moment_matrix
from covsel.cli import main
from covsel.data import SuffStats
from covsel.errors import ConfigError, SupportError
from covsel.montecarlo import (
    SCHEMES,
    CellDecisions,
    SimConfig,
    TRUTH_ORDER,
    confusion_table,
    draw_scatters,
    gaussian_rows,
    generate_instance,
    mcnemar,
    oracle_hyper,
    render_confusion_markdown,
    run_cell,
    run_row,
    scatters_from,
)
from covsel.precision import IsoPrecision, from_array
from covsel.priors import (
    GammaHyper,
    GammaVecHyper,
    WishartHyper,
    empirical_bayes,
    matched_family,
    mclust_default,
    sample_prior,
)
from covsel.structures import CRITERIA, fit_stack

from conftest import (
    assert_same_cell,
    best_structures,
    cell_rngs,
    draw_scatters_loop,
    rep_rng,
    run_cell_substack,
    sample_prior_loop,
    scatter_factor_lapack,
    selections,
)


class TestMcNemar:
    def test_exact_two_sided_binomial(self):
        res = mcnemar(5, 15)
        assert res.method == "exact"
        assert res.p_value == pytest.approx(0.04139, abs=1e-4)

    def test_symmetric_large_counts(self):
        res = mcnemar(50, 50)
        assert res.method == "continuity-corrected"
        assert res.statistic == 0.0
        assert res.p_value == 1.0

    def test_forced_chi_square(self):
        res = mcnemar(5, 15, method="chi2")
        assert res.statistic == pytest.approx(4.05, abs=1e-12)
        assert res.p_value == pytest.approx(0.0442, abs=1e-3)

    def test_no_discordance(self):
        res = mcnemar(0, 0)
        assert res.p_value == 1.0

    def test_clamped_statistic(self):
        assert mcnemar(13, 12, method="chi2").statistic == 0.0

    def test_switchover_at_25(self):
        assert mcnemar(12, 12).method == "exact"
        assert mcnemar(13, 12).method == "continuity-corrected"

    def test_negative_counts_rejected(self):
        with pytest.raises(ConfigError):
            mcnemar(-1, 2)

    def test_unknown_method_rejected(self):
        with pytest.raises(ConfigError, match="unknown method 'bogus'"):
            mcnemar(1, 2, "bogus")


class TestMcNemarChiSquareTail:
    """The continuity-corrected p is the upper tail of a chi-square with one
    degree of freedom at the corrected statistic (|b - c| - 1)^2 / (b + c)."""

    def test_at_zero(self):
        for b, c in [(13, 12), (5, 5), (40, 41), (0, 1)]:
            res = mcnemar(b, c, method="chi2")
            assert res.statistic == 0.0 and res.p_value == 1.0

    def test_one_dof_normal_tail(self):
        # P(chi2_1 > x) = 2 (1 - Phi(sqrt(x))), here at x = 9^2 / 20 = 4.05
        res = mcnemar(5, 15, method="chi2")
        x = 4.05
        expected = 2 * (1 - 0.5 * (1 + math.erf(math.sqrt(x) / math.sqrt(2))))
        assert res.p_value == pytest.approx(expected, abs=1e-10)
        assert res.p_value == pytest.approx(0.04417, abs=1e-4)

    def test_standard_quantile(self):
        # 289^2 / 21 742 is within 1e-7 of the 95% quantile 3.841459
        res = mcnemar(10_726, 11_016, method="chi2")
        assert res.statistic == pytest.approx(3.841459, abs=1e-6)
        assert res.p_value == pytest.approx(0.05, abs=1e-6)

    def test_matches_scipy_chi2_tail(self):
        from scipy.stats import chi2

        for total in range(25, 3000, 13):
            for b in range(0, total + 1, max(1, total // 40)):
                res = mcnemar(b, total - b, method="chi2")
                want = float(chi2.sf(res.statistic, 1))
                # scipy flushes the subnormal tail to 0
                assert abs(res.p_value - want) <= 1e-12 * want + np.finfo(float).tiny

    def test_accuracy_against_quadrature(self):
        # independent oracle: numerically integrate the one-dof density tail
        from scipy.integrate import quad

        def dens(t):
            return math.exp(-t / 2) / math.sqrt(2 * math.pi * t)

        for b, c in [(5, 15), (10, 30), (20, 28), (3, 40), (100, 130), (60, 20)]:
            res = mcnemar(b, c, method="chi2")
            assert res.statistic > 0
            val, _ = quad(dens, res.statistic, np.inf, epsabs=1e-12, epsrel=1e-12)
            assert res.p_value == pytest.approx(val, abs=1e-8)

    def test_far_tail_underflows_to_zero(self):
        assert mcnemar(0, 2000, method="chi2").p_value == 0.0
        for total in range(25, 400, 7):
            for b in range(0, total + 1, 3):
                assert 0.0 <= mcnemar(b, total - b, method="chi2").p_value <= 1.0


class TestOracleHyper:
    def test_matched_protocol_shapes(self):
        a = oracle_hyper("A", 5, 2.0)
        d = oracle_hyper("D", 5, 2.0)
        c = oracle_hyper("C", 5, 2.0)
        assert (a.alpha, d.alpha, c.alpha) == (4.0, 2.0, 6.0)
        np.testing.assert_allclose(a.rate, 0.5 * np.eye(5))
        np.testing.assert_allclose(d.rate, np.full(5, 0.5))
        assert c.rate == pytest.approx(2.5)

    def test_invalid_beta(self):
        with pytest.raises(ConfigError):
            oracle_hyper("A", 5, 0.0)

    def test_unknown_truth(self):
        with pytest.raises(ConfigError, match="unknown truth 'X'"):
            oracle_hyper("X", 3, 2.0)
        with pytest.raises(ConfigError, match="unknown truth 'X'"):
            run_cell(SimConfig(d=3, n_values=(5,), reps=4), "X", 5)

    @pytest.mark.parametrize("truth", TRUTH_ORDER)
    @pytest.mark.parametrize("d", [1, 2, 5])
    @pytest.mark.parametrize("beta_inverse, m", [(2.0, 2.0), (0.3, 7.5), (1e-300, 0.5)])
    def test_equal_to_the_branches(self, truth, d, beta_inverse, m):
        # the per-truth constructors that `priors._hyper` replaced, kept as oracles
        beta = 1.0 / beta_inverse
        alpha = priors.shape_for_sample_size(truth, m, d)
        want = {
            "A": lambda: WishartHyper(alpha, beta * np.eye(d)),
            "D": lambda: GammaVecHyper(alpha, np.full(d, beta)),
            "C": lambda: GammaHyper(alpha, d * beta, d),
        }[truth]()
        got = oracle_hyper(truth, d, beta_inverse, m)
        assert type(got) is type(want) and (got.alpha, got.dim) == (want.alpha, want.dim)
        assert np.asarray(got.rate).tobytes() == np.asarray(want.rate).tobytes()

    @pytest.mark.parametrize("beta_inverse", [np.nan, np.inf])
    def test_non_finite_beta_rejected(self, beta_inverse):
        with pytest.raises(ConfigError, match="finite"):
            oracle_hyper("A", 5, beta_inverse)
        with pytest.raises(ConfigError, match="finite"):
            SimConfig(beta_inverse=beta_inverse)


class TestGenerateInstance:
    def test_deterministic_given_stream(self):
        h = oracle_hyper("A", 3, 2.0)
        d1 = generate_instance(h, 4, np.random.default_rng(42))
        d2 = generate_instance(h, 4, np.random.default_rng(42))
        np.testing.assert_array_equal(d1.rows, d2.rows)

    def test_iso_truth_uncorrelated(self):
        rng = np.random.default_rng(0)
        h = oracle_hyper("C", 4, 2.0)
        pooled = np.zeros((4, 4))
        reps = 4000
        sq = []
        for _ in range(reps):
            x = generate_instance(h, 1, rng).rows[0]
            pooled += np.outer(x, x)
            sq.append(np.outer(x, x))
        pooled /= reps
        se = np.std(sq, axis=0, ddof=1) / math.sqrt(reps)
        off = ~np.eye(4, dtype=bool)
        assert np.all(np.abs(pooled[off]) < 3 * se[off])

    @pytest.mark.slow
    def test_pooled_second_moment_full_truth(self):
        rng = np.random.default_rng(1)
        h = WishartHyper(4.0, np.array([[1.0, 0.3], [0.3, 2.0]]))
        reps = 30_000
        acc = np.empty((reps, 2, 2))
        for i in range(reps):
            x = generate_instance(h, 1, rng).rows[0]
            acc[i] = np.outer(x, x)
        mean = acc.mean(axis=0)
        se = acc.std(axis=0, ddof=1) / math.sqrt(reps)
        assert np.all(np.abs(mean - second_moment_matrix(h)) < 3 * se)


# so small a rate inverse that some drawn thetas or their scatters leave the floats
BETA_INV_FAILING = 2.5e-308


class TestDrawScatters:
    @pytest.mark.parametrize("truth", TRUTH_ORDER)
    @pytest.mark.parametrize(
        "d, n", [(1, 1), (1, 4), (3, 2), (3, 3), (3, 4), (5, 2), (5, 5), (5, 9)]
    )
    def test_equals_per_replicate_generate_instance(self, truth, d, n):
        """The per-replicate loop `run_cell` ran before, kept as the oracle,
        with its draw of theta from `sample_prior_loop`; `generate_instance`
        gives its rows byte for byte. The scatters whiten z^T z instead of
        each row, so they agree to rounding and make the same picks."""
        config = SimConfig(d=d, n_values=(n,), reps=20, seed=11)
        h = oracle_hyper(truth, config.d, config.beta_inverse)
        expected = np.empty((config.reps, config.d, config.d))
        for rep in range(config.reps):
            rng = rep_rng(config, truth, n, rep)
            theta = from_array(truth, sample_prior_loop(h, 1, rng)[0], d)
            rows = gaussian_rows(theta, n, rng)
            got = generate_instance(h, n, rep_rng(config, truth, n, rep)).rows
            assert got.tobytes() == rows.tobytes()
            s = rows.T @ rows
            expected[rep] = (s + s.T) / 2
        rngs = [rep_rng(config, truth, n, rep) for rep in range(config.reps)]
        scatters, errors = draw_scatters(h, n, rngs)
        assert errors == {}
        largest = np.abs(expected).max(axis=(-2, -1))
        assert np.all(np.abs(scatters - expected).max(axis=(-2, -1)) <= 1e-14 * largest)
        family = matched_family(h)
        for crit in CRITERIA:
            assert best_structures(fit_stack(scatters, n, family), crit) == best_structures(
                fit_stack(expected, n, family), crit
            )

    @pytest.mark.parametrize(
        "h, n, fails",
        [
            (oracle_hyper("A", 1, 2.0), 3, False),  # d = 1: no column has normals
            (oracle_hyper("A", 5, 2.0), 4, False),
            # shapes just above (d - 1)/2: the last column's gamma has shape 0.02 < 1,
            # and many draws are numerically singular
            (WishartHyper(1.52, np.diag([1.0, 2.0, 0.5, 3.0])), 2, True),
            (WishartHyper(1.02, np.array([[2, 0.6, 0.1], [0.6, 1, 0.3], [0.1, 0.3, 0.7]])), 5, True),
            (oracle_hyper("D", 4, 2.0), 6, False),
            (oracle_hyper("C", 3, 2.0), 2, False),
            # shape 0.005: some draws underflow to 0, and some scatters overflow
            (oracle_hyper("D", 1, 2.0, -1.99), 5, True),
            (oracle_hyper("A", 3, BETA_INV_FAILING), 5, True),
        ],
    )
    def test_in_place_draws_equal_a_sample_prior_per_replicate(self, h, n, fails):
        """Each replicate's variates, drawn in place, are a whole
        `sample_prior(h, 1, rng)`, and its normals those of `gaussian_rows`
        (its rows at 2 theta = I): the scatters, the errors and each stream's
        final state, byte for byte."""

        def streams():
            return [np.random.default_rng(np.random.SeedSequence((17, rep))) for rep in range(300)]

        rngs, oracles = streams(), streams()
        got, errors = draw_scatters(h, n, rngs)
        draws, w = [], np.empty((len(oracles), h.dim, h.dim))
        for i, rng in enumerate(oracles):
            draws.append(sample_prior(h, 1, rng)[0])
            z = gaussian_rows(IsoPrecision(0.5, h.dim), n, rng)
            w[i] = z.T @ z
        want, want_errors = scatters_from(h.structure, np.array(draws), w)
        assert got.tobytes() == want.tobytes()
        assert {i: str(e) for i, e in errors.items()} == {i: str(e) for i, e in want_errors.items()}
        assert [r.bit_generator.state for r in rngs] == [r.bit_generator.state for r in oracles]
        assert bool(errors) == fails

    @pytest.mark.parametrize("d", range(1, 9))
    def test_scatter_factor_matches_the_lapack_inverse(self, d):
        g = np.random.default_rng(d).standard_normal((d, d + 2))
        h = WishartHyper((d - 1) / 2 + 0.3, g @ g.T / d + 0.3 * np.eye(d))
        draws = sample_prior(h, 200, np.random.default_rng(d))
        factor, errors = montecarlo._scatter_factor("A", draws)
        want = scatter_factor_lapack(draws)
        assert errors == {}
        scale = np.abs(want).max(axis=(-2, -1))
        assert np.all(np.abs(factor - want).max(axis=(-2, -1)) <= 1e-12 * scale)

    def test_a_failed_draw_fails_alone(self):
        # shape 0.005: some gamma draws underflow to 0, outside the support,
        # and one is so small that the scatter of its rows overflows
        config = SimConfig(d=1, prior_sample_size=-1.99, n_values=(5,), reps=300, seed=0)
        h = oracle_hyper("D", 1, config.beta_inverse, config.prior_sample_size)
        scatters, errors = draw_scatters(h, 5, [rep_rng(config, "D", 5, r) for r in range(300)])
        messages = {str(exc) for exc in errors.values()}
        assert all(isinstance(exc, SupportError) for exc in errors.values())
        assert any("overflows" in m for m in messages) and any("positive" in m for m in messages)
        assert np.isnan(scatters[list(errors)]).all()
        ok = [r for r in range(300) if r not in errors]
        alone, none = draw_scatters(h, 5, [rep_rng(config, "D", 5, r) for r in ok])
        assert none == {}
        np.testing.assert_array_equal(alone, scatters[ok])

    def test_a_non_finite_wishart_draw_fails_alone(self):
        # LAPACK factors an inf matrix without an error, and its inverse is 0:
        # unchecked, the draw would give a finite, singular scatter
        s, errors = scatters_from("A", np.full((1, 3, 3), np.inf), 4 * np.eye(3)[None])
        assert np.isnan(s).all() and list(errors) == [0]
        good = np.stack([np.eye(3), np.diag([1.0, 2.0, 3.0])])
        bad = np.full((3, 3), np.nan), np.where(np.eye(3) > 0, np.inf, 0.0)
        draws = np.stack([bad[0], good[0], bad[1], good[1]])
        w = np.stack([(k + 2) * np.eye(3) + 0.5 for k in range(4)])
        s, errors = scatters_from("A", draws, w)
        assert sorted(errors) == [0, 2] and np.isnan(s[[0, 2]]).all()
        for exc in errors.values():
            assert isinstance(exc, SupportError)
            assert str(exc) == "a drawn half-precision must be positive and finite"
        alone, none = scatters_from("A", good, w[[1, 3]])
        assert none == {} and alone.tobytes() == s[[1, 3]].tobytes()

    @pytest.mark.parametrize("truth", TRUTH_ORDER)
    def test_no_generator_gives_an_empty_stack(self, truth):
        h = oracle_hyper(truth, 3, 2.0)
        for rngs in ([], iter(())):
            s, errors = draw_scatters(h, 4, rngs)
            assert s.shape == (0, 3, 3) and errors == {}

    @pytest.mark.parametrize("truth", TRUTH_ORDER)
    @pytest.mark.parametrize("beta_inverse", [2.0, BETA_INV_FAILING])
    def test_blocks_equal_the_per_replicate_oracles(self, monkeypatch, truth, beta_inverse):
        # blocks of 7 replicates: a cell of 20 is two full blocks and a partial one
        d, n = 3, 4
        monkeypatch.setattr(montecarlo, "_BLOCK_NORMALS", 7 * n * d)
        monkeypatch.setattr(montecarlo, "_BLOCK_REPS", 7)
        config = SimConfig(d=d, beta_inverse=beta_inverse, n_values=(n,), reps=20, seed=5)
        h = oracle_hyper(truth, d, beta_inverse)
        scatters, errors = draw_scatters(h, n, cell_rngs(config, truth, n))
        oracles = [rep_rng(config, truth, n, rep) for rep in range(config.reps)]
        want, want_errors = draw_scatters_loop(h, n, oracles)
        assert scatters.tobytes() == want.tobytes()
        assert {i: str(e) for i, e in errors.items()} == {i: str(e) for i, e in want_errors.items()}
        if beta_inverse == BETA_INV_FAILING:
            assert len({i // 7 for i in errors}) > 1  # failures in more than one block
        # each block of `_row_seeds` is drawn alone, its errors indexed within it
        blocks = [seeds[0] for seeds in montecarlo._row_seeds(config, n, (truth,))]
        assert [len(seeds) for seeds in blocks] == [7, 7, 6]
        for k, seeds in enumerate(blocks):
            s, block_errors = draw_scatters(h, n, montecarlo._seeded(seeds))
            assert s.tobytes() == want[7 * k : 7 * k + 7].tobytes()
            assert sorted(block_errors) == [i - 7 * k for i in sorted(errors) if i // 7 == k]

    @pytest.mark.parametrize("truth", TRUTH_ORDER)
    @pytest.mark.parametrize("beta_inverse", [2.0, BETA_INV_FAILING])
    def test_chunks_of_normals_within_a_block(self, monkeypatch, truth, beta_inverse):
        # chunks of 3 replicates' normals and blocks of 7: a cell of 20 is
        # blocks of 7, 7 and 6, each drawn in chunks that do not divide it,
        # and each the per-replicate oracles' scatters
        d, n = 3, 4
        monkeypatch.setattr(montecarlo, "_BLOCK_NORMALS", 3 * n * d)
        monkeypatch.setattr(montecarlo, "_BLOCK_REPS", 7)
        config = SimConfig(d=d, beta_inverse=beta_inverse, n_values=(n,), reps=20, seed=5)
        h = oracle_hyper(truth, d, beta_inverse)
        oracles = [rep_rng(config, truth, n, rep) for rep in range(config.reps)]
        want, want_errors = draw_scatters_loop(h, n, oracles)
        seeds = montecarlo._row_seeds(config, n, (truth,))
        blocks = [draw_scatters(h, n, montecarlo._seeded(block[0])) for block in seeds]
        assert [len(s) for s, _ in blocks] == [7, 7, 6]
        for k, (s, block_errors) in enumerate(blocks):
            assert s.tobytes() == want[7 * k : 7 * k + 7].tobytes()
            assert sorted(block_errors) == [i - 7 * k for i in sorted(want_errors) if i // 7 == k]
        if beta_inverse == BETA_INV_FAILING:
            assert len({i // 7 for i in want_errors}) > 1  # failures in more than one block
        whole, whole_errors = draw_scatters(h, n, cell_rngs(config, truth, n))  # 7 chunks
        assert whole.tobytes() == want.tobytes() and sorted(whole_errors) == sorted(want_errors)

    def test_takes_any_iterable(self):
        config = SimConfig(d=3, n_values=(4,), reps=6, seed=2)
        h = oracle_hyper("A", 3, 2.0)
        listed = draw_scatters(h, 4, [rep_rng(config, "A", 4, r) for r in range(6)])[0]
        lazy = draw_scatters(h, 4, (rep_rng(config, "A", 4, r) for r in range(6)))[0]
        assert lazy.tobytes() == listed.tobytes()


class TestCellStreams:
    """`run_cell`'s streams and draws against the per-replicate oracles: one
    SeedSequence of each replicate's key tuple and a whole `sample_prior` per
    replicate. The scatters, the failed replicates and each stream's final
    state must be those of the oracles, byte for byte. One generator serves
    every replicate, so a stream's final state is read when `draw_scatters`
    asks for the next replicate."""

    # 2^32 - 1 is one word, 2^32 two and 2^64 + 5 three; an np.integer seed too
    @pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 + 5, np.uint64(2**63 + 9)])
    @pytest.mark.parametrize("truth", TRUTH_ORDER)
    @pytest.mark.parametrize("n", [2, 3, 5])  # n < d, n = d and n > d
    @pytest.mark.parametrize("beta_inverse", [2.0, BETA_INV_FAILING])
    def test_equal_to_the_per_replicate_oracles(self, seed, truth, n, beta_inverse):
        config = SimConfig(d=3, beta_inverse=beta_inverse, n_values=(n,), reps=40, seed=seed)
        h = oracle_hyper(truth, config.d, config.beta_inverse)
        rngs = cell_rngs(config, truth, n)
        oracles = [rep_rng(config, truth, n, rep) for rep in range(config.reps)]
        assert [g.bit_generator.state for g in rngs] == [g.bit_generator.state for g in oracles]
        finals = []

        def recorded():
            for g in cell_rngs(config, truth, n):  # a fresh pass
                yield g
                finals.append(g.bit_generator.state)  # as the next replicate is asked for

        scatters, errors = draw_scatters(h, n, recorded())
        want, want_errors = draw_scatters_loop(h, n, oracles)
        assert scatters.tobytes() == want.tobytes()
        assert {i: str(e) for i, e in errors.items()} == {i: str(e) for i, e in want_errors.items()}
        assert 0 < len(errors) < config.reps if beta_inverse == BETA_INV_FAILING else not errors
        assert finals == [g.bit_generator.state for g in oracles]


class TestSeeding:
    """`_row_seeds` computes numpy's SeedSequence -> PCG64 seeding itself, for
    a block of seed rows of a row's truths at once, and `_seeded` sets the
    streams from them. Every stream must start where
    numpy's own does; this fails if a numpy release changes either algorithm."""

    @pytest.mark.parametrize("k", range(1, 10))  # short of, at and past the pool of 4 words
    def test_rows_of_any_length(self, k):
        rng = np.random.default_rng(k)
        rows = rng.integers(0, 2**32, size=(200, k), dtype=np.uint32)
        rows[0], rows[1], rows[2] = 0, 2**32 - 1, np.arange(k)

        def streams():  # one pass of seeds, as `_row_seeds` makes a block's
            return montecarlo._seeded(montecarlo._pcg64_seeds(rows))

        assert sum(1 for _ in streams()) == len(rows)
        for row, g in zip(rows, streams()):
            assert g.bit_generator.state == np.random.PCG64(np.random.SeedSequence(row)).state

    @pytest.mark.parametrize(
        "seed, reps",
        [(0, 70_000), (2**32 - 1, 500), (2**32, 500), (2**64 + 5, 500), (np.uint64(2**63 + 9), 500)],
    )
    def test_every_replicate_of_a_cell(self, seed, reps):
        config = SimConfig(d=3, beta_inverse=0.7, n_values=(4,), reps=reps, seed=seed)
        assert sum(1 for _ in cell_rngs(config, "D", 4)) == reps
        for rep, g in enumerate(cell_rngs(config, "D", 4)):
            oracle = np.random.PCG64(np.random.SeedSequence((seed, 1, 4, 700_000, rep)))
            assert g.bit_generator.state == oracle.state, rep

    def test_a_cell_yields_its_streams_in_order(self):
        config = SimConfig(d=2, beta_inverse=3.0, n_values=(6,), reps=25, seed=12)
        got = [g.bit_generator.state for g in cell_rngs(config, "C", 6)]
        want = [rep_rng(config, "C", 6, rep).bit_generator.state for rep in range(config.reps)]
        assert got == want  # exactly reps streams, rep 0 first

    def test_a_half_used_word_does_not_carry_over(self):
        # a uint32 draw leaves the other half of a 64-bit output buffered in
        # the shared generator; the next replicate must not start with it
        config = SimConfig(d=3, n_values=(5,), reps=4, seed=9)
        streams = cell_rngs(config, "A", 5)
        for rep, g in enumerate(streams):
            fresh = rep_rng(config, "A", 5, rep)
            want = fresh.integers(0, 2**32, size=3, dtype=np.uint32), fresh.standard_normal(3)
            got = g.integers(0, 2**32, size=3, dtype=np.uint32), g.standard_normal(3)
            assert want[0].tobytes() == got[0].tobytes() and want[1].tobytes() == got[1].tobytes()
            assert g.bit_generator.state["has_uint32"] == 1  # an odd count of uint32 draws


class TestRunCell:
    def test_undrawable_replicates_count_as_failures(self):
        # gamma shapes 1 + m / 2 = 0.005: some standard gamma draws underflow to 0
        config = SimConfig(d=1, prior_sample_size=-1.99, n_values=(5,), reps=3000, seed=0)
        for truth in TRUTH_ORDER:
            h = oracle_hyper(truth, 1, config.beta_inverse, config.prior_sample_size)
            rngs = [rep_rng(config, truth, 5, rep) for rep in range(config.reps)]
            _, errors = draw_scatters(h, 5, rngs)
            cell = run_cell(config, truth, 5)
            assert errors and cell.failures >= len(errors)
            for picks in selections(cell).values():
                assert all(picks[rep] is None for rep in errors)
                assert sum(p is not None for p in picks) == config.reps - cell.failures
            # the failed draws are scored at stand-ins and dropped, as the oracle drops them;
            # mclust-default is the other scheme that admits m <= 0
            assert_same_cell(cell, run_cell_substack(config, truth, 5))
            mclust = replace(config, scheme="mclust-default")
            assert_same_cell(run_cell(mclust, truth, 5), run_cell_substack(mclust, truth, 5))

    def test_single_rep_deterministic(self):
        config = SimConfig(d=3, n_values=(5,), reps=1, seed=7, criteria=("evidence",))
        cell1 = run_cell(config, "C", 5)
        cell2 = run_cell(config, "C", 5)
        assert selections(cell1) == selections(cell2)
        assert selections(cell1)["evidence"][0] in TRUTH_ORDER

    def test_full_determinism_across_runs(self):
        config = SimConfig(d=3, n_values=(5,), reps=30, seed=11)
        t1 = confusion_table([run_cell(config, t, 5) for t in TRUTH_ORDER])
        t2 = confusion_table([run_cell(config, t, 5) for t in TRUTH_ORDER])
        for lab in t1.matrices:
            np.testing.assert_array_equal(t1.matrices[lab].counts, t2.matrices[lab].counts)

    def test_d1_coincident_models_select_identically(self):
        config = SimConfig(d=1, n_values=(6,), reps=50, seed=3)
        for truth in TRUTH_ORDER:
            cell = run_cell(config, truth, 6)
            assert selections(cell)["evidence"] == selections(cell)["pcbic"]
            assert set(selections(cell)["evidence"]) == {"C"}

    @pytest.mark.parametrize("scheme", montecarlo.SCHEMES)
    def test_empty_n_values_rejected(self, scheme):
        with pytest.raises(ConfigError, match="at least one n"):
            SimConfig(n_values=(), scheme=scheme)

    @pytest.mark.parametrize("n_values", [(5, 5), (5, 6, 5), (6, np.int64(6))])
    def test_repeated_n_values_rejected(self, n_values):
        # a repeated n has the same streams: its table would be a copy, not a sample
        with pytest.raises(ConfigError, match="n values must be distinct"):
            SimConfig(d=3, n_values=n_values, reps=2)

    @pytest.mark.parametrize(
        "field, value", [("d", 3.0), ("reps", 2.5), ("n_values", (5.5,)), ("seed", 1.5)]
    )
    def test_non_integral_sizes_rejected(self, field, value):
        # run_cell would otherwise fail with a bare TypeError or ValueError
        kwargs = dict(d=3, n_values=(5,), reps=2, seed=0)
        kwargs[field] = value
        with pytest.raises(ConfigError, match="integers"):
            SimConfig(**kwargs)

    def test_numpy_integers_accepted(self):
        plain = SimConfig(d=3, n_values=(5,), reps=4, seed=1)
        numpy = SimConfig(
            d=np.int64(3), n_values=(np.int32(5),), reps=np.int64(4), seed=np.uint8(1)
        )
        for truth in TRUTH_ORDER:
            assert_same_cell(run_cell(numpy, truth, numpy.n_values[0]), run_cell(plain, truth, 5))

    @pytest.mark.parametrize("criteria", [("evidnce",), ("evidence", "aic")])
    def test_unknown_criterion_rejected(self, criteria):
        # run_cell would otherwise fail later with a bare KeyError
        with pytest.raises(ConfigError, match="criteria must be among"):
            SimConfig(criteria=criteria)

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ConfigError, match="got 'bogus'"):
            SimConfig(scheme="bogus")

    @pytest.mark.parametrize(
        "beta_inverse, key", [(2.0, 2_000_000), (2.0000001, 2_000_000), (2.000001, 2_000_001)]
    )
    def test_stream_key(self, beta_inverse, key):
        assert SimConfig(beta_inverse=beta_inverse).stream_key == key

    @pytest.mark.parametrize("scheme, n", [("oracle", 2), ("vs-mclust", 4)])
    def test_cells_never_draw_rows(self, monkeypatch, scheme, n):
        def forbidden(*args, **kwargs):
            raise AssertionError("a cell drew rows")

        monkeypatch.setattr(montecarlo, "gaussian_rows", forbidden)
        for module in (montecarlo, priors):
            monkeypatch.setattr(module, "sample_half_precision", forbidden)
        config = SimConfig(d=3, n_values=(n,), reps=20, seed=1, scheme=scheme)
        for truth in TRUTH_ORDER:
            cell = run_cell(config, truth, n)
            assert cell.failures == 0
            assert all(p in TRUTH_ORDER for picks in selections(cell).values() for p in picks)

    def test_eb_scheme_requires_n_at_least_d(self):
        with pytest.raises(ConfigError):
            SimConfig(d=5, n_values=(3,), scheme="empirical-bayes")

    @pytest.mark.parametrize("scheme", ["empirical-bayes", "vs-mclust"])
    @pytest.mark.parametrize("m", [0, -1.5])
    def test_eb_scheme_requires_a_positive_prior_sample_size(self, scheme, m):
        # m * s / n is never positive definite: every replicate would fail.
        # The config is rejected as it is made, before any cell runs.
        with pytest.raises(ConfigError, match="prior sample size"):
            SimConfig(d=5, n_values=(6,), reps=20, scheme=scheme, prior_sample_size=m)

    @pytest.mark.parametrize("scheme", montecarlo.SCHEMES)
    @pytest.mark.parametrize("m", [math.nan, math.inf, -math.inf])
    def test_non_finite_prior_sample_size_is_a_config_error(self, scheme, m):
        # rejected as the config is made, not as a SupportError when a cell runs
        with pytest.raises(ConfigError, match="prior sample size"):
            SimConfig(d=2, n_values=(5,), reps=3, scheme=scheme, prior_sample_size=m)

    def test_row_sums(self):
        config = SimConfig(d=2, n_values=(4,), reps=40, seed=5)
        cells = [run_cell(config, t, 4) for t in TRUTH_ORDER]
        table = confusion_table(cells)
        for mat in table.matrices.values():
            np.testing.assert_array_equal(mat.counts.sum(axis=1), [40, 40, 40])
            assert mat.trace == np.trace(mat.counts)


def fake_cells(selections_by_label):
    """One CellDecisions per truth, from {truth: {label: selections}}."""
    cells = []
    reps = len(next(iter(selections_by_label["A"].values())))
    for truth in TRUTH_ORDER:
        cells.append(
            CellDecisions(
                truth=truth,
                n=5,
                beta_inverse=2.0,
                scheme="oracle",
                reps=reps,
                labels=tuple(selections_by_label[truth]),
                picks=np.array(
                    [[TRUTH_ORDER.index(p) if p else -1 for p in sel]
                     for sel in selections_by_label[truth].values()],
                    dtype=np.int8,
                ),
                failures=0,
            )
        )
    return cells


class TestConfusionTable:
    def test_identical_criteria_not_significant(self):
        same = ["A", "C", "C", "D"]
        cells = fake_cells(
            {t: {"evidence": list(same), "pcbic": list(same)} for t in TRUTH_ORDER}
        )
        table = confusion_table(cells)
        assert all(c.p_value == 1.0 for c in table.comparisons)

    def test_trace_is_diagonal_sum(self):
        cells = fake_cells(
            {
                "A": {"evidence": ["A", "A", "C", "D"]},
                "D": {"evidence": ["D", "C", "C", "D"]},
                "C": {"evidence": ["C", "C", "C", "C"]},
            }
        )
        table = confusion_table(cells)
        mat = table.matrices["evidence"]
        assert mat.trace == 2 + 2 + 4

    def test_incomplete_sweep_rejected(self):
        cells = fake_cells(
            {t: {"evidence": ["A"]} for t in TRUTH_ORDER}
        )[:2]
        with pytest.raises(ConfigError):
            confusion_table(cells)

    def test_cells_of_different_n_rejected(self):
        cells = fake_cells({t: {"evidence": ["A"]} for t in TRUTH_ORDER})
        cells[1] = CellDecisions(**{**vars(cells[1]), "n": 6})
        with pytest.raises(ConfigError, match="must share n, beta, scheme and reps"):
            confusion_table(cells)

    @pytest.mark.parametrize("labels", [("pcbic",), ("pcbic", "evidence"), ("evidence", "bic")])
    def test_cells_of_different_labels_rejected(self, labels):
        cells = fake_cells({t: {"evidence": ["A"], "pcbic": ["C"]} for t in TRUTH_ORDER})
        picks = np.zeros((len(labels), 1), dtype=np.int8)
        cells[2] = replace(cells[2], labels=labels, picks=picks)
        with pytest.raises(ConfigError, match="their labels"):
            confusion_table(cells)

    def test_comparison_json_fields(self):
        cells = fake_cells(
            {t: {"evidence": ["A", "D", "C", "C"], "pcbic": ["C", "C", "C", "C"]} for t in "ADC"}
        )
        comparison = confusion_table(cells).to_jsonable()["comparisons"][0]
        assert comparison == {
            "first": "evidence",
            "second": "pcbic",
            "scope": "A",
            "better": "evidence",
            "b": 1,
            "c": 0,
            "statistic": 0.0,
            "p_value": 1.0,
            "method": "exact",
            "significant": False,
        }

    def test_markdown_renders(self):
        cells = fake_cells(
            {t: {"evidence": ["C", "C", "D", "A"]} for t in TRUTH_ORDER}
        )
        text = render_confusion_markdown(confusion_table(cells))
        assert "evidence" in text and "| A |" in text


def confusion_loops(cells):
    """The per-replicate loops `confusion_table` ran before it counted with
    arrays, kept as its oracle: each label's 3x3 counts, and per pair of
    labels and scope the discordant counts (b, c) and the better label."""
    by_truth = {cell.truth: cell for cell in cells}
    labels = list(cells[0].labels)
    counts = {}
    for lab in labels:
        counts[lab] = np.zeros((3, 3), dtype=int)
        for i, truth in enumerate(TRUTH_ORDER):
            for choice in selections(by_truth[truth])[lab]:
                if choice is not None:
                    counts[lab][i, TRUTH_ORDER.index(choice)] += 1
    pairs = []
    for i, first in enumerate(labels):
        for second in labels[i + 1 :]:
            for scope in (*TRUTH_ORDER, "trace"):
                truths = TRUTH_ORDER if scope == "trace" else (scope,)
                b = c = 0
                for truth in truths:
                    cell = by_truth[truth]
                    for s1, s2 in zip(selections(cell)[first], selections(cell)[second]):
                        if s1 is None or s2 is None:
                            continue
                        ok1, ok2 = s1 == truth, s2 == truth
                        if ok1 and not ok2:
                            b += 1
                        elif ok2 and not ok1:
                            c += 1
                better = first if b > c else (second if c > b else None)
                pairs.append((first, second, scope, b, c, better))
    return counts, pairs


@st.composite
def sweeps(draw):
    """Selections of 1-3 labels for each truth of a sweep; None marks a
    replicate a label could not rank, so it can be None in one label only."""
    reps = draw(st.integers(1, 12))
    labels = draw(st.lists(st.sampled_from(["bic", "pcbic", "evidence"]), min_size=1, max_size=3, unique=True))
    pick = st.sampled_from(["A", "D", "C", None])
    return {
        truth: {lab: draw(st.lists(pick, min_size=reps, max_size=reps)) for lab in labels}
        for truth in TRUTH_ORDER
    }


class TestConfusionAgainstLoops:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(sweeps())
    def test_counts_and_discordances(self, selections):
        cells = fake_cells(selections)
        table = confusion_table(cells)
        counts, pairs = confusion_loops(cells)
        assert list(table.matrices) == list(counts)
        for lab, want in counts.items():
            np.testing.assert_array_equal(table.matrices[lab].counts, want)
        got = [(c.first, c.second, c.scope, c.test.b, c.test.c, c.better) for c in table.comparisons]
        assert got == pairs
        assert all(type(c.test.b) is int and type(c.test.c) is int for c in table.comparisons)


class TestStandInScatters:
    """`run_cell` scores a failed draw at a stand-in scatter and drops it in
    its one final mask: its picks and failure counts are those of the
    sub-stack oracle, which scores only the drawn replicates (see also
    `TestRunCell` and `TestUnbuildableHypers.test_no_replicate_drawn`)."""

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_failed_draws_and_moment_hypers(self, scheme):
        # beta = 4e307: some draws fail, and the moment rates of some drawn
        # scatters overflow (the empirical-Bayes and mclust schemes)
        config = SimConfig(
            d=3, beta_inverse=2.5e-308, n_values=(3,), reps=80, seed=3, scheme=scheme
        )
        for truth in TRUTH_ORDER:
            h = oracle_hyper(truth, 3, config.beta_inverse, config.prior_sample_size)
            _, errors = draw_scatters(h, 3, cell_rngs(config, truth, 3))
            cell = run_cell(config, truth, 3)
            assert errors
            assert_same_cell(cell, run_cell_substack(config, truth, 3))
            if scheme != "oracle":
                assert cell.failures > len(errors)


class TestBlockScoring:
    """`run_cell` scores each block of `_row_seeds` as it is drawn. With a
    few replicates per block, its cell must be that of the whole-stack
    oracle, wherever failed draws and failed moment hyperparameters fall
    (and where every draw fails: `TestUnbuildableHypers.test_no_replicate_drawn`)."""

    @staticmethod
    def block_errors(config, truth, n):
        h = oracle_hyper(truth, config.d, config.beta_inverse, config.prior_sample_size)
        blocks = montecarlo._row_seeds(config, n, (truth,))
        return [draw_scatters(h, n, montecarlo._seeded(seeds[0]))[1] for seeds in blocks]

    @pytest.mark.parametrize("scheme", ["oracle", "mclust-default"])  # the schemes admitting m <= 0
    def test_failed_draws_across_blocks(self, monkeypatch, scheme):
        # gamma shapes 1 + m / 2 = 0.005: some standard gamma draws underflow to 0
        monkeypatch.setattr(montecarlo, "_BLOCK_NORMALS", 50 * 5)
        monkeypatch.setattr(montecarlo, "_BLOCK_REPS", 50)
        config = SimConfig(d=1, prior_sample_size=-1.99, n_values=(5,), reps=3000, seed=0, scheme=scheme)
        for truth in TRUTH_ORDER:
            blocks = self.block_errors(config, truth, 5)
            assert len(blocks) == 60 and sum(1 for errors in blocks if errors) > 1
            assert_same_cell(run_cell(config, truth, 5), run_cell_substack(config, truth, 5))

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_failed_draws_and_moment_hypers_across_blocks(self, monkeypatch, scheme):
        monkeypatch.setattr(montecarlo, "_BLOCK_NORMALS", 7 * 3 * 3)
        monkeypatch.setattr(montecarlo, "_BLOCK_REPS", 7)
        config = SimConfig(
            d=3, beta_inverse=BETA_INV_FAILING, n_values=(3,), reps=80, seed=3, scheme=scheme
        )
        for truth in TRUTH_ORDER:
            blocks = self.block_errors(config, truth, 3)
            assert len(blocks) == 12 and sum(1 for errors in blocks if errors) > 1
            cell = run_cell(config, truth, 3)
            assert_same_cell(cell, run_cell_substack(config, truth, 3))
            if scheme != "oracle":
                assert cell.failures > sum(map(len, blocks))

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_no_fit_holds_more_than_a_block(self, monkeypatch, scheme):
        fitted = []

        def recorded(s, n, hypers):
            fitted.append(len(s))
            return fit_stack(s, n, hypers)

        monkeypatch.setattr(montecarlo, "fit_stack", recorded)
        monkeypatch.setattr(montecarlo, "_BLOCK_NORMALS", 7 * 6 * 3)
        monkeypatch.setattr(montecarlo, "_BLOCK_REPS", 7)
        config = SimConfig(d=3, n_values=(6,), reps=20, seed=2, scheme=scheme)
        cell = run_cell(config, "A", 6)
        schemes = len({hyper_scheme for hyper_scheme, _ in config.plan.values()})
        assert sorted(fitted) == sorted([7, 7, 6] * schemes)
        assert cell.picks.dtype == np.int8 and cell.picks.shape == (len(config.plan), 20)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_a_block_joins_chunks_of_a_large_n(self, monkeypatch, scheme):
        # two replicates' normals per chunk and 5 replicates per block: the
        # stack `fit_stack` scores is the block, not the chunk
        fitted = []

        def recorded(s, n, hypers):
            fitted.append(len(s))
            return fit_stack(s, n, hypers)

        monkeypatch.setattr(montecarlo, "fit_stack", recorded)
        monkeypatch.setattr(montecarlo, "_BLOCK_NORMALS", 2 * 6 * 3)
        monkeypatch.setattr(montecarlo, "_BLOCK_REPS", 5)
        config = SimConfig(
            d=3, beta_inverse=BETA_INV_FAILING, n_values=(6,), reps=20, seed=3, scheme=scheme
        )
        schemes = len({hyper_scheme for hyper_scheme, _ in config.plan.values()})
        for truth in TRUTH_ORDER:
            fitted.clear()
            cell = run_cell(config, truth, 6)
            assert fitted == [5] * 4 * schemes
            assert_same_cell(cell, run_cell_substack(config, truth, 6))


class TestRunRow:
    """`run_row` joins the truths' parts of each block of one n into one stack
    per scheme (and per oracle family). Each truth's cell must be its sub-stack oracle's
    and its own `run_cell`'s, byte for byte."""

    @staticmethod
    def check_row(config, n, truths=TRUTH_ORDER):
        cells = run_row(config, n, truths)
        assert [cell.truth for cell in cells] == list(truths)
        for cell in cells:
            assert_same_cell(cell, run_cell_substack(config, cell.truth, n))
            assert_same_cell(cell, run_cell(config, cell.truth, n))
        return cells

    @staticmethod
    def fitted(monkeypatch):
        sizes = []

        def recorded(s, n, hypers):
            sizes.append(len(s))
            return fit_stack(s, n, hypers)

        monkeypatch.setattr(montecarlo, "fit_stack", recorded)
        return sizes

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_cells_of_a_row(self, monkeypatch, scheme):
        sizes = self.fitted(monkeypatch)
        config = SimConfig(d=3, n_values=(5,), reps=40, seed=21, scheme=scheme)
        run_row(config, 5)
        schemes = len({hyper_scheme for hyper_scheme, _ in config.plan.values()})
        assert sizes == [3 * 40] * schemes  # one stack per scheme: the oracle's family is shared
        cells = self.check_row(config, 5)
        assert sum(cell.failures for cell in cells) == 0

    @pytest.mark.parametrize(
        "scheme, kwargs, n, failing",
        [(scheme, dict(d=3, beta_inverse=BETA_INV_FAILING, reps=12, seed=10), 3, "A") for scheme in SCHEMES]
        # gamma shapes 1 + m / 2 = 0.005, which the moment schemes but mclust's refuse
        + [
            (scheme, dict(d=1, prior_sample_size=-1.99, reps=40, seed=4), 5, "C")
            for scheme in ("oracle", "mclust-default")
        ],
    )
    def test_failed_draws_in_one_truth(self, scheme, kwargs, n, failing):
        config = SimConfig(n_values=(n,), scheme=scheme, **kwargs)
        drawn = {}
        for truth in TRUTH_ORDER:
            h = oracle_hyper(truth, config.d, config.beta_inverse, config.prior_sample_size)
            drawn[truth] = draw_scatters(h, n, cell_rngs(config, truth, n))[1]
        assert [truth for truth, errors in drawn.items() if errors] == [failing]
        for cell in self.check_row(config, n):
            assert cell.failures >= len(drawn[cell.truth])

    @pytest.mark.parametrize(
        "kwargs, n",
        [
            (dict(d=3, prior_sample_size=0.7), 4),
            (dict(d=20, beta_inverse=7.3), 25),
        ],
    )
    def test_split_oracle_families(self, monkeypatch, kwargs, n):
        # A's and D's matched families are equal bit for bit and C's differs
        # in a last bit: A and D share a stack and C gets its own
        config = SimConfig(n_values=(n,), reps=30, seed=8, **kwargs)
        families = [
            matched_family(oracle_hyper(truth, config.d, config.beta_inverse, config.prior_sample_size))
            for truth in TRUTH_ORDER
        ]
        bits = [[(h.alpha, np.asarray(h.rate).tobytes()) for h in family] for family in families]
        assert bits[0] == bits[1] != bits[2]
        sizes = self.fitted(monkeypatch)
        run_row(config, n)
        assert sizes == [2 * 30, 30]
        self.check_row(config, n)
        # apart, as A and C are in this order: A's stack is not one slice of the row
        sizes.clear()
        self.check_row(config, n, ("A", "C", "D"))
        assert sizes[:2] == [2 * 30, 30]

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_rows_across_blocks(self, monkeypatch, scheme):
        # the truths share a block: 21 // 3 = 7 replicates of each truth, one
        # stack of as many replicates as one cell's block
        sizes = self.fitted(monkeypatch)
        monkeypatch.setattr(montecarlo, "_BLOCK_NORMALS", 3 * 7 * 3 * 3)
        monkeypatch.setattr(montecarlo, "_BLOCK_REPS", 3 * 7)
        config = SimConfig(
            d=3, beta_inverse=BETA_INV_FAILING, n_values=(3,), reps=20, seed=3, scheme=scheme
        )
        run_row(config, 3)
        schemes = len({hyper_scheme for hyper_scheme, _ in config.plan.values()})
        assert sorted(sizes) == sorted([21, 21, 18] * schemes)
        self.check_row(config, 3)

    def test_a_row_takes_its_seeds_in_blocks(self, monkeypatch):
        # 5 000 replicates of three truths are 14 blocks of 1 024 // 3 = 341
        # replicates of each truth and one of 226, one seed pass each; every
        # stream is still its own
        passes = []
        seeds = montecarlo._pcg64_seeds

        def counted(rows):
            passes.append(len(rows))
            return seeds(rows)

        monkeypatch.setattr(montecarlo, "_pcg64_seeds", counted)
        config = SimConfig(d=2, beta_inverse=3.0, n_values=(6,), reps=5000, seed=12)
        states = [[] for _ in TRUTH_ORDER]
        for block in montecarlo._row_seeds(config, 6, TRUTH_ORDER):
            assert block.shape[0] == len(TRUTH_ORDER)
            for got, part in zip(states, block):
                got.extend(g.bit_generator.state for g in montecarlo._seeded(part))
        for truth, got in zip(TRUTH_ORDER, states):
            assert len(got) == config.reps
            for rep in (0, 340, 341, 4773, 4774, 4999):
                assert got[rep] == rep_rng(config, truth, 6, rep).bit_generator.state, (truth, rep)
        assert passes == [3 * 341] * 14 + [3 * 226]

    @pytest.mark.parametrize("scheme", ["oracle", "vs-mclust"])
    def test_no_stack_exceeds_a_block(self, monkeypatch, scheme):
        # at d = 5, n = 5 a chunk of normals holds 5 242 replicates, more
        # than a block: a row scores stacks of 3 * 341 and a cell of 1 024
        sizes = self.fitted(monkeypatch)
        config = SimConfig(d=5, n_values=(5,), reps=2000, seed=6, scheme=scheme)
        schemes = len({hyper_scheme for hyper_scheme, _ in config.plan.values()})
        run_row(config, 5)
        assert sorted(sizes) == sorted([1023] * 5 * schemes + [885] * schemes)
        sizes.clear()
        run_cell(config, "D", 5)
        assert sorted(sizes) == sorted([1024, 976] * schemes)
        self.check_row(config, 5)
        assert max(sizes) <= montecarlo._BLOCK_REPS

    def test_records(self, tmp_path):
        out = tmp_path / "sim.json"
        argv = ["simulate", "--table", "vs-mclust", "--d", "3", "--n", "3", "6", "--reps", "20"]
        argv += ["--beta-inv", str(BETA_INV_FAILING), "--seed", "3", "--records", "--json", str(out)]
        assert main(argv) == 0
        tables = json.loads(out.read_text())["tables"]
        config = SimConfig(
            d=3, beta_inverse=BETA_INV_FAILING, n_values=(3, 6), reps=20, seed=3, scheme="vs-mclust"
        )
        for table, n in zip(tables, config.n_values):
            want = {truth: selections(run_cell_substack(config, truth, n)) for truth in TRUTH_ORDER}
            assert table["records"] == want
            assert table["exclusions"] > 0

    def test_sim_oracle_counts(self, tmp_path, monkeypatch):
        # the benchmark's sim-oracle command: one kernel call per structure per
        # n, and one seed pass per n
        calls = []
        for module, name in ((structures, "fit_structure"), (montecarlo, "_pcg64_seeds")):
            original = getattr(module, name)

            def counted(*args, _original=original, _name=name, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        argv = ["simulate", "--table", "oracle", "--d", "5", "--beta-inv", "2", "--n", "5", "10"]
        argv += ["--reps", "100", "--seed", "1", "--json", str(tmp_path / "sim.json")]
        assert main(argv) == 0
        assert calls.count("fit_structure") == 6
        assert calls.count("_pcg64_seeds") == 2


class TestUnbuildableHypers:
    """Replicates whose empirical-Bayes or mclust hyperparameters cannot be
    built fail alone; every other replicate is ranked as a batch of one."""

    BAD = (2, 7, 11)

    @staticmethod
    def spoiled(s):
        s = s.copy()
        s[2] = 0.0  # scaling keeps these zeros exact, so Cholesky meets a zero pivot
        s[7, 0, :] = s[7, :, 0] = 0.0
        s[11, 1, :] = s[11, :, 1] = 0.0
        return s

    @pytest.mark.parametrize("scheme", ["empirical-bayes", "vs-mclust"])
    def test_failures_are_exactly_the_unbuildable_replicates(self, monkeypatch, scheme):
        config = SimConfig(
            d=3, n_values=(5,), reps=14, seed=4, scheme=scheme, prior_sample_size=1.7
        )
        draw = montecarlo.draw_scatters
        drawn = []

        def patched(h, n, rngs):
            s, errors = draw(h, n, rngs)
            assert errors == {}
            drawn.append(self.spoiled(s))
            return drawn[-1], errors

        monkeypatch.setattr(montecarlo, "draw_scatters", patched)
        cell = run_cell(config, "D", 5)
        assert cell.failures == len(self.BAD)
        for picks in selections(cell).values():
            assert [rep for rep, pick in enumerate(picks) if pick is None] == list(self.BAD)
        (s,) = drawn
        for rep in sorted(set(range(config.reps)) - set(self.BAD)):
            stats = SuffStats(n=5, d=3, s=s[rep])
            for label, (hyper_scheme, criterion) in config.plan.items():
                if hyper_scheme == "empirical-bayes":
                    triple = empirical_bayes(stats, config.prior_sample_size)
                else:
                    triple = mclust_default(stats)
                fits = fit_stack(s[rep : rep + 1], 5, triple)
                assert selections(cell)[label][rep] == best_structures(fits, criterion)[0]

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_no_replicate_drawn(self, monkeypatch, scheme):
        draw = montecarlo.draw_scatters

        def undrawn(h, n, rngs):
            s, _ = draw(h, n, rngs)
            return np.full_like(s, np.nan), {i: SupportError("undrawable") for i in range(len(s))}

        monkeypatch.setattr(montecarlo, "draw_scatters", undrawn)
        monkeypatch.setattr(montecarlo, "_BLOCK_NORMALS", 4 * 5 * 3)  # blocks of 4 and 2 replicates
        monkeypatch.setattr(montecarlo, "_BLOCK_REPS", 4)
        config = SimConfig(d=3, n_values=(5,), reps=6, seed=4, scheme=scheme)
        cell = run_cell(config, "A", 5)
        assert cell.failures == config.reps
        assert all(pick is None for picks in selections(cell).values() for pick in picks)
        # every scatter is a stand-in, scored and dropped: the sub-stack oracle scores none
        for truth in TRUTH_ORDER:
            assert_same_cell(run_cell(config, truth, 5), run_cell_substack(config, truth, 5))


@pytest.mark.slow
class TestSchemeBehavior:
    @pytest.mark.xfail(
        strict=False,
        reason="soft expectation from reported simulations; the exact evidence "
        "under the mclust regularization does select D a nontrivial fraction "
        "of the time at these settings (see notes in tests/test_acceptance.py "
        "on the simulation-table discrepancy)",
    )
    def test_mclust_rarely_selects_diagonal(self):
        # reported behavior of the mclust regularization at these settings;
        # a soft expectation only
        config = SimConfig(
            d=5, n_values=(10,), reps=200, seed=13, scheme="vs-mclust"
        )
        cell = run_cell(config, "D", 10)
        rate = np.mean([s == "D" for s in selections(cell)["mc-evidence"]])
        assert rate <= 0.01

    def test_vs_mclust_pairs_share_instances(self):
        # run the eb scheme alone with the same seed: its evidence decisions
        # must match the vs-mclust run's "evidence" label replicate by
        # replicate, because generation consumes the same draws
        base = SimConfig(d=5, n_values=(6,), reps=50, seed=17, scheme="vs-mclust")
        eb = SimConfig(
            d=5, n_values=(6,), reps=50, seed=17,
            scheme="empirical-bayes", criteria=("evidence",),
        )
        cell_both = run_cell(base, "A", 6)
        cell_eb = run_cell(eb, "A", 6)
        assert selections(cell_both)["evidence"] == selections(cell_eb)["evidence"]
