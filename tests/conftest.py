import math
from importlib import resources
from typing import Dict, List, Optional, Tuple

import numpy as np
import pytest
from scipy import integrate

import covsel.montecarlo as montecarlo
from covsel.data import SuffStats, load_csv
from covsel.errors import ConfigError
from covsel.priors import (
    GammaHyper,
    GammaVecHyper,
    Hyper,
    HyperTriple,
    WishartHyper,
    conjugate_update,
    matched_family,
    moment_hypers,
    sample_prior,
)
from covsel.asymptotics import (
    RateStudyResult,
    RateStudyRow,
    linear_rate_constant,
    log_rate_constant,
)
from covsel.montecarlo import TRUTH_ORDER, CellDecisions, oracle_hyper, scatters_from
from covsel.precision import as_array
from covsel.specialfn import LOG_PI
from covsel.structures import (
    _CRITERION_FIELD,
    _defined_evidence,
    SIMPLEST_FIRST,
    StackFit,
    criterion_matrix,
    fit_stack,
    param_count,
    simplest_best,
)


@pytest.fixture(scope="session")
def iris_setosa():
    """The bundled setosa rows of Anderson's iris data."""
    path = resources.files("covsel") / "datasets" / "iris_setosa.csv"
    return load_csv(str(path))


@pytest.fixture(scope="session")
def iris_regression(iris_setosa):
    """(responses, covariate pool, names) of the worked regression example:
    [sepal width, sepal length] on {intercept, petal width, petal length}."""
    y = iris_setosa.select(["sepal_width", "sepal_length"]).rows
    pw = iris_setosa.select(["petal_width"]).rows[:, 0]
    pl = iris_setosa.select(["petal_length"]).rows[:, 0]
    x = np.column_stack([np.ones(len(pw)), pw, pl])
    return y, x, ("Int", "PW", "PL")


def stack_hypers(triples):
    """One triple whose rates stack those of `triples` along a leading
    replicate axis, with the shapes of the first triple."""
    a, d, c = triples[0]
    return HyperTriple(
        WishartHyper(a.alpha, np.stack([t.a.rate for t in triples])),
        GammaVecHyper(d.alpha, np.stack([t.d.rate for t in triples])),
        GammaHyper(c.alpha, np.array([t.c.rate for t in triples]), c.dim),
    )


def best_structures(fits: Dict[str, StackFit], criterion: str) -> List[Optional[str]]:
    """Each replicate's selected structure under `criterion`; None where no
    structure could be fit or the criterion is undefined. The label oracle
    of `run_cell`, which keeps its picks as indices until it writes them."""
    picks = simplest_best(criterion_matrix(fits, criterion, len(fits["C"].valid)))
    return [SIMPLEST_FIRST[j] if j >= 0 else None for j in picks]


def run_cell_substack(config, truth: str, n: int) -> CellDecisions:
    """`montecarlo.run_cell` as it was before a failed draw was scored at a
    stand-in scatter, kept as its oracle: the drawn replicates are copied into
    a sub-stack, scored, and their picks and hyperparameter failures mapped
    back by index; a cell with no drawn replicate scores nothing. It draws
    through `montecarlo.draw_scatters`, so a test's patch of it applies."""
    gen = oracle_hyper(truth, config.d, config.beta_inverse, config.prior_sample_size)
    scatters, failed = montecarlo.draw_scatters(gen, n, montecarlo._cell_rngs(config, truth, n))
    drawn = np.flatnonzero([rep not in failed for rep in range(config.reps)])
    plan = config.plan
    schemes = {scheme for scheme, _ in plan.values()}
    picks = np.full((len(plan), config.reps), -1)
    if drawn.size:
        s, hypers = scatters[drawn], {}
        for scheme in schemes - {"oracle"}:
            hypers[scheme], errors = moment_hypers(scheme, s, n, config.prior_sample_size)
            failed.update((drawn[i], exc) for i, exc in errors.items())
        if "oracle" in schemes:
            hypers["oracle"] = matched_family(gen)
        fits = {scheme: fit_stack(s, n, hypers[scheme]) for scheme in schemes}
        for row, (scheme, crit) in zip(picks, plan.values()):
            row[drawn] = simplest_best(criterion_matrix(fits[scheme], crit, drawn.size))
    excluded = (picks < 0).any(axis=0)
    excluded[list(failed)] = True
    picks[:, excluded] = -1
    pick_labels = np.array([*SIMPLEST_FIRST, None], dtype=object)
    return CellDecisions(
        truth=truth, n=n, beta_inverse=config.beta_inverse, scheme=config.scheme, reps=config.reps,
        selected=dict(zip(plan, pick_labels[picks].tolist())), failures=int(excluded.sum()),
    )


def rep_rng(config, truth: str, n: int, rep: int) -> np.random.Generator:
    """The stream of one `simulate` replicate, seeded from its whole key tuple:
    the oracle of `montecarlo._cell_rngs`, which codes a cell's words once."""
    key = (config.seed, TRUTH_ORDER.index(truth), int(n), int(round(config.beta_inverse * 1e6)))
    return np.random.default_rng(np.random.SeedSequence((*key, rep)))


def sample_prior_loop(h: Hyper, size: int, rng: np.random.Generator) -> np.ndarray:
    """The column-by-column sampler that `priors.sample_prior` replaced, kept as
    its oracle. For A, a zero Bartlett factor gets, column by column, the
    square root of its chi-square and then the normals below its diagonal,
    each drawn for the whole stack, and the draw is F a a^T F^T for
    F = L^{-T}, 2B = L L^T. For D and C, standard gamma draws over the rate."""
    if h.structure != "A":
        x = rng.standard_gamma(h.alpha, size=(size, h.dim) if h.structure == "D" else size)
        return x / h.rate if h.structure == "D" else x * (1.0 / h.rate)
    d, nu = h.dim, 2 * h.alpha
    a = np.zeros((size, d, d))
    for j in range(d):
        a[:, j, j] = np.sqrt(rng.chisquare(nu - j, size=size))
        a[:, j + 1 :, j] = rng.standard_normal(size=(size, d - 1 - j))
    fa = np.linalg.inv(np.linalg.cholesky(2 * h.rate)).T @ a
    return fa @ fa.swapaxes(-1, -2)


def draw_scatters_loop(h: Hyper, n: int, rngs):
    """The per-replicate loop that `montecarlo.draw_scatters` replaced, kept as
    its oracle: a whole `sample_prior_loop(h, 1, rng)` per generator, then its
    n normal rows, and `scatters_from` on the stack of draws."""
    draws, w = [], np.empty((len(rngs), h.dim, h.dim))
    for i, rng in enumerate(rngs):
        draws.append(sample_prior_loop(h, 1, rng)[0])
        z = rng.standard_normal((n, h.dim))
        w[i] = z.T @ z
    return scatters_from(h.structure, np.array(draws), w)


def draw_per_n(h: Hyper, n: int, reps: int, seed: int, theta=None):
    """The per-n path that `asymptotics._draw` replaced, kept as its oracle:
    from the (seed, n) stream, the theta stack (or the fixed theta's array
    form), then W by a whole `sample_prior` of the standard Wishart hyper
    WishartHyper(n / 2, I / 2), and `scatters_from` factoring the thetas
    again on every call; (scatters, thetas), the lowest failure raised."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, n)))
    if theta is None:
        draws = sample_prior(h, reps, rng)
    else:
        draws = np.asarray(as_array(theta, h.structure))[None]
    w = sample_prior(WishartHyper(n / 2, np.eye(h.dim) / 2), reps, rng)
    s, errors = scatters_from(h.structure, draws, w)
    if errors:
        raise errors[min(errors)]
    return s, draws


def rate_study_per_n(config) -> RateStudyResult:
    """`asymptotics.rate_study` as it was before a study formed each theta's
    factor once: `draw_per_n` per n and, when the full structure is true, the
    target's (2 theta)^{-1} by a second `scatters_from` of the thetas on W = I,
    every n, a fixed theta's too."""
    full, nested = config.pair.split("-vs-")
    triple = matched_family(config.hyper)
    h_full, h_nested = (triple.for_structure(s) for s in (full, nested))
    nested_true = config.truth == nested
    means, rows, draw_rates = [], [], []
    for n in config.n_grid:
        s, draws = draw_per_n(config.hyper, n, config.reps, config.seed, config.fixed_theta)
        if not nested_true:
            v, _ = scatters_from(config.truth, draws, np.eye(config.hyper.dim))
            draw_rates.append(linear_rate_constant(config.pair, v))
        vals = _defined_evidence(h_full, s, n) - _defined_evidence(h_nested, s, n)
        scaled = vals / (np.log(n) if nested_true else float(n))
        se = float(scaled.std(ddof=1) / np.sqrt(config.reps)) if config.reps > 1 else 0.0
        rows.append(RateStudyRow(n=int(n), scaled_mean=float(scaled.mean()), se=se))
        means.append(float(vals.mean()))
    slope = None
    if len(config.n_grid) > 1:
        grid = np.asarray(config.n_grid, dtype=float)
        xreg = np.log(grid) if nested_true else grid
        xc = xreg - xreg.mean()
        slope = float(xc @ (np.asarray(means) - np.mean(means)) / (xc @ xc))
    if nested_true:
        target = log_rate_constant(config.pair, config.hyper.dim)
    else:
        target = float(np.concatenate(draw_rates).mean())
    regressor = "log_n" if nested_true else "n"
    return RateStudyResult(config.pair, config.truth, regressor, target, rows, slope)


def regression_pick(fit, criterion: str = "evidence") -> Tuple[Optional[str], float]:
    """The structure a covariate subset's RegressionFit selects under
    `criterion`, and its value; (None, NaN) where no structure has one. The
    pick oracle of `enumerate_covariates`' ranking, on `simplest_best`."""
    values = np.array(
        [[getattr(fit.reports[s], _CRITERION_FIELD[criterion]) for s in SIMPLEST_FIRST]],
        dtype=float,  # None, for an undefined value, becomes NaN
    )
    j = simplest_best(values)[0]
    return (SIMPLEST_FIRST[j], float(values[0, j])) if j >= 0 else (None, math.nan)


def theta_log_det(theta) -> float:
    """log|H| of a half-precision, from its matrix: the test oracle of the
    per-parameter functions, which share no code with covsel's evaluators."""
    return float(np.linalg.slogdet(theta.as_matrix())[1])


def theta_trace_product(theta, s) -> float:
    """tr(H s) for a half-precision and a d x d matrix s, from H's matrix."""
    return float(np.sum(theta.as_matrix() * s))


# ---------------------------------------------------------------------------
# Independent evidence oracles: adaptive quadrature of the likelihood times
# the prior for parameter dimension <= 2, and plain prior Monte Carlo for
# d <= 4. They validate the closed forms and share no code path with
# log_evidence.
# ---------------------------------------------------------------------------


def evidence_oracle(
    h: Hyper,
    stats: SuffStats,
    method: str = "quadrature",
    budget: int = 100_000,
    rng: Optional[np.random.Generator] = None,
) -> Tuple[float, float]:
    """Numerically estimate log evidence; returns (estimate, error_bound).

    `quadrature` integrates exp(log L + log prior) on a log-transformed
    grid (error bound from the integrator); `prior-mc` averages the
    likelihood over `budget` prior draws (error bound is one standard
    error of the log estimate).
    """
    if stats.n == 0:
        return 0.0, 0.0
    if method == "quadrature":
        return _evidence_quadrature(h, stats)
    if method == "prior-mc":
        if rng is None:
            raise ConfigError("prior-mc oracle needs an rng")
        if stats.d > 4:
            raise ConfigError("prior-mc oracle supports d <= 4")
        return _evidence_prior_mc(h, stats, budget, rng)
    raise ConfigError(f"unknown oracle method {method!r}")


def _evidence_quadrature(h: Hyper, stats: SuffStats) -> Tuple[float, float]:
    p = param_count(h.structure, h.dim)
    if p > 2:
        raise ConfigError(f"quadrature oracle supports parameter dimension <= 2, got {p}")
    n, d = stats.n, stats.d
    post = conjugate_update(h, stats)

    if p == 1:
        # structures A and D at d = 1 are gamma priors in disguise, with the
        # same (shape, rate, likelihood-exponent) ingredients as structure C
        a = h.alpha
        b, b_post = (float(np.ravel(prior.rate)[0]) for prior in (h, post))
        center = post.alpha / b_post
        lik = lambda eta: n * d / 2 * np.log(eta) - eta * stats.s_total

        def log_g(t):
            eta = np.exp(t)
            # + t from the Jacobian of eta = exp(t)
            return (
                lik(eta)
                + a * np.log(b)
                - math.lgamma(a)
                + (a - 1) * np.log(eta)
                - b * eta
                - n * d / 2 * LOG_PI
                + t
            )

        shift = log_g(np.log(center))
        val, err = integrate.quad(
            lambda t: np.exp(log_g(t) - shift), -60, 60, epsabs=1e-13, epsrel=1e-12, limit=400
        )
        return float(shift + np.log(val)), float(err / max(val, 1e-300))

    # p == 2: diagonal structure at d = 2
    assert isinstance(h, GammaVecHyper) and h.dim == 2
    a = h.alpha
    b1, b2 = map(float, h.rate)
    s1, s2 = map(float, stats.s_diag)
    c1 = float(post.alpha / post.rate[0])
    c2 = float(post.alpha / post.rate[1])

    def log_g(t1, t2):
        e1, e2 = np.exp(t1), np.exp(t2)
        return (
            n / 2 * (np.log(e1) + np.log(e2))
            - e1 * s1
            - e2 * s2
            - n * d / 2 * LOG_PI
            + a * (np.log(b1) + np.log(b2))
            - 2 * math.lgamma(a)
            + (a - 1) * (np.log(e1) + np.log(e2))
            - b1 * e1
            - b2 * e2
            + t1
            + t2
        )

    shift = log_g(np.log(c1), np.log(c2))
    val, err = integrate.dblquad(
        lambda t2, t1: np.exp(log_g(t1, t2) - shift),
        -40,
        40,
        -40,
        40,
        epsabs=1e-12,
        epsrel=1e-10,
    )
    return float(shift + np.log(val)), float(err / max(val, 1e-300))


def _evidence_prior_mc(
    h: Hyper, stats: SuffStats, budget: int, rng: np.random.Generator
) -> Tuple[float, float]:
    n, d = stats.n, stats.d
    base = -n * d / 2 * LOG_PI
    lls = np.empty(budget)
    chunk = 200_000
    done = 0
    while done < budget:
        m = min(chunk, budget - done)
        eta = sample_prior(h, m, rng)
        if isinstance(h, WishartHyper):
            sign, logdet = np.linalg.slogdet(eta)
            lls[done : done + m] = (
                n / 2 * logdet + base - np.einsum("nij,ij->n", eta, stats.s)
            )
        elif isinstance(h, GammaVecHyper):
            lls[done : done + m] = (
                n / 2 * np.log(eta).sum(axis=1) + base - eta @ stats.s_diag
            )
        else:
            lls[done : done + m] = n * d / 2 * np.log(eta) + base - eta * stats.s_total
        done += m
    top = lls.max()
    w = np.exp(lls - top)
    mean = w.mean()
    se = w.std(ddof=1) / np.sqrt(budget)
    return float(top + np.log(mean)), float(se / mean)
