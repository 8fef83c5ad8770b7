"""Reference values the benchmark checks covsel's outputs against.

Everything here is written from the model's closed forms and shares no
code with the `covsel` package, so a later change that breaks a covsel
code path cannot also break its own reference. Only the simulation's
random streams are reproduced draw for draw, because the oracle table is
checked exactly.
"""

import math
from itertools import combinations

import numpy as np
from scipy.special import gammaln

LOG_PI = math.log(math.pi)
TRUTHS = ("A", "D", "C")  # row and column order of every confusion matrix
SIMPLEST_FIRST = ("C", "D", "A")  # tie order of structure selection
TIE_RTOL = 1e-9


def param_count(structure, d):
    return {"A": d * (d + 1) // 2, "D": d, "C": 1}[structure]


def log_mv_gamma(d, a):
    """log Gamma_d(a); `a` may be an array."""
    j = np.arange(1, d + 1)
    return d * (d - 1) / 4 * LOG_PI + gammaln(np.add.outer(a, (1 - j) / 2)).sum(axis=-1)


def _logdet_pd(m):
    """log-determinants of a stack of positive definite matrices."""
    return 2.0 * np.log(np.diagonal(np.linalg.cholesky(m), axis1=-2, axis2=-1)).sum(axis=-1)


# ---------------------------------------------------------------------------
# Oracle criterion-comparison table (`covsel simulate --table oracle`)
# ---------------------------------------------------------------------------


def oracle_family(d, beta_inverse, m=2.0):
    """(shape, rate) per structure at common prior sample size m.

    A: Wishart(alpha, beta I); D: gamma(alpha, beta) per axis; C: gamma(alpha, d beta).
    """
    beta = 1.0 / beta_inverse
    return {"A": ((m + d + 1) / 2, beta), "D": ((m + 2) / 2, beta), "C": ((m * d + 2) / 2, d * beta)}


def _draw_scatter(truth, d, n, family, rng):
    """One replicate: a half-precision H from the truth's prior (Bartlett
    for A, gamma otherwise), then n rows of N(0, (2H)^{-1}); returns x^T x."""
    alpha, rate = family[truth]
    if truth == "A":
        bart = np.zeros((d, d))
        for j in range(d):
            bart[j, j] = math.sqrt(rng.chisquare(2 * alpha - j))
            for i in range(j + 1, d):
                bart[i, j] = rng.standard_normal()
        h = bart @ bart.T / (2 * rate)
        z = rng.standard_normal((n, d))
        x = np.linalg.solve(np.linalg.cholesky(2 * h).T, z.T).T
    elif truth == "D":
        eta = rng.gamma(alpha, 1.0, size=d) / rate
        x = rng.standard_normal((n, d)) / np.sqrt(2 * eta)
    else:
        eta = rng.gamma(alpha, 1.0 / rate)
        x = rng.standard_normal((n, d)) / math.sqrt(2 * eta)
    return x.T @ x


def oracle_scores(s, n, family):
    """Log evidence, BIC and pcBIC of every structure for a stack of
    scatter matrices s (reps, d, d). Returns {criterion: (reps, 3)} with
    columns in SIMPLEST_FIRST order."""
    d = s.shape[-1]
    base = -n * d / 2 * LOG_PI
    log_n = math.log(n)
    s_diag = np.diagonal(s, axis1=1, axis2=2)
    s_tr = s_diag.sum(axis=1)
    out = {}

    a, b = family["A"]
    ap = a + n / 2
    bp = b * np.eye(d) + s
    ld_bp = _logdet_pd(bp)
    prior_norm = a * d * math.log(b) - log_mv_gamma(d, a)
    ev_a = base + prior_norm - (ap * ld_bp - log_mv_gamma(d, ap))
    mult = ap - (d + 1) / 2
    bp_inv = np.linalg.inv(bp)
    ld_h = d * math.log(mult) - ld_bp
    ll_a = n / 2 * ld_h + base - mult * np.einsum("rij,rji->r", bp_inv, s)
    lp_a = prior_norm + (a - (d + 1) / 2) * ld_h - b * mult * np.trace(bp_inv, axis1=1, axis2=2)
    out["A"] = (ev_a, ll_a, lp_a)

    a, b = family["D"]
    ap = a + n / 2
    bpv = b + s_diag
    prior_norm = d * (a * math.log(b) - gammaln(a))
    ev_d = base + prior_norm - (ap * np.log(bpv).sum(axis=1) - d * gammaln(ap))
    eta = (ap - 1) / bpv
    ll_d = n / 2 * np.log(eta).sum(axis=1) + base - (eta * s_diag).sum(axis=1)
    lp_d = prior_norm + (a - 1) * np.log(eta).sum(axis=1) - b * eta.sum(axis=1)
    out["D"] = (ev_d, ll_d, lp_d)

    a, b = family["C"]
    ap = a + n * d / 2
    bps = b + s_tr
    prior_norm = a * math.log(b) - gammaln(a)
    ev_c = base + prior_norm - (ap * np.log(bps) - gammaln(ap))
    eta = (ap - 1) / bps
    ll_c = n * d / 2 * np.log(eta) + base - eta * s_tr
    lp_c = prior_norm + (a - 1) * np.log(eta) - b * eta
    out["C"] = (ev_c, ll_c, lp_c)

    cols = {"evidence": [], "bic": [], "pcbic": []}
    for structure in SIMPLEST_FIRST:
        ev, ll, lp = out[structure]
        pen = param_count(structure, d) / 2 * log_n
        cols["evidence"].append(ev)
        cols["bic"].append(ll - pen)
        cols["pcbic"].append(ll + lp - pen)
    return {crit: np.stack(v, axis=1) for crit, v in cols.items()}


def select(values):
    """Index into SIMPLEST_FIRST of each row's choice: the simplest
    structure within relative TIE_RTOL of the row's best value."""
    vmax = values.max(axis=1, keepdims=True)
    tol = TIE_RTOL * np.maximum(1.0, np.abs(vmax))
    return np.argmax(values >= vmax - tol, axis=1)


def mcnemar(b, c):
    """Two-sided McNemar test: exact binomial below 25 discordant pairs,
    continuity-corrected chi-square (1 dof) otherwise."""
    total = b + c
    if total == 0:
        return 0.0, 1.0, "exact"
    stat = max(abs(b - c) - 1, 0) ** 2 / total
    if total < 25:
        tail = sum(math.comb(total, i) for i in range(min(b, c) + 1))
        return stat, min(1.0, 2.0 * tail / 2**total), "exact"
    return stat, min(max(math.erfc(math.sqrt(stat / 2)), 0.0), 1.0), "continuity-corrected"


def oracle_tables(seed, d, beta_inverse, n_values, reps, labels=("bic", "pcbic", "evidence")):
    """The tables of `simulate --table oracle`, one per n, as plain dicts.

    Replicate streams are SeedSequence((seed, truth index, n,
    round(beta_inverse * 1e6), rep)), so every replicate is reproduced
    independently of evaluation order.
    """
    family = oracle_family(d, beta_inverse)
    beta_key = int(round(beta_inverse * 1e6))
    tables = []
    for n in n_values:
        choices = {}  # truth -> {label: (reps,) array of structure names}
        for t_idx, truth in enumerate(TRUTHS):
            s = np.stack(
                [
                    _draw_scatter(
                        truth, d, n, family,
                        np.random.default_rng(np.random.SeedSequence((seed, t_idx, n, beta_key, rep))),
                    )
                    for rep in range(reps)
                ]
            )
            s = (s + np.swapaxes(s, 1, 2)) / 2
            scores = oracle_scores(s, n, family)
            choices[truth] = {lab: np.asarray(SIMPLEST_FIRST)[select(scores[lab])] for lab in labels}
        matrices = {}
        for lab in labels:
            counts = [[int(np.sum(choices[t][lab] == sel)) for sel in TRUTHS] for t in TRUTHS]
            matrices[lab] = {"counts": counts, "trace": sum(counts[i][i] for i in range(3))}
        comparisons = []
        for i, first in enumerate(labels):
            for second in labels[i + 1 :]:
                for scope in (*TRUTHS, "trace"):
                    b = c = 0
                    for truth in TRUTHS if scope == "trace" else (scope,):
                        ok1 = choices[truth][first] == truth
                        ok2 = choices[truth][second] == truth
                        b += int(np.sum(ok1 & ~ok2))
                        c += int(np.sum(ok2 & ~ok1))
                    stat, p, method = mcnemar(b, c)
                    comparisons.append(
                        {
                            "first": first, "second": second, "scope": scope,
                            "better": first if b > c else (second if c > b else None),
                            "b": b, "c": c, "statistic": stat, "p_value": p,
                            "method": method, "significant": p < 0.05,
                        }
                    )
        tables.append({"n": n, "reps": reps, "exclusions": 0, "matrices": matrices, "comparisons": comparisons})
    return tables


# ---------------------------------------------------------------------------
# Covariate-subset enumeration (`covsel regress --enumerate`)
# ---------------------------------------------------------------------------


def regression_subsets(y, x, names, alpha=2.0, beta=1.0):
    """Per nonempty covariate subset and structure: (log evidence, BIC, pcBIC).

    Prior: coefficients matrix-normal with mean 0 and column precision I
    given H; H ~ Wishart(alpha, beta I) (A), gamma(alpha, beta) per axis
    (D) or gamma(alpha, beta) (C). Computed from the Gram matrices of
    [X Y], so each subset costs O(p^3) regardless of n. Keys are tuples
    of sorted column names.
    """
    n, d1 = y.shape
    gxx, gxy, gyy = x.T @ x, x.T @ y, y.T @ y
    base = -n * d1 / 2 * LOG_PI
    log_n = math.log(n)
    norm = {
        "A": alpha * d1 * math.log(beta) - float(log_mv_gamma(d1, alpha)),
        "D": d1 * (alpha * math.log(beta) - gammaln(alpha)),
        "C": alpha * math.log(beta) - gammaln(alpha),
    }
    ref = {}
    for size in range(1, x.shape[1] + 1):
        for idx in combinations(range(x.shape[1]), size):
            p = len(idx)
            g = gxx[np.ix_(idx, idx)] + np.eye(p)
            xy = gxy[list(idx)]
            coef_t = np.linalg.solve(g, xy)  # gamma_hat^T, p x d1
            shrink = coef_t.T @ coef_t  # gamma_hat Lambda gamma_hat^T
            r = gyy - xy.T @ coef_t  # effective residual scatter
            r = (r + r.T) / 2
            q = r - shrink  # raw residual scatter at gamma_hat
            lam_factor = -d1 / 2 * float(_logdet_pd(g))
            coef_prior = -d1 * p / 2 * LOG_PI
            values = {}

            ap = alpha + n / 2
            bp = beta * np.eye(d1) + r
            ld_bp = float(_logdet_pd(bp))
            ev = lam_factor + base + norm["A"] - (ap * ld_bp - float(log_mv_gamma(d1, ap)))
            mult = ap + p / 2 - (d1 + 1) / 2
            h = mult * np.linalg.inv(bp)
            ld_h = d1 * math.log(mult) - ld_bp
            ll = n / 2 * ld_h + base - float(np.sum(h * q))
            lp = (
                coef_prior + p / 2 * ld_h - float(np.sum(h * shrink))
                + norm["A"] + (alpha - (d1 + 1) / 2) * ld_h - beta * float(np.trace(h))
            )
            values["A"] = (ev, ll, lp)

            bpv = beta + np.diag(r)
            ev = lam_factor + base + norm["D"] - (ap * float(np.log(bpv).sum()) - d1 * gammaln(ap))
            eta = (ap + p / 2 - 1) / bpv
            sum_log_eta = float(np.log(eta).sum())
            ll = n / 2 * sum_log_eta + base - float(eta @ np.diag(q))
            lp = (
                coef_prior + p / 2 * sum_log_eta - float(eta @ np.diag(shrink))
                + norm["D"] + (alpha - 1) * sum_log_eta - beta * float(eta.sum())
            )
            values["D"] = (ev, ll, lp)

            ap = alpha + n * d1 / 2
            bps = beta + float(np.trace(r))
            ev = lam_factor + base + norm["C"] - (ap * math.log(bps) - gammaln(ap))
            eta = (ap + d1 * p / 2 - 1) / bps
            ll = n * d1 / 2 * math.log(eta) + base - eta * float(np.trace(q))
            lp = (
                coef_prior + d1 * p / 2 * math.log(eta) - eta * float(np.trace(shrink))
                + norm["C"] + (alpha - 1) * math.log(eta) - beta * eta
            )
            values["C"] = (ev, ll, lp)

            key = tuple(sorted(names[i] for i in idx))
            ref[key] = {}
            for structure, (ev, ll, lp) in values.items():
                pen = (param_count(structure, d1) + d1 * p) / 2 * log_n
                ref[key][structure] = {"log_evidence": float(ev), "bic": ll - pen, "pc_bic": ll + lp - pen}
    return ref


# ---------------------------------------------------------------------------
# Divergence-rate targets (`covsel rates`)
# ---------------------------------------------------------------------------


def amgm_rate(sigma):
    """n-slope of log(E_A / E_C) when A is true with covariance sigma:
    (d/2) log((tr sigma / d) / |sigma|^(1/d))."""
    d = sigma.shape[0]
    return d / 2 * (math.log(np.trace(sigma) / d) - float(_logdet_pd(sigma)) / d)
