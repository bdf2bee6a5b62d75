"""The shuffle sigma of S_n: moments of clusters drawn without replacement.

Reshuffling a setting pair's events and cutting the order into windows
of n draws the clusters without replacement from the pair's four
outcome categories.  `bootstrap_sn` gives the mean and sigma of S_n over
such orders in closed form, from each pair's four category counts.
"""

from __future__ import annotations

import math

import numpy as np

from .binning import BinningStrategy, chsh_value, sign_vector
from .errors import InsufficientDataError, InvalidArgumentError
from .pairstats import SETTING_PAIRS


def _binomial_rows(x: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """log C(x, k) and its slope d/dx = sum_{j<k} 1/(x - j), for k = 0..n.

    x >= 0 may be real.  log C(x, k) is -inf where x - k + 1 <= 0, where a
    category of x events holds no k of them; the slope there is finite
    and never weighted.  Summing log((x - j) / (j + 1)) keeps the rows
    exact for the large x of an event file, where log-gamma values of
    order x log(x) would cancel.
    """
    j = np.arange(n, dtype=float)
    rest = x[..., None] - j
    with np.errstate(divide="ignore"):
        terms = np.stack([
            np.log(np.maximum(rest, 0.0)) - np.log1p(j),
            np.divide(1.0, rest, out=np.zeros_like(rest), where=rest > 0.0)])
    rows = np.zeros(terms.shape[:-1] + (n + 1,))
    np.cumsum(terms, axis=-1, out=rows[..., 1:])
    return rows[0], rows[1]


def _cluster_moments(population: np.ndarray, n: int, sign: np.ndarray,
                     rows: np.ndarray):
    """Moments of one cluster of n events drawn without replacement.

    `population` holds each setting pair's category sizes N_c, c = 2a + b
    for the logical bits (a, b), shape (pairs, 4), and may be real.  A
    cluster's composition k has weight prod_c C(N_c, k_c), normalized
    over all compositions, and X = sign[k_A] sign[k_B].  `rows[p, c, k]`
    is a function t_c of k_c.  Returns E[X], E[X t_c(k_c)] and
    E[t_c(k_c)], the last two of shape (pairs, 4).

    Alice's count a splits into k11 = k and k10 = a - k, her n - a zeros
    into k01 = k and k00 = n - a - k.  Given a, the weight is a product
    u[a, k11] v[a, k01], so summing X over the compositions is one
    (n+1)^2 matrix product with H[i, j] = sign[i + j] per pair: O(n^3)
    time, O(n^2) memory.
    """
    a, k = np.indices((n + 1, n + 1))
    count = (n - a - k, k, a - k, k)
    valid = (k <= n - a, k <= n - a, k <= a, k <= a)

    def by_a(values, c, fill):
        """values[:, c, k_c] on the (a, k) grid, `fill` off the grid."""
        return np.where(valid[c],
                        values[:, c][:, np.where(valid[c], count[c], 0)], fill)

    logs = _binomial_rows(population, n)[0]
    log_u = by_a(logs, 3, -np.inf) + by_a(logs, 2, -np.inf)
    log_v = by_a(logs, 1, -np.inf) + by_a(logs, 0, -np.inf)
    # scale each a's row to a maximum of 1 and carry the row maxima in u;
    # a row with no composition has maximum -inf and weight 0
    top_u, top_v = log_u.max(axis=-1), log_v.max(axis=-1)
    top = top_u + top_v
    row_scale = np.exp(top - top.max(axis=-1, keepdims=True))
    u = np.exp(log_u - np.where(np.isfinite(top_u), top_u, 0.0)[..., None])
    u *= row_scale[..., None]
    v = np.exp(log_v - np.where(np.isfinite(top_v), top_v, 0.0)[..., None])
    hankel = sign[np.minimum(a + k, n)]

    def expect(left, right):
        """Weighted sums of X l and of l over the compositions, for
        left = u l(a, k11) and right = v r(a, k01)."""
        weight = left.sum(axis=-1) * right.sum(axis=-1)
        x_sum = ((left @ hankel) * right).sum(axis=-1) @ sign
        return x_sum, weight.sum(axis=-1)

    x_mean, total = expect(u, v)
    x_t, t = np.empty((2, len(population), 4))
    for c in range(4):
        factor = by_a(rows, c, 0.0)
        x_t[:, c], t[:, c] = (expect(u * factor, v) if c >= 2
                              else expect(u, v * factor))
    return x_mean / total, x_t / total[:, None], t / total[:, None]


def bootstrap_sn(sequences: dict, n_values, strategy: BinningStrategy
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Mean and sigma of S_n over shuffled event orders, in closed form.

    Both arrays follow `n_values`.  They are the limit, as resamples
    grow, of a shuffle-recluster bootstrap: permute each setting pair's
    events, cluster the order into m = N // n windows and recompute S_n.
    Nothing is drawn, and each n is computed on its own.

    For one setting pair the m clusters are drawn without replacement,
    so the correlator estimate E has
    Var(E) = Var(X)/m + (1 - 1/m) Cov(X1, X2) (W. G. Cochran, Sampling
    Techniques, 1977), with X = sA sB of one cluster.  A randomized
    majority tie has sign 0, as in `estimate_sn`, so E[X^2] is the
    probability that neither side of a cluster ties; without a tie sign
    it is exactly 1.  Given the first cluster's composition k1, the
    second is drawn from N - k1, so
    Cov(X1, X2) = Cov(X1, g(N - k1)) with g(N) = E[X]; to first order
    (the Hajek projection, W. Hoeffding, Ann. Math. Statist. 19, 1948)
    it is -sum_c Cov(X, k_c) dg/dN_c, the derivative taken at
    N_c (1 - n/N).  Against the exact sum over k1 this is within 0.4% at
    N = 200 events per pair and n <= 5.  A pair with one cluster (m = 1)
    has no second one, so sigma^2 there is Var(X).  The setting pairs are
    independent, so their variances add.  At n = 1 every event is used,
    every order gives the same estimate and sigma is exactly 0.

    Costs O(n^3) time and O(n^2) memory per n.  Raises
    InsufficientDataError when a setting pair has fewer than n events.
    """
    population = np.array([np.bincount((a << np.uint8(1)) | b, minlength=4)
                           for a, b in (sequences[key]
                                        for key in SETTING_PAIRS)],
                          dtype=float)
    events = population.sum(axis=1)
    n_values = [int(n) for n in n_values]
    means = np.empty(len(n_values))
    sigmas = np.empty(len(n_values))
    for j, n in enumerate(n_values):
        if n < 1:
            raise InvalidArgumentError(
                f"cluster size must be >= 1, got {n!r}")
        for key, size in zip(SETTING_PAIRS, events):
            if size < n:
                raise InsufficientDataError(
                    f"no clusters for setting pair {key} (n={n})")
        m = events // n
        sign = sign_vector(n, strategy)
        counts = np.broadcast_to(np.arange(n + 1.0), population.shape
                                 + (n + 1,))
        g, x_k, k_mean = _cluster_moments(population, n, sign, counts)
        x_sq = 1.0 if sign.all() else _cluster_moments(
            population, n, sign * sign, counts)[0]
        # with one cluster the covariance has weight 0, and the rest of
        # the population holds fewer than n events to take it over
        multi = m > 1
        cov_12 = np.zeros(len(m))
        if multi.any():
            cov_x_k = (x_k - g[:, None] * k_mean)[multi]
            rest = population[multi] * (1.0 - n / events[multi])[:, None]
            g_rest, x_slope, slope = _cluster_moments(
                rest, n, sign, _binomial_rows(rest, n)[1])
            dg = x_slope - g_rest[:, None] * slope
            cov_12[multi] = -(cov_x_k * dg).sum(axis=1)
        var = (x_sq - g * g) / m + (1.0 - 1.0 / m) * cov_12
        means[j] = chsh_value(g).s
        # at n = 1 the two terms cancel exactly, but not in floating point
        sigmas[j] = 0.0 if n == 1 else math.sqrt(max(float(var.sum()), 0.0))
    return means, sigmas
