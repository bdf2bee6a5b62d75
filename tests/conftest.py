"""Shared fixtures and independent oracles for the test suite."""

from __future__ import annotations

import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest

from manypairs.analyze import (ClusteredOutcomes, _running_totals, _windows,
                               estimate_sn)
from manypairs.binning import Majority, Parity, sign_vector
from manypairs.errors import IngestionError, NoViolationError
from manypairs.eventfile import (_CSV_CELL, _is_json_int, _no_constant,
                                 _stream_header, _stream_meta)
from manypairs.optimize import (_response_derivatives, _response_weights,
                                binned_correlator_from_e, family_chsh,
                                max_chsh)
from manypairs.pairstats import (SETTING_PAIRS, CorrelatorTable,
                                 MeasurementSettings, joint_table,
                                 settings_from_beta, werner_correlators)
from manypairs.simulate import (CSV_COLUMNS, CSV_STREAM_PREFIX,
                                PERFECT_DETECTORS, EventStream, _header,
                                variant_inversions)


def random_feasible_table(rng: np.random.Generator,
                          with_marginals: bool = True) -> CorrelatorTable:
    """Sample a correlator table guaranteed to yield valid probabilities.

    For marginals mA, mB the correlator of a setting pair is feasible iff
    -1 + |mA + mB| <= e <= 1 - |mA - mB|.
    """
    if with_marginals:
        ma1, ma2, mb1, mb2 = rng.uniform(-0.3, 0.3, size=4)
    else:
        ma1 = ma2 = mb1 = mb2 = 0.0
    es = {}
    for (x, y) in SETTING_PAIRS:
        ma = ma1 if x == 1 else ma2
        mb = mb1 if y == 1 else mb2
        lo = -1.0 + abs(ma + mb)
        hi = 1.0 - abs(ma - mb)
        es[(x, y)] = rng.uniform(lo, hi)
    return CorrelatorTable(e11=es[(1, 1)], e12=es[(1, 2)], e21=es[(2, 1)],
                           e22=es[(2, 2)], marg_a1=ma1, marg_a2=ma2,
                           marg_b1=mb1, marg_b2=mb2)


def brute_force_counts(pair: np.ndarray, n: int) -> dict:
    """Count distribution by enumerating all 4^n outcome strings, from
    the (4, 2, 2) joint of `joint_table`."""
    out = {}
    for p, (x, y) in zip(pair, SETTING_PAIRS):
        mat = np.zeros((n + 1, n + 1))
        for outcomes in itertools.product(range(4), repeat=n):
            prob = 1.0
            a_total = 0
            b_total = 0
            for o in outcomes:
                a, b = divmod(o, 2)
                prob *= p[a, b]
                a_total += a
                b_total += b
            mat[a_total, b_total] += prob
        out[(x, y)] = mat
    return out


def convolve_counts(pair: np.ndarray, n: int) -> dict:
    """Count distribution by n-fold convolution of each 2x2 joint of the
    (4, 2, 2) array of `joint_table`.

    Entry [a, b] of each (n+1, n+1) matrix is Prob(count_A = a,
    count_B = b); each step adds one pair as four shifted copies.
    """
    out = {}
    for p2, (x, y) in zip(pair, SETTING_PAIRS):
        cur = p2.astype(float)
        for k in range(1, n):
            nxt = np.zeros((k + 2, k + 2))
            nxt[:-1, :-1] += p2[0, 0] * cur
            nxt[:-1, 1:] += p2[0, 1] * cur
            nxt[1:, :-1] += p2[1, 0] * cur
            nxt[1:, 1:] += p2[1, 1] * cur
            cur = nxt
        out[(x, y)] = cur
    return out


def counts_correlators(counts: dict, n: int, strategy) -> list:
    """Binned correlators <sign_A sign_B>, in SETTING_PAIRS order, of the
    count matrices of `convolve_counts` or `brute_force_counts`."""
    s = sign_vector(n, strategy)
    return [float(s @ counts[(x, y)] @ s) for (x, y) in SETTING_PAIRS]


def direct_binned_correlator(e, n: int, strategy) -> np.ndarray:
    """The response polynomial at e from its full power table: every
    level k of the binning as its own power |e|^k."""
    levels, weights = _response_weights(n, strategy)
    e = np.asarray(e, dtype=float)
    r = np.power.outer(np.abs(e), levels) @ weights
    return r[..., 0] + np.copysign(r[..., 1], e)


def brent_family_maximum(n: int, visibility: float, strategy) -> float:
    """Maximum of the one-angle family CHSH value by scipy's bounded Brent
    search (xatol 1e-12) inside the bracket of max_chsh's 256-point
    grid, the grid point winning if higher."""
    from scipy import optimize as sciopt

    grid = np.linspace(math.pi / 512.0, math.pi / 2.0, 256)
    vals = family_chsh(grid, visibility, n, strategy)
    i = int(np.argmax(vals))
    lo = grid[i - 1] if i > 0 else grid[0] / 2.0
    hi = grid[i + 1] if i + 1 < len(grid) else grid[-1]
    refined = sciopt.minimize_scalar(
        lambda b: -family_chsh(b, visibility, n, strategy), bounds=(lo, hi),
        method="bounded", options={"xatol": 1e-12})
    return max(float(-refined.fun), float(vals[i]))


def planar_starts(beta: float) -> list:
    """Planar angles of the family settings at beta, then 8 seeded
    perturbations of them (sigma 0.3 rad)."""
    rng = np.random.default_rng(20240817)
    seed_angles = np.array(settings_from_beta(beta).as_tuple()[1:])
    return [seed_angles] + [seed_angles + rng.normal(scale=0.3, size=3)
                            for _ in range(8)]


#: Sign of each setting pair's correlator in S, in SETTING_PAIRS order.
CHSH_SIGNS = np.array([1.0, 1.0, 1.0, -1.0])


def planar_chsh(theta, visibility: float, n: int, strategy) -> float:
    """S at the planar settings (0, theta_a2, theta_b1, theta_b2), from
    the Werner correlators of the four angles."""
    table = werner_correlators(MeasurementSettings(0.0, *theta), visibility)
    es = np.array([table.correlator(x, y) for (x, y) in SETTING_PAIRS])
    return float(CHSH_SIGNS @ binned_correlator_from_e(es, n, strategy))


def planar_chsh_gradient(theta, visibility: float, n: int,
                         strategy) -> np.ndarray:
    """Gradient of `planar_chsh` in theta by the chain rule: the
    correlator of (x, y) is V cos(alpha_x - beta_y), and f' comes from
    the response polynomial."""
    settings = MeasurementSettings(0.0, *theta)
    d = np.array([settings.alice(x) - settings.bob(y)
                  for (x, y) in SETTING_PAIRS])
    slopes = CHSH_SIGNS * _response_derivatives(visibility * np.cos(d), n,
                                                strategy)[1]
    grad = np.zeros(3)
    for d_alpha, (x, y) in zip(-visibility * np.sin(d) * slopes,
                               SETTING_PAIRS):  # dS/dalpha_x = -dS/dbeta_y
        if x == 2:
            grad[0] += d_alpha
        grad[y] -= d_alpha  # theta holds beta_1 and beta_2 at 1 and 2
    return grad


def planar_hessian(beta: float, visibility: float, n: int,
                   strategy) -> np.ndarray:
    """Hessian of S in the planar angles (theta_a2, theta_b1, theta_b2),
    with theta_a1 = 0, at the family settings theta = beta (2, 1, -1),
    where the four correlator angles are beta, -beta, beta and 3 beta:
    `hessian_of_terms` of a = V (V sin^2(beta) f''(e1) - cos(beta)
    f'(e1)) and b = -V (V sin^2(3 beta) f''(e3) - cos(3 beta) f'(e3)),
    with e1 = V cos(beta) and e3 = V cos(3 beta)."""
    v = visibility
    c1, s1 = math.cos(beta), math.sin(beta)
    c3, s3 = math.cos(3.0 * beta), math.sin(3.0 * beta)
    _, (g1, g3), (h1, h3) = _response_derivatives(
        np.array([v * c1, v * c3]), n, strategy).tolist()
    return hessian_of_terms(v * (v * s1 * s1 * h1 - c1 * g1),
                            -v * (v * s3 * s3 * h3 - c3 * g3))


def hessian_of_terms(a: float, b: float) -> np.ndarray:
    """The planar Hessian [[a+b, -a, -b], [-a, 2a, 0], [-b, 0, a+b]]."""
    return np.array([[a + b, -a, -b], [-a, 2.0 * a, 0.0], [-b, 0.0, a + b]])


def bfgs_full_planar_maximum(n: int, visibility: float, strategy) -> float:
    """Maximum of S over all planar settings by scipy's BFGS (gtol 1e-8) on
    `planar_chsh` and its gradient, from the 9 `planar_starts` around the
    family optimum; the family maximum wins if higher."""
    from scipy import optimize as sciopt

    def neg(theta):
        return (-planar_chsh(theta, visibility, n, strategy),
                -planar_chsh_gradient(theta, visibility, n, strategy))

    family = max_chsh(n, visibility, strategy)
    best = family.s_max
    for start in planar_starts(family.beta):
        res = sciopt.minimize(neg, start, jac=True, method="BFGS",
                              options={"gtol": 1e-8})
        best = max(best, float(-res.fun))
    return best


def critical_visibility_bisect(n: int, strategy,
                               width: float = 1e-5) -> float:
    """Bisection on V of the predicate max_chsh(..).s_max > 2."""
    top = max_chsh(n, 1.0, strategy)
    if top.s_max <= 2.0:
        raise NoViolationError(
            f"no violation at V=1 for n={n}, {strategy!r}", top.s_max)
    lo, hi = 0.5, 1.0
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        if max_chsh(n, mid, strategy).s_max > 2.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _crossover_bracket(v_values, n_values):
    """The parity advantage as a function of V, and the first pair of grid
    visibilities where it turns positive (None without one).

    The advantage at V is the largest parity-minus-majority CHSH maximum
    over the odd n >= 3 of the grid (every n >= 2 when there is none).
    """
    odd = [n for n in n_values if n % 2 == 1 and n >= 3]
    n_grid = odd if odd else [n for n in n_values if n >= 2]

    def advantage(v):
        return max((max_chsh(n, v, Parity()).s_max
                    - max_chsh(n, v, Majority()).s_max
                    for n in n_grid), default=-math.inf)

    v_values = [float(v) for v in v_values]
    advantages = [advantage(v) for v in v_values]
    for (lo, adv_lo), (hi, adv_hi) in zip(zip(v_values, advantages),
                                          zip(v_values[1:], advantages[1:])):
        if adv_lo <= 0.0 < adv_hi:
            return advantage, (lo, hi)
    return advantage, None


def crossover_bisect(v_values, n_values, crossover_tol: float = 1e-4):
    """Majority/parity crossover V* by bisection, or None without a bracket.

    V* is the midpoint of the final bracket of the predicate
    advantage > 0, bisected from the first grid pair where it turns true.
    """
    advantage, bracket = _crossover_bracket(v_values, n_values)
    if bracket is None:
        return None
    lo, hi = bracket
    while hi - lo > crossover_tol:
        mid = 0.5 * (lo + hi)
        if advantage(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def brentq_crossover(v_values, n_values):
    """Majority/parity crossover V* as scipy's brentq root (xtol 1e-12) of
    the parity advantage in the first bracketing grid pair, or None
    without a bracket."""
    from scipy import optimize as sciopt

    advantage, bracket = _crossover_bracket(v_values, n_values)
    if bracket is None:
        return None
    return sciopt.brentq(advantage, *bracket, xtol=1e-12)


def parity_moment(total: int, discordant: int, k: int) -> float:
    """E[(-1)^d] for d ~ Hyp(total, discordant, k): the mean parity sign
    of k events drawn without replacement from `total`, `discordant` of
    them with a != b."""
    from scipy.stats import hypergeom

    d = np.arange(max(0, k - (total - discordant)), min(k, discordant) + 1)
    return float(np.sum((-1.0) ** d * hypergeom.pmf(d, total, discordant, k)))


def _parity_moments(sequences: dict, k: int) -> dict:
    return {key: parity_moment(len(a), int(np.count_nonzero(a != b)), k)
            for key, (a, b) in sequences.items()}


def category_counts(sequences: dict) -> np.ndarray:
    """Each setting pair's four category counts, c = 2a + b, a row per
    pair in SETTING_PAIRS order, by `bincount` of its whole sequence."""
    return np.array([np.bincount((a << np.uint8(1)) | b, minlength=4)
                     for a, b in (sequences[key] for key in SETTING_PAIRS)])


def shuffle_parity_mean(sequences: dict, n: int) -> float:
    """Expectation of the parity S_n over reshuffled orders: each cluster
    of a pair has mean sign E_n, so S = E_n(11) + E_n(12) + E_n(21) -
    E_n(22)."""
    e = _parity_moments(sequences, n)
    return e[(1, 1)] + e[(1, 2)] + e[(2, 1)] - e[(2, 2)]


def finite_population_parity_sigma(sequences: dict, n: int) -> float:
    """Limit of the shuffle bootstrap's parity sigma as resamples grow.

    Reshuffling and clustering draws clusters without replacement.  A
    parity cluster's sign is (-1)^d, with d the cluster's discordant
    events, so for a pair with N events, D of them discordant, and m
    clusters, Var(E) = (1 - E_n^2)/m + (1 - 1/m)(E_2n - E_n^2), where
    E_k = E[(-1)^Hyp(N, D, k)].  The setting pairs are independent, so
    their variances add.
    """
    e_n, e_2n = _parity_moments(sequences, n), _parity_moments(sequences,
                                                               2 * n)
    var = 0.0
    for key, (a, _) in sequences.items():
        m = len(a) // n
        var += ((1.0 - e_n[key] ** 2) / m
                + (1.0 - 1.0 / m) * (e_2n[key] - e_n[key] ** 2))
    return math.sqrt(max(var, 0.0))


def monte_carlo_bootstrap_sn(sequences: dict, n_values, strategy,
                             resamples: int, seed) -> tuple:
    """Shuffle-recluster bootstrap of S_n: (sample means, sample stds).

    Both arrays follow `n_values`.  Each resample permutes every setting
    pair's event order once and re-clusters that order at every n from
    one running total per pair (`_running_totals`, `_windows`).  The
    generator is seeded from `seed` and draws only permutations.
    """
    n_values = [int(n) for n in n_values]
    shuffle_rng = np.random.default_rng(np.random.SeedSequence(seed))
    # pack each pair's (a, b) bits into one code array so a resample is a
    # single shuffle instead of an index permutation plus two gathers
    packed = {key: (sequences[key][0] | (sequences[key][1] << np.uint8(1)))
              for key in SETTING_PAIRS}
    values = np.empty((len(n_values), resamples))
    totals = {}
    for i in range(resamples):
        for key in SETTING_PAIRS:
            codes = shuffle_rng.permuted(packed[key])
            totals[key] = _running_totals((codes & np.uint8(1),
                                           codes >> np.uint8(1)))
        for j, n in enumerate(n_values):
            clustered = {key: ClusteredOutcomes(n, *_windows(t, n),
                                                (t.shape[1] - 1) % n)
                         for key, t in totals.items()}
            values[j, i] = estimate_sn(clustered, strategy).s
    return values.mean(axis=1), values.std(axis=1, ddof=1)


def coin_estimate_sn(clustered: dict, strategy,
                     rng: np.random.Generator) -> float:
    """S_n with each randomized majority tie drawn as a fair +-1 coin.

    The estimator `estimate_sn` replaced by the coin's expectation, sign
    0; kept to show that the expectation has the lower variance.
    """
    es = []
    for key in SETTING_PAIRS:
        c = clustered[key]
        signs = []
        for counts in (c.a_counts, c.b_counts):
            s = sign_vector(c.n, strategy)[counts]
            ties = s == 0.0
            s[ties] = rng.choice([-1.0, 1.0], size=int(ties.sum()))
            signs.append(s)
        es.append(float(np.mean(signs[0] * signs[1])))
    return es[0] + es[1] + es[2] - es[3]


def mean_correlator(clustered: ClusteredOutcomes, strategy) -> float:
    """One setting pair's correlator as the mean of float64 sign products."""
    sign = sign_vector(clustered.n, strategy)
    return float(np.mean(sign[clustered.a_counts] * sign[clustered.b_counts]))


def choice_generate_run(table: CorrelatorTable, setting_pair, n_events: int,
                        detector=PERFECT_DETECTORS, seed: int = 0,
                        basis_variant: int = 0, discard_prob: float = 0.0,
                        extra_meta: dict | None = None) -> EventStream:
    """`generate_run` drawing each category with `Generator.choice`.

    The outcomes are `rng.choice(4, p=...)`, and the thinning takes each
    event's efficiencies by `np.where` on its physical bits.
    """
    x, y = setting_pair
    index = SETTING_PAIRS.index((x, y))
    p = joint_table(table)[index]
    flat = np.array([p[0, 0], p[0, 1], p[1, 0], p[1, 1]])
    flat = flat / flat.sum()

    rng = np.random.default_rng((basis_variant, index, seed))
    cat = rng.choice(4, size=n_events, p=flat)
    a_logical = (cat >> 1).astype(np.uint8)
    b_logical = (cat & 1).astype(np.uint8)
    inv_a, inv_b = variant_inversions(basis_variant)
    a_phys = a_logical ^ np.uint8(inv_a)
    b_phys = b_logical ^ np.uint8(inv_b)

    keep = np.ones(n_events, dtype=bool)
    if not detector.trivial:
        eta_a = np.where(a_phys == 0, detector.eta_t_a, detector.eta_r_a)
        eta_b = np.where(b_phys == 0, detector.eta_t_b, detector.eta_r_b)
        keep = rng.random(n_events) < eta_a * eta_b
    if discard_prob > 0.0:
        keep &= rng.random(n_events) >= discard_prob

    meta = {
        "settingPair": [x, y],
        "basisVariant": basis_variant,
        "seed": int(seed),
        "eventsRequested": int(n_events),
        "table": table.to_json_dict(),
        "detector": {"etaT_A": detector.eta_t_a, "etaR_A": detector.eta_r_a,
                     "etaT_B": detector.eta_t_b, "etaR_B": detector.eta_r_b},
        "discardProb": discard_prob,
    }
    if extra_meta:
        meta.update(extra_meta)
    return EventStream(setting_pair=(x, y), basis_variant=basis_variant,
                       a=a_phys[keep], b=b_phys[keep], meta=meta)


def _compositions(n: int):
    """Every (k00, k01, k10, k11) of non-negative counts summing to n."""
    for k00 in range(n + 1):
        for k01 in range(n + 1 - k00):
            for k10 in range(n + 1 - k00 - k01):
                yield k00, k01, k10, n - k00 - k01 - k10


def exact_shuffle_sigma(sequences: dict, n: int, strategy) -> float:
    """Limit of the shuffle bootstrap's sigma for any binning, by exact sums.

    For a pair with category sizes N_c (c = 2a + b) and m = N // n
    clusters, Var(E) = Var(X)/m + (1 - 1/m)(E[X1 X2] - g(N)^2),
    where g(N) = E[X] under the multivariate hypergeometric and
    E[X1 X2] = sum over the first cluster's composition k1 of
    P(k1) X(k1) g(N - k1).  A randomized tie has sign 0, so E[X^2] is
    the probability that neither side ties, and Var(X) = E[X^2] - g^2.
    O(n^6) per pair.
    """
    sign = sign_vector(n, strategy)

    def prob(population, k):
        ways = math.prod(math.comb(p, c) for p, c in zip(population, k))
        return ways / math.comb(sum(population), n)

    def x(k):
        return sign[k[2] + k[3]] * sign[k[1] + k[3]]

    def g(population, power=1):
        return sum(prob(population, k) * x(k) ** power
                   for k in _compositions(n))

    var = 0.0
    for a, b in sequences.values():
        population = [int(v) for v in np.bincount(2 * a.astype(np.int64) + b,
                                                  minlength=4)]
        m = sum(population) // n
        mean = g(population)
        var += (g(population, 2) - mean ** 2) / m
        if m == 1:  # no second cluster: its covariance term has weight 0
            continue
        joint = sum(prob(population, k) * x(k)
                    * g([p - c for p, c in zip(population, k)])
                    for k in _compositions(n) if prob(population, k) > 0.0)
        var += (1.0 - 1.0 / m) * (joint - mean ** 2)
    return math.sqrt(max(var, 0.0))


def logical_bits(stream: EventStream) -> tuple[np.ndarray, np.ndarray]:
    """Undo the stream's basis-variant inversion on the physical bits, one
    stream on its own."""
    inv_a, inv_b = variant_inversions(stream.basis_variant)
    return stream.a ^ np.uint8(inv_a), stream.b ^ np.uint8(inv_b)


def reshape_cluster_events(sequence, n: int) -> ClusteredOutcomes:
    """Window sums by reshaping the first m * n bits to (m, n)."""
    a, b = sequence
    m = len(a) // n
    a_counts = a[:m * n].reshape(m, n).sum(axis=1).astype(np.int64)
    b_counts = b[:m * n].reshape(m, n).sum(axis=1).astype(np.int64)
    return ClusteredOutcomes(n=int(n), a_counts=a_counts, b_counts=b_counts,
                             discarded=int(len(a) - m * n))


def write_jsonl_lines(streams, path) -> None:
    """Event writer of the JSON-lines form, one formatted line per event."""
    with Path(path).open("w") as fh:
        for stream in streams:
            fh.write(json.dumps(_header(stream)) + "\n")
            for a, b in zip(stream.a.tolist(), stream.b.tolist()):
                fh.write(f'{{"a": {a}, "b": {b}}}\n')


def write_csv_lines(streams, path) -> None:
    """Event writer of the CSV form, one formatted line per event."""
    with Path(path).open("w") as fh:
        fh.write("x,y,variant,a,b\n")
        for stream in streams:
            fh.write(CSV_STREAM_PREFIX + json.dumps(_header(stream)) + "\n")
            x, y = stream.setting_pair
            v = stream.basis_variant
            for a, b in zip(stream.a.tolist(), stream.b.tolist()):
                fh.write(f"{x},{y},{v},{a},{b}\n")


def _text_lines(path: Path):
    """Each line of the file at `path`, decoded on its own, so bytes that
    are not UTF-8 are met in file order.  Its line break (an LF, a CR LF
    pair or a lone CR, where text mode splits) becomes an LF; a last
    line may lack one."""
    for raw in path.read_bytes().splitlines(keepends=True):
        text = raw.rstrip(b"\r\n")
        yield text.decode() + "\n" * (len(text) < len(raw))


def read_jsonl_lines(path: Path) -> list[EventStream]:
    """JSON-lines event reader that parses every line on its own."""
    streams: list[EventStream] = []
    fields = None
    a_bits: list[int] = []
    b_bits: list[int] = []

    def flush():
        if fields is None:
            return
        pair, variant, meta = fields
        streams.append(EventStream(
            setting_pair=pair, basis_variant=variant,
            a=np.array(a_bits, dtype=np.uint8),
            b=np.array(b_bits, dtype=np.uint8), meta=meta))

    for lineno, line in enumerate(_text_lines(path), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line, parse_constant=_no_constant)
        except (ValueError, RecursionError) as exc:
            # ValueError covers JSONDecodeError and integers longer
            # than Python converts; RecursionError, deep nesting
            raise IngestionError(f"{path}:{lineno}: bad JSON ({exc})")
        if isinstance(obj, dict) and "settingPair" in obj:
            flush()
            try:
                fields = _stream_header(obj)
            except ValueError as exc:
                raise IngestionError(f"{path}:{lineno}: {exc}")
            a_bits, b_bits = [], []
        elif isinstance(obj, dict) and "a" in obj and "b" in obj:
            if fields is None:
                raise IngestionError(
                    f"{path}:{lineno}: event record before any header")
            if not all(_is_json_int(obj[k]) and obj[k] in (0, 1)
                       for k in ("a", "b")):
                raise IngestionError(
                    f"{path}:{lineno}: outcomes must be bits")
            a_bits.append(obj["a"])
            b_bits.append(obj["b"])
        else:
            raise IngestionError(
                f"{path}:{lineno}: unrecognized record {obj!r}")
    flush()
    return streams


def read_csv_lines(path: Path) -> list[EventStream]:
    """CSV event reader that parses every line on its own.

    A `# stream:` header that names a setting pair or basis variant must
    name both, as a JSON-lines header does, and binds the rows after it
    to them.
    """
    metas: list[dict] = [{}]
    named: list = [None]
    chunks: dict[tuple, list] = {}
    lines = _text_lines(path)
    names = next(lines, "").strip().split(",")
    if sorted(names) != sorted(CSV_COLUMNS):
        raise IngestionError(
            f"{path}:1: expected columns x,y,variant,a,b")
    cols = [names.index(c) for c in CSV_COLUMNS]
    for lineno, line in enumerate(lines, start=2):
        if line.startswith(CSV_STREAM_PREFIX):
            try:
                header = json.loads(line[len(CSV_STREAM_PREFIX):],
                                    parse_constant=_no_constant)
            except (ValueError, RecursionError) as exc:
                raise IngestionError(
                    f"{path}:{lineno}: bad stream metadata ({exc})")
            if not isinstance(header, dict):
                raise IngestionError(
                    f"{path}:{lineno}: stream metadata is not an object")
            try:
                if "settingPair" in header or "basisVariant" in header:
                    pair, variant, meta = _stream_header(header)
                    named.append((pair, variant))
                else:
                    meta = _stream_meta(header)
                    named.append(None)
            except ValueError as exc:
                raise IngestionError(f"{path}:{lineno}: {exc}")
            metas.append(meta)
            continue
        row = line.rstrip("\n")
        if not row.strip():
            continue
        cells = row.split(",")
        try:
            if len(cells) != len(cols) or not all(
                    _CSV_CELL.fullmatch(c) for c in cells):
                raise ValueError
            x, y, v, a, b = (int(cells[i]) for i in cols)
        except ValueError:  # int() also refuses over 4300 digits
            raise IngestionError(
                f"{path}:{lineno}: malformed row {row!r}")
        if v not in (0, 1, 2, 3):
            raise IngestionError(
                f"{path}:{lineno}: basis variant outside 0..3")
        if a not in (0, 1) or b not in (0, 1):
            raise IngestionError(f"{path}:{lineno}: outcomes must be bits")
        if named[-1] not in (None, ((x, y), v)):
            pair, variant = named[-1]
            raise IngestionError(
                f"{path}:{lineno}: row of setting pair {(x, y)}, basis "
                f"variant {v} under the header of setting pair {pair}, "
                f"basis variant {variant}")
        chunks.setdefault((len(metas) - 1, (x, y), v), []).append((a, b))
    streams = []
    for (block, setting_pair, variant), rows in chunks.items():
        pairs = np.array(rows, dtype=np.uint8)
        streams.append(EventStream(setting_pair=setting_pair,
                                   basis_variant=variant, a=pairs[:, 0],
                                   b=pairs[:, 1], meta=dict(metas[block])))
    return streams


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
