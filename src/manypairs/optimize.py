"""Maximization of the binned CHSH value and the critical-noise landscape.

For unbiased-marginal pair statistics the binned correlator of each
setting pair depends only on that pair's scalar correlator e.  It is the
noise stability of the binning's sign function,

    f(e) = sum_k W_k e^k,

with the Fourier weights W_k >= 0 of that function (R. O'Donnell,
*Analysis of Boolean Functions*, 2014, ch. 2 and Thm 5.19):

* parity: W_n = 1, so f(e) = e^n;
* majority at odd n: the closed form of Thm 5.19, in O(n) via gammaln;
* majority at even n with ties to one side: the restriction
  Maj_{n+1}(x, -1), whose level-k weight is C(n, k) times the squared
  Maj_{n+1} coefficient at level k (k odd) or k + 1 (k even);
  randomized ties average the two one-sided functions, which keeps only
  the odd levels.

The weights are cached per (n, binning) and only the nonzero levels are
evaluated.  The generic convolution route in `collective`/`binning`
remains the reference implementation; tests pin both routes against
each other.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize as sciopt
from scipy.special import gammaln

from .binning import (PARITY_BETA_SCALE, BinningStrategy, Majority, Parity,
                      TiePolicy, parity_chsh_analytic)
from .errors import FitError, InvalidArgumentError, NoViolationError
from .pairstats import MeasurementSettings, settings_from_beta


class SettingsMode(enum.Enum):
    """Search space for the measurement settings."""

    BETA_FAMILY = "beta-family"
    FULL_PLANAR = "full-planar"


class ExceedsCap:
    """Sentinel: every pair count up to the cap still violates."""

    def __repr__(self):
        return "ExceedsCap"


EXCEEDS_CAP = ExceedsCap()

#: Seed for the simplex multi-start perturbations (fixed for determinism).
_MULTISTART_SEED = 20240817

_GRID_POINTS = 256
_SIMPLEX_MAX_EVALS = 2000

#: Sign of each setting pair's correlator in S, in SETTING_PAIRS order.
_CHSH_SIGNS = np.array([1.0, 1.0, 1.0, -1.0])


def _log_binom(n, k):
    return gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1)


def _log_majority_coefficient(m: int, k: np.ndarray) -> np.ndarray:
    """log |Fourier coefficient| of Maj_m (m odd) on a set of odd size k."""
    h = (m - 1) // 2
    return (_log_binom(h, (k - 1) // 2) - _log_binom(m - 1, k - 1)
            + _log_binom(m - 1, h) + (1 - m) * math.log(2.0))


@functools.lru_cache(maxsize=1024)
def _response_weights(n: int, strategy: BinningStrategy):
    """Nonzero levels k and Fourier weights W_k of the binning, n >= 1."""
    if isinstance(strategy, Parity):
        levels, weights = np.array([n]), np.array([1.0])
    else:
        one_sided_ties = (n % 2 == 0 and
                          strategy.tie_policy is not TiePolicy.RANDOMIZED)
        levels = np.arange(n + 1) if one_sided_ties else np.arange(1, n + 1, 2)
        m = n + 1 - n % 2
        weights = np.exp(_log_binom(n, levels)
                         + 2.0 * _log_majority_coefficient(m, levels | 1))
    levels.setflags(write=False)
    weights.setflags(write=False)
    return levels, weights


def binned_correlator_from_e(e, n: int, strategy: BinningStrategy):
    """Binned correlator E^(n) for unbiased-marginal correlator(s) e.

    Accepts a scalar (returns a float) or an array (returns an array of
    the same shape).
    """
    levels, weights = _response_weights(n, strategy)
    out = np.power.outer(np.asarray(e, dtype=float), levels) @ weights
    return float(out) if out.ndim == 0 else out


def family_chsh(beta, visibility: float, n: int, strategy: BinningStrategy):
    """CHSH value of the one-angle settings family (0, 2b, b, -b).

    beta may be a scalar (returns a float) or an array (returns an array).
    Raises InvalidArgumentError for n < 1, a visibility outside [0, 1] or
    a beta that is not finite.
    """
    if n < 1:
        raise InvalidArgumentError(f"n must be >= 1, got {n!r}")
    if not 0.0 <= visibility <= 1.0:
        raise InvalidArgumentError(f"visibility {visibility!r} outside [0, 1]")
    beta = np.asarray(beta, dtype=float)
    # the optimizers make thousands of scalar calls, for which
    # math.isfinite is far cheaper than a numpy reduction
    if not (math.isfinite(beta) if beta.ndim == 0
            else np.isfinite(beta).all()):
        raise InvalidArgumentError("beta must be a finite number")
    f = binned_correlator_from_e(
        visibility * np.cos(np.stack([beta, 3.0 * beta])), n, strategy)
    s = 3.0 * f[0] - f[1]
    return float(s) if s.ndim == 0 else s


@dataclass(frozen=True)
class OptimizationResult:
    """Best CHSH value found, with the settings that achieve it."""

    s_max: float
    settings: MeasurementSettings
    mode: SettingsMode
    evaluations: int
    beta: float | None = None
    converged: bool = True


def max_chsh(n: int, visibility: float, strategy: BinningStrategy,
             mode: SettingsMode = SettingsMode.BETA_FAMILY) -> OptimizationResult:
    """Maximize the binned CHSH value over measurement settings.

    BETA_FAMILY searches the one-parameter family on (0, pi/2] (dense grid
    in one array evaluation, then Brent's bounded refinement); FULL_PLANAR
    runs a multi-start Nelder-Mead seeded from the family optimum.  Each
    correlator V cos(theta_A - theta_B) depends only on angle differences,
    so FULL_PLANAR fixes theta_a1 = 0 and searches (theta_a2, theta_b1,
    theta_b2).
    """
    grid = np.linspace(math.pi / 2.0 / _GRID_POINTS, math.pi / 2.0,
                       _GRID_POINTS)
    vals = family_chsh(grid, visibility, n, strategy)
    i = int(np.argmax(vals))
    lo = grid[i - 1] if i > 0 else grid[0] / 2.0
    hi = grid[i + 1] if i + 1 < len(grid) else grid[-1]
    refined = sciopt.minimize_scalar(
        lambda b: -family_chsh(b, visibility, n, strategy), bounds=(lo, hi),
        method="bounded", options={"xatol": 1e-12})
    beta, s_family = float(refined.x), float(-refined.fun)
    if vals[i] > s_family:
        beta, s_family = float(grid[i]), float(vals[i])
    evaluations = len(grid) + refined.nfev
    family = OptimizationResult(s_max=s_family,
                                settings=settings_from_beta(beta),
                                mode=SettingsMode.BETA_FAMILY,
                                evaluations=evaluations, beta=beta)
    if mode is SettingsMode.BETA_FAMILY:
        return family

    def neg(theta):  # correlators in SETTING_PAIRS order, theta_a1 = 0
        a2, b1, b2 = theta
        e = visibility * np.cos([b1, b2, a2 - b1, a2 - b2])
        return -float(_CHSH_SIGNS @ binned_correlator_from_e(e, n, strategy))

    rng = np.random.default_rng(_MULTISTART_SEED)
    seed_angles = np.array(family.settings.as_tuple()[1:])
    starts = [seed_angles] + [seed_angles + rng.normal(scale=0.3, size=3)
                              for _ in range(8)]
    best_s = family.s_max
    best_angles = seed_angles
    converged = True
    for start in starts:
        res = sciopt.minimize(neg, start, method="Nelder-Mead",
                              options={"maxfev": _SIMPLEX_MAX_EVALS,
                                       "xatol": 1e-10, "fatol": 1e-12})
        evaluations += res.nfev
        if not res.success:
            converged = False
        if -res.fun > best_s:
            best_s = float(-res.fun)
            best_angles = res.x
    return OptimizationResult(s_max=best_s,
                              settings=MeasurementSettings(0.0, *best_angles),
                              mode=SettingsMode.FULL_PLANAR,
                              evaluations=evaluations, beta=family.beta,
                              converged=converged)


def _check_tolerance(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0.0):
        raise InvalidArgumentError(
            f"{name} must be a finite positive number, got {value!r}")


def critical_visibility(n: int, strategy: BinningStrategy,
                        mode: SettingsMode = SettingsMode.BETA_FAMILY,
                        width: float = 1e-5) -> float:
    """Smallest visibility admitting a CHSH violation for n pairs.

    Parity uses the exact identity V_c = (2 / S_max(V=1))^(1/n), valid
    because the optimal settings are visibility-independent under the V^n
    scaling; majority finds the root of S_max(V) - 2 on [0.5, 1] by
    Brent's method, to within width / 2.  Raises InvalidArgumentError
    unless width is a finite positive number.
    """
    _check_tolerance("width", width)
    top = max_chsh(n, 1.0, strategy, mode)
    if top.s_max <= 2.0:
        raise NoViolationError(
            f"no violation at V=1 for n={n}, {strategy!r}", top.s_max)
    if isinstance(strategy, Parity):
        return (2.0 / top.s_max) ** (1.0 / n)
    return sciopt.brentq(
        lambda v: max_chsh(n, v, strategy, mode).s_max - 2.0, 0.5, 1.0,
        xtol=width / 2.0)


def critical_pairs(visibility: float, strategy: BinningStrategy,
                   n_max: int = 4096,
                   mode: SettingsMode = SettingsMode.BETA_FAMILY):
    """Largest pair count still violating CHSH at the given visibility.

    Exponential growth then binary search, relying on the monotonicity of
    the critical visibility in n.  Returns EXCEEDS_CAP when n_max itself
    still violates.
    """
    if not 0.0 < visibility <= 1.0:
        raise InvalidArgumentError(
            f"visibility {visibility!r} outside (0, 1]")

    def violates(n: int) -> bool:
        return max_chsh(n, visibility, strategy, mode).s_max > 2.0

    first = max_chsh(1, visibility, strategy, mode)
    if first.s_max <= 2.0:
        raise NoViolationError(
            f"no violation even at n=1 for V={visibility}", first.s_max)
    n = 1
    while True:
        nxt = min(2 * n, n_max)
        if nxt == n:  # n == n_max still violating
            return EXCEEDS_CAP
        if violates(nxt):
            n = nxt
        else:
            break
    lo, hi = n, nxt  # violates(lo) True, violates(hi) False
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if violates(mid):
            lo = mid
        else:
            hi = mid
    return lo


@dataclass(frozen=True)
class VcFit:
    """Coefficients of the 1 - c1/n + c2/n^2 critical-visibility law."""

    c1: float
    c2: float
    residual: float

    def predict(self, n: float) -> float:
        return 1.0 - self.c1 / n + self.c2 / n ** 2


def fit_vc_curve(points) -> VcFit:
    """Least-squares fit of (1 - V_c) against the basis (1/n, -1/n^2)."""
    pts = [(int(n), float(vc)) for (n, vc) in points]
    if len({n for n, _ in pts}) < 3:
        raise FitError("need at least 3 distinct n values")
    ns = np.array([n for n, _ in pts], float)
    vcs = np.array([vc for _, vc in pts])
    design = np.column_stack([1.0 / ns, -1.0 / ns ** 2])
    coef, _, rank, _ = np.linalg.lstsq(design, 1.0 - vcs, rcond=None)
    if rank < 2:
        raise FitError("design matrix is rank-deficient")
    residual = float(np.linalg.norm(design @ coef - (1.0 - vcs)))
    return VcFit(c1=float(coef[0]), c2=float(coef[1]), residual=residual)


@dataclass(frozen=True)
class CriticalCurve:
    """Critical visibility per pair count, with the fitted 1/n law."""

    strategy: BinningStrategy
    points: tuple
    fit: VcFit | None
    monotone: bool


def scan_critical_visibilities(n_values, strategy: BinningStrategy,
                               mode: SettingsMode = SettingsMode.BETA_FAMILY,
                               width: float = 1e-5) -> CriticalCurve:
    """Critical visibility over a range of n, fitted to 1 - c1/n + c2/n^2."""
    points = tuple((int(n), critical_visibility(int(n), strategy, mode, width))
                   for n in n_values)
    vcs = [vc for _, vc in points]
    monotone = all(b >= a - width for a, b in zip(vcs, vcs[1:]))
    fit = fit_vc_curve(points) if len({n for n, _ in points}) >= 3 else None
    return CriticalCurve(strategy=strategy, points=points, fit=fit,
                         monotone=monotone)


#: 1 - n * (1 - V_c^parity(n)) in the high-visibility approximation.
PARITY_VC_COEFFICIENT = 1.0 - 3.0 ** (9.0 / 8.0) / 4.0


def parity_vc_approx(n: int) -> float:
    """High-visibility approximation of the parity critical visibility."""
    if n < 1:
        raise InvalidArgumentError(f"n must be >= 1, got {n!r}")
    return 1.0 - PARITY_VC_COEFFICIENT / n


def violation_ratio(visibility: float) -> float:
    """Fraction of the single-pair parity violation left at half capacity.

    Uses the fixed settings beta = beta0/sqrt(n) at n = round(n_c/2)
    (half up) against n = 1 at beta = beta0.
    """
    if not 0.0 < visibility < 1.0:
        raise InvalidArgumentError(
            f"visibility {visibility!r} outside (0, 1)")
    n_crit = PARITY_VC_COEFFICIENT / (1.0 - visibility)
    n_half = math.floor(n_crit / 2.0 + 0.5)
    if n_half < 1 or n_crit < 2.0:
        raise InvalidArgumentError(
            f"V={visibility} is below the violation regime (n_c={n_crit:.3f})")
    numerator = parity_chsh_analytic(
        PARITY_BETA_SCALE / math.sqrt(n_half), visibility, n_half) - 2.0
    denominator = parity_chsh_analytic(PARITY_BETA_SCALE, visibility, 1) - 2.0
    return numerator / denominator


@dataclass(frozen=True)
class BinningComparison:
    """Majority-vs-parity CHSH maxima over a (V, n) grid."""

    rows: tuple  # (visibility, n, s_majority, s_parity)
    winners: tuple  # (visibility, "majority" | "parity" | "tie")
    crossover: float | None


def _crossover_n_grid(n_values):
    # Tie-free majority only: even-n tie losses let parity win at n = 2
    # for every visibility, which would hide the genuine crossover.
    odd = [n for n in n_values if n % 2 == 1 and n >= 3]
    return odd if odd else [n for n in n_values if n >= 2]


def _maxima(n: int, visibility: float, mode: SettingsMode) -> tuple:
    """(majority, parity) CHSH maxima at one grid point."""
    return (max_chsh(n, visibility, Majority(), mode).s_max,
            max_chsh(n, visibility, Parity(), mode).s_max)


def _parity_advantage(maxima) -> float:
    """Largest parity-minus-majority gap over (s_maj, s_par) pairs."""
    return max((s_par - s_maj for s_maj, s_par in maxima), default=-math.inf)


def binning_comparison(v_values, n_values,
                       mode: SettingsMode = SettingsMode.BETA_FAMILY,
                       crossover_tol: float = 1e-4) -> BinningComparison:
    """Tabulate both strategies on a grid and locate the parity crossover.

    The crossover V* is where, for some tie-free (odd) n in the grid, the
    parity maximum first exceeds the majority maximum.  The winners come
    from the table; V* is refined by Brent's method between the first
    bracketing pair of grid visibilities, to within crossover_tol / 2.
    """
    _check_tolerance("crossover_tol", crossover_tol)
    v_values = [float(v) for v in v_values]
    n_values = [int(n) for n in n_values]
    if not v_values or not n_values:
        raise InvalidArgumentError("grids must be nonempty")
    table = {(v, n): _maxima(n, v, mode) for v in v_values for n in n_values}
    rows = tuple((v, n) + table[v, n] for v in v_values for n in n_values)
    n_grid = _crossover_n_grid(n_values)
    advantages = [_parity_advantage(table[v, n] for n in n_grid)
                  for v in v_values]
    winners = tuple(
        (v, "parity" if adv > 0.0 else "majority" if adv < 0.0 else "tie")
        for v, adv in zip(v_values, advantages))

    crossover = None
    for (v_lo, adv_lo), (v_hi, adv_hi) in zip(zip(v_values, advantages),
                                              zip(v_values[1:], advantages[1:])):
        if adv_lo <= 0.0 < adv_hi:
            crossover = sciopt.brentq(
                lambda v: _parity_advantage(_maxima(n, v, mode)
                                            for n in n_grid),
                v_lo, v_hi, xtol=crossover_tol / 2.0)
            break
    return BinningComparison(rows=rows, winners=winners, crossover=crossover)
