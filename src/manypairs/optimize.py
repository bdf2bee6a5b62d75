"""Maximization of the binned CHSH value and the critical-noise landscape.

For unbiased-marginal pair statistics the binned correlator of each
setting pair depends only on that pair's scalar correlator e.  It is the
noise stability of the binning's sign function,

    f(e) = sum_k W_k e^k,

with the Fourier weights W_k >= 0 of that function (R. O'Donnell,
*Analysis of Boolean Functions*, 2014, ch. 2 and Thm 5.19):

* parity: W_n = 1, so f(e) = e^n;
* majority at odd n: the closed form of Thm 5.19, in O(n) as a running
  product of level-to-level ratios;
* majority at even n with ties to one side: the restriction
  Maj_{n+1}(x, -1), whose level-k weight is C(n, k) times the squared
  Maj_{n+1} coefficient at level k (k odd) or k + 1 (k even);
  randomized ties average the two one-sided functions, which keeps only
  the odd levels.

The polynomial and its derivatives are built together, from one
computation of the weights, and cached per (n, binning).  Only the
nonzero levels are evaluated, as f(e) = f_even(|e|) + sign(e)
f_odd(|e|): every power is taken of |e| (np.power is many times slower
on a negative base) and the odd levels carry the sign.  The L levels
form an arithmetic progression, and each is split as r + q, one of its
first sqrt(L) levels and a multiple q of a block of about sqrt(L)
levels, so a point takes about 2 sqrt(L) powers |e|^r and |e|^q, not
all L, and one matrix product.  `binning.table_chsh`, the exact route
for any correlator table, biased marginals included, is the reference;
tests pin this fast path against it.

The same split gives f' = f'_odd(|e|) + sign(e) f'_even(|e|) and
f'' = f''_even(|e|) + sign(e) f''_odd(|e|).  The one-angle family needs
them at two correlators only, and forms S and its derivatives in beta
and V from those in float arithmetic.  Every search over a real
variable is Newton's method: one safeguarded root finder,
`_bracketed_newton`, gives the family's beta and the majority/parity
crossover, and Newton's method in beta and V together gives the
critical visibility.  No search over all planar settings is needed:
the family optimum is a stationary point of the planar S, and two sign
tests on values its last Newton step already has certify it as a local
maximum there (`_planar_maximum`).  Every step costs about one
polynomial evaluation, and the module needs numpy alone.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .binning import (PARITY_BETA_SCALE, BinningStrategy, Majority, Parity,
                      TiePolicy, parity_chsh_analytic)
from .errors import (ConvergenceError, FitError, InvalidArgumentError,
                     NoViolationError)
from .pairstats import MeasurementSettings, settings_from_beta


class ExceedsCap:
    """Sentinel: every pair count up to the cap still violates."""

    def __repr__(self):
        return "ExceedsCap"


EXCEEDS_CAP = ExceedsCap()

#: The default cap of `critical_pairs`, and the largest pair count a
#: command takes.
N_MAX = 4096

_GRID_POINTS = 256
#: The beta grid of the one-angle family on (0, pi/2].
_GRID = np.linspace(math.pi / 2.0 / _GRID_POINTS, math.pi / 2.0,
                    _GRID_POINTS)
_GRID.setflags(write=False)

_NEWTON_STEPS = 50
_NEWTON_RESTARTS = 4
#: Newton's method stops once a full step is this small in every coordinate.
_NEWTON_XTOL = 1e-12


class _SplitPolynomial:
    """Columns of sum_j matrix[j] x^(start + step j), evaluated at x >= 0.

    Row j = w q + r, w about sqrt(len(matrix)), has the exponent
    (start + step r) + step w q: a point takes w residue powers and one
    block power per q, about 2 sqrt(len(matrix)) in all, and column c is
    the bilinear form sum_q x^(step w q) sum_r T[q, c, r] x^(start +
    step r): one matrix product, then a sum over the blocks.  Every
    power and weight is non-negative, so the terms never cancel.
    """

    __slots__ = ("powers", "residues", "tensor")

    def __init__(self, start: int, step: int, matrix: np.ndarray):
        rows, columns = matrix.shape
        width = max(1, round(math.sqrt(rows)))
        blocks = -(-rows // width)
        padded = np.zeros((blocks * width, columns))
        padded[:rows] = matrix
        #: T as a (blocks * columns, residues) matrix
        self.tensor = padded.reshape(blocks, width, columns).transpose(
            0, 2, 1).reshape(blocks * columns, width)
        #: the residues, then the block multiples
        self.powers = np.concatenate([
            start + step * np.arange(width),
            step * width * np.arange(blocks)])[:, None]
        self.residues = width
        self.powers.setflags(write=False)
        self.tensor.setflags(write=False)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """The columns at each x, on a new first axis."""
        flat = x.reshape(1, -1)
        powers = np.power(flat, self.powers)
        r = self.residues
        inner = (self.tensor @ powers[:r]).reshape(len(powers) - r, -1,
                                                   flat.shape[1])
        out = np.einsum("qp,qcp->cp", powers[r:], inner)
        return out.reshape((-1,) + x.shape)


def _response_weights(n: int, strategy: BinningStrategy):
    """Nonzero levels k of the binning, n >= 1, an arithmetic progression,
    and an (L, 2) matrix whose columns hold the Fourier weights W_k of
    the even and the odd levels.

    Majority takes u_k = C(n, k) c_{k|1}^2 for k = 0..n, where c_j is the
    level-j coefficient of Maj_m, m = n + 1 - n % 2 and h = n // 2, as a
    running product: u_0 = c_1^2 with c_1 = C(2h, h) / 4^h, and
    c_{j+2} / c_j = j / (2h - j).  Each factor is a single rounded
    ratio, so W_k is exact to about k ulps.
    """
    if isinstance(strategy, Parity):
        levels, weights = np.array([n]), np.array([1.0])
    else:
        h = n // 2
        k = np.arange(n)
        ratio = (n - k) / (k + 1.0)
        ratio[1::2] *= (k[1::2] / (2.0 * h - k[1::2])) ** 2
        c1 = np.prod(np.arange(1.0, 2 * h, 2) / np.arange(2.0, 2 * h + 1, 2))
        u = c1 ** 2 * np.cumprod(np.concatenate(([1.0], ratio)))
        one_sided_ties = (n % 2 == 0 and
                          strategy.tie_policy is not TiePolicy.RANDOMIZED)
        levels = np.arange(n + 1) if one_sided_ties else np.arange(1, n + 1, 2)
        weights = u[levels]
    split = np.zeros((len(levels), 2))
    split[np.arange(len(levels)), levels % 2] = weights
    return levels, split


@functools.lru_cache(maxsize=1024)
def _response_polynomials(n: int, strategy: BinningStrategy) -> tuple:
    """The binning's response polynomial and its derivatives, to evaluate
    at |e|, from one computation of its weights.

    The first has two columns, f's even and its odd levels.  The second
    has six columns r, with f, f', f'' = r[:3] + sign(e) r[3:]: a row per
    exponent j, from two below the lowest level to the top one, holds
    order o's term (j + o)!/j! W_(j+o) |e|^j, which changes sign with e
    when j is odd.
    """
    levels, split = _response_weights(n, strategy)
    step = int(levels[1] - levels[0]) if len(levels) > 1 else 1
    low, top = max(int(levels[0]) - 2, 0), int(levels[-1])
    weights = np.zeros(top + 3 - low)
    weights[levels - low] = split.sum(axis=1)
    j = np.arange(low, top + 1)
    matrix = np.zeros((len(j), 2, 3))
    matrix[np.arange(len(j)), j % 2] = np.column_stack([
        weights[:-2], (j + 1) * weights[1:-1],
        (j + 1) * (j + 2) * weights[2:]])
    return (_SplitPolynomial(int(levels[0]), step, split),
            _SplitPolynomial(low, 1, matrix.reshape(len(j), 6)))


def binned_correlator_from_e(e, n: int, strategy: BinningStrategy):
    """Binned correlator E^(n) for unbiased-marginal correlator(s) e.

    Accepts a scalar (returns a float) or an array (returns an array of
    the same shape).
    """
    e = np.asarray(e, dtype=float)
    even, odd = _response_polynomials(n, strategy)[0](np.abs(e))
    out = even + np.copysign(odd, e)
    return float(out) if out.ndim == 0 else out


def _response_derivatives(e, n: int, strategy: BinningStrategy) -> np.ndarray:
    """f(e), f'(e) and f''(e) of the binning's response polynomial, stacked
    on a new first axis before the shape of e.

    Uses the |e| split of `binned_correlator_from_e`, so every power is
    taken of a non-negative base.
    """
    e = np.asarray(e, dtype=float)
    r = _response_polynomials(n, strategy)[1](np.abs(e))
    return r[:3] + np.copysign(r[3:], e)


def family_chsh(beta, visibility: float, n: int, strategy: BinningStrategy):
    """CHSH value of the one-angle settings family (0, 2b, b, -b).

    beta may be a scalar (returns a float) or an array (returns an array).
    Raises InvalidArgumentError for n < 1, a visibility outside [0, 1] or
    a beta for which 3 * beta is not finite.
    """
    if n < 1:
        raise InvalidArgumentError(f"n must be >= 1, got {n!r}")
    if not 0.0 <= visibility <= 1.0:
        raise InvalidArgumentError(f"visibility {visibility!r} outside [0, 1]")
    beta = np.asarray(beta, dtype=float)
    # a scalar beta, as a library caller may pass, needs no numpy reduction
    peak = float(beta if beta.ndim == 0 else np.abs(beta).max(initial=0.0))
    if not math.isfinite(3.0 * peak):
        raise InvalidArgumentError("beta and 3 * beta must be finite")
    f = binned_correlator_from_e(
        visibility * np.cos(np.multiply.outer((1.0, 3.0), beta)), n, strategy)
    s = 3.0 * f[0] - f[1]
    return float(s) if s.ndim == 0 else s


def _chsh_derivatives(beta: float, visibility: float, n: int,
                      strategy: BinningStrategy):
    """S of the one-angle family and its derivatives in beta and in V.

    Returns S, dS/dbeta, d2S/dbeta2, dS/dV, d2S/(dbeta dV) and the term
    a of the planar Hessian (`_planar_maximum`), each a float: S = 3
    f(e1) - f(e3) needs f, f' and f'' only at e1 = V cos(beta) and e3 =
    V cos(3 beta).
    """
    v = visibility
    c1, s1 = math.cos(beta), math.sin(beta)
    c3, s3 = math.cos(3.0 * beta), math.sin(3.0 * beta)
    (f1, f3), (g1, g3), (h1, h3) = _response_derivatives(
        np.array([v * c1, v * c3]), n, strategy).tolist()
    bend1 = v * s1 * s1 * h1 - c1 * g1
    return (3.0 * f1 - f3,
            3.0 * v * (s3 * g3 - s1 * g1),
            3.0 * v * bend1 - 9.0 * v * (v * s3 * s3 * h3 - c3 * g3),
            3.0 * c1 * g1 - c3 * g3,
            3.0 * (s3 * (g3 + v * c3 * h3) - s1 * (g1 + v * c1 * h1)),
            v * bend1)


def _planar_maximum(curvature: float, a: float) -> bool:
    """Whether S has no positive curvature in any planar direction at a
    family optimum, given d2S/dbeta2 and a there.

    Take the planar angles (theta_a2, theta_b1, theta_b2), theta_a1 = 0,
    at the family settings theta = beta (2, 1, -1), where the four
    correlator angles are beta, -beta, beta and 3 beta.  With u =
    sin(beta) f'(e1) and w = sin(3 beta) f'(e3), e1 = V cos(beta) and e3
    = V cos(3 beta), the planar gradient is -V (u - w) (1, 0, -1) and
    dS/dbeta = 3 V (w - u): wherever the family is stationary in beta, S
    is stationary in all three angles.  The Hessian is [[a+b, -a, -b],
    [-a, 2a, 0], [-b, 0, a+b]], with a = V (V sin^2(beta) f''(e1) -
    cos(beta) f'(e1)) and b = -V (V sin^2(3 beta) f''(e3) - cos(3 beta)
    f'(e3)).  Its quadratic form is a [(x1 - x2)^2 + x2^2 + x3^2] +
    b (x1 - x3)^2; the first bracket is positive definite and the largest
    ratio of the second square to it is 3, on the family line.  So the
    Hessian has no positive eigenvalue exactly when a <= 0 and a + 3 b <=
    0, and d2S/dbeta2 = 3 (a + 3 b).
    """
    return curvature <= 0.0 and a <= 0.0


@dataclass(frozen=True)
class OptimizationResult:
    """Best CHSH value found, with the settings that achieve it.

    The optimum is the family's: `beta`, always set, and its settings
    (0, 2 beta, beta, -beta).  `evaluations` counts evaluations of S: the
    beta grid, then one per Newton step, each with its first two
    beta-derivatives, and one more where a grid point beats a Newton
    point away from it.
    `converged` says that the safeguarded Newton's method for beta ended
    on a step of at most 1e-12 within its step cap (or its bracket shrank
    that far), so beta is a stationary point of S in all planar settings
    to rounding, and that S there curves down, or is flat, in every
    planar direction (`_planar_maximum`).
    """

    s_max: float
    settings: MeasurementSettings
    evaluations: int
    beta: float
    converged: bool = True


def _bracketed_newton(func, x: float, lo: float, hi: float):
    """Safeguarded Newton's method on g(x) = 0 from x in [lo, hi], for a g
    that rises through its root.

    func(x) returns (g(x), g'(x), ...).  Each step moves the bracket end
    on g's side of x to x.  A Newton step that leaves the bracket, or
    one taken where g' <= 0, becomes a bisection.  The step size is
    tested first, so a start on the root stops at once.  Returns (x,
    func(x), evaluations, converged): converged says that the last Newton
    step was at most _NEWTON_XTOL, or the bracket narrower than that.
    """
    for steps in range(1, _NEWTON_STEPS + 1):
        values = func(x)
        g, dg = values[:2]
        converged = g == 0.0 or (dg > 0.0 and abs(g) <= _NEWTON_XTOL * dg)
        if not converged:
            lo, hi = (x, hi) if g < 0.0 else (lo, x)
            converged = hi - lo <= _NEWTON_XTOL
        if converged or steps == _NEWTON_STEPS:
            return x, values, steps, converged
        nxt = x - g / dg if dg > 0.0 else math.nan
        x = nxt if lo < nxt < hi else 0.5 * (lo + hi)


def max_chsh(n: int, visibility: float,
             strategy: BinningStrategy) -> OptimizationResult:
    """Maximize the binned CHSH value over measurement settings.

    Searches the one-angle family on (0, pi/2]: a dense grid in one array
    evaluation, then `_bracketed_newton` on dS/dbeta = 0 from the grid's
    best point, inside the bracket of its two neighbours; the grid point
    is kept if it is higher.  The optimum is certified against all planar
    settings: it is a stationary point of S in the three angle
    differences that S depends on, and it counts as converged only if
    `_planar_maximum` holds there, on the values of the last Newton step
    (or of one more evaluation, at a grid point that beats a Newton point
    away from it).
    """
    vals = family_chsh(_GRID, visibility, n, strategy)
    i = int(np.argmax(vals))
    lo = _GRID[i - 1] if i > 0 else _GRID[0] / 2.0
    hi = _GRID[i + 1] if i + 1 < _GRID_POINTS else _GRID[-1]

    def falling_slope(beta):  # -dS/dbeta rises through the maximum
        s, slope, curvature, _, _, a = _chsh_derivatives(
            beta, visibility, n, strategy)
        return -slope, -curvature, s, curvature, a

    beta, (_, _, s_max, curvature, a), steps, converged = _bracketed_newton(
        falling_slope, float(_GRID[i]), float(lo), float(hi))
    evaluations = _GRID_POINTS + steps
    if vals[i] > s_max:
        if beta != _GRID[i]:
            curvature, a = falling_slope(float(_GRID[i]))[3:]
            evaluations += 1
        beta, s_max = float(_GRID[i]), float(vals[i])
    converged = converged and _planar_maximum(curvature, a)
    return OptimizationResult(s_max=s_max, settings=settings_from_beta(beta),
                              evaluations=evaluations, beta=beta,
                              converged=converged)


def _threshold_newton(n: int, strategy: BinningStrategy, beta: float,
                      visibility: float):
    """Newton's method on dS/dbeta = 0, S = 2 in (beta, V), the 2 x 2
    system in floats by Cramer's rule.

    A step that would take V out of [0.5, 1] is halved until it does
    not.  Returns (beta, V, converged).
    """
    for _ in range(_NEWTON_STEPS):
        s, slope, curvature, s_v, slope_v, _ = _chsh_derivatives(
            beta, visibility, n, strategy)
        det = curvature * s_v - slope_v * slope
        if det == 0.0:
            break
        d_beta = (slope_v * (s - 2.0) - slope * s_v) / det
        d_v = (slope * slope - curvature * (s - 2.0)) / det
        scale = 1.0
        while not 0.5 <= visibility + scale * d_v <= 1.0:
            scale /= 2.0
        beta += scale * d_beta
        visibility += scale * d_v
        if max(abs(d_beta), abs(d_v)) <= _NEWTON_XTOL:
            return beta, visibility, True
    return beta, visibility, False


def critical_visibility(n: int, strategy: BinningStrategy) -> float:
    """Smallest visibility admitting a CHSH violation for n pairs.

    Parity uses the exact identity V_c = (2 / S_max(V=1))^(1/n), valid
    because the optimal settings are visibility-independent under the V^n
    scaling.  Majority solves dS/dbeta = 0, S = 2 for the family's beta
    and V by Newton's method, with analytic derivatives of the response
    polynomial, and converges to rounding.  It starts from the V = 1
    optimum and the linearization V = 1 - (S - 2) / (dS/dV).  One
    max_chsh at the root confirms it: that maximum must converge, its
    planar certificate included, and stay at or below 2; if it does not,
    Newton's method restarts from its beta.  Raises ConvergenceError if
    the V = 1 maximum does not converge or no confirmed root is found.
    """
    top = max_chsh(n, 1.0, strategy)
    if top.s_max <= 2.0:
        raise NoViolationError(
            f"no violation at V=1 for n={n}, {strategy!r}", top.s_max)
    if not top.converged:
        raise ConvergenceError(
            f"no converged maximum at V=1 for n={n}, {strategy!r}")
    if isinstance(strategy, Parity):
        return (2.0 / top.s_max) ** (1.0 / n)
    beta = top.beta
    s, _, _, s_v = _chsh_derivatives(beta, 1.0, n, strategy)[:4]
    visibility = min(max(1.0 - (s - 2.0) / s_v, 0.5), 1.0)
    for _ in range(_NEWTON_RESTARTS):
        beta, visibility, converged = _threshold_newton(
            n, strategy, beta, visibility)
        check = max_chsh(n, visibility, strategy)
        if converged and check.converged and check.s_max <= 2.0 + 1e-12:
            return float(visibility)
        beta = check.beta
    raise ConvergenceError(
        f"no critical visibility found for n={n}, {strategy!r}")


def critical_pairs(visibility: float, strategy: BinningStrategy,
                   n_max: int = N_MAX):
    """Largest pair count still violating CHSH at the given visibility.

    Exponential growth then binary search, relying on the monotonicity of
    the critical visibility in n.  Returns EXCEEDS_CAP when n_max itself
    still violates.  Raises InvalidArgumentError unless n_max is an
    integer >= 1.
    """
    if not 0.0 < visibility <= 1.0:
        raise InvalidArgumentError(
            f"visibility {visibility!r} outside (0, 1]")
    if not isinstance(n_max, (int, np.integer)) or n_max < 1:
        raise InvalidArgumentError(
            f"n_max must be an integer >= 1, got {n_max!r}")

    def violates(n: int) -> bool:
        return max_chsh(n, visibility, strategy).s_max > 2.0

    first = max_chsh(1, visibility, strategy)
    if first.s_max <= 2.0:
        raise NoViolationError(
            f"no violation even at n=1 for V={visibility}", first.s_max)
    lo = 1
    while lo < n_max and violates(hi := min(2 * lo, n_max)):
        lo = hi
    if lo == n_max:  # n_max still violating
        return EXCEEDS_CAP
    while hi - lo > 1:  # violates(lo) True, violates(hi) False
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if violates(mid) else (lo, mid)
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
                               width: float = 1e-5) -> CriticalCurve:
    """Critical visibility over a range of n, fitted to 1 - c1/n + c2/n^2.

    width is the slack of the monotone check: the curve is monotone if
    no V_c falls by more than width from one n to the next.  Raises
    InvalidArgumentError unless width is a finite positive number.
    """
    if not (math.isfinite(width) and width > 0.0):
        raise InvalidArgumentError(
            f"width must be a finite positive number, got {width!r}")
    points = tuple((int(n), critical_visibility(int(n), strategy))
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
    # A grid of n = 1 alone keeps it: both binnings are then the identity
    # and tie, where an empty grid would make majority win.
    odd = [n for n in n_values if n % 2 == 1 and n >= 3]
    multi = [n for n in n_values if n >= 2]
    return odd or multi or n_values


def _maxima(n: int, visibility: float) -> tuple:
    """(majority, parity) max_chsh results at one grid point."""
    return (max_chsh(n, visibility, Majority()),
            max_chsh(n, visibility, Parity()))


def _parity_advantage(maxima: dict) -> tuple:
    """Largest parity-minus-majority gap over {n: _maxima(n, ...)}, and
    the n that has it."""
    return max((par.s_max - maj.s_max, n) for n, (maj, par) in maxima.items())


def binning_comparison(v_values, n_values) -> BinningComparison:
    """Tabulate both strategies on a grid and locate the parity crossover.

    The crossover V* is where, for some tie-free (odd) n in the grid, the
    parity maximum first exceeds the majority maximum; a grid without
    such n uses its n >= 2, and one of n = 1 alone ties.  The winners come
    from the table.  V* is the root of the parity advantage a(V) in the
    first bracketing pair of grid visibilities, by `_bracketed_newton`
    from their false-position point, to rounding.  By the envelope
    theorem, a'(V) is dS/dV of the two maxima at the arg-max n, at their
    own settings.
    """
    v_values = [float(v) for v in v_values]
    n_values = [int(n) for n in n_values]
    if not v_values or not n_values:
        raise InvalidArgumentError("grids must be nonempty")
    table = {(v, n): _maxima(n, v) for v in v_values for n in n_values}
    rows = tuple((v, n, table[v, n][0].s_max, table[v, n][1].s_max)
                 for v in v_values for n in n_values)
    n_grid = _crossover_n_grid(n_values)
    advantages = [_parity_advantage({n: table[v, n] for n in n_grid})[0]
                  for v in v_values]
    winners = tuple(
        (v, "parity" if adv > 0.0 else "majority" if adv < 0.0 else "tie")
        for v, adv in zip(v_values, advantages))

    def advantage(v):
        maxima = {n: _maxima(n, v) for n in n_grid}
        gap, n = _parity_advantage(maxima)
        maj, par = maxima[n]
        slope = (_chsh_derivatives(par.beta, v, n, Parity())[3]
                 - _chsh_derivatives(maj.beta, v, n, Majority())[3])
        return gap, slope

    crossover = None
    for (v_lo, adv_lo), (v_hi, adv_hi) in zip(zip(v_values, advantages),
                                              zip(v_values[1:], advantages[1:])):
        if adv_lo <= 0.0 < adv_hi:
            start = v_lo - adv_lo * (v_hi - v_lo) / (adv_hi - adv_lo)
            crossover = _bracketed_newton(
                advantage, min(max(start, v_lo), v_hi), v_lo, v_hi)[0]
            break
    return BinningComparison(rows=rows, winners=winners, crossover=crossover)
