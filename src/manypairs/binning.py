"""Local binnings of collective counts and the resulting CHSH value.

Two binnings map a count in {0..n} to a sign: majority vote against the
threshold n/2 (with a configurable even-n tie policy) and parity of the
count.  Binned correlators feed the CHSH combination
S = E11 + E12 + E21 - E22.  `table_chsh` gives the exact value for n
independent pairs of any feasible correlator table.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError
from .pairstats import CorrelatorTable, joint_table

#: Large-n ceiling of the parity-binned CHSH value at unit visibility.
PARITY_S_LIMIT = 8.0 * 3.0 ** (-9.0 / 8.0)

#: Scale of the optimal one-parameter angle, beta ~ PARITY_BETA_SCALE / sqrt(n).
PARITY_BETA_SCALE = math.sqrt(math.log(3.0)) / 2.0


class TiePolicy(enum.Enum):
    """How a majority vote resolves the even-n tie count a = n/2."""

    TIE_TO_MINUS = "minus"
    TIE_TO_PLUS = "plus"
    RANDOMIZED = "randomized"


@dataclass(frozen=True)
class Majority:
    tie_policy: TiePolicy = TiePolicy.TIE_TO_MINUS


@dataclass(frozen=True)
class Parity:
    pass


#: A binning strategy is either Majority(tie_policy) or Parity().
BinningStrategy = Majority | Parity


def sign_vector(n: int, strategy: BinningStrategy) -> np.ndarray:
    """Binned sign for every count 0..n; randomized ties map to 0.

    The 0 encodes a fair +-1 coin whose mean contribution to any
    correlator vanishes, so deterministic downstream sums stay exact.
    """
    counts = np.arange(n + 1)
    if isinstance(strategy, Parity):
        return np.where(counts % 2 == 0, 1.0, -1.0)
    t = n / 2.0
    s = np.where(counts > t, 1.0, -1.0)
    if n % 2 == 0:
        if strategy.tie_policy is TiePolicy.TIE_TO_PLUS:
            s[n // 2] = 1.0
        elif strategy.tie_policy is TiePolicy.RANDOMIZED:
            s[n // 2] = 0.0
    return s


@dataclass(frozen=True)
class ChshEstimate:
    """A CHSH value with its four correlators."""

    s: float
    correlators: tuple[float, float, float, float]
    n: int | None = None

    @property
    def violation(self) -> bool:
        return self.s > 2.0


def chsh_value(correlators, n: int | None = None) -> ChshEstimate:
    """Combine four binned correlators (E11, E12, E21, E22) into S."""
    e11, e12, e21, e22 = (float(v) for v in correlators)
    for v in (e11, e12, e21, e22):
        if not math.isfinite(v) or abs(v) > 1.0 + 1e-9:
            raise InvalidArgumentError(f"correlator {v!r} outside [-1, 1]")
    s = e11 + e12 + e21 - e22
    return ChshEstimate(s=s, correlators=(e11, e12, e21, e22), n=n)


#: log(c!) - c log(c) + c for c = 0..15, with 0 log(0) = 0.
_SMALL_LOG_FACTORIAL_REMAINDER = np.array(
    [math.lgamma(c + 1.0) - (c * math.log(c) if c else 0.0) + c
     for c in range(16)])


def _log_factorial_remainder(c: np.ndarray) -> np.ndarray:
    """log(c!) - c log(c) + c for counts c >= 0.

    Below c = 16 the value comes from a table.  Stirling's series from
    c = 16 on avoids subtracting c log(c) from log(c!), which at c = 1000
    loses about 1e-12.
    """
    big = np.maximum(c, 16.0)
    r = 1.0 / big
    r2 = r * r
    series = 0.5 * np.log(2.0 * math.pi * big) + r * (
        1 / 12 - r2 * (1 / 360 - r2 * (1 / 1260 - r2 * (1 / 1680
                                                       - r2 / 1188))))
    small = _SMALL_LOG_FACTORIAL_REMAINDER[np.minimum(c, 15).astype(np.intp)]
    return np.where(c < 16, small, series)


def table_chsh(table: CorrelatorTable, n: int,
               strategy: BinningStrategy) -> ChshEstimate:
    """Exact binned CHSH value of n independent pairs with this table.

    Any feasible table works, biased marginals included.  Given that a
    of Alice's n outcomes are 1, i of them with Bob's outcome 1, Bob's
    count is i + Bin(n - a, q0), q0 = P(B=1 | A=0).  The recursion
    H_0 = g, H_{r+1}(i) = (1 - q0) H_r(i) + q0 H_r(i + 1) gives
    H_r(i) = E[g(i + Bin(r, q0))], so

        E[f(A) g(B)] = sum_a f(a) sum_i P(a, i) H_{n-a}(i),

    with P(a, i) the trinomial pmf of the counts (n - a, i, a - i) of
    A = 0, (A, B) = (1, 1) and (A, B) = (1, 0).  This takes O(n^2) time
    and O(n) memory, all four setting pairs at once, and every step of
    H is a convex combination.  Raises InvalidArgumentError for n < 1
    and InfeasibleStatisticsError for an infeasible table.
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise InvalidArgumentError(f"pair count n must be >= 1, got {n!r}")
    n = int(n)
    p = joint_table(table)
    p_a0 = p[:, 0, 0] + p[:, 0, 1]
    q0 = np.divide(p[:, 0, 1], p_a0, out=np.zeros(4), where=p_a0 > 0.0)
    # log P(a, i) = log(n!) - n log(n) + n + the terms of the three counts,
    # each -(c log(c / (n prob)) + log(c!) - c log(c) + c); near the mean
    # a term is of order sqrt(n), where log(c!) is of order n log(n)
    c = np.arange(n + 1.0)
    z = _log_factorial_remainder(c)
    m = n * np.stack([p[:, 1, 1], p[:, 1, 0], p_a0])[:, :, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        kl = c * np.log1p((c - m) / m)
    kl[:, :, 0] = 0.0
    up, down, rest = -(kl + z)
    # log P(a, i) = up[i] + down[a - i] + shift[a]
    shift = rest[:, ::-1] + z[n]
    sign = sign_vector(n, strategy)
    h = np.broadcast_to(sign, (4, n + 1))
    stay, move = (1.0 - q0)[:, None], q0[:, None]
    joint_g = np.empty((n + 1, 4))  # joint_g[a] = E[g(B); count_A = a]
    for a in range(n, -1, -1):  # h is H_{n-a}, of length a + 1
        w = up[:, :a + 1] + down[:, a::-1]
        w += shift[:, a, None]
        np.exp(w, out=w)
        w *= h
        np.add.reduce(w, axis=1, out=joint_g[a])
        h = stay * h[:, :-1] + move * h[:, 1:]
    return chsh_value(sign @ joint_g, n=n)


def parity_chsh_analytic(beta: float, visibility: float, n: int) -> float:
    """Closed-form parity-binned CHSH for the one-parameter settings family.

    V^n * (3 cos^n(beta) - cos^n(3 beta)).  Valid for any n >= 1; for
    large n evaluate with exp/log to avoid repeated-multiplication noise.
    """
    if n < 1:
        raise InvalidArgumentError(f"n must be >= 1, got {n!r}")
    if not 0.0 <= visibility <= 1.0:
        raise InvalidArgumentError(f"visibility {visibility!r} outside [0, 1]")

    def powern(c: float) -> float:
        if c == 0.0:
            return 0.0
        mag = math.exp(n * math.log(abs(c)))
        return mag if c > 0.0 or n % 2 == 0 else -mag

    s1 = 3.0 * powern(math.cos(beta)) - powern(math.cos(3.0 * beta))
    return visibility ** n * s1
