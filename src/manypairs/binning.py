"""Local binnings of collective counts and the resulting CHSH value.

Two binnings map a count in {0..n} to a sign: majority vote against the
threshold n/2 (with a configurable even-n tie policy) and parity of the
count.  Binned correlators feed the CHSH combination
S = E11 + E12 + E21 - E22.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .collective import CountDistribution
from .errors import InvalidArgumentError

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


def bin_count(a: int, n: int, strategy: BinningStrategy,
              rng: np.random.Generator | None = None) -> int:
    """Bin one count into +1/-1; randomized ties need an rng to draw from."""
    if not 0 <= a <= n:
        raise InvalidArgumentError(f"count {a} outside 0..{n}")
    s = sign_vector(n, strategy)[int(a)]
    if s == 0.0:
        if rng is None:
            raise InvalidArgumentError(
                "randomized tie encountered but no rng supplied")
        return 1 if rng.integers(2) else -1
    return int(s)


def binned_correlator(dist: CountDistribution, x: int, y: int,
                      strategy: BinningStrategy) -> float:
    """E^(n) = <sign_A * sign_B> under the count distribution."""
    s = sign_vector(dist.n, strategy)
    p = dist.matrix(x, y)
    return float(s @ p @ s)


@dataclass(frozen=True)
class ChshEstimate:
    """A CHSH value with its four correlators and optional error bar."""

    s: float
    correlators: tuple[float, float, float, float]
    n: int | None = None
    sigma: float | None = None

    @property
    def violation(self) -> bool:
        return self.s > 2.0


def chsh_value(correlators, n: int | None = None,
               sigma: float | None = None) -> ChshEstimate:
    """Combine four binned correlators (E11, E12, E21, E22) into S."""
    e11, e12, e21, e22 = (float(v) for v in correlators)
    for v in (e11, e12, e21, e22):
        if not math.isfinite(v) or abs(v) > 1.0 + 1e-9:
            raise InvalidArgumentError(f"correlator {v!r} outside [-1, 1]")
    s = e11 + e12 + e21 - e22
    return ChshEstimate(s=s, correlators=(e11, e12, e21, e22), n=n, sigma=sigma)


def chsh_from_counts(dist: CountDistribution,
                     strategy: BinningStrategy) -> ChshEstimate:
    """CHSH value of a count distribution under the given binning."""
    es = tuple(binned_correlator(dist, x, y, strategy)
               for (x, y) in ((1, 1), (1, 2), (2, 1), (2, 2)))
    return chsh_value(es, n=dist.n)


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
