"""Measurement settings and single-pair statistics of a noisy singlet source.

A planar measurement direction is a single angle in the z-x plane.  All
single-pair physics is carried by four correlators (one per setting pair)
plus optional per-party marginal biases; from those the 2x2 joint outcome
distribution of a pair is reconstructed exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleStatisticsError, InvalidArgumentError

#: The four (x, y) setting-pair labels, in canonical order.
SETTING_PAIRS = ((1, 1), (1, 2), (2, 1), (2, 2))

#: Absolute tolerance for probability/correlator identities.
ATOL = 1e-12


def normalize_angle(theta: float) -> float:
    """Map an angle to the canonical range (-pi, pi]."""
    if not math.isfinite(theta):
        raise InvalidArgumentError(f"angle must be finite, got {theta!r}")
    out = math.remainder(theta, 2.0 * math.pi)
    if out <= -math.pi:  # remainder returns [-pi, pi]; fold -pi to +pi
        out += 2.0 * math.pi
    return out


@dataclass(frozen=True)
class MeasurementSettings:
    """Four planar analyzer angles: Alice's and Bob's settings 1 and 2."""

    theta_a1: float
    theta_a2: float
    theta_b1: float
    theta_b2: float

    def __post_init__(self):
        for name in ("theta_a1", "theta_a2", "theta_b1", "theta_b2"):
            object.__setattr__(self, name, normalize_angle(getattr(self, name)))

    def alice(self, x: int) -> float:
        return self.theta_a1 if x == 1 else self.theta_a2

    def bob(self, y: int) -> float:
        return self.theta_b1 if y == 1 else self.theta_b2

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.theta_a1, self.theta_a2, self.theta_b1, self.theta_b2)


def settings_from_beta(beta: float) -> MeasurementSettings:
    """One-parameter settings family: (0, 2*beta, beta, -beta).

    Raises InvalidArgumentError unless beta and 3 * beta are finite, as
    `optimize.family_chsh` does.
    """
    if not (isinstance(beta, (int, float)) and math.isfinite(3.0 * beta)):
        raise InvalidArgumentError(
            f"beta and 3 * beta must be finite, got {beta!r}")
    return MeasurementSettings(0.0, 2.0 * beta, beta, -beta)


@dataclass(frozen=True)
class CorrelatorTable:
    """Single-pair correlators per setting pair, plus marginal biases.

    ``e_xy`` is Prob(a=b) - Prob(a!=b) for settings (x, y); the ``marg_*``
    fields are the mean outcome biases of each local setting (default 0,
    i.e. uniformly random marginals).
    """

    e11: float
    e12: float
    e21: float
    e22: float
    marg_a1: float = 0.0
    marg_a2: float = 0.0
    marg_b1: float = 0.0
    marg_b2: float = 0.0

    def __post_init__(self):
        for name in ("e11", "e12", "e21", "e22",
                     "marg_a1", "marg_a2", "marg_b1", "marg_b2"):
            v = getattr(self, name)
            # false for NaN, and exact for an integer too large for a float
            if not abs(v) <= 1.0 + ATOL:
                raise InvalidArgumentError(f"{name}={v!r} must lie in [-1, 1]")

    def correlator(self, x: int, y: int) -> float:
        return {(1, 1): self.e11, (1, 2): self.e12,
                (2, 1): self.e21, (2, 2): self.e22}[(x, y)]

    def marginal_a(self, x: int) -> float:
        return self.marg_a1 if x == 1 else self.marg_a2

    def marginal_b(self, y: int) -> float:
        return self.marg_b1 if y == 1 else self.marg_b2

    def to_json_dict(self) -> dict:
        """Flat JSON form (camelCase marginal keys, the wire format)."""
        return {"e11": self.e11, "e12": self.e12, "e21": self.e21,
                "e22": self.e22, "margA1": self.marg_a1, "margA2": self.marg_a2,
                "margB1": self.marg_b1, "margB2": self.marg_b2}

    @classmethod
    def from_json_dict(cls, d: dict) -> "CorrelatorTable":
        """Inverse of `to_json_dict`; absent marginals are 0.  Raises
        InvalidArgumentError unless `d` is a dict of numbers in [-1, 1]."""
        if not isinstance(d, dict):
            raise InvalidArgumentError(f"correlator table {d!r} is not a dict")
        keys = ("e11", "e12", "e21", "e22", "margA1", "margA2", "margB1",
                "margB2")
        values = [d.get(k, 0.0 if k.startswith("marg") else None)
                  for k in keys]
        for key, value in zip(keys, values):
            # a bool is an int to Python
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise InvalidArgumentError(
                    f"correlator table {key} {value!r} is not a number")
        return cls(*values)


def werner_correlators(settings: MeasurementSettings,
                       visibility: float) -> CorrelatorTable:
    """Correlators of a noisy singlet at the given planar settings.

    Each correlator is ``visibility * cos(thetaA - thetaB)`` (outcome signs
    chosen so that the one-parameter family gives 3 equal positive
    correlators); marginals are unbiased.
    """
    if not (isinstance(visibility, (int, float)) and 0.0 <= visibility <= 1.0):
        raise InvalidArgumentError(
            f"visibility must lie in [0, 1], got {visibility!r}")
    e = {}
    for (x, y) in SETTING_PAIRS:
        e[(x, y)] = visibility * math.cos(settings.alice(x) - settings.bob(y))
    return CorrelatorTable(e11=e[(1, 1)], e12=e[(1, 2)],
                           e21=e[(2, 1)], e22=e[(2, 2)])


#: (-1)^a, (-1)^b and (-1)^(a+b) over the cells [a, b] of a 2x2 joint.
_SIGN_A = np.array([[1.0, 1.0], [-1.0, -1.0]])
_SIGN_B = _SIGN_A.T
_SIGN_AB = _SIGN_A * _SIGN_B


def joint_table(table: CorrelatorTable) -> np.ndarray:
    """Reconstruct the 2x2 joint p(a,b) per setting pair from the table.

    p(a,b) = (1 + (-1)^a margA + (-1)^b margB + (-1)^(a+b) e) / 4.
    Returns a read-only (4, 2, 2) array indexed [pair, a, b], the pairs
    in SETTING_PAIRS order and a, b in {0, 1}.  Raises
    InfeasibleStatisticsError if any cell would be negative.
    """
    e = [table.correlator(x, y) for (x, y) in SETTING_PAIRS]
    ma = [table.marginal_a(x) for (x, _) in SETTING_PAIRS]
    mb = [table.marginal_b(y) for (_, y) in SETTING_PAIRS]
    corr, marg_a, marg_b = np.array([e, ma, mb])[:, :, None, None]
    p = (1.0 + _SIGN_A * marg_a + _SIGN_B * marg_b + _SIGN_AB * corr) / 4.0
    lowest = p.min(axis=(1, 2))
    if lowest.min() < -ATOL:
        i = int(np.argmax(lowest < -ATOL))  # the first infeasible pair
        x, y = SETTING_PAIRS[i]
        raise InfeasibleStatisticsError(
            f"setting pair ({x},{y}): e={e[i]}, margA={ma[i]}, "
            f"margB={mb[i]} imply a negative probability ({lowest[i]:.3e})")
    p = np.maximum(p, 0.0)
    p.setflags(write=False)
    return p
