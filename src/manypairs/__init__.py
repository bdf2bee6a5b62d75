"""Collective-measurement CHSH toolkit.

Exact and Monte Carlo reproduction of the many-pair Bell scenario:
independent noisy singlet pairs measured collectively, counts binned by
majority vote or parity, the exact CHSH value of any correlator table
(`table_chsh`), CHSH optimized over settings, and the critical
visibility / critical pair-number landscape mapped.
"""

from .binning import (PARITY_BETA_SCALE, PARITY_S_LIMIT, BinningStrategy,
                      ChshEstimate, Majority, Parity, TiePolicy, chsh_value,
                      parity_chsh_analytic, table_chsh)
from .errors import (ConvergenceError, FitError, InfeasibleStatisticsError,
                     IngestionError, InsufficientDataError,
                     InvalidArgumentError, ManyPairsError, NoViolationError)
from .optimize import (EXCEEDS_CAP, BinningComparison, CriticalCurve,
                       OptimizationResult, VcFit, binning_comparison,
                       critical_pairs, critical_visibility, family_chsh,
                       fit_vc_curve, max_chsh, parity_vc_approx,
                       scan_critical_visibilities, violation_ratio)
from .pairstats import (SETTING_PAIRS, CorrelatorTable, MeasurementSettings,
                        joint_table, settings_from_beta, werner_correlators)

__version__ = "0.1.0"
