"""Selective sampling for halfspaces with shrinking hypothesis balls.

The learner runs in epochs: it scans an unlabeled stream, queries labels
only inside the current margin band, refits by either exact 0-1 ERM (2-D)
or ball-constrained convex surrogate ERM, then halves the band.  The
package also ships the synthetic data models, label-budget formulas, and
Monte Carlo checks used to verify the method's claimed behavior.
"""

from . import data_models, driver, geometry, harness, losses, solvers, streams
from .data_models import DataModel, LabeledExample, RiskEstimate
from .driver import (
    ConvexUpdate,
    FinitePool,
    RunRecord,
    ScheduleParams,
    ZeroOneUpdate,
    run_active,
    run_passive,
)
from .errors import HalfspaceActiveError
from .geometry import HypothesisBall, UnitVector, normalize, should_query
from .harness import ExperimentConfig, label_complexity_curve
from .losses import SurrogateLoss, get_loss

__version__ = "0.1.0"

__all__ = [
    "data_models", "driver", "geometry", "harness", "losses", "solvers", "streams",
    "DataModel", "LabeledExample", "RiskEstimate",
    "ConvexUpdate", "FinitePool", "RunRecord", "ScheduleParams", "ZeroOneUpdate",
    "run_active", "run_passive",
    "HalfspaceActiveError",
    "HypothesisBall", "UnitVector", "normalize", "should_query",
    "ExperimentConfig", "label_complexity_curve",
    "SurrogateLoss", "get_loss",
]
