"""Exception types shared across the package, and the range rule of every config."""

import math
from dataclasses import fields


class ConfigurationError(ValueError):
    """Invalid generation, training, or run configuration."""


def check_config(config, **bounds) -> None:
    """The one range rule of a config dataclass: every float field must be finite, and each field
    named as ``name=lo`` or ``name=(lo, hi)`` must lie in that closed range, or as ``name=(lo, None)``
    be above ``lo``; None passes. The first field that breaks it raises a ConfigurationError naming it."""
    for f in fields(config):
        value, bound = getattr(config, f.name), bounds.get(f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigurationError(f"{f.name} must be finite, got {value}")
        lo, hi = bound if isinstance(bound, tuple) else (bound, math.inf)
        if lo is not None and value is not None and not (value > lo if hi is None else lo <= value <= hi):
            rule = f"be > {lo}" if hi is None else f"be >= {lo}" if hi == math.inf else f"lie in [{lo}, {hi}]"
            raise ConfigurationError(f"{f.name} must {rule}, got {value}")


class ManifestError(ValueError):
    """Malformed manifest content or corpus integrity violation."""


class ShapeError(ValueError):
    """Feature/model dimension mismatch."""


class FeasibilityError(ValueError):
    """Label sequence cannot be aligned to the given number of frames."""


class TrainingError(RuntimeError):
    """Training aborted; the message names the offending utterance."""


class MetricError(ValueError):
    """Metric undefined for the given input."""


class OracleError(ValueError):
    """Ground truth missing for an utterance on an oracle-only path."""


class InsufficientProbeError(ValueError):
    """Probe set too small for threshold estimation."""
