"""Exception types shared across the library, and the one reader of
structured text configs whose failures they report."""

import json


class ScfoldError(Exception):
    """Base class for all library errors."""


class LevelRangeError(ScfoldError):
    """A regularity level outside the admissible range was requested."""


class NotInQuadrantError(ScfoldError):
    """A point violates the nonnegativity constraints of a partial quadrant."""


class BackendUnsupportedError(ScfoldError):
    """The requested operation is not available for this scale backend."""


class WindowExitError(ScfoldError):
    """A construction left the truncation window of a grid scale."""


class MissingDerivativeError(ScfoldError):
    """No derivative evaluator is available and no fallback was requested."""


class DomainExitError(ScfoldError):
    """An evaluation point left the declared domain."""


class AmbiguousRankError(ScfoldError):
    """Singular values fell inside the guard band; the rank is undecidable."""


class NonIdempotentError(ScfoldError):
    """A projection family or retraction failed the idempotence invariant."""


class DegenerateBasisError(ScfoldError):
    """A supplied basis is numerically degenerate."""


class ImageMismatchError(ScfoldError):
    """Two retractions were compared but their images differ."""


class NonConvergenceError(ScfoldError):
    """An iteration failed to converge within its budget."""


class BiLevelError(ScfoldError):
    """A bundle element violates the bi-level admissibility rule k <= m+1."""


class UnchartedPointError(ScfoldError):
    """A base point lies outside every chart of the model."""


class NotASolutionError(ScfoldError):
    """The point does not solve the multisection equation."""


class ExhaustedAttemptsError(ScfoldError):
    """A randomized search ran out of attempts."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class ConfigError(ScfoldError):
    """A structured text configuration failed validation."""


def check_keys(mapping, allowed, what):
    """Raise ConfigError naming the keys of mapping outside allowed."""
    unknown = set(mapping) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown {what}: {sorted(unknown)}")


def read_config(text_or_dict, allowed, what):
    """Parse a JSON text (a mapping is copied instead) and check its top-level
    keys; parse errors report line and column."""
    if isinstance(text_or_dict, str):
        try:
            cfg = json.loads(text_or_dict)
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"config parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
            ) from exc
    else:
        cfg = dict(text_or_dict)
    check_keys(cfg, allowed, what)
    return cfg
