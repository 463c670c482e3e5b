"""Exception hierarchy for the toolkit.

Validation problems (bad specs, out-of-range parameters) and numerical
failures (singularities, degenerate geometry, stalled iterations) are kept
in separate branches so the CLI can map them to distinct exit codes.  A
subclass exists only where code catches it by name or reads a field of it;
every other failure raises its branch's base with a message that names it.
"""

import functools


class AlphaSurfError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(AlphaSurfError):
    """Bad input: violated spec invariant, malformed file, unknown flag."""


def reads_spec(fn):
    """Decorate a reader of spec dicts: nesting deeper than the reader can
    recurse is bad input."""

    @functools.wraps(fn)
    def reader(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except RecursionError:
            raise ValidationError("spec is nested too deep") from None

    return reader


class NumericalError(AlphaSurfError):
    """A computation hit a singular or degenerate configuration."""


class OriginInFaceError(NumericalError):
    """A triangle centroid coincides with the origin; ``flow.descend``
    rejects the candidate step that made it."""


class FlowError(NumericalError):
    """Gradient descent failed at step ``step``."""

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step
