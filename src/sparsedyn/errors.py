"""Exception taxonomy shared across the package.

The CLI maps these onto distinct exit codes, so raise the most specific
class available.
"""

from dataclasses import fields

import numpy as np


class SpecError(ValueError):
    """A configuration, library, optimizer, or method spec is invalid."""


class DataError(ValueError):
    """Measured data violates a shape, finiteness, or grid contract."""


class FitError(RuntimeError):
    """A fit could not be completed (infeasible constraints, solver failure)."""


def check_finite(spec, *names: str) -> None:
    """Raise ``SpecError`` if a field of the dataclass ``spec`` (the named
    ones, else all) is NaN or infinite: NaN passes every range check, and
    either one fails later with a misleading error or a quiet result."""
    for name in names or [f.name for f in fields(spec)]:
        value = getattr(spec, name)
        if value is not None and not np.isfinite(value).all():
            raise SpecError(f"{type(spec).__name__} {name} must be finite, got {value}")
