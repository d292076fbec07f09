"""Time-indexed sequences with an explicit starting index.

Every sequence produced by the model (substrate, biomass, washout,
correction ratios) lives on an integer time grid that starts at a negative
index -r (the initial history window).  ``TimeSeries`` pairs the raw values
with that starting index so callers never juggle array offsets by hand.
"""

from __future__ import annotations

import math

import numpy as np

from ._records import frozen
from .core import _validate_integer
from .errors import UsageError


def _time(t) -> int:
    """t as an int; a UsageError unless it is an integral number."""
    return _validate_integer("time must be an integer", t, -math.inf, UsageError)


@frozen
class TimeSeries:
    """Immutable sequence ``values[i] = value at time t_start + i``."""

    values: np.ndarray
    t_start: int

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    def __len__(self):
        return len(self.values)

    @property
    def t_end(self) -> int:
        """Last time index covered (inclusive)."""
        return self.t_start + len(self.values) - 1

    def covers(self, t_from: int, t_to: int) -> bool:
        return self.t_start <= t_from and t_to <= self.t_end

    def at(self, t: int) -> float:
        t = _time(t)
        if not self.t_start <= t <= self.t_end:
            raise UsageError(
                f"time {t} outside stored range [{self.t_start}, {self.t_end}]"
            )
        return float(self.values[t - self.t_start])

    def window(self, t_from: int, t_to: int) -> np.ndarray:
        """Values on the inclusive time range [t_from, t_to]."""
        t_from, t_to = _time(t_from), _time(t_to)
        if not self.covers(t_from, t_to):
            raise UsageError(
                f"window [{t_from}, {t_to}] outside stored range "
                f"[{self.t_start}, {self.t_end}]"
            )
        i = t_from - self.t_start
        return self.values[i : i + (t_to - t_from) + 1]

    def times(self) -> np.ndarray:
        return np.arange(self.t_start, self.t_end + 1)
