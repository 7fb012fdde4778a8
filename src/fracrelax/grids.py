"""Uniform time meshes of at most MAX_NODES steps, and sampled functions on them.

Functions are sampled at the offsets t_j - a = j h, never at the rounded
nodes a + j h, which only label the output: a window far from 0 then gives
bitwise the values of the same window at 0.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

__all__ = ["MAX_NODES", "DomainError", "GridMismatchError", "UniformGrid", "GridFunction"]

# Checked wherever a grid is made, so no curve, weight set or oracle solve is
# asked for above it: at the cap the weights plus the solve peak below 100 MB.
MAX_NODES = 1_000_000


class DomainError(ValueError):
    """Argument outside an operator's domain (e.g. t <= a)."""


class GridMismatchError(ValueError):
    """Grids of the operands are incompatible."""


def _check_steps(n) -> None:
    """DomainError unless n is an integer (numpy integers pass), 1 <= n <= MAX_NODES."""
    try:
        steps = operator.index(n)
    except TypeError:
        raise DomainError(f"grid step count must be an integer, got {n!r}") from None
    if steps < 1:
        raise DomainError(f"grid needs at least one step, got n={n}")
    if steps > MAX_NODES:
        raise DomainError(f"grid has {steps} steps, above the cap of {MAX_NODES}")


@dataclass(frozen=True)
class UniformGrid:
    """Nodes t_j = a + j*h, j = 0..n."""

    a: float
    h: float
    n: int

    def __post_init__(self):
        if not math.isfinite(self.a):
            raise DomainError(f"grid start must be finite, got {self.a!r}")
        if not (math.isfinite(self.h) and self.h > 0.0):
            raise DomainError(f"grid step must be positive, got {self.h!r}")
        _check_steps(self.n)
        if not math.isfinite(self.a + self.n * self.h):
            raise DomainError(
                f"grid end {self.a!r} + {self.n} * {self.h!r} overflows double range")

    @property
    def span(self) -> float:
        """Window length T = n*h."""
        return self.n * self.h

    def offsets(self) -> np.ndarray:
        """t_j - a = j h, j = 0..n: where every grid function is sampled."""
        return self.h * np.arange(self.n + 1)

    def times(self) -> np.ndarray:
        """Nodes a + j h, the labels of the samples."""
        return self.a + self.offsets()

    @classmethod
    def from_span(cls, a: float, span: float, n: int) -> "UniformGrid":
        """Grid over [a, a+span] with n steps."""
        _check_steps(n)
        if not span > 0.0:
            raise DomainError(f"span must be positive, got {span!r}")
        return cls(a, span / n, n)


@dataclass
class GridFunction:
    """Real samples on a uniform grid; values[j] = f(t_j).

    ``singular_start=True`` marks node 0 as undefined (stored as NaN); this
    is how operators with an endpoint singularity flag t = a instead of
    fabricating a value there.
    """

    grid: UniformGrid
    values: np.ndarray = field(repr=False)
    singular_start: bool = False

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.n + 1,):
            raise GridMismatchError(
                f"expected {self.grid.n + 1} values, got shape {vals.shape}"
            )
        if self.singular_start:
            if not np.isnan(vals[0]):
                raise DomainError("singular start node must be stored as NaN")
            if not np.all(np.isfinite(vals[1:])):
                raise DomainError("values at t > a must be finite")
        elif not np.all(np.isfinite(vals)):
            raise DomainError("values must all be finite")
        self.values = vals

    def defined_values(self) -> np.ndarray:
        """Values on the defined nodes (drops node 0 when flagged singular)."""
        return self.values[1:] if self.singular_start else self.values
