"""Exception types raised by the toolkit.

The CLI maps these onto exit codes: a ``DomainCondition``, a well-posed
query whose answer does not exist (outside support, zero mass, mean
point, no solution), exits 2; every other package error is malformed or
precondition-violating input (format, dimension, degeneracy) and exits 1.
"""

from __future__ import annotations


class LiftZonoidError(Exception):
    """Base class for all package errors."""


class DomainError(LiftZonoidError, ValueError):
    """Scalar argument outside the mathematical domain of a function."""


class NonFinite(LiftZonoidError, ValueError):
    """A vector or scalar input contains NaN or infinity."""


class DimensionMismatch(LiftZonoidError, ValueError):
    """Operands live in different dimensions."""


class WrongDimension(DimensionMismatch):
    """Operation defined only for a specific ambient dimension."""


class InputFormatError(LiftZonoidError, ValueError):
    """Malformed CSV/JSON input; message names the offending location."""


class DegenerateMeasure(LiftZonoidError):
    """Measure does not span the ambient space (or covariance is singular)."""


class DomainCondition(LiftZonoidError):
    """A well-posed query whose answer does not exist."""


class ZeroMass(DomainCondition):
    """Half-space carries no mass, so its barycenter is undefined."""


class OutsideSupport(DomainCondition):
    """Point lies outside the support (or below the depth floor)."""


class MeanPoint(DomainCondition):
    """Coordinates are undefined at the mean itself."""


class NoDual(DomainCondition):
    """No dual direction exists (mean point or outside point)."""


class NoSolution(DomainCondition):
    """Inverse problem has no solution in the admissible range."""


class NotConverged(DomainCondition):
    """Iterative routine failed to reach its tolerance."""
