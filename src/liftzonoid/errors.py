"""Exception types raised by the toolkit.

The CLI maps these onto exit codes: malformed or precondition-violating
input (format, dimension, degeneracy) exits 1; well-posed queries whose
answer does not exist (outside support, zero mass, mean point, no
solution) exit 2.
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


class ZeroMass(LiftZonoidError):
    """Half-space carries no mass, so its barycenter is undefined."""


class OutsideSupport(LiftZonoidError):
    """Point lies outside the support (or below the depth floor)."""


class MeanPoint(LiftZonoidError):
    """Coordinates are undefined at the mean itself."""


class NoDual(LiftZonoidError):
    """No dual direction exists (mean point or outside point)."""


class NoSolution(LiftZonoidError):
    """Inverse problem has no solution in the admissible range."""


class NotConverged(LiftZonoidError):
    """Iterative routine failed to reach its tolerance."""
