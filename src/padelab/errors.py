"""Exception taxonomy shared by the whole package.

Validation and usage problems derive from :class:`UsageError`; numerical
failures (iteration caps, unreachable tolerances) derive from
:class:`NumericalError`.  The CLI maps the former to exit code 2 and the
latter to exit code 3.
"""

from __future__ import annotations


class PadeLabError(Exception):
    """Base class for all package errors."""


class UsageError(PadeLabError):
    """Bad parameters, malformed input, unsupported requests."""


class NumericalError(PadeLabError):
    """A numerical procedure failed to reach its target."""


class InvalidParameterError(UsageError, ValueError):
    """A scalar or structural parameter is outside its admissible set."""


class OutOfRangeError(UsageError, IndexError):
    """An index or size exceeds what the data provides."""


class DomainError(UsageError, ValueError):
    """Evaluation requested outside the object's domain of validity."""


class SeriesFormatError(UsageError, ValueError):
    """A series or approximant file failed to parse or validate."""


class InvalidInputError(UsageError, ValueError):
    """A matrix or vector argument has the wrong shape or content."""


class UnsupportedInputError(UsageError, TypeError):
    """The operation does not support this kind of input."""


class UnsupportedSizeError(UsageError, ValueError):
    """The request exceeds a documented size cap."""


class ConvergenceError(NumericalError, RuntimeError):
    """An iteration hit its cap before meeting its tolerance."""


class RankDeficiencyError(PadeLabError, ValueError):
    """An exact elimination found rank below the generic value.

    Carries the exact `rank` and a `basis` of the nullspace (tuple of
    coefficient tuples, each normalized so its first nonzero entry is 1).
    """

    def __init__(self, rank: int, basis: tuple):
        super().__init__(f"rank deficient: rank {rank}, nullspace dimension {len(basis)}")
        self.rank = rank
        self.basis = basis
