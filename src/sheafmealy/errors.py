"""Exception types shared across the package.

Precondition violations raise subclasses of :class:`CheckerError` so callers
can distinguish "your request was malformed" from a negative verdict, which
is always reported through a result object, never an exception.
"""

from __future__ import annotations


class CheckerError(ValueError):
    """Base class for precondition violations."""


class MalformedDocument(CheckerError):
    """An input document lacks a field or holds a value of the wrong shape."""


class EmptyInterface(CheckerError):
    """A top-level system has an empty input or output set."""


class PartialDynamics(CheckerError):
    """The dynamics table misses some (state, input) pair."""


class ForeignElement(CheckerError):
    """The dynamics table mentions an identifier outside the carriers."""


class InterfaceMismatch(CheckerError):
    """An operation requires systems sharing one input/output interface."""


class HeterogeneousInput(CheckerError):
    """An operation is defined for homogeneous systems only."""


class NotStateless(CheckerError):
    """An operation requires a single-state system."""


class IncompatibleFamily(CheckerError):
    """A family of local sections fails its pairwise compatibility check."""


class Infeasible(CheckerError):
    """No global assignment satisfies the requested tolerance."""


class NegativeEpsilon(CheckerError):
    """Tolerance parameters must be finite and non-negative."""


class EmptyInput(CheckerError):
    """An operation needs at least one data point."""


class ScaleExceeded(CheckerError):
    """The instance is larger than the documented exhaustive-search bound."""


class InternalConsistencyError(RuntimeError):
    """A structural guarantee was violated; indicates a bug, not bad input."""
