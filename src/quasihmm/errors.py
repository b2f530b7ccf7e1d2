"""Exception hierarchy shared across the package.

Every error raised on purpose derives from :class:`QuasiHmmError` so callers
(and the CLI) can distinguish library failures from programming mistakes.
Each class derives from exactly one of the three failure classes below,
whose ``exit_code`` is the CLI's exit status for it.
"""

from __future__ import annotations


class QuasiHmmError(Exception):
    """Base class for all errors raised by this package."""

    #: the CLI's exit status, set by the three failure classes below
    exit_code: int


class ValidationError(QuasiHmmError):
    """Input that is malformed, out of range or too large to process."""

    exit_code = 2


class UnsupportedError(QuasiHmmError):
    """A well-formed request for something undefined on the given input."""

    exit_code = 3


class NumericalError(QuasiHmmError):
    """A computation that failed numerically."""

    exit_code = 4


# --- linear algebra ---------------------------------------------------------

class NonFiniteEntries(ValidationError):
    """Input contains NaN or infinite entries."""


class NoUnitEigenvalue(NumericalError):
    """No eigenvalue lies within tolerance of 1."""


class DegenerateFixedSpace(NumericalError):
    """The eigenvalue-1 eigenspace has multiplicity greater than one."""


class SingularMatrix(NumericalError):
    """Matrix is singular (or numerically singular) where invertibility is required."""


# --- machines ---------------------------------------------------------------

class UnknownSymbol(ValidationError):
    """Two machines compared as processes have different alphabets."""


class EnumerationCapExceeded(NumericalError):
    """Requested word enumeration exceeds ``machine.ENUMERATION_CAP`` words."""


class MachineFormatError(ValidationError):
    """Machine definition file is malformed."""


# --- processes --------------------------------------------------------------

class DegenerateParameter(ValidationError):
    """Parameter value at which the requested model collapses or is undefined."""


class TruncationTooCoarse(ValidationError):
    """Series truncation leaves more tail mass than the configured bound."""


class TruncationTooLarge(ValidationError):
    """Series truncation needs more states than the configured cap."""


class UnsupportedProcess(ValidationError):
    """A sweep names a process that has no column table."""


# --- measures ---------------------------------------------------------------

class InvalidAlpha(UnsupportedError):
    """Renyi order outside the supported range."""


class NegativeEntriesUnsupportedOrder(UnsupportedError):
    """Quasiprobability input passed to a Renyi order other than 2."""


class ZeroEntryWithQuasiOrder(UnsupportedError):
    """Quasiprobability input has (near-)zero entries, where the collision
    entropy of a signed distribution is defined only for nonzero components."""


class NegativeConditional(UnsupportedError):
    """Conditional distribution with negative entries where a classical one is
    required (the half-order mutual information is complex otherwise)."""


class QuasiMachineUnsupported(UnsupportedError):
    """Operation defined only for machines with nonnegative transitions."""


# --- quantum ----------------------------------------------------------------

class NonPSD(NumericalError):
    """Gram/density spectrum has a negative eigenvalue beyond tolerance."""


class IsometryViolated(NumericalError):
    """Transition amplitudes do not preserve state overlaps."""


class StationaryMismatch(ValidationError):
    """Provided stationary vector is not fixed by the transition matrix."""


# --- splitting construction ------------------------------------------------

class SpecMismatch(ValidationError):
    """Split specification inconsistent with the source machine."""


class PropertyViolated(NumericalError):
    """A built split machine fails one of its defining identities."""

    def __init__(self, report):
        self.report = report
        super().__init__(str(report))


class NoFeasiblePoint(NumericalError):
    """Optimizer found no parameters satisfying the memory lower bound."""


class NegativeRadicand(NumericalError):
    """Closed-form parameter formula requires the square root of a negative number."""
