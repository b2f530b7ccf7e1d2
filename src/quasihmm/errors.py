"""Exception hierarchy shared across the package.

Every error raised on purpose derives from :class:`QuasiHmmError` so callers
(and the CLI) can distinguish library failures from programming mistakes.
"""

from __future__ import annotations


class QuasiHmmError(Exception):
    """Base class for all errors raised by this package."""


# --- linear algebra ---------------------------------------------------------

class NonFiniteEntries(QuasiHmmError):
    """Input contains NaN or infinite entries."""


class NoUnitEigenvalue(QuasiHmmError):
    """No eigenvalue lies within tolerance of 1."""


class DegenerateFixedSpace(QuasiHmmError):
    """The eigenvalue-1 eigenspace has multiplicity greater than one."""


class SingularMatrix(QuasiHmmError):
    """Matrix is singular (or numerically singular) where invertibility is required."""


class NotSymmetric(QuasiHmmError):
    """Matrix is not symmetric within tolerance."""


# --- machines ---------------------------------------------------------------

class UnknownSymbol(QuasiHmmError):
    """A word contains a symbol outside the machine alphabet."""


class EnumerationCapExceeded(QuasiHmmError):
    """Requested word enumeration exceeds the configured cap."""


class MachineFormatError(QuasiHmmError):
    """Machine definition file is malformed."""


# --- processes --------------------------------------------------------------

class DegenerateParameter(QuasiHmmError):
    """Parameter value at which the requested model collapses or is undefined."""


class TruncationTooCoarse(QuasiHmmError):
    """Series truncation leaves more tail mass than the configured bound."""


class TruncationTooLarge(QuasiHmmError):
    """Series truncation needs more states than the configured cap."""


class UnsupportedProcess(QuasiHmmError):
    """No closed form is available for the requested process."""


# --- measures ---------------------------------------------------------------

class InvalidAlpha(QuasiHmmError):
    """Renyi order outside the supported range."""


class NegativeEntriesUnsupportedOrder(QuasiHmmError):
    """Quasiprobability input passed to a Renyi order other than 2."""


class ZeroEntryWithQuasiOrder(QuasiHmmError):
    """Quasiprobability input has (near-)zero entries, where the collision
    entropy of a signed distribution is defined only for nonzero components."""


class NegativeConditional(QuasiHmmError):
    """Conditional distribution with negative entries where a classical one is
    required (the half-order mutual information is complex otherwise)."""


class QuasiMachineUnsupported(QuasiHmmError):
    """Operation defined only for machines with nonnegative transitions."""


class ZeroBaseline(QuasiHmmError):
    """Relative memory advantage is undefined for a zero classical baseline."""


# --- quantum ----------------------------------------------------------------

class NotConverged(QuasiHmmError):
    """Horizon-truncated quantity did not converge below the requested residual."""


class NonPSD(QuasiHmmError):
    """Gram/density spectrum has a negative eigenvalue beyond tolerance."""


class IsometryViolated(QuasiHmmError):
    """Transition amplitudes do not preserve state overlaps."""


class StationaryMismatch(QuasiHmmError):
    """Provided stationary vector is not fixed by the transition matrix."""


# --- splitting construction ------------------------------------------------

class SpecMismatch(QuasiHmmError):
    """Split specification inconsistent with the source machine."""


class PropertyViolated(QuasiHmmError):
    """A built split machine fails one of its defining identities."""

    def __init__(self, report):
        self.report = report
        super().__init__(str(report))


class NoFeasiblePoint(QuasiHmmError):
    """Optimizer found no parameters satisfying the memory lower bound."""


class NegativeRadicand(QuasiHmmError):
    """Closed-form parameter formula requires the square root of a negative number."""
