"""Exception types shared across the package."""


class MNSeriesError(Exception):
    """Base class for all package errors."""


class MalformedSpec(MNSeriesError):
    """A ring/group/twist specification is structurally invalid."""


class AxiomViolation(MNSeriesError):
    """Supplied operation tables fail the ring axioms."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class NotAutomorphism(MNSeriesError):
    """A candidate map fails the automorphism conditions."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class RingMismatch(MNSeriesError):
    """Operands belong to different rings."""


class SizeCapExceeded(MNSeriesError):
    """An exhaustive scan was requested beyond the configured cap; `bounds`
    names the cap, e.g. {"universe_cap": 4096}."""

    def __init__(self, message, bounds):
        super().__init__(message)
        self.bounds = bounds


class DuplicateKey(MNSeriesError):
    """A series constructor received two coefficients for one exponent."""


class TwistMismatch(MNSeriesError):
    """Series operands belong to different twist systems."""


class PreconditionFail(MNSeriesError):
    """A harness precondition does not hold for the given inputs."""


class NotNormalized(PreconditionFail):
    """Operation requires a normalized twist (sigma_1 = id, tau(1,x) = tau(x,1) = 1)."""


class ZeroElement(MNSeriesError):
    """Fusible decomposition requested for the zero element."""


class NotFusibleRing(PreconditionFail):
    """Base ring is not left fusible."""


class NotSigmaCompatible(PreconditionFail):
    """Base ring (or ideal) fails sigma-compatibility."""


class HypothesisFails(MNSeriesError):
    """The quotient hypothesis of a zip argument fails, with a witness."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class TraceMismatch(MNSeriesError):
    """A derivation step's claimed membership failed direct re-evaluation."""

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


class SuiteUnknown(MNSeriesError):
    """Requested verification suite does not exist."""


class ParseError(MNSeriesError):
    """Fixture file does not parse."""


class ValidationError(MNSeriesError):
    """Fixture parsed but failed an invariant; message names the invariant."""
