"""Exception hierarchy shared by all floerss modules.

Every domain error carries a structured ``payload`` dict so the CLI can emit
machine-readable error objects.
"""


class FloerssError(Exception):
    """Base class for all domain errors."""

    def __init__(self, message, **payload):
        super().__init__(message)
        self.payload = dict(payload)

    def as_dict(self):
        return {"error": type(self).__name__, "message": str(self), **self.payload}


# -- linear algebra / frames -------------------------------------------------

class NotFullRank(FloerssError):
    pass


class NotIsotropic(FloerssError):
    pass


class DimensionMismatch(FloerssError):
    pass


class NotSymmetric(FloerssError):
    pass


class StepTooLarge(FloerssError):
    pass


class IntegrationFailure(FloerssError):
    pass


# -- Lagrangian paths / indices ----------------------------------------------

class GridTooCoarse(FloerssError):
    pass


class GraphDecompositionFailed(FloerssError):
    pass


class DegenerateCrossing(FloerssError):
    pass


class NonIsolatedCrossings(FloerssError):
    pass


class NotALoop(FloerssError):
    pass


class EndpointMismatch(FloerssError):
    pass


# -- spectra -------------------------------------------------------------------

class WindowTooSmall(FloerssError):
    pass


class DeltaNotBelowGap(FloerssError):
    pass


class NonIntegerIndex(FloerssError):
    pass


# -- exact algebra -------------------------------------------------------------

class DivisionByZero(FloerssError):
    pass


class NotAComplex(FloerssError):
    pass


class UnsupportedRing(FloerssError):
    pass


# -- Morse / pearl data --------------------------------------------------------

class IndexMismatch(FloerssError):
    pass


class ChainMapViolation(FloerssError):
    pass


class GradingNotInteger(FloerssError):
    pass


class NegativeLambdaExponent(FloerssError):
    pass


class MonotonicityViolation(FloerssError):
    pass


class ActionOutOfRange(FloerssError):
    pass


# -- filtrations / spectral sequences -------------------------------------------

class FiltrationViolated(FloerssError):
    pass


class WindowTooNarrow(FloerssError):
    pass


# -- obstruction engine ----------------------------------------------------------

class SearchSpaceExceeded(FloerssError):
    pass


class HypothesisNotMet(FloerssError):
    pass


# -- orientation calculus ---------------------------------------------------------

class NotIndependent(FloerssError):
    pass


class NotExact(FloerssError):
    pass


class NotTransverse(FloerssError):
    pass


class NotSubspace(FloerssError):
    pass


class DegenerateOutward(FloerssError):
    pass


# -- CLI / schemas -----------------------------------------------------------------

class SchemaError(FloerssError):
    pass
