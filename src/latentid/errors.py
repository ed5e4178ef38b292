"""Exception types raised across the library.

Every error is a subclass of :class:`LatentIdError`, so callers can catch the
whole family with one clause or pick out the specific failure they care about.
Errors that signal misuse or malformed input, rather than a negative result,
also subclass :class:`InputError`.
"""


class LatentIdError(Exception):
    """Base class for all library errors."""


class InputError(LatentIdError):
    """Base class for misuse and malformed input (CLI exit code 2)."""


# ---------------------------------------------------------------------------
# tensor / matrix primitives


class MismatchedRowsError(InputError):
    """Factor matrices do not share a common row count."""


class EmptyInputError(InputError):
    """An operation received an empty factor list."""


class NonFiniteEntriesError(InputError):
    """A matrix or tensor contains NaN or infinite entries."""


class TooManyRowsError(InputError):
    """Kruskal-rank subset enumeration would exceed the configured row cap."""


class DimensionMismatchError(InputError):
    """Shapes of the provided arrays are inconsistent."""


class NotKhatriRaoError(LatentIdError):
    """The matrix is not a row tensor product of stochastic factors."""


class BadPartitionError(InputError):
    """Index blocks are not disjoint, nonempty and covering."""


# ---------------------------------------------------------------------------
# model construction


class TooLargeError(InputError):
    """The requested dense object exceeds the configured entry cap."""


class NotThreeVariablesError(InputError):
    """The operation is defined only for three observed variables."""


class TooFewVariablesError(InputError):
    """At least three observed variables are required."""


# ---------------------------------------------------------------------------
# tensor decomposition / recovery


class DegenerateSpectrumError(LatentIdError):
    """Simultaneous diagonalization failed after all re-randomizations."""


class RankDeficientError(LatentIdError):
    """A tensor unfolding has numerical rank below the target."""


class NegativeWeightsError(LatentIdError):
    """A recovered mixing weight is negative beyond tolerance."""


# ---------------------------------------------------------------------------
# hidden Markov chains


class NonUniqueStationaryError(LatentIdError):
    """The unit eigenvalue of the transition matrix is not simple."""


class NotStationaryError(LatentIdError):
    """The provided distribution is not stationary for the chain."""


class IllConditionedError(LatentIdError):
    """A matrix is too close to singular: a linear solve required by recovery
    is rank deficient, or every random HMM draw fell below the sampler's
    singular-value margin."""


# ---------------------------------------------------------------------------
# random graph mixtures


class BadEdgeError(InputError):
    """An edge must join two distinct nodes inside the graph."""


class InconsistentOracleError(LatentIdError):
    """Row-oracle answers conflict beyond tolerance."""


class NotDistinctError(LatentIdError):
    """Fewer than three distinct connection probabilities were observed."""


# ---------------------------------------------------------------------------
# nonparametric mixtures


class GridExhaustedError(LatentIdError):
    """No candidate cut point leaves the span of the current cuts.

    Signals that the component family is linearly dependent: the farthest
    candidate, and so every point, lies within ``CUT_TOL`` of that span.
    """


class NonMonotoneCdfError(LatentIdError):
    """A CDF table produced a negative bin mass beyond tolerance."""
