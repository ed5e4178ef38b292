"""Exception types raised across the library.

Every error is a subclass of :class:`LatentIdError`, so callers can catch the
whole family with one clause.  Misuse and malformed input (bad shapes, values
out of range, inputs too large or too few, inconsistent model files, or a CDF
table with a negative cell mass) raise :class:`InputError`, which is also a
:class:`ValueError`; its message names the cause.  Every count and index
argument must be a whole number (an integer of any size, or a float equal to
one) at least its least value, and every tolerance a number >= 0; any other
value is refused, never truncated, as ``<name> must be a whole number >=
<least>, got <value>`` or ``tol must be a number >= 0, got <value>``.  Every
other class names an honest negative result.  The CLI exits 2 on an
:class:`InputError` and 1 on any other :class:`LatentIdError`.

The classes: :class:`LatentIdError`, :class:`InputError`,
:class:`NotKhatriRaoError`, :class:`DegenerateSpectrumError`,
:class:`RankDeficientError`, :class:`NegativeWeightsError`,
:class:`NonUniqueStationaryError`, :class:`IllConditionedError`,
:class:`InconsistentOracleError` and :class:`NotDistinctError`.
"""


class LatentIdError(Exception):
    """Base class for all library errors."""


class InputError(LatentIdError, ValueError):
    """Misuse or malformed input (CLI exit code 2)."""


# ---------------------------------------------------------------------------
# tensor / matrix primitives


class NotKhatriRaoError(LatentIdError):
    """The matrix is not a row tensor product of stochastic factors."""


# ---------------------------------------------------------------------------
# tensor decomposition / recovery


class DegenerateSpectrumError(LatentIdError):
    """Simultaneous diagonalization failed after all re-randomizations."""


class RankDeficientError(LatentIdError):
    """A matrix the method needs at rank ``r`` has numerical rank below ``r``:
    a tensor unfolding in decomposition, or the component CDFs on the cut
    points in nonparametric cut selection."""


class NegativeWeightsError(LatentIdError):
    """A recovered mixing weight is negative beyond tolerance."""


# ---------------------------------------------------------------------------
# hidden Markov chains


class NonUniqueStationaryError(LatentIdError):
    """The unit eigenvalue of the transition matrix is not simple."""


class IllConditionedError(LatentIdError):
    """A matrix is too close to singular: a linear solve required by recovery
    is rank deficient, or every random HMM draw fell below the sampler's
    singular-value margin."""


# ---------------------------------------------------------------------------
# random graph mixtures


class InconsistentOracleError(LatentIdError):
    """The prior or the row oracle fits no two-state graph mixture within tolerance."""


class NotDistinctError(LatentIdError):
    """Connection probabilities tie: fewer than three distinct values were read, or
    a row with both states ties ``p12`` to a within value or ``p11`` to ``p22``."""
