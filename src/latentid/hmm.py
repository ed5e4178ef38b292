"""Discrete hidden Markov models: window bounds, embeddings and recovery.

A stationary chain observed through a memoryless emission channel becomes a
three-variable latent-class model once a window of ``2k + 1`` consecutive
observations is split into past block, future block and center symbol, all
conditioned on the hidden state at the center.  The block conditional
matrices are built by the recursion

    B1 = A'(B (x) (... A'(B (x) (A'B)) ...)),   B2 likewise with A,

``(x)`` denoting the row tensor product and ``A'`` the time-reversed
transition matrix.  Column conventions (fixed; the recursion and the
marginalizations in :func:`recover_hmm` depend on them):

* ``B2`` columns index the future symbols ``(x_{k+1}, ..., x_{2k})`` in
  mixed radix with the latest symbol ``x_{2k}`` varying fastest;
* ``B1`` columns index the past symbols reversed, ``(x_{k-1}, ..., x_0)``,
  with the earliest symbol ``x_0`` varying fastest (it is produced by the
  innermost factor of the recursion).

So on both block axes the fastest-varying digits are the symbols farthest
from the center, and summing out the ``k - j`` fastest digits of both leaves
the exact window law at half-window ``j``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    IllConditionedError,
    InputError,
    NonUniqueStationaryError,
)
from .latent_class import Certificate
from .recovery import (
    RECOVERY_TOL,
    Alignment,
    _clean_rows,
    _require_rebuilds,
    align_permutation,
    decompose3,
)
from .tensor_core import (
    POSITIVE_FLOOR,
    _khatri_rao,
    _read_only,
    _tolerance,
    _triple_product,
    _whole_number,
    check_distribution_tensor,
    check_power_entries,
    check_stochastic,
    kruskal_rank,
    rank_from_singular_values,
)

#: the unit eigenvalue must be separated from the rest by this much
STATIONARY_GAP_TOL = 1e-8


def stationary_distribution(A) -> np.ndarray:
    """Stationary distribution of a transition matrix with a simple unit eigenvalue.

    Raises :class:`NonUniqueStationaryError` when a second eigenvalue lies
    within :data:`STATIONARY_GAP_TOL` of 1 (the chain is reducible or
    periodic within numerical resolution), or when the stationary vector is
    not strictly positive.
    """
    return _stationary(check_stochastic(A, name="A"))


def _stationary(A: np.ndarray) -> np.ndarray:
    """:func:`stationary_distribution` of an ``A`` already checked row stochastic."""
    r = A.shape[0]
    if A.shape[1] != r:
        raise InputError(f"transition matrix must be square, got {A.shape}")
    lam, V = np.linalg.eig(A.T)
    dist = np.abs(lam - 1.0)
    order = np.argsort(dist)
    if r > 1 and dist[order[1]] <= STATIONARY_GAP_TOL:
        raise NonUniqueStationaryError(
            "unit eigenvalue of the transition matrix is not simple"
        )
    v = V[:, order[0]].real
    pi = v / v.sum()
    if pi.min() <= POSITIVE_FLOOR:
        raise NonUniqueStationaryError(
            "stationary distribution is not strictly positive"
        )
    return pi


def _reversed_chain(A: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """The reversed stationary chain ``A_rev[i, j] = pi[j] * A[j, i] / pi[i]``, for
    ``A`` row stochastic and ``pi`` stationary for it; the caller checks both."""
    return (A.T * pi[None, :]) / pi[:, None]


@dataclass(frozen=True)
class HiddenMarkovModel:
    """Transition and emission matrices, with the stationary law ``pi`` of ``A`` and
    the reversed chain ``A_rev[i, j] = pi[j] * A[j, i] / pi[i]`` derived once;
    all read-only."""

    A: np.ndarray
    B: np.ndarray
    pi: np.ndarray = field(init=False)
    A_rev: np.ndarray = field(init=False)

    def __post_init__(self):
        A = check_stochastic(_read_only(self.A), name="A")
        B = check_stochastic(_read_only(self.B), name="B")
        if B.shape[0] != A.shape[0]:
            raise InputError(f"B has {B.shape[0]} rows, expected r={A.shape[0]}")
        self._adopt(A, B)

    @classmethod
    def _checked(cls, A: np.ndarray, B: np.ndarray) -> "HiddenMarkovModel":
        """The model of row-stochastic float matrices with equal row counts, ``A``
        square, that the library has just built and shares with no one: frozen in
        place, unchecked.  ``pi`` and ``A_rev`` are derived as by the constructor,
        and :class:`NonUniqueStationaryError` is raised as there."""
        model = cls.__new__(cls)
        model._adopt(A, B)
        return model

    def _adopt(self, A: np.ndarray, B: np.ndarray) -> None:
        """Derive ``pi`` and ``A_rev``, freeze all four arrays in place and set them."""
        pi = _stationary(A)
        A_rev = _reversed_chain(A, pi)
        for name, arr in (("A", A), ("B", B), ("pi", pi), ("A_rev", A_rev)):
            object.__setattr__(self, name, _read_only(arr, fresh=True))

    @property
    def r(self) -> int:
        return self.A.shape[0]

    @property
    def kappa(self) -> int:
        return self.B.shape[1]


def min_window(r: int, kappa: int) -> int:
    """Smallest half-window k with ``C(k + kappa - 1, kappa - 1) >= r``.

    The binomial counts distinct degree-k monomials in kappa symbols, which is
    what makes the window blocks generically full rank; the full window has
    ``2k + 1`` observations.  For binary observations this gives ``k = r - 1``
    (window ``2r - 1``); larger alphabets need shorter windows.  The binomial
    grows with k, so k is doubled past the answer and then bisected, exactly.
    """
    r, kappa = _whole_number(r, "r", 1), _whole_number(kappa, "kappa", 2)
    lo, hi = 0, 1  # the binomial is below r at lo (or lo == 0), at least r at hi
    while math.comb(hi + kappa - 1, kappa - 1) < r:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if math.comb(mid + kappa - 1, kappa - 1) < r else (lo, mid)
    return hi


def recovery_window(r: int, kappa: int) -> int:
    """Half-window at which :func:`recover_hmm` decomposes: the smallest j with
    ``kappa**j >= 2 * r``.

    The window blocks have ``kappa**j`` columns for r rows.  They reach full
    row rank generically from ``kappa**j >= r`` on, but a square block is
    badly conditioned, and every further level of the window multiplies the
    decomposition's cost.  A sweep over ``(r, kappa)`` and every j from
    ``ceil(log_kappa r)`` to :func:`min_window`, measuring refusals, error
    and time, found twice as many columns as rows the best trade.  The
    result can exceed :func:`min_window`, which is the paper's bound and
    still the default window of the CLI; a caller's window is narrowed,
    never widened.
    """
    r, kappa = _whole_number(r, "r", 1), _whole_number(kappa, "kappa", 2)
    j = 1
    while kappa**j < 2 * r:
        j += 1
    return j


def _recovery_k(r: int, kappa: int, k: int) -> int:
    """The half-window :func:`recover_hmm` decomposes at, given the input's ``k``."""
    return min(k, recovery_window(r, kappa))


def _window_blocks(A, A_rev, B, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The recursion of :func:`conditional_blocks` on unchecked arrays, both
    blocks carried as one stack of two."""
    chains = np.stack([A_rev, A])
    blocks = chains @ B
    for _ in range(k - 1):
        blocks = chains @ _khatri_rao([B, blocks])
    return blocks[0], blocks[1]


def conditional_blocks(model: HiddenMarkovModel, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Past and future window blocks ``(B1, B2)`` at half-window k, built innermost-out.

    Row ``i`` of ``B1`` is the joint law of the k symbols before the center
    given hidden state ``i`` there, built from the reversed chain
    ``model.A_rev``; row ``i`` of ``B2`` is the law of the k symbols after.
    """
    k = _whole_number(k, "k", 1)
    check_power_entries([(model.r, 1), (model.kappa, k)], "window block")
    return _window_blocks(model.A, model.A_rev, model.B, k)


def window_tensor(model: HiddenMarkovModel, k: int) -> np.ndarray:
    """Exact joint law of (past block, future block, center symbol).

    The tensor equals ``triple_product(diag(pi) B1, B2, B)`` and is the
    marginal distribution of ``2k + 1`` consecutive observations regrouped as
    ``((X_0..X_{k-1}), (X_{k+1}..X_{2k}), X_k)``.  The model's arrays were
    checked when it was built, so the product is taken unchecked.
    """
    k = _whole_number(k, "k", 1)
    check_power_entries([(model.kappa, 2 * k + 1)], "window tensor")
    B1, B2 = _window_blocks(model.A, model.A_rev, model.B, k)
    return _triple_product(model.pi[:, None] * B1, B2, model.B)


def hmm_certificate(model: HiddenMarkovModel, k: int) -> Certificate:
    """Identifiability certificate for the window embedding at half-window k.

    The views are the window blocks ``(B1, B2)`` of
    :func:`conditional_blocks` and the emission matrix ``B``; the reported
    ranks are their Kruskal ranks.  The criterion is full row rank (see
    :class:`Certificate`), which is what the constructive recovery in
    :func:`recover_hmm` needs.
    """
    ranks = tuple(kruskal_rank(M) for M in (*conditional_blocks(model, k), model.B))
    return Certificate(
        model.r, ranks, "exact-matrix", full_row_rank=True,  # type: ignore[arg-type]
        criterion="window blocks at full row rank: I1 = I2 = r and I3 >= 2",
    )


def _window_marginal(T: np.ndarray, kappa: int, k: int, j: int) -> np.ndarray:
    """The window law at half-window ``j`` from the one at ``k >= j``.

    Sums out the ``k - j`` fastest-varying digits of both block axes, the
    symbols farthest from the center (see the module docstring), in two
    reductions over contiguous axes; one ``sum`` over both axes of the
    five-way view is several times slower.  At ``j == k`` there is nothing
    to sum, and ``T`` itself is returned.
    """
    n, m = kappa**j, kappa ** (k - j)
    if m == 1:
        return T
    P = T.reshape(n, m, -1).sum(axis=1)
    return P.reshape(n * n, m, kappa).sum(axis=1).reshape(n, n, kappa)


def recover_hmm(
    T,
    r: int,
    kappa: int,
    k: int,
    seed=None,
    tol: float = RECOVERY_TOL,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Recover (A, B, pi) from the exact window tensor, up to state relabeling.

    ``T`` is the window law at half-window ``k >= 1``.  It is validated, and
    recovery runs on its exact marginal at ``j = min(k, recovery_window(r,
    kappa))`` (:func:`recovery_window`): ``T`` itself at ``j == k``, and
    otherwise a smaller, better conditioned law.

    The three-way decomposition yields the permuted blocks ``(B1, B2, B)``
    and the stationary weights.  Marginalizing the last observed symbol out of
    the recovered future block leaves a matrix ``M`` with one fewer recursion
    level, so the future block factors as ``A (B (x) M)``; ``A`` then follows
    from one least-squares solve.  The window law at ``k`` is then rebuilt
    from the answer, with the reversed chain ``(A^T * pi) / pi`` and the
    recursion of :func:`conditional_blocks`, and checked against ``T``.

    Raises
    ------
    InputError
        ``r``, ``kappa`` or ``k`` is not a whole number of at least 1, 2
        and 1, or ``tol`` is NaN or negative, all checked first; or ``T`` is
        not a distribution of shape ``(kappa^k, kappa^k, kappa)``.
    IllConditionedError
        ``B (x) M`` is rank deficient, or the solved transition matrix fails
        to be row stochastic within ``tol``.
    DegenerateSpectrumError
        The law rebuilt at ``k`` misses ``T`` by more than ``tol *
        T.max()``, the rule :func:`decompose3` applies at ``j``.  The message
        gives the residual.  Besides these, every refusal of
        :func:`decompose3` at ``j`` propagates.
    """
    r, kappa = _whole_number(r, "r", 1), _whole_number(kappa, "kappa", 2)
    k, tol = _whole_number(k, "k", 1), _tolerance(tol)
    check_power_entries([(kappa, 2 * k + 1)], "window law")
    T = np.asarray(T, dtype=float)
    if T.shape != (kappa**k, kappa**k, kappa):
        raise InputError(
            f"window tensor shape {T.shape} does not match "
            f"(kappa^k, kappa^k, kappa) = {(kappa ** k, kappa ** k, kappa)}"
        )
    j = _recovery_k(r, kappa, k)
    if j < k:  # at j == k, decompose3 checks T itself
        check_distribution_tensor(T)
    rec = decompose3(_window_marginal(T, kappa, k, j), r, seed=seed, tol=tol)
    F2, B_hat = rec.factors[1:]
    if j == 1:
        M = np.ones((r, 1))
    else:
        M = F2.reshape(r, kappa ** (j - 1), kappa).sum(axis=2)
    G = _khatri_rao([B_hat, M])
    A_hat_T, _, _, sv = np.linalg.lstsq(G.T, F2.T, rcond=None)
    if rank_from_singular_values(sv, G.shape) < r:
        raise IllConditionedError(
            "emission-block product is rank deficient; transition solve aborted"
        )
    A_hat = A_hat_T.T
    row_err = np.abs(A_hat.sum(axis=1) - 1.0).max()
    if row_err > tol:
        raise IllConditionedError(
            f"solved transition matrix misses row sums by {row_err:.3g} > {tol}"
        )
    A_hat = _clean_rows(A_hat, tol)
    if A_hat is None:
        raise IllConditionedError(
            f"solved transition matrix has entries below -{tol}"
        )
    pi = rec.pi
    B1, B2 = _window_blocks(A_hat, _reversed_chain(A_hat, pi), B_hat, k)
    what = f"window law rebuilt at k={k} from the answer at j={j} misses the input"
    _require_rebuilds(pi, B1, B2, B_hat, T.reshape(T.shape[0], -1), tol, what)
    return A_hat, B_hat, pi


def align_hmm(recovered, reference) -> Alignment:
    """State relabeling of one (A, B, pi) triple onto another.

    States are matched by :func:`align_permutation` on the rows of
    ``(pi, B)``, which identify them whenever ``B`` has Kruskal rank at least
    2, as :func:`recover_hmm` requires.  The reported error covers ``pi``,
    ``B`` and ``A``, the transition matrix permuted on both axes.
    """
    A_a, B_a, pi_a = (np.asarray(x, dtype=float) for x in recovered)
    A_b, B_b, pi_b = (np.asarray(x, dtype=float) for x in reference)
    if A_a.shape != A_b.shape or B_a.shape != B_b.shape or pi_a.shape != pi_b.shape:
        raise InputError("recovered and reference shapes differ")
    align = align_permutation((pi_a, (B_a,)), (pi_b, (B_b,)))
    p = align.permutation
    # np.maximum, unlike max, keeps a NaN from either side
    error = float(np.maximum(align.max_abs_error, np.abs(A_a[np.ix_(p, p)] - A_b).max()))
    return Alignment(permutation=p, max_abs_error=error)
