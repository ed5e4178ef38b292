"""Parameter recovery from exact three-way probability tensors.

The decomposition is Jennrich-style simultaneous diagonalization: two random
mixtures of the third-mode slices share the first-mode directions as
generalized eigenvectors.  Each of the two r-dimensional bases takes one SVD:
the mode-1 basis and rank decision come from the mode-1 unfolding, and the
mode-2 basis and rank decision from the tensor projected onto the mode-1 basis
(the sequential truncation of ST-HOSVD; Vannieuwenhoven, Vandebril &
Meerbergen, SIAM J. Sci. Comput. 2012).  When both sides of the mode-1
unfolding are at least ``4 * (r + 8)``, its one SVD is of a randomized sketch
of its range rather than of the unfolding itself (Halko, Martinsson & Tropp,
SIAM Review 2011).  Once both bases are known, everything but the final
residual gate reads only the ``r x r x k3`` Tucker core ``T x1 U1^T x2 U2^T``
(Kolda & Bader, SIAM Review 2009): the two slice mixtures, and a least-squares
solve for the third factor and the weights that replaces one against all
``k1 * k2`` entries of each third-mode slice.  It is non-iterative and exact
up to floating point, but its preconditions (first two factors of full row
rank, third of Kruskal rank at least 2) are strictly stronger than the Kruskal
uniqueness condition; inputs in the gap raise an explicit error rather than
being attempted.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateSpectrumError,
    IllConditionedError,
    InputError,
    NegativeWeightsError,
    RankDeficientError,
)
from .tensor_core import (
    _clump,
    _khatri_rao,
    _read_only,
    _three_blocks,
    _tolerance,
    _unclump,
    _whole_number,
    check_distribution_tensor,
    rank_from_singular_values,
)

#: relative residual gate of every recovery routine and its CLI ``--tol`` default
RECOVERY_TOL = 1e-8
#: re-randomizations of the slice-mixture weights before giving up
MAX_RETRIES = 20
#: relative eigenvalue separation below which a draw is considered degenerate
EIGEN_GAP_TOL = 1e-7
#: where a weight draw can stop, earliest first; a refusal is named after the
#: furthest stage any draw reached
_STAGES = ("slice_rank", "spectrum", "negative", "residual")
#: floor on sigma_max in the reported sigma_min / sigma_max of a singular
#: slice mixture, so an all-zero mixture reads 0 rather than 0/0
_SIGMA_FLOOR = 1e-300
#: a recovered first- or second-mode row summing below this in magnitude
#: cannot be normalized, and the draw counts as a spectrum failure
_ROW_SUM_FLOOR = 1e-12
#: columns the mode-1 range finder draws beyond r
_SKETCH_OVERSAMPLE = 8
#: the range finder replaces the full SVD of the k1 x k2*k3 mode-1 unfolding
#: only when min(k1, k2*k3) >= _SKETCH_GATE * (r + _SKETCH_OVERSAMPLE).  Full
#: SVD against sketch plus one power iteration, best of 200 (2 vCPU Xeon,
#: OpenBLAS 0.3.31, 2 threads / 1 thread): 81x729 at r=3, a ten-variable
#: latent-class unfolding, 12.3 -> 0.73 / 4.2 -> 0.87 ms; at the gate 44x44
#: 0.22 -> 0.19 / 0.17 -> 0.19 ms; below it 27x81 0.16 -> 0.23 / 0.13 ->
#: 0.19 ms and tall 6561x9 0.95 -> 4.5 / 0.86 -> 3.9 ms.  Sketching every
#: unfolding also moved a nonparametric frontier answer past 1e-5, so the
#: full SVD stays below the gate.
_SKETCH_GATE = 4
#: :func:`_sketch` keeps at most this many test matrices, of at most this many entries each
_SKETCH_SLOTS, _SKETCH_ENTRIES = 8, 2**16


@dataclass
class RecoveredFactors:
    """Decomposition result: weights, stochastic factors, and reconstruction error.

    ``triple_product(pi[:, None] * factors[0], factors[1], factors[2])``
    reproduces the input tensor within ``residual`` (max-abs), which
    :func:`decompose3` accepted only at ``residual <= tol * T.max()``.
    """

    pi: np.ndarray
    factors: tuple[np.ndarray, np.ndarray, np.ndarray]
    residual: float
    retries_used: int


@dataclass
class Alignment:
    """A class relabeling together with the parameter error it achieves.

    ``permutation[i]`` is the recovered class index matching reference class
    ``i``; applying it as ``recovered.pi[permutation]`` puts the recovered
    parameters in reference order.
    """

    permutation: np.ndarray
    max_abs_error: float


def _clean_rows(M: np.ndarray, tol: float) -> np.ndarray | None:
    """Clamp negatives within tol to zero and renormalize rows; None if worse.

    The clamp copies ``M`` only when its minimum is negative or NaN; a NaN
    minimum still clamps the other rows' negatives, as the copy always did.
    """
    low = M.min()
    if low < -tol:
        return None
    if not low >= 0.0:
        M = np.where(M < 0.0, 0.0, M)
    sums = M.sum(axis=1, keepdims=True)
    if (sums <= 0.0).any():
        return None
    return M / sums


def decompose3(T, r: int, seed=None, tol: float = RECOVERY_TOL) -> RecoveredFactors:
    """Rank-r decomposition of an exact three-way probability tensor.

    Takes the r-dimensional mode-1 basis ``U1`` and the mode-1 rank decision
    from one SVD of the mode-1 unfolding, and the mode-2 basis ``U2`` and
    rank decision from one SVD of the ``k2 x r*k3`` matrix of the tensor
    projected onto ``U1`` along mode 1; the mode-2 unfolding itself is never
    factored.  When ``min(k1, k2*k3) >= 4 * (r + 8)``, the mode-1 SVD is a
    randomized range finder with one power iteration followed by one SVD of
    an ``(r + 8) x k2*k3`` matrix (Halko, Martinsson & Tropp, SIAM Review
    2011); its sketch comes from a fixed generator, never from ``seed``.

    Draws two random weight vectors over the third mode, forms the two slice
    mixtures from the ``r x r x k3`` core ``T x1 U1^T x2 U2^T`` (the full
    tensor's slice mixtures projected onto the two bases), and reads the
    first-mode directions off the eigen-structure of their quotient; the
    second mode follows from the same eigenbasis.  The third mode and the
    weights follow from a least-squares solve against the rank-1 terms in
    the core, an ``r*r``-row system with the same solution as the
    ``k1*k2``-row one, since the recovered first- and second-mode rows lie in
    the spans of ``U1`` and ``U2``.  Each factor row is normalized to sum 1,
    with the absorbed scales accumulating into ``pi``.  ``r = 1`` takes the
    same path.

    Succeeds when the generating model has first and second factors of full
    row rank r and third factor of Kruskal rank at least 2.  A draw is
    accepted when its max-abs reconstruction residual is at most ``tol``
    times the largest entry of ``T``: the gate is relative, so it holds the
    same accuracy on tensors whose entries are all small.  Unlucky weight
    draws are retried up to :data:`MAX_RETRIES` times; each draw takes
    ``2 * k3`` normals from ``seed``.  When every draw fails, the error is
    named after the furthest stage any draw reached: residual, then negative
    weights, then eigen-spectrum, then singular slice mixture.

    Raises
    ------
    InputError
        ``r`` is not a whole number >= 1, ``tol`` is NaN or negative, or
        ``T`` is not a three-way distribution.
    RankDeficientError
        A mode-1 or mode-2 unfolding has numerical rank below r.
    IllConditionedError
        Every draw's slice mixture in the core had rank below r under
        :func:`~latentid.tensor_core.rank_from_singular_values`, the rule
        that judged both unfoldings, so the eigenproblem could not be formed
        although both unfoldings passed it.
    DegenerateSpectrumError
        No draw got past colliding eigenvalue ratios, or a draw got as far
        as the residual but none met ``tol * T.max()``; the message then
        gives the smallest residual seen.
    NegativeWeightsError
        The furthest draws stopped on a mixing weight at or below 0 or a
        factor entry below ``-tol``.
    """
    r, tol = _whole_number(r, "r", 1), _tolerance(tol)
    T, high = check_distribution_tensor(T)
    if T.ndim != 3:
        raise InputError(f"expected a 3-way tensor, got ndim={T.ndim}")
    k1, k2, k3 = T.shape
    if k1 < r or k2 < r:
        raise RankDeficientError(
            f"first two dimensions {(k1, k2)} must both be at least r={r}"
        )

    T1 = T.reshape(k1, k2 * k3)
    U1, s1 = _mode1_basis(T1, r)
    if rank_from_singular_values(s1, T1.shape) < r:
        raise RankDeficientError(f"mode-1 unfolding has rank below r={r}")
    # P2 is the mode-2 unfolding of T projected onto U1 along mode 1.  When T1
    # has rank r, P2 P2^T = T2 T2^T for the mode-2 unfolding T2, so s2 are
    # T2's singular values and T2's cutoff applies to them.
    P2 = (U1.T @ T1).reshape(r, k2, k3).transpose(1, 0, 2).reshape(k2, r * k3)
    U2, s2, _ = np.linalg.svd(P2, full_matrices=False)
    if rank_from_singular_values(s2, (k2, k1 * k3)) < r:
        raise RankDeficientError(f"mode-2 unfolding has rank below r={r}")
    U2 = U2[:, :r]
    # the r x r x k3 core T x1 U1^T x2 U2^T, rows (p, q) with q fastest
    core = (U2.T @ P2).reshape(r, r, k3).transpose(1, 0, 2).reshape(r * r, k3)

    resid_tol = tol * high
    rng = np.random.default_rng(seed)
    furthest = 0
    best_resid = np.inf
    for attempt in range(MAX_RETRIES + 1):
        a = rng.standard_normal(k3)
        b = rng.standard_normal(k3)
        stage, value, params = _weight_draw(U1, U2, core, T1, a, b, tol)
        if stage == "residual":
            if value <= resid_tol:
                pi, M1, M2, M3 = params
                return RecoveredFactors(
                    pi=pi, factors=(M1, M2, M3), residual=value, retries_used=attempt
                )
            best_resid = min(best_resid, value)
        elif stage == "slice_rank":
            slice_ratio = value
        furthest = max(furthest, _STAGES.index(stage))

    stage = _STAGES[furthest]
    if stage == "negative":
        raise NegativeWeightsError(
            f"recovered weights stayed negative beyond tol={tol} "
            f"after {MAX_RETRIES} retries"
        )
    if stage == "slice_rank":
        raise IllConditionedError(
            f"slice mixtures stayed singular after {MAX_RETRIES} retries "
            f"(last sigma_min/sigma_max = {slice_ratio:.3g})"
        )
    detail = f", smallest residual {best_resid:.3g}" if stage == "residual" else ""
    raise DegenerateSpectrumError(
        f"no weight draw gave separated eigenvalues and residual <= "
        f"tol * max entry = {resid_tol:.3g} after {MAX_RETRIES} retries "
        f"(furthest stage: {stage}{detail})"
    )


def _mode1_basis(T1: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray]:
    """An orthonormal basis of the top-r left singular space of ``T1``, and its
    leading singular values.

    When a side of ``T1`` is below ``_SKETCH_GATE * (r + 8)``, one full SVD.
    Otherwise a randomized range finder (Halko, Martinsson & Tropp, SIAM
    Review 2011, Algorithms 4.4 and 5.1 with one power iteration): sketch
    ``T1`` with ``r + 8`` Gaussian columns from a fixed generator, so the
    caller's seed is never consumed, re-orthonormalize around the power
    iteration, and take one SVD of the small ``Q^T T1``.
    Forming ``T1 T1^T Q`` directly would square ``sigma_r / sigma_1``, which
    is about 1e-8 on HMM window laws, into rounding noise.
    """
    width = r + _SKETCH_OVERSAMPLE
    if min(T1.shape) < _SKETCH_GATE * width:
        U, s, _ = np.linalg.svd(T1, full_matrices=False)
        return U[:, :r], s
    cols = T1.shape[1]
    draw = _sketch if cols * width <= _SKETCH_ENTRIES else _sketch.__wrapped__
    Q = np.linalg.qr(T1 @ draw(cols, width))[0]
    Q = np.linalg.qr(T1 @ np.linalg.qr(T1.T @ Q)[0])[0]
    Ub, s, _ = np.linalg.svd(Q.T @ T1, full_matrices=False)
    return Q @ Ub[:, :r], s


@functools.lru_cache(maxsize=_SKETCH_SLOTS)
def _sketch(cols: int, width: int) -> np.ndarray:
    """The range finder's read-only ``cols x width`` Gaussian test matrix, drawn
    from a fixed generator once per shape and kept for later calls in the same
    process; callers keep at most ``_SKETCH_SLOTS`` of ``_SKETCH_ENTRIES``: 4 MB."""
    return _read_only(np.random.default_rng(0).standard_normal((cols, width)), fresh=True)


def _weight_draw(U1, U2, core, T1, a, b, tol: float):
    """One Jennrich draw with third-mode slice weights ``a`` and ``b``.

    ``core`` is the ``r*r x k3`` core unfolding, rows ``(p, q)`` with ``q``
    fastest, so ``(core @ a).reshape(r, r)`` is the slice mixture
    ``U1.T @ einsum("uvw,w->uv", T, a) @ U2``.  Both slice mixtures and the
    least-squares solve for ``pi * M3`` read it; only the residual
    (:func:`_law_residual`) is taken against the full tensor, through its
    mode-1 unfolding ``T1`` (``k1 x k2*k3``).

    Returns ``(stage, value, params)``.  ``stage`` is the furthest of
    :data:`_STAGES` the draw reached; ``value`` is the slice mixture's
    ``sigma_min / sigma_max`` at ``"slice_rank"``, the max-abs residual at
    ``"residual"`` and NaN otherwise; ``params`` is ``(pi, M1, M2, M3)`` at
    ``"residual"`` and None otherwise.
    """
    r = U1.shape[1]
    Ta = (core @ a).reshape(r, r)
    Tb = (core @ b).reshape(r, r)

    sv = np.linalg.svd(Tb, compute_uv=False)
    if rank_from_singular_values(sv, Tb.shape) < r:
        return "slice_rank", sv[-1] / max(sv[0], _SIGMA_FLOOR), None

    E = np.linalg.solve(Tb.T, Ta.T).T
    lam, V = np.linalg.eig(E)
    scale = np.abs(lam).max()
    if scale == 0.0 or np.abs(lam.imag).max() > EIGEN_GAP_TOL * scale:
        return "spectrum", np.nan, None
    gaps = np.abs(lam[:, None] - lam[None, :])
    gaps.flat[:: r + 1] = np.inf  # the diagonal; r = 1 has no pair and passes
    if gaps.min() < EIGEN_GAP_TOL * scale:
        return "spectrum", np.nan, None

    V = V.real
    M1 = (U1 @ V).T
    sums1 = M1.sum(axis=1)
    if np.abs(sums1).min() < _ROW_SUM_FLOOR:
        return "spectrum", np.nan, None
    M1 = M1 / sums1[:, None]

    W = np.linalg.solve(V, Tb)  # rows are scaled second-mode directions
    M2 = (U2 @ W.T).T
    sums2 = M2.sum(axis=1)
    if np.abs(sums2).min() < _ROW_SUM_FLOOR:
        return "spectrum", np.nan, None
    M2 = M2 / sums2[:, None]

    # C = pi * M3 in the core: the rows of M1 and M2 lie in span(U1) and
    # span(U2), so projecting both sides of the k1*k2-row system onto
    # U1 (x) U2 keeps its normal equations and leaves r*r rows
    G = _khatri_rao([M1 @ U1, M2 @ U2])
    C = np.linalg.lstsq(G.T, core, rcond=None)[0]
    pi = C.sum(axis=1)
    if pi.min() <= 0.0:
        return "negative", np.nan, None
    M3 = C / pi[:, None]

    cleaned = [_clean_rows(M, tol) for M in (M1, M2, M3)]
    if any(M is None for M in cleaned):
        return "negative", np.nan, None
    M1, M2, M3 = cleaned
    pi = pi / pi.sum()
    return "residual", _law_residual(pi, M1, M2, M3, T1), (pi, M1, M2, M3)


def _law_residual(pi, M1, M2, M3, T1) -> float:
    """Max-abs difference between the tensor the weights and factors build and
    the tensor whose mode-1 unfolding is ``T1``.

    The rebuilt unfolding is ``(pi * M1).T @ khatri_rao([M2, M3])``, the very
    product by which :func:`~latentid.tensor_core.triple_product` builds the
    tensor, so the residual is the one a caller rebuilding it sees.  The
    arguments are the library's own results and go unchecked.
    """
    # |R - T1| in the product's own buffer: no table-sized temporaries
    D = (pi[:, None] * M1).T @ _khatri_rao([M2, M3])
    D -= T1
    return float(np.abs(D, out=D).max())


def _require_rebuilds(pi, M1, M2, M3, T1, tol: float, what: str) -> None:
    """Raise :class:`DegenerateSpectrumError`, its message opening with ``what``,
    when :func:`_law_residual` exceeds ``tol * T1.max()``, the gate of
    :func:`decompose3`."""
    resid = _law_residual(pi, M1, M2, M3, T1)
    resid_tol = tol * T1.max()
    if resid > resid_tol:
        raise DegenerateSpectrumError(
            f"{what} by {resid:.3g} > tol * max entry = {resid_tol:.3g}"
        )


def _perfect_matching(allowed: np.ndarray) -> np.ndarray | None:
    """Row-to-column perfect matching inside a boolean matrix, or None.

    Kuhn's augmenting-path algorithm, visiting rows and columns in index
    order, so the matching found is deterministic.
    """
    r = allowed.shape[0]
    row_of = [-1] * r  # column -> matched row

    def augment(i: int, seen: list[bool]) -> bool:
        for j in np.flatnonzero(allowed[i]):
            if not seen[j]:
                seen[j] = True
                if row_of[j] < 0 or augment(row_of[j], seen):
                    row_of[j] = i
                    return True
        return False

    for i in range(r):
        if not augment(i, [False] * r):
            return None
    perm = np.empty(r, dtype=int)
    perm[row_of] = np.arange(r)
    return perm


def align_permutation(recovered, reference) -> Alignment:
    """Best class relabeling of ``recovered`` onto ``reference``.

    Both arguments are ``(pi, factors)`` pairs.  The relabeling minimizes the
    max-abs parameter difference exactly.  That error is the largest cost
    ``C[ref, rec]`` (the max-abs difference between the concatenated ``(pi,
    factors)`` rows) on the matched pairs, so minimizing it is a bottleneck
    assignment problem (Burkard, Dell'Amico & Martello, *Assignment
    Problems*, ch. 6): binary search over the sorted distinct costs for the
    smallest threshold ``t`` at which the pairs with ``C <= t`` contain a
    perfect matching.  Every row and every column is matched at a cost no
    smaller than its own minimum, so no ``t`` lies below the largest row or
    column minimum.  When the pairs at that bound hold exactly one pair in
    every row and every column, they are the only perfect matching there,
    and the answer; an exact answer ends there, with no search.  Otherwise
    the search tests the bound first.
    """
    (pi_a, factors_a), (pi_b, factors_b) = recovered, reference
    pi_a, pi_b = np.asarray(pi_a, dtype=float), np.asarray(pi_b, dtype=float)
    if pi_a.shape != pi_b.shape or len(factors_a) != len(factors_b):
        raise InputError("class counts or factor counts differ")
    for Fa, Fb in zip(factors_a, factors_b):
        if np.shape(Fa) != np.shape(Fb):
            raise InputError(f"factor shapes differ: {np.shape(Fa)} vs {np.shape(Fb)}")
    rows_a = np.concatenate([pi_a[:, None], *factors_a], axis=1)
    rows_b = np.concatenate([pi_b[:, None], *factors_b], axis=1)
    C = np.abs(rows_a[None, :, :] - rows_b[:, None, :]).max(axis=2)

    # fmin / fmax skip NaN costs, which no threshold admits
    bound = np.fmax.reduce(
        [np.fmax.reduce(np.fmin.reduce(C, axis=ax)) for ax in (0, 1)]
    )
    allowed = C <= bound
    if (allowed.sum(axis=0) == 1).all() and (allowed.sum(axis=1) == 1).all():
        # one pair per row and column, each its row's and column's minimum:
        # the only matching at the bound, and its largest cost is the bound
        return Alignment(permutation=allowed.argmax(axis=1), max_abs_error=float(bound))
    costs = np.unique(C)
    lo, hi = int(np.searchsorted(costs, bound)), costs.size - 1
    perm = np.arange(pi_a.size)  # every pair is allowed at the largest cost
    mid = lo  # the bound is tested first
    while lo < hi:
        match = _perfect_matching(C <= costs[mid])
        if match is None:
            lo = mid + 1
        else:
            hi, perm = mid, match
        mid = (lo + hi) // 2
    error = float(C[np.arange(perm.size), perm].max())
    return Alignment(permutation=perm, max_abs_error=error)


def recover_latent_class(
    T,
    r: int,
    tripartition,
    seed=None,
    tol: float = RECOVERY_TOL,
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Recover latent-class parameters from an exact p-variate joint table.

    Clumps the table into a three-way tensor along ``tripartition`` (three
    blocks of 0-based axis indices, such as a witness's ``blocks``), decomposes
    it, then de-clumps each recovered composite factor back into per-variable
    conditional matrices.  :func:`decompose3` checks the table; its factors are
    de-clumped with the round-trip check alone.  The first two clumped
    dimensions must be at least r, and the underlying model must actually
    factor over the variables; otherwise the decomposition errors propagate
    (:class:`NotKhatriRaoError` signals a non-product input).  The model
    reassembled through the clumped factors, each the Khatri-Rao product of
    its block's recovered matrices, must reproduce the clumped table within
    ``tol`` times its largest entry, the rule :func:`decompose3` applies, or
    :class:`DegenerateSpectrumError` is raised.  A NaN or negative ``tol``, or a
    block index that is not a whole number >= 0, raises :class:`InputError` first.

    Returns ``(pi, emissions)`` with emissions in original variable order.
    """
    tol = _tolerance(tol)
    T = np.asarray(T, dtype=float)
    blocks = _three_blocks(tripartition, T.ndim)
    N = _clump(T, blocks)
    rec = decompose3(N, r, seed=seed, tol=tol)
    dims = [[T.shape[j] for j in block] for block in blocks]
    parts, rebuilt = zip(*map(_unclump, rec.factors, dims))
    what = "reassembled model misses the input table"
    _require_rebuilds(rec.pi, *rebuilt, N.reshape(N.shape[0], -1), tol, what)
    by_var = dict(zip(sum(blocks, ()), sum(parts, [])))
    return rec.pi, [by_var[j] for j in range(T.ndim)]
