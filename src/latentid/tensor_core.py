"""Dense matrix and tensor primitives.

Row-wise Khatri-Rao products, triple products, numerical and Kruskal rank,
and clumping / de-clumping index algebra.

Composite index convention
--------------------------
Whenever several finite variables are merged into one composite variable, the
composite index is mixed-radix with the *last* variable varying fastest.  This
is the convention of :func:`khatri_rao` and of C-order ``reshape``;
:func:`clump_tensor` and :func:`unclump` rely on the two agreeing
bit-exactly.

All operations are pure; inputs are never mutated.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Sequence

import numpy as np

from .errors import InputError, NotKhatriRaoError

#: relative singular-value cutoff for rank decisions
RANK_TOL = 1e-10
#: probability rows / distributions must sum to 1 within this
ROW_SUM_TOL = 1e-9
#: probability entries may undershoot zero by at most this
NEG_ENTRY_TOL = 1e-12
#: entries that must be strictly positive (class weights) must exceed this
POSITIVE_FLOOR = 1e-12
#: dense arrays built from a model are refused above this many entries
ENTRY_CAP = 2**24
#: a square row subset of a tall matrix is accepted without an SVD when the
#: bound of :func:`_orthogonal_screen` on its ``sigma_n / sigma_1`` is at least
#: this multiple of the rank rule's cutoff, ``RANK_TOL * n``.  The bound reads
#: ``|det B|`` of a ``k x k`` block ``B`` of an orthogonal factor, ``k <= n``,
#: from the cofactor expansion of :func:`_maximal_minors`.  Each minor of a
#: matrix with orthonormal columns is at most 1 in absolute value, and by
#: Cauchy-Binet and Cauchy-Schwarz so is the sum of the absolute values of each
#: level's terms, so the computed ``|det B|`` is off by at most about ``(k + 1)
#: * sqrt(k!) * eps``, as each level adds ``(j + 1) * eps`` to ``sqrt(j)``
#: times the error of the level below.
#: A screened matrix has at least ``2k`` rows, so its stack of blocks has at
#: least ``C(2k, k) * k^2`` entries, above :data:`ENTRY_CAP` from ``k = 10``
#: on; for ``k <= 9`` the error stays below ``2e-12``, against a floor of at
#: least ``2e-10 * n``, and the true ratio is above ``1.99 *
#: cutoff``.  The bound's other inputs err far less: the rank rule put
#: ``sigma_n`` above ``RANK_TOL * sigma_1``, so the SVD's absolute error of
#: about ``eps * sigma_1`` moves ``kappa`` by a relative ``eps / RANK_TOL``,
#: about ``2e-6``, and the computed factor is orthogonal to within about ``m *
#: eps``.  The SVD's own error on the subset, about ``n * eps * sigma_1``, is
#: far below the remaining ``0.99 * cutoff * sigma_1``, so the SVD rule
#: accepts every subset the bound accepts.
_DET_SCREEN_MARGIN = 2.0
#: :func:`_subsets` keeps at most this many indexes, of at most this many entries each;
#: :func:`_expansion` as many whose last level is as large (under 2^17 in all at m >= 2k)
_SUBSET_SLOTS, _SUBSET_ENTRIES = 32, 2**15


# ---------------------------------------------------------------------------
# validation helpers


def _as_2d(M, name: str) -> np.ndarray:
    """Coerce to a nonempty 2-D float array, leaving its entries unchecked."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise InputError(f"{name} must be 2-D, got ndim={M.ndim}")
    if M.size == 0:
        raise InputError(f"{name} must have at least one row and column")
    return M


def _read_only(value, dtype=float, fresh: bool = False) -> np.ndarray:
    """A read-only copy of ``value`` as ``dtype``, the one kind of array a class keeps.

    With ``fresh``, ``value`` is an array its caller has just made and shares
    with no one, frozen in place unless it needs converting to ``dtype``.
    """
    arr = np.array(value, dtype=dtype, copy=None if fresh else True)
    arr.flags.writeable = False
    return arr


def _whole_number(value, what: str, least: int, index: int | None = None) -> int:
    """``value`` as an int: an integer of any size or a whole float, at least ``least``;
    anything else is refused, never truncated, naming ``what`` or ``what[index]``."""
    if isinstance(value, (int, np.integer)) and value >= least:
        return int(value)
    if isinstance(value, (float, np.floating)) and value.is_integer() and value >= least:
        return int(value)
    name = what if index is None else f"{what}[{index}]"
    raise InputError(f"{name} must be a whole number >= {least}, got {value}")


def _whole_numbers(values: Sequence, what: str, least: int) -> list[int]:
    """:func:`_whole_number` of each entry of ``values``, a list named ``what``."""
    return [_whole_number(v, what, least, i) for i, v in enumerate(values)]


def _tolerance(tol: float) -> float:
    """``tol`` unchanged, refused with :class:`InputError` when NaN or negative."""
    if not tol >= 0.0:
        raise InputError(f"tol must be a number >= 0, got {tol}")
    return tol


def _check_entries(count: int, what: str) -> None:
    """The exact step of :func:`check_power_entries`: refuse ``count`` entries above
    :data:`ENTRY_CAP`.

    A count past ``2^128`` is stated as the power of two it reaches: Python
    will not print an integer of more than 4300 digits.
    """
    if count > ENTRY_CAP:
        bits = count.bit_length()
        size = count if bits <= 128 else f"at least 2^{bits - 1}"
        raise InputError(f"{what} has {size} entries, cap is {ENTRY_CAP}")


def _log2_lower(base: int) -> int:
    """A lower bound of ``log2(base)`` in units of ``2^-52``, exact for powers of two."""
    if base & (base - 1) == 0:
        return (base.bit_length() - 1) << 52
    # the float product is off by a few ulps, far inside the 1e-12 margin
    return math.floor(math.log2(base) * (1 - 1e-12) * 2**52)


def check_power_entries(powers: Sequence[tuple[int, int]], what: str) -> None:
    """Refuse a dense array of ``prod(base ** exponent)`` entries, over the
    ``(base, exponent)`` pairs in ``powers``, above :data:`ENTRY_CAP`; every
    builder calls this with the size of the array it is about to build,
    first (a plain count ``n`` is ``[(n, 1)]``).

    Counts that are powers in a node count or window length grow past any
    cap, and forming one exactly takes time and memory linear in the
    exponent.  A lower bound ``k`` of the count's ``log2``, computed in
    integers, decides first: when ``k <= 128`` the count is below ``2^130``
    and is formed and checked exactly, so every message up to ``2^128`` is
    exact.  Past that the array is refused as having at least ``2^k``
    entries, which never exceeds the count and is exact when every base is a
    power of two.
    """
    k = sum(exponent * _log2_lower(base) for base, exponent in powers) >> 52
    if k <= 128:
        _check_entries(math.prod(base**exponent for base, exponent in powers), what)
        return
    raise InputError(f"{what} has at least 2^{k} entries, cap is {ENTRY_CAP}")


def _check_finite(M: np.ndarray, name: str) -> None:
    if not np.all(np.isfinite(M)):
        raise InputError(f"{name} contains non-finite entries")


def as_matrix(M, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D float array, requiring finite entries."""
    M = _as_2d(M, name)
    _check_finite(M, name)
    return M


def check_stochastic(M, name: str = "matrix") -> np.ndarray:
    """Validate a row-stochastic matrix: entries in [0, 1], rows summing to 1."""
    M = as_matrix(M, name)
    if M.min() < -NEG_ENTRY_TOL or M.max() > 1.0 + ROW_SUM_TOL:
        raise InputError(f"{name} entries must lie in [0, 1]")
    err = np.abs(M.sum(axis=1) - 1.0).max()
    if err > ROW_SUM_TOL:
        raise InputError(f"{name} rows must sum to 1 (max deviation {err:.3g})")
    return M


def check_probability_vector(pi) -> np.ndarray:
    """Validate a strictly positive probability vector."""
    pi = np.asarray(pi, dtype=float)
    if pi.ndim != 1 or pi.size == 0:
        raise InputError("pi must be a nonempty 1-D array")
    if not np.all(np.isfinite(pi)):
        raise InputError("pi contains non-finite entries")
    if pi.min() <= POSITIVE_FLOOR:
        raise InputError("pi entries must be strictly positive")
    if abs(pi.sum() - 1.0) > ROW_SUM_TOL:
        raise InputError(f"pi must sum to 1 (got {pi.sum():.12g})")
    return pi


def check_distribution_tensor(T) -> tuple[np.ndarray, float]:
    """Check a recovery's input table: finite, near-nonnegative, of total mass 1.
    Returns it as a float array with its largest entry.  A NaN or infinite entry
    makes the minimum or the maximum non-finite, so those passes decide finiteness."""
    T = np.asarray(T, dtype=float)
    low, high = T.min(), T.max()
    if not (-np.inf < low and high < np.inf):
        raise InputError("tensor contains non-finite entries")
    if low < -NEG_ENTRY_TOL:
        raise InputError(f"tensor has entries below -{NEG_ENTRY_TOL}")
    if abs(T.sum() - 1.0) > ROW_SUM_TOL:
        raise InputError(f"tensor must sum to 1 (got {T.sum():.12g})")
    return T, high


# ---------------------------------------------------------------------------
# products


def khatri_rao(factors: Sequence[np.ndarray]) -> np.ndarray:
    """Row-wise Khatri-Rao (row tensor) product of matrices with equal row count.

    Row ``i`` of the result is the flattened outer product of the factors'
    ``i``-th rows, with the last factor's column index varying fastest.  For
    row-stochastic factors the result is again row stochastic: each output row
    is the joint distribution of conditionally independent variables.

    The product is folded from the right: each step multiplies every column
    of the next factor to the left by the product of the later factors, which
    is the wider operand and is kept as the contiguous innermost axis.  Each
    broadcast then runs over a long inner axis rather than over a factor's
    few columns.  The first non-finite factor is refused by name.

    Parameters
    ----------
    factors : sequence of (r, a_i) arrays

    Returns
    -------
    (r, prod a_i) array
    """
    if len(factors) == 0:
        raise InputError("khatri_rao requires at least one factor")
    mats = [_as_2d(F, f"factor {i}") for i, F in enumerate(factors)]
    rows = mats[0].shape[0]
    for i, M in enumerate(mats[1:], start=1):
        if M.shape[0] != rows:
            raise InputError(
                f"factor 0 has {rows} rows but factor {i} has {M.shape[0]}"
            )
    for i, M in enumerate(mats):
        _check_finite(M, f"factor {i}")
    return _khatri_rao(mats)


def _khatri_rao(mats: Sequence[np.ndarray]) -> np.ndarray:
    """The arithmetic of :func:`khatri_rao`, unchecked: ``mats`` are float
    arrays with equal row counts, as the library's own intermediate results
    are, and are used as they are.  Axes before the last two broadcast, so
    one call takes the products of a stack of matrices."""
    out = mats[-1]
    for M in reversed(mats[:-1]):
        out = M[..., :, None] * out[..., None, :]
        out = out.reshape(*out.shape[:-2], -1)
    return out


def triple_product(M1, M2, M3) -> np.ndarray:
    """Sum of outer products of corresponding rows of three matrices.

    Entry ``(u, v, w)`` equals ``sum_i M1[i, u] * M2[i, v] * M3[i, w]``.
    The result is unchanged by simultaneously permuting the rows of all three
    factors, or by row rescalings whose per-row scale product is 1.

    Computed as its mode-1 unfolding ``M1.T @ khatri_rao([M2, M3])`` (Kolda &
    Bader, SIAM Review 2009), one matrix product whose inner dimension is the
    row count.
    """
    M1 = as_matrix(M1, "M1")
    M2 = as_matrix(M2, "M2")
    M3 = as_matrix(M3, "M3")
    if not (M1.shape[0] == M2.shape[0] == M3.shape[0]):
        raise InputError(
            f"row counts differ: {M1.shape[0]}, {M2.shape[0]}, {M3.shape[0]}"
        )
    return _triple_product(M1, M2, M3)


def _triple_product(M1, M2, M3) -> np.ndarray:
    """The arithmetic of :func:`triple_product`, unchecked: the matrices are
    finite float arrays with equal row counts, as the library's own results
    are, and are used as they are."""
    shape = (M1.shape[1], M2.shape[1], M3.shape[1])
    return (M1.T @ _khatri_rao([M2, M3])).reshape(shape)


# ---------------------------------------------------------------------------
# rank


def rank_from_singular_values(s: np.ndarray, shape) -> int | np.ndarray:
    """Rank decision on the singular values ``s`` (descending) of a matrix.

    Counts the values above ``RANK_TOL * s[0] * max(shape)``, so a zero
    matrix has rank 0.  ``s`` may be a stack, one row of singular values per
    matrix of ``shape``, and then one rank per matrix is returned; a single
    matrix gets a Python ``int``.  This is the one rank rule:
    :func:`numerical_rank` applies it to a fresh SVD, :func:`kruskal_rank` to
    stacked subsets, and callers that also need the singular vectors apply it
    to theirs, which it takes unchecked; one matrix takes a scalar path.
    """
    if s.ndim == 1:
        return int(np.count_nonzero(s > RANK_TOL * s[0] * max(shape))) if s.size else 0
    return (s > RANK_TOL * s[..., :1] * max(shape)).sum(-1)


def numerical_rank(M) -> int:
    """Number of singular values above ``RANK_TOL * sigma_1 * max(rows, cols)``.

    Returns 0 for the zero matrix.
    """
    M = as_matrix(M)
    return rank_from_singular_values(np.linalg.svd(M, compute_uv=False), M.shape)


def _orthogonal_screen(U: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, float]:
    """Blocks of one orthogonal factor that bound the square row subsets of ``M``.

    ``M = U Sigma V^T``, its one SVD with values ``s``, is ``m x n`` with ``m >
    n`` and numerical rank ``n``; ``kappa = sigma_1 / sigma_n``, and ``U`` is
    square when ``2n > m``.  An ``n``-row set ``S`` has ``M[S] = U[S, :n]
    Sigma_n V^T``, and deleting rows does not raise ``sigma_1``, so
    ``sigma_n(M[S]) / sigma_1(M[S]) >= sigma_min(U[S, :n]) / kappa``.  By the
    CS decomposition of the square ``U`` (Paige & Wei, Linear Algebra Appl.
    208/209, 1994), ``sigma_min(U[S, :n]) = sigma_min(U[S^c, n:])``, and a
    block of an orthogonal matrix has singular values at most 1, so either
    block's ``|det|`` is at most its ``sigma_min``.

    Returns ``W`` and ``log_floor``.  ``W`` is ``U[:, :n]`` when ``n <= m - n``
    and ``U[:, n:]`` otherwise, so its square blocks ``W[T]`` have the smaller
    size ``k = W.shape[1]``, with ``T = S`` or ``T = S^c`` respectively.  ``S``
    is accepted when ``log |det W[T]| >= log_floor = log(_DET_SCREEN_MARGIN *
    RANK_TOL * n * kappa)``; a singular block never is.
    """
    rows, cols = len(U), len(s)
    W = U[:, :cols] if 2 * cols <= rows else U[:, cols:]
    return W, math.log(_DET_SCREEN_MARGIN * RANK_TOL * cols * (s[0] / s[-1]))


@functools.lru_cache(maxsize=_SUBSET_SLOTS)
def _subsets(rows: int, k: int) -> np.ndarray:
    """The read-only index of the ``k``-row subsets, in lexicographic order, kept
    for the views of one certificate that share a shape (the three 12 x 8 views of
    a 12-class model need one) and for later calls in the same process; callers
    keep at most ``_SUBSET_SLOTS`` indexes of ``_SUBSET_ENTRIES``: 8 MB of ``intp``."""
    sets = itertools.chain.from_iterable(itertools.combinations(range(rows), k))
    idx = np.fromiter(sets, dtype=np.intp, count=math.comb(rows, k) * k)
    return _read_only(idx.reshape(-1, k), np.intp, fresh=True)


def _expansion_levels(rows: int, k: int):
    """Yield, for ``j = 2 .. k``, the ``j``-row subsets in lexicographic order,
    for each subset ``S`` and each ``t`` the position of ``S`` less ``s_t`` among
    the ``(j - 1)``-row subsets, and the cofactor signs ``(-1)^(t+j)``; read-only,
    each level built from the last.

    The ``j``-subsets that start with row ``a`` are ``a`` followed by each of the
    last ``c_a = C(rows - 1 - a, j - 1)`` ``(j - 1)``-subsets, those after ``a``
    (at ``tail``).  So ``S`` less ``a`` is at ``tail``, and ``S`` less a later
    row is ``a`` followed by ``tail`` less that row: its position one level down,
    moved from the block after ``a`` to the block of ``a``, which by the
    combinatorial number system is ``C(rows, j - 1) - C(rows, j - 2) - c_a`` on."""
    subsets, positions = np.arange(rows)[:, None], np.zeros((rows, 1), dtype=np.intp)
    for j in range(2, k + 1):
        counts = np.array([math.comb(rows - 1 - a, j - 1) for a in range(rows)])
        first = np.repeat(np.arange(rows), counts)
        tail = np.arange(len(first)) + (len(subsets) - np.cumsum(counts))[first]
        shift = len(subsets) - math.comb(rows, j - 2) - counts[first]
        subsets = _read_only(np.column_stack([first, subsets[tail]]), np.intp, True)
        positions = np.column_stack([tail, positions[tail] + shift[:, None]])
        del first, tail, shift  # not held while the caller reads the level
        signs = (-1.0) ** np.arange(j - 1, -1, -1)
        yield subsets, _read_only(positions, np.intp, True), _read_only(signs, float, True)


@functools.lru_cache(maxsize=_SUBSET_SLOTS)
def _expansion(rows: int, k: int) -> tuple[tuple[np.ndarray, ...], ...]:
    """The levels of :func:`_expansion_levels`, kept like :func:`_subsets` when
    the last level's subsets hold at most ``_SUBSET_ENTRIES`` entries."""
    return tuple(_expansion_levels(rows, k))


def _maximal_minors(W: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``det W[T]`` for every ``k``-row subset ``T`` of the ``m x k`` ``W``, and
    the subsets, in lexicographic order: a cofactor expansion with one level per
    column, ``D_j[S] = sum_t (-1)^(t+j) W[s_t, j-1] * D_{j-1}[S less s_t]`` over
    all ``j``-row subsets ``S``, each level one gather, product and sum over
    ``C(m, j) * j`` entries; its error is bounded at :data:`_DET_SCREEN_MARGIN`."""
    rows, k = W.shape
    minors, subsets = W[:, 0], np.arange(rows)[:, None]
    small = math.comb(rows, k) * k <= _SUBSET_ENTRIES
    levels = _expansion(rows, k) if small else _expansion_levels(rows, k)
    for j, (subsets, positions, signs) in enumerate(levels, start=2):
        terms = W[:, j - 1][subsets]
        terms *= minors[positions]
        minors = terms @ signs
    return minors, subsets


def _subsets_independent(M: np.ndarray, size: int, screen=None) -> bool:
    """Whether every ``size``-row subset of ``M`` has numerical rank ``size``.

    All ``C(rows, size)`` subsets are judged at once by the rank rule on one
    stacked SVD (a zero subset included).  With ``screen``, the
    :func:`_orthogonal_screen` of a tall ``M`` of rank ``size == cols``, the
    maximal minors of ``W`` (:func:`_maximal_minors`), whose row sets are the
    subsets or, when ``cols > rows - cols``, their complements, first accept
    the subsets they prove independent; only the rest go to the SVD, so the
    decisions are the SVD rule's.  Rectangular subsets all go to the SVD (a
    Gram determinant would square the condition number).  Each stack, the
    ``k x k`` blocks of ``W`` included though the expansion never builds them,
    is refused by :func:`_check_entries` before anything is built.
    """
    rows, cols = M.shape
    W, log_floor = (M, None) if screen is None else screen
    k = size if screen is None else W.shape[1]
    count = math.comb(rows, k)
    _check_entries(count * k * W.shape[1], f"stack of {k}-row subsets")
    if screen is None:
        idx = _subsets(rows, k) if count * k <= _SUBSET_ENTRIES else _subsets.__wrapped__(rows, k)
    else:
        minors, idx = _maximal_minors(W)
        idx = idx[np.abs(minors) < math.exp(log_floor)]
        if len(idx) == 0:
            return True
        if k < size:  # the blocks' row sets are the subsets' complements
            keep = np.ones((len(idx), rows), dtype=bool)
            np.put_along_axis(keep, idx, False, axis=1)
            idx = np.nonzero(keep)[1].reshape(-1, size)
        _check_entries(idx.size * cols, f"stack of {size}-row subsets")
    s = np.linalg.svd(M[idx], compute_uv=False)
    return not np.any(rank_from_singular_values(s, (size, cols)) < size)


def kruskal_rank(M) -> int:
    """Largest ``I`` such that every set of ``I`` rows is linearly independent.

    Always at most the ordinary rank.  A matrix of full row rank has Kruskal
    rank equal to its row count (checked first).  Otherwise each size is
    tested on one stack of all its row subsets (:func:`_subsets_independent`),
    refused above :data:`ENTRY_CAP` entries like every other dense array:
    the Kruskal rank is NP-hard to compute (Tillmann & Pfetsch, IEEE Trans.
    Inf. Theory 2014).

    Every subset of an independent row set is independent, so "all ``s``-row
    subsets are independent" can only turn from true to false as ``s`` grows;
    the same holds for the rank rule, since deleting a row neither raises
    ``sigma_1`` nor lowers the ratio ``sigma_s / sigma_1`` below the larger
    set's ``sigma_{s+1} / sigma_1``.  The Kruskal rank is where it turns.  The
    search tests ``s = rank`` first, where a generic matrix stops, and then
    ``s = 1, 2, ...`` up to the first dependent size.  ``M`` takes one SVD,
    with its left factor for a tall matrix and values-only otherwise.  At ``s
    = rank = cols`` the subsets are square, and a bound on blocks of that
    factor (:func:`_orthogonal_screen`) accepts the clearly independent ones
    without an SVD.  The blocks are ``k x k`` with ``k = min(cols, rows -
    cols)``, and one cofactor expansion (:func:`_maximal_minors`) gives all
    their determinants, so a generic tall matrix costs one SVD and three
    levels of 66, 220 and 495 subsets of a ``12 x 4`` factor for ``12 x 8``.
    """
    M = as_matrix(M)
    rows, cols = M.shape
    if cols < rows:  # the screen reads U[:, cols:] only when 2 * cols > rows
        U, s, _ = np.linalg.svd(M, full_matrices=2 * cols > rows)
    else:
        s = np.linalg.svd(M, compute_uv=False)
    rank = rank_from_singular_values(s, M.shape)
    if rank == rows:
        return rows
    screen = _orthogonal_screen(U, s) if rank == cols else None  # so M is tall
    if rank == 0 or _subsets_independent(M, rank, screen):
        return rank
    dependent = (size for size in range(1, rank) if not _subsets_independent(M, size))
    return next(dependent, rank) - 1


# ---------------------------------------------------------------------------
# clumping index algebra


def unclump(A, col_dims: Sequence[int]) -> list[np.ndarray]:
    """Invert :func:`khatri_rao` on row-stochastic factors.

    ``A`` must be row stochastic with ``prod(col_dims)`` columns.  Factor
    ``i`` is recovered by summing, within each row, the entries whose ``i``-th
    mixed-radix column digit agrees; this is exact when ``A`` is a row tensor
    product of stochastic factors.  The round trip, the unchecked row tensor
    product of the result, is compared with ``A`` by :func:`_unclump`, after
    the checks of ``A`` and ``col_dims`` here: :class:`NotKhatriRaoError` is
    raised unless the residual is at most :data:`ROW_SUM_TOL`.
    """
    A = as_matrix(A, "A")
    dims = _whole_numbers(col_dims, "col_dims", 1)
    if not dims:
        raise InputError("col_dims must be nonempty")
    if math.prod(dims) != A.shape[1]:
        raise InputError(
            f"prod(col_dims)={math.prod(dims)} does not match {A.shape[1]} columns"
        )
    row_err = np.abs(A.sum(axis=1) - 1.0).max()
    if row_err > ROW_SUM_TOL:
        raise NotKhatriRaoError(
            f"rows must sum to 1 for de-clumping (max deviation {row_err:.3g})"
        )
    return _unclump(A, dims)[0]


def _unclump(A: np.ndarray, dims: Sequence[int]) -> tuple[list[np.ndarray], np.ndarray]:
    """:func:`unclump`'s factors and their row tensor product, checking only the round
    trip: ``A`` is finite, rows summing to 1 within 1e-12, as decompose3's factors are."""
    R = A.reshape(A.shape[0], *dims)
    factors = []
    for i in range(len(dims)):
        axes = tuple(ax for ax in range(1, len(dims) + 1) if ax != i + 1)
        factors.append(R.sum(axis=axes) if axes else R.copy())
    product = _khatri_rao(factors)
    resid = np.abs(product - A).max()
    if not resid <= ROW_SUM_TOL:
        raise NotKhatriRaoError(
            f"input is not a row tensor product of stochastic factors "
            f"(round-trip residual {resid:.3g})"
        )
    return factors, product


def _three_blocks(
    blocks: Sequence[Sequence[int]], p: int
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """``blocks`` as sorted index tuples, checked to be three disjoint
    nonempty blocks covering ``range(p)``; :class:`InputError` otherwise."""
    if len(blocks) != 3:
        raise InputError(f"need exactly 3 blocks, got {len(blocks)}")
    sorted_blocks = tuple(
        tuple(sorted(_whole_numbers(b, f"blocks[{i}]", 0))) for i, b in enumerate(blocks)
    )
    if any(len(b) == 0 for b in sorted_blocks):
        raise InputError("blocks must be nonempty")
    if sorted(j for b in sorted_blocks for j in b) != list(range(p)):
        raise InputError(f"blocks must disjointly cover all {p} axes, got {blocks}")
    return sorted_blocks  # type: ignore[return-value]


def clump_tensor(T, blocks: Sequence[Sequence[int]]) -> np.ndarray:
    """Regroup the axes of a p-way tensor into three composite axes.

    ``blocks`` are three disjoint, nonempty sets of axis indices covering
    ``range(T.ndim)``.  Within each block axes are taken in increasing order,
    so the composite index matches :func:`khatri_rao` applied to per-axis
    factors in the same order.  Entries are preserved exactly.
    """
    T = np.asarray(T, dtype=float)
    return _clump(T, _three_blocks(blocks, T.ndim))


def _clump(T: np.ndarray, blocks) -> np.ndarray:
    """:func:`clump_tensor` of a float array along blocks :func:`_three_blocks` made."""
    dims = tuple(math.prod(T.shape[j] for j in b) for b in blocks)
    return T.transpose([j for b in blocks for j in b]).reshape(dims)

