"""Nonparametric product mixtures: cut points, binning and CDF recovery.

Components are piecewise-(multi)linear CDF tables over rectangular knot
grids, evaluated exactly between knots and clamped outside them.  Cut points
discretize each variate into bins whose conditional matrix has full row rank,
which turns the continuous mixture into an exactly solvable finite one.

A mixture stacks and tabulates its components once, when it is built, with a
map from each pooled knot cell to each component's own cell, so evaluating a
variate on any grid takes one search per coordinate for all its components.
Cut selection keeps its state in stacked arrays, one group of variates per
shape of candidate and cut grid: the axes of all variates with the same knot
and query counts are sorted in one pass, the variates of one block dimension
are evaluated in one pass, each lockstep round takes one SVD and one product
of farthest candidates per group, and each group's bin masses come from one
gather.  A group splits only where its variates diverge.  A refusal names the
lowest-numbered variate whose family is linearly dependent.  CDF values at
query points are read back through the cumulative transform after inserting
the queries verbatim among the cuts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

from .errors import InputError, RankDeficientError
from .recovery import RECOVERY_TOL, decompose3
from .tensor_core import (
    NEG_ENTRY_TOL,
    ROW_SUM_TOL,
    _check_entries,
    _read_only,
    _tolerance,
    _triple_product,
    _whole_number,
    check_probability_vector,
    numerical_rank,
    rank_from_singular_values,
)

class CdfComponent:
    """Piecewise-multilinear CDF table on a rectangular knot grid.

    ``knots`` is a strictly increasing 1-D array (one real variate) or a
    sequence of such arrays (a block of several coordinates); ``values`` holds
    the CDF at every grid point.  Evaluation interpolates multilinearly
    between knots and clamps outside them, so the table must carry its limits:
    every slice at a minimal knot is 0 and the top corner is 1.  Every knot
    cell must have nonnegative mass (the table's successive differences along
    every coordinate at once, within ``NEG_ENTRY_TOL``); with the limits this
    makes the table nondecreasing and keeps it in [0, 1].  The component
    holds read-only copies of its knots and values, or in a mixture read-only
    views of the mixture's stacks; the caller's arrays are neither frozen nor shared.

    The checks live in :func:`_check_tables`, which takes a stack of tables
    of one shape; the constructor runs it on a stack of one.  The model file
    loader runs it once per table shape, and re-checks a failing file one
    component at a time to name its first fault.
    """

    def __init__(self, knots, values):
        knots = (knots,) if np.ndim(knots[0]) == 0 else knots
        self.knots = tuple(_read_only(k) for k in knots)
        self.values = _read_only(values)
        _check_tables([k[None] for k in self.knots], self.values[None])

    @classmethod
    def _checked(cls, knots: tuple[np.ndarray, ...], values: np.ndarray) -> "CdfComponent":
        """The component of read-only arrays that :func:`_check_tables` passed, as they are."""
        comp = cls.__new__(cls)
        comp.knots, comp.values = knots, values
        return comp

    @property
    def block_dim(self) -> int:
        return len(self.knots)

    def evaluate_grid(self, axes: Sequence[np.ndarray]) -> np.ndarray:
        """CDF on the product grid of the requested per-coordinate values.

        Coordinates are clamped to the knot range, so ``-inf`` and ``+inf``
        give the 0 and 1 limits.  A lone component is its own family
        (:func:`_evaluate`), which blends one coordinate at a time, so every
        entry is computed exactly as a single point would be.
        """
        if len(axes) != self.block_dim:
            raise InputError(f"need {self.block_dim} coordinate arrays, got {len(axes)}")
        return _evaluate(_tabulate([[self]]), [axes])[0]

    def __call__(self, point) -> float:
        if self.block_dim == 1 and np.ndim(point) == 0:
            point = (point,)
        if len(point) != self.block_dim:
            raise InputError(f"point has {len(point)} coordinates, expected {self.block_dim}")
        return float(self.evaluate_grid([np.array([x]) for x in point]).ravel()[0])

    @classmethod
    def uniform(cls, lo: float, hi: float) -> "CdfComponent":
        """CDF of the uniform distribution on [lo, hi]."""
        return cls([lo, hi], [0.0, 1.0])

    @classmethod
    def from_product(cls, parts: Sequence["CdfComponent"]) -> "CdfComponent":
        """Joint CDF of independent one-dimensional components.

        The product of piecewise-linear marginals is piecewise-multilinear on
        the product grid, so the table is exact.
        """
        if any(part.block_dim != 1 for part in parts):
            raise InputError("from_product expects one-dimensional parts")
        knots = tuple(part.knots[0] for part in parts)
        values = parts[0].values
        for part in parts[1:]:
            values = np.multiply.outer(values, part.values)
        return cls(knots, values)


@dataclass(frozen=True)
class NonparametricMixture:
    """Mixing weights and an r x p grid of CDF components.

    ``components[i][j]`` is the CDF of variate j under class i; all classes
    must agree on each variate's block dimension.  Its ``components`` are
    views of stacks it owns (:func:`_tabulate`), not the objects it is given.
    """

    pi: np.ndarray
    components: tuple[tuple[CdfComponent, ...], ...]
    _families: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pi = check_probability_vector(_read_only(self.pi))
        comps = tuple(tuple(row) for row in self.components)
        if len(comps) != pi.size:
            raise InputError(f"{len(comps)} component rows for {pi.size} classes")
        p = len(comps[0])
        if p < 1 or any(len(row) != p for row in comps):
            raise InputError("all classes must have the same variates")
        for j in range(p):
            dims = {row[j].block_dim for row in comps}
            if len(dims) != 1:
                raise InputError(f"variate {j} has inconsistent block dimensions {dims}")
        families = {}
        for b in {comp.block_dim for comp in comps[0]}:  # one tabulation per block dimension
            members = [j for j in range(p) if comps[0][j].block_dim == b]
            families.update(zip(members, _tabulate([[row[j] for row in comps] for j in members])))
        families = tuple(families[j] for j in range(p))
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "components", tuple(zip(*(f.components for f in families))))
        object.__setattr__(self, "_families", families)

    @property
    def r(self) -> int:
        return self.pi.size

    @property
    def p(self) -> int:
        return len(self.components[0])

    @property
    def block_dims(self) -> tuple[int, ...]:
        return tuple(c.block_dim for c in self.components[0])

    def variate(self, j: int) -> list[CdfComponent]:
        """The r components of variate j, for ``0 <= j < p``."""
        return list(self._family(j).components)

    def _family(self, j: int) -> "_Family":
        j = _whole_number(j, "variate index", 0)
        if j >= self.p:
            raise InputError(f"variate index {j} is out of range for p={self.p}")
        return self._families[j]


@dataclass(frozen=True)
class CutPointSet:
    """Sorted cut points per coordinate, defining a binning into intervals.

    A coordinate with c cuts has c + 1 bins.
    """

    cuts: tuple[np.ndarray, ...]

    def __post_init__(self):
        arrays = tuple(_read_only(c) for c in self.cuts)
        for c, arr in enumerate(arrays):
            if arr.ndim != 1 or arr.size == 0:
                raise InputError(f"cut array {c} must be nonempty 1-D")
            if np.isnan(arr).any():
                raise InputError(f"cut array {c} contains NaN")
            # compared, not differenced: inf - inf is NaN, which would pass
            if (arr[1:] <= arr[:-1]).any():
                raise InputError(f"cut array {c} must be strictly increasing")
        object.__setattr__(self, "cuts", arrays)

    @classmethod
    def _checked(cls, cuts: tuple[np.ndarray, ...]) -> "CutPointSet":
        """The cut set of read-only arrays that pass its checks, as they are."""
        cut_set = cls.__new__(cls)
        object.__setattr__(cut_set, "cuts", cuts)
        return cut_set

    @property
    def block_dim(self) -> int:
        return len(self.cuts)

    @property
    def bins_per_axis(self) -> tuple[int, ...]:
        return tuple(c.size + 1 for c in self.cuts)


def _as_cut_set(cuts) -> CutPointSet:
    if isinstance(cuts, CutPointSet):
        return cuts
    if len(cuts) == 0 or np.ndim(cuts[0]) == 0:
        cuts = [cuts]
    return CutPointSet(cuts=tuple(cuts))


def _normalize_points(points, b: int) -> np.ndarray:
    """Points as an ``(n, b)`` float array.

    ``points`` is ``None`` (no points), one point (a bare scalar when
    ``b == 1``, a bare ``b``-tuple when ``b > 1``) or a sequence of points,
    each a scalar or ``b`` coordinates.  Input that converts to that array is
    taken in one pass; an ``(n, b)`` float array comes back as it is.  Any
    other input (ragged or deeper nesting, a wrong coordinate count, a NaN)
    goes through :func:`_normalize_each`, which names the bad point.
    """
    if points is None:
        return np.empty((0, b))
    try:
        arr = np.asarray(points, dtype=float)
    except (TypeError, ValueError):
        return _normalize_each(points, b)
    if arr.ndim < 2 and (b == 1 or arr.size in (0, b)):
        arr = arr.reshape(-1, b)
    if arr.ndim == 2 and arr.shape[1] == b and not np.isnan(arr).any():
        return arr
    return _normalize_each(points, b)


def _normalize_each(points, b: int) -> np.ndarray:
    """:func:`_normalize_points` one point at a time, raising for the first bad one."""
    def bare(x):  # one number; a list or tuple, ragged or not, is never converted
        return not isinstance(x, (list, tuple)) and np.ndim(x) == 0
    if bare(points) or (b > 1 and len(points) == b and bare(points[0])):
        points = [points]
    out = []
    for pt in points:
        coords = (pt,) if bare(pt) else pt
        if len(coords) != b:
            raise InputError(f"point {pt} has {len(coords)} coordinates, expected {b}")
        try:
            coords = tuple(float(x) for x in coords)
        except (TypeError, ValueError):
            raise InputError(f"point {pt} has a coordinate that is not a number") from None
        if np.isnan(coords).any():
            raise InputError(f"point {pt} has a NaN coordinate")
        out.append(coords)
    return np.array(out, dtype=float).reshape(-1, b)


def _cell_masses(tables: np.ndarray) -> np.ndarray:
    """Successive differences of each table along every coordinate at once.

    Row i holds those of ``tables[i]``, the last coordinate varying fastest;
    on a component's own table they are the masses of its knot cells.
    """
    mass = tables
    for axis in range(1, tables.ndim):
        mass = np.diff(mass, axis=axis)
    return mass.reshape(len(tables), -1)


def _check_tables(knots: Sequence[np.ndarray], values: np.ndarray) -> None:
    """Refuse a stack of CDF tables unless :class:`CdfComponent` takes every one.

    ``knots[c]`` stacks the knot arrays of coordinate c and ``values`` the
    tables, one component per row of each.  Each check runs once for the whole
    stack, in the order and with the message of a lone component's, so a
    stack of one raises what that component raises, and a stack passes
    exactly when each of its rows would.
    """
    b = len(knots)
    if values.ndim - 1 != b:
        raise InputError(f"values has {values.ndim - 1} axes for {b} knot arrays")
    for c, kn in enumerate(knots):
        if kn.ndim != 2 or kn.shape[1] < 2:
            raise InputError(f"knot array {c} must be 1-D with at least 2 entries")
        # compared, not differenced: finite knots differ by less than overflow
        if not np.isfinite(kn).all() or (kn[:, 1:] <= kn[:, :-1]).any():
            raise InputError(f"knot array {c} must be finite and strictly increasing")
        if values.shape[c + 1] != kn.shape[1]:
            raise InputError(
                f"values axis {c} has length {values.shape[c + 1]}, expected {kn.shape[1]}"
            )
    if not np.isfinite(values).all():
        raise InputError("CDF values must be finite")
    for c in range(b):
        if np.abs(values.take(0, axis=c + 1)).max() > ROW_SUM_TOL:
            raise InputError(
                f"slice at the first knot of coordinate {c} must be 0 "
                "(the table clamps to its endpoints)"
            )
    lowest = _cell_masses(values).min()
    if lowest < -NEG_ENTRY_TOL:
        raise InputError(f"CDF table has a negative cell mass {lowest:.3g}")
    if np.abs(values.reshape(len(values), -1)[:, -1] - 1.0).max() > ROW_SUM_TOL:
        raise InputError("top corner of the CDF table must be 1")


def _bin_masses(tables: np.ndarray) -> np.ndarray:
    """Bin masses from CDF tables at ``[-inf, cuts..., +inf]`` on every coordinate.

    Multilinear interpolation spreads each knot cell's mass uniformly over
    the cell, so every bin's mass is a nonnegative combination of cell
    masses, which :class:`CdfComponent` checks are nonnegative; only rounding
    negatives are left to clamp.
    """
    return np.maximum(_cell_masses(tables), 0.0)


def _padded(arrays: Sequence[np.ndarray], fill: float) -> np.ndarray:
    """The arrays stacked on a new first axis, each padded with ``fill`` to the largest shape."""
    if len(arrays) == 1:
        return arrays[0][None]
    if all(a.shape == arrays[0].shape for a in arrays):
        return np.array(arrays)
    out = np.full((len(arrays), *map(max, zip(*(a.shape for a in arrays)))), fill)
    for row, a in zip(out, arrays):
        row[tuple(map(slice, a.shape))] = a
    return out


class _Family(NamedTuple):
    """The components of one variate, tabulated once for evaluation.

    ``grid[c]`` holds the pooled knots of coordinate c, sorted and unique.  The
    families one :func:`_tabulate` call builds share the stacks of which the
    components are row views, and this family's rows start at ``row``:
    ``knots[c]`` and ``values`` hold the components' own knots and tables,
    and ``cells[c][s, k]`` is the own cell of row s that holds pooled cell k,
    from ``grid[c][k]`` up to the next pooled knot (a component's knots are
    all pooled, so none lies inside a pooled cell).
    A lone component is its own pooled grid, with no map (``cells`` is None).
    """

    components: tuple[CdfComponent, ...]
    grid: tuple[np.ndarray, ...]
    knots: tuple[np.ndarray, ...]
    values: np.ndarray
    cells: tuple[np.ndarray, ...] | None
    row: int

    @property
    def block_dim(self) -> int:
        return len(self.grid)


def _evaluate(families: Sequence[_Family], family_axes: Sequence) -> np.ndarray:
    """CDF tables of families built together, each on its own product grid, in one pass.

    ``family_axes[f]`` holds family f's coordinate arrays.  Each component's
    row holds its CDF on its family's grid at the start of every axis; the
    rest is padding, which no reader may use.  Each value is searched once
    among its family's pooled interior knots, and the maps give each
    component's own cell.  Every entry is blended one coordinate at a time as
    ``below * (1 - t) + above * t`` on the component's own knots, exactly as
    a single point would be, with the value clamped to its cell before ``t``
    is taken (outside the knot range that gives the end knot).
    """
    (n, r), first = (len(families), len(families[0].components)), families[0]
    starts = [f.row for f in families]
    whole = starts == list(range(0, len(first.values), r))  # every row of the stacks, in order
    rows = None if whole and first.cells is None else np.add.outer(starts, np.arange(r))
    V = first.values if whole else first.values.take(rows.ravel(), axis=0)
    b = V.ndim - 1
    for c in range(b):
        xs = [np.asarray(axes[c], dtype=float).ravel() for axes in family_axes]
        k = _padded([f.grid[c][1:-1].searchsorted(x, "right") for f, x in zip(families, xs)], 0)
        kn = first.knots[c] if whole else first.knots[c].take(rows.ravel(), axis=0)
        if first.cells is None:  # a lone component: its own cells, in its one row
            at = k[:, None]
        else:  # each component's own cell, as a position in the rows of kn laid end to end
            at = first.cells[c][rows[..., None], k[:, None]]
            at = at + kn.shape[1] * np.arange(n * r).reshape(n, r, 1)
        nxt, x = at + 1, _padded(xs, np.inf)[:, None]
        left, right = kn.take(at), kn.take(nxt)
        t = (np.minimum(np.maximum(x, left), right) - left) / (right - left)
        t = t.reshape(n * r, -1, *(1,) * (b - 1))
        at, nxt = at.reshape(n * r, -1), nxt.reshape(n * r, -1)
        V = V.reshape(V.shape[0] * V.shape[1], *V.shape[2:])
        V = V.take(at, axis=0) * (1.0 - t) + V.take(nxt, axis=0) * t
        V = V.transpose(0, *range(2, b + 1), 1)
    return V


def _tabulate(variates: Sequence[Sequence[CdfComponent]]) -> list[_Family]:
    """The families of variates of one block dimension, r components each.

    The components' arrays are copied once into padded stacks, and the
    families hold views of their rows instead.  The maps are one count of
    interior knots per pooled cell with a running sum along each row, kept in
    the smallest unsigned type that holds a knot count.
    """
    if len(variates) == 1 and len(variates[0]) == 1:
        ((comp,),) = variates
        return [_Family((comp,), comp.knots, tuple(k[None] for k in comp.knots), comp.values[None],
                        None, 0)]
    n, r = len(variates), len(variates[0])
    comps = [comp for variate in variates for comp in variate]
    # two or more components, so each _padded stack is a new array, frozen in place
    knots = tuple(_read_only(_padded(k, np.nan), fresh=True)
                  for k in zip(*(c.knots for c in comps)))
    values = _read_only(_padded([c.values for c in comps], 0.0), fresh=True)
    # the components become views of the stacks' rows, each cut to its own shape
    comps = [CdfComponent._checked(tuple(k[s, : a.size] for k, a in zip(knots, c.knots)),
                                   values[(s, *map(slice, c.values.shape))])
             for s, c in enumerate(comps)]
    grids, cells = [], []
    for kn in knots:
        # each variate's pooled knots: a stable sort of its rows end to end puts
        # NaN last and keeps the first of each run of equal values (-0.0 or 0.0)
        ranked = np.sort(kn.reshape(n, -1), axis=1, kind="stable")
        first = np.ones(ranked.shape, dtype=bool)
        np.greater(ranked[:, 1:], ranked[:, :-1], out=first[:, 1:])  # false at NaN
        pooled, ends = _read_only(ranked[first], fresh=True), first.sum(axis=1).cumsum().tolist()
        grid = [pooled[a:e] for a, e in zip([0, *ends], ends)]
        inner = np.zeros(kn.shape, dtype=bool)
        inner[:, 1:-1] = ~np.isnan(kn[:, 2:])  # past the first knot and before the last
        pos = np.array([g.searchsorted(kn_j) for g, kn_j in zip(grid, kn.reshape(n, r, -1))])
        width = max(g.size for g in grid) - 1
        rows = np.arange(n * r)[:, None] * width
        count = np.bincount((rows + pos.reshape(n * r, -1))[inner], minlength=n * r * width)
        grids.append(grid)
        cells.append(_read_only(count.reshape(n * r, -1).cumsum(axis=1),
                                np.min_scalar_type(kn.shape[1])))
    return [_Family(tuple(comps[j * r : (j + 1) * r]), tuple(g[j] for g in grids), knots, values,
                    tuple(cells), j * r) for j in range(n)]


def select_cut_points(components: Sequence[CdfComponent]) -> tuple[CutPointSet, np.ndarray]:
    """Choose cut points making the binned conditional matrix full row rank.

    Returns ``(cuts, M)``, where ``M`` is the binned conditional matrix at
    those cuts, equal to ``binned_conditional_matrix(components, cuts)``.

    Greedy column pivoting (Businger & Golub, Numer. Math. 1965): while the
    matrix ``A`` of CDF values at the current cuts (plus the constant column
    from +inf) has rank below ``r``, append the candidate ``u`` whose column
    ``F(u) = (F_1(u), ..., F_r(u))`` lies farthest from the column span of
    ``A``, that is, which maximises ``|N^T F(u)|`` for an orthonormal basis
    ``N`` of the left nullspace.  The first maximum in the order of the
    product of the grid axes wins.  Cuts serve identifiability alone: query
    points become cuts only inside :func:`recover_mixture`.

    The candidates are the pooled knots, and no other point can do better.
    Inside each cell of the pooled knot grid every CDF is multilinear, so
    ``N^T F(u)`` is affine and its norm convex along each coordinate, and its
    maximum over the cell lies at a corner; outside the knot range the CDFs
    take their values on its boundary.  ``M`` is the successive differences
    of the table at ``[-inf, cuts..., +inf]``.  This is the one-family case
    of :func:`select_mixture_cuts`.

    Rank is decided by the library's one rule,
    :func:`~latentid.tensor_core.rank_from_singular_values`, and every
    appended cut must raise it, so at most ``r`` SVDs are taken.  Raises
    :class:`RankDeficientError` when the farthest candidate does not raise
    the rank: the components are linearly dependent, under that rule, as
    functions on ``R^b``.  The message names no variate.  Bin masses are
    never refused: every :class:`CdfComponent` gives each bin a nonnegative
    mass.
    """
    components = list(components)
    if not components:
        raise InputError("need at least one component")
    if any(c.block_dim != components[0].block_dim for c in components):
        raise InputError("components must share the block dimension")
    return _select_cuts(_tabulate([components]), [None], named=False)[0]


def select_mixture_cuts(mixture: NonparametricMixture) -> list[tuple[CutPointSet, np.ndarray]]:
    """:func:`select_cut_points` of every variate of the mixture.

    Entry j of the result is ``(cuts, M)`` for variate j, equal to
    ``select_cut_points(mixture.variate(j))`` byte for byte.  As there, query
    points play no part: they become cuts only inside :func:`recover_mixture`.
    The greedy steps of all variates run in lockstep rounds
    (:func:`_select_cuts`).  :class:`RankDeficientError` is raised for the
    lowest-numbered variate whose step does not raise its rank, with
    :func:`select_cut_points`'s message prefixed by ``variate j:``.
    """
    return _select_cuts(mixture._families, [None] * mixture.p, named=True)


def _split(keys: list) -> list[tuple]:
    """``(key, rows)`` per distinct key, ``rows`` the indexes holding it or None for all."""
    if keys.count(keys[0]) == len(keys):
        return [(keys[0], None)]
    return [(k, np.flatnonzero([key == k for key in keys])) for k in dict.fromkeys(keys)]


def _sorted_axes(ax: np.ndarray) -> tuple[np.ndarray, np.ndarray, bool]:
    """The rows of ``ax`` sorted as :func:`numpy.unique` sorts one array, so the
    first of each run of equal values is its choice of ``-0.0`` or ``0.0``;
    where the run of each entry of ``ax`` starts in its sorted row; and
    whether any run is longer than one entry."""
    values = np.sort(ax, axis=1)
    at = np.argsort(np.argsort(ax, axis=1, kind="stable"), axis=1)  # each entry's sorted place
    fresh = values[:, 1:] != values[:, :-1]
    if fresh.all():
        return values, at, False
    start = np.zeros(ax.shape, dtype=int)
    start[:, 1:] = np.where(fresh, np.arange(1, ax.shape[1]), 0)
    return values, np.take_along_axis(np.maximum.accumulate(start, axis=1), at, axis=1), True


class _Cuts(NamedTuple):
    """Cut selection's state for families of one block dimension and rank
    whose candidate and cut grids have the same shapes; row i of each array
    is family ``index[i]``, whose tables are rows ``rows[i]`` of ``table``.
    Per coordinate, ``axes`` holds the sorted axes (a run of equal values
    stands at its first entry), ``knots`` the positions of the pooled knots,
    the candidates, and ``cols`` the sorted positions cut so far, then that
    of +inf; ``scan`` holds the tables at the candidates."""

    index: np.ndarray
    rows: np.ndarray
    axes: tuple
    knots: tuple
    cols: tuple
    rank: int = 0
    table: np.ndarray | None = None
    scan: np.ndarray | None = None

    def take(self, rows: np.ndarray | None) -> "_Cuts":
        """The families at ``rows``; all of them for None."""
        if rows is None:
            return self
        axes, knots, cols = (tuple(a[rows] for a in t) for t in (self.axes, self.knots, self.cols))
        return _Cuts(self.index[rows], self.rows[rows], axes, knots, cols, self.rank, self.table,
                     None if self.scan is None else self.scan[rows])

    def gather(self, positions: Sequence[np.ndarray]) -> np.ndarray:
        """Each family's table at the product of its ``positions[c]``: shape ``(g, r, -1)``."""
        (g, r), b = self.rows.shape, len(positions)
        index = [self.rows.reshape(g, r, *(1,) * b)]
        for c, at in enumerate(positions):
            index.append(at.reshape(g, 1, *(1,) * c, -1, *(1,) * (b - c - 1)))
        return self.table[tuple(index)].reshape(g, r, -1)

    def step(self, U: np.ndarray) -> list["_Cuts"]:
        """The families after each appends its farthest candidate, by shape of cut grid.

        One product ``N^T @ scan``, N the columns of ``U`` past the rank:
        numpy takes a stack matrix by matrix, each in the BLAS call of a family
        alone, so every distance keeps its bits (zeroing rows of a product over
        all of U instead is another BLAS call, which moves low bits and can
        flip a near tie).  A block step onto a coordinate position already cut
        leaves that coordinate's cuts as they are, and splits its family off.
        """
        grp = self if self.scan is not None else self._replace(scan=self.gather(self.knots))
        far = np.linalg.norm(U[:, :, grp.rank :].transpose(0, 2, 1) @ grp.scan, axis=1)
        best = np.unravel_index(np.argmax(far, axis=1), [kn.shape[1] for kn in grp.knots])
        new = [kn[np.arange(len(kn)), k][:, None] for kn, k in zip(grp.knots, best)]
        on_cut = zip(*((cols == at).any(axis=1).tolist() for cols, at in zip(grp.cols, new)))
        out = []
        for on, rows in _split(list(on_cut)):
            part = grp.take(rows)
            cols = [cols if cut else np.sort(np.concatenate(
                        [cols, at if rows is None else at[rows]], axis=1), axis=1)
                    for cols, at, cut in zip(part.cols, new, on)]
            out.append(part._replace(cols=tuple(cols)))
        return out


def _starting_cuts(
    families: Sequence[_Family], points: Sequence[np.ndarray], r: int
) -> list[_Cuts]:
    """The families' axes and query cuts, grouped by knot and query counts per
    coordinate and counts of distinct query positions, each block dimension's
    table rows numbered in group order.  An axis holds -inf, the pooled knots,
    the query coordinates and +inf; all axes with the same knot and query
    counts are one stack, sorted by :func:`_sorted_axes` in one pass."""
    keys, stacks, taken, groups, start = {}, {}, {}, [], {}
    for f, (family, pts) in enumerate(zip(families, points)):
        keys.setdefault((tuple(map(len, family.grid)), len(pts)), []).append(f)
    for (sizes, n), members in keys.items():  # rows of a stack: by key, then by coordinate
        for c, size in enumerate(sizes):
            stacks.setdefault((size, n), []).extend((f, c) for f in members)
    for (size, n), rows in stacks.items():
        ax = np.empty((len(rows), size + n + 2))
        ax[:, 0], ax[:, 1 : size + 1], ax[:, size + 1 : -1], ax[:, -1] = (
            -np.inf, [families[f].grid[c] for f, c in rows], [points[f][:, c] for f, c in rows],
            np.inf)
        # without queries, -inf, the pooled knots and +inf are sorted and unique
        ax, at, repeated = _sorted_axes(ax) if n else (
            ax, np.zeros((len(rows), 1), dtype=int) + np.arange(size + 2), False)
        spot, keep = np.sort(at[:, size + 1 :], axis=1), None  # the queries', then +inf's
        if repeated:  # the first of each query position, and +inf's
            keep = np.ones(spot.shape, dtype=bool)
            np.not_equal(spot[:, 1:-1], spot[:, :-2], out=keep[:, 1:-1])
        counts = keep.sum(axis=1).tolist() if repeated else [n + 1] * len(rows)
        stacks[size, n] = ax, at[:, 1 : size + 1], spot, keep, counts
    for (sizes, n), members in keys.items():
        g, b, per_axis = len(members), len(sizes), []
        for size in sizes:  # this key's rows of each coordinate's stack, in turn
            at = taken.get((size, n), 0)
            taken[size, n] = at + g
            per_axis.append([None if a is None else a[at : at + g] for a in stacks[size, n]])
        members = np.array(members)
        for count, rows in _split(list(zip(*(arrays[-1] for arrays in per_axis)))):
            part = [[a if rows is None or a is None else a[rows] for a in arrays[:-1]]
                    for arrays in per_axis]
            axes, knots, spots, keeps = zip(*part)
            m, at = len(axes[0]), start.get(b, 0)
            cols = tuple(spot if keep is None else spot[keep].reshape(m, k)
                         for spot, keep, k in zip(spots, keeps, count))
            groups.append(_Cuts(members if rows is None else members[rows],
                                np.arange(at, at + m * r).reshape(m, r), axes, knots, cols))
            start[b] = at + m * r
    return groups


def _select_cuts(
    families: Sequence[_Family], queries: Sequence, named: bool, check_bins=None
) -> list[tuple[CutPointSet, np.ndarray]]:
    """:func:`select_mixture_cuts` over families of equally many components.

    Family f's cuts start from the coordinates of ``queries[f]`` (``None`` for
    none), points :func:`recover_mixture` has converted (:func:`_normalize_points`)
    and passes alone; they are never removed.
    Before any evaluation, ``check_bins``, when given, is called with each
    family's bin count at its query coordinates alone, a lower bound.

    The state is stacked (:class:`_Cuts`), so set-up, rounds and result cost
    a few numpy calls per group of families, whatever their number.  Each
    round takes one gather and stacked SVD per group, whose families then
    append their farthest candidates (:meth:`_Cuts.step`); numpy takes both
    matrix by matrix, so every decision is that of a family selected alone.
    A family whose rank did not rise drops out, and the lowest-numbered one's
    refusal, named ``variate f`` when ``named``, is raised after the rounds.
    """
    r = len(families[0].components)
    points = [np.empty((0, f.block_dim)) if q is None else q for f, q in zip(families, queries)]
    groups = _starting_cuts(families, points, r)
    if check_bins is not None:
        bins = {f: math.prod(cols.shape[1] for cols in grp.cols)
                for grp in groups for f in grp.index.tolist()}
        check_bins([bins[f] for f in range(len(families))])
    tables = {}  # one per block dimension, its groups' rows in turn
    for b in {len(grp.axes) for grp in groups}:
        mine = [grp for grp in groups if len(grp.axes) == b]
        tables[b] = _evaluate([families[f] for grp in mine for f in grp.index.tolist()],
                              [rows for grp in mine for rows in zip(*grp.axes)])
    groups, refused, done = [grp._replace(table=tables[len(grp.axes)]) for grp in groups], {}, []
    while groups:
        later = []
        for grp in groups:
            A = grp.gather(grp.cols)
            U, S, _ = np.linalg.svd(A)
            for reached, rows in _split(rank_from_singular_values(S, A.shape[1:]).tolist()):
                part = grp.take(rows)
                if reached == r:
                    done.append(part)
                elif reached <= grp.rank:
                    refused.update(dict.fromkeys(part.index.tolist(), reached))
                else:
                    later += part._replace(rank=reached).step(U if rows is None else U[rows])
        groups = later
    if refused:
        f = min(refused)
        raise RankDeficientError(
            (f"variate {f}: " if named else "")
            + f"cut selection reached rank {refused[f]} of r={r}: no candidate leaves "
            "the span of the current cuts, the component family is linearly dependent"
        )
    selected = [None] * len(families)
    for grp in done:  # each group's bin masses from one gather
        g, every = len(grp.index), np.arange(len(grp.index))[:, None]
        # a coordinate with no cut is cut at its lowest pooled knot
        cuts = [cols[:, :-1] if cols.shape[1] > 1 else kn[:, :1]
                for cols, kn in zip(grp.cols, grp.knots)]
        bounds = [np.concatenate([np.zeros((g, 1), dtype=int), at, cols[:, -1:]], axis=1)
                  for at, cols in zip(cuts, grp.cols)]
        M = _bin_masses(grp.gather(bounds).reshape(g * r, *(bd.shape[1] for bd in bounds)))
        values = [_read_only(ax[every, at], fresh=True) for ax, at in zip(grp.axes, cuts)]
        for i, f in enumerate(grp.index.tolist()):
            cut_set = CutPointSet._checked(tuple(v[i] for v in values))
            selected[f] = (cut_set, M[i * r : (i + 1) * r])
    return selected


def binned_conditional_matrix(
    components: Sequence[CdfComponent], cuts
) -> np.ndarray:
    """Bin masses of each component over the product intervals of the cuts.

    Row i holds the probability of each bin under component i, ordered with
    the last coordinate's bin index varying fastest; rows sum to 1 by
    telescoping.  The cumulative column transform (running sums along each
    coordinate) recovers the CDF values at the cuts exactly.  ``cuts`` is a
    :class:`CutPointSet` or the cut arrays it would hold, validated the same
    way; :func:`select_cut_points` returns this matrix for the cuts it chooses.
    No bin mass is ever refused; only malformed cuts are.
    """
    components = list(components)
    if not components:
        raise InputError("need at least one component")
    cut_set = _as_cut_set(cuts)
    if any(c.block_dim != cut_set.block_dim for c in components):
        raise InputError("components and cuts disagree on the block dimension")
    return _binned(_tabulate([components])[0], cut_set)


def _binned(family: _Family, cuts) -> np.ndarray:
    cut_set = _as_cut_set(cuts)
    if family.block_dim != cut_set.block_dim:
        raise InputError("components and cuts disagree on the block dimension")
    axes = [np.concatenate([[-np.inf], c, [np.inf]]) for c in cut_set.cuts]
    return _bin_masses(_evaluate([family], [axes]))


def bivariate_rank(mixture: NonparametricMixture, j1: int, j2: int, cuts1, cuts2) -> int:
    """Rank of the binned bivariate distribution of variates j1 and j2.

    Builds ``N = M1^T diag(pi) M2`` from the two binned conditional matrices.
    Rank r certifies that both per-variate component families are linearly
    independent as seen through these bins; rank 1 means the pair is an exact
    product measure.
    """
    M1 = _binned(mixture._family(j1), cuts1)
    M2 = _binned(mixture._family(j2), cuts2)
    if mixture.r > min(M1.shape[1], M2.shape[1]):
        raise InputError("need at least r bins on both variates")
    N = M1.T @ (mixture.pi[:, None] * M2)
    return numerical_rank(N)


def _cdf_at_queries(
    rows: Sequence[np.ndarray], cuts: Sequence[CutPointSet], points: Sequence[np.ndarray]
) -> list[np.ndarray]:
    """Read CDF values at query points from each variate's rows of bin masses.

    ``rows[j]`` holds one row per class for variate j, binned by ``cuts[j]``,
    and ``points[j]`` is an ``(n, b)`` array whose every coordinate must be
    one of those cuts: :func:`recover_mixture` inserts them there, as no
    public cut selector does.  Entry j of the result is ``(classes, n)``.
    Variates with the same bins per axis are stacked for one cumulative sum
    per axis; each then takes its own columns, which costs less than
    gathering the columns of all of them in one take.
    """
    tables = [None] * len(rows)
    for shape, members in _split([cut_set.bins_per_axis for cut_set in cuts]):
        members = range(len(rows)) if members is None else members.tolist()
        grid = np.stack([rows[j] for j in members])
        grid = grid.reshape(*grid.shape[:2], *shape)
        for axis in range(2, grid.ndim):
            grid = np.cumsum(grid, axis=axis)
        grid = grid.reshape(*grid.shape[:2], -1)
        for k, j in enumerate(members):
            index = [np.searchsorted(cut, points[j][:, c]) for c, cut in enumerate(cuts[j].cuts)]
            tables[j] = grid[k].take(np.ravel_multi_index(index, shape), axis=1)
    return tables


def component_cdfs(mixture: NonparametricMixture, query_points: Sequence) -> list[np.ndarray]:
    """CDF of every component at its variate's query points.

    ``query_points`` is taken as :func:`recover_mixture` takes it, and
    ``tables[j][i, q]`` is the CDF of class i, variate j at query q, computed
    exactly as ``components[i][j](point)``: the tables :func:`recover_mixture`
    recovers.  A scalar variate's points are one axis of its family; each
    point of a block is a grid of one point.
    """
    if len(query_points) != mixture.p:
        raise InputError(f"query_points must have one entry per variate ({mixture.p})")
    queries = [_normalize_points(q, b) for q, b in zip(query_points, mixture.block_dims)]
    return [
        _evaluate([f], [[pts[:, 0]]]) if f.block_dim == 1
        else np.array([_evaluate([f], [pt[:, None]]).ravel() for pt in pts])
        .reshape(-1, mixture.r).T
        for f, pts in zip(mixture._families, queries)
    ]


def _check_binned_tensor(bins: Sequence[int], what="binned tensor at the query points alone"):
    """Refuse :func:`recover_mixture`'s tensor of variates 0, 1 and the rest
    side by side, given each variate's bin count, above the entry cap."""
    _check_entries(bins[0] * bins[1] * sum(bins[2:]), what)


def recover_mixture(
    mixture: NonparametricMixture,
    query_points: Sequence,
    seed=None,
    tol: float = RECOVERY_TOL,
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Recover mixing weights and component CDF values at query points.

    Cut points and binned conditional matrices are selected for every
    variate as by :func:`select_mixture_cuts`, but with the variate's query
    points among the cuts; only here do query points become cuts.  Variates
    0 and 1 are two views; the third is ``(J, X_J)`` with ``J`` uniform on
    ``{2, ..., p-1}``, whose binned conditional matrix is the variates'
    matrices side by side, divided by ``p - 2``.  The three views are
    conditionally independent given the class, so their exact binned tensor
    is decomposed once (Allman, Matias & Rhodes, Ann. Statist. 2009).  The
    third factor splits back into per-variate rows, scaled by ``p - 2``, so
    one set of class labels holds for every variate.  CDF values are read off
    through the cumulative transform at the query points, which are cuts
    verbatim, with one cumulative sum for all variates whose bins have the
    same shape.

    ``query_points[j]`` lists the evaluation points for variate j: an ``(n,
    b)`` array for a block of dimension ``b``, or any nesting that converts
    to one (floats, or ``b``-tuples for blocks); ``-inf``, ``+inf`` and points
    outside the knot range are allowed.  Each variate's points are converted
    once and carried through cut selection and the read-back.  Returns ``(pi,
    tables)`` where ``tables[j][i, q]`` is the recovered CDF of class i,
    variate j at query q.

    Raises
    ------
    InputError
        ``tol`` is NaN or negative (checked first), the mixture has fewer than
        3 variates, or a query point is NaN.  No bin mass is ever refused (see
        :func:`select_cut_points`).
    RankDeficientError
        Cut selection finds no full-rank binning of some variate; the message
        names the lowest-numbered one (see :func:`select_mixture_cuts`).  Or
        from :func:`~latentid.recovery.decompose3`.
    IllConditionedError, DegenerateSpectrumError, NegativeWeightsError
        From :func:`~latentid.recovery.decompose3`, whose residual gate is
        ``tol`` times the largest entry of the binned tensor.
    """
    p, tol = mixture.p, _tolerance(tol)
    if p < 3:
        raise InputError(f"need at least 3 variates, got p={p}")
    if len(query_points) != p:
        raise InputError(f"query_points must have one entry per variate ({p})")
    queries = [_normalize_points(q, b) for q, b in zip(query_points, mixture.block_dims)]
    selected = _select_cuts(mixture._families, queries, True, _check_binned_tensor)
    cuts, mats = zip(*selected)
    _check_binned_tensor([M.shape[1] for M in mats], "binned tensor")
    T = _triple_product(mixture.pi[:, None] * mats[0], mats[1], np.hstack(mats[2:]) / (p - 2))
    rec = decompose3(T, mixture.r, seed=seed, tol=tol)
    splits = np.cumsum([M.shape[1] for M in mats[2:-1]])
    variate_rows = [*rec.factors[:2], *np.hsplit(rec.factors[2] * (p - 2), splits)]
    return rec.pi, _cdf_at_queries(variate_rows, cuts, queries)
