"""Random graph mixtures: conditional subgraph matrices and parameter extraction.

Each node independently takes a hidden state with law ``pi``; conditional on
all node states, edges appear independently, edge ``(u, v)`` with probability
``P[state_u, state_v]``.  Certificates work on the single-group matrix of
subgraph probabilities and lift to many nodes through the Kronecker rank
identity; the huge lifted matrices are never materialized, and extraction
reads single-edge marginals through a lazy row oracle instead.

Index conventions (fixed, used by the serialization and the oracle tests):

* node state assignments are mixed radix with the first node as the slowest
  digit, matching the iterated Kronecker product of ``pi`` with itself;
* edges of the complete graph on m nodes are ordered lexicographically,
  ``(0,1), (0,2), ..., (0,m-1), (1,2), ...``;
* a subgraph's column index is the bitmask whose least significant bit is
  edge ``(0,1)``, so the first edge varies fastest.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import InconsistentOracleError, InputError, NotDistinctError
from .latent_class import Certificate
from .tensor_core import (
    _khatri_rao,
    _read_only,
    _whole_number,
    _whole_numbers,
    check_power_entries,
    check_probability_vector,
    numerical_rank,
)

#: relative tolerance for locating prior entries such as pi1^(n-1) * pi2
PRIOR_MATCH_TOL = 1e-9
#: largest entry of ``|P - P^T|`` accepted as a symmetric connection matrix
_SYMMETRY_ATOL = 1e-12
#: weights read off the extreme prior entries (n-th roots, which magnify
#: rounding in the oracle's prior) must sum to 1 within this
_WEIGHT_SUM_TOL = 1e-6


@dataclass(frozen=True)
class GraphMixtureModel:
    """Node-state prior and symmetric connection probability matrix."""

    pi: np.ndarray
    P: np.ndarray

    def __post_init__(self):
        pi = check_probability_vector(_read_only(self.pi))
        P = _read_only(self.P)
        r = pi.size
        if P.shape != (r, r):
            raise InputError(f"P must be {r}x{r}, got {P.shape}")
        if not np.isfinite(P).all():
            raise InputError("connection matrix P must be finite")
        if not np.abs(P - P.T).max() <= _SYMMETRY_ATOL:
            raise InputError("connection matrix P must be symmetric")
        if P.min() < 0.0 or P.max() > 1.0:
            raise InputError("connection probabilities must lie in [0, 1]")
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "P", P)

    @property
    def r(self) -> int:
        return self.pi.size


def edge_list(m: int) -> list[tuple[int, int]]:
    """Edges of the complete graph on m nodes, lexicographic order."""
    return [(k, l) for k in range(m) for l in range(k + 1, m)]


def node_state_prior(pi, n: int) -> np.ndarray:
    """Joint prior over the r^n composite node-state assignments.

    Entry for assignment ``(i_1, ..., i_n)`` is ``prod_k pi[i_k]``; the
    extreme entries are ``min(pi)^n`` and ``max(pi)^n``.  Needs ``n >= 1``.
    """
    n = _whole_number(n, "n", 1)
    pi = check_probability_vector(pi)
    check_power_entries([(pi.size, n)], "node-state prior")
    v = pi.copy()
    for _ in range(n - 1):
        v = np.kron(v, pi)
    return v


def assignment_of_index(index: int, r: int, n: int) -> tuple[int, ...]:
    """Node states for a composite row index below ``r^n`` (first node = slowest digit)."""
    index = _whole_number(index, "index", 0)
    r, n = _whole_number(r, "r", 1), _whole_number(n, "n", 1)
    states, rest = [], index
    for _ in range(n):  # the last node's digit first
        rest, state = divmod(rest, r)
        states.append(state)
    if rest:
        raise InputError(f"index {index} is out of range for {r}^{n} assignments")
    return tuple(reversed(states))


def conditional_graph_matrix(model: GraphMixtureModel, m: int) -> np.ndarray:
    """Probabilities of every subgraph of K_m conditional on every node assignment.

    Shape ``(r^m, 2^C(m,2))``; the ``(I, G)`` entry is the product over edges
    of ``P`` or ``1 - P`` according to the edge's presence in ``G``.  Rows sum
    to 1.
    """
    m = _whole_number(m, "m", 2)
    r = model.r
    check_power_entries([(r, m), (2, m * (m - 1) // 2)], "group matrix")
    edges = edge_list(m)
    assigns = np.array(list(itertools.product(range(r), repeat=m)), dtype=int)
    per_edge = []
    for k, l in edges:
        p = model.P[assigns[:, k], assigns[:, l]]
        per_edge.append(np.column_stack([1.0 - p, p]))
    # first edge is the least significant bit, i.e. the fastest digit
    return _khatri_rao(list(reversed(per_edge)))


@dataclass(frozen=True)
class PartitionFamily:
    """Three partitions of the m^2 grid nodes into m groups of m.

    Any two groups from different partitions share at most one node, so the
    unions of within-group complete graphs are pairwise edge disjoint.
    """

    m: int
    families: tuple[tuple[frozenset[int], ...], ...]

    def edges(self, i: int) -> frozenset[tuple[int, int]]:
        """Edge set of the union of complete graphs on partition ``i``'s groups."""
        pairs = (itertools.combinations(sorted(group), 2) for group in self.families[i])
        return frozenset(itertools.chain.from_iterable(pairs))

    def pairwise_edge_disjoint(self) -> bool:
        sets = [self.edges(i) for i in range(3)]
        return all(
            not (sets[i] & sets[j]) for i in range(3) for j in range(i + 1, 3)
        )


def lattice_partitions(m: int) -> PartitionFamily:
    """Rows, columns and broken diagonals of the m x m node grid.

    Node ``(a, b)`` has flat index ``a * m + b``.  Group j of the third family
    is ``{(a, (a + j) mod m)}``, a diagonal; a row meets a column or a
    diagonal in exactly one node, and likewise column vs diagonal.
    """
    m = _whole_number(m, "m", 2)
    rows = tuple(
        frozenset(a * m + b for b in range(m)) for a in range(m)
    )
    cols = tuple(
        frozenset(a * m + b for a in range(m)) for b in range(m)
    )
    diags = tuple(
        frozenset(a * m + (a + j) % m for a in range(m)) for j in range(m)
    )
    return PartitionFamily(m=m, families=(rows, cols, diags))


def graph_certificate(model: GraphMixtureModel, m: int) -> Certificate:
    """Identifiability certificate for the n = m^2 node model.

    The three views are the subgraphs on the group unions of the three
    lattice partitions (:func:`lattice_partitions`), pairwise edge disjoint by
    construction for every m this function accepts, as
    ``TestLatticePartitions`` in ``tests/test_random_graph.py`` checks.  Each
    view's conditional matrix over the ``r^n`` node-state assignments is the
    m-fold Kronecker power of the group matrix ``A`` of
    :func:`conditional_graph_matrix`, so its rank, the one reported, is
    ``rank(A)^m``.  The criterion is full row rank (see :class:`Certificate`):
    ``rank(A) = r^m``, with at least two states.  ``details`` holds
    ``group_matrix_shape`` and ``group_matrix_rank``.  Raises
    :class:`InputError` for ``m < 2``, when ``A`` exceeds the entry cap, or
    when ``A`` has fewer columns ``2^C(m,2)`` than rows ``r^m`` and so has no
    full row rank for any model (two states at m = 2).
    """
    m = _whole_number(m, "m", 2)
    A = conditional_graph_matrix(model, m)
    rows, cols = A.shape
    if cols < rows:
        raise InputError(
            f"the {rows}x{cols} group matrix at m={m} cannot reach rank r^m = "
            f"{rows}; no {model.r}-state model certifies at this group size"
        )
    rank_A = numerical_rank(A)
    lifted = rank_A**m
    return Certificate(
        model.r ** (m * m), (lifted, lifted, lifted), "exact-matrix", full_row_rank=True,
        criterion="group matrix at full row rank: rank A = r^m",
        details={"group_matrix_shape": A.shape, "group_matrix_rank": rank_A},
    )


def single_edge_marginal(model: GraphMixtureModel, states, edge: tuple[int, int]) -> float:
    """Probability that one fixed edge is present, given all node states.

    Equals the corresponding connection parameter directly; this is the lazy
    marginal of one row of the huge composite matrix, summing over all
    subgraphs that contain the edge without materializing them.
    """
    states = _whole_numbers(states, "states", 0)
    k, l = _whole_numbers(edge, "edge", 0)
    n = len(states)
    if k == l or max(k, l) >= n:
        raise InputError(f"edge {edge} must join two distinct nodes in range({n})")
    if any(s >= model.r for s in states):
        raise InputError(f"states must lie in range({model.r})")
    return float(model.P[states[k], states[l]])


def _cluster_values(values, tol: float) -> list[float]:
    """Representatives of value clusters separated by more than tol."""
    ordered = sorted(values)
    reps = [ordered[0]]
    for v in ordered[1:]:
        if v - reps[-1] > tol:
            reps.append(v)
    return reps


def extract_parameters(v_perm, row_oracle, n: int) -> tuple[np.ndarray, float, float, float]:
    """Recover (pi, p11, p12, p22) from a permuted prior and a row oracle.

    ``v_perm`` is the composite node-state prior under an unknown assignment
    permutation; ``row_oracle(row_index, (k, l))`` returns the single-edge
    marginal of that (permuted) row.  Two-state models only, and the three
    connection parameters must be distinct.  Prior entries and edge values
    are matched within :data:`PRIOR_MATCH_TOL`.

    With unequal mixing the extreme prior entries locate the two uniform
    assignments, giving ``p11`` and ``p22`` directly, and a row with exactly
    one deviant node isolates ``p12``.  With equal mixing every prior entry
    ties, so rows are read in index order.  A constant row shows a within
    value.  A row with both states must be two cliques joined by ``p12``, the
    one value every node sees.  Reading stops once ``p12`` and two within
    values are known.  All but the ``2n + 2`` rows with at most one node of
    some state show all three, so at most ``min(2^n, 2n + 3)`` rows are read.
    This needs ``n >= 3``: with two nodes every row has one edge and is
    constant.  Output is exact up to label swapping; class 0 is the state
    with the smaller weight (unequal mixing) or the smaller within-state
    connection probability (equal mixing).  Refuses ``n < 2``, and a NaN or
    infinite oracle answer before comparing it.
    """
    def ask(row: int, edge: tuple[int, int]) -> float:
        val = float(row_oracle(row, edge))
        if not np.isfinite(val):
            raise InconsistentOracleError(f"row {row}, edge {edge}: oracle answered {val}")
        return val

    n = _whole_number(n, "n", 2)
    tol = PRIOR_MATCH_TOL
    v = np.asarray(v_perm, dtype=float)
    if v.ndim != 1 or n >= 63 or v.size != 2**n:  # a length is below 2^63
        raise InputError(f"prior must have 2^{n} entries, got {v.size}")
    if not np.isfinite(v).all():
        raise InputError("prior entries must be finite")
    if v.min() <= 0.0:
        raise InputError("prior entries must be positive")
    edges = edge_list(n)
    vmin, vmax = float(v.min()), float(v.max())

    if vmax - vmin > tol * vmax:
        pi1 = vmin ** (1.0 / n)
        pi2 = vmax ** (1.0 / n)
        if abs(pi1 + pi2 - 1.0) > _WEIGHT_SUM_TOL:
            raise InconsistentOracleError(
                f"extreme prior entries give weights summing to {pi1 + pi2:.9f}"
            )
        low = np.flatnonzero(np.abs(v - vmin) <= tol * vmax)
        high = np.flatnonzero(np.abs(v - vmax) <= tol * vmax)
        if low.size != 1 or high.size != 1:
            raise InconsistentOracleError("extreme prior entries are not unique")
        row_all1, row_all2 = int(low[0]), int(high[0])
        p11 = ask(row_all1, edges[0])
        p22 = ask(row_all2, edges[0])
        probe = edges[-1]
        if abs(ask(row_all1, probe) - p11) > tol or abs(ask(row_all2, probe) - p22) > tol:
            raise InconsistentOracleError("uniform row gave conflicting edge values")
        target = pi1 ** (n - 1) * pi2
        deviant_rows = np.flatnonzero(np.abs(v - target) <= tol * target)
        if deviant_rows.size == 0:
            raise InconsistentOracleError(
                "no prior entry matches a single-deviant assignment"
            )
        row_dev = int(deviant_rows[0])
        p12 = None
        for e in edges:
            val = ask(row_dev, e)
            if abs(val - p11) > tol:
                p12 = val
                break
        if p12 is None:
            raise NotDistinctError(
                "single-deviant row shows only one edge value; p12 equals p11"
            )
        pi = np.array([pi1, pi2])
    else:
        if n < 3:
            raise InputError(f"equal mixing needs at least 3 nodes, got n={n}")
        pi = np.full(2, 0.5)
        ks, ls = np.array(edges).T
        within, cross = [], []
        for row in range(min(v.size, 2 * n + 3)):
            vals = [ask(row, e) for e in edges]
            reps = _cluster_values(vals, tol)
            label = np.searchsorted(reps, vals, side="right") - 1
            seen = np.zeros((n, len(reps)), dtype=bool)
            seen[ks, label] = seen[ls, label] = True
            if len(reps) > 1:
                common = np.flatnonzero(seen.all(axis=0))
                seen[:, common] = False
                if common.size != 1 or n - np.count_nonzero(seen.any(axis=1)) > 1:
                    raise NotDistinctError(f"row {row} ties p12 to a within value or p11 to p22")
                own = np.where(seen.any(axis=1), seen.argmax(axis=1), -1)
                if (np.where(own[ks] == own[ls], own[ks], common) != label).any():
                    raise InconsistentOracleError(f"row {row} is not two cliques joined by p12")
                cross.append(reps[common[0]])
            within += [reps[i] for i in np.flatnonzero(seen.any(axis=0))]
            if cross and max(cross) - min(cross) <= tol and len(_cluster_values(within, tol)) == 2:
                break
        else:
            k = len(_cluster_values(within + cross, tol))
            if k < 3:
                raise NotDistinctError(f"only {k} distinct edge values observed, need 3")
            if k > 3:
                raise InconsistentOracleError(f"{k} distinct edge values observed, expected 3")
            raise InconsistentOracleError("3 edge values, but not one p12 and two within values")
        p11, p22 = _cluster_values(within, tol)
        p12 = cross[0]

    values = (p11, p12, p22)
    for a, b in itertools.combinations(values, 2):
        if abs(a - b) <= tol:
            raise NotDistinctError(
                f"connection parameters {values} are not pairwise distinct"
            )
    return pi, p11, p12, p22
