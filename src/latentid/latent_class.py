"""The r-class, p-feature latent-class model and its identifiability certificates.

A model mixes r product distributions over p finite variables, the j-th with
``kappas[j]`` states.  Certificates come in two modes, by where the ranks
come from:

* ``exact-matrix``: Kruskal ranks of the given conditional matrices.
* ``generic-dimension``: only the dimensions enter, each clumped variable
  contributing ``min(r, prod of its state counts)``; this is the generic value
  of the Kruskal rank of a row tensor product.

Either mode decides by one of two rules: the Kruskal rank sum,
``I1 + I2 + I3 >= 2r + 2``, or full row rank, ``I1 = I2 = r`` and ``I3 >= 2``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from collections.abc import Mapping, Sequence
from types import MappingProxyType

import numpy as np

from .errors import InputError
from .tensor_core import (
    NEG_ENTRY_TOL,
    ROW_SUM_TOL,
    _khatri_rao,
    _read_only,
    _whole_number,
    _whole_numbers,
    check_power_entries,
    check_probability_vector,
    check_stochastic,
    kruskal_rank,
)


@dataclass(frozen=True)
class LatentClassModel:
    """Mixing weights plus one conditional stochastic matrix per variable.

    ``emissions[j]`` has shape ``(r, kappas[j])``; its row ``i`` is the
    distribution of variable ``j`` conditional on class ``i``.  All classes
    must have strictly positive weight.
    """

    pi: np.ndarray
    emissions: tuple[np.ndarray, ...]

    def __post_init__(self):
        pi = check_probability_vector(_read_only(self.pi))
        mats = tuple(_read_only(M) for M in self.emissions)
        if len(mats) < 1:
            raise InputError("at least one variable is required")
        r = pi.size
        if not _stochastic_with_rows(mats, r):
            # find and name the first failure, matrix by matrix
            for j, M in enumerate(mats):
                check_stochastic(M, name=f"emissions[{j}]")
            for j, M in enumerate(mats):
                if M.shape[0] != r:
                    raise InputError(
                        f"emissions[{j}] has {M.shape[0]} rows, expected r={r}"
                    )
        _whole_numbers([M.shape[1] for M in mats], "kappas", 2)
        self._adopt(pi, mats)

    @classmethod
    def _checked(cls, pi: np.ndarray, emissions: tuple[np.ndarray, ...]) -> "LatentClassModel":
        """The model of float arrays the library has just built and shares with no
        one, which pass the constructor's checks, frozen in place, unchecked."""
        model = cls.__new__(cls)
        model._adopt(pi, emissions)
        return model

    def _adopt(self, pi: np.ndarray, emissions: tuple[np.ndarray, ...]) -> None:
        """Freeze the model's own arrays in place and set them as its fields."""
        object.__setattr__(self, "pi", _read_only(pi, fresh=True))
        object.__setattr__(self, "emissions", tuple(_read_only(M, fresh=True) for M in emissions))

    @property
    def r(self) -> int:
        return self.pi.size

    @property
    def p(self) -> int:
        return len(self.emissions)

    @property
    def kappas(self) -> tuple[int, ...]:
        return tuple(M.shape[1] for M in self.emissions)


def _stochastic_with_rows(mats: Sequence[np.ndarray], r: int) -> bool:
    """Whether every matrix passes :func:`check_stochastic` and has ``r`` rows.

    One pass over the matrices stacked side by side: one range check, which
    a NaN or infinite entry also fails, and one ``np.add.reduceat`` for all
    the row sums.
    """
    if any(M.ndim != 2 or M.shape[0] != r or M.shape[1] == 0 for M in mats):
        return False
    H = np.hstack(mats)
    if not (H.min() >= -NEG_ENTRY_TOL and H.max() <= 1.0 + ROW_SUM_TOL):
        return False
    starts = np.cumsum([0] + [M.shape[1] for M in mats[:-1]])
    return np.abs(np.add.reduceat(H, starts, axis=1) - 1.0).max() <= ROW_SUM_TOL


@dataclass(frozen=True)
class Tripartition:
    """Three disjoint nonempty blocks of 0-based variable indices covering all p."""

    blocks: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]
    clumped_dims: tuple[int, int, int]


@dataclass(frozen=True)
class Certificate:
    """Outcome of a Kruskal-condition identifiability check on three views.

    ``kruskal_ranks`` are the ranks ``(I1, I2, I3)`` of three views of an
    ``r``-component mixture.  ``holds`` and ``threshold = 2r + 2`` follow from
    them and the rule: the rank sum ``I1 + I2 + I3 >= 2r + 2``, or, with
    ``full_row_rank``, ``I1 = I2 = r`` and ``I3 >= 2``, which implies the sum.
    A one-component model certifies under neither rule.  ``criterion`` names
    the rule for reports.  ``witness`` carries the best tripartition when one
    was searched for; the search is exact, so a certificate that does not
    hold means no tripartition reaches the threshold.  ``details`` is a
    read-only mapping of further facts behind the decision, empty unless the
    operation documents its keys (:func:`~latentid.random_graph.graph_certificate`
    reports the shape and rank of its group matrix there).
    """

    r: int
    kruskal_ranks: tuple[int, int, int]
    mode: str  # "exact-matrix" or "generic-dimension"
    full_row_rank: bool = False
    criterion: str = "Kruskal row-rank condition: I1 + I2 + I3 >= 2r + 2"
    witness: Tripartition | None = None
    details: Mapping[str, object] = field(default_factory=dict, hash=False)

    def __post_init__(self):
        object.__setattr__(self, "details", MappingProxyType(dict(self.details)))

    @property
    def threshold(self) -> int:
        return 2 * self.r + 2

    @property
    def holds(self) -> bool:
        i1, i2, i3 = self.kruskal_ranks
        if self.full_row_rank:
            return i1 == i2 == self.r and i3 >= 2
        return i1 + i2 + i3 >= self.threshold

    @property
    def exhaustive(self) -> bool:
        """Always True: every certificate comes from an exact computation."""
        return True

    @property
    def status(self) -> str:
        return "certified" if self.holds else "not-certified"


# ---------------------------------------------------------------------------
# operations


def joint_distribution(model: LatentClassModel) -> np.ndarray:
    """Exact joint distribution of the p observed variables.

    Entry ``(l_1, ..., l_p)`` is ``sum_i pi[i] * prod_j emissions[j][i, l_j]``.
    The table is built as one matrix product over the classes, ``(pi *
    khatri_rao(first half)).T @ khatri_rao(second half)``, the first half
    being the first ``p // 2`` variables; ``pi`` enters as a one-column
    Khatri-Rao factor, so ``p = 1`` needs no case of its own.  Raises
    :class:`InputError` when the dense table would exceed
    :data:`~latentid.tensor_core.ENTRY_CAP` entries.
    """
    check_power_entries([(kappa, 1) for kappa in model.kappas], "joint table")
    h = model.p // 2
    left = _khatri_rao([model.pi[:, None], *model.emissions[:h]])
    return (left.T @ _khatri_rao(model.emissions[h:])).reshape(model.kappas)


def kruskal_certificate(model: LatentClassModel) -> Certificate:
    """Exact-matrix certificate for a three-variable model.

    Computes the Kruskal rank of each conditional matrix; the parameters are
    identifiable up to label swapping when the ranks sum to at least
    ``2r + 2``.
    """
    if model.p != 3:
        raise InputError(f"model has p={model.p} variables, need exactly 3")
    ranks = tuple(kruskal_rank(M) for M in model.emissions)
    return Certificate(model.r, ranks, "exact-matrix")  # type: ignore[arg-type]


def tripartition_search(r: int, kappas: Sequence[int]) -> Certificate:
    """Search tripartitions for a generic-dimension certificate.

    Each partition scores ``sum_i min(r, prod of block state counts)``; the
    certificate holds when the best score reaches ``2r + 2``.  The score
    depends only on the block products capped at ``max(r, 2)``, so a dynamic
    program over the variables keeps one partition per reachable capped
    triple, which makes the search exact for every p.  It stops as soon as
    all three blocks reach the cap, since ``3r`` cannot be beaten, and then
    hands out the variables not yet placed one at a time, in index order,
    each to the block whose clumped product is smallest at that point (the
    later block on ties), so the three clumped dimensions stay balanced:
    ten 3-state variables at ``r = 3`` give ``81 x 27 x 27``, not ``6561 x 3
    x 3``.  Among the best scores it prefers the largest capped dimensions,
    sorted descending, so that the first two blocks reach r whenever
    possible.  The witness is deterministic, with its blocks ordered by
    clumped dimension, largest first.  State counts are whole numbers >= 2.
    """
    r, kappas = _whole_number(r, "r", 1), _whole_numbers(kappas, "kappas", 2)
    p = len(kappas)
    if p < 3:
        raise InputError(f"need at least 3 variables, got p={p}")

    # a capped product of 1 marks an empty block; any variable lifts it to >= 2
    cap = max(r, 2)
    full = (cap, cap, cap)
    # capped block products, sorted descending -> blocks in the same order.
    # Growing a block never lowers its product, so a stable sort of the grown
    # triple only moves the grown block ahead of those it now exceeds: block
    # 0 stays first, block 1 may pass block 0, block 2 may pass one or both.
    # The first partition to reach a key keeps it.
    states = {(1, 1, 1): ((), (), ())}
    for j, kappa in enumerate(kappas):
        reached = {}
        for (d0, d1, d2), (b0, b1, b2) in states.items():
            g = d0 * kappa
            key = (g if g < cap else cap, d1, d2)
            if key not in reached:
                reached[key] = (b0 + (j,), b1, b2)
            g = d1 * kappa
            g = g if g < cap else cap
            key = (g, d0, d2) if g > d0 else (d0, g, d2)
            if key not in reached:
                b = b1 + (j,)
                reached[key] = (b, b0, b2) if g > d0 else (b0, b, b2)
            g = d2 * kappa
            g = g if g < cap else cap
            key = (g, d0, d1) if g > d0 else (d0, g, d1) if g > d1 else (d0, d1, g)
            if key not in reached:
                b = b2 + (j,)
                reached[key] = (b, b0, b1) if g > d0 else (b0, b, b1) if g > d1 else (b0, b1, b)
        states = reached
        if full in states:
            best, placed = states[full], j + 1
            break
    else:
        nonempty = [dims for dims in states if dims[2] > 1]
        best = states[max(nonempty, key=lambda d: (sum(min(r, x) for x in d), d))]
        placed = p

    best = [list(block) for block in best]
    products = [math.prod(kappas[i] for i in block) for block in best]
    for i in range(placed, p):
        b = 2 - products[::-1].index(min(products))  # the last of smallest product
        best[b].append(i)
        products[b] *= kappas[i]
    # blocks hold ascending indices; order them by clumped product, a stable sort
    order = sorted(range(3), key=lambda b: -products[b])
    blocks, dims = tuple(tuple(best[b]) for b in order), tuple(products[b] for b in order)
    witness = Tripartition(blocks=blocks, clumped_dims=dims)  # type: ignore[arg-type]
    ranks = tuple(min(r, d) for d in witness.clumped_dims)
    return Certificate(r, ranks, "generic-dimension", witness=witness)  # type: ignore[arg-type]


def min_variables_bound(r: int, kappa: int) -> int:
    """Number of kappa-state variables sufficient for generic identifiability.

    Returns ``2 * ceil(log_kappa(r)) + 1``: two blocks large enough for full
    generic rank plus one leftover variable.  The bound is sufficient but not
    always minimal: for ``r=5, kappa=2`` it gives 7, yet three blocks of two
    variables already certify at p = 6 (rank sum ``4+4+4 = 12 = 2r+2``).
    """
    r, kappa = _whole_number(r, "r", 1), _whole_number(kappa, "kappa", 2)
    k = 0
    while kappa**k < r:
        k += 1
    return 2 * k + 1


def param_dimension(r: int, kappas: Sequence[int]) -> tuple[int, int]:
    """Parameter count L and table size K of the model.

    ``L = (r - 1) + r * sum(kappa_j - 1)`` free parameters against a joint
    table of ``K = prod(kappa_j)`` entries.  ``L < K`` is necessary for
    identifiability.
    """
    r, kappas = _whole_number(r, "r", 1), _whole_numbers(kappas, "kappas", 2)
    L = (r - 1) + r * sum(k - 1 for k in kappas)
    return L, math.prod(kappas)
