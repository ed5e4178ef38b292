"""Random model generators for simulation harnesses and tests.

All samplers draw independent uniform parameters and renormalize rows.  Trial
seeds derive from a master seed through a counter-based split,
``SeedSequence([master_seed, trial_index])``, so per-trial results are
reproducible and independent of execution order.

:func:`random_latent_class` and :func:`random_hmm` build their models through
the private ``_checked`` constructors of :class:`LatentClassModel` and
:class:`HiddenMarkovModel`, which freeze the arrays the sampler has just
normalized in place instead of copying and re-checking them; the sampler
refuses what the public constructor would, with its message, and the model
is the one the public constructor builds from the same arrays.
:func:`random_nonparametric_mixture` draws all its piecewise-linear marginals
with one uniform call, the stream of drawing them one at a time, and builds
the mixture from the stacked rows: the constructor's checks run once per
table shape, and no component is built on its own.
"""

from __future__ import annotations

import numpy as np

from .hmm import HiddenMarkovModel
from .latent_class import LatentClassModel
from .nonparametric import CdfComponent, NonparametricMixture
from .random_graph import GraphMixtureModel
from . import tensor_core
from .tensor_core import _check_entries, _whole_number, _whole_numbers, check_power_entries
from .errors import IllConditionedError, InputError, NonUniqueStationaryError

#: random_hmm rejects A or B whose smallest singular value is below this
_HMM_SINGULAR_MARGIN = 0.05
#: draws in random_hmm's first batch; each later batch doubles, up to the cap
_HMM_FIRST_BATCH = 1
#: largest batch of draws random_hmm decomposes at once
_HMM_MAX_BATCH = 64
#: random_graph_mixture rejects connection triples closer together than this
_GRAPH_MIN_GAP = 0.05
#: connection triples random_graph_mixture draws before giving up
_GRAPH_MAX_ATTEMPTS = 100
#: interval every random_piecewise_cdf is supported on
_CDF_SUPPORT = (0.0, 1.0)


def trial_rng(master_seed: int, trial: int) -> np.random.Generator:
    """Deterministic per-trial generator from a master seed and trial counter."""
    seeds = [_whole_number(master_seed, "master_seed", 0), _whole_number(trial, "trial", 0)]
    return np.random.default_rng(np.random.SeedSequence(seeds))


def random_probability(rng, n: int) -> np.ndarray:
    v = rng.uniform(0.05, 1.0, size=n)
    return v / v.sum()


def random_latent_class(rng, r: int, kappas) -> LatentClassModel:
    """Random latent-class model with ``r`` classes and ``kappas[j]`` states of
    variable ``j``.  An empty ``kappas`` is refused here, as
    :class:`LatentClassModel` would refuse it: the draw is built unchecked."""
    r, kappas = _whole_number(r, "r", 1), _whole_numbers(kappas, "kappas", 2)
    check_power_entries([(r, 1), (max(kappas, default=1), 1)], "emission matrix")
    if not kappas:
        raise InputError("at least one variable is required")
    rng = np.random.default_rng(rng)
    pi = random_probability(rng, r)
    # one uniform draw for all emissions: the stream of one draw per matrix
    U = rng.uniform(0.0, 1.0, size=r * sum(kappas))
    ends = np.cumsum(kappas).tolist()
    mats = (U[r * (e - k) : r * e].reshape(r, k) for e, k in zip(ends, kappas))
    return LatentClassModel._checked(pi, tuple(M / M.sum(axis=1, keepdims=True) for M in mats))


def random_hmm(rng, r: int, kappa: int, max_attempts: int = 5000) -> HiddenMarkovModel:
    """Random HMM with a numerically simple unit eigenvalue (generic case).

    Draws with a smallest singular value of A or B below
    :data:`_HMM_SINGULAR_MARGIN` are rejected: identifiability is a generic
    (measure-zero exception) property, and samples next to the degenerate set
    are identifiable in theory but carry no recoverable precision in floating
    point.  When ``max_attempts`` draws are all rejected, the error names the
    cause: :class:`IllConditionedError` when the margin rejected any of them,
    else :class:`NonUniqueStationaryError`; the message counts each cause.

    Each draw is A's ``r*r`` uniforms, then B's ``r*kappa``.  Draws are
    examined in batches of 1, 2, 4, ... (at most :data:`_HMM_MAX_BATCH`, and
    at most :data:`~latentid.tensor_core.ENTRY_CAP` uniforms in all): one
    uniform call per batch, one stacked SVD of its A's and one of the B's
    whose A passed.  On acceptance the generator is rewound to the batch's
    start and advanced past the accepted draw only, so the model, the refusal
    and the generator's state afterwards are those of drawing and testing one
    attempt at a time.
    """
    r, kappa = _whole_number(r, "r", 1), _whole_number(kappa, "kappa", 1)
    max_attempts = _whole_number(max_attempts, "max_attempts", 0)
    check_power_entries([(r, 1), (r + kappa, 1)], "HMM draw")
    rng = np.random.default_rng(rng)
    width = r * r + r * kappa
    rejected = {"A": 0, "B": 0, "stationary": 0}
    attempts, n = 0, _HMM_FIRST_BATCH
    while attempts < max_attempts:
        n = min(n, max_attempts - attempts, tensor_core.ENTRY_CAP // width)
        start = rng.bit_generator.state
        U = rng.uniform(0.0, 1.0, size=(n, width))
        A = U[:, : r * r].reshape(n, r, r)
        A = A / A.sum(axis=2, keepdims=True)
        sv_A = np.linalg.svd(A, compute_uv=False).min(axis=1)
        passed = np.flatnonzero(sv_A >= _HMM_SINGULAR_MARGIN)
        B = U[passed, r * r :].reshape(passed.size, r, kappa)
        B = B / B.sum(axis=2, keepdims=True)
        sv_B = np.linalg.svd(B, compute_uv=False).min(axis=1) if passed.size else ()
        for i, B_i, sigma in zip(passed, B, sv_B):
            if sigma < _HMM_SINGULAR_MARGIN:
                rejected["B"] += 1
                continue
            try:
                # rows of the batch, copied so that the model owns its arrays
                model = HiddenMarkovModel._checked(A[i].copy(), B_i.copy())
            except NonUniqueStationaryError:
                rejected["stationary"] += 1
                continue
            if i < n - 1:  # hand the draws after the accepted one back
                rng.bit_generator.state = start
                rng.uniform(0.0, 1.0, size=(i + 1) * width)
            return model
        rejected["A"] += n - passed.size
        attempts += n
        n = min(2 * n, _HMM_MAX_BATCH)
    message = (
        f"no draw accepted in {max_attempts} attempts: {rejected['A']} with "
        f"sigma_min(A) and {rejected['B']} with sigma_min(B) below "
        f"{_HMM_SINGULAR_MARGIN}, {rejected['stationary']} with a non-simple "
        f"unit eigenvalue"
    )
    if rejected["A"] or rejected["B"]:
        raise IllConditionedError(message)
    raise NonUniqueStationaryError(message)


def random_graph_mixture(rng, equal_mixing: bool = False) -> GraphMixtureModel:
    """Two-state graph mixture with pairwise well-separated connection values."""
    rng = np.random.default_rng(rng)
    if equal_mixing:
        pi = np.array([0.5, 0.5])
    else:
        p1 = rng.uniform(0.15, 0.45)
        pi = np.array([p1, 1.0 - p1])
    for _ in range(_GRAPH_MAX_ATTEMPTS):
        vals = np.sort(rng.uniform(0.0, 1.0, size=3))
        if np.diff(vals).min() >= _GRAPH_MIN_GAP:
            p11, p12, p22 = vals
            P = np.array([[p11, p12], [p12, p22]])
            return GraphMixtureModel(pi=pi, P=P)
    raise InputError(
        f"no well-separated connection triple found in {_GRAPH_MAX_ATTEMPTS} draws"
    )


def _draw_cdfs(rng, count: int, n_knots: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``count`` random piecewise-linear CDFs on [0, 1], as :func:`random_piecewise_cdf`
    draws them one after another: row k of the knots and values starts with
    piece k's ``sizes[k]`` entries.

    The pieces' inner knots and steps come from one uniform call, row by row.
    A repeated knot (measure zero) leaves its piece fewer knots and so fewer
    steps: the generator is rewound past the pieces before it and its inner
    knots, it draws its steps alone, and the pieces after it form a new batch.
    """
    (lo, hi), inner, width = _CDF_SUPPORT, n_knots - 2, 2 * n_knots - 3
    low, high = np.repeat([[lo, hi], [0.2, 1.0]], [inner, n_knots - 1], axis=0).T
    knots, values = np.full((count, n_knots), lo), np.zeros((count, n_knots))
    knots[:, -1], sizes, done = hi, np.full(count, n_knots), 0
    while done < count:
        start = rng.bit_generator.state
        U = rng.uniform(low, high, size=(count - done, width))
        batch = knots[done:]
        batch[:, 1:-1] = np.sort(U[:, :inner], axis=1)
        repeated = np.flatnonzero((batch[:, 1:] == batch[:, :-1]).any(axis=1)).tolist()
        good = repeated[0] if repeated else len(U)
        values[done : done + good, 1:] = np.cumsum(U[:good, inner:], axis=1)
        done += good
        if repeated:
            rng.bit_generator.state = start
            rng.uniform(0.0, 1.0, size=good * width + inner)
            kn = np.unique(knots[done])
            knots[done, : kn.size], sizes[done] = kn, kn.size
            values[done, 1 : kn.size] = np.cumsum(rng.uniform(0.2, 1.0, size=kn.size - 1))
            done += 1
    return knots, values / values[np.arange(count), sizes - 1][:, None], sizes


def random_piecewise_cdf(rng, n_knots: int = 5) -> CdfComponent:
    """Random strictly increasing piecewise-linear CDF on [0, 1]: a knot at
    each end, ``n_knots - 2`` uniform ones between, and a uniform step in
    [0.2, 1) per knot interval, summed and scaled to end at 1."""
    n_knots = _whole_number(n_knots, "n_knots", 2)
    _check_entries(n_knots, "knot array")
    (knots,), (values,), (size,) = _draw_cdfs(np.random.default_rng(rng), 1, n_knots)
    return CdfComponent(knots[:size], values[:size])


def random_nonparametric_mixture(
    rng, r: int, p: int, block_dims=None, n_knots: int = 5
) -> NonparametricMixture:
    """Random mixture of piecewise-linear product components.

    Per-variate families are generically linearly independent; blocks of
    dimension b > 1 are products of independent random marginals.  All the
    marginals, class by class and variate by variate, come from one uniform
    call (:func:`_draw_cdfs`), then the weights: the stream of drawing each
    with :func:`random_piecewise_cdf`.  The mixture's checks run once per
    table shape.  A block table past :data:`~latentid.tensor_core.ENTRY_CAP`
    is refused before anything is drawn.
    """
    r, p = _whole_number(r, "r", 1), _whole_number(p, "p", 1)
    block_dims = [1] * p if block_dims is None else _whole_numbers(block_dims, "block_dims", 1)
    if len(block_dims) != p:
        raise InputError(f"block_dims must have {p} entries, got {len(block_dims)}")
    rng = np.random.default_rng(rng)
    n_knots = _whole_number(n_knots, "n_knots", 2)
    _check_entries(n_knots, "knot array")
    check_power_entries([(n_knots, max(block_dims))], "CDF table")
    knots, values, sizes = _draw_cdfs(rng, r * sum(block_dims), n_knots)
    pi = random_probability(rng, r)
    return NonparametricMixture._from_pieces(pi, block_dims, knots, values, sizes)
