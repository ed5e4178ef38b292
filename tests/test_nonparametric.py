import bisect
import hashlib
import itertools
import json
import re

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from latentid import cli, nonparametric
from latentid.errors import InputError, RankDeficientError
from latentid.modelio import load_model, model_from_dict, model_to_dict, save_model
from latentid.nonparametric import (
    CdfComponent,
    CutPointSet,
    NonparametricMixture,
    binned_conditional_matrix,
    bivariate_rank,
    component_cdfs,
    recover_mixture,
    select_cut_points,
    select_mixture_cuts,
)
from latentid.recovery import align_permutation
from latentid.sampling import (
    random_nonparametric_mixture,
    random_piecewise_cdf,
    random_probability,
    trial_rng,
)
from latentid.tensor_core import numerical_rank, rank_from_singular_values


def two_uniform_family():
    """F1(t) = t on [0, 1] and F2(t) = t/2 on [0, 2]."""
    return [CdfComponent.uniform(0.0, 1.0), CdfComponent.uniform(0.0, 2.0)]


def select_with_queries(family, queries=None):
    """One family's cuts with ``queries`` among them, converted and selected as
    :func:`recover_mixture` selects a variate's cuts; no public selector takes
    query points."""
    points = nonparametric._normalize_points(queries, family[0].block_dim)
    return nonparametric._select_cuts(nonparametric._tabulate([family]), [points], named=False)[0]


def mixture_cuts_with_queries(mix, queries):
    """:func:`select_mixture_cuts` with ``queries[j]`` among variate j's cuts."""
    points = [nonparametric._normalize_points(q, b) for q, b in zip(queries, mix.block_dims)]
    return nonparametric._select_cuts(mix._families, points, named=True)


def default_grid(components):
    """The pooled knots of the components, per coordinate, sorted and unique:
    of ``-0.0`` and ``0.0``, the first met (``np.unique`` sorts stably when
    asked for indices)."""
    return [
        np.unique(np.concatenate([comp.knots[c] for comp in components]), return_index=True)[0]
        for c in range(components[0].block_dim)
    ]


def knee_cdf(knee_x, knee_y, lo=0.0, hi=1.0):
    return CdfComponent([lo, knee_x, hi], [0.0, knee_y, 1.0])


def reference_mixture():
    # distinct uniform supports on the first two variates, knee-shaped CDFs
    # on the third
    return NonparametricMixture(
        pi=np.array([0.4, 0.6]),
        components=(
            (
                CdfComponent.uniform(0.0, 1.0),
                CdfComponent.uniform(0.0, 1.0),
                knee_cdf(0.3, 0.7),
            ),
            (
                CdfComponent.uniform(0.0, 2.0),
                CdfComponent.uniform(1.0, 2.0),
                knee_cdf(0.7, 0.3),
            ),
        ),
    )


class TestCdfComponent:
    def test_uniform_evaluation(self):
        F = CdfComponent.uniform(0.0, 2.0)
        assert F(1.0) == 0.5
        assert F(-np.inf) == 0.0
        assert F(np.inf) == 1.0
        assert F(5.0) == 1.0  # clamped

    def test_rejects_decreasing_table(self):
        with pytest.raises(InputError, match="^CDF table has a negative cell mass -0.1$"):
            CdfComponent([0.0, 1.0, 2.0], [0.0, 0.9, 0.8])

    def test_requires_limits(self):
        with pytest.raises(ValueError):
            CdfComponent([0.0, 1.0], [0.1, 1.0])
        with pytest.raises(ValueError):
            CdfComponent([0.0, 1.0], [0.0, 0.9])

    @pytest.mark.parametrize("block", [False, True])
    def test_keeps_copies_of_its_inputs(self, block):
        knots, values = np.array([0.0, 0.5, 1.0]), np.array([0.0, 0.4, 1.0])
        F = CdfComponent([knots] if block else knots, values)
        knots[1] = 2.0
        values[1] = 0.9  # the caller's array stays writeable
        assert F.knots[0].tolist() == [0.0, 0.5, 1.0]
        assert F.values.tolist() == [0.0, 0.4, 1.0]
        assert F((0.75,) if block else 0.75) == pytest.approx(0.7)

    def test_product_table_is_exact(self):
        F = CdfComponent.from_product(
            [CdfComponent.uniform(0.0, 1.0), CdfComponent.uniform(0.0, 2.0)]
        )
        assert F.block_dim == 2
        assert F((0.5, 1.0)) == pytest.approx(0.25)
        assert F((np.inf, 1.0)) == pytest.approx(0.5)
        assert F((1.0, np.inf)) == pytest.approx(1.0)

    def test_grid_evaluation_matches_pointwise(self):
        F = random_piecewise_cdf(trial_rng(50, 0))
        xs = np.linspace(-0.5, 1.5, 13)
        grid = F.evaluate_grid([xs])
        assert np.allclose(grid, [F(x) for x in xs])


class TestSelectCutPoints:
    def test_two_uniforms(self):
        _, A = select_cut_points(two_uniform_family())
        assert numerical_rank(np.cumsum(A, axis=1)) == 2

    def test_two_uniforms_cut_where_the_cdfs_differ_most(self):
        # |F1 - F2| = t/2 on [0, 1] and 1 - t/2 on [1, 2]: largest at t = 1
        cuts, A = select_cut_points(two_uniform_family())
        assert [c.tolist() for c in cuts.cuts] == [[1.0]]
        assert A.tolist() == [[1.0, 0.0], [0.5, 0.5]]

    def test_frontier_families_are_well_conditioned(self):
        # r=8 with 16 knots and two mandatory queries: the first candidate off
        # the null space gave cond(M_0) around 7e4 here, and one refusal
        conds = []
        for i in range(40):
            mix = random_nonparametric_mixture(np.random.default_rng([1, 6, i]), 8, 4, n_knots=16)
            family = mix.variate(0)
            _, M = select_with_queries(family, [1 / 3, 2 / 3])
            conds.append(np.linalg.cond(M))
        assert max(conds) < 1e3

    def test_explicit_half_cuts_have_rank_two(self):
        # hand-picked cuts {0.5, 1.5}: rows of CDF values are
        # (0.5, 1, 1) and (0.25, 0.75, 1)
        F1, F2 = two_uniform_family()
        rows = np.array(
            [[F1(0.5), F1(1.5), 1.0], [F2(0.5), F2(1.5), 1.0]]
        )
        assert np.allclose(rows, [[0.5, 1.0, 1.0], [0.25, 0.75, 1.0]])
        assert numerical_rank(rows) == 2

    def test_single_component_returns_one_cut(self):
        cuts, _ = select_cut_points([CdfComponent.uniform(0.0, 1.0)])
        assert cuts.block_dim == 1
        assert cuts.cuts[0].size == 1

    def test_identical_components_exhaust_grid(self):
        family = [CdfComponent.uniform(0.0, 1.0), CdfComponent.uniform(0.0, 1.0)]
        with pytest.raises(RankDeficientError, match="^cut selection reached rank 1 of r=2: "):
            select_cut_points(family)

    def test_rank_rule_alone_answers_near_dependent_pair(self):
        # F2 = (1 - eps) F1 + eps G: the farthest knot lies about 1e-9 off the
        # span, yet the two-cut matrix has rank 2 under the rank rule
        eps = 2.7e-9
        base, other = np.array([0.0, 0.5, 1.0]), np.array([0.0, 0.8, 1.0])
        family = [
            CdfComponent([0.0, 0.5, 1.0], base),
            CdfComponent([0.0, 0.5, 1.0], (1 - eps) * base + eps * other),
        ]
        _, M = select_cut_points(family)
        assert numerical_rank(M) == 2

    def test_cut_adding_no_rank_refuses_within_r_svds(self, monkeypatch):
        # last component is (1 - eps) times the mean of the first two plus eps
        # times another CDF: a cut that leaves the span by more than rounding
        # can still add no rank, and then the family is refused at once
        eps, rng = 1.8e-8, trial_rng(0, 0)
        family = [random_piecewise_cdf(rng, 16) for _ in range(8)]
        other = random_piecewise_cdf(rng, 16)
        pool = default_grid([*family[:2], other])
        mean = (family[0].evaluate_grid(pool) + family[1].evaluate_grid(pool)) / 2
        family[-1] = CdfComponent(pool, (1 - eps) * mean + eps * other.evaluate_grid(pool))
        calls = []
        real = np.linalg.svd

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        with pytest.raises(
            RankDeficientError,
            match=r"^cut selection reached rank 7 of r=8: no candidate leaves the span ",
        ):
            select_cut_points(family)
        assert len(calls) <= 8

    def test_mandatory_point_included(self):
        cuts, _ = select_with_queries(two_uniform_family(), [0.37])
        assert 0.37 in cuts.cuts[0].tolist()

    def test_cut_selectors_take_no_query_points(self):
        # query points become cuts only inside recover_mixture
        mix = random_nonparametric_mixture(trial_rng(51, 1), 2, 3)
        with pytest.raises(TypeError):
            select_mixture_cuts(mix, [[0.5]] * 3)
        with pytest.raises(TypeError):
            select_cut_points(two_uniform_family(), mandatory=[0.37])

    def test_extra_cuts_never_reduce_rank(self):
        family = two_uniform_family()
        cuts, _ = select_cut_points(family)
        more = np.unique(np.concatenate([cuts.cuts[0], [0.1, 0.9, 1.7]]))
        A = binned_conditional_matrix(family, [more])
        assert numerical_rank(A) == 2

    def test_block_family(self):
        rng = trial_rng(51, 0)
        family = [
            CdfComponent.from_product([random_piecewise_cdf(rng) for _ in range(2)])
            for _ in range(2)
        ]
        cuts, A = select_cut_points(family)
        assert cuts.block_dim == 2
        assert numerical_rank(A) == 2


def reference_points(points, b):
    """Query points one at a time, as Python float tuples: the reference for
    :func:`~latentid.nonparametric._normalize_points`, naming the first bad point."""
    if points is None:
        return []

    def bare(x):  # never np.ndim of a list or tuple, which raises when it is ragged
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
    return out


def scalar_scan_cut_points(components, mandatory=None):
    """Reference cut selection: one ``comp(cand)`` call per component and candidate.

    Scans the pooled knots and their midpoints one candidate at a time and
    keeps the first with the largest distance from the column span of the
    current value matrix, which it rebuilds at every step; a step whose rank
    did not grow refuses the family.
    :func:`select_cut_points` scans no midpoints and must choose the same cuts.
    """
    b = components[0].block_dim
    axes = []
    for c in range(b):
        pool = np.unique(np.concatenate([comp.knots[c] for comp in components]))
        axes.append(np.unique(np.concatenate([pool, (pool[:-1] + pool[1:]) / 2.0])))
    candidates = list(itertools.product(*[a.tolist() for a in axes]))
    columns = np.array([[comp(cand) for comp in components] for cand in candidates])
    cut_lists = [[] for _ in range(b)]

    def add_point(pt):
        for c, x in enumerate(pt):
            if x not in cut_lists[c]:
                cut_lists[c].append(x)
                cut_lists[c].sort()

    for pt in reference_points(mandatory, b):
        add_point(pt)
    rank = 0
    while True:
        grid = [np.concatenate([np.asarray(c, dtype=float), [np.inf]]) for c in cut_lists]
        A = np.vstack([comp.evaluate_grid(grid).ravel() for comp in components])
        U, S, _ = np.linalg.svd(A)
        previous, rank = rank, rank_from_singular_values(S, A.shape)
        if rank == len(components):
            break
        if rank <= previous:
            raise RankDeficientError("family is linearly dependent")
        best, farthest = None, -1.0
        for cand, col in zip(candidates, columns):
            distance = np.linalg.norm(U[:, rank:].T @ col)
            if distance > farthest:
                best, farthest = cand, distance
        add_point(best)
    for c in range(b):
        if not cut_lists[c]:
            cut_lists[c].append(float(axes[c][0]))
    return [np.asarray(c, dtype=float) for c in cut_lists]


def scan_case(i):
    """Family and mandatory points for agreement case i.

    Cycles r through 1..8 and block dimension through 1 and 2, with and
    without mandatory points.  Every tenth family with r >= 3 has a last
    component that mixes the first two, so it is linearly dependent.
    """
    rng = trial_rng(70, i)
    r, b = 1 + i % 8, 1 + (i // 8) % 2
    knots = 5 if b == 1 else 3

    def draw():
        if b == 1:
            return random_piecewise_cdf(rng, knots)
        return CdfComponent.from_product([random_piecewise_cdf(rng, knots) for _ in range(b)])

    family = [draw() for _ in range(r)]
    if i % 10 == 9 and r >= 3:
        pool = default_grid(family[:2])
        mixed = (family[0].evaluate_grid(pool) + family[1].evaluate_grid(pool)) / 2
        family[-1] = CdfComponent(pool, mixed)
    mandatory = None
    if (i // 16) % 2:
        xs = np.round(rng.uniform(0.0, 1.0, size=2), 3).tolist()
        mandatory = xs if b == 1 else [tuple(xs)] * 2
    return family, mandatory


def reference_variate_cuts(family, mandatory=None):
    """One family's cut selection in a loop of its own, one SVD per step: the
    greedy steps that :func:`select_mixture_cuts` takes for all variates in
    lockstep.  Tables come from :func:`reference_evaluate_grid`, one component
    at a time.  Returns the cut arrays and the bin masses, or raises for the
    first step that does not raise the rank."""
    r, b = len(family), family[0].block_dim
    points = nonparametric._normalize_points(mandatory, b)
    grid = default_grid(family)
    axes = [
        np.unique(np.concatenate([[-np.inf], g, points[:, c], [np.inf]]))
        for c, g in enumerate(grid)
    ]
    table = np.array([reference_evaluate_grid(comp, axes) for comp in family])
    classes = np.arange(r)
    cut_at = [set(np.searchsorted(ax, points[:, c]).tolist()) for c, ax in enumerate(axes)]
    knots_at = [np.searchsorted(ax, g) for ax, g in zip(axes, grid)]
    scan = table[np.ix_(classes, *knots_at)].reshape(r, -1)
    previous = 0
    while True:
        columns = [sorted(at) + [ax.size - 1] for at, ax in zip(cut_at, axes)]
        A = table[np.ix_(classes, *columns)].reshape(r, -1)
        U, S, _ = np.linalg.svd(A)
        rank = rank_from_singular_values(S, A.shape)
        if rank == r:
            break
        if rank <= previous:
            raise RankDeficientError(
                f"cut selection reached rank {rank} of r={r}: no candidate leaves "
                "the span of the current cuts, the component family is linearly "
                "dependent"
            )
        previous = rank
        best = np.argmax(np.linalg.norm(U[:, rank:].T @ scan, axis=0))
        best_at = np.unravel_index(best, [pos.size for pos in knots_at])
        for at, pos, k in zip(cut_at, knots_at, best_at):
            at.add(int(pos[k]))
    cut_at = [
        sorted(at) or [int(np.searchsorted(ax, g[0]))] for at, ax, g in zip(cut_at, axes, grid)
    ]
    mass = table[np.ix_(classes, *([0, *at, ax.size - 1] for at, ax in zip(cut_at, axes)))]
    for axis in range(1, b + 1):
        mass = np.diff(mass, axis=axis)
    return [ax[at] for ax, at in zip(axes, cut_at)], np.maximum(mass.reshape(r, -1), 0.0)


def mixed_component(family, i, k):
    """The equal mixture of ``family[i]`` and ``family[k]``, tabled on their pooled knots."""
    pool = default_grid([family[i], family[k]])
    return CdfComponent(pool, (family[i].evaluate_grid(pool) + family[k].evaluate_grid(pool)) / 2)


@st.composite
def lockstep_mixtures(draw):
    """Mixtures whose variates take different numbers of greedy steps.

    r is 2 to 8 and there are 1 to 4 variates, each a scalar with 3 to 16
    knots or a 2-D block with 3 or 4 knots per coordinate, and with 0 to r
    mandatory points (signed zeros and infinities among them).  A variate
    may be made linearly dependent, so that its rank stops short in a round
    of its own: one component copies another or mixes two others, or every
    component has 2 knots, which makes each the uniform CDF.
    """
    r, p = draw(st.integers(2, 8)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    coordinate = st.one_of(
        st.floats(-0.5, 1.5), st.sampled_from([-0.0, 0.0, 1.0, -np.inf, np.inf])
    )
    variates, mandatory = [], []
    for _ in range(p):
        b = draw(st.sampled_from([1, 1, 2]))
        dependence = draw(st.sampled_from(["none"] * 4 + ["copy", "mix", "uniform"]))
        knots = 2 if dependence == "uniform" else draw(st.integers(3, 16 if b == 1 else 4))
        family = [
            CdfComponent.from_product([random_piecewise_cdf(rng, knots) for _ in range(b)])
            if b > 1 else random_piecewise_cdf(rng, knots)
            for _ in range(r)
        ]
        if dependence == "copy":
            family[-1] = family[0]
        elif dependence == "mix" and r >= 3:
            family[-1] = mixed_component(family, 0, 1)
        variates.append(family)
        points = draw(st.lists(st.tuples(*[coordinate] * b), max_size=r))
        mandatory.append([pt[0] for pt in points] if b == 1 else points)
    mix = NonparametricMixture(pi=np.full(r, 1 / r), components=tuple(zip(*variates)))
    return mix, mandatory


def late_and_early_refusals():
    """Four classes over three scalar variates without mandatory points.

    Variate 0 is independent.  Variate 1's last component mixes its first
    two, so it reaches rank 3 and refuses in the fourth round; variate 2's
    components are all one CDF, so it refuses in the second.  The refusal
    raised is variate 1's, the lowest-numbered, not variate 2's, the first.
    """
    rng = trial_rng(74, 0)
    independent = [random_piecewise_cdf(rng, 6) for _ in range(4)]
    mixed = [random_piecewise_cdf(rng, 6) for _ in range(3)]
    mixed.append(mixed_component(mixed, 0, 1))
    same = [random_piecewise_cdf(rng, 6)] * 4
    mix = NonparametricMixture(
        pi=np.full(4, 0.25), components=tuple(zip(independent, mixed, same))
    )
    return mix, [None] * 3


def block_step_on_a_cut():
    """Five classes over two 2-D blocks of one knot shape and two scalars.

    Block 0's components share their second marginal, so every greedy step
    lands on its top knot, where the first step has already cut: from the
    second step on, its second coordinate keeps one cut while block 1, whose
    steps cut both coordinates, and the scalars keep growing.
    """
    rng = trial_rng(75, 0)
    marginal = random_piecewise_cdf(rng, 5 * (4 - 2) + 2)  # block 1's pooled knot count
    shared = [CdfComponent.from_product([random_piecewise_cdf(rng, 4), marginal])
              for _ in range(5)]
    generic = [CdfComponent.from_product([random_piecewise_cdf(rng, 4) for _ in range(2)])
               for _ in range(5)]
    scalars = [[random_piecewise_cdf(rng, 6) for _ in range(5)] for _ in range(2)]
    mix = NonparametricMixture(
        pi=np.full(5, 0.2), components=tuple(zip(shared, generic, *scalars))
    )
    return mix, [None] * 4


class TestCutScanAgreement:
    def test_cuts_equal_scalar_scan(self):
        for i in range(320):
            family, mandatory = scan_case(i)
            dependent = i % 10 == 9 and len(family) >= 3
            try:
                expected = [c.tobytes() for c in scalar_scan_cut_points(family, mandatory)]
            except RankDeficientError:
                expected = None
            try:
                cuts, _ = select_with_queries(family, mandatory)
                got = [c.tobytes() for c in cuts.cuts]
            except RankDeficientError:
                got = None
            assert got == expected, f"case {i}"
            assert (got is None) == dependent, f"case {i}"

    def test_each_variate_is_tabulated_once(self, monkeypatch):
        # a mixture, built or loaded, makes one family per variate, and only
        # _families_from_stacks makes component views and pools their knots;
        # cut selection, recovery, bivariate ranks and component CDFs read
        # those families and tabulate nothing
        builds, tabulated = [], []
        build, tabulate = nonparametric._families_from_stacks, nonparametric._tabulate

        def counting_build(*args):
            families = build(*args)
            builds.extend(families)
            return families

        def counting_tabulate(variates):
            tabulated.append(variates)
            return tabulate(variates)

        monkeypatch.setattr(nonparametric, "_families_from_stacks", counting_build)
        monkeypatch.setattr(nonparametric, "_tabulate", counting_tabulate)
        for r, p, block_dims in [(2, 3, None), (3, 4, [1, 2, 1, 1]), (4, 5, None)]:
            document = model_to_dict(
                random_nonparametric_mixture(trial_rng(71, r), r, p, block_dims=block_dims)
            )
            builds.clear()
            for build_mixture in (
                lambda: random_nonparametric_mixture(trial_rng(71, r), r, p, block_dims),
                lambda: model_from_dict(document),
            ):
                mix = build_mixture()
                assert len(builds) == p
                builds.clear()
                tabulated.clear()
                queries = [[0.5] if b == 1 else [(0.5,) * b] for b in mix.block_dims]
                select_mixture_cuts(mix)
                recover_mixture(mix, queries)
                bivariate_rank(mix, 0, p - 1, np.linspace(0.1, 0.9, r), np.linspace(0.1, 0.9, r))
                component_cdfs(mix, queries)
                assert builds == [] and tabulated == []

    def test_at_most_r_svds(self, monkeypatch):
        # rank grows at every step or the family is refused
        calls = []
        real = np.linalg.svd

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        for i in range(80):
            family, mandatory = scan_case(i)
            calls.clear()
            try:
                select_with_queries(family, mandatory)
            except RankDeficientError:
                pass
            assert 1 <= len(calls) <= len(family), f"case {i}"

    @pytest.mark.parametrize("r", [3, 5, 8])
    @pytest.mark.parametrize("p", range(1, 7))
    def test_rounds_make_no_calls_per_variate(self, monkeypatch, r, p):
        # p scalar variates of one shape take r rounds together: r stacked
        # SVDs and r - 1 stacked products, whatever p; the cut sets come out
        # read-only and as the checking constructor builds them
        mix = random_nonparametric_mixture(trial_rng(76, 10 * r + p), r, p)
        calls = {"svd": 0, "norm": 0}
        for name in calls:
            real = getattr(np.linalg, name)

            def counting(*args, _name=name, _real=real, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counting)
        selected = select_mixture_cuts(mix)
        assert calls == {"svd": r, "norm": r - 1}
        for cuts, _ in selected:
            assert not any(c.flags.writeable for c in cuts.cuts)
            checked = CutPointSet(cuts=tuple(np.array(c) for c in cuts.cuts))
            assert [c.tobytes() for c in cuts.cuts] == [c.tobytes() for c in checked.cuts]

    def test_binning_equals_binned_conditional_matrix(self):
        # the matrix cut selection returns is the one binned_conditional_matrix
        # computes at the same cuts, to the bit
        for i in range(320):
            family, mandatory = scan_case(i)
            try:
                cuts, M = select_with_queries(family, mandatory)
            except RankDeficientError:
                continue
            expected = binned_conditional_matrix(family, cuts)
            assert M.shape == expected.shape, f"case {i}"
            assert M.tobytes() == expected.tobytes(), f"case {i}"

    @given(case=lockstep_mixtures())
    @example(case=late_and_early_refusals())
    @example(case=block_step_on_a_cut())
    def test_mixture_cuts_equal_per_variate_cuts(self, case):
        # the lockstep rounds over a mixture are the greedy loop run for one
        # variate at a time, to the byte, and refuse for the lowest-numbered
        # variate that the loop refuses, whichever round that happens in
        mix, mandatory = case
        expected, refusal = [], None
        for j in range(mix.p):
            try:
                expected.append(reference_variate_cuts(mix.variate(j), mandatory[j]))
            except RankDeficientError as exc:
                refusal = f"variate {j}: {exc}"
                break
        if refusal is not None:
            with pytest.raises(RankDeficientError, match=f"^{re.escape(refusal)}$"):
                mixture_cuts_with_queries(mix, mandatory)
            return
        selected = mixture_cuts_with_queries(mix, mandatory)
        assert len(selected) == mix.p
        for (cuts, M), (expected_cuts, expected_M) in zip(selected, expected):
            assert [c.tobytes() for c in cuts.cuts] == [c.tobytes() for c in expected_cuts]
            assert M.shape == expected_M.shape
            assert M.tobytes() == expected_M.tobytes()


def scalar_cdf(comp, point):
    """CDF of ``comp`` at one point, blending one coordinate at a time."""
    V = comp.values
    for kn, x in zip(comp.knots, point):
        x = min(max(x, kn[0]), kn[-1])
        i = min(bisect.bisect_right(kn.tolist(), x) - 1, kn.size - 2)
        t = (x - kn[i]) / (kn[i + 1] - kn[i])
        V = V[i] * (1.0 - t) + V[i + 1] * t
    return V


@st.composite
def piecewise_cdfs(draw, max_knots=5):
    """A random piecewise-linear CDF with knots in [-10, 10]."""
    knots = sorted(
        draw(st.lists(st.floats(-10, 10), min_size=2, max_size=max_knots, unique=True))
    )
    steps = draw(
        st.lists(st.floats(0.01, 1.0), min_size=len(knots) - 1, max_size=len(knots) - 1)
    )
    values = np.concatenate([[0.0], np.cumsum(steps)])
    return CdfComponent(knots, values / values[-1])


coordinates = st.one_of(st.floats(-20, 20), st.sampled_from([-np.inf, np.inf]))


@given(
    parts=st.lists(piecewise_cdfs(), min_size=1, max_size=3),
    data=st.data(),
)
def test_evaluate_grid_equals_scalar_evaluation(parts, data):
    comp = CdfComponent.from_product(parts)
    axes = [
        np.array(data.draw(st.lists(coordinates, min_size=1, max_size=5)))
        for _ in parts
    ]
    expected = np.array([scalar_cdf(comp, pt) for pt in itertools.product(*axes)])
    assert comp.evaluate_grid(axes).tobytes() == expected.reshape([a.size for a in axes]).tobytes()


def reference_evaluate_grid(comp, axes):
    """One component on a product grid, one coordinate at a time: the
    per-component evaluation that :func:`~latentid.nonparametric._evaluate`
    must reproduce bit for bit for every row of a family."""
    V = comp.values
    for c, req in enumerate(axes):
        kn = comp.knots[c]
        x = np.minimum(np.maximum(np.asarray(req, dtype=float), kn[0]), kn[-1])
        idx = np.minimum(np.searchsorted(kn, x, side="right") - 1, kn.size - 2)
        nxt = idx + 1
        left = kn[idx]
        t = (x - left) / (kn[nxt] - left)
        shape = (-1,) + (1,) * (V.ndim - c - 1)
        below, above = V.take(idx, axis=c), V.take(nxt, axis=c)
        V = below * (1.0 - t).reshape(shape) + above * t.reshape(shape)
    return V


def test_far_values_are_clamped_before_dividing():
    # a value far outside a tiny knot gap is clamped to the gap before t is
    # taken, so the division cannot overflow
    tiny = CdfComponent([0.0, 5e-324], [0.0, 1.0])
    with np.errstate(all="raise"):
        table = nonparametric._evaluate(nonparametric._tabulate([[tiny, _U]]), [[[1.0, -1.0]]])
        assert tiny.evaluate_grid([[2.0]]).tolist() == [1.0]
    assert table.tolist() == [[1.0, 0.0], [1.0, 0.0]]


#: knots and values drawn from a few numbers, so that ties within and across
#: rows are common; -0.0 ties with 0.0
_TIED = st.sampled_from([-np.inf, -1.0, -0.0, 0.0, 0.5, 1.0, 2.5, np.inf])


@st.composite
def tied_variates(draw):
    """Variates of one block dimension and axes to evaluate each on, from :data:`_TIED`.

    There are 1 to 3 variates of 1 to 4 components each, all of block
    dimension 1 or 2.  A component has 2 to 5 knots per coordinate, so rows
    are ragged and share knots, and one row may hold -0.0 where another
    holds 0.0.  Each axis holds up to 6 values: knots, points between and
    beyond them (from :data:`_TIED` or any in [-2, 3]), and both infinities.
    """
    b, r = draw(st.integers(1, 2)), draw(st.integers(1, 4))
    knots = st.lists(_TIED.filter(np.isfinite), min_size=2, max_size=5, unique=True).map(sorted)
    point = st.one_of(_TIED, st.floats(-2.0, 3.0))

    def scalar():
        kn = draw(knots)
        steps = draw(st.lists(st.floats(0.01, 1.0), min_size=len(kn) - 1, max_size=len(kn) - 1))
        values = np.concatenate([[0.0], np.cumsum(steps)])
        return CdfComponent(kn, values / values[-1])

    variates, variate_axes = [], []
    for _ in range(draw(st.integers(1, 3))):
        variates.append([
            scalar() if b == 1 else CdfComponent.from_product([scalar() for _ in range(b)])
            for _ in range(r)
        ])
        variate_axes.append(
            [np.array(draw(st.lists(point, max_size=6)), dtype=float) for _ in range(b)]
        )
    return variates, variate_axes


@given(case=tied_variates())
def test_family_evaluation_equals_the_per_component_loop(case):
    # one shared search per coordinate and the maps to each row's own cells
    # give every entry of the per-component evaluation, to the bit, whether
    # the families built together are evaluated in one pass or one at a time
    variates, variate_axes = case
    families = nonparametric._tabulate(variates)
    stack = nonparametric._evaluate(families, variate_axes)
    r = len(variates[0])
    for f, (family, axes) in enumerate(zip(variates, variate_axes)):
        expected = np.array([reference_evaluate_grid(comp, axes) for comp in family])
        table = stack[(slice(f * r, (f + 1) * r), *(slice(len(ax)) for ax in axes))]
        alone = nonparametric._evaluate([families[f]], [axes])
        for got in (table, alone):
            assert got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()


@given(case=tied_variates())
def test_pooled_knots_are_the_default_grid(case):
    # one sort of the padded knot stack gives each variate's default_grid,
    # byte for byte, over ragged rows and ties of -0.0 with 0.0
    variates, _ = case
    for family, variate in zip(nonparametric._tabulate(variates), variates):
        expected = default_grid(variate)
        assert [g.tobytes() for g in family.grid] == [g.tobytes() for g in expected]


@pytest.mark.parametrize("zeros", [(-0.0, 0.0), (0.0, -0.0)])
def test_pooled_knots_keep_the_first_zero(zeros):
    # of -0.0 and 0.0, the pooled knots keep the one met first in component
    # order, as default_grid does; the second variate has fewer knots
    first, second = zeros
    variates = [
        [CdfComponent([-1.0, first, 1.0], [0.0, 0.5, 1.0]), CdfComponent([second, 2.0], [0, 1])],
        [CdfComponent.uniform(second, 1.0), CdfComponent.uniform(first, 3.0)],
    ]
    for family, variate, zero in zip(nonparametric._tabulate(variates), variates, zeros):
        (grid,) = family.grid
        (expected,) = default_grid(variate)
        assert grid.tobytes() == expected.tobytes()
        assert np.signbit(grid[grid == 0.0]).tolist() == [bool(np.signbit(zero))]


@given(
    family=st.lists(piecewise_cdfs(max_knots=6), min_size=1, max_size=6),
    mandatory=st.lists(st.floats(-1, 11), max_size=3),
)
def test_selected_cuts_give_full_rank(family, mandatory):
    try:
        _, M = select_with_queries(family, mandatory)
    except RankDeficientError:
        return
    assert numerical_rank(M) == len(family)


@st.composite
def point_inputs(draw):
    """Query points for a block of dimension b, in every form a caller may pass.

    Rows of coordinates (finite or infinite) become an ``(n, b)`` array, an
    ``(n,)`` array, tuples, lists, bare scalars, one bare point, a mix of
    forms, or a 3-D nesting; some cases have a NaN or a row with a missing
    coordinate.
    """
    b = draw(st.integers(1, 3))
    coordinate = st.one_of(st.floats(allow_nan=False), st.sampled_from([-np.inf, np.inf]))
    row = st.lists(coordinate, min_size=b, max_size=b)
    rows = draw(st.lists(row, min_size=1, max_size=4))
    if draw(st.booleans()) and draw(st.booleans()):
        rows[draw(st.integers(0, len(rows) - 1))][draw(st.integers(0, b - 1))] = np.nan
    if draw(st.booleans()) and draw(st.booleans()):
        rows[draw(st.integers(0, len(rows) - 1))].pop()
    form = draw(
        st.sampled_from(["array", "flat", "tuples", "lists", "scalars", "bare", "mixed", "nested"])
    )
    if form in ("array", "flat"):
        try:
            array = np.array(rows)
        except ValueError:  # ragged rows
            return b, rows
        return b, array.ravel() if form == "flat" else array
    if form == "tuples":
        return b, [tuple(r) for r in rows]
    if form == "scalars":
        return b, [x for r in rows for x in r]
    if form == "bare":
        return b, rows[0][0] if b == 1 and len(rows[0]) == 1 else tuple(rows[0])
    if form == "mixed":
        shapes = [tuple, list, np.array, lambda r: r[0] if len(r) == 1 else tuple(r)]
        return b, [draw(st.sampled_from(shapes))(r) for r in rows]
    if form == "nested":
        return b, [[r] for r in rows]
    return b, rows


def normalized_or_refusal(normalize, points, b):
    try:
        return np.array(normalize(points, b), dtype=float).reshape(-1, b).tobytes()
    except (TypeError, ValueError) as exc:  # InputError is a ValueError
        return type(exc), str(exc)


@given(case=point_inputs())
def test_normalized_points_equal_the_per_point_loop(case):
    b, points = case
    expected = normalized_or_refusal(reference_points, points, b)
    assert normalized_or_refusal(nonparametric._normalize_points, points, b) == expected
    if isinstance(expected, bytes):
        got = nonparametric._normalize_points(points, b)
        assert got.dtype == float and got.shape == (len(expected) // (8 * b), b)


class TestBinnedMatrix:
    def test_uniform_half_split(self):
        A = binned_conditional_matrix([CdfComponent.uniform(0.0, 1.0)], [[0.5]])
        assert np.allclose(A, [[0.5, 0.5]])

    def test_cumulative_transform_recovers_cdf_values(self):
        family = two_uniform_family()
        cuts = [0.5, 1.5]
        A = binned_conditional_matrix(family, [cuts])
        cumulative = np.cumsum(A, axis=1)
        expected = np.array([[0.5, 1.0, 1.0], [0.25, 0.75, 1.0]])
        assert np.abs(cumulative - expected).max() <= 1e-15

    def test_block_of_independent_uniforms(self):
        F = CdfComponent.from_product(
            [CdfComponent.uniform(0.0, 1.0), CdfComponent.uniform(0.0, 1.0)]
        )
        A = binned_conditional_matrix([F], [[0.5], [0.5]])
        assert np.allclose(A, [[0.25, 0.25, 0.25, 0.25]])

    def test_rows_are_distributions(self):
        rng = trial_rng(52, 0)
        family = [random_piecewise_cdf(rng) for _ in range(3)]
        _, A = select_cut_points(family)
        assert np.allclose(A.sum(axis=1), 1.0)
        assert A.min() >= 0.0

    @pytest.mark.parametrize(
        "cuts, message",
        [
            ([[0.5, 0.2]], "^cut array 0 must be strictly increasing$"),
            ([[0.3, np.nan]], "^cut array 0 contains NaN$"),
            ([[]], "^cut array 0 must be nonempty 1-D$"),
            ([], "^cut array 0 must be nonempty 1-D$"),
        ],
    )
    def test_malformed_cuts_are_input_errors(self, cuts, message):
        with pytest.raises(InputError, match=message):
            binned_conditional_matrix(two_uniform_family(), cuts)

    def test_negative_bin_mass_is_an_input_error(self, tmp_path):
        # monotone along each coordinate, but the cell (1, 2] x (1, 2] has
        # mass 1 - 0.8 - 0.8 + 0.2 = -0.4: refused where the table is built,
        # so no binning ever sees it
        bad = {"knots": [[0, 1, 2]] * 2, "values": [[0, 0, 0], [0, 0.2, 0.8], [0, 0.8, 1]]}
        message = "^CDF table has a negative cell mass -0.4$"
        with pytest.raises(InputError, match=message):
            CdfComponent(bad["knots"], bad["values"])
        mixture = random_nonparametric_mixture(trial_rng(52, 1), 2, 3, block_dims=[1, 1, 2])
        obj = model_to_dict(mixture)
        obj["components"][1][2] = bad
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(InputError, match=message):
            load_model(path)


class TestBivariateRank:
    def test_product_measure_has_rank_one(self):
        mix = NonparametricMixture(
            pi=np.array([0.4, 0.6]),
            components=(
                (CdfComponent.uniform(0.0, 1.0), CdfComponent.uniform(0.0, 2.0)),
                (CdfComponent.uniform(0.0, 1.0), CdfComponent.uniform(0.0, 2.0)),
            ),
        )
        assert bivariate_rank(mix, 0, 1, [[0.25, 0.5, 0.75]], [[0.5, 1.0, 1.5]]) == 1

    def test_independent_families_have_full_rank(self):
        mix = NonparametricMixture(
            pi=np.array([0.4, 0.6]),
            components=(
                (CdfComponent.uniform(0.0, 1.0), CdfComponent.uniform(0.0, 1.0)),
                (CdfComponent.uniform(0.0, 2.0), CdfComponent.uniform(1.0, 2.0)),
            ),
        )
        # explicit 2x2 check at the hand-picked cuts
        assert bivariate_rank(mix, 0, 1, [[0.5, 1.5]], [[0.5, 1.5]]) == 2

    def test_three_class_family(self):
        rng = trial_rng(53, 0)
        mix = random_nonparametric_mixture(rng, 3, 2)
        cuts = [select_cut_points(mix.variate(j))[0] for j in range(2)]
        assert bivariate_rank(mix, 0, 1, cuts[0], cuts[1]) == 3

    def test_never_exceeds_r(self):
        rng = trial_rng(53, 1)
        for t in range(5):
            mix = random_nonparametric_mixture(trial_rng(53, 10 + t), 2, 2)
            cuts = [select_cut_points(mix.variate(j))[0] for j in range(2)]
            assert bivariate_rank(mix, 0, 1, cuts[0], cuts[1]) <= 2


class TestRecoverMixture:
    def test_reference_round_trip(self):
        mix = reference_mixture()
        queries = [
            np.linspace(0.05, 1.95, 20).tolist(),
            np.linspace(0.05, 1.95, 20).tolist(),
            np.linspace(0.05, 0.95, 20).tolist(),
        ]
        pi_hat, tables = recover_mixture(mix, queries, seed=0)
        truth = [
            np.array([[comp(q) for q in queries[j]] for comp in mix.variate(j)])
            for j in range(3)
        ]
        align = align_permutation((pi_hat, tables), (mix.pi, truth))
        assert align.max_abs_error <= 1e-6

    def test_single_class_exact(self):
        mix = random_nonparametric_mixture(trial_rng(54, 0), 1, 3)
        queries = [[0.2, 0.5, 0.8]] * 3
        pi_hat, tables = recover_mixture(mix, queries, seed=0)
        assert np.allclose(pi_hat, [1.0])
        for j in range(3):
            truth = [mix.variate(j)[0](q) for q in queries[j]]
            assert np.abs(tables[j][0] - truth).max() <= 1e-10

    def test_five_variate_chaining(self):
        mix = random_nonparametric_mixture(trial_rng(54, 1), 2, 5)
        queries = [[0.25, 0.5, 0.75]] * 5
        pi_hat, tables = recover_mixture(mix, queries, seed=3)
        truth = [
            np.array([[comp(q) for q in queries[j]] for comp in mix.variate(j)])
            for j in range(5)
        ]
        align = align_permutation((pi_hat, tables), (mix.pi, truth))
        assert align.max_abs_error <= 1e-6

    def test_block_variate(self):
        mix = random_nonparametric_mixture(trial_rng(54, 2), 2, 3, block_dims=[1, 1, 2])
        queries = [
            [0.3, 0.6],
            [0.3, 0.6],
            [(0.3, 0.5), (0.6, 0.8)],
        ]
        pi_hat, tables = recover_mixture(mix, queries, seed=1)
        truth = [
            np.array(
                [
                    [comp(q if isinstance(q, tuple) else (q,)) for q in queries[j]]
                    for comp in mix.variate(j)
                ]
            )
            for j in range(3)
        ]
        align = align_permutation((pi_hat, tables), (mix.pi, truth))
        assert align.max_abs_error <= 1e-6

    def test_monotone_in_query_points(self):
        mix = random_nonparametric_mixture(trial_rng(54, 3), 2, 3)
        queries = [np.linspace(0.1, 0.9, 9).tolist()] * 3
        _, tables = recover_mixture(mix, queries, seed=0)
        for table in tables:
            assert np.all(np.diff(table, axis=1) >= -1e-9)

    def test_chaining_coherence_across_triples(self):
        # one decomposition labels every variate's rows, so a single class
        # permutation must align the weights and all five tables at once
        mix = random_nonparametric_mixture(trial_rng(54, 5), 3, 5)
        queries = [[0.25, 0.5, 0.75]] * 5
        pi_hat, tables = recover_mixture(mix, queries, seed=2)
        truth = [
            np.array([[comp(q) for q in queries[j]] for comp in mix.variate(j)])
            for j in range(5)
        ]
        align = align_permutation((pi_hat, tables), (mix.pi, truth))
        assert align.max_abs_error <= 1e-6

    def test_one_decomposition_for_all_variates(self, monkeypatch):
        calls = []
        real = nonparametric.decompose3

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(nonparametric, "decompose3", counting)
        mix = random_nonparametric_mixture(trial_rng(54, 6), 2, 5)
        recover_mixture(mix, [[0.5]] * 5, seed=0)
        assert len(calls) == 1

    @pytest.mark.parametrize("s, i", [(2, 48), (6, 10), (16, 52)])
    def test_frontier_answers_are_exact_or_refused(self, s, i):
        # r=8 with 16 knots, where cuts barely off the null space once made
        # the binned matrices nearly singular; the farthest cuts keep them
        # well conditioned, so every answer is exact to float level
        rng = np.random.default_rng([s, 6, i])
        full = random_nonparametric_mixture(rng, 8, 4, n_knots=16)
        seed = int(rng.integers(2**32))
        mix = NonparametricMixture(
            pi=full.pi, components=[row[:3] for row in full.components]
        )
        queries = [[1 / 3, 2 / 3]] * 3
        pi_hat, tables = recover_mixture(mix, queries, seed=seed)
        truth = [
            np.array([[comp(q) for q in queries[j]] for comp in mix.variate(j)])
            for j in range(3)
        ]
        align = align_permutation((pi_hat, tables), (mix.pi, truth))
        assert align.max_abs_error <= 1e-9

    def test_infinite_and_out_of_range_queries_are_answered(self):
        mix = reference_mixture()
        queries = [[-np.inf, -5.0, 0.5, 5.0, np.inf], [np.inf, 1.5], [-np.inf, 0.3, 7.0]]
        pi_hat, tables = recover_mixture(mix, queries, seed=0)
        truth = [
            np.array([[comp(q) for q in queries[j]] for comp in mix.variate(j)])
            for j in range(3)
        ]
        align = align_permutation((pi_hat, tables), (mix.pi, truth))
        assert align.max_abs_error <= 1e-9

    def test_ragged_queries_answer_as_the_array(self, monkeypatch):
        # numpy refuses [(0.3,), 0.6] as ragged; the per-point loop takes it
        # and the answer keeps the bytes of the same points as one array
        mix = random_nonparametric_mixture(trial_rng(55, 0), 3, 3)
        expected = recover_mixture(mix, [[0.3, 0.6]] * 3, seed=0)
        per_point, normalize_each = [], nonparametric._normalize_each

        def counting(points, b):
            per_point.append(points)
            return normalize_each(points, b)

        monkeypatch.setattr(nonparametric, "_normalize_each", counting)
        got = recover_mixture(mix, [[(0.3,), 0.6], [0.3, 0.6], [[0.3], 0.6]], seed=0)
        assert per_point == [[(0.3,), 0.6], [[0.3], 0.6]]
        assert got[0].tobytes() == expected[0].tobytes()
        assert [t.tobytes() for t in got[1]] == [t.tobytes() for t in expected[1]]

    def test_nan_query_is_an_input_error(self):
        with pytest.raises(InputError, match="^point nan has a NaN coordinate$"):
            recover_mixture(reference_mixture(), [[0.3, np.nan], [0.5], [0.5]])
        block = random_nonparametric_mixture(trial_rng(54, 2), 2, 3, block_dims=[1, 1, 2])
        with pytest.raises(InputError, match=r"^point \(0.3, nan\) has a NaN coordinate$"):
            recover_mixture(block, [[0.5], [0.5], [(0.3, np.nan)]])
        with pytest.raises(InputError, match="^point nan has a NaN coordinate$"):
            select_with_queries(two_uniform_family(), [np.nan])


def test_queries_are_normalized_once_per_variate(monkeypatch):
    # recover_mixture converts each variate's queries once; cut selection and
    # the one read-back of all variates receive that very array, and the
    # per-point loop never runs on well-formed input
    calls, read_back, starting = [], [], []
    normalize, cdf_at = nonparametric._normalize_points, nonparametric._cdf_at_queries
    start = nonparametric._starting_cuts

    def spy(points, b):
        out = normalize(points, b)
        calls.append((points, out))
        return out

    def reading(rows, cuts, points):
        read_back.append(points)
        return cdf_at(rows, cuts, points)

    def per_point(points, b):
        raise AssertionError("per-point loop ran on well-formed queries")

    def starting_cuts(families, points, r):
        starting.append(points)
        return start(families, points, r)

    monkeypatch.setattr(nonparametric, "_starting_cuts", starting_cuts)
    monkeypatch.setattr(nonparametric, "_normalize_points", spy)
    monkeypatch.setattr(nonparametric, "_cdf_at_queries", reading)
    monkeypatch.setattr(nonparametric, "_normalize_each", per_point)
    mix = random_nonparametric_mixture(trial_rng(54, 8), 2, 5, block_dims=[1, 2, 1, 1, 2])
    queries = [
        [0.2, 0.4], np.array([[0.3, 0.5], [0.6, 0.1]]), np.array([0.5]), 0.7, (0.4, 0.6)
    ]
    recover_mixture(mix, queries, seed=0)
    p = mix.p
    assert len(calls) == p
    converted = [out for _, out in calls]
    for j in range(p):
        assert calls[j][0] is queries[j]
        assert starting[0][j] is converted[j]
        assert read_back[0][j] is converted[j]
    assert len(read_back) == len(starting) == 1


def output_digest(pi, tables):
    digest = hashlib.sha256(pi.tobytes())
    for table in tables:
        digest.update(repr(table.shape).encode())
        digest.update(table.tobytes())
    return digest.hexdigest()


def ragged_mixture():
    """Three classes whose components differ in knot count on every variate,
    the 2-D block in each coordinate too: 3 to 5, 2 to 4 by 5 to 3, 6 to 2
    and 4 to 8 knots."""
    rng = trial_rng(56, 0)
    rows = []
    for i in range(3):
        rows.append((
            random_piecewise_cdf(rng, 3 + i),
            CdfComponent.from_product(
                [random_piecewise_cdf(rng, 2 + i), random_piecewise_cdf(rng, 5 - i)]
            ),
            random_piecewise_cdf(rng, 6 - 2 * i),
            random_piecewise_cdf(rng, 4 + 2 * i),
        ))
    return NonparametricMixture(pi=random_probability(rng, 3), components=tuple(rows))


#: (mixture, queries, seed, sha256 of the output) for seeded recoveries; the
#: digests were taken before query points became one array, the ragged one
#: before components were evaluated in stacked passes, and the frontier one
#: before the greedy steps ran in lockstep, so the outputs are byte for byte
#: those of the per-point, per-component, per-variate code (numpy 2.4,
#: OpenBLAS 0.3.31)
GOLDEN_RECOVERIES = {
    "scalar-lists": (
        lambda: random_nonparametric_mixture(trial_rng(55, 0), 3, 3),
        [np.linspace(0.05, 0.95, 6).tolist()] * 3, 0,
        "f62a4da0809546eb2f69db1c191b2da4fb9336e62e41739a138dd51855c60411",
    ),
    "block-tuples": (
        lambda: random_nonparametric_mixture(trial_rng(54, 2), 2, 3, block_dims=[1, 1, 2]),
        [[0.3, 0.6], [0.3, 0.6], [(0.3, 0.5), (0.6, 0.8)]], 1,
        "49eefbb161c5c6c40f3d0c09d8276078f280aa5a0fc2d660969b4fd2120b17cd",
    ),
    "block-arrays": (
        lambda: random_nonparametric_mixture(trial_rng(55, 1), 4, 4, block_dims=[2, 1, 1, 1]),
        [np.array([[0.2, 0.4], [0.5, 0.5], [0.9, 0.1]]), np.array([0.25, 0.75]),
         np.array([[0.5]]), 0.4], 5,
        "71a8fef2099efe6f96960a5958d1c78cf5bcc1c819e3ac8392835ac368e38e1c",
    ),
    "infinite-and-bare": (
        lambda: random_nonparametric_mixture(trial_rng(55, 2), 3, 5),
        [[-np.inf, 0.5, np.inf], 0.3, (0.1, 0.2), [[0.7]], None], 2,
        "eddfceaf4f26801d469e8c4cf8d8a89ad9cce08ce48d120d64820269c4199cc7",
    ),
    "ragged-knots-mixed-blocks": (
        ragged_mixture,
        [[-np.inf, 0.25, 1.5], [(0.3, 0.7), (-1.0, np.inf)], None, [0.5, 0.9]], 3,
        "5fe407b133150c436d314052c05b42259121dc9ba2e5cec3648d182a84db549c",
    ),
    # the benchmark's frontier size: every variate starts at rank 3 of 8 and
    # takes five greedy steps
    "frontier-greedy": (
        lambda: random_nonparametric_mixture(trial_rng(57, 0), 8, 4, n_knots=16),
        [[1 / 3, 2 / 3]] * 4, 4,
        "389497fa7e7228c108741c516d3d32760bb3b2becbfe0c8788686f2d794f2df6",
    ),
}


@pytest.mark.parametrize("loaded", [False, True], ids=["built", "loaded"])
def test_components_are_views_of_the_family_stacks(loaded):
    # the mixture holds one copy of each table: its components are read-only
    # row views of its families' stacks, cut to their own shapes
    mixture = ragged_mixture()
    if loaded:
        mixture = model_from_dict(model_to_dict(mixture))
    for j in range(mixture.p):
        family = mixture._families[j]
        for i, comp in enumerate(mixture.variate(j)):
            assert comp is mixture.components[i][j]
            row = family.row + i
            assert comp.values.tobytes() == family.values[row][
                tuple(map(slice, comp.values.shape))].tobytes()
            assert np.shares_memory(comp.values, family.values)
            for knots, stack in zip(comp.knots, family.knots):
                assert knots.tobytes() == stack[row, : knots.size].tobytes()
                assert np.shares_memory(knots, stack)
            assert not any(a.flags.writeable for a in (*comp.knots, comp.values))


@pytest.mark.parametrize("case", list(GOLDEN_RECOVERIES))
def test_recovery_output_is_golden(case):
    mixture, queries, seed, digest = GOLDEN_RECOVERIES[case]
    assert output_digest(*recover_mixture(mixture(), queries, seed=seed)) == digest


@pytest.mark.parametrize("case", list(GOLDEN_RECOVERIES))
def test_component_cdfs_equal_pointwise_evaluation(case):
    # the golden queries hold bare scalars, tuples, arrays, None and +-inf
    mixture, queries, _, _ = GOLDEN_RECOVERIES[case]
    mixture = mixture()
    tables = component_cdfs(mixture, queries)
    for j, (table, b) in enumerate(zip(tables, mixture.block_dims)):
        points = nonparametric._normalize_points(queries[j], b)
        expected = np.array(
            [[comp(tuple(pt)) for pt in points] for comp in mixture.variate(j)]
        ).reshape(mixture.r, len(points))
        assert table.shape == expected.shape
        assert table.tobytes() == expected.tobytes()



@pytest.mark.parametrize("queries", [
    [None, [(0.2, 0.4), (-np.inf, 0.7), (0.9, np.inf)], [0.1, 0.5, 2.0, -1.0]],
    [[0.3, np.inf], None, [0.1, 0.5, 0.5]],  # no point of block dimension 2
])
def test_component_cdfs_with_empty_query_sets(queries):
    # the points of each block dimension share one stack; a variate without
    # points, or a block dimension without any, gets an empty table
    mixture = random_nonparametric_mixture(trial_rng(58, 0), 3, 3, block_dims=[1, 2, 1])
    tables = component_cdfs(mixture, queries)
    for j, (table, b) in enumerate(zip(tables, mixture.block_dims)):
        points = nonparametric._normalize_points(queries[j], b)
        expected = np.array(
            [[comp(tuple(pt)) for pt in points] for comp in mixture.variate(j)]
        ).reshape(mixture.r, len(points))
        assert table.shape == expected.shape
        assert table.tobytes() == expected.tobytes()

def test_ragged_cuts_report_is_pinned(tmp_path, capsys):
    # the bytes of the per-component code; one stacked pass must not move a cut
    path = tmp_path / "ragged.json"
    save_model(ragged_mixture(), path)
    assert cli.run(["nonparam-cuts", "--model", str(path), "--json"]) == 0
    assert capsys.readouterr().out == (
        '{"command": "nonparam-cuts", "errors": [], "result": {"cuts": {'
        '"variate_0": [[0.4067830001855891, 0.72612604996354]], '
        '"variate_1": [[0.832830161990803], [0.8382965834088321]], '
        '"variate_2": [[0.627186546872669, 0.8502380653214595]], '
        '"variate_3": [[0.45640013282174885, 0.9917861667189435]]}, "p": 4, "r": 3}}\n'
    )


def test_queries_at_cuts_read_back_exactly():
    # bins (-inf, 0.2], (0.2, 0.5], (0.5, inf) x (-inf, 0.5], (0.5, inf): the
    # CDF at cut (x, y) is the sum of the bins below and left of it
    cuts = CutPointSet(cuts=(np.array([0.2, 0.5]), np.array([0.5])))
    rows = np.array([[0.5, 0.25, 0.125, 0.0625, 0.03125, 0.03125], np.full(6, 0.125)])
    queries = np.array([(0.2, 0.5), (0.5, 0.5), (0.2, 0.5)])
    (table,) = nonparametric._cdf_at_queries([rows], [cuts], [queries])
    assert table.tolist() == [[0.5, 0.625, 0.5], [0.125, 0.25, 0.125]]


def test_cut_point_set_validation():
    with pytest.raises(ValueError):
        CutPointSet(cuts=(np.array([0.5, 0.5]),))
    with pytest.raises(InputError, match="^cut array 0 contains NaN$"):
        CutPointSet(cuts=(np.array([np.nan]),))
    cs = CutPointSet(cuts=(np.array([0.2, 0.7]), np.array([0.5])))
    assert cs.bins_per_axis == (3, 2)


_U = CdfComponent.uniform(0.0, 1.0)
_U2 = CdfComponent.from_product([_U, _U])


def _mixture(r, p):
    return NonparametricMixture(pi=np.full(r, 1 / r), components=((_U,) * p,) * r)


#: two classes over three variates, the last a 2-D block
_BLOCK_MIXTURE = NonparametricMixture(pi=np.full(2, 0.5), components=((_U, _U, _U2),) * 2)


#: two classes whose variate 1 is one CDF twice, so no cut separates them
_V = CdfComponent.uniform(0.0, 2.0)
_DEPENDENT_MIXTURE = NonparametricMixture(
    pi=np.full(2, 0.5), components=((_U, _U, _U), (_V, _U, _V))
)
_DEPENDENT = (
    "cut selection reached rank {rank} of r={r}: no candidate leaves the span of the "
    "current cuts, the component family is linearly dependent"
)


def _block_queries(last):
    return lambda: recover_mixture(_BLOCK_MIXTURE, [[0.5], [0.5], last])


def _random_queries(queries):
    """Recovery of a two-class, three-variate random mixture at ``queries``."""
    return lambda: recover_mixture(random_nonparametric_mixture(trial_rng(56, 0), 2, 3), queries)


#: (call, error, exact message) for each input refusal of the module
NONPARAMETRIC_REFUSALS = {
    "table-axes": (
        lambda: CdfComponent([0, 1], [[0, 1]]),
        InputError, "values has 2 axes for 1 knot arrays",
    ),
    "knots-short": (
        lambda: CdfComponent([[0, 1], [0]], np.zeros((2, 1))),
        InputError, "knot array 1 must be 1-D with at least 2 entries",
    ),
    "knots-increasing": (
        lambda: CdfComponent([0, 0], [0, 1]),
        InputError, "knot array 0 must be finite and strictly increasing",
    ),
    "table-length": (
        lambda: CdfComponent([0, 1], [0, 0.5, 1]),
        InputError, "values axis 0 has length 3, expected 2",
    ),
    "table-finite": (
        lambda: CdfComponent([0, 1], [0, np.nan]), InputError, "CDF values must be finite",
    ),
    "grid-axes": (
        lambda: _U.evaluate_grid([[0.5], [0.5]]),
        InputError, "need 1 coordinate arrays, got 2",
    ),
    "point-coordinates": (
        lambda: _U((0.5, 0.5)), InputError, "point has 2 coordinates, expected 1",
    ),
    "product-of-blocks": (
        lambda: CdfComponent.from_product([_U2]),
        InputError, "from_product expects one-dimensional parts",
    ),
    "mixture-rows": (
        lambda: NonparametricMixture(pi=np.full(2, 0.5), components=((_U,) * 3,)),
        InputError, "1 component rows for 2 classes",
    ),
    "mixture-variates": (
        lambda: NonparametricMixture(pi=np.full(2, 0.5), components=((_U, _U), (_U,))),
        InputError, "all classes must have the same variates",
    ),
    "mixture-block-dims": (
        lambda: NonparametricMixture(pi=np.full(2, 0.5), components=((_U,), (_U2,))),
        InputError, "variate 0 has inconsistent block dimensions {1, 2}",
    ),
    "mandatory-coordinates": (
        lambda: select_with_queries([_U, _U], [(0.5, 0.5)]),
        InputError, "point (0.5, 0.5) has 2 coordinates, expected 1",
    ),
    "no-components": (
        lambda: select_cut_points([]), InputError, "need at least one component",
    ),
    "binning-no-components": (
        lambda: binned_conditional_matrix([], [[0.5]]),
        InputError, "need at least one component",
    ),
    "mixed-block-dims": (
        lambda: select_cut_points([_U, _U2]),
        InputError, "components must share the block dimension",
    ),
    "family-dependent": (
        lambda: select_cut_points([_U, _U]),
        RankDeficientError, _DEPENDENT.format(rank=1, r=2),
    ),
    "variate-dependent": (
        lambda: select_mixture_cuts(_DEPENDENT_MIXTURE),
        RankDeficientError, "variate 1: " + _DEPENDENT.format(rank=1, r=2),
    ),
    "recovery-variate-dependent": (
        lambda: recover_mixture(_DEPENDENT_MIXTURE, [[0.5]] * 3),
        RankDeficientError, "variate 1: " + _DEPENDENT.format(rank=1, r=2),
    ),
    "recovery-tol-nan": (
        # refused before cut selection, which would refuse the dependent variate
        lambda: recover_mixture(_DEPENDENT_MIXTURE, [[0.5]] * 3, tol=np.nan),
        InputError, "tol must be a number >= 0, got nan",
    ),
    "variate-index-fraction": (
        lambda: _mixture(2, 3).variate(0.5),
        InputError, "variate index must be a whole number >= 0, got 0.5",
    ),
    "cuts-repeated-infinity": (
        lambda: CutPointSet(cuts=(np.array([np.inf, np.inf]),)),
        InputError, "cut array 0 must be strictly increasing",
    ),
    "cuts-block-dim": (
        lambda: binned_conditional_matrix([_U2], [[0.5]]),
        InputError, "components and cuts disagree on the block dimension",
    ),
    "variate-index-negative": (
        lambda: bivariate_rank(_mixture(2, 3), -1, 0, [0.5], [0.5]),
        InputError, "variate index must be a whole number >= 0, got -1",
    ),
    "variate-index-past-end": (
        lambda: bivariate_rank(_mixture(2, 3), 0, 3, [0.5], [0.5]),
        InputError, "variate index 3 is out of range for p=3",
    ),
    "too-few-bins": (
        lambda: bivariate_rank(_mixture(3, 2), 0, 1, [0.5], [0.25, 0.5]),
        InputError, "need at least r bins on both variates",
    ),
    "two-variates": (
        lambda: recover_mixture(_mixture(2, 2), [[0.5], [0.5]]),
        InputError, "need at least 3 variates, got p=2",
    ),
    "queries-per-variate": (
        lambda: recover_mixture(_mixture(2, 3), [[0.5]]),
        InputError, "query_points must have one entry per variate (3)",
    ),
    "cdfs-per-variate": (
        lambda: component_cdfs(_mixture(2, 3), [[0.5]]),
        InputError, "query_points must have one entry per variate (3)",
    ),
    "query-coordinates": (
        _block_queries([(0.3, 0.5, 0.7)]),
        InputError, "point (0.3, 0.5, 0.7) has 3 coordinates, expected 2",
    ),
    "query-ragged": (
        _block_queries([(0.3, 0.5), (0.6,)]),
        InputError, "point (0.6,) has 1 coordinates, expected 2",
    ),
    "query-ragged-scalars": (
        lambda: recover_mixture(_mixture(2, 3), [[[1, 2], [3]], [0.5], [0.5]]),
        InputError, "point [1, 2] has 2 coordinates, expected 1",
    ),
    "query-block-scalar": (
        _block_queries(0.5), InputError, "point 0.5 has 1 coordinates, expected 2",
    ),
    "query-3d": (
        _block_queries([[[0.3, 0.5]], [[0.6, 0.7]]]),
        InputError, "point [[0.3, 0.5]] has 1 coordinates, expected 2",
    ),
    "query-nan": (
        _block_queries(np.array([[0.3, 0.5], [0.6, np.nan]])),
        InputError, "point [0.6 nan] has a NaN coordinate",
    ),
    "query-block-nested": (
        _block_queries([[[0.3, 0.5], [0.6, 0.7]]]),
        InputError, "point [[0.3, 0.5], [0.6, 0.7]] has a coordinate that is not a number",
    ),
    "query-scalar-nested": (
        lambda: recover_mixture(_mixture(2, 3), [[[[0.5]]], [0.5], [0.5]]),
        InputError, "point [[0.5]] has a coordinate that is not a number",
    ),
    "binned-tensor-at-queries-cap": (
        # three distinct query points give four bins per variate before any
        # cut is selected
        _random_queries([[0.2, 0.5, 0.7]] * 3),
        InputError, "binned tensor at the query points alone has 64 entries, cap is 15",
        (nonparametric, "_evaluate"),
    ),
    "binned-tensor-cap": (
        # a point past the knots adds nothing to the rank, so each variate
        # selects one more cut: 3 bins each
        _random_queries([[5.0]] * 3),
        InputError, "binned tensor has 27 entries, cap is 15",
        (nonparametric, "_triple_product"),
    ),
    "sampler-fractional-knots": (
        lambda: random_nonparametric_mixture(0, 2, 3, n_knots=4.5),
        InputError, "n_knots must be a whole number >= 2, got 4.5",
    ),
    "sampler-one-knot": (
        # one knot used to be drawn as two, silently
        lambda: random_piecewise_cdf(0, 1),
        InputError, "n_knots must be a whole number >= 2, got 1",
    ),
    "sampler-huge-knots": (
        # refused before the draw, not by numpy's dimension limit
        lambda: random_piecewise_cdf(0, 10**400),
        InputError, "knot array has at least 2^1328 entries, cap is 16777216",
    ),
    "sampler-empty-block": (
        lambda: random_nonparametric_mixture(0, 2, 3, block_dims=[1, 1, 0]),
        InputError, "block_dims[2] must be a whole number >= 1, got 0",
    ),
    "sampler-block-count": (
        lambda: random_nonparametric_mixture(0, 2, 3, block_dims=[1, 1]),
        InputError, "block_dims must have 3 entries, got 2",
    ),
}


@pytest.mark.parametrize("case", list(NONPARAMETRIC_REFUSALS))
def test_refusal_is_named(case, refuses):
    refuses(*NONPARAMETRIC_REFUSALS[case])
