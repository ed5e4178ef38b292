import hashlib
import importlib
import itertools
import math
import pkgutil
import re
import time
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import latentid
from latentid.errors import InputError, NotKhatriRaoError
from latentid import hmm, latent_class, random_graph, sampling, tensor_core
from latentid.tensor_core import (
    _check_entries,
    as_matrix,
    check_distribution_tensor,
    check_power_entries,
    check_probability_vector,
    clump_tensor,
    khatri_rao,
    kruskal_rank,
    numerical_rank,
    rank_from_singular_values,
    triple_product,
    unclump,
)


def first_primes(n: int) -> list[int]:
    """The first ``n`` prime numbers."""
    primes: list[int] = []
    candidate = 2
    while len(primes) < n:
        if all(candidate % p for p in primes):
            primes.append(candidate)
        candidate += 1
    return primes


def array_to_json_dict(arr) -> dict:
    """Serialize an array as ``{"dims": [...], "data": [...]}`` (row-major)."""
    arr = np.asarray(arr, dtype=float)
    return {"dims": list(arr.shape), "data": arr.ravel(order="C").tolist()}


def array_from_json_dict(obj: dict) -> np.ndarray:
    """Inverse of :func:`array_to_json_dict`."""
    return np.asarray(obj["data"], dtype=float).reshape(obj["dims"])


def random_stochastic(rng, rows, cols):
    M = rng.uniform(0.0, 1.0, size=(rows, cols))
    return M / M.sum(axis=1, keepdims=True)


def upward_kruskal_rank(M) -> int:
    """Kruskal rank by enumerating row subsets upward, one SVD each."""
    rank = numerical_rank(M)
    for size in range(1, rank + 1):
        for subset in itertools.combinations(range(M.shape[0]), size):
            if numerical_rank(M[list(subset)]) < size:
                return size - 1
    return rank


def kruskal_test_matrices(count: int, shape: str = "small"):
    """Seeded generic and degenerate matrices, 2-10 rows and 1-8 columns; with
    shape ``tall``, 11-12 rows and more than half as many columns, but fewer;
    with shape ``long``, 21-24 rows and 1-4 columns."""
    rng = np.random.default_rng(11)
    kinds = ["generic", "duplicate", "mixture", "zero", "rank2", "near"]
    for t in range(count):
        if shape == "tall":
            rows = int(rng.integers(11, 13))
            cols = int(rng.integers(rows // 2 + 1, rows))
        elif shape == "long":
            rows, cols = int(rng.integers(21, 25)), int(rng.integers(1, 5))
        else:
            rows, cols = int(rng.integers(2, 11)), int(rng.integers(1, 9))
        M = random_stochastic(rng, rows, cols)
        kind = kinds[t % len(kinds)]
        i, j = rng.choice(rows, size=2, replace=False)
        if kind == "duplicate":
            M[i] = M[j]
        elif kind == "mixture":
            k = int(rng.integers(1, rows))
            M[-1] = rng.dirichlet(np.ones(k)) @ M[:k]
        elif kind == "zero":
            M[i] = 0.0
        elif kind == "rank2":
            M = random_stochastic(rng, rows, 2) @ random_stochastic(rng, 2, cols)
        elif kind == "near":  # rows 1e-2 .. 1e-13 apart, around the cutoff
            eps = 10.0 ** -rng.uniform(2.0, 13.0)
            M[i] = (1.0 - eps) * M[j] + eps * M[i]
        yield kind, M


def screen_test_matrices():
    """Matrices whose square row subsets sit near the rank cutoff or at the
    edges of floating point, where the determinant screen must defer to the
    SVD rule: at 1e-120 a plain 4 x 4 determinant underflows, at 1e-160 so
    does the squared Frobenius norm."""
    rng = np.random.default_rng(12)
    for eps in np.logspace(-16, -2, 29):
        M = rng.uniform(size=(7, 4))
        M[-1] = rng.uniform(size=3) @ M[:3] + eps * rng.standard_normal(4)
        yield "combination", M
        M = rng.uniform(size=(7, 4))
        M[2] = M[5] * (1.0 + eps * rng.standard_normal(4))
        yield "near-duplicate", M
    for _ in range(10):
        yield "row-scaled", rng.uniform(size=(7, 4)) * 10.0 ** rng.uniform(-8, 8, (7, 1))
    for cols in (2, 3, 4):
        M = rng.uniform(size=(cols + 3, cols))
        M[:cols] = 0.0
        yield "zero-rows", M
    for scale in (1e-120, 1e-160, 1e120):
        yield "scaled", rng.uniform(size=(7, 4)) * scale
    M = rng.uniform(size=(6, 2))
    M[[1, 4]] = 0.0
    yield "zero-rows", M
    # the last column nears the span of the others, so the matrix's own rank,
    # read off the one full SVD of a tall matrix, crosses the cutoff; the
    # square subsets of a 7 x 4 matrix are screened through their
    # complements, those of a 12 x 4 matrix directly
    for eps in np.logspace(-16, -2, 29):
        for rows in (7, 12):
            M = rng.uniform(size=(rows, 4))
            M[:, -1] = M[:, :3] @ rng.uniform(size=3) + eps * rng.standard_normal(rows)
            yield "column-combination", M


class TestKhatriRao:
    def test_binary_definition(self):
        A = np.array([[1.0, 2.0], [3.0, 4.0]])
        B = np.array([[5.0, 6.0], [7.0, 8.0]])
        expected = np.array([[5.0, 6.0, 10.0, 12.0], [21.0, 24.0, 28.0, 32.0]])
        assert np.array_equal(khatri_rao([A, B]), expected)

    def test_single_factor_is_identity(self):
        A = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(khatri_rao([A]), A)

    def test_stochastic_rows_stay_stochastic(self):
        A1 = np.array([[0.5, 0.5]])
        A2 = np.array([[0.3, 0.7]])
        out = khatri_rao([A1, A2])
        assert np.allclose(out, [[0.15, 0.35, 0.15, 0.35]])
        assert np.isclose(out.sum(), 1.0)

    def test_stochastic_invariant_sampled(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            mats = [random_stochastic(rng, 4, rng.integers(2, 5)) for _ in range(3)]
            out = khatri_rao(mats)
            assert np.allclose(out.sum(axis=1), 1.0)
            assert out.min() >= 0.0

    def test_errors(self):
        with pytest.raises(InputError, match="^khatri_rao requires at least one factor$"):
            khatri_rao([])
        with pytest.raises(InputError, match="^factor 0 has 2 rows but factor 1 has 3$"):
            khatri_rao([np.ones((2, 2)), np.ones((3, 2))])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("others", [0.0, 1.0], ids=["zeros", "ones"])
    def test_non_finite_factor_is_named(self, bad, others):
        # against zero entries inf gives NaN, so the bad entry still shows
        factors = [np.full((2, 2), others), np.full((2, 3), others), np.ones((2, 2))]
        factors[1][1, 2] = bad
        factors[2][0, 0] = bad
        with pytest.raises(InputError) as info:
            khatri_rao(factors)
        assert str(info.value) == "factor 1 contains non-finite entries"

    def test_finite_overflow_is_returned(self):
        with pytest.warns(RuntimeWarning, match="overflow"):
            out = khatri_rao([np.full((1, 1), 1e200), np.full((1, 1), 1e200)])
        assert out[0, 0] == np.inf


class TestTripleProduct:
    def test_identity_factors(self):
        I = np.eye(2)
        T = triple_product(I, I, I)
        expected = np.zeros((2, 2, 2))
        expected[0, 0, 0] = 1.0
        expected[1, 1, 1] = 1.0
        assert np.array_equal(T, expected)

    def test_rank_one(self):
        M1 = np.array([[0.5, 0.5]])
        M2 = np.array([[0.3, 0.7]])
        M3 = np.array([[1.0, 0.0]])
        T = triple_product(M1, M2, M3)
        assert np.isclose(T[0, 0, 0], 0.15)
        assert np.isclose(T[1, 1, 0], 0.35)
        assert np.allclose(T[:, :, 1], 0.0)

    def test_against_triple_loop_oracle(self):
        rng = np.random.default_rng(1)
        mats = [rng.uniform(size=(3, 3)) for _ in range(3)]
        T = triple_product(*mats)
        oracle = np.zeros((3, 3, 3))
        for u in range(3):
            for v in range(3):
                for w in range(3):
                    for i in range(3):
                        oracle[u, v, w] += (
                            mats[0][i, u] * mats[1][i, v] * mats[2][i, w]
                        )
        assert np.abs(T - oracle).max() <= 1e-14

    def test_permutation_and_scale_invariance(self):
        rng = np.random.default_rng(2)
        mats = [rng.uniform(size=(3, 4)) for _ in range(3)]
        T = triple_product(*mats)
        perm = [2, 0, 1]
        assert np.allclose(T, triple_product(*(M[perm] for M in mats)))
        # per-row scales with product 1
        s1 = rng.uniform(0.5, 2.0, size=3)
        s2 = rng.uniform(0.5, 2.0, size=3)
        s3 = 1.0 / (s1 * s2)
        scaled = triple_product(
            mats[0] * s1[:, None], mats[1] * s2[:, None], mats[2] * s3[:, None]
        )
        assert np.abs(T - scaled).max() <= 1e-12

    def test_mismatched_rows(self):
        with pytest.raises(InputError, match="^row counts differ: 2, 3, 2$"):
            triple_product(np.ones((2, 2)), np.ones((3, 2)), np.ones((2, 2)))


class TestNumericalRank:
    def test_identity(self):
        assert numerical_rank(np.eye(3)) == 3

    def test_proportional_rows(self):
        assert numerical_rank(np.array([[1.0, 2.0], [2.0, 4.0]])) == 1

    def test_zero_matrix(self):
        assert numerical_rank(np.zeros((3, 4))) == 0

    def test_non_finite(self):
        with pytest.raises(InputError, match="^matrix contains non-finite entries$"):
            numerical_rank(np.array([[1.0, np.nan]]))

    def test_one_cutoff_read_at_call_time(self, monkeypatch):
        M = np.diag([1.0, 1e-9])
        assert numerical_rank(M) == kruskal_rank(M) == 2
        monkeypatch.setattr(tensor_core, "RANK_TOL", 1e-8)
        assert numerical_rank(M) == kruskal_rank(M) == 1

    def test_stacked_singular_values(self):
        # one rank per row of a stack, a Python int for a single matrix; the
        # cutoff scales with the longer side, so 5e-9 < RANK_TOL * 1.0 * 100
        s = np.array([[1.0, 0.5, 5e-9], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        ranks = rank_from_singular_values(s, (3, 100))
        assert ranks.tolist() == [2, 1, 0]
        singles = [rank_from_singular_values(row, (3, 100)) for row in s]
        assert singles == [2, 1, 0]
        assert all(type(rank) is int for rank in singles)


    @given(
        rows=st.integers(1, 6), width=st.integers(1, 6), shape=st.tuples(
            st.integers(1, 50), st.integers(1, 50)), data=st.data(),
    )
    def test_one_matrix_is_ranked_as_its_row_of_a_stack(self, rows, width, shape, data):
        # the scalar path for one matrix gives the stacked rule's rank on
        # random, zero, tied and NaN values alike
        value = st.one_of(
            st.floats(0.0, 10.0), st.just(0.0), st.just(1.0), st.just(1e-9), st.just(np.nan)
        )
        s = np.array(data.draw(st.lists(
            st.lists(value, min_size=width, max_size=width), min_size=rows, max_size=rows)))
        ranks = rank_from_singular_values(s, shape)
        singles = [rank_from_singular_values(row, shape) for row in s]
        assert singles == ranks.tolist()
        assert all(type(rank) is int for rank in singles)

    def test_no_values_have_rank_zero(self):
        assert rank_from_singular_values(np.zeros(0), (0, 3)) == 0
        assert rank_from_singular_values(np.zeros((2, 0)), (0, 3)).tolist() == [0, 0]


def test_distribution_sum_overflow_warns_only_of_the_sum():
    # finite entries whose sum overflows: the sum check refuses them, and
    # numpy's overflow of that sum is the only warning, as it always was
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        with pytest.raises(InputError, match=re.escape("tensor must sum to 1 (got inf)")):
            check_distribution_tensor(np.full((2, 2), 1e308))
    assert seen and {(w.category, str(w.message)) for w in seen} == {
        (RuntimeWarning, "overflow encountered in reduce")}


def test_empty_tensor_is_refused_by_its_minimum():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^zero-size array to reduction operation minimum"):
            check_distribution_tensor(np.zeros((0, 2, 2)))


@given(st.integers(0, 10**6), st.integers(1, 4), st.lists(st.integers(2, 5), min_size=1, max_size=4))
def test_distribution_check_returns_the_array_and_its_largest_entry(seed, r, kappas):
    T = latent_class.joint_distribution(sampling.random_latent_class(seed, r, kappas))
    checked, high = check_distribution_tensor(T.tolist())
    assert checked.dtype == float and checked.tobytes() == T.tobytes()
    assert high == T.max()


class TestKruskalRank:
    def test_three_vectors_in_dim_two(self):
        assert kruskal_rank(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])) == 2

    def test_duplicated_rows(self):
        assert kruskal_rank(np.array([[1.0, 0.0], [1.0, 0.0]])) == 1

    def test_zero_row(self):
        assert kruskal_rank(np.array([[1.0, 2.0], [0.0, 0.0], [3.0, 4.0]])) == 0

    def test_more_than_twenty_rows(self):
        # 21 rows in dimension 20 cannot be full row rank, so the subsets are
        # enumerated: every 20 of them are independent
        M = np.vstack([np.eye(20), np.ones((1, 20))])
        assert kruskal_rank(M) == 20

    def test_agrees_with_upward_enumeration(self):
        for shape, count, least_below_rank in [("small", 600, 100), ("long", 24, 8)]:
            searched, below_rank = set(), 0
            for t, (kind, M) in enumerate(kruskal_test_matrices(count, shape)):
                expected = upward_kruskal_rank(M)
                assert kruskal_rank(M) == expected, (t, kind, M.shape)
                rank = numerical_rank(M)
                if rank < M.shape[0]:
                    searched.add(kind)
                below_rank += expected < rank
            # every kind needs the subset search, and many answers are not the rank
            assert len(searched) == 6, shape
            assert below_rank >= least_below_rank, shape

    def test_tall_agrees_with_upward_enumeration(self):
        # more columns than half the rows: square subsets are screened through
        # the blocks of their complements
        searched, below_rank = set(), 0
        for t, (kind, M) in enumerate(kruskal_test_matrices(48, "tall")):
            expected = upward_kruskal_rank(M)
            assert kruskal_rank(M) == expected, (t, kind, M.shape)
            rank = numerical_rank(M)
            if rank < M.shape[0]:
                searched.add(kind)
            below_rank += expected < rank
        assert len(searched) == 6
        assert below_rank >= 24

    def test_square_subsets_screened_by_determinant(self, monkeypatch):
        # 12 x 8: one full SVD decides the rank and gives the orthogonal
        # factor U, then one cofactor expansion of its 12 x 4 block U[:, 8:]
        # gives the determinants of the 495 4 x 4 blocks U[T, 8:], T the
        # complement of an 8-row subset, and accepts every one; no LU runs.
        # With a zero row, the 330 subsets holding it go on to the SVD, and
        # the upward search stops at the first rectangular size, 1.
        M = random_stochastic(np.random.default_rng(5), 12, 8)
        svds, expanded = [], []
        svd, minors = np.linalg.svd, tensor_core._maximal_minors

        def counting_svd(a, *args, **kwargs):
            svds.append((np.shape(a), kwargs.get("compute_uv", True)))
            return svd(a, *args, **kwargs)

        def counting_minors(W):
            expanded.append(W.shape)
            values, subsets = minors(W)
            assert values.shape == (495,) and subsets.shape == (495, 4)
            return values, subsets

        def no_lu(*args, **kwargs):
            raise AssertionError("the screen ran an LU")

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        monkeypatch.setattr(tensor_core, "_maximal_minors", counting_minors)
        monkeypatch.setattr(np.linalg, "slogdet", no_lu)
        monkeypatch.setattr(np.linalg, "det", no_lu)
        assert kruskal_rank(M) == 8
        assert svds == [((12, 8), True)]
        assert expanded == [(12, 4)]
        svds.clear()
        expanded.clear()
        M[3] = 0.0
        assert kruskal_rank(M) == 0
        assert svds == [((12, 8), True)] + [
            (shape, False) for shape in [(330, 8, 8), (12, 1, 8)]
        ]
        assert expanded == [(12, 4)]

    @staticmethod
    def clear_subset_tables():
        tensor_core._subsets.cache_clear()
        tensor_core._expansion.cache_clear()

    @staticmethod
    def table_counts():
        """(misses, hits, currsize) of the subset indexes and the expansion tables."""
        return [
            (info.misses, info.hits, info.currsize)
            for info in (tensor_core._subsets.cache_info(), tensor_core._expansion.cache_info())
        ]

    def test_subset_indexes_are_built_once(self):
        # each small (rows, k) index is built once per process, read-only and
        # in lexicographic order; one past the size bound is built every time
        self.clear_subset_tables()
        index = tensor_core._subsets(6, 3)
        assert index.tolist() == [list(s) for s in itertools.combinations(range(6), 3)]
        assert not index.flags.writeable
        assert tensor_core._subsets(6, 3) is index
        rows = 20  # C(20, 6) * 6 = 232560 entries
        assert math.comb(rows, 6) * 6 > tensor_core._SUBSET_ENTRIES
        M = np.vstack([np.eye(6), np.ones((rows - 6, 6))])
        for _ in range(2):
            assert kruskal_rank(M) == 1
        # (6, 3), then (20, 1) and (20, 2) of the upward search, built once
        # each; the screen's expansion of the 20 x 6 factor bypasses its cache
        assert self.table_counts() == [(3, 3, 3), (0, 0, 0)]
        # a 7 x 4 matrix is screened on a 7 x 3 factor, whose expansion is
        # kept, then searched upward on (7, 1) and (7, 2)
        M = np.vstack([np.eye(4), np.ones((3, 4))])
        for _ in range(2):
            assert kruskal_rank(M) == 1
        assert self.table_counts() == [(5, 5, 5), (1, 1, 1)]
        levels = tensor_core._expansion(7, 3)
        assert tensor_core._expansion(7, 3) is levels
        assert not any(a.flags.writeable for level in levels for a in level)

    def test_expansion_levels_locate_each_smaller_subset(self):
        for rows, k in [(2, 2), (7, 3), (9, 9), (12, 4), (18, 9)]:
            smaller = np.arange(rows)[:, None]
            levels = tensor_core._expansion_levels(rows, k)
            for j, (subsets, positions, signs) in enumerate(levels, start=2):
                assert signs.tolist() == [(-1.0) ** (t + j) for t in range(1, j + 1)]
                combos = itertools.combinations(range(rows), j)
                assert subsets.tolist() == [list(s) for s in combos]
                for t in range(j):
                    assert np.array_equal(smaller[positions[:, t]], np.delete(subsets, t, 1))
                smaller = subsets
            assert j == k

    def test_views_of_one_certificate_share_a_subset_index(self):
        # the three 12 x 8 views of a generic 12-class model are screened on
        # the 4-row complements of their 8-row subsets: the expansion tables
        # of their 12 x 4 blocks are built once, and no subset index at all
        model = sampling.random_latent_class(sampling.trial_rng(61, 0), 12, (8, 8, 8))
        self.clear_subset_tables()
        assert latent_class.kruskal_certificate(model).kruskal_ranks == (8, 8, 8)
        assert self.table_counts() == [(0, 0, 0), (1, 2, 1)]

    def test_screen_agrees_with_svd_rule(self):
        # the determinant screen only ever accepts; near the cutoff, with
        # zero subsets and where det underflows, answers are the SVD rule's
        outcomes, own_ranks = set(), set()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for t, (kind, M) in enumerate(screen_test_matrices()):
                expected = upward_kruskal_rank(M)
                assert kruskal_rank(M) == expected, (t, kind)
                if kind == "combination":
                    outcomes.add(expected)
                if kind == "column-combination":
                    own_ranks.add(numerical_rank(M))
        # the sweep crosses the cutoff: Kruskal rank 3 while the combined row
        # lies within it of the span, 4 beyond; so does the combined column
        assert outcomes == {3, 4}
        assert own_ranks == {3, 4}

    def test_at_most_rank(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            M = rng.uniform(size=(rng.integers(2, 6), rng.integers(2, 6)))
            kr = kruskal_rank(M)
            nr = numerical_rank(M)
            assert kr <= nr <= min(M.shape)


@settings(deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(3, 14), data=st.data())
def test_orthogonal_screen_bounds_square_subsets(seed, rows, data):
    """On either side, ``|det W[T]| / kappa`` never exceeds ``sigma_n /
    sigma_1`` of the square subset it stands for."""
    cols = data.draw(st.integers(1, rows - 1), label="cols")
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((rows, cols)) * 10.0 ** rng.uniform(-3, 3, (rows, 1))
    assume(numerical_rank(M) == cols)
    W, log_floor = tensor_core._orthogonal_screen(*np.linalg.svd(M)[:2])
    assert W.shape == (rows, min(cols, rows - cols))
    order = rng.permuted(np.tile(np.arange(rows), (32, 1)), axis=1)
    S = np.sort(order[:, :cols], axis=1)
    T = S if W.shape[1] == cols else np.sort(order[:, cols:], axis=1)
    cutoff = tensor_core._DET_SCREEN_MARGIN * tensor_core.RANK_TOL * cols
    log_bound = np.linalg.slogdet(W[T]).logabsdet - log_floor + math.log(cutoff)
    s = np.linalg.svd(M[S], compute_uv=False)
    assert np.all(log_bound <= np.log(s[:, -1] / s[:, 0]) + 1e-9)


@settings(deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 9),
    left=st.booleans(),
    closeness=st.floats(2.0, 16.0),
    data=st.data(),
)
def test_expanded_minors_match_determinants(seed, k, left, closeness, data):
    """Every maximal minor of a ``rows x k`` block of an orthogonal factor,
    ``U[:, :n]`` or ``U[:, n:]`` of a tall ``M`` with one row moved near the
    span of the others, equals its block's determinant within ``(k + 1) *
    sqrt(k!) * eps``, the error bound stated at ``_DET_SCREEN_MARGIN``."""
    rows = data.draw(st.integers(max(3, k + 1), 18), label="rows")
    cols = k if left else rows - k
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((rows, cols)) * 10.0 ** rng.uniform(-3, 3, (rows, 1))
    i = rng.integers(rows)
    near = rng.standard_normal(rows - 1) @ np.delete(M, i, axis=0) / rows
    M[i] = near + 10.0**-closeness * rng.standard_normal(cols)
    U = np.linalg.svd(M)[0]
    W = U[:, :cols] if left else U[:, cols:]
    minors, subsets = tensor_core._maximal_minors(W)
    assert subsets.tolist() == [list(s) for s in itertools.combinations(range(rows), k)]
    bound = (k + 1) * math.sqrt(math.factorial(k)) * np.finfo(float).eps
    assert np.abs(minors - np.linalg.det(W[subsets])).max() <= bound

#: the Kruskal ranks of :func:`golden_kruskal_views`, joined by commas
GOLDEN_VIEW_COUNT = 496
GOLDEN_RANK_DIGEST = "5ddc0e7e942093626b7a715832261a4efa7a7c06c11392449f79adf65451a852"

def golden_kruskal_views():
    """Seeded views whose Kruskal ranks are pinned: the views of the
    ``certify-cli`` benchmark's latent-class and HMM models (seeds 1-5, its
    per-instance generators), the tall and screen test matrices."""
    for seed in range(1, 6):
        for s, (r, kappas) in enumerate([(3, (3, 3, 3)), (6, (3, 4, 5)), (10, (4, 8, 8)), (12, (8, 8, 8))]):
            for j in range(3):
                rng = np.random.default_rng([seed, s, j])
                yield from sampling.random_latent_class(rng, r, kappas).emissions
        for s, (r, kappa) in enumerate([(4, 2), (6, 2), (8, 3)], start=7):
            for j in range(3):
                model = sampling.random_hmm(np.random.default_rng([seed, s, j]), r, kappa)
                yield from (*hmm.conditional_blocks(model, hmm.min_window(r, kappa)), model.B)
    yield from (M for _, M in kruskal_test_matrices(48, "tall"))
    yield from (M for _, M in screen_test_matrices())


def test_kruskal_ranks_match_their_golden_digest():
    # the digest was recorded when square subsets were screened by a stacked
    # LU determinant; any change to the screen must leave every rank as it was
    ranks = [kruskal_rank(M) for M in golden_kruskal_views()]
    assert len(ranks) == GOLDEN_VIEW_COUNT
    digest = hashlib.sha256(",".join(map(str, ranks)).encode()).hexdigest()
    assert digest == GOLDEN_RANK_DIGEST


class TestUnclump:
    def test_column_sum_recovery(self):
        A = np.array([[0.15, 0.35, 0.15, 0.35]])
        f1, f2 = unclump(A, (2, 2))
        assert np.allclose(f1, [[0.5, 0.5]])
        assert np.allclose(f2, [[0.3, 0.7]])

    def test_round_trip_random_factors(self):
        rng = np.random.default_rng(4)
        factors = [random_stochastic(rng, 4, 2) for _ in range(3)]
        A = khatri_rao(factors)
        recovered = unclump(A, (2, 2, 2))
        for F, G in zip(factors, recovered):
            assert np.abs(F - G).max() <= 1e-14

    def test_identity_split(self):
        rng = np.random.default_rng(5)
        A = random_stochastic(rng, 3, 6)
        (out,) = unclump(A, (6,))
        assert np.allclose(out, A)

    def test_dimension_mismatch(self):
        with pytest.raises(InputError, match="does not match 4 columns$"):
            unclump(np.full((1, 4), 0.25), (3, 2))

    def test_not_khatri_rao(self):
        # stochastic but not a row tensor product
        A = np.array([[0.7, 0.0, 0.0, 0.3]])
        with pytest.raises(NotKhatriRaoError):
            unclump(A, (2, 2))


@st.composite
def stochastic_factors(draw):
    """One to four row-stochastic factors sharing 1-4 rows, 1-4 columns each."""
    r = draw(st.integers(1, 4))
    dims = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    factors = []
    for a in dims:
        entries = draw(st.lists(st.floats(1e-3, 1.0), min_size=r * a, max_size=r * a))
        F = np.array(entries).reshape(r, a)
        factors.append(F / F.sum(axis=1, keepdims=True))
    return factors


@given(factors=stochastic_factors())
def test_unclump_inverts_khatri_rao(factors):
    recovered = unclump(khatri_rao(factors), [F.shape[1] for F in factors])
    assert len(recovered) == len(factors)
    for F, G in zip(factors, recovered):
        assert G.shape == F.shape
        assert np.abs(F - G).max() <= 1e-13


EPS = np.finfo(float).eps
#: signed entries that are zero or of magnitude 1/4 to 4, so that products of
#: up to five factors stay normal and round by at most eps/2 per multiply
SIGNED_ENTRIES = st.one_of(st.just(0.0), st.floats(0.25, 4.0), st.floats(-4.0, -0.25))


@st.composite
def signed_factors(draw, min_size=1):
    """``min_size`` to five matrices sharing 1-4 rows, 1-4 columns each."""
    r = draw(st.integers(1, 4))
    dims = draw(st.lists(st.integers(1, 4), min_size=min_size, max_size=5))
    return [
        np.array(draw(st.lists(SIGNED_ENTRIES, min_size=r * a, max_size=r * a))).reshape(r, a)
        for a in dims
    ]


@given(factors=signed_factors())
def test_khatri_rao_matches_mixed_radix_oracle(factors):
    out = khatri_rao(factors)
    dims = [F.shape[1] for F in factors]
    assert out.shape == (factors[0].shape[0], math.prod(dims))
    for i, row in enumerate(out):
        # itertools.product counts in mixed radix with the last digit fastest
        for col, digits in enumerate(itertools.product(*map(range, dims))):
            want = math.prod(F[i, d] for F, d in zip(factors, digits))
            assert abs(row[col] - want) <= len(factors) * EPS * abs(want)


@given(factors=signed_factors(min_size=2), data=st.data())
def test_khatri_rao_splits_at_any_factor(factors, data):
    h = data.draw(st.integers(1, len(factors) - 1))
    whole = khatri_rao(factors)
    split = khatri_rao([khatri_rao(factors[:h]), khatri_rao(factors[h:])])
    assert np.all(np.abs(split - whole) <= len(factors) * EPS * np.abs(whole))


@given(data=st.data())
def test_triple_product_matches_einsum(data):
    r = data.draw(st.integers(1, 8))
    entries = st.one_of(st.just(0.0), st.floats(1 / 64, 1.0))
    mats = [
        np.array(data.draw(st.lists(entries, min_size=r * a, max_size=r * a))).reshape(r, a)
        for a in data.draw(st.lists(st.integers(1, 5), min_size=3, max_size=3))
    ]
    T = triple_product(*mats)
    oracle = np.einsum("iu,iv,iw->uvw", *mats)
    assert T.shape == oracle.shape
    assert np.abs(T - oracle).max() <= 1e-15 * np.abs(oracle).max()


@given(data=st.data())
def test_clump_tensor_preserves_entries(data):
    shape = data.draw(st.lists(st.integers(1, 3), min_size=3, max_size=5))
    p, n = len(shape), int(np.prod(shape))
    T = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
    T = T.reshape(shape)
    order = data.draw(st.permutations(range(p)))
    a = data.draw(st.integers(1, p - 2))
    b = data.draw(st.integers(a + 1, p - 1))
    blocks = [order[:a], order[a:b], order[b:]]
    out = clump_tensor(T, blocks)
    assert np.array_equal(np.sort(out.ravel()), np.sort(T.ravel()))
    for k, block in enumerate(blocks):
        others = tuple(j for j in range(p) if j not in block)
        marginal = T.sum(axis=others).ravel()
        assert np.allclose(out.sum(axis=tuple(i for i in range(3) if i != k)), marginal)


class TestClumpTensor:
    def test_p3_identity_reshape(self):
        rng = np.random.default_rng(6)
        T = rng.uniform(size=(2, 3, 4))
        out = clump_tensor(T, [(0,), (1,), (2,)])
        assert np.array_equal(out, T)

    def test_sum_and_multiset_preserved(self):
        rng = np.random.default_rng(7)
        T = rng.uniform(size=(2, 2, 2, 2))
        out = clump_tensor(T, [(0, 1), (2,), (3,)])
        assert out.shape == (4, 2, 2)
        assert np.isclose(out.sum(), T.sum())
        assert np.array_equal(np.sort(out.ravel()), np.sort(T.ravel()))

    def test_matches_khatri_rao_clumping(self):
        # the same joint computed through two independent paths
        rng = np.random.default_rng(8)
        r, p = 2, 5
        pi = rng.uniform(0.1, 1.0, size=r)
        pi /= pi.sum()
        mats = [random_stochastic(rng, r, 2) for _ in range(p)]
        flat = pi @ khatri_rao(mats)
        T = flat.reshape((2,) * p)
        blocks = [(0, 1), (2, 3), (4,)]
        N1 = khatri_rao([mats[0], mats[1]])
        N2 = khatri_rao([mats[2], mats[3]])
        N3 = mats[4]
        expected = triple_product(pi[:, None] * N1, N2, N3)
        assert np.abs(clump_tensor(T, blocks) - expected).max() <= 1e-14

    def test_bad_partitions(self):
        T = np.zeros((2, 2, 2))
        with pytest.raises(InputError, match="^need exactly 3 blocks, got 2$"):
            clump_tensor(T, [(0,), (1,)])
        with pytest.raises(InputError, match="^blocks must be nonempty$"):
            clump_tensor(T, [(0,), (1,), ()])
        with pytest.raises(InputError, match="^blocks must disjointly cover all 3 axes"):
            clump_tensor(T, [(0,), (0, 1), (2,)])


class TestVandermondeWitness:
    def test_two_by_two(self):
        W = np.vander((2.0, 3.0), N=2, increasing=True).T
        assert np.array_equal(W, [[1.0, 1.0], [2.0, 3.0]])
        assert numerical_rank(W) == 2

    def test_invertible_three(self):
        W = np.vander((2.0, 3.0, 5.0), N=3, increasing=True).T
        assert abs(np.linalg.det(W)) > 0.5

    def test_prime_witness_khatri_rao_rank(self):
        # rank of a row tensor product of prime-node witnesses is min(r, prod a_i)
        for r, dims in [(3, (2, 2)), (4, (2, 3)), (5, (2, 2)), (2, (3, 2))]:
            primes = first_primes(sum(dims))
            offset = 0
            mats = []
            for a in dims:
                vals = np.array(primes[offset : offset + a], dtype=float)
                mats.append(np.vander(vals, N=r, increasing=True).T)
                offset += a
            A = khatri_rao(mats)
            assert numerical_rank(A) == min(r, int(np.prod(dims)))


class TestGenericKhatriRaoRank:
    def test_uniform_random_factors(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            r = int(rng.integers(2, 6))
            q = int(rng.integers(2, 4))
            dims = [int(rng.integers(2, 4)) for _ in range(q)]
            mats = [rng.uniform(size=(r, a)) for a in dims]
            assert numerical_rank(khatri_rao(mats)) == min(r, int(np.prod(dims)))


def test_json_round_trip():
    rng = np.random.default_rng(10)
    T = rng.uniform(size=(2, 3, 4))
    obj = array_to_json_dict(T)
    assert obj["dims"] == [2, 3, 4]
    assert np.array_equal(array_from_json_dict(obj), T)


def test_first_primes():
    assert first_primes(6) == [2, 3, 5, 7, 11, 13]


#: (call, error, exact message) for each input refusal of the validation helpers
TENSOR_CORE_REFUSALS = {
    "matrix-ndim": (
        lambda: as_matrix(np.zeros(3), "M"), InputError, "M must be 2-D, got ndim=1",
    ),
    "matrix-empty": (
        lambda: as_matrix(np.zeros((0, 2)), "M"),
        InputError, "M must have at least one row and column",
    ),
    "pi-ndim": (
        lambda: check_probability_vector(np.full((2, 2), 0.25)),
        InputError, "pi must be a nonempty 1-D array",
    ),
    "pi-finite": (
        lambda: check_probability_vector([0.5, np.nan]),
        InputError, "pi contains non-finite entries",
    ),
    "pi-sum": (
        lambda: check_probability_vector([0.3, 0.3]),
        InputError, "pi must sum to 1 (got 0.6)",
    ),
    "tensor-finite": (
        lambda: check_distribution_tensor([np.inf, 0.0]),
        InputError, "tensor contains non-finite entries",
    ),
    # finiteness is checked first, then negative entries, then the sum
    "tensor-nan": (
        lambda: check_distribution_tensor([[0.5, np.nan], [0.25, 0.25]]),
        InputError, "tensor contains non-finite entries",
    ),
    "tensor-minus-inf": (
        lambda: check_distribution_tensor([[0.5, -np.inf], [0.25, 0.25]]),
        InputError, "tensor contains non-finite entries",
    ),
    "tensor-both-infs": (
        lambda: check_distribution_tensor([[np.inf, -np.inf], [0.25, 0.25]]),
        InputError, "tensor contains non-finite entries",
    ),
    "tensor-nan-before-negative": (
        lambda: check_distribution_tensor([[np.nan, -1.0], [1.0, 1.0]]),
        InputError, "tensor contains non-finite entries",
    ),
    "tensor-just-below-zero": (
        lambda: check_distribution_tensor([[0.6, -2e-12], [0.2, 0.2]]),
        InputError, "tensor has entries below -1e-12",
    ),
    "tensor-negative-before-sum": (
        lambda: check_distribution_tensor([[0.6, -0.1], [0.2, 0.9]]),
        InputError, "tensor has entries below -1e-12",
    ),
    "tensor-negative": (
        lambda: check_distribution_tensor([[0.6, -0.1], [0.3, 0.2]]),
        InputError, "tensor has entries below -1e-12",
    ),
    "tensor-sum": (
        lambda: check_distribution_tensor([0.5, 0.25]),
        InputError, "tensor must sum to 1 (got 0.75)",
    ),
    "unclump-dims": (
        lambda: unclump(np.full((1, 2), 0.5), [2, 0]),
        InputError, "col_dims[1] must be a whole number >= 1, got 0",
    ),
    "unclump-fractional-dims": (
        # truncating 2.5 to 2 would de-clump this as two binary factors
        lambda: unclump(khatri_rao([[[0.5, 0.5]], [[0.3, 0.7]]]), [2.5, 2]),
        InputError, "col_dims[0] must be a whole number >= 1, got 2.5",
    ),
    "unclump-no-dims": (
        lambda: unclump(np.ones((2, 1)), []), InputError, "col_dims must be nonempty",
    ),
    "entries-huge": (
        lambda: check_power_entries([(2**20000, 1)], "node-state prior"),
        InputError, "node-state prior has at least 2^20000 entries, cap is 16777216",
    ),
    "entries-past-2^128": (
        lambda: check_power_entries([(3 * 2**127, 1)], "joint table"),
        InputError, "joint table has at least 2^128 entries, cap is 16777216",
    ),
    "entries-below-2^128": (
        lambda: check_power_entries([(2**128 - 1, 1)], "joint table"),
        InputError,
        "joint table has 340282366920938463463374607431768211455 entries, cap is 16777216",
    ),
    "power-entries-huge": (
        lambda: check_power_entries([(2, 20000)], "node-state prior"),
        InputError, "node-state prior has at least 2^20000 entries, cap is 16777216",
    ),
    "power-entries-odd-base": (
        lambda: check_power_entries([(3, 10**9)], "window tensor"),
        InputError, "window tensor has at least 2^1584962500 entries, cap is 16777216",
    ),
    "power-entries-below-2^128": (
        lambda: check_power_entries([(3, 80)], "window tensor"),
        InputError,
        f"window tensor has {3**80} entries, cap is 16777216",
    ),
    "kruskal-stack": (
        # a generic 40 x 8 matrix: its 8-row subsets are screened on 8 x 8 blocks
        lambda: kruskal_rank(np.random.default_rng(0).uniform(size=(40, 8))),
        InputError, "stack of 8-row subsets has 4921899840 entries, cap is 16777216",
    ),
    "unclump-row-sums": (
        lambda: unclump([[0.5, 0.6]], [2]),
        NotKhatriRaoError, "rows must sum to 1 for de-clumping (max deviation 0.1)",
    ),
}


@pytest.mark.parametrize("case", list(TENSOR_CORE_REFUSALS))
def test_refusal_is_named(case, refuses):
    refuses(*TENSOR_CORE_REFUSALS[case])


def refusal(check, *args):
    """The message ``check(*args)`` refuses with, or None when it passes."""
    try:
        check(*args)
    except InputError as exc:
        return str(exc)
    return None


@given(
    powers=st.lists(
        st.tuples(st.integers(1, 12), st.integers(0, 80)), min_size=1, max_size=3
    )
)
def test_power_entries_agree_with_the_exact_count(powers):
    # the same verdict as the exact count; the same message up to 2^128, and
    # past it a power of two that never exceeds the count
    count = math.prod(base**exponent for base, exponent in powers)
    exact = refusal(_check_entries, count, "table")
    by_logarithm = refusal(check_power_entries, powers, "table")
    if count.bit_length() <= 128:
        assert by_logarithm == exact
    else:
        stated = int(by_logarithm.split("2^")[1].split()[0])
        assert count.bit_length() - 2 <= stated <= count.bit_length() - 1


def test_huge_counts_are_refused_at_once():
    # the refusal is decided by logarithm: no count of 10^9 digits is formed
    model = sampling.random_hmm(2, 3, 2)
    graph = sampling.random_graph_mixture(3)
    for build, message in [
        (lambda: random_graph.node_state_prior([0.5, 0.5], 10**9),
         "node-state prior has at least 2^1000000000 entries"),
        (lambda: hmm.window_tensor(model, 10**9), "window tensor has at least 2^"),
        (lambda: hmm.conditional_blocks(model, 10**9), "window block has at least 2^"),
        (lambda: random_graph.conditional_graph_matrix(graph, 10**6),
         "group matrix has at least 2^"),
        (lambda: random_graph.extract_parameters(np.full(4, 0.25), lambda *_: 0.5, 10**9),
         "prior must have 2^1000000000 entries, got 4"),
    ]:
        start = time.perf_counter()
        with pytest.raises(InputError, match=f"^{re.escape(message)}"):
            build()
        assert time.perf_counter() - start < 0.1


def test_entry_cap_has_one_home():
    # every dense builder reads the cap through check_power_entries, never a copy
    names = [info.name for info in pkgutil.iter_modules(latentid.__path__)]
    homes = [
        name for name in names
        if "ENTRY_CAP" in vars(importlib.import_module(f"latentid.{name}"))
    ]
    assert "cli" in names and homes == ["tensor_core"]
