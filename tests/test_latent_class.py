import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from latentid import latent_class, sampling, tensor_core
from latentid.errors import InputError
from latentid.hmm import hmm_certificate
from latentid.latent_class import (
    LatentClassModel,
    joint_distribution,
    kruskal_certificate,
    min_variables_bound,
    param_dimension,
    tripartition_search,
)
from latentid.random_graph import GraphMixtureModel, graph_certificate
from latentid.sampling import random_hmm, random_latent_class, random_probability, trial_rng
from latentid.tensor_core import check_stochastic, khatri_rao, kruskal_rank
from test_hmm import random_stochastic


def brute_force_joint(model):
    """Nested-loop evaluation of the mixture, independent of khatri_rao."""
    T = np.zeros(model.kappas)
    for idx in itertools.product(*[range(k) for k in model.kappas]):
        total = 0.0
        for i in range(model.r):
            term = model.pi[i]
            for j, l in enumerate(idx):
                term *= model.emissions[j][i, l]
            total += term
        T[idx] = total
    return T


def best_by_set_partitions(r, kappas):
    """Best score over every set partition into three blocks, with the capped
    dimensions sorted descending that reach it (the largest such)."""
    p = len(kappas)
    products = set()
    for labels in itertools.product(range(3), repeat=p):
        blocks = [[j for j in range(p) if labels[j] == b] for b in range(3)]
        if all(blocks):
            products.add(tuple(int(np.prod([kappas[j] for j in b])) for b in blocks))
    capped = [sorted((min(r, d) for d in dims), reverse=True) for dims in products]
    return max((sum(c), c) for c in capped)


class TestModelConstruction:
    def test_rejects_zero_weight(self):
        with pytest.raises(ValueError):
            LatentClassModel(
                pi=np.array([1.0, 0.0]),
                emissions=(np.full((2, 2), 0.5),),
            )

    def test_rejects_single_state_variable(self):
        with pytest.raises(ValueError):
            LatentClassModel(pi=np.array([1.0]), emissions=(np.ones((1, 1)),))

    @pytest.mark.parametrize(
        "delta,message",
        [
            (np.nan, "emissions[1] contains non-finite entries"),
            (-1.0, "emissions[1] entries must lie in [0, 1]"),
            (0.1, "emissions[1] rows must sum to 1 (max deviation 0.1)"),
        ],
        ids=["nan", "negative", "row-sum"],
    )
    def test_names_the_bad_emission(self, delta, message):
        m = random_latent_class(trial_rng(0, 1), 3, (2, 3, 4))
        emissions = [M.copy() for M in m.emissions]
        emissions[1][2, 0] += delta
        with pytest.raises(InputError) as info:
            LatentClassModel(pi=m.pi, emissions=tuple(emissions))
        assert str(info.value) == message

    def test_names_the_emission_with_the_wrong_row_count(self):
        m = random_latent_class(trial_rng(0, 1), 3, (2, 3, 4))
        emissions = (m.emissions[0], m.emissions[1][:2], m.emissions[2])
        with pytest.raises(InputError, match=r"^emissions\[1\] has 2 rows, expected r=3$"):
            LatentClassModel(pi=m.pi, emissions=emissions)

    def test_properties(self):
        m = random_latent_class(trial_rng(0, 0), 3, (2, 3, 4))
        assert (m.r, m.p, m.kappas) == (3, 3, (2, 3, 4))


class TestJointDistribution:
    def test_single_class_is_product(self):
        m = LatentClassModel(
            pi=np.array([1.0]),
            emissions=(np.array([[0.2, 0.8]]), np.array([[0.6, 0.4]])),
        )
        T = joint_distribution(m)
        assert np.allclose(T, np.outer([0.2, 0.8], [0.6, 0.4]))

    def test_deterministic_emissions(self):
        eye = np.eye(2)
        m = LatentClassModel(pi=np.array([0.5, 0.5]), emissions=(eye, eye, eye))
        T = joint_distribution(m)
        assert np.isclose(T[0, 0, 0], 0.5)
        assert np.isclose(T[1, 1, 1], 0.5)
        assert np.isclose(T.sum(), 1.0)

    def test_against_brute_force(self):
        m = random_latent_class(trial_rng(0, 1), 3, (2, 3, 2, 2))
        T = joint_distribution(m)
        assert np.abs(T - brute_force_joint(m)).max() <= 1e-14
        assert abs(T.sum() - 1.0) <= 1e-9

    def test_label_swap_invariance(self):
        m = random_latent_class(trial_rng(0, 2), 3, (2, 2, 3))
        perm = [2, 0, 1]
        swapped = LatentClassModel(
            pi=m.pi[perm], emissions=tuple(M[perm] for M in m.emissions)
        )
        assert np.allclose(joint_distribution(m), joint_distribution(swapped))

    def test_entry_cap(self, monkeypatch):
        # a table of exactly the cap is built, one entry more is refused
        m = random_latent_class(trial_rng(0, 3), 2, (4, 4, 4))
        monkeypatch.setattr(tensor_core, "ENTRY_CAP", 64)
        assert joint_distribution(m).shape == (4, 4, 4)
        monkeypatch.setattr(tensor_core, "ENTRY_CAP", 63)
        with pytest.raises(InputError, match="^joint table has 64 entries, cap is 63$"):
            joint_distribution(m)

    def test_entry_count_does_not_wrap(self, monkeypatch):
        # 2**64 entries wrap to 0 in int64; the dense build must not be reached
        def no_dense_build(factors):
            raise AssertionError("joint_distribution built a table above the cap")

        monkeypatch.setattr(latent_class, "_khatri_rao", no_dense_build)
        m = LatentClassModel(pi=np.array([0.5, 0.5]), emissions=(np.full((2, 2), 0.5),) * 64)
        with pytest.raises(
            InputError, match="^joint table has 18446744073709551616 entries, cap is 16777216$"
        ):
            joint_distribution(m)


@given(
    seed=st.integers(0, 2**32 - 1),
    r=st.integers(1, 4),
    kappas=st.lists(st.integers(2, 3), min_size=1, max_size=6),
)
@example(seed=0, r=3, kappas=[3])  # p = 1: the first half is pi alone
@example(seed=0, r=3, kappas=[2, 3, 3, 2, 3])  # odd p: the halves differ in length
def test_joint_matches_brute_force(seed, r, kappas):
    m = random_latent_class(seed, r, kappas)
    assert np.abs(joint_distribution(m) - brute_force_joint(m)).max() <= 1e-14


@given(
    seed=st.integers(0, 2**32 - 1),
    r=st.integers(1, 8),
    kappas=st.lists(st.integers(2, 6), min_size=1, max_size=10),
)
def test_sampler_draws_emissions_as_one_matrix_at_a_time(seed, r, kappas):
    # random_latent_class draws every emission matrix in one uniform call:
    # the same bytes and generator state as pi and then one draw per matrix
    got, want = trial_rng(seed, 0), trial_rng(seed, 0)
    m = random_latent_class(got, r, kappas)
    pi = random_probability(want, r)
    emissions = [random_stochastic(want, r, k) for k in kappas]
    assert m.pi.tobytes() == pi.tobytes()
    assert [M.tobytes() for M in m.emissions] == [M.tobytes() for M in emissions]
    assert got.bit_generator.state == want.bit_generator.state


@given(
    seed=st.integers(0, 2**32 - 1),
    kappas=st.lists(st.integers(2, 4), min_size=1, max_size=5),
    which=st.integers(0, 4),
    delta=st.sampled_from([0.0, 1e-13, -1e-13, 5e-10, -5e-10, 2e-9, -2e-12, 0.1, np.nan, np.inf]),
)
def test_stacked_check_agrees_with_per_matrix_checks(seed, kappas, which, delta):
    m = random_latent_class(seed, 3, kappas)
    mats = [M.copy() for M in m.emissions]
    mats[which % len(mats)][1, 0] += delta

    def per_matrix():
        try:
            for M in mats:
                check_stochastic(M)
        except InputError:
            return False
        return True

    assert latent_class._stochastic_with_rows(mats, 3) == per_matrix()


class TestKruskalCertificate:
    def test_identity_emissions_hold(self):
        eye = np.eye(2)
        m = LatentClassModel(pi=np.array([0.5, 0.5]), emissions=(eye, eye, eye))
        cert = kruskal_certificate(m)
        assert cert.kruskal_ranks == (2, 2, 2)
        assert cert.threshold == 6
        assert cert.holds
        assert cert.mode == "exact-matrix"

    def test_duplicated_row_fails(self):
        eye = np.eye(2)
        dup = np.array([[0.3, 0.7], [0.3, 0.7]])
        m = LatentClassModel(pi=np.array([0.5, 0.5]), emissions=(eye, eye, dup))
        cert = kruskal_certificate(m)
        assert cert.kruskal_ranks == (2, 2, 1)
        assert not cert.holds

    def test_generic_models_hold(self):
        for t in range(100):
            m = random_latent_class(trial_rng(1, t), 3, (3, 3, 3))
            assert kruskal_certificate(m).holds

    def test_needs_three_variables(self):
        m = random_latent_class(trial_rng(0, 4), 2, (2, 2, 2, 2))
        with pytest.raises(InputError, match="^model has p=4 variables, need exactly 3$"):
            kruskal_certificate(m)


class TestTripartitionSearch:
    def test_goodman_dimensions_fail(self):
        cert = tripartition_search(3, (2, 2, 2, 2))
        assert not cert.holds
        assert cert.status == "not-certified"
        assert sum(cert.kruskal_ranks) == 7
        assert cert.threshold == 8
        assert cert.exhaustive

    def test_five_binary_variables_hold(self):
        cert = tripartition_search(3, (2, 2, 2, 2, 2))
        assert cert.holds
        assert sum(cert.kruskal_ranks) == 8
        assert sorted(cert.witness.clumped_dims) == [2, 4, 4]

    def test_boundary_case(self):
        cert = tripartition_search(2, (2, 2, 2))
        assert cert.holds
        assert sum(cert.kruskal_ranks) == 6 == cert.threshold

    def test_too_few_variables(self):
        with pytest.raises(InputError, match="^need at least 3 variables, got p=2$"):
            tripartition_search(2, (2, 2))

    def test_deterministic(self):
        a = tripartition_search(4, (2, 3, 2, 3, 2))
        b = tripartition_search(4, (2, 3, 2, 3, 2))
        assert a.witness.blocks == b.witness.blocks
        assert a.kruskal_ranks == b.kruskal_ranks

    def test_exact_beyond_twelve_variables(self):
        cert = tripartition_search(2, [2] * 13)
        assert cert.holds
        assert cert.exhaustive
        cert = tripartition_search(100, [2] * 13)
        assert not cert.holds
        assert cert.status == "not-certified"
        assert cert.kruskal_ranks == (100, 32, 2)
        assert sum(cert.kruskal_ranks) == 134

    def test_matches_all_set_partitions(self):
        mixed = [(2, 2, 2), (3, 2, 4, 2), (2, 3, 2, 5, 2, 3), (2, 2, 3, 2, 4, 2, 2, 3)]
        for kappas in mixed:
            for r in range(1, 41):
                # best score, then the largest capped dimensions sorted descending
                best = best_by_set_partitions(r, kappas)
                cert = tripartition_search(r, kappas)
                dims = cert.witness.clumped_dims
                assert sum(cert.kruskal_ranks) == best[0]
                assert list(cert.kruskal_ranks) == best[1]
                assert list(dims) == sorted(dims, reverse=True)
                assert cert.holds == (best[0] >= 2 * r + 2)

    def test_prefers_two_full_blocks(self):
        # (8, 8, 2) and (8, 4, 4) both reach 2r + 2 = 14; only the first
        # leaves two clumped dimensions >= r, as decompose3 needs
        cert = tripartition_search(6, [2] * 7)
        assert cert.witness.clumped_dims == (8, 8, 2)

    def test_thirty_mixed_arity_variables(self):
        # variables of equal arity are interchangeable, so splitting each
        # arity's count over the three blocks reaches every block-product triple
        kappas = [2, 3, 4] * 10
        splits = np.array([(a, b, 10 - a - b) for a in range(11) for b in range(11 - a)])
        dims = (
            (2**splits)[:, None, None, :]
            * (3**splits)[None, :, None, :]
            * (4**splits)[None, None, :, :]
        ).reshape(-1, 3)
        dims = dims[(dims > 1).all(axis=1)]
        for r in (7, 40000, 50000):
            cert = tripartition_search(r, kappas)
            assert sum(cert.kruskal_ranks) == np.minimum(dims, r).sum(axis=1).max()
            dims_found = list(cert.witness.clumped_dims)
            assert dims_found == sorted(dims_found, reverse=True)

    @pytest.mark.parametrize(
        "r,kappas,dims", [(3, [3] * 10, (81, 27, 27)), (4, [3] * 8, (27, 27, 9))]
    )
    def test_leftover_variables_balance_the_witness(self, r, kappas, dims):
        # all three blocks reach the cap early; the variables left over go
        # one at a time to the block of smallest clumped product
        cert = tripartition_search(r, kappas)
        assert cert.witness.clumped_dims == dims
        assert cert.kruskal_ranks == (r, r, r) and cert.holds

    def test_one_leftover_variable_joins_the_later_of_equal_blocks(self):
        cert = tripartition_search(5, [2] * 10)
        assert cert.witness.blocks == ((6, 7, 8, 9), (0, 1, 2), (3, 4, 5))

    def test_rejects_state_counts_below_two(self):
        for kappas in [(1, 2, 2, 2), (0, 2, 2)]:
            with pytest.raises(ValueError):
                tripartition_search(2, kappas)

    def test_holds_implies_clumped_certificate_holds(self):
        # generic claim realized by sampling: when the dimension search
        # certifies, the clumped three-variable model passes the exact check
        cert = tripartition_search(3, (2, 2, 2, 2, 2))
        assert cert.holds
        blocks = cert.witness.blocks
        for t in range(100):
            m = random_latent_class(trial_rng(2, t), 3, (2, 2, 2, 2, 2))
            ranks = [
                kruskal_rank(khatri_rao([m.emissions[j] for j in block]))
                for block in blocks
            ]
            assert sum(ranks) >= cert.threshold


class TestBounds:
    @pytest.mark.parametrize(
        "r,kappa,expected",
        [(2, 2, 3), (5, 2, 7), (5, 3, 5), (3, 2, 5), (8, 2, 7), (9, 3, 5)],
    )
    def test_min_variables_bound(self, r, kappa, expected):
        assert min_variables_bound(r, kappa) == expected

    def test_param_dimension_goodman(self):
        assert param_dimension(3, (2, 2, 2, 2)) == (14, 16)

    def test_param_dimension_single_class(self):
        L, K = param_dimension(1, (3, 4))
        assert L == (3 - 1) + (4 - 1)
        assert K == 12

    def test_param_dimension_formula(self):
        assert param_dimension(2, (3, 3, 3)) == (13, 27)

    def test_param_dimension_does_not_wrap(self):
        assert param_dimension(2, [2] * 64)[1] == 2**64

    def test_certified_cases_have_room(self):
        # L < K whenever the search certifies
        for r in range(2, 7):
            for kappa in (2, 3):
                for p in range(3, 8):
                    cert = tripartition_search(r, [kappa] * p)
                    if cert.holds:
                        L, K = param_dimension(r, [kappa] * p)
                        assert L < K


@given(
    r=st.integers(1, 40),
    kappas=st.lists(st.integers(2, 5), min_size=3, max_size=7),
)
@example(r=3, kappas=[3] * 7)  # four variables left over once every block is full
@example(r=2, kappas=[2, 5, 2, 3, 2, 2, 4])  # unequal products left to balance
def test_witness_is_an_optimal_ordered_partition(r, kappas):
    cert = tripartition_search(r, kappas)
    blocks = cert.witness.blocks
    assert sorted(j for b in blocks for j in b) == list(range(len(kappas)))
    dims = list(cert.witness.clumped_dims)
    assert dims == [math.prod(kappas[j] for j in b) for b in blocks]
    assert dims == sorted(dims, reverse=True)
    best = best_by_set_partitions(r, kappas)
    assert sum(cert.kruskal_ranks) == best[0]
    assert list(cert.kruskal_ranks) == best[1]
    assert cert.holds == (best[0] >= 2 * r + 2)


def sorted_dp_blocks(r, kappas):
    """The search's dynamic program with each grown state re-sorted by a full
    stable sort, the plain form of its in-order transitions; returns the
    blocks kept at the first full-cap state, or at the best final state."""
    cap = max(r, 2)
    states = {(1, 1, 1): ((), (), ())}
    for j, kappa in enumerate(kappas):
        reached = {}
        for dims, blocks in states.items():
            for i in range(3):
                grown = list(zip(dims, blocks))
                grown[i] = (min(cap, dims[i] * kappa), blocks[i] + (j,))
                grown.sort(key=lambda item: -item[0])
                key, ordered = zip(*grown)
                reached.setdefault(key, ordered)
        states = reached
        if (cap, cap, cap) in states:
            return j, states[(cap, cap, cap)]
    nonempty = [dims for dims in states if dims[2] > 1]
    return len(kappas) - 1, states[max(nonempty, key=lambda d: (sum(min(r, x) for x in d), d))]


@given(
    r=st.integers(1, 40),
    kappas=st.lists(st.integers(2, 5), min_size=3, max_size=9),
)
@example(r=4, kappas=[2, 2, 2, 2, 2, 2])  # tied capped products on the way
def test_search_keeps_the_blocks_of_a_sorted_dynamic_program(r, kappas):
    j, blocks = sorted_dp_blocks(r, kappas)
    witness = tripartition_search(r, kappas).witness
    # the variables after j are handed out to blocks only after an early stop
    placed = [tuple(i for i in b if i <= j) for b in witness.blocks]
    assert sorted(placed) == sorted(blocks)


#: (r, kappas, witness blocks) from the sort-based search the in-order
#: transitions replaced: early stops at full caps, r = 1 and 2, ties
PINNED_WITNESSES = [
    (1, (2, 3, 4), ((2,), (1,), (0,))),
    (1, (5, 2, 3, 2), ((0,), (1, 3), (2,))),
    (2, (2, 2, 2), ((0,), (1,), (2,))),
    (2, (3, 2, 5, 2), ((2,), (1, 3), (0,))),
    (2, (2, 5, 2, 3, 2, 2, 4), ((1, 6), (0, 4, 5), (2, 3))),
    (3, (3, 3, 3, 3, 3, 3, 3), ((2, 3, 6), (0, 5), (1, 4))),
    (3, (2, 3, 2, 3, 2, 3), ((1, 5), (3, 4), (0, 2))),
    (4, (2, 3, 2, 3, 2), ((0, 1), (2, 4), (3,))),
    (4, (4, 2, 2, 4, 2, 2), ((1, 2, 5), (3, 4), (0,))),
    (5, (2, 2, 3, 3, 4, 4), ((4, 5), (0, 2), (1, 3))),
    (5, (3, 2, 2, 2, 3, 2, 2, 2), ((4, 6, 7), (2, 3, 5), (0, 1))),
    (6, (2, 3, 2, 3, 2, 3, 2), ((4, 5, 6), (0, 1), (2, 3))),
    (6, (5, 4, 3, 2, 5, 4, 3, 2), ((2, 3, 6, 7), (0, 1), (4, 5))),
    (7, (2, 3, 4, 5, 2, 3, 4, 5), ((1, 5, 7), (0, 2, 6), (3, 4))),
    (8, (4, 2, 2, 4, 2, 2, 4), ((0, 1, 2), (3, 4), (5, 6))),
    (9, (3, 3, 2, 2, 3, 3, 2, 2, 3), ((0, 1, 8), (2, 3, 4), (5, 6, 7))),
    (10, (2, 5, 2, 5, 2, 5), ((0, 1), (2, 3), (4, 5))),
    (12, (3, 4, 2, 3, 4, 2, 3, 4, 2), ((4, 6, 7), (2, 3, 5, 8), (0, 1))),
    (16, (4, 4, 4, 2, 2, 2, 4, 4), ((0, 1, 3), (2, 4, 5), (6, 7))),
    (20, (5, 4, 2, 3, 5, 4, 2, 3, 2), ((0, 1, 8), (2, 3, 4), (5, 6, 7))),
    (24, (2, 3, 4) * 4, ((0, 1, 2, 11), (3, 4, 5, 10), (6, 7, 8, 9))),
    (30, (5, 3, 2, 5, 3, 2, 5, 3), ((0, 1, 2), (3, 4, 5), (6, 7))),
    (40, (2, 3, 4, 5, 2, 3, 4), ((0, 3, 6), (1, 2, 5), (4,))),
    (100, (2, 3) * 6, ((0, 1, 2, 3, 5), (4, 6, 7, 9, 11), (8, 10))),
    (7, (2, 3, 4) * 10, (
        (3, 5, 6, 9, 11, 15, 17, 21, 23, 27, 29),
        (1, 4, 8, 12, 13, 16, 20, 24, 25, 28),
        (0, 2, 7, 10, 14, 18, 19, 22, 26),
    )),
    (40000, (2, 3, 4) * 10, (
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 10),
        (19, 21, 22, 23, 24, 25, 26, 27, 28, 29),
        (9, 11, 12, 13, 14, 15, 16, 17, 18, 20),
    )),
]


@pytest.mark.parametrize(
    "r,kappas,blocks", PINNED_WITNESSES, ids=[f"r{c[0]}-p{len(c[1])}" for c in PINNED_WITNESSES]
)
def test_pinned_witness(r, kappas, blocks):
    assert tripartition_search(r, kappas).witness.blocks == blocks


@st.composite
def latent_class_certificates(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kappas = draw(st.lists(st.integers(2, 5), min_size=3, max_size=3))
    model = random_latent_class(rng, draw(st.integers(1, 4)), kappas)
    if draw(st.booleans()):  # the last class copies the first on variable 0
        E = model.emissions[0].copy()
        E[-1] = E[0]
        model = LatentClassModel(pi=model.pi, emissions=(E, *model.emissions[1:]))
    return kruskal_certificate(model)


@st.composite
def hmm_certificates(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    model = random_hmm(rng, draw(st.integers(1, 4)), draw(st.integers(2, 3)))
    return hmm_certificate(model, draw(st.integers(1, 3)))


@st.composite
def graph_certificates(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    states = draw(st.integers(1, 2))
    # two states need 2^C(m,2) >= 2^m group-matrix columns, so m >= 3
    m = draw(st.sampled_from([2, 3, 4] if states == 1 else [3, 4]))
    Q = rng.uniform(size=(states, states))
    P = np.full_like(Q, Q[0, 0]) if draw(st.booleans()) else (Q + Q.T) / 2
    return graph_certificate(GraphMixtureModel(pi=random_probability(rng, states), P=P), m)


@st.composite
def search_certificates(draw):
    kappas = draw(st.lists(st.integers(2, 4), min_size=3, max_size=6))
    return tripartition_search(draw(st.integers(1, 6)), kappas)


@given(
    st.one_of(
        latent_class_certificates(),
        hmm_certificates(),
        graph_certificates(),
        search_certificates(),
    )
)
@example(graph_certificate(GraphMixtureModel(pi=np.array([1.0]), P=np.array([[0.5]])), 2))
def test_every_certificate_decides_by_its_rule(cert):
    total = sum(cert.kruskal_ranks)
    assert cert.threshold == 2 * cert.r + 2
    if cert.holds:
        assert total >= cert.threshold
    if not cert.full_row_rank:
        assert cert.holds == (total >= cert.threshold)


def _binary_model(p):
    return LatentClassModel(pi=np.array([0.5, 0.5]), emissions=(np.full((2, 2), 0.5),) * p)


#: (call, error, exact message[, builder]) for each input refusal of the module
LATENT_CLASS_REFUSALS = {
    "no-variables": (
        lambda: LatentClassModel(pi=np.array([1.0]), emissions=()),
        InputError, "at least one variable is required",
    ),
    "bound-arguments": (
        lambda: min_variables_bound(0, 2), InputError, "r must be a whole number >= 1, got 0",
    ),
    "dimension-arguments": (
        lambda: param_dimension(2, [2, 1]),
        InputError, "kappas[1] must be a whole number >= 2, got 1",
    ),
    "search-state-counts": (
        lambda: tripartition_search(3, [2.5, 3, 3]),
        InputError, "kappas[0] must be a whole number >= 2, got 2.5",
    ),
    "search-fractional-classes": (
        lambda: tripartition_search(2.5, [2, 2, 2, 2]),
        InputError, "r must be a whole number >= 1, got 2.5",
    ),
    "dimension-fractional-classes": (
        lambda: param_dimension(2.5, [2, 2, 2]),
        InputError, "r must be a whole number >= 1, got 2.5",
    ),
    "search-state-count-nan": (
        lambda: tripartition_search(3, [float("nan"), 3, 3]),
        InputError, "kappas[0] must be a whole number >= 2, got nan",
    ),
    "dimension-state-counts": (
        lambda: param_dimension(2, [2, 2.5]),
        InputError, "kappas[1] must be a whole number >= 2, got 2.5",
    ),
    "sampled-state-counts": (
        lambda: random_latent_class(0, 2, [2, 2.5, 2]),
        InputError, "kappas[1] must be a whole number >= 2, got 2.5",
    ),
    "sampled-emission-cap": (
        lambda: random_latent_class(0, 4, [2, 4]),
        InputError, "emission matrix has 16 entries, cap is 15",
        (sampling, "random_probability"),
    ),
    "sampled-huge-state-count": (
        lambda: random_latent_class(0, 3, [3, 3, 10**400]),
        InputError, "emission matrix has at least 2^1330 entries, cap is 16777216",
    ),
    "joint-table-cap": (
        lambda: joint_distribution(_binary_model(4)),
        InputError, "joint table has 16 entries, cap is 15", (latent_class, "_khatri_rao"),
    ),
}


@pytest.mark.parametrize("case", list(LATENT_CLASS_REFUSALS))
def test_refusal_is_named(case, refuses):
    refuses(*LATENT_CLASS_REFUSALS[case])
