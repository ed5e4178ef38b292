import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from latentid import random_graph, sampling, tensor_core
from latentid.errors import InconsistentOracleError, InputError, NotDistinctError
from latentid.random_graph import (
    PRIOR_MATCH_TOL,
    GraphMixtureModel,
    assignment_of_index,
    conditional_graph_matrix,
    edge_list,
    extract_parameters,
    graph_certificate,
    lattice_partitions,
    node_state_prior,
    single_edge_marginal,
)
from latentid.tensor_core import numerical_rank


def reference_model(pi=(0.3, 0.7)):
    return GraphMixtureModel(
        pi=np.array(pi), P=np.array([[0.2, 0.5], [0.5, 0.8]])
    )


def hidden_oracle(model, n, perm):
    """Row oracle consistent with a permuted assignment order."""

    def oracle(row, edge):
        states = assignment_of_index(int(perm[row]), model.r, n)
        return single_edge_marginal(model, states, edge)

    return oracle


def test_connection_matrix_must_be_symmetric():
    P = np.array([[0.5, 0.3], [0.3, 0.5]])
    assert GraphMixtureModel(pi=np.array([0.4, 0.6]), P=P).P.tobytes() == P.tobytes()
    # 2e-6 apart: within np.allclose's default rtol, far beyond the bound
    with pytest.raises(ValueError, match="symmetric"):
        GraphMixtureModel(pi=np.array([0.4, 0.6]), P=np.array([[0.5, 0.3], [0.300002, 0.5]]))


class TestNodeStatePrior:
    def test_two_nodes(self):
        v = node_state_prior(np.array([0.3, 0.7]), 2)
        assert np.allclose(v, [0.09, 0.21, 0.21, 0.49])

    def test_uniform(self):
        v = node_state_prior(np.array([0.5, 0.5]), 4)
        assert np.allclose(v, 2.0**-4)

    def test_extremes(self):
        pi = np.array([0.3, 0.7])
        v = node_state_prior(pi, 5)
        assert np.isclose(v.min(), 0.3**5)
        assert np.isclose(v.max(), 0.7**5)
        assert np.isclose(v.sum(), 1.0)

    def test_entry_cap(self, monkeypatch):
        # a prior of exactly the cap is built, one entry more is refused
        monkeypatch.setattr(tensor_core, "ENTRY_CAP", 16)
        assert node_state_prior(np.array([0.5, 0.5]), 4).size == 16
        monkeypatch.setattr(tensor_core, "ENTRY_CAP", 15)
        with pytest.raises(InputError, match="^node-state prior has 16 entries, cap is 15$"):
            node_state_prior(np.array([0.5, 0.5]), 4)


class TestConditionalGraphMatrix:
    def test_single_edge(self):
        A = conditional_graph_matrix(reference_model(), 2)
        expected = np.array(
            [[0.8, 0.2], [0.5, 0.5], [0.5, 0.5], [0.2, 0.8]]
        )
        assert np.allclose(A, expected)

    def test_full_rank_at_distinct_values(self):
        A = conditional_graph_matrix(reference_model(), 4)
        assert A.shape == (16, 64)
        assert numerical_rank(A) == 16

    def test_rank_one_when_all_equal(self):
        model = GraphMixtureModel(pi=np.array([0.3, 0.7]), P=np.full((2, 2), 0.5))
        A = conditional_graph_matrix(model, 4)
        assert numerical_rank(A) == 1

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_rows_sum_to_one(self, m):
        A = conditional_graph_matrix(reference_model(), m)
        assert np.allclose(A.sum(axis=1), 1.0)


#: every group size graph_certificate accepts: a one-state model's group
#: matrix has 2^C(m,2) entries, within ENTRY_CAP = 2^24 up to m = 7
CERTIFIABLE_M = range(2, 8)


class TestLatticePartitions:
    def test_m3_edge_counts_and_disjointness(self):
        fam = lattice_partitions(3)
        sets = [fam.edges(i) for i in range(3)]
        assert all(len(s) == 9 for s in sets)
        assert fam.pairwise_edge_disjoint()

    @pytest.mark.parametrize("m", CERTIFIABLE_M)
    def test_families_partition_and_cross_intersections(self, m):
        fam = lattice_partitions(m)
        nodes = set(range(m * m))
        for family in fam.families:
            assert set().union(*family) == nodes
            assert sum(len(g) for g in family) == m * m
        for i, j in itertools.combinations(range(3), 2):
            for ga in fam.families[i]:
                for gb in fam.families[j]:
                    assert len(ga & gb) == 1
        # graph_certificate relies on this without recomputing it
        assert fam.pairwise_edge_disjoint()

    @pytest.mark.parametrize("m", CERTIFIABLE_M)
    def test_edge_counts(self, m):
        fam = lattice_partitions(m)
        expected = m * math.comb(m, 2)
        for i in range(3):
            assert len(fam.edges(i)) == expected

    def test_sixteen_nodes_at_m4(self):
        fam = lattice_partitions(4)
        assert set().union(*fam.families[0]) == set(range(16))


class TestGraphCertificate:
    def test_distinct_values_hold(self):
        cert = graph_certificate(reference_model(), 4)
        assert cert.holds
        assert cert.kruskal_ranks == (2**16, 2**16, 2**16)
        assert cert.threshold == 2 * 2**16 + 2

    def test_affiliation_degenerate_fails(self):
        model = GraphMixtureModel(pi=np.array([0.3, 0.7]), P=np.full((2, 2), 0.4))
        cert = graph_certificate(model, 4)
        assert not cert.holds
        assert cert.kruskal_ranks == (1, 1, 1)

    def test_whole_float_group_size_answers_as_its_int(self):
        model = reference_model()
        assert graph_certificate(model, 4.0) == graph_certificate(model, 4)
        assert type(graph_certificate(model, 4.0).kruskal_ranks[0]) is int

    def test_group_size_range(self):
        one_state = GraphMixtureModel(pi=np.array([1.0]), P=np.array([[0.5]]))
        assert not graph_certificate(one_state, CERTIFIABLE_M[-1]).holds
        with pytest.raises(
            InputError, match="^group matrix has 268435456 entries, cap is 16777216$"
        ):
            graph_certificate(one_state, CERTIFIABLE_M[-1] + 1)
        with pytest.raises(ValueError, match="^m must be a whole number >= 2, got 1$"):
            graph_certificate(reference_model(), 1)

    def test_group_matrix_with_fewer_columns_than_rows_refused(self):
        # 2^C(m,2) columns against r^m rows: 4x2 for two states at m = 2
        with pytest.raises(InputError, match="^the 4x2 group matrix at m=2 cannot reach"):
            graph_certificate(reference_model(), 2)
        P = np.array([[0.1, 0.4, 0.6], [0.4, 0.2, 0.7], [0.6, 0.7, 0.9]])
        three_states = GraphMixtureModel(pi=np.full(3, 1 / 3), P=P)
        with pytest.raises(InputError, match="^the 81x64 group matrix at m=4 cannot"):
            graph_certificate(three_states, 4)
        assert graph_certificate(three_states, 5).details["group_matrix_shape"] == (243, 1024)
        one_state = GraphMixtureModel(pi=np.array([1.0]), P=np.array([[0.5]]))
        # a 1x2 group matrix is answered; one state certifies under no rule
        assert not graph_certificate(one_state, 2).holds

    def test_details_report_the_group_matrix(self):
        cert = graph_certificate(reference_model(), 4)
        assert dict(cert.details) == {"group_matrix_shape": (16, 64), "group_matrix_rank": 16}
        with pytest.raises(TypeError):
            cert.details["group_matrix_rank"] = 0

    def test_kronecker_rank_identity(self):
        A = conditional_graph_matrix(reference_model(), 2)
        assert numerical_rank(np.kron(A, A)) == numerical_rank(A) ** 2


class TestSingleEdgeMarginal:
    def test_uniform_states(self):
        model = reference_model()
        assert single_edge_marginal(model, (0, 0, 0, 0), (0, 1)) == 0.2
        assert single_edge_marginal(model, (1, 1, 1), (1, 2)) == 0.8

    def test_mixed_states(self):
        model = reference_model()
        assert single_edge_marginal(model, (0, 1, 0), (0, 1)) == 0.5

    def test_matches_explicit_row_sum(self):
        # marginalize one row of the dense m=3 matrix over the columns whose
        # bitmask contains the fixed edge
        model = reference_model()
        m = 3
        A = conditional_graph_matrix(model, m)
        edges = edge_list(m)
        for row in range(2**m):
            states = assignment_of_index(row, 2, m)
            for t, edge in enumerate(edges):
                cols = [g for g in range(2 ** len(edges)) if (g >> t) & 1]
                explicit = A[row, cols].sum()
                assert abs(explicit - single_edge_marginal(model, states, edge)) <= 1e-14

    def test_bad_edge(self):
        with pytest.raises(InputError, match="must join two distinct nodes in range"):
            single_edge_marginal(reference_model(), (0, 1), (1, 1))
        with pytest.raises(InputError, match="must join two distinct nodes in range"):
            single_edge_marginal(reference_model(), (0, 1), (0, 5))


class TestAssignmentOfIndex:
    @pytest.mark.parametrize("r, n", [(1, 3), (2, 1), (2, 4), (3, 3)])
    def test_first_node_is_the_slowest_digit(self, r, n):
        expected = list(itertools.product(range(r), repeat=n))
        assert [assignment_of_index(i, r, n) for i in range(r**n)] == expected

    def test_whole_floats_answer_as_ints(self):
        assert assignment_of_index(5.0, 2.0, 3.0) == (1, 0, 1)
        assert all(type(s) is int for s in assignment_of_index(np.int64(5), 2, 3))

    @pytest.mark.parametrize(
        "args, message",
        [
            ((8, 2, 3), "index 8 is out of range for 2\\^3 assignments"),
            ((1, 1, 3), "index 1 is out of range for 1\\^3 assignments"),
            ((-1, 2, 3), "index must be a whole number >= 0, got -1"),
            ((1.5, 2, 3), "index must be a whole number >= 0, got 1.5"),
            ((0, 0, 3), "r must be a whole number >= 1, got 0"),
            ((0, 2, 2.5), "n must be a whole number >= 1, got 2.5"),
        ],
    )
    def test_bad_arguments_are_refused(self, args, message):
        with pytest.raises(InputError, match=f"^{message}$"):
            assignment_of_index(*args)


class TestExtractParameters:
    @pytest.mark.parametrize("seed", range(10))
    def test_unequal_mixing_branch(self, seed):
        model = reference_model()
        n = 4
        rng = np.random.default_rng(seed)
        perm = rng.permutation(2**n)
        v_perm = node_state_prior(model.pi, n)[perm]
        pi, p11, p12, p22 = extract_parameters(
            v_perm, hidden_oracle(model, n, perm), n
        )
        assert np.allclose(pi, [0.3, 0.7])
        assert np.allclose([p11, p12, p22], [0.2, 0.5, 0.8])

    @pytest.mark.parametrize("seed", range(10))
    def test_equal_mixing_branch(self, seed):
        model = reference_model(pi=(0.5, 0.5))
        n = 4
        rng = np.random.default_rng(100 + seed)
        perm = rng.permutation(2**n)
        v_perm = node_state_prior(model.pi, n)[perm]
        pi, p11, p12, p22 = extract_parameters(
            v_perm, hidden_oracle(model, n, perm), n
        )
        assert np.allclose(pi, [0.5, 0.5])
        # label order within the equal branch is by connection value
        assert np.allclose(sorted([p11, p22]), [0.2, 0.8])
        assert np.isclose(p12, 0.5)

    @pytest.mark.parametrize("seed", range(10))
    def test_equal_mixing_at_three_nodes(self, seed):
        # no row of three nodes holds two nodes of each state, so the values
        # of several rows make up the answer
        model = reference_model(pi=(0.5, 0.5))
        perm = np.random.default_rng(200 + seed).permutation(8)
        v_perm = node_state_prior(model.pi, 3)[perm]
        pi, p11, p12, p22 = extract_parameters(v_perm, hidden_oracle(model, 3, perm), 3)
        assert pi.tolist() == [0.5, 0.5]
        assert (p11, p12, p22) == (0.2, 0.5, 0.8)

    def test_unequal_mixing_at_two_nodes(self):
        # one edge suffices when the prior tells the uniform rows apart
        model = reference_model()
        perm = np.array([2, 0, 3, 1])
        v_perm = node_state_prior(model.pi, 2)[perm]
        pi, p11, p12, p22 = extract_parameters(v_perm, hidden_oracle(model, 2, perm), 2)
        assert np.allclose(pi, [0.3, 0.7])
        assert np.allclose([p11, p12, p22], [0.2, 0.5, 0.8])

    def test_two_distinct_values_rejected(self):
        model = GraphMixtureModel(
            pi=np.array([0.3, 0.7]), P=np.array([[0.2, 0.5], [0.5, 0.2]])
        )
        n = 4
        perm = np.arange(2**n)
        v_perm = node_state_prior(model.pi, n)
        with pytest.raises(NotDistinctError):
            extract_parameters(v_perm, hidden_oracle(model, n, perm), n)

    def test_inconsistent_oracle_rejected(self):
        model = reference_model()
        n = 4
        perm = np.arange(2**n)
        v_perm = node_state_prior(model.pi, n)
        base = hidden_oracle(model, n, perm)
        calls = itertools.count()

        def flaky(row, edge):
            return base(row, edge) + (0.2 if next(calls) == 1 else 0.0)

        with pytest.raises((InconsistentOracleError, NotDistinctError)):
            extract_parameters(v_perm, flaky, n)

    @pytest.mark.parametrize("bad_call", [0, 1])
    def test_uniform_rows_checked_on_a_second_edge(self, bad_call):
        # calls 0 and 1 read p11 and p22 off the first edge; the last edge of
        # each uniform row must then agree
        model = reference_model()
        n = 4
        base = hidden_oracle(model, n, np.arange(2**n))
        calls = itertools.count()

        def flaky(row, edge):
            return base(row, edge) + (0.1 if next(calls) == bad_call else 0.0)

        with pytest.raises(InconsistentOracleError, match="uniform row gave conflicting"):
            extract_parameters(node_state_prior(model.pi, n), flaky, n)
        assert next(calls) == 3 + bad_call

    def test_marginal_ignores_other_edges(self):
        # conditional independence: the single-edge value depends only on the
        # two endpoint states
        model = reference_model()
        for states in itertools.product(range(2), repeat=4):
            val = single_edge_marginal(model, states, (1, 3))
            assert val == model.P[states[1], states[3]]


@given(
    n=st.integers(3, 12),
    values=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
def test_equal_mixing_reads_at_most_2n_plus_3_rows(n, values, seed):
    # only the 2n + 2 rows with at most one node of some state fail to show
    # all three values, and every row costs C(n, 2) oracle calls
    assume(np.diff(sorted(values)).min() > PRIOR_MATCH_TOL)
    a, c, b = values
    model = GraphMixtureModel(pi=np.full(2, 0.5), P=np.array([[a, c], [c, b]]))
    perm = np.random.default_rng(seed).permutation(2**n)
    base = hidden_oracle(model, n, perm)
    calls = itertools.count()

    def oracle(row, edge):
        next(calls)
        return base(row, edge)

    pi, p11, p12, p22 = extract_parameters(node_state_prior(model.pi, n)[perm], oracle, n)
    assert pi.tolist() == [0.5, 0.5]
    assert (p11, p12, p22) == (min(a, b), c, max(a, b))
    assert next(calls) <= min(2**n, 2 * n + 3) * math.comb(n, 2)


def _unequal_prior():
    # identity order: row 0 is all state 0 (the smallest entry), row 15 all state 1
    return node_state_prior([0.3, 0.7], 4)


def _no_single_deviant_prior():
    v = _unequal_prior()
    deviant = np.isclose(v, 0.3**3 * 0.7)
    v[deviant] = 0.3**2 * 0.7**2
    return v


def _with_answer(oracle, row, edge, value):
    # ``oracle`` with its answer for one row and edge replaced
    return lambda r, e: value if (r, e) == (row, edge) else oracle(r, e)


def _tied_oracle(p11, p12, p22):
    # equal mixing in the identity order: row 3 is the first with two nodes of each state
    model = GraphMixtureModel(pi=np.full(2, 0.5), P=np.array([[p11, p12], [p12, p22]]))
    return hidden_oracle(model, 4, np.arange(16))


#: (prior, row oracle, n, error, exact message) for each refusal of extract_parameters
EXTRACT_REFUSALS = {
    "prior-size": (
        np.full(8, 1 / 8), lambda row, edge: 0.5, 4,
        InputError, r"prior must have 2\^4 entries, got 8",
    ),
    "prior-positive": (
        np.where(np.arange(16) == 3, 0.0, 1 / 15), lambda row, edge: 0.5, 4,
        InputError, "prior entries must be positive",
    ),
    # checked first: NaN or inf would make the unequal-mixing comparison false
    # and send the prior to the equal-mixing branch
    "prior-nan": (
        np.where(np.arange(16) == 3, np.nan, _unequal_prior()), lambda row, edge: 0.5, 4,
        InputError, "prior entries must be finite",
    ),
    "prior-inf": (
        np.where(np.arange(16) == 3, np.inf, _unequal_prior()), lambda row, edge: 0.5, 4,
        InputError, "prior entries must be finite",
    ),
    # an oracle answer is checked before any comparison, which NaN would fail
    "oracle-nan": (
        _unequal_prior(), lambda row, edge: np.nan, 4,
        InconsistentOracleError, r"row 0, edge \(0, 1\): oracle answered nan",
    ),
    "oracle-inf-deviant-row": (
        # row 1 is the first with a single node in state 1
        _unequal_prior(), lambda row, edge: np.inf if row == 1 else 0.8 if row == 15 else 0.2, 4,
        InconsistentOracleError, r"row 1, edge \(0, 1\): oracle answered inf",
    ),
    "equal-oracle-nan": (
        np.full(16, 1 / 16), _with_answer(_tied_oracle(0.2, 0.5, 0.8), 1, (0, 1), np.nan), 4,
        InconsistentOracleError, r"row 1, edge \(0, 1\): oracle answered nan",
    ),
    "equal-oracle-inf": (
        np.full(16, 1 / 16), lambda row, edge: -np.inf, 4,
        InconsistentOracleError, r"row 0, edge \(0, 1\): oracle answered -inf",
    ),
    "weight-sum": (
        _unequal_prior() * 16, lambda row, edge: 0.5, 4,
        InconsistentOracleError, r"extreme prior entries give weights summing to 2\.000000000",
    ),
    "extremes-not-unique": (
        np.where(np.arange(16) == 5, 0.3**4, _unequal_prior()), lambda row, edge: 0.5, 4,
        InconsistentOracleError, "extreme prior entries are not unique",
    ),
    "no-single-deviant": (
        _no_single_deviant_prior(), lambda row, edge: 0.8 if row == 15 else 0.2, 4,
        InconsistentOracleError, "no prior entry matches a single-deviant assignment",
    ),
    "deviant-row-one-value": (
        _unequal_prior(), lambda row, edge: 0.8 if row == 15 else 0.2, 4,
        NotDistinctError, "single-deviant row shows only one edge value; p12 equals p11",
    ),
    "equal-one-value": (
        np.full(16, 1 / 16), lambda row, edge: 0.5, 4,
        NotDistinctError, "only 1 distinct edge values observed, need 3",
    ),
    "equal-four-values": (
        np.full(16, 1 / 16), lambda row, edge: 0.1 * (1 + row % 4), 4,
        InconsistentOracleError, "4 distinct edge values observed, expected 3",
    ),
    "equal-within-values-tie": (
        # every node of row 3 sees both 0.2 and 0.5
        np.full(16, 1 / 16), _tied_oracle(0.2, 0.5, 0.2), 4,
        NotDistinctError, "row 3 ties p12 to a within value or p11 to p22",
    ),
    "equal-cross-ties-within": (
        # the two state-0 nodes of row 3 see only 0.5
        np.full(16, 1 / 16), _tied_oracle(0.5, 0.5, 0.8), 4,
        NotDistinctError, "row 3 ties p12 to a within value or p11 to p22",
    ),
    "equal-not-two-cliques": (
        # nodes 0, 1, 2 see 0.2 and 0.5, node 3 only 0.5, but edge (0, 2) shows 0.5
        np.full(16, 1 / 16), lambda row, edge: 0.2 if edge in ((0, 1), (1, 2)) else 0.5, 4,
        InconsistentOracleError, "row 0 is not two cliques joined by p12",
    ),
    "equal-no-single-cross-value": (
        # every row constant, three values between them
        np.full(16, 1 / 16), lambda row, edge: 0.1 * (1 + row % 3), 4,
        InconsistentOracleError, "3 edge values, but not one p12 and two within values",
    ),
    "equal-cross-values-differ": (
        # every row is two cliques joined by a cross value, 0.5 or 0.6 by turns
        np.full(8, 1 / 8), lambda row, edge: 0.2 if edge == (0, 1) else 0.5 + 0.1 * (row % 2), 3,
        InconsistentOracleError, "3 edge values, but not one p12 and two within values",
    ),
    "no-nodes": (
        np.array([1.0]), lambda row, edge: 0.5, 0,
        InputError, "n must be a whole number >= 2, got 0",
    ),
    "one-node": (
        np.array([0.3, 0.7]), lambda row, edge: 0.5, 1,
        InputError, "n must be a whole number >= 2, got 1",
    ),
    "equal-two-nodes": (
        # with one edge every row is constant: p12 cannot be told apart
        np.full(4, 1 / 4), lambda row, edge: (0.2, 0.5, 0.5, 0.8)[row], 2,
        InputError, "equal mixing needs at least 3 nodes, got n=2",
    ),
}


class TestExtractRefusals:
    @pytest.mark.parametrize("case", list(EXTRACT_REFUSALS))
    def test_refusal_is_named(self, case):
        prior, oracle, n, error, message = EXTRACT_REFUSALS[case]
        with pytest.raises(error, match=f"^{message}$"):
            extract_parameters(prior, oracle, n)


#: (call, error, exact message[, builder]) for each input refusal of the module
#: outside extract_parameters
GRAPH_REFUSALS = {
    "P-shape": (
        lambda: GraphMixtureModel(pi=np.array([0.5, 0.5]), P=np.full((3, 3), 0.5)),
        InputError, "P must be 2x2, got (3, 3)",
    ),
    # refused before the symmetry check, whose inf - inf would warn first
    "P-finite": (
        lambda: GraphMixtureModel(
            pi=np.array([0.5, 0.5]), P=np.array([[0.5, np.inf], [np.inf, 0.2]])
        ),
        InputError, "connection matrix P must be finite",
    ),
    "P-range": (
        lambda: GraphMixtureModel(
            pi=np.array([0.5, 0.5]), P=np.array([[1.5, 0.5], [0.5, 0.2]])
        ),
        InputError, "connection probabilities must lie in [0, 1]",
    ),
    "lattice-size": (
        lambda: lattice_partitions(1), InputError, "m must be a whole number >= 2, got 1",
    ),
    "edge-states": (
        lambda: single_edge_marginal(reference_model(), (0, 5), (0, 1)),
        InputError, "states must lie in range(2)",
    ),
    "lattice-fractional-size": (
        lambda: lattice_partitions(2.5), InputError, "m must be a whole number >= 2, got 2.5",
    ),
    "edge-fractional-state": (
        # int() would read state 0.7 as 0 and answer
        lambda: single_edge_marginal(reference_model(), (0, 0.7), (0, 1)),
        InputError, "states[1] must be a whole number >= 0, got 0.7",
    ),
    "edge-fractional-endpoint": (
        lambda: single_edge_marginal(reference_model(), (0, 1), (0, 1.9)),
        InputError, "edge[1] must be a whole number >= 0, got 1.9",
    ),
    "prior-fractional-nodes": (
        lambda: node_state_prior([0.3, 0.7], 2.5),
        InputError, "n must be a whole number >= 1, got 2.5",
    ),
    "prior-nodes": (
        lambda: node_state_prior([0.3, 0.7], 0),
        InputError, "n must be a whole number >= 1, got 0",
    ),
    "prior-cap": (
        lambda: node_state_prior([0.3, 0.7], 4),
        InputError, "node-state prior has 16 entries, cap is 15", (np, "kron"),
    ),
    "group-matrix-cap": (
        lambda: conditional_graph_matrix(reference_model(), 3),
        InputError, "group matrix has 64 entries, cap is 15", (random_graph, "_khatri_rao"),
    ),
}


@pytest.mark.parametrize("case", list(GRAPH_REFUSALS))
def test_refusal_is_named(case, refuses):
    refuses(*GRAPH_REFUSALS[case])


def test_graph_sampler_gives_up_by_name(monkeypatch):
    monkeypatch.setattr(sampling, "_GRAPH_MAX_ATTEMPTS", 0)
    with pytest.raises(
        InputError, match="^no well-separated connection triple found in 0 draws$"
    ):
        sampling.random_graph_mixture(5)
