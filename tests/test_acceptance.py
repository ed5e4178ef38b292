"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
lines.  Everything here uses exact tensors and small-instance oracles; the
whole suite is meant to finish in well under a minute.
"""

import itertools
import math

import numpy as np
import pytest

from latentid.hmm import (
    align_hmm,
    conditional_blocks,
    min_window,
    recover_hmm,
    window_tensor,
)
from latentid.latent_class import (
    joint_distribution,
    min_variables_bound,
    tripartition_search,
)
from latentid.nonparametric import (
    bivariate_rank,
    recover_mixture,
    select_cut_points,
)
from latentid.random_graph import (
    GraphMixtureModel,
    assignment_of_index,
    conditional_graph_matrix,
    extract_parameters,
    lattice_partitions,
    node_state_prior,
    single_edge_marginal,
)
from latentid.recovery import align_permutation, decompose3
from latentid.sampling import (
    random_graph_mixture,
    random_hmm,
    random_latent_class,
    random_nonparametric_mixture,
    trial_rng,
)
from latentid.tensor_core import (
    khatri_rao,
    kruskal_rank,
    numerical_rank,
    triple_product,
    unclump,
)


def report(number: int, description: str, passed: bool, detail: str = "") -> bool:
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:2d} [{status}] {description}{suffix}")
    return passed


def test_criterion_01_three_way_round_trip():
    failures = []
    worst = 0.0
    for t in range(100):
        model = random_latent_class(trial_rng(101, t), 3, (4, 4, 3))
        T = joint_distribution(model)
        rec = decompose3(T, 3, seed=t, tol=1e-8)
        align = align_permutation((rec.pi, rec.factors), (model.pi, list(model.emissions)))
        worst = max(worst, align.max_abs_error)
        if align.max_abs_error > 1e-8:
            failures.append(t)
    ok = report(
        1,
        "100/100 random M(3;4,4,3) round-trips align within 1e-8",
        not failures,
        f"worst error {worst:.2e}",
    )
    assert ok


def smallest_certified_p(r: int, kappa: int) -> int:
    """Least p >= 3 that the search certifies; fails the test past the bound."""
    bound = min_variables_bound(r, kappa)
    for p in range(3, bound + 1):
        if tripartition_search(r, [kappa] * p).holds:
            return p
    pytest.fail(
        f"(r={r}, kappa={kappa}): no p in 3..{bound} is certified, so the "
        "sufficient bound 2*ceil(log_kappa r) + 1 does not hold"
    )


def oracle_min_variables(r: int, kappa: int) -> int:
    """Least p >= 3 with block sizes a + b + c = p (each >= 1) whose generic
    ranks ``sum(min(kappa**s, r))`` reach ``2r + 2``, by enumerating sizes."""
    for p in itertools.count(3):
        for a in range(1, p - 1):
            for b in range(1, p - a):
                if sum(min(kappa**s, r) for s in (a, b, p - a - b)) >= 2 * r + 2:
                    return p


def test_criterion_02_tripartition_bound_agreement():
    problems = []
    below_bound = []
    for kappa in (2, 3):
        for r in range(2, 9):
            bound = min_variables_bound(r, kappa)
            if bound < 3 or not tripartition_search(r, [kappa] * bound).holds:
                problems.append((r, kappa, f"bound p={bound} not certified"))
            smallest = smallest_certified_p(r, kappa)
            expected = oracle_min_variables(r, kappa)
            if smallest != expected:
                problems.append((r, kappa, f"smallest p={smallest}, oracle {expected}"))
            if smallest < bound:
                below_bound.append((r, kappa, smallest, bound))

            # the witness blocks of a random model reach the threshold for real
            kappas = [kappa] * smallest
            witness = tripartition_search(r, kappas).witness
            model = random_latent_class(trial_rng(102, 10 * r + kappa), r, kappas)
            ranks = [
                kruskal_rank(khatri_rao([model.emissions[j] for j in block]))
                for block in witness.blocks
            ]
            if sum(ranks) < 2 * r + 2:
                problems.append((r, kappa, f"witness Kruskal ranks {ranks} at p={smallest}"))
    ok = report(
        2,
        "2*ceil(log_kappa r) + 1 variables are certified, the smallest "
        "certified p matches the block-size oracle, and a random model's "
        "witness blocks reach 2r + 2 in Kruskal rank, for r in 2..8, "
        "kappa in {2,3}",
        not problems,
        f"problems: {problems}"
        if problems
        else f"certified below the bound at (r, kappa, p, bound): {below_bound}",
    )
    assert ok, f"tripartition search against the sufficient bound: {problems}"


def test_criterion_03_goodman_negative_case():
    cert = tripartition_search(3, (2, 2, 2, 2))
    ok = report(
        3,
        "r=3 on four binary variables is not certified (best sum 7 < 8)",
        (not cert.holds) and sum(cert.kruskal_ranks) == 7 and cert.threshold == 8,
        f"best sum {sum(cert.kruskal_ranks)}",
    )
    assert ok


def oracle_window_joint(model, k):
    """Joint law of the 2k+1 window by exhaustive hidden-path enumeration."""
    r, kappa = model.r, model.kappa
    length = 2 * k + 1
    J = np.zeros((kappa,) * length)
    for path in itertools.product(range(r), repeat=length):
        prob = model.pi[path[0]]
        for a, b in zip(path[:-1], path[1:]):
            prob *= model.A[a, b]
        emit = model.B[path[0]]
        for z in path[1:]:
            emit = np.multiply.outer(emit, model.B[z])
        J += prob * emit
    return J


def oracle_window_tensor(model, k):
    """Regroup the window joint as (reversed past block, future block, center)."""
    kappa = model.kappa
    J = oracle_window_joint(model, k)
    past_axes = list(range(k - 1, -1, -1))  # (x_{k-1}, ..., x_0), x_0 fastest
    future_axes = list(range(k + 1, 2 * k + 1))
    J = J.transpose(past_axes + future_axes + [k])
    return J.reshape(kappa**k, kappa**k, kappa)


def oracle_window_blocks(model, k):
    """Condition the window joint halves on the center hidden state."""
    r, kappa = model.r, model.kappa
    B1 = np.zeros((r, kappa**k))
    B2 = np.zeros((r, kappa**k))
    for center in range(r):
        for path in itertools.product(range(r), repeat=k):
            full = path + (center,)
            prob = model.pi[full[0]]
            for a, b in zip(full[:-1], full[1:]):
                prob *= model.A[a, b]
            prob /= model.pi[center]
            emit = model.B[path[0]]
            for z in path[1:]:
                emit = np.multiply.outer(emit, model.B[z])
            # emit axes are (x_0, ..., x_{k-1}); column digits reverse time
            B1[center] += prob * emit.transpose(list(range(k - 1, -1, -1))).ravel()
        for path in itertools.product(range(r), repeat=k):
            full = (center,) + path
            prob = 1.0
            for a, b in zip(full[:-1], full[1:]):
                prob *= model.A[a, b]
            emit = model.B[path[0]]
            for z in path[1:]:
                emit = np.multiply.outer(emit, model.B[z])
            B2[center] += prob * emit.ravel()
    return B1, B2


def test_criterion_04_hmm_block_oracle():
    worst = 0.0
    for r in (1, 2, 3):
        for kappa in (2, 3):
            for k in (1, 2, 3):
                model = random_hmm(trial_rng(104, 10 * r + kappa), r, kappa)
                B1, B2 = conditional_blocks(model, k)
                O1, O2 = oracle_window_blocks(model, k)
                worst = max(worst, np.abs(B1 - O1).max())
                worst = max(worst, np.abs(B2 - O2).max())
                T = window_tensor(model, k)
                worst = max(worst, np.abs(T - oracle_window_tensor(model, k)).max())
    ok = report(
        4,
        "window blocks and tensors match hidden-path enumeration "
        "(r,kappa <= 3, k <= 3) within 1e-12",
        worst <= 1e-12,
        f"max abs difference {worst:.2e}",
    )
    assert ok


def test_criterion_05_hmm_round_trip():
    worst = 0.0
    failures = []
    for r, kappa in ((2, 2), (3, 3)):
        for t in range(100):
            model = random_hmm(trial_rng(105, 1000 * r + t), r, kappa)
            T = window_tensor(model, 1)
            try:
                A, B, pi = recover_hmm(T, r, kappa, 1, seed=t, tol=1e-6)
            except Exception as exc:  # noqa: BLE001 - tally, then fail the criterion
                failures.append((r, kappa, t, repr(exc)))
                continue
            align = align_hmm((A, B, pi), (model.A, model.B, model.pi))
            worst = max(worst, align.max_abs_error)
            if align.max_abs_error > 1e-6:
                failures.append((r, kappa, t, align.max_abs_error))
    windows_ok = all(
        2 * min_window(r, 2) + 1 == 2 * r - 1 for r in range(2, 7)
    )
    ok = report(
        5,
        "200/200 HMM window round-trips align within 1e-6 and binary window "
        "is 2r-1",
        not failures and windows_ok,
        f"worst error {worst:.2e}",
    )
    assert ok


def test_criterion_06_group_matrix_rank_witness():
    model = GraphMixtureModel(
        pi=np.array([0.3, 0.7]), P=np.array([[0.2, 0.5], [0.5, 0.8]])
    )
    base_ok = numerical_rank(conditional_graph_matrix(model, 4)) == 16

    sampled_ok = True
    rng = np.random.default_rng(106)
    for _ in range(50):
        vals = np.sort(rng.uniform(0.0, 1.0, size=3))
        while np.diff(vals).min() < 1e-3:
            vals = np.sort(rng.uniform(0.0, 1.0, size=3))
        p11, p12, p22 = vals
        m = GraphMixtureModel(
            pi=np.array([0.3, 0.7]), P=np.array([[p11, p12], [p12, p22]])
        )
        if numerical_rank(conditional_graph_matrix(m, 4)) != 16:
            sampled_ok = False
            break

    equal = GraphMixtureModel(pi=np.array([0.3, 0.7]), P=np.full((2, 2), 0.4))
    equal_ok = numerical_rank(conditional_graph_matrix(equal, 4)) == 1

    ok = report(
        6,
        "16x64 group matrix has rank 16 at distinct connection values "
        "(50/50 sampled) and rank 1 when they coincide",
        base_ok and sampled_ok and equal_ok,
    )
    assert ok


def test_criterion_07_lattice_partition_construction():
    all_ok = True
    for m in (2, 3, 4, 5):
        fam = lattice_partitions(m)
        if not fam.pairwise_edge_disjoint():
            all_ok = False
        expected_edges = m * math.comb(m, 2)
        if any(len(fam.edges(i)) != expected_edges for i in range(3)):
            all_ok = False
        for i, j in itertools.combinations(range(3), 2):
            for ga in fam.families[i]:
                for gb in fam.families[j]:
                    if len(ga & gb) != 1:
                        all_ok = False
    ok = report(
        7,
        "lattice partitions give pairwise edge-disjoint unions with "
        "m*C(m,2) edges and unit cross-family intersections (m in 2..5)",
        all_ok,
    )
    assert ok


def test_criterion_08_graph_extraction_round_trip():
    n = 4
    failures = []
    for equal_mixing in (False, True):
        for t in range(50):
            model = random_graph_mixture(
                trial_rng(108, 100 * int(equal_mixing) + t), equal_mixing=equal_mixing
            )
            rng = trial_rng(109, 100 * int(equal_mixing) + t)
            perm = rng.permutation(2**n)
            v_perm = node_state_prior(model.pi, n)[perm]

            def oracle(row, edge, _perm=perm, _model=model):
                states = assignment_of_index(int(_perm[row]), 2, n)
                return single_edge_marginal(_model, states, edge)

            try:
                pi, p11, p12, p22 = extract_parameters(v_perm, oracle, n)
            except Exception as exc:  # noqa: BLE001
                failures.append((equal_mixing, t, repr(exc)))
                continue
            truth = (model.pi[0], model.pi[1], model.P[0, 0], model.P[0, 1], model.P[1, 1])
            direct = max(
                abs(pi[0] - truth[0]),
                abs(pi[1] - truth[1]),
                abs(p11 - truth[2]),
                abs(p12 - truth[3]),
                abs(p22 - truth[4]),
            )
            swapped = max(
                abs(pi[0] - truth[1]),
                abs(pi[1] - truth[0]),
                abs(p11 - truth[4]),
                abs(p12 - truth[3]),
                abs(p22 - truth[2]),
            )
            if min(direct, swapped) > 1e-9:
                failures.append((equal_mixing, t, min(direct, swapped)))
    ok = report(
        8,
        "100/100 extraction round-trips (both mixing branches) are exact up "
        "to label swap",
        not failures,
        f"failures: {failures[:3]}" if failures else "",
    )
    assert ok


def test_criterion_09_nonparametric_round_trip():
    failures = []
    worst = 0.0
    configs = [
        (2, 3, [1, 1, 1]),
        (2, 5, [1] * 5),
        (3, 3, [1, 1, 1]),
        (3, 5, [1] * 5),
        (2, 3, [1, 1, 2]),  # one two-dimensional block
    ]
    for idx, (r, p, block_dims) in enumerate(configs):
        mixture = random_nonparametric_mixture(
            trial_rng(110, idx), r, p, block_dims=block_dims
        )
        queries = []
        for j, b in enumerate(block_dims):
            pts_1d = np.linspace(0.04, 0.96, 20)
            if b == 1:
                queries.append(pts_1d.tolist())
            else:
                queries.append([tuple([x] * b) for x in pts_1d])
        try:
            pi_hat, tables = recover_mixture(mixture, queries, seed=idx, tol=1e-8)
        except Exception as exc:  # noqa: BLE001
            failures.append((r, p, repr(exc)))
            continue
        truth = []
        for j, b in enumerate(block_dims):
            pts = queries[j] if b > 1 else [(x,) for x in queries[j]]
            truth.append(
                np.array([[comp(q) for q in pts] for comp in mixture.variate(j)])
            )
        align = align_permutation((pi_hat, tables), (mixture.pi, truth))
        worst = max(worst, align.max_abs_error)
        if align.max_abs_error > 1e-6:
            failures.append((r, p, align.max_abs_error))
    ok = report(
        9,
        "nonparametric mixtures (r in {2,3}, p in {3,5}, blocks up to b=2) "
        "recover pi and 20 CDF values per variate within 1e-6",
        not failures,
        f"worst error {worst:.2e}",
    )
    assert ok


def test_criterion_10_structural_invariants():
    rng = np.random.default_rng(111)
    checks = []

    # Kruskal-rank facts
    checks.append(kruskal_rank(np.array([[0.3, 0.7], [0.3, 0.7]])) == 1)
    checks.append(kruskal_rank(np.array([[1.0, 2.0], [0.0, 0.0]])) == 0)
    for _ in range(20):
        M = rng.uniform(size=(4, 4))
        checks.append(kruskal_rank(M) <= numerical_rank(M))

    # de-clumping inverts the row tensor product
    for _ in range(20):
        dims = [int(rng.integers(2, 4)) for _ in range(3)]
        mats = [rng.uniform(size=(3, d)) for d in dims]
        mats = [M / M.sum(axis=1, keepdims=True) for M in mats]
        rec = unclump(khatri_rao(mats), dims)
        checks.append(all(np.abs(a - b).max() <= 1e-12 for a, b in zip(mats, rec)))

    # triple product symmetry under relabeling and balanced rescaling
    mats = [rng.uniform(size=(3, 4)) for _ in range(3)]
    T = triple_product(*mats)
    perm = [1, 2, 0]
    checks.append(np.allclose(T, triple_product(*(M[perm] for M in mats))))
    s1, s2 = rng.uniform(0.5, 2.0, size=(2, 3))
    scaled = triple_product(
        mats[0] * s1[:, None], mats[1] * s2[:, None], mats[2] / (s1 * s2)[:, None]
    )
    checks.append(np.abs(T - scaled).max() <= 1e-12)

    # generic rank of the row tensor product: 100/100 uniform samples
    generic_ok = True
    for _ in range(100):
        r = int(rng.integers(2, 6))
        dims = [int(rng.integers(2, 4)) for _ in range(int(rng.integers(2, 4)))]
        mats = [rng.uniform(size=(r, a)) for a in dims]
        if numerical_rank(khatri_rao(mats)) != min(r, int(np.prod(dims))):
            generic_ok = False
            break
    checks.append(generic_ok)

    # bivariate rank: 1 on product measures, r on independent families
    mix_prod = random_nonparametric_mixture(trial_rng(112, 0), 1, 2)
    from latentid.nonparametric import NonparametricMixture

    prod2 = NonparametricMixture(
        pi=np.array([0.4, 0.6]),
        components=(mix_prod.components[0], mix_prod.components[0]),
    )
    # identical classes admit no rank-2 cuts, so bin on a fixed grid
    fixed = [[0.2, 0.4, 0.6, 0.8]]
    checks.append(bivariate_rank(prod2, 0, 1, fixed, fixed) == 1)

    mix_indep = random_nonparametric_mixture(trial_rng(112, 1), 3, 2)
    cuts = [select_cut_points(mix_indep.variate(j))[0] for j in range(2)]
    checks.append(bivariate_rank(mix_indep, 0, 1, cuts[0], cuts[1]) == 3)

    ok = report(
        10,
        "structural invariants: Kruskal-rank facts, de-clumping identity, "
        "triple-product symmetries, generic Khatri-Rao rank (100/100), "
        "bivariate ranks",
        all(checks),
        f"{sum(checks)}/{len(checks)} checks",
    )
    assert ok
