import hashlib
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from latentid import hmm, sampling, tensor_core
from latentid.errors import (
    DegenerateSpectrumError,
    IllConditionedError,
    NonUniqueStationaryError,
    InputError,
    RankDeficientError,
)
from latentid.hmm import (
    HiddenMarkovModel,
    align_hmm,
    conditional_blocks,
    hmm_certificate,
    min_window,
    recover_hmm,
    recovery_window,
    stationary_distribution,
    window_tensor,
)
from latentid.latent_class import joint_distribution
from latentid.recovery import decompose3
from latentid.sampling import (
    _HMM_SINGULAR_MARGIN,
    random_hmm,
    random_latent_class,
    trial_rng,
)
from latentid.tensor_core import khatri_rao, numerical_rank, triple_product


def path_joint(model, length):
    """Joint law of (X_0, ..., X_{length-1}) by exhaustive hidden-path sums.

    Independent of the block recursion: every hidden path contributes its
    probability times the outer product of emission rows.
    """
    r, kappa = model.r, model.kappa
    T = np.zeros((kappa,) * length)
    for path in itertools.product(range(r), repeat=length):
        prob = model.pi[path[0]]
        for a, b in zip(path[:-1], path[1:]):
            prob *= model.A[a, b]
        emit = model.B[path[0]]
        for z in path[1:]:
            emit = np.multiply.outer(emit, model.B[z])
        T += prob * emit
    return T


def oracle_blocks(model, k):
    """Window blocks by path enumeration over (Z_0..Z_k) and (Z_k..Z_2k)."""
    r, kappa = model.r, model.kappa
    B1 = np.zeros((r, kappa**k))
    B2 = np.zeros((r, kappa**k))
    for center in range(r):
        # past block: paths Z_0..Z_k ending at the center state
        for path in itertools.product(range(r), repeat=k):
            full = path + (center,)
            prob = model.pi[full[0]]
            for a, b in zip(full[:-1], full[1:]):
                prob *= model.A[a, b]
            prob /= model.pi[center]
            for xs in itertools.product(range(kappa), repeat=k):
                # column digits are (x_{k-1}, ..., x_0), earliest fastest
                col = 0
                for x in xs:
                    col = col * kappa + x
                emit = 1.0
                for z, x in zip(path, reversed(xs)):
                    emit *= model.B[z, x]
                B1[center, col] += prob * emit
        # future block: paths Z_k..Z_2k starting at the center state
        for path in itertools.product(range(r), repeat=k):
            full = (center,) + path
            prob = 1.0
            for a, b in zip(full[:-1], full[1:]):
                prob *= model.A[a, b]
            for xs in itertools.product(range(kappa), repeat=k):
                col = 0
                for x in xs:
                    col = col * kappa + x
                emit = 1.0
                for z, x in zip(path, xs):
                    emit *= model.B[z, x]
                B2[center, col] += prob * emit
    return B1, B2


def random_stochastic(rng, rows: int, cols: int) -> np.ndarray:
    """A row-stochastic matrix from one uniform draw of its own, the stream the
    samplers reproduce one matrix at a time."""
    M = rng.uniform(0.0, 1.0, size=(rows, cols))
    return M / M.sum(axis=1, keepdims=True)


def reference_random_hmm(rng, r: int, kappa: int, max_attempts: int = 5000):
    """``random_hmm`` drawing and testing one attempt at a time.

    The batched sampler must return the same model or refusal and leave the
    generator in the same state.
    """
    rng = np.random.default_rng(rng)
    rejected = {"A": 0, "B": 0, "stationary": 0}
    for _ in range(max_attempts):
        A = random_stochastic(rng, r, r)
        B = random_stochastic(rng, r, kappa)
        if min(np.linalg.svd(A, compute_uv=False)) < _HMM_SINGULAR_MARGIN:
            rejected["A"] += 1
            continue
        if min(np.linalg.svd(B, compute_uv=False)) < _HMM_SINGULAR_MARGIN:
            rejected["B"] += 1
            continue
        try:
            return HiddenMarkovModel(A=A, B=B)
        except NonUniqueStationaryError:
            rejected["stationary"] += 1
    message = (
        f"no draw accepted in {max_attempts} attempts: {rejected['A']} with "
        f"sigma_min(A) and {rejected['B']} with sigma_min(B) below "
        f"{_HMM_SINGULAR_MARGIN}, {rejected['stationary']} with a non-simple "
        f"unit eigenvalue"
    )
    if rejected["A"] or rejected["B"]:
        raise IllConditionedError(message)
    raise NonUniqueStationaryError(message)


def sampled(sampler, rng, r, kappa, max_attempts):
    """The model's bytes or the refusal, then the generator's next draws."""
    try:
        model = sampler(rng, r, kappa, max_attempts=max_attempts)
        outcome = (model.A.tobytes(), model.B.tobytes(), model.pi.tobytes())
    except (IllConditionedError, NonUniqueStationaryError) as exc:
        outcome = (type(exc), str(exc))
    return outcome, rng.random(3).tobytes()


def two_state_model():
    return HiddenMarkovModel(
        A=np.array([[0.9, 0.1], [0.3, 0.7]]), B=np.array([[0.8, 0.2], [0.4, 0.6]])
    )


class TestStationary:
    def test_symmetric(self):
        pi = stationary_distribution(np.full((2, 2), 0.5))
        assert np.allclose(pi, [0.5, 0.5])

    def test_hand_solved_balance(self):
        # pi solves pi = pi A: 0.1 pi1 = 0.3 pi2 gives pi = (0.75, 0.25)
        A = np.array([[0.9, 0.1], [0.3, 0.7]])
        assert np.allclose(stationary_distribution(A), [0.75, 0.25])

    def test_identity_rejected(self):
        with pytest.raises(NonUniqueStationaryError):
            stationary_distribution(np.eye(2))

    def test_reducible_rejected(self):
        A = np.array([[1.0, 0.0], [0.5, 0.5]])
        with pytest.raises(NonUniqueStationaryError):
            stationary_distribution(A)


class TestRandomHmm:
    def test_exhausted_margin_is_named(self):
        # at r=10 nearly every uniform A has a singular value below the
        # margin; the refusal names that cause and counts each one
        with pytest.raises(IllConditionedError) as info:
            random_hmm(trial_rng(0, 0), 10, 3, max_attempts=5)
        assert str(info.value) == (
            "no draw accepted in 5 attempts: 5 with sigma_min(A) and 0 with "
            "sigma_min(B) below 0.05, 0 with a non-simple unit eigenvalue"
        )

    def test_exhausted_stationarity_is_named(self, monkeypatch):
        def never_simple(A):
            raise NonUniqueStationaryError("unit eigenvalue is not simple")

        monkeypatch.setattr(sampling, "_HMM_SINGULAR_MARGIN", 0.0)
        monkeypatch.setattr(hmm, "_stationary", never_simple)
        with pytest.raises(NonUniqueStationaryError, match="4 with a non-simple"):
            random_hmm(trial_rng(0, 0), 3, 2, max_attempts=4)

    @pytest.mark.parametrize("max_attempts", [5, 5000])
    @pytest.mark.parametrize("kappa", [2, 3, 4])
    @pytest.mark.parametrize("r", range(2, 11))
    def test_same_draws_as_one_at_a_time(self, r, kappa, max_attempts):
        # at r >= 8 a model takes tens to hundreds of draws, so the accepted
        # one lies deep in a later batch and the generator must be rewound
        args = (r, kappa, max_attempts)
        for seed in range(3):
            expected = sampled(reference_random_hmm, trial_rng(seed, r), *args)
            assert sampled(random_hmm, trial_rng(seed, r), *args) == expected

    @pytest.mark.parametrize("max_attempts", [40, 5000])
    def test_batches_stay_within_the_entry_cap(self, monkeypatch, max_attempts):
        # at r = 9 two of the seeds are refused after 40 draws, in batches
        # growing to 16 when uncapped; the rewind makes the capped batches give
        # the same models, refusals and generator states
        r, kappa = 9, 3
        args, width = (r, kappa, max_attempts), r * r + r * kappa
        expected = [sampled(random_hmm, trial_rng(seed, r), *args) for seed in range(3)]
        batches, svd = [], np.linalg.svd

        def counted(a, *rest, **kwargs):
            if a.ndim == 3 and a.shape[1:] == (r, r):
                batches.append(len(a))
            return svd(a, *rest, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        monkeypatch.setattr(tensor_core, "ENTRY_CAP", 4 * width)
        assert [sampled(random_hmm, trial_rng(seed, r), *args) for seed in range(3)] == expected
        assert max(batches) == 4

    def test_same_refusal_counts_in_every_cause(self, monkeypatch):
        # with no chain accepted, 40 draws at r = kappa = 3 fill batches of 1,
        # 2, 4, 8, 16 and 9 and are rejected for all three causes
        def never_simple(A):
            raise NonUniqueStationaryError("unit eigenvalue is not simple")

        monkeypatch.setattr(hmm, "_stationary", never_simple)
        batched = sampled(random_hmm, trial_rng(1, 0), 3, 3, 40)
        assert batched == sampled(reference_random_hmm, trial_rng(1, 0), 3, 3, 40)
        assert batched[0] == (
            IllConditionedError,
            "no draw accepted in 40 attempts: 5 with sigma_min(A) and 10 with "
            "sigma_min(B) below 0.05, 25 with a non-simple unit eigenvalue",
        )

    @pytest.mark.parametrize("r, kappa", [(0, 2), (3, 0)])
    def test_empty_model_refused(self, r, kappa):
        name = "r" if r == 0 else "kappa"
        with pytest.raises(InputError, match=f"^{name} must be a whole number >= 1, got 0$"):
            random_hmm(trial_rng(0, 0), r, kappa)


class TestTimeReversal:
    def test_symmetric_chain_unchanged(self):
        A = np.array([[0.2, 0.8], [0.8, 0.2]])
        model = HiddenMarkovModel(A=A, B=np.eye(2))
        assert np.allclose(model.pi, [0.5, 0.5])
        assert np.allclose(model.A_rev, A)

    def test_reversible_example(self):
        A = np.array([[0.9, 0.1], [0.3, 0.7]])
        model = HiddenMarkovModel(A=A, B=np.eye(2))
        assert np.allclose(model.pi, [0.75, 0.25])
        # entrywise: A'[i, j] = pi_j A[j, i] / pi_i
        expected = np.array(
            [
                [0.75 * 0.9 / 0.75, 0.25 * 0.3 / 0.75],
                [0.75 * 0.1 / 0.25, 0.25 * 0.7 / 0.25],
            ]
        )
        assert np.allclose(model.A_rev, expected)
        assert np.allclose(model.A_rev, A)  # this chain is reversible

    def test_involution_and_stationarity(self):
        model = random_hmm(trial_rng(40, 0), 3, 2)
        A_rev = model.A_rev
        assert np.allclose(A_rev.sum(axis=1), 1.0)
        assert np.abs(model.pi @ A_rev - model.pi).max() <= 1e-12
        twice = HiddenMarkovModel(A=A_rev, B=model.B)
        assert np.abs(twice.pi - model.pi).max() <= 1e-12
        assert np.abs(twice.A_rev - model.A).max() <= 1e-12

    def test_runs_once_per_model(self, monkeypatch):
        calls, reversed_chain = [], hmm._reversed_chain

        def counting(A, pi):
            calls.append(1)
            return reversed_chain(A, pi)

        monkeypatch.setattr(hmm, "_reversed_chain", counting)
        model = two_state_model()
        assert len(calls) == 1
        conditional_blocks(model, 2)
        window_tensor(model, 2)
        hmm_certificate(model, 2)
        assert len(calls) == 1
        assert model.A_rev.tobytes() == reversed_chain(model.A, model.pi).tobytes()
        assert not model.A_rev.flags.writeable


class TestMinWindow:
    def test_binary_base_case(self):
        assert min_window(2, 2) == 1

    @pytest.mark.parametrize("r", [2, 3, 4, 5, 6])
    def test_binary_window_is_2r_minus_1(self, r):
        k = min_window(r, 2)
        assert k == r - 1
        assert 2 * k + 1 == 2 * r - 1

    def test_ternary(self):
        assert min_window(5, 3) == 2

    def test_nonincreasing_in_kappa(self):
        for r in range(2, 9):
            ks = [min_window(r, kappa) for kappa in range(2, 7)]
            assert all(a >= b for a, b in zip(ks, ks[1:]))

    def test_search_equals_the_linear_scan(self):
        for kappa in range(2, 7):
            k = 1
            for r in range(1, 2001):
                while math.comb(k + kappa - 1, kappa - 1) < r:
                    k += 1
                assert min_window(r, kappa) == k

    def test_huge_class_count(self):
        assert min_window(10**400, 2) == 10**400 - 1


class TestConditionalBlocks:
    def test_k1_base_case(self):
        model = random_hmm(trial_rng(41, 0), 2, 2)
        B1, B2 = conditional_blocks(model, 1)
        assert np.allclose(B1, model.A_rev @ model.B)
        assert np.allclose(B2, model.A @ model.B)

    def test_identity_chain_gives_khatri_rao_power(self):
        # the identity transition lies outside the model class (no unique
        # stationary law), so the recursion is exercised directly
        B = np.array([[0.8, 0.2], [0.4, 0.6]])
        pi = np.array([0.5, 0.5])
        eye = np.eye(2)
        A_rev = hmm._reversed_chain(eye, pi)
        k = 3
        X1, X2 = A_rev @ B, eye @ B
        for _ in range(k - 1):
            X1 = A_rev @ khatri_rao([B, X1])
            X2 = eye @ khatri_rao([B, X2])
        power = khatri_rao([B, B, B])
        assert np.allclose(X1, power)
        assert np.allclose(X2, power)

    @pytest.mark.parametrize("r, kappa, k", [(2, 2, 1), (3, 2, 4), (8, 2, 7), (9, 3, 3), (5, 4, 2)])
    def test_stacked_recursion_equals_one_chain_at_a_time(self, r, kappa, k):
        # to the bit: both blocks are carried as one stack of two
        model = random_hmm(trial_rng(41, 10 * r + kappa), r, kappa, max_attempts=5000)
        X1, X2 = model.A_rev @ model.B, model.A @ model.B
        for _ in range(k - 1):
            X1 = model.A_rev @ khatri_rao([model.B, X1])
            X2 = model.A @ khatri_rao([model.B, X2])
        B1, B2 = conditional_blocks(model, k)
        assert B1.tobytes() == X1.tobytes() and B2.tobytes() == X2.tobytes()

    def test_rows_are_distributions(self):
        model = random_hmm(trial_rng(41, 1), 3, 2)
        B1, B2 = conditional_blocks(model, 3)
        assert np.allclose(B1.sum(axis=1), 1.0)
        assert np.allclose(B2.sum(axis=1), 1.0)
        assert B1.min() >= 0.0

    def test_against_path_oracle(self):
        model = random_hmm(trial_rng(41, 2), 2, 2)
        B1, B2 = conditional_blocks(model, 2)
        O1, O2 = oracle_blocks(model, 2)
        assert np.abs(B1 - O1).max() <= 1e-13
        assert np.abs(B2 - O2).max() <= 1e-13

    def test_entry_cap(self, monkeypatch):
        # each block has r * kappa^k entries: at the cap it is built, above refused
        model = random_hmm(trial_rng(41, 3), 2, 2)
        monkeypatch.setattr(tensor_core, "ENTRY_CAP", 16)
        assert conditional_blocks(model, 3)[0].shape == (2, 8)
        monkeypatch.setattr(tensor_core, "ENTRY_CAP", 15)
        with pytest.raises(InputError, match="^window block has 16 entries, cap is 15$"):
            conditional_blocks(model, 3)


class TestWindowTensor:
    def test_total_mass(self):
        model = random_hmm(trial_rng(42, 0), 2, 3)
        T = window_tensor(model, 2)
        assert abs(T.sum() - 1.0) <= 1e-12

    def test_against_path_oracle(self):
        model = random_hmm(trial_rng(42, 1), 2, 2)
        k = 1
        T = window_tensor(model, k)
        J = path_joint(model, 3)  # axes (X_0, X_1, X_2)
        oracle = J.transpose(0, 2, 1)  # (past, future, center)
        assert np.abs(T - oracle).max() <= 1e-13

    def test_marginal_is_stationary_emission_law(self):
        model = random_hmm(trial_rng(42, 2), 3, 2)
        T = window_tensor(model, 2)
        assert np.allclose(T.sum(axis=(0, 1)), model.pi @ model.B)


class TestCertificate:
    def test_generic_models_hold(self):
        for t in range(100):
            model = random_hmm(trial_rng(43, t), 2, 2)
            assert hmm_certificate(model, 1).holds

    def test_duplicate_emission_rows_fail(self):
        A = np.array([[0.9, 0.1], [0.3, 0.7]])
        B = np.array([[0.4, 0.6], [0.4, 0.6]])
        model = HiddenMarkovModel(A=A, B=B)
        cert = hmm_certificate(model, 1)
        assert not cert.holds
        assert cert.kruskal_ranks[2] == 1

    def test_window_too_short_fails(self):
        # below the bound the monomial count caps the block rank; shown on the
        # identity-chain witness with prime Vandermonde emission rows
        r, kappa = 3, 2
        assert min_window(r, kappa) == 2
        vals = np.array([2.0, 3.0])
        B = np.vander(vals, N=r, increasing=True).T
        B1 = np.eye(r) @ B  # k = 1 recursion collapses to B itself
        assert numerical_rank(B1) < r
        # and on a valid random model: kappa^k = 2 columns cannot carry rank 3
        model = random_hmm(trial_rng(43, 200), 3, 2)
        assert not hmm_certificate(model, 1).holds
        assert hmm_certificate(model, 2).holds


class TestRecoverHmm:
    def test_round_trip_2_2(self):
        model = random_hmm(trial_rng(44, 0), 2, 2)
        T = window_tensor(model, 1)
        A, B, pi = recover_hmm(T, 2, 2, 1, seed=0, tol=1e-6)
        align = align_hmm((A, B, pi), (model.A, model.B, model.pi))
        assert align.max_abs_error <= 1e-6

    def test_near_identity_chain(self):
        A = np.array([[0.99, 0.01], [0.01, 0.99]])
        B = np.array([[0.8, 0.2], [0.3, 0.7]])
        model = HiddenMarkovModel(A=A, B=B)
        T = window_tensor(model, 1)
        A_hat, B_hat, pi_hat = recover_hmm(T, 2, 2, 1, seed=0, tol=1e-6)
        align = align_hmm((A_hat, B_hat, pi_hat), (A, B, model.pi))
        assert align.max_abs_error <= 1e-6

    def test_round_trip_3_3(self):
        model = random_hmm(trial_rng(44, 1), 3, 3)
        T = window_tensor(model, 1)
        A, B, pi = recover_hmm(T, 3, 3, 1, seed=0, tol=1e-6)
        align = align_hmm((A, B, pi), (model.A, model.B, model.pi))
        assert align.max_abs_error <= 1e-6

    def test_round_trip_k2(self):
        model = random_hmm(trial_rng(44, 2), 2, 2)
        T = window_tensor(model, 2)
        A, B, pi = recover_hmm(T, 2, 2, 2, seed=0, tol=1e-6)
        align = align_hmm((A, B, pi), (model.A, model.B, model.pi))
        assert align.max_abs_error <= 1e-6

    def test_round_trip_nine_states(self):
        model = random_hmm(trial_rng(45, 0), 9, 3)
        k = min_window(9, 3)
        A, B, pi = recover_hmm(window_tensor(model, k), 9, 3, k, seed=0, tol=1e-6)
        align = align_hmm((A, B, pi), (model.A, model.B, model.pi))
        assert align.max_abs_error <= 1e-6
        p = align.permutation
        assert np.abs(A[np.ix_(p, p)] - model.A).max() <= align.max_abs_error

    @pytest.mark.parametrize("where", ["A", "B"])
    def test_alignment_error_keeps_nan(self, where):
        # one NaN in a recovered A or B makes the error NaN, never a match
        model = random_hmm(trial_rng(45, 1), 3, 2)
        recovered = {"A": model.A.copy(), "B": model.B.copy()}
        recovered[where][1, 0] = np.nan
        align = align_hmm((recovered["A"], recovered["B"], model.pi), (model.A, model.B, model.pi))
        assert np.isnan(align.max_abs_error)

    def test_rank_deficient_emission_product_is_refused(self):
        # at k = 1 the emission-block product is the third factor, whose third
        # row is the mean of the other two
        rng = np.random.default_rng(0)
        a, b = rng.dirichlet(np.ones(3), size=2)
        M1, M2 = (rng.dirichlet(np.ones(3), size=3) for _ in range(2))
        T = triple_product(np.full((3, 1), 1 / 3) * M1, M2, np.array([a, b, (a + b) / 2]))
        with pytest.raises(
            IllConditionedError,
            match="^emission-block product is rank deficient; transition solve aborted$",
        ):
            recover_hmm(T, 3, 3, 1, seed=0)

    def test_latent_class_tensor_misses_row_sums(self):
        model = random_latent_class(trial_rng(0, 0), 2, (4, 4, 2))
        with pytest.raises(
            IllConditionedError,
            match=r"^solved transition matrix misses row sums by 0\.0144 > 1e-08$",
        ):
            recover_hmm(joint_distribution(model), 2, 2, 2, seed=0)

    def test_signed_transition_matrix_is_refused(self):
        # the future block is A (B (x) M) with M = A B, as in a window law,
        # but A has the entry -0.1, so the solve meets its row sums exactly
        A = np.array([[1.1, -0.1], [0.3, 0.7]])
        B = np.array([[0.6, 0.4], [0.4, 0.6]])
        F1 = np.array([[0.4, 0.3, 0.2, 0.1], [0.1, 0.2, 0.3, 0.4]])
        F2 = A @ khatri_rao([B, A @ B])
        T = triple_product(np.full((2, 1), 0.5) * F1, F2, B)
        assert T.min() >= 0.0
        with pytest.raises(
            IllConditionedError,
            match="^solved transition matrix has entries below -1e-08$",
        ):
            recover_hmm(T, 2, 2, 2, seed=0)


class TestRecoveryWindow:
    def test_smallest_window_with_twice_r_columns(self):
        for r in range(1, 40):
            for kappa in range(2, 7):
                j = recovery_window(r, kappa)
                assert kappa**j >= 2 * r
                assert j == 1 or kappa ** (j - 1) < 2 * r

    @pytest.mark.parametrize("r", [6, 7, 8])
    def test_binary_paper_window_is_answered(self, r):
        k = min_window(r, 2)
        assert recovery_window(r, 2) < k
        for t in range(8):
            model = random_hmm(trial_rng(28, t), r, 2, max_attempts=5000)
            answer = recover_hmm(window_tensor(model, k), r, 2, k, seed=t)
            assert align_hmm(answer, (model.A, model.B, model.pi)).max_abs_error <= 1e-5

    def test_law_the_full_decomposition_refuses_is_answered(self):
        # an r=8 binary model of the hmm-recover benchmark pools (seed 2, slot
        # 2, model 18): its 128x256 unfolding at the paper window falls below
        # the rank cutoff, its 16x32 one at the recovery window does not
        rng = np.random.default_rng([2, 2, 18])
        model = random_hmm(rng, 8, 2, max_attempts=5000)
        seed = int(rng.integers(2**32))
        k = min_window(8, 2)
        T = window_tensor(model, k)
        with pytest.raises(RankDeficientError, match="^mode-1 unfolding has rank below r=8$"):
            decompose3(T, 8, seed=seed)
        answer = recover_hmm(T, 8, 2, k, seed=seed)
        assert align_hmm(answer, (model.A, model.B, model.pi)).max_abs_error <= 1e-5

    def test_law_check_refuses_a_law_with_the_same_marginal(self):
        # moving mass within one fiber of the marginal at j keeps that
        # marginal, and so the answer found at j, but not the law at k
        r, kappa, k = 6, 2, 5
        j = recovery_window(r, kappa)
        model = random_hmm(trial_rng(28, 60), r, kappa)
        T = window_tensor(model, k)
        recover_hmm(T, r, kappa, k, seed=0)
        m = kappa ** (k - j)
        cells = T.reshape(kappa**j, m, kappa**j, m, kappa).copy()
        moved = cells[1, 0, 2, 0, 1] / 2
        cells[1, 0, 2, 0, 1] -= moved
        cells[1, m - 1, 2, m - 1, 1] += moved
        T_moved = cells.reshape(T.shape)
        assert T_moved.min() >= 0.0 and abs(T_moved.sum() - 1.0) <= 1e-15
        marginal = hmm._window_marginal(T, kappa, k, j)
        assert np.abs(hmm._window_marginal(T_moved, kappa, k, j) - marginal).max() <= (
            16 * np.finfo(float).eps * marginal.max()
        )
        with pytest.raises(
            DegenerateSpectrumError,
            match=r"^window law rebuilt at k=5 from the answer at j=4 misses the input "
            r"by \S+ > tol \* max entry = \S+$",
        ):
            recover_hmm(T_moved, r, kappa, k, seed=0)


@given(r=st.integers(2, 8), kappa=st.integers(2, 4), data=st.data())
def test_window_marginal_is_the_narrower_window_law(r, kappa, data):
    k = data.draw(st.integers(1, {2: 6, 3: 4, 4: 3}[kappa]), label="k")
    j = data.draw(st.integers(1, k), label="j")
    model = random_hmm(trial_rng(data.draw(st.integers(0, 999)), r), r, kappa, max_attempts=5000)
    law = window_tensor(model, j)
    marginal = hmm._window_marginal(window_tensor(model, k), kappa, k, j)
    # both sides are sums of products of (2k + 1) probabilities, and the
    # marginal adds up kappa^(2(k - j)) entries of the wider law
    rounding = (2 * k + 1 + kappa ** (2 * (k - j))) * np.finfo(law.dtype).eps
    assert np.abs(marginal - law).max() <= rounding * law.max()


def foreign_past_block_law(r, kappa, k, rng):
    """``triple_product(pi * X, B2, B)``: a chain's future block ``B2`` and
    emissions ``B`` at half-window ``k``, with a random stochastic past block
    ``X`` in place of the chain's own.

    The tensor has exact rank r, so it decomposes, and ``A`` solves exactly
    from ``B2`` and ``B``; but no chain has this law, since ``X`` is not the
    past block that ``A``, ``B`` and ``pi`` make.
    """
    model = random_hmm(rng, r, kappa, max_attempts=5000)
    _, B2 = conditional_blocks(model, k)
    X = random_stochastic(rng, r, kappa**k)
    return triple_product(model.pi[:, None] * X, B2, model.B)


@given(r=st.integers(2, 6), kappa=st.integers(2, 4), seed=st.integers(0, 999))
@example(r=4, kappa=2, seed=0)  # decomposed whole: j == k == 3
@example(r=6, kappa=2, seed=0)  # decomposed at j = 4 < k = 5
def test_foreign_past_block_is_never_answered(r, kappa, seed):
    k = min_window(r, kappa)
    j = min(k, recovery_window(r, kappa))
    T = foreign_past_block_law(r, kappa, k, trial_rng(seed, r))
    with pytest.raises(
        DegenerateSpectrumError,
        match=f"^window law rebuilt at k={k} from the answer at j={j} misses the input by ",
    ):
        recover_hmm(T, r, kappa, k, seed=seed)


def test_whole_float_k_answers_as_its_int():
    T = window_tensor(random_hmm(0, 2, 2), 2)
    for got, want in zip(recover_hmm(T, 2, 2, 2.0, seed=0), recover_hmm(T, 2, 2, 2, seed=0)):
        assert got.tobytes() == want.tobytes()


def test_whole_float_kappa_answers_as_its_int():
    T = window_tensor(random_hmm(0, 3, 2), 2)
    for got, want in zip(recover_hmm(T, 3, 2.0, 2, seed=0), recover_hmm(T, 3, 2, 2, seed=0)):
        assert got.tobytes() == want.tobytes()


#: recover_hmm's (A, B, pi), hashed, for windows it decomposes whole (j == k):
#: the kappa=3 sizes of the hmm-recover benchmark and half-windows up to 2,
#: recorded before recovery moved to a marginal of the window law.  Case ``i``
#: draws its model from ``trial_rng(28, i)`` and decomposes with seed ``i``.
GOLDEN_HMM_RECOVERIES = [
    (8, 3, 3, "79f446316f8f2a5afe6041d0453c06c2484eca4523d995a4dbe39550d8e28a17"),
    (9, 3, 3, "1cdd8b416edf6fdac4f8092d0f0ff1dd885cb892ea43059c1321452d31524e35"),
    (10, 3, 3, "e35c41b5ac0eb01e58300eb7089d187c658d0202cf205c17bcf38b4f1db005d0"),
    (2, 2, 1, "1f3de0d9d45dc03c20f8def788b9fdb6bad2e18e229576a65107fdfca5687775"),
    (3, 3, 1, "5ad32c256fe843f665966a0fdad176bdc858dd9d737a69ed322d82ebc11774eb"),
    (2, 2, 2, "bbb800b1be3a91e892c519965c2e46f84a3aa0b10e48b521f3e4567bfe2370a9"),
    (3, 2, 2, "11f363c4643621ff333623252aea4f663aac35acb6e56c583b3f2cb69ec469d3"),
    (4, 3, 2, "e0f147e61773d366a33bfa6ba0286257abea680ee0c1e2b13abc599b1cbc303d"),
    (6, 3, 2, "a709fd23f049026bc1f3545c5a61d8bd4b56134dffd36e552d2ea2cf41a46cc9"),
    (4, 2, 3, "39e05928c618ef09ad35b8f95547d42ac105155ddcc617d6cc04a2b0da155602"),
    (5, 2, 4, "643576e41e1b4cb8ea8dc6759aeee82d7463045f5d0d8bc72cde5e740ddd3c8d"),
]


@pytest.mark.parametrize(
    "i", range(len(GOLDEN_HMM_RECOVERIES)),
    ids=[f"r{r}-kappa{kappa}-k{k}" for r, kappa, k, _ in GOLDEN_HMM_RECOVERIES],
)
def test_recovery_at_the_whole_window_keeps_its_bytes(i):
    r, kappa, k, digest = GOLDEN_HMM_RECOVERIES[i]
    assert recovery_window(r, kappa) >= k
    model = random_hmm(trial_rng(28, i), r, kappa, max_attempts=5000)
    got = hashlib.sha256()
    for x in recover_hmm(window_tensor(model, k), r, kappa, k, seed=i):
        got.update(x.tobytes())
    assert got.hexdigest() == digest


#: recover_hmm's (A, B, pi), hashed, for windows it recovers from their marginal
#: (j < k): the kappa=2 sizes of the hmm-recover benchmark at their minimal
#: window.  Case ``i`` draws its model from ``trial_rng(48, i)`` and decomposes
#: with seed ``i``.
GOLDEN_MARGINAL_RECOVERIES = [
    (6, 2, "5750f1653770b5439474bd0bb43a227aa01ce5d438a011f906c3aa90a0b4810b"),
    (7, 2, "8deb44744dc6981b5cd4b08938c7ab485d3b1dc92f21abcbce09d9454e4c2c5c"),
    (8, 2, "4f3f76b942b7b81aa51ad0a6733c26e5836ec8fbadf86028b1bd66d2bd8700de"),
]


def marginal_recovery_digest(i: int) -> str:
    r, kappa, _ = GOLDEN_MARGINAL_RECOVERIES[i]
    k = min_window(r, kappa)
    assert recovery_window(r, kappa) < k
    model = random_hmm(trial_rng(48, i), r, kappa, max_attempts=5000)
    got = hashlib.sha256()
    for x in recover_hmm(window_tensor(model, k), r, kappa, k, seed=i):
        got.update(x.tobytes())
    return got.hexdigest()


@pytest.mark.parametrize(
    "i", range(len(GOLDEN_MARGINAL_RECOVERIES)),
    ids=[f"r{r}-kappa{kappa}" for r, kappa, _ in GOLDEN_MARGINAL_RECOVERIES],
)
def test_recovery_from_the_marginal_keeps_its_bytes(i):
    assert marginal_recovery_digest(i) == GOLDEN_MARGINAL_RECOVERIES[i][2]


#: (call, error, exact message or pattern[, builder]) for each input refusal of
#: the module
HMM_REFUSALS = {
    "transition-square": (
        lambda: stationary_distribution(np.full((2, 3), 1 / 3)),
        InputError, "transition matrix must be square, got (2, 3)",
    ),
    "model-A-square": (
        lambda: HiddenMarkovModel(A=np.full((2, 3), 1 / 3), B=np.full((2, 2), 0.5)),
        InputError, "transition matrix must be square, got (2, 3)",
    ),
    "model-B-rows": (
        lambda: HiddenMarkovModel(A=np.full((2, 2), 0.5), B=np.full((3, 2), 0.5)),
        InputError, "B has 3 rows, expected r=2",
    ),
    "window-arguments": (
        lambda: min_window(2, 1), InputError, "kappa must be a whole number >= 2, got 1",
    ),
    "window-nan-classes": (
        lambda: min_window(np.nan, 2), InputError, "r must be a whole number >= 1, got nan",
    ),
    "recovery-window-infinite-kappa": (
        lambda: recovery_window(3, np.inf),
        InputError, "kappa must be a whole number >= 2, got inf",
    ),
    "recovery-fractional-classes": (
        lambda: recover_hmm(window_tensor(two_state_model(), 2), 2.5, 2, 2),
        InputError, "r must be a whole number >= 1, got 2.5",
    ),
    "recovery-tol-nan": (
        lambda: recover_hmm(window_tensor(two_state_model(), 2), 2, 2, 2, tol=np.nan),
        InputError, "tol must be a number >= 0, got nan",
    ),
    "sampler-fractional-classes": (
        lambda: random_hmm(0, 2.5, 2), InputError, "r must be a whole number >= 1, got 2.5",
    ),
    "sampler-huge-classes": (
        lambda: random_hmm(0, 10**400, 2),
        InputError, "HMM draw has at least 2^2657 entries, cap is 16777216",
    ),
    "sampler-fractional-attempts": (
        lambda: random_hmm(0, 2, 2, max_attempts=2.5),
        InputError, "max_attempts must be a whole number >= 0, got 2.5",
    ),
    "half-window": (
        lambda: conditional_blocks(two_state_model(), 0),
        InputError, "k must be a whole number >= 1, got 0",
    ),
    "recovery-k-zero": (
        # a (1, 1, 2) law has the shape of half-window 0 for one state
        lambda: recover_hmm(np.array([[[0.5, 0.5]]]), 1, 2, 0),
        InputError, "k must be a whole number >= 1, got 0",
    ),
    "recovery-k-zero-two-states": (
        lambda: recover_hmm(np.array([[[0.5, 0.5]]]), 2, 2, 0),
        InputError, "k must be a whole number >= 1, got 0",
    ),
    "recovery-k-fraction": (
        # 4 ** 2.5 = 32, so the shape check alone lets k = 2.5 through
        lambda: recover_hmm(np.full((32, 32, 4), 1 / 4096), 2, 4, 2.5),
        InputError, "k must be a whole number >= 1, got 2.5",
    ),
    "half-window-fraction": (
        lambda: conditional_blocks(two_state_model(), 1.5),
        InputError, "k must be a whole number >= 1, got 1.5",
    ),
    "whole-law-negative": (
        # at k = 2 recovery decomposes the law itself, and decompose3 checks it
        lambda: recover_hmm(np.full((4, 4, 2), -1 / 32), 2, 2, 2),
        InputError, "tensor has entries below -1e-12",
    ),
    "recovery-window-arguments": (
        lambda: recovery_window(2, 1),
        InputError, "kappa must be a whole number >= 2, got 1",
    ),
    "narrowed-law-negative": (
        # at k = 3 recovery runs on the marginal at j = 2, so the whole law is
        # checked first
        lambda: recover_hmm(np.full((8, 8, 2), -1 / 128), 2, 2, 3),
        InputError, "tensor has entries below -1e-12",
    ),
    "foreign-past-block": (
        # decomposed whole (j == k) and answered; only the law rebuilt from
        # the answer shows that the tensor is no window law
        lambda: recover_hmm(foreign_past_block_law(4, 2, 3, trial_rng(30, 0)), 4, 2, 3),
        DegenerateSpectrumError,
        re.compile(
            r"^window law rebuilt at k=3 from the answer at j=3 misses the input "
            r"by \S+ > tol \* max entry = \S+$"
        ),
    ),
    "window-shape": (
        lambda: recover_hmm(np.zeros((2, 2, 2)), 2, 2, 2),
        InputError,
        "window tensor shape (2, 2, 2) does not match "
        "(kappa^k, kappa^k, kappa) = (4, 4, 2)",
    ),
    "align-shapes": (
        lambda: align_hmm(
            (np.eye(2), np.eye(2), np.ones(2) / 2), (np.eye(3), np.eye(3), np.ones(3) / 3)
        ),
        InputError, "recovered and reference shapes differ",
    ),
    "window-block-cap": (
        lambda: conditional_blocks(two_state_model(), 3),
        InputError, "window block has 16 entries, cap is 15", (hmm, "_khatri_rao"),
    ),
    "window-tensor-cap": (
        # the blocks (8 entries each) would fit, the 2^5-entry tensor does not
        lambda: window_tensor(two_state_model(), 2),
        InputError, "window tensor has 32 entries, cap is 15", (hmm, "_window_blocks"),
    ),
}


@pytest.mark.parametrize("case", list(HMM_REFUSALS))
def test_refusal_is_named(case, refuses):
    refuses(*HMM_REFUSALS[case])
