import contextlib
import hashlib
import itertools
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st
from hypothesis.extra.numpy import arrays

from latentid import recovery
from latentid.errors import (
    DegenerateSpectrumError,
    IllConditionedError,
    InputError,
    LatentIdError,
    NegativeWeightsError,
    RankDeficientError,
)
from latentid.latent_class import LatentClassModel, joint_distribution, tripartition_search
from latentid.recovery import (
    _clean_rows,
    align_permutation,
    decompose3,
    recover_latent_class,
)
from latentid.hmm import conditional_blocks, min_window, window_tensor
from latentid.sampling import random_hmm, random_latent_class, trial_rng
from latentid.tensor_core import (
    khatri_rao,
    numerical_rank,
    rank_from_singular_values,
    triple_product,
)


def reference_model():
    return LatentClassModel(
        pi=np.array([0.4, 0.6]),
        emissions=(
            np.array([[0.9, 0.1], [0.2, 0.8]]),
            np.array([[0.7, 0.3], [0.3, 0.7]]),
            np.array([[0.6, 0.4], [0.1, 0.9]]),
        ),
    )


def near_pair_model(t: int) -> LatentClassModel:
    """r=3 on 4x4x4 whose classes 0 and 1 have rows 1e-7 apart in M1 and M2."""
    m = random_latent_class(trial_rng(50, t), 3, (4, 4, 4))
    M1, M2, M3 = (M.copy() for M in m.emissions)
    for M in (M1, M2):
        M[1] = (1.0 - 1e-7) * M[0] + 1e-7 * M[1]
    return LatentClassModel(pi=m.pi, emissions=(M1, M2, M3))


def factored_shapes(monkeypatch, T, r: int) -> list[tuple[int, ...]]:
    """Shapes of the matrices larger than r x r that decompose3 factors with an SVD."""
    shapes = []
    svd = np.linalg.svd

    def counting_svd(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    decompose3(T, r, seed=0, tol=1e-6)
    monkeypatch.undo()
    return [sh for sh in shapes if sh[0] > r]


def solved_shapes(monkeypatch, T, r: int) -> list[tuple[int, ...]]:
    """Shapes of both operands of every least-squares solve in decompose3."""
    shapes = []
    lstsq = np.linalg.lstsq

    def recording_lstsq(a, b, *args, **kwargs):
        shapes.extend([np.shape(a), np.shape(b)])
        return lstsq(a, b, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", recording_lstsq)
    decompose3(T, r, seed=0, tol=1e-6)
    monkeypatch.undo()
    return shapes


class TestDecompose3:
    def test_rank_one(self):
        m1 = np.array([[0.2, 0.8]])
        m2 = np.array([[0.5, 0.5]])
        m3 = np.array([[0.3, 0.3, 0.4]])
        T = triple_product(m1, m2, m3)
        rec = decompose3(T, 1)
        assert np.allclose(rec.pi, [1.0])
        assert np.allclose(rec.factors[0], m1)
        assert np.allclose(rec.factors[1], m2)
        assert np.allclose(rec.factors[2], m3)
        assert rec.residual <= 1e-14

    def test_two_class_round_trip(self):
        m = reference_model()
        T = joint_distribution(m)
        rec = decompose3(T, 2, seed=0)
        align = align_permutation((rec.pi, rec.factors), (m.pi, list(m.emissions)))
        assert align.max_abs_error <= 1e-9

    def test_degenerate_third_factor_never_silent(self, monkeypatch):
        # two classes indistinguishable on the third variable: eigenvalue
        # ratios collide for every weight draw
        m = LatentClassModel(
            pi=np.array([0.4, 0.6]),
            emissions=(
                np.array([[0.9, 0.1], [0.2, 0.8]]),
                np.array([[0.7, 0.3], [0.3, 0.7]]),
                np.array([[0.5, 0.5], [0.5, 0.5]]),
            ),
        )
        T = joint_distribution(m)
        monkeypatch.setattr(recovery, "MAX_RETRIES", 5)
        with pytest.raises((DegenerateSpectrumError, RankDeficientError)):
            decompose3(T, 2, seed=0)

    def test_pencil_without_real_eigenbasis_refused_at_spectrum(self, monkeypatch):
        # this 3x3x2 tensor's slice pencil has complex eigenvalues (real rank
        # above 3), so every draw stops at the spectrum stage
        T = np.random.default_rng(0).random((3, 3, 2))
        T /= T.sum()
        stages, weight_draw = [], recovery._weight_draw

        def recording(*args):
            out = weight_draw(*args)
            stages.append(out[0])
            return out

        monkeypatch.setattr(recovery, "_weight_draw", recording)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DegenerateSpectrumError) as info:
                decompose3(T, 3, seed=0)
        assert str(info.value).endswith("(furthest stage: spectrum)")
        assert stages == ["spectrum"] * (recovery.MAX_RETRIES + 1)

    @pytest.mark.parametrize(
        "a2, b2, c2, eps",
        [((1, -1, 0), (1, 0, -1), (1, 2, 0), 0.01), ((1, 2, 0), (1, -1, 0), (1, 0, 2), 0.005)],
        ids=["first-mode", "second-mode"],
    )
    def test_direction_summing_to_zero_refused_at_spectrum(self, a2, b2, c2, eps):
        # the second rank-one term's factor in the named mode sums to zero, so
        # its recovered direction there cannot be scaled to a distribution: every
        # draw stops at that mode's row-sum floor
        T = triple_product(
            np.array([np.ones(3) / 27, eps * np.array(a2)]),
            np.array([np.ones(3), b2]),
            np.array([np.ones(3), c2]),
        )
        with pytest.raises(DegenerateSpectrumError, match=r"\(furthest stage: spectrum\)$"):
            decompose3(T, 2, seed=0)

    def test_rank_deficient_first_factor(self):
        m = LatentClassModel(
            pi=np.array([0.4, 0.6]),
            emissions=(
                np.array([[0.5, 0.5], [0.5, 0.5]]),
                np.array([[0.7, 0.3], [0.3, 0.7]]),
                np.array([[0.6, 0.4], [0.1, 0.9]]),
            ),
        )
        T = joint_distribution(m)
        with pytest.raises(RankDeficientError):
            decompose3(T, 2, seed=0)

    def test_rank_deficient_second_factor_only(self):
        # first factor of full row rank, second of rank 2 < r = 3
        rng = np.random.default_rng(7)
        M2 = rng.dirichlet(np.ones(4), size=3)
        M2[2] = 0.3 * M2[0] + 0.7 * M2[1]
        m = LatentClassModel(
            pi=np.array([0.2, 0.3, 0.5]),
            emissions=(
                rng.dirichlet(np.ones(4), size=3),
                M2,
                rng.dirichlet(np.ones(3), size=3),
            ),
        )
        with pytest.raises(RankDeficientError, match="mode-2"):
            decompose3(joint_distribution(m), 3, seed=0)

    def test_unfolding_refusals_follow_unfolding_ranks(self, monkeypatch):
        # refuses for rank exactly when numerical_rank(T1) < r or
        # numerical_rank(T2) < r, naming the first deficient mode
        rng = np.random.default_rng(8)

        def degrade(M, how):
            M = M.copy()
            if how == "duplicate":
                M[-1] = M[0]
            elif how == "mixture":
                w = rng.dirichlet(np.ones(M.shape[0] - 1))
                M[-1] = w @ M[:-1]
            elif how == "near":  # rows 1e-3 apart: full rank
                M[-1] = 0.999 * M[0] + 0.001 * M[-1]
            return M

        hows = ["generic", "duplicate", "mixture", "near"]
        monkeypatch.setattr(recovery, "MAX_RETRIES", 3)
        seen = set()
        cases = itertools.product(range(2), itertools.product(hows, repeat=3))
        for t, (_, degradations) in enumerate(cases):
            r = int(rng.integers(2, 6))
            kappas = (
                r + int(rng.integers(0, 3)),
                r + int(rng.integers(0, 3)),
                int(rng.integers(2, 4)),
            )
            m = random_latent_class(trial_rng(30, t), r, kappas)
            emissions = tuple(map(degrade, m.emissions, degradations))
            T = joint_distribution(LatentClassModel(pi=m.pi, emissions=emissions))
            k1, k2, k3 = T.shape
            rank1 = numerical_rank(T.reshape(k1, k2 * k3))
            rank2 = numerical_rank(T.transpose(1, 0, 2).reshape(k2, k1 * k3))
            expected = "mode-1" if rank1 < r else "mode-2" if rank2 < r else None
            refused = None
            try:
                decompose3(T, r, seed=t)
            except RankDeficientError as err:
                if " unfolding " in str(err):
                    refused = str(err).split(" unfolding ")[0]
            except LatentIdError:
                pass
            assert refused == expected, (t, r, kappas, rank1, rank2)
            seen.add(expected)
        assert seen == {None, "mode-1", "mode-2"}

    def test_singular_slice_mixtures_are_ill_conditioned(self):
        # rows 1e-7 apart: some unfoldings fall below the rank rule, the
        # others pass it and leave every projected slice mixture singular
        ill = 0
        for t in range(12):
            T = joint_distribution(near_pair_model(t))
            k1, k2, k3 = T.shape
            unfoldings_pass = (
                numerical_rank(T.reshape(k1, k2 * k3)) == 3
                and numerical_rank(T.transpose(1, 0, 2).reshape(k2, k1 * k3)) == 3
            )
            with pytest.raises(LatentIdError) as info:
                decompose3(T, 3, seed=t)
            if unfoldings_pass:
                assert isinstance(info.value, IllConditionedError), (t, info.value)
                assert "last sigma_min/sigma_max = " in str(info.value)
                ill += 1
            else:
                assert isinstance(info.value, RankDeficientError), (t, info.value)
        assert ill >= 6

    def test_negative_weight_is_refused(self):
        # a signed mixture whose tensor is still a distribution: every draw
        # recovers the weight -0.3
        rng = np.random.default_rng(14)
        M1, M2, M3 = (rng.dirichlet(np.ones(3), size=3) for _ in range(3))
        T = triple_product(np.array([[0.7], [0.6], [-0.3]]) * M1, M2, M3)
        assert T.min() >= 0.0
        with pytest.raises(
            NegativeWeightsError,
            match=r"^recovered weights stayed negative beyond tol=1e-08 after 20 retries$",
        ):
            decompose3(T, 3, seed=0)

    def test_negative_factor_entry_is_refused(self):
        # positive weights, but one third-mode row has the entry -0.1
        rng = np.random.default_rng(2)
        M1, M2, M3 = (rng.dirichlet(np.ones(3), size=3) for _ in range(3))
        M3[0] = [1.1, 0.0, -0.1]
        T = triple_product(np.full((3, 1), 1 / 3) * M1, M2, M3)
        assert T.min() >= 0.0
        with pytest.raises(NegativeWeightsError, match=r"^recovered weights stayed negative"):
            decompose3(T, 3, seed=0)

    def test_one_svd_per_subspace(self, monkeypatch):
        # r=8, kappa=2 window tensor: 128 x 128 x 2, above the sketch gate.
        # Only the small sketch Q^T T1 ((r+8) x 256) and the projected tensor
        # (128 x r*k3) are factored; the other SVDs are of r x r slice mixtures.
        model = random_hmm(trial_rng(46, 0), 8, 2)
        T = window_tensor(model, min_window(8, 2))
        assert factored_shapes(monkeypatch, T, 8) == [(16, 256), (128, 16)]

    def test_third_factor_solved_in_core(self, monkeypatch):
        # the solve for pi * M3 has r*r rows, not k1*k2: not 16384 on the
        # 128 x 128 x 2 window law, nor 729 on a 27 x 27 x 3 latent-class tensor
        cases = [
            (8, window_tensor(random_hmm(trial_rng(46, 0), 8, 2), min_window(8, 2))),
            (3, joint_distribution(random_latent_class(trial_rng(47, 0), 3, (27, 27, 3)))),
        ]
        for r, T in cases:
            shapes = solved_shapes(monkeypatch, T, r)
            assert shapes and all(sh[0] <= r * r for sh in shapes), shapes

    @pytest.mark.parametrize(
        "kappas, expected",
        [((27, 27, 3), [(27, 81), (27, 9)]), ((729, 3, 3), [(729, 9)])],
    )
    def test_full_svd_below_sketch_gate(self, monkeypatch, kappas, expected):
        # 27 < 4 * (3 + 8), and 9 < 4 * (3 + 8) columns for the tall
        # unfolding: the mode-1 unfolding itself is factored
        T = joint_distribution(random_latent_class(trial_rng(47, 0), 3, kappas))
        assert factored_shapes(monkeypatch, T, 3) == expected

    def test_sketch_is_drawn_once_per_shape(self):
        # the range finder's test matrix is kept read-only per shape and gives
        # the bits of a fresh draw; one past the size bound is drawn every time
        T1 = np.random.default_rng(0).random((60, 300))
        recovery._sketch.cache_clear()
        first = recovery._mode1_basis(T1, 3)
        omega = recovery._sketch(300, 11)
        assert not omega.flags.writeable
        assert omega.tobytes() == np.random.default_rng(0).standard_normal((300, 11)).tobytes()
        again = recovery._mode1_basis(T1, 3)
        assert [a.tobytes() for a in again] == [a.tobytes() for a in first]
        info = recovery._sketch.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 2, 1)
        wide = np.random.default_rng(1).random((60, recovery._SKETCH_ENTRIES // 11 + 1))
        recovery._mode1_basis(wide, 3)
        assert recovery._sketch.cache_info().currsize == 1

    @pytest.mark.parametrize("r", [7, 8])
    def test_generator_seed_pays_only_for_weight_draws(self, r):
        # the sketch has its own generator: a caller's Generator advances by
        # the 2 * k3 normals of each weight draw and nothing else
        T = window_tensor(random_hmm(trial_rng(48, r), r, 2), min_window(r, 2))
        k3 = T.shape[2]
        for t in range(4):
            rng, ref = np.random.default_rng(t), np.random.default_rng(t)
            rec = decompose3(T, r, seed=rng)
            ref.standard_normal(2 * k3 * (rec.retries_used + 1))
            assert rng.standard_normal() == ref.standard_normal()

    def test_generator_seed_advances_every_retry_of_a_refusal(self, monkeypatch):
        T = joint_distribution(near_pair_model(2))
        rng, ref = np.random.default_rng(5), np.random.default_rng(5)
        monkeypatch.setattr(recovery, "MAX_RETRIES", 4)
        with pytest.raises(IllConditionedError):
            decompose3(T, 3, seed=rng)
        ref.standard_normal(2 * T.shape[2] * 5)
        assert rng.standard_normal() == ref.standard_normal()

    @pytest.mark.parametrize(
        "outcomes, error, text",
        [
            (
                [
                    ("residual", 3e-3),
                    ("negative", np.nan),
                    ("residual", 1e-3),
                    ("slice_rank", 1e-13),
                ],
                DegenerateSpectrumError,
                "(furthest stage: residual, smallest residual 0.001)",
            ),
            (
                [("spectrum", np.nan), ("negative", np.nan), ("slice_rank", 1e-13)],
                NegativeWeightsError,
                "stayed negative",
            ),
            (
                [("slice_rank", 1e-14), ("spectrum", np.nan), ("slice_rank", 1e-13)],
                DegenerateSpectrumError,
                "(furthest stage: spectrum)",
            ),
            (
                [("slice_rank", 1e-14), ("slice_rank", 1e-13)],
                IllConditionedError,
                "(last sigma_min/sigma_max = 1e-13)",
            ),
        ],
    )
    def test_refusal_named_after_furthest_stage(self, monkeypatch, outcomes, error, text):
        draws = iter(outcomes)
        monkeypatch.setattr(
            recovery, "_weight_draw", lambda *args: (*next(draws), None)
        )
        T = joint_distribution(reference_model())
        monkeypatch.setattr(recovery, "MAX_RETRIES", len(outcomes) - 1)
        with pytest.raises(error) as info:
            decompose3(T, 2)
        assert text in str(info.value)
        assert next(draws, None) is None

    def test_small_first_mode_rejected(self):
        T = np.full((2, 3, 3), 1.0 / 18)
        with pytest.raises(RankDeficientError):
            decompose3(T, 3)

    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_round_trip_many_seeds(self, r):
        kappas = (max(r, 4), max(r, 4), 3)
        for t in range(100):
            m = random_latent_class(trial_rng(10 + r, t), r, kappas)
            T = joint_distribution(m)
            rec = decompose3(T, r, seed=t)
            align = align_permutation((rec.pi, rec.factors), (m.pi, list(m.emissions)))
            assert align.max_abs_error <= 1e-8

    def test_seed_independence_up_to_relabeling(self):
        m = random_latent_class(trial_rng(20, 0), 3, (4, 4, 3))
        T = joint_distribution(m)
        rec_a = decompose3(T, 3, seed=1)
        rec_b = decompose3(T, 3, seed=2)
        align = align_permutation((rec_a.pi, rec_a.factors), (rec_b.pi, list(rec_b.factors)))
        assert align.max_abs_error <= 1e-8

    @pytest.mark.parametrize(
        "r, build",
        [
            (3, lambda: joint_distribution(random_latent_class(trial_rng(21, 0), 3, (4, 4, 3)))),
            # lopsided: the residual's Khatri-Rao factor is 9 wide, T1 is 729 x 9
            (3, lambda: joint_distribution(random_latent_class(trial_rng(21, 0), 3, (729, 3, 3)))),
            # the largest window law of the benchmark pools, 128 x 128 x 2
            (8, lambda: window_tensor(random_hmm(trial_rng(21, 0), 8, 2), min_window(8, 2))),
        ],
        ids=["lc-4x4x3", "lc-729x3x3", "hmm-128x128x2"],
    )
    def test_reported_residual_matches_reconstruction(self, r, build):
        T = build()
        rec = decompose3(T, r, seed=0)
        rebuilt = triple_product(
            rec.pi[:, None] * rec.factors[0], rec.factors[1], rec.factors[2]
        )
        expected = np.abs(rebuilt - T).max()
        assert abs(rec.residual - expected) <= 1e-12
        assert abs(rec.residual - expected) <= 1e-3 * rec.residual

    def test_two_seeds_agree_up_to_alignment(self):
        m = random_latent_class(trial_rng(22, 0), 3, (4, 4, 3))
        T = joint_distribution(m)
        rec_a = decompose3(T, 3, seed=5)
        rec_b = decompose3(T, 3, seed=6)
        align = align_permutation((rec_a.pi, rec_a.factors), (rec_b.pi, rec_b.factors))
        assert align.max_abs_error <= 1e-8


@st.composite
def tensors_above_sketch_gate(draw):
    """Rank-r stochastic tensors with k1 and k2*k3 at least 4 * (r + 8), and
    class weights spread over 10^-spread."""
    r = draw(st.integers(2, 8))
    gate = 4 * (r + 8)
    k1 = draw(st.integers(gate, gate + 40))
    k3 = draw(st.integers(2, 4))
    k2 = draw(st.integers(-(-gate // k3), -(-gate // k3) + 8))
    spread = draw(st.floats(0.0, 6.0))
    m = random_latent_class(draw(st.integers(0, 2**32 - 1)), r, (k1, k2, k3))
    pi = 10.0 ** (-spread * np.arange(r) / (r - 1))
    model = LatentClassModel(pi=pi / pi.sum(), emissions=m.emissions)
    return r, joint_distribution(model)


@st.composite
def window_laws_above_sketch_gate(draw):
    """HMM window laws, 64 x 64 x 2 and 128 x 128 x 2, with sigma_r / sigma_1 near 1e-8."""
    r = draw(st.sampled_from([7, 8]))
    model = random_hmm(draw(st.integers(0, 2**32 - 1)), r, 2, max_attempts=5000)
    return r, window_tensor(model, min_window(r, 2))


@given(case=st.one_of(tensors_above_sketch_gate(), window_laws_above_sketch_gate()))
def test_sketch_matches_full_svd(case):
    r, T = case
    T1 = T.reshape(T.shape[0], -1)
    U_full, s_full, _ = np.linalg.svd(T1, full_matrices=False)
    U1, s1 = recovery._mode1_basis(T1, r)
    assert min(T1.shape) >= recovery._SKETCH_GATE * (r + recovery._SKETCH_OVERSAMPLE)
    assert np.all(np.abs(s1[:r] - s_full[:r]) <= 1e-8 * s_full[:r])
    assert rank_from_singular_values(s1, T1.shape) == rank_from_singular_values(
        s_full, T1.shape
    )
    # sine of the largest principal angle between the two r-dimensional bases
    U_full = U_full[:, :r]
    sine = np.linalg.norm(U1 - U_full @ (U_full.T @ U1), 2)
    assert sine <= 1e-7


@st.composite
def latent_class_factors(draw):
    """Rank-r latent-class tensors with the M1, M2 and C = pi * M3 that made them."""
    r = draw(st.integers(2, 8))
    k1, k2 = draw(st.integers(r, 4 * (r + 8) + 8)), draw(st.integers(r, 40))
    k3 = draw(st.integers(2, 4))
    m = random_latent_class(draw(st.integers(0, 2**32 - 1)), r, (k1, k2, k3))
    M1, M2, M3 = m.emissions
    return r, joint_distribution(m), M1, M2, m.pi[:, None] * M3


@st.composite
def window_law_factors(draw):
    """r = 7, 8 binary HMM window laws with the M1, M2 and C = pi * M3 that made them."""
    r = draw(st.sampled_from([7, 8]))
    model = random_hmm(draw(st.integers(0, 2**32 - 1)), r, 2, max_attempts=5000)
    k = min_window(r, 2)
    B1, B2 = conditional_blocks(model, k)
    return r, window_tensor(model, k), B1, B2, model.pi[:, None] * model.B


@given(case=st.one_of(latent_class_factors(), window_law_factors()))
def test_core_least_squares_matches_full(case):
    # the rows of M1 and M2 lie in span(U1) and span(U2), so solving for C in
    # decompose3's r x r x k3 core gives the k1*k2-row solution
    r, T, M1, M2, C = case
    seen = []
    weight_draw = recovery._weight_draw

    def recording(U1, U2, core, *rest):
        seen.append((U1, U2, core))
        return weight_draw(U1, U2, core, *rest)

    with pytest.MonkeyPatch.context() as mp, contextlib.suppress(LatentIdError):
        mp.setattr(recovery, "_weight_draw", recording)
        decompose3(T, r, seed=0)
    assume(seen)  # refused on an unfolding's rank before any draw
    U1, U2, core = seen[0]
    T3 = T.transpose(2, 0, 1).reshape(T.shape[2], -1)
    full = np.linalg.lstsq(khatri_rao([M1, M2]).T, T3.T, rcond=None)[0]
    projected = np.linalg.lstsq(khatri_rao([M1 @ U1, M2 @ U2]).T, core, rcond=None)[0]
    assert np.abs(projected - full).max() <= 1e-10 * np.abs(full).max()
    assert np.abs(full - C).max() <= 1e-6 * np.abs(C).max()
    # the core's rows are (p, q) with q fastest, so its third-mode mixtures
    # are the full tensor's slice mixtures projected onto U1 and U2
    a = np.linspace(-1.0, 1.0, T.shape[2])
    sliced = U1.T @ np.einsum("uvw,w->uv", T, a) @ U2
    assert np.abs((core @ a).reshape(r, r) - sliced).max() <= 1e-12 * np.abs(sliced).max()


@given(case=st.one_of(latent_class_factors(), window_law_factors()))
def test_residual_is_the_max_abs_error_of_the_unfolding(case):
    # to the bit: the gate subtracts in place, in the product's own buffer
    r, T = case[:2]
    try:
        rec = decompose3(T, r, seed=0)
    except LatentIdError:
        assume(False)
    pi, (M1, M2, M3) = rec.pi, rec.factors
    T1 = T.reshape(T.shape[0], -1)
    expected = float(np.abs((pi[:, None] * M1).T @ khatri_rao([M2, M3]) - T1).max())
    assert rec.residual.hex() == expected.hex()


def reference_clean_rows(M, tol):
    """``_clean_rows`` as it was when it always took the clamping copy."""
    if M.min() < -tol:
        return None
    M = np.where(M < 0.0, 0.0, M)
    sums = M.sum(axis=1, keepdims=True)
    if np.any(sums <= 0.0):
        return None
    return M / sums


@given(
    M=arrays(
        float,
        st.tuples(st.integers(1, 4), st.integers(1, 4)),
        elements=st.one_of(
            st.floats(-1.0, 1.0, allow_subnormal=False),
            st.sampled_from([0.0, -0.0, np.nan, -1e-9, 1e-9]),
        ),
    ),
    tol=st.sampled_from([0.0, 1e-8, 1e-3]),
)
def test_clean_rows_equals_the_clamping_copy(M, tol):
    # to the bit, with NaN, -0.0, negatives within and beyond tol, and rows
    # summing to zero or below
    got, want = _clean_rows(M.copy(), tol), reference_clean_rows(M.copy(), tol)
    assert (got is None) == (want is None)
    if got is not None:
        assert got.tobytes() == want.tobytes()


@st.composite
def small_latent_class_models(draw):
    """Latent-class models with r in 1-6, k1, k2 in [max(r, 2), r + 5], k3 in 2-4."""
    r = draw(st.integers(1, 6))
    k1, k2 = draw(st.integers(max(r, 2), r + 5)), draw(st.integers(max(r, 2), r + 5))
    k3 = draw(st.integers(2, 4))
    return r, random_latent_class(draw(st.integers(0, 2**32 - 1)), r, (k1, k2, k3))


@given(
    case=small_latent_class_models(), noise=st.sampled_from([0.0, 1e-9, 1e-4]),
    seed=st.integers(0, 2**32 - 1),
)
def test_accepted_factors_are_finite_stochastic_rows(case, noise, seed):
    # recover_latent_class de-clumps decompose3's factors without the row-sum
    # check of the public unclump: every accepted factor is finite and its rows
    # sum to 1 within 1e-12, on exact tables and on noisy ones a loose tol admits
    r, m = case
    T = joint_distribution(m)
    if noise:
        other = np.random.default_rng(seed).dirichlet(np.ones(T.size)).reshape(T.shape)
        T = (1.0 - noise) * T + noise * other
    try:
        rec = decompose3(T, r, seed=seed, tol=1e-2 if noise else recovery.RECOVERY_TOL)
    except LatentIdError:
        return
    for M in rec.factors:
        assert np.isfinite(M).all()
        assert np.abs(M.sum(axis=1) - 1.0).max() <= 1e-12
    assert np.isfinite(rec.pi).all() and abs(rec.pi.sum() - 1.0) <= 1e-12


@given(case=small_latent_class_models())
def test_decompose3_exact_seed_free_and_mode_symmetric(case):
    # up to a class relabeling: the model's parameters, the same answer from
    # another seed, and factors 0 and 1 swapped when modes 1 and 2 are
    r, m = case
    T = joint_distribution(m)
    rec = decompose3(T, r, seed=0)
    found = (rec.pi, rec.factors)
    assert align_permutation(found, (m.pi, list(m.emissions))).max_abs_error <= 1e-8
    other = decompose3(T, r, seed=1)
    assert align_permutation((other.pi, other.factors), found).max_abs_error <= 1e-8
    swapped = decompose3(T.transpose(1, 0, 2), r, seed=0)
    M2, M1, M3 = swapped.factors
    assert align_permutation((swapped.pi, (M1, M2, M3)), found).max_abs_error <= 1e-8


def test_whole_float_r_answers_as_its_int():
    T = joint_distribution(random_latent_class(trial_rng(23, 0), 3, (4, 4, 3)))
    got, want = decompose3(T, 3.0, seed=0), decompose3(T, 3, seed=0)
    for a, b in zip((got.pi, *got.factors), (want.pi, *want.factors)):
        assert a.tobytes() == b.tobytes()
    assert (got.residual, got.retries_used) == (want.residual, want.retries_used)


class TestAlignPermutation:
    def test_identity(self):
        m = reference_model()
        align = align_permutation(
            (m.pi, list(m.emissions)), (m.pi, list(m.emissions))
        )
        assert align.permutation.tolist() == [0, 1]
        assert align.max_abs_error == 0.0

    def test_transposition(self):
        m = reference_model()
        swapped = (m.pi[[1, 0]], [M[[1, 0]] for M in m.emissions])
        align = align_permutation((m.pi, list(m.emissions)), swapped)
        assert align.permutation.tolist() == [1, 0]
        assert align.max_abs_error == 0.0

    def test_perturbed_reference(self):
        m = reference_model()
        rng = np.random.default_rng(0)
        noisy_pi = m.pi + rng.uniform(-1e-6, 1e-6, size=2)
        noisy = [M + rng.uniform(-1e-6, 1e-6, size=M.shape) for M in m.emissions]
        align = align_permutation((m.pi, list(m.emissions)), (noisy_pi, noisy))
        assert align.permutation.tolist() == [0, 1]
        assert align.max_abs_error <= 3e-6

    def test_dim_mismatch(self):
        m = reference_model()
        with pytest.raises(InputError, match="^class counts or factor counts differ$"):
            align_permutation(
                (m.pi, list(m.emissions)),
                (np.array([1.0]), [M[:1] for M in m.emissions]),
            )

    def test_matches_all_permutations(self):
        rng = np.random.default_rng(11)
        for r in range(1, 7):
            for trial in range(6):
                m = random_latent_class(trial_rng(24, 10 * r + trial), r, (2, 3))
                perm = rng.permutation(r)
                noise = 10.0 ** -(trial % 3)
                pi = m.pi[perm] + rng.uniform(-noise, noise, r)
                factors = [
                    M[perm] + rng.uniform(-noise, noise, M.shape) for M in m.emissions
                ]
                if trial == 5:  # coarse rounding makes permutations tie
                    pi, factors = np.round(pi, 1), [np.round(F, 1) for F in factors]

                def error(p):
                    p = list(p)
                    return max(
                        np.abs(pi[p] - m.pi).max(),
                        *(np.abs(F[p] - M).max() for F, M in zip(factors, m.emissions)),
                    )

                align = align_permutation((pi, factors), (m.pi, list(m.emissions)))
                best = min(error(p) for p in itertools.permutations(range(r)))
                assert align.max_abs_error == best == error(align.permutation)

    def test_bisection_past_the_lower_bound(self):
        # reference classes 0 and 1 are both nearest to recovered class 0, so
        # the pairs at the bound (the largest row or column minimum, 1) hold
        # no perfect matching and the search must bisect above it
        recovered = (np.array([0.0, 5.0, 7.0]), [np.array([[0.2], [0.0], [0.0]])])
        reference = (np.array([0.0, 0.0, 6.0]), [np.array([[0.0], [0.5], [0.0]])])
        C = np.array([[0.2, 5.0, 7.0], [0.3, 5.0, 7.0], [6.0, 1.0, 1.0]])
        assert max(C.min(axis=0).max(), C.min(axis=1).max()) == 1.0
        assert recovery._perfect_matching(C <= 1.0) is None
        align = align_permutation(recovered, reference)
        assert align.max_abs_error == 5.0
        assert align.permutation.tolist() == [1, 0, 2]

    def test_optimal_beyond_eight_classes(self):
        # r = 10 with noise 0.2: a greedy row-correlation assignment reported
        # 0.368 here, against an optimum below the noise level
        rng = np.random.default_rng(9)
        m = random_latent_class(rng, 10, (3, 3, 3))
        perm = rng.permutation(10)
        pi = m.pi[perm] + rng.uniform(-0.2, 0.2, 10)
        factors = [M[perm] + rng.uniform(-0.2, 0.2, M.shape) for M in m.emissions]
        align = align_permutation((pi, factors), (m.pi, list(m.emissions)))
        # bottleneck assignment by a dynamic program over matched column sets
        A = np.hstack([pi[:, None], *factors])
        B = np.hstack([m.pi[:, None], *m.emissions])
        C = np.abs(A[None, :, :] - B[:, None, :]).max(axis=2)
        best = {0: 0.0}
        for mask in range(1 << 10):
            row = bin(mask).count("1")
            if mask not in best or row == 10:
                continue
            for col in range(10):
                if not mask >> col & 1:
                    cost = max(best[mask], C[row, col])
                    if cost < best.get(mask | 1 << col, np.inf):
                        best[mask | 1 << col] = cost
        assert align.max_abs_error == best[(1 << 10) - 1]
        assert align.max_abs_error <= 0.2


class TestRecoverLatentClass:
    def test_five_binary_variables(self):
        m = random_latent_class(trial_rng(30, 0), 2, (2, 2, 2, 2, 2))
        T = joint_distribution(m)
        pi, emissions = recover_latent_class(
            T, 2, [(0, 1), (2, 3), (4,)], seed=0
        )
        align = align_permutation((pi, emissions), (m.pi, list(m.emissions)))
        assert align.max_abs_error <= 1e-8

    @pytest.mark.parametrize("r,kappas", [(3, [3] * 10), (4, [3] * 8)])
    def test_balanced_witness_round_trip(self, r, kappas):
        # variables left over once every block is full are spread over the
        # three blocks (81 x 27 x 27 and 27 x 27 x 9), and recovery along
        # that witness is exact
        witness = tripartition_search(r, kappas).witness
        for t in range(5):
            m = random_latent_class(trial_rng(31, t), r, kappas)
            T = joint_distribution(m)
            pi, emissions = recover_latent_class(T, r, witness.blocks, seed=t)
            align = align_permutation((pi, emissions), (m.pi, list(m.emissions)))
            assert align.max_abs_error <= 1e-10

    def test_peak_memory_is_about_twice_the_table(self):
        # the clumped copy and one table-sized product at a time: both
        # residual gates take |R - T| in the product's buffer
        m = random_latent_class(trial_rng(31, 9), 3, [3] * 12)
        T = joint_distribution(m)
        witness = tripartition_search(3, m.kappas).witness
        tracemalloc.start()
        try:
            recover_latent_class(T, 3, witness.blocks, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * T.nbytes

    def test_single_class_products(self):
        m = random_latent_class(trial_rng(30, 1), 1, (2, 3, 2, 2))
        T = joint_distribution(m)
        pi, emissions = recover_latent_class(T, 1, [(0, 1), (2,), (3,)], seed=0)
        assert np.allclose(pi, [1.0])
        for M, ref in zip(emissions, m.emissions):
            assert np.abs(M - ref).max() <= 1e-12

    def test_reassembled_model_gate(self):
        # the clumped block factor is a Khatri-Rao product plus a perturbation
        # with zero row and column sums, 1e-10 in size: the table has exact rank
        # 3, unclump accepts the factor (its check is 1e-9) and drops the
        # perturbation, so only the reassembled model can see it
        m = random_latent_class(trial_rng(30, 3), 3, (2, 2, 3, 3))
        E0, E1, E2, E3 = m.emissions
        blocks = [(0, 1), (2,), (3,)]

        def table(size):
            F0 = khatri_rao([E0, E1]) + size * np.array([1.0, -1.0, -1.0, 1.0])
            return triple_product(m.pi[:, None] * F0, E2, E3).reshape(2, 2, 3, 3)

        recover_latent_class(table(0.0), 3, blocks, seed=0, tol=1e-12)
        with pytest.raises(
            DegenerateSpectrumError, match="^reassembled model misses the input table by "
        ):
            recover_latent_class(table(1e-10), 3, blocks, seed=0, tol=1e-12)

    def test_goodman_dimensions_always_error(self):
        # r=3 on four binary variables: every tripartition leaves a clumped
        # dimension below 3, so the decomposition preconditions fail
        m = random_latent_class(trial_rng(30, 2), 3, (2, 2, 2, 2))
        T = joint_distribution(m)
        failures = 0
        partitions = 0
        for assignment in itertools.product(range(3), repeat=4):
            if len(set(assignment)) != 3:
                continue
            blocks = [[], [], []]
            for var, b in enumerate(assignment):
                blocks[b].append(var)
            partitions += 1
            with pytest.raises(LatentIdError):
                recover_latent_class(T, 3, blocks, seed=0)
            failures += 1
        assert partitions > 0 and failures == partitions


@st.composite
def integer_parameter_pairs(draw):
    """Recovered and reference ``(pi, [F])`` for r <= 6 on five integer levels,
    so that costs tie and the lower bound often admits no perfect matching."""
    r = draw(st.integers(1, 6))
    width = draw(st.integers(2, 3))
    levels = st.lists(st.integers(0, 4), min_size=r * width, max_size=r * width)
    a, b = (np.array(draw(levels), dtype=float).reshape(r, width) for _ in range(2))
    return (a[:, 0], [a[:, 1:]]), (b[:, 0], [b[:, 1:]]), a, b


@given(case=integer_parameter_pairs())
def test_alignment_is_the_brute_force_bottleneck(case):
    recovered, reference, a, b = case
    r = a.shape[0]
    C = np.abs(a[None, :, :] - b[:, None, :]).max(axis=2)
    best = min(C[range(r), p].max() for p in itertools.permutations(range(r)))
    align = align_permutation(recovered, reference)
    assert sorted(align.permutation.tolist()) == list(range(r))
    assert align.max_abs_error == best == C[range(r), align.permutation].max()


@given(case=integer_parameter_pairs(), data=st.data())
def test_alignment_around_nan_costs_is_the_brute_force_bottleneck(case, data):
    # a NaN parameter makes its row's costs NaN, and no threshold admits them
    recovered, reference, a, b = case
    r = a.shape[0]
    holes = data.draw(st.lists(st.booleans(), min_size=r, max_size=r))
    a[holes, 0] = np.nan
    C = np.abs(a[None, :, :] - b[:, None, :]).max(axis=2)
    finite = [p for p in itertools.permutations(range(r)) if not np.isnan(C[range(r), p]).any()]
    align = align_permutation((a[:, 0], [a[:, 1:]]), reference)
    if finite:
        best = min(C[range(r), p].max() for p in finite)
        assert align.max_abs_error == best == C[range(r), align.permutation].max()
    else:
        assert align.permutation.tolist() == list(range(r))
        assert np.isnan(align.max_abs_error)


@pytest.mark.parametrize("r", range(1, 9))
def test_exact_answer_is_aligned_without_a_matching_search(r, monkeypatch):
    # on an exact answer each row's and column's nearest pair is the only one
    # at the bound, and that matching is what a first search step would find
    rng = np.random.default_rng(r)
    m = random_latent_class(rng, r, (2, 3, 3))
    shuffle = rng.permutation(r)
    pi = m.pi[shuffle] + rng.uniform(-1e-14, 1e-14, r)
    factors = [M[shuffle] + rng.uniform(-1e-14, 1e-14, M.shape) for M in m.emissions]
    A = np.hstack([pi[:, None], *factors])
    B = np.hstack([m.pi[:, None], *m.emissions])
    C = np.abs(A[None, :, :] - B[:, None, :]).max(axis=2)
    bound = max(C.min(axis=0).max(), C.min(axis=1).max())
    first_step = recovery._perfect_matching(C <= bound)

    def no_search(allowed):
        raise AssertionError("an exact answer ran the matching search")

    monkeypatch.setattr(recovery, "_perfect_matching", no_search)
    align = align_permutation((pi, factors), (m.pi, list(m.emissions)))
    assert align.permutation.tolist() == first_step.tolist() == np.argsort(shuffle).tolist()
    assert align.permutation.dtype == first_step.dtype
    assert align.max_abs_error == C[range(r), first_step].max() == bound


#: recover_latent_class's (pi, emissions), hashed, at latent-class sizes of the
#: simulate benchmark, each clumped along its tripartition_search witness as
#: ``latentid simulate`` does; (3, 3, 10) is the 81 x 27 x 27 witness whose
#: mode-1 basis comes from the range finder.  Case ``i`` draws its model from
#: ``trial_rng(48, i)`` and decomposes with seed ``i``.
GOLDEN_LATENT_CLASS_RECOVERIES = [
    (3, 3, 10, "8e9f48f7f4fb90c284a10268378f78b78b27608d616da0404555e797f637f553"),
    (4, 3, 8, "73215ccb3f4280bc42142347125ff92ed5877aa10933a413e921d384763ff1fc"),
    (5, 2, 10, "e69f54d275496121a808bfeccc1d09b4a91678aea880d254a77421536c86ebfb"),
    (7, 2, 8, "67b55be53566f63331e0078ee8ca560a69e60c5c63a256f016b971f887bd284f"),
]
#: decompose3's (pi, factors, residual, retries_used), hashed, on three-variable
#: tables; case ``i`` draws from ``trial_rng(49, i)`` and decomposes with seed ``i``
#: (the 48 x 12 x 6 table takes the range finder)
GOLDEN_DECOMPOSITIONS = [
    (3, (3, 3, 3), "cbb93c236e0c525ccac4f7109e4977a6852916daa9308b0421525b73f9c65d5c"),
    (4, (4, 4, 4), "c8f59f63f3cd66eaa36d99db742e3d7dbc8df4e821cd3a1fb9f0c8c43f8d2efd"),
    (5, (6, 5, 7), "ca241095e8dc74abadb232db678d950b5fb2288397efa9393468aaa1a3e821bd"),
    (4, (48, 12, 6), "ca586cc28b980825cd3286e8d4f338057b2408de938e3d19b4aa2187e76e1e46"),
]


def latent_class_recovery_digest(i: int) -> str:
    r, kappa, p, _ = GOLDEN_LATENT_CLASS_RECOVERIES[i]
    blocks = tripartition_search(r, [kappa] * p).witness.blocks
    model = random_latent_class(trial_rng(48, i), r, [kappa] * p)
    pi, emissions = recover_latent_class(joint_distribution(model), r, blocks, seed=i)
    got = hashlib.sha256(pi.tobytes())
    for M in emissions:
        got.update(M.tobytes())
    return got.hexdigest()


def decomposition_digest(i: int) -> str:
    r, kappas, _ = GOLDEN_DECOMPOSITIONS[i]
    rec = decompose3(joint_distribution(random_latent_class(trial_rng(49, i), r, kappas)), r, seed=i)
    got = hashlib.sha256(rec.pi.tobytes())
    for M in rec.factors:
        got.update(M.tobytes())
    got.update(np.array([rec.residual, rec.retries_used], dtype=float).tobytes())
    return got.hexdigest()


@pytest.mark.parametrize(
    "i", range(len(GOLDEN_LATENT_CLASS_RECOVERIES)),
    ids=[f"r{r}-kappa{kappa}-p{p}" for r, kappa, p, _ in GOLDEN_LATENT_CLASS_RECOVERIES],
)
def test_latent_class_recovery_keeps_its_bytes(i):
    assert latent_class_recovery_digest(i) == GOLDEN_LATENT_CLASS_RECOVERIES[i][3]


@pytest.mark.parametrize(
    "i", range(len(GOLDEN_DECOMPOSITIONS)),
    ids=[f"r{r}-" + "x".join(map(str, kappas)) for r, kappas, _ in GOLDEN_DECOMPOSITIONS],
)
def test_decomposition_keeps_its_bytes(i):
    assert decomposition_digest(i) == GOLDEN_DECOMPOSITIONS[i][2]


#: (call, error, exact message) for each input refusal of the module
RECOVERY_REFUSALS = {
    "tensor-ndim": (
        lambda: decompose3(np.full((2, 2), 0.25), 2),
        InputError, "expected a 3-way tensor, got ndim=2",
    ),
    "no-classes": (
        lambda: decompose3(np.full((2, 2, 2), 0.125), 0),
        InputError, "r must be a whole number >= 1, got 0",
    ),
    "fractional-classes": (
        lambda: decompose3(joint_distribution(reference_model()), 2.5),
        InputError, "r must be a whole number >= 1, got 2.5",
    ),
    "tol-nan": (
        lambda: decompose3(joint_distribution(reference_model()), 2, tol=np.nan),
        InputError, "tol must be a number >= 0, got nan",
    ),
    "tol-negative": (
        lambda: decompose3(joint_distribution(reference_model()), 2, tol=-1),
        InputError, "tol must be a number >= 0, got -1",
    ),
    "fractional-block-index": (
        # int() would read 0.9 as axis 0 and answer
        lambda: recover_latent_class(joint_distribution(reference_model()), 2, [[0.9], [1], [2]]),
        InputError, "blocks[0][0] must be a whole number >= 0, got 0.9",
    ),
    "factor-shapes": (
        lambda: align_permutation(
            (np.ones(2) / 2, [np.ones((2, 2))]), (np.ones(2) / 2, [np.ones((2, 3))])
        ),
        InputError, "factor shapes differ: (2, 2) vs (2, 3)",
    ),
}


@pytest.mark.parametrize("case", list(RECOVERY_REFUSALS))
def test_refusal_is_named(case, refuses):
    refuses(*RECOVERY_REFUSALS[case])
