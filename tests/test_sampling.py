"""The samplers build their models through the models' trusted constructors:
each draw must equal, byte for byte, the model the public constructor builds
from the same arrays, leave the generator where it always has, and refuse
exactly what the public path refuses."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, strategies as st

from latentid.errors import InputError
from latentid.hmm import HiddenMarkovModel, conditional_blocks, window_tensor
from latentid.latent_class import LatentClassModel
from latentid.sampling import random_hmm, random_latent_class, trial_rng
from latentid.tensor_core import triple_product


def latent_class_fields(m):
    return [m.pi, *m.emissions]


def hmm_fields(m):
    return [m.A, m.B, m.pi, m.A_rev]


def assert_same_model(got, want, fields):
    assert type(got) is type(want)
    got, want = fields(got), fields(want)
    assert [(a.dtype, a.shape) for a in got] == [(a.dtype, a.shape) for a in want]
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
    assert not any(a.flags.writeable for a in got)


@given(
    seed=st.integers(0, 2**32 - 1),
    r=st.integers(1, 8),
    kappas=st.lists(st.integers(2, 6), min_size=1, max_size=10),
)
def test_latent_class_draw_is_the_public_model(seed, r, kappas):
    m = random_latent_class(trial_rng(seed, 0), r, kappas)
    public = LatentClassModel(pi=np.array(m.pi), emissions=tuple(np.array(M) for M in m.emissions))
    assert_same_model(m, public, latent_class_fields)
    assert m.kappas == tuple(kappas)


@given(seed=st.integers(0, 2**32 - 1), r=st.integers(1, 7), kappa=st.integers(1, 4))
def test_hmm_draw_is_the_public_model(seed, r, kappa):
    m = random_hmm(trial_rng(seed, 0), r, kappa)
    assert_same_model(m, HiddenMarkovModel(A=np.array(m.A), B=np.array(m.B)), hmm_fields)


def draw_digest(sampler, fields, cases) -> str:
    """sha256 over each case's model fields and the generator's next draw."""
    got = hashlib.sha256()
    for seed, args in cases:
        rng = trial_rng(49, seed)
        for a in fields(sampler(rng, *args)):
            got.update(a.tobytes())
        got.update(rng.random(4).tobytes())
    return got.hexdigest()


#: (r, kappas, digest of four draws), recorded before the samplers built their
#: models through the trusted constructors
GOLDEN_LATENT_CLASS_DRAWS = [
    (1, (2,), "eaa3e28fc020781c3a09027995028f3677e1e88eb1b2294949aa4a5ba18ce396"),
    (3, (3, 3, 3), "9138adf1e74e71d5468e06142e9e1125242dd97a9ef72ab98dcd323cb71a3528"),
    (4, (2,) * 5, "1ac7e158657d8459af63e71b608774666803cd6c6e49c47192b178d958178f12"),
    (5, (2,) * 10, "464643e82bf64224d76c7ddb7c9cbed5790d27b944fe6c426a4b835358477a5b"),
    (7, (2,) * 8, "81e54803fa4ca13b6b196307dafce55fb4481b218668f4cfad678dabf36b50d5"),
    (3, (3,) * 10, "b0bc8fd160be11668fe604661d21ca784e9a2ebce45824bd5f6a3341137f92b5"),
    (6, (3, 4, 2, 5), "a2ff3e7727325ea4020b1006d1c0e955aa63496302bc80e1b6431e94a68f10ea"),
]

#: (r, kappa, digest of three draws), recorded likewise; from r = 6 on most
#: draws are rejected, so the accepted one lies in a later batch
GOLDEN_HMM_DRAWS = [
    (1, 2, "d793dd547034e6cb5b76c69703467bc3734869ad10f8a4ebb35fc699b0ee939e"),
    (2, 1, "ebd95fd0c205c275ef6e7f55760ca6db9b3b341c919f778da1ca81f8fc5642b5"),
    (2, 2, "fa12175ced9788fe51fb34c9a65afa3caa6648cd5b02a630d13ca09aa548c106"),
    (3, 3, "7841aa8784837560b5590a762c4c20bb457e44147bee382ed872da46a13e1846"),
    (4, 2, "80aec0070ec5036669e7fa49379f3e4b168924636ca58a48bf357cb260e7c144"),
    (5, 2, "57e4a22f8d4eaee317891646598397b637b021ed1a76e45aafeb923f07426ab5"),
    (6, 2, "bdbf3636f009f421ef68b5eed38942b8f3b5d87e0a4ec60dd0016b0090d1ce23"),
    (7, 2, "5aeefb31223b6ce2a8b2bfc29cb2dde1ef09df1e68f3828c282e826548625333"),
    (8, 2, "14949644c6fe72fef5d5fc9b3204751e8f2f4587e9270e8f5e1c59041a7324e5"),
]


@pytest.mark.parametrize("r, kappas, digest", GOLDEN_LATENT_CLASS_DRAWS)
def test_latent_class_draws_keep_their_bytes(r, kappas, digest):
    cases = [(seed, (r, kappas)) for seed in range(4)]
    assert draw_digest(random_latent_class, latent_class_fields, cases) == digest


@pytest.mark.parametrize("r, kappa, digest", GOLDEN_HMM_DRAWS)
def test_hmm_draws_keep_their_bytes(r, kappa, digest):
    cases = [(seed, (r, kappa)) for seed in range(3)]
    assert draw_digest(random_hmm, hmm_fields, cases) == digest


#: (call, error, exact message[, builder]) for each input refusal of the
#: samplers, as the public constructors gave them before the trusted path
SAMPLER_REFUSALS = {
    "latent-class-no-variables": (
        lambda: random_latent_class(0, 2, []), InputError, "at least one variable is required",
    ),
    "latent-class-one-state": (
        lambda: random_latent_class(0, 2, [2, 1]),
        InputError, "kappas[1] must be a whole number >= 2, got 1",
    ),
    "latent-class-no-classes": (
        lambda: random_latent_class(0, 0, [2, 2]),
        InputError, "r must be a whole number >= 1, got 0",
    ),
    "latent-class-emission-cap": (
        lambda: random_latent_class(0, 2**12, [2, 2**12 + 1]),
        InputError, "emission matrix has 16781312 entries, cap is 16777216",
    ),
    "hmm-no-states": (
        lambda: random_hmm(0, 0, 2), InputError, "r must be a whole number >= 1, got 0",
    ),
    "hmm-no-symbols": (
        lambda: random_hmm(0, 2, 0), InputError, "kappa must be a whole number >= 1, got 0",
    ),
    "hmm-draw-cap": (
        lambda: random_hmm(0, 2**12, 2**12 + 1),
        InputError, "HMM draw has 33558528 entries, cap is 16777216",
    ),
}


@pytest.mark.parametrize("case", list(SAMPLER_REFUSALS))
def test_refusal_is_named(case, refuses):
    refuses(*SAMPLER_REFUSALS[case])


@given(seed=st.integers(0, 999), r=st.integers(1, 6), kappa=st.integers(2, 3), k=st.integers(1, 4))
def test_window_tensor_is_the_public_triple_product(seed, r, kappa, k):
    model = random_hmm(trial_rng(seed, r), r, kappa)
    B1, B2 = conditional_blocks(model, k)
    want = triple_product(model.pi[:, None] * B1, B2, model.B)
    assert window_tensor(model, k).tobytes() == want.tobytes()
