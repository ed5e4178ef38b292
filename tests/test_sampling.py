"""The samplers build their models through the models' trusted constructors:
each draw must equal, byte for byte, the model the public constructor builds
from the same arrays, leave the generator where it always has, and refuse
exactly what the public path refuses."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, strategies as st

from latentid.errors import InputError
from latentid import nonparametric, sampling
from latentid.hmm import HiddenMarkovModel, conditional_blocks, window_tensor
from latentid.latent_class import LatentClassModel
from latentid.nonparametric import CdfComponent, NonparametricMixture
from latentid.sampling import (
    random_hmm,
    random_latent_class,
    random_nonparametric_mixture,
    random_piecewise_cdf,
    trial_rng,
)
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


def draw_digest(sampler, fields, cases, generator=lambda seed: trial_rng(49, seed)) -> str:
    """sha256 over each case's model fields and the generator's next draw."""
    got = hashlib.sha256()
    for seed, args in cases:
        rng = generator(seed)
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


def cdf_fields(c):
    return [*c.knots, c.values]


def nonparametric_fields(m):
    """The weights, every component's arrays and every family's stacks, grids and cell maps."""
    comps = [a for row in m.components for c in row for a in cdf_fields(c)]
    families = [a for f in m._families for a in (*f.grid, *f.knots, f.values, *(f.cells or ()))]
    rows = np.array([f.row for f in m._families])
    rows.flags.writeable = False
    return [m.pi, *comps, *families, rows]


#: PCG64's multiplier (numpy's PCG64, which default_rng uses)
PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def zero_at(k: int) -> np.random.Generator:
    """A PCG64 generator whose double k, counting from 0, is exactly 0.0.

    PCG64 steps its 128-bit state, then outputs the XOR of the state's halves
    rotated, which is 0 when the halves are equal: the state after step k + 1
    is ``(h << 64) | h``, stepped back k + 1 times through the inverse
    multiplier.  A 0.0 among a piece's inner knots repeats the knot at 0.
    """
    h, inc = 0x0123456789ABCDEF, np.random.PCG64(49).state["state"]["inc"]
    state, inverse = (h << 64) | h, pow(PCG64_MULTIPLIER, -1, 1 << 128)
    for _ in range(k + 1):
        state = (state - inc) * inverse % (1 << 128)
    bit_generator = np.random.PCG64()
    bit_generator.state = {
        "bit_generator": "PCG64", "state": {"state": state, "inc": inc},
        "has_uint32": 0, "uinteger": 0,
    }
    return np.random.Generator(bit_generator)


def test_crafted_generators_draw_zero_where_asked():
    for k in (0, 1, 28, 43):
        assert zero_at(k).random(k + 2)[k] == 0.0
        assert (zero_at(k).random(k + 2) != 0.0).sum() == k + 1


#: (args, zero positions, digest), recorded before the mixture sampler drew
#: its pieces in one batch.  One-entry args are random_piecewise_cdf's
#: n_knots, longer ones random_nonparametric_mixture's (r, p, block_dims,
#: n_knots).  With no zero positions the draws use trial seeds 0-2; else one
#: draw per position k, from a generator whose double k is 0.0 (:func:`zero_at`):
#: k = 0 repeats a knot of the first piece, 28 of the fifth piece (of seven
#: uniforms each at five knots), 43 the first part of class 1's block and 56
#: the last piece at r = p = 3; at three knots k = 1 is a step, which repeats
#: nothing.
GOLDEN_NONPARAMETRIC_DRAWS = [
    ((2,), (), "0cd5a32915d07cb7e5d74b9bdbccac0478762e94381d3a660ed193127144c87e"),
    ((5,), (), "87b27632adfa07d24c0aaa37096e5c7698422c65fd719cad0c235fa7504bd89f"),
    ((16,), (), "4447c8a9fc76e8a99a21c31e880f50602cb483dcfdb887a82fefedc6ba629461"),
    ((5,), (0,), "bd2cb99abbd8084c48f945933d6c2135eafc6dcd34bd1756727c3e23af87e0d6"),
    ((3, 3, None, 5), (), "4228659561f09bf2e89cba5b907601c231044db2f7a1331f6d4e7c12dfce944f"),
    ((4, 4, None, 5), (), "94afebfb7eaa81015687d51ca10ff73f3a14e88543a067f60ea4cfab6ad5f29f"),
    (
        (4, 4, (1, 2, 1, 1), 5), (),
        "eccf9d06b341ab333568895ece777ec9c38f765345003bf2ac90ea52e0fd4599",
    ),
    ((5, 5, None, 5), (), "a72cfc459e69b371168f93dfa283ab7baaf66db885c02fb84458a4342fab078b"),
    (
        (5, 4, (2, 1, 1, 1), 5), (),
        "1c6ccc0a7c9f6327b40cf33f4286958d3defc7d907779f12afaa711dec4ea873",
    ),
    ((6, 5, None, 6), (), "6959f0b0dc2a79a46cfe495319547ac1dcd3e45644cd5bb8a99580e6516bb11c"),
    ((8, 4, None, 16), (), "cb21edcc2ca11eab1f4e446b19f74d940d96302688693f268e15d2ca62cf331c"),
    ((1, 3, None, 5), (), "c5a31d1bf627ce0123db66ee29e638b4c3edacf187c2c1c8912467ea475bcd52"),
    ((3, 3, None, 2), (), "b17f8fb799d3c3b35eda76acea862d377df0c2a0abb802cb117f4de610be542d"),
    ((2, 3, (1, 3, 1), 4), (), "650b7b00219bea70922cf76a2db97843e323791b203d00e54786b8afc500f81a"),
    (
        (3, 3, None, 5), (0, 28, 56),
        "9096fa3113f5e7c8b31a63bcd6c2269b440b50d0c5daf156386a2cf54d0b2ff5",
    ),
    (
        (4, 4, (1, 2, 1, 1), 5), (0, 43),
        "336b16729d89088fb2308df4327845aaee6fe30996a26bf9058b989cf6f49780",
    ),
    ((1, 1, None, 5), (0,), "4d1fe45768e34894a01707fde8e190f88a6711e7c388bb2c78fad875dc67ff08"),
    (
        (2, 2, (2, 2), 3), (0, 1),
        "387cff0751923f49e437c0aa506e8d1e9e06b726f0636f9292cf7bf443f62621",
    ),
]


@pytest.mark.parametrize("args, zeros, digest", GOLDEN_NONPARAMETRIC_DRAWS)
def test_nonparametric_draws_keep_their_bytes(args, zeros, digest):
    sampler, fields = (
        (random_piecewise_cdf, cdf_fields) if len(args) == 1
        else (random_nonparametric_mixture, nonparametric_fields)
    )
    if zeros:
        got = draw_digest(sampler, fields, [(k, args) for k in zeros], zero_at)
    else:
        got = draw_digest(sampler, fields, [(seed, args) for seed in range(3)])
    assert got == digest


@given(
    seed=st.integers(0, 2**32 - 1),
    r=st.integers(1, 5),
    block_dims=st.lists(st.integers(1, 3), min_size=1, max_size=5),
    n_knots=st.integers(2, 7),
)
def test_nonparametric_draw_is_the_public_model(seed, r, block_dims, n_knots):
    m = random_nonparametric_mixture(trial_rng(seed, 0), r, len(block_dims), block_dims, n_knots)
    rows = tuple(
        tuple(CdfComponent([np.array(k) for k in c.knots], np.array(c.values)) for c in row)
        for row in m.components
    )
    public = NonparametricMixture(pi=np.array(m.pi), components=rows)
    assert_same_model(m, public, nonparametric_fields)
    assert m.block_dims == tuple(block_dims)


@pytest.mark.parametrize("n_knots", [2, 3, 5, 16])
@pytest.mark.parametrize("generator", [lambda: trial_rng(3, 0), lambda: zero_at(0)])
def test_random_piecewise_cdf_is_a_lone_piece(generator, n_knots):
    # one drawer: a one-class, one-variate mixture holds the same piece
    piece = random_piecewise_cdf(generator(), n_knots)
    lone = random_nonparametric_mixture(generator(), 1, 1, n_knots=n_knots).components[0][0]
    assert [a.tobytes() for a in cdf_fields(piece)] == [a.tobytes() for a in cdf_fields(lone)]


@pytest.mark.parametrize(
    "args, zeros",
    [((5, 5, None, 5), ()), ((4, 4, (1, 2, 1, 1), 5), ()), ((4, 4, (1, 2, 1, 1), 5), (43,)),
     ((2, 2, (2, 2), 3), (0,)), ((1, 2, (1, 2), 4), ())],
)
def test_mixture_draws_check_each_table_shape_once(monkeypatch, args, zeros):
    # every table goes through _check_tables, in one call per table shape,
    # and no component is built through the public constructor
    checked, check_tables = [], nonparametric._check_tables

    def check(knots, values):
        checked.append(values.copy())
        check_tables(knots, values)

    def construct(*args):
        raise AssertionError("the mixture sampler built a component through __init__")

    monkeypatch.setattr(nonparametric, "_check_tables", check)
    monkeypatch.setattr(CdfComponent, "__init__", construct)
    rng = zero_at(zeros[0]) if zeros else trial_rng(5, 0)
    m = random_nonparametric_mixture(rng, *args)
    tables = [c.values for row in m.components for c in row]
    assert sorted(v.shape[1:] for v in checked) == sorted({t.shape for t in tables})
    assert sum(map(len, checked)) == len(tables)
    rows = {row.tobytes() for v in checked for row in v}
    assert all(t.tobytes() in rows for t in tables)


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
    "nonparametric-no-classes": (
        lambda: random_nonparametric_mixture(0, 0, 3),
        InputError, "r must be a whole number >= 1, got 0",
    ),
    "nonparametric-no-variates": (
        lambda: random_nonparametric_mixture(0, 2, 0),
        InputError, "p must be a whole number >= 1, got 0",
    ),
    "nonparametric-one-knot": (
        lambda: random_nonparametric_mixture(0, 2, 3, n_knots=1),
        InputError, "n_knots must be a whole number >= 2, got 1",
    ),
    "nonparametric-block-dims-length": (
        lambda: random_nonparametric_mixture(0, 2, 3, block_dims=[1, 1]),
        InputError, "block_dims must have 3 entries, got 2",
    ),
    "nonparametric-empty-block": (
        lambda: random_nonparametric_mixture(0, 2, 3, block_dims=[1, 0, 1]),
        InputError, "block_dims[1] must be a whole number >= 1, got 0",
    ),
    "nonparametric-table-cap": (
        lambda: random_nonparametric_mixture(0, 2, 2, block_dims=[1, 2], n_knots=4),
        InputError, "CDF table has 16 entries, cap is 15", (sampling, "_draw_cdfs"),
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
