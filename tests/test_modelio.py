import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from latentid import modelio
from latentid.errors import InputError
from latentid.hmm import HiddenMarkovModel
from latentid.latent_class import LatentClassModel
from latentid.modelio import load_model, model_from_dict, model_to_dict, save_model
from latentid.nonparametric import CdfComponent, NonparametricMixture
from latentid.random_graph import GraphMixtureModel
from latentid.sampling import (
    random_graph_mixture,
    random_hmm,
    random_latent_class,
    random_nonparametric_mixture,
    random_piecewise_cdf,
    random_probability,
    trial_rng,
)


def test_latent_class_round_trip(tmp_path):
    model = random_latent_class(trial_rng(60, 0), 3, (2, 3, 4))
    path = tmp_path / "lc.json"
    save_model(model, path)
    loaded = load_model(path)
    assert isinstance(loaded, LatentClassModel)
    assert np.allclose(loaded.pi, model.pi)
    for a, b in zip(loaded.emissions, model.emissions):
        assert np.allclose(a, b)


def test_hmm_round_trip(tmp_path):
    model = random_hmm(trial_rng(60, 1), 3, 2)
    path = tmp_path / "hmm.json"
    save_model(model, path)
    loaded = load_model(path)
    assert isinstance(loaded, HiddenMarkovModel)
    assert np.allclose(loaded.A, model.A)
    assert np.allclose(loaded.B, model.B)
    assert np.allclose(loaded.pi, model.pi)  # derived, not stored


def test_graph_round_trip(tmp_path):
    model = random_graph_mixture(trial_rng(60, 2))
    path = tmp_path / "graph.json"
    save_model(model, path)
    loaded = load_model(path)
    assert isinstance(loaded, GraphMixtureModel)
    assert np.allclose(loaded.pi, model.pi)
    assert np.allclose(loaded.P, model.P)


def assert_same_components(loaded, model):
    """Every knot and value of ``loaded`` equals ``model``'s: JSON floats round-trip exactly."""
    assert loaded.block_dims == model.block_dims
    for i in range(model.r):
        for j in range(model.p):
            a, b = loaded.components[i][j], model.components[i][j]
            assert len(a.knots) == len(b.knots)
            assert all(np.array_equal(x, y) for x, y in zip(a.knots, b.knots))
            assert np.array_equal(a.values, b.values)
            assert not any(x.flags.writeable for x in (*a.knots, a.values))


def test_nonparametric_round_trip(tmp_path):
    model = random_nonparametric_mixture(trial_rng(60, 3), 2, 3, block_dims=[1, 2, 1])
    path = tmp_path / "npm.json"
    save_model(model, path)
    loaded = load_model(path)
    assert isinstance(loaded, NonparametricMixture)
    assert np.array_equal(loaded.pi, model.pi)
    assert_same_components(loaded, model)


def test_loaded_components_share_one_stack_per_shape(tmp_path):
    # the loader checks each table shape's stacks once and the components
    # keep read-only rows of them, with no copy per component
    model = random_nonparametric_mixture(trial_rng(60, 4), 3, 3, block_dims=[1, 2, 1])
    path = tmp_path / "npm.json"
    save_model(model, path)
    loaded = load_model(path)
    assert_same_components(loaded, model)
    comps = [loaded.components[i][j] for i in range(3) for j in (0, 2)]
    arrays = [a for comp in comps for a in (comp.values, comp.knots[0])]
    assert all(a.base is not None for a in arrays)
    assert len({id(a.base) for a in arrays}) == 2


@st.composite
def ragged_mixtures(draw):
    """Mixtures of 1-D variates and 2-D blocks whose components have equal
    knot counts (one table shape per block dimension) or ragged ones."""
    r, p = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    block_dims = draw(st.lists(st.integers(1, 2), min_size=p, max_size=p))
    knots = st.integers(2, 5) if draw(st.booleans()) else st.just(draw(st.integers(2, 5)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def component(b):
        parts = [random_piecewise_cdf(rng, draw(knots)) for _ in range(b)]
        return parts[0] if b == 1 else CdfComponent.from_product(parts)

    rows = tuple(tuple(component(b) for b in block_dims) for _ in range(r))
    return NonparametricMixture(pi=random_probability(rng, r), components=rows)


@given(ragged_mixtures())
def test_loader_checks_each_table_shape_once(model):
    shapes = {
        (tuple(k.shape for k in comp.knots), comp.values.shape)
        for row in model.components for comp in row
    }
    with mock.patch.object(modelio, "_check_tables", wraps=modelio._check_tables) as check:
        loaded = model_from_dict(model_to_dict(model))
    assert check.call_count == len(shapes)
    assert_same_components(loaded, model)


#: (block dimension of variate 2, knots, values, message) for each table fault
#: of CdfComponent, put at component (1, 2) of a file
TABLE_FAULTS = {
    "knots-increasing": (
        1, [0, 0.5, 0.5, 1], [0, 0.3, 0.6, 1],
        "knot array 0 must be finite and strictly increasing",
    ),
    "value-finite": (1, [0, 0.5, 1], [0, float("nan"), 1], "CDF values must be finite"),
    "floor": (
        1, [0, 0.5, 1], [0.1, 0.5, 1],
        "slice at the first knot of coordinate 0 must be 0 (the table clamps to its endpoints)",
    ),
    "cell-mass": (1, [0, 1, 2, 3], [0, 0.7, 0.5, 1], "CDF table has a negative cell mass -0.2"),
    "block-cell-mass": (
        2, [[0, 1, 2]] * 2, [[0, 0, 0], [0, 0.2, 0.8], [0, 0.8, 1]],
        "CDF table has a negative cell mass -0.4",
    ),
    "top-corner": (1, [0, 0.5, 1], [0, 0.5, 0.9], "top corner of the CDF table must be 1"),
}


def faulty_file(block_dim, faults):
    """A 3-class, 3-variate file with each ``(i, j, entry)`` of ``faults`` put in."""
    model = random_nonparametric_mixture(trial_rng(60, 7), 3, 3, block_dims=[1, 1, block_dim])
    obj = model_to_dict(model)
    for i, j, entry in faults:
        obj["components"][i][j] = entry
    return obj


@pytest.mark.parametrize("case", list(TABLE_FAULTS))
def test_loader_names_a_table_fault_as_the_constructor_does(case):
    block_dim, knots, values, message = TABLE_FAULTS[case]
    with pytest.raises(InputError) as constructed:
        CdfComponent(knots, values)
    assert str(constructed.value) == message
    obj = faulty_file(block_dim, [(1, 2, {"knots": knots, "values": values})])
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        model_from_dict(obj)


@pytest.mark.parametrize(
    "table_at, json_at, message",
    [
        # parsing stops at the later JSON-type fault before any table is checked
        ((1, 0), (1, 2), "CDF table has a negative cell mass -0.2"),
        ((1, 2), (1, 0), "values must hold only numbers"),
    ],
)
def test_the_first_of_two_faults_is_named(table_at, json_at, message):
    # first in [class][variate] order
    faults = [
        (*table_at, {"knots": [0, 1, 2, 3], "values": [0, 0.7, 0.5, 1]}),
        (*json_at, {"knots": [0, 1], "values": [None, {}]}),
    ]
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        model_from_dict(faulty_file(1, faults))


def random_model(family: str, rng):
    """A small random model of the family named by its file's "type" key."""
    return {
        "latent_class": lambda: random_latent_class(rng, 2, (2, 2, 2)),
        "hmm": lambda: random_hmm(rng, 3, 2),
        "graph_mixture": lambda: random_graph_mixture(rng),
        "nonparametric": lambda: random_nonparametric_mixture(rng, 3, 3),
    }[family]()


def test_declared_shape_mismatch_rejected():
    model = random_latent_class(trial_rng(60, 4), 2, (2, 2))
    obj = model_to_dict(model)
    obj["r"] = 3
    with pytest.raises(ValueError):
        model_from_dict(obj)


@pytest.mark.parametrize(
    "family, key, declared",
    [
        ("latent_class", "r", 3),
        ("latent_class", "kappas", [2, 2, 3]),
        ("hmm", "r", 4),
        ("hmm", "kappa", 3),
        ("graph_mixture", "r", 3),
        ("nonparametric", "r", 5),
        ("nonparametric", "p", 9),
        ("nonparametric", "block_dims", [1, 2, 1]),
    ],
)
def test_every_declared_header_field_is_checked(family, key, declared):
    model = random_model(family, trial_rng(60, 5))
    obj = model_to_dict(model)
    assert obj["type"] == family
    assert type(model_from_dict(obj)) is type(model)
    obj[key] = declared
    with pytest.raises(ValueError, match="declared"):
        model_from_dict(obj)


def test_unknown_type_rejected():
    with pytest.raises(ValueError):
        model_from_dict({"type": "mystery"})


def test_only_models_are_serialized():
    with pytest.raises(TypeError, match="^unsupported model type dict$"):
        model_to_dict({"type": "hmm"})


@pytest.mark.parametrize(
    "family, path, value, message",
    [
        ("latent_class", ("emissions",), 5, "emissions must be a list, got int"),
        ("latent_class", ("emissions", 0), {"a": 1}, "emissions must hold only numbers"),
        ("latent_class", ("pi",), [{"a": 1}, 0.5], "pi must hold only numbers"),
        ("hmm", ("A", 0), [0.5, {}, 0.5], "A must hold only numbers"),
        ("graph_mixture", ("P",), {"a": 1}, "P must hold only numbers"),
        ("nonparametric", ("components",), None, "components must be a list, got NoneType"),
        ("nonparametric", ("components", 0), 5, "a components row must be a list, got int"),
        ("nonparametric", ("components", 0, 0), 5, "a component must be an object, got int"),
        ("nonparametric", ("components", 0, 0, "knots"), 5, "knots must be a list, got int"),
        ("nonparametric", ("components", 0, 0, "knots"), [], "knots must not be empty"),
        ("nonparametric", ("components", 0, 0, "knots"), [{}], "knots must hold only numbers"),
        ("nonparametric", ("components", 0, 0, "values"), [None, {}], "values must hold"),
        ("latent_class", ("pi",), ["0.25", "0.75"], "^pi must hold only numbers$"),
        ("hmm", ("A", 0, 1), True, "^A must hold only numbers$"),
        ("hmm", ("B",), [[True, False]] * 3, "^B must hold only numbers$"),
        ("graph_mixture", ("P", 1, 0), None, "^P must hold only numbers$"),
        (
            "nonparametric", ("components", 0, 1, "values", 1), "0.5",
            "^values must hold only numbers$",
        ),
    ],
)
def test_wrong_json_types_are_input_errors(family, path, value, message):
    obj = model_to_dict(random_model(family, trial_rng(60, 6)))
    inner = obj
    for key in path[:-1]:
        inner = inner[key]
    inner[path[-1]] = value
    with pytest.raises(InputError, match=message):
        model_from_dict(obj)


def test_every_json_number_loads_as_a_float():
    # integers past int64 are numbers too, though numpy infers an object array for them
    entry = {"knots": [-(2**70), 0, 2**70], "values": [0, 0.5, 1]}
    model = model_from_dict({"type": "nonparametric", "pi": [1], "components": [[entry]]})
    (comp,) = model.components[0]
    assert comp.knots[0].tolist() == [-(2.0**70), 0.0, 2.0**70]
    assert comp.values.tolist() == [0.0, 0.5, 1.0]
    assert model.pi.dtype == comp.knots[0].dtype == comp.values.dtype == np.float64


@pytest.mark.parametrize("obj", [[1, 2], 5, "hmm", None])
def test_a_model_is_a_json_object(obj):
    with pytest.raises(InputError, match="must hold a JSON object"):
        model_from_dict(obj)


def test_block_knot_lists_may_differ_in_length():
    block = CdfComponent([[0, 1, 2], [0, 1]], [[0, 0], [0, 0.5], [0, 1]])
    uniform = CdfComponent.uniform(0, 1)
    model = NonparametricMixture(pi=np.array([1.0]), components=((uniform, uniform, block),))
    loaded = model_from_dict(model_to_dict(model))
    assert [k.tolist() for k in loaded.components[0][2].knots] == [[0, 1, 2], [0, 1]]
