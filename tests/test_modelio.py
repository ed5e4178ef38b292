import numpy as np
import pytest

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


def test_nonparametric_round_trip(tmp_path):
    model = random_nonparametric_mixture(trial_rng(60, 3), 2, 3, block_dims=[1, 2, 1])
    path = tmp_path / "npm.json"
    save_model(model, path)
    loaded = load_model(path)
    assert isinstance(loaded, NonparametricMixture)
    assert np.allclose(loaded.pi, model.pi)
    assert loaded.block_dims == model.block_dims
    for i in range(model.r):
        for j in range(model.p):
            a, b = loaded.components[i][j], model.components[i][j]
            assert all(np.allclose(x, y) for x, y in zip(a.knots, b.knots))
            assert np.allclose(a.values, b.values)


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
