import numpy as np
import pytest

from latentid.hmm import HiddenMarkovModel
from latentid.latent_class import LatentClassModel
from latentid.modelio import load_model, model_from_dict, model_to_dict, save_model
from latentid.nonparametric import NonparametricMixture
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
    rng = trial_rng(60, 5)
    model = {
        "latent_class": lambda: random_latent_class(rng, 2, (2, 2, 2)),
        "hmm": lambda: random_hmm(rng, 3, 2),
        "graph_mixture": lambda: random_graph_mixture(rng),
        "nonparametric": lambda: random_nonparametric_mixture(rng, 3, 3),
    }[family]()
    obj = model_to_dict(model)
    assert obj["type"] == family
    assert type(model_from_dict(obj)) is type(model)
    obj[key] = declared
    with pytest.raises(ValueError, match="declared"):
        model_from_dict(obj)


def test_unknown_type_rejected():
    with pytest.raises(ValueError):
        model_from_dict({"type": "mystery"})
