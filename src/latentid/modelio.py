"""JSON model files.

Schemas, one per model family, dispatched on the ``"type"`` key:

* ``{"type": "latent_class", "r": ..., "kappas": [...], "pi": [...],
  "emissions": [[[...]]]}`` with emissions indexed ``[variate][class][state]``;
* ``{"type": "hmm", "r": ..., "kappa": ..., "A": [[...]], "B": [[...]]}``
  (the stationary distribution is derived);
* ``{"type": "graph_mixture", "r": 2, "pi": [...], "P": [[...]]}``;
* ``{"type": "nonparametric", "r": ..., "p": ..., "block_dims": [...],
  "pi": [...], "components": [[{"knots": [...], "values": [...]}]]}`` with
  components indexed ``[class][variate]``; knots and values are flat lists
  for one-dimensional variates and nested lists for blocks.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import InputError
from .hmm import HiddenMarkovModel
from .latent_class import LatentClassModel
from .nonparametric import CdfComponent, NonparametricMixture
from .random_graph import GraphMixtureModel

Model = LatentClassModel | HiddenMarkovModel | GraphMixtureModel | NonparametricMixture


def model_to_dict(model: Model) -> dict:
    if isinstance(model, LatentClassModel):
        return {
            "type": "latent_class",
            "r": model.r,
            "kappas": list(model.kappas),
            "pi": model.pi.tolist(),
            "emissions": [M.tolist() for M in model.emissions],
        }
    if isinstance(model, HiddenMarkovModel):
        return {
            "type": "hmm",
            "r": model.r,
            "kappa": model.kappa,
            "A": model.A.tolist(),
            "B": model.B.tolist(),
        }
    if isinstance(model, GraphMixtureModel):
        return {
            "type": "graph_mixture",
            "r": model.r,
            "pi": model.pi.tolist(),
            "P": model.P.tolist(),
        }
    if isinstance(model, NonparametricMixture):
        return {
            "type": "nonparametric",
            "r": model.r,
            "p": model.p,
            "block_dims": list(model.block_dims),
            "pi": model.pi.tolist(),
            "components": [
                [
                    {
                        "knots": _knots_to_json(comp),
                        "values": comp.values.tolist(),
                    }
                    for comp in row
                ]
                for row in model.components
            ],
        }
    raise TypeError(f"unsupported model type {type(model).__name__}")


def _knots_to_json(comp: CdfComponent):
    if comp.block_dim == 1:
        return comp.knots[0].tolist()
    return [k.tolist() for k in comp.knots]


def model_from_dict(obj: dict) -> Model:
    kind = obj.get("type")
    if kind == "latent_class":
        emissions = tuple(np.asarray(M, dtype=float) for M in obj["emissions"])
        model = LatentClassModel(pi=np.asarray(obj["pi"], dtype=float), emissions=emissions)
    elif kind == "hmm":
        model = HiddenMarkovModel(
            A=np.asarray(obj["A"], dtype=float), B=np.asarray(obj["B"], dtype=float)
        )
    elif kind == "graph_mixture":
        model = GraphMixtureModel(
            pi=np.asarray(obj["pi"], dtype=float), P=np.asarray(obj["P"], dtype=float)
        )
    elif kind == "nonparametric":
        rows = tuple(
            tuple(
                CdfComponent(entry["knots"], entry["values"]) for entry in row
            )
            for row in obj["components"]
        )
        model = NonparametricMixture(pi=np.asarray(obj["pi"], dtype=float), components=rows)
    else:
        raise InputError(f"unknown model type {kind!r}")
    for key in ("r", "p", "kappa", "kappas", "block_dims"):
        if key in obj and hasattr(model, key):
            actual = getattr(model, key)
            if not np.array_equal(actual, obj[key]):
                raise InputError(f"declared {key}={obj[key]} but the model has {actual}")
    return model


def save_model(model: Model, path) -> None:
    Path(path).write_text(json.dumps(model_to_dict(model), indent=2) + "\n")


def load_model(path) -> Model:
    return model_from_dict(json.loads(Path(path).read_text()))
