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

A file is read as its model's public constructor reads its arrays, with
every check: the constructor accepts a valid model in one stacked pass and
names the first fault of any other.  A nonparametric file makes no
component objects here: its knot lists and tables go as parsed to
:meth:`~latentid.nonparametric.NonparametricMixture._from_entries`, which
converts each table shape's entries with one :func:`_floats` call per knot
coordinate and one for the tables, checks them once with the checks of
:class:`~latentid.nonparametric.CdfComponent`, and takes the stacks as its
own.  A file that fails is read again one component at a time, in file
order, so the error names its first fault, as checking each component on
its own would.
"""

from __future__ import annotations

import itertools
import json
import os
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
                        "knots": [k.tolist() for k in comp.knots]
                        if comp.block_dim > 1 else comp.knots[0].tolist(),
                        "values": comp.values.tolist(),
                    }
                    for comp in row
                ]
                for row in model.components
            ],
        }
    raise TypeError(f"unsupported model type {type(model).__name__}")


def _field(obj: dict, key: str, owner: str):
    """``obj[key]``, refused by name when the file leaves it out."""
    try:
        return obj[key]
    except KeyError:
        raise InputError(f"{owner} has no field {key!r}") from None


def _list(value, name: str) -> list:
    if not isinstance(value, list):
        raise InputError(f"{name} must be a list, got {type(value).__name__}")
    return value


def _floats(value, name: str) -> np.ndarray:
    """A number or nested list of numbers as a float array.  One pass over the
    element types, in C, accepts the ints and floats of a JSON file at once,
    and refuses a boolean, null or string among the numbers, which numpy would
    convert, and an integer past the float range."""
    try:
        floats = np.asarray(value, dtype=float)
        items = [value] if floats.ndim == 0 else value
        for _ in range(floats.ndim - 1):
            items = itertools.chain.from_iterable(items)
        if {float, int}.issuperset(map(type, items)):
            return floats
    except (TypeError, ValueError):  # decided below, with the message
        pass
    except OverflowError:
        raise InputError(f"{name} holds an integer past the float range") from None
    try:
        arr = np.asarray(value)
        floats = arr.astype(float, copy=False)  # also integers past int64, held as objects
        items = [value] if arr.ndim == 0 else value
        for _ in range(arr.ndim - 1):
            items = itertools.chain.from_iterable(items)
        types = set(map(type, items))
        if arr.dtype.kind in "iufO" and types.isdisjoint((bool, np.bool_, type(None), str)):
            return floats
    except TypeError:  # an object, such as a dict, among the numbers
        pass
    except ValueError:  # a string that is not a number, or rows of unequal length
        raise InputError(f"{name} must hold only numbers, in rows of equal length") from None
    raise InputError(f"{name} must hold only numbers")


def _parse_component(entry) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """A component entry's knot arrays, one per coordinate, and its values."""
    if not isinstance(entry, dict):
        raise InputError(f"a component must be an object, got {type(entry).__name__}")
    knots = _list(_field(entry, "knots", "a component"), "knots")
    if not knots:
        raise InputError("knots must not be empty")
    if isinstance(knots[0], list):  # one knot list per coordinate of a block
        knots = tuple(_floats(k, "knots") for k in knots)
    else:
        knots = (_floats(knots, "knots"),)
    return knots, _floats(_field(entry, "values", "a component"), "values")


def _entries(rows) -> tuple[list[list], list[list]]:
    """The knot lists and tables, as parsed, of a file's ``[class][variate]``
    grid of components.  A fault, not always the file's first, raises
    :class:`InputError`, or :class:`KeyError` where a field is missing."""
    rows = [_list(row, "a components row") for row in _list(rows, "components")]
    if {type(entry) for row in rows for entry in row} != {dict}:
        raise InputError("components must be objects")
    knots = [[entry["knots"] for entry in row] for row in rows]
    if {type(kn) for row in knots for kn in row} != {list}:
        raise InputError("knots must be lists")
    return knots, [[entry["values"] for entry in row] for row in rows]


def _plain(value):
    """A tuple or array as the list that JSON would hold, anything else as it is."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    return list(value) if isinstance(value, tuple) else value


def model_from_dict(obj: dict) -> Model:
    """The model a file's JSON object describes.

    Raises :class:`InputError` when ``obj`` or a field of it has the wrong
    JSON type, or when a field is missing.
    """
    if not isinstance(obj, dict):
        raise InputError(f"a model file must hold a JSON object, got {type(obj).__name__}")
    kind = _field(obj, "type", "a model file")
    owner = f"{kind} model file"

    def floats(key):
        return _floats(_field(obj, key, owner), key)

    if kind == "latent_class":
        emissions = _list(_field(obj, "emissions", owner), "emissions")
        emissions = tuple(_floats(M, "emissions") for M in emissions)
        model = LatentClassModel(pi=floats("pi"), emissions=emissions)
    elif kind == "hmm":
        model = HiddenMarkovModel(A=floats("A"), B=floats("B"))
    elif kind == "graph_mixture":
        model = GraphMixtureModel(pi=floats("pi"), P=floats("P"))
    elif kind == "nonparametric":
        rows = _field(obj, "components", owner)
        try:
            model = NonparametricMixture._from_entries(floats("pi"), *_entries(rows), _floats)
        except (InputError, KeyError, IndexError, TypeError):
            # read again one component at a time, in file order, to name the first fault
            rows = tuple(
                tuple(CdfComponent(*_parse_component(e)) for e in _list(row, "a components row"))
                for row in _list(rows, "components")
            )
            model = NonparametricMixture(pi=floats("pi"), components=rows)
    else:
        raise InputError(f"unknown model type {kind!r}")
    for key in ("r", "p", "kappa", "kappas", "block_dims"):
        if key in obj and hasattr(model, key):
            actual = getattr(model, key)
            if _plain(actual) != _plain(obj[key]):
                raise InputError(f"declared {key}={obj[key]} but the model has {actual}")
    return model


def save_model(model: Model, path) -> None:
    Path(path).write_text(json.dumps(model_to_dict(model), indent=2) + "\n")


def load_model(path) -> Model:
    try:  # Path(path).read_text() parses the path first; the name given opens without it
        with open(os.fspath(path)) as f:
            text = f.read()
    except OSError:  # raised again as Path raises it, naming the path as Path writes it
        text = Path(path).read_text()
    return model_from_dict(json.loads(text))
