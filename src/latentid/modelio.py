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

A nonparametric file's CDF tables are checked by
:func:`~latentid.nonparametric._check_tables`, the checks of
:class:`~latentid.nonparametric.CdfComponent`, in one stacked pass per table
shape.  A file that fails is read again one component at a time, in file
order, so the error names its first fault, as checking each component on its
own would.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

import numpy as np

from .errors import InputError
from .hmm import HiddenMarkovModel
from .latent_class import LatentClassModel
from .nonparametric import CdfComponent, NonparametricMixture, _check_tables
from .random_graph import GraphMixtureModel
from .tensor_core import _read_only

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
    element types, in C, refuses a boolean, null or string among the numbers,
    which numpy would convert."""
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


def _components(rows) -> tuple[tuple[CdfComponent, ...], ...]:
    """The ``[class][variate]`` grid of components a file's entries describe.

    Every entry is parsed first, then the tables of each shape are stacked
    into read-only arrays, checked in one pass
    (:func:`~latentid.nonparametric._check_tables`), and each component keeps
    read-only row views of its shape's stacks.  A file that fails either step
    is read again one component at a time, in file order, so the error raised
    is that of its first faulty entry, whatever the fault.
    """
    try:
        parsed = [
            [_parse_component(entry) for entry in _list(row, "a components row")]
            for row in _list(rows, "components")
        ]
        shapes = {}
        for i, row in enumerate(parsed):
            for j, (knots, values) in enumerate(row):
                shapes.setdefault((tuple(k.shape for k in knots), values.shape), []).append((i, j))
        grid = [[None] * len(row) for row in parsed]
        for group in shapes.values():
            entries = [parsed[i][j] for i, j in group]
            stacks = [_read_only(axis) for axis in zip(*(knots for knots, _ in entries))]
            tables = _read_only([values for _, values in entries])
            _check_tables(stacks, tables)
            for k, (i, j) in enumerate(group):
                grid[i][j] = CdfComponent._checked(tuple(s[k] for s in stacks), tables[k])
    except Exception:  # whatever failed, the pass below raises the first entry's error
        return tuple(
            tuple(
                CdfComponent(*_parse_component(entry))
                for entry in _list(row, "a components row")
            )
            for row in _list(rows, "components")
        )
    return tuple(map(tuple, grid))


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
        rows = _components(_field(obj, "components", owner))
        model = NonparametricMixture(pi=floats("pi"), components=rows)
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
