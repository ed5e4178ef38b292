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

A nonparametric file is parsed and checked once per table shape, which its
knot lists' lengths give, by :func:`~latentid.nonparametric._check_tables`,
the checks of :class:`~latentid.nonparametric.CdfComponent`; each component
is a read-only row view of its group's arrays, which the
:class:`~latentid.nonparametric.NonparametricMixture` copies once into its
own stacks.  A file that fails is read again one component at a time, in
file order, so the error names its first fault, as checking each component
on its own would.
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

    The entries are grouped by the lengths of their knot lists; each group's
    knots, per coordinate, and tables are converted in one :func:`_floats`
    call each and checked in one pass (:func:`_check_tables`), and each
    component is a read-only row view of its group's arrays.  A file that
    fails either step is read again one component at a time, in file order,
    so the error raised is that of its first faulty entry, whatever the fault.
    """
    try:
        entries = [_list(row, "a components row") for row in _list(rows, "components")]
        groups, grid = {}, [[None] * len(row) for row in entries]
        for i, row in enumerate(entries):
            for j, entry in enumerate(row):
                kn = _list(entry["knots"] if isinstance(entry, dict) else None, "knots")
                kn = kn if isinstance(kn[0], list) else [kn]  # one list per coordinate
                groups.setdefault(tuple(map(len, kn)), []).append((i, j, kn, entry["values"]))
        for key, group in groups.items():
            knots = [[kn[c] for _, _, kn, _ in group] for c in range(len(key))]
            knots = [_read_only(_floats(k, "knots")) for k in knots]
            values = _read_only(_floats([v for *_, v in group], "values"))
            _check_tables(knots, values)
            for (i, j, *_), row_knots, table in zip(group, zip(*knots), values):
                grid[i][j] = CdfComponent._checked(row_knots, table)
    except Exception:  # whatever failed, the pass below raises the first entry's error
        return tuple(
            tuple(CdfComponent(*_parse_component(e)) for e in _list(row, "a components row"))
            for row in _list(rows, "components")
        )
    return tuple(map(tuple, grid))


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
        rows = _components(_field(obj, "components", owner))
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
    return model_from_dict(json.loads(Path(path).read_text()))
