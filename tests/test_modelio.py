import json
import re
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from latentid import modelio, nonparametric
from latentid.errors import InputError, LatentIdError
from latentid.hmm import HiddenMarkovModel, _stationary
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
from latentid.tensor_core import POSITIVE_FLOOR, ROW_SUM_TOL, _whole_numbers, check_stochastic


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
    check_tables = nonparametric._check_tables
    with mock.patch.object(nonparametric, "_check_tables", wraps=check_tables) as check:
        loaded = model_from_dict(model_to_dict(model))
    assert check.call_count == len(shapes)
    assert_same_components(loaded, model)


def test_a_fault_in_the_stacked_pass_propagates():
    # the loader reads a file again one component at a time only after the
    # exceptions a faulty file raises; any other is a bug and propagates
    obj = model_to_dict(random_nonparametric_mixture(trial_rng(60, 8), 2, 2))
    with mock.patch.object(nonparametric, "_check_tables", side_effect=RuntimeError("stubbed")):
        with pytest.raises(RuntimeError, match="^stubbed$"):
            model_from_dict(obj)


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
    "cell-mass-overflow": (
        1, [0, 1, 2, 3], [0, 1e308, -1e308, 1], "CDF table has a negative cell mass -inf",
    ),
    # differences of +inf less +inf are NaN, which once hid the -1e308 masses
    "block-cell-mass-overflow": (
        2, [[0, 1, 2, 3]] * 2,
        [[0, 0, 0, 0], [0, -1e308, -1e308, 0], [0, 1e308, 1e308, 0.5], [0, 0.5, 0.5, 1]],
        "CDF table has a negative cell mass -inf",
    ),
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


@pytest.mark.parametrize("convert", [list, tuple, np.array])
def test_declared_fields_compare_as_json_lists(convert):
    # a Python caller may declare a sequence as a tuple or an array: it is
    # compared as the list a file would hold, and a mismatch names both values
    model = random_latent_class(trial_rng(60, 6), 2, (2, 3, 2))
    obj = model_to_dict(model)
    obj["kappas"] = convert([2, 3, 2])
    assert model_from_dict(obj).kappas == (2, 3, 2)
    obj["kappas"] = convert([2, 2, 2])
    with pytest.raises(ValueError, match=r"^declared kappas=.* but the model has \(2, 3, 2\)$"):
        model_from_dict(obj)


def test_unknown_type_rejected():
    with pytest.raises(ValueError):
        model_from_dict({"type": "mystery"})


@pytest.mark.parametrize("given", ["./missing.json", "a//missing.json", "missing.json/", "", "d/"])
def test_an_unreadable_file_is_named_as_pathlib_names_it(tmp_path, monkeypatch, given):
    # a file is opened by the name given, and one that fails is opened again
    # through Path, so the error names the path as pathlib normalizes it
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d").mkdir()
    with pytest.raises(OSError) as expected:
        Path(given).read_text()
    with pytest.raises(type(expected.value)) as raised:
        load_model(given)
    assert str(raised.value) == str(expected.value)
    assert "./" not in str(raised.value) and "//" not in str(raised.value)


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
        (
            "nonparametric", ("components", 0, 0, "knots"), (0.0, 1.0),
            "knots must be a list, got tuple",
        ),
        ("latent_class", ("pi", 0), 10**400, "^pi holds an integer past the float range$"),
        ("hmm", ("A", 1, 0), -(10**400), "^A holds an integer past the float range$"),
        (
            "nonparametric", ("components", 1, 2, "values", 1), 10**400,
            "^values holds an integer past the float range$",
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


#: faults a fuzzed nonparametric file may carry, each put into one entry
FUZZ_FAULTS = (
    "bool", "null", "string", "ragged-table", "ragged-grid", "negative-mass", "top-corner",
)


@st.composite
def nonparametric_documents(draw):
    """A nonparametric file's object: 1 to 3 classes, 1 to 3 variates of block
    dimension 1 or 2, 2 to 4 knots per coordinate, and 0 to 2 faults."""
    r, p = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    block_dims = draw(st.lists(st.integers(1, 2), min_size=p, max_size=p))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def component(b):
        parts = [random_piecewise_cdf(rng, draw(st.integers(2, 4))) for _ in range(b)]
        return parts[0] if b == 1 else CdfComponent.from_product(parts)

    rows = tuple(tuple(component(b) for b in block_dims) for _ in range(r))
    obj = model_to_dict(NonparametricMixture(pi=random_probability(rng, r), components=rows))
    obj = {key: obj[key] for key in ("type", "pi", "components")}  # no declared shape

    def leaf(node):
        """A random innermost list of ``node`` and an index into it."""
        while isinstance(node[0], list):
            node = node[draw(st.integers(0, len(node) - 1))]
        return node, draw(st.integers(0, len(node) - 1))

    cells = st.tuples(st.integers(0, r - 1), st.integers(0, p - 1))
    faults = draw(st.lists(st.tuples(cells, st.sampled_from(FUZZ_FAULTS)), max_size=2,
                           unique_by=lambda fault: fault[0]))
    for (i, j), fault in sorted(faults, key=lambda fault: -fault[0][1]):  # pops last-first
        entry = obj["components"][i][j]
        values = np.array(entry["values"])
        if fault in ("bool", "null", "string"):
            node, k = leaf(entry[draw(st.sampled_from(["knots", "values"]))])
            node[k] = {"bool": True, "null": None, "string": "0.5"}[fault]
        elif fault == "ragged-table":
            leaf(entry["values"])[0].pop()
        elif fault == "ragged-grid":
            obj["components"][i].pop(j)
        elif fault == "top-corner":
            values.flat[-1] = 1.5
        else:  # a value raised inside the table makes a later cell's mass negative
            inside = [at for at in np.ndindex(values.shape) if min(at) >= 1][:-1]
            if inside:
                values[draw(st.sampled_from(inside))] += 2.0
        if fault in ("top-corner", "negative-mass"):
            entry["values"] = values.tolist()
    return json.loads(json.dumps(obj))


def load_one_at_a_time(obj):
    """The model of a nonparametric file with every entry built through
    :class:`CdfComponent` on its own, in file order."""
    rows = tuple(
        tuple(CdfComponent(*modelio._parse_component(entry)) for entry in row)
        for row in obj["components"]
    )
    return NonparametricMixture(pi=modelio._floats(obj["pi"], "pi"), components=rows)


@settings(max_examples=200)
@given(nonparametric_documents())
def test_loader_equals_building_each_component(obj):
    # the stacked parse and check give the arrays, or the exception text,
    # of checking every entry on its own in file order
    try:
        expected = load_one_at_a_time(obj)
    except InputError as error:
        with pytest.raises(InputError) as raised:
            model_from_dict(obj)
        assert str(raised.value) == str(error)
        return
    loaded = model_from_dict(obj)
    assert loaded.pi.tobytes() == expected.pi.tobytes()
    assert loaded.block_dims == expected.block_dims
    for got, want in zip(loaded.components, expected.components):
        for a, b in zip(got, want):
            assert [k.tobytes() for k in a.knots] == [k.tobytes() for k in b.knots]
            assert a.values.tobytes() == b.values.tobytes()
            assert not any(x.flags.writeable for x in (*a.knots, a.values))


#: faults a fuzzed latent-class, HMM or graph file may carry, each put into one array
ARRAY_FAULTS = {
    "latent_class": (
        "nan", "infinity", "negative", "row-sum", "pi-zero", "pi-negative", "ragged",
        "extra-row", "missing-row",
    ),
    "hmm": (
        "nan", "infinity", "negative", "row-sum", "non-square", "extra-row", "missing-row",
        "ragged",
    ),
    "graph_mixture": (
        "nan", "infinity", "negative", "asymmetric", "pi-zero", "pi-negative", "ragged",
    ),
}


@st.composite
def array_documents(draw, family):
    """A ``family`` file's object with 0 to 2 faults, as JSON holds it: ``NaN``
    and ``Infinity`` literals load as floats."""
    rng = trial_rng(draw(st.integers(0, 2**16)), 0)
    model = {
        "latent_class": lambda: random_latent_class(
            rng, draw(st.integers(1, 3)), draw(st.lists(st.integers(2, 3), min_size=1, max_size=3))
        ),
        "hmm": lambda: random_hmm(rng, draw(st.integers(1, 3)), draw(st.integers(2, 3))),
        "graph_mixture": lambda: random_graph_mixture(rng),
    }[family]()
    obj = json.loads(json.dumps(model_to_dict(model)))
    obj = {key: value for key, value in obj.items() if key in ("type", "pi", "A", "B", "P",
                                                               "emissions")}  # no declared shape
    matrices = {"latent_class": obj.get("emissions"), "hmm": [obj.get("A"), obj.get("B")],
                "graph_mixture": [obj.get("P")]}[family]
    for fault in draw(st.lists(st.sampled_from(ARRAY_FAULTS[family]), max_size=2)):
        M = draw(st.sampled_from(matrices))
        i, j = draw(st.integers(0, len(M) - 1)), draw(st.integers(0, len(M[0]) - 1))
        if fault in ("nan", "infinity", "negative"):
            target = draw(st.sampled_from([M[i], obj.get("pi", M[i])]))
            k = draw(st.integers(0, len(target) - 1))
            target[k] = {"nan": float("nan"), "negative": -0.1,
                         "infinity": draw(st.sampled_from([float("inf"), -float("inf")]))}[fault]
        elif fault == "row-sum":
            M[i][j] += 1e-6
        elif fault == "asymmetric":
            M[0][1] += 1e-6
        elif fault in ("pi-zero", "pi-negative"):
            k = draw(st.integers(0, len(obj["pi"]) - 1))
            obj["pi"][k] = 0.0 if fault == "pi-zero" else -obj["pi"][k]
        elif fault == "ragged" and len(M[i]) > 1:
            M[i].pop()
        elif fault == "extra-row":
            M.append(list(M[i]))
        elif fault == "missing-row" and len(M) > 1:
            M.pop(i)
        elif fault == "non-square":
            for row in obj["A"]:
                row.append(0.0)
    return json.loads(json.dumps(obj))


def check_chain(obj) -> tuple:
    """The arrays of a latent-class, HMM or graph file, decided one check at a
    time, in the order of each constructor's chain, with its messages."""
    def probability_vector(pi):
        if pi.ndim != 1 or pi.size == 0:
            raise InputError("pi must be a nonempty 1-D array")
        if not np.all(np.isfinite(pi)):
            raise InputError("pi contains non-finite entries")
        if pi.min() <= POSITIVE_FLOOR:
            raise InputError("pi entries must be strictly positive")
        if abs(pi.sum() - 1.0) > ROW_SUM_TOL:
            raise InputError(f"pi must sum to 1 (got {pi.sum():.12g})")
        return pi

    def floats(key):
        return modelio._floats(obj[key], key)

    if obj["type"] == "latent_class":
        mats = tuple(modelio._floats(M, "emissions") for M in obj["emissions"])
        pi = probability_vector(floats("pi"))
        for j, M in enumerate(mats):
            check_stochastic(M, name=f"emissions[{j}]")
        for j, M in enumerate(mats):
            if M.shape[0] != pi.size:
                raise InputError(f"emissions[{j}] has {M.shape[0]} rows, expected r={pi.size}")
        _whole_numbers([M.shape[1] for M in mats], "kappas", 2)
        return pi, mats
    if obj["type"] == "hmm":
        A, B = floats("A"), floats("B")
        check_stochastic(A, name="A")
        check_stochastic(B, name="B")
        if B.shape[0] != A.shape[0]:
            raise InputError(f"B has {B.shape[0]} rows, expected r={A.shape[0]}")
        _stationary(A)
        return A, B
    pi, P = floats("pi"), floats("P")
    r = probability_vector(pi).size
    if P.shape != (r, r):
        raise InputError(f"P must be {r}x{r}, got {P.shape}")
    if not np.isfinite(P).all():
        raise InputError("connection matrix P must be finite")
    if not np.abs(P - P.T).max() <= 1e-12:
        raise InputError("connection matrix P must be symmetric")
    if P.min() < 0.0 or P.max() > 1.0:
        raise InputError("connection probabilities must lie in [0, 1]")
    return pi, P


@pytest.mark.parametrize("family", sorted(ARRAY_FAULTS))
@settings(max_examples=300)
@given(data=st.data())
def test_single_pass_loads_decide_as_the_check_chain(family, data):
    # each constructor's one stacked pass accepts what its check chain
    # accepts, without a warning; a refusal names the chain's first fault
    obj = data.draw(array_documents(family))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            arrays = check_chain(obj)
        except LatentIdError as error:
            with pytest.raises(type(error)) as raised:
                model_from_dict(obj)
            assert str(raised.value) == str(error)
            return
        loaded = model_from_dict(obj)
    kind = {"latent_class": LatentClassModel, "hmm": HiddenMarkovModel,
            "graph_mixture": GraphMixtureModel}[obj["type"]]
    built = kind(*arrays)
    fields = {"latent_class": ("pi",), "hmm": ("A", "B", "pi", "A_rev"),
              "graph_mixture": ("pi", "P")}[obj["type"]]
    got = [getattr(loaded, f) for f in fields] + list(getattr(loaded, "emissions", ()))
    want = [getattr(built, f) for f in fields] + list(getattr(built, "emissions", ()))
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
    assert [a.shape for a in got] == [a.shape for a in want]
    assert not any(a.flags.writeable for a in got)


def test_zero_row_hmm_arrays_are_refused_by_the_check_chain():
    # zero-row arrays from a Python caller fail the stacked pass on their row
    # count, so the check chain names the fault
    with pytest.raises(InputError, match="^A must have at least one row and column$"):
        HiddenMarkovModel(A=np.zeros((0, 2)), B=np.zeros((0, 3)))
