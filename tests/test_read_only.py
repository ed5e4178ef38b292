"""Models and tables own read-only copies of their arrays; public functions leave
their inputs untouched; one helper is the home of freezing."""

import ast
from pathlib import Path

import numpy as np
import pytest

from latentid.hmm import HiddenMarkovModel, recover_hmm, window_tensor
from latentid.latent_class import LatentClassModel, joint_distribution
from latentid.nonparametric import (
    CdfComponent,
    CutPointSet,
    NonparametricMixture,
    binned_conditional_matrix,
    bivariate_rank,
    recover_mixture,
)
from latentid.random_graph import (
    GraphMixtureModel,
    assignment_of_index,
    extract_parameters,
    node_state_prior,
    single_edge_marginal,
)
from latentid.recovery import align_permutation, decompose3, recover_latent_class
from latentid.sampling import random_hmm, random_latent_class, random_nonparametric_mixture
from latentid.tensor_core import (
    clump_tensor,
    khatri_rao,
    kruskal_rank,
    triple_product,
    unclump,
)

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "latentid"

EMISSION = [[0.5, 0.5], [0.2, 0.8]]

#: per class: the values of its array arguments, a builder taking those arrays,
#: and the arrays the built object holds
CLASSES = {
    "LatentClassModel": (
        [[0.4, 0.6], EMISSION, EMISSION, [[0.1, 0.9], [0.7, 0.3]]],
        lambda pi, *mats: LatentClassModel(pi, mats),
        lambda m: [m.pi, *m.emissions],
    ),
    "HiddenMarkovModel": (
        [[[0.9, 0.1], [0.3, 0.7]], [[0.6, 0.4], [0.1, 0.9]]],
        HiddenMarkovModel,
        lambda m: [m.A, m.B, m.pi, m.A_rev],
    ),
    "GraphMixtureModel": (
        [[0.3, 0.7], [[0.2, 0.5], [0.5, 0.8]]],
        GraphMixtureModel,
        lambda m: [m.pi, m.P],
    ),
    "NonparametricMixture": (
        [[0.4, 0.6]],
        lambda pi: NonparametricMixture(
            pi, ((CdfComponent.uniform(0, 1),), (CdfComponent.uniform(0, 2),))
        ),
        lambda m: [
            m.pi,
            *(a for f in m._families for a in (*f.grid, *f.knots, f.values, *f.cells)),
        ],
    ),
    "CdfComponent": (
        [[0.0, 0.5, 1.0], [0.0, 0.4, 1.0]],
        CdfComponent,
        lambda c: [*c.knots, c.values],
    ),
    "CdfComponent block": (
        [[0.0, 1.0], [0.0, 2.0], [[0.0, 0.0], [0.0, 1.0]]],
        lambda k1, k2, values: CdfComponent([k1, k2], values),
        lambda c: [*c.knots, c.values],
    ),
    "CutPointSet": (
        [[0.1, 0.5], [-1.0, 0.0, 2.0]],
        lambda *cuts: CutPointSet(cuts),
        lambda s: list(s.cuts),
    ),
}


@pytest.mark.parametrize("view", [False, True], ids=["owned", "view"])
@pytest.mark.parametrize("name", CLASSES)
def test_objects_hold_read_only_copies(name, view):
    values, build, held_by = CLASSES[name]
    if view:  # each argument is row 0 of a writeable base of two rows
        bases = [np.array([v, v], dtype=float) for v in values]
        arrays = [base[0] for base in bases]
    else:
        bases = arrays = [np.array(v, dtype=float) for v in values]
    held = held_by(build(*arrays))
    assert all(a.flags.writeable for a in arrays + bases)
    assert not any(a.flags.writeable for a in held)
    before = [a.tobytes() for a in held]
    for a in arrays + bases:
        a[...] = 7.0
    assert [a.tobytes() for a in held] == before


def _latent_class_inputs():
    model = random_latent_class(3, 2, (2, 2, 2, 2))
    return model, [np.array(a) for a in (model.pi, *model.emissions)]


def _mixture():
    return random_nonparametric_mixture(5, 2, 3)


def _case_kruskal_rank():
    M = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    return lambda: kruskal_rank(M), [M]


def _case_khatri_rao():
    _, (_, M1, M2, *_) = _latent_class_inputs()
    return lambda: khatri_rao([M1, M2]), [M1, M2]


def _case_triple_product():
    _, (_, M1, M2, M3, _) = _latent_class_inputs()
    return lambda: triple_product(M1, M2, M3), [M1, M2, M3]


def _case_clump_tensor():
    T = np.array(joint_distribution(_latent_class_inputs()[0]))
    return lambda: clump_tensor(T, [[0, 1], [2], [3]]), [T]


def _case_unclump():
    _, (_, M1, M2, *_) = _latent_class_inputs()
    A = khatri_rao([M1, M2])
    return lambda: unclump(A, [2, 2]), [A]


def _case_decompose3():
    _, (pi, M1, M2, M3, _) = _latent_class_inputs()
    T = triple_product(pi[:, None] * M1, M2, M3)
    return lambda: decompose3(T, 2, seed=0), [T]


def _case_recover_latent_class():
    T = np.array(joint_distribution(_latent_class_inputs()[0]))
    return lambda: recover_latent_class(T, 2, [[0], [1], [2, 3]], seed=0), [T]


def _case_recover_hmm():
    T = np.array(window_tensor(random_hmm(4, 2, 2), 1))
    return lambda: recover_hmm(T, 2, 2, 1, seed=0), [T]


def _case_align_permutation():
    _, (pi, M1, *_) = _latent_class_inputs()
    pi2, M2 = pi[::-1].copy(), M1[::-1].copy()
    return lambda: align_permutation((pi, [M1]), (pi2, [M2])), [pi, M1, pi2, M2]


def _case_binned_conditional_matrix():
    cuts = np.array([0.25, 0.5, 0.75])
    return lambda: binned_conditional_matrix(_mixture().variate(0), cuts), [cuts]


def _case_bivariate_rank():
    cuts1, cuts2 = np.array([0.3, 0.6]), np.array([0.2, 0.7])
    return lambda: bivariate_rank(_mixture(), 0, 1, cuts1, cuts2), [cuts1, cuts2]


def _case_recover_mixture():
    queries = [np.array([0.3, 0.6]), np.array([0.5]), np.array([0.2, 0.4, 0.8])]
    return lambda: recover_mixture(_mixture(), queries, seed=0), queries


def _case_extract_parameters():
    model = GraphMixtureModel(np.array([0.3, 0.7]), np.array([[0.2, 0.5], [0.5, 0.8]]))
    perm = np.random.default_rng(0).permutation(8)
    v_perm = node_state_prior(model.pi, 3)[perm]

    def oracle(row, edge):
        return single_edge_marginal(model, assignment_of_index(int(perm[row]), 2, 3), edge)

    return lambda: extract_parameters(v_perm, oracle, 3), [v_perm, perm]


INPUT_CASES = {
    name.removeprefix("_case_"): case
    for name, case in globals().items()
    if name.startswith("_case_")
}


@pytest.mark.parametrize("name", INPUT_CASES)
def test_public_functions_leave_their_inputs_untouched(name):
    call, inputs = INPUT_CASES[name]()
    assert all(a.flags.writeable for a in inputs)
    before = [a.tobytes() for a in inputs]
    call()
    assert [a.tobytes() for a in inputs] == before
    assert all(a.flags.writeable for a in inputs)


def _freezes(tree) -> list[int]:
    """Lines that store to ``<array>.flags.writeable`` or call ``setflags`` in ``tree``."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and (
            node.attr == "setflags"
            or node.attr == "writeable"
            and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Attribute)
            and node.value.attr == "flags"
        )
    ]


def test_only_read_only_freezes_arrays():
    trees = {path.name: ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")}
    freezes = {name: lines for name, tree in trees.items() if (lines := _freezes(tree))}
    assert list(freezes) == ["tensor_core.py"]
    (home,) = (
        f for f in trees["tensor_core.py"].body
        if isinstance(f, ast.FunctionDef) and f.name == "_read_only"
    )
    assert all(home.lineno < line <= home.end_lineno for line in freezes["tensor_core.py"])
