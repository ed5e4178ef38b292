"""A seeded mutation fuzz of model files through the CLI.

Each family's files are drawn at random, mutated up to three times, and run
through both of the family's model-file commands: every run exits 0, 1 or 2,
and no other exception (a RuntimeWarning included, which the test suite turns
into an error) leaves :func:`latentid.cli.run`.  There are
``FILES_PER_FAMILY`` files per family, 1,600 files and 3,200 runs in all.
"""

import contextlib
import copy
import io
import json

import numpy as np

from latentid.cli import run
from latentid.modelio import model_to_dict
from latentid.sampling import (
    random_graph_mixture,
    random_hmm,
    random_latent_class,
    random_nonparametric_mixture,
    trial_rng,
)

#: per family, a small random model and its commands with their options
FAMILIES = {
    "latent_class": (
        lambda rng: random_latent_class(rng, 2, (2, 2, 3)),
        [["certify-lc"], ["recover-lc"]],
    ),
    "hmm": (lambda rng: random_hmm(rng, 2, 2), [["hmm-certify"], ["hmm-recover"]]),
    "graph_mixture": (
        random_graph_mixture,
        [["graph-certify", "--m", "3"], ["graph-extract", "--n", "3"]],
    ),
    "nonparametric": (
        lambda rng: random_nonparametric_mixture(rng, 2, 3, n_knots=3),
        [["nonparam-cuts"], ["nonparam-recover", "--queries", "2"]],
    ),
}
FILES_PER_FAMILY = 400

#: what a mutation may put in place of a number
NUMBERS = [float("nan"), float("inf"), -float("inf"), -0.25, 0.0, 2.0, 1e300, -1e-300, 2**70]
#: what a mutation may put in place of any entry or field
REPLACEMENTS = [*NUMBERS, True, None, "0.5", {}, [], [[]], [0.5, 0.5]]


def _places(node):
    """Every ``(container, key)`` pair below ``node``."""
    for key in list(node) if isinstance(node, dict) else range(len(node)):
        yield node, key
        if isinstance(node[key], (dict, list)):
            yield from _places(node[key])


def _mutate(obj, rng) -> None:
    """One random edit of ``obj`` in place: mostly a number replaced, negated
    or nudged by 1e-6 or by a relative 1e-13, else an entry or field replaced,
    dropped, doubled or wrapped in a list."""
    places = list(_places(obj))
    numbers = [(node, key) for node, key in places if type(node[key]) in (int, float)]
    if numbers and rng.random() < 0.7:
        node, key = numbers[rng.integers(len(numbers))]
        value = node[key]
        edits = [*NUMBERS, -value, value + 1e-6, value * (1 + 1e-13)]
        node[key] = edits[rng.integers(len(edits))]
        return
    node, key = places[rng.integers(len(places))]
    edit = rng.integers(4)
    if edit == 0:
        node[key] = copy.deepcopy(REPLACEMENTS[rng.integers(len(REPLACEMENTS))])
    elif edit == 1:
        del node[key]
    elif edit == 2 and isinstance(node, list):
        node.insert(key, copy.deepcopy(node[key]))
    else:
        node[key] = [node[key]]


def test_mutated_model_files_exit_0_1_or_2(tmp_path):
    rng = trial_rng(51, 0)
    for family, (draw, commands) in FAMILIES.items():
        for f in range(FILES_PER_FAMILY):
            obj = model_to_dict(draw(rng))
            for _ in range(rng.integers(0, 4)):
                _mutate(obj, rng)
            text = json.dumps(obj)
            if rng.random() < 0.05:  # a file cut short
                text = text[: rng.integers(len(text))]
            path = tmp_path / f"{family}-{f}.json"
            path.write_text(text)
            for command in commands:
                argv = [command[0], "--model", str(path), *command[1:], "--json"]
                out = io.StringIO()
                try:
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                        code = run(argv)
                except Exception as exc:
                    raise AssertionError(f"{' '.join(argv)} on {text}") from exc
                assert code in (0, 1, 2), (argv, text)
