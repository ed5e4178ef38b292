"""End-to-end checks of the ``latentid`` console script, one table.

Each row of :data:`CHECKS` runs one command line, ``(argv, exit code,
check)``, in a fresh working directory that holds the model files its argv
names, built by :data:`FILES`.  A row runs in-process through
:func:`latentid.cli.run`, unless the process boundary is the point:

* a :data:`TWICE` row runs in two child processes at one BLAS thread, whose
  stdout must be byte-identical;
* a :data:`TIMED` row runs in one child that must end within 60 s.

A child runs ``python -c "from latentid.cli import main; main()"``, the
function the installed entry point calls.  RuntimeWarnings are errors in
every row.  ``check``, when given, takes the row's stdout and stderr.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import latentid
from latentid.cli import run
from latentid.errors import DegenerateSpectrumError
from latentid.hmm import HiddenMarkovModel, recover_hmm
from latentid.modelio import model_to_dict
from latentid.sampling import (
    random_graph_mixture,
    random_hmm,
    random_latent_class,
    random_nonparametric_mixture,
    random_stochastic,
)
from test_hmm import foreign_past_block_law

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def model(sampler, *args, **kwargs):
    return lambda: model_to_dict(sampler(*args, **kwargs))


def edited(name, edit):
    """File ``name``'s JSON object after ``edit`` changed it in place."""

    def build():
        obj = FILES[name]()
        edit(obj)
        return obj

    return build


def duplicate_first_row(obj):
    obj["emissions"][0][1] = obj["emissions"][0][0]


def infinite_edge(obj):
    obj["P"][0][1] = obj["P"][1][0] = float("inf")


def bad_table(obj):
    obj["components"][0][2].update(knots=[0, 1, 2, 3], values=[0, 0.7, 0.5, 1])


def bad_block_table(obj):
    obj["components"][0][2].update(
        knots=[[0, 1, 2]] * 2, values=[[0, 0, 0], [0, 0.2, 0.8], [0, 0.8, 1]]
    )


def dependent_variate(obj):  # class 1 gets class 0's component of variate 0
    obj["components"][1][0] = obj["components"][0][0]


def ragged_knots(obj):  # two components get knot counts of their own
    obj["components"][1][0].update(
        knots=[0, 0.3, 0.55, 0.8, 1, 1.2], values=[0, 0.1, 0.5, 0.7, 0.9, 1]
    )
    obj["components"][2][1].update(knots=[0, 0.6, 1], values=[0, 0.3, 1])


def lazy_cycle_hmm():
    A = 0.5 * np.eye(21) + 0.5 * np.roll(np.eye(21), 1, axis=1)
    B = random_stochastic(np.random.default_rng(0), 21, 3)
    return model_to_dict(HiddenMarkovModel(A=A, B=B))


#: each model file a row may name, with a builder of its JSON value
FILES = {
    "np.json": model(random_nonparametric_mixture, 0, 3, 3),
    "block.json": model(random_nonparametric_mixture, 0, 3, 3, block_dims=[1, 1, 2]),
    "np8.json": model(random_nonparametric_mixture, 0, 8, 4, n_knots=16),
    "bad.json": edited("np.json", bad_table),
    "bad_block.json": edited("block.json", bad_block_table),
    "dep.json": edited("np.json", dependent_variate),
    "ragged.json": edited("np.json", ragged_knots),
    "ragged_knot_list.json": edited(
        "np.json", lambda obj: obj["components"][0][0].update(knots=[0, [1, 2]])
    ),
    "string_values.json": edited(
        "np.json", lambda obj: obj["components"][0][0].update(values="abc")
    ),
    "lc.json": model(random_latent_class, 1, 3, (2, 4, 4)),
    "lc12.json": model(random_latent_class, 5, 12, (8, 8, 8)),
    "lc16.json": model(random_latent_class, 5, 20, (16, 16, 16)),
    "lc16_dup.json": edited("lc16.json", duplicate_first_row),
    "lc40.json": model(random_latent_class, 0, 40, (50, 50, 8)),
    "list.json": lambda: [1, 2],
    "hmm.json": model(random_hmm, 2, 3, 2),
    "hmm8.json": model(random_hmm, 0, 8, 2),
    "hmm21.json": lazy_cycle_hmm,
    "no_fields.json": lambda: {"type": "hmm"},
    "ragged_rows.json": edited("hmm.json", lambda obj: obj["A"][0].pop()),
    "graph.json": model(random_graph_mixture, 3),
    "inf_graph.json": edited("graph.json", infinite_edge),
    "one_state.json": lambda: {"type": "graph_mixture", "pi": [1.0], "P": [[0.5]]},
}


def result(key, value):
    def check(out, err):
        assert json.loads(out)["result"][key] == value

    return check


def stdout(text):
    def check(out, err):
        assert out == text

    return check


def stdout_line(line):
    def check(out, err):
        assert line in out.splitlines()

    return check


def only_error(line):
    def check(out, err):
        assert (out, err.splitlines()) == ("", [line])

    return check


def error_mentions(text):
    def check(out, err):
        assert text in err

    return check


COMMANDS = [
    "bound", "search-tripartition", "certify-lc", "recover-lc", "hmm-window", "hmm-certify",
    "hmm-recover", "graph-certify", "graph-extract", "nonparam-cuts", "nonparam-recover",
    "simulate",
]
HUGE = str(10**400)

#: (argv, exit code, check) for each end-to-end command line; a line that a
#: test_cli.py test already runs with the same argv is left to that test
CHECKS = {
    "bound": (["bound", "--r", "4", "--kappa", "2", "--json"], 0, None),
    "simulate-hmm": (
        ["simulate", "--family", "hmm", "--r", "2", "--kappa", "2", "--trials", "3",
         "--tol", "1e-6", "--json"], 0, None,
    ),
    "np-cuts": (["nonparam-cuts", "--model", "np.json", "--json"], 0, None),
    "np-recover": (["nonparam-recover", "--model", "np.json", "--json"], 0, None),
    "simulate-lc-ten-variables": (
        ["simulate", "--family", "latent-class", "--r", "3", "--kappas", ",".join(["3"] * 10),
         "--trials", "2", "--json"], 0, None,
    ),
    "simulate-hmm-r7": (
        ["simulate", "--family", "hmm", "--r", "7", "--kappa", "2", "--trials", "3", "--json"],
        0, None,
    ),
    "simulate-hmm-r9": (
        ["simulate", "--family", "hmm", "--r", "9", "--kappa", "3", "--trials", "2", "--json"],
        0, None,
    ),
    "hmm8-recover": (["hmm-recover", "--model", "hmm8.json", "--json"], 0, None),
    "simulate-hmm-r4": (
        ["simulate", "--family", "hmm", "--r", "4", "--kappa", "2", "--trials", "20", "--json"],
        0, None,
    ),
    "certify-lc": (["certify-lc", "--model", "lc.json", "--json"], 0, None),
    "simulate-graph": (["simulate", "--family", "graph", "--trials", "3", "--json"], 0, None),
    "simulate-graph-n16": (
        ["simulate", "--family", "graph", "--equal-mixing", "--n", "16", "--trials", "3",
         "--json"], 0, None,
    ),
    "hmm-certify": (["hmm-certify", "--model", "hmm.json", "--json"], 0, None),
    "hmm-recover": (["hmm-recover", "--model", "hmm.json", "--tol", "1e-6", "--json"], 0, None),
    "graph-certify": (["graph-certify", "--model", "graph.json", "--json"], 0, None),
    "graph-extract": (["graph-extract", "--model", "graph.json", "--json"], 0, None),
    # argparse %-formats each help string (%(default)s) only when --help runs
    **{f"{command}-help": ([command, "--help"], 0, None) for command in COMMANDS},
    "simulate-hmm-r10": (
        ["simulate", "--family", "hmm", "--r", "10", "--kappa", "3", "--trials", "5", "--json"],
        0, None,
    ),
    "lc16": (
        ["certify-lc", "--model", "lc16.json", "--json"], 0,
        result("kruskal_ranks", [16, 16, 16]),
    ),
    "lc16-duplicate-row": (
        ["certify-lc", "--model", "lc16_dup.json", "--json"], 1,
        result("kruskal_ranks", [1, 16, 16]),
    ),
    "lc12": (
        ["certify-lc", "--model", "lc12.json", "--json"], 1, result("kruskal_ranks", [8, 8, 8]),
    ),
    "lc40": (["certify-lc", "--model", "lc40.json"], 2, None),
    "hmm21": (["hmm-certify", "--model", "hmm21.json"], 0, None),
    "queries-cap": (["nonparam-recover", "--model", "np.json", "--queries", "30000000"], 2, None),
    "simulate-no-trials": (["simulate", "--family", "hmm", "--trials", "0"], 2, None),
    "simulate-two-variables": (
        ["simulate", "--family", "latent-class", "--r", "3", "--kappas", "2,2", "--trials", "1"],
        2, None,
    ),
    "search-goodman": (["search-tripartition", "--r", "3", "--kappas", "2,2,2,2"], 1, None),
    "search-balanced": (
        ["search-tripartition", "--r", "3", "--kappas", ",".join(["3"] * 10), "--json"], 0,
        result("clumped_dims", [81, 27, 27]),
    ),
    # the search's largest documented case: 30 mixed-arity variables at r = 10^5
    "search-wide": (
        ["search-tripartition", "--r", "100000", "--kappas", ",".join(["2,3,4,5"] * 7 + ["2,3"]),
         "--json"], 0,
        result("clumped_dims", [172800, 115200, 108000]),
    ),
    "bad-table": (
        ["nonparam-cuts", "--model", "bad.json"], 2,
        only_error("error: CDF table has a negative cell mass -0.2"),
    ),
    "bad-block-table": (
        ["nonparam-cuts", "--model", "bad_block.json"], 2,
        only_error("error: CDF table has a negative cell mass -0.4"),
    ),
    "block-no-queries": (
        ["nonparam-recover", "--model", "block.json", "--queries", "0", "--json"], 0, None,
    ),
    "dependent-variate": (
        ["nonparam-cuts", "--model", "dep.json"], 1,
        stdout_line(
            "  error: RankDeficientError: variate 0: cut selection reached rank 2 of r=3: no "
            "candidate leaves the span of the current cuts, the component family is linearly "
            "dependent"
        ),
    ),
    "list-file": (["certify-lc", "--model", "list.json"], 2, None),
    "no-fields": (["hmm-certify", "--model", "no_fields.json"], 2, None),
    "short-group-matrix": (["graph-certify", "--model", "graph.json", "--m", "2"], 2, None),
    "one-state-graph": (["graph-certify", "--model", "one_state.json", "--m", "2"], 1, None),
    "tripartition-overlap": (
        ["recover-lc", "--model", "lc.json", "--tripartition", "0|1|1"], 2, None,
    ),
    "window-tensor-cap": (["hmm-recover", "--model", "hmm.json", "--k", "16"], 2, None),
    "huge-half-window": (["hmm-certify", "--model", "hmm.json", "--k", HUGE], 2, None),
    "hmm-window-huge-r": (["hmm-window", "--r", HUGE, "--kappa", "2", "--json"], 0, None),
    "graph-one-node": (["graph-extract", "--model", "graph.json", "--n", "1"], 2, None),
    "infinite-edge": (
        ["graph-certify", "--model", "inf_graph.json"], 2,
        error_mentions("P must be finite"),
    ),
    "queries-negative": (["nonparam-recover", "--model", "np.json", "--queries", "-1"], 2, None),
    "simulate-tol-nan": (
        ["simulate", "--family", "hmm", "--trials", "1", "--tol", "nan"], 2, None,
    ),
    "block-recover": (
        ["nonparam-recover", "--model", "block.json", "--queries", "7", "--json"], 0, None,
    ),
    "ragged-cuts": (
        ["nonparam-cuts", "--model", "ragged.json", "--json"], 0,
        stdout(
            '{"command": "nonparam-cuts", "errors": [], "result": {"cuts": {'
            '"variate_0": [[0.2697867137638703, 0.39161900052816123]], '
            '"variate_1": [[0.6, 0.6884467305709401]], '
            '"variate_2": [[0.17565562060255901, 0.8894878343490003]]}, "p": 3, "r": 3}}\n'
        ),
    ),
    "ragged-recover": (
        ["nonparam-recover", "--model", "ragged.json", "--queries", "7", "--json"], 0, None,
    ),
    "np8-cuts": (["nonparam-cuts", "--model", "np8.json", "--json"], 0, None),
    "np8-recover": (
        ["nonparam-recover", "--model", "np8.json", "--queries", "2", "--json"], 0, None,
    ),
    "node-state-prior-cap": (["graph-extract", "--model", "graph.json", "--n", "20000"], 2, None),
    "simulate-graph-reads-no-r": (
        ["simulate", "--family", "graph", "--r", "5", "--trials", "1"], 2, None,
    ),
    # a model file's conversion faults name their field
    "ragged-knot-list": (
        ["nonparam-cuts", "--model", "ragged_knot_list.json"], 2,
        only_error("error: knots must hold only numbers, in rows of equal length"),
    ),
    "string-values": (
        ["nonparam-cuts", "--model", "string_values.json"], 2,
        only_error("error: values must hold only numbers, in rows of equal length"),
    ),
    "ragged-transition-rows": (
        ["hmm-certify", "--model", "ragged_rows.json"], 2,
        only_error("error: A must hold only numbers, in rows of equal length"),
    ),
}

#: rows whose --json output must not depend on the process that computes it
TWICE = {
    "simulate-hmm-r7", "simulate-hmm-r9", "hmm8-recover", "simulate-hmm-r4", "lc12",
    "block-recover", "ragged-cuts", "ragged-recover", "np8-cuts", "np8-recover",
}
#: rows that must end within 60 s
TIMED = {"simulate-graph-n16", "lc40", "queries-cap", "search-wide", "hmm-window-huge-r"}
IN_PROCESS = [case for case in CHECKS if case not in TWICE | TIMED]


@pytest.fixture
def row(request, tmp_path, monkeypatch):
    """The row ``request.param``, run from a directory holding its files."""
    argv, code, check = CHECKS[request.param]
    monkeypatch.chdir(tmp_path)
    for name in argv:
        if name in FILES:
            Path(name).write_text(json.dumps(FILES[name]()))
    return argv, code, check or (lambda out, err: None)


def child(argv, **env):
    """Keyword arguments for a child process that runs ``latentid argv``."""
    path = [str(Path(latentid.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {
        **os.environ, **env,
        "PYTHONPATH": os.pathsep.join(filter(None, path)),
        "PYTHONWARNINGS": "error::RuntimeWarning",
    }
    command = [sys.executable, "-c", "from latentid.cli import main; main()", *argv]
    return {"args": command, "env": env, "stdout": subprocess.PIPE, "stderr": subprocess.PIPE}


@pytest.mark.parametrize("row", IN_PROCESS, indirect=True)
def test_in_process(capsys, row):
    argv, code, check = row
    assert run(argv) == code
    out, err = capsys.readouterr()
    check(out, err)


@pytest.mark.parametrize("row", sorted(TWICE), indirect=True)
def test_byte_identical_across_processes(row):
    argv, code, check = row
    sides = [subprocess.Popen(**child(argv, OPENBLAS_NUM_THREADS="1")) for _ in range(2)]
    try:
        (out, err), (other, _) = [side.communicate(timeout=60) for side in sides]
    finally:
        for side in sides:
            side.kill()
            side.wait()
    assert [side.returncode for side in sides] == [code, code], err.decode()
    assert out == other
    check(out.decode(), err.decode())


@pytest.mark.parametrize("row", sorted(TIMED), indirect=True)
def test_ends_within_a_minute(row):
    argv, code, check = row
    done = subprocess.run(**child(argv), timeout=60)
    assert done.returncode == code, done.stderr.decode()
    check(done.stdout.decode(), done.stderr.decode())


def test_recover_hmm_refuses_a_tensor_that_is_no_window_law():
    # a rank-4 tensor whose past block no chain makes, decomposed whole at j == k
    T = foreign_past_block_law(4, 2, 3, np.random.default_rng(0))
    with pytest.raises(DegenerateSpectrumError):
        recover_hmm(T, 4, 2, 3)
