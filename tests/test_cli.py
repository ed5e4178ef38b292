import json

import numpy as np
import pytest

from latentid import cli
from latentid.cli import run
from latentid.errors import InputError, LatentIdError
from latentid.hmm import HiddenMarkovModel, hmm_certificate, min_window, recovery_window
from latentid.latent_class import LatentClassModel, kruskal_certificate
from latentid.modelio import save_model
from latentid.nonparametric import NonparametricMixture
from latentid.random_graph import (
    GraphMixtureModel,
    conditional_graph_matrix,
    graph_certificate,
)
from latentid.sampling import (
    random_graph_mixture,
    random_hmm,
    random_latent_class,
    random_nonparametric_mixture,
    random_stochastic,
    trial_rng,
)
from latentid.tensor_core import numerical_rank
from test_hmm import reference_random_hmm


@pytest.fixture
def lc3_file(tmp_path):
    path = tmp_path / "lc3.json"
    save_model(random_latent_class(trial_rng(70, 0), 3, (3, 3, 3)), path)
    return str(path)


@pytest.fixture
def lc5_file(tmp_path):
    path = tmp_path / "lc5.json"
    save_model(random_latent_class(trial_rng(70, 1), 2, (2, 2, 2, 2, 2)), path)
    return str(path)


@pytest.fixture
def hmm_file(tmp_path):
    path = tmp_path / "hmm.json"
    save_model(random_hmm(trial_rng(70, 2), 2, 2), path)
    return str(path)


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "graph.json"
    save_model(random_graph_mixture(trial_rng(70, 3)), path)
    return str(path)


@pytest.fixture
def one_state_graph_file(tmp_path):
    path = tmp_path / "one_state.json"
    save_model(GraphMixtureModel(pi=np.array([1.0]), P=np.array([[0.5]])), path)
    return str(path)


@pytest.fixture
def npm_file(tmp_path):
    path = tmp_path / "npm.json"
    save_model(random_nonparametric_mixture(trial_rng(70, 4), 2, 3), path)
    return str(path)


def run_json(capsys, argv):
    code = run(argv + ["--json"])
    out = capsys.readouterr().out.strip()
    return code, json.loads(out)


class TestCertificates:
    def test_bound(self, capsys):
        code, report = run_json(capsys, ["bound", "--r", "5", "--kappa", "2"])
        assert code == 0
        assert report["result"]["min_variables"] == 7

    def test_goodman_search_not_certified(self, capsys):
        code, report = run_json(
            capsys, ["search-tripartition", "--r", "3", "--kappas", "2,2,2,2"]
        )
        assert code == 1
        assert report["result"]["holds"] is False
        assert report["result"]["rank_sum"] == 7

    def test_search_certified(self, capsys):
        code, report = run_json(
            capsys, ["search-tripartition", "--r", "3", "--kappas", "2,2,2,2,2"]
        )
        assert code == 0
        assert report["result"]["holds"] is True

    def test_search_rejects_state_counts_below_two(self, capsys):
        assert run(["search-tripartition", "--r", "2", "--kappas", "1,2,2,2"]) == 2
        assert run(["search-tripartition", "--r", "2", "--kappas", "0,2,2"]) == 2

    def test_certify_lc(self, capsys, lc3_file):
        code, report = run_json(capsys, ["certify-lc", "--model", lc3_file])
        assert code == 0
        assert report["result"]["holds"] is True

    def test_hmm_window(self, capsys):
        code, report = run_json(capsys, ["hmm-window", "--r", "4", "--kappa", "2"])
        assert code == 0
        assert report["result"]["k"] == 3
        assert report["result"]["window"] == 7
        # the paper's window, and the narrower one recovery decomposes
        code, report = run_json(capsys, ["hmm-window", "--r", "8", "--kappa", "2"])
        assert (report["result"]["k"], report["result"]["recovery_k"]) == (7, 4)

    def test_hmm_certify(self, capsys, hmm_file):
        code, report = run_json(capsys, ["hmm-certify", "--model", hmm_file])
        assert code == 0
        assert report["result"]["holds"] is True

    def test_graph_certify(self, capsys, graph_file, monkeypatch):
        builds = []
        build = cli.rg.conditional_graph_matrix

        def counting_build(*args, **kwargs):
            builds.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(cli.rg, "conditional_graph_matrix", counting_build)
        code, report = run_json(
            capsys, ["graph-certify", "--model", graph_file, "--m", "4"]
        )
        assert code == 0
        assert report["result"]["group_matrix_rank"] == 16
        assert report["result"]["group_matrix_shape"] == [16, 64]
        assert len(builds) == 1  # built and ranked once per command

    @pytest.mark.parametrize("m", [3, 4])
    def test_graph_certify_reports_the_group_matrix(self, capsys, tmp_path, m):
        model = GraphMixtureModel(
            pi=np.array([0.3, 0.7]), P=np.array([[0.2, 0.5], [0.5, 0.8]])
        )
        path = tmp_path / "graph.json"
        save_model(model, path)
        code, report = run_json(
            capsys, ["graph-certify", "--model", str(path), "--m", str(m)]
        )
        result = report["result"]
        A = conditional_graph_matrix(model, m)
        assert result["group_matrix_shape"] == list(A.shape)
        assert result["group_matrix_rank"] == numerical_rank(A)
        cert = graph_certificate(model, m)
        assert result["kruskal_ranks"] == list(cert.kruskal_ranks)
        assert result["threshold"] == cert.threshold
        assert result["holds"] is cert.holds
        assert code == (0 if cert.holds else 1)

    def test_graph_certify_refuses_a_short_group_matrix(self, capsys, graph_file):
        # two states at m = 2: a 4x2 group matrix never reaches rank r^m = 4
        assert run(["graph-certify", "--model", graph_file, "--m", "2", "--json"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "error: the 4x2 group matrix at m=2 cannot reach rank r^m = 4; "
            "no 2-state model certifies at this group size\n"
        )

    @pytest.mark.parametrize(
        "eps, code, ranks", [(1e-8, 0, [3, 3, 3]), (1e-11, 1, [3, 3, 1])]
    )
    def test_certify_lc_uses_the_library_rank_cutoff(
        self, capsys, tmp_path, eps, code, ranks
    ):
        # row 2 of the third emission moved towards row 0; at eps = 1e-8 its
        # smallest singular value lies between RANK_TOL and RECOVERY_TOL
        m = random_latent_class(trial_rng(3, 0), 3, (3, 3, 3))
        M3 = m.emissions[2].copy()
        M3[2] = (1 - eps) * M3[0] + eps * M3[2]
        model = LatentClassModel(pi=m.pi, emissions=(*m.emissions[:2], M3))
        path = tmp_path / "near.json"
        save_model(model, path)
        got, report = run_json(capsys, ["certify-lc", "--model", str(path)])
        assert (got, report["result"]["kruskal_ranks"]) == (code, ranks)
        assert list(kruskal_certificate(model).kruskal_ranks) == ranks

    def test_hmm_certify_names_its_full_rank_rule(self, capsys, tmp_path):
        # A = W Q has rank 3 < r = 4, so the window blocks fall short of full
        # row rank while the rank sum 3 + 3 + 4 still reaches 2r + 2 = 10
        rng = np.random.default_rng(3)
        W = rng.dirichlet(np.ones(3), size=4)
        Q = rng.dirichlet(np.ones(4), size=3)
        B = rng.dirichlet(np.ones(4), size=4)
        model = HiddenMarkovModel(A=W @ Q, B=B)
        path = tmp_path / "hmm.json"
        save_model(model, path)
        code, report = run_json(capsys, ["hmm-certify", "--model", str(path), "--k", "1"])
        result = report["result"]
        assert code == 1
        assert (result["kruskal_ranks"], result["threshold"]) == ([3, 3, 4], 10)
        assert result["holds"] is False
        assert result["criterion"] == hmm_certificate(model, 1).criterion
        assert result["criterion"] == (
            "window blocks at full row rank: I1 = I2 = r and I3 >= 2"
        )
        assert result["summary"] == (
            "no certificate: rank sum 10 >= 10, but the criterion fails"
        )

    @pytest.mark.parametrize(
        "duplicate, code, ranks", [(False, 0, [21, 21, 8]), (True, 1, [1, 21, 8])]
    )
    def test_certify_lc_past_twenty_classes(self, capsys, tmp_path, duplicate, code, ranks):
        # the 21 x 8 view falls short of full row rank, so its 8-row subsets
        # are tested; a duplicated row of the first view makes its rank 1
        model = random_latent_class(0, 21, (30, 30, 8))
        if duplicate:
            M = model.emissions[0].copy()
            M[1] = M[0]
            model = LatentClassModel(pi=model.pi, emissions=(M, *model.emissions[1:]))
        path = tmp_path / "lc21.json"
        save_model(model, path)
        got, report = run_json(capsys, ["certify-lc", "--model", str(path)])
        assert (got, report["result"]["kruskal_ranks"]) == (code, ranks)

    @pytest.mark.parametrize(
        "duplicate, code, ranks", [(False, 0, [21, 21, 3]), (True, 1, [21, 21, 1])]
    )
    def test_hmm_certify_past_twenty_states(self, capsys, tmp_path, duplicate, code, ranks):
        # a lazy cycle on 21 states; B has 3 columns, so its subsets are tested
        r = 21
        B = random_stochastic(trial_rng(70, 8), r, 3)
        if duplicate:
            B[1] = B[0]
        A = 0.5 * np.eye(r) + 0.5 * np.roll(np.eye(r), 1, axis=1)
        path = tmp_path / "hmm21.json"
        save_model(HiddenMarkovModel(A=A, B=B), path)
        got, report = run_json(capsys, ["hmm-certify", "--model", str(path)])
        assert (got, report["result"]["kruskal_ranks"]) == (code, ranks)

    def test_certify_lc_refuses_a_subset_stack_past_the_cap(self, capsys, tmp_path):
        path = tmp_path / "lc40.json"
        save_model(random_latent_class(0, 40, (50, 50, 8)), path)
        assert run(["certify-lc", "--model", str(path), "--json"]) == 2
        assert capsys.readouterr() == (
            "", "error: stack of 8-row subsets has 4921899840 entries, cap is 16777216\n"
        )

    @pytest.mark.parametrize(
        "command, fixture",
        [("certify-lc", "lc3_file"), ("hmm-certify", "hmm_file"),
         ("graph-certify", "graph_file")],
    )
    def test_certificate_commands_take_no_tol(self, capsys, request, command, fixture):
        # every rank decision uses the library's fixed RANK_TOL
        path = request.getfixturevalue(fixture)
        assert run([command, "--model", path, "--tol", "1e-8"]) == 2
        assert capsys.readouterr().out == ""
        assert run([command, "--model", path]) == 0


class TestRecovery:
    def test_recover_lc_three_variables(self, capsys, lc3_file):
        code, report = run_json(capsys, ["recover-lc", "--model", lc3_file])
        assert code == 0
        assert report["result"]["alignment_error"] <= 1e-8

    def test_recover_lc_three_variables_small_first(self, capsys, tmp_path):
        # kappa_0 = 2 < r = 3 keeps variable 0 out of the first two blocks,
        # yet the Kruskal ranks 2 + 3 + 3 certify the model
        model = random_latent_class(1, 3, (2, 4, 4))
        assert kruskal_certificate(model).holds
        path = tmp_path / "lc.json"
        save_model(model, path)
        code, report = run_json(capsys, ["recover-lc", "--model", str(path)])
        assert code == 0
        assert report["result"]["blocks"] == [[1], [2], [0]]
        assert report["result"]["alignment_error"] <= 1e-8
        code, report = run_json(
            capsys,
            ["simulate", "--family", "latent-class", "--r", "3",
             "--kappas", "2,4,4", "--trials", "3"],
        )
        assert code == 0

    def test_recover_lc_with_tripartition(self, capsys, lc5_file):
        code, report = run_json(
            capsys,
            ["recover-lc", "--model", lc5_file, "--tripartition", "0,1|2,3|4"],
        )
        assert code == 0
        assert report["result"]["alignment_error"] <= 1e-8

    @pytest.mark.parametrize("k", [None, 3, 4])
    def test_half_window_option(self, capsys, tmp_path, k):
        # --k sets the half-window; without it each command takes min_window
        model = random_hmm(trial_rng(70, 5), 3, 2)
        path = tmp_path / "hmm.json"
        save_model(model, path)
        expected = k or min_window(3, 2)
        option = [] if k is None else ["--k", str(k)]
        commands = [
            ["hmm-certify", "--model", str(path)],
            ["hmm-recover", "--model", str(path), "--tol", "1e-6"],
        ]
        for argv in commands:
            code, report = run_json(capsys, argv + option)
            assert code == 0, argv
            assert report["result"]["k"] == expected
            assert report["result"]["window"] == 2 * expected + 1
        assert report["result"]["recovery_k"] == min(expected, recovery_window(3, 2))
        windows = []
        recover = cli.hmm_mod.recover_hmm

        def spy(T, r, kappa, k, **kwargs):
            windows.append(k)
            return recover(T, r, kappa, k, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli.hmm_mod, "recover_hmm", spy)
            code, report = run_json(
                capsys,
                ["simulate", "--family", "hmm", "--r", "3", "--trials", "2",
                 "--tol", "1e-6", *option],
            )
        assert code == 0
        assert windows == [expected] * 2

    def test_recovery_k_is_the_window_recover_hmm_decomposes(self, monkeypatch):
        # the round trip reports the half-window whose law decompose3 receives,
        # at every k up to min_window, whether or not that window can answer
        class Received(Exception):
            pass

        shapes, recover = [], cli.hmm_mod.recover_hmm

        def received(T, r, **kwargs):
            shapes.append(T.shape)
            raise Received

        def recorded(T, r, kappa, k, **kwargs):
            with pytest.raises(Received):
                recover(T, r, kappa, k, **kwargs)
            return model.A, model.B, model.pi

        monkeypatch.setattr(cli.hmm_mod, "decompose3", received)
        monkeypatch.setattr(cli.hmm_mod, "recover_hmm", recorded)
        for r in range(2, 12):
            for kappa in range(2, 5):
                rng = trial_rng(72, 10 * r + kappa)
                model = HiddenMarkovModel(
                    A=random_stochastic(rng, r, r), B=random_stochastic(rng, r, kappa)
                )
                for k in range(1, min_window(r, kappa) + 1):
                    shapes.clear()
                    j = cli._hmm_round_trip(model, k, 0, 1e-8)["recovery_k"]
                    assert shapes == [(kappa**j, kappa**j, kappa)], (r, kappa, k)

    def test_hmm_recover(self, capsys, hmm_file):
        code, report = run_json(
            capsys, ["hmm-recover", "--model", hmm_file, "--tol", "1e-6"]
        )
        assert code == 0
        assert report["result"]["alignment_error"] <= 1e-6

    def test_graph_extract(self, capsys, graph_file):
        code, report = run_json(capsys, ["graph-extract", "--model", graph_file])
        assert code == 0
        assert report["result"]["match_error"] <= 1e-8

    def test_nonparam_cuts(self, capsys, npm_file):
        code, report = run_json(capsys, ["nonparam-cuts", "--model", npm_file])
        assert code == 0
        assert len(report["result"]["cuts"]) == 3

    def test_nonparam_cuts_takes_no_tol(self, capsys, npm_file):
        assert run(["nonparam-cuts", "--model", npm_file, "--tol", "1e-6"]) == 2
        capsys.readouterr()
        run(["nonparam-cuts", "--model", npm_file, "--json"])
        assert capsys.readouterr().out == (
            '{"command": "nonparam-cuts", "errors": [], "result": {"cuts": '
            '{"variate_0": [[0.768981644816454]], "variate_1": '
            '[[0.2876512481531802]], "variate_2": [[0.7013314329729543]]}, '
            '"p": 3, "r": 2}}\n'
        )

    def test_dependent_variate_is_named(self, capsys, tmp_path):
        # variate 1 gets one CDF for both classes; the refusal names it
        model = random_nonparametric_mixture(trial_rng(70, 4), 2, 3)
        rows = [list(row) for row in model.components]
        rows[1][1] = rows[0][1]
        path = tmp_path / "dependent.json"
        save_model(NonparametricMixture(pi=model.pi, components=tuple(map(tuple, rows))), path)
        for command in ("nonparam-cuts", "nonparam-recover"):
            code, report = run_json(capsys, [command, "--model", str(path)])
            assert code == 1
            assert report["errors"] == [
                "RankDeficientError: variate 1: cut selection reached rank 1 of r=2: no "
                "candidate leaves the span of the current cuts, the component family is "
                "linearly dependent"
            ]

    @pytest.mark.parametrize("block_dims", [None, [1, 2, 1]])
    @pytest.mark.parametrize("count", [1, 3, 5])
    def test_default_queries_match_the_pointwise_formula(self, block_dims, count):
        model = random_nonparametric_mixture(trial_rng(70, 6), 3, 3, block_dims=block_dims)
        queries = cli._default_queries(model, count)
        for j, points in enumerate(queries):
            comps = model.variate(j)
            for c in range(model.block_dims[j]):
                lo = min(comp.knots[c][0] for comp in comps)
                hi = max(comp.knots[c][-1] for comp in comps)
                column = [lo + (q + 1) * (hi - lo) / (count + 1) for q in range(count)]
                assert points[:, c].tolist() == column  # the same bits

    def test_nonparam_recover(self, capsys, npm_file):
        code, report = run_json(
            capsys, ["nonparam-recover", "--model", npm_file, "--tol", "1e-6"]
        )
        assert code == 0
        assert report["result"]["alignment_error"] <= 1e-6


class TestSimulate:
    def test_latent_class_trials(self, capsys):
        code, report = run_json(
            capsys,
            ["simulate", "--family", "latent-class", "--r", "3",
             "--kappas", "3,3,3", "--trials", "5"],
        )
        assert code == 0
        assert report["result"]["failures"] == 0
        assert report["result"]["max_error"] <= 1e-8

    def test_hmm_trials(self, capsys):
        code, report = run_json(
            capsys,
            ["simulate", "--family", "hmm", "--r", "2", "--kappa", "2",
             "--trials", "5", "--tol", "1e-6"],
        )
        assert code == 0
        assert report["result"]["max_error"] <= 1e-6

    def test_hmm_trials_draw_every_model_at_r10(self, capsys):
        # about one draw in 200 passes the singular-value margin at r = 10,
        # kappa = 3; with 200 draws per model 14 of these 30 trials were refused
        code, report = run_json(
            capsys,
            ["simulate", "--family", "hmm", "--r", "10", "--kappa", "3",
             "--trials", "30"],
        )
        assert code == 0
        assert report["result"]["failures"] == 0

    def test_three_variable_trials_share_recover_lc(self, capsys, monkeypatch):
        # simulate and recover-lc run one round trip: a three-variable trial
        # recovers through recover_latent_class along the search's witness
        calls = []
        recover = cli.recovery.recover_latent_class

        def spy(T, r, blocks, **kwargs):
            calls.append((T.shape, blocks))
            return recover(T, r, blocks, **kwargs)

        monkeypatch.setattr(cli.recovery, "recover_latent_class", spy)
        code, report = run_json(
            capsys,
            ["simulate", "--family", "latent-class", "--r", "3",
             "--kappas", "3,4,5", "--trials", "2"],
        )
        assert code == 0
        assert calls == [((3, 4, 5), ((2,), (1,), (0,)))] * 2

    def test_no_answered_trial_reports_null_error(self, capsys):
        # r = 3 classes cannot be recovered from three binary variables
        code, report = run_json(
            capsys,
            ["simulate", "--family", "latent-class", "--r", "3",
             "--kappas", "2,2,2", "--trials", "2"],
        )
        assert code == 1
        assert report["result"]["failures"] == 2
        assert report["result"]["max_error"] is None

    @pytest.mark.parametrize(
        "argv",
        [
            ["--family", "latent-class", "--r", "3", "--kappas", "2,2"],
            ["--family", "latent-class", "--r", "0"],
            ["--family", "latent-class", "--r", "3", "--kappas", ",".join(["2"] * 28)],
            ["--family", "hmm", "--trials", "0"],
            ["--family", "hmm", "--trials", "-1"],
        ],
    )
    def test_misuse_exits_2_not_as_failed_trials(self, capsys, argv):
        # an input error ends the run: it is not recorded as a failed trial
        code = run(["simulate", "--trials", "2", *argv, "--json"])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    def test_graph_trials_both_branches(self, capsys):
        code, report = run_json(
            capsys,
            ["simulate", "--family", "graph", "--trials", "5", "--tol", "1e-9"],
        )
        assert code == 0
        code, report = run_json(
            capsys,
            ["simulate", "--family", "graph", "--equal-mixing", "--trials", "5",
             "--tol", "1e-9"],
        )
        assert code == 0


KRUSKAL = "Kruskal row-rank condition: I1 + I2 + I3 >= 2r + 2"

#: exact --json reports of the commands whose results hold only integers,
#: strings and booleans; the model files are the fixtures of this module.
#: graph-certify's criterion names its full-row-rank rule.
PINNED_REPORTS = [
    (
        ["bound", "--r", "5", "--kappa", "2"],
        None,
        '{"command": "bound", "errors": [], "result": {"kappa": 2, '
        '"min_variables": 7, "r": 5}}',
    ),
    (
        ["hmm-window", "--r", "4", "--kappa", "2"],
        None,
        '{"command": "hmm-window", "errors": [], "result": {"k": 3, "kappa": 2, '
        '"r": 4, "recovery_k": 3, "window": 7}}',
    ),
    (
        ["search-tripartition", "--r", "3", "--kappas", "2,2,2,2"],
        None,
        '{"command": "search-tripartition", "errors": [], "result": {"clumped_dims": '
        f'[4, 2, 2], "criterion": "{KRUSKAL}", "holds": false, "kappas": [2, 2, 2, 2], '
        '"kruskal_ranks": [3, 2, 2], "mode": "generic-dimension", "r": 3, '
        '"rank_sum": 7, "status": "not-certified", "summary": "no certificate: best '
        'rank sum 7 < 8", "threshold": 8, "witness_blocks": [[0, 1], [2], [3]]}}',
    ),
    (
        ["search-tripartition", "--r", "3", "--kappas", "2,2,2,2,2"],
        None,
        '{"command": "search-tripartition", "errors": [], "result": {"clumped_dims": '
        f'[4, 4, 2], "criterion": "{KRUSKAL}", "holds": true, "kappas": '
        '[2, 2, 2, 2, 2], "kruskal_ranks": [3, 3, 2], "mode": "generic-dimension", '
        '"r": 3, "rank_sum": 8, "status": "certified", "summary": "certified: rank '
        'sum 8 >= 8", "threshold": 8, "witness_blocks": [[0, 1], [2, 3], [4]]}}',
    ),
    (
        ["certify-lc"],
        "lc3_file",
        f'{{"command": "certify-lc", "errors": [], "result": {{"criterion": "{KRUSKAL}", '
        '"holds": true, "kappas": [3, 3, 3], "kruskal_ranks": [3, 3, 3], "mode": '
        '"exact-matrix", "r": 3, "rank_sum": 9, "status": "certified", "summary": '
        '"certified: rank sum 9 >= 8", "threshold": 8}}',
    ),
    (
        ["graph-certify", "--m", "4"],
        "graph_file",
        '{"command": "graph-certify", "errors": [], "result": {"criterion": '
        '"group matrix at full row rank: rank A = r^m", "group_matrix_rank": 16, '
        '"group_matrix_shape": [16, 64], '
        '"holds": true, "kruskal_ranks": [65536, 65536, 65536], "m": 4, "mode": '
        '"exact-matrix", "nodes": 16, "rank_sum": 196608, "status": "certified", '
        '"summary": "certified: rank sum 196608 >= 131074", "threshold": 131074}}',
    ),
    (
        ["graph-certify", "--m", "2"],
        "one_state_graph_file",
        '{"command": "graph-certify", "errors": [], "result": {"criterion": '
        '"group matrix at full row rank: rank A = r^m", "group_matrix_rank": 1, '
        '"group_matrix_shape": [1, 2], '
        '"holds": false, "kruskal_ranks": [1, 1, 1], "m": 2, "mode": '
        '"exact-matrix", "nodes": 4, "rank_sum": 3, "status": "not-certified", '
        '"summary": "no certificate: best rank sum 3 < 4", "threshold": 4}}',
    ),
]

#: HMM simulations whose models take many draws: at r = 9 the accepted draw
#: lies in a later batch of random_hmm, and the trial's recovery seeds come
#: from the same generator after it
SIMULATE_HMM = [
    ["simulate", "--family", "hmm", "--r", "7", "--kappa", "2", "--trials", "5", "--json"],
    ["simulate", "--family", "hmm", "--r", "9", "--kappa", "3", "--trials", "2", "--json"],
]


#: (argv, model-file fixture or None, last stderr line) for each refused
#: argument; the window-tensor row would ask for 2^33 doubles if not refused
CLI_REFUSALS = {
    "tripartition-blocks": (
        ["recover-lc", "--tripartition", "0,1|2"], "lc5_file",
        "error: need exactly 3 blocks, got 2",
    ),
    "tripartition-overlap": (
        ["recover-lc", "--tripartition", "0|1|1"], "lc3_file",
        "error: blocks must disjointly cover all 3 axes, got [[0], [1], [1]]",
    ),
    "tripartition-not-integers": (
        ["recover-lc", "--tripartition", "0|1|a"], "lc3_file",
        "error: --tripartition must list integers, got 'a'",
    ),
    "search-kappas-not-integers": (
        ["search-tripartition", "--r", "3", "--kappas", "2,x,3"], None,
        "error: --kappas must list integers, got 'x'",
    ),
    "simulate-kappas-not-integers": (
        ["simulate", "--family", "latent-class", "--kappas", "3,3,a"], None,
        "error: --kappas must list integers, got 'a'",
    ),
    "tol-nan": (
        ["simulate", "--family", "latent-class", "--kappas", "3,3,3", "--trials", "1",
         "--tol", "nan"], None,
        "latentid simulate: error: argument --tol: tol must be a number >= 0, got nan",
    ),
    "tol-negative": (
        ["graph-extract", "--tol=-1"], "graph_file",
        "latentid graph-extract: error: argument --tol: tol must be a number >= 0, got -1.0",
    ),
    "queries-negative": (
        ["nonparam-recover", "--queries", "-2"], "npm_file",
        "error: --queries must be a whole number >= 0, got -2",
    ),
    "window-tensor-cap": (
        ["hmm-recover", "--k", "16"], "hmm_file",
        "error: window tensor has 8589934592 entries, cap is 16777216",
    ),
    "certify-huge-half-window": (
        # refused by the entry cap, not by a float conversion of k
        ["hmm-certify", "--k", str(10**400)], "hmm_file",
        f"error: window block has at least 2^{10**400 + 1} entries, cap is 16777216",
    ),
    "node-state-prior-cap": (
        ["graph-extract", "--n", "20000"], "graph_file",
        "error: node-state prior has at least 2^20000 entries, cap is 16777216",
    ),
    "simulate-graph-ignores": (
        ["simulate", "--family", "graph", "--r", "5", "--kappa", "7", "--trials", "1"], None,
        "error: --family graph does not read --r, --kappa",
    ),
    "simulate-latent-class-ignores": (
        ["simulate", "--family", "latent-class", "--k", "2", "--n", "5", "--trials", "1"],
        None, "error: --family latent-class does not read --k, --n",
    ),
    "simulate-hmm-ignores": (
        ["simulate", "--family", "hmm", "--kappas", "2,2,2", "--equal-mixing"], None,
        "error: --family hmm does not read --kappas, --equal-mixing",
    ),
    "graph-no-nodes": (
        ["graph-extract", "--n", "0"], "graph_file",
        "error: n must be a whole number >= 1, got 0",
    ),
    "graph-one-node": (
        ["graph-extract", "--n", "1"], "graph_file",
        "error: n must be a whole number >= 2, got 1",
    ),
    "simulate-one-node": (
        ["simulate", "--family", "graph", "--n", "1", "--trials", "1"], None,
        "error: n must be a whole number >= 2, got 1",
    ),
    "simulate-huge-classes": (
        ["simulate", "--family", "latent-class", "--r", str(10**400), "--trials", "1"], None,
        "error: emission matrix has at least 2^1330 entries, cap is 16777216",
    ),
    "simulate-huge-state-count": (
        ["simulate", "--family", "latent-class", "--kappas", f"3,3,{10**400}", "--trials", "1"],
        None, "error: emission matrix has at least 2^1330 entries, cap is 16777216",
    ),
    "simulate-hmm-huge-classes": (
        ["simulate", "--family", "hmm", "--r", str(10**400), "--trials", "1"], None,
        "error: HMM draw has at least 2^2657 entries, cap is 16777216",
    ),
    "queries-cap": (
        # refused before 30 million points per variate are built
        ["nonparam-recover", "--queries", "30000000"], "npm_file",
        "error: query array has 30000000 entries, cap is 16777216",
    ),
    "equal-mixing-two-nodes": (
        ["simulate", "--family", "graph", "--equal-mixing", "--n", "2", "--trials", "1"],
        None, "error: equal mixing needs at least 3 nodes, got n=2",
    ),
}


class TestReportContract:
    @pytest.mark.parametrize(
        "argv, fixture, expected",
        PINNED_REPORTS,
        ids=[" ".join(argv) for argv, _, _ in PINNED_REPORTS],
    )
    def test_pinned_json_report(self, capsys, request, argv, fixture, expected):
        model = ["--model", request.getfixturevalue(fixture)] if fixture else []
        run([*argv, *model, "--json"])
        assert capsys.readouterr().out == expected + "\n"

    def test_json_reports_are_byte_identical(
        self, capsys, lc3_file, hmm_file, graph_file, npm_file
    ):
        simulate = ["simulate", "--trials", "3", "--seed", "7", "--json", "--family"]
        for argv in [
            ["recover-lc", "--model", lc3_file, "--seed", "7", "--json"],
            ["hmm-recover", "--model", hmm_file, "--seed", "7", "--json"],
            ["graph-extract", "--model", graph_file, "--seed", "7", "--json"],
            ["nonparam-cuts", "--model", npm_file, "--json"],
            ["nonparam-recover", "--model", npm_file, "--seed", "7", "--json"],
            [*simulate, "latent-class"],
            [*simulate, "hmm", "--tol", "1e-6"],
            *SIMULATE_HMM,
        ]:
            run(argv)
            first = capsys.readouterr().out
            run(argv)
            second = capsys.readouterr().out
            assert first == second

    @pytest.mark.parametrize("argv", SIMULATE_HMM, ids=" ".join)
    def test_simulate_hmm_draws_as_one_at_a_time(self, capsys, monkeypatch, argv):
        run(argv)
        batched = capsys.readouterr().out
        monkeypatch.setattr(cli.sampling, "random_hmm", reference_random_hmm)
        run(argv)
        assert capsys.readouterr().out == batched

    @pytest.mark.parametrize("case", list(CLI_REFUSALS))
    def test_refusal_exits_2(self, capsys, request, case):
        argv, fixture, line = CLI_REFUSALS[case]
        model = ["--model", request.getfixturevalue(fixture)] if fixture else []
        assert run([*argv, *model]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.splitlines()[-1] == line

    def test_huge_state_count_is_searched(self, capsys):
        argv = ["search-tripartition", "--r", "3", "--kappas", f"2,2,{10**400}"]
        code, report = run_json(capsys, argv)
        assert code == 1 and report["errors"] == []
        assert report["result"]["clumped_dims"] == [10**400, 2, 2]
        assert report["result"]["kruskal_ranks"] == [3, 2, 2]

    def test_boundary_values_still_answer(self, capsys, graph_file, npm_file):
        # zero queries recover pi alone; unequal mixing extracts from two nodes
        argv = ["nonparam-recover", "--model", npm_file, "--queries", "0"]
        code, report = run_json(capsys, argv)
        assert code == 0 and report["result"]["queries_per_variate"] == 0
        code, report = run_json(capsys, ["graph-extract", "--model", graph_file, "--n", "2"])
        assert code == 0 and report["result"]["n"] == 2
        argv = ["simulate", "--family", "graph", "--n", "2", "--tol", "0"]
        code, report = run_json(capsys, argv)
        assert code == 0 and report["result"]["failures"] == 0

    def test_usage_error_exits_2(self, capsys):
        assert run(["bound", "--r", "5"]) == 2  # missing --kappa
        assert run(["no-such-command"]) == 2

    def test_missing_file_exits_2(self, capsys):
        assert run(["certify-lc", "--model", "/nonexistent.json"]) == 2

    @pytest.mark.parametrize(
        "text",
        [
            "{not json",
            '{"type": "hmm"}',
            "[1, 2]",
            '{"type": "latent_class", "pi": [0.5, 0.5], "emissions": 5}',
            '{"type": "nonparametric", "pi": [1.0], "components": [[5]]}',
            '{"type": "nonparametric", "pi": [1.0], "components": [[{"knots": [0, 1]}]]}',
        ],
    )
    def test_malformed_model_file_exits_2(self, capsys, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        for command in ("certify-lc", "hmm-certify", "hmm-recover"):
            assert run([command, "--model", str(path), "--json"]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ")

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"A": [[1.0]]}', "a model file has no field 'type'"),
            ('{"type": "hmm"}', "hmm model file has no field 'A'"),
            ('{"type": "hmm", "A": [[1.0]]}', "hmm model file has no field 'B'"),
            ('{"type": "latent_class", "pi": [1.0]}',
             "latent_class model file has no field 'emissions'"),
            ('{"type": "nonparametric", "pi": [1.0], "components": '
             '[[{"knots": [0, 1]}]]}', "a component has no field 'values'"),
            ('{"type": "nonparametric", "pi": [1.0], "components": '
             '[[{"values": [0, 1]}]]}', "a component has no field 'knots'"),
        ],
    )
    def test_missing_field_is_named(self, capsys, tmp_path, text, message):
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert run(["certify-lc", "--model", str(path), "--json"]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_key_error_from_a_handler_is_not_exit_2(self, monkeypatch):
        # a KeyError in a handler is a bug, not bad input: it propagates
        def handler(args):
            raise KeyError("stubbed")

        monkeypatch.setattr(cli, "_cmd_bound", handler)
        with pytest.raises(KeyError):
            run(["bound", "--r", "2", "--kappa", "2"])

    def test_wrong_model_type_exits_2(self, capsys, hmm_file, lc3_file):
        expected = [
            ("certify-lc", hmm_file, "a latent_class"),
            ("recover-lc", hmm_file, "a latent_class"),
            ("hmm-certify", lc3_file, "an hmm"),
            ("hmm-recover", lc3_file, "an hmm"),
            ("graph-certify", lc3_file, "a graph_mixture"),
            ("graph-extract", lc3_file, "a graph_mixture"),
            ("nonparam-cuts", lc3_file, "a nonparametric"),
            ("nonparam-recover", lc3_file, "a nonparametric"),
        ]
        for command, path, kind in expected:
            assert run([command, "--model", path, "--json"]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: {command} expects {kind} model file\n"

    def test_singular_slice_mixtures_exit_1(self, capsys, tmp_path):
        # classes 0 and 1 with rows 1e-7 apart in M1 and M2: both unfoldings
        # pass the rank rule, but every slice mixture is singular
        m = random_latent_class(trial_rng(50, 2), 3, (4, 4, 4))
        M1, M2, M3 = (M.copy() for M in m.emissions)
        for M in (M1, M2):
            M[1] = (1.0 - 1e-7) * M[0] + 1e-7 * M[1]
        path = tmp_path / "near.json"
        save_model(LatentClassModel(pi=m.pi, emissions=(M1, M2, M3)), path)
        code, report = run_json(capsys, ["recover-lc", "--model", str(path)])
        assert code == 1
        assert report["errors"][0].startswith(
            "IllConditionedError: slice mixtures stayed singular after 20 retries"
        )

    def test_error_classes_map_to_exit_codes(self, capsys, monkeypatch):
        classes, pending = [], [LatentIdError]
        while pending:
            cls = pending.pop()
            classes.append(cls)
            pending.extend(cls.__subclasses__())
        assert sorted(cls.__name__ for cls in classes) == [
            "DegenerateSpectrumError",
            "IllConditionedError",
            "InconsistentOracleError",
            "InputError",
            "LatentIdError",
            "NegativeWeightsError",
            "NonUniqueStationaryError",
            "NotDistinctError",
            "NotKhatriRaoError",
            "RankDeficientError",
        ]
        assert issubclass(InputError, ValueError)
        for cls in classes:

            def handler(args, cls=cls):
                raise cls("stubbed")

            monkeypatch.setattr(cli, "_cmd_bound", handler)
            code = run(["bound", "--r", "2", "--kappa", "2"])
            assert code == (2 if issubclass(cls, InputError) else 1), cls.__name__

    def test_parser_built_once(self, capsys, monkeypatch):
        builds = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
        cli._parser.cache_clear()
        try:
            assert run(["bound", "--r", "2", "--kappa", "2"]) == 0
            assert run(["hmm-window", "--r", "3", "--kappa", "2", "--json"]) == 0
            assert run(["bound", "--r", "2"]) == 2
        finally:
            cli._parser.cache_clear()
        assert builds == [1]

    def test_honest_negative_exits_1(self, capsys, tmp_path):
        # a latent-class model whose third variable cannot separate classes
        dup = np.array([[0.3, 0.7], [0.3, 0.7]])
        eye = np.eye(2)
        model = LatentClassModel(pi=np.array([0.5, 0.5]), emissions=(eye, eye, dup))
        path = tmp_path / "bad.json"
        save_model(model, path)
        assert run(["certify-lc", "--model", str(path)]) == 1
