"""Tests of the benchmark itself.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from latentid import LatentIdError, tensor_core  # noqa: E402

from perfbench import harness, run, workloads  # noqa: E402
from perfbench.checks import WrongAnswer  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402

RUN = [sys.executable, str(ROOT / "perfbench" / "run.py")]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_cli(*args, cwd=ROOT):
    return subprocess.run([*RUN, *args], cwd=cwd, capture_output=True, text=True, timeout=170)


def first_answer(slots, index):
    op = slots[index].op_at(0)
    return op, op.run()


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("models")
    return {name: harness.setup(name, 5, workdir) for name in workloads.WORKLOADS}


# ---------------------------------------------------------------------------
# smoke runs


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_workload_runs_and_checks_clean(built, name):
    slots, warm = built[name]
    assert warm.failures == []
    timed = harness.run_pass(slots, min_ops=2 * len(slots))
    assert timed.failures == []
    assert timed.attempted == 2 * len(slots)
    metrics = harness.end_to_end(timed, setup_s=1.0)
    assert [m for m, _, _ in harness.END_TO_END] == list(metrics)
    assert all(math.isfinite(v) and v > 0 for v in metrics.values())


def test_same_seed_gives_same_inputs(tmp_path):
    a = workloads.build_hmm_recover(9, tmp_path)
    b = workloads.build_hmm_recover(9, tmp_path)
    c = workloads.build_hmm_recover(10, tmp_path)
    pi_a, pi_b, pi_c = (s[0].op_at(0).run()[2] for s in (a, b, c))
    assert np.array_equal(pi_a, pi_b)
    assert not np.allclose(np.sort(pi_a), np.sort(pi_c))


def test_command_prints_end_to_end_metrics():
    out = run_cli("--workload", "hmm-recover", "--seed", "3", "--seconds", "1", "--trace", "0")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    assert lines[0].startswith("env: ") and lines[1].startswith("report: ")
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 100
    expected = {(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]}
    assert {(k, v["unit"]) for k, v in result["metrics"].items()} == expected


def test_traced_run_emits_every_per_layer_metric():
    out = run_cli("--workload", "hmm-recover", "--seed", "4", "--seconds", "1", "--trace", "1")
    assert out.returncode == 0, out.stderr
    metrics = json.loads(out.stdout.strip().splitlines()[-1])["metrics"]
    expected = {(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]}
    assert {(k, v["unit"]) for k, v in metrics.items()} == expected
    assert all(math.isfinite(v["value"]) for v in metrics.values())
    # hmm-recover runs exactly one decomposition per op
    assert metrics["recovery.decompose3.calls"]["value"] == 1.0
    assert metrics["hmm.recover_hmm.ms"]["value"] > 0
    assert metrics["blas.one_thread.op_ms_p50"]["value"] > 0


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "simulate", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""


def test_benchmark_json_matches_the_harness():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert run.WORKLOADS == list(workloads.WORKLOADS)
    assert [w["why"] for w in BENCHMARK["workloads"]] == [
        w.why for w in workloads.WORKLOADS.values()
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["end_to_end"]] == (
        harness.END_TO_END
    )
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == (
        harness.PER_LAYER
    )
    predictions = json.loads((ROOT / "perfbench" / "predictions.json").read_text())
    layers = {m["name"] for m in BENCHMARK["per_layer"]}
    ends = {m["name"] for m in BENCHMARK["end_to_end"]}
    for p in predictions:
        assert p["layer_metric"] in layers
        assert p["end_to_end"] in ends
        assert p["workload"] in workloads.WORKLOADS
        assert p["expect"] in {"moves", "unchanged"}


# ---------------------------------------------------------------------------
# the answer checks reject wrong answers


def assert_rejected(op, answer):
    with pytest.raises(WrongAnswer):
        op.check(answer)


def test_latent_class_check_rejects_perturbed_and_permuted(built):
    slots, _ = built["simulate"]
    op, (model, pi_hat, factors, align) = first_answer(slots, 1)  # r=4, p=5
    assert op.check((model, pi_hat, factors, align)) <= 1e-8
    assert_rejected(op, (model, pi_hat + [1e-3, -1e-3, 0, 0], factors, align))
    swapped = [F.copy() for F in factors]
    swapped[2][[0, 1]] = swapped[2][[1, 0]]
    assert_rejected(op, (model, pi_hat, swapped, align))
    wrong = type(align)(align.permutation[[1, 0, 2, 3]], align.max_abs_error)
    assert_rejected(op, (model, pi_hat, factors, wrong))


def test_hmm_check_rejects_perturbed_and_permuted(built):
    slots, _ = built["hmm-recover"]
    op, (A, B, pi) = first_answer(slots, 0)
    assert op.check((A, B, pi)) <= 1e-6
    perm = np.roll(np.arange(len(pi)), 1)
    assert op.check((A[np.ix_(perm, perm)], B[perm], pi[perm])) <= 1e-6  # relabeling is fine
    B_bad = B.copy()
    B_bad[0] += [1e-3, -1e-3]
    assert_rejected(op, (A, B_bad, pi))
    assert_rejected(op, (A[perm], B, pi))  # rows of A only


def test_mixture_check_rejects_perturbed_and_permuted(built):
    slots, _ = built["nonparam-recover"]
    op, (pi, tables) = first_answer(slots, 0)
    assert op.check((pi, tables)) <= 1e-8
    bad = [t.copy() for t in tables]
    bad[1][0, 0] += 1e-3
    assert_rejected(op, (pi, bad))
    assert_rejected(op, (pi[[1, 0, 2]], tables))


def test_cli_check_rejects_wrong_and_nondeterministic_output(built, tmp_path):
    slots, _ = built["certify-cli"]
    op, (code, text) = first_answer(slots, 0)  # certify-lc r=3
    op.check((code, text))
    assert_rejected(op, (1, text))
    assert_rejected(op, (code, text.replace(" ", "  ", 1)))  # same answer, other bytes
    report = json.loads(text)
    report["result"]["kruskal_ranks"] = [3, 3, 2]
    fresh = workloads.certify_lc_ops(5, 0, 3, (3, 3, 3), tmp_path, {})[0]
    assert_rejected(fresh, (code, json.dumps(report, sort_keys=True)))


# ---------------------------------------------------------------------------
# tracer


def test_tracer_counts_calls_and_self_time():
    tracer = Tracer()
    tracer.install()
    try:
        M = np.random.default_rng(0).uniform(size=(5, 3))
        with tracer.op():
            rank = tensor_core.kruskal_rank(M)
        tracer.fold()
        tensor_core.kruskal_rank(M)  # outside an op: not recorded
    finally:
        tracer.uninstall()
    assert rank == 3
    assert tracer.ops == 1
    assert tracer.calls["tensor_core.kruskal_rank"] == 1
    # one full-matrix rank, then every subset of sizes 1..3 (5 + 10 + 10)
    assert tracer.calls["tensor_core.numerical_rank"] == 26
    assert tracer.calls["numpy.linalg.svd"] == 26
    total = tracer.seconds["tensor_core.kruskal_rank"]
    self_total = tracer.self_seconds["tensor_core"] + tracer.self_seconds["numpy.linalg"]
    assert self_total == pytest.approx(total, rel=1e-9)
    assert tensor_core.kruskal_rank is not None and not hasattr(
        tensor_core.kruskal_rank, "__wrapped__"
    )


def test_refusals_are_counted_not_failed():
    def refuse():
        raise LatentIdError("refused")

    slot = workloads.Slot("refuses", lambda cycle: workloads.Op(refuse, lambda a: 0.0))
    result = harness.run_pass([slot], min_ops=3)
    assert result.refusals == {"LatentIdError": 3}
    assert result.failures == []
