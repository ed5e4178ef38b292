"""The four workloads: which ops run, on which inputs, and how each is checked.

A workload is a list of slots, visited round-robin by one closed-loop caller.
A slot maps a cycle index to an :class:`Op`: a timed call plus a check of its
answer.  Inputs come from the workload seed only.  Slot counts are odd (15 or
7) so that neither the median nor the 90th percentile sits on the boundary
between two slots' latency clusters, which keeps both steady from seed to seed.

Library functions are always looked up on their module at call time, so the
tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from latentid import cli, hmm, latent_class, modelio, nonparametric, recovery, sampling

from perfbench.checks import (
    WrongAnswer,
    check_hmm,
    check_mixture_tables,
    mixture_error,
    numeric_rank,
    within_tol,
)

#: recovery tolerance, the CLI's default
TOL = 1e-8


@dataclass(frozen=True)
class Op:
    run: Callable[[], object]
    check: Callable[[object], float]


@dataclass(frozen=True)
class Slot:
    label: str
    op_at: Callable[[int], Op]  # cycle index -> op


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[int, Path], list[Slot]]  # (seed, model-file dir) -> slots
    #: times scaled to reference speed by the interpreter probe (see harness);
    #: False where multithreaded BLAS dominates, which the probe does not track
    scaled: bool = True


def instance_rng(seed: int, slot: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, slot, index])


def pooled(label: str, ops: list[Op]) -> Slot:
    return Slot(label, lambda cycle: ops[cycle % len(ops)])


# ---------------------------------------------------------------------------
# simulate: round trips drawn fresh per op, as `latentid simulate` does them

#: (r, kappa, p) latent-class sizes; r! alignment and 3^(p-1) partitions
LC_SIZES = [
    (3, 3, 3), (4, 2, 5), (4, 3, 8), (5, 3, 5), (5, 2, 9), (5, 2, 10),
    (3, 3, 10), (6, 3, 6), (6, 2, 10), (7, 3, 5), (7, 2, 8),
]
#: (r, kappa) HMM sizes; align_hmm is exhaustive, so r stays <= 7
SIM_HMM_SIZES = [(4, 2), (5, 2), (6, 2), (7, 2)]


def lc_round_trip(rng, r: int, kappas):
    model = sampling.random_latent_class(rng, r, kappas)
    T = latent_class.joint_distribution(model)
    if model.p == 3:
        rec = recovery.decompose3(T, r, seed=rng, tol=TOL)
        pi_hat, factors = rec.pi, rec.factors
    else:
        cert = latent_class.tripartition_search(r, model.kappas)
        order = np.argsort([-d for d in cert.witness.clumped_dims])
        blocks = tuple(cert.witness.blocks[i] for i in order)
        pi_hat, factors = recovery.recover_latent_class(T, r, blocks, seed=rng, tol=TOL)
    align = recovery.align_permutation(
        (pi_hat, factors), (model.pi, list(model.emissions))
    )
    return model, pi_hat, factors, align


def check_lc_round_trip(answer) -> float:
    model, pi_hat, factors, align = answer
    err = mixture_error(pi_hat, factors, model.pi, model.emissions, align.permutation)
    return within_tol(err, "latent-class round trip")


def hmm_round_trip(rng, r: int, kappa: int):
    model = sampling.random_hmm(rng, r, kappa)
    k = hmm.min_window(r, kappa)
    T = hmm.window_tensor(model, k)
    answer = hmm.recover_hmm(T, r, kappa, k, seed=rng, tol=TOL)
    align = hmm.align_hmm(answer, (model.A, model.B, model.pi))
    return model, answer, align


def check_hmm_round_trip(result) -> float:
    model, answer, align = result
    return check_hmm(answer, model, align.permutation)


def build_simulate(seed: int, workdir: Path) -> list[Slot]:
    trips = [
        (f"lc r={r} kappa={kappa} p={p}", lc_round_trip, (r, [kappa] * p), check_lc_round_trip)
        for r, kappa, p in LC_SIZES
    ] + [
        (f"hmm r={r} kappa={kappa}", hmm_round_trip, (r, kappa), check_hmm_round_trip)
        for r, kappa in SIM_HMM_SIZES
    ]
    n = len(trips)

    def slot(index, label, trip, args, check):
        def op_at(cycle):
            trial = cycle * n + index
            return Op(lambda: trip(sampling.trial_rng(seed, trial), *args), check)

        return Slot(label, op_at)

    return [slot(i, *trip) for i, trip in enumerate(trips)]


# ---------------------------------------------------------------------------
# hmm-recover: recover_hmm on precomputed exact window laws

#: (r, kappa); r=8 at kappa=2 (128x128x2) is doubled as the headline size
HMM_RECOVER_SIZES = [(6, 2), (7, 2), (8, 2), (8, 2), (8, 3), (9, 3), (10, 3)]
#: distinct models per size; a refusal comes from a particular model, so a
#: large pool keeps the refusal share steady from seed to seed
HMM_POOL = 64
#: random_hmm rejects draws whose A has a singular value below 0.05; at r=10
#: most draws fail, and the default 200 attempts run out for about 40% of
#: the models, so set-up allows more attempts (their cost shows in setup_s)
HMM_DRAW_ATTEMPTS = 5000


def build_hmm_recover(seed: int, workdir: Path) -> list[Slot]:
    slots = []
    for s, (r, kappa) in enumerate(HMM_RECOVER_SIZES):
        k = hmm.min_window(r, kappa)
        ops = []
        for j in range(HMM_POOL):
            rng = instance_rng(seed, s, j)
            model = sampling.random_hmm(rng, r, kappa, max_attempts=HMM_DRAW_ATTEMPTS)
            T = hmm.window_tensor(model, k)
            op_seed = int(rng.integers(2**32))
            ops.append(
                Op(
                    lambda T=T, r=r, kappa=kappa, k=k, op_seed=op_seed: hmm.recover_hmm(
                        T, r, kappa, k, seed=op_seed, tol=TOL
                    ),
                    lambda answer, model=model: check_hmm(answer, model),
                )
            )
        slots.append(pooled(f"hmm r={r} kappa={kappa} k={k}", ops))
    return slots


# ---------------------------------------------------------------------------
# nonparam-recover: recover_mixture at fixed query points

#: (r, p, block_dims, knots, queries per variate, distinct models).  The last
#: is the frontier size where about a quarter of the models refuse; its
#: refusal share is a mean over its pool, which is large enough to keep that
#: share steady from seed to seed.
NONPARAM_SIZES = [
    (3, 3, None, 5, 5, 16),
    (4, 4, None, 5, 5, 16),
    (4, 4, (1, 2, 1, 1), 5, 5, 16),
    (5, 5, None, 5, 5, 16),
    (5, 4, (2, 1, 1, 1), 5, 5, 16),
    (6, 5, None, 6, 5, 16),
    (8, 4, None, 16, 2, 64),
]


def query_points(block_dims, count: int) -> list[list]:
    """``count`` evenly spaced points in (0, 1) per variate, on the diagonal for blocks."""
    xs = [(q + 1) / (count + 1) for q in range(count)]
    return [xs if b == 1 else [(x,) * b for x in xs] for b in block_dims]


def cdf_tables(model, count: int) -> list[np.ndarray]:
    """CDF of every class and variate at the diagonal query points."""
    xs = np.array(query_points([1], count)[0])
    diagonal = np.arange(count)
    return [
        np.array(
            [comp.evaluate_grid([xs] * comp.block_dim)[(diagonal,) * comp.block_dim]
             for comp in model.variate(j)]
        )
        for j in range(model.p)
    ]


def build_nonparam_recover(seed: int, workdir: Path) -> list[Slot]:
    slots = []
    for s, (r, p, block_dims, knots, count, pool) in enumerate(NONPARAM_SIZES):
        ops = []
        for j in range(pool):
            rng = instance_rng(seed, s, j)
            model = sampling.random_nonparametric_mixture(
                rng, r, p, block_dims=block_dims, n_knots=knots
            )
            queries = query_points(model.block_dims, count)
            tables = cdf_tables(model, count)
            op_seed = int(rng.integers(2**32))
            ops.append(
                Op(
                    lambda model=model, queries=queries, op_seed=op_seed: (
                        nonparametric.recover_mixture(model, queries, seed=op_seed, tol=TOL)
                    ),
                    lambda answer, pi=model.pi, tables=tables: check_mixture_tables(
                        answer, pi, tables
                    ),
                )
            )
        blocks = "" if block_dims is None else f" blocks={list(block_dims)}"
        slots.append(pooled(f"nonparam r={r} p={p}{blocks} knots={knots} q={count}", ops))
    return slots


# ---------------------------------------------------------------------------
# certify-cli: in-process `latentid ... --json` over model files

CLI_POOL = 3


def run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(argv)
    return code, out.getvalue()


def expect(condition: bool, what: str) -> None:
    if not condition:
        raise WrongAnswer(what)


def expect_certificate(
    code: int, result: dict, ranks: list[int], threshold: int, holds: bool | None = None
) -> None:
    """Exit code and certificate fields; ``holds`` defaults to the rank-sum test."""
    if holds is None:
        holds = sum(ranks) >= threshold
    expect(code == (0 if holds else 1), f"exit code {code}, certificate holds={holds}")
    expect(result["holds"] == holds, f"holds={result['holds']}, expected {holds}")
    expect(result["kruskal_ranks"] == ranks, f"ranks {result['kruskal_ranks']} != {ranks}")
    expect(result["threshold"] == threshold, f"threshold {result['threshold']} != {threshold}")
    expect(result["rank_sum"] == sum(ranks), "rank_sum is not the sum of the ranks")


def generic_tripartition_ranks(r: int, kappa: int, p: int) -> int:
    """Best generic rank sum over tripartitions of p variables of equal arity."""
    return max(
        sum(min(r, kappa**size) for size in (a, b, p - a - b))
        for a in range(1, p - 1)
        for b in range(1, p - a)
    )


def hmm_window(r: int, kappa: int) -> int:
    """Smallest k whose degree-k monomial count in kappa symbols reaches r."""
    k = 1
    while math.comb(k + kappa - 1, kappa - 1) < r:
        k += 1
    return k


def group_matrix(P: np.ndarray, m: int) -> np.ndarray:
    """Subgraph law of K_m per node assignment, built directly from P."""
    edges = list(itertools.combinations(range(m), 2))
    rows = []
    for states in itertools.product(range(P.shape[0]), repeat=m):
        probs = [P[states[a], states[b]] for a, b in edges]
        rows.append(
            [
                math.prod(q if bit else 1.0 - q for q, bit in zip(probs, present))
                for present in itertools.product((0, 1), repeat=len(edges))
            ]
        )
    return np.array(rows)


def cli_op(argv: list[str], expected: Callable[[int, dict], float], seen: dict) -> Op:
    """Run argv; check exit code and JSON, and that repeats are byte-identical."""
    argv = [*argv, "--json"]

    def check(answer) -> float:
        code, text = answer
        first = seen.setdefault(tuple(argv), text)
        expect(text == first, f"--json output of {argv} differs between identical runs")
        return expected(code, json.loads(text)["result"])

    return Op(lambda: run_cli(argv), check)


def certify_lc_ops(seed, s, r, kappas, workdir, seen) -> list[Op]:
    ranks = [min(r, k) for k in kappas]

    def expected(code, result):
        expect_certificate(code, result, ranks, 2 * r + 2)
        return 0.0

    ops = []
    for j in range(CLI_POOL):
        path = workdir / f"lc-{s}-{j}.json"
        modelio.save_model(sampling.random_latent_class(instance_rng(seed, s, j), r, kappas), path)
        ops.append(cli_op(["certify-lc", "--model", str(path)], expected, seen))
    return ops


def search_ops(seed, s, r, kappa, p, workdir, seen) -> list[Op]:
    best = generic_tripartition_ranks(r, kappa, p)

    def expected(code, result):
        expect(result["rank_sum"] == best, f"rank sum {result['rank_sum']} != {best}")
        blocks = result["witness_blocks"]
        expect(sorted(itertools.chain(*blocks)) == list(range(p)), "witness is no partition")
        dims = [kappa ** len(b) for b in blocks]
        expect(result["clumped_dims"] == dims, "clumped dims do not match the witness")
        expect_certificate(code, result, [min(r, d) for d in dims], 2 * r + 2)
        return 0.0

    argv = ["search-tripartition", "--r", str(r), "--kappas", ",".join([str(kappa)] * p)]
    return [cli_op(argv, expected, seen)]


def hmm_certify_ops(seed, s, r, kappa, workdir, seen) -> list[Op]:
    k = hmm_window(r, kappa)

    def expected(code, result):
        expect(result["k"] == k, f"window k={result['k']}, expected {k}")
        expect_certificate(code, result, [r, r, min(r, kappa)], 2 * r + 2)
        return 0.0

    ops = []
    for j in range(CLI_POOL):
        path = workdir / f"hmm-{s}-{j}.json"
        modelio.save_model(sampling.random_hmm(instance_rng(seed, s, j), r, kappa), path)
        ops.append(cli_op(["hmm-certify", "--model", str(path)], expected, seen))
    return ops


def graph_certify_ops(seed, s, m, workdir, seen) -> list[Op]:
    ops = []
    for j in range(CLI_POOL):
        model = sampling.random_graph_mixture(instance_rng(seed, s, j))
        G = group_matrix(model.P, m)
        rank, rows = numeric_rank(G), G.shape[0]

        def expected(code, result, G=G, rank=rank, rows=rows):
            expect(result["group_matrix_shape"] == list(G.shape), "group matrix shape")
            expect(result["group_matrix_rank"] == rank, f"group rank != {rank}")
            # each lattice subgraph's matrix is the m-fold Kronecker power of G
            expect_certificate(
                code, result, [rank**m] * 3, 2 * rows**m + 2, holds=rank == rows
            )
            return 0.0

        path = workdir / f"graph-{s}-{j}.json"
        modelio.save_model(model, path)
        ops.append(cli_op(["graph-certify", "--model", str(path), "--m", str(m)], expected, seen))
    return ops


def graph_extract_ops(seed, s, n, workdir, seen) -> list[Op]:
    ops = []
    for j in range(CLI_POOL):
        model = sampling.random_graph_mixture(instance_rng(seed, s, j))
        truth = np.array([model.pi[0], model.pi[1], model.P[0, 0], model.P[0, 1], model.P[1, 1]])

        def expected(code, result, truth=truth):
            expect(code == 0, f"exit code {code}")
            got = np.array([*result["pi"], result["p11"], result["p12"], result["p22"]])
            swapped = got[[1, 0, 4, 3, 2]]
            return within_tol(
                min(np.abs(got - truth).max(), np.abs(swapped - truth).max()), "graph extract"
            )

        path = workdir / f"graph-{s}-{j}.json"
        modelio.save_model(model, path)
        argv = ["graph-extract", "--model", str(path), "--n", str(n), "--seed", str(j)]
        ops.append(cli_op(argv, expected, seen))
    return ops


def nonparam_cuts_ops(seed, s, r, p, workdir, seen) -> list[Op]:
    ops = []
    for j in range(CLI_POOL):
        model = sampling.random_nonparametric_mixture(instance_rng(seed, s, j), r, p)

        def expected(code, result, model=model):
            expect(code == 0, f"exit code {code}")
            for v in range(model.p):
                (cuts,) = result["cuts"][f"variate_{v}"]
                expect(cuts == sorted(cuts), "cuts are not sorted")
                values = [[comp(x) for x in cuts] + [1.0] for comp in model.variate(v)]
                expect(numeric_rank(values) == model.r, f"cuts of variate {v} lose rank")
            return 0.0

        path = workdir / f"np-{s}-{j}.json"
        modelio.save_model(model, path)
        ops.append(cli_op(["nonparam-cuts", "--model", str(path)], expected, seen))
    return ops


#: (label, op factory, size arguments)
CLI_SLOTS = [
    ("certify-lc r=3 kappas=3,3,3", certify_lc_ops, (3, (3, 3, 3))),
    ("certify-lc r=6 kappas=3,4,5", certify_lc_ops, (6, (3, 4, 5))),
    ("certify-lc r=10 kappas=4,8,8", certify_lc_ops, (10, (4, 8, 8))),
    ("certify-lc r=12 kappas=8,8,8", certify_lc_ops, (12, (8, 8, 8))),
    ("search-tripartition r=5 p=6 binary", search_ops, (5, 2, 6)),
    ("search-tripartition r=8 p=9 binary", search_ops, (8, 2, 9)),
    ("search-tripartition r=20 p=10 binary", search_ops, (20, 2, 10)),
    ("hmm-certify r=4 kappa=2", hmm_certify_ops, (4, 2)),
    ("hmm-certify r=6 kappa=2", hmm_certify_ops, (6, 2)),
    ("hmm-certify r=8 kappa=3", hmm_certify_ops, (8, 3)),
    ("graph-certify m=3", graph_certify_ops, (3,)),
    ("graph-certify m=4", graph_certify_ops, (4,)),
    ("graph-extract n=4", graph_extract_ops, (4,)),
    ("nonparam-cuts r=3 p=3", nonparam_cuts_ops, (3, 3)),
    ("nonparam-cuts r=5 p=5", nonparam_cuts_ops, (5, 5)),
]


def build_certify_cli(seed: int, workdir: Path) -> list[Slot]:
    seen: dict = {}
    return [
        pooled(label, make(seed, s, *args, workdir, seen))
        for s, (label, make, args) in enumerate(CLI_SLOTS)
    ]


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "simulate",
            "latent-class and HMM round trips drawn per op; r! alignment and "
            "tripartition enumeration dominate, decompose3 runs on small tensors",
            build_simulate,
        ),
        Workload(
            "hmm-recover",
            "recover_hmm on exact window laws up to 128x128x2; SVDs of tall "
            "unfoldings in decompose3 dominate, no alignment or search",
            build_hmm_recover,
            scaled=False,
        ),
        Workload(
            "certify-cli",
            "in-process CLI certificates and searches over model files; Kruskal "
            "and partition enumeration set throughput, CLI and modelio set the median",
            build_certify_cli,
        ),
        Workload(
            "nonparam-recover",
            "recover_mixture at fixed queries, with a frontier size that refuses "
            "about a quarter of draws; cut selection dominates, decompose3 runs p-2 times",
            build_nonparam_recover,
        ),
    ]
}
