"""Command-line front end: certificates, recovery round-trips and simulation.

Exit codes partition outcomes: 0 for certified or successfully recovered, 1
for an honest negative (certificate fails, recovery precondition unmet, or
simulation trials failed), 2 for usage and input errors: an
:class:`~latentid.errors.InputError` (a bad argument or model file, including
a CDF table with a negative cell mass or a ``pi`` that is not stationary for its chain),
or the ``OSError``, ``ValueError`` or ``KeyError`` that reading a malformed
file or argument raises.  With
``--json`` the report is printed as one JSON object with sorted keys;
identical arguments, files and seed produce byte-identical JSON (wall-clock
time appears only in the human-readable text output).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import hmm as hmm_mod
from . import latent_class as lc
from . import nonparametric as npx
from . import random_graph as rg
from . import recovery, sampling
from .errors import InputError, LatentIdError
from .modelio import load_model


@dataclass
class RunReport:
    """Outcome of one CLI invocation, serializable and seed-deterministic."""

    command: str
    result: dict = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)
    seed: int | None = None
    elapsed_s: float = 0.0

    def to_json(self) -> str:
        payload = {
            "command": self.command,
            "result": self.result,
            "errors": self.errors,
        }
        if self.seed is not None:
            payload["seed"] = self.seed
        return json.dumps(payload, sort_keys=True)

    def text_lines(self) -> list[str]:
        lines = [f"command: {self.command}"]
        for key in sorted(self.result):
            lines.append(f"  {key}: {self.result[key]}")
        for err in self.errors:
            lines.append(f"  error: {err}")
        lines.append(f"  elapsed: {self.elapsed_s:.3f}s")
        return lines


def _certificate_dict(cert: lc.Certificate) -> dict:
    ranks = list(cert.kruskal_ranks)
    if cert.holds:
        summary = f"certified: rank sum {sum(ranks)} >= {cert.threshold}"
    else:
        summary = f"no certificate: best rank sum {sum(ranks)} < {cert.threshold}"
    out = {
        "holds": cert.holds,
        "status": cert.status,
        "summary": summary,
        "criterion": "Kruskal row-rank condition: I1 + I2 + I3 >= 2r + 2",
        "kruskal_ranks": ranks,
        "rank_sum": int(sum(ranks)),
        "threshold": cert.threshold,
        "mode": cert.mode,
    }
    if cert.witness is not None:
        out["witness_blocks"] = [list(b) for b in cert.witness.blocks]
        out["clumped_dims"] = list(cert.witness.clumped_dims)
    out.update(
        (key, list(v) if isinstance(v, tuple) else v) for key, v in cert.details.items()
    )
    return out


def _parse_int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.replace(" ", "").split(",") if tok]


def _parse_tripartition(text: str) -> tuple[tuple[int, ...], ...]:
    """Blocks of 0-based variable indices, e.g. ``\"0,1|2,3|4\"``."""
    blocks = tuple(tuple(_parse_int_list(part)) for part in text.split("|"))
    if len(blocks) != 3:
        raise InputError(f"expected three |-separated blocks, got {text!r}")
    return blocks


#: each model class as a wrong-type error names it (its file's "type" key)
_MODEL_TYPES = {
    lc.LatentClassModel: "a latent_class",
    hmm_mod.HiddenMarkovModel: "an hmm",
    rg.GraphMixtureModel: "a graph_mixture",
    npx.NonparametricMixture: "a nonparametric",
}


def _load(path, cls, command: str):
    """Load a model file, requiring a ``cls`` model."""
    model = load_model(path)
    if not isinstance(model, cls):
        raise InputError(f"{command} expects {_MODEL_TYPES[cls]} model file")
    return model


# ---------------------------------------------------------------------------
# command handlers: each returns (exit_code, result_dict)


def _cmd_bound(args) -> tuple[int, dict]:
    p = lc.min_variables_bound(args.r, args.kappa)
    return 0, {"r": args.r, "kappa": args.kappa, "min_variables": p}


def _cmd_search_tripartition(args) -> tuple[int, dict]:
    kappas = _parse_int_list(args.kappas)
    cert = lc.tripartition_search(args.r, kappas)
    result = _certificate_dict(cert)
    result["r"] = args.r
    result["kappas"] = kappas
    return (0 if cert.holds else 1), result


def _cmd_certify_lc(args) -> tuple[int, dict]:
    model = _load(args.model, lc.LatentClassModel, "certify-lc")
    cert = lc.kruskal_certificate(model)
    result = _certificate_dict(cert)
    result["r"] = model.r
    result["kappas"] = list(model.kappas)
    return (0 if cert.holds else 1), result


def _lc_round_trip(model: lc.LatentClassModel, blocks, seed, tol: float) -> dict:
    """Recover ``model`` from its exact joint table along ``blocks``, then align."""
    T = lc.joint_distribution(model)
    pi_hat, emissions = recovery.recover_latent_class(
        T, model.r, blocks, seed=seed, tol=tol
    )
    align = recovery.align_permutation(
        (pi_hat, emissions), (model.pi, list(model.emissions))
    )
    return {
        "blocks": [list(b) for b in blocks],
        "alignment_error": float(align.max_abs_error),
        "permutation": align.permutation.tolist(),
        "pi": [float(x) for x in pi_hat],
    }


def _cmd_recover_lc(args) -> tuple[int, dict]:
    model = _load(args.model, lc.LatentClassModel, "recover-lc")
    if args.tripartition:
        blocks = _parse_tripartition(args.tripartition)
    else:
        blocks = lc.tripartition_search(model.r, model.kappas).witness.blocks
    return 0, _lc_round_trip(model, blocks, args.seed, args.tol)


def _cmd_hmm_window(args) -> tuple[int, dict]:
    k = hmm_mod.min_window(args.r, args.kappa)
    return 0, {"r": args.r, "kappa": args.kappa, "k": k, "window": 2 * k + 1}


def _cmd_hmm_certify(args) -> tuple[int, dict]:
    model = _load(args.model, hmm_mod.HiddenMarkovModel, "hmm-certify")
    k = args.k if args.k else hmm_mod.min_window(model.r, model.kappa)
    cert = hmm_mod.hmm_certificate(model, k)
    result = _certificate_dict(cert)
    result.update({"r": model.r, "kappa": model.kappa, "k": k, "window": 2 * k + 1})
    return (0 if cert.holds else 1), result


def _hmm_round_trip(model: hmm_mod.HiddenMarkovModel, k: int, seed, tol: float) -> dict:
    """Recover ``model`` from its exact window law at half-window ``k``, then align.

    ``k=0`` takes the bound :func:`~latentid.hmm.min_window`.
    """
    k = k if k else hmm_mod.min_window(model.r, model.kappa)
    T = hmm_mod.window_tensor(model, k)
    A_hat, B_hat, pi_hat = hmm_mod.recover_hmm(
        T, model.r, model.kappa, k, seed=seed, tol=tol
    )
    align = hmm_mod.align_hmm((A_hat, B_hat, pi_hat), (model.A, model.B, model.pi))
    return {
        "k": k,
        "window": 2 * k + 1,
        "alignment_error": float(align.max_abs_error),
        "permutation": align.permutation.tolist(),
        "pi": [float(x) for x in pi_hat],
    }


def _cmd_hmm_recover(args) -> tuple[int, dict]:
    model = _load(args.model, hmm_mod.HiddenMarkovModel, "hmm-recover")
    return 0, _hmm_round_trip(model, args.k, args.seed, args.tol)


def _cmd_graph_certify(args) -> tuple[int, dict]:
    model = _load(args.model, rg.GraphMixtureModel, "graph-certify")
    cert = rg.graph_certificate(model, args.m)
    result = _certificate_dict(cert)
    result.update({"m": args.m, "nodes": args.m * args.m})
    return (0 if cert.holds else 1), result


def _graph_round_trip(model: rg.GraphMixtureModel, n: int, rng) -> dict:
    """Hide the assignment order behind a random permutation, then extract."""
    v = rg.node_state_prior(model.pi, n)
    perm = rng.permutation(v.size)
    v_perm = v[perm]

    def oracle(row, edge):
        states = rg.assignment_of_index(int(perm[row]), model.r, n)
        return rg.single_edge_marginal(model, states, edge)

    pi_hat, p11, p12, p22 = rg.extract_parameters(v_perm, oracle, n)
    # class rows (pi_i; P_ii, P_01)
    P = model.P
    truth = np.array([[P[0, 0], P[0, 1]], [P[1, 1], P[0, 1]]])
    found = np.array([[p11, p12], [p22, p12]])
    align = recovery.align_permutation((pi_hat, [found]), (model.pi, [truth]))
    return {
        "pi": [float(x) for x in pi_hat],
        "p11": p11,
        "p12": p12,
        "p22": p22,
        "match_error": align.max_abs_error,
    }


def _cmd_graph_extract(args) -> tuple[int, dict]:
    model = _load(args.model, rg.GraphMixtureModel, "graph-extract")
    rng = np.random.default_rng(args.seed)
    result = _graph_round_trip(model, args.n, rng)
    result["n"] = args.n
    return (0 if result["match_error"] <= args.tol else 1), result


def _cmd_nonparam_cuts(args) -> tuple[int, dict]:
    model = _load(args.model, npx.NonparametricMixture, "nonparam-cuts")
    cuts = {}
    for j in range(model.p):
        cs, _ = npx.select_cut_points(model.variate(j))
        cuts[f"variate_{j}"] = [c.tolist() for c in cs.cuts]
    return 0, {"r": model.r, "p": model.p, "cuts": cuts}


def _default_queries(model: npx.NonparametricMixture, count: int) -> list[list]:
    queries: list[list] = []
    for j in range(model.p):
        comps = model.variate(j)
        points = []
        per_axis = []
        for c in range(model.block_dims[j]):
            lo = min(comp.knots[c][0] for comp in comps)
            hi = max(comp.knots[c][-1] for comp in comps)
            per_axis.append(
                [lo + (q + 1) * (hi - lo) / (count + 1) for q in range(count)]
            )
        for q in range(count):
            pt = tuple(per_axis[c][q] for c in range(model.block_dims[j]))
            points.append(pt[0] if model.block_dims[j] == 1 else pt)
        queries.append(points)
    return queries


def _cmd_nonparam_recover(args) -> tuple[int, dict]:
    model = _load(args.model, npx.NonparametricMixture, "nonparam-recover")
    queries = _default_queries(model, args.queries)
    pi_hat, tables = npx.recover_mixture(model, queries, seed=args.seed, tol=args.tol)
    # align to the file's parameters through the recovered CDF tables
    truth = [
        np.vstack([[comp(pt) for pt in queries[j]] for comp in model.variate(j)])
        for j in range(model.p)
    ]
    align = recovery.align_permutation((pi_hat, tables), (model.pi, truth))
    return 0, {
        "queries_per_variate": args.queries,
        "alignment_error": float(align.max_abs_error),
        "pi": [float(x) for x in pi_hat],
    }


def _cmd_simulate(args) -> tuple[int, dict]:
    if args.trials < 1:
        raise InputError(f"--trials must be at least 1, got {args.trials}")
    if args.family == "latent-class":
        # the witness depends only on r and the state counts, not on the draw
        kappas = _parse_int_list(args.kappas)
        blocks = lc.tripartition_search(args.r, kappas).witness.blocks
    trials = []
    failures = 0
    errors = []
    for t in range(args.trials):
        rng = sampling.trial_rng(args.seed, t)
        try:
            if args.family == "latent-class":
                model = sampling.random_latent_class(rng, args.r, kappas)
                err = _lc_round_trip(model, blocks, rng, args.tol)["alignment_error"]
            elif args.family == "hmm":
                model = sampling.random_hmm(rng, args.r, args.kappa)
                err = _hmm_round_trip(model, args.k, rng, args.tol)["alignment_error"]
            elif args.family == "graph":
                model = sampling.random_graph_mixture(
                    rng, equal_mixing=args.equal_mixing
                )
                err = _graph_round_trip(model, args.n, rng)["match_error"]
            else:
                raise InputError(f"unknown family {args.family!r}")
            trials.append({"trial": t, "error": err})
            errors.append(err)
        except InputError:  # misuse ends the run with exit 2, not as a failed trial
            raise
        except LatentIdError as exc:
            failures += 1
            trials.append({"trial": t, "failure": f"{type(exc).__name__}: {exc}"})
    result = {
        "family": args.family,
        "trials": trials,
        "n_trials": args.trials,
        "failures": failures,
        # over the trials that answered; null when none did
        "max_error": max(errors, default=None),
    }
    ok = failures == 0 and all(err <= args.tol for err in errors)
    return (0 if ok else 1), result


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latentid",
        description=(
            "Identifiability certificates and exact-tensor parameter recovery "
            "for latent-structure models. Variable indices are 0-based."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, model=False, seed=True, tol=None):
        """Shared options; ``--tol`` is added when its help ``tol`` is given."""
        if model:
            sp.add_argument("--model", required=True, help="JSON model file")
        if seed:
            sp.add_argument("--seed", type=int, default=0)
        if tol:
            sp.add_argument(
                "--tol",
                type=float,
                default=recovery.RECOVERY_TOL,
                help=tol + " (default %(default)s)",
            )
        sp.add_argument("--json", action="store_true", help="emit a JSON report")

    gate = "residual gate of the decomposition, relative to the largest tensor entry"

    sp = sub.add_parser("bound", help="variables sufficient for generic identifiability")
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--kappa", type=int, required=True)
    common(sp, seed=False)

    sp = sub.add_parser("search-tripartition", help="exact clumping certificate search")
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--kappas", required=True, help="comma-separated state counts")
    common(sp, seed=False)

    sp = sub.add_parser("certify-lc", help="Kruskal-rank certificate for a 3-variable model")
    common(sp, model=True, seed=False)

    sp = sub.add_parser("recover-lc", help="round-trip recovery of a latent-class model")
    sp.add_argument("--tripartition", help='blocks like "0,1|2,3|4" (0-based)')
    common(sp, model=True, tol=gate + ", also applied to the reassembled model")

    sp = sub.add_parser("hmm-window", help="half-window bound for an HMM")
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--kappa", type=int, required=True)
    common(sp, seed=False)

    sp = sub.add_parser("hmm-certify", help="window-block certificate for an HMM")
    sp.add_argument("--k", type=int, default=0, help="half-window (default: bound)")
    common(sp, model=True, seed=False)

    sp = sub.add_parser("hmm-recover", help="round-trip recovery of an HMM")
    sp.add_argument("--k", type=int, default=0, help="half-window (default: bound)")
    common(
        sp,
        model=True,
        tol=gate + "; also bounds the row-sum error and negative entries of the "
        "solved transition matrix",
    )

    sp = sub.add_parser("graph-certify", help="rank certificate for a graph mixture")
    sp.add_argument("--m", type=int, default=4, help="group size (n = m^2 nodes)")
    common(sp, model=True, seed=False)

    sp = sub.add_parser("graph-extract", help="extraction round-trip for a graph mixture")
    sp.add_argument("--n", type=int, default=4, help="number of nodes to simulate")
    common(sp, model=True, tol="largest parameter error that still exits 0")

    sp = sub.add_parser(
        "nonparam-cuts",
        help="select full-rank cut points per variate",
        description="Select full-rank cut points per variate: each cut is the knot "
        "farthest from the span of the cuts before it, and a family whose farthest "
        "knot does not raise the rank, under the one rank rule of every certificate, "
        "is refused as linearly dependent; takes no --tol.",
    )
    common(sp, model=True, seed=False)

    sp = sub.add_parser("nonparam-recover", help="round-trip recovery of CDF values")
    sp.add_argument("--queries", type=int, default=5, help="query points per variate")
    common(sp, model=True, tol=gate)

    sp = sub.add_parser("simulate", help="random-model round-trip harness")
    sp.add_argument(
        "--family", choices=["latent-class", "hmm", "graph"], required=True
    )
    sp.add_argument("--r", type=int, default=3)
    sp.add_argument("--kappas", default="3,3,3", help="latent-class state counts")
    sp.add_argument("--kappa", type=int, default=2, help="hmm observed states")
    sp.add_argument("--k", type=int, default=0, help="hmm half-window (default: bound)")
    sp.add_argument("--n", type=int, default=4, help="graph node count")
    sp.add_argument("--equal-mixing", action="store_true")
    sp.add_argument("--trials", type=int, default=10)
    common(sp, tol=gate + "; also the largest trial error that still exits 0")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`run` uses, built on its first call (about 2.5 ms)."""
    return build_parser()


def run(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    # looked up by command name on each call, so a replaced handler is used
    handler = globals()["_cmd_" + args.command.replace("-", "_")]
    report = RunReport(command=args.command, seed=getattr(args, "seed", None))
    start = time.perf_counter()
    try:
        code, result = handler(args)
        report.result = result
    except (OSError, ValueError, KeyError) as exc:  # InputError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LatentIdError as exc:
        code = 1
        report.errors.append(f"{type(exc).__name__}: {exc}")
    report.elapsed_s = time.perf_counter() - start

    if getattr(args, "json", False):
        print(report.to_json())
    else:
        print("\n".join(report.text_lines()))
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
