"""Command-line front end: certificates, recovery round-trips and simulation.

Exit codes partition outcomes: 0 for certified or successfully recovered, 1
for an honest negative (certificate fails, recovery precondition unmet, or
simulation trials failed), 2 for usage and input errors: an
:class:`~latentid.errors.InputError` (a bad argument, such as a NaN ``--tol``
or a ``--k`` whose window exceeds the entry cap, or any malformed model file,
including a CDF table with a negative cell mass), or the ``OSError`` or
``ValueError`` that reading an unreadable file or a bad argument raises.  A
certificate report's ``criterion`` names the rule its command applies: the
Kruskal rank sum for ``search-tripartition`` and ``certify-lc``, full row rank
for ``hmm-certify`` and ``graph-certify``.  With ``--json`` the report is
printed as one JSON object with sorted keys; identical arguments, files and
seed produce byte-identical JSON (wall-clock time appears only in the
human-readable text output).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

import numpy as np

from . import hmm as hmm_mod
from . import latent_class as lc
from . import nonparametric as npx
from . import random_graph as rg
from . import recovery, sampling, tensor_core
from .errors import InputError, LatentIdError
from .modelio import load_model


def _certified(cert: lc.Certificate, **facts) -> tuple[int, dict]:
    """Exit code and report of ``cert``, with the command's own ``facts``."""
    total, t = int(sum(cert.kruskal_ranks)), cert.threshold
    if cert.holds:
        summary = f"certified: rank sum {total} >= {t}"
    elif total < t:
        summary = f"no certificate: best rank sum {total} < {t}"
    else:  # a full-row-rank criterion can fail where the sum reaches the threshold
        summary = f"no certificate: rank sum {total} >= {t}, but the criterion fails"
    result = {
        "holds": cert.holds,
        "status": cert.status,
        "summary": summary,
        "criterion": cert.criterion,
        "kruskal_ranks": list(cert.kruskal_ranks),
        "rank_sum": total,
        "threshold": t,
        "mode": cert.mode,
    }
    if cert.witness is not None:
        result["witness_blocks"] = [list(b) for b in cert.witness.blocks]
        result["clumped_dims"] = list(cert.witness.clumped_dims)
    result.update(
        (key, list(v) if isinstance(v, tuple) else v) for key, v in cert.details.items()
    )
    result.update(facts)
    return (0 if cert.holds else 1), result


def _tolerance(text: str) -> float:
    """``--tol``: a float that the library's one tolerance rule accepts."""
    try:
        return tensor_core._tolerance(float(text))
    except InputError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.replace(" ", "").split(",") if tok]


#: each model class as a wrong-type error names it (its file's "type" key)
_MODEL_TYPES = {
    lc.LatentClassModel: "a latent_class",
    hmm_mod.HiddenMarkovModel: "an hmm",
    rg.GraphMixtureModel: "a graph_mixture",
    npx.NonparametricMixture: "a nonparametric",
}


def _load(args, cls):
    """Load ``args.model``, requiring a ``cls`` model for ``args.command``."""
    model = load_model(args.model)
    if not isinstance(model, cls):
        raise InputError(f"{args.command} expects {_MODEL_TYPES[cls]} model file")
    return model


# ---------------------------------------------------------------------------
# command handlers: each returns (exit_code, result_dict)


def _cmd_bound(args) -> tuple[int, dict]:
    p = lc.min_variables_bound(args.r, args.kappa)
    return 0, {"r": args.r, "kappa": args.kappa, "min_variables": p}


def _cmd_search_tripartition(args) -> tuple[int, dict]:
    kappas = _parse_int_list(args.kappas)
    return _certified(lc.tripartition_search(args.r, kappas), r=args.r, kappas=kappas)


def _cmd_certify_lc(args) -> tuple[int, dict]:
    model = _load(args, lc.LatentClassModel)
    return _certified(lc.kruskal_certificate(model), r=model.r, kappas=list(model.kappas))


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
    model = _load(args, lc.LatentClassModel)
    if args.tripartition:
        # the library checks that there are three blocks covering the variables
        blocks = [_parse_int_list(part) for part in args.tripartition.split("|")]
    else:
        blocks = lc.tripartition_search(model.r, model.kappas).witness.blocks
    return 0, _lc_round_trip(model, blocks, args.seed, args.tol)


def _cmd_hmm_window(args) -> tuple[int, dict]:
    k = hmm_mod.min_window(args.r, args.kappa)
    return 0, {
        "r": args.r, "kappa": args.kappa, "k": k, "window": 2 * k + 1,
        "recovery_k": hmm_mod._recovery_k(args.r, args.kappa, k),
    }


def _half_window(model: hmm_mod.HiddenMarkovModel, k: int) -> int:
    """``--k``, or the bound :func:`~latentid.hmm.min_window` when it is 0."""
    return k or hmm_mod.min_window(model.r, model.kappa)


def _cmd_hmm_certify(args) -> tuple[int, dict]:
    model = _load(args, hmm_mod.HiddenMarkovModel)
    k = _half_window(model, args.k)
    return _certified(
        hmm_mod.hmm_certificate(model, k),
        r=model.r, kappa=model.kappa, k=k, window=2 * k + 1,
    )


def _hmm_round_trip(model: hmm_mod.HiddenMarkovModel, k: int, seed, tol: float) -> dict:
    """Recover ``model`` from its exact window law at half-window ``k``, then align."""
    k = _half_window(model, k)
    T = hmm_mod.window_tensor(model, k)
    A_hat, B_hat, pi_hat = hmm_mod.recover_hmm(
        T, model.r, model.kappa, k, seed=seed, tol=tol
    )
    align = hmm_mod.align_hmm((A_hat, B_hat, pi_hat), (model.A, model.B, model.pi))
    return {
        "k": k,
        "window": 2 * k + 1,
        "recovery_k": hmm_mod._recovery_k(model.r, model.kappa, k),
        "alignment_error": float(align.max_abs_error),
        "permutation": align.permutation.tolist(),
        "pi": [float(x) for x in pi_hat],
    }


def _cmd_hmm_recover(args) -> tuple[int, dict]:
    model = _load(args, hmm_mod.HiddenMarkovModel)
    return 0, _hmm_round_trip(model, args.k, args.seed, args.tol)


def _cmd_graph_certify(args) -> tuple[int, dict]:
    model = _load(args, rg.GraphMixtureModel)
    return _certified(rg.graph_certificate(model, args.m), m=args.m, nodes=args.m**2)


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
    model = _load(args, rg.GraphMixtureModel)
    result = _graph_round_trip(model, args.n, np.random.default_rng(args.seed))
    result["n"] = args.n
    return (0 if result["match_error"] <= args.tol else 1), result


def _cmd_nonparam_cuts(args) -> tuple[int, dict]:
    model = _load(args, npx.NonparametricMixture)
    selected = npx.select_mixture_cuts(model)
    cuts = {f"variate_{j}": [c.tolist() for c in cs.cuts] for j, (cs, _) in enumerate(selected)}
    return 0, {"r": model.r, "p": model.p, "cuts": cuts}


def _default_queries(model: npx.NonparametricMixture, count: int) -> list[np.ndarray]:
    """``count`` evenly spaced points per variate, strictly inside its knot range."""
    tensor_core.check_power_entries([(count, 1), (max(model.block_dims), 1)], "query array")
    steps = np.arange(1, count + 1)[:, None]
    queries = []
    for j in range(model.p):
        comps = model.variate(j)
        lo = np.min([[axis[0] for axis in comp.knots] for comp in comps], axis=0)
        hi = np.max([[axis[-1] for axis in comp.knots] for comp in comps], axis=0)
        queries.append(lo + steps * (hi - lo) / (count + 1))
    return queries


def _cmd_nonparam_recover(args) -> tuple[int, dict]:
    tensor_core._whole_number(args.queries, "--queries", 0)
    model = _load(args, npx.NonparametricMixture)
    queries = _default_queries(model, args.queries)
    pi_hat, tables = npx.recover_mixture(model, queries, seed=args.seed, tol=args.tol)
    # align to the file's parameters through the recovered CDF tables
    truth = npx.component_cdfs(model, queries)
    align = recovery.align_permutation((pi_hat, tables), (model.pi, truth))
    return 0, {
        "queries_per_variate": args.queries,
        "alignment_error": float(align.max_abs_error),
        "pi": [float(x) for x in pi_hat],
    }


#: the model options of ``simulate``, with the value each takes when not given
_SIMULATE_DEFAULTS = {"r": 3, "kappas": "3,3,3", "kappa": 2, "k": 0, "n": 4, "equal_mixing": False}
#: the model options each family reads; giving any other one is refused
_SIMULATE_READS = {
    "latent-class": ("r", "kappas"),
    "hmm": ("r", "kappa", "k"),
    "graph": ("n", "equal_mixing"),
}


def _cmd_simulate(args) -> tuple[int, dict]:
    tensor_core._whole_number(args.trials, "--trials", 1)
    reads = _SIMULATE_READS[args.family]
    ignored = [
        "--" + name.replace("_", "-")
        for name in _SIMULATE_DEFAULTS
        if getattr(args, name) is not None and name not in reads
    ]
    if ignored:
        raise InputError(f"--family {args.family} does not read {', '.join(ignored)}")
    for name in reads:
        if getattr(args, name) is None:
            setattr(args, name, _SIMULATE_DEFAULTS[name])
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
            else:  # graph; argparse admits no other family
                model = sampling.random_graph_mixture(
                    rng, equal_mixing=args.equal_mixing
                )
                err = _graph_round_trip(model, args.n, rng)["match_error"]
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
                type=_tolerance,
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

    sp = sub.add_parser(
        "hmm-window", help="half-window bound for an HMM, and the window recovery uses"
    )
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
        "solved transition matrix, and the law rebuilt at k",
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
        "is refused as linearly dependent, naming the lowest-numbered such variate; "
        "takes no --tol.",
    )
    common(sp, model=True, seed=False)

    sp = sub.add_parser("nonparam-recover", help="round-trip recovery of CDF values")
    sp.add_argument("--queries", type=int, default=5, help="query points per variate")
    common(sp, model=True, tol=gate)

    sp = sub.add_parser("simulate", help="random-model round-trip harness")
    sp.add_argument(
        "--family", choices=["latent-class", "hmm", "graph"], required=True
    )
    # None marks an option not given: a family refuses the ones it does not read
    default = _SIMULATE_DEFAULTS
    sp.add_argument("--r", type=int, help=f"latent-class and hmm classes (default {default['r']})")
    sp.add_argument("--kappas", help=f"latent-class state counts (default {default['kappas']})")
    sp.add_argument("--kappa", type=int, help=f"hmm observed states (default {default['kappa']})")
    sp.add_argument("--k", type=int, help="hmm half-window (default: bound)")
    sp.add_argument("--n", type=int, help=f"graph node count (default {default['n']})")
    sp.add_argument(
        "--equal-mixing", action="store_true", default=None, help="graph: weights 1/2, 1/2"
    )
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
    errors = []
    start = time.perf_counter()
    try:
        code, result = handler(args)
    except (OSError, ValueError) as exc:  # InputError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LatentIdError as exc:
        code, result = 1, {}
        errors.append(f"{type(exc).__name__}: {exc}")
    elapsed_s = time.perf_counter() - start

    if args.json:
        payload = {"command": args.command, "result": result, "errors": errors}
        if hasattr(args, "seed"):
            payload["seed"] = args.seed
        print(json.dumps(payload, sort_keys=True))
    else:
        lines = [f"command: {args.command}"]
        lines += [f"  {key}: {result[key]}" for key in sorted(result)]
        lines += [f"  error: {err}" for err in errors]
        lines.append(f"  elapsed: {elapsed_s:.3f}s")
        print("\n".join(lines))
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
