"""Closed-loop runner, metric definitions and the environment record.

One caller runs the ops of a workload back to back; the next op starts only
when the previous one has returned.  Each op is timed on its own, and its
answer is checked after the clock stops.  A typed ``LatentIdError`` is a
refusal: a legitimate outcome that counts against ``answered_ratio``.  Any
other exception, and any answer that fails its check, is a failure, and a
single failure makes the whole run incorrect.

Interpreter-bound workloads report times at a reference machine speed.  On
small shared VMs the speed of plain Python code drifts by about 20% over
seconds to minutes, in wall and CPU time alike, which swamps the differences
a benchmark must resolve.  So a fixed calibration probe, which never calls
latentid, runs before every op, and for a workload marked ``scaled`` each
op's wall time is multiplied by ``PROBE_REFERENCE_S / p``, where ``p`` is the
median of the last ``PROBE_WINDOW`` probes.  A change to latentid moves the
scaled times as it moves wall times; drift of the machine moves the probe
too and cancels.  Work dominated by multithreaded BLAS does not follow the
probe, so such a workload reports wall time.  The unscaled figures are
printed on the ``report:`` line.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from collections import Counter, deque
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from latentid import LatentIdError

from perfbench.tracer import Tracer
from perfbench.workloads import WORKLOADS, Slot

#: a run keeps going past its seconds until this many ops have run, so that
#: at least ten ops lie beyond the 90th percentile
MIN_OPS = 100
#: set-ups per untraced run; setup_s reports their median
SETUP_REPEATS = 3
#: layers measured as ``<module>.self_ms``
MODULES = [
    "tensor_core", "latent_class", "recovery", "hmm", "random_graph",
    "nonparametric", "modelio", "cli", "sampling",
]
#: refusal classes reported on their own; others count as ``refusals.other``
REFUSALS = [
    "RankDeficientError", "DegenerateSpectrumError", "NegativeWeightsError",
    "IllConditionedError", "AmbiguousChainingError", "GridExhaustedError",
]
BLAS_THREAD_VARS = ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"]
#: the probe's median on the reference machine, a 2-vCPU Xeon VM at 2.0 GHz
#: (Python 3.11.7, numpy 2.4.6), so reference times there read as wall times
PROBE_REFERENCE_S = 2.0e-4
#: probes in the rolling median; at one probe per op this spans well under
#: the tens of seconds over which the machine's speed drifts
PROBE_WINDOW = 15
_PROBE_VECTOR = np.arange(16.0)

END_TO_END = [
    ("ops_per_s", "1/s", "higher"),
    ("op_ms_p50", "ms", "lower"),
    ("op_ms_p90", "ms", "lower"),
    ("answered_ratio", "ratio", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

#: traced functions and the per-op statistics reported for each
TRACED_STATS = [
    ("tensor_core.kruskal_rank", ("calls", "ms")),
    ("tensor_core.numerical_rank", ("calls", "ms")),
    ("numpy.linalg.svd", ("calls", "ms")),
    ("latent_class.tripartition_search", ("ms",)),
    ("latent_class.joint_distribution", ("ms",)),
    ("recovery.decompose3", ("calls", "ms")),
    ("recovery.align_permutation", ("ms",)),
    ("hmm.align_hmm", ("ms",)),
    ("hmm.recover_hmm", ("ms",)),
    ("hmm.hmm_certificate", ("ms",)),
    ("random_graph.graph_certificate", ("ms",)),
    ("random_graph.conditional_graph_matrix", ("calls",)),
    ("nonparametric.select_cut_points", ("ms",)),
    ("nonparametric.binned_tensor3", ("ms",)),
    ("modelio.load_model", ("ms",)),
]

PER_LAYER = (
    [
        (f"{fn}.{stat}", "count" if stat == "calls" else "ms", "lower")
        for fn, stats in TRACED_STATS
        for stat in stats
    ]
    + [
        ("latent_class.tripartition_search.exhaustive_ratio", "ratio", "higher"),
        ("recovery.decompose3.attempts_per_call", "count", "lower"),
    ]
    + [(f"{module}.self_ms", "ms", "lower") for module in MODULES]
    + [
        ("setup.sampling.self_ms", "ms", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
        ("verify.max_param_error", "abs", "lower"),
        ("blas.one_thread.op_ms_p50", "ms", "lower"),
        ("failure_ratio", "ratio", "lower"),
    ]
    + [(f"refusals.{name}", "ratio", "lower") for name in [*REFUSALS, "other"]]
)


def probe() -> float:
    """Seconds taken by a fixed mix of interpreter arithmetic and small numpy calls."""
    t0 = perf_counter()
    total = 0
    for i in range(1500):
        total += i * i
    for _ in range(20):
        np.abs(_PROBE_VECTOR - 1.0).max()
    return perf_counter() - t0


@dataclass
class Pass:
    """What one closed-loop pass saw."""

    scaled: bool = True
    latencies: list[float] = field(default_factory=list)  # reference seconds if scaled
    wall: list[float] = field(default_factory=list)  # seconds
    probes: list[float] = field(default_factory=list)
    refusals: Counter = field(default_factory=Counter)
    failures: list[str] = field(default_factory=list)
    max_error: float = 0.0

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def scale(self) -> float:
        """Reported seconds per wall second over the whole pass."""
        return PROBE_REFERENCE_S / statistics.median(self.probes) if self.scaled else 1.0


def run_pass(
    slots: list[Slot],
    seconds: float = 0.0,
    min_ops: int = MIN_OPS,
    tracer: Tracer | None = None,
    scaled: bool = True,
) -> Pass:
    """Run whole cycles of the slots until ``seconds`` have passed and ``min_ops`` have run.

    Stopping only between cycles keeps every slot's share of the ops fixed,
    so the metrics do not shift with where the clock ran out.
    """
    result = Pass(scaled=scaled)
    window: deque[float] = deque(maxlen=PROBE_WINDOW)
    n = len(slots)
    start = perf_counter()
    i = 0
    while i % n or i < min_ops or perf_counter() - start < seconds:
        window.append(probe())
        result.probes.append(window[-1])
        op = slots[i % n].op_at(i // n)
        answer = None
        t0 = perf_counter()
        try:
            if tracer is None:
                answer = op.run()
            else:
                with tracer.op():
                    answer = op.run()
        except LatentIdError as exc:
            result.refusals[type(exc).__name__] += 1
        except Exception:  # a crash is a failed op, not the end of the run
            result.failures.append(f"{slots[i % n].label}: {traceback.format_exc()}")
        wall = perf_counter() - t0
        result.wall.append(wall)
        result.latencies.append(
            wall * PROBE_REFERENCE_S / statistics.median(window) if scaled else wall
        )
        if tracer is not None:
            tracer.fold()
        if answer is not None:
            try:
                result.max_error = max(result.max_error, op.check(answer))
            except Exception as exc:  # WrongAnswer, or a malformed answer
                result.failures.append(f"{slots[i % n].label}: {type(exc).__name__}: {exc}")
        i += 1
    return result


def setup(name: str, seed: int, workdir: Path) -> tuple[list[Slot], Pass]:
    """Generate the inputs, write model files, and warm up once per slot.

    The warm-up pass's probes give the machine speed during set-up, which is
    interpreter-bound in every workload, so its ``scale`` always uses them.
    """
    slots = WORKLOADS[name].build(seed, workdir)
    return slots, run_pass(slots, min_ops=len(slots))


# ---------------------------------------------------------------------------
# metrics


def percentile_ms(latencies: list[float], q: int) -> float:
    return statistics.quantiles(latencies, n=100)[q - 1] * 1e3


def end_to_end(timed: Pass, setup_s: float) -> dict[str, float]:
    return {
        "ops_per_s": timed.attempted / sum(timed.latencies),
        "op_ms_p50": statistics.median(timed.latencies) * 1e3,
        "op_ms_p90": percentile_ms(timed.latencies, 90),
        "answered_ratio": 1.0 - sum(timed.refusals.values()) / timed.attempted,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(
    tracer: Tracer,
    setup_tracer: Tracer,
    warm: Pass,
    untraced: Pass,
    traced: Pass,
    one_thread_p50: float,
) -> dict[str, float]:
    ops = tracer.ops
    ms = 1e3 * traced.scale / ops  # reference ms per op, per traced second
    out = {
        f"{fn}.{stat}": tracer.calls[fn] / ops if stat == "calls" else tracer.seconds[fn] * ms
        for fn, stats in TRACED_STATS
        for stat in stats
    }
    counters = tracer.counters
    refused = untraced.refusals
    out.update(
        {
            "latent_class.tripartition_search.exhaustive_ratio": ratio(
                counters["latent_class.tripartition_search.exhaustive"],
                counters["latent_class.tripartition_search.returned"],
            ),
            "recovery.decompose3.attempts_per_call": ratio(
                counters["recovery.decompose3.attempts"],
                counters["recovery.decompose3.returned"],
            ),
            **{f"{m}.self_ms": tracer.self_seconds[m] * ms for m in MODULES},
            "setup.sampling.self_ms": setup_tracer.self_seconds["sampling"] * 1e3 * warm.scale,
            "trace.overhead_ratio": sum(traced.latencies) / sum(untraced.latencies),
            "verify.max_param_error": untraced.max_error,
            "blas.one_thread.op_ms_p50": one_thread_p50,
            "failure_ratio": sum(refused.values()) / untraced.attempted,
            **{f"refusals.{r}": refused[r] / untraced.attempted for r in REFUSALS},
            "refusals.other": sum(v for k, v in refused.items() if k not in REFUSALS)
            / untraced.attempted,
        }
    )
    return out


# ---------------------------------------------------------------------------
# environment


def blas_threads() -> int | None:
    """Thread count of the loaded OpenBLAS, or None when it cannot be queried."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    paths = sorted(
        {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()}
    )
    for path in paths:
        if not path.startswith("/"):
            continue
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            get = getattr(lib, symbol, None)
            if get is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                return int(get())
    return None


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads(),
        "blas_thread_env": {v: os.environ[v] for v in BLAS_THREAD_VARS if v in os.environ},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
    }


def one_thread_p50(run_py: Path, name: str, seed: int, seconds: int) -> float:
    """``op_ms_p50`` of an untraced run in a child process with one BLAS thread."""
    env = dict(os.environ, **{v: "1" for v in BLAS_THREAD_VARS})
    argv = [
        sys.executable, str(run_py), "--workload", name, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    child = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=150)
    lines = child.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if child.returncode != 0 or not result.get("correct"):
        raise RuntimeError(f"one-thread BLAS run failed:\n{child.stderr[-2000:]}")
    return result["metrics"]["op_ms_p50"]["value"]
