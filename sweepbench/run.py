"""Sweep benchmark: cold and warm catalog sweeps through ``run_experiment``.

Usage, from the repository root::

    python3 sweepbench/run.py --workload cold-1c --seed 1337 --seconds 25 --trace 0

Each run works in a private directory under ``sweepbench/.work/`` (removed
on exit) with operator-set ``REPRO_*`` variables stripped, and runs every
sweep in this one process (``jobs=1``).  A run sweeps four experiment
seeds drawn from ``--seed``.  Set-up, once per seed, builds the jit kernel
into a fresh directory and, for ``warm-families``, stores that seed's trace
keys (median reported).  One spec then runs untimed as a warm-up.
``--trace 0`` times sweeps with calibration slices (``hostspeed.py``),
taking the seeds in turn and starting another sweep while it should end
within ``--seconds``, and prints the end-to-end metrics at the reference
host's speed; ``--trace 1`` runs an untraced baseline sweep and one traced
sweep of the first seed and prints the per-layer metrics.  Both gate the
results (see ``gate.py``) and print one JSON line last on stdout.  See
``sweepbench/README.md`` for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import gc
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import gate
from hostspeed import measure
from layers import layer_metrics, traced
from spans import Span, Tracer, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SCALE = "smoke"
#: experiment seeds per run, drawn from --seed.  Each set-up prepares one,
#: and setup_s is their median.  Sweeps take the seeds in turn: the cost of
#: a sweep depends on its seed, by about 9% on warm-families, and a run
#: that spans several seeds varies less from one --seed to the next.
SEEDS = 4
#: executor jobs of every sweep: one process, so that the run needs one
#: core of a shared host and never competes with itself.
JOBS = 1


@dataclass(frozen=True)
class Workload:
    experiment: str
    #: fill the trace store in set-up; otherwise every sweep starts cold.
    warm_store: bool


WORKLOADS = {
    "cold-1c": Workload("fig01", warm_store=False),
    "cold-4c": Workload("comparison-bandwidth", warm_store=False),
    "warm-families": Workload("scenario-osmix", warm_store=True),
}


@dataclass
class Sweep:
    seed: int
    #: measured seconds, calibration slices excluded.
    wall: float
    cpu: float
    #: factor to reference-host seconds (1.0 when not calibrated).
    scale: float
    outcome: object
    specs: list
    payloads: Dict[str, Optional[dict]]
    spans: List[Span]


class BenchError(RuntimeError):
    """A self-check or hermeticity check failed: the run prints no result."""


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------- #
# Hermetic set-up
# ---------------------------------------------------------------------- #

def hermetic_env(work: Path) -> None:
    """Strip operator-set REPRO_* variables; keep temp files in *work*."""
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    tmp = work / "tmp"
    tmp.mkdir(parents=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    os.environ["REPRO_EXTERNAL_TRACES"] = str(work / "external")


def build_kernel(directory: Path) -> None:
    """Build the jit kernel into *directory* from a fresh process."""
    env = dict(os.environ, REPRO_JIT_CACHE_DIR=str(directory), PYTHONPATH=str(SRC))
    code = "from repro.core import jitted; raise SystemExit(not jitted.jit_available())"
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=170)


def fill_store(specs: list) -> None:
    """Synthesize and store every trace key of *specs*, in process."""
    from repro.eval.runner import clear_trace_cache, precompile_for_specs

    outcomes = precompile_for_specs(specs)
    clear_trace_cache()
    if set(outcomes.values()) != {"compiled"}:
        raise BenchError(f"store fill did not start empty: {outcomes}")


def store_snapshot(directory: Path) -> Dict[str, Tuple[int, int]]:
    return {
        path.name: (path.stat().st_size, path.stat().st_mtime_ns)
        for path in directory.iterdir()
    }


# ---------------------------------------------------------------------- #
# Sweeps
# ---------------------------------------------------------------------- #

def experiment_specs(name: str, seed: int) -> list:
    """The deduplicated specs the named experiment declares."""
    from repro.eval.registry import get_experiment

    return get_experiment(name).specs(SCALE, seed)


def run_sweep(
    name: str,
    seed: int,
    work: Path,
    index: int,
    store_dir: Optional[Path],
    tracer: Optional[Tracer] = None,
    calibrate: bool = False,
) -> Sweep:
    """One measured sweep from an empty result cache and empty memos.

    With *store_dir* the sweep reads that filled trace store and must not
    write it; without, it starts from an empty trace store of its own.
    With *calibrate*, the sweep is timed with calibration slices (see
    ``hostspeed.py``).
    """
    from repro.eval import diskcache, executor, runner
    from repro.eval.experiment import run_experiment
    from repro.eval.registry import get_experiment
    from repro.trace import store

    os.environ["REPRO_CACHE_DIR"] = str(work / f"results-{index}")
    trace_dir = store_dir or work / f"traces-{index}"
    os.environ["REPRO_TRACE_DIR"] = str(trace_dir)
    executor.clear_memo()
    runner.clear_trace_cache()
    if diskcache.entry_count():
        raise BenchError("result cache is not empty before a sweep")
    if store_dir is None and store.entry_count():
        raise BenchError("trace store is not empty before a cold sweep")
    before = store_snapshot(store_dir) if store_dir else None
    experiment = get_experiment(name)
    gc.collect()

    with measure(calibrate) as timing:
        with traced(tracer) if tracer else contextlib.nullcontext():
            outcome = run_experiment(experiment, scale=SCALE, seed=seed, jobs=JOBS)

    if before is not None and store_snapshot(store_dir) != before:
        raise BenchError("warm sweep wrote its trace store")
    specs = experiment_specs(name, seed)
    gate.prime(specs)
    return Sweep(
        seed, timing.wall, timing.cpu, timing.scale, outcome, specs,
        gate.collect(specs), tracer.spans if tracer else [],
    )


def warm_up(spec, work: Path, store_dir: Optional[Path]) -> None:
    """Simulate *spec* untimed, into a throwaway result cache (and trace
    store, unless the workload reads a filled one), so that the first
    measured sweep pays no first-use costs such as imports and kernel load."""
    from repro.eval import executor

    os.environ["REPRO_CACHE_DIR"] = str(work / "warm-up-results")
    os.environ["REPRO_TRACE_DIR"] = str(store_dir or work / "warm-up-traces")
    executor.run_specs_report([spec], jobs=JOBS, label="warm-up")


def reference_payloads(sample: list) -> Dict[str, Optional[dict]]:
    """Payloads of the reference sample, simulated with the result cache off."""
    from repro.eval import diskcache, executor, runner

    os.environ["REPRO_DISK_CACHE"] = "0"
    try:
        executor.clear_memo()
        runner.clear_trace_cache()
        results, _ = executor.run_specs_report(sample, jobs=JOBS, label="reference")
    finally:
        del os.environ["REPRO_DISK_CACHE"]
    return {
        spec.content_hash(): diskcache.result_to_payload(result, spec)
        for spec, result in results.items()
    }


# ---------------------------------------------------------------------- #
# Self-checks (run on every run)
# ---------------------------------------------------------------------- #

def check_self_times() -> None:
    """Self times on a scripted clock add up to the root span."""
    ticks = iter([0.0, 1.0, 2.0, 3.0, 5.0, 6.0, 9.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    root = tracer.open("root")  # [0, 10]
    a = tracer.open("a")  # [1, 5]
    b = tracer.open("b")  # [2, 3], nested in a
    tracer.close(b)
    tracer.close(a)
    c = tracer.open("c")  # [6, 9]
    tracer.close(c)
    tracer.close(root)
    spans = list(tracer.spans)
    # Siblings overlapping a and c, and one running past the root's end.
    spans.append(Span(id=4, name="d", start=4.0, end=7.0, parent=root.id, depth=1))
    spans.append(Span(id=5, name="e", start=8.5, end=12.0, parent=root.id, depth=1))
    own = self_times(spans)
    if abs(sum(own.values()) - 10.0) > 1e-9 or own[b.id] != 1.0:
        raise BenchError(f"self times do not partition the root span: {own}")


def check_digest_gate(specs: list, payloads: Dict[str, Optional[dict]]) -> None:
    """The digest check passes an unchanged payload and catches a one-field
    change and a missing result."""
    spec = specs[0]
    payload = payloads[spec.content_hash()]
    if payload is None:
        return  # the gate itself reports the missing result
    want = gate.digest(payload)
    perturbed = copy.deepcopy(payload)
    perturbed["cores"][0]["cycles"] += 1.0
    others = gate.invariants(spec, payload)
    if (
        gate.problems(spec, copy.deepcopy(payload), want) != others
        or len(gate.problems(spec, perturbed, want)) != len(others) + 1
        or not gate.problems(spec, None, want)
    ):
        raise BenchError("digest gate self-check failed")


def declared_metrics(trace: bool) -> Dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for the mode."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = declared["per_layer" if trace else "end_to_end"]
    return {metric["name"]: metric["unit"] for metric in section}


# ---------------------------------------------------------------------- #
# Metrics
# ---------------------------------------------------------------------- #

def model_counts(payloads: Dict[str, Optional[dict]]) -> Dict[str, float]:
    """Exact simulated counts summed over every spec and core."""
    fields = {
        "model.instructions": lambda core: core["instructions"],
        "model.cycles": lambda core: core["cycles"],
        "model.l1i_misses": lambda core: core["l1i_misses"],
        "model.l2i_misses": lambda core: core["l2i_demand_misses"],
        "model.l2d_misses": lambda core: core["l2d_misses"],
        "model.prefetch.issued": lambda core: core["prefetch"]["issued"],
        "model.prefetch.useful": lambda core: core["prefetch"]["useful"],
    }
    cores = [core for p in payloads.values() if p for core in p["cores"]]
    return {name: sum(get(core) for core in cores) for name, get in fields.items()}


def executor_metrics(outcome) -> Dict[str, float]:
    report = outcome.report
    durations = sorted(report.durations.values())
    # Highest order statistic with at least ten samples beyond it.
    tail = durations[max(0, len(durations) - 11)] if durations else 0.0
    return {
        "executor.simulated": report.simulated,
        "executor.retried": report.retried,
        "executor.failed": report.failed,
        "executor.pool_rebuilds": report.pool_rebuilds,
        "executor.spec_s.p50": statistics.median(durations) if durations else 0.0,
        "executor.spec_s.ptail": tail,
        "executor.overhead_s": report.wall_seconds - sum(durations),
    }


def seed_mean(sweeps: List[Sweep], value: Callable[[Sweep], float]) -> float:
    """Mean over the swept seeds of the median of each seed's sweeps: the
    median drops a sweep that host load slowed, and the mean weighs each
    seed's inputs alike."""
    by_seed: Dict[int, List[float]] = {}
    for done in sweeps:
        by_seed.setdefault(done.seed, []).append(value(done))
    return statistics.mean(statistics.median(values) for values in by_seed.values())


def verdict_fraction(outcome) -> float:
    judged = [v for v in outcome.verdicts if v.status != "skip"]
    return sum(v.passed for v in judged) / len(judged) if judged else 0.0


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


# ---------------------------------------------------------------------- #
# One run
# ---------------------------------------------------------------------- #

def run(args: argparse.Namespace, work: Path) -> dict:
    hermetic_env(work)
    sys.path.insert(0, str(SRC))
    check_self_times()

    from repro.core import jitted
    from repro.eval.runner import trace_budget
    from repro.prefetch.registry import PREFETCHER_NAMES

    workload = WORKLOADS[args.workload]
    seeds = random.Random(args.seed).sample(range(1, 2**31), SEEDS)
    specs = experiment_specs(workload.experiment, seeds[0])
    instructions = sum(trace_budget(s.scale, s.n_cores)[0] * s.n_cores for s in specs)

    # Set-up, once per seed: the kernel build into a fresh directory, then
    # for the warm workload that seed's trace keys into the one trace store.
    # The last kernel is used.
    setups = []
    store_dir = work / "store" if workload.warm_store else None
    for index, seed in enumerate(seeds):
        with measure() as timing:
            build_kernel(work / f"jit-{index}")
            os.environ["REPRO_JIT_CACHE_DIR"] = str(work / f"jit-{index}")
            if store_dir:
                os.environ["REPRO_TRACE_DIR"] = str(store_dir)
                fill_store(experiment_specs(workload.experiment, seed))
        setups.append(timing.wall * timing.scale)
    if not jitted.jit_available():
        raise BenchError("jit kernel did not load after set-up")
    setup_s = statistics.median(setups)
    log(f"[sweepbench] {args.workload}: {len(specs)} specs, set-up {setup_s:.2f}s")
    warm_up(specs[0], work, store_dir)

    sweeps: List[Sweep] = []

    def sweep(seed: int, tracer: Optional[Tracer] = None, calibrate: bool = False):
        done = run_sweep(
            workload.experiment, seed, work, len(sweeps), store_dir, tracer, calibrate
        )
        log(
            f"[sweepbench] sweep {done.wall:.2f}s wall, {done.cpu:.2f}s cpu, "
            f"{done.wall * done.scale:.2f}s at reference speed"
        )
        sweeps.append(done)

    if args.trace:
        sweep(seeds[0])  # the untraced baseline for tracing.overhead_frac
        sweep(seeds[0], Tracer())
    else:
        # Start another sweep only while it should end within --seconds.
        started = time.perf_counter()
        while not sweeps or (
            time.perf_counter() - started + sweeps[-1].wall <= args.seconds
        ):
            sweep(seeds[len(sweeps) % SEEDS], calibrate=True)

    # Correctness gate, outside the timed region.  The first sweep holding
    # a spec fixes the digest every later sweep and the reference must hit.
    check_digest_gate(sweeps[0].specs, sweeps[0].payloads)
    expected: Dict[str, str] = {}
    failures: List[str] = []
    bad = set()
    for number, done in enumerate(sweeps):
        for spec in done.specs:
            key = spec.content_hash()
            payload = done.payloads.get(key)
            if payload is not None:
                expected.setdefault(key, gate.digest(payload))
            found = gate.problems(spec, payload, expected.get(key))
            failures += [f"sweep {number}: {line}" for line in found]
            if found:
                bad.add((number, key))
    # The last sweep's traces are still in the trace store the run points at.
    sample = gate.reference_sample(sweeps[-1].specs)
    reference = reference_payloads(sample)
    for spec in sample:
        key = spec.content_hash()
        found = gate.problems(spec, reference.get(key), expected.get(key))
        failures += [f"reference: {line}" for line in found]
        if found:
            bad.update((n, key) for n, done in enumerate(sweeps) if spec in done.specs)
    for line in failures[:20]:
        log(f"[sweepbench] FAIL {line}")
    attempted = sum(len(done.specs) for done in sweeps)
    failed = len(bad)

    if args.trace:
        baseline, traced_sweep = sweeps
        metrics = layer_metrics(traced_sweep.spans, list(PREFETCHER_NAMES))
        metrics.update(model_counts(traced_sweep.payloads))
        metrics.update(executor_metrics(traced_sweep.outcome))
        metrics["tracing.overhead_frac"] = traced_sweep.wall / baseline.wall - 1.0
        metrics["verdicts_ok_frac"] = verdict_fraction(traced_sweep.outcome)
    else:
        metrics = {
            "sweep_s": seed_mean(sweeps, lambda s: s.wall * s.scale),
            "sim_minstr_per_s": seed_mean(
                sweeps, lambda s: instructions / 1e6 / (s.wall * s.scale)
            ),
            "cpu_s": seed_mean(sweeps, lambda s: s.cpu * s.scale),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb(),
            "ok_frac": (attempted - failed) / attempted,
        }

    units = declared_metrics(bool(args.trace))
    if set(units) != set(metrics):
        raise BenchError(
            f"metric set differs from BENCHMARK.json: "
            f"missing {sorted(set(units) - set(metrics))}, "
            f"undeclared {sorted(set(metrics) - set(units))}"
        )
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]} for name in units
        },
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=1337)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        log(f"[sweepbench] no simulator sources at {SRC}; run from a full checkout")
        return 2
    work = HERE / ".work" / f"run-{os.getpid()}"
    # A terminated run still stops its child and removes its directory.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        result = run(args, work)
    except BenchError as error:
        log(f"[sweepbench] {error}")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # kept while another run still uses it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
