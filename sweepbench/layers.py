"""Spans around the public entry points of each layer of the simulator.

:func:`traced` patches each entry point *at the binding its caller looks
up* (``traces_for`` as :mod:`repro.eval.runner` binds it, ``build_program``
as the walker binds it, module functions of the stores and caches, methods
of ``System`` and the experiment declarations), runs the body, and restores
every original.  Nothing under ``src/`` changes.  Spans land in one
process, so the traced sweep must run with ``jobs=1``.

:func:`layer_metrics` turns the recorded spans into the per-layer metrics
that ``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import contextlib
import os
from typing import Any, Dict, Iterator, List, Tuple

from spans import Span, Tracer, totals_by_name

#: engine class name -> backend label.
_BACKENDS = {"CoreEngine": "reference", "JittedCoreEngine": "jit"}


def _count_synth(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    # traces_for(workload, n_cores, seed, n_instructions)
    span.counts["minstr"] = args[1] * args[3] / 1e6


def _count_lower(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    span.counts["visits"] = result.visit_count


def _count_load(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    span.counts["hits" if result is not None else "misses"] = 1


def _count_write(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    from repro.trace import store

    compiled = args[0]
    path = store.path_for(
        compiled.workload,
        compiled.seed,
        compiled.core,
        compiled.n_instructions,
        compiled.line_size,
    )
    span.counts["bytes"] = os.path.getsize(path) if result else 0


def _count_system(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    system = args[0]
    backend = _BACKENDS.get(type(system.engines[0]).__name__, "other")
    span.tags = {
        "backend": backend,
        "cores": f"cores{system.config.n_cores}",
        "family": f"family.{system.config.prefetcher}",
    }
    span.counts["visits"] = sum(len(engine.trace) for engine in system.engines)


def _patches() -> List[Tuple[Any, str, str, Any]]:
    """(owner, attribute, span name, count hook) for every traced binding."""
    from repro.cmp.system import System
    from repro.eval import diskcache, runner
    from repro.eval.experiment import Experiment, Grid, PanelDef
    from repro.trace import store
    from repro.trace.compiled import CompiledTrace
    from repro.trace.synth import walker

    return [
        (runner, "traces_for", "synth", _count_synth),
        (walker, "build_program", "synth.build_program", None),
        (CompiledTrace, "compile", "lower", _count_lower),
        (store, "load", "store.load", _count_load),
        (store, "store", "store.write", _count_write),
        (System, "__init__", "simulate.build", None),
        (System, "run", "simulate", _count_system),
        (diskcache, "load", "diskcache.load", None),
        (diskcache, "store", "diskcache.write", None),
        (Grid, "specs", "experiment.grid", None),
        (PanelDef, "build", "experiment.panels", None),
        (Experiment, "evaluate", "experiment.evaluate", None),
    ]


@contextlib.contextmanager
def traced(tracer: Tracer) -> Iterator[None]:
    """Record spans around every layer entry point while the body runs."""
    saved = []
    try:
        for owner, attr, name, count in _patches():
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(
                owner, attr
            )
            saved.append((owner, attr, original))
            if isinstance(original, classmethod):
                wrapped = classmethod(tracer.wrap(name, original.__func__, count))
            else:
                wrapped = tracer.wrap(name, original, count)
            setattr(owner, attr, wrapped)
        root = tracer.open("sweep")
        try:
            yield
        finally:
            tracer.close(root)
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _rate(amount: float, seconds: float) -> float:
    return amount / seconds if seconds > 0 else 0.0


def layer_metrics(spans: List[Span], families: List[str]) -> Dict[str, float]:
    """Per-layer self times, counts and rates from one traced sweep."""
    rows = totals_by_name(spans)

    def row(name: str) -> Dict[str, float]:
        return rows.get(name, {"s": 0.0, "calls": 0})

    synth, build = row("synth"), row("synth.build_program")
    lower, sim = row("lower"), row("simulate")
    load, write = row("store.load"), row("store.write")
    out: Dict[str, float] = {
        "synth.s": synth["s"],
        "synth.calls": synth["calls"],
        "synth.minstr_per_s": _rate(synth.get("minstr", 0), synth["s"] + build["s"]),
        "synth.build_program.s": build["s"],
        "synth.build_program.calls": build["calls"],
        "lower.s": lower["s"],
        "lower.calls": lower["calls"],
        "lower.kvisits_per_s": _rate(lower.get("visits", 0) / 1e3, lower["s"]),
        "store.load.s": load["s"],
        "store.load.hits": load.get("hits", 0),
        "store.load.misses": load.get("misses", 0),
        "store.write.s": write["s"],
        "store.write.calls": write["calls"],
        "store.write.mb": write.get("bytes", 0) / 1e6,
        "simulate.build.s": row("simulate.build")["s"],
        "simulate.s": sim["s"],
        "simulate.specs": sim["calls"],
        "simulate.kvisits_per_s": _rate(sim.get("visits", 0) / 1e3, sim["s"]),
    }
    for label in ("reference", "jit", "cores1", "cores4"):
        out[f"simulate.s.{label}"] = sim.get(f"s.{label}", 0.0)
    for family in families:
        out[f"simulate.s.family.{family}"] = sim.get(f"s.family.{family}", 0.0)
    out["diskcache.write.s"] = row("diskcache.write")["s"]
    out["diskcache.write.calls"] = row("diskcache.write")["calls"]
    out["diskcache.load.s"] = row("diskcache.load")["s"]
    out["diskcache.load.calls"] = row("diskcache.load")["calls"]
    out["experiment.grid_s"] = row("experiment.grid")["s"]
    out["experiment.panels_s"] = row("experiment.panels")["s"]
    out["experiment.evaluate_s"] = row("experiment.evaluate")["s"]
    return out
