"""Correctness gate: result digests, invariants and reference re-simulation.

Nothing here is pinned to one seed.  A sweep is correct when every
declared spec produced a result, every repeated sweep reproduces the first
sweep's payload digests, a reference-engine re-simulation of one spec per
(prefetcher, core count) pair matches digest for digest, and every result
satisfies invariants that hold by construction.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
from typing import Dict, List, Optional, Sequence

#: a result payload as :func:`repro.eval.diskcache.result_to_payload` gives it.
Payload = Dict


def digest(payload: Payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def collect(specs: Sequence) -> Dict[str, Optional[Payload]]:
    """Each spec's persisted result payload (None when it is missing)."""
    from repro.eval import diskcache

    out: Dict[str, Optional[Payload]] = {}
    for spec in specs:
        result = diskcache.load(spec)
        out[spec.content_hash()] = (
            None if result is None else diskcache.result_to_payload(result, spec)
        )
    return out


@functools.lru_cache(maxsize=None)
def longest_visits(workload: str, n_cores: int, seed: int, line_size: int, scale):
    """Per core, the most instructions one line visit of its trace executes."""
    from repro.eval.runner import get_compiled_traces, trace_budget

    total, _ = trace_budget(scale, n_cores)
    traces = get_compiled_traces(workload, n_cores, total, seed, line_size)
    return tuple(max(trace.ninstr) for trace in traces)


def spec_longest_visits(spec) -> tuple:
    return longest_visits(
        spec.workload, spec.n_cores, spec.seed, spec.hierarchy.line_size, spec.scale
    )


def prime(specs: Sequence) -> None:
    """Read what the invariants need from each spec's traces while the sweep
    that ran them still holds them, so that the gate synthesizes nothing."""
    for spec in specs:
        spec_longest_visits(spec)


def invariants(spec, payload: Payload) -> List[str]:
    """Checks every result satisfies by construction, whatever the seed.

    Each core's trace holds at least the warm-up plus the measured budget,
    and warm-up ends on the first line visit that reaches its budget, so
    the measured window falls short of its budget by less than the longest
    line visit of that core's trace (a loop inside one line is one visit).
    """
    scale = spec.scale
    budget = scale.measure_instructions if spec.n_cores == 1 else (
        scale.cmp_measure_instructions
    )
    longest = spec_longest_visits(spec)
    label = spec.describe()
    failures = []
    if len(payload["cores"]) != spec.n_cores:
        failures.append(f"{label}: {len(payload['cores'])} cores reported")
    for index, (core, visit) in enumerate(zip(payload["cores"], longest)):
        where = f"{label} core {index}"
        if sum(core["l1i_breakdown"]) != core["l1i_misses"]:
            failures.append(f"{where}: l1i_breakdown does not sum to l1i_misses")
        if core["prefetch"]["useful"] > core["prefetch"]["issued"]:
            failures.append(f"{where}: useful prefetches exceed issued")
        if core["instructions"] + visit <= budget:
            failures.append(f"{where}: {core['instructions']} short of budget {budget}")
    return failures


def problems(spec, payload: Optional[Payload], want: Optional[str]) -> List[str]:
    """Why *payload* fails the gate for *spec* (empty when it passes).

    *want* is the digest the payload must reproduce, or None to skip that
    comparison.
    """
    if payload is None:
        return [f"{spec.describe()}: no result"]
    found = invariants(spec, payload)
    if want is not None and digest(payload) != want:
        found.append(f"{spec.describe()}: payload digest differs")
    return found


def reference_sample(specs: Sequence) -> List:
    """One spec per (prefetcher, core count) pair, on the reference engine."""
    picked = {}
    for spec in specs:
        picked.setdefault((spec.prefetcher, spec.n_cores), spec)
    return [
        dataclasses.replace(spec, engine_backend="reference")
        for spec in picked.values()
    ]
