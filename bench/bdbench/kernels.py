"""Fixed kernels for the arithmetic layer and the import breakdown.

``op_ns`` times one ``Real`` operation with a loop that mirrors the body of
``sum_positive_series`` over ``_delta_terms``: ``term * birth / death``,
the ratio test ``term < prev``, ``total + term`` and the tail test
``term < rel_tol * total``, six operations per step.  Its values stay
finite and normal for the whole loop.

``import_breakdown`` reads ``python -X importtime`` from fresh
interpreters importing ``birthdeath.cli``.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
from time import perf_counter

OPS_PER_STEP = 6


def _step_loop(ctx, steps: int) -> float:
    birth, death = ctx.real("1.0000001"), ctx.real("1.0000002")
    rel_tol = ctx.real("1e-14")
    term = prev = ctx.one()
    total = ctx.zero()
    t0 = perf_counter()
    for _ in range(steps):
        term = term * birth / death
        if term < prev:
            total = total + term
        if term < rel_tol * total:
            break
        prev = term
    return perf_counter() - t0


def op_ns(steps: int = 20_000, repeats: int = 5) -> dict:
    """Median nanoseconds per ``Real`` operation, machine and 70 digits."""
    from birthdeath.arithmetic import EXTENDED, MACHINE, make_context

    result = {}
    for name, ctx in (("machine", make_context(MACHINE)), ("d70", make_context(EXTENDED, 70))):
        times = [_step_loop(ctx, steps) for _ in range(repeats)]
        result[f"arithmetic.op_ns.{name}"] = statistics.median(times) / (steps * OPS_PER_STEP) * 1e9
    return result


def _importtime(env: dict) -> dict[str, float]:
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import birthdeath.cli"],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    cumulative_s: dict[str, float] = {}
    for line in proc.stderr.splitlines():
        # "import time: <self us> | <cumulative us> | <two spaces per level><name>"
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        cumulative_s.setdefault(name.strip(), int(cumulative) / 1e6)
    return {name: cumulative_s.get(name, 0.0) for name in ("birthdeath.cli", "numpy", "click")}


def import_breakdown(env: dict, repeats: int = 3) -> dict:
    """Median cumulative import seconds of ``birthdeath.cli``, numpy and click."""
    runs = [_importtime(env) for _ in range(repeats)]
    return {
        "setup.import_s": statistics.median(r["birthdeath.cli"] for r in runs),
        "setup.numpy_import_s": statistics.median(r["numpy"] for r in runs),
        "setup.click_import_s": statistics.median(r["click"] for r in runs),
    }
