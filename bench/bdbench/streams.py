"""Seeded request streams for the three benchmark workloads.

A workload is a weighted mix of request families.  Family ``f`` with
weight ``w`` emits its ``j``-th request at stream position
``(j + phase_f) / w``, with a seeded phase; merging the families by
position keeps every prefix of the stream within one request of the
nominal shares.  Inside a family the ``j``-th request takes its
parameters from the ``j``-th point of a Halton sequence, so any prefix
covers each parameter range evenly.  The seed shifts every coordinate of
that sequence by up to 1/128 of its range (a narrow Cranley-Patterson
rotation): every seed gives other rates, ratios, sizes and simulation
seeds, while the cost mix of a prefix stays put.  A full-width rotation
moves all of a family's points by up to one stratum at once, and with
the few dozen requests per family that a run completes, that alone moved
the median latency by 8-15% from seed to seed; a 1/32 shift still moved
the mean squared ``imax`` of the machine workload's ``lambda=a, mu=b*n``
requests, which sets their cost, by up to 6%.  A timed closed loop can
stop anywhere and still have run a representative mix.

Each request carries the argv the program sees and a ``ref`` record the
reference checker uses; the program never sees ``ref``.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field
from typing import Callable, Iterator

WORKLOADS = ("series-machine", "series-extended", "montecarlo")

# exit statuses a well-formed request may end with: a classified report
# (0) or an Inconclusive report (2); invalid input must end with 1
EXIT_REPORT = (0, 2)
EXIT_USAGE = (1,)

EXTENDED_DIGITS = (30, 50, 70, 100)

_PRIMES = (2, 3, 5, 7, 11)  # Halton bases, one per parameter dimension
_SHIFT_STRATA = 128  # the seed's shift spans 1/128 of each parameter range


@dataclass(frozen=True)
class Request:
    index: int
    family: str
    argv: list[str]
    expect: tuple[int, ...]
    ref: dict = field(compare=False)


def _radical_inverse(j: int, base: int) -> float:
    inv, f = 0.0, 1.0 / base
    while j:
        j, digit = divmod(j, base)
        inv += digit * f
        f /= base
    return inv


class _Draw:
    """Quasi-random parameter draws for the ``j``-th request of a family."""

    def __init__(self, j: int, shifts: list[float], family_seed: int):
        self.j = j
        self.seed = random.Random(f"{family_seed}/{j}").getrandbits(63)
        self._q = [(_radical_inverse(j + 1, p) + s) % 1.0 for p, s in zip(_PRIMES, shifts)]

    def uniform(self, dim: int, lo: float, hi: float, places: int = 3) -> str:
        return f"{lo + (hi - lo) * self._q[dim]:.{places}f}"

    def integer(self, dim: int, lo: int, hi: int) -> int:
        return lo + int((hi - lo + 1) * self._q[dim])

    def pick(self, choices: tuple, offset: int):
        return choices[(self.j + offset) % len(choices)]


# -- models: CLI rate strings plus the reference record ----------------------


def _const(a: str, b: str) -> tuple[list[str], dict]:
    return ["--lambda", a, "--mu", b], {"family": "const", "a": a, "b": b}


def _exp_death(a: str, b: str) -> tuple[list[str], dict]:
    return ["--lambda", a, "--mu", f"{b}*n"], {"family": "exp_death", "a": a, "b": b}


def _linear(a: str, b: str) -> tuple[list[str], dict]:
    return ["--lambda", f"{a}*n", "--mu", f"{b}*n"], {"family": "linear", "a": a, "b": b}


def _algebraic() -> tuple[list[str], dict]:
    return ["--lambda", "2+0.5*n", "--mu", "n^1.5"], {"family": "algebraic"}


def _plus_k(k: int) -> tuple[list[str], dict]:
    return ["--lambda", "n", "--mu", f"n+{k}"], {"family": "plus_k", "k": k}


def _ratio_pair(d: _Draw, lo: float, hi: float, a_lo=0.5, a_hi=2.0) -> tuple[str, str]:
    """(a, b) with b/a close to a ratio drawn from [lo, hi]."""
    a = d.uniform(1, a_lo, a_hi)
    b = f"{float(a) * float(d.uniform(0, lo, hi, 4)):.4f}"
    return a, b


def _digits_args(digits: int | None) -> list[str]:
    return [] if digits is None else ["--digits", str(digits)]


def _series_request(cmd: str, model, imax: int, digits: int | None, extra=()):
    rates, ref = model
    argv = [cmd, *rates, "--imax", str(imax), *_digits_args(digits), *extra, "--format", "json"]
    return argv, {**ref, "check": cmd, "imax": imax, "digits": digits}


# -- series-machine -----------------------------------------------------------


def _sm_exp_death(d):
    a, b = d.uniform(1, 0.5, 3.0), d.uniform(2, 0.5, 2.0)
    return _series_request("time", _exp_death(a, b), d.integer(0, 200, 2000), None)


def _sm_near_critical(d):
    return _series_request("time", _const(*_ratio_pair(d, 1.05, 1.5)), d.integer(2, 20, 150), None)


def _sm_linear(d):
    b, a = _ratio_pair(d, 0.3, 0.8)  # a/b in [0.3, 0.8]
    return _series_request("time", _linear(a, b), d.integer(2, 50, 500), None)


def _sm_algebraic(d):
    return _series_request("time", _algebraic(), d.integer(0, 100, 1000), None)


def _sm_plus_k(d):
    return _series_request("time", _plus_k(d.pick((2, 3, 4), 0)), 1, None)


def _supercritical(d):
    """Constant or linear supercritical model, alternating."""
    b, a = _ratio_pair(d, 1.2, 3.0)
    return _const(a, b) if d.j % 2 == 0 else _linear(a, b)


def _sm_super_prob(d):
    return _series_request("prob", _supercritical(d), d.integer(2, 100, 2000), None)


def _invalid_argv(mu: str) -> list[str]:
    return ["time", "--lambda", "1", "--mu", mu, "--imax", "5", "--format", "json"]


def _sm_invalid(d):
    kind = ("syntax", "zero_rate")[d.j % 2]
    mu = {"syntax": f"{d.uniform(0, 0.5, 2.0)}*n+", "zero_rate": "n-1"}[kind]
    return _invalid_argv(mu), {"check": "invalid", "family": kind}


# -- series-extended ----------------------------------------------------------


def _digits(d, offset=0) -> int:
    return d.pick(EXTENDED_DIGITS, offset)


def _se_exp_death(d):
    a, b = d.uniform(1, 0.5, 3.0), d.uniform(2, 0.5, 2.0)
    return _series_request("time", _exp_death(a, b), d.integer(0, 100, 500), _digits(d))


def _se_near_critical(d):
    # the machine workload's 1.05 floor costs seconds per request at 100 digits
    return _series_request("time", _const(*_ratio_pair(d, 1.2, 1.5)), d.integer(2, 20, 60), _digits(d, 1))


def _se_linear(d):
    b, a = _ratio_pair(d, 0.3, 0.7)
    return _series_request("time", _linear(a, b), d.integer(2, 50, 200), _digits(d, 2))


def _se_algebraic(d):
    return _series_request("time", _algebraic(), d.integer(0, 100, 300), _digits(d, 3))


def _se_super_prob(d):
    return _series_request("prob", _supercritical(d), d.integer(2, 100, 500), _digits(d, 1))


def _se_compare_time(d):
    a, b = d.uniform(1, 0.5, 3.0), d.uniform(2, 0.5, 2.0)
    argv, ref = _series_request("compare", _exp_death(a, b), d.integer(0, 30, 120), _digits(d, 2),
                                ("--quantity", "time"))
    return argv, {**ref, "quantity": "time"}


def _se_compare_prob(d):
    argv, ref = _series_request("compare", _supercritical(d), d.integer(2, 100, 500), _digits(d, 3),
                                ("--quantity", "prob"))
    return argv, {**ref, "quantity": "prob"}


def _se_demo(d):
    a, b = d.uniform(1, 0.5, 3.0), d.uniform(2, 0.5, 2.0)
    rates, ref = _exp_death(a, b)
    imax = d.integer(0, 40, 100)
    digits = [_digits(d, k) for k in range(1 + d.j % 3)]
    argv = ["demo-instability", *rates, "--imax", str(imax)]
    for digit in digits:
        argv += ["--digits", str(digit)]
    argv += ["--format", "json"]
    return argv, {**ref, "check": "demo", "imax": imax, "precisions": [None, *digits]}


def _se_plus_k_budget(d):
    k = d.pick((2, 3, 4), 0)
    budget = str(d.integer(0, 5000, 20000))
    return _series_request("time", _plus_k(k), 1, 30, ("--max-terms", budget))


# -- montecarlo ----------------------------------------------------------------


def _simulate(d, model, start: int, cap: str):
    rates, ref = model
    runs = 100 * d.integer(3, 20, 200)
    argv = ["simulate", *rates, "--start", str(start), "--runs", str(runs),
            "--time-cap", cap, "--seed", str(d.seed), "--format", "json"]
    return argv, {**ref, "check": "simulate", "start": start, "runs": runs, "cap": cap}


def _mc_short(d):
    a, b = d.uniform(1, 0.5, 3.0), d.uniform(2, 0.5, 2.0)
    return _simulate(d, _exp_death(a, b), d.integer(0, 1, 5), "1000")


def _mc_long(d):
    return _simulate(d, _const(*_ratio_pair(d, 1.1, 2.0)), d.integer(2, 1, 3), "10000")


def _mc_linear(d):
    return _simulate(d, _linear(*_ratio_pair(d, 1.2, 3.0)), d.integer(2, 1, 5), "10000")


def _mc_censored(d):
    b, a = _ratio_pair(d, 1.2, 3.0)
    return _simulate(d, _const(a, b), d.integer(2, 1, 3), str(d.integer(4, 20, 50)))


# name -> (weight, request factory); weights are the approximate request shares in %
FAMILIES: dict[str, dict[str, tuple[int, Callable]]] = {
    "series-machine": {
        "exp_death": (35, _sm_exp_death),
        "near_critical": (20, _sm_near_critical),
        "linear": (15, _sm_linear),
        "algebraic": (10, _sm_algebraic),
        "plus_k": (3, _sm_plus_k),
        "super_prob": (15, _sm_super_prob),
        "invalid": (2, _sm_invalid),
    },
    "series-extended": {
        "exp_death": (20, _se_exp_death),
        "near_critical": (8, _se_near_critical),
        "linear": (7, _se_linear),
        "algebraic": (5, _se_algebraic),
        "super_prob": (8, _se_super_prob),
        "compare_time": (18, _se_compare_time),
        "compare_prob": (12, _se_compare_prob),
        "demo": (19, _se_demo),
        "plus_k_budget": (3, _se_plus_k_budget),
    },
    "montecarlo": {
        "short": (25, _mc_short),
        "long": (25, _mc_long),
        "linear": (25, _mc_linear),
        "censored": (25, _mc_censored),
    },
}

# one fixed request per workload: answered before timing starts, and the
# request whose answer ends the set-up measurement
WARMUP: dict[str, list[str]] = {
    "series-machine": ["time", "--lambda", "1", "--mu", "n", "--imax", "20", "--format", "json"],
    "series-extended": ["time", "--lambda", "1", "--mu", "n", "--imax", "20", "--digits", "70",
                        "--format", "json"],
    "montecarlo": ["simulate", "--lambda", "1", "--mu", "n", "--start", "3", "--runs", "500",
                   "--seed", "1", "--format", "json"],
}


# Requests that fail on the current code.  A workload's operations must
# not fail, so these stay out of the timed stream; a ``--trace 0`` run
# sends each once after the timed loop and reports how it ended.  The
# 2000-deep expression lets ``RecursionError`` escape ``cli.main``.
DEFECT_PROBES: dict[str, list[Request]] = {
    "series-machine": [
        Request(-2, "deep_parens", _invalid_argv("(" * 2000 + "n" + ")" * 2000), EXIT_USAGE,
                {"check": "invalid", "family": "deep_parens"}),
    ],
}


def stream(workload: str, seed: int) -> Iterator[Request]:
    """Endless deterministic request stream for ``workload`` and ``seed``."""
    families = FAMILIES[workload]
    rng = random.Random(f"{workload}/{seed}")
    total = sum(weight for weight, _ in families.values())
    heap = []
    for order, (name, (weight, build)) in enumerate(families.items()):
        draw_args = ([rng.random() / _SHIFT_STRATA for _ in _PRIMES], rng.getrandbits(63))
        period = total / weight
        heap.append((rng.random() * period, order, 0, name, period, draw_args, build))
    heapq.heapify(heap)
    index = 0
    while True:
        pos, order, j, name, period, draw_args, build = heapq.heappop(heap)
        argv, ref = build(_Draw(j, *draw_args))
        expect = EXIT_USAGE if ref["check"] == "invalid" else EXIT_REPORT
        yield Request(index, name, argv, expect, ref)
        index += 1
        heapq.heappush(heap, (pos + period, order, j + 1, name, period, draw_args, build))
