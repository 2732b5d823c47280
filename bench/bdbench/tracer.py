"""Spans around calls into each ``birthdeath`` module, from outside it.

The modules import each other's functions by name, so a wrapper must sit
at the name's lookup site: ``birthdeath.cli.omega_stable`` and
``birthdeath.hitting_time.omega_stable`` are patched separately, as are
the class attributes ``RateModel.birth`` / ``RateModel.death`` and the
``numpy.random`` constructors that ``birthdeath.simulate`` looks up on
every run.  A span's layer is the module that defines the function.

Each call opens a frame; closing it charges its duration to the parent
frame, so a layer's self time is its spans' durations minus the time
their child spans cover.  Coarse calls (one request, one engine, one
series) are kept as span records ``(id, name, start, end, parent, request,
self)`` in memory and written out at the end.  Hot leaf calls (rate
queries, expression evaluation, generator set-up: hundreds of thousands
per second) are only aggregated into their layer's count and time, since
a record each would swamp both the run and its memory.

Counts come from return values: series terms from ``Converged.terms``,
``Diverged.terms`` and ``InconclusiveSeriesError.terms``; runs from
``TrajectoryStats``; output bytes from the length of ``to_json``.
"""

from __future__ import annotations

import contextlib
import importlib
from collections import Counter
from time import perf_counter

from birthdeath.errors import InconclusiveSeriesError

# (module attribute path, attribute, span name, keep a span record)
_SITES = [
    ("birthdeath.cli", "omega_stable", "hitting_time.omega_stable", True),
    ("birthdeath.cli", "omega_naive", "hitting_time.omega_naive", True),
    ("birthdeath.hitting_time", "omega_stable", "hitting_time.omega_stable", True),
    ("birthdeath.hitting_time", "delta_series", "hitting_time.delta_series", True),
    ("birthdeath.cli", "extinction_probabilities", "extinction.extinction_probabilities", True),
    ("birthdeath.cli", "extinction_probabilities_naive", "extinction.extinction_probabilities_naive", True),
    ("birthdeath.hitting_time", "extinction_sum", "extinction.extinction_sum", True),
    ("birthdeath.extinction", "extinction_sum", "extinction.extinction_sum", True),
    ("birthdeath.hitting_time", "sum_positive_series", "series.sum_positive_series", True),
    ("birthdeath.extinction", "sum_positive_series", "series.sum_positive_series", True),
    ("birthdeath.cli", "run_simulation", "simulate.simulate", True),
    ("birthdeath.rate_expr", "parse", "rate_expr.parse", True),
    ("birthdeath.rate_expr", "eval_expr", "rate_expr.eval_expr", False),
    ("birthdeath.rates.RateModel", "birth", "rates.birth", False),
    ("birthdeath.rates.RateModel", "death", "rates.death", False),
    ("numpy.random", "Philox", "simulate.gen_setup", False),
    ("numpy.random", "Generator", "simulate.gen_setup", False),
] + [
    ("birthdeath.output", fn, f"output.{fn}", True)
    for fn in ("extinction_payload", "hitting_payload", "inconclusive_payload",
               "simulate_payload", "compare_payload", "demo_payload", "to_json")
]

def _resolve(path: str):
    """A module, or a class inside one, by dotted path."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, name = path.rpartition(".")
        return getattr(importlib.import_module(module), name)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        # open frames [start, child seconds, span id]; the first is a sentinel root
        self._stack: list[list] = [[0.0, 0.0, None]]
        self._next_id = 0
        self._request = -1
        self._totals: dict[str, list] = {}  # span name -> [calls, seconds, self seconds]
        self.counts: Counter = Counter()
        self._stable_keys: Counter = Counter()

    def _span(self, name: str, fn, on_result=None):
        """Wrap ``fn`` so that each call leaves a span record."""
        tracer, stack, spans = self, self._stack, self.spans
        totals = self._totals.setdefault(name, [0, 0.0, 0.0])

        def traced(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            frame = [perf_counter(), 0.0, span_id]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except InconclusiveSeriesError as exc:
                if name.startswith("series."):  # counted where it is raised, not on its way out
                    tracer.counts["series.terms"] += exc.terms
                    tracer.counts["series.inconclusive"] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - frame[0]
                own = duration - frame[1]
                stack[-1][1] += duration
                totals[0] += 1
                totals[1] += duration
                totals[2] += own
                parent = next((f[2] for f in reversed(stack) if f[2] is not None), None)
                spans.append((span_id, name, frame[0], end, parent, tracer._request, own))
            if on_result is not None:
                on_result(result, args)
            return result

        return traced

    def _leaf(self, name: str, fn):
        """Wrap a hot ``fn``: count and time its calls, keep no records."""
        stack = self._stack
        totals = self._totals.setdefault(name, [0, 0.0, 0.0])

        def traced(*args, **kwargs):
            frame = [perf_counter(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - frame[0]
                stack.pop()
                stack[-1][1] += duration
                totals[0] += 1
                totals[1] += duration
                totals[2] += duration - frame[1]

        return traced

    def request(self, index: int, fn, *args):
        """Run one request as the root ``cli.main`` span."""
        self._request = index
        return self._span("cli.main", fn)(*args)

    def _count_terms(self, result, args):
        self.counts["series.terms"] += result.terms

    def _count_runs(self, result, args):
        self.counts["simulate.runs"] += result.runs
        self.counts["simulate.censored"] += result.censored_runs

    def _count_bytes(self, result, args):
        self.counts["output.bytes"] += len(result.encode())

    def _count_stable_key(self, result, args):
        model, i_max, ctx = args[:3]
        self._stable_keys[(self._request, model.label, i_max, ctx.mode, ctx.digits)] += 1

    @contextlib.contextmanager
    def installed(self):
        """Patch every lookup site for the duration of the block."""
        saved = []
        try:
            for path, attr, name, record in _SITES:
                owner = _resolve(path)
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                on_result = {
                    "series.sum_positive_series": self._count_terms,
                    "simulate.simulate": self._count_runs,
                    "output.to_json": self._count_bytes,
                    "hitting_time.omega_stable": self._count_stable_key,
                }.get(name)
                wrapper = self._span(name, original, on_result) if record else self._leaf(name, original)
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def _sum(self, prefix: str, column: int) -> float:
        return sum(t[column] for name, t in self._totals.items() if name.startswith(prefix))

    def metrics(self) -> dict:
        def calls(name):
            return self._sum(name, 0)

        def own(prefix):
            return self._sum(prefix, 2)

        queries = calls("rates.")
        evals = calls("rate_expr.eval_expr")
        terms = self.counts["series.terms"]
        series_s = self._sum("series.", 1)
        sim_s = self._sum("simulate.simulate", 1)
        sim_self = own("simulate.")
        gen_setup = own("simulate.gen_setup")
        runs = self.counts["simulate.runs"]
        stable_calls = sum(self._stable_keys.values())
        return {
            "rate_expr.parse_s": own("rate_expr.parse"),
            "rate_expr.evals": evals,
            "rate_expr.eval_s": own("rate_expr.eval_expr"),
            "rates.queries": queries,
            "rates.memo_hit_ratio": 1 - evals / queries if queries else 0.0,
            "rates.self_s": own("rates."),
            "series.calls": calls("series."),
            "series.terms": terms,
            "series.self_s": own("series."),
            "series.terms_per_s": terms / series_s if series_s else 0.0,
            "series.inconclusive": self.counts["series.inconclusive"],
            "hitting_time.calls": calls("hitting_time.omega_"),
            "hitting_time.self_s": own("hitting_time."),
            "hitting_time.delta_series_calls": calls("hitting_time.delta_series"),
            "hitting_time.stable_repeat_ratio":
                stable_calls / len(self._stable_keys) if self._stable_keys else 0.0,
            "extinction.calls": calls("extinction."),
            "extinction.self_s": own("extinction."),
            "simulate.runs": runs,
            "simulate.self_s": sim_self,
            "simulate.runs_per_s": runs / sim_s if sim_s else 0.0,
            "simulate.gen_setup_s": gen_setup,
            "simulate.gen_setup_share": gen_setup / sim_self if sim_self else 0.0,
            "simulate.censored_frac": self.counts["simulate.censored"] / runs if runs else 0.0,
            "output.self_s": own("output."),
            "output.bytes": self.counts["output.bytes"],
            "cli.self_s": own("cli.main"),
            "cli.requests": calls("cli.main"),
        }

    def write_spans(self, path: str):
        with open(path, "w") as f:
            f.write("id,name,start,end,parent,request,self\n")
            for span in self.spans:
                f.write(",".join("" if x is None else str(x) for x in span) + "\n")
