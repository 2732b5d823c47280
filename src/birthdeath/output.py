"""Serialization of reports: JSON payloads, RFC-4180 CSV, and text tables.

Numbers are rendered as decimal strings carrying the full precision of
the active context (binary64 values use their shortest round-trip form),
so extended-precision results survive the pipe.  Infinity serializes as
the string ``"inf"``.  CSV and JSON render every number through the same
function, so their numeric payloads are identical.
"""

from __future__ import annotations

import csv
import io
import json
import math

from .arithmetic import Real, RealContext
from .reports import (
    INCONCLUSIVE,
    ExtinctionReport,
    HittingTimeReport,
    Violation,
    first_violation,
)
from .simulate import TrajectoryStats

__all__ = [
    "fmt",
    "fmt_float",
    "precision_payload",
    "extinction_payload",
    "hitting_payload",
    "inconclusive_payload",
    "simulate_payload",
    "compare_payload",
    "demo_payload",
    "to_json",
    "payload_csv",
    "payload_table",
]


def fmt(x: Real) -> str:
    return x.literal()


def fmt_float(x: float) -> str:
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if math.isnan(x):
        return "nan"
    return repr(x)


def precision_payload(ctx: RealContext) -> dict:
    return {"mode": ctx.mode, "digits": ctx.digits}


def _violations_payload(violations: list[Violation]) -> list:
    return [{"index": v.index, "kind": v.kind} for v in violations]


def _report_payload(
    lambda_src: str,
    mu_src: str,
    ctx: RealContext,
    method: str,
    classification: str,
    arrays: dict[str, list[Real]],
    violations: list[Violation],
    terms_used: int,
    series_sum: Real | None = None,
    low_confidence: bool = False,
) -> dict:
    """The report shell of ``prob`` and ``time``; its key order is part of the output."""
    payload = {
        "model": {"lambda": lambda_src, "mu": mu_src},
        "method": method,
        "classification": classification,
        "precision": precision_payload(ctx),
        **{key: [fmt(x) for x in values] for key, values in arrays.items()},
        "violations": _violations_payload(violations),
        "terms_used": terms_used,
    }
    if series_sum is not None:
        payload["series_sum"] = fmt(series_sum)
    if low_confidence:
        payload["low_confidence"] = True
    return payload


def extinction_payload(
    report: ExtinctionReport, lambda_src: str, mu_src: str, ctx: RealContext
) -> dict:
    return _report_payload(
        lambda_src, mu_src, ctx, report.method, report.classification,
        {"a": report.a, "d": report.d}, report.violations, report.terms_used,
        report.series_sum, report.low_confidence,
    )


def hitting_payload(
    report: HittingTimeReport, lambda_src: str, mu_src: str, ctx: RealContext
) -> dict:
    return _report_payload(
        lambda_src, mu_src, ctx, report.method, report.classification,
        {"delta": report.delta, "omega": report.omega}, report.violations,
        report.terms_used, low_confidence=report.low_confidence,
    )


def inconclusive_payload(
    kind: str, lambda_src: str, mu_src: str, ctx: RealContext, terms: int, method: str
) -> dict:
    """Report shell for runs the series machinery refused to decide."""
    arrays = {"a": [], "d": []} if kind == "prob" else {"delta": [], "omega": []}
    return _report_payload(lambda_src, mu_src, ctx, method, INCONCLUSIVE, arrays, [], terms)


def simulate_payload(stats: TrajectoryStats, lambda_src: str, mu_src: str) -> dict:
    return {
        "model": {"lambda": lambda_src, "mu": mu_src},
        "precision": {"mode": "machine", "digits": None},
        "start_state": stats.start_state,
        "runs": stats.runs,
        "extinct_runs": stats.extinct_runs,
        "censored_runs": stats.censored_runs,
        "seed": stats.seed,
        "time_cap": fmt_float(stats.time_cap),
        "extinction_probability_estimate": fmt_float(stats.extinction_probability_estimate),
        "mean_time_estimate": fmt_float(stats.mean_time_estimate),
        "std_error_time": fmt_float(stats.std_error_time),
        "std_error_prob": fmt_float(stats.std_error_prob),
    }


def _relative_deviation(stable: Real, naive: Real, ctx: RealContext) -> str:
    if stable.is_infinite() or naive.is_infinite():
        same = stable.is_infinite() and naive.is_infinite()
        return fmt(ctx.zero()) if same else "inf"
    diff = abs(naive - stable)
    if stable.is_zero():
        return fmt(ctx.zero()) if diff.is_zero() else "inf"
    return fmt(diff / abs(stable))


def compare_payload(
    quantity: str,
    stable_values: list[Real],
    naive_values: list[Real],
    naive_violations: list[Violation],
    classification: str,
    lambda_src: str,
    mu_src: str,
    ctx: RealContext,
) -> dict:
    deviations = [
        _relative_deviation(s, n, ctx)
        for s, n in zip(stable_values, naive_values)
    ]
    first = first_violation(naive_violations)
    key = "omega" if quantity == "time" else "a"
    return {
        "model": {"lambda": lambda_src, "mu": mu_src},
        "quantity": quantity,
        "classification": classification,
        "precision": precision_payload(ctx),
        "stable": {"method": "StableSeries", key: [fmt(x) for x in stable_values]},
        "naive": {
            "method": "NaiveRecursion",
            key: [fmt(x) for x in naive_values],
            "violations": _violations_payload(naive_violations),
        },
        "relative_deviation": deviations,
        "first_breakdown_index": first.index if first else None,
    }


def demo_payload(lambda_src: str, mu_src: str, i_max: int, entries: list[dict]) -> dict:
    return {
        "model": {"lambda": lambda_src, "mu": mu_src},
        "imax": i_max,
        "precisions": entries,
    }


def to_json(payload: dict) -> str:
    return json.dumps(payload, indent=2)


# -- CSV ---------------------------------------------------------------------


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def payload_csv(payload: dict) -> str:
    """Per-index numeric table for any payload kind, RFC-4180."""
    if "a" in payload and "stable" not in payload:
        a, d = payload["a"], payload["d"]
        rows = [[i, a[i], d[i - 1] if i >= 1 else ""] for i in range(len(a))]
        return _csv_text(["index", "a", "d"], rows)
    if "omega" in payload:
        omega, delta = payload["omega"], payload["delta"]
        rows = [[i, omega[i], delta[i] if i < len(delta) else ""] for i in range(len(omega))]
        return _csv_text(["index", "omega", "delta"], rows)
    if "stable" in payload:
        key = "omega" if payload["quantity"] == "time" else "a"
        stable, naive = payload["stable"][key], payload["naive"][key]
        dev = payload["relative_deviation"]
        # the naive recursion stops at an overflow, so its column can be short
        rows = [
            [i, stable[i], naive[i] if i < len(naive) else "", dev[i] if i < len(dev) else ""]
            for i in range(len(stable))
        ]
        return _csv_text(["index", f"stable_{key}", f"naive_{key}", "relative_deviation"], rows)
    if "precisions" in payload:
        rows = [
            [e["mode"], e["digits"] if e["digits"] is not None else "",
             e["first_violation_index"] if e["first_violation_index"] is not None else "",
             e["first_violation_kind"] or ""]
            for e in payload["precisions"]
        ]
        return _csv_text(
            ["mode", "digits", "first_violation_index", "first_violation_kind"], rows
        )
    if "runs" in payload:
        fields = [
            "start_state", "runs", "extinct_runs", "censored_runs", "seed",
            "time_cap", "extinction_probability_estimate", "mean_time_estimate",
            "std_error_time", "std_error_prob",
        ]
        return _csv_text(fields, [[payload[f] for f in fields]])
    raise ValueError("unrecognized payload shape")


# -- tables ------------------------------------------------------------------


def _meta_lines(payload: dict) -> list[str]:
    lines = [f"model: lambda = {payload['model']['lambda']}   mu = {payload['model']['mu']}"]
    prec = payload.get("precision")
    if prec:
        shown = "machine" if prec["digits"] is None else f"extended, {prec['digits']} digits"
        lines.append(f"precision: {shown}")
    if "method" in payload:
        lines.append(f"method: {payload['method']}")
    if "classification" in payload:
        lines.append(f"classification: {payload['classification']}")
    if "series_sum" in payload:
        lines.append(f"series_sum: {payload['series_sum']}")
    if "terms_used" in payload:
        lines.append(f"terms_used: {payload['terms_used']}")
    if payload.get("low_confidence"):
        lines.append("low_confidence: true")
    return lines


def _columns(header: list[str], rows: list[list]) -> list[str]:
    cells = [header] + [[str(c) for c in row] for row in rows]
    widths = [max(len(row[j]) for row in cells) for j in range(len(header))]
    return ["  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() for row in cells]


def payload_table(payload: dict) -> str:
    lines = _meta_lines(payload)
    if "violations" in payload and payload["violations"]:
        shown = ", ".join(f"{v['index']}:{v['kind']}" for v in payload["violations"])
        lines.append(f"violations: {shown}")
    if "first_breakdown_index" in payload:
        lines.append(f"first_breakdown_index: {payload['first_breakdown_index']}")
        naive_v = payload["naive"]["violations"]
        if naive_v:
            shown = ", ".join(f"{v['index']}:{v['kind']}" for v in naive_v)
            lines.append(f"naive violations: {shown}")
    lines.append("")
    csv_text = payload_csv(payload)
    reader = csv.reader(io.StringIO(csv_text))
    parsed = list(reader)
    lines.extend(_columns(parsed[0], parsed[1:]))
    return "\n".join(lines)
