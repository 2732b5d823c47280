"""Independent reference answers and the checker that grades each answer.

Nothing here imports ``birthdeath``: references come from closed forms or
from direct summation in raw ``decimal`` arithmetic at well above the
working precision, stopped by a true tail bound (the sup of the
remaining term ratios) rather than by the size of the last term.

Allowed error at index ``i`` is the program's default ``rel_tol`` plus
``i * u``, with ``u`` the working context's unit roundoff.  ``omega_i``
and ``delta_i`` are graded by relative error, ``a_i`` by absolute error.
An answer outside that allowance is *inaccurate*.  An answer off by more
than :data:`GROSS` (relative for times, absolute for probabilities), or
with the wrong classification, is *gross*; gross answers make a run
incorrect, inaccurate ones only count toward the inaccurate share.
"""

from __future__ import annotations

import decimal
import json
import math
from dataclasses import dataclass, field
from decimal import Decimal

GROSS = Decimal("1e-6")
OMEGA_PREFIX = 40  # omega is checked at every index up to this one
CENSOR_LIMIT = 0.001  # simulate: mean time is checked below this censored share
STRICT_SE = 5
GROSS_SE = 10
MAX_FINDINGS = 3


@dataclass
class Verdict:
    """How one answer compares with the reference."""

    failed: bool = False  # no classified report and no one-line error
    inconclusive: bool = False
    inaccurate: bool = False
    gross: bool = False
    findings: list[str] = field(default_factory=list)
    breakdown: list = field(default_factory=list)  # naive breakdown indexes seen

    def note(self, text: str):
        if len(self.findings) < MAX_FINDINGS:
            self.findings.append(text)

    def fail(self, text: str):
        self.failed = True
        self.note(text)


@dataclass(frozen=True)
class Precision:
    """Working-precision constants of the program, and the reference's own."""

    digits: int | None

    @property
    def rel_tol(self) -> Decimal:
        return Decimal("1e-14") if self.digits is None else Decimal(10) ** -(self.digits - 2)

    @property
    def unit_roundoff(self) -> Decimal:
        return Decimal(2) ** -53 if self.digits is None else Decimal(5) * Decimal(10) ** -self.digits

    @property
    def reference_digits(self) -> int:
        return 40 if self.digits is None else self.digits + 15

    def allowed(self, i: int) -> Decimal:
        return self.rel_tol + i * self.unit_roundoff

    def literal(self, text: str) -> Decimal:
        """A rate literal as the program widens it at this precision."""
        return Decimal(float(text)) if self.digits is None else Decimal(text)


class Model:
    """Exact rates of one request's model, as Decimal functions of n."""

    def __init__(self, ref: dict, prec: Precision):
        self.family = ref["family"]
        if self.family in ("const", "exp_death", "linear"):
            self.a = prec.literal(ref["a"])
            self.b = prec.literal(ref["b"])
        if self.family == "plus_k":
            self.k = int(ref["k"])

    def lam(self, n: int) -> Decimal:
        f = self.family
        if f in ("const", "exp_death"):
            return self.a
        if f == "linear":
            return self.a * n
        if f == "algebraic":
            return 2 + Decimal(n) / 2
        return Decimal(n)  # plus_k

    def mu(self, n: int) -> Decimal:
        f = self.family
        if f == "const":
            return self.b
        if f in ("exp_death", "linear"):
            return self.b * n
        if f == "algebraic":
            return Decimal(n) * Decimal(n).sqrt()
        return Decimal(n + self.k)  # plus_k

    def ratio_sup(self, n: int) -> Decimal:
        """Bound on every later term ratio lam(m)/mu(m+1), m >= n."""
        if self.family in ("const", "linear"):
            return self.a / self.b  # constant, or increasing to a/b
        if self.family in ("exp_death", "algebraic"):
            return self.lam(n) / self.mu(n + 1)  # decreasing in n
        return Decimal(1)  # plus_k: algebraic decay, no geometric bound

    @property
    def extinction_certain(self) -> bool:
        if self.family in ("const", "linear"):
            return self.a < self.b
        return True

    def delta(self, i: int, digits: int) -> Decimal:
        """Expected passage time from i+1 to i, to ``digits`` digits."""
        f = self.family
        if f == "const":
            return 1 / (self.b - self.a)
        if i == 0 and f == "exp_death":
            return ((self.a / self.b).exp() - 1) / self.a
        if i == 0 and f == "linear":
            return -(1 - self.a / self.b).ln() / self.a
        if f == "plus_k":
            if i != 0:
                raise ValueError("plus_k reference covers delta_0 only")
            return Decimal(1) / self.k
        return self._delta_series(i, digits)

    def _delta_series(self, i: int, digits: int) -> Decimal:
        eps = Decimal(10) ** -digits
        term = 1 / self.mu(i + 1)
        total = term
        n = i + 1
        while True:
            term = term * self.lam(n) / self.mu(n + 1)
            total += term
            n += 1
            sup = self.ratio_sup(n)
            if sup < 1 and term * sup / (1 - sup) <= eps * total:
                return total
            if n - i > 10 ** 6:
                raise ArithmeticError(f"reference series for delta_{i} did not settle")

    def omega(self, i: int, digits: int) -> Decimal:
        if self.family == "const":
            return i / (self.b - self.a)
        return sum((self.delta(k, digits) for k in range(i)), Decimal(0))

    def extinction(self, i: int) -> Decimal:
        """a_i; closed form for the supercritical constant and linear models."""
        if self.extinction_certain:
            return Decimal(1)
        return (self.b / self.a) ** i


def _context(digits: int) -> decimal.Context:
    return decimal.Context(prec=digits + 5, Emin=-10 ** 6, Emax=10 ** 6)


def _number(text: str) -> Decimal:
    return Decimal("Infinity") if text == "inf" else Decimal(text)


def _grade(v: Verdict, name: str, i: int, text: str, want: Decimal, tol: Decimal, relative: bool):
    got = _number(text)
    if not got.is_finite():
        v.inaccurate = v.gross = True
        v.note(f"{name}[{i}] = {text}, reference {want:.{len(text)}g}")
        return
    err = abs(got - want)
    if relative:
        err /= abs(want)
    if err > tol:
        v.inaccurate = True
        v.note(f"{name}[{i}] = {text}, reference {want:.{len(text)}g}, error {err:.2e} > {tol:.2e}")
    if err > GROSS:
        v.gross = True


def _classification(v: Verdict, got: str, want: str) -> bool:
    if got == want:
        return True
    v.inaccurate = v.gross = True
    v.note(f"classification {got}, reference {want}")
    return False


def _sampled(imax: int) -> list[int]:
    return sorted({i for i in (0, 1, imax // 4, imax // 2, 3 * imax // 4, imax - 1) if 0 <= i < imax})


def _check_times(v: Verdict, model: Model, prec: Precision, delta: list | None, omega: list, imax: int):
    digits = prec.reference_digits
    if delta is not None:
        for i in _sampled(imax):
            _grade(v, "delta", i, delta[i], model.delta(i, digits), prec.allowed(i), True)
    top = imax if model.family in ("const", "plus_k") else min(imax, OMEGA_PREFIX)
    running = Decimal(0)
    for i in range(1, top + 1):
        running = model.omega(i, digits) if model.family == "const" else running + model.delta(i - 1, digits)
        _grade(v, "omega", i, omega[i], running, prec.allowed(i), True)


def _check_probabilities(v: Verdict, model: Model, prec: Precision, a: list, imax: int):
    for i in range(imax + 1):
        _grade(v, "a", i, a[i], model.extinction(i), prec.allowed(i), False)


def _check_series(v: Verdict, ref: dict, payload: dict):
    prec = Precision(ref["digits"])
    model = Model(ref, prec)
    imax = ref["imax"]
    kind = ref["check"] if ref["check"] != "compare" else ref["quantity"]
    if kind == "time":
        want = "Finite" if model.extinction_certain else "NotCertainExtinction"
    else:
        want = "Certain" if model.extinction_certain else "Uncertain"
    if not _classification(v, payload["classification"], want) or want == "NotCertainExtinction":
        return
    if ref["check"] == "compare":
        v.breakdown.append(payload["first_breakdown_index"])
        stable = payload["stable"]
        if kind == "time":
            _check_times(v, model, prec, None, stable["omega"], imax)
        else:
            _check_probabilities(v, model, prec, stable["a"], imax)
    elif kind == "time":
        _check_times(v, model, prec, payload["delta"], payload["omega"], imax)
    else:
        _check_probabilities(v, model, prec, payload["a"], imax)


def _check_demo(v: Verdict, ref: dict, payload: dict):
    entries = payload["precisions"]
    if [e["digits"] for e in entries] != ref["precisions"]:
        v.fail("demo-instability precision list differs from the request")
        return
    for entry in entries:
        if entry["classification"] == "Inconclusive":
            v.inconclusive = True
            continue
        _classification(v, entry["classification"], "Finite")
        v.breakdown.append(entry["first_violation_index"])


def _check_simulate(v: Verdict, ref: dict, payload: dict):
    runs = payload["runs"]
    if runs != ref["runs"] or payload["extinct_runs"] + payload["censored_runs"] != runs:
        v.inaccurate = v.gross = True
        v.note(f"run counts {payload['extinct_runs']}+{payload['censored_runs']} != {ref['runs']}")
        return
    model = Model(ref, Precision(None))
    start = ref["start"]
    if not model.extinction_certain:
        # a finite time cap can only lower the extinct share: one-sided test
        a_s = float(model.extinction(start))
        p_hat = float(payload["extinction_probability_estimate"])
        se = math.sqrt(a_s * (1 - a_s) / runs)
        if p_hat > a_s + STRICT_SE * se:
            v.inaccurate = True
            v.note(f"extinct share {p_hat:.5f} above a_{start} = {a_s:.5f} + {STRICT_SE} SE")
        if p_hat > a_s + GROSS_SE * se:
            v.gross = True
        return
    if payload["censored_runs"] >= CENSOR_LIMIT * runs:
        v.note(f"mean time unchecked: {payload['censored_runs']} of {runs} runs censored")
        return
    want = float(model.omega(start, 30))
    mean = float(payload["mean_time_estimate"])
    se = float(payload["std_error_time"])
    if not (abs(mean - want) <= STRICT_SE * se):
        v.inaccurate = True
        v.note(f"mean time {mean:.6g} vs omega_{start} = {want:.6g}, SE {se:.3g}")
    if not (abs(mean - want) <= GROSS_SE * se):
        v.gross = True


def check(ref: dict, expect: tuple, status: str, rc: int | None, out: str, err: str) -> Verdict:
    """Grade one answer: ``status`` is ``ok``, ``timeout`` or ``exception:<type>``."""
    v = Verdict()
    if status != "ok":
        v.fail(status)
        return v
    if rc not in expect:
        v.fail(f"exit status {rc}, expected one of {list(expect)}: {err.strip()[:120]}")
        return v
    if ref["check"] == "invalid":
        if out or len(err.strip().splitlines()) != 1:
            v.fail("invalid input did not end with a one-line error")
        return v
    try:
        payload = json.loads(out)
    except ValueError:
        v.fail("answer is not JSON")
        return v
    if ref["check"] == "demo":
        _check_demo(v, ref, payload)
    elif payload.get("classification") == "Inconclusive":
        v.inconclusive = True
    elif ref["check"] == "simulate":
        with decimal.localcontext(_context(40)):
            _check_simulate(v, ref, payload)
    else:
        with decimal.localcontext(_context(Precision(ref["digits"]).reference_digits)):
            _check_series(v, ref, payload)
    if rc == 2 and not v.inconclusive:
        v.fail("exit status 2 without an Inconclusive verdict")
    return v
