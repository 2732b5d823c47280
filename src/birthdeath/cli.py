"""Command-line front end.

Subcommands::

    prob              extinction probabilities (stable; --naive to compare)
    time              expected times to extinction (stable; --naive)
    compare           stable vs naive side by side with deviations
    simulate          Monte Carlo cross-check
    demo-instability  first breakdown index of the naive recursion per precision

Exit status: 0 on success, 2 when a series verdict was inconclusive,
1 on usage, expression, or model errors (details on standard error).
"""

from __future__ import annotations

import dataclasses
import sys

import click

from .arithmetic import EXTENDED, MACHINE, make_context
from .errors import ExprEvalError, InconclusiveSeriesError
from .extinction import extinction_probabilities, extinction_probabilities_naive
from .hitting_time import omega_naive, omega_stable
from .rates import expr_model
from .reports import INCONCLUSIVE, NAIVE_RECURSION, STABLE_SERIES, first_violation
from .series import SeriesPolicy
from .simulate import simulate as run_simulation
from . import __version__, output

_FORMATS = click.Choice(["table", "csv", "json"])


def _model_options(f):
    f = click.option("--mu", "mu_src", required=True, metavar="EXPR",
                     help="Death rate mu(n), an expression over n.")(f)
    f = click.option("--lambda", "lambda_src", required=True, metavar="EXPR",
                     help="Birth rate lambda(n), an expression over n.")(f)
    return f


def _series_options(f):
    f = click.option("--max-terms", type=int, default=None,
                     help="Series term budget (default 10^6).")(f)
    f = click.option("--tol", default=None, metavar="REAL",
                     help="Relative tail tolerance (default scales with precision).")(f)
    return f


def _format_option(f):
    return click.option("--format", "fmt", type=_FORMATS, default="table",
                        show_default=True, help="Output format.")(f)


def _request(digits: int | None, lambda_src: str, mu_src: str, tol: str | None,
             max_terms: int | None):
    """The context, model and series policy of one request.

    Built in that order, so a bad precision is reported before a bad
    expression, and a bad expression before a bad --tol or --max-terms.
    """
    ctx = make_context(EXTENDED, digits) if digits is not None else make_context(MACHINE)
    model = expr_model(lambda_src, mu_src, ctx)
    policy = SeriesPolicy.default(ctx)
    changes = {}
    if tol is not None:
        changes["rel_tol"] = ctx.real(tol)
    if max_terms is not None:
        changes["max_terms"] = max_terms
    return ctx, model, dataclasses.replace(policy, **changes) if changes else policy


def _emit(payload: dict, fmt: str):
    if fmt == "json":
        click.echo(output.to_json(payload))
    elif fmt == "csv":
        click.echo(output.payload_csv(payload), nl=False)
    else:
        click.echo(output.payload_table(payload))


@click.group()
@click.version_option(version=__version__, prog_name="birthdeath")
def cli():
    """Extinction probabilities and expected extinction times for
    birth-and-death processes.

    Rates are expressions over the state index n, e.g. --lambda "1"
    --mu "n".  Precision defaults to machine; pass --digits D for
    extended decimal precision.
    """


def _reports(quantity: str, model, imax: int, ctx, policy: SeriesPolicy, naive: bool):
    """The stable report for ``quantity`` and, if ``naive``, the naive one built from it.

    Engines are looked up as module globals on every call, so wrappers
    installed on this module see each engine call.
    """
    if quantity == "time":
        stable = omega_stable(model, imax, ctx, policy)
        return stable, omega_naive(model, stable, ctx) if naive else None
    stable = extinction_probabilities(model, imax, ctx, policy)
    return stable, extinction_probabilities_naive(model, stable, ctx) if naive else None


def _quantity_command(quantity: str, summary: str):
    """The ``prob`` or ``time`` command: one quantity, stable or naive."""

    @cli.command(quantity, help=summary)
    @_model_options
    @click.option("--imax", type=int, default=10, show_default=True,
                  help="Largest start state reported.")
    @click.option("--digits", type=int, default=None,
                  help="Extended precision digits (>= 15); default machine.")
    @_series_options
    @click.option("--naive", is_flag=True, help="Use the forward recursion instead.")
    @_format_option
    @click.pass_context
    def command(click_ctx, lambda_src, mu_src, imax, digits, tol, max_terms, naive, fmt):
        ctx, model, policy = _request(digits, lambda_src, mu_src, tol, max_terms)
        try:
            stable, naive_report = _reports(quantity, model, imax, ctx, policy, naive)
        except InconclusiveSeriesError as exc:
            method = NAIVE_RECURSION if naive else STABLE_SERIES
            _emit(output.inconclusive_payload(quantity, lambda_src, mu_src, ctx, exc.terms, method), fmt)
            click_ctx.exit(2)
        payload = output.hitting_payload if quantity == "time" else output.extinction_payload
        _emit(payload(naive_report if naive else stable, lambda_src, mu_src, ctx), fmt)

    return command


prob = _quantity_command("prob", "Extinction probabilities a[0..imax].")
time_cmd = _quantity_command("time", "Expected times to extinction omega[0..imax].")


@cli.command()
@_model_options
@click.option("--imax", type=int, default=10, show_default=True)
@click.option("--digits", type=int, default=None,
              help="Extended precision digits (>= 15); default machine.")
@click.option("--quantity", type=click.Choice(["time", "prob"]), default="time",
              show_default=True, help="Which quantity to compare.")
@_series_options
@_format_option
@click.pass_context
def compare(click_ctx, lambda_src, mu_src, imax, digits, quantity, tol, max_terms, fmt):
    """Stable and naive methods side by side, with per-index deviation."""
    ctx, model, policy = _request(digits, lambda_src, mu_src, tol, max_terms)
    try:
        stable, naive = _reports(quantity, model, imax, ctx, policy, naive=True)
    except InconclusiveSeriesError as exc:
        _emit(output.inconclusive_payload(quantity, lambda_src, mu_src, ctx, exc.terms, STABLE_SERIES), fmt)
        click_ctx.exit(2)
    _emit(output.compare_payload(quantity, stable, naive, lambda_src, mu_src, ctx), fmt)


@cli.command()
@_model_options
@click.option("--start", type=int, default=1, show_default=True,
              help="Start state (>= 1).")
@click.option("--runs", type=int, default=100_000, show_default=True)
@click.option("--time-cap", type=float, default=100.0, show_default=True,
              help="Censoring horizon per run.")
@click.option("--seed", type=int, default=0, show_default=True)
@_format_option
def simulate(lambda_src, mu_src, start, runs, time_cap, seed, fmt):
    """Monte Carlo estimate of extinction probability and mean time.

    Always runs at machine precision; results are deterministic for a
    given seed.
    """
    ctx = make_context(MACHINE)
    model = expr_model(lambda_src, mu_src, ctx)
    stats = run_simulation(model, start, runs, time_cap, seed)
    _emit(output.simulate_payload(stats, lambda_src, mu_src, ctx), fmt)


@cli.command("demo-instability")
@_model_options
@click.option("--imax", type=int, default=60, show_default=True)
@click.option("--digits", "digits_list", type=int, multiple=True,
              help="Extended precision to test; repeatable. Machine precision "
                   "is always included. Default: 70.")
@_series_options
@_format_option
@click.pass_context
def demo_instability(click_ctx, lambda_src, mu_src, imax, digits_list, tol, max_terms, fmt):
    """First breakdown index of the naive recursion, per precision.

    Runs the forward recursion against the stable series at machine
    precision plus each --digits value and reports where the recursion
    first turns nonsensical (negative, non-monotone, or off by more than
    100% relative).
    """
    precisions: list[int | None] = [None] + list(digits_list or (70,))
    entries = []
    inconclusive = False
    for digits in precisions:
        ctx, model, policy = _request(digits, lambda_src, mu_src, tol, max_terms)
        try:
            _, report = _reports("time", model, imax, ctx, policy, naive=True)
        except InconclusiveSeriesError:
            inconclusive = True
            classification, first = INCONCLUSIVE, None
        else:
            classification, first = report.classification, first_violation(report.violations)
        entries.append({
            "mode": ctx.mode,
            "digits": ctx.digits,
            "classification": classification,
            "first_violation_index": first.index if first else None,
            "first_violation_kind": first.kind if first else None,
        })
    _emit(output.demo_payload(lambda_src, mu_src, imax, entries), fmt)
    if inconclusive:
        click_ctx.exit(2)


def main(argv: list[str] | None = None) -> int:
    """Run the CLI; returns the exit status instead of raising SystemExit."""
    try:
        # click returns ctx.exit codes in this mode instead of raising
        rv = cli.main(args=argv, prog_name="birthdeath", standalone_mode=False)
        if isinstance(rv, int):
            return rv
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.ClickException as exc:
        exc.show()
        return 1
    # one-line errors: the package's own are ValueErrors but ExprEvalError;
    # InconclusiveSeriesError, also an ArithmeticError, must not land here,
    # since the commands answer it with a report
    except (ValueError, ExprEvalError, OverflowError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def entry() -> None:
    raise SystemExit(main())
