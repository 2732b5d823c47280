"""One workload in one fresh process: a closed loop with a single client.

Sends the workload's request stream to ``birthdeath.cli.main(argv)``
in-process, one request after another, until the time budget is spent.
Each answer goes to the parent as one JSON line on the original standard
output, followed untimed by the answers to the workload's defect probes; the program's own output is captured in two reused, truncated
buffers (click keeps a wrapper alive per distinct stream object, so a
fresh buffer per request would leak).  Every request runs under a time
limit enforced by ``SIGALRM``.

With ``--trace 1`` the loop runs untraced for half the budget, then the
same requests again with the tracer installed; the ratio of the two loop
times is the tracing overhead.

Run from the checkout root with ``src`` and ``bench`` on ``PYTHONPATH``::

    python3 -m bdbench.worker --workload series-machine --seed 1 --seconds 20 --trace 0
"""

from __future__ import annotations

import argparse
import hashlib
import io
import itertools
import json
import os
import resource
import signal
import sys
import time

from . import streams

REQUEST_LIMIT_S = 20.0


class RequestTimeout(BaseException):
    """Raised by SIGALRM; a BaseException so the program cannot swallow it."""


def _on_alarm(signum, frame):
    raise RequestTimeout()


def answer_bytes(status: str, rc, out: str) -> bytes:
    """One answer as it enters the output digest."""
    return f"{status} {rc}\n{out}\0".encode()


class Client:
    """Runs requests through ``cli.main`` with captured output."""

    def __init__(self, main, sink):
        self._main = main
        self.sink = sink
        self._out = io.StringIO()
        self._err = io.StringIO()
        self._digest = hashlib.sha256()
        self.tracer = None

    def take_digest(self) -> str:
        """SHA-256 over the answers since the last call, in request order."""
        digest, self._digest = self._digest.hexdigest(), hashlib.sha256()
        return digest

    def run(self, req: streams.Request, emit: bool = True):
        out, err = self._out, self._err
        out.seek(0)
        out.truncate(0)
        err.seek(0)
        err.truncate(0)
        saved = sys.stdout, sys.stderr
        sys.stdout, sys.stderr = out, err
        rc, status = None, "ok"
        signal.setitimer(signal.ITIMER_REAL, REQUEST_LIMIT_S)
        t0 = time.perf_counter()
        try:
            if self.tracer is None:
                rc = self._main(req.argv)
            else:
                rc = self.tracer.request(req.index, self._main, req.argv)
        except RequestTimeout:
            status = "timeout"
        except (Exception, SystemExit) as exc:  # an escaped exception is a failed request
            status = f"exception:{type(exc).__name__}"
        finally:
            latency = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
            sys.stdout, sys.stderr = saved
        self._digest.update(answer_bytes(status, rc, out.getvalue()))
        if emit:
            self.sink.write(json.dumps({
                "index": req.index, "status": status, "rc": rc, "latency": latency,
                "out": out.getvalue(), "err": err.getvalue(),
            }) + "\n")


def _loop(client: Client, requests, seconds: float) -> tuple[int, float]:
    """Closed loop: next request only after the previous one answered."""
    count = 0
    t0 = time.perf_counter()
    for req in requests:
        client.run(req)
        count += 1
        if time.perf_counter() - t0 >= seconds:
            break
    return count, time.perf_counter() - t0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=streams.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spans", help="file the traced run writes its spans to")
    args = p.parse_args(argv)

    sink = os.fdopen(os.dup(sys.stdout.fileno()), "w", buffering=1 << 20)
    signal.signal(signal.SIGALRM, _on_alarm)
    from birthdeath import cli

    client = Client(cli.main, sink)
    warm = streams.Request(-1, "warmup", streams.WARMUP[args.workload], streams.EXIT_REPORT, {})
    client.run(warm, emit=False)
    client.take_digest()

    summary: dict = {}
    if args.trace:
        from . import kernels
        from .tracer import Tracer

        count, untraced = _loop(client, streams.stream(args.workload, args.seed), args.seconds / 2)
        summary["digest"] = client.take_digest()
        client.tracer = Tracer()
        # the same harness work as the untraced pass, with the answers discarded
        with open(os.devnull, "w") as client.sink, client.tracer.installed():
            _, traced = _loop(client, itertools.islice(streams.stream(args.workload, args.seed), count),
                              float("inf"))
        client.sink = sink
        summary["traced_digest"] = client.take_digest()
        summary["layers"] = {
            **client.tracer.metrics(), **kernels.op_ns(), "trace.overhead_frac": traced / untraced - 1,
        }
        if args.spans:
            client.tracer.write_spans(args.spans)
    else:
        _, summary["elapsed"] = _loop(client, streams.stream(args.workload, args.seed), args.seconds)
        for req in streams.DEFECT_PROBES.get(args.workload, ()):
            client.run(req)
    summary["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    sink.write(json.dumps({"summary": summary}) + "\n")
    sink.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
