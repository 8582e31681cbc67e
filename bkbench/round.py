"""One round of a workload in a fresh interpreter (run by run.py).

Usage: python3 round.py --workload W --seed N --mode plain|traced|probes [--oracle]

The working directory is the round's own directory; every file the
program writes lands there.  The last line of standard output is a JSON
object with the timings; the program's own output goes to calls.json.
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import signal
import sys
import time

import calib
import workloads


def time_pieces(workload, spans):
    """Time the finest pieces a round splits into: each verify check; a
    sweep's header (its field-table builds), its rows and its read-back.
    What a call does outside these is one more piece, the rest."""

    def timed(fn):
        def piece(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spans.append((t0, time.perf_counter()))

        return piece

    if workload == "verify-p3f2":
        from bkshapes import verify

        verify.CHECKS[:] = [(name, timed(fn)) for name, fn in verify.CHECKS]
    else:
        from bkshapes import cli, io as bio

        for mod, name in ((bio, "sweep_header"), (bio, "sweep_rows"), (cli, "read_sweep")):
            setattr(mod, name, timed(getattr(mod, name)))


class Sampler:
    """Samples the host's speed while a round runs: every INTERVAL_S seconds
    of wall time a SIGALRM handler runs the calib.py reference task once.
    The handler's windows are recorded so run.py can take them out of
    every timing; a sample is a window's length."""

    INTERVAL_S = 0.2

    def __init__(self):
        self.windows = []

    def _sample(self):
        t0 = time.perf_counter()
        calib.task()
        self.windows.append((t0, time.perf_counter()))

    def _tick(self, *_):
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S)

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._sample()


def run_calls(cli, stream, spans):
    """Run the calls, recording each call's span after the spans of its
    pieces (time_pieces), so a call's pieces are the spans before it."""
    records = []
    for argv in stream:
        buf = io.StringIO()
        t0 = time.perf_counter()
        code = cli.main(argv, out=buf)
        spans.append((t0, time.perf_counter()))
        records.append({"argv": argv, "code": code, "out": buf.getvalue(),
                        "span": len(spans) - 1})
    return records


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=["plain", "traced", "probes"])
    ap.add_argument("--oracle", action="store_true")
    args = ap.parse_args()

    if args.mode == "probes":
        import probes

        print(json.dumps(probes.run()))
        return

    tracer = None
    if args.mode == "traced":
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    import bkshapes.cli as cli

    t_first = time.perf_counter()
    spans = []
    sampler = None
    if tracer is None:
        time_pieces(args.workload, spans)
        sampler = Sampler()
        sampler.start()
    records = run_calls(cli, workloads.calls(args.workload, args.seed), spans)
    if sampler is not None:
        sampler.stop()
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    with open("calls.json", "w") as fh:
        json.dump([{k: r[k] for k in ("argv", "code", "out")} for r in records], fh)
    result = {
        "t_first": t_first,
        "spans": spans,
        "calls": [r["span"] for r in records],
        "rss_kb": rss_kb,
        "windows": sampler.windows if sampler is not None else [],
    }
    if tracer is not None:
        result["trace"] = tracer.report()
    if args.oracle:
        import oracles

        result["oracle"] = oracles.run(args.seed)
    print(json.dumps(result))


if __name__ == "__main__":
    sys.exit(main())
