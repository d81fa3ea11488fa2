"""Runs one workload's commands in process through ``ehrcollapse.cli.main``.

``run.py`` starts this script in a fresh interpreter with ``PYTHONPATH``
pointing at the checkout's ``src``.  It runs the warm-up command, then times
every command of the run, capturing what the CLI writes to stdout, and prints
one JSON document: the outputs, per-item wall times and the same scaled to the
reference host speed (``hostspeed.py``), the host-speed probes, the wall time
of the timed phase and the process's peak RSS.  With ``--trace-file`` it first
wraps the program's public functions (``tracer.py``) and writes the spans
there.

Usage: python3 perfbench/child.py --workload W --seed N --seconds S [--trace-file F]
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import time

import items
from hostspeed import HostSpeed


class Sink:
    """Stands in for stdout: keeps the text and times the items.  When each
    record is an item, it probes host speed between records, outside the
    timed intervals."""

    def __init__(self, speed: HostSpeed, per_record: bool):
        self.parts: list[str] = []
        self.speed = speed
        self.per_record = per_record
        self.wall_ms: list[float] = []
        self.scaled_ms: list[float] = []
        self.resume = time.perf_counter()

    def write(self, text: str) -> int:
        self.parts.append(text)
        if self.per_record:
            for _ in range(text.count("\n")):
                self.item_done()
        return len(text)

    def flush(self) -> None:
        pass

    def item_done(self) -> None:
        ms = (time.perf_counter() - self.resume) * 1e3
        self.wall_ms.append(ms)
        self.scaled_ms.append(ms * self.speed.factor())
        self.speed.maybe_probe()
        self.resume = time.perf_counter()


def run_command(main, argv: list[str], speed: HostSpeed) -> dict:
    """One CLI invocation.  A search yields one item per record, timed when
    the record is written; any other command is one item.  Each item's wall
    time is also given scaled to the reference host speed (``hostspeed.py``)."""
    sink = Sink(speed, per_record=argv[0] == "search")
    try:
        with contextlib.redirect_stdout(sink):
            rc = main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a crash fails this command, not the run
        rc = f"{type(exc).__name__}: {exc}"
    if not sink.per_record:
        sink.item_done()
    return {"rc": rc, "text": "".join(sink.parts), "wall_ms": sink.wall_ms,
            "scaled_ms": sink.scaled_ms}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=items.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace-file")
    args = ap.parse_args()

    commands = items.build(args.workload, args.seed, args.seconds)
    from ehrcollapse import cli

    speed = HostSpeed()
    warmup = run_command(cli.main, items.warmup_command(args.workload)["argv"], speed)
    tracer = None
    if args.trace_file:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    results = []
    start = time.perf_counter()
    for command in commands:
        results.append(run_command(cli.main, command["argv"], speed))
    wall = time.perf_counter() - start
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    layers = None
    if tracer is not None:
        layers = tracer.metrics()
        with open(args.trace_file, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "metrics": layers, **tracer.dump()}, fh)
    json.dump({"warmup": warmup, "commands": results, "wall_s": wall,
               "probes_ms": speed.samples, "peak_rss_kb": peak_kb, "layers": layers},
              sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
