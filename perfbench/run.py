"""The benchmark's entry point: one workload, one seed, one run.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 10 --trace 0

With ``--trace 0`` it measures set-up time over several fresh
``python -m ehrcollapse`` processes, runs the workload's commands in one fresh
interpreter (``child.py``), checks every output with ``checks.py`` and prints
the end-to-end metrics.  Timings are scaled to the reference host speed with
the probes of ``hostspeed.py``, so that the host's speed phases do not move
them.  With ``--trace 1`` the child wraps each module's
public functions and the run prints the per-layer metrics instead.  The last
line of stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  Results and traces are also written to ``perfbench/out/``.

Exit codes: 0 when every output is correct, 1 when a check fails or the
program under test cannot be run, 2 for a checkout without ``src/ehrcollapse``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import hostspeed  # noqa: E402
import items  # noqa: E402
import tracer  # noqa: E402

ROOT = HERE.parent
OUT = HERE / "out"
# setup_s is the median of this many fresh starts, half before and half after
# the timed phase, so that one slow phase of the host does not decide it.  One
# more start runs first, untimed, since it may compile bytecode.  Each start is
# scaled by the mean of the start probes just before and just after it.
SETUP_STARTS = 10
CHILD_TIMEOUT_S = 150
SETUP_TIMEOUT_S = 30


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def measure_setup(workload: str, env: dict, starts: int) -> list[float]:
    """Times of fresh ``python -m ehrcollapse`` processes running the warm-up
    command (interpreter start, imports, parser and one small item), each
    scaled to the reference host speed by the start probes on either side."""
    warmup = items.warmup_command(workload)
    argv = [sys.executable, "-m", "ehrcollapse", *warmup["argv"]]
    probes = [hostspeed.start_probe(env, ROOT)]
    walls = []
    for _ in range(starts):
        start = time.perf_counter()
        proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S)
        walls.append(time.perf_counter() - start)
        probes.append(hostspeed.start_probe(env, ROOT))
        if proc.returncode != 0:
            raise RuntimeError(f"set-up start failed: {proc.stderr.strip()[-500:]}")
        why = checks.check(warmup, proc.stdout)
        if why:
            raise RuntimeError(f"set-up start gave a wrong answer: {why}")
    return [wall * hostspeed.START_REF_S / ((before + after) / 2)
            for wall, before, after in zip(walls, probes, probes[1:])]


def run_child(args, env: dict, trace_file: Path | None) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if trace_file is not None:
        cmd += ["--trace-file", str(trace_file)]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"workload process failed: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout)


def score(workload: str, commands: list[dict], payload: dict):
    """Check every output; count items attempted and failed."""
    problems = []
    why = checks.check(items.warmup_command(workload), payload["warmup"]["text"])
    if payload["warmup"]["rc"] != 0 or why:
        problems.append(f"warm-up: {why or payload['warmup']['rc']}")
    attempted = failed = 0
    latencies: list[float] = []
    cache: dict = {}
    for command, result in zip(commands, payload["commands"]):
        n_items = command["info"].get("records", 1)
        attempted += n_items
        if result["rc"] != 0:
            failed += n_items
            print(f"failed: {' '.join(command['argv'])[:200]}: {result['rc']}", file=sys.stderr)
            continue
        why = checks.check(command, result["text"], cache)
        if why:
            problems.append(f"{' '.join(command['argv'])[:200]}: {why}")
        latencies.extend(result["scaled_ms"])
    if len(payload["commands"]) != len(commands):
        problems.append("the workload process ran a different number of commands")
    return not problems, attempted, failed, latencies, problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=items.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "ehrcollapse" / "cli.py").is_file():
        print(f"error: no src/ehrcollapse under {ROOT}; run from a checkout",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    trace_file = OUT / f"{stem}.trace.json" if args.trace else None
    env = child_env()
    commands = items.build(args.workload, args.seed, args.seconds)
    try:
        setup_runs = []
        if not args.trace:
            measure_setup(args.workload, env, 1)
            setup_runs += measure_setup(args.workload, env, SETUP_STARTS // 2)
        payload = run_child(args, env, trace_file)
        if not args.trace:
            setup_runs += measure_setup(args.workload, env, SETUP_STARTS - SETUP_STARTS // 2)
    except (RuntimeError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    correct, attempted, failed, latencies, problems = score(args.workload, commands, payload)
    for problem in problems:
        print(f"wrong: {problem}", file=sys.stderr)
    if len(latencies) < 2:
        print("error: fewer than two items completed", file=sys.stderr)
        return 1

    done = attempted - failed
    items_per_s = done / (sum(latencies) / 1e3)
    if args.trace:
        metrics = {name: {"value": payload["layers"][name], "unit": unit}
                   for name, unit in tracer.UNITS.items()}
    else:
        deciles = statistics.quantiles(latencies, n=10, method="inclusive")
        metrics = {
            "items_per_s": {"value": items_per_s, "unit": "1/s"},
            "item_ms_p50": {"value": statistics.median(latencies), "unit": "ms"},
            "item_ms_p90": {"value": deciles[-1], "unit": "ms"},
            "setup_s": {"value": statistics.median(setup_runs), "unit": "s"},
            "peak_rss_mb": {"value": payload["peak_rss_kb"] / 1024, "unit": "MB"},
        }
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    detail = {**result, "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "commands": len(commands), "items_per_s": items_per_s,
              "wall_s": payload["wall_s"], "setup_runs_s": setup_runs, "problems": problems,
              "probes_ms": payload["probes_ms"],
              "wall_ms": [r["wall_ms"] for r in payload["commands"]],
              "scaled_ms": [r["scaled_ms"] for r in payload["commands"]]}
    (OUT / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
