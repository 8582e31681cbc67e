"""The bkshapes benchmark: end-to-end and per-layer metrics of two workloads.

Usage (from the repository root):

    python3 bkbench/run.py --workload verify-p3f2|sweep-fields \\
        --seed N --seconds S --trace 0|1

A run spawns rounds of the workload one after another, each in a fresh
single-threaded interpreter, until S seconds have passed and at least
MIN_ROUNDS rounds are done.  It checks the program's output of every round
(closed forms, properties the method must have, byte-identical output
between rounds of one seed) and runs the layer oracles after the first
round's timed part.  With --trace 1 it adds one traced round and one
probe round and reports the per-layer metrics instead.

The last line of standard output is the JSON result named in
BENCHMARK.json; the lines before it give the configuration stamp and
every metric by name and unit.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [HERE, SRC]

import calib  # noqa: E402
import checks  # noqa: E402
import workloads  # noqa: E402
from spans import REQUIRED  # noqa: E402

MIN_ROUNDS = 3
ROUND_TIMEOUT_S = 150
REFUSED_ENV = ("BKSHAPES_NO_NUMBA", "BKSHAPES_PRECISION")


class RoundError(RuntimeError):
    pass


def child_env():
    env = dict(os.environ, PYTHONPATH=SRC)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "NUMBA_NUM_THREADS"):
        env[var] = "1"
    return env


def digest(rdir, records):
    """Hash of the program's output: printed text, exit codes, files written."""
    h = hashlib.sha256(json.dumps([[r["argv"], r["code"], r["out"]] for r in records]).encode())
    for name in sorted(os.listdir(rdir)):
        if name != "calls.json":
            h.update(name.encode())
            with open(os.path.join(rdir, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def spawn(workload, seed, mode, rdir, oracle=False):
    os.makedirs(rdir)
    argv = [sys.executable, os.path.join(HERE, "round.py"), "--workload", workload,
            "--seed", str(seed), "--mode", mode] + (["--oracle"] if oracle else [])
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=rdir, env=child_env(), capture_output=True, text=True,
                          timeout=ROUND_TIMEOUT_S)
    if proc.returncode != 0:
        raise RoundError(f"{mode} round exited {proc.returncode}: {proc.stderr[-2000:]}")
    res = json.loads(proc.stdout.splitlines()[-1])
    if mode == "probes":
        return res
    res["setup_s"] = res["t_first"] - t0
    with open(os.path.join(rdir, "calls.json")) as fh:
        res["records"] = json.load(fh)
    res["digest"] = digest(rdir, res["records"])
    return res


def output_problems(workload, seed, rnd, rdir):
    if workload == "verify-p3f2":
        return checks.check_verify(rnd["records"], workloads.VERIFY_P, workloads.VERIFY_F, seed)
    return checks.check_sweep(rnd["records"], rdir)


def program_s(span, windows):
    """Wall time of a span less the calibration windows inside it."""
    t0, t1 = span
    return t1 - t0 - sum(max(0.0, min(t1, b) - max(t0, a)) for a, b in windows)


def pieces(rnd):
    """A round's piece times: for each call, its pieces, then the rest of it."""
    spans, windows = rnd["spans"], rnd["windows"]
    out, first = [], 0
    for c in rnd["calls"]:
        parts = [program_s(spans[k], windows) for k in range(first, c)]
        out += parts + [program_s(spans[c], windows) - sum(parts)]
        first = c + 1
    return out


def speed(rnd):
    """REF_S over the round's mean reference-task time: a round's timings
    times this read as seconds on a host where the task takes REF_S."""
    return calib.REF_S / statistics.fmean(b - a for a, b in rnd["windows"])


def end_to_end(rounds):
    """Each piece of a round (a verify check, a sweep's header, rows or
    read-back, or the rest of a call) at reference speed, its median over
    the rounds, summed.  The median drops a piece that a short slow spell
    caught; the scaling takes out spells as long as a round or longer."""
    scaled = [[t * speed(r) for t in pieces(r)] for r in rounds]
    metrics = {
        "setup_s": statistics.median(r["setup_s"] * speed(r) for r in rounds),
        "round_s": sum(statistics.median(ts) for ts in zip(*scaled)),
        "peak_rss_mb": statistics.median(r["rss_kb"] * 1024 / 1e6 for r in rounds),
        "host.raw_setup_s": statistics.median(r["setup_s"] for r in rounds),
        "host.raw_round_s": statistics.median(sum(pieces(r)) for r in rounds),
        "host.task_s": statistics.median(b - a for r in rounds for a, b in r["windows"]),
    }
    notes = {"rounds": len(rounds),
             "round_walls": [round(sum(pieces(r)), 3) for r in rounds],
             "round_speeds": [round(speed(r), 3) for r in rounds]}
    return metrics, notes


def per_layer(trace, rounds, traced, probes):
    calls, self_s, work = trace["calls"], trace["self_s"], trace["work"]
    out = {}
    for name in sorted(calls):
        sep = "_" if "." in name else "."
        out[f"{name}{sep}s"] = self_s[name]
        out[f"{name}{sep}calls"] = calls[name]
        if name.startswith("verify."):
            out[f"{name}_wall_s"] = trace["wall_s"].get(name, 0.0)
    out["gf.builds"] = calls["gf.build"]
    out["gf.table_mb"] = work.get("gf.table_bytes", 0) / 1e6
    for key in ("kernels.convolve_products", "series.inverse_coeffs", "series.objects",
                "extensions.solver_builds", "extensions.solver_nodes", "io.bytes_written"):
        out[key] = work.get(key, 0)
    hits, misses = trace["profile_cache"]
    out["tametypes.profile_data_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    cand = work.get("randgen.candidates", 0)
    out["randgen.accept_ratio"] = work.get("randgen.accepted", 0) / cand if cand else 0.0
    out["trace.wall_s"] = sum(pieces(traced))
    out["trace.overhead_s"] = out["trace.wall_s"] - statistics.median(
        sum(pieces(r)) for r in rounds)
    out.update(probes)
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    refused = [v for v in REFUSED_ENV if v in os.environ]
    if refused:
        sys.exit(f"refusing to run with {', '.join(refused)} set: "
                 "every figure measures the default configuration")
    if not os.path.isdir(os.path.join(SRC, "bkshapes")):
        sys.exit(f"no bkshapes sources under {SRC}")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    compileall.compile_dir(SRC, quiet=1)

    from bkshapes import _kernels
    import numpy

    work = os.path.join(ROOT, ".bench_work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    problems, rounds = [], []
    t_begin = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - t_begin < args.seconds:
        rdir = os.path.join(work, f"round{len(rounds)}")
        rnd = spawn(args.workload, args.seed, "plain", rdir, oracle=not rounds)
        if not rounds:
            problems = output_problems(args.workload, args.seed, rnd, rdir)
            problems += rnd["oracle"]["failures"]
        elif rnd["digest"] != rounds[0]["digest"]:
            problems.append(f"round {len(rounds)} output differs from round 0 (same seed)")
        rounds.append(rnd)

    metrics, notes = end_to_end(rounds)
    all_rounds = len(rounds)
    if args.trace:
        traced = spawn(args.workload, args.seed, "traced", os.path.join(work, "traced"))
        probes = spawn(args.workload, args.seed, "probes", os.path.join(work, "probes"))
        all_rounds += 1
        if traced["digest"] != rounds[0]["digest"]:
            problems.append("traced round output differs from the untraced rounds")
        trace = traced["trace"]
        idle = [n for n in REQUIRED[args.workload] if trace["calls"][n] == 0]
        if idle:
            problems.append(f"traced boundaries with no calls on {args.workload}: {idle}")
        unchecked = sorted(map(tuple, trace["fields_built"])) != sorted(
            map(tuple, rounds[0]["oracle"]["fields"]))
        if unchecked:
            problems.append("the oracles did not check every field the round built")
        metrics.update(per_layer(trace, rounds, traced, probes))
        wanted = spec["per_layer"]
    else:
        wanted = spec["end_to_end"]

    stamp = {
        "workload": args.workload, "seed": args.seed, "python": sys.version.split()[0],
        "numpy": numpy.__version__, "kernels_backend": _kernels.BACKEND,
        "cpu_count": os.cpu_count(), "trace": args.trace, **notes,
    }
    print("stamp " + json.dumps(stamp))
    for name in sorted(metrics):
        print(f"metric {name} {metrics[name]!r}")
    for msg in problems[:20]:
        print(f"problem {msg}")
    if len(problems) > 20:
        print(f"problem ... and {len(problems) - 20} more")
    calls_per_round = len(rounds[0]["records"])
    print(json.dumps({
        "correct": not problems,
        "attempted": calls_per_round * all_rounds,
        "failed": 0,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
