"""ncmimo benchmark: one workload per invocation, each in a fresh interpreter.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ./src.  The
metric lists and units come from ./BENCHMARK.json.

--trace 0 measures the end-to-end metrics: set-up time (fresh
interpreters that import ncmimo.cli and build the parser, the summed
fastest import of each module), the workload process's peak RSS, and
`round_s`, the summed fastest repetition of each of the workload's
operations at unit size (see perfbench/README.md).  --trace 1 runs one
untraced and one traced full pass and reports the per-layer metrics,
plus the set-up breakdown from `python -X importtime`.

Every run writes perfbench/results/<workload>-seed<N>-trace<T>.json with
the environment fingerprint, all metrics, the per-pass numbers and every
correctness check; the last stdout line is the JSON summary.  A failing
check prints `"correct": false` with no metrics and exits 1.  A run that
cannot execute the workload (for example, no ./src/ncmimo) prints no
result and exits 2.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOAD_NAMES = ("suite-sampling", "cli-export", "density-mi")
RUN_LIMIT_S = 170.0


class BenchError(RuntimeError):
    """The workload could not be run; no result is printed."""


def _child_env(root: str, nproc: int) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # one process, at most nproc BLAS threads
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = str(nproc)
    return env


def _run(cmd: list[str], env: dict, deadline: float, cwd: str) -> subprocess.CompletedProcess:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time limit reached before " + " ".join(cmd[:3]))
    try:
        proc = subprocess.run(cmd, env=env, cwd=cwd, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"timed out: {' '.join(cmd[:4])}") from exc
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd[:4])} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return proc


def _git(root: str) -> dict:
    def git(*args):
        return subprocess.run(["git", "-C", root, *args], capture_output=True, text=True,
                              timeout=30)
    try:
        top = git("rev-parse", "--show-toplevel")
        if top.returncode != 0 or os.path.realpath(top.stdout.strip()) != os.path.realpath(root):
            return {"commit": None, "dirty": None}
        head = git("rev-parse", "HEAD").stdout.strip() or None
        dirty = bool(git("status", "--porcelain", "--untracked-files=no").stdout.strip())
        return {"commit": head, "dirty": dirty}
    except (OSError, subprocess.TimeoutExpired):
        return {"commit": None, "dirty": None}


def _src_sha256(root: str) -> str:
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(f for f in filenames if f.endswith(".py")):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def measure(args, root: str, spec: dict) -> tuple[dict, dict, dict]:
    """Run the worker; return (summary, record, spans or None)."""
    deadline = time.monotonic() + RUN_LIMIT_S
    nproc = len(os.sched_getaffinity(0))
    env = _child_env(root, nproc)
    py = sys.executable
    metrics: dict = {}

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    scratch = os.path.join(HERE, ".scratch", f"{tag}-{os.getpid()}")
    result_path = os.path.join(HERE, "results", f".{tag}-{os.getpid()}.worker.json")
    os.makedirs(os.path.dirname(result_path), exist_ok=True)
    try:
        _run([py, os.path.join(HERE, "worker.py"), "--workload", args.workload,
              "--seed", str(args.seed), "--seconds", str(args.seconds),
              "--trace", str(args.trace), "--scratch", scratch, "--result", result_path],
             env, deadline, root)
        with open(result_path, encoding="utf-8") as fh:
            worker = json.load(fh)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        if os.path.exists(result_path):
            os.remove(result_path)

    passes = worker["passes"]
    full = passes[0]
    if args.trace == 1:
        # stage metrics of the untraced full pass; other workloads' stages read 0
        metrics.update(worker["layers"])
        metrics.update({name: 0.0 for name in worker["all_stage_units"]})
        metrics.update(full["stages"])
        # rejected operations (equal-gain DomainError in density-mi) raised too
        metrics["failed_ratio"] = (full["failed"] + full["rejected"]) / full["attempted"]
        rounds = {}
    else:
        metrics["setup_s"] = worker["setup_s"]
        metrics["peak_rss_mb"] = worker["peak_rss_mb"]
        # fastest repetition of each operation: co-tenant load only slows a
        # repetition down, so the minimum is the steady estimate of its cost
        rounds = {op: {"n": len(t), "min": min(t), "median": statistics.median(t),
                       "max": max(t)} for op, t in worker["round_ops_s"].items()}
        metrics["round_s"] = sum(r["min"] for r in rounds.values())
        metrics.update(full["stages"])

    wanted = spec["end_to_end"] if args.trace == 0 else spec["per_layer"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise BenchError(f"metrics not produced: {missing}")
    correct = all(c["ok"] for c in worker["checks"])
    summary = {
        "correct": correct,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": ({m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                     for m in wanted} if correct else {}),
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "fingerprint": {**worker["fingerprint"], "nproc": nproc, **_git(root),
                        "src_sha256": _src_sha256(root), "seed": args.seed},
        "summary": summary,
        "metrics": metrics,
        "round_ops_s": rounds,
        "stage_units": worker["stage_units"],
        "setup_samples_s": worker.get("setup_samples_s", []),
        "checks": worker["checks"],
        "errors_by_case": worker["errors"],
        "passes": passes,
    }
    return summary, record, worker.get("spans")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    try:
        if not os.path.isfile(os.path.join(root, "src", "ncmimo", "__init__.py")):
            raise BenchError(f"no ncmimo package under {os.path.join(root, 'src')}")
        with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        summary, record, spans = measure(args, root, spec)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2

    results = os.path.join(HERE, "results")
    stem = os.path.join(results, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if spans is not None:
        with open(stem + ".spans.json", "w", encoding="utf-8") as fh:
            json.dump(spans, fh)
    for check in record["checks"]:
        print(f"check {'ok  ' if check['ok'] else 'FAIL'} {check['name']}")
    units = {**record["stage_units"], **{m["name"]: m["unit"]
                                        for m in spec["end_to_end"] + spec["per_layer"]}}
    for name, value in sorted(record["metrics"].items()):
        if name in units:
            print(f"{name} = {value:.6g} {units[name]}")
    print(f"results: {os.path.relpath(stem, root)}.json", file=sys.stderr)
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
