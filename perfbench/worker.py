"""Run one workload in this (fresh) interpreter and write its raw results.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --scratch DIR --result FILE

Both modes start with a warm-up round (the workload's operations at unit
size) and one full-size pass, on which the correctness checks run.
Untraced (--trace 0): unit-size rounds then repeat until the next one
would end past S seconds of workload time from the start of the full
pass (at least MIN_ROUNDS), with SETUP_REPEATS set-up probes spread
evenly among them; time spent in probes does not count towards S.
Traced (--trace 1): one set-up probe for the import breakdown, then a
second full pass with every layer wrapped; the difference in wall time
is the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import scipy.integrate  # noqa: E402

import ncmimo  # noqa: E402
from ncmimo import bstm, capacity, cli, outpdf, params, randmat, statcheck, suites  # noqa: E402

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_ROUNDS = 5
MAX_ROUNDS = 2000
SETUP_REPEATS = 10
# Run under -X importtime; the marker line separates the interpreter's own
# start-up imports.  os._exit skips teardown, which set-up time does not include.
SETUP_MARK = "setup-probe-start"
SETUP_PROBE = (f"import os, sys, time; sys.stderr.write('{SETUP_MARK}\\n'); "
               "t = time.perf_counter(); import ncmimo.cli as c; c.build_parser(); "
               "print(repr(time.perf_counter() - t), flush=True); os._exit(0)")
IMPORT_PACKAGES = ("scipy.stats", "scipy.integrate")
COVER_SHARE = 0.7
LINALG = ("qr", "eigvalsh", "svd", "cholesky", "solve", "slogdet")

# Public functions traced at every name a caller looks them up by.
TARGETS = (
    randmat.sample_gaussian, randmat.sample_wishart, randmat.sample_matrix_beta,
    randmat.sample_isotropic_unitary,
    bstm.sample_input, bstm.sample_gain, bstm.noiseless_sv_sample, bstm.simulate_channel,
    outpdf.cond_pdf_y_given_d_log, outpdf.cond_sv_pdf_finite_log,
    outpdf.cond_sv_pdf_limit_log,
    statcheck.ks_two_sample, statcheck.lemma4_suite, statcheck.lemma5_suite,
    capacity.gain_ratio, params.derive, cli.main,
)
MODULES = (ncmimo, cli, suites, statcheck, bstm, randmat, outpdf, capacity, params)
# Span statistics reported per layer (Tracer attribute names); the other
# wrapped functions are traced so that their time leaves their callers' self time.
REPORTED = {
    "randmat.sample_gaussian": ("calls", "self_s"),
    **{f"randmat.{n}": ("self_s",) for n in
       ("sample_wishart", "sample_matrix_beta", "sample_isotropic_unitary")},
    **{f"bstm.{n}": ("self_s",) for n in
       ("sample_input", "sample_gain", "noiseless_sv_sample", "simulate_channel")},
    **{f"linalg.{n}": ("calls", "self_s") for n in LINALG},
    "outpdf.cond_pdf_y_given_d_log": ("calls", "self_s", "failed"),
    "outpdf.cond_sv_pdf_finite_log": ("calls", "self_s", "failed"),
    "integrate.quad": ("self_s",),
    "integrate.dblquad": ("self_s",),
    "statcheck.ks_two_sample": ("calls", "self_s"),
    "capacity.gain_ratio": ("calls", "self_s"),
    "params.derive": ("self_s",),
    "cli.main": ("self_s",),
}


def _layer_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


def _stack_size(args, kwargs) -> int:
    shape = getattr(args[0], "shape", ()) if args else ()
    return math.prod(shape[:-2])


def instrument(tr: Tracer) -> None:
    """Wrap every traced layer; undone by tr.restore()."""
    def gaussian_count(args, kwargs):
        m, n = args[0], args[1]
        k = kwargs.get("count", args[4] if len(args) > 4 else None)
        entries = m * n * (1 if k is None else k)
        out = {"entries": entries}
        if tr.active("bstm.sample_gain"):
            out["entries_in_gain"] = entries
        return out

    def gain_count(args, kwargs):
        k = kwargs.get("count", args[2] if len(args) > 2 else None)
        return {"draws": 1 if k is None else k}

    special = {randmat.sample_gaussian: gaussian_count, bstm.sample_gain: gain_count}
    wrappers = {id(fn): tr.wrap(fn, _layer_name(fn), count=special.get(fn))
                for fn in TARGETS}
    for mod in MODULES:
        for attr, val in list(vars(mod).items()):
            if id(val) in wrappers:
                tr.patch_attr(mod, attr, wrappers[id(val)])
    for key, fn in list(suites.SUITES.items()):
        tr.patch_item(suites.SUITES, key, tr.wrap(fn, f"suites.{fn.__name__}"))
    tr.patch_attr(cli, "_emit", tr.wrap(cli._emit, "cli", span=False,
                                        count=lambda a, k: {"rows_out": len(a[2])}))
    for name in LINALG:
        tr.patch_attr(np.linalg, name, tr.wrap(
            getattr(np.linalg, name), f"linalg.{name}",
            count=lambda a, k: {"matrices": _stack_size(a, k)}))
    for name in ("quad", "dblquad"):
        orig = getattr(scipy.integrate, name)
        key = f"integrate.{name}.integrand_calls"

        def counted(func, *a, _orig=orig, _key=key, **k):
            def integrand(*x):
                tr.counts[_key] += 1
                return func(*x)
            return _orig(integrand, *a, **k)
        tr.patch_attr(scipy.integrate, name, tr.wrap(counted, f"integrate.{name}"))


def layer_metrics(tr: Tracer, traced: dict) -> dict:
    """The per-layer metrics BENCHMARK.json lists; zero where a layer was not used."""
    out = {f"{name}.{field}": getattr(tr, field)[name]
           for name, fields in REPORTED.items() for field in fields}
    for name in LINALG:
        calls = tr.calls[f"linalg.{name}"]
        out[f"linalg.{name}.matrices_per_call"] = (
            tr.counts[f"linalg.{name}.matrices"] / calls if calls else 0.0)
    for name in ("quad", "dblquad"):
        out[f"integrate.{name}.integrand_calls"] = tr.counts[f"integrate.{name}.integrand_calls"]
    out["randmat.sample_gaussian.entries"] = tr.counts["randmat.sample_gaussian.entries"]
    draws = tr.counts["bstm.sample_gain.draws"]
    out["randmat.gaussian_entries_per_draw"] = (
        tr.counts["randmat.sample_gaussian.entries_in_gain"] / draws if draws else 0.0)
    evals = tr.calls["outpdf.cond_pdf_y_given_d_log"]
    out["outpdf.us_per_eval"] = (
        tr.total_s["outpdf.cond_pdf_y_given_d_log"] / evals * 1e6 if evals else 0.0)
    out["cli.rows_out"] = tr.counts["cli.rows_out"]
    out["cli.bytes_out"] = traced["cli_bytes"]
    return out


def setup_probe() -> dict:
    """A fresh interpreter's time to import ncmimo.cli and build the parser.

    Returns the total (s) and, from -X importtime, each module's own and
    cumulative import time (s).
    """
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", SETUP_PROBE],
                          capture_output=True, text=True, check=True, timeout=60)
    own: dict[str, float] = {}
    cumulative: dict[str, float] = {}
    for line in proc.stderr.split(SETUP_MARK + "\n", 1)[-1].splitlines():
        parts = line[len("import time:"):].split("|")
        if not line.startswith("import time:") or len(parts) != 3 or not parts[0].strip().isdigit():
            continue
        name = parts[2].strip()
        own[name] = own.get(name, 0.0) + int(parts[0]) / 1e6
        cumulative.setdefault(name, int(parts[1]) / 1e6)
    return {"total_s": float(proc.stdout.split()[-1]), "own_s": own, "cumulative_s": cumulative}


def setup_estimate(probes: list[dict]) -> float:
    """Summed fastest own time of each module, plus the fastest remainder.

    Like round_s: one module's import takes milliseconds, so some probe
    imports it undisturbed even when the host is slow for whole probes.
    The remainder (build_parser and time outside any module) is the
    probe's total minus its modules' own times.
    """
    modules = {name for p in probes for name in p["own_s"]}
    fastest = sum(min(p["own_s"][m] for p in probes if m in p["own_s"]) for m in modules)
    return fastest + min(p["total_s"] - sum(p["own_s"].values()) for p in probes)


def import_breakdown(probe: dict) -> dict:
    """import.* layer metrics (s) from one probe.

    ncmimo is its cumulative time (the whole package import); scipy.stats
    and scipy.integrate are the summed own time of their modules, because
    scipy loads subpackages lazily and prints no line for them.
    """
    out = {"import.ncmimo_s": probe["cumulative_s"].get("ncmimo", 0.0)}
    for pkg in IMPORT_PACKAGES:
        out[f"import.{pkg}_s"] = sum(t for name, t in probe["own_s"].items()
                                     if name == pkg or name.startswith(pkg + "."))
    return out


def timed_pass(wl, size: str, tr: Tracer | None = None) -> dict:
    t0 = time.perf_counter()
    if tr is None:
        res = wl.run(size)
    else:
        tr.open("pass")
        try:
            res = wl.run(size)
        finally:
            tr.close()
    res["wall_s"] = time.perf_counter() - t0
    return res


def fingerprint() -> dict:
    deps = np.show_config(mode="dicts")["Build Dependencies"]
    blas = deps.get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads_env": {k: os.environ.get(k) for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _summary(res: dict) -> dict:
    return {k: res[k] for k in ("size", "wall_s", "ops", "attempted", "failed", "rejected",
                                "cli_bytes", "stages", "digests")}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scratch", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args()

    os.makedirs(args.scratch, exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, args.scratch)
    wl.run("unit")  # warm-up: first calls, lazy imports, allocator
    start = time.perf_counter()
    full = timed_pass(wl, "full")
    # the full pass sets the peak; the checks' own parsing comes after
    out: dict = {"peak_rss_mb": _peak_rss_mb(), "fingerprint": fingerprint()}
    checks = wl.check(full)
    if args.trace == 0:
        # The host's speed drifts over seconds to minutes; spreading the
        # set-up probes among the rounds lets the fastest round and the
        # fastest probe each be taken from the whole run, not one stretch.
        rounds: list[dict] = []
        setup: list[dict] = []
        probe_s = 0.0
        t_rounds = time.perf_counter()
        budget = start + args.seconds - t_rounds
        while len(rounds) < MAX_ROUNDS:
            now = time.perf_counter()
            if len(setup) < SETUP_REPEATS and now - t_rounds - probe_s >= (
                    len(setup) * budget / SETUP_REPEATS):
                setup.append(setup_probe())
                probe_s += time.perf_counter() - now
            rounds.append(timed_pass(wl, "unit"))
            typical = statistics.median(r["wall_s"] for r in rounds)
            if (len(rounds) >= MIN_ROUNDS
                    and time.perf_counter() - start - probe_s + typical > args.seconds):
                break
        while len(setup) < SETUP_REPEATS:
            setup.append(setup_probe())
        out["setup_s"] = setup_estimate(setup)
        out["setup_samples_s"] = [p["total_s"] for p in setup]
        out["round_ops_s"] = {op: [r["ops"][op]["seconds"] for r in rounds]
                              for op in rounds[0]["ops"]}
        checks.append({"name": "payload bytes identical across repeated invocations",
                       "ok": all(r["digests"] == rounds[0]["digests"] for r in rounds),
                       "detail": rounds[0]["digests"]})
        passes = [full] + rounds
    else:
        breakdown = import_breakdown(setup_probe())
        tr = Tracer()
        instrument(tr)
        try:
            traced = timed_pass(wl, "full", tr)
        finally:
            restored = tr.restore()
        overhead = traced["wall_s"] - full["wall_s"]
        # time inside wrapped layers; the rest of the pass span is the
        # benchmark's own loops and bookkeeping
        covered = sum(t for name, t in tr.self_s.items() if name != "pass")
        out["layers"] = {**layer_metrics(tr, traced), **breakdown}
        out["layers"]["trace.overhead_s"] = overhead
        checks += [
            {"name": "wrappers removed after the traced pass", "ok": restored},
            {"name": "traced outputs bit-identical to untraced",
             "ok": traced["digests"] == full["digests"], "detail": full["digests"]},
            {"name": f"wrapped layers' self times cover at least {COVER_SHARE:.0%} "
                     "of the untraced wall time",
             "ok": covered >= COVER_SHARE * full["wall_s"],
             "detail": {"covered_s": covered, "untraced_wall_s": full["wall_s"],
                        "traced_wall_s": traced["wall_s"], "overhead_s": overhead}},
        ]
        out["spans"] = {"names": tr.names, "spans": tr.spans}
        passes = [full, traced]
    out["checks"] = checks
    out["passes"] = [_summary(p) for p in passes]
    out["stage_units"] = wl.stage_units
    out["all_stage_units"] = {k: v for w in WORKLOADS.values() for k, v in w.stage_units.items()}
    out["errors"] = full["data"].get("errors", {})
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


if __name__ == "__main__":
    sys.exit(main())
