"""The three benchmark workloads.

Each workload drives ncmimo from outside: CLI commands go through
`ncmimo.cli.main(argv)` in process with `--out` pointing into a scratch
directory, and direct calls go through the public names on the `ncmimo`
package.  Both are looked up at call time, so the traced pass sees them.

`run("full")` executes the workload at its defined sizes; `run("unit")`
executes the same operations at sizes that take a fraction of a second
each, so that a run can repeat them many times.  Both return a dict with
per-operation times, ops attempted/failed/rejected, the stage metrics, payload
digests and the data `check` needs.  `check` takes a full-size result
and returns one record per correctness check.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time

import numpy as np

import ncmimo
import ncmimo.cli

_clock = time.perf_counter
# Singular values the benchmark itself needs (sweep inputs) are taken
# through this reference so they stay out of the program's linalg layer.
_svdvals = np.linalg.svd


def _sha(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln and not ln.startswith("#")]
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def _tally(errors: dict, dims, exc: Exception) -> None:
    key = "T={} M={} N={}: {}".format(*dims, type(exc).__name__)
    errors[key] = errors.get(key, 0) + 1


def _record(name: str, ok, detail) -> dict:
    return {"name": name, "ok": bool(ok), "detail": detail}


class Workload:
    name = ""
    stage_units: dict[str, str] = {}
    SIZES: dict[str, dict] = {}

    def __init__(self, seed: int, scratch: str):
        self.seed = seed
        self.scratch = scratch

    def _path(self, name: str) -> str:
        return os.path.join(self.scratch, name)

    def _cli(self, res: dict, op: str, argv: list[str], out: str,
             ok_codes=(0,)) -> None:
        """One CLI command as one operation; raising or a bad exit code fails it."""
        path = self._path(out)
        t0 = _clock()
        try:
            code = ncmimo.cli.main(argv + ["--seed", str(self.seed), "--out", path])
        except (ValueError, ArithmeticError) as exc:
            code = type(exc).__name__
        seconds = _clock() - t0
        size = os.path.getsize(path) if os.path.exists(path) else 0
        res["ops"][op] = {"seconds": seconds, "code": code, "bytes": size}
        res["attempted"] += 1
        res["failed"] += code not in ok_codes
        res["cli_bytes"] += size
        if size:
            res["digests"][op] = _sha(path)

    def run(self, size: str) -> dict:
        res = {"size": size, "ops": {}, "attempted": 0, "failed": 0, "rejected": 0,
               "cli_bytes": 0,
               "digests": {}, "stages": {}, "data": {}}
        self._run(res, self.SIZES[size])
        return res

    def _run(self, res: dict, sz: dict) -> None:
        raise NotImplementedError

    def check(self, res: dict) -> list[dict]:
        raise NotImplementedError


class SuiteSampling(Workload):
    """Validation suites and the (10, 5, 100) gain draw: sampler-bound."""

    name = "suite-sampling"
    stage_units = {"power_s": "s", "ks_s": "s", "gain_draws_per_s": "1/s"}
    GAIN_DIMS = (10, 5, 100)
    # None keeps the suite's default n
    SIZES = {"full": {"power": None, "lemma4": None, "lemma5": None, "gain": 100_000},
             "unit": {"power": 50, "lemma4": 100, "lemma5": 50, "gain": 50}}

    def _run(self, res, sz):
        for suite in ("power", "lemma4", "lemma5"):
            n = [] if sz[suite] is None else ["--n", str(sz[suite])]
            # a failing row (exit code 3) is a verdict, not a failed operation:
            # check() gates the power rows of the full pass and records the KS rows
            self._cli(res, suite, ["validate", "--suite", suite] + n, f"{suite}.csv",
                      ok_codes=(0, 3))
        T, M, N = self.GAIN_DIMS
        self._cli(res, "gain", ["sample", "--kind", "gain", "--T", str(T), "--M", str(M),
                                "--N", str(N), "--count", str(sz["gain"])], "gain.csv")
        ops = res["ops"]
        res["stages"] = {
            "power_s": ops["power"]["seconds"],
            "ks_s": ops["lemma4"]["seconds"] + ops["lemma5"]["seconds"],
            "gain_draws_per_s": sz["gain"] / ops["gain"]["seconds"],
        }

    def check(self, res):
        out = []
        header, rows = _read_csv(self._path("power.csv"))
        passed = [dict(zip(header, r))["passed"] == "true" for r in rows]
        out.append(_record("power-normalization rows pass", len(rows) == 3 and all(passed),
                           {"rows": len(rows), "passed": sum(passed)}))

        ks = []
        for suite in ("lemma4", "lemma5"):
            header, rows = _read_csv(self._path(f"{suite}.csv"))
            for r in rows:
                row = dict(zip(header, r))
                ks.append({"name": row["name"], "p_value": float(row["p_value"]),
                           "passed": row["passed"] == "true"})
        # KS verdicts are informational: each index false-alarms ~1% of the time
        out.append(_record("KS rows recorded (verdicts not gated)", len(ks) == 16, ks))

        T, M, N = self.GAIN_DIMS
        count = self.SIZES["full"]["gain"]
        header, rows = _read_csv(self._path("gain.csv"))
        arr = np.array(rows, dtype=float)
        d = arr[:, 1:]
        bound = math.sqrt(T * N / ncmimo.derive(ncmimo.ChannelDims(T=T, M=M, N=N)).Q)
        ok = (arr.shape == (count, M + 1)
              and np.array_equal(arr[:, 0], np.arange(count))
              and bool(np.all(np.diff(d, axis=1) <= 0))
              and bool(np.all((d >= 0) & (d <= bound))))
        out.append(_record("gain rows nonincreasing and within [0, sqrt(TN/Q)]", ok,
                           {"shape": list(arr.shape), "min": float(d.min()),
                            "max": float(d.max()), "bound": bound}))
        return out


def _bits(z: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(z, dtype=complex).view(np.uint64)


def _rows_to_matrices(rows, r: int, c: int) -> np.ndarray:
    arr = np.array(rows, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 1 + 2 * r * c:
        return np.empty((0, r, c), dtype=complex)
    vals = arr[:, 1:].reshape(len(arr), r * c, 2)
    return (vals[..., 0] + 1j * vals[..., 1]).reshape(len(arr), r, c)


def _same_bits(parsed: np.ndarray, ref: np.ndarray) -> bool:
    return parsed.shape == ref.shape and np.array_equal(_bits(parsed), _bits(ref))


class CliExport(Workload):
    """CSV/JSON emission of sampled matrices and a dense gain table: emission-bound."""

    name = "cli-export"
    stage_units = {"csv_mb_per_s": "MB/s", "json_mb_per_s": "MB/s",
                   "table_cells_per_s": "1/s"}
    INPUT_DIMS = (8, 2, 4)
    UNITARY_DIMS = (4, 2)
    SIZES = {"full": {"input": 50_000, "unitary": 20_000, "T": range(2, 102), "N": range(1, 101)},
             "unit": {"input": 100, "unitary": 100, "T": range(2, 9), "N": range(1, 8)}}

    def __init__(self, seed, scratch):
        super().__init__(seed, scratch)
        # the table SNR is a generated input: 20.0 to 39.9 dB, where every
        # cell of the grid has a positive USTM expansion
        self.snr_db = 20.0 + (seed % 200) / 10.0

    def _run(self, res, sz):
        T, M, N = self.INPUT_DIMS
        argv = ["sample", "--kind", "input", "--T", str(T), "--M", str(M), "--N", str(N),
                "--count", str(sz["input"])]
        self._cli(res, "csv", argv, "input.csv")
        self._cli(res, "json", argv + ["--format", "json"], "input.json")
        Tu, Mu = self.UNITARY_DIMS
        self._cli(res, "unitary", ["sample", "--kind", "unitary", "--T", str(Tu), "--M", str(Mu),
                                   "--count", str(sz["unitary"])], "unitary.csv")
        self._cli(res, "table", ["gain-table", "--T-list", ",".join(map(str, sz["T"])),
                                 "--N-list", ",".join(map(str, sz["N"])),
                                 "--snr-db", repr(self.snr_db)], "table.csv")
        ops = res["ops"]
        res["stages"] = {
            "csv_mb_per_s": ops["csv"]["bytes"] / 1e6 / ops["csv"]["seconds"],
            "json_mb_per_s": ops["json"]["bytes"] / 1e6 / ops["json"]["seconds"],
            "table_cells_per_s": len(sz["T"]) * len(sz["N"]) / ops["table"]["seconds"],
        }

    def check(self, res):
        out = []
        sz = self.SIZES["full"]
        T, M, N = self.INPUT_DIMS
        dp = ncmimo.derive(ncmimo.ChannelDims(T=T, M=M, N=N))
        ref = ncmimo.sample_input(dp, ncmimo.RngHandle(self.seed), count=sz["input"])

        _, rows = _read_csv(self._path("input.csv"))
        out.append(_record("input CSV parses back bit-for-bit to sample_input",
                           _same_bits(_rows_to_matrices(rows, T, M), ref), {"rows": len(rows)}))
        with open(self._path("input.json"), encoding="utf-8") as fh:
            jrows = json.load(fh)["rows"]
        out.append(_record("input JSON parses back bit-for-bit to sample_input",
                           _same_bits(_rows_to_matrices(jrows, T, M), ref), {"rows": len(jrows)}))

        # negative control: one sign flipped must fail the same comparison
        bad_csv = [list(r) for r in rows[:2]]
        v = bad_csv[1][1]
        bad_csv[1][1] = v[1:] if v.startswith("-") else "-" + v
        bad_json = [list(r) for r in jrows[:2]]
        bad_json[0][2] = -bad_json[0][2]
        caught = (not _same_bits(_rows_to_matrices(bad_csv, T, M), ref[:2])
                  and not _same_bits(_rows_to_matrices(bad_json, T, M), ref[:2]))
        out.append(_record("negative control: corrupted payload fails the export check",
                           caught, "one sign flipped in a CSV row and in a JSON row"))

        Tu, Mu = self.UNITARY_DIMS
        _, rows = _read_csv(self._path("unitary.csv"))
        uref = ncmimo.sample_isotropic_unitary(Tu, Mu, ncmimo.RngHandle(self.seed),
                                               count=sz["unitary"])
        out.append(_record("unitary CSV parses back bit-for-bit to sample_isotropic_unitary",
                           _same_bits(_rows_to_matrices(rows, Tu, Mu), uref), {"rows": len(rows)}))

        _, rows = _read_csv(self._path("table.csv"))
        bad = []
        for r in rows:
            Tc, Nc, Mc, g = int(r[0]), int(r[1]), int(r[2]), r[3]
            want = ncmimo.gain_ratio(ncmimo.derive(ncmimo.ChannelDims(T=Tc, M=Mc, N=Nc)),
                                     self.snr_db)
            if g == "" or float(g) != want:
                bad.append([Tc, Nc, Mc, g])
        out.append(_record("gain-table cells equal gain_ratio",
                           not bad and len(rows) == len(sz["T"]) * len(sz["N"]),
                           {"cells": len(rows), "snr_db": self.snr_db, "mismatched": bad[:5]}))
        return out


class DensityMI(Workload):
    """USTM mutual-information Monte Carlo through the output densities.

    USTM with M > 1 has the equal-gain diagonal sqrt(T)*1, which the
    densities reject today with DomainError on every call.  That rejection
    is the case's checked outcome: it counts as attempted and `rejected`
    (and so in failed_ratio), not as a failed operation.  Any other
    exception or non-finite value is a failed operation.
    """

    name = "density-mi"
    stage_units = {"mc_evals_per_s": "1/s", "quad_s": "s"}
    DIMS = ((2, 1, 2), (3, 1, 4), (4, 1, 4), (4, 2, 4))
    SNRS = (10.0, 20.0, 30.0, 40.0, 60.0)
    # The quadrature suite has no size knob and takes over a second, too long
    # to repeat often enough for a steady fastest time, so unit rounds leave
    # it out; the sweep keeps the scalar cond_sv_pdf_finite_log path in them.
    SIZES = {"full": {"mc": 2000, "sweep": 200, "quad": True},
             "unit": {"mc": 10, "sweep": 4, "quad": False}}
    Z_TOL = 5.0  # |I/T - capacity_approx| within this many standard errors
    LIMIT_TOL = 1e-3  # finite-vs-limit spectrum log-density gap at 60 dB

    @staticmethod
    def _eval(res, errors, dims, fn, *args) -> float:
        """One density call; nan when it raises."""
        try:
            return fn(*args)
        except ValueError as exc:
            _tally(errors, dims, exc)
            if dims[1] > 1 and isinstance(exc, ncmimo.DomainError):
                res["rejected"] += 1
            return math.nan

    def _run(self, res, sz):
        n_mc, n_sweep = sz["mc"], sz["sweep"]
        density_s = 0.0
        mc_ok = 0
        logf, gaps, errors, rejected = {}, {}, {}, {}
        digest = hashlib.sha256()
        for k, (T, M, N) in enumerate(self.DIMS):
            dp = ncmimo.derive(ncmimo.ChannelDims(T=T, M=M, N=N))
            D = ncmimo.GainDiagonal(np.full(M, math.sqrt(T)))
            # one stream per dims, replayed at every SNR (common random numbers)
            stream = int(np.random.SeedSequence([self.seed, k]).generate_state(1)[0])
            for snr in self.SNRS:
                key = f"T={T} M={M} N={N} snr={snr:g}"
                # one timed operation per case and kind, short enough to repeat often
                mc_op, sweep_op = f"mc {key}", f"sweep {key}"
                t0 = _clock()
                rng = ncmimo.RngHandle(stream)
                X = ncmimo.sample_input(dp, rng, count=n_mc, ustm=True)
                Y = ncmimo.simulate_channel(X, N, snr, rng)
                vals = np.full(n_mc, np.nan)
                before = res["rejected"]
                t1 = _clock()
                for i in range(n_mc):
                    vals[i] = self._eval(res, errors, (T, M, N),
                                         ncmimo.cond_pdf_y_given_d_log, Y[i], D, dp, snr)
                t2 = _clock()
                res["ops"][mc_op] = {"seconds": t2 - t0}
                density_s += t2 - t1
                ok = int(np.isfinite(vals).sum())
                mc_ok += ok
                rejected[key] = res["rejected"] - before
                res["attempted"] += n_mc
                res["failed"] += n_mc - ok - rejected[key]
                logf[key] = vals

                scale = np.ones(T)
                scale[:M] = math.sqrt(M / ncmimo.rho_from_db(snr))
                svn = _svdvals(Y[:n_sweep], compute_uv=False) * scale
                sweep = np.full((n_sweep, 2), np.nan)
                before = res["rejected"]
                t0 = _clock()
                for i in range(n_sweep):
                    sweep[i, 0] = self._eval(res, errors, (T, M, N),
                                             ncmimo.cond_sv_pdf_finite_log, svn[i], D, dp, snr)
                    sweep[i, 1] = self._eval(res, errors, (T, M, N),
                                             ncmimo.cond_sv_pdf_limit_log, svn[i], D, dp)
                res["ops"][sweep_op] = {"seconds": _clock() - t0}
                ok = int(np.isfinite(sweep).sum())
                res["attempted"] += sweep.size
                res["failed"] += sweep.size - ok - (res["rejected"] - before)
                gaps[key] = np.abs(sweep[:, 0] - sweep[:, 1])
                digest.update(vals.tobytes())
                digest.update(sweep.tobytes())
        res["digests"]["mc"] = digest.hexdigest()
        res["stages"]["mc_evals_per_s"] = mc_ok / density_s
        if sz["quad"]:
            self._cli(res, "quad", ["validate", "--suite", "density-normalization"],
                      "density-normalization.csv")
            res["stages"]["quad_s"] = res["ops"]["quad"]["seconds"]
        res["data"] = {"logf": logf, "gaps": gaps, "errors": errors, "rejected": rejected}

    def check(self, res):
        out = []
        logf, gaps, rejected = res["data"]["logf"], res["data"]["gaps"], res["data"]["rejected"]
        table, bad, skipped = [], [], []
        for T, M, N in self.DIMS:
            dp = ncmimo.derive(ncmimo.ChannelDims(T=T, M=M, N=N))
            for snr in self.SNRS:
                key = f"T={T} M={M} N={N} snr={snr:g}"
                vals = logf[key]
                if not np.all(np.isfinite(vals)):
                    # equal gains (M > 1) may only be rejected with DomainError, on every call
                    skipped.append({"case": key, "rejected": rejected[key]})
                    if M == 1 or rejected[key] != vals.size:
                        bad.append(key)
                    continue
                rho = ncmimo.rho_from_db(snr)
                h_cond = N * (T * math.log(math.pi * math.e) + M * math.log1p(rho * T / M))
                mi = (-vals.mean() - h_cond) / T
                se = vals.std(ddof=1) / math.sqrt(vals.size) / T
                approx = ncmimo.capacity_approx(dp, snr, ncmimo.USTM)
                z = (mi - approx) / se
                table.append({"case": key, "mi_per_T": mi, "se": se, "approx": approx, "z": z})
                if abs(z) > self.Z_TOL:
                    bad.append(key)
        out.append(_record(f"I/T agrees with capacity_approx(USTM) within {self.Z_TOL:g} SE",
                           not bad and table, {"cases": table, "not_evaluated": skipped,
                                               "bad": bad}))

        worst = {k: float(np.max(g)) for k, g in gaps.items()
                 if k.endswith("snr=60") and np.all(np.isfinite(g))}
        out.append(_record(f"finite-SNR spectrum density within {self.LIMIT_TOL:g} of its "
                           "limit at 60 dB", worst and max(worst.values()) <= self.LIMIT_TOL,
                           worst))

        header, rows = _read_csv(self._path("density-normalization.csv"))
        passed = [dict(zip(header, r))["passed"] == "true" for r in rows]
        out.append(_record("density-normalization rows pass", rows and all(passed),
                           {"rows": len(rows), "passed": sum(passed)}))
        return out


WORKLOADS = {w.name: w for w in (SuiteSampling, CliExport, DensityMI)}
