import argparse
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import ncmimo
from ncmimo import cli
from ncmimo.capacity import bstm_constant, gain_ratio, ustm_constant
from ncmimo.bstm import noiseless_sv_sample, sample_gain, sample_input
from ncmimo.params import ChannelDims, derive
from ncmimo.randmat import (
    RNG_ALGORITHM,
    RngHandle,
    sample_isotropic_unitary,
    sample_matrix_beta,
    sample_wishart,
)


def run_cli(capsys, argv):
    code = cli.main(argv)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def _fresh_env(*paths):
    """The environment of a fresh interpreter that imports ncmimo from this
    checkout, with `paths` also on its import path."""
    src = str(Path(ncmimo.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, *paths, os.environ.get("PYTHONPATH")) if p))


def run_fresh_python(script, *paths):
    """stdout of `script` run in a fresh interpreter (see _fresh_env)."""
    return subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=_fresh_env(*paths), timeout=120, check=True).stdout


def parse_csv(out):
    lines = [ln for ln in out.splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return header, rows


def strict_json(text):
    """The JSON document `text`, failing on a NaN or Infinity token."""
    def reject(token):
        pytest.fail(f"non-finite JSON constant {token}")
    return json.loads(text, parse_constant=reject)


def test_constants_csv(capsys):
    code, out, err = run_cli(capsys, ["constants", "--T", "10", "--M", "5", "--N", "100"])
    assert code == 0
    assert out.startswith("# tool: ncmimo")
    assert "# rng: pcg64" in out
    assert "# config:" in out
    header, rows = parse_csv(out)
    assert len(rows) == 1
    row = dict(zip(header, rows[0]))
    dp = derive(ChannelDims(T=10, M=5, N=100))
    b = bstm_constant(dp)
    u = ustm_constant(dp)
    # repr floats round-trip exactly
    assert float(row["c_bstm"]) == b.constant
    assert float(row["c_ustm"]) == u.constant
    assert float(row["c_gap"]) == b.constant - u.constant
    assert float(row["prelog"]) == 2.5
    # per-term columns present
    assert "bstm_gamma_ratio" in header and "ustm_logdet" in header


def test_constants_gap_is_exactly_zero_when_block_is_long(capsys):
    # every T >= M+N cell of T <= 40, M <= floor(T/2), M <= N <= 60 prints
    # c_gap 0.0, as gain-table prints gain 0.0; subtracting the two
    # constants would print -2.220446049250313e-16 at (12, 3, 5)
    parser = cli.build_parser()
    for T in range(2, 41):
        for M in range(1, T // 2 + 1):
            for N in range(M, T - M + 1):
                args = parser.parse_args(["constants", "--T", str(T), "--M", str(M),
                                          "--N", str(N)])
                assert args.func(args) == 0
                header, rows = parse_csv(capsys.readouterr().out)
                assert rows[0][header.index("c_gap")] == "0.0", (T, M, N)


def test_constants_bits_scaling(capsys):
    # a small channel and the headline (10, 5, 100)
    for dims in (["--T", "4", "--M", "2", "--N", "3"], ["--T", "10", "--M", "5", "--N", "100"]):
        code, out_nats, _ = run_cli(capsys, ["constants", *dims])
        assert code == 0
        code, out_bits, _ = run_cli(capsys, ["constants", *dims, "--bits"])
        assert code == 0
        hn, rn = parse_csv(out_nats)
        hb, rb = parse_csv(out_bits)
        nats = dict(zip(hn, rn[0]))
        bits = dict(zip(hb, rb[0]))
        ln2 = math.log(2.0)
        assert float(bits["c_bstm"]) == pytest.approx(float(nats["c_bstm"]) / ln2, rel=1e-15)
        assert float(bits["c_gain_limit"]) == pytest.approx(
            float(nats["c_gain_limit"]) / ln2, rel=1e-15)
        # the prelog multiplies log(rho) and is unit-free
        assert bits["prelog"] == nats["prelog"]


def test_constants_dimension_error_exit_code(capsys):
    code, out, err = run_cli(capsys, ["constants", "--T", "4", "--M", "3", "--N", "4"])
    assert code == 2
    assert out == ""
    assert "floor(T/2)" in err


@pytest.mark.parametrize("options, message", [
    (["--kind", "unitary", "--T", "2", "--M", "3"], "T must be an integer >= 3, got T=2"),
    (["--kind", "beta", "--m", "2", "--p", "1", "--n", "2"], "p must be an integer >= 2, got p=1"),
    (["--kind", "wishart", "--m", "0", "--n", "2"], "m must be a positive integer, got m=0"),
], ids=["unitary", "beta", "wishart"])
def test_sample_domain_error_exit_code(capsys, options, message):
    code, out, err = run_cli(capsys, ["sample", *options])
    assert code == 2
    assert out == ""
    assert message in err


def test_sample_wishart_domain_error_exit_code(capsys, tmp_path):
    # an infinite scale would fill every cell with nan
    target = tmp_path / "wishart.csv"
    for m, scale in (("1", "-1"), ("2", "inf")):
        for fmt, out_args in (("csv", []), ("json", []), ("csv", ["--out", str(target)])):
            code, out, err = run_cli(capsys, ["sample", "--kind", "wishart", "--m", m, "--n", "3",
                                              "--scale", scale, "--format", fmt] + out_args)
            assert code == 2
            assert out == ""
            assert "scale > 0" in err
        assert not target.exists()


@pytest.mark.parametrize("argv", [
    ["sample", "--kind", "gain", "--T", "4", "--M", "2", "--N", "4", "--seed", "-1"],
    ["validate", "--suite", "power", "--seed", "-3"],
], ids=["sample", "validate"])
def test_negative_seed_is_domain_error(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert f"ncmimo: error: seed must be a non-negative integer, got seed={argv[-1]}" in err


@pytest.mark.parametrize("argv, limit_mb", [
    # one unchunked stack of full 5 x n Gaussians peaks at about 1,700 MB
    (["sample", "--kind", "gain", "--T", "10", "--M", "5", "--N", "100",
      "--count", "100000"], 400),
    # a 44 MB JSON export; converting the whole stack to Python floats
    # before writing peaks at about 138 MB, a chunk at a time at about 94 MB
    (["sample", "--kind", "input", "--T", "8", "--M", "2", "--N", "4",
      "--count", "50000", "--format", "json"], 110),
    # a 40 MB CSV export of wide draws: about 164 MB for the whole stack as
    # Python floats, 111 MB a chunk at a time (the unchunked draw is most of it)
    (["sample", "--kind", "input", "--T", "10", "--M", "5", "--N", "100",
      "--count", "20000"], 125),
], ids=["gain", "input-json", "input-csv-wide"])
def test_sample_peak_memory_is_bounded(tmp_path, argv, limit_mb):
    # a fresh interpreter reports its own peak RSS, VmHWM in KiB; a bare
    # import peaks at about 30 MB.  ru_maxrss would not do: Linux carries
    # it across exec, so the child would inherit the pytest process's peak
    argv = argv + ["--out", str(tmp_path / "sample.out")]
    script = ("import re; from ncmimo import cli; "
              f"code = cli.main({argv!r}); "
              "status = open('/proc/self/status').read(); "
              r"print(code, re.search(r'VmHWM:\s*(\d+) kB', status).group(1))")
    code, max_kib = run_fresh_python(script).split()
    assert code == "0"
    assert int(max_kib) * 1024 / 1e6 < limit_mb


_VALUES = {"T": "8", "M": "2", "N": "4", "m": "2", "p": "3", "n": "2"}
# density calls, as source a fresh interpreter runs
_DENSITY_SETUP = "import numpy as np; from ncmimo import *; dp = derive(ChannelDims(T=4, M=2, N=4))"
_COND_PDF = ("cond_pdf_y_given_d_log(np.random.default_rng(0).standard_normal((4, 4)), "
             "[2.0, 1.0], dp, 20.0)")
_SPECTRUM_PDFS = ("cond_sv_pdf_finite_log([2.0, 1.5, 1.0, 0.5], [2.0, 1.0], dp, 20.0); "
                  "cond_sv_pdf_limit_log([2.0, 1.5, 1.0, 0.5], [2.0, 1.0], dp); "
                  "first_sv_pdf_log([2.0, 1.0], dp, 20.0); tail_sv_pdf_log([1.0, 0.5], dp); "
                  "beta_eig_pdf_log(2, 3, 2, [0.7, 0.2])")


def _sample_script(kind):
    options = [arg for opt in cli._KINDS[kind][0] for arg in (f"--{opt}", _VALUES[opt])]
    return f"from ncmimo import cli; cli.main({['sample', '--kind', kind, *options]!r})"


@pytest.mark.parametrize("script, loaded", [
    ("import ncmimo", set()),
    ("from ncmimo import cli; cli.build_parser()", set()),
    *[(_sample_script(kind), set()) for kind in cli._KINDS],
    # the constants and densities are evaluated on math and numpy alone
    ("from ncmimo import cli; cli.main(['constants', '--T', '4', '--M', '2', '--N', '4'])", set()),
    ("from ncmimo import cli; cli.main(['gain-table', '--T-list', '4,10', '--N-list', '2,100'])",
     set()),
    (f"{_DENSITY_SETUP}; {_COND_PDF}", set()),
    (f"{_DENSITY_SETUP}; {_SPECTRUM_PDFS}", set()),
    # the quadrature suites integrate on numpy alone
    ("from ncmimo import cli; cli.main(['validate', '--suite', 'pdf-oracle', '--n', '1'])",
     set()),
    ("from ncmimo import cli; cli.main(['validate', '--suite', 'density-normalization'])",
     set()),
    # the control: a suite that needs a package loads it, so the check can see a load
    ("from ncmimo import cli; cli.main(['validate', '--suite', 'lemma4', '--n', '200'])",
     {"scipy.stats"}),
], ids=["package", "parser", *[f"sample-{kind}" for kind in cli._KINDS],
        "constants", "gain-table", "cond-pdf", "spectrum-pdfs", "pdf-oracle",
        "density-normalization", "lemma4"])
def test_heavy_scipy_loads_only_where_used(script, loaded):
    script += ("; import json, sys; "
               "print(json.dumps([m for m in sys.modules if m.split('.')[0] == 'scipy']))")
    seen = set(json.loads(run_fresh_python(script).splitlines()[-1]))
    # a control may load more: scipy.stats imports scipy.integrate
    assert seen >= loaded if loaded else not seen


@pytest.mark.parametrize("suite", ["lemma4", "lemma5", "unitary"])
def test_ks_suites_reject_one_draw_before_drawing(suite):
    # a KS test needs two observations per sample: n = 1 raises power's
    # message before any draw, so scipy.stats never loads
    script = ("import sys\nfrom ncmimo.params import DomainError\n"
              "from ncmimo.statcheck import SUITES\n"
              f"try:\n    SUITES[{suite!r}](n=1)\nexcept DomainError as exc:\n    print(exc)\n"
              "print('scipy.stats' in sys.modules)")
    assert run_fresh_python(script).splitlines() == ["n must be an integer >= 2, got n=1",
                                                     "False"]


def test_parser_loads_no_quadrature_rule():
    # the Gauss-Legendre nodes load with the first integral, not with the CLI
    script = ("import sys; from ncmimo import cli; cli.build_parser(); "
              "print('numpy.polynomial' in sys.modules)")
    assert run_fresh_python(script).split() == ["False"]


def test_benchmark_binds_to_the_library():
    # perfbench/worker.py looks up and wraps library functions by name (such
    # as statcheck.lemma4_suite and cli._emit): a name it uses that the
    # library drops fails its import, and every wrapper must come off again
    bench = str(Path(__file__).resolve().parents[1] / "perfbench")
    script = ("import tracer, worker; from ncmimo import cli; emit = cli._emit; "
              "tr = tracer.Tracer(); worker.instrument(tr); wrapped = cli._emit is not emit; "
              "print(wrapped, tr.restore(), cli._emit is emit)")
    assert run_fresh_python(script, bench).split() == ["True", "True", "True"]


def test_one_module_defines_the_suites():
    # every suite lives in statcheck; ncmimo.suites only re-exports the
    # registry that perfbench/worker.py patches, and the CLI never loads it
    from ncmimo import statcheck, suites
    assert {fn.__module__ for fn in statcheck.SUITES.values()} == {"ncmimo.statcheck"}
    assert suites.SUITES is statcheck.SUITES
    assert [name for name in vars(suites) if not name.startswith("_")] == ["SUITES"]
    script = "import sys, ncmimo.cli; print('ncmimo.suites' in sys.modules)"
    assert run_fresh_python(script).split() == ["False"]


def test_readme_python_examples_run(capsys):
    # README's python blocks run in order in one namespace; each print
    # shows the value in the comment beside it
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    assert len(blocks) == 3
    namespace = {}
    for block in blocks:
        exec(block, namespace)
    shown = re.findall(r"^print\(.*\)\s+#\s*(\S+)$", blocks[0], re.M)
    assert capsys.readouterr().out.split() == shown
    assert namespace["x"].shape == (64, 10, 5) and namespace["y"].shape == (64, 10, 100)
    assert math.isfinite(namespace["logf"])
    assert all(r.passed for r in namespace["reports"])


def test_output_is_deterministic(capsys):
    argv = ["constants", "--T", "8", "--M", "2", "--N", "4", "--seed", "5"]
    _, out1, _ = run_cli(capsys, argv)
    _, out2, _ = run_cli(capsys, argv)
    assert out1 == out2


def test_wall_clock_only_on_stderr(capsys):
    _, out, err = run_cli(capsys, ["constants", "--T", "4", "--M", "1", "--N", "2"])
    assert "wall clock" in err
    assert "wall clock" not in out


def test_gain_table_values(capsys):
    code, out, _ = run_cli(capsys, [
        "gain-table", "--T-list", "10,100", "--N-list", "100", "--snr-db", "30"])
    assert code == 0
    header, rows = parse_csv(out)
    table = {(int(r[0]), int(r[1])): r for r in rows}
    g_10 = float(table[(10, 100)][3])
    g_100 = float(table[(100, 100)][3])
    assert abs(g_10 - 0.13) < 0.015
    assert g_100 < 0.03
    # default M rule min(floor(T/2), N)
    assert int(table[(10, 100)][2]) == 5
    assert int(table[(100, 100)][2]) == 50
    # exact round-trip against the library
    assert g_10 == gain_ratio(derive(ChannelDims(T=10, M=5, N=100)), 30.0)


def test_gain_table_bad_cell_becomes_warning(capsys):
    code, out, _ = run_cli(capsys, [
        "gain-table", "--T-list", "4,10", "--N-list", "5", "--M", "3"])
    assert code == 0
    header, rows = parse_csv(out)
    # M=3 invalid for T=4, fine for T=10
    assert rows[0][3] == ""
    assert rows[1][3] != ""
    assert "# warning: T=4 N=5 M=3" in out


def test_gain_table_bad_list_token_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["gain-table", "--T-list", "4,x", "--N-list", "2"])
    assert exc.value.code == 1
    assert "expected comma-separated integers, got '4,x'" in capsys.readouterr().err


def test_sample_gain_constant_rows(capsys):
    code, out, _ = run_cli(capsys, [
        "sample", "--kind", "gain", "--T", "8", "--M", "2", "--N", "4",
        "--count", "3"])
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["draw", "d1", "d2"]
    want = repr(math.sqrt(8.0))
    for i, row in enumerate(rows):
        assert row == [str(i), want, want]


def test_sample_unitary_deterministic(capsys):
    argv = ["sample", "--kind", "unitary", "--T", "2", "--M", "1",
            "--count", "1", "--seed", "9"]
    _, out1, _ = run_cli(capsys, argv)
    _, out2, _ = run_cli(capsys, argv)
    assert out1 == out2
    header, rows = parse_csv(out1)
    assert header == ["draw", "re_0_0", "im_0_0", "re_1_0", "im_1_0"]
    vec = np.array([float(rows[0][1]) + 1j * float(rows[0][2]),
                    float(rows[0][3]) + 1j * float(rows[0][4])])
    assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)


def test_sample_beta_columns(capsys):
    code, out, _ = run_cli(capsys, [
        "sample", "--kind", "beta", "--m", "2", "--p", "3", "--n", "2",
        "--count", "2"])
    assert code == 0
    header, rows = parse_csv(out)
    assert len(header) == 1 + 2 * 4  # draw + re/im for each of the 4 entries
    assert len(rows) == 2


_DP = derive(ChannelDims(T=10, M=5, N=100))
_DIMS = ["--T", "10", "--M", "5", "--N", "100"]
# kind -> (options, the library's draw of 7 at the same seed)
_ROUND_TRIP = {
    "gain": (_DIMS, lambda rng: sample_gain(_DP, rng, count=7)),
    "input": (_DIMS, lambda rng: sample_input(_DP, rng, count=7)),
    "unitary": (["--T", "4", "--M", "2"],
                lambda rng: sample_isotropic_unitary(4, 2, rng, count=7)),
    "wishart": (["--m", "3", "--n", "2", "--scale", "2.5"],
                lambda rng: sample_wishart(3, 2, 2.5, rng, count=7)),
    "beta": (["--m", "2", "--p", "3", "--n", "2"],
             lambda rng: sample_matrix_beta(2, 3, 2, rng, count=7)),
    "noiseless-sv": (_DIMS, lambda rng: noiseless_sv_sample(_DP, rng, count=7)),
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("kind", list(_ROUND_TRIP))
def test_sample_round_trips_bit_for_bit(capsys, kind, fmt):
    options, draw = _ROUND_TRIP[kind]
    code, out, _ = run_cli(capsys, ["sample", "--kind", kind, *options,
                                    "--count", "7", "--seed", "4", "--format", fmt])
    assert code == 0
    if fmt == "csv":
        header, rows = parse_csv(out)
        rows = [[float(v) for v in row] for row in rows]
    else:
        doc = strict_json(out)
        header, rows = doc["meta"]["columns"], doc["rows"]
    got = np.array(rows)
    x = draw(RngHandle(4))
    assert np.array_equal(got[:, 0], np.arange(7))
    if np.iscomplexobj(x):
        _, r, c = x.shape
        assert header == ["draw"] + [f"{part}_{i}_{j}" for i in range(r) for j in range(c)
                                     for part in ("re", "im")]
        re_im = got[:, 1:].reshape(7, r, c, 2)
        assert np.array_equal(re_im[..., 0], x.real)
        assert np.array_equal(re_im[..., 1], x.imag)
    else:
        prefix = {"gain": "d", "noiseless-sv": "sv"}[kind]
        assert header == ["draw"] + [f"{prefix}{i + 1}" for i in range(5)]
        assert np.array_equal(got[:, 1:], x)


@pytest.mark.parametrize("argv", [
    ["--kind", "noiseless-sv", "--T", "4", "--M", "2", "--N", "3"],
    ["--kind", "unitary", "--T", "4", "--M", "2"],
])
def test_sample_ustm_outside_gain_and_input_is_usage_error(capsys, argv):
    # only the gain and input draws depend on the gain law
    with pytest.raises(SystemExit) as exc:
        cli.main(["sample", *argv, "--ustm"])
    assert exc.value.code == 1
    cap = capsys.readouterr()
    assert cap.out == ""
    assert "--ustm" in cap.err


_REQUIRED = {"gain": "TMN", "input": "TMN", "unitary": "TM", "wishart": "mn",
             "beta": "mpn", "noiseless-sv": "TMN"}


@pytest.mark.parametrize("kind, missing", [
    (kind, opt) for kind, required in _REQUIRED.items() for opt in required])
def test_sample_missing_args_is_usage_error(capsys, kind, missing):
    given = [arg for opt in _REQUIRED[kind] if opt != missing
             for arg in (f"--{opt}", _VALUES[opt])]
    with pytest.raises(SystemExit) as exc:
        cli.main(["sample", "--kind", kind, *given])
    assert exc.value.code == 1
    cap = capsys.readouterr()
    assert cap.out == ""
    assert f"ncmimo sample: error: kind '{kind}' requires --{missing}\n" in cap.err


@pytest.mark.parametrize("snr_db", ["4000", "-4000", "inf", "-inf", "nan"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_gain_table_invalid_snr_is_domain_error(capsys, snr_db, fmt):
    # 10^(snr/10) overflows, underflows to 0 or is not a number: the whole
    # table is refused before any cell is written
    code, out, err = run_cli(capsys, ["gain-table", "--T-list", "10", "--N-list", "100",
                                      f"--snr-db={snr_db}", "--format", fmt])
    assert code == 2
    assert out == ""
    assert "ncmimo: error: snr_db" in err


def test_unknown_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 1


def test_negative_count_is_usage_error(capsys):
    for options in (["--kind", "unitary", "--T", "2", "--M", "1"],
                    ["--kind", "gain", "--T", "4", "--M", "2", "--N", "4"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(["sample", *options, "--count", "0"])
        assert exc.value.code == 1


# every sample kind, the constants and the gain table, each within 5 s: a
# digamma sum whose cost grows with M N takes seconds at N = 10^6
_STRICT_JSON = [
    ["sample", "--kind", "gain", *_DIMS, "--count", "3"],
    ["sample", "--kind", "input", *_DIMS, "--count", "3"],
    ["sample", "--kind", "unitary", "--T", "4", "--M", "2", "--count", "3"],
    ["sample", "--kind", "wishart", "--m", "3", "--n", "2", "--count", "3"],
    ["sample", "--kind", "beta", "--m", "2", "--p", "3", "--n", "2", "--count", "3"],
    ["sample", "--kind", "beta", "--m", "3", "--p", "4", "--n", "1", "--count", "3"],
    ["sample", "--kind", "noiseless-sv", *_DIMS, "--count", "3"],
    ["constants", *_DIMS],
    ["constants", "--T", "100", "--M", "50", "--N", "1000000"],
    ["gain-table", "--T-list", "4,10", "--N-list", "2,100"],
]


def test_json_output_structure(capsys):
    code, out, _ = run_cli(capsys, [
        "constants", "--T", "4", "--M", "2", "--N", "3", "--format", "json"])
    assert code == 0
    doc = strict_json(out)
    assert doc["meta"]["tool"].startswith("ncmimo")
    assert doc["meta"]["rng"] == "pcg64"
    assert doc["meta"]["config"]["T"] == 4
    assert len(doc["rows"]) == 1
    assert len(doc["rows"][0]) == len(doc["meta"]["columns"])
    for argv in _STRICT_JSON:
        t0 = time.perf_counter()
        code, out, _ = run_cli(capsys, argv + ["--format", "json"])
        assert code == 0 and time.perf_counter() - t0 < 5.0, argv
        doc = strict_json(out)
        assert doc["rows"] and all(len(r) == len(doc["meta"]["columns"]) for r in doc["rows"])


def test_out_file_matches_stdout(tmp_path, capsys):
    cases = [["gain-table", "--T-list", "10", "--N-list", "20,100"],
             ["sample", "--kind", "input", "--T", "4", "--M", "2", "--N", "3",
              "--count", "3", "--seed", "2"]]
    for argv in cases:
        for fmt in ("csv", "json"):
            argv_fmt = argv + ["--format", fmt]
            _, out, _ = run_cli(capsys, argv_fmt)
            path = tmp_path / f"{argv[0]}.{fmt}"
            code, out2, _ = run_cli(capsys, argv_fmt + ["--out", str(path)])
            assert code == 0
            assert out2 == ""  # nothing on stdout when writing a file
            data = path.read_bytes()
            assert b"\r" not in data  # LF endings
            assert data.endswith(b"\n")
            assert data == out.encode()  # both sinks get the same bytes
            # re-running to the same path is byte-identical
            run_cli(capsys, argv_fmt + ["--out", str(path)])
            assert path.read_bytes() == data


@pytest.mark.parametrize("argv", [
    ["constants", "--T", "10", "--M", "5", "--N", "100", "--bits"],
    ["constants", "--T", "10", "--M", "5", "--N", "100", "--format", "json"],
    ["gain-table", "--T-list", "4,10", "--N-list", "2,100"],
    ["sample", "--kind", "input", "--T", "4", "--M", "2", "--N", "4", "--count", "3"],
    ["sample", "--kind", "input", "--T", "4", "--M", "2", "--N", "4", "--count", "3",
     "--format", "json"],
    ["validate", "--suite", "convergence"],
], ids=["constants-csv", "constants-json", "gain-table", "input-csv", "input-json",
        "validate"])
def test_payload_bytes_do_not_depend_on_the_sink(tmp_path, capsys, argv):
    # --out picks the sink and is not echoed: stdout and two paths, of
    # different lengths in different directories, get the same bytes
    _, out, _ = run_cli(capsys, argv)
    (tmp_path / "x" / "y").mkdir(parents=True)
    for path in (tmp_path / "a.out", tmp_path / "x" / "y" / "b.csv"):
        assert run_cli(capsys, argv + ["--out", str(path)])[:2] == (0, "")
        assert path.read_bytes() == out.encode()


def _whole_list_payload(args, columns, rows, warnings_list=()):
    """The bytes of the whole-list encoding: json.dump's indenting encoder
    over every row at once, or each row's _cell join."""
    config = cli._config_echo(args)
    meta = {"tool": f"ncmimo {ncmimo.__version__}", "rng": RNG_ALGORITHM, "config": config,
            "columns": list(columns), "warnings": list(warnings_list)}
    if args.format == "json":
        return json.dumps({"meta": meta, "rows": list(rows)}, indent=2, sort_keys=True) + "\n"
    lines = [f"# tool: {meta['tool']}", f"# rng: {RNG_ALGORITHM}",
             f"# config: {json.dumps(config, sort_keys=True)}", ",".join(columns),
             *(",".join(map(cli._cell, row)) for row in rows),
             *(f"# warning: {w}" for w in warnings_list)]
    return "\n".join(lines) + "\n"


def assert_same_text(got, want):
    # a short report: pytest's own diff of two multi-megabyte payloads takes minutes
    if got != want:
        at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
                  min(len(got), len(want)))
        pytest.fail(f"{len(got)} against {len(want)} characters, first difference at {at}: "
                    f"{got[max(0, at - 60):at + 60]!r} against {want[max(0, at - 60):at + 60]!r}")


def _whole_stack_rows(args):
    # the sampled stack at once, complex entries split as (re, im) pairs
    x = cli._KINDS[args.kind][2](args, RngHandle(args.seed))
    flat = x.reshape(len(x), -1)
    if np.iscomplexobj(flat):
        flat = np.stack([flat.real, flat.imag], axis=-1).reshape(len(x), -1)
    return [[i] + row for i, row in enumerate(flat.tolist())]


def run_cli_with_oracle(capsys, monkeypatch, argv, rows_of=None):
    """Exit code and stdout of `argv`, and the whole-list encoding of what it
    emitted, with rows_of(args) in place of the emitted rows when given."""
    oracle = []
    emit = cli._emit

    def spy(args, columns, rows, warnings_list=()):
        oracle.append(_whole_list_payload(args, columns, rows if rows_of is None
                                          else rows_of(args), warnings_list))
        emit(args, columns, rows, warnings_list)

    monkeypatch.setattr(cli, "_emit", spy)
    code, out, _ = run_cli(capsys, argv)
    assert len(oracle) == 1
    return code, out, oracle[0]


# kind, options, count, values a row: every kind, then two counts that
# cross a chunk of rows
_BYTE_CASES = [(kind, _ROUND_TRIP[kind][0], 7, None) for kind in cli._KINDS] + [
    ("wishart", ["--m", "100", "--n", "100"], 13, 20_000),
    ("input", ["--T", "8", "--M", "2", "--N", "4"], 5000, 32),
]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("kind, options, count, width", _BYTE_CASES,
                         ids=[f"{k}-{c}" for k, _, c, _ in _BYTE_CASES])
def test_sample_bytes_match_whole_stack_encoding(capsys, monkeypatch, kind, options, count,
                                                 width, fmt):
    assert width is None or count * width > cli._CHUNK_VALUES
    code, out, want = run_cli_with_oracle(
        capsys, monkeypatch, ["sample", "--kind", kind, *options, "--count", str(count),
                              "--seed", "3", "--format", fmt], rows_of=_whole_stack_rows)
    assert code == 0
    assert_same_text(out, want)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv, marks", [
    (["constants", "--T", "10", "--M", "5", "--N", "100"], {"csv": [], "json": []}),
    # M=3 is rejected at T=4: a null or an empty CSV cell, and a warning line
    (["gain-table", "--T-list", "4,10", "--N-list", "5", "--M", "3"],
     {"csv": ["\n4,5,3,\n", "\n# warning: T=4 N=5 M=3: "],
      "json": ["      null\n", '"T=4 N=5 M=3: ']}),
    # an empty grid: the header alone, an empty JSON list
    (["gain-table", "--T-list", ",", "--N-list", "2"],
     {"csv": ["}\nT,N,M,gain\n"], "json": ['"rows": []\n}\n']}),
    (["validate", "--suite", "pdf-oracle", "--n", "2"], {"csv": [], "json": []}),
], ids=["constants", "gain-table-rejected-cell", "gain-table-empty", "validate"])
def test_list_rows_bytes_match_whole_list_encoding(capsys, monkeypatch, argv, marks, fmt):
    code, out, want = run_cli_with_oracle(capsys, monkeypatch, argv + ["--format", fmt])
    assert code == 0
    assert_same_text(out, want)
    assert all(mark in out for mark in marks[fmt])


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("rows", [
    [[0, float("nan"), float("inf"), -float("inf"), None, True, False, -0.0, 5e-324,
      1.7976931348623157e308, 2**70, 'quote " back \\ newline \n tab \t \u00e9 \u2028 \U0001f600']],
    [],
], ids=["special-values", "no-rows"])
def test_emit_matches_whole_list_encoding(capsys, rows, fmt):
    args = argparse.Namespace(format=fmt, out="-", seed=0)
    cli._emit(args, ["draw", "a"], rows, ["a \"warning\""])
    assert_same_text(capsys.readouterr().out,
                     _whole_list_payload(args, ["draw", "a"], rows, ["a \"warning\""]))


def test_validate_suite_passes(capsys):
    code, out, _ = run_cli(capsys, ["validate", "--suite", "pdf-oracle", "--n", "5"])
    assert code == 0
    header, rows = parse_csv(out)
    assert header[0] == "suite"
    assert all(r[5] == "true" for r in rows)


@pytest.mark.parametrize("suite, n", [
    ("pdf-oracle", "0"),             # zero cases
    ("power", "0"),
    ("power", "-3"),
    ("lemma4", "1"),                 # a KS test needs two draws
    ("convergence", "5"),            # fixed-size suites take no n
    ("density-normalization", "5"),
])
def test_validate_rejects_bad_n(capsys, suite, n):
    code, out, err = run_cli(capsys, ["validate", "--suite", suite, "--n", n])
    assert code == 2
    assert out == ""
    assert "ncmimo: error:" in err and f"n={n}" in err


@pytest.mark.parametrize("suite, n", [("lemma4", "20"), ("lemma5", "20"), ("power", "50"),
                                      ("pdf-oracle", "2"), ("density-normalization", None),
                                      ("convergence", None)])
def test_validate_rows_carry_the_seed(capsys, suite, n):
    # the run seed is the CLI's: a last column after the report fields
    fields = [f.name for f in dataclasses.fields(ncmimo.TestReport)]
    assert "seed" not in fields
    argv = ["validate", "--suite", suite, "--seed", "7"] + (["--n", n] if n else [])
    _, out, _ = run_cli(capsys, argv)
    header, rows = parse_csv(out)
    assert header == ["suite"] + fields + ["seed"]
    assert rows and all(r[-1] == "7" for r in rows)
    _, out, _ = run_cli(capsys, argv + ["--format", "json"])
    doc = strict_json(out)
    assert doc["meta"]["columns"] == header
    assert [r[-1] for r in doc["rows"]] == [7] * len(rows)


def test_unwritable_out_is_usage_error(capsys, tmp_path):
    path = tmp_path / "missing" / "out.csv"
    code, out, err = run_cli(capsys, ["constants", "--T", "4", "--M", "2", "--N", "4",
                                      "--out", str(path)])
    assert code == 1
    assert out == "" and "Traceback" not in err
    assert f"ncmimo: error: [Errno 2] No such file or directory: '{path}'" in err
    assert not path.parent.exists()


def test_closed_stdout_is_usage_error(capsys, monkeypatch):
    class BrokenPipe:
        def write(self, _):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", BrokenPipe())
    code = cli.main(["constants", "--T", "4", "--M", "2", "--N", "4"])
    assert code == 1
    assert "ncmimo: error: [Errno 32] Broken pipe" in capsys.readouterr().err


def test_stdout_closed_at_start_is_usage_error():
    # with descriptor 1 closed Python starts with sys.stdout = None
    src = str(Path(ncmimo.__file__).resolve().parents[1])
    proc = subprocess.run(
        ["sh", "-c", 'exec "$0" -m ncmimo.cli constants --T 4 --M 2 --N 4 >&-', sys.executable],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)))
    assert proc.returncode == 1
    assert "ncmimo: error: stdout is closed" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_validate_failure_exit_code(monkeypatch, capsys):
    from ncmimo import statcheck
    from ncmimo.statcheck import TestReport

    def forced_fail(n=None, seed=0):
        return [TestReport(name="forced", statistic=1.0, threshold=0.1,
                           p_value=None, passed=False, n_samples=1)]

    monkeypatch.setitem(statcheck.SUITES, "forced-fail", forced_fail)
    code, out, _ = run_cli(capsys, ["validate", "--suite", "forced-fail"])
    assert code == 3
    header, rows = parse_csv(out)
    assert rows[0][5] == "false"
    assert rows[0][4] == ""  # p_value None renders empty


def test_parser_is_built_once_per_process():
    assert cli.build_parser() is cli.build_parser()


def _without_clock(err):
    return "".join(ln for ln in err.splitlines(keepends=True)
                   if not ln.startswith("[ncmimo] wall clock"))


def _main_in_process(capsys, argv):
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # a usage error
        code = exc.code
    cap = capsys.readouterr()
    return code, cap.out, _without_clock(cap.err)


def _main_fresh(argv):
    proc = subprocess.run([sys.executable, "-m", "ncmimo.cli", *argv], capture_output=True,
                          text=True, env=_fresh_env(), timeout=120)
    return proc.returncode, proc.stdout, _without_clock(proc.stderr)


_INPUT = ["sample", "--kind", "input", "--T", "4", "--M", "2", "--N", "4", "--count", "2"]
_GAIN = ["sample", "--kind", "gain", "--T", "6", "--M", "3", "--N", "4", "--count", "3"]
_TABLE = ["gain-table", "--T-list", "4,6,10", "--N-list", "3,5"]


@pytest.mark.parametrize("first, code, then", [
    (_INPUT + ["--format", "json"], cli.EXIT_OK, _INPUT),
    (_GAIN + ["--ustm"], cli.EXIT_OK, _GAIN),
    (_TABLE + ["--M", "3"], cli.EXIT_OK, _TABLE),
    (_GAIN[:-1] + ["0"], cli.EXIT_USAGE, _GAIN),
    (["validate", "--suite", "pdf-oracle", "--n", "2"], cli.EXIT_OK,
     ["validate", "--suite", "pdf-oracle"]),
    (["validate", "--suite", "lemma4", "--n", "200"], cli.EXIT_OK,
     ["gain-table", "--T-list", "4,10", "--N-list", "2,100"]),
    # pdf-oracle above and these two evaluate densities through the node
    # record cache, so a wrongly keyed record shows as different bytes
    (["validate", "--suite", "density-normalization"], cli.EXIT_OK,
     ["validate", "--suite", "convergence"]),
], ids=["format", "ustm", "gain-table-M", "usage-error", "validate-n", "lemma4-gain-table",
        "quadrature-suites"])
def test_reused_parser_leaks_no_state(capsys, monkeypatch, first, code, then):
    # every call of one process shares the parser; each must print what the
    # same command prints from a fresh interpreter: exit code, payload and
    # stderr (a usage message is wrapped at $COLUMNS, so both sides fix it)
    monkeypatch.setenv("COLUMNS", "80")
    got = _main_in_process(capsys, first)
    assert got[0] == code
    assert got == _main_fresh(first)
    assert _main_in_process(capsys, then) == _main_fresh(then)


def test_suite_registered_after_the_parser_is_built_runs(monkeypatch, capsys):
    from ncmimo import statcheck
    from ncmimo.statcheck import report

    run_cli(capsys, ["constants", "--T", "4", "--M", "2", "--N", "4"])
    monkeypatch.setitem(statcheck.SUITES, "late",
                        lambda n=None, seed=0: [report("late row", 0.0, 1.0, 1)])
    code, out, _ = run_cli(capsys, ["validate", "--suite", "late"])
    assert code == 0
    header, rows = parse_csv(out)
    assert rows == [["late", "late row", "0.0", "1.0", "", "true", "1", "0"]]


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert "ncmimo" in capsys.readouterr().out
