"""Command-line interface contract tests.

Covers hand-checkable examples for every subcommand, the stable exit
codes (0 success / 2 input error / 3 parameter error / 4 audit failure),
byte-determinism of simulate-gp and audit artifacts, and a rank-invariance
property: the permutation emitted by ``rank`` is unchanged when the input
sample is mapped by a transformation from the invariance class of the
chosen depth.  The fuzz inputs live on a dyadic lattice (k/1024 with
|k| <= 8192) so every transformed value is exact in float64 and rank
comparisons are bit-for-bit reproducible.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import multiprocessing
import os
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path
from unittest import mock

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10 has no standard-library TOML reader
    tomllib = None

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import curvedepth.properties as P
from curvedepth import cli, core, depths
from curvedepth.core import (
    Grid,
    ParameterError,
    read_curves_csv,
    uniform_grid,
    write_curves_csv,
)
from curvedepth.depths import DEPTH_IDS
from curvedepth.distributions import GPSpec, Kernel, sample_gp
from test_properties import _reduced_config

N_FUZZ = 1000
SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(argv):
    """Invoke cli.main in-process; return (exit_code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def child_env():
    """Environment for a child interpreter that imports curvedepth from SRC."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    return env


def write_constant_curves(path, levels, m=11):
    grid = uniform_grid(0.0, 1.0, m)
    values = np.tile(np.asarray(levels, dtype=float)[:, None], (1, m))
    write_curves_csv(path, grid, values)
    return grid, values


@pytest.fixture()
def three_csv(tmp_path):
    path = tmp_path / "three.csv"
    write_constant_curves(path, [0.0, 1.0, 2.0])
    return path


@pytest.fixture()
def four_csv(tmp_path):
    path = tmp_path / "four.csv"
    write_constant_curves(path, [0.0, 1.0, 2.0, 100.0])
    return path


# ---------------------------------------------------------------------------
# depth
# ---------------------------------------------------------------------------


def test_depth_self_three_constants(three_csv):
    code, out, _ = run_cli(["depth", three_csv, "mhr"])
    assert code == 0
    obj = json.loads(out)
    assert obj["schema"] == 1
    assert obj["command"] == "depth"
    assert obj["n"] == 3
    assert obj["query"] == "self"
    # middle constant dominates/undercuts half of 3 on each side; extremes 1/3
    assert obj["values"] == [1.0 / 3.0, 2.0 / 3.0, 1.0 / 3.0]


def test_depth_query_file_matches_self(three_csv, tmp_path):
    code_self, out_self, _ = run_cli(["depth", three_csv, "mhr"])
    code_q, out_q, _ = run_cli(["depth", three_csv, "mhr", "--query", three_csv])
    assert code_self == 0 and code_q == 0
    assert json.loads(out_self)["values"] == json.loads(out_q)["values"]


def test_depth_query_grid_mismatch_is_input_error(three_csv, tmp_path):
    other = tmp_path / "other.csv"
    write_constant_curves(other, [1.0], m=7)
    code, _, err = run_cli(["depth", three_csv, "mhr", "--query", other])
    assert code == cli.EXIT_INPUT
    assert "grid" in err
    # same width, one point moved
    grid, values = write_constant_curves(other, [1.0])
    points = grid.points.copy()
    points[5] += 0.01
    write_curves_csv(other, Grid(points), values)
    code, _, err = run_cli(["depth", three_csv, "mhr", "--query", other])
    assert code == cli.EXIT_INPUT
    assert "grid" in err


def test_depth_formats(three_csv):
    code, out, _ = run_cli(["--format", "csv", "depth", three_csv, "mhr"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "index,value"
    assert len(lines) == 4
    code, out, _ = run_cli(["--format", "md", "depth", three_csv, "mhr"])
    assert code == 0
    assert out.startswith("| index | depth |")


# ---------------------------------------------------------------------------
# rank
# ---------------------------------------------------------------------------


def test_rank_three_constants(three_csv):
    code, out, _ = run_cli(["rank", three_csv, "mhr"])
    assert code == 0
    obj = json.loads(out)
    assert obj["ranks"] == [2, 1, 3]
    assert obj["deepest"] == 1


def test_rank_ties_break_by_index(tmp_path):
    path = tmp_path / "dup.csv"
    write_constant_curves(path, [5.0, 5.0, 5.0])
    code, out, _ = run_cli(["rank", path, "mhr"])
    obj = json.loads(out)
    assert code == 0
    assert obj["ranks"] == [1, 2, 3]
    assert obj["deepest"] == 0


# ---------------------------------------------------------------------------
# trim
# ---------------------------------------------------------------------------


def test_trim_alpha_zero_is_identity(four_csv):
    code, out, _ = run_cli(["trim", four_csv, "mhr", "--alpha", "0"])
    assert code == 0
    obj = json.loads(out)
    assert obj["n_dropped"] == 0
    assert obj["dropped"] == []
    assert obj["retained"] == [0, 1, 2, 3]


def test_trim_drops_lowest_depth_curves(four_csv, tmp_path):
    out_csv = tmp_path / "kept.csv"
    code, out, _ = run_cli(
        ["trim", four_csv, "mhr", "--alpha", "0.5", "--out", out_csv]
    )
    assert code == 0
    obj = json.loads(out)
    # depths are (1/4, 1/2, 1/2, 1/4): the two extreme constants go
    assert obj["n_dropped"] == 2
    assert obj["dropped"] == [0, 3]
    assert obj["retained"] == [1, 2]
    assert obj["mean"] == [1.5] * 11
    grid, kept = read_curves_csv(out_csv)
    assert kept.shape == (2, 11)
    assert np.array_equal(kept, np.tile([[1.0], [2.0]], (1, 11)))


# ---------------------------------------------------------------------------
# outliers
# ---------------------------------------------------------------------------


def test_outliers_flags_minimum_depth_ties(four_csv):
    code, out, _ = run_cli(["outliers", four_csv, "mhr", "--q", "0.3"])
    assert code == 0
    obj = json.loads(out)
    assert obj["values"] == [0.25, 0.5, 0.5, 0.25]
    # q-quantile of (.25,.25,.5,.5) at q=.3 is .25; the rule is inclusive,
    # so both minimum-depth curves are flagged
    assert obj["threshold"] == 0.25
    assert obj["flagged"] == [0, 3]


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_missing_input_file_exits_2(tmp_path):
    code, _, err = run_cli(["depth", tmp_path / "nope.csv", "mhr"])
    assert code == cli.EXIT_INPUT
    assert "input error" in err


def test_malformed_csv_exits_2(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("0.0,0.5,1.0\n1.0,2.0\n")  # ragged row
    code, _, err = run_cli(["depth", bad, "mhr"])
    assert code == cli.EXIT_INPUT
    assert "input error" in err


def test_nan_in_dense_input_exits_2(tmp_path):
    bad = tmp_path / "nan.csv"
    bad.write_text("0.0,0.5,1.0\n1.0,nan,2.0\n0.0,0.0,0.0\n")
    code, _, err = run_cli(["depth", bad, "mhr"])
    assert code == cli.EXIT_INPUT


# each is a bad curve CSV: (which file it is, its bytes, the message it must give)
CSV_INPUT_ERRORS = {
    "empty": ("sample", b"", "need a grid row"),
    "all-blank": ("sample", b"\n  \n\t\r\n", "need a grid row"),
    "0xff-after-64KiB": (
        "sample", b"0,0.5,1\n" + b"0.25,0.5,0.75\n" * 5000 + b"\xff\n", "not UTF-8 text"
    ),
    "grid-row-only": ("sample", b"\n0,0.5,1\n\n", "need a grid row"),
    "ragged-after-two-blanks": (
        "sample", b"0,0.5,1\r\n\r\n \n1,2\n", "bad.csv:4: 2 cells, expected 3"
    ),
    "garbage-query-cell": ("query", b"0,0.5,1\n1,fish,2\n", "unparseable cell"),
}


@pytest.mark.parametrize("case", CSV_INPUT_ERRORS.values(), ids=CSV_INPUT_ERRORS.keys())
def test_bad_csv_exits_2_with_one_line(three_csv, tmp_path, case):
    which, data, message = case
    bad = tmp_path / "bad.csv"
    bad.write_bytes(data)
    sample, query = (bad, three_csv) if which == "sample" else (three_csv, bad)
    proc = subprocess.run(
        [sys.executable, "-m", "curvedepth", "depth", str(sample), "h", "--query", str(query)],
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=60,
    )
    assert proc.returncode == cli.EXIT_INPUT, proc.stderr
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr and "UserWarning" not in proc.stderr
    (line,) = proc.stderr.splitlines()
    assert line.startswith("input error: ") and message in line, line


NOT_UTF8 = b"\xff\xfe0.0,\x9c1.0\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["rank", "{bad}", "h"],
        ["depth", "{good}", "h", "--query", "{bad}"],
        ["audit", "--config", "{bad}", "--out-dir", "{dir}"],
        ["simulate-gp", "{dir}/out.csv", "--spec", "{bad}"],
    ],
)
def test_non_utf8_input_exits_2(three_csv, tmp_path, argv):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(NOT_UTF8)
    paths = {"bad": bad, "good": three_csv, "dir": tmp_path}
    code, out, err = run_cli([a.format(**paths) for a in argv])
    assert code == cli.EXIT_INPUT
    assert "input error" in err and "UTF-8" in err
    assert out == ""


#: Spec files that name a kernel wrongly; each is an input error.
BAD_SPECS = {
    "string-variance": {"kernel": {"type": "se", "variance": "2", "length_scale": 0.2}},
    "bool-length-scale": {"kernel": {"type": "se", "variance": 2.0, "length_scale": True}},
    "unknown-kernel-key": {
        "kernel": {"type": "se", "variance": 2.0, "length_scale": 0.2, "lenght_scale": 5}
    },
    "unknown-top-level-key": {
        "kernel": {"type": "se", "variance": 2.0, "length_scale": 0.2},
        "mean": "typo.csv",
    },
    "missing-kernel-key": {"kernel": {"type": "se", "variance": 2.0}},
    "not-an-object": [{"type": "se", "variance": 2.0, "length_scale": 0.2}],
}


@pytest.mark.parametrize("spec", BAD_SPECS.values(), ids=BAD_SPECS.keys())
def test_simulate_gp_bad_spec_exits_2(tmp_path, spec):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out_csv = tmp_path / "out.csv"
    code, out, err = run_cli(["simulate-gp", out_csv, "--spec", spec_path])
    assert code == cli.EXIT_INPUT, err
    assert out == "" and err.startswith("input error:") and len(err.splitlines()) == 1
    assert not out_csv.exists()


@pytest.mark.parametrize("mean_csv", [5, None, ["mean.csv"]])
def test_simulate_gp_non_string_mean_csv_exits_2(tmp_path, mean_csv):
    spec = tmp_path / "spec.json"
    kernel = {"type": "se", "variance": 1.0, "length_scale": 0.2}
    spec.write_text(json.dumps({"kernel": kernel, "mean_csv": mean_csv}))
    code, _, err = run_cli(["simulate-gp", tmp_path / "out.csv", "--spec", spec])
    assert code == cli.EXIT_INPUT
    assert "mean_csv" in err


def test_unknown_depth_id_exits_3(three_csv):
    code, _, err = run_cli(["depth", three_csv, "xx"])
    assert code == cli.EXIT_PARAMS
    assert "parameter error" in err


def test_bad_bandwidth_exits_3(three_csv):
    code, _, err = run_cli(["depth", three_csv, "h", "--h", "0"])
    assert code == cli.EXIT_PARAMS


def test_tiny_bandwidth_exits_3(three_csv):
    # 2 h^2 underflows to 0 below h ~ 1.6e-162: the kernel would be 0 / 0
    code, out, err = run_cli(["depth", three_csv, "h", "--h", "1e-200"])
    assert code == cli.EXIT_PARAMS
    assert "parameter error" in err
    assert out == ""


def test_bad_alpha_exits_3(four_csv):
    code, _, err = run_cli(["trim", four_csv, "mhr", "--alpha", "1.0"])
    assert code == cli.EXIT_PARAMS


@pytest.mark.parametrize("q", ["0", "1", "1.5"])
def test_bad_quantile_exits_3(four_csv, q):
    code, _, err = run_cli(["outliers", four_csv, "mhr", "--q", q])
    assert code == cli.EXIT_PARAMS


def test_bd_tuple_budget_exits_3(tmp_path):
    # C(80, 4) = 1581580 subsets exceed the band depth's tuple budget
    path = tmp_path / "eighty.csv"
    write_constant_curves(path, np.arange(80.0))
    code, _, err = run_cli(["depth", path, "bd", "--J", 4])
    assert code == cli.EXIT_PARAMS
    assert "parameter error" in err


def test_rt_direction_budget_exits_3(three_csv):
    # 10**11 direction curves could never be allocated: fail before trying
    code, _, err = run_cli(["depth", three_csv, "rt", "--k", 10**11])
    assert code == cli.EXIT_PARAMS
    assert "lower k" in err


def test_negative_seed_exits_3(three_csv, tmp_path):
    empty, negative = tmp_path / "empty.json", tmp_path / "negative.json"
    empty.write_text("{}")
    negative.write_text('{"seed": -1}')
    out_csv = tmp_path / "out.csv"
    for argv in (
        ["--seed", -5, "depth", three_csv, "rt"],
        ["--seed", -1, "rank", three_csv, "h"],
        ["--seed", -1, "outliers", three_csv, "mhr"],
        ["--seed", -5, "simulate-gp", "--n", 2, out_csv],
        ["--seed", -5, "audit", "--config", empty, "--out-dir", tmp_path],
        ["audit", "--config", negative, "--out-dir", tmp_path],
    ):
        code, _, err = run_cli(argv)
        assert code == cli.EXIT_PARAMS, argv
        assert "seeds must be non-negative" in err, argv
    assert not out_csv.exists()
    assert not (tmp_path / "audit.json").exists()


@pytest.mark.parametrize("threads", [0, -3])
def test_non_positive_threads_exits_3(three_csv, threads, monkeypatch):
    for var in cli._THREAD_ENV_VARS:
        monkeypatch.setenv(var, "7")
    code, out, err = run_cli(["--threads", threads, "rank", three_csv, "mhr"])
    assert code == cli.EXIT_PARAMS
    assert "--threads must be >= 1" in err
    assert out == ""
    assert all(os.environ[var] == "7" for var in cli._THREAD_ENV_VARS)


def test_mbd_big_count_budget_exits_3(tmp_path):
    # n = 2000 curves on 101 points with J = 300: 294 band orders count
    # past int64 at every grid point; refused before any counting starts
    path = tmp_path / "many.csv"
    write_constant_curves(path, np.arange(2000.0), m=101)
    code, out, err = run_cli(["rank", path, "mbd", "--J", 300])
    assert code == cli.EXIT_PARAMS
    assert "int64" in err
    assert out == ""


def test_bd_order_three_triple_budget_exits_3_fast(tmp_path):
    # rank with J = 3 on n = 2000 curves is 2000 * C(2000, 3) = 2.7e12
    # triples, hours of counting; refused before any counting starts
    path = tmp_path / "many.csv"
    write_constant_curves(path, np.arange(2000.0), m=101)
    start = time.perf_counter()
    code, out, err = run_cli(["rank", path, "bd", "--J", 3])
    elapsed = time.perf_counter() - start
    assert code == cli.EXIT_PARAMS
    assert out == ""
    assert err.startswith("parameter error:") and err.count("\n") == 1
    assert "triples" in err and "Traceback" not in err
    assert elapsed < 1.0


def test_threads_flag_overrides_inherited_environment(three_csv, monkeypatch):
    for var in cli._THREAD_ENV_VARS:
        monkeypatch.setenv(var, "7")
    monkeypatch.setattr(core, "_kernel_threads", None)
    code, _, _ = run_cli(["--threads", 1, "depth", three_csv, "mhr"])
    assert code == 0
    assert all(os.environ[var] == "1" for var in cli._THREAD_ENV_VARS)
    assert core._kernel_threads == 1


def test_threads_flag_keeps_the_csv_read_in_one_process(tmp_path, monkeypatch):
    # a file that would be split over two forked workers is read in this
    # process under --threads 1, with the same stdout
    monkeypatch.setattr(core, "_kernel_threads", None)
    monkeypatch.setattr(core, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(core, "_CSV_SPAN_MIN_BYTES", 1)
    for var in cli._THREAD_ENV_VARS:
        monkeypatch.setenv(var, "1")
    path = tmp_path / "levels.csv"
    write_constant_curves(path, np.arange(40.0))
    with mock.patch.object(os, "fork", wraps=os.fork) as fork:
        code, split, err = run_cli(["depth", path, "mbd"])
    assert code == 0 and fork.call_count == 1, err
    monkeypatch.setattr(os, "fork", mock.Mock(side_effect=AssertionError("forked")))
    assert run_cli(["--threads", 1, "depth", path, "mbd"]) == (0, split, "")


def test_csv_that_cannot_be_opened_for_its_spans_exits_2(tmp_path, monkeypatch):
    # stat succeeds but open fails (a mode-000 file for a user other than
    # root): an input error, not a traceback
    monkeypatch.setattr(core, "_kernel_threads", None)
    monkeypatch.setattr(core, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(core, "_CSV_SPAN_MIN_BYTES", 1)
    path = tmp_path / "levels.csv"
    write_constant_curves(path, np.arange(40.0))

    def refuse(file, *args, **kwargs):
        if isinstance(file, (str, os.PathLike)) and os.fspath(file) == os.fspath(path):
            raise PermissionError(13, "Permission denied", os.fspath(file))
        return open(file, *args, **kwargs)

    monkeypatch.setattr(core, "open", refuse, raising=False)
    code, out, err = run_cli(["depth", path, "mbd"])
    assert (code, out) == (2, "")
    assert err.startswith(f"input error: cannot read {path}: ") and "Permission denied" in err


def test_threads_flag_caps_the_kernel_threads(tmp_path, monkeypatch):
    # an inherited one-thread BLAS leaves both CPUs to the h and mhr
    # kernels, which split a large batch over threads; --threads 1, or
    # BLAS on every CPU, keeps them on the calling thread, with the same
    # stdout
    monkeypatch.setattr(core, "_kernel_threads", None)
    monkeypatch.setattr(core, "_usable_cpus", lambda: 2)
    started = []

    class CountingThread(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(depths.threading, "Thread", CountingThread)
    grid = uniform_grid(0.0, 1.0, 101)
    path = tmp_path / "gp.csv"
    write_curves_csv(path, grid, sample_gp(GPSpec(Kernel("se", 1.0, 0.2), grid), 600, 3).values)
    outs = {}
    for blas, flags, threads in (("1", [], 2), ("1", ["--threads", 1], 0), (None, [], 0)):
        for var in cli._THREAD_ENV_VARS:
            if blas is None:
                monkeypatch.delenv(var, raising=False)
            else:
                monkeypatch.setenv(var, blas)
        for depth in ("h", "mhr"):
            code, out, err = run_cli([*flags, "rank", path, depth])
            assert code == 0, err
            outs.setdefault(depth, set()).add(out)
        assert len(started) == threads, (blas, flags)
        assert not any(t.is_alive() for t in started)
        started.clear()
        monkeypatch.setattr(core, "_kernel_threads", None)
    assert all(len(v) == 1 for v in outs.values())


# ---------------------------------------------------------------------------
# audit exit-code decision (synthetic reports; the full default audit runs
# once in the acceptance suite)
# ---------------------------------------------------------------------------


def _synthetic_report(pattern):
    matrix = {
        d: {
            p: P.Verdict(pattern[d][i], {"synthetic": True})
            for i, p in enumerate(P.PROPERTY_IDS)
        }
        for d in DEPTH_IDS
    }
    return P.AuditReport(matrix=matrix, seeds={}, params={}, timestamp="sha256:0")


def test_audit_exit_code_expected_pattern_is_zero():
    code, messages = cli._audit_exit_code(_synthetic_report(P.GOLDEN))
    assert code == cli.EXIT_OK
    assert messages == []


def test_audit_exit_code_mismatch_is_four_with_cell():
    pattern = {d: list(P.GOLDEN[d]) for d in DEPTH_IDS}
    pattern["h"][2] = P.VIOLATED  # expected satisfied
    code, messages = cli._audit_exit_code(_synthetic_report(pattern))
    assert code == cli.EXIT_AUDIT
    assert len(messages) == 1
    assert "mismatch h/P-3" in messages[0]


def test_audit_exit_code_under_powered_reported_first():
    pattern = {d: list(P.GOLDEN[d]) for d in DEPTH_IDS}
    pattern["rt"][5] = P.INAPPLICABLE
    pattern["mbd"][0] = P.VIOLATED  # also a mismatch; under-power wins
    code, messages = cli._audit_exit_code(_synthetic_report(pattern))
    assert code == cli.EXIT_AUDIT
    assert any("under-powered" in m and "rt/P-6" in m for m in messages)


def test_audit_cli_reduced_config_writes_deterministic_artifacts(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_reduced_config().to_json()))
    d1, d2 = tmp_path / "run1", tmp_path / "run2"
    code1, out1, err1 = run_cli(
        ["audit", "--config", cfg_path, "--out-dir", d1]
    )
    code2, out2, err2 = run_cli(
        ["audit", "--config", cfg_path, "--out-dir", d2]
    )
    assert code1 == code2
    assert code1 in (cli.EXIT_OK, cli.EXIT_AUDIT)
    if code1 == cli.EXIT_OK:
        assert err1 == ""
    else:
        assert err1 != ""
    assert (d1 / "audit.json").read_bytes() == (d2 / "audit.json").read_bytes()
    report = json.loads((d1 / "audit.json").read_text())
    assert report["schema"] == 1
    md = (d1 / "audit.md").read_text()
    assert "| depth |" in md
    assert "| depth |" in out1


def test_audit_cli_int_and_float_config_write_equal_bytes(tmp_path):
    # a JSON integer in a float field is read as that float
    outputs = []
    for i, text in enumerate(
        [_reduced_config_text(h=1, p4_deltas=[1, 0.1, 0.01]),
         _reduced_config_text(h=1.0, p4_deltas=[1.0, 0.1, 0.01])]
    ):
        cfg, out_dir = tmp_path / f"cfg{i}.json", tmp_path / f"run{i}"
        cfg.write_text(text)
        code, _, err = run_cli(["audit", "--config", cfg, "--out-dir", out_dir])
        assert code in (cli.EXIT_OK, cli.EXIT_AUDIT), err
        outputs.append((out_dir / "audit.json").read_bytes())
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["params"]["h"] == 1.0


#: Config texts that must fail at the parse boundary, before any audit work:
#: unparseable JSON, values of the wrong JSON type, unknown keys.
BAD_CONFIGS = [
    "{not json",
    '{"n": "abc"}',
    '{"n": true}',
    '{"n": 2000.0}',
    '{"h": null}',
    '{"p2g_kernels": 5}',
    '{"p2g_kernels": [{"type": "se", "scale": 1.0}]}',
    '{"kernel": {"type": "se", "variance": "x"}}',
    '{"conv_ns": [100, "x"]}',
    '{"h": 1%s}' % ("0" * 400),  # an int beyond float64 range
    '{"m": 51}',
    '{"grid": {"m": 51, "z": 1}}',
    '{"grid": [0, 1]}',
    "[1, 2]",
]


def test_audit_cli_bad_config_file_exits_2(tmp_path):
    # each assertion message names the failing text
    cfg = tmp_path / "cfg.json"
    for text in BAD_CONFIGS:
        cfg.write_text(text)
        code, _, err = run_cli(["audit", "--config", cfg, "--out-dir", tmp_path])
        assert code == cli.EXIT_INPUT, text
        assert "input error" in err, text


def test_audit_cli_unwritable_out_dir_exits_2(tmp_path):
    # a regular file where a directory is needed; rejected before the run
    blocker = tmp_path / "file"
    blocker.write_text("")
    code, _, err = run_cli(["audit", "--out-dir", blocker / "sub"])
    assert code == cli.EXIT_INPUT
    assert "input error" in err


# ---------------------------------------------------------------------------
# simulate-gp / reconstruct / CSV round-trip
# ---------------------------------------------------------------------------


def test_simulate_gp_unwritable_output_exits_2(tmp_path):
    code, _, err = run_cli(["simulate-gp", tmp_path / "absent" / "gp.csv", "--m", 11])
    assert code == cli.EXIT_INPUT
    assert "input error" in err


def test_simulate_gp_single_grid_point_exits_3(tmp_path):
    code, _, err = run_cli(["simulate-gp", tmp_path / "gp.csv", "--m", 1])
    assert code == cli.EXIT_PARAMS
    assert "parameter error" in err
    # domains that cannot hold the grid: an infinite length, an infinite end,
    # and an interval too short for five distinct float64 points
    out_csv = tmp_path / "gp.csv"
    for domain in (
        ["--a=-1e308", "--b", "1e308"],
        ["--a=-inf"],
        ["--b", "inf"],
        ["--a", "1", "--b", "1.0000000000000002"],
    ):
        code, _, err = run_cli(["simulate-gp", out_csv, "--n", 3, "--m", 5, *domain])
        assert code == cli.EXIT_PARAMS, (domain, err)
        assert err.startswith("parameter error:"), (domain, err)
        assert not out_csv.exists()


@pytest.mark.parametrize(
    "sizes", [["--n", 10**11], ["--n", 5, "--m", 10**11]], ids=["huge-n", "huge-m"]
)
def test_simulate_gp_size_budget_exits_3(tmp_path, sizes):
    # an (n, m) sample or (m, m) kernel matrix this large could never be
    # allocated: fail before the grid is built
    out_csv = tmp_path / "gp.csv"
    code, _, err = run_cli(["simulate-gp", *sizes, out_csv])
    assert code == cli.EXIT_PARAMS
    assert "parameter error" in err
    assert not out_csv.exists()


def _reduced_config_text(**overrides) -> str:
    obj = _reduced_config().to_json()
    obj.update(overrides)
    return json.dumps(obj)


#: Kernel parameters that break the covariance matrix.  The first case's
#: jitter start underflows to 0; before the ladder had a fixed step count it
#: looped for ever, so every case runs in a child process under a timeout.
BAD_KERNELS = {
    "tiny-variance": ["--variance", "5e-324"],
    "se-huge-ls": ["--length-scale", "1e200"],
    "se-tiny-ls": ["--length-scale", "1e-200"],
    "se-subnormal-ls": ["--length-scale", "1e-160"],
    # 1 / (2 ls^2) is finite, but the domain's largest lag squared over it is not
    "se-lag-overflow": ["--length-scale", "1e-154", "--b", "100"],
    "cosine-tiny-period": ["--kernel-type", "cosine", "--length-scale", "1e-9"],
    "audit-se-huge-ls": {"kernel": {"length_scale": 1e200}},
    "audit-tiny-variance": {
        "p2g_kernels": [{"type": "se", "variance": 5e-324, "length_scale": 0.2}]
    },
}


@pytest.mark.parametrize("case", BAD_KERNELS.values(), ids=BAD_KERNELS.keys())
def test_bad_kernel_exits_3_without_traceback(tmp_path, case):
    if isinstance(case, dict):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(_reduced_config_text(**case))
        argv = ["audit", "--config", str(cfg), "--out-dir", str(tmp_path)]
    else:
        argv = ["simulate-gp", str(tmp_path / "gp.csv"), "--n", "2", "--m", "50", *case]
    proc = subprocess.run(
        [sys.executable, "-m", "curvedepth", *argv],
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=60,
    )
    assert proc.returncode == cli.EXIT_PARAMS, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert "parameter error" in proc.stderr


def test_simulate_gp_ignores_inherited_thread_count(tmp_path):
    # a 3000 x 201 draw rounds differently with two BLAS threads than with
    # one; the CLI pins one thread, so both runs write the same bytes.  A
    # 1-core box cannot show the difference, and there this test passes
    # without exercising the pin.
    outputs = []
    for threads in ("1", "2"):
        env = child_env()
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = threads
        out_csv = tmp_path / f"gp{threads}.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "curvedepth", "simulate-gp", str(out_csv),
             "--n", "3000", "--m", "201"],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(out_csv.read_bytes())
    assert outputs[0] == outputs[1]


def test_reconstruct_unwritable_output_exits_2(three_csv, tmp_path):
    code, _, err = run_cli(["reconstruct", three_csv, tmp_path])  # a directory
    assert code == cli.EXIT_INPUT
    assert "input error" in err


def test_simulate_gp_is_byte_deterministic(tmp_path):
    a, b, c = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"
    assert run_cli(["--seed", 7, "simulate-gp", a, "--n", 4, "--m", 31])[0] == 0
    assert run_cli(["--seed", 7, "simulate-gp", b, "--n", 4, "--m", 31])[0] == 0
    assert run_cli(["--seed", 8, "simulate-gp", c, "--n", 4, "--m", 31])[0] == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


#: sha256 of ``--seed 7 simulate-gp out.csv --n 2000 --m 101``, recorded
#: from the per-cell CSV writer in ``tests/csv_reference.py``
SIMULATE_GP_SEED7_SHA256 = "d120534c26b54e3340f6116e93324429bbb1d052c4dd791d295caad07bcca33f"


def test_simulate_gp_bytes_pinned(tmp_path):
    out_csv = tmp_path / "out.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "curvedepth", "--seed", "7", "simulate-gp", str(out_csv),
         "--n", "2000", "--m", "101"],
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(out_csv.read_bytes()).hexdigest() == SIMULATE_GP_SEED7_SHA256


# ---------------------------------------------------------------------------
# stdout bytes of every subcommand on a small fixed input
# ---------------------------------------------------------------------------

#: argv of each subcommand on the files ``_write_pin_inputs`` makes; the
#: paths are relative because the payloads echo them
PIN_COMMANDS = {
    "depth-self": ["depth", "pin.csv", "mbd", "--h", "0.5", "--J", "3", "--k", "5"],
    "depth-query": ["depth", "pin.csv", "mbd", "--query", "query.csv"],
    "rank": ["rank", "pin.csv", "mbd"],
    "trim": ["trim", "pin.csv", "mbd", "--alpha", "0.34", "--out", "kept.csv"],
    "outliers": ["outliers", "pin.csv", "mbd", "--q", "0.3"],
    "simulate-gp": ["simulate-gp", "gp.csv", "--n", "3", "--m", "5"],
    "reconstruct": ["reconstruct", "sparse.csv", "dense.csv"],
}

#: sha256 of stdout for ``--seed 7 --format <fmt>`` plus each PIN_COMMANDS
#: argv, recorded before the JSON payloads went through one shared encoder
STDOUT_SHA256 = {
    ("depth-self", "json"): "0044112fc04763baa5129f3e735a319a06a300f7321b8744dfb8d06968d1ee4c",
    ("depth-self", "csv"): "c07cc6dd5f918c8b0edd63da4c967f54eac00499cd71c910033db8cc56a20ab8",
    ("depth-self", "md"): "c5738481684e0d5885a4573b49017c0f91a39b8174068a49345ee0523394e5c9",
    ("depth-query", "json"): "016e3847526dbb844c7ce78e66871446d9e3950bd5748c606f328ef8de710bed",
    ("depth-query", "csv"): "9d9e421481b72d959077b7efdb44696634578167a9475f490573c6adfd4fea5d",
    ("depth-query", "md"): "d5dd951df1efe11afadd5ee31f6bf6597155033d8a7b294609037b56be8cdf95",
    ("rank", "json"): "62493e67ff72776985c4f11d66b3914cc4db2b351fa907c421ac417e8ff6158c",
    ("rank", "csv"): "74e6e4447dad2b06cc5024e87d2257f10b5a7b50f2107a4f3527a936b8255f5c",
    ("rank", "md"): "4e2ab3a758f1b7d0148feb59e8a1c2d4cbba865f8e2292449df3c0bf9b2f15d5",
    ("trim", "json"): "ce83746fdc76dbcf16e734f72e677d446173e74c5d1a6aaf0f5d25d42de0fec9",
    ("trim", "csv"): "48b508be07cb40fe21db4bb54443d53a628c8ff9bfadbd561ed96951feeb0507",
    ("trim", "md"): "42ebae137ba5a5783f11e0c65640676484b1db028c7c68e708635afe432eabc1",
    ("outliers", "json"): "09c2987be0b5cc3a7d4bc5f2f0aa3076aa1544081473661520263baa516ff061",
    ("outliers", "csv"): "db473c8420af4eddb1e7be06d4d7434ad669d97d989f0d0f79ebfb9f508c2be0",
    ("outliers", "md"): "82d063aaf242e28d338263280b63b0830b6f9d66dcebf6145378c2173f2ffc4d",
    ("simulate-gp", "json"): "ede011012c7ee3303294c4d78b8660b2a693dd868d3dff3e7bd08d98595bb2fe",
    ("simulate-gp", "csv"): "7a2fd7418e4afa9c01f5bf55dd86740a0eb0256cbdc148a538b79f04b9d81fb6",
    ("simulate-gp", "md"): "9ebb1ac553dcbbbd3541be9fb47ecdeb086e5a30c33d2c9c110c71d947da3683",
    ("reconstruct", "json"): "99089608fdbf6b385a288600b00bd0166aeae6531e7361367fc032cdb673e970",
    ("reconstruct", "csv"): "d6914d91282de2c0dd71ca4476fb25a446088831508120f5a3d1ad0c9abcbe60",
    ("reconstruct", "md"): "2fd449aa19ec3cb3af465c1759881dbd3895801bd2ce13e3b806ae299398f185",
}


def _write_pin_inputs(directory: Path) -> None:
    """Six curves on seven points, built from integers so every value is
    exact, plus three query curves and a NaN-masked copy for reconstruct."""
    grid = uniform_grid(0.0, 1.0, 7)
    values = ((np.arange(6)[:, None] * 5 + np.arange(7) * 3) % 7) / 3.0 - 1.0
    queries = np.vstack([values[:2].mean(axis=0), np.zeros(7), values[5] + 0.25])
    sparse = values.copy()
    sparse[::2, 2:5] = np.nan
    write_curves_csv(directory / "pin.csv", grid, values)
    write_curves_csv(directory / "query.csv", grid, queries)
    write_curves_csv(directory / "sparse.csv", grid, sparse)


@pytest.mark.parametrize("fmt", ["json", "csv", "md"])
@pytest.mark.parametrize("name", list(PIN_COMMANDS))
def test_stdout_bytes_pinned(tmp_path, monkeypatch, name, fmt):
    monkeypatch.chdir(tmp_path)
    _write_pin_inputs(tmp_path)
    code, out, err = run_cli(["--seed", "7", "--format", fmt, *PIN_COMMANDS[name]])
    assert code == cli.EXIT_OK, err
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == STDOUT_SHA256.get((name, fmt)), f"{name} {fmt} {digest}"


#: sha256 of audit.json and audit.md for ``audit --config cfg.json`` with the
#: reduced config (one BLAS thread, as the CLI pins it)
REDUCED_AUDIT_SHA256 = {
    "audit.json": "b653ef0c45fe7d8f28687ce87dc9f892d667c5b4a85040236f35e270cd67af10",
    "audit.md": "d8d55049fdb16fa8b0fd2a0111a17fcf2437154682436d4694974f8dd894fd29",
}


def test_reduced_audit_artifact_bytes_pinned(tmp_path):
    (tmp_path / "cfg.json").write_text(json.dumps(_reduced_config().to_json()))
    proc = subprocess.run(
        [sys.executable, "-m", "curvedepth", "audit", "--config", "cfg.json",
         "--out-dir", "out"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=child_env(),
        timeout=300,
    )
    assert proc.returncode in (cli.EXIT_OK, cli.EXIT_AUDIT), proc.stderr
    digests = {
        name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
        for name in ("audit.json", "audit.md")
    }
    assert digests == REDUCED_AUDIT_SHA256
    assert proc.stdout == (tmp_path / "out" / "audit.md").read_text() + "\n"


def test_simulate_gp_spec_file(tmp_path):
    from curvedepth.distributions import GPSpec, Kernel, gpspec_to_json

    spec = GPSpec(Kernel("cosine", 1.0, 1.0), uniform_grid(0.0, 1.0, 21))
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(gpspec_to_json(spec)))
    out_csv = tmp_path / "gp.csv"
    code, out, _ = run_cli(
        ["simulate-gp", out_csv, "--n", 3, "--spec", spec_path, "--m", 21]
    )
    assert code == 0
    grid, values = read_curves_csv(out_csv)
    assert values.shape == (3, 21)
    assert grid.m == 21


def test_simulate_gp_round_trips_bit_exactly(tmp_path):
    src = tmp_path / "src.csv"
    run_cli(["--seed", 3, "simulate-gp", src, "--n", 5, "--m", 41])
    grid, values = read_curves_csv(src)
    copy = tmp_path / "copy.csv"
    write_curves_csv(copy, grid, values)
    assert src.read_bytes() == copy.read_bytes()


def test_reconstruct_linear_curves_exactly(tmp_path):
    grid = uniform_grid(0.0, 1.0, 11)
    truth = np.tile(2.0 * grid.points + 1.0, (2, 1))
    sparse = truth.copy()
    sparse[0, 3] = np.nan
    sparse[0, 7] = np.nan
    sparse[1, 5] = np.nan
    src, dst = tmp_path / "sparse.csv", tmp_path / "filled.csv"
    write_curves_csv(src, grid, sparse)
    code, out, _ = run_cli(["reconstruct", src, dst])
    assert code == 0
    obj = json.loads(out)
    assert obj["observed_fraction"] == [9 / 11, 10 / 11]
    _, filled = read_curves_csv(dst)
    assert np.array_equal(filled, truth)


def test_reconstruct_feeds_depth(tmp_path):
    grid = uniform_grid(0.0, 1.0, 11)
    values = np.tile([[0.0], [1.0], [2.0]], (1, 11))
    sparse = values.copy()
    sparse[1, 4] = np.nan
    src, dst = tmp_path / "s.csv", tmp_path / "f.csv"
    write_curves_csv(src, grid, sparse)
    assert run_cli(["reconstruct", src, dst])[0] == 0
    code, out, _ = run_cli(["depth", dst, "mhr"])
    assert code == 0
    assert json.loads(out)["values"] == [1.0 / 3.0, 2.0 / 3.0, 1.0 / 3.0]


@pytest.mark.parametrize(
    "text, code",
    [
        ("[1]", cli.EXIT_INPUT),
        ('{"n": "abc"}', cli.EXIT_INPUT),
        ('{"n": 0}', cli.EXIT_PARAMS),
        # draws past the Gaussian-process size budget: the grid itself could
        # not be allocated, and the Rice draw comes last in the audit
        pytest.param('{"grid": {"m": 1000000000000}}', cli.EXIT_PARAMS, id="huge-grid"),
        pytest.param('{"rice_m": 1000000000000}', cli.EXIT_PARAMS, id="huge-rice-grid"),
        # an empty ladder leaves P-4 no neighbourhood to report as its witness
        pytest.param('{"p4_deltas": []}', cli.EXIT_PARAMS, id="empty-p4-deltas"),
        # JSON's NaN and Infinity literals, which no range check would catch
        pytest.param('{"p4_deltas": [NaN]}', cli.EXIT_PARAMS, id="nan-p4-deltas"),
        pytest.param(
            '{"p4_deltas": [Infinity, 0.1]}', cli.EXIT_PARAMS, id="infinite-p4-deltas"
        ),
        pytest.param('{"p4_eps": [NaN]}', cli.EXIT_PARAMS, id="nan-p4-eps"),
        pytest.param('{"grid": {"b": Infinity}}', cli.EXIT_PARAMS, id="infinite-grid-end"),
        # a negative epsilon makes up violations, an empty list tests nothing
        pytest.param('{"p4_eps": [-0.5]}', cli.EXIT_PARAMS, id="negative-p4-eps"),
        pytest.param('{"p4_eps": []}', cli.EXIT_PARAMS, id="empty-p4-eps"),
        pytest.param('{"eps_ladder": []}', cli.EXIT_PARAMS, id="empty-eps-ladder"),
        # a repeated ladder entry: ragged P-6 lists, or one epsilon counted twice
        pytest.param('{"conv_ns": [100, 100, 200]}', cli.EXIT_PARAMS, id="repeated-conv-size"),
        pytest.param('{"eps_ladder": [0.2, 0.2]}', cli.EXIT_PARAMS, id="repeated-eps"),
        pytest.param('{"p4_deltas": [0.5, 0.5, 0.1]}', cli.EXIT_PARAMS, id="repeated-delta"),
        # a finite domain whose length overflows float64
        pytest.param(
            '{"grid": {"a": -1e308, "b": 1e308}}', cli.EXIT_PARAMS, id="overflowing-domain"
        ),
        # band order 3 on P-6's 25 600-curve reference: past the triple budget
        pytest.param('{"J": 3}', cli.EXIT_PARAMS, id="band-triple-budget"),
        # band order 3 within every budget (P-2G and P-6 are skipped), but
        # P-4's two-atom counterexample is a sample of two curves
        pytest.param(
            '{"J": 3, "min_n": 5000, "p4_perturbations": 20, "replicates": 2}',
            cli.EXIT_PARAMS,
            id="band-order-past-p4-two-atom-sample",
        ),
    ],
)
def test_audit_cli_bad_config_exits_before_the_audit(tmp_path, text, code):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    out_dir = tmp_path / "out"
    got, out, err = run_cli(["audit", "--config", cfg, "--out-dir", out_dir])
    assert got == code, err
    assert out == "" and len(err.splitlines()) == 1, err
    if code == cli.EXIT_PARAMS:
        assert err.startswith("parameter error:"), err
    assert not out_dir.exists()


def _report_kernel_threads(*args, **kwargs):
    # module level, so a worker process can unpickle it by name
    raise ParameterError(f"kernel threads: {core._kernel_threads}")


def _raise_injected(*args, **kwargs):
    # module level, so a worker process can unpickle it by name
    raise ParameterError("injected")


def _raise_later(*args, **kwargs):
    raise ParameterError("later")


@pytest.mark.parametrize(
    "patches",
    [
        {"audit_P2G": _raise_injected},
        {"rice_mc_diagnostic": _raise_injected},
        # the Rice diagnostic starts first but comes last in the serial order
        {"audit_P2G": _raise_injected, "rice_mc_diagnostic": _raise_later},
    ],
    ids=["cell", "rice", "first-in-serial-order"],
)
def test_audit_worker_error_keeps_exit_code_contract(tmp_path, monkeypatch, capfd, patches):
    # forked workers inherit the patched module attributes
    for name, fn in patches.items():
        monkeypatch.setattr(P, name, fn)
    with pytest.raises(ParameterError, match="injected"):
        P.run_full_audit(_reduced_config())
    assert multiprocessing.active_children() == []
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_reduced_config().to_json()))
    code, out, err = run_cli(["audit", "--config", cfg, "--out-dir", tmp_path / "out"])
    assert code == cli.EXIT_PARAMS
    assert err.splitlines() == ["parameter error: injected"]
    assert "Traceback" not in err + capfd.readouterr().err
    assert multiprocessing.active_children() == []


def test_audit_workers_run_their_kernels_on_one_thread(monkeypatch):
    # the pool already runs one process per CPU; the parent keeps its cap
    monkeypatch.setattr(core, "_kernel_threads", None)
    monkeypatch.setattr(P, "audit_P2G", _report_kernel_threads)
    with pytest.raises(ParameterError, match="kernel threads: 1$"):
        P.run_full_audit(_reduced_config())
    assert core._kernel_threads is None
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("depth_id", DEPTH_IDS)
def test_short_domain_gives_depths_for_every_depth(tmp_path, depth_id):
    # L2 norms scale with the square root of the domain length, so rt's
    # direction norms on [0, 1e-30] are near 1e-15 and still valid
    path = tmp_path / "short.csv"
    values = ((np.arange(8)[:, None] * 3 + np.arange(6) * 5) % 7) / 2.0
    write_curves_csv(path, Grid(np.linspace(0.0, 1e-30, 6)), values)
    for command in ("depth", "rank"):
        code, out, err = run_cli([command, path, depth_id])
        assert code == cli.EXIT_OK, (command, err)
        depths = json.loads(out)["values"]
        assert len(depths) == 8 and all(0.0 <= v <= 1.0 for v in depths), depths


@pytest.mark.parametrize("n_curves", [3, 1000])
def test_closed_stdout_exits_2_without_traceback(tmp_path, n_curves):
    # 3 curves print less than one stdout buffer, so the write fails at the
    # final flush; 1000 curves fail inside the print itself
    path = tmp_path / "s.csv"
    write_constant_curves(path, np.arange(float(n_curves)))
    env = child_env()
    env.pop("PYTHONUNBUFFERED", None)  # keep stdout block-buffered
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the first write
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "curvedepth", "--format", "csv",
             "depth", str(path), "h", "--h", "1e-5"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == cli.EXIT_INPUT, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "Exception ignored" not in proc.stderr


# ---------------------------------------------------------------------------
# console script: the entry point that pyproject.toml declares, started as
# the installed wrapper starts it, and the installed script if there is one
# ---------------------------------------------------------------------------


def declared_entry_point_argv():
    """argv that runs the ``[project.scripts]`` target of ``curvedepth`` the
    way the installed wrapper does: the target is called with no arguments,
    so it reads ``sys.argv`` itself."""
    with open(SRC.parent / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["curvedepth"]
    module, _, func = target.partition(":")
    code = (
        f"import sys; from {module} import {func}; "
        f"sys.argv[0] = 'curvedepth'; sys.exit({func}())"
    )
    return [sys.executable, "-c", code]


def test_console_script_runs(three_csv):
    commands = []  # (argv prefix, environment)
    if tomllib is not None:
        commands.append((declared_entry_point_argv(), child_env()))
    exe = shutil.which("curvedepth")
    if exe is not None:
        commands.append(([exe], None))
    if not commands:
        pytest.skip("no tomllib (Python < 3.11) and no curvedepth on the PATH")
    for argv, env in commands:
        proc = subprocess.run(
            [*argv, "depth", str(three_csv), "mhr"],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["values"] == [1.0 / 3.0, 2.0 / 3.0, 1.0 / 3.0]


# ---------------------------------------------------------------------------
# property: rank permutation invariant under the depth's invariance class
# ---------------------------------------------------------------------------

_LATTICE = st.integers(min_value=-8192, max_value=8192)


@st.composite
def rank_invariance_case(draw):
    n = draw(st.integers(3, 6))
    m = draw(st.integers(5, 9))
    rows = draw(
        st.lists(
            st.lists(_LATTICE, min_size=m, max_size=m), min_size=n, max_size=n
        )
    )
    values = np.asarray(rows, dtype=float) / 1024.0
    depth_id = draw(st.sampled_from(DEPTH_IDS))
    seed = draw(st.integers(0, 2**16 - 1))
    if depth_id == "h":
        # the kernel depth sees only pairwise L2 distances, so a common
        # translation reproduces every depth value exactly
        shift = draw(_LATTICE) / 1024.0
        mapped = values + shift
        label = f"h translate {shift}"
    elif depth_id == "rt":
        # positive scaling multiplies every projection by the same
        # power of two, preserving all one-sided counts
        a = draw(st.sampled_from((0.25, 4.0)))
        mapped = a * values
        label = f"rt scale {a}"
    else:
        # order-based depths are invariant under x -> a*x + b, a != 0
        a = draw(st.sampled_from((4.0, 0.25, -4.0, -0.25)))
        b = (
            np.asarray(draw(st.lists(_LATTICE, min_size=m, max_size=m)), float)
            / 1024.0
        )
        mapped = a * values + b
        label = f"{depth_id} affine {a}"
    return depth_id, seed, values, mapped, label


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("rank-fuzz")


@settings(max_examples=N_FUZZ, deadline=None)
@given(case=rank_invariance_case())
def test_fuzz_rank_invariant_under_depth_invariance_class(fuzz_dir, case):
    depth_id, seed, values, mapped, label = case
    grid = uniform_grid(0.0, 1.0, values.shape[1])
    base_path = fuzz_dir / "base.csv"
    mapped_path = fuzz_dir / "mapped.csv"
    write_curves_csv(base_path, grid, values)
    write_curves_csv(mapped_path, grid, mapped)
    code1, out1, _ = run_cli(["--seed", seed, "rank", base_path, depth_id])
    code2, out2, _ = run_cli(["--seed", seed, "rank", mapped_path, depth_id])
    assert code1 == 0 and code2 == 0
    r1, r2 = json.loads(out1), json.loads(out2)
    assert r1["ranks"] == r2["ranks"], label
    assert r1["deepest"] == r2["deepest"], label


# ---------------------------------------------------------------------------
# property: exit-code contract (0 success, 2 input error, 3 parameter error)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def contract_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("exit-codes") / "sample.csv"
    write_constant_curves(path, [0.0, 1.0, 2.0], m=7)
    return path


@st.composite
def exit_code_case(draw):
    command = draw(st.sampled_from(("depth", "rank", "trim", "outliers")))
    depth_id = draw(st.sampled_from(DEPTH_IDS + ("xx", "BD", "")))
    h = draw(st.sampled_from((1.0, 0.5, 0.0, -1.0)))
    J = draw(st.sampled_from((2, 3, 1, 0)))
    k = draw(st.sampled_from((1, 20, 0, -2)))
    alpha = draw(st.sampled_from((0.0, 0.5, 0.99, 1.0, -0.1, 2.0)))
    q = draw(st.sampled_from((0.1, 0.5, 0.9, 0.0, 1.0, -0.3)))
    missing_file = draw(st.booleans())
    out = None
    if command == "trim":
        out = draw(st.sampled_from((None, "ok", "no-dir", "is-dir")))
    params_ok = depth_id in DEPTH_IDS and h > 0 and J >= 2 and k >= 1
    # trim/outliers validate their own flag before touching the file;
    # the file is read before depth parameters everywhere, and trim
    # writes its output last
    if command == "trim" and not 0.0 <= alpha < 1.0:
        expected = cli.EXIT_PARAMS
    elif command == "outliers" and not 0.0 < q < 1.0:
        expected = cli.EXIT_PARAMS
    elif missing_file:
        expected = cli.EXIT_INPUT
    elif not params_ok:
        expected = cli.EXIT_PARAMS
    elif out in ("no-dir", "is-dir"):
        expected = cli.EXIT_INPUT
    else:
        expected = cli.EXIT_OK
    return command, depth_id, h, J, k, alpha, q, missing_file, out, expected


@settings(max_examples=N_FUZZ, deadline=None)
@given(case=exit_code_case())
def test_fuzz_exit_code_contract(contract_csv, case):
    command, depth_id, h, J, k, alpha, q, missing_file, out, expected = case
    path = contract_csv if not missing_file else contract_csv.parent / "absent.csv"
    argv = [command, path, depth_id, "--h", h, "--J", J, "--k", k]
    if command == "trim":
        argv += ["--alpha", alpha]
    if out is not None:
        # an unwritable output path: a missing parent directory, or a
        # path that names an existing directory
        argv += ["--out", {
            "ok": contract_csv.parent / "trimmed.csv",
            "no-dir": contract_csv.parent / "absent" / "trimmed.csv",
            "is-dir": contract_csv.parent,
        }[out]]
    if command == "outliers":
        argv += ["--q", q]
    code, out, err = run_cli(argv)
    assert code == expected, (case, err)
    if expected == cli.EXIT_OK:
        assert json.loads(out)["schema"] == 1
        assert err == ""
    elif expected == cli.EXIT_INPUT:
        assert "input error" in err
    else:
        assert "parameter error" in err
