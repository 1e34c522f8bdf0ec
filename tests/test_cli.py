"""Command-line interface: payloads, formats, exit codes, determinism."""

from __future__ import annotations

import contextlib
import csv
import hashlib
import inspect
import io
import json
import math
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fsmc
from fsmc import cli
from conftest import make_bsc, make_sparse_zero_error, make_z, write_channel

# frozen (see test_oracles)
BSC_C = 0.36806420716849714
BSC_D = 1.7577796618689758


def run_cli(*args, check=False):
    proc = subprocess.run([sys.executable, "-m", "fsmc.cli", *map(str, args)],
                          capture_output=True, text=True)
    if check and proc.returncode != 0:
        raise AssertionError(f"cli failed: {proc.stderr}")
    return proc


@pytest.fixture()
def bsc_file(tmp_path):
    return write_channel(tmp_path, make_bsc(0.1), "bsc.json")


@pytest.fixture()
def z_file(tmp_path):
    return write_channel(tmp_path, make_z(), "z.json")


@pytest.fixture()
def example_file(tmp_path):
    ch = fsmc.make_example(fsmc.gamma_params(0.5))
    return write_channel(tmp_path, ch, "example.json")


@pytest.fixture()
def sparse_inf_file(tmp_path):
    return write_channel(tmp_path, make_sparse_zero_error(), "sparse.json")


# ---------------------------------------------------------------------------
# validate

def test_validate_good_file(example_file):
    proc = run_cli("validate", example_file, check=True)
    doc = json.loads(proc.stdout)
    assert doc["states"] == 2 and doc["inputs"] == 2 and doc["outputs"] == 2
    assert doc["assumption1"] is True
    assert doc["violating_map"] is None
    assert doc["no_isi"] is False
    assert doc["lambda"] > 0.0
    assert doc["z_size"] == 4


def test_validate_broken_row_sums(tmp_path, bsc_file):
    doc = json.loads(bsc_file.read_text())
    doc["kernel"][0][0][0][0] = 0.5     # row no longer sums to 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    proc = run_cli("validate", bad)
    assert proc.returncode == 1
    assert proc.stderr.strip()


def test_validate_reducible_channel(tmp_path):
    k = np.zeros((2, 2, 2, 2))
    k[0, 0, 0, :] = 0.5
    k[0, 1, 0, :] = 0.5
    k[1, 0, :, 0] = 0.5
    k[1, 1, :, 1] = 0.5
    ch = fsmc.channel_from_arrays(("a", "b"), ("0", "1"), ("u", "v"), k,
                                  [0.5, 0.5])
    path = write_channel(tmp_path, ch, "reducible.json")
    proc = run_cli("validate", path)
    assert proc.returncode == 1
    assert "reducible" in proc.stderr


# ---------------------------------------------------------------------------
# capacity / burnashev / reliability

def test_capacity_nats_and_bits(bsc_file):
    doc = json.loads(run_cli("capacity", bsc_file, check=True).stdout)
    assert abs(doc["C_nats"] - BSC_C) < 1e-6
    doc_b = json.loads(run_cli("capacity", bsc_file, "--bits", check=True).stdout)
    assert abs(doc_b["C_bits"] - BSC_C / math.log(2.0)) < 1e-6
    assert abs(doc_b["C_bits"] - 0.531004) < 1e-5


def test_capacity_grid_oracle_mode(bsc_file):
    doc = json.loads(run_cli("capacity", bsc_file, "--grid", "64",
                             check=True).stdout)
    assert "C_oracle_nats" in doc
    assert doc["C_oracle_nats"] <= BSC_C + 1e-9


def test_burnashev_payload(bsc_file):
    doc = json.loads(run_cli("burnashev", bsc_file, check=True).stdout)
    assert abs(doc["D_nats"] - BSC_D) < 1e-6
    assert doc["f0"] != doc["f1"]


def test_burnashev_infinite(z_file):
    doc = json.loads(run_cli("burnashev", z_file, check=True).stdout)
    assert doc["D_nats"] == "+inf"
    assert "witness" in doc


def test_reliability_csv(bsc_file):
    proc = run_cli("reliability", bsc_file, "--points", "10", check=True)
    rows = list(csv.reader(io.StringIO(proc.stdout)))
    assert rows[0] == ["R_nats", "EB_nats"]
    assert len(rows) == 11
    vals = [float(r[1]) for r in rows[1:]]
    assert all(vals[i] >= vals[i + 1] for i in range(len(vals) - 1))


# ---------------------------------------------------------------------------
# simulate

SIM_ARGS = ("--rate", "0.18", "--gamma", "0.6", "--n", "20",
            "--trials", "200", "--seed", "0")


def test_simulate_payload_and_determinism(bsc_file):
    a = run_cli("simulate", bsc_file, *SIM_ARGS, check=True)
    b = run_cli("simulate", bsc_file, *SIM_ARGS, check=True)
    assert a.stdout == b.stdout
    doc = json.loads(a.stdout)
    assert doc["trials"] == 200
    assert doc["message_count"] == 20
    assert doc["n_hat"] == 12 and doc["n_tilde"] == 8


def test_simulate_jobs_invariant(bsc_file):
    a = run_cli("simulate", bsc_file, *SIM_ARGS, "--jobs", "1", check=True)
    b = run_cli("simulate", bsc_file, *SIM_ARGS, "--jobs", "8", check=True)
    assert a.stdout == b.stdout


def test_parser_is_built_once_and_reused_cleanly(bsc_file):
    """cli.main reuses one parser; a parse leaves no option behind for the next."""
    assert cli.build_parser() is cli.build_parser()
    assert cli.build_parser().parse_args(["azuma", str(bsc_file), "--n", "7"]).n == 7
    args = cli.build_parser().parse_args(["azuma", str(bsc_file)])
    assert (args.n, args.eps, args.trials, args.func) == (500, 0.2, 1000, cli.cmd_azuma)


def test_library_takes_no_jobs():
    """--jobs is the CLI's alone: no library function takes a jobs argument."""
    for fn in (fsmc.simulate, fsmc.azuma_tail_check, fsmc.sweep_gamma):
        assert "jobs" not in inspect.signature(fn).parameters, fn.__name__


def test_simulate_jobs_invariant_with_likelihood_ties(bsc_file):
    """On the BSC many codewords tie in likelihood; splitting the trials into
    batches once moved their BLAS rounding and changed this report."""
    args = ("--rate", "0.18", "--gamma", "0.6", "--n", "20", "--trials", "20000",
            "--seed", "0")
    a = run_cli("simulate", bsc_file, *args, "--jobs", "1", check=True)
    b = run_cli("simulate", bsc_file, *args, "--jobs", "8", check=True)
    assert a.stdout == b.stdout
    assert json.loads(a.stdout)["mean_epochs"] == 1.16705


# frozen stdout at the 65536-message cap: 300 trials, seed 5, one full-size screen
CAP_PINS = [
    ("bsc_file", ("--rate", "0.18", "--gamma", "0.6", "--n", "80"), 1.01333333, 0.0131578947,
     "46f75d6b1386d79e7a6a00540c66eb92e0238cb932bfabfe582e6b6fee60bf67"),
    ("z_file", ("--rate", "0.2", "--gamma", "0.7", "--n", "60"), 1.09666667, 0.0881458967,
     "ee64af831819608c1a740e1fc7fa760b72fc6da1cdb58c8f968c6a0497f14f2e"),
]


@pytest.mark.parametrize("fixture, args, mean_epochs, phase1_error_rate, digest", CAP_PINS)
def test_simulate_frozen_pin_at_the_message_cap(request, fixture, args, mean_epochs,
                                                phase1_error_rate, digest):
    proc = run_cli("simulate", request.getfixturevalue(fixture), *args, "--trials", "300",
                   "--seed", "5", check=True)
    doc = json.loads(proc.stdout)
    assert doc["message_count"] == 65536
    assert (doc["mean_epochs"], doc["phase1_error_rate"]) == (mean_epochs, phase1_error_rate)
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == digest


def test_simulate_gamma_below_ratio_fails(bsc_file):
    proc = run_cli("simulate", bsc_file, "--rate", "0.18", "--gamma", "0.4",
                   "--n", "20")
    assert proc.returncode == 1


def test_simulate_zero_error(z_file):
    doc = json.loads(run_cli("simulate", z_file, "--rate", "0.15", "--gamma",
                             "0.6", "--n", "20", "--trials", "500",
                             check=True).stdout)
    assert doc["error_count"] == 0


def test_simulate_trace_csv(bsc_file, tmp_path):
    trace = tmp_path / "trace.csv"
    run_cli("simulate", bsc_file, *SIM_ARGS, "--trace", trace, check=True)
    rows = list(csv.reader(trace.read_text().splitlines()))
    assert rows[0] == ["trial", "epoch", "decoded", "correct", "sent_bit",
                       "decided_bit", "llr"]
    keys = [(int(r[0]), int(r[1])) for r in rows[1:]]
    assert keys == sorted(keys)
    assert {k[0] for k in keys} == set(range(200))


# frozen stdout and --trace CSV, sha256 of each: the zero-error rule (Z and a
# sparse 3-state ISI channel with D = +inf, the latter under a max_epochs that
# aborts trials) and a BSC whose threshold no LLR reaches, so every trial aborts
TRACE_PINS = [
    ("z_file", ("--rate", "0.15", "--gamma", "0.6", "--n", "20", "--trials", "2000",
                "--seed", "2"),
     "3c8e5b27d0daa3c74d07dac5316b9aa6be09e69af5b1cfe51c00aeb9a658ccc0",
     "d4eb1a97f1ad5cecd988da6aa9ecd6c3415560503ad2f6697bc3e10e3b4f5a4e"),
    ("sparse_inf_file", ("--rate", "0.05", "--gamma", "0.6", "--n", "40", "--trials", "1000",
                         "--seed", "5", "--max-epochs", "4"),
     "f88b7771a1179de912ed762535f970629339aaf9590da1dc88846ab8e800bbc0",
     "4b86b844aa033370432ae3938009c9cd62a5bba63c09da2a28de218830f02a07"),
    ("bsc_file", ("--rate", "0.18", "--gamma", "0.6", "--n", "20", "--trials", "500",
                  "--seed", "4", "--threshold", "10", "--max-epochs", "3"),
     "5c7f1295d3575f68eabb90643729c03fa529bf4ccf2895da05d87b12e34a59a6",
     "ec83198c4c1ed122e61baef0150cb85858606eb846194a6e1b5e49baa65e0b52"),
]


@pytest.mark.parametrize("fixture, args, out_digest, trace_digest", TRACE_PINS)
def test_simulate_and_trace_frozen_pins(request, tmp_path, fixture, args, out_digest,
                                        trace_digest):
    trace = tmp_path / "trace.csv"
    proc = run_cli("simulate", request.getfixturevalue(fixture), *args, "--trace", trace,
                   check=True)
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == out_digest
    assert hashlib.sha256(trace.read_bytes()).hexdigest() == trace_digest


def test_simulate_max_epochs_no_trial_reaches_changes_nothing(bsc_file, tmp_path):
    """Nothing is sized by max_epochs: a cap of 10^13 reads as one of 64 when
    no trial reaches 64 epochs."""
    trace = tmp_path / "trace.csv"
    a = run_cli("simulate", bsc_file, *SIM_ARGS, "--max-epochs", "64", "--trace", trace,
                check=True)
    assert max(int(r[1]) for r in list(csv.reader(trace.read_text().splitlines()))[1:]) < 63
    b = run_cli("simulate", bsc_file, *SIM_ARGS, "--max-epochs", "10000000000000", check=True)
    assert a.stdout == b.stdout


def test_simulate_unwritable_trace_fails_with_one_error_line(bsc_file, tmp_path):
    proc = run_cli("simulate", bsc_file, *SIM_ARGS, "--trace", tmp_path / "no" / "t.csv")
    assert proc.returncode == 1 and proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


# ---------------------------------------------------------------------------
# sweep-example

def test_sweep_example_csv_shape():
    proc = run_cli("sweep-example", "--gamma-step", "0.1", check=True)
    rows = list(csv.reader(io.StringIO(proc.stdout)))
    assert rows[0] == ["gamma", "C_nats", "piG_1", "piB_1", "D_nats",
                       "klf00", "klf01", "klf10", "klf11"]
    assert len(rows) == 10


def test_sweep_example_rejects_bad_params():
    proc = run_cli("sweep-example", "--pg", "0.2", "--pb", "0.1")
    assert proc.returncode == 1


@pytest.mark.parametrize("argv", [
    ("sweep-example", "--gamma-step", "0"),
    ("sweep-example", "--gamma-step", "nan"),
    ("azuma", "{bsc}", "--n", "0"),
    ("azuma", "{bsc}", "--n", "-3"),
    ("capacity", "{bsc}", "--grid", "-1"),
    ("simulate", "{bsc}", "--rate", "0.18", "--gamma", "0.6", "--n", "20",
     "--trials", "50", "--threshold", "nan"),
    ("simulate", "{bsc}", "--rate", "inf", "--gamma", "0.6", "--n", "20", "--trials", "50"),
    ("validate", "{nan_cell}"),
    ("burnashev", "{nan_cell}"),
    ("simulate", "{nan_initial}", "--rate", "0.18", "--gamma", "0.6", "--n", "20",
     "--trials", "50"),
    ("capacity", "{example}", "--grid", "100000"),
    ("capacity", "{bsc}", "--grid", "0"),
    ("simulate", "{z}", "--rate", "0.15", "--gamma", "0.6", "--n", "20", "--trials", "50",
     "--threshold", "5"),
])
def test_bad_numbers_exit_1_with_one_error_line(argv, bsc_file, example_file, z_file, tmp_path):
    paths = {"bsc": bsc_file, "example": example_file, "z": z_file}
    for name, at in (("nan_cell", ("kernel", 0, 0, 0)), ("nan_initial", ("initial",))):
        doc = row = json.loads(bsc_file.read_text())
        for key in at:
            row = row[key]
        row[0] = math.nan                            # json writes it as NaN
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    proc = run_cli(*(a.format(**paths) for a in argv))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


def test_sweep_example_default_is_99_rows():
    proc = run_cli("sweep-example", "--jobs", "4", check=True)
    rows = proc.stdout.strip().splitlines()
    assert len(rows) == 100    # header + 99 grid points


# ---------------------------------------------------------------------------
# azuma

def test_azuma_defaults_pass(example_file):
    doc = json.loads(run_cli("azuma", example_file, "--trials", "200",
                             check=True).stdout)
    assert doc["pass"] is True
    assert doc["n"] == 500


def test_azuma_trivial_eps(example_file):
    doc = json.loads(run_cli("azuma", example_file, "--eps", "2", "--trials",
                             "100", check=True).stdout)
    assert doc["pass"] is True


def test_azuma_too_few_trials(example_file):
    proc = run_cli("azuma", example_file, "--trials", "10")
    assert proc.returncode == 1


# ---------------------------------------------------------------------------
# formatting rules

def test_nine_significant_digits(bsc_file):
    out = run_cli("capacity", bsc_file, check=True).stdout
    for tok in re.findall(r"-?\d+\.\d+(?:e-?\d+)?", out):
        digits = re.sub(r"[^0-9]", "", tok.split("e")[0]).lstrip("0")
        assert len(digits) <= 9, tok


def test_json_round_trip(bsc_file):
    out = run_cli("burnashev", bsc_file, check=True).stdout
    doc = json.loads(out)
    assert json.dumps(doc)     # serializable back


def test_missing_file_errors():
    proc = run_cli("capacity", "/nonexistent/channel.json")
    assert proc.returncode == 1
    assert proc.stderr.strip()


# ---------------------------------------------------------------------------
# robustness: malformed channel files and bad flag values, run in-process

def _main(argv):
    """(exit status, stdout, stderr) of cli.main; an exception escapes."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main([str(a) for a in argv])
        except SystemExit as exc:                    # argparse: a value it cannot parse
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _assert_clean_exit(argv):
    code, out, err = _main(argv)
    errors = [line for line in err.splitlines() if "error:" in line]
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    assert len(errors) == (code != 0), (argv, code, err)
    if code == 1:
        assert err.startswith("error:"), (argv, err)


# every flag at a small valid value; the channel is the BSC
_FLAGS = {
    "simulate": {"--rate": "0.18", "--gamma": "0.6", "--n": "20", "--trials": "20",
                 "--seed": "1", "--threshold": "-0.4", "--max-epochs": "5", "--jobs": "1"},
    "capacity": {"--grid": "8", "--jobs": "1"},
    "reliability": {"--points": "3"},
    "azuma": {"--n": "20", "--eps": "0.2", "--trials": "100", "--seed": "0"},
    "sweep-example": {"--pg": "0.001", "--pb": "0.1", "--alpha0": "0.7", "--beta0": "0.3",
                      "--gamma-step": "0.25"},
}
_SIZES = {"--n", "--trials", "--points"}    # large values there cost time, not validation
_HUGE = "10000000000000"
_FLAG_CASES = [(cmd, flag, value) for cmd, flags in _FLAGS.items() for flag in flags
               for value in ("nan", "inf", "-inf", "0", "-1", "-0.5", "1e300", _HUGE,
                             "-" + _HUGE, "abc", "")
               if not (flag in _SIZES and value == _HUGE)]
_JUNK = st.sampled_from([math.nan, math.inf, -math.inf, "x", "0.5", None, True, -1, 2, [],
                         [[]], {}, [0.5, [0.5]], [math.nan, 1.0], ["a", "b"]])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=st.sampled_from(_FLAG_CASES))
def test_cli_bad_flag_values_exit_cleanly(case):
    """One bad value per numeric flag, the others valid: exit 0, 1 with one
    error: line, or argparse's 2; never a traceback."""
    cmd, flag, value = case
    with tempfile.TemporaryDirectory() as tmp:
        argv = [cmd] if cmd == "sweep-example" else [cmd, write_channel(Path(tmp), make_bsc(0.1))]
        for f, v in _FLAGS[cmd].items():
            argv += [f, value if f == flag else v]
        _assert_clean_exit(argv)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(cmd=st.sampled_from(["validate", "capacity", "burnashev", "simulate"]),
       key=st.sampled_from(["states", "inputs", "outputs", "kernel", "initial",
                            "kernel cell", "kernel row", "initial cell", "utf-16"]),
       drop=st.booleans(), junk=_JUNK)
def test_cli_malformed_channel_files_exit_cleanly(cmd, key, drop, junk):
    """A BSC file with one field dropped or replaced by junk (NaN, +-inf,
    strings, ragged or empty arrays), or not in UTF-8: exit 0 or 1 with one
    error: line."""
    doc = {"states": ["s"], "inputs": ["0", "1"], "outputs": ["0", "1"],
           "kernel": make_bsc(0.1).kernel.tolist(), "initial": [1.0]}
    if key == "kernel cell":
        doc["kernel"][0][1][0][0] = junk
    elif key == "kernel row":
        doc["kernel"][0][1] = junk
    elif key == "initial cell":
        doc["initial"][0] = junk
    elif key in doc and drop:
        del doc[key]
    elif key in doc:
        doc[key] = junk
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "chan.json"
        # NaN and Infinity as Python's json writes them
        path.write_text(json.dumps(doc), encoding="utf-16" if key == "utf-16" else "utf-8")
        flags = _FLAGS["simulate"].items() if cmd == "simulate" else ()
        _assert_clean_exit([cmd, path, *(a for kv in flags for a in kv)])
