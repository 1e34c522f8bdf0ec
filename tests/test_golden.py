"""Golden outputs of the CLI, byte for byte.

Every subcommand runs in-process through cli.main on fixed channels; each
case's exit status and the SHA-256 of its stdout (and of its --trace CSV)
must equal the digests in golden_digests.json, and a second run with
--jobs 7 must hash the same.  A change that moves output bytes on purpose
shows as a diff of that file; re-record it with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

import fsmc
from fsmc import cli
from conftest import make_bsc, make_z, sparse_channel, write_channel

DIGESTS = Path(__file__).with_name("golden_digests.json")

# name -> (channel, simulate's --rate and --gamma)
CHANNELS = {
    "bsc": (lambda: make_bsc(0.1), ("0.18", "0.6")),
    "z": (make_z, ("0.15", "0.6")),
    "example-0.3": (lambda: fsmc.make_example(fsmc.gamma_params(0.3)), ("0.25", "0.6")),
    "example-0.7": (lambda: fsmc.make_example(fsmc.gamma_params(0.7)), ("0.2", "0.6")),
    "symmetric": (lambda: fsmc.make_example(fsmc.symmetric_params()), ("0.25", "0.6")),
    "sparse-0": (lambda: sparse_channel(0), ("0.1", "0.6")),     # reducible, three inputs
    "sparse-1": (lambda: sparse_channel(1), ("0.25", "0.6")),    # D = +inf, three inputs
    "sparse-18": (lambda: sparse_channel(18), ("0.03", "0.6")),  # zero cells, finite D, S = 4
    "sparse-22": (lambda: sparse_channel(22), ("0.1", "0.6")),   # zero cells, D = +inf, S = 4
    "sparse-16": (lambda: sparse_channel(16), ("0.015", "0.6")), # zero cells, finite D, S = 6
}
_GRID = {"bsc", "z", "example-0.3", "example-0.7", "symmetric", "sparse-1"}   # S <= 2


def _cases():
    out = {"sweep-example": ("sweep-example", "--gamma-step", "0.25")}
    for name, (_, (rate, gamma)) in CHANNELS.items():
        sim = ("simulate", name, "--rate", rate, "--gamma", gamma, "--n", "20",
               "--trials", "40", "--seed", "3")
        runs = [("validate", name), ("capacity", name), ("capacity", name, "--bits"),
                ("burnashev", name), ("burnashev", name, "--bits"),
                ("reliability", name, "--points", "5"), sim, sim + ("--trace", "{trace}"),
                ("azuma", name, "--n", "20", "--eps", "0.1", "--trials", "100", "--seed", "2")]
        if name in _GRID:
            runs.append(("capacity", name, "--grid", "8"))
        for argv in runs:
            out[" ".join(argv).replace(" {trace}", "")] = argv
    sim = ("--rate", "0.18", "--gamma", "0.6", "--n", "20", "--trials", "40", "--seed", "3")
    for name, threshold in (("bsc", "-0.4"), ("z", "5"), ("sparse-1", "5")):
        argv = ("simulate", name) + sim + ("--threshold", threshold)
        out[" ".join(argv)] = argv
    # horizons whose uniform windows split unevenly within a trial block; at
    # eps 0.02 some trials violate and others do not, so each draw counts
    for name in ("example-0.3", "sparse-16"):
        for extra in (("--trials", "1000", "--n", "300"),
                      ("--trials", "1000", "--n", "300", "--eps", "0.02"),
                      ("--trials", "100", "--n", "2000", "--eps", "0.05")):
            argv = ("azuma", name) + extra
            out[" ".join(argv)] = argv
    return out


CASES = _cases()


def _sha(data: str) -> str:
    return hashlib.sha256(data.encode()).hexdigest()


def _run(argv, files, tmp: Path) -> dict:
    """Exit status and digests of one in-process cli.main run."""
    trace = tmp / "trace.csv"
    trace.unlink(missing_ok=True)
    args = [files.get(a, a).replace("{trace}", str(trace)) for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(args)
    got = {"exit": code, "stdout": _sha(out.getvalue())}
    if trace.exists():
        got["trace"] = _sha(trace.read_text())
    return got


def _channel_files(tmp: Path) -> dict:
    return {name: str(write_channel(tmp, make(), f"{name}.json"))
            for name, (make, _) in CHANNELS.items()}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("golden")
    return tmp, _channel_files(tmp)


def test_digest_file_lists_every_case():
    assert sorted(json.loads(DIGESTS.read_text())) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_output(case, workdir):
    tmp, files = workdir
    want = json.loads(DIGESTS.read_text())[case]
    assert _run(CASES[case], files, tmp) == want
    assert _run(CASES[case] + ("--jobs", "7"), files, tmp) == want


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as d:
        files = _channel_files(Path(d))
        record = {case: _run(argv, files, Path(d)) for case, argv in sorted(CASES.items())}
    DIGESTS.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(record)} cases in {DIGESTS}", file=sys.stderr)
