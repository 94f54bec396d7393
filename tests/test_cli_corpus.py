"""Golden CLI corpus: every transform name alone and in chains, with and
without a schedule, on four small codes; each exit code, stderr line,
report (minus `timing_s`) and written `--out-prefix` file (the `.schedule`
gate orders and the `.hx.mtxf2`/`.hz.mtxf2` matrices) must equal the
recorded one in tests/data/cli_corpus.json.

Record the corpus again (only when a report change is intended) with

    PYTHONPATH=src python tests/test_cli_corpus.py
"""

import contextlib
import io
import json
import pathlib
import re
import sys

import pytest

from qwr.cli import format_matrix, main
from qwr.codes import hamming_7_4, repetition_code, ring_face_code, steane_code, surface_code_2x3
from qwr.hgp import hgp

DATA = pathlib.Path(__file__).resolve().parent / "data" / "cli_corpus.json"

CODES = {
    "steane": steane_code,
    "surface": surface_code_2x3,
    "ring6": lambda: ring_face_code(6),
    "hgp33": lambda: hgp(repetition_code(3), repetition_code(3)),
}
CLASSICAL = {"rep3": repetition_code(3).h, "hamming": hamming_7_4().h}

# (code, argv after the code files); the distance flags keep each command fast
PER_CODE = [
    "info",
    "transform copy",
    "transform copy gauge --schedule derived --max-d 2",
    "transform thicken --ell 3 --heights greedy:2 --schedule seed:3 --basis Z --max-d 2",
    "transform cone --cone-threshold 3 --schedule derived --max-d 2",
    "transform cone --cone-ell 2 --cone-threshold 3 --schedule derived --basis X",
    "transform balance_x --classical rep3.mtxf2 --schedule derived --basis X --max-d 2",
    "transform balance_z --classical hamming.mtxf2 --schedule seed:3 --basis X",
    "transform copy thicken gauge --schedule derived --basis X",
    "transform copy gauge gauge --schedule derived --basis Z",
]
ONCE = [
    ("steane", "info --schedule derived"),
    ("steane", "transform gauge thicken cone --schedule derived --basis Z"),
    ("steane", "transform copy gauge thicken --heights greedy:1 --schedule seed:3 --basis X"),
    ("steane", "transform copy balance_x gauge --classical rep3.mtxf2 --schedule derived --basis X"),
    ("surface", "transform thicken --ell 3 --heights explicit:1,2,3 --schedule derived --max-d 2"),
    ("surface", "transform thicken --ell 3 --heights explicit:0,1,2"),
    ("surface", "transform thicken --heights explicit:1,2"),
    ("surface", "transform thicken cone --cone-ell 2 --heights greedy:1 --schedule derived --basis X"),
    ("ring6", "transform cone --cone-ell 3 --cone-threshold 5 --basis Z"),
    ("ring6", "transform balance_x --schedule derived"),
    ("hgp33", "transform copy cone gauge --schedule derived --basis Z"),
    ("hgp33", "transform copy bogus"),
    ("hgp33", "faultdist --transform copy,gauge --basis X --max-d 2"),
]
COMMANDS = [(code, args) for code in CODES for args in PER_CODE] + ONCE


def write_inputs(directory: pathlib.Path) -> None:
    for name, make in CODES.items():
        q = make()
        (directory / f"{name}.hx.mtxf2").write_text(format_matrix(q.h_x))
        (directory / f"{name}.hz.mtxf2").write_text(format_matrix(q.h_z))
    for name, h in CLASSICAL.items():
        (directory / f"{name}.mtxf2").write_text(format_matrix(h))


def key(code: str, args: str) -> str:
    return f"{code}: {args}"


def run(code: str, args: str) -> dict:
    """Exit code, stderr, report (minus timing_s) and written files of one
    command, run in the directory that holds the inputs.  Each command
    writes under its own --out-prefix, so no file outlives its command."""
    out, err = io.StringIO(), io.StringIO()
    prefix = "out_" + re.sub(r"\W+", "_", key(code, args))
    argv = args.split() + ["--hx", f"{code}.hx.mtxf2", "--hz", f"{code}.hz.mtxf2", "--out-prefix", prefix]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    report = json.loads(out.getvalue()) if rc == 0 else None
    if report is not None:
        report.pop("timing_s")
    files = {}
    for suffix in (".schedule", ".hx.mtxf2", ".hz.mtxf2"):
        path = pathlib.Path(prefix + suffix)
        if path.exists():
            files[suffix] = path.read_text()
    return {"exit": rc, "stderr": err.getvalue(), "report": report, "files": files}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("corpus")
    write_inputs(directory)
    return directory


@pytest.fixture(scope="module")
def expected():
    return json.loads(DATA.read_text())


@pytest.mark.parametrize("code,args", COMMANDS, ids=[key(c, a) for c, a in COMMANDS])
def test_report_matches_recorded(code, args, inputs, expected, monkeypatch):
    monkeypatch.chdir(inputs)
    assert run(code, args) == expected[key(code, args)]


def test_corpus_covers_every_command(expected):
    assert sorted(expected) == sorted(key(c, a) for c, a in COMMANDS)


if __name__ == "__main__":
    import os
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(pathlib.Path(tmp))
        here = os.getcwd()
        os.chdir(tmp)
        try:
            results = {key(c, a): run(c, a) for c, a in COMMANDS}
        finally:
            os.chdir(here)
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(results)} commands in {DATA}", file=sys.stderr)
