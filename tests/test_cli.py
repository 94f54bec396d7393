import argparse
import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

import qwr
from qwr import cli
from qwr.cli import (
    PipelineConfig,
    UsageError,
    format_matrix,
    load_matrix,
    main,
    parse_alist_file,
    parse_matrix_file,
    run_pipeline,
)
from qwr.codes import CapExceeded, CssCode, repetition_code, steane_code
from qwr.f2la import BinMatrix
from qwr.hgp import hgp
from qwr.schedule import Schedule, Step, baseline_schedule, format_schedule, parse_schedule

REPO = pathlib.Path(__file__).resolve().parents[1]
REP3_ALIST = "3 2\n2 2\n1 2 1\n2 2\n1 0\n1 2\n2 0\n1 2\n2 3\n"


@pytest.fixture
def steane_files(tmp_path):
    q = steane_code()
    hx = tmp_path / "hx.mtxf2"
    hz = tmp_path / "hz.mtxf2"
    hx.write_text(format_matrix(q.h_x))
    hz.write_text(format_matrix(q.h_z))
    return str(hx), str(hz)


class TestMatrixFormat:
    def test_parse_basic(self, tmp_path):
        p = tmp_path / "m.mtxf2"
        p.write_text("2 3\n1 2\n2 3\n")
        assert parse_matrix_file(str(p)) == BinMatrix.from_rows([[1, 1, 0], [0, 1, 1]])

    def test_blank_row(self, tmp_path):
        p = tmp_path / "m.mtxf2"
        p.write_text("1 3\n\n")
        assert parse_matrix_file(str(p)) == BinMatrix.zeros(1, 3)

    def test_out_of_range_index(self, tmp_path):
        p = tmp_path / "m.mtxf2"
        p.write_text("2 3\n1 4\n2\n")
        with pytest.raises(ValueError, match="line 2"):
            parse_matrix_file(str(p))

    def test_roundtrip(self, tmp_path):
        m = steane_code().h_x
        p = tmp_path / "m.mtxf2"
        p.write_text(format_matrix(m))
        assert parse_matrix_file(str(p)) == m

    def test_alist(self, tmp_path):
        # [3,1] repetition code in alist form
        p = tmp_path / "rep.alist"
        p.write_text(REP3_ALIST)
        m = parse_alist_file(str(p))
        assert m == repetition_code(3).h

    @pytest.mark.parametrize("header", ["-1 3", "2 -1"])
    def test_negative_dimensions_rejected(self, tmp_path, header):
        p = tmp_path / "m.mtxf2"
        p.write_text(header + "\n\n\n")
        with pytest.raises(UsageError, match="line 1: negative dimensions"):
            parse_matrix_file(str(p))

    def test_rows_past_declared_count_rejected(self, tmp_path):
        p = tmp_path / "m.mtxf2"
        p.write_text("1 3\n1 2 3\n1\n\n")
        with pytest.raises(ValueError, match="line 3"):
            parse_matrix_file(str(p))

    def test_alist_rows_contradicting_columns_rejected(self, tmp_path):
        # the column lines of test_alist, with the second row line changed
        p = tmp_path / "rep.alist"
        p.write_text(
            "3 2\n2 2\n1 2 1\n2 2\n1 0\n1 2\n2 0\n1 2\n1 3\n"
        )
        with pytest.raises(ValueError, match="line 9"):
            parse_alist_file(str(p))

    @pytest.mark.parametrize(
        "name, text, line",
        [
            ("m.mtxf2", "1 3\n1 1\n", "line 2"),
            ("m.mtxf2", "2 3\n1\n2 3 2\n", "line 3"),
            ("rep.alist", REP3_ALIST.replace("1 2\n2 0\n1 2", "1 1\n2 0\n1 2"), "line 6"),
        ],
    )
    def test_repeated_index_rejected(self, tmp_path, name, text, line):
        p = tmp_path / name
        p.write_text(text)
        with pytest.raises(UsageError, match=f"{line}: index . repeated"):
            load_matrix(str(p))


@st.composite
def matrices(draw):
    """Any shape up to 6 x 9, including zero rows and no columns."""
    r, c = draw(st.integers(0, 6)), draw(st.integers(0, 9))
    return BinMatrix(draw(st.lists(st.integers(0, (1 << c) - 1), min_size=r, max_size=r)), c)


steps = st.builds(
    Step,
    st.sampled_from("XZ"),
    st.integers(0, 30),
    st.lists(st.integers(0, 40), max_size=6).map(tuple),
)


# Lines of small tokens reach the parsers' line accounting far more often
# than free text.  Integers stay small (and free text short): a well-formed
# header may declare any column count, and a row costs memory in proportion
# to it.
matrix_like_text = st.lists(
    st.lists(st.integers(-1, 12).map(str) | st.sampled_from(["x", ""]), max_size=4).map(" ".join),
    max_size=12,
).map("\n".join)


class TestFormatRoundTrips:
    @settings(max_examples=150, deadline=None)
    @given(matrices())
    def test_matrix(self, m):
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "m.mtxf2")
            cli.write_matrix_file(path, m)
            assert parse_matrix_file(path) == m

    @settings(max_examples=150, deadline=None)
    @given(st.lists(steps, max_size=8).map(lambda s: Schedule(tuple(s))))
    def test_schedule(self, m):
        assert parse_schedule(format_schedule(m)) == m


class TestPipeline:
    def test_info_report(self, steane_files):
        hx, hz = steane_files
        rep = run_pipeline(PipelineConfig(hx_path=hx, hz_path=hz))
        assert rep["code"]["n"] == 7 and rep["code"]["k"] == 1
        assert rep["distances"]["code_X"]["value"] == 3
        assert rep["distances"]["code_X"]["method"] == "exhaustive"
        assert rep["schema"] == 2

    def test_transform_pipeline(self, steane_files):
        hx, hz = steane_files
        rep = run_pipeline(
            PipelineConfig(hx_path=hx, hz_path=hz, transforms=["copy", "gauge"])
        )
        params = rep["code"]
        assert params["w_x"] <= 3 and params["q_x"] <= 3 and params["k"] == 1

    def test_faultdist_with_witness(self, steane_files):
        hx, hz = steane_files
        rep = run_pipeline(
            PipelineConfig(hx_path=hx, hz_path=hz, schedule="seed:0", basis="X", max_d=4)
        )
        eff = rep["distances"]["effective_X"]
        assert eff["value"] == 2
        assert len(eff["witness"]) == 2

    def test_derived_schedule_through_transforms(self, steane_files):
        hx, hz = steane_files
        rep = run_pipeline(
            PipelineConfig(
                hx_path=hx, hz_path=hz, transforms=["copy", "gauge"],
                schedule="derived", basis="X", max_d=3, seed=2,
            )
        )
        assert rep["distances"]["effective_X"]["value"] is not None

    def test_thicken_with_heights(self, steane_files):
        hx, hz = steane_files
        rep = run_pipeline(
            PipelineConfig(
                hx_path=hx, hz_path=hz, transforms=["thicken"], ell=3,
                heights="greedy:3", schedule="derived", basis="Z", max_d=2,
            )
        )
        assert rep["transforms"][0]["heights"]
        assert rep["code"]["k"] == 1

    def test_outputs_roundtrip(self, steane_files, tmp_path):
        hx, hz = steane_files
        prefix = str(tmp_path / "out")
        rep = run_pipeline(
            PipelineConfig(hx_path=hx, hz_path=hz, transforms=["copy"], out_prefix=prefix)
        )
        again = parse_matrix_file(prefix + ".hx.mtxf2")
        assert again.ncols == rep["code"]["n"]

    @pytest.mark.parametrize("code", ["steane", "hgp33"])
    @pytest.mark.parametrize(  # in the basis whose code distance is quick to find
        "names, basis",
        [("copy thicken gauge", "X"), ("copy gauge gauge", "X"), ("copy cone gauge", "Z"), ("copy balance_x gauge", "X")],
    )
    def test_gauge_after_other_steps_carries_schedule(self, code, names, basis, tmp_path, monkeypatch, capsys):
        """gauge lays Z orders out by copy groups only right after copy."""
        q = steane_code() if code == "steane" else hgp(repetition_code(3), repetition_code(3))
        (tmp_path / "hx.mtxf2").write_text(format_matrix(q.h_x))
        (tmp_path / "hz.mtxf2").write_text(format_matrix(q.h_z))
        (tmp_path / "rep3.alist").write_text(REP3_ALIST)
        monkeypatch.chdir(tmp_path)
        argv = ["transform", *names.split(), "--hx", "hx.mtxf2", "--hz", "hz.mtxf2", "--basis", basis,
                "--classical", "rep3.alist", "--schedule", "derived", "--out-prefix", "out"]
        assert main(argv) == 0, capsys.readouterr().err
        with open("out.schedule", encoding="utf-8") as f:
            carried = parse_schedule(f.read())
        carried.validate(CssCode(load_matrix("out.hx.mtxf2"), load_matrix("out.hz.mtxf2")))


class TestDeterminism:
    def strip_timing(self, rep):
        rep = dict(rep)
        rep.pop("timing_s")
        return rep

    def test_reports_identical_across_runs(self, steane_files):
        hx, hz = steane_files
        cfg = PipelineConfig(
            hx_path=hx, hz_path=hz, transforms=["copy", "gauge"],
            schedule="derived", basis="both", max_d=3, seed=5,
        )
        a = json.dumps(self.strip_timing(run_pipeline(cfg)), sort_keys=True)
        b = json.dumps(self.strip_timing(run_pipeline(cfg)), sort_keys=True)
        assert a == b

    def test_reports_identical_across_thread_counts(self, steane_files, monkeypatch):
        hx, hz = steane_files
        cfg = PipelineConfig(hx_path=hx, hz_path=hz, schedule="seed:1", basis="both", max_d=3)
        monkeypatch.setenv("QWR_THREADS", "1")
        a = json.dumps(self.strip_timing(run_pipeline(cfg)), sort_keys=True)
        monkeypatch.setenv("QWR_THREADS", "4")
        b = json.dumps(self.strip_timing(run_pipeline(cfg)), sort_keys=True)
        assert a == b


class TestMainEntry:
    def test_info_exit_zero(self, steane_files, capsys):
        hx, hz = steane_files
        assert main(["info", "--hx", hx, "--hz", hz]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["code"]["n"] == 7

    def test_repeated_transform_flags_add_up(self, steane_files, capsys):
        hx, hz = steane_files
        assert main(["info", "--hx", hx, "--hz", hz, "--transform", "copy", "--transform", "gauge"]) == 0
        assert [t["transform"] for t in json.loads(capsys.readouterr().out)["transforms"]] == ["copy", "gauge"]
        assert main(["info", "--hx", hx, "--hz", hz]) == 0  # the shared parser's default stays empty
        assert json.loads(capsys.readouterr().out)["transforms"] == []

    def test_usage_error_exit_one(self, steane_files, capsys):
        hx, hz = steane_files
        assert main(["transform", "bogus", "--hx", hx, "--hz", hz]) == 1

    def test_unknown_subcommand_exit_one(self, steane_files, capsys):
        hx, hz = steane_files
        assert main(["bogus", "--hx", hx, "--hz", hz]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and err.count("\n") == 1

    def test_missing_file_exit_one(self, capsys):
        assert main(["info", "--hx", "/nonexistent", "--hz", "/nonexistent"]) == 1

    def test_directory_as_matrix_exit_one(self, steane_files, tmp_path, capsys):
        _, hz = steane_files
        assert main(["info", "--hx", str(tmp_path), "--hz", hz]) == 1
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize("out", [".", "missing/r.json"])  # a directory; a file in a missing one
    def test_unwritable_out_exit_one(self, steane_files, tmp_path, capsys, out):
        hx, hz = steane_files
        assert main(["info", "--hx", hx, "--hz", hz, "--out", str(tmp_path / out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and err.count("\n") == 1

    @pytest.mark.parametrize("command", [["info"], ["faultdist", "--max-d", "3"]])
    def test_out_holds_the_printed_report(self, steane_files, tmp_path, capsys, command):
        hx, hz = steane_files
        argv = command + ["--hx", hx, "--hz", hz]
        assert main(argv) == 0
        printed = json.loads(capsys.readouterr().out)
        path = tmp_path / "r.json"
        assert main(argv + ["--out", str(path)]) == 0
        assert capsys.readouterr().out == ""
        written = json.loads(path.read_text(encoding="utf-8"))
        printed.pop("timing_s")
        written.pop("timing_s")
        assert written == printed

    @pytest.mark.parametrize("command", [[], ["info"], ["transform"], ["faultdist"]])
    def test_help_exit_zero(self, capsys, command):
        assert main(command + ["--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: qwr")

    @pytest.mark.parametrize(
        "flags",
        [
            ["--ell", "0"],
            ["--ell", "two"],
            ["--cone-ell", "0"],
            ["--cone-threshold", "0"],
            ["--max-d", "0"],
            ["--schedule", "seed:abc"],
            ["--heights", "greedy:0"],
            ["--heights", "greedy:w"],
            ["--heights", "explicit:1,a,2"],
            ["--heights", "bogus"],
            ["--schedule", "bogus"],
            ["--basis", "Q"],
            pytest.param(None, id="missing_hx"),
        ],
    )
    def test_bad_flag_value_exit_one(self, steane_files, flags, capsys):
        hx, hz = steane_files
        given = ["--hx", hx] + flags if flags is not None else []
        assert main(["transform", "thicken", "--hz", hz, "--basis", "X"] + given) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "heights", ["greedy:0", "greedy:w", "greedy:abc", "explicit:1,a,2", "explicit:1,a", "bogus", "bogus:1"]
    )
    @pytest.mark.parametrize("command", ["info", "transform copy", "faultdist"])
    def test_bad_heights_exit_one_on_every_subcommand(self, steane_files, command, heights, capsys):
        """--heights is checked before any transform runs, thicken or not."""
        hx, hz = steane_files
        assert main(command.split() + ["--hx", hx, "--hz", hz, "--heights", heights]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "names, message",
        [("copy bogus", "unknown transform 'bogus'"), ("copy balance_x", "balance_x needs --classical <file>")],
    )
    def test_bad_transform_list_runs_no_transform(self, steane_files, names, message, monkeypatch, capsys):
        hx, hz = steane_files
        calls, carry = [], cli.carry

        def spy(name, *args, **kw):
            calls.append(name)
            return carry(name, *args, **kw)

        monkeypatch.setattr(cli, "carry", spy)
        assert main(["transform", *names.split(), "--hx", hx, "--hz", hz]) == 1
        assert capsys.readouterr().err == f"usage error: {message}\n"
        assert calls == []

    @pytest.mark.parametrize("seed", [0, 2])
    def test_faultdist_defaults(self, steane_files, seed, capsys):
        """faultdist alone means --schedule derived (= seed:<seed>) and --max-d 6,
        and either way the report names the seed that built the schedule; the
        other subcommands keep no schedule."""
        hx, hz = steane_files
        reports = []
        for flags in [["--seed", str(seed)], ["--schedule", f"seed:{seed}", "--max-d", "6"]]:
            assert main(["faultdist", "--hx", hx, "--hz", hz] + flags) == 0
            reports.append(json.loads(capsys.readouterr().out))
            reports[-1].pop("timing_s")
        assert reports[0] == reports[1]
        assert reports[0]["distances"]["effective_X"]["bound"] == 6
        assert main(["info", "--hx", hx, "--hz", hz]) == 0
        assert sorted(json.loads(capsys.readouterr().out)["distances"]) == ["code_X", "code_Z"]

    @pytest.mark.parametrize("seed_flags", [[], ["--seed", "4"]])
    def test_file_schedule_reports_no_seed(self, steane_files, tmp_path, capsys, seed_flags):
        """No seed built a file schedule, so its report's seed is null, whatever
        --seed says; its distances are those of the seed that wrote the file."""
        hx, hz = steane_files
        sched = tmp_path / "m.schedule"
        sched.write_text(format_schedule(baseline_schedule(steane_code(), 4)))
        reports = []
        for flags in [["--schedule", f"file:{sched}", *seed_flags], ["--schedule", "seed:4"]]:
            assert main(["faultdist", "--hx", hx, "--hz", hz, "--max-d", "3"] + flags) == 0
            reports.append(json.loads(capsys.readouterr().out))
        assert reports[0]["seed"] is None and reports[1]["seed"] == 4
        assert reports[0]["distances"] == reports[1]["distances"]

    @pytest.mark.parametrize(
        "flags, reason",
        [
            (["--ell", "3", "--heights", "explicit:0,1,2"], "height 0 out of range 1..3"),
            (["--heights", "explicit:1,2,3"], "height 3 out of range 1..2"),
            (["--heights", "explicit:1,2"], "need one height per original Z row (3), got 2"),
        ],
    )
    def test_explicit_heights_not_fitting_exit_one(self, steane_files, flags, reason, capsys):
        hx, hz = steane_files
        assert main(["transform", "thicken", "--hx", hx, "--hz", hz, "--basis", "X"] + flags) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error") and reason in err

    @pytest.mark.parametrize(
        "name, text",
        [
            ("hx.mtxf2", "1 7\n1 x\n"),
            ("hx.mtxf2", "1 7\n1 2\n3\n"),
            ("hx.mtxf2", "1 7\n2 2\n"),
            ("hx.mtxf2", "1 7 2\n1\n"),
            ("hx.mtxf2", "-1 3\n"),
            ("hx.mtxf2", "2 -1\n\n\n"),
            ("hx.mtxf2", b"1 7\n\xff\n"),
            ("hx.alist", REP3_ALIST[:-4] + "1 3\n"),
            ("hx.alist", "x 2\n2 2\n1 2 1\n2 2\n"),
            ("hx.alist", "-1 1\n0\n0\n0\n"),
            ("hx.alist", "2 1\n1 2\n1 2\n1 1\n1\n"),  # one column line of the header's 2, no row line
        ],
    )
    def test_malformed_matrix_file_exit_one(self, steane_files, tmp_path, capsys, name, text):
        _, hz = steane_files
        hx = tmp_path / name
        hx.write_bytes(text if isinstance(text, bytes) else text.encode())
        assert main(["info", "--hx", str(hx), "--hz", hz]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_schedule_syntax_error_exit_one(self, steane_files, tmp_path, capsys):
        hx, hz = steane_files
        sched = tmp_path / "m.schedule"
        sched.write_text("X 1 : 1 2 3 4\nY 2 : 2 3\n")
        assert main(["faultdist", "--hx", hx, "--hz", hz, "--schedule", f"file:{sched}"]) == 1
        assert "line 2" in capsys.readouterr().err

    def test_schedule_non_integer_index_exit_one(self, steane_files, tmp_path, capsys):
        hx, hz = steane_files
        sched = tmp_path / "m.schedule"
        sched.write_text("X 1 : 1 2 3 4\nX 2 : 2 x\n")
        assert main(["faultdist", "--hx", hx, "--hz", hz, "--schedule", f"file:{sched}"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and "line 2: invalid literal for int()" in err

    def test_schedule_not_covering_code_exit_two(self, steane_files, tmp_path, capsys):
        hx, hz = steane_files
        sched = tmp_path / "m.schedule"
        sched.write_text("X 1 : 1 3 5 7\n")
        assert main(["faultdist", "--hx", hx, "--hz", hz, "--schedule", f"file:{sched}"]) == 2

    @pytest.mark.parametrize("index", [8, 10**20])
    def test_schedule_index_beyond_n_exit_two(self, steane_files, tmp_path, capsys, index):
        hx, hz = steane_files
        good = format_schedule(baseline_schedule(steane_code())).splitlines()
        sched = tmp_path / "m.schedule"
        sched.write_text("\n".join([good[0] + f" {index}"] + good[1:]) + "\n")
        assert main(["faultdist", "--hx", hx, "--hz", hz, "--schedule", f"file:{sched}"]) == 2
        assert capsys.readouterr().err == "audit failure: gate order of X row 0 is not its support\n"

    def test_schedule_without_max_d_labelled_skipped(self, steane_files, tmp_path, capsys):
        hx, hz = steane_files
        prefix = str(tmp_path / "out")
        argv = ["transform", "copy", "--hx", hx, "--hz", hz, "--schedule", "derived", "--out-prefix", prefix]
        assert main(argv) == 0
        dist = json.loads(capsys.readouterr().out)["distances"]
        skipped = {"value": None, "method": "skipped", "bound": "no --max-d given"}
        assert dist["effective_X"] == dist["effective_Z"] == skipped
        assert dist["code_X"]["value"] == 3
        with open(prefix + ".schedule", encoding="utf-8") as f:
            carried = parse_schedule(f.read())
        code = CssCode(load_matrix(prefix + ".hx.mtxf2"), load_matrix(prefix + ".hz.mtxf2"))
        carried.validate(code)

    def test_capped_effective_search_labelled_skipped(self, steane_files, monkeypatch, capsys):
        hx, hz = steane_files
        msg = "meet-in-the-middle table for t=8 needs 62117055 entries; lower max_d or raise table_cap"
        real = cli.effective_distance

        def capped_in_z(code, schedule, basis, max_d):
            if basis == "Z":
                raise CapExceeded(msg)
            return real(code, schedule, basis, max_d)

        monkeypatch.setattr(cli, "effective_distance", capped_in_z)
        argv = ["transform", "copy", "--hx", hx, "--hz", hz, "--schedule", "derived", "--max-d", "3"]
        assert main(argv) == 0
        dist = json.loads(capsys.readouterr().out)["distances"]
        assert dist["effective_X"]["method"] == "mitm" and dist["effective_X"]["value"] == 2
        assert dist["effective_Z"] == {"value": None, "method": "skipped", "bound": msg}
        assert (dist["code_X"]["value"], dist["code_Z"]["value"]) == (3, 9)

    def test_main_builds_no_parser_per_call(self, steane_files, monkeypatch, capsys):
        hx, hz = steane_files
        flags = ["--hx", hx, "--hz", hz, "--basis", "X"]
        assert main(["info"] + flags) == 0
        built, init = [], argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        assert main(["info"] + flags) == 0
        assert main(["transform", "copy"] + flags) == 0
        assert built == []

    @settings(max_examples=300, deadline=None)
    @given(st.text(max_size=20) | matrix_like_text, st.sampled_from([".mtxf2", ".alist"]))
    def test_random_matrix_text_never_raises(self, text, suffix):
        """Exit 1 exactly when the file does not parse, and the parsers raise
        nothing but UsageError; a file that parses may be a valid code (0)
        or fail validation (2)."""
        q = steane_code()
        with tempfile.TemporaryDirectory() as d:
            hx, hz = os.path.join(d, "hx" + suffix), os.path.join(d, "hz.mtxf2")
            with open(hx, "w", encoding="utf-8") as f:
                f.write(text)
            cli.write_matrix_file(hz, q.h_z)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main(["info", "--hx", hx, "--hz", hz])
            try:
                load_matrix(hx)
            except UsageError:
                assert rc == 1
            else:
                assert rc in (0, 2)

    def test_audit_failure_exit_two(self, tmp_path, capsys):
        hx = tmp_path / "hx.mtxf2"
        hz = tmp_path / "hz.mtxf2"
        hx.write_text("1 2\n1 2\n")
        hz.write_text("1 2\n1\n")  # anticommutes with the X row
        assert main(["info", "--hx", str(hx), "--hz", str(hz)]) == 2


class TestTooling:
    """The entry points as separate processes."""

    def env(self):
        env = dict(os.environ)
        src = str(pathlib.Path(qwr.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        return env

    def run(self, *args):
        return subprocess.run(
            [sys.executable, *args], capture_output=True, text=True, env=self.env(), timeout=120, cwd=REPO
        )

    def test_closed_stdout_exits_quietly(self, steane_files):
        hx, hz = steane_files
        proc = subprocess.Popen([sys.executable, "-m", "qwr.cli", "faultdist", "--hx", hx, "--hz", hz],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=self.env(), cwd=REPO)
        proc.stdout.close()  # the reader is gone before the report is written, as when `| head` has exited
        _, err = proc.communicate(timeout=120)
        assert (proc.returncode, err) == (0, b"")

    def test_module_exit_codes(self, steane_files, tmp_path):
        hx, hz = steane_files
        ok = self.run("-m", "qwr.cli", "info", "--hx", hx, "--hz", hz)
        assert ok.returncode == 0 and json.loads(ok.stdout)["code"]["n"] == 7
        assert self.run("-m", "qwr.cli", "info", "--hx", hx, "--hz", hz, "--ell", "0").returncode == 1
        bad = tmp_path / "bad.mtxf2"
        bad.write_text("1 7\n1\n")  # anticommutes with a Steane Z row
        failed = self.run("-m", "qwr.cli", "info", "--hx", str(bad), "--hz", hz)
        assert failed.returncode == 2
        assert failed.stderr.startswith("audit failure") and "Traceback" not in failed.stderr

    def test_weight_reduce_pipeline_script(self):
        res = self.run("scripts/weight_reduce_pipeline.py")
        assert res.returncode == 0, res.stderr
        assert res.stdout == (
            "code distances: d_X=3 d_Z=3\n"
            "steane             n=7    k=1 w_X=4 q_X=3 w_Z=4   q_Z=3  eff d_X=2 eff d_Z=2 (max_d=4)\n"
            "copied             n=21   k=1 w_X=4 q_X=3 w_Z=12  q_Z=3  eff d_X=2 eff d_Z=inf (max_d=4)\n"
            "copied+gauged      n=30   k=1 w_X=3 q_X=3 w_Z=18  q_Z=3  eff d_X=2 eff d_Z=inf (max_d=4)\n"
            "thickened ell=2    n=86   k=1 w_X=4 q_X=3 w_Z=18  q_Z=4  eff d_X=4 eff d_Z=inf (max_d=4)\n"
            "heights chosen     n=86   k=1 w_X=4 q_X=3 w_Z=18  q_Z=3  eff d_X=4 eff d_Z=inf (max_d=4)\n"
            "greedy heights: [1, 2, 1] (max per-qubit Z[T] load 2)\n"
        )

    def test_gf2_layers_script(self):
        res = self.run("scripts/gf2_layers.py", "--repeat", "1")
        assert res.returncode == 0, res.stderr
        rows = {line.split()[0]: line.split()[1:] for line in res.stdout.splitlines()[2:]}
        assert list(rows) == ["input", "copy", "gauge", "thicken", "cone", "thicken_cone"]
        assert rows["input"][0] == "89" and rows["thicken"][0] == "1679"
        header = res.stdout.splitlines()[1].split()
        assert header[2:] == ["rank", "kernel_basis", "solve", "logical_signatures", "component_weight_audit",
                              "enumerate_faults", "validate", "product", "transpose", "hook_weight_audit",
                              "col_weights"]
        assert all(len(cells) == 12 for cells in rows.values())
        assert rows["thicken"][5] != "-" and rows["copy"][5] == "-"
        # every stage carries a schedule and times the construction that builds it
        assert all("-" not in cells[6:12] for cells in rows.values())

    def test_search_costs_script(self):
        res = self.run("scripts/search_costs.py", "--repeat", "1")
        assert res.returncode == 0, res.stderr
        rows = [line.split() for line in res.stdout.splitlines()[2:]]
        assert len(rows) == len({(r[3], r[4], r[5]) for r in rows}) == 39  # one row per (n, dim, d) class
        assert all(len(r) == 12 and int(r[3]) <= 140 for r in rows)
        by_case = {tuple(r[:3]): r[6:10] + r[11:] for r in rows}
        route, level, _, entries, side = by_case["r2h7h7", "2", "Z"]
        assert (route, level, entries, side) == ("mitm", "6", str(137 + comb(137, 2)), "-")
        assert by_case["r3r3h7", "1", "X"][:2] + by_case["r3r3h7", "1", "X"][4:] == ["capped", "8", "table"]

    def test_search_costs_spread_script(self):
        res = self.run("scripts/search_costs.py", "--spread", "--repeat", "1")
        assert res.returncode == 0, res.stderr
        assert res.stdout.splitlines()[1].split() == ["dim", "n", "k", "d", "route", "level", "probes",
                                                      "table_entries", "ms", "cap"]
        rows = [line.split() for line in res.stdout.splitlines()[2:]]
        assert [(int(r[0]), int(r[1])) for r in rows] == [(dim, 3 * dim) for dim in range(20, 29, 2) for _ in range(5)]
        # 2^dim fits in the walk cap, so each logical space is enumerated: level d, no
        # kernel work, no cap; the distances match a kernel that walks connected levels to 9 or 10 first
        assert all(r[4:8] + r[9:] == ["exhaustive", r[3], "0", "0", "-"] for r in rows)
        assert [int(r[3]) for r in rows] == [11, 13, 11, 11, 13, 13, 13, 12, 13, 12, 15, 13, 15, 15, 13,
                                             14, 16, 15, 15, 15, 16, 17, 15, 15, 15]

    def test_search_costs_faults_script(self):
        res = self.run("scripts/search_costs.py", "--faults", "--repeat", "1")
        assert res.returncode == 0, res.stderr
        assert res.stdout.splitlines()[1].split() == ["code", "b", "gens", "d", "level", "probes", "table_entries",
                                                      "ms"]
        rows = [line.split()[:7] for line in res.stdout.splitlines()[2:]]  # a list: surface Z comes twice
        assert [row[:2] for row in rows] == [
            ["steane", "X"], ["steane", "Z"], ["surface2x3", "X"], ["surface2x3", "Z"], ["surface2x3", "Z"]]
        # thickened Steane Z exhausts max_d 5; level 5 walks its pairs through the anchor
        assert rows[1][2:] == ["234", "inf", "5", "58247", "19701"]
        assert rows[0][3:5] == rows[2][3:5] == ["4", "4"]
        # thickened surface Z exhausts max_d 5 with the table it holds at max_d 6
        assert rows[3] == ["surface2x3", "Z", "100", "inf", "5", "7835", "3081"]
        # the last row, surface Z at max_d 6, hits after a connected level: its witness pass fills no table
        assert res.stdout.splitlines()[-1].split()[:7] == ["surface2x3", "Z", "100", "6", "6", "22426", "3081"]

    def test_hgp_hook_survey_script(self):
        res = self.run("scripts/hgp_hook_survey.py", "2")
        assert res.returncode == 0, res.stderr
        assert "hgp(rep3,rep3)         d=(3,3)  worst effective over 2 schedules: (3,3)" in res.stdout
        # the corollary past three factors: a 4-factor product keeps its distance
        assert "rep2^4 at level 2      d=(4,4)  worst effective over 2 schedules: (4,4)" in res.stdout
