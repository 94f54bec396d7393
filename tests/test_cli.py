import json

import pytest

from qwr.cli import (
    PipelineConfig,
    format_matrix,
    main,
    parse_alist_file,
    parse_matrix_file,
    run_pipeline,
)
from qwr.codes import repetition_code, steane_code
from qwr.f2la import BinMatrix


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
        p.write_text(
            "3 2\n2 2\n1 2 1\n2 2\n1 0\n1 2\n2 0\n1 2\n2 3\n"
        )
        m = parse_alist_file(str(p))
        assert m == repetition_code(3).h

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


class TestPipeline:
    def test_info_report(self, steane_files):
        hx, hz = steane_files
        rep = run_pipeline(PipelineConfig(hx_path=hx, hz_path=hz))
        assert rep["code"]["n"] == 7 and rep["code"]["k"] == 1
        assert rep["distances"]["code_X"]["value"] == 3
        assert rep["distances"]["code_X"]["method"] == "exhaustive"
        assert rep["schema"] == 1

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
        assert eff["hook_audit_ok"]

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

    def test_usage_error_exit_one(self, steane_files, capsys):
        hx, hz = steane_files
        assert main(["transform", "bogus", "--hx", hx, "--hz", hz]) == 1

    def test_missing_file_exit_one(self, capsys):
        assert main(["info", "--hx", "/nonexistent", "--hz", "/nonexistent"]) == 1

    def test_directory_as_matrix_exit_one(self, steane_files, tmp_path, capsys):
        _, hz = steane_files
        assert main(["info", "--hx", str(tmp_path), "--hz", hz]) == 1
        assert "usage error" in capsys.readouterr().err

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
        ],
    )
    def test_bad_flag_value_exit_one(self, steane_files, flags, capsys):
        hx, hz = steane_files
        assert main(["transform", "thicken", "--hx", hx, "--hz", hz, "--basis", "X"] + flags) == 1

    def test_audit_failure_exit_two(self, tmp_path, capsys):
        hx = tmp_path / "hx.mtxf2"
        hz = tmp_path / "hz.mtxf2"
        hx.write_text("1 2\n1 2\n")
        hz.write_text("1 2\n1\n")  # anticommutes with the X row
        assert main(["info", "--hx", str(hx), "--hz", str(hz)]) == 2
