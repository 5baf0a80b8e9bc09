import json

import pytest

from gspb import cli


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_z_gspb(capsys):
    code, out, _ = run(capsys, "compute", "--family", "z", "--n", "10",
                       "--r", "1", "--bound", "gspb", "--exact")
    assert code == 0
    assert out.split()[0] == "159"
    assert "89393/560" in out


def test_compute_json_schema(capsys):
    code, out, _ = run(capsys, "compute", "--family", "z", "--n", "6",
                       "--bound", "gspb", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["family"] == "z" and data["n"] == 6
    g = data["bounds"]["gspb"]
    assert g["floor"] == 14 and g["certified"]
    assert {"num", "den", "approx", "floor", "certified"} <= set(g)


def test_compute_projective(capsys):
    code, out, _ = run(capsys, "compute", "--family", "projective", "--n", "6",
                       "--bound", "gspb")
    assert code == 0 and out.split()[0] == "132"


def test_compute_grain_mb(capsys):
    code, out, _ = run(capsys, "compute", "--family", "grain", "--n", "5",
                       "--bound", "mb")
    assert code == 0 and out.split()[0] == "12"


def test_refusals_exit_3(capsys):
    code, _, err = run(capsys, "compute", "--family", "mag-sym", "--n", "4",
                       "--q", "3", "--bound", "mb")
    assert code == 3 and "refused" in err
    code, _, err = run(capsys, "compute", "--family", "mag-asym", "--n", "4",
                       "--bound", "gspb")
    assert code == 3  # missing --q
    code, _, err = run(capsys, "table", "--family", "mag-sym", "--q", "3",
                       "--n-from", "3", "--n-to", "4", "--columns", "MB")
    assert code == 3


def test_cap_exit_4(capsys):
    code, _, err = run(capsys, "compute", "--family", "deletion", "--n", "14",
                       "--bound", "gspb")
    assert code == 4 and "cap" in err
    # the message names no cap; the exit code comes from the exception type
    code, _, err = run(capsys, "compute", "--family", "deletion", "--n", "30",
                       "--r", "2", "--bound", "aspv")
    assert code == 4 and "too many deletion centers" in err
    code, _, err = run(capsys, "oracle", "--family", "z", "--n", "13",
                       "--enum-cap", "4096")
    assert code == 4
    for family in ("deletion", "grain"):
        code, _, err = run(capsys, "verify", "--family", family, "--n", "16",
                           "--enum-cap", "1000")
        assert code == 4 and "cap" in err


def test_table_csv_roundtrip(capsys, tmp_path):
    out_file = tmp_path / "t.csv"
    code, _, _ = run(capsys, "table", "--family", "z", "--n-from", "5",
                     "--n-to", "8", "--format", "csv", "--out", str(out_file))
    assert code == 0
    lines = out_file.read_text().strip().splitlines()
    assert lines[0] == "n,MB,ASPV,GSPB,REF"
    from gspb import bounds
    from gspb.channels import ChannelSpec
    for row in lines[1:]:
        cells = row.split(",")
        n = int(cells[0])
        rep = bounds.assemble_report(ChannelSpec("z", n=n))
        assert int(cells[1]) == rep.entry("mb").floor
        assert int(cells[2]) == rep.entry("aspv").floor
        assert int(cells[3]) == rep.entry("gspb").floor


def test_table_deterministic(capsys):
    code, out1, _ = run(capsys, "table", "--family", "grain", "--n-from", "5",
                        "--n-to", "9", "--format", "csv", "--lp-cap", "0")
    code, out2, _ = run(capsys, "table", "--family", "grain", "--n-from", "5",
                        "--n-to", "9", "--format", "csv", "--lp-cap", "0")
    assert code == 0 and out1 == out2


def test_table_question_marks(capsys):
    code, out, _ = run(capsys, "table", "--family", "z", "--n-from", "24",
                       "--n-to", "25", "--format", "csv", "--columns",
                       "GSPB,REF")
    assert code == 0
    for line in out.strip().splitlines()[1:]:
        assert line.endswith(",?")  # no published reference past n=23


def test_verify_deletion(capsys):
    code, out, _ = run(capsys, "verify", "--family", "deletion", "--n", "9")
    assert code == 0 and "feasible" in out


def test_verify_weights_file(capsys, tmp_path):
    wf = tmp_path / "w.txt"
    wf.write_text("0 0 0\n")
    code, out, _ = run(capsys, "verify", "--family", "z", "--n", "2",
                       "--weights-file", str(wf))
    assert code == 0 and "infeasible" in out
    wf2 = tmp_path / "good.txt"
    wf2.write_text("1 1/2 0\n")
    code, out, _ = run(capsys, "verify", "--family", "z", "--n", "2",
                       "--weights-file", str(wf2))
    assert code == 0 and "feasible" in out and "bound 2" in out


def test_oracle_family(capsys):
    code, out, _ = run(capsys, "oracle", "--family", "z", "--n", "5")
    assert code == 0
    assert "tau* = 17/2" in out and "nu <= 8" in out


def test_oracle_fixture_example2(capsys):
    code, out, _ = run(capsys, "oracle", "--fixture", "example2")
    assert code == 0 and "covering optimum 1" in out


def test_fixtures(capsys):
    code, out, _ = run(capsys, "fixtures")
    assert code == 0
    assert out.count("example") >= 3


def test_table_jobs_parallel_matches_serial(capsys):
    code, a, _ = run(capsys, "table", "--family", "z", "--n-from", "5",
                     "--n-to", "7", "--format", "csv")
    code, b, _ = run(capsys, "table", "--family", "z", "--n-from", "5",
                     "--n-to", "7", "--format", "csv", "--jobs", "2")
    assert a == b
