import dataclasses
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from gspb import bounds, cli, exactlp, oracle, seqchannels
from gspb.channels import ChannelSpec


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


def test_compute_skips_the_gspb_solve_unless_asked(capsys, monkeypatch):
    code, expected, _ = run(capsys, "compute", "--family", "grain", "--n", "9",
                            "--bound", "mb")

    def unasked(*args, **kwargs):
        raise AssertionError("GSPB solved for an MB query")

    monkeypatch.setattr(seqchannels, "grain_full_gspb", unasked)
    assert run(capsys, "compute", "--family", "grain", "--n", "9",
               "--bound", "mb") == (0, expected, "")
    assert code == 0 and expected.split()[0] == "112"


def test_failed_orbit_lift_is_a_typed_refusal(capsys, monkeypatch):
    # the quotient solve certifies; its lift is refused on the full LP
    real = exactlp.check_certificate
    monkeypatch.setattr(exactlp, "check_certificate", lambda lp, w, z: (
        None if lp.name.startswith("deletion-full") else real(lp, w, z)))
    code, out, err = run(capsys, "compute", "--family", "deletion", "--n", "6",
                         "--bound", "gspb")
    assert code == 3 and out == "" and "orbit lift" in err
    entry = bounds.assemble_report(ChannelSpec("deletion", n=6)).entry("gspb")
    assert entry.value is None and not entry.capped
    assert "orbit lift" in entry.note


def test_failed_class_transversal_is_a_typed_refusal(capsys, monkeypatch):
    real = exactlp.verify_transversal
    monkeypatch.setattr(exactlp, "verify_transversal",
                        lambda lp, w: dataclasses.replace(real(lp, w), feasible=False))
    code, out, err = run(capsys, "compute", "--family", "mag-asym", "--q", "3",
                         "--n", "5", "--bound", "closed")
    assert code == 3 and out == "" and "class transversal" in err


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
        # the full-LP GSPB route builds the same rows under the same cap
        code, out, err = run(capsys, "compute", "--family", family, "--n", "13",
                             "--lp-cap", "13", "--enum-cap", "100",
                             "--bound", "gspb")
        assert code == 4 and out == ""
        assert err == (f"resource cap: 8192 {family} rows exceed "
                       "the enumeration cap 100\n")


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


def test_failed_witness_check_is_a_typed_refusal(capsys, monkeypatch):
    # a covering optimum below the empty packing fails the witness check
    monkeypatch.setattr(oracle, "brute_force_tau", lambda spec, cap: Fraction(-1))
    code, out, err = run(capsys, "oracle", "--family", "z", "--n", "4")
    assert code == 3 and out == "" and "oracle witness check" in err


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


# radius: z serves every r; the other families' MB, CLOSED, GSPB and verify
# cover r=1 only and refuse r=2 with no value, instead of answering for r=1
_RADIUS_ONE_FAMILIES = [
    ("deletion", (), ("mb", "closed", "gspb")),
    ("grain", (), ("mb", "closed", "gspb")),
    ("mag-asym", ("--q", "3"), ("mb", "closed", "gspb")),
    ("mag-sym", ("--q", "3"), ("closed", "gspb")),
    ("projective", (), ("gspb",)),
]


@pytest.mark.parametrize("family,extra,bounds", _RADIUS_ONE_FAMILIES)
def test_radius_two_refuses_family_routes(capsys, family, extra, bounds):
    n = "5" if family == "projective" else "4"
    for bound in bounds:
        code, out, err = run(capsys, "compute", "--family", family, "--n", n,
                             *extra, "--r", "2", "--bound", bound, "--exact")
        assert code == 3 and out == "", (family, bound, out)
        assert "cover radius 1 only" in err
    code, out, err = run(capsys, "verify", "--family", family, "--n", n,
                         *extra, "--r", "2")
    assert code == 3 and out == "" and "cover radius 1 only" in err


def test_radius_two_aspv_enumerates(capsys):
    import dataclasses
    from gspb.channels import ChannelSpec, average_ball_size, vertex_count
    for family, extra, spec, pinned in (
        ("grain", (), ChannelSpec("grain", n=8, r=2), "1024/45"),
        ("mag-asym", ("--q", "3"), ChannelSpec("mag_asym", n=4, r=2, q=3),
         "243/23"),
        ("projective", (), ChannelSpec("projective", n=5, r=2), "34969/6092"),
    ):
        code, out, _ = run(capsys, "compute", "--family", family, "--n",
                           str(spec.n), *extra, "--r", "2", "--bound", "aspv",
                           "--exact")
        direct = vertex_count(spec) / average_ball_size(spec)
        assert code == 0 and f"exact {pinned} " in out
        assert direct == Fraction(pinned)
        # the radius-1 value differs, so this is not a radius-1 answer
        assert direct != vertex_count(spec) / average_ball_size(
            dataclasses.replace(spec, r=1))
    # deletion balls are single-deletion balls; r=2 has none to enumerate
    code, out, _ = run(capsys, "compute", "--family", "deletion", "--n", "8",
                       "--r", "2", "--bound", "aspv")
    assert code == 3 and out == ""


def test_radius_two_deletion_table_is_unknown(capsys):
    code, out, _ = run(capsys, "table", "--family", "deletion", "--r", "2",
                       "--n-from", "4", "--n-to", "7", "--format", "csv",
                       "--columns", "MB,CLOSED,GSPB")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,MB,CLOSED,GSPB"
    assert lines[1:] == [f"{n},?,?,?" for n in range(4, 8)]


@pytest.mark.parametrize("r,gspb,mb", [
    ("2", "138  exact 1917151/13860  [path: closed-form]",
     "238  exact 871479711499/3657526516"),
    ("3", "48  exact 301121/6160  [path: closed-form]",
     "156  exact 168034489/1075204"),
])
def test_z_serves_larger_radii(capsys, r, gspb, mb):
    code, out, _ = run(capsys, "compute", "--family", "z", "--n", "12",
                       "--r", r, "--bound", "gspb", "--exact")
    assert code == 0 and out == gspb + "\n"
    code, out, _ = run(capsys, "compute", "--family", "z", "--n", "12",
                       "--r", r, "--bound", "mb", "--exact")
    assert code == 0 and out == mb + "\n"
    code, out, _ = run(capsys, "verify", "--family", "z", "--n", "12",
                       "--r", r)
    assert code == 0 and f"r={r}: closed-form weights feasible" in out


def test_table_q_rule_matches_compute(capsys):
    code, _, err = run(capsys, "table", "--family", "z", "--q", "3",
                       "--n-from", "2", "--n-to", "4")
    assert code == 3 and "--q does not apply to z" in err
    code, _, err = run(capsys, "table", "--family", "mag-asym",
                       "--n-from", "2", "--n-to", "4")
    assert code == 3 and "--q is required" in err


@pytest.mark.parametrize("argv", [
    ("--family", "z", "--n", "10"),
    ("--family", "deletion", "--n", "10"),
    ("--family", "mag-sym", "--q", "3", "--n", "7"),
])
def test_oracle_refuses_deep_searches(capsys, argv):
    code, out, err = run(capsys, "oracle", *argv)
    assert code == 4 and out == "" and "balls exceed" in err


def test_oracle_search_budget_exit_4():
    # 64 balls pass the depth guard, but the disjoint-ball search would run
    # for minutes; the node budget refuses it with exit 4
    src = Path(cli.__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, "-m", "gspb.cli", "oracle", "--family", "mag-asym",
         "--q", "4", "--n", "3"],
        cwd=src, capture_output=True, text=True, timeout=60)
    assert out.returncode == 4 and out.stdout == ""
    assert "budget" in out.stderr


ROW_CAP_CHILD = """
import resource
from gspb import cli, seqchannels
from gspb.channels import EnumerationCapExceeded
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
for verify in (seqchannels.verify_deletion_transversal,
               seqchannels.verify_grain_transversal):
    try:
        verify(23)
    except EnumerationCapExceeded as exc:
        print(exc)
for family in ("deletion", "grain"):
    print(cli.main(["compute", "--family", family, "--n", "23",
                    "--lp-cap", "30", "--bound", "gspb"]))
"""


def test_row_cap_refuses_before_allocating():
    # 2^23 rows would need arrays of about 1.4 GiB; under a 1 GiB address
    # space the row builders must refuse first, and the CLI exits 4. The
    # limit is set after the imports, and BLAS runs one thread, so the
    # address space of the import itself does not depend on the core count
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", ROW_CAP_CHILD], cwd=src,
                         env=env, capture_output=True, text=True, timeout=120)
    cap = "8388608 {} rows exceed the enumeration cap 4194304"
    assert out.returncode == 0, out.stderr
    assert out.stdout == (f"{cap.format('deletion')}\n{cap.format('grain')}\n"
                          "4\n4\n")
    assert out.stderr == (f"resource cap: {cap.format('deletion')}\n"
                          f"resource cap: {cap.format('grain')}\n")


def test_oracle_small_output_unchanged(capsys):
    code, out, _ = run(capsys, "oracle", "--family", "z", "--n", "4")
    assert code == 0
    assert out == ("z n=4 r=1: tau* = 5 (~5.0000), nu = 4, nu <= 5\n"
                   "  witness centers: [0, 3, 12, 15]\n")
