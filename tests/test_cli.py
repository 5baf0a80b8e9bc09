import dataclasses
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from gspb import bounds, cli, exactlp, oracle, projective, reduction, seqchannels
from gspb.channels import (MAGNITUDE_FAMILIES, ChannelSpec, GspbError,
                           ball_centers, out_ball, vertex_count)


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
    code, _, err = run(capsys, "compute", "--family", "deletion", "--n", "16",
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


def test_verify_builds_one_magnitude_quotient(capsys, monkeypatch):
    # the LP and the hand weights of one verify come from one quotient
    calls = []
    real = reduction.quotient_matrix
    monkeypatch.setattr(reduction, "quotient_matrix",
                        lambda spec: calls.append(spec) or real(spec))
    for family in ("mag-asym", "mag-sym"):
        calls.clear()
        code, out, _ = run(capsys, "verify", "--family", family, "--q", "4",
                           "--n", "9")
        assert code == 0 and " feasible" in out
        assert len(calls) == 1


def test_z_past_radius_n(capsys):
    # r > n: every ball is the whole down-set, and each verb answers
    code, out, _ = run(capsys, "table", "--family", "z", "--r", "3",
                       "--n-from", "1", "--n-to", "5", "--exact")
    assert code == 0
    assert [line.split()[3] for line in out.splitlines()[1:]] == [
        "1", "1", "1", "2", "5/2"]
    code, out, _ = run(capsys, "compute", "--family", "z", "--n", "2", "--r", "3",
                       "--bound", "aspv", "--format", "json")
    assert code == 0 and json.loads(out)["bounds"]["gspb"]["num"] == 1
    code, out, _ = run(capsys, "verify", "--family", "z", "--n", "2", "--r", "3")
    assert code == 0 and "closed-form weights feasible" in out


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


@pytest.mark.parametrize("token", ["1/0", "x", "1/2/3"])
def test_verify_malformed_weights_file_refused(capsys, tmp_path, token):
    # a token that is no rational, a zero denominator among them, takes the
    # documented refusal: exit 3 and no traceback
    wf = tmp_path / "w.txt"
    wf.write_text(f"1 {token} 1 1 1 1 1\n")
    code, out, err = run(capsys, "verify", "--family", "z", "--n", "7",
                         "--weights-file", str(wf))
    assert code == 3 and out == ""
    assert err.startswith("refused: malformed weights file: ")


def test_verify_names_negative_weights_apart(capsys, tmp_path):
    # two violated rows and one negative weight, each counted under its name
    wf = tmp_path / "w.txt"
    wf.write_text("1 -1/2 1 1\n")
    code, out, _ = run(capsys, "verify", "--family", "z", "--n", "3",
                       "--weights-file", str(wf))
    assert code == 0
    assert out == (f"z n=3 r=1: {wf} infeasible over 4 constraints\n"
                   "  violated rows 2 (first: [1, 2]), min slack -1\n"
                   "  negative weights 1 (first: [1])\n")
    # a negative weight alone, with every row covered, is infeasible too
    wf.write_text("3 -1/2 3 3\n")
    code, out, _ = run(capsys, "verify", "--family", "z", "--n", "3",
                       "--weights-file", str(wf))
    assert code == 0
    assert out == (f"z n=3 r=1: {wf} infeasible over 4 constraints\n"
                   "  violated rows 0 (first: []), min slack 1\n"
                   "  negative weights 1 (first: [1])\n")


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


def test_table_jobs_capped_at_the_rows(capsys, monkeypatch):
    # a forked pool starts every worker at its first task, so --jobs asks
    # for no more workers than rows; one row needs no pool
    import concurrent.futures

    made = []

    class SerialPool:
        def __init__(self, max_workers):
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, func, jobs):
            return map(func, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    code, a, _ = run(capsys, "table", "--family", "z", "--n-from", "5",
                     "--n-to", "7", "--format", "csv")
    for n_to, jobs, workers in (("7", "64", [3]), ("7", "2", [2]), ("5", "64", [])):
        made.clear()
        code, b, _ = run(capsys, "table", "--family", "z", "--n-from", "5",
                         "--n-to", n_to, "--format", "csv", "--jobs", jobs)
        assert code == 0 and made == workers
        assert b.splitlines() == a.splitlines()[:int(n_to) - 3]


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


def _enumerated_aspv(spec):
    """Vertex count over the mean size of the balls listed by ``out_ball``."""
    sizes = [len(out_ball(spec, c)) for c in ball_centers(spec)]
    return Fraction(vertex_count(spec) * len(sizes), sum(sizes))


def test_radius_two_aspv_enumerates(capsys):
    for family, extra, spec, pinned in (
        ("grain", (), ChannelSpec("grain", n=8, r=2), "1024/45"),
        ("mag-asym", ("--q", "3"), ChannelSpec("mag_asym", n=4, r=2, q=3),
         "243/23"),
        ("projective", (), ChannelSpec("projective", n=5, r=2), "34969/6092"),
    ):
        code, out, _ = run(capsys, "compute", "--family", family, "--n",
                           str(spec.n), *extra, "--r", "2", "--bound", "aspv",
                           "--exact")
        direct = _enumerated_aspv(spec)
        assert code == 0 and f"exact {pinned} " in out
        assert direct == Fraction(pinned)
        # the radius-1 value differs, so this is not a radius-1 answer
        assert direct != _enumerated_aspv(dataclasses.replace(spec, r=1))
    # deletion balls are single-deletion balls; r=2 has none to enumerate
    code, out, _ = run(capsys, "compute", "--family", "deletion", "--n", "8",
                       "--r", "2", "--bound", "aspv")
    assert code == 3 and out == ""


def test_pretty_compute_computes_only_its_bound(capsys, monkeypatch):
    # the pretty line prints one entry and computes no other: a radius
    # refusal never waits for the radius-2 ASPV, whose ball enumeration
    # takes seconds at projective n=6; --format json keeps the whole report
    def enumerate_balls(*args):
        raise AssertionError("ASPV enumerated for a pretty --bound mb")

    with monkeypatch.context() as patch:
        patch.setattr(reduction, "full_hypergraph_lp", enumerate_balls)
        patch.setattr(bounds, "aspv", enumerate_balls)
        for family, extra, bound in (("projective", (), "mb"), ("projective", (), "gspb"),
                                     ("grain", (), "closed"), ("mag-sym", ("--q", "3"), "gspb")):
            code, out, err = run(capsys, "compute", "--family", family, *extra,
                                 "--n", "6", "--r", "2", "--bound", bound)
            assert code == 3 and out == "" and "cover radius 1 only" in err, family
    code, out, _ = run(capsys, "compute", "--family", "projective", "--n", "4",
                       "--r", "2", "--bound", "aspv", "--format", "json")
    entries = json.loads(out)["bounds"]
    assert code == 0 and set(entries) == {"mb", "aspv", "gspb"}
    assert "cover radius 1 only" in entries["mb"]["note"]


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


def test_projective_past_int64_is_a_typed_refusal(capsys):
    # at n=64 the folded subspace LP holds 2^64 - 1, which no int64 matrix
    # holds: the float path (HiGHS and the crossover) refuses it with a
    # refusal naming the coefficient, while the greedy weights and their
    # block dual, solved in Python ints, certify it and beyond
    with pytest.raises(GspbError, match="64-bit coefficient"):
        exactlp.solve_min_transversal(projective.projective_lp(64))
    for n in (63, 64, 70, 100, 200):
        code, out, err = run(capsys, "compute", "--family", "projective",
                             "--n", str(n), "--bound", "gspb", "--exact")
        bound = projective.greedy_weights(n).bound()
        floor = bound.numerator // bound.denominator
        assert code == 0 and err == "", n
        assert out == f"{floor}  exact {exactlp.fmt_frac(bound)}\n"


def test_values_past_the_float_range_print(capsys, tmp_path):
    # the subspace ASPV at n=66 and the greedy total at n=70 pass the float
    # range: JSON carries "approx": null and verify leaves out the "~"
    code, out, _ = run(capsys, "compute", "--family", "projective", "--n", "66",
                       "--bound", "aspv", "--format", "json")
    assert code == 0
    entry = json.loads(out, parse_constant=lambda c: pytest.fail(c))["bounds"]["aspv"]
    assert entry["approx"] is None
    assert Fraction(entry["num"], entry["den"]) == projective.projective_aspv(66)
    wf = tmp_path / "w.txt"
    wf.write_text(" ".join(map(exactlp.fmt_frac, projective.greedy_weights(70).w)))
    code, out, _ = run(capsys, "verify", "--family", "projective", "--n", "70",
                       "--weights-file", str(wf))
    bound = projective.greedy_weights(70).bound()
    assert code == 0 and "~" not in out
    assert (f"  bound {exactlp.fmt_frac(bound)} "
            f"(floor {bound.numerator // bound.denominator}); tight rows") in out


def test_verify_refuses_before_printing(capsys, monkeypatch):
    # the greedy weights pass, but the certificate refuses: a refusal leaves
    # stdout empty
    code, out, err = run(capsys, "verify", "--family", "projective", "--n", "64")
    assert code == 0 and err == "" and "  certificate: greedy\n" in out

    def refuse(n):
        raise GspbError(f"no certificate at n={n}")

    monkeypatch.setattr(projective, "projective_gspb", refuse)
    code, out, err = run(capsys, "verify", "--family", "projective", "--n", "64")
    assert code == 3 and out == ""
    assert err == "refused: no certificate at n=64\n"


@pytest.mark.parametrize("family", sorted(cli.FAMILY_NAMES))
def test_table_columns_follow_the_report(capsys, family):
    # MB unless the report refuses it as not monotone; CLOSED exactly where
    # the report has a closed entry
    q = 3 if cli.FAMILY_NAMES[family] in MAGNITUDE_FAMILIES else None
    extra = ("--q", str(q)) if q else ()
    code, out, _ = run(capsys, "table", "--family", family, *extra,
                       "--n-from", "5", "--n-to", "5", "--format", "csv")
    columns = out.splitlines()[0].split(",")[1:]
    report = bounds.assemble_report(ChannelSpec(cli.FAMILY_NAMES[family], n=5, q=q))
    mb = report.entry("mb")
    assert code == 0 and {"ASPV", "GSPB"} <= set(columns)
    assert ("MB" in columns) == (mb.certified or "not monotone" not in mb.note)
    assert ("CLOSED" in columns) == ("closed" in report.entries)


def test_magnitude_classes_honour_the_enum_cap(capsys):
    # mag-asym q=4 n=11 has C(14, 3) = 364 classes
    argv = ("compute", "--family", "mag-asym", "--q", "4", "--n", "11",
            "--bound", "gspb")
    code, out, err = run(capsys, *argv, "--enum-cap", "363")
    assert code == 4 and out == ""
    assert err == ("resource cap: 364 mag_asym classes exceed the "
                   "enumeration cap 363\n")
    code, out, _ = run(capsys, *argv, "--enum-cap", "364")
    assert code == 0 and out.split()[0] == str(
        bounds.assemble_report(ChannelSpec("mag_asym", n=11, q=4)).entry("gspb").floor)


CLASS_CAP_CHILD = """
import resource
from gspb import bounds, cli
from gspb.channels import ChannelSpec
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
print(cli.main(["compute", "--family", "mag-asym", "--q", "12", "--n", "30",
                "--bound", "closed"]))
print(cli.main(["verify", "--family", "mag-sym", "--q", "23", "--n", "30"]))
report = bounds.assemble_report(ChannelSpec("mag_asym", n=30, q=12))
print([name for name, entry in report.entries.items() if entry.capped])
"""


def test_class_count_cap_refuses_before_allocating():
    # C(41, 11) = 3159461968 compositions would need hundreds of GiB; under
    # a 1 GiB address space the quotient is refused before any class is
    # built, and the CLI exits 4 (set up as in the row-cap test below)
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", CLASS_CAP_CHILD], cwd=src,
                         env=env, capture_output=True, text=True, timeout=120)
    cap = "3159461968 {} classes exceed the enumeration cap 4194304"
    assert out.returncode == 0, out.stderr
    assert out.stdout == "4\n4\n['closed', 'gspb']\n"
    assert out.stderr == (f"resource cap: {cap.format('mag_asym')}\n"
                          f"resource cap: {cap.format('mag_sym')}\n")


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
