"""The stored optimal bases of the deletion and grain orbit quotients: the
shipped file, the stored-basis route, its fallback to HiGHS, the per-family
guard and the cells the stored bases open."""

import json
import runpy
import sys
import tracemalloc
from fractions import Fraction
from importlib import resources

import pytest

from gspb import bounds, exactlp, linsolve, refdata, seqchannels as seq
from gspb.channels import CapExceeded, ChannelSpec

ROUTES = {"deletion": seq.deletion_full_gspb, "grain": seq.grain_full_gspb}


def _shipped() -> dict:
    return json.loads(seq.BASES_FILE.read_text())


def _cells(bases: dict) -> list[tuple[str, int]]:
    return sorted((key.split("-")[0], int(key.split("-")[1])) for key in bases)


def _quotient_shape(family: str, n: int) -> tuple[int, int]:
    use_reversal = family == "deletion"
    ground = n - 1 if use_reversal else n
    return (len(seq._word_orbits(n, use_reversal)[0]),
            len(seq._word_orbits(ground, use_reversal)[0]))


def _highs_route(monkeypatch, family, n, tmp_path) -> exactlp.LPSolution:
    """The cell solved with no bases file, by HiGHS and the crossover."""
    with monkeypatch.context() as patch:
        patch.setattr(seq, "BASES_FILE", tmp_path / "absent.json")
        return ROUTES[family](n)


def _quotient_notes(sol: exactlp.LPSolution) -> str:
    """The quotient solve's notes inside an orbit solution's notes."""
    return sol.notes.split(" (", 1)[1].rsplit("), lift re-verified", 1)[0]


def test_bases_file_ships_with_the_package():
    found = resources.files("gspb").joinpath("data", "orbit_bases.json")
    assert found.is_file()
    doc = json.loads(found.read_text())
    assert isinstance(doc["highs"], str) and doc["highs"]
    assert doc == _shipped()


def test_stored_cells_cover_the_guard():
    # every deletion and grain cell up to the default guard whose HiGHS
    # route ends on its float basis: all but n = 6, the degenerate vertices
    want = [(family, n) for family in ("deletion", "grain")
            for n in range(seq._FIRST_N[family], seq.LP_GUARD[family] + 1)
            if n != 6]
    assert _cells(_shipped()["bases"]) == sorted(want)


@pytest.mark.parametrize("key", sorted(_shipped()["bases"]))
def test_stored_shapes_are_the_word_orbits(key):
    # a stale file (an orbit order or count that changed) fails here
    family, n = key.split("-")
    entry = _shipped()["bases"][key]
    assert tuple(entry["shape"]) == _quotient_shape(family, int(n))
    basis, why = seq.stored_basis(family, int(n))
    assert why == "" and basis.shape == tuple(entry["shape"])
    assert len(basis.support) == len(basis.tight)


def test_regenerated_bases_certify_with_the_stored_optima(monkeypatch, tmp_path):
    shipped = {cell: ROUTES[cell[0]](cell[1]).optimum
               for cell in _cells(_shipped()["bases"]) if cell[1] <= 8}
    path = tmp_path / "bases.json"
    doc = seq.write_orbit_bases(path, {"deletion": 8, "grain": 8})
    assert json.loads(path.read_text()) == doc
    assert doc["highs"] == exactlp.highs_version()
    assert _cells(doc["bases"]) == sorted(shipped)
    monkeypatch.setattr(seq, "BASES_FILE", path)
    for (family, n), optimum in shipped.items():
        sol = ROUTES[family](n)
        assert _quotient_notes(sol).endswith(", stored basis"), (family, n)
        assert sol.optimum == optimum, (family, n)


def test_module_entry_point_rewrites_the_package_file(monkeypatch):
    # python -m gspb.orbitbases calls the one writer on the shipped file
    calls = []
    monkeypatch.setattr(seq, "write_orbit_bases", lambda path: calls.append(path))
    monkeypatch.delitem(sys.modules, "gspb.orbitbases", raising=False)
    runpy.run_module("gspb.orbitbases", run_name="__main__")
    assert calls == [seq.BASES_FILE]


IDENTITY = [cell for cell in _cells(_shipped()["bases"]) if cell[1] <= 10]


@pytest.mark.parametrize("family,n", IDENTITY, ids=[f"{f}-{n}" for f, n in IDENTITY])
def test_stored_route_gives_the_highs_witnesses(monkeypatch, tmp_path, family, n):
    stored = ROUTES[family](n)
    highs = _highs_route(monkeypatch, family, n, tmp_path)
    assert _quotient_notes(stored).endswith(", stored basis")
    assert _quotient_notes(highs).endswith(", float basis")
    assert (stored.optimum, stored.primal, stored.dual) == \
        (highs.optimum, highs.primal, highs.dual)


@pytest.mark.parametrize("family,n", [("deletion", 12), ("grain", 11)])
def test_stored_route_factors_once_and_runs_no_highs(monkeypatch, family, n):
    # B is factored once, by getrf, for both lifts; no float presolve and no
    # mod-p support solve runs
    counts = dict.fromkeys(("dgetrf", "float_presolve", "select_pivots_mod"), 0)
    lapack = linsolve.scipy_extension("scipy.linalg._flapack")
    for mod, fn in ((lapack, "dgetrf"), (exactlp, "float_presolve"),
                    (linsolve, "select_pivots_mod")):
        def spy(*args, real=getattr(mod, fn), fn=fn, **kwargs):
            counts[fn] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(mod, fn, spy)
    sol = ROUTES[family](n)
    assert counts == {"dgetrf": 1, "float_presolve": 0, "select_pivots_mod": 0}
    assert _quotient_notes(sol).endswith(", stored basis")


def test_stored_report_runs_no_highs(highs_solvers):
    # the report's GSPB comes from the stored basis; HiGHS is not set up
    assert bounds.assemble_report(ChannelSpec("deletion", n=10)).entry("gspb").certified
    assert highs_solvers == []


def test_solve_from_basis_refuses_before_it_factors():
    lp = exactlp.CoveringLP.from_rows([1, 1, 1], [[(0, 1), (1, 1)], [(1, 1), (2, 1)]])
    sol = exactlp.solve_min_transversal(lp)
    assert sol.basis is not None and sol.basis.shape == lp.shape
    again, why = exactlp.solve_from_basis(lp, sol.basis)
    assert why == "" and again.notes.endswith(", stored basis")
    assert (again.optimum, again.primal, again.dual) == (sol.optimum, sol.primal, sol.dual)
    support, tight = sol.basis.support, sol.basis.tight
    for basis, reason in (
            (exactlp.Basis((3, 3), support, tight), "is not the LP's"),
            (exactlp.Basis(lp.shape, support + [2], tight), "rows for a support of"),
            (exactlp.Basis(lp.shape, [5] * len(support), tight), "ids out of range"),
            (exactlp.Basis(lp.shape, support, [-1] * len(tight)), "ids out of range")):
        refused, why = exactlp.solve_from_basis(lp, basis)
        assert refused is None and reason in why, basis


def _write_entry(path, key, entry):
    doc = _shipped()
    doc["bases"][key] = entry
    path.write_text(json.dumps(doc))


FALLBACK_CELL = ("deletion", 9)


def _corrupted(kind, tmp_path):
    """The bases file with the deletion 9 entry corrupted as ``kind``."""
    family, n = FALLBACK_CELL
    key = f"{family}-{n}"
    entry = dict(_shipped()["bases"][key])
    rows, cols = entry["shape"]
    path = tmp_path / "bases.json"
    if kind == "missing file":
        return tmp_path / "absent.json"
    if kind == "support id dropped":
        support = seq._ids(entry["support"], cols)
        entry["support"] = seq._mask(support[1:])
    elif kind == "non-tight row":
        qlp = seq.orbit_quotient(family, n)[1]
        sol = exactlp.solve_min_transversal(qlp)
        tight = set(exactlp.verify_transversal(qlp, sol.w).tight_rows)
        basis = seq._ids(entry["rows"], rows)
        loose = next(i for i in range(rows) if i not in tight)
        entry["rows"] = seq._mask(sorted([loose] + basis[1:]))
    elif kind == "shape mismatch":
        entry["shape"] = [rows + 1, cols]
    _write_entry(path, key, entry)
    return path


REASONS = {"missing file": "no bases file",
           "support id dropped": "rows for a support of",
           "non-tight row": ("pair not certified", "float lift failed"),
           "shape mismatch": "is not the LP's"}


@pytest.mark.parametrize("kind", sorted(REASONS))
def test_a_refused_basis_falls_back_to_highs(monkeypatch, tmp_path, kind):
    family, n = FALLBACK_CELL
    want = _highs_route(monkeypatch, family, n, tmp_path)
    monkeypatch.setattr(seq, "BASES_FILE", _corrupted(kind, tmp_path))
    sol = ROUTES[family](n)
    notes = _quotient_notes(sol)
    reasons = REASONS[kind] if isinstance(REASONS[kind], tuple) else (REASONS[kind],)
    assert notes.startswith("stored basis refused (")
    assert any(reason in notes for reason in reasons), notes
    assert notes.endswith(", float basis")
    assert (sol.optimum, sol.primal, sol.dual) == (want.optimum, want.primal, want.dual)
    full = seq.ball_blocks(family, n)
    assert exactlp.check_certificate(full, sol.primal, sol.dual) == sol.optimum


def test_an_unreadable_bases_file_falls_back(monkeypatch, tmp_path):
    path = tmp_path / "bases.json"
    path.write_text("{not json")
    monkeypatch.setattr(seq, "BASES_FILE", path)
    sol = seq.grain_full_gspb(8)
    assert _quotient_notes(sol).startswith("stored basis refused (unreadable bases file")
    assert exactlp.check_certificate(seq.ball_blocks("grain", 8), sol.primal,
                                     sol.dual) == sol.optimum


def test_a_mask_past_the_shape_is_refused(monkeypatch, tmp_path):
    family, n = FALLBACK_CELL
    entry = dict(_shipped()["bases"][f"{family}-{n}"])
    rows, cols = entry["shape"]
    entry["support"] = seq._mask(seq._ids(entry["support"], cols) + [cols])
    path = tmp_path / "bases.json"
    _write_entry(path, f"{family}-{n}", entry)
    monkeypatch.setattr(seq, "BASES_FILE", path)
    basis, why = seq.stored_basis(family, n)
    assert basis is None and "past" in why
    sol = ROUTES[family](n)
    assert _quotient_notes(sol).startswith(f"stored basis refused (unreadable entry {family}-{n}")


def test_basis_masks_round_trip():
    for ids, size in (([], 0), ([], 5), ([0], 1), ([3, 7, 8], 9), ([0, 63, 64, 200], 201)):
        assert seq._ids(seq._mask(ids), size) == ids
    with pytest.raises(ValueError):
        seq._ids(seq._mask([9]), 9)


# ---------------------------------------------------------------------------
# the per-family guard and the cells it opens
# ---------------------------------------------------------------------------

def test_guard_per_family():
    assert seq.LP_GUARD == {"deletion": 15, "grain": 13}
    with pytest.raises(CapExceeded, match="n <= 13"):
        seq.grain_full_gspb(14)
    with pytest.raises(CapExceeded, match="n <= 12"):
        seq.deletion_full_gspb(13, lp_cap=12)
    assert seq.grain_full_gspb(8, lp_cap=8).optimum == seq.grain_full_gspb(8).optimum


@pytest.mark.parametrize("family,n", [("deletion", 16), ("grain", 14)])
def test_guard_refuses_before_it_allocates(family, n):
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded, match=f"capped at n <= {seq.LP_GUARD[family]}"):
            ROUTES[family](n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


# the exact deletion 13 and 14 optima, certified through their stored bases
DELETION_13 = Fraction(
    int("5102453939732983313605655867476809034194436084793927881123447802"
        "8576335565852700483288014194275417920168522728671606016985772303"
        "6643828750041754762613691628802015554412296644028189887484590088"
        "96282026936283871878802723149187951637"),
    int("8597195409922621383231825934050260981138194800656854652939253110"
        "8566982905405563542204733380843010931348093734668572843930021124"
        "5356001640998192769384034441588380609590367178623222835541429502"
        "13200648472265028073979217369232702"))
DELETION_14 = Fraction(
    int("1121752224971841829508186196943769845538973437559352632907210113"
        "8976523814310065663590970949790719621234014488255097948949151525"
        "1605759745648720735337137181650007685845475433683230963259769057"
        "0792923458800355640466107032736715762414999265511511534363756200"
        "2434358904368527317445486300036939224582289304114155765534407296"
        "0533507874214104724242088858363093575957211210539153146491460217"
        "9944978502739751150917473707666624353705628061541007689541412711"
        "86647072638736084946646303239959757740803"),
    int("1016055486647051080935763351979702926029235023924009407537674787"
        "9173569351235706761453190244586574309320330805544875439796342959"
        "7002943590078628743375968844273349889268440925673819489136906342"
        "7799842588601369632372485540586410762068499080115486323265146184"
        "7229152938495232433840992449805873358718498953961021057518120876"
        "6989075180909111321161988087749230606653168607790110868021697085"
        "9121434417477949248704288895171917390021153031377733223618526340"
        "59157141987037933523773352486452829904"))


@pytest.mark.parametrize("n,want", [(13, DELETION_13), (14, DELETION_14)])
def test_deletion_optima_past_12_pinned(n, want):
    sol = seq.deletion_full_gspb(n)
    assert _quotient_notes(sol).endswith(", stored basis")
    assert sol.optimum == want
    floor = want.numerator // want.denominator
    assert floor == refdata.reference_values("deletion", n, 1)["KK12"]
    assert exactlp.check_certificate(seq.ball_blocks("deletion", n), sol.w,
                                     sol.z) == want
