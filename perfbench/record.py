#!/usr/bin/env python3
"""Record the exact value of every benchmark instance into expected.json.

    python3 perfbench/record.py            # from the repository root

Each instance is certified once through the same public calls the benchmark
makes; the script refuses to record an uncertified result.  It then
cross-checks every recorded value against the published floor where
``tests/published_tables.py`` has one, and prints each cell that differs.
Those cells are the published-table discrepancies pinned, with independent
cross-checks, in ``tests/test_published_discrepancies.py``; the record keeps
the exact value, not the printed one.

Run it only when a change is meant to alter a value; the benchmark's
correctness gate compares against what it writes.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (needs src on the path)

# published column order per table, keyed by (family, q) or family
COLUMNS = {
    "z": ("mb", "aspv", "gspb"),
    ("mag_asym", 3): ("mb", "aspv", "closed", "gspb"),
    ("mag_sym", 3): ("aspv", "closed", "gspb"),
    ("mag_sym", 4): ("aspv", "closed", "gspb"),
    "deletion": ("mb", "aspv", "closed", "gspb", None),
    "grain": ("mb", "aspv", "closed", None),
    "projective": (None, "aspv", "gspb"),
}


def published_cells(tables, inst) -> dict[str, int]:
    """Printed floors for the instance's values, where a table has them."""
    if inst.call == "verify":
        # the profile weights total the CLOSED column of the same n
        row = (tables.DELETION if inst.family == "deletion" else tables.GRAIN).get(inst.n)
        return {} if row is None else {"bound": row[2]}
    if inst.family == "z":
        row, cols = tables.Z_TABLES[inst.r].get(inst.n), COLUMNS["z"]
    elif inst.family == "mag_asym" and inst.q == 3:
        row, cols = tables.ASYM_Q3.get(inst.n), COLUMNS[("mag_asym", 3)]
    elif inst.family == "mag_sym" and inst.q in (3, 4):
        table = tables.SYM_Q3 if inst.q == 3 else tables.SYM_Q4
        row, cols = table.get(inst.n), COLUMNS[("mag_sym", inst.q)]
    elif inst.family in ("deletion", "grain", "projective"):
        table = {"deletion": tables.DELETION, "grain": tables.GRAIN,
                 "projective": tables.PROJECTIVE}[inst.family]
        row, cols = table.get(inst.n), COLUMNS[inst.family]
    else:
        return {}
    if row is None:
        return {}
    return {c: v for c, v in zip(cols, row) if c is not None and v is not None}


def load_tables():
    path = ROOT / "tests" / "published_tables.py"
    spec = importlib.util.spec_from_file_location("published_tables", path)
    tables = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tables)
    return tables


def main() -> int:
    tables = load_tables()
    instances = {}
    for table in (workloads.WORKLOADS, workloads.SMOKE):
        for insts in table.values():
            for inst in insts:
                instances[inst.id] = inst
    record, mismatches = {}, []
    for inst_id, inst in instances.items():
        values, certified = workloads.outcome(inst, workloads.execute(inst))
        if not certified:
            print(f"refusing to record {inst_id}: not certified", file=sys.stderr)
            return 1
        record[inst_id] = {"certified": True, "values": values}
        for col, printed in published_cells(tables, inst).items():
            value = Fraction(values[col])
            exact_floor = value.numerator // value.denominator
            if exact_floor != printed:
                mismatches.append(f"{inst_id} {col}: printed {printed}, "
                                  f"exact {values[col]} (floor {exact_floor})")
        print(f"recorded {inst_id}", file=sys.stderr)
    (HERE / "expected.json").write_text(json.dumps(record, indent=1) + "\n")
    print(f"{len(record)} instances recorded; "
          f"{len(mismatches)} cells differ from the published floors:")
    for line in mismatches:
        print("  " + line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
