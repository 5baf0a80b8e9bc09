"""Published comparison columns, embedded as immutable data.

These are external values reproduced for side-by-side reporting only; the
artifact never derives anything from them.  Keys are (family, n, r); each
entry carries its literature source tag.  Absent entries render as "?".
"""

from __future__ import annotations

# integer-programming upper bounds for the downward binary channel [WVB88]
_WVB88 = {
    1: [6, 12, 18, 36, 62, 117, 210, 410, 786, 1500, 2828, 5430, 10374,
        19898, 38008, 73174, 140798, 271953, 523586],
    2: [2, 4, 4, 7, 12, 18, 32, 63, 114, 218, 398, 739, 1279, 2380, 4242,
        8069, 14374, 26679, 50200],
    3: [2, 2, 2, 4, 4, 6, 8, 12, 18, 34, 50, 90, 168, 320, 616, 1144, 2134,
        4116, 7346],
    4: [2, 2, 2, 2, 2, 4, 4, 4, 6, 8, 12, 16, 26, 44, 76, 134, 229, 423, 745],
}

# single-deletion code sizes (lower bounds) [VT65]
_VT65 = [6, 10, 16, 30, 52, 94, 172, 316, 586, 1096, 2048, 3856, 7286,
         13798, 26216, 49940, 95326, 182362, 349536]

# previously published covering optima for the deletion channel [KK12]
_KK12_DELETION = [6, 10, 17, 30, 53, 96, 175, 321, 593, 1104]  # n = 5..14

# best known single-grain-error code sizes, mixed sources
_GRAIN_LB = [
    (8, "SR11"), (16, "SR11"), (26, "SR11"), (44, "SR11"), (72, "SR13"),
    (112, "SR13"), (210, "GYD13b"), (372, "SR13"), (702, "GYD13b"),
    (1272, "SR13"), (2400, "GYD13b"), (4522, "SR13"), (8428, "SR13"),
    (15348, "GYD13b"), (27596, "GYD13b"), (52432, "GYD13b"), (99880, "GYD13b"),
    (190652, "GYD13b"), (364724, "GYD13b"),
]

# projective-code upper bounds [BVP], n = 4..9
_BVP = [6, 20, 124, 776, 9268, 107419]


COLUMN_FAMILIES = ("z", "deletion", "grain", "projective")  # with a REF column


def reference_values(family: str, n: int, r: int = 1) -> dict[str, int]:
    """Source-tagged external column values for one instance; may be empty."""
    out: dict[str, int] = {}
    if family == "z" and r in _WVB88 and 5 <= n <= 23:
        out["WVB88"] = _WVB88[r][n - 5]
    elif family == "deletion" and r == 1:
        if 5 <= n <= 23:
            out["VT65"] = _VT65[n - 5]
        if 5 <= n <= 14:
            out["KK12"] = _KK12_DELETION[n - 5]
    elif family == "grain" and r == 1 and 5 <= n <= 23:
        value, source = _GRAIN_LB[n - 5]
        out[source] = value
    elif family == "projective" and r == 1 and 4 <= n <= 9:
        out["BVP"] = _BVP[n - 4]
    return out


def primary_reference(family: str, n: int,
                      r: int = 1) -> tuple[str, int] | None:
    """The single REF-column value for table output, or None ("?")."""
    refs = reference_values(family, n, r)
    if not refs:
        return None
    if family == "deletion":
        # the published table's last column is the construction lower bound
        if "VT65" in refs:
            return ("VT65", refs["VT65"])
    for source, value in refs.items():
        return (source, value)
    return None
