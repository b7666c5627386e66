"""Only hwkit.linalg may touch Echelon's stored rows, so that the row
representation can change without touching any caller: everything else reads
pivots(), basis(), rank and n_vectors."""

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
LINALG = ROOT / "src" / "hwkit" / "linalg.py"
PRIVATE = re.compile(r"\b_rows\b")


def test_only_linalg_touches_echelon_rows():
    assert PRIVATE.search(LINALG.read_text(encoding="utf-8"))
    scanned = [*(ROOT / "src" / "hwkit").rglob("*.py"),
               *(ROOT / "tests").rglob("*.py")]
    offenders = []
    for path in sorted(scanned):
        if path in (LINALG, pathlib.Path(__file__).resolve()):
            continue
        lines = path.read_text(encoding="utf-8").splitlines()
        offenders += [f"{path.relative_to(ROOT)}:{n}"
                      for n, line in enumerate(lines, 1)
                      if PRIVATE.search(line)]
    assert not offenders, offenders
