"""The line budget of the library: ROADMAP.md's design rule that `src/`
stays within the round's 2,696 lines, checked on every run."""

from pathlib import Path

SRC_BUDGET = 2696  # lines of src/fracspec/*.py (ROADMAP.md, "Quality of design")


def test_src_stays_within_the_line_budget():
    src = Path(__file__).resolve().parent.parent / "src" / "fracspec"
    counts = {p.name: len(p.read_bytes().splitlines())
              for p in sorted(src.glob("*.py"))}
    total = sum(counts.values())
    assert total <= SRC_BUDGET, (
        f"src/fracspec/*.py is {total} lines, above the {SRC_BUDGET:,}-line "
        f"round budget of ROADMAP.md (\"Quality of design\": a PR that adds "
        f"code first deletes what it replaces): {counts}")
