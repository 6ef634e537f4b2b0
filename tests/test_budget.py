"""The budgets of ROADMAP.md's design rules, checked on every run: `src/`
stays within the round's 2,686 lines, and the command line within its 37
settable flags."""

import argparse
from pathlib import Path

from fracspec import cli

SRC_BUDGET = 2686  # lines of src/fracspec/*.py (ROADMAP.md, "Quality of design")
FLAG_BUDGET = 37  # options of the fracspec subcommands, -h excluded


def test_src_stays_within_the_line_budget():
    src = Path(__file__).resolve().parent.parent / "src" / "fracspec"
    counts = {p.name: len(p.read_bytes().splitlines())
              for p in sorted(src.glob("*.py"))}
    total = sum(counts.values())
    assert total <= SRC_BUDGET, (
        f"src/fracspec/*.py is {total} lines, above the {SRC_BUDGET:,}-line "
        f"round budget of ROADMAP.md (\"Quality of design\": a PR that adds "
        f"code first deletes what it replaces): {counts}")


def test_cli_stays_within_the_flag_budget():
    sub, = (a for a in cli.build_parser()._actions
            if isinstance(a, argparse._SubParsersAction))
    counts = {name: sum(1 for a in sp._actions
                        if a.option_strings and "-h" not in a.option_strings)
              for name, sp in sub.choices.items()}
    total = sum(counts.values())
    assert total <= FLAG_BUDGET, (
        f"the fracspec subcommands take {total} flags, above the "
        f"{FLAG_BUDGET}-flag budget of ROADMAP.md (\"Quality of design\": a "
        f"PR that adds an option first deletes one it replaces): {counts}")
