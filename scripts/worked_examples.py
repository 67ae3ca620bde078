#!/usr/bin/env python3
"""Walk a few small games end to end: basic positions, both ideals, the game
tree size, canonical value and outcome.

Usage: worked_examples.py [--example {domineering,nogo,snort-col,all}]
"""
from __future__ import annotations

import argparse

from spg.boards import build_path, grid_from_cells
from spg.engine import analyze
from spg.gametree import build_tree, canonical_value, outcome, value_str
from spg.rulesets import col, domineering, nogo, snort


def gens(ideal) -> str:
    return ", ".join(sorted("".join(sorted(g)) for g in ideal.generators)) or "0"


def show_game(name, game, board):
    print(f"== {name} ==")
    a = analyze(game, board)
    for var, pl in a.index.entries:
        print(f"  {var}: {pl.player} piece on {sorted(pl.occupied)}")
    print(f"  legal ideal:   <{gens(a.legal_ideal())}>")
    print(f"  illegal ideal: <{gens(a.illegal_ideal())}>")
    delta = a.legal_complex()
    print(f"  tree nodes: {build_tree(delta).node_count}")
    print(f"  value: {value_str(canonical_value(delta))}   outcome: {outcome(delta)}")
    print()


def example_domineering():
    lshape = grid_from_cells([(0, 0), (1, 0), (2, 0), (2, 1)])
    show_game("domineering on an L of four cells", domineering(), lshape)


def example_nogo():
    board = build_path(3)
    a = analyze(nogo(), board)
    print("== nogo on a 3-path ==")
    print("  minimal illegal positions:")
    for f in sorted("".join(sorted(f)) for f in a.minimal_illegal):
        print(f"    {f}")
    print()


def example_snort_col():
    board = build_path(4)
    for name, game in (("snort", snort()), ("col", col())):
        delta = analyze(game, board).legal_complex()
        print(f"== {name} on a 4-path ==")
        print(f"  value: {value_str(canonical_value(delta))}   outcome: {outcome(delta)}")
    print()


EXAMPLES = {
    "domineering": example_domineering,
    "nogo": example_nogo,
    "snort-col": example_snort_col,
}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--example", choices=[*EXAMPLES, "all"], default="all")
    args = ap.parse_args()
    for name, fn in EXAMPLES.items():
        if args.example in (name, "all"):
            fn()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
