#!/usr/bin/env python3
"""List the executable lines of each ``spg`` module that no tier-1 test runs.

Standard library only: ``sys.settrace`` records the lines run, and
``types.CodeType.co_lines`` of each module's compiled code gives the lines
that can run.  Each test file runs in its own process, because a test that
hits Python's recursion limit switches the tracer off for the rest of its
process; the tracer is also set again before each test.  Hypothesis's
``explain`` phase, which traces code itself, is turned off.

Usage: unrun_lines.py [TEST_FILE ...]  (paths from the repository root;
default: every tests/test_*.py).  Prints one line per module (executable
lines, lines no test ran) and then the unrun lines themselves.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "spg"


def executable_lines(path: Path) -> set[int]:
    """The lines that some instruction of the module's code belongs to (line
    0 holds the module's set-up instructions, which no line event reports)."""
    out: set[int] = set()
    stack = [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        out.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if isinstance(c, CodeType))
    return out


def _ranges(lines: list[int]) -> str:
    """``3-5,9`` for lines 3, 4, 5 and 9."""
    spans: list[list[int]] = []
    for n in lines:
        if spans and n == spans[-1][1] + 1:
            spans[-1][1] = n
        else:
            spans.append([n, n])
    return ",".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def run_one(test_file: str) -> None:
    """Run one test file under the tracer and print the lines run, per
    module file name, as JSON on the last line of stdout."""
    from hypothesis import Phase, settings

    settings.register_profile("unrun", phases=[p for p in Phase if p is not Phase.explain])
    settings.load_profile("unrun")
    import pytest

    watched = {str(p) for p in SRC.glob("*.py")}
    hit: dict[str, set[int]] = {name: set() for name in watched}

    def local(frame, event, arg):
        if event == "line":
            hit[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in watched:
            return None
        hit[name].add(frame.f_lineno)
        return local

    class Retrace:
        @staticmethod
        def pytest_runtest_setup(item):
            sys.settrace(tracer)

    sys.settrace(tracer)
    code = pytest.main([test_file, "-q", "-p", "no:cacheprovider"], plugins=[Retrace()])
    sys.settrace(None)
    print(json.dumps({"exit": int(code), "hit": {k: sorted(v) for k, v in hit.items()}}))


def main(argv: list[str]) -> int:
    files = argv or sorted(str(p.relative_to(ROOT)) for p in (ROOT / "tests").glob("test_*.py"))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    hit: dict[str, set[int]] = {}
    for test_file in files:
        proc = subprocess.run(
            [sys.executable, __file__, "--one", test_file],
            cwd=ROOT, env=env, capture_output=True, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        if not lines or not lines[-1].startswith("{"):
            print(f"{test_file}: no trace (exit {proc.returncode})\n{proc.stderr[-2000:]}", file=sys.stderr)
            return 2
        result = json.loads(lines[-1])
        print(f"ran {test_file} (pytest exit {result['exit']})", file=sys.stderr)
        for name, run in result["hit"].items():
            hit.setdefault(name, set()).update(run)
    total_exec = total_unrun = 0
    details = []
    print(f"{'module':<16}{'executable':>11}{'unrun':>7}")
    for path in sorted(SRC.glob("*.py")):
        can = executable_lines(path)
        unrun = sorted(can - hit.get(str(path), set()))
        total_exec += len(can)
        total_unrun += len(unrun)
        print(f"{path.name:<16}{len(can):>11}{len(unrun):>7}")
        if unrun:
            details.append(f"{path.name}: {_ranges(unrun)}")
    print(f"{'total':<16}{total_exec:>11}{total_unrun:>7}")
    print("\n".join(details))
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--one"]:
        run_one(sys.argv[2])
    else:
        sys.exit(main(sys.argv[1:]))
