"""List the lines of ``src/lumped_pid`` that the test suite never runs.

Runs ``pytest tests`` in this process under a ``sys.settrace`` /
``threading.settrace`` line counter limited to ``src/lumped_pid``, compares
the lines hit with each module's line table (the ``co_lines()`` of its code
object and of every code object nested in it), and prints each line never
run as ``file:line: source``, then their count. Each module's line table
and printed source come from its bytes as they were before pytest started,
the code the run imported; a module whose bytes differ at the end of the
run is named as changed during the run instead, and left out of the count.
Extra arguments go to pytest. It needs no coverage package; from the
repository root:

    python tools/line_reach.py [pytest arguments]

Every line event of the suite goes through a Python function, so a run takes
minutes, and tests with a wall-clock gate may fail under it; their lines are
still counted. ``hypothesis`` runs without deadlines or health checks here,
so that a slowed property test still runs its examples. Lines run only in a
worker process (``sweep --parallel``) are not seen.
"""

from __future__ import annotations

import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "lumped_pid"


def table_lines(source: bytes, path: Path) -> set[int]:
    """The lines of the line tables of the module ``source`` read from ``path``."""
    lines = set()
    codes = [compile(source, str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        codes.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


class _NoDeadlines:
    """A pytest plugin that runs ``hypothesis`` without deadlines or health
    checks, loaded once pytest has imported it."""

    @staticmethod
    def pytest_configure(config):
        from hypothesis import HealthCheck, settings

        settings.register_profile("line_reach", deadline=None,
                                  suppress_health_check=list(HealthCheck))
        settings.load_profile("line_reach")


def run_traced(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest under the line counter: its exit status and the lines hit,
    by file name."""
    import pytest

    prefix = str(PACKAGE) + os.sep
    hits: dict[str, set[int]] = {}

    def count_lines(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return count_lines

    def on_call(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        hits.setdefault(filename, set()).add(frame.f_lineno)
        return count_lines

    sys.path.insert(0, str(PACKAGE.parent))
    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests"), *pytest_args],
                             plugins=[_NoDeadlines()])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), hits


def main(argv: list[str]) -> int:
    sources = {path: path.read_bytes() for path in sorted(PACKAGE.rglob("*.py"))}
    status, hits = run_traced(argv)
    unreached, changed = [], []
    total = 0
    for path, source in sources.items():
        name = path.relative_to(ROOT)
        if not path.is_file() or path.read_bytes() != source:
            changed.append(f"{name}: changed during the run")
            continue
        lines = table_lines(source, path)
        total += len(lines)
        text = source.decode().splitlines()
        for line in sorted(lines - hits.get(str(path), set())):
            unreached.append(f"{name}:{line}: {text[line - 1].strip()}")
    print("\n".join(unreached + changed))
    print(f"{len(unreached)} of {total} line-table lines unreached, {len(changed)} files "
          f"changed during the run (pytest exit status {status})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
