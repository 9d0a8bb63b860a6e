"""List the statements of src/rallyforge that no test runs.

Usage (from the repository root; every argument goes to pytest)::

    python tools/test_lines.py -q -p no:cacheprovider

Runs pytest in this process under the same ``sys.settrace`` tracer as
``tools/line_sweep.py``, then prints every line of ``src/rallyforge`` that
holds code and never ran, as ``path:line: source``, file by file, and a
total. With no arguments pytest runs its configured test paths, tier-1.
Arguments narrow or widen the run as they would for pytest itself, for
example ``--deselect
tests/test_acceptance.py::test_scoring_matches_brute_force_oracle`` to leave
out the slow brute-force scoring oracle. Code that tests run only in a
subprocess does not count as run.

A line listed here is reached by no test; read each before deleting it, since
the command line or other inputs may still reach it (``line_sweep.py``
covers the CLI).
"""

from __future__ import annotations

import os
import sys
import time

import pytest

from line_sweep import PACKAGE, ROOT, print_missed, tracing


def main(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    # rallyforge is first imported by the tests, under the tracer: module lines count
    with tracing(str(PACKAGE) + os.sep) as ran:
        code = pytest.main(list(args))
    total = print_missed(ran)
    print(f"{total} lines never ran under pytest {' '.join(args)} "
          f"(pytest exited {int(code)}; {time.perf_counter() - t0:.1f} s)")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
