#!/usr/bin/env python3
"""Run the acceptance criteria and print one PASS/FAIL line per criterion.

Equivalent to `pytest -s tests/test_acceptance.py`; kept as a script so the
suite can be driven without pytest.
"""

import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

import test_acceptance as acc  # noqa: E402

# every test_criterion_* function, in source order (a module's namespace
# keeps definition order), so a new criterion cannot be left out
CRITERIA = [fn for name, fn in vars(acc).items() if name.startswith("test_criterion_") and callable(fn)]


def main():
    failures = 0
    t0 = time.time()
    for fn in CRITERIA:
        try:
            fn()
        except AssertionError:
            failures += 1
        except Exception:
            failures += 1
            traceback.print_exc()
    print(f"acceptance: {len(CRITERIA) - failures}/{len(CRITERIA)} criteria passed "
          f"in {time.time() - t0:.1f}s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
