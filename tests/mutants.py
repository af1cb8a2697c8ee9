"""A register of mutants: small wrong edits of the library that its tests
must catch.

Each mutant is one exact edit, an ``old`` text that occurs once in a file of
``src/`` and the ``new`` text that replaces it, with the test files that
must fail under it. For each mutant the script copies ``src/`` to a
temporary directory, applies the edit there and runs only the named test
files, with ``PYTHONPATH`` (and pytest's ``pythonpath``) pointing at the
copy; the working tree is never changed. A mutant is *killed* when those
tests fail, *survived* when they pass, and *stale* when its ``old`` text no
longer occurs exactly once, so that a refactor which moves the code must
update the entry (``tests/test_mutants.py`` checks this in tier-1).

Run from anywhere, all mutants or the ones named::

    python tests/mutants.py [NAME ...]

It prints one line per mutant and exits 0 only when every mutant run is
killed. This file is not collected by pytest.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

CORE = "rankdual/core.py"
TUTTE = "rankdual/tutte.py"
STRUCTURES = "rankdual/structures.py"
VERIFY = "rankdual/verify.py"
CORE_TESTS = ("tests/test_core.py",)
POLY_TESTS = ("tests/test_packed_paths.py", "tests/test_tutte.py")
CLOSURE_TESTS = ("tests/test_structures.py", "tests/test_build_oracle.py")
SUITE_TESTS = ("tests/test_verify.py", "tests/test_suite_failures.py")


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src/
    old: str
    new: str
    tests: tuple[str, ...]  # relative to the repository root


MUTANTS = (
    # the step code of _step_code and the relations built from it
    Mutant("low-plane-without-jumps", CORE,
           "        steps ^= nonnegative\n        low = steps\n",
           "        steps = nonnegative ^ high\n        low = steps\n", CORE_TESTS),
    Mutant("map-low-bit-d-xor-2", CORE,
           "map((1).__xor__, map(sub, upper, values))",
           "map((2).__xor__, map(sub, upper, values))", CORE_TESTS),
    Mutant("gather-of-7-terms", CORE,
           "_GATHER = sum(1 << 7 * k for k in range(8))",
           "_GATHER = sum(1 << 7 * k for k in range(7))", CORE_TESTS),
    Mutant("unit-without-not-low", CORE,
           "UNIT = lambda low, high: map(and_, high, map(invert, low))",
           "UNIT = lambda low, high: high", CORE_TESTS),
    Mutant("bit-7-not-cleared", CORE,
           "        nonnegative = steps & sign\n        steps ^= nonnegative\n",
           "        nonnegative = steps & sign\n", CORE_TESTS),
    Mutant("gather-slice-ends-at-width", CORE,
           "bits[7 : 8 * words : 8]",
           "bits[7:width:8]", CORE_TESTS),
    Mutant("flat-planes-swapped", CORE,
           "FLAT = lambda low, high: map(and_, low, map(invert, high))",
           "FLAT = lambda low, high: map(and_, high, map(invert, low))", CORE_TESTS),
    Mutant("exceeding-table-off-by-one", CORE,
           '_BELOW = b"1" * 128 + b"0" * 128',
           '_BELOW = b"1" * 129 + b"0" * 127', CORE_TESTS),
    # the one-byte monomial keys of the two polynomials
    Mutant("key-width-without-one", TUTTE,
           "width, size = spread + 1, len(sizes)",
           "width, size = spread, len(sizes)", POLY_TESTS),
    Mutant("end-monomial-of-s-dropped", TUTTE,
           "for end in (0, size - 1):",
           "for end in (0,):", POLY_TESTS),
    Mutant("size-not-reduced-in-key", TUTTE,
           "bytes(range(0, (n - 1) * width, width))",
           "bytes(range(width, n * width, width))", POLY_TESTS),
    Mutant("recursion-spread-from-full-rank", TUTTE,
           "_monomial_counts(ts, sizes, n, view.high - view.low, t_bias, view.high)",
           "_monomial_counts(ts, sizes, n, g.full_rank - view.low, t_bias, view.high)", POLY_TESTS),
    # the subset-max pass, the local union verdict and the layout reader
    Mutant("subset-max-last-pass-dropped", CORE,
           "for p, avoid in enumerate(avoid_sets(n)):",
           "for p, avoid in enumerate(avoid_sets(n)[:-1]):", CORE_TESTS),
    Mutant("subset-max-lower-wins-inverted", CORE,
           "lower_wins = keep & ~(((upper | bias) - lower) >> 7)",
           "lower_wins = keep & (((upper | bias) - lower) >> 7)", CORE_TESTS),
    Mutant("union-only-block-0-empty-set", "rankdual/axioms.py",
           "reached = reduce(and_, avoid, (1 << (blocks << n)) - 1)",
           "reached = reduce(and_, avoid, 1)", ("tests/test_scan_oracle.py",)),
    Mutant("layout-without-whitespace-check", "rankdual/documents.py",
           'return table if not text[pos:].strip(" \\t\\n\\r") else None',
           "return table", ("tests/test_doc_oracle.py",)),
    Mutant("layout-strips-unicode-whitespace", "rankdual/documents.py",
           'text[pos:].strip(" \\t\\n\\r")',
           "text[pos:].strip()", ("tests/test_doc_oracle.py",)),
    # the closure gaps and the convex flags
    Mutant("closure-gaps-without-convexity-test", STRUCTURES,
           "    if reduce(or_, gaps, convex) != every:\n",
           "    if False:\n", CLOSURE_TESTS),
    Mutant("gap-set-not-restricted-to-avoid", STRUCTURES,
           "gaps.append(avoid & ~below)",
           "gaps.append(every & ~below)", CLOSURE_TESTS),
    Mutant("down-set-pass-skips-element-0", STRUCTURES,
           "        for q, members in enumerate(has):\n            below |=",
           "        for q, members in enumerate(has[1:], 1):\n            below |=", CLOSURE_TESTS),
    Mutant("convex-flags-not-reversed", STRUCTURES,
           "return feasible_flags(g.n, g._kernel_view())[::-1]",
           "return feasible_flags(g.n, g._kernel_view())", CLOSURE_TESTS),
    # the batched suites and their failure tally
    Mutant("tally-records-before-counting", VERIFY,
           "            self.instances += i + 1 - counted\n            counted = i + 1\n"
           "            for failure in failures(i):\n                self.fail(*failure)\n",
           "            for failure in failures(i):\n                self.fail(*failure)\n"
           "            self.instances += i + 1 - counted\n            counted = i + 1\n", SUITE_TESTS),
    Mutant("zero-block-dual-guard-removed", "rankdual/ops.py",
           '    if not blocks:\n        return TableView((), 0, 0, b"")\n',
           "", SUITE_TESTS),
    Mutant("root-degree-loosened-to-v-2", VERIFY,
           "end.count(root) == vertex_count - 1",
           "end.count(root) >= vertex_count - 2", SUITE_TESTS),
    Mutant("full-greedoid-index-advanced-by-full-count", VERIFY,
           "len(full)), failures)\n        idx += count",
           "len(full)), failures)\n        idx += len(full)", SUITE_TESTS),
    Mutant("closure-tally-one-mask-short", VERIFY,
           "rec.tally(g.ground.size, bitset(map(ne, dv, map(neg, gaps))), failures)",
           "rec.tally(g.ground.size - 1, bitset(map(ne, dv, map(neg, gaps))), failures)", SUITE_TESTS),
    Mutant("closure-gaps-not-negated", VERIFY,
           "map(ne, dv, map(neg, gaps))",
           "map(ne, dv, gaps)", SUITE_TESTS),
)


def occurrences(mutant: Mutant) -> int:
    """How often the mutant's ``old`` text occurs in its file today."""
    return (SRC / mutant.path).read_text(encoding="utf-8").count(mutant.old)


def run(mutant: Mutant) -> str:
    """killed, survived or stale."""
    if occurrences(mutant) != 1:
        return "stale"
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
        target = src / mutant.path
        target.write_text(target.read_text(encoding="utf-8").replace(mutant.old, mutant.new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                   "-o", f"pythonpath={src}", *mutant.tests]
        result = subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return "survived" if result.returncode == 0 else "killed"


def main(names: list[str]) -> int:
    known = {mutant.name: mutant for mutant in MUTANTS}
    unknown = [name for name in names if name not in known]
    if unknown:
        print(f"unknown mutant(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    outcomes = []
    for mutant in [known[name] for name in names] or MUTANTS:
        start = time.perf_counter()
        outcome = run(mutant)
        outcomes.append(outcome)
        print(f"{outcome:8}  {mutant.name}  ({time.perf_counter() - start:.1f} s)", flush=True)
    print(f"{outcomes.count('killed')} of {len(outcomes)} killed")
    return 0 if all(outcome == "killed" for outcome in outcomes) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
