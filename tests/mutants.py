"""Source mutant catalogue: each mutant must be killed, or survive as a known equivalent.

    python3 tests/mutants.py           # every mutant, one after another
    python3 tests/mutants.py NAME ...  # only the named mutants

Each mutant is one exact text replacement in one file under src/sqdenom,
with the tests that should see it and the expected outcome: "killed" when
those tests fail, or "equivalent" when the mutant computes the same
function, with the reason.  For each mutant, src/, tests/ and
pyproject.toml are copied to a fresh temporary directory, the mutant is
applied to that copy, and `pytest -x` runs the named tests there, with
hypothesis's seed fixed so a rerun draws the same examples.  A mutant is
killed when a test fails; a mutant can make a loop never end, so each run
has a timeout, and a run that reaches it counts as killed too.  The named
tests first run once on an unmutated copy, where they must pass.  One
mutant runs at a time, and the checkout is never edited.

The file has no test_ prefix, so the tier-1 test run does not collect it.
It prints one line per mutant and exits 1 when any outcome differs from
its expectation, when pytest cannot run a mutant's tests, or when a
mutant's old text is not in its file exactly once.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 300


class Mutant(NamedTuple):
    name: str
    path: str  # under src/sqdenom
    old: str
    new: str
    tests: tuple[str, ...]
    expect: str  # "killed" or "equivalent"
    reason: str = ""  # why an equivalent mutant computes the same function


_CLOSURE_TESTS = (
    "tests/test_analysis.py::test_decrement_scans_cost_the_bound_not_s_max",
    "tests/test_cli.py::test_analyze_closure",
)
_WINDOW_TESTS = (
    "tests/test_sigmacore.py::test_zero_windows_last_offsets_for_every_small_a",
    "tests/test_sigmacore.py::test_zero_windows_match_per_k_scan",
    "tests/test_sigmacore.py::test_zero_windows_match_the_scan_at_every_scale",
)
_BAND_TEST = "tests/test_analysis.py::test_symmetry_verdict_band_is_closed_at_both_ends"

MUTANTS = (
    Mutant("t_set-cap-ge", "sigmacore.py",
           "if end - lo > TSET_MAX_WITNESSES:", "if end - lo >= TSET_MAX_WITNESSES:",
           ("tests/test_sigmacore.py::test_t_set_refuses_more_witnesses_than_the_cap",),
           "killed"),
    Mutant("last-fall-minus-1", "analysis.py",
           "return k * sigma_upper(a) - 2", "return k * sigma_upper(a) - 1",
           _CLOSURE_TESTS, "killed"),
    Mutant("closure-cap-ge", "analysis.py",
           "if windows > CLOSURE_MAX_STEPS:", "if windows >= CLOSURE_MAX_STEPS:",
           ("tests/test_analysis.py::test_upward_closure_check_refuses_a_scan_over_the_cap",),
           "killed"),
    Mutant("closure-no-hi-test", "analysis.py",
           "if prev < lo < hi:", "if prev < lo:",
           ("tests/test_analysis.py::test_either_side_of_the_windows_gives_the_scan_drops",),
           "killed"),
    Mutant("closure-stop-ge", "analysis.py",
           "if lo > s_max:", "if lo >= s_max:",
           ("tests/test_cli.py::test_analyze_closure",), "killed"),
    Mutant("closure-always-left", "analysis.py",
           "*min(_sides(a, *_frame(a)))", "*_sides(a, *_frame(a))[0]",
           ("tests/test_analysis.py::test_upward_closure_check_reads_no_tau",), "killed"),
    Mutant("closure-larger-side", "analysis.py",
           "min(_sides(", "max(_sides(",
           ("tests/test_analysis.py::test_upward_closure_check_reads_no_tau",), "killed"),
    Mutant("frame-c-plus-1", "sigmacore.py",
           "2 * n + 1 - b", "2 * n + 2 - b",
           _WINDOW_TESTS, "killed"),
    Mutant("left-K-b-plus-1", "sigmacore.py",
           "return (b, n, a, b, a + 1)", "return (b + 1, n, a, b, a + 1)",
           _WINDOW_TESTS, "killed"),
    Mutant("left-K-b-minus-1", "sigmacore.py",
           "return (b, n, a, b, a + 1)", "return (b - 1, n, a, b, a + 1)",
           _WINDOW_TESTS, "killed"),
    Mutant("right-K-c-minus-3", "sigmacore.py",
           ", (c - 2, n + 1, a + 1, c - 1, a)", ", (c - 3, n + 1, a + 1, c - 1, a)",
           _WINDOW_TESTS, "killed"),
    Mutant("right-K-c-minus-1", "sigmacore.py",
           ", (c - 2, n + 1, a + 1, c - 1, a)", ", (c - 1, n + 1, a + 1, c - 1, a)",
           _WINDOW_TESTS, "killed"),
    Mutant("windows-unsorted", "sigmacore.py",
           "return sorted(left + right, key=_offset)", "return left + right",
           _WINDOW_TESTS, "killed"),
    Mutant("closure-verdict-gt", "analysis.py",
           "s_max >= _last_fall(a, 1)", "s_max > _last_fall(a, 1)",
           ("tests/test_analysis.py::test_conjecture1_and_closure_verdicts",), "killed"),
    Mutant("symmetry-band-lo-lt", "analysis.py",
           "Fraction(1, 2) <= agg", "Fraction(1, 2) < agg",
           (_BAND_TEST,), "killed"),
    Mutant("symmetry-band-hi-lt", "analysis.py",
           "agg <= Fraction(7, 10)", "agg < Fraction(7, 10)",
           (_BAND_TEST,), "killed"),
    Mutant("offbound-minima-one-side", "analysis.py",
           "pts[0] < center < pts[1]", "pts[0] < center",
           ("tests/test_analysis.py::test_offbound_minima_verdict_needs_two_points_around_the_center",),
           "killed"),
    Mutant("kset-contains-1-passes", "analysis.py",
           '"verdict": _verdict(1 in ks)', '"verdict": "pass"',
           ("tests/test_analysis.py::test_kset_verdict_needs_curve_index_1",), "killed"),
    Mutant("descend-k-gt-0", "confrac.py",
           "(k >= 0 or hd > k * k)", "(k > 0 or hd > k * k)",
           ("tests/test_confrac.py",), "equivalent",
           "the branch runs only when hd > 0, and at k = 0 the second test hd > k*k "
           "is hd > 0, so both forms are true for k >= 0"),
    Mutant("sigma-upper-4a-plus-3", "sigmacore.py",
           "isqrt(4 * a + 2)", "isqrt(4 * a + 3)",
           ("tests/test_sigmacore.py::test_sigma_bounds_chain",
            "tests/test_analysis.py::test_tau_decrements_stay_below_the_bound",
            *_CLOSURE_TESTS),
           "equivalent",
           "4a + 3 is 3 mod 4, so never a square, and isqrt(4a + 3) = isqrt(4a + 2)"),
)


def run_tests(tests: tuple[str, ...], mutant: Mutant | None = None) -> str:
    """Run tests on a temporary copy of src/ and tests/, with mutant applied
    when one is given: "passed", "failed", "timeout", "error" (pytest ran no
    test, or stopped on a usage or collection error) or "missing" (the
    mutant's old text is not in its file exactly once)."""
    with tempfile.TemporaryDirectory(prefix="sqdenom-mutant-") as tmp:
        work = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        shutil.copytree(ROOT / "src", work / "src", ignore=skip)
        shutil.copytree(ROOT / "tests", work / "tests", ignore=skip)
        shutil.copy(ROOT / "pyproject.toml", work)
        if mutant is not None:
            target = work / "src" / "sqdenom" / mutant.path
            text = target.read_text()
            if text.count(mutant.old) != 1:
                return "missing"
            target.write_text(text.replace(mutant.old, mutant.new))
        argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                "--hypothesis-seed=0", *tests]
        try:
            done = subprocess.run(argv, cwd=work, capture_output=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "timeout"
        return {0: "passed", 1: "failed"}.get(done.returncode, "error")


def main(names: list[str]) -> int:
    by_name = {m.name: m for m in MUTANTS}
    unknown = [n for n in names if n not in by_name]
    if unknown:
        print(f"unknown mutant: {', '.join(unknown)}", file=sys.stderr)
        return 2
    chosen = [by_name[n] for n in names] if names else list(MUTANTS)
    start = time.monotonic()
    # a mutant counts as killed only if its tests pass on the unmutated source
    tests = tuple(dict.fromkeys(t for m in chosen for t in m.tests))
    baseline = run_tests(tests)
    if baseline != "passed":
        print(f"FAIL the unmutated source: tests {baseline}")
        return 1
    surprises = 0
    for mutant in chosen:
        t0 = time.monotonic()
        outcome = run_tests(mutant.tests, mutant)
        want = ("failed", "timeout") if mutant.expect == "killed" else ("passed",)
        ok = outcome in want
        surprises += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {mutant.name}: tests {outcome}, "
              f"expected {mutant.expect} ({time.monotonic() - t0:.1f} s)", flush=True)
    print(f"{len(chosen)} mutants, {surprises} unexpected, {time.monotonic() - start:.0f} s")
    return 1 if surprises else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
