"""Tests of the benchmark itself: python3 -m pytest -q bench"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from math import isqrt
from pathlib import Path

import oracle

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _brute_first(a: int) -> Fraction:
    s = 1
    while True:
        t = isqrt(s * s * a) + 1
        if t * t < s * s * (a + 1):
            return Fraction(t, s)
        s += 1


def test_oracle_first_square_matches_brute_force():
    for a in range(1, 400):
        t, s = oracle.first_square(a)
        assert Fraction(t, s) == _brute_first(a), a


def test_certificate_rejects_a_non_minimal_fraction():
    a = 991
    t, s = oracle.first_square(a)
    assert oracle.certify_first(a, t, s)
    assert not oracle.certify_first(a, 2 * t, 2 * s)  # not in lowest terms
    s2 = next(q for q in range(s + 1, 10 * s) if oracle.tau_count(a, q) == 1
              and Fraction(oracle.witnesses(a, q)[0], q).denominator == q)
    assert not oracle.certify_first(a, oracle.witnesses(a, s2)[0], s2)  # inside, not minimal


def test_root_cmp_orders_surds_exactly():
    two = (Fraction(0), Fraction(2))  # sqrt(2)
    assert oracle.root_cmp(two, (Fraction(141, 100), Fraction(0))) == 1
    assert oracle.root_cmp(two, (Fraction(142, 100), Fraction(0))) == -1
    assert oracle.root_cmp(oracle.root_value(Fraction(1), Fraction(4)), (Fraction(3), Fraction(0))) == 0


def test_self_check_passes():
    done = _bench("--check")
    assert done.returncode == 0, done.stdout + done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == {"check": "pass"}


def test_result_lines_follow_the_spec():
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        done = _bench("--workload", "families", "--seed", "3", "--seconds", "1",
                      "--trace", str(trace))
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 112
        spec = {m["name"]: m["unit"] for m in SPEC[group]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == spec


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = _bench("--workload", "families", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
