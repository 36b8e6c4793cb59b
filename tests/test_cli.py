"""Command-line surface: output formats, exit codes, determinism."""

import ast
import contextlib
import csv
import hashlib
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sqdenom
from sqdenom import analysis, confrac, figures, sigmacore
from sqdenom.cli import main
from sqdenom.figures import heatmap_data


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_sigma_command(capsys):
    assert run(capsys, "sigma", "991") == (0, "27\n", "")


def test_sigma_command_large_a(capsys):
    # n^2 + n - 1 with n = 10^10: the scan route needs about 10^10 tau calls
    a = 10**20 + 10**10 - 1
    assert run(capsys, "sigma", str(a)) == (0, "8000000001\n", "")
    code, out, _ = run(capsys, "first-square", str(a))
    assert code == 0 and out.endswith("(t=80000000014000000000, s=8000000001)\n")


def test_consistency_failures_exit_four(capsys, monkeypatch, tmp_path):
    # offbound, kset and every figure read certified sweep rows too, and
    # symmetry certifies every sigma it compares
    with monkeypatch.context() as m:
        m.setattr(sigmacore, "_first_pair_in_frame", lambda x, y, n, rx, ry: (850, 28, 0, 1))
        for argv in (("sigma", "991"), ("first-square", "991"),
                     ("sweep", "--from", "19", "--to", "19"),
                     ("analyze", "offbound", "--n-from", "7", "--n-to", "7"),
                     ("analyze", "kset", "--n", "2"),
                     ("analyze", "symmetry", "--n-min", "2", "--n-max", "2"),
                     ("figures", "--out-dir", str(tmp_path))):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (4, ""), argv
            assert err.startswith("internal error:") and err.count("\n") == 1, argv
    # one bad a in fig5's range (100^2..101^2), or in fig6's alone (past 500)
    for bad in (10050, 1999):
        with monkeypatch.context() as m:
            _fault_at(m, bad)
            code, out, err = run(capsys, "figures", "--out-dir", str(tmp_path))
        assert (code, out) == (4, ""), bad
        assert err == f"internal error: sigma certificate failed at a={bad}: t=850 s=28\n"
    # the right pair t/s with itself as its parent, at a = 0 (both ends of
    # the frame rational), a = 4 = n^2 and a = 8 = m^2 - 1
    for a, t, s in ((0, 1, 2), (4, 11, 5), (8, 17, 6)):
        with monkeypatch.context() as m:
            m.setattr(sigmacore, "_first_pair_in_frame",
                      lambda x, y, n, rx, ry, t=t, s=s: (t, s, t, s))
            for command in ("sigma", "first-square"):
                code, out, err = run(capsys, command, str(a))
                assert (code, out) == (4, ""), (command, a)
                assert err == f"internal error: sigma certificate failed at a={a}: t={t} s={s}\n"
    # a sigma on no curve leaves min_k without an index: at a = 2,
    # sigma_1 = 2 <= 3 <= 4 = upper passes the bounds check, but the curves
    # give 2, 4, 6 at k = 1, 2, 3
    with monkeypatch.context() as m:
        m.setattr(analysis, "_certified_pair_in_frame", lambda a, n, b1: (5, 3))
        code, out, err = run(capsys, "sweep", "--from", "2", "--to", "2")
    assert (code, out) == (4, "")
    assert err.startswith("internal error: no curve index") and err.count("\n") == 1
    # k_set reads the same rows and keeps the same guarantee: at a = 5,
    # sigma_1 = 3 <= 4 <= 5 = upper passes, but the curves give 3, 5, 7
    monkeypatch.setattr(analysis, "_certified_pair_in_frame", lambda a, n, b1: (9, 4))
    code, out, err = run(capsys, "analyze", "kset", "--n", "2")
    assert (code, out) == (4, "")
    assert err.startswith("internal error: no curve index") and err.count("\n") == 1


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="Python 3.10 before 3.10.7 has no int-to-str digit limit")
def test_first_square_prints_answers_past_the_digit_limit(capsys):
    # a = 10^2200 parses under the interpreter's default limit of 4300
    # digits on int-to-str conversion, but t^2 has about 4400 digits.  The
    # limit is back in place once main returns, after an error too
    limit = sys.get_int_max_str_digits()
    default = sys.int_info.default_max_str_digits
    sys.set_int_max_str_digits(default)
    try:
        assert run(capsys, "sigma", "-1") == (2, "", "error: a must be >= 0\n")
        assert sys.get_int_max_str_digits() == default
        code, out, err = run(capsys, "first-square", str(10**2200))
        assert sys.get_int_max_str_digits() == default
        assert (code, err) == (0, "")
        t, s = sigmacore.certified_first_pair(10**2200)
        sys.set_int_max_str_digits(0)
        assert out == f"{t * t}/{s * s} (t={t}, s={s})\n"
    finally:
        sys.set_int_max_str_digits(limit)


def test_tset_refuses_more_witnesses_than_the_cap(capsys):
    cap = sigmacore.TSET_MAX_WITNESSES
    assert cap == 10**6  # the documented cap
    # tau(0, s) = s - 1 witnesses, counted before any list is built
    for s in (10**12, cap + 2):
        code, out, err = run(capsys, "tset", "0", str(s))
        assert (code, out) == (2, "")
        assert err == f"error: t_set would return {s - 1} witnesses, over the cap of {cap}\n"


def test_point_queries(capsys):
    assert run(capsys, "tau", "3", "10") == (0, "2\n", "")
    assert run(capsys, "tset", "2", "10") == (0, "{15, 16, 17}\n", "")
    assert run(capsys, "tset", "8", "2") == (0, "{}\n", "")
    assert run(capsys, "first-square", "8") == (0, "289/36 (t=17, s=6)\n", "")
    assert run(capsys, "cf", "992") == (0, "[31; (2, 62)]\n", "")
    assert run(capsys, "cf", "49") == (0, "[7]\n", "")


def test_sweep_csv_stdout(capsys):
    code, out, err = run(capsys, "sweep", "--from", "1", "--to", "3")
    assert code == 0 and err == ""
    rows = list(csv.reader(out.splitlines()))
    assert rows[0] == ["a", "sigma", "sigma1", "upper", "on_bound", "min_k", "t_first"]
    assert rows[1] == ["1", "3", "3", "3", "1", "1", "4"]
    assert rows[3] == ["3", "4", "4", "4", "1", "1", "7"]


def test_sweep_csv_file_is_deterministic(tmp_path, capsys):
    p1, p2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    assert run(capsys, "sweep", "--from", "1", "--to", "80", "--out", str(p1))[0] == 0
    assert run(capsys, "sweep", "--from", "1", "--to", "80", "--out", str(p2), "--jobs", "2")[0] == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_sweep_json(capsys):
    code, out, _ = run(capsys, "sweep", "--from", "19", "--to", "19", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload == [
        {
            "a": 19,
            "sigma": 5,
            "sigma1": 3,
            "upper": 9,
            "on_bound": False,
            "min_k": 2,
            "t_first": 22,
        }
    ]


def test_heatmap_csv(capsys):
    code, out, _ = run(
        capsys, "heatmap", "--a-min", "8", "--a-max", "8",
        "--s-min", "2", "--s-max", "6", "--format", "csv",
    )
    assert code == 0
    rows = list(csv.reader(out.splitlines()))
    assert rows[0] == ["a", "s", "tau"]
    assert rows[1:] == [["8", "2", "0"], ["8", "3", "0"], ["8", "4", "0"], ["8", "5", "0"], ["8", "6", "1"]]


def test_heatmap_delta_csv(capsys):
    code, out, _ = run(
        capsys, "heatmap", "--mode", "delta", "--a-min", "1", "--a-max", "20",
        "--s-min", "2", "--s-max", "30", "--format", "csv",
    )
    assert code == 0
    rows = list(csv.reader(out.splitlines()))
    assert rows[0] == ["a", "s", "delta"]
    assert {r[2] for r in rows[1:]} <= {"-1", "0", "1"}
    assert len(rows) == 1 + 20 * 29
    for a, s, v in (map(int, r) for r in rows[1:]):
        assert v == sigmacore.tau(a, s) - sigmacore.tau(a, s - 1), (a, s)


def test_heatmap_svg(capsys):
    code, out, _ = run(
        capsys, "heatmap", "--a-min", "8", "--a-max", "12",
        "--s-min", "2", "--s-max", "8",
    )
    assert code == 0
    assert out.startswith("<svg") and out.rstrip().endswith("</svg>")


def test_heatmap_svg_refuses_coordinates_past_2_to_the_52(capsys):
    # a float holds every half integer only below 2^52: past it the cell
    # edges a +- 0.5 round together and the SVG frame would divide by zero;
    # the CSV is exact at every a
    refusal = "error: heatmap SVG needs a-max and s-max below 2^52; use --format csv\n"
    for a_min, s_min in ((10**20, 2), (10**300, 2), (2**52 - 3, 2), (8, 10**20)):
        argv = ("heatmap", "--a-min", str(a_min), "--a-max", str(a_min + 3),
                "--s-min", str(s_min), "--s-max", str(s_min + 3))
        assert run(capsys, *argv) == (2, "", refusal), argv
        code, out, err = run(capsys, *argv, "--format", "csv")
        assert (code, err) == (0, "") and out.count("\n") == 17, argv
    code, out, err = run(capsys, "heatmap", "--a-min", str(2**52 - 4), "--a-max", str(2**52 - 1),
                         "--s-min", "2", "--s-max", "5")
    assert (code, err) == (0, "") and out.startswith("<svg")


def test_heatmap_refuses_more_cells_than_the_cap(capsys, monkeypatch):
    cap = figures.HEATMAP_MAX_CELLS
    assert cap == 10**6  # the documented cap
    # 99,993 a (8..100000) by 999 s (2..1000), counted before any column
    refusal = f"error: heatmap would hold {99993 * 999} cells, over the cap of {cap}\n"
    with monkeypatch.context() as m:
        m.setattr(figures, "tau_columns", lambda *grid: pytest.fail("a column was built"))
        for extra in ((), ("--format", "csv"), ("--mode", "delta")):
            argv = ("heatmap", "--a-max", "100000", "--s-max", "1000", *extra)
            assert run(capsys, *argv) == (2, "", refusal), argv
    # at the cap a grid is drawn; one cell more is refused, in either mode
    monkeypatch.setattr(figures, "HEATMAP_MAX_CELLS", 12)
    refusal = "error: heatmap would hold 13 cells, over the cap of 12\n"
    for mode in ("tau", "delta"):
        grid = ("heatmap", "--mode", mode, "--a-min", "8", "--s-min", "2")
        code, out, err = run(capsys, *grid, "--a-max", "10", "--s-max", "5", "--format", "csv")
        assert (code, err) == (0, "") and out.count("\n") == 13, mode
        assert run(capsys, *grid, "--a-max", "20", "--s-max", "2") == (2, "", refusal), mode


def test_cf_refuses_a_period_over_the_cap(capsys, monkeypatch):
    assert confrac.SQRT_CF_MAX_TERMS == 10**6  # the documented cap
    # sqrt(7) = [2; (1, 1, 1, 4)] has a period of four terms
    monkeypatch.setattr(confrac, "SQRT_CF_MAX_TERMS", 4)
    assert run(capsys, "cf", "7") == (0, "[2; (1, 1, 1, 4)]\n", "")
    monkeypatch.setattr(confrac, "SQRT_CF_MAX_TERMS", 3)
    assert run(capsys, "cf", "7") == (2, "", "error: the period of sqrt(7) has over 3 terms\n")
    assert run(capsys, "cf", "992") == (0, "[31; (2, 62)]\n", "")
    assert run(capsys, "cf", "49") == (0, "[7]\n", "")


def test_error_exit_codes(capsys, tmp_path):
    code, _, err = run(capsys, "sweep", "--from", "5", "--to", "2")
    assert code == 2 and err.startswith("error:")
    code, _, err = run(capsys, "sigma", "-1")
    assert code == 2 and err.startswith("error:")
    code, _, err = run(capsys, "heatmap", "--mode", "delta", "--s-min", "1", "--format", "csv")
    assert code == 2 and err.startswith("error:")
    for argv, message in [
        (["--a-min", "5", "--a-max", "3"], "error: need 1 <= a-min <= a-max\n"),
        (["--s-min", "0"], "error: need 1 <= s-min <= s-max\n"),
    ]:
        assert run(capsys, "heatmap", *argv) == (2, "", message), argv
    # the CLI's --mode choices never reach the library's own mode check
    with pytest.raises(ValueError):
        heatmap_data("bogus", 8, 9, 2, 3)
    missing = tmp_path / "no" / "such" / "dir" / "x.csv"
    code, _, err = run(capsys, "sweep", "--from", "1", "--to", "2", "--out", str(missing))
    assert code == 3 and err.startswith("i/o error:")


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["sigma"])
    assert exc.value.code == 2


def test_figures_command(tmp_path, capsys):
    code, out, _ = run(capsys, "figures", "--out-dir", str(tmp_path / "figs"))
    assert code == 0
    listed = [line for line in out.splitlines() if line]
    assert len(listed) == 13
    names = sorted(p.name for p in (tmp_path / "figs").iterdir())
    assert names == [
        "fig1.csv", "fig1.svg", "fig2.csv", "fig2.svg", "fig3.csv", "fig3.svg",
        "fig4.csv", "fig4.svg", "fig5.csv", "fig5.svg", "fig5_curves.csv",
        "fig6.csv", "fig6.svg",
    ]


def test_analyze_closure(capsys):
    code, out, _ = run(capsys, "analyze", "closure", "--a", "12", "--s-max", "100")
    assert code == 0
    rep = json.loads(out)
    assert rep["report"] == "closure"
    assert rep["violations"] == [2]
    assert rep["verdict"] == "fail"
    code, out, _ = run(capsys, "analyze", "closure", "--a", "2", "--s-max", "100")
    assert json.loads(out)["verdict"] == "pass"
    # every drop from 1 to 0 lies at s <= sigma_upper(a) - 2; a scan that
    # stops below that proves nothing (tau(19, 5) = 1, tau(19, 6) = 0)
    for a, s_max, verdict, violations in [
        (19, 4, "indeterminate", []),
        (19, 5, "fail", [5]),
        (50, 13, "pass", []),
        (50, 12, "indeterminate", []),
    ]:
        code, out, _ = run(capsys, "analyze", "closure", "--a", str(a), "--s-max", str(s_max))
        rep = json.loads(out)
        assert (code, rep["verdict"], rep["violations"]) == (0, verdict, violations), a


def test_analyze_closure_refuses_a_scan_over_the_cap(capsys, monkeypatch):
    # --a 10**21+7 once scanned for hours; its smaller side, the right, has
    # c - 2 = 19998666395 windows, counted before any is read
    monkeypatch.setattr(analysis, "tau", lambda a, s: pytest.fail("scanned"))
    assert run(capsys, "analyze", "closure", "--a", str(10**21 + 7), "--s-max", str(10**12)) == (
        2, "", "error: closure would read 19998666395 windows, over the cap of 1000000\n")
    # 10^14 + 10^7 (c - 2 = 9999999) once held some 10^7 drops, 813 MB
    assert run(capsys, "analyze", "closure", "--a", str(10**14 + 10**7), "--s-max", str(10**15)) == (
        2, "", "error: closure would read 9999999 windows, over the cap of 1000000\n")
    # 10^24 + 7 has b = 7, so seven left windows answer it
    code, out, err = run(capsys, "analyze", "closure", "--a", str(10**24 + 7), "--s-max", str(10**13))
    rep = json.loads(out)
    assert (code, err, rep["verdict"]) == (0, "", "fail")
    assert rep["violations"][:3] == [285714285714, 571428571428, 857142857142]


def test_analyze_kset(capsys):
    code, out, _ = run(capsys, "analyze", "kset", "--n", "10")
    assert code == 0
    rep = json.loads(out)
    assert rep["minimal"] == [1, 2, 3, 4]
    assert set(rep["minimal"]) <= set(rep["existential"])
    assert rep["verdict"] == "pass"


def test_analyze_symmetry(capsys):
    code, out, _ = run(capsys, "analyze", "symmetry", "--n-min", "2", "--n-max", "4")
    assert code == 0
    rep = json.loads(out)
    assert rep["aggregate"]["exact"].count("/") == 1
    assert float(rep["aggregate"]["approx"]) == pytest.approx(
        rep["matches"] / rep["comparisons"], abs=1e-6
    )
    assert [e["n"] for e in rep["per_n"]] == [2, 3, 4]


def test_analyze_symmetry_refuses_oversized_work(capsys, monkeypatch):
    # --full-range --n-max 10^6 would run for hours; both refusals come from
    # the count, in closed form, before any sigma is computed
    n = 10**6
    full = n * (n + 1) * (2 * n + 1) // 6 + n * (n + 1) // 2 - n - 1
    big = 10**18 * (10**18 + 1) // 2 - 1  # troughs 2..10^18, span n each
    with monkeypatch.context() as m:
        m.setattr(sigmacore, "_first_pair_in_frame", lambda *args: pytest.fail("compared"))
        assert run(capsys, "analyze", "symmetry", "--full-range", "--n-max", str(n)) == (
            2, "", f"error: symmetry would make {full} comparisons, over the cap of 1000000\n")
        assert run(capsys, "analyze", "symmetry", "--n-max", str(10**18)) == (
            2, "", f"error: symmetry would make {big} comparisons, over the cap of 1000000\n")
    # at a cap of 9 (troughs 2..4 by default) or 16 (2..3 with --full-range)
    # the report is made; at one less it is refused
    for flags, count in ((("--n-max", "4"), 9), (("--n-max", "3", "--full-range"), 16)):
        monkeypatch.setattr(analysis, "SYMMETRY_MAX_COMPARISONS", count)
        code, out, _ = run(capsys, "analyze", "symmetry", *flags)
        assert code == 0 and json.loads(out)["comparisons"] == count
        monkeypatch.setattr(analysis, "SYMMETRY_MAX_COMPARISONS", count - 1)
        with monkeypatch.context() as m:
            m.setattr(sigmacore, "_first_pair_in_frame", lambda *args: pytest.fail("compared"))
            assert run(capsys, "analyze", "symmetry", *flags) == (
                2, "", f"error: symmetry would make {count} comparisons, over the cap of {count - 1}\n")


def test_analyze_symmetry_rejects_nonpositive_d_max(capsys):
    for d_max in ("0", "-3"):
        code, out, err = run(capsys, "analyze", "symmetry", "--d-max", d_max)
        assert (code, out) == (2, "")
        assert err == "error: d_max must be >= 1\n"


def test_analyze_symmetry_rejects_full_range_with_d_max(capsys, tmp_path):
    argv = ["analyze", "symmetry", "--n-min", "2", "--n-max", "3", "--full-range", "--d-max", "1"]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1
    # the failing command does not create its --out file either
    target = tmp_path / "sym.json"
    code, out, _ = run(capsys, *argv, "--out", str(target))
    assert (code, out) == (2, "")
    assert not target.exists()


def _modules_after(*statements):
    """Sorted sys.modules of a fresh interpreter after running statements."""
    src = os.path.dirname(os.path.dirname(sqdenom.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = "; ".join(["import sys", *statements, "print(sorted(sys.modules))"])
    out = subprocess.run(
        [sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True, timeout=60,
    ).stdout
    return ast.literal_eval(out.splitlines()[-1])


def test_cli_import_loads_only_the_parser():
    loaded = _modules_after("import sqdenom.cli")
    assert [m for m in loaded if m.startswith("sqdenom")] == ["sqdenom", "sqdenom.cli"]
    heavy = ("json", "fractions", "csv", "multiprocessing", "dataclasses", "inspect")
    assert [m for m in heavy if m in loaded] == []


@pytest.mark.parametrize("argv, unused", [
    (["sigma", "991"], ["sqdenom.analysis", "sqdenom.figures", "sqdenom.svg", "json", "csv"]),
    (["analyze", "kset", "--n", "2"], ["sqdenom.figures", "sqdenom.svg", "csv", "fractions"]),
    (["analyze", "symmetry", "--n-max", "4"], ["sqdenom.figures", "sqdenom.svg", "csv"]),
    (["analyze", "offbound", "--n-from", "7", "--n-to", "7"],
     ["sqdenom.figures", "sqdenom.svg", "csv", "fractions"]),
    (["analyze", "conjecture1", "--a-max", "20", "--k-max", "1"],
     ["sqdenom.figures", "sqdenom.svg", "csv", "fractions"]),
    (["sweep", "--from", "1", "--to", "3"],
     ["sqdenom.figures", "sqdenom.svg", "csv", "json", "multiprocessing", "concurrent.futures",
      "fractions"]),
    (["sweep", "--from", "1", "--to", "3", "--format", "json"],
     ["sqdenom.figures", "sqdenom.svg", "csv", "json", "fractions"]),
    (["figures", "--out-dir", "{tmp}"], ["csv", "json", "fractions"]),
])
def test_commands_load_only_what_they_use(argv, unused, tmp_path):
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    loaded = _modules_after("from sqdenom.cli import main", f"main({argv!r})")
    assert [m for m in unused if m in loaded] == []


def test_analyze_conjecture1(capsys):
    code, out, _ = run(capsys, "analyze", "conjecture1", "--a-max", "20", "--k-max", "1")
    assert code == 0
    rep = json.loads(out)
    assert all("s" in f or f["verdict"] == "indeterminate" for f in rep["findings"])
    a_values = [f["a"] for f in rep["findings"]]
    # squares and predecessors of squares are out of scope
    assert 4 not in a_values and 8 not in a_values and 19 in a_values
    # no witness below s_max next to the squares: a = n^2+1 and n^2-2
    flagged = sorted(f["a"] for f in rep["findings"] if f["verdict"] == "indeterminate")
    assert flagged == [2, 5, 7, 10, 14, 17]
    assert rep["verdict"] == "indeterminate"
    assert rep["indeterminate_count"] == 6


def test_analyze_conjecture1_rejects_empty_search(capsys, tmp_path):
    target = tmp_path / "c1.json"
    for flags in (["--k-max", "0"], ["--k-max", "-2"], ["--a-max", "1"]):
        for extra in ([], ["--out", str(target)]):
            code, out, err = run(capsys, "analyze", "conjecture1", *flags, *extra)
            assert (code, out) == (2, "")
            assert err.startswith("error:") and err.count("\n") == 1
    assert not target.exists()


def test_analyze_conjecture1_refuses_an_oversized_table(capsys, monkeypatch):
    # a table of 10^12 slots an a is refused by its count, with no scan
    monkeypatch.setattr(analysis, "tau", lambda a, s: pytest.fail("scanned"))
    argv = ("analyze", "conjecture1", "--a-max", "3", "--k-max", str(10**12), "--s-max", "5")
    refusal = "error: conjecture1 would hold 2000000000000 findings, over the cap of 1000000\n"
    assert run(capsys, *argv) == (2, "", refusal)


def test_analyze_offbound(capsys):
    code, out, _ = run(capsys, "analyze", "offbound", "--n-from", "7", "--n-to", "8")
    assert code == 0
    rep = json.loads(out)
    assert [e["points"] for e in rep["minima"]] == [[54, 57], [70, 73]]
    assert [e["verdict"] for e in rep["minima"]] == ["pass", "pass"]
    # 8's peak sits at a = 74, off its center 71
    assert [(e["a_peak"], e["verdict"]) for e in rep["peaks"]] == [(55, "pass"), (74, "indeterminate")]
    assert rep["verdict"] == "indeterminate"
    # minima start at n = 7, peaks at --n-from
    code, out, _ = run(capsys, "analyze", "offbound", "--n-from", "4", "--n-to", "8")
    rep = json.loads(out)
    assert [e["n"] for e in rep["minima"]] == [7, 8]
    assert [e["n"] for e in rep["peaks"]] == [4, 5, 6, 7, 8]


def test_analyze_offbound_reads_each_interval_once(capsys, monkeypatch):
    # peaks and sigma = 5 minima come from one off-bound list an interval:
    # 14 lists and 378 certified rows at 7..20
    seen = []
    points = analysis.off_bound_points
    monkeypatch.setattr(analysis, "off_bound_points",
                        lambda lo, hi: seen.append((lo, hi)) or points(lo, hi))
    code, out, _ = run(capsys, "analyze", "offbound", "--n-from", "7", "--n-to", "20")
    assert code == 0 and len(json.loads(out)["minima"]) == 14
    assert seen == [(n * n + 1, (n + 1) ** 2 - 1) for n in range(7, 21)]
    assert sum(hi - lo + 1 for lo, hi in seen) == 378


def test_analyze_out_file(tmp_path, capsys):
    target = tmp_path / "rep.json"
    code, out, _ = run(capsys, "analyze", "closure", "--a", "2", "--out", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["report"] == "closure"


# sha256 of stdout for each command; any change to a report's keys or
# values, or to the sweep's CSV or JSON layout, shows up here.
OUTPUT_SHA256 = {
    ("sweep", "--from", "1", "--to", "20000"):
        "502d21e847b99b7b1311f4e92221ac87d8fdd8eece734b8626e72a54e2e705ee",
    ("sweep", "--from", "1", "--to", "300", "--format", "json"):
        "3c811cdfcd6fb29e8c89bfccc5f1b010f47ffea5ef71275184fb362a18113675",
    ("analyze", "kset", "--n", "100"):
        "614a343d6fdd1252951eb8e1021baf4eeec00e1f6ebb86b467604aa27c843033",
    ("analyze", "symmetry", "--n-min", "2", "--n-max", "44"):
        "d4a9af8ce979e9ee1693b252eca1056ecb74ff8a3ea093f9a9d3bbcffbe37ed2",
    ("analyze", "offbound", "--n-from", "7", "--n-to", "20"):
        "92a9d2718a41b14a9073fd7bd99b89337acac5bc5acd6c3846778b5f4269dfcf",
    ("analyze", "conjecture1", "--a-max", "300", "--k-max", "4", "--s-max", "500"):
        "a8e1110951aaf720e81e44f75d806de6f1b91af892481f545372c0470ec2e85c",
    ("analyze", "closure", "--a", "12", "--s-max", "100"):
        "b88d01c5dec831668b9cebf0d4db169eade26b41d756172a061e2be7ee5afb4f",
    ("heatmap",):
        "ac58b59cbeba30f63f93c55e726cac3c289a9d99c1a0d1ea1d76b842e5f90537",
    ("heatmap", "--mode", "delta", "--format", "csv"):
        "833c4513a110c6ce2e4ea12ee65d9216a48c697149390e812e8c86c97479fe3d",
    # a + 1 = 10^40 is a square: the grid crosses it at scale
    ("heatmap", "--a-min", str(10**40 - 3), "--a-max", str(10**40 + 2),
     "--s-min", "1", "--s-max", "40", "--format", "csv"):
        "86a8879342fd30982a36a692c4d6a19aa5b07a12f78d361a84e140a5932df74d",
}


def test_output_bytes_are_pinned(capsys):
    for argv, digest in OUTPUT_SHA256.items():
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, ""), argv
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


@settings(max_examples=50, deadline=None)
@given(st.one_of(st.integers(1, 20000), st.integers(1, 10**40)), st.integers(1, 30))
def test_json_sweep_block_matches_json_dumps(lo, rows):
    hi = lo + rows - 1
    objects = [r._asdict() for r in analysis.sweep(lo, hi)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["sweep", "--from", str(lo), "--to", str(hi), "--format", "json"]) == 0
    assert out.getvalue() == json.dumps(objects, indent=2, sort_keys=True) + "\n"


# --- the sweep in one process -----------------------------------------------

# sha256 of `sweep --from 1 --to 9000` in each format, as written when a
# range this long was split over forked children
SWEEP_9000_SHA256 = {
    "csv": "d71ff2e80a911a7910c0881df4110dc35946114ba7bbca2ad8c187f7c9127723",
    "json": "9820751be78735d892f815a403e977698122fdf01e0ffd75d66afdf1ee8fb5f7",
}


def _fault_at(monkeypatch, *bad):
    """A kernel that answers (850, 28) at each a in bad, which the sweep's
    certificate rejects."""
    in_frame = sigmacore._first_pair_in_frame
    monkeypatch.setattr(
        sigmacore, "_first_pair_in_frame",
        lambda x, y, n, rx, ry: (850, 28, 0, 1) if x in bad else in_frame(x, y, n, rx, ry))


def test_sweep_writes_the_split_bytes_in_one_process(capsys, monkeypatch):
    def refuse(*args):
        raise OSError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", refuse)
    monkeypatch.setattr(os, "pipe", refuse)
    sweep_rows = analysis._sweep_rows
    calls = []
    monkeypatch.setattr(analysis, "_sweep_rows",
                        lambda lo, hi: calls.append((lo, hi)) or sweep_rows(lo, hi))
    for fmt, digest in SWEEP_9000_SHA256.items():
        code, out, err = run(capsys, "sweep", "--from", "1", "--to", "9000", "--format", fmt)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest, fmt
    assert calls == [(1, 9000), (1, 9000)]


def test_sweep_fails_at_the_lowest_a_and_writes_nothing(capsys, monkeypatch, tmp_path):
    target = tmp_path / "sweep.csv"
    for bad in ((150,), (250,), (150, 250), (50, 250)):
        with monkeypatch.context() as m:
            _fault_at(m, *bad)
            for fmt in ("csv", "json"):
                for out_args in ((), ("--out", str(target))):
                    code, out, err = run(capsys, "sweep", "--from", "1", "--to", "300",
                                         "--format", fmt, *out_args)
                    assert (code, out) == (4, ""), (bad, fmt, out_args)
                    assert err.startswith(
                        f"internal error: sigma certificate failed at a={bad[0]}:"), bad
                    assert err.count("\n") == 1 and err.endswith("\n")
                    assert not target.exists()


def test_sweep_joins_rows_as_json_dumps_and_csv(capsys):
    records = analysis.sweep(1, 3)
    rows = [r._asdict() for r in records]
    code, out, err = run(capsys, "sweep", "--from", "1", "--to", "3", "--format", "json")
    assert (code, out, err) == (0, json.dumps(rows, indent=2, sort_keys=True) + "\n", "")
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(analysis.SweepRecord._fields)
    writer.writerows([int(v) for v in r] for r in records)
    assert run(capsys, "sweep", "--from", "1", "--to", "3") == (0, text.getvalue(), "")
