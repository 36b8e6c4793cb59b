"""Command-line surface: output formats, exit codes, determinism."""

import ast
import csv
import hashlib
import json
import os
import subprocess
import sys
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

import sqdenom
from sqdenom import analysis, cli, sigmacore
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


def test_consistency_failures_exit_four(capsys, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(sigmacore, "first_pair_between", lambda x, y: (850, 28))
        for argv in (("sigma", "991"), ("first-square", "991"),
                     ("sweep", "--from", "19", "--to", "19")):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (4, ""), argv
            assert err.startswith("internal error:") and err.count("\n") == 1
    # a sigma on no curve leaves min_k without an index: at a = 2,
    # sigma_1 = 2 <= 3 <= 4 = upper passes the bounds check, but the curves
    # give 2, 4, 6 at k = 1, 2, 3
    with monkeypatch.context() as m:
        m.setattr(analysis, "certified_first_pair", lambda a: (5, 3))
        code, out, err = run(capsys, "sweep", "--from", "2", "--to", "2")
    assert (code, out) == (4, "")
    assert err.startswith("internal error: no curve index") and err.count("\n") == 1
    # k_set takes each index from min_k and keeps the same guarantee; no
    # curve reaches a sigma of 1, as sigma_k(a) >= k + 1
    monkeypatch.setattr(sigmacore, "sigma", lambda a: 1)
    code, out, err = run(capsys, "analyze", "kset", "--n", "2")
    assert (code, out) == (4, "")
    assert err.startswith("internal error: no curve index") and err.count("\n") == 1


def test_tset_refuses_more_witnesses_than_the_cap(capsys):
    cap = cli.TSET_MAX_WITNESSES
    assert cap == 10**6  # the documented cap
    # tau(0, s) = s - 1 witnesses, counted before any list is built
    for s in (10**12, cap + 2):
        code, out, err = run(capsys, "tset", "0", str(s))
        assert (code, out) == (2, "")
        assert err == f"error: tset would print {s - 1} witnesses, over the cap of {cap}\n"


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


def test_analyze_kset(capsys):
    code, out, _ = run(capsys, "analyze", "kset", "--n", "10")
    assert code == 0
    rep = json.loads(out)
    assert rep["minimal"] == [1, 2, 3, 4]
    assert set(rep["minimal"]) <= set(rep["existential"])
    assert rep["verdict"] in ("pass", "indeterminate")


def test_analyze_symmetry(capsys):
    code, out, _ = run(capsys, "analyze", "symmetry", "--n-min", "2", "--n-max", "4")
    assert code == 0
    rep = json.loads(out)
    assert rep["aggregate"]["exact"].count("/") == 1
    assert float(rep["aggregate"]["approx"]) == pytest.approx(
        rep["matches"] / rep["comparisons"], abs=1e-6
    )
    assert [e["n"] for e in rep["per_n"]] == [2, 3, 4]


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
    (["analyze", "kset", "--n", "2"], ["sqdenom.figures", "sqdenom.svg", "csv"]),
    (["sweep", "--from", "1", "--to", "3"],
     ["sqdenom.figures", "sqdenom.svg", "csv", "json", "multiprocessing", "concurrent.futures"]),
])
def test_commands_load_only_what_they_use(argv, unused):
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


def test_analyze_offbound(capsys):
    code, out, _ = run(capsys, "analyze", "offbound", "--n-from", "7", "--n-to", "8")
    assert code == 0
    rep = json.loads(out)
    assert [e["points"] for e in rep["minima"]][0] == [54, 57]
    assert all(e["verdict"] in ("pass", "indeterminate") for e in rep["peaks"])


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
}


def test_output_bytes_are_pinned(capsys):
    for argv, digest in OUTPUT_SHA256.items():
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, ""), argv
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


# --- the forked sweep -------------------------------------------------------

JSON_300 = ("sweep", "--from", "1", "--to", "300", "--format", "json")


def _split_three_ways(monkeypatch):
    """Make 1..300 split into three blocks of 100 rows on any machine, and
    count the children forked."""
    forks = []
    fork = os.fork
    monkeypatch.setattr(cli, "SWEEP_MIN_BLOCK_ROWS", 64)
    monkeypatch.setattr(cli, "_allowed_cpus", lambda: 3)
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    return forks


def _no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


def _fault_at(monkeypatch, *bad):
    """A kernel that answers (850, 28) at each a in bad, which the sweep's
    certificate rejects."""
    kernel = sigmacore.first_pair_between
    monkeypatch.setattr(
        sigmacore, "first_pair_between", lambda x, y: (850, 28) if x in bad else kernel(x, y))


def test_split_sweep_writes_the_serial_bytes(capsys, monkeypatch):
    serial_csv = run(capsys, "sweep", "--from", "1", "--to", "300")
    forks = _split_three_ways(monkeypatch)
    code, out, err = run(capsys, *JSON_300)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == OUTPUT_SHA256[JSON_300]
    assert run(capsys, "sweep", "--from", "1", "--to", "300") == serial_csv
    assert len(forks) == 4  # two children a sweep
    assert _no_children_left()


def test_split_sweep_joins_one_row_blocks(capsys, monkeypatch):
    argvs = [("sweep", "--from", "1", "--to", "3", "--format", fmt) for fmt in ("csv", "json")]
    serial = [run(capsys, *argv) for argv in argvs]
    rows = [r._asdict() for r in analysis.sweep(1, 3)]
    assert serial[1] == (0, json.dumps(rows, indent=2, sort_keys=True) + "\n", "")
    forks = _split_three_ways(monkeypatch)
    monkeypatch.setattr(cli, "SWEEP_MIN_BLOCK_ROWS", 1)
    assert cli.plan_blocks(1, 3, cli._allowed_cpus(), 1) == [(1, 1), (2, 2), (3, 3)]
    assert [run(capsys, *argv) for argv in argvs] == serial
    assert len(forks) == 4 and _no_children_left()


def test_split_sweep_fails_at_the_lowest_a_with_the_serial_message(capsys, monkeypatch):
    for bad in ((150,), (250,), (150, 250), (50, 250)):
        with monkeypatch.context() as m:
            _fault_at(m, *bad)
            serial = run(capsys, "sweep", "--from", "1", "--to", "300")
            _split_three_ways(m)
            split = run(capsys, "sweep", "--from", "1", "--to", "300")
        assert split == serial, bad
        assert split[:2] == (4, "") and split[2].startswith(
            f"internal error: sigma certificate failed at a={bad[0]}:"), bad
        assert _no_children_left()


def test_split_sweep_reaps_its_children_after_a_parent_failure(capsys, monkeypatch):
    # 3000 rows a block: a child's payload overfills a pipe, so the children
    # may be blocked writing when the parent fails at the end of its block
    forks = _split_three_ways(monkeypatch)
    _fault_at(monkeypatch, 3000)
    code, out, err = run(capsys, "sweep", "--from", "1", "--to", "9000")
    assert (code, out) == (4, "") and len(forks) == 2
    assert err.startswith("internal error: sigma certificate failed at a=3000:")
    assert _no_children_left()
    # Ctrl-C in the parent while the children are still at work: they are
    # killed, not waited for
    parent = os.getpid()
    sweep = analysis.sweep

    def interrupted(lo, hi):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(30)
        return sweep(lo, hi)

    monkeypatch.setattr(analysis, "sweep", interrupted)
    t0 = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        main(["sweep", "--from", "1", "--to", "300"])
    assert time.perf_counter() - t0 < 10
    assert _no_children_left()


def test_split_sweep_stays_serial_when_it_cannot_fork(capsys, monkeypatch):
    serial = run(capsys, *JSON_300)
    forks = _split_three_ways(monkeypatch)
    fork = os.fork  # the counting fork

    def fork_once():
        if forks:
            raise OSError(11, "Resource temporarily unavailable")
        return fork()

    def no_fork():
        raise OSError(12, "Cannot allocate memory")

    # the first child, or none, then the parent computes the other blocks
    for failing_fork, children in ((fork_once, 1), (no_fork, 0)):
        forks.clear()
        monkeypatch.setattr(os, "fork", failing_fork)
        assert run(capsys, *JSON_300) == serial
        assert len(forks) == children and _no_children_left()
    # one allowed CPU, or no way to fork or to ask: no child at all
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
    monkeypatch.setattr(cli, "_allowed_cpus", lambda: 1)
    assert run(capsys, *JSON_300) == serial
    monkeypatch.undo()
    for name in ("fork", "sched_getaffinity"):
        with monkeypatch.context() as m:
            m.delattr(os, name, raising=False)
            assert cli._allowed_cpus() == 1


def test_split_sweep_reports_a_child_that_sends_no_rows(capsys, monkeypatch):
    _split_three_ways(monkeypatch)
    parent = os.getpid()
    sweep = analysis.sweep

    def dying(lo, hi):
        if os.getpid() != parent:
            os._exit(1)
        return sweep(lo, hi)

    monkeypatch.setattr(analysis, "sweep", dying)
    code, out, err = run(capsys, "sweep", "--from", "1", "--to", "300")
    assert (code, out) == (3, "")
    assert err == "i/o error: sweep child for a=101..200 ended without its rows\n"
    assert _no_children_left()
    # an error the parent has no exit code for comes back as a RuntimeError
    monkeypatch.setattr(analysis, "sweep", lambda lo, hi: sweep(lo, hi) if lo == 1 else 1 // 0)
    with pytest.raises(RuntimeError, match=r"a=101..200: ZeroDivisionError"):
        main(["sweep", "--from", "1", "--to", "300"])
    assert _no_children_left()


def test_plan_blocks_bounds_the_fan_out():
    lo, hi = 1, 10**12
    blocks = cli.plan_blocks(lo, hi, 64, cli.SWEEP_MIN_BLOCK_ROWS)
    assert len(blocks) == 64
    assert blocks[0][0] == lo and blocks[-1][1] == hi
    assert all(b[0] == a[1] + 1 for a, b in zip(blocks, blocks[1:]))
    assert min(b - a + 1 for a, b in blocks) >= cli.SWEEP_MIN_BLOCK_ROWS
    # under two minimum blocks, a range is not split
    assert cli.plan_blocks(1, 2 * cli.SWEEP_MIN_BLOCK_ROWS - 1, 64,
                           cli.SWEEP_MIN_BLOCK_ROWS) == [(1, 2 * cli.SWEEP_MIN_BLOCK_ROWS - 1)]


@given(a_from=st.integers(-5, 10**30), rows=st.integers(-3, 10**6),
       cpus=st.integers(1, 512), min_rows=st.integers(1, 10**4))
def test_plan_blocks_covers_the_range_in_order(a_from, rows, cpus, min_rows):
    a_to = a_from + rows - 1
    blocks = cli.plan_blocks(a_from, a_to, cpus, min_rows)
    if rows < 2 * min_rows or cpus == 1:
        assert blocks == [(a_from, a_to)]
        return
    sizes = [hi - lo + 1 for lo, hi in blocks]
    assert 2 <= len(blocks) <= cpus
    assert blocks[0][0] == a_from and blocks[-1][1] == a_to
    assert all(b[0] == a[1] + 1 for a, b in zip(blocks, blocks[1:]))
    assert min(sizes) >= min_rows and max(sizes) - min(sizes) <= 1
    assert sizes[0] == min(sizes)
