"""The three benchmark workloads: families, sweep and paper.

Each workload is built from the seed alone, runs one pass at a time and
checks every output of the pass against independent code or against the
outputs recorded at the seed commit (expected.json, expected/).
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import random
import resource
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import oracle
from sqdenom import cli, confrac, sigmacore

HERE = Path(__file__).resolve().parent
EXPECTED = json.loads((HERE / "expected.json").read_text())

# Mirrors the `sqdenom` console script, so no install step is needed.
ENTRY = "import sys; from sqdenom.cli import main; sys.exit(main())"
CHILD_TIMEOUT_S = 60


@dataclass
class Pass:
    """What one pass of a workload did and how long it took."""

    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    latencies_ms: dict[str, float]  # per request label
    attempted: int
    failed: int  # errored or wrong output
    over_budget: list[str] = field(default_factory=list)
    ok: int = 0  # operations that finished in budget with correct output
    items: int = 0  # what those operations produced: answers, CSV rows or documents
    problems: list[str] = field(default_factory=list)


class _ChildTimeout(BaseException):
    pass


def _on_alarm(signum, frame):
    raise _ChildTimeout


def run_child(argv: list[str], env: dict, stdout_path: Path) -> tuple[int, float, float, float, str]:
    """Run a process to completion: (exit code, wall s, cpu s, peak rss MB, stderr).

    os.wait4 gives the child's own resource usage, which includes the pool
    workers it waited for.
    """
    err_path = stdout_path.with_name(stdout_path.name + ".err")
    with open(stdout_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=out, stderr=err, stdin=subprocess.DEVNULL)
        previous = signal.signal(signal.SIGALRM, _on_alarm)
        signal.alarm(CHILD_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except _ChildTimeout:
            proc.kill()
            proc.wait()
            raise RuntimeError(f"timed out after {CHILD_TIMEOUT_S} s: {argv[3:]}")
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = err_path.read_text(errors="replace")
    err_path.unlink()
    return (
        proc.returncode,
        wall,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss / 1024,
        stderr,
    )


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Env:
    """Where the program lives and where a run may write."""

    def __init__(self, root: Path, work: Path):
        self.work = work
        self.python = sys.executable
        self.child_env = dict(os.environ)
        self.child_env["PYTHONPATH"] = str(root / "src")

    def cli_argv(self, args: list[str]) -> list[str]:
        return [self.python, "-c", ENTRY, *args]


# ---------------------------------------------------------------- families

class _OverBudget(BaseException):
    """Raised by the interval timer; not an Exception, so library code cannot swallow it."""


class Budget:
    """CPU-time budget per query, enforced by ITIMER_PROF in this process.

    CPU time rather than wall time keeps the over-budget set independent
    of other load on the machine.
    """

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.armed = False
        signal.signal(signal.SIGPROF, self._fire)

    def _fire(self, signum, frame):
        if self.armed:
            self.armed = False
            raise _OverBudget

    def call(self, fn, *args):
        """(in budget, result or None, ms the call ran).

        The time excludes arming and disarming the timer, which are the
        benchmark's cost, not the program's.
        """
        t0 = time.perf_counter()  # in case the timer fires before the call starts
        try:
            self.armed = True
            signal.setitimer(signal.ITIMER_PROF, self.seconds)
            try:
                t0 = time.perf_counter()
                result = fn(*args)
                t1 = time.perf_counter()
            finally:
                self.armed = False
                signal.setitimer(signal.ITIMER_PROF, 0)
        except _OverBudget:
            return False, None, (time.perf_counter() - t0) * 1e3
        return True, result, (t1 - t0) * 1e3

    def close(self):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)


SCALES = (3, 6, 25, 150)  # n = 10^e, so a is about 10^6, 10^12, 10^50, 10^300
FAMILIES = {
    "n^2": lambda n: n * n,
    "n^2-1": lambda n: n * n - 1,
    "n^2+n-1": lambda n: n * n + n - 1,
    "n^2+7": lambda n: n * n + 7,
}
ZERO_WINDOW_K = 8
# Looked up through the modules at call time, so the traced run sees its wrappers.
QUERIES = {
    "sigma": lambda a: sigmacore.sigma(a),
    "first_square": lambda a: confrac.first_rational_between(a, a + 1),
    "min_k": lambda a: sigmacore.min_k(a),
    "tau": lambda a: sigmacore.tau(a, sigmacore.sigma_upper(a)),
    "t_set": lambda a: sigmacore.t_set(a, sigmacore.sigma_upper(a)),
    "on_bound": lambda a: sigmacore.on_bound_criterion(a),
    "zero_windows": lambda a: sigmacore.zero_windows(a, ZERO_WINDOW_K),
}


def _surd_value(x) -> tuple[Fraction, Fraction]:
    """(p/r, q^2*d/r^2) of a Surd, so canonical form does not matter."""
    return oracle.root_value(Fraction(x.p, x.r), Fraction(x.q * x.q * x.d, x.r * x.r))


class Families:
    """Closed loop, one client: 112 point queries per pass on worst-case inputs."""

    name = "families"
    jobs = 1

    def __init__(self, env: Env, seed: int):
        self.rng = random.Random(seed)
        self.budget = Budget(EXPECTED["families"]["budget_ms"] / 1000)
        self.ops = [
            (f"{query}@{family}@1e{2 * e}", query, fam(10**e))
            for e in SCALES
            for family, fam in FAMILIES.items()
            for query in QUERIES
        ]
        self.expected = {a: self._expect(a) for a in {a for _label, _query, a in self.ops}}
        self.min_k_ok: dict[int, int] = {}

    def _expect(self, a: int) -> dict:
        t, s = oracle.first_square(a)
        if oracle.tau_count(a, s) != 1 or oracle.tau_count(a, s - 1) != 0:
            raise AssertionError(f"oracle witness recount failed at a={a}")
        upper = oracle.upper_bound(a)
        return {
            "t": t,
            "s": s,
            "tau": oracle.tau_count(a, upper),
            "t_set": list(oracle.witnesses(a, upper)),
            "on_bound": s == oracle.curve(a, 1),
            "zero_windows": oracle.zero_window_values(a, ZERO_WINDOW_K),
        }

    def _correct(self, query: str, a: int, r) -> bool:
        x = self.expected[a]
        if query == "sigma":
            return r == x["s"]
        if query == "first_square":
            return r == Fraction(x["t"], x["s"])
        if query == "min_k":
            if a not in self.min_k_ok and oracle.is_min_curve_index(a, x["s"], r):
                self.min_k_ok[a] = r
            return self.min_k_ok.get(a) == r
        if query == "tau":
            return r == x["tau"]
        if query == "t_set":
            return r == x["t_set"]
        if query == "on_bound":
            return r is x["on_bound"]
        got = [(w.k, w.side, _surd_value(w.lo), _surd_value(w.hi)) for w in r]
        return got == x["zero_windows"]

    def _query(self, op, p: Pass, tracer=None):
        """Run one query under the budget: (in budget, result), or None if it raised."""
        label, query, a = op
        if tracer is not None:
            tracer.begin()
        t0 = time.perf_counter()
        try:
            done, result, p.latencies_ms[label] = self.budget.call(QUERIES[query], a)
        except Exception as exc:  # a library error is a failed operation
            p.latencies_ms[label] = (time.perf_counter() - t0) * 1e3
            p.failed += 1
            p.problems.append(f"{label}: {type(exc).__name__}: {exc}")
            return None
        if done and tracer is not None:
            tracer.commit()
        return done, result

    def run_pass(self, tracer=None) -> Pass:
        ops = list(self.ops)
        self.rng.shuffle(ops)
        p = Pass(0.0, 0.0, 0.0, {}, attempted=len(ops), failed=0)
        gc.collect()  # every pass starts from the same collector state
        w0, c0 = time.perf_counter(), time.process_time()
        outcomes = [self._query(op, p, tracer) for op in ops]
        p.wall_s = time.perf_counter() - w0
        p.cpu_s = time.process_time() - c0
        p.peak_rss_mb = _self_peak_rss_mb()
        # checked after the timed loop, so checking allocates nothing inside it
        for (label, query, a), outcome in zip(ops, outcomes):
            if outcome is None:
                continue
            done, result = outcome
            if not done:
                p.over_budget.append(label)
            elif self._correct(query, a, result):
                p.ok += 1
                p.items += 1
            else:
                p.failed += 1
                p.problems.append(f"{label}: wrong output")
        return p

    def inprocess_pass(self, tracer=None) -> Pass:
        return self.run_pass(tracer)

    def close(self):
        self.budget.close()


def _self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# ------------------------------------------------------------------- sweep

SWEEP_ROWS = 20000
SWEEP_JOBS = 2
SWEEP_SAMPLE = 200
SWEEP_HEADER = "a,sigma,sigma1,upper,on_bound,min_k,t_first"


class Sweep:
    """`sqdenom sweep` over 20000 consecutive a, CSV to a file, 2 pool workers."""

    name = "sweep"
    jobs = SWEEP_JOBS

    def __init__(self, env: Env, seed: int):
        self.env = env
        # A small shift keeps the work per pass nearly constant across seeds.
        self.a0 = 1 + 16 * (seed % 64)
        self.a1 = self.a0 + SWEEP_ROWS - 1
        self.out = env.work / "sweep.csv"
        rng = random.Random(seed)
        sample = sorted(rng.sample(range(self.a0, self.a1 + 1), SWEEP_SAMPLE))
        self.sample = {a: ",".join(map(str, oracle.sweep_row(a))) for a in sample}

    def _args(self, jobs: int) -> list[str]:
        return ["sweep", "--from", str(self.a0), "--to", str(self.a1),
                "--jobs", str(jobs), "--out", str(self.out)]

    def _check(self, p: Pass) -> None:
        ok = self.out.exists()
        if ok and self.a0 == 1:
            ok = sha256(self.out) == EXPECTED["sweep"]["csv_sha256"]
        elif ok:
            lines = self.out.read_text().splitlines()
            ok = (
                len(lines) == SWEEP_ROWS + 1
                and lines[0] == SWEEP_HEADER
                and all(line.split(",", 1)[0] == str(a)
                        for a, line in zip(range(self.a0, self.a1 + 1), lines[1:]))
                and all(lines[a - self.a0 + 1] == row for a, row in self.sample.items())
            )
        if ok:
            p.ok = 1
            p.items = SWEEP_ROWS
        else:
            p.failed += 1
            p.problems.append("sweep: CSV differs from the expected rows")

    def run_pass(self) -> Pass:
        self.out.unlink(missing_ok=True)
        code, wall, cpu, rss, err = run_child(
            self.env.cli_argv(self._args(SWEEP_JOBS)), self.env.child_env,
            self.env.work / "sweep.stdout")
        p = Pass(wall, cpu, rss, {"sweep": wall * 1e3}, attempted=1, failed=0)
        if code != 0:
            p.failed = 1
            p.problems.append(f"sweep: exit {code}: {err.strip()[-300:]}")
        else:
            self._check(p)
        return p

    def inprocess_pass(self, tracer=None) -> Pass:
        """Serial (jobs=1) sweep inside this process, for the traced run."""
        self.out.unlink(missing_ok=True)
        if tracer is not None:
            tracer.begin()
        t0 = time.perf_counter()
        code = cli.main(self._args(1))
        wall = time.perf_counter() - t0
        if tracer is not None:
            tracer.commit()
        p = Pass(wall, 0.0, 0.0, {"sweep": wall * 1e3}, attempted=1, failed=0)
        if code != 0:
            p.failed = 1
            p.problems.append(f"sweep: exit {code}")
        else:
            self._check(p)
        return p

    def close(self):
        pass


# ------------------------------------------------------------------- paper

FIGURE_FILES = (
    "fig1.svg", "fig1.csv", "fig2.svg", "fig2.csv", "fig3.svg", "fig3.csv",
    "fig4.svg", "fig4.csv", "fig5.svg", "fig5.csv", "fig5_curves.csv",
    "fig6.svg", "fig6.csv",
)
REPORTS = {
    "kset": ["analyze", "kset", "--n", "100"],
    "symmetry": ["analyze", "symmetry", "--n-min", "2", "--n-max", "44"],
    "offbound": ["analyze", "offbound", "--n-from", "7", "--n-to", "20"],
    "conjecture1": ["analyze", "conjecture1", "--a-max", "300", "--k-max", "4", "--s-max", "500"],
}


class Paper:
    """The CLI commands behind the paper's figures and reports, one process each."""

    name = "paper"
    jobs = 1

    def __init__(self, env: Env, seed: int):
        self.env = env
        self.rng = random.Random(seed)
        self.fig_dir = env.work / "figs"
        self.commands = {"figures": ["figures", "--out-dir", str(self.fig_dir)], **REPORTS}
        self.reports = {
            name: json.loads((HERE / "expected" / f"{name}.json").read_text())
            for name in REPORTS
        }

    def _check(self, name: str, stdout: str, p: Pass) -> None:
        if name == "figures":
            digests = EXPECTED["paper"]["figure_sha256"]
            bad = [f for f in FIGURE_FILES
                   if not (self.fig_dir / f).exists() or sha256(self.fig_dir / f) != digests[f]]
            if bad:
                p.failed += 1
                p.problems.append(f"figures: differ from the seed: {bad}")
            else:
                p.ok += 1
                p.items += len(FIGURE_FILES)
            return
        try:
            ok = oracle.keys_match(self.reports[name], json.loads(stdout))
        except json.JSONDecodeError:
            ok = False
        if ok:
            p.ok += 1
            p.items += 1
        else:
            p.failed += 1
            p.problems.append(f"{name}: report differs from the seed")

    def _order(self) -> list[str]:
        names = list(self.commands)
        self.rng.shuffle(names)
        return names

    def run_pass(self) -> Pass:
        p = Pass(0.0, 0.0, 0.0, {}, attempted=len(self.commands), failed=0)
        for name in self._order():
            if name == "figures":
                _clear(self.fig_dir)
            out = self.env.work / f"{name}.stdout"
            code, wall, cpu, rss, err = run_child(
                self.env.cli_argv(self.commands[name]), self.env.child_env, out)
            p.wall_s += wall
            p.cpu_s += cpu
            p.peak_rss_mb = max(p.peak_rss_mb, rss)
            p.latencies_ms[name] = wall * 1e3
            if code != 0:
                p.failed += 1
                p.problems.append(f"{name}: exit {code}: {err.strip()[-300:]}")
            else:
                self._check(name, out.read_text(), p)
        return p

    def inprocess_pass(self, tracer=None) -> Pass:
        """The same commands through cli.main inside this process, for the traced run."""
        p = Pass(0.0, 0.0, 0.0, {}, attempted=len(self.commands), failed=0)
        for name in self._order():
            if name == "figures":
                _clear(self.fig_dir)
            buf = io.StringIO()
            if tracer is not None:
                tracer.begin()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(buf):
                code = cli.main(self.commands[name])
            wall = time.perf_counter() - t0
            if tracer is not None:
                tracer.commit()
            p.wall_s += wall
            p.latencies_ms[name] = wall * 1e3
            if code != 0:
                p.failed += 1
                p.problems.append(f"{name}: exit {code}")
            else:
                self._check(name, buf.getvalue(), p)
        return p

    def close(self):
        pass


def _clear(directory: Path) -> None:
    if directory.exists():
        for f in directory.iterdir():
            f.unlink()


WORKLOADS = {w.name: w for w in (Families, Sweep, Paper)}
