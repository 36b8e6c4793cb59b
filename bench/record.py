"""Record the reference values the benchmark checks against.

    python3 bench/record.py

Output digests and reports (the sweep CSV digest, the figure digests and
expected/*.json) pin the seed commit's bytes: they are written only when
missing, never overwritten.  The traced counts and the over-budget set
describe the current code and are always refreshed; a change that moves
them shows up as a diff of expected.json.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent


def _cli(env, args: list[str], name: str) -> Path:
    from workloads import run_child

    out = env.work / f"{name}.stdout"
    code, *_rest, err = run_child(env.cli_argv(args), env.child_env, out)
    if code != 0:
        raise SystemExit(f"{args}: exit {code}: {err}")
    return out


def record_outputs(env, expected: dict) -> None:
    from workloads import FIGURE_FILES, REPORTS, SWEEP_JOBS, SWEEP_ROWS, sha256

    sweep = expected.setdefault("sweep", {})
    if "csv_sha256" not in sweep:
        csv = env.work / "sweep.csv"
        _cli(env, ["sweep", "--from", "1", "--to", str(SWEEP_ROWS), "--jobs", str(SWEEP_JOBS),
                   "--out", str(csv)], "sweep")
        sweep["csv_sha256"] = sha256(csv)
    paper = expected.setdefault("paper", {})
    if "figure_sha256" not in paper:
        figs = env.work / "figs"
        _cli(env, ["figures", "--out-dir", str(figs)], "figures")
        paper["figure_sha256"] = {f: sha256(figs / f) for f in FIGURE_FILES}
    (HERE / "expected").mkdir(exist_ok=True)
    for name, args in REPORTS.items():
        path = HERE / "expected" / f"{name}.json"
        if not path.exists():
            report = json.loads(_cli(env, args, name).read_text())
            path.write_text(json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n")


def record_counts(env, expected: dict) -> None:
    import spans
    from workloads import WORKLOADS

    for name, cls in WORKLOADS.items():
        work = cls(env, 0)
        try:
            plain = work.run_pass()
            with spans.Tracer() as tracer:
                traced = work.inprocess_pass(tracer)
        finally:
            work.close()
        if plain.problems or traced.problems:
            raise SystemExit(f"{name}: {plain.problems + traced.problems}")
        if name == "families":
            expected[name]["over_budget"] = sorted(plain.over_budget)
        expected[name]["traced_counts"] = run.exact_counts(tracer)


def main() -> int:
    run._import_program()
    from workloads import Env

    path = HERE / "expected.json"
    expected = json.loads(path.read_text())
    work = run.OUT_DIR / "record"
    work.mkdir(parents=True, exist_ok=True)
    try:
        env = Env(run.ROOT, work)
        record_outputs(env, expected)
        path.write_text(json.dumps(expected, indent=2) + "\n")
        # workloads.EXPECTED was read before the outputs existed
        import workloads

        workloads.EXPECTED.update(expected)
        record_counts(env, expected)
        path.write_text(json.dumps(expected, indent=2) + "\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
