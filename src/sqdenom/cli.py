"""Command-line front end.

Exit codes: 0 success, 2 bad usage or invalid parameter values, 3 I/O
failure, 4 an internal consistency check failed (a library defect,
reported in one stderr line).  All file output is byte-deterministic:
rerunning a command with the same arguments reproduces identical bytes.

Each command imports the library code it runs, so a process pays only for
the command it makes: `sigma` never loads the analysis, figure or SVG
layers, and `import sqdenom.cli` loads nothing beyond the parser.
"""

from __future__ import annotations

import argparse
import contextlib
import sys


def _output(path: str | None):
    """Context manager for a command's output: stdout, or the --out file.

    Commands build their records, rows or report before opening it, so a
    failing command writes nothing and creates no file.
    """
    if path is None:
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w", newline="")


def cmd_sigma(args) -> int:
    from .sigmacore import certified_first_pair

    print(certified_first_pair(args.a)[1])
    return 0


def cmd_tau(args) -> int:
    from .sigmacore import tau

    print(tau(args.a, args.s))
    return 0


def cmd_tset(args) -> int:
    from .sigmacore import t_set

    print("{" + ", ".join(str(t) for t in t_set(args.a, args.s)) + "}")
    return 0


def cmd_first_square(args) -> int:
    from .sigmacore import certified_first_pair

    t, s = certified_first_pair(args.a)
    print(f"{t * t}/{s * s} (t={t}, s={s})")
    return 0


def cmd_cf(args) -> int:
    from .confrac import sqrt_cf

    print(sqrt_cf(args.d))
    return 0


# One sweep row as json.dumps(row._asdict(), indent=2, sort_keys=True)
# writes it inside a list: the seven keys sorted, on_bound as true/false.
_JSON_ROW = ('  {\n    "a": %d,\n    "min_k": %d,\n    "on_bound": %s,\n    "sigma": %d,\n'
             '    "sigma1": %d,\n    "t_first": %d,\n    "upper": %d\n  }')


def cmd_sweep(args) -> int:
    """The rows of analysis._sweep_rows, formatted straight from their
    tuples: figures.write_csv's lines under the header, or the list of row
    dicts as json.dumps writes it.  The text is built before the output
    opens, so a failing sweep writes nothing."""
    from .analysis import SweepRecord, _sweep_rows

    rows = _sweep_rows(args.a_from, args.a_to)
    if args.format == "json":
        parts = ("[\n", ",\n".join([_JSON_ROW % (a, k, "true" if on else "false", s, s1, t, up)
                                     for a, s, s1, up, on, k, t in rows]), "\n]\n")
    else:
        parts = (",".join(SweepRecord._fields) + "\n",
                 "".join(["%d,%d,%d,%d,%d,%d,%d\n" % r for r in rows]))
    with _output(args.out) as fh:  # in parts: a `+` would copy the text again
        fh.writelines(parts)
    return 0


def cmd_heatmap(args) -> int:
    from .figures import heatmap_text

    text = heatmap_text(args.mode, args.format, args.a_min, args.a_max, args.s_min, args.s_max)
    with _output(args.out) as fh:
        fh.write(text)
    return 0


def cmd_figures(args) -> int:
    from .figures import generate_figures

    paths = generate_figures(args.out_dir)
    for p in paths:
        print(p)
    return 0


def _report_symmetry(args) -> dict:
    from fractions import Fraction

    from .analysis import symmetry_report

    rep = symmetry_report(
        n_min=args.n_min, n_max=args.n_max,
        d_max=args.d_max, full_range=args.full_range,
    )
    agg = rep["aggregate"]
    verdict = "pass" if Fraction(1, 2) <= agg <= Fraction(7, 10) else "indeterminate"
    return {
        "aggregate": {"exact": f"{agg.numerator}/{agg.denominator}", "approx": f"{float(agg):.6f}"},
        "matches": rep["matches"],
        "comparisons": rep["comparisons"],
        "per_n": rep["per_n"],
        "verdict": verdict,
    }


def _report_kset(args) -> dict:
    from .analysis import k_set

    ks = sorted(k_set(args.n))
    findings = [
        # sigma_k strictly increases in k, so each a has exactly one matching
        # index: the least-index and every-index sets are the same set.
        {"check": "minimal subset of existential", "verdict": "pass"},
        {
            "check": "contains 1",
            "verdict": "pass" if 1 in ks else "indeterminate",
        },
    ]
    return {
        "minimal": ks,
        "existential": ks,
        "findings": findings,
        "verdict": "pass" if all(f["verdict"] == "pass" for f in findings) else "indeterminate",
    }


def _report_offbound(args) -> dict:
    from .analysis import _offbound_by_interval

    peaks = []
    minima = []
    for n, peak, pts in _offbound_by_interval(args.n_from, args.n_to):
        center = n * n + n - 1
        if peak:
            at_center = peak[0] == center
            peaks.append({"n": n, "a_peak": peak[0], "sigma_peak": peak[1], "at_center": at_center,
                          "verdict": "pass" if at_center else "indeterminate"})
        if n >= 7:
            ok = len(pts) == 2 and pts[0] < center < pts[1]
            minima.append({"n": n, "points": pts, "verdict": "pass" if ok else "indeterminate"})
    all_pass = all(e["verdict"] == "pass" for e in peaks + minima)
    return {
        "peaks": peaks,
        "minima": minima,
        "verdict": "pass" if all_pass else "indeterminate",
    }


def _report_conjecture1(args) -> dict:
    from .analysis import conjecture1_search

    findings = []
    indeterminate = 0
    for a, witnesses in conjecture1_search(args.a_max, args.k_max, args.s_max).items():
        for k, s in enumerate(witnesses, start=1):
            if s is None:
                indeterminate += 1
                findings.append({"a": a, "k": k, "verdict": "indeterminate"})
            else:
                findings.append({"a": a, "k": k, "s": s, "verdict": "pass"})
    return {
        "findings": findings,
        "indeterminate_count": indeterminate,
        "verdict": "pass" if indeterminate == 0 else "indeterminate",
    }


def _report_closure(args) -> dict:
    from .analysis import _last_fall, upward_closure_check

    violations = upward_closure_check(args.a, args.s_max)
    if violations:
        verdict = "fail"  # a violation is a definite exact finding
    elif args.s_max >= _last_fall(args.a, 1):
        verdict = "pass"
    else:
        verdict = "indeterminate"
    return {
        "violations": violations,
        "verdict": verdict,
    }


def cmd_analyze(args) -> int:
    """Write the report's JSON; its "params" are the subcommand's own
    options, read off the parsed arguments."""
    import json

    params = {name: value for name, value in vars(args).items()
              if name not in ("command", "subreport", "out", "func", "build")}
    report = {"report": args.subreport, "params": params, **args.build(args)}
    with _output(args.out) as fh:
        fh.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sqdenom",
        description="Exact location of the first rational square in (a, a+1).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sigma", help="least denominator for (a, a+1), certified")
    p.add_argument("a", type=int)
    p.set_defaults(func=cmd_sigma)

    p = sub.add_parser("tau", help="count squares between s^2*a and s^2*(a+1)")
    p.add_argument("a", type=int)
    p.add_argument("s", type=int)
    p.set_defaults(func=cmd_tau)

    p = sub.add_parser("tset", help="witness numerators for denominator s")
    p.add_argument("a", type=int)
    p.add_argument("s", type=int)
    p.set_defaults(func=cmd_tset)

    p = sub.add_parser("first-square", help="first rational square inside (a, a+1), certified")
    p.add_argument("a", type=int)
    p.set_defaults(func=cmd_first_square)

    p = sub.add_parser("cf", help="continued fraction of sqrt(d)")
    p.add_argument("d", type=int)
    p.set_defaults(func=cmd_cf)

    p = sub.add_parser("sweep", help="per-a records over a range")
    p.add_argument("--from", dest="a_from", type=int, required=True)
    p.add_argument("--to", dest="a_to", type=int, required=True)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--out", default=None)
    # Inert: a sweep runs in one process.  Kept so command lines that
    # still pass it keep working.
    p.add_argument("--jobs", type=int, help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("heatmap", help="tau or tau-step grid")
    p.add_argument("--a-min", type=int, default=8)
    p.add_argument("--a-max", type=int, default=256)
    p.add_argument("--s-min", type=int, default=2)
    p.add_argument("--s-max", type=int, default=100)
    p.add_argument("--mode", choices=["tau", "delta"], default="tau")
    p.add_argument("--format", choices=["svg", "csv"], default="svg")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_heatmap)

    p = sub.add_parser("figures", help="regenerate fig1..fig6 SVG + CSV")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_figures)

    p = sub.add_parser("analyze", help="observation reports as JSON")
    asub = p.add_subparsers(dest="subreport", required=True)

    q = asub.add_parser("symmetry", help="sigma symmetry around trough centers")
    q.add_argument("--n-min", type=int, default=2)
    q.add_argument("--n-max", type=int, default=44)
    q.add_argument("--d-max", type=int, default=None)
    q.add_argument("--full-range", action="store_true")
    q.add_argument("--out", default=None)
    q.set_defaults(func=cmd_analyze, build=_report_symmetry)

    q = asub.add_parser("kset", help="curve indices realized on one square interval")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--out", default=None)
    q.set_defaults(func=cmd_analyze, build=_report_kset)

    q = asub.add_parser("offbound", help="peaks and sigma=5 minima per interval")
    q.add_argument("--n-from", dest="n_from", type=int, default=4)
    q.add_argument("--n-to", dest="n_to", type=int, default=20)
    q.add_argument("--out", default=None)
    q.set_defaults(func=cmd_analyze, build=_report_offbound)

    q = asub.add_parser("conjecture1", help="tau decrement witness table")
    q.add_argument("--a-max", type=int, default=300)
    q.add_argument("--k-max", type=int, default=4)
    q.add_argument("--s-max", type=int, default=500)
    q.add_argument("--out", default=None)
    q.set_defaults(func=cmd_analyze, build=_report_conjecture1)

    q = asub.add_parser("closure", help="points where tau drops back to zero")
    q.add_argument("--a", type=int, required=True)
    q.add_argument("--s-max", type=int, default=100)
    q.add_argument("--out", default=None)
    q.set_defaults(func=cmd_analyze, build=_report_closure)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    from .sigmacore import ConsistencyError

    # The arguments were parsed under the interpreter's limit on the digits
    # of an int-to-str conversion; an answer can pass it (first-square
    # prints t^2, twice a's digits), so the command runs without it.
    # Python 3.10 before 3.10.7 has no limit.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    set_limit = getattr(sys, "set_int_max_str_digits", lambda digits: None)
    try:
        set_limit(0)
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except ConsistencyError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    finally:
        set_limit(limit)


if __name__ == "__main__":
    sys.exit(main())
