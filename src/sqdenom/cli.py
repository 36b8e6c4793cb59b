"""Command-line front end.

Exit codes: 0 success, 2 bad usage or invalid parameter values, 3 I/O
failure, 4 an internal consistency check failed (a library defect,
reported in one stderr line).  All file output is byte-deterministic:
rerunning a command with the same arguments reproduces identical bytes.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from fractions import Fraction

from .analysis import (
    SweepRecord,
    conjecture1_search,
    k_set,
    offbound_minima,
    offbound_peaks,
    symmetry_report,
    sweep,
    upward_closure_check,
)
from .confrac import sqrt_cf
from .figures import generate_figures, heatmap_data, heatmap_svg, write_csv
from .sigmacore import ConsistencyError, certified_first_pair, sigma_upper, t_set, tau


def _output(path: str | None):
    """Context manager for a command's output: stdout, or the --out file.

    Commands build their records, rows or report before opening it, so a
    failing command writes nothing and creates no file.
    """
    if path is None:
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w", newline="")


def _frac_fields(f: Fraction) -> dict:
    return {"exact": f"{f.numerator}/{f.denominator}", "approx": f"{float(f):.6f}"}


def cmd_sigma(args) -> int:
    print(certified_first_pair(args.a)[1])
    return 0


def cmd_tau(args) -> int:
    print(tau(args.a, args.s))
    return 0


def cmd_tset(args) -> int:
    ts = t_set(args.a, args.s)
    print("{" + ", ".join(str(t) for t in ts) + "}")
    return 0


def cmd_first_square(args) -> int:
    t, s = certified_first_pair(args.a)
    print(f"{t * t}/{s * s} (t={t}, s={s})")
    return 0


def cmd_cf(args) -> int:
    print(sqrt_cf(args.d))
    return 0


def cmd_sweep(args) -> int:
    records = sweep(args.a_from, args.a_to)
    with _output(args.out) as fh:
        if args.format == "json":
            payload = [r._asdict() for r in records]
            fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        else:
            # every field is an int; int() writes on_bound as 1/0
            write_csv(fh, SweepRecord._fields, (map(int, r) for r in records))
    return 0


def cmd_heatmap(args) -> int:
    header, rows = heatmap_data(args.mode, args.a_min, args.a_max, args.s_min, args.s_max)
    svg = heatmap_svg(args.mode, rows) if args.format == "svg" else None
    with _output(args.out) as fh:
        if svg is not None:
            fh.write(svg)
        else:
            write_csv(fh, header, rows)
    return 0


def cmd_figures(args) -> int:
    paths = generate_figures(args.out_dir)
    for p in paths:
        print(p)
    return 0


def _report_symmetry(args) -> dict:
    rep = symmetry_report(
        n_min=args.n_min, n_max=args.n_max,
        d_max=args.d_max, full_range=args.full_range,
    )
    agg = rep["aggregate"]
    verdict = "pass" if Fraction(1, 2) <= agg <= Fraction(7, 10) else "indeterminate"
    return {
        "params": {
            "n_min": args.n_min,
            "n_max": args.n_max,
            "d_max": args.d_max,
            "full_range": args.full_range,
        },
        "aggregate": _frac_fields(agg),
        "matches": rep["matches"],
        "comparisons": rep["comparisons"],
        "per_n": rep["per_n"],
        "verdict": verdict,
    }


def _report_kset(args) -> dict:
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
        "params": {"n": args.n},
        "minimal": ks,
        "existential": ks,
        "findings": findings,
        "verdict": "pass" if all(f["verdict"] == "pass" for f in findings) else "indeterminate",
    }


def _report_offbound(args) -> dict:
    peaks = []
    for n, a_peak, s_peak in offbound_peaks(args.n_from, args.n_to):
        peaks.append(
            {
                "n": n,
                "a_peak": a_peak,
                "sigma_peak": s_peak,
                "at_center": a_peak == n * n + n - 1,
                "verdict": "pass" if a_peak == n * n + n - 1 else "indeterminate",
            }
        )
    minima = []
    for n in range(max(args.n_from, 7), args.n_to + 1):
        pts = offbound_minima(n)
        center = n * n + n - 1
        ok = len(pts) == 2 and pts[0] < center < pts[1]
        minima.append(
            {
                "n": n,
                "points": pts,
                "verdict": "pass" if ok else "indeterminate",
            }
        )
    all_pass = all(e["verdict"] == "pass" for e in peaks + minima)
    return {
        "params": {"n_from": args.n_from, "n_to": args.n_to},
        "peaks": peaks,
        "minima": minima,
        "verdict": "pass" if all_pass else "indeterminate",
    }


def _report_conjecture1(args) -> dict:
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
        "params": {"a_max": args.a_max, "k_max": args.k_max, "s_max": args.s_max},
        "findings": findings,
        "indeterminate_count": indeterminate,
        "verdict": "pass" if indeterminate == 0 else "indeterminate",
    }


def _report_closure(args) -> dict:
    violations = upward_closure_check(args.a, args.s_max)
    # tau(a, s+1) counts the integers in an open interval of length
    # (s+1)*(sqrt(a+1) - sqrt(a)), so a drop from 1 to 0 at s needs
    # s + 1 < sqrt(a) + sqrt(a+1), that is s <= sigma_upper(a) - 2
    if violations:
        verdict = "fail"  # a violation is a definite exact finding
    elif args.s_max >= sigma_upper(args.a) - 2:
        verdict = "pass"
    else:
        verdict = "indeterminate"
    return {
        "params": {"a": args.a, "s_max": args.s_max},
        "violations": violations,
        "verdict": verdict,
    }


def cmd_analyze(args) -> int:
    report = {"report": args.subreport, **args.build(args)}
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
    # Inert: sweeps run in one process.  Kept so command lines that still
    # pass it keep working.
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
    try:
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


if __name__ == "__main__":
    sys.exit(main())
