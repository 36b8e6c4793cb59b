"""Command-line front end.

Exit codes: 0 success, 2 bad usage or invalid parameter values, 3 I/O
failure, 4 an internal consistency check failed (a library defect,
reported in one stderr line).  All file output is byte-deterministic:
rerunning a command with the same arguments reproduces identical bytes.

It parses and writes; the library decides: every `analyze` verdict comes
from the report's builder in analysis.REPORTS.

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


def cmd_analyze(args) -> int:
    """Write the report's JSON: its "params" are the subcommand's own
    options, read off the parsed arguments, passed to its builder."""
    import json

    from .analysis import REPORTS

    params = {name: value for name, value in vars(args).items()
              if name not in ("command", "subreport", "out", "func")}
    report = {"report": args.subreport, "params": params, **REPORTS[args.subreport](**params)}
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
    p.set_defaults(func=cmd_analyze)
    asub = p.add_subparsers(dest="subreport", required=True)

    q = asub.add_parser("symmetry", help="sigma symmetry around trough centers")
    q.add_argument("--n-min", type=int, default=2)
    q.add_argument("--n-max", type=int, default=44)
    q.add_argument("--d-max", type=int, default=None)
    q.add_argument("--full-range", action="store_true")
    q.add_argument("--out", default=None)

    q = asub.add_parser("kset", help="curve indices realized on one square interval")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--out", default=None)

    q = asub.add_parser("offbound", help="peaks and sigma=5 minima per interval")
    q.add_argument("--n-from", dest="n_from", type=int, default=4)
    q.add_argument("--n-to", dest="n_to", type=int, default=20)
    q.add_argument("--out", default=None)

    q = asub.add_parser("conjecture1", help="tau decrement witness table")
    q.add_argument("--a-max", type=int, default=300)
    q.add_argument("--k-max", type=int, default=4)
    q.add_argument("--s-max", type=int, default=500)
    q.add_argument("--out", default=None)

    q = asub.add_parser("closure", help="points where tau drops back to zero")
    q.add_argument("--a", type=int, required=True)
    q.add_argument("--s-max", type=int, default=100)
    q.add_argument("--out", default=None)

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
