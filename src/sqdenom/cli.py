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
import marshal
import os
import sys

# The most witnesses `tset` prints.  tau(a, s) counts them in O(1) but has
# no bound of its own (tau(0, s) = s - 1), so the command checks the count
# before it builds the list.
TSET_MAX_WITNESSES = 10**6

# The fewest rows `sweep` hands to one forked child.  A child costs its
# fork, the copy-on-write pages it touches and the marshal round trip of
# its text; on a 2-vCPU x86-64 VM a two-block split of a whole `sqdenom
# sweep` run won 14 of 21 pairs at 3000 rows (-3 % wall), 21 at 5000, 20
# at 8192 (-12 %), the shortest range this split allows, and 21 at 20000.
SWEEP_MIN_BLOCK_ROWS = 4096


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
    from .sigmacore import t_set, tau

    count = tau(args.a, args.s)
    if count > TSET_MAX_WITNESSES:
        raise ValueError(
            f"tset would print {count} witnesses, over the cap of {TSET_MAX_WITNESSES}"
        )
    ts = t_set(args.a, args.s)
    print("{" + ", ".join(str(t) for t in ts) + "}")
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


def plan_blocks(a_from: int, a_to: int, cpus: int, min_rows: int) -> list[tuple[int, int]]:
    """Contiguous (lo, hi) blocks that cover a_from..a_to in order.

    There are at most `cpus` blocks and each has at least min_rows rows, so
    the fan-out is bounded whatever the range; a range too short to split,
    or an empty one, is one block.  Block sizes differ by at most one row,
    and the first block, which the parent computes, is never the larger.
    """
    rows = a_to - a_from + 1
    count = max(1, min(cpus, rows // min_rows))
    size, extra = divmod(rows, count)
    blocks = []
    lo = a_from
    for i in range(count):
        hi = lo + size + (i >= count - extra) - 1
        blocks.append((lo, hi))
        lo = hi + 1
    return blocks


def _allowed_cpus() -> int:
    """CPUs this process may run on; 1 where it cannot fork or ask."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def _block_text(lo: int, hi: int, fmt: str) -> str:
    """Rows lo..hi as output text: write_csv's lines without the header, or
    the JSON row objects without the enclosing "[\n" and "\n]"."""
    from .analysis import sweep

    records = sweep(lo, hi)
    if fmt == "json":
        import json

        return json.dumps([r._asdict() for r in records], indent=2, sort_keys=True)[2:-2]
    return "".join(["%d,%d,%d,%d,%d,%d,%d\n" % r for r in records])


def _sweep_child(lo: int, hi: int, fmt: str, fd: int, parent_fds: list[int]):
    """Forked child: close the read ends it inherited (parent_fds), so a
    closed pipe breaks a blocked write; send (None, _block_text) or the
    name and message of the exception that stopped it down fd as one
    marshal payload; and exit at once, so nothing of the parent runs twice."""
    code = 1
    try:
        for parent_fd in parent_fds:
            os.close(parent_fd)
        try:
            payload = (None, _block_text(lo, hi, fmt))
        except Exception as exc:
            payload = (type(exc).__name__, str(exc))
        with open(fd, "wb") as fh:
            fh.write(marshal.dumps(payload))
        code = 0
    finally:
        os._exit(code)


def _sweep_texts(a_from: int, a_to: int, fmt: str) -> list[str]:
    """_block_text of each block of plan_blocks, in order.  The parent forks
    a child for each later block, formats the first block itself, then
    reads the children's texts in block order, so the lowest failing a
    raises first, as in one process; a block it could not fork it formats
    in its turn.  Every exit closes the pipes and reaps every child, and an
    error kills the children still running first."""
    from .sigmacore import ConsistencyError

    blocks = plan_blocks(a_from, a_to, _allowed_cpus(), SWEEP_MIN_BLOCK_ROWS)
    children = []  # (pid, read fd), one per forked block, in block order
    try:
        for lo, hi in blocks[1:]:
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                break
            if pid == 0:
                _sweep_child(lo, hi, fmt, w, [r] + [fd for _, fd in children])
            children.append((pid, r))
            os.close(w)
        texts = [_block_text(*blocks[0], fmt)]
        for (lo, hi), (_, fd) in zip(blocks[1:], children):
            with open(fd, "rb", closefd=False) as fh:
                try:
                    error, body = marshal.loads(fh.read())
                except (EOFError, ValueError):
                    raise OSError(f"sweep child for a={lo}..{hi} ended without its rows") from None
            if error == "ConsistencyError":
                raise ConsistencyError(body)
            if error is not None:
                raise RuntimeError(f"sweep child for a={lo}..{hi}: {error}: {body}")
            texts.append(body)
        texts += [_block_text(lo, hi, fmt) for lo, hi in blocks[1 + len(children):]]
    except BaseException:
        import signal

        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for _, fd in children:
            os.close(fd)
        for pid, _ in children:
            os.waitpid(pid, 0)
    return texts


def cmd_sweep(args) -> int:
    from .analysis import SweepRecord

    texts = _sweep_texts(args.a_from, args.a_to, args.format)
    with _output(args.out) as fh:
        if args.format == "json":
            fh.write("[\n" + ",\n".join(texts) + "\n]\n")
        else:
            fh.write(",".join(SweepRecord._fields) + "\n")
            fh.writelines(texts)
    return 0


def cmd_heatmap(args) -> int:
    from .analysis import write_csv
    from .figures import heatmap_data, heatmap_svg

    header, rows = heatmap_data(args.mode, args.a_min, args.a_max, args.s_min, args.s_max)
    svg = heatmap_svg(args.mode, rows) if args.format == "svg" else None
    with _output(args.out) as fh:
        if svg is not None:
            fh.write(svg)
        else:
            write_csv(fh, header, rows)
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
        "params": {
            "n_min": args.n_min,
            "n_max": args.n_max,
            "d_max": args.d_max,
            "full_range": args.full_range,
        },
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
        "params": {"n": args.n},
        "minimal": ks,
        "existential": ks,
        "findings": findings,
        "verdict": "pass" if all(f["verdict"] == "pass" for f in findings) else "indeterminate",
    }


def _report_offbound(args) -> dict:
    from .analysis import offbound_minima, offbound_peaks

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
        "params": {"a_max": args.a_max, "k_max": args.k_max, "s_max": args.s_max},
        "findings": findings,
        "indeterminate_count": indeterminate,
        "verdict": "pass" if indeterminate == 0 else "indeterminate",
    }


def _report_closure(args) -> dict:
    from .analysis import upward_closure_check
    from .sigmacore import sigma_upper

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
    import json

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
    # Inert: a sweep splits itself over the CPUs it may use (plan_blocks).
    # Kept so command lines that still pass it keep working.
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
