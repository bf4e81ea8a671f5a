"""Command-line interface.

Exit codes: 0 on success (and for verify: certified), 1 on a failed check or
an uncertified input, 2 on usage errors.  Rationals stay exact ("p/q") in
every output; nothing is ever rounded, and integers are printed in full
however many digits they have.

Each command imports the package modules it needs inside its own function,
so that no command, and no `--help`, pays for loading the others.
"""

from __future__ import annotations

import argparse
import json
import reprlib
import sys

# The largest (max_s + 1) x (max_t + 1) grid `bounds` walks; every cell of the
# grid is a line of its output, solved or skipped.
MAX_GRID_CELLS = 10_000
# The most integers `standard` writes: simplices x vertices x coordinates.
# The 8-cube takes 40,320 x 9 x 16, about 5.8 million.
MAX_STANDARD_ENTRIES = 10_000_000


class UsageError(Exception):
    """Bad input on the command line; main reports it in one line, exit code 2."""


class _Parser(argparse.ArgumentParser):
    """An argparse parser that reports a bad command line in one `error:` line, exit 2."""

    def error(self, message):
        self.exit(2, f"error: {message} (see {self.prog} --help)\n")


def _nonnegative(*named: tuple[str, int]) -> None:
    for name, value in named:
        if value < 0:
            raise UsageError(f"{name} must be >= 0, got {value}")


def _parse_factors(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise UsageError(
            f"--spec must be comma-separated integers, got {reprlib.repr(text)}") from None


def _vtable(args):
    """The F evaluator of --config's caps, or of the packaged caps without it."""
    from .fbounds import DEFAULT_VTABLE, VTable, load_cube_caps

    if not getattr(args, "config", None):
        return DEFAULT_VTABLE
    try:
        return VTable(load_cube_caps(args.config))
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read --config {args.config}: {exc}") from exc


def cmd_bounds(args) -> int:
    from .lptable import BEYOND_DIM_CAP, bounds_table

    _nonnegative(("--max-s", args.max_s), ("--max-t", args.max_t), ("--dim-cap", args.dim_cap))
    if (args.max_s + 1) * (args.max_t + 1) > MAX_GRID_CELLS:
        raise UsageError(f"the --max-s by --max-t grid has more than {MAX_GRID_CELLS} cells, "
                         "the most accepted")
    try:
        table = bounds_table(args.max_s, args.max_t, args.dim_cap, vtable=_vtable(args))
    except RecursionError:
        raise UsageError("F's recurrence nests deeper than Python's stack allows") from None
    missing = [sk for sk in table.skipped if sk[2] != BEYOND_DIM_CAP]
    if args.format == "json":
        sys.stdout.write(table.to_json())
    else:
        sys.stdout.write(table.to_csv())
    if missing:
        for s, t, reason in missing:
            print(f"error: cell ({s},{t}): {reason}", file=sys.stderr)
        return 1
    return 0


def cmd_verify(args) -> int:
    from .tfiles import load_candidate
    from .verifier import verify

    try:
        cand = load_candidate(args.input)
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError covers TriangulationFileError, bad JSON and bytes that are
        # not UTF-8; RecursionError is JSON nested deeper than the parser goes
        raise UsageError(f"--input {args.input}: {exc}") from None
    report = verify(cand)
    if args.format == "json":
        payload = {
            "factors": list(cand.spec.factors),
            "n_simplices": len(report.classes),
            "classes": list(report.classes),
            "total_class": report.total_class,
            "polytope_class": report.polytope_class,
            "classes_ok": report.classes_ok,
            "facets_ok": report.facets_ok,
            "certified": report.certified,
            "adjacency": [list(e) for e in report.adjacency],
            "diagnostics": list(report.diagnostics),
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"simplotope {cand.spec.factors}: {len(report.classes)} simplices")
        print(f"classes: {list(report.classes)} (total {report.total_class}, "
              f"polytope {report.polytope_class})")
        print(f"facets matched: {report.facets_ok}")
        for d in report.diagnostics:
            print(f"  - {d}")
        print("CERTIFIED" if report.certified else "NOT CERTIFIED")
    return 0 if report.certified else 1


def cmd_standard(args) -> int:
    from .core import MAX_DIMENSION, SimplotopeSpec
    from .standard import standard_triangulation
    from .tfiles import candidate_to_dict, save_candidate
    from .verifier import TriangulationCandidate

    try:
        spec = SimplotopeSpec(_parse_factors(args.spec))
    except ValueError as exc:
        raise UsageError(f"--spec {reprlib.repr(args.spec)}: {exc}") from None
    if spec.dim > MAX_DIMENSION:
        raise UsageError(f"--spec: the factor dimensions add up to more than {MAX_DIMENSION}, "
                         "the largest accepted")
    if spec.polytope_class * (spec.dim + 1) * (spec.dim + len(spec.factors)) > MAX_STANDARD_ENTRIES:
        raise UsageError(f"--spec: the standard triangulation has more than {MAX_STANDARD_ENTRIES} "
                         "coordinate entries, the most accepted")
    sims = standard_triangulation(spec)
    cand = TriangulationCandidate(spec, tuple(sims))
    meta = {"kind": "standard triangulation", "size": len(sims)}
    if args.out:
        try:
            save_candidate(cand, args.out, coords=args.coords, metadata=meta)
        except OSError as exc:
            raise UsageError(f"cannot write --out {args.out}: {exc}") from None
    else:
        doc = candidate_to_dict(cand, coords=args.coords, metadata=meta)
        print(json.dumps(doc, indent=2, sort_keys=True))
    print(f"{len(sims)} simplices (size formula: {spec.polytope_class})", file=sys.stderr)
    return 0


def cmd_vmax(args) -> int:
    from .fbounds import VMaxUnavailable

    s, t = args.s, args.t
    _nonnegative(("s", s), ("t", t))
    try:
        entry = _vtable(args).get(s, t)
    except VMaxUnavailable as exc:
        raise UsageError(f"V({s},{t}): {exc}") from None
    print(f"{entry.value}")
    print(f"V({s},{t}) = {entry.value} ({entry.provenance})", file=sys.stderr)
    return 0


def cmd_q(args) -> int:
    from .core import MAX_DIMENSION
    from .counting import q_count

    _nonnegative(("--s", args.s), ("--t", args.t), ("--sp", args.sp), ("--tp", args.tp))
    if args.s + 2 * args.t > MAX_DIMENSION:
        raise UsageError(f"the dimension s + 2t is more than {MAX_DIMENSION}, the largest accepted")
    print(q_count(args.s, args.t, args.sp, args.tp))
    return 0


def cmd_fbound(args) -> int:
    from .fbounds import VMaxUnavailable, f_bound

    key = (args.s, args.t, args.c, args.sp, args.tp, args.cp)
    _nonnegative(*zip(("--s", "--t", "--c", "--sp", "--tp", "--cp"), key))
    try:
        value = f_bound(*key, vtable=_vtable(args))
    except VMaxUnavailable as exc:
        raise UsageError(f"F{key}: {exc}") from None
    except RecursionError:
        raise UsageError(f"F{key}: the recurrence nests deeper than Python's stack allows") from None
    print(value)
    return 0


def cmd_case(args) -> int:
    from .trisquare import construction_stages, lower_bound_10_argument, minimal_triangulation_10
    from .verifier import verify

    if args.check == "all":
        report = lower_bound_10_argument()
        for ing in report.ingredients:
            print(f"  [{'ok' if ing.ok else 'FAIL'}] {ing.name}: {ing.detail}")
        print(f"lower bound for (s,t)=(2,1): {report.lower_bound}, "
              f"achieved by a triangulation of size {report.achieved_by}")
        if not report.ok:
            return 1
        t12, t11, t10 = construction_stages()
        for name, cand in [("12", t12), ("11", t11), ("10", t10)]:
            rep = verify(cand)
            print(f"  construction stage {name}: "
                  f"{'certified' if rep.certified else 'NOT CERTIFIED'}")
            if not rep.certified:
                return 1
        return 0
    rep = verify(minimal_triangulation_10())
    print(f"ten-simplex triangulation: {'certified' if rep.certified else 'NOT CERTIFIED'}; "
          f"classes {sorted(rep.classes)}")
    return 0 if rep.certified else 1


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="simplotope",
        description="Exact lower bounds and triangulation verification for products of simplices.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounds", help="emit the lower-bound table")
    p.add_argument("--max-s", type=int, default=3)
    p.add_argument("--max-t", type=int, default=1)
    p.add_argument("--dim-cap", type=int, default=6)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--config", help="cube-cap configuration file")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("verify", help="certify a triangulation file")
    p.add_argument("--input", required=True)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("standard", help="write the standard triangulation")
    p.add_argument("--spec", required=True, help="factor dimensions, e.g. 1,1,2")
    p.add_argument("--out", help="output file (default: stdout)")
    p.add_argument("--coords", choices=["standard", "reduced"], default="standard")
    p.set_defaults(func=cmd_standard)

    p = sub.add_parser("vmax", help="largest simplex class V(s,t)")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--config", help="cube-cap configuration file")
    p.set_defaults(func=cmd_vmax)

    p = sub.add_parser("q", help="count (s',t') faces of the (s,t) product")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--sp", type=int, required=True)
    p.add_argument("--tp", type=int, required=True)
    p.set_defaults(func=cmd_q)

    p = sub.add_parser("fbound", help="exterior-face count bound F(s,t,c,s',t',c')")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--sp", type=int, required=True)
    p.add_argument("--tp", type=int, required=True)
    p.add_argument("--cp", type=int, required=True)
    p.add_argument("--config", help="cube-cap configuration file")
    p.set_defaults(func=cmd_fbound)

    p = sub.add_parser("case", help="run a case study")
    p.add_argument("which", choices=["tri-square"])
    p.add_argument("--check", choices=["fast", "all"], default="fast")
    p.set_defaults(func=cmd_case)

    return parser


def main(argv=None) -> int:
    # Python 3.11 and later cap int-to-string conversion; 0 lifts the cap
    # while the command runs, and the caller's cap comes back when it returns.
    limit = sys.get_int_max_str_digits() if hasattr(sys, "set_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
