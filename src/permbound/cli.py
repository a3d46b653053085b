"""Command-line surface.

Subcommands:

* ``exact``: evaluate a permanent, hafnian or tensor generalization,
* ``bounds``: compare upper bounds against the (normalized) exact value,
* ``table1``: run the embedded eight-dimensional phase-matrix benchmark and
  compare all cells against the frozen reference strings,
* ``verify``: run the randomized property suites,
* ``charfn``: characteristic-function report for a distribution grid.

Exit codes: 0 success, 1 verification failure, 2 input error (including
non-finite numbers), 3 feasibility limit.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
import time

from . import bounds, charfn, exact, table1, verify
from .errors import DomainError, FeasibilityError, ParseError
from .matrixio import (
    BoundRow,
    MatrixInput,
    cells_to_json,
    load_json,
    matrix_from_json,
    report_to_csv,
    report_to_json,
    round_up_decimals,
    round_up_scientific,
    tensor_from_json,
)

# trials * n^2 limit of charfn --mc; at it a fresh process took 0.64-0.85 s / 94 MB
# (n = 2) and 0.34-0.47 s / 44 MB max RSS (n = 6): 2-core x86, Python 3.11, numpy 2.4.
MC_MAX_DRAWS = 10_000_000


# ---------------------------------------------------------------------------
# spec string parsers (1-based on the command line, 0-based internally)


def parse_partition(spec: str, n: int) -> tuple[tuple[int, ...], ...]:
    """Parse blocks like ``"1,2|3,4"`` (1-based, comma-separated, | between
    blocks) into 0-based sorted tuples."""
    blocks: list[tuple[int, ...]] = []
    seen: set[int] = set()
    pos = 0
    for chunk in spec.split("|"):
        elems: list[int] = []
        cpos = pos
        for token in chunk.split(","):
            where = f"char {cpos}"
            value = _parse_index(token, where)
            if not 1 <= value <= n:
                raise ParseError(f"index {value} outside 1..{n}", position=where)
            if value - 1 in seen:
                raise ParseError(f"index {value} repeated", position=where)
            seen.add(value - 1)
            elems.append(value - 1)
            cpos += len(token) + 1
        blocks.append(tuple(sorted(elems)))
        pos += len(chunk) + 1
    return tuple(blocks)


def parse_composition(spec: str) -> tuple[int, ...]:
    """Parse ``"3,3,2"`` into a tuple of non-negative part sizes."""
    parts: list[int] = []
    pos = 0
    for token in spec.split(","):
        where = f"char {pos}"
        value = _parse_index(token, where, minimum=0)
        parts.append(value)
        pos += len(token) + 1
    return tuple(parts)


def parse_perm(spec: str, n: int) -> tuple[int, ...]:
    """Parse a 1-based permutation like ``"2,1,4,3"`` into 0-based form."""
    values = parse_composition(spec)
    perm = tuple(v - 1 for v in values)
    if sorted(perm) != list(range(n)):
        raise ParseError(f"expected a permutation of 1..{n}, got {spec!r}")
    return perm


def _parse_index(token: str, where: str, minimum: int = 1) -> int:
    text = token.strip()
    try:
        value = int(text)
    except ValueError:
        raise ParseError(f"expected an integer, got {token!r}", position=where) from None
    if value < minimum:
        raise ParseError(f"expected an integer >= {minimum}, got {value}", position=where)
    return value


# ---------------------------------------------------------------------------
# input loading


def _load_input(args, tensors: bool = False):
    """Load ``--input`` and apply ``--t``, which needs a unit_circle matrix.
    With ``tensors``, a file with a ``shape`` key is a tensor file."""
    data = load_json(args.input)
    if tensors and isinstance(data, dict) and "shape" in data:
        if args.t is not None:
            raise ParseError("--t override requires the unit_circle form")
        return tensor_from_json(data)
    mi = matrix_from_json(data)
    return mi if args.t is None else mi.with_t(args.t)


def _emit(args, payload: str) -> None:
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
        if not payload.endswith("\n"):
            sys.stdout.write("\n")


# ---------------------------------------------------------------------------
# exact


def cmd_exact(args) -> int:
    loaded = _load_input(args, tensors=True)
    array = loaded.z if isinstance(loaded, MatrixInput) else loaded
    start = time.perf_counter()
    value, work = exact.evaluate(args.kind, array)
    elapsed = time.perf_counter() - start
    doc = {
        "kind": args.kind,
        "shape": list(array.shape),
        "value": cells_to_json(value),
        "elapsed_seconds": elapsed,
        "work": work,
    }
    if args.format == "json":
        _emit(args, json.dumps(doc, indent=2))
    else:
        print(f"{args.kind} = {value!r}  ({elapsed:.3f} s)")
        _emit(args, json.dumps(doc))
    return 0


# ---------------------------------------------------------------------------
# bounds


def _bounds_rows(mi: MatrixInput, args) -> list[BoundRow]:
    """Parse the row options (``--s-perm`` first, then ``--partition`` and
    ``--composition``) and build the catalogue of
    :func:`bounds.report_rows`, which checks n, the unit_circle form that
    ``s_perm`` and ``theta`` need, the partition, the composition and the
    row work limits before it computes any row."""
    n = mi.n
    s_perm = blocks = parts = None
    if args.s_perm is not None:
        s_perm = parse_perm(args.s_perm, n)
    if args.partition:
        blocks = parse_partition(args.partition, n)
    if args.composition:
        parts = parse_composition(args.composition)
    return bounds.report_rows(
        mi, ps=args.p, s_perm=s_perm, theta=args.theta,
        all_baselines=args.all_baselines, blocks=blocks, parts=parts,
    )


def cmd_bounds(args) -> int:
    mi = _load_input(args)
    rows = _bounds_rows(mi, args)
    meta = {
        "n": mi.n,
        "form": mi.form,
        "normalization": "values are bounds on |per(z)| / n!",
    }
    if args.format == "csv":
        _emit(args, report_to_csv(rows))
    elif args.format == "json":
        _emit(args, json.dumps(report_to_json(rows, meta), indent=2))
    else:
        width = max(len(r.name) for r in rows)
        lines = []
        for r in rows:
            if not r.applicable:
                lines.append(f"{r.name:<{width}}  n.a.")
                continue
            text = f"{r.name:<{width}}  {round_up_scientific(r.raw_value, 9)}"
            if r.exact_norm is not None:
                text += f"  (exact {r.exact_norm:.9e})"
            lines.append(text)
        _emit(args, "\n".join(lines))
    return 0


# ---------------------------------------------------------------------------
# table1


def cmd_table1(args) -> int:
    result = table1.reproduce()
    if args.format == "json":
        _emit(args, json.dumps(result.to_json(), indent=2))
    elif args.format == "csv":
        flat = [
            dataclasses.replace(row, params={**row.params, "t": label})
            for label, rows in result.rows_by_t.items()
            for row in rows
        ]
        _emit(args, report_to_csv(flat))
    else:
        lines = []
        for cell in (*result.cells, *result.exact_cells):
            lines.append(
                f"t={cell.t_label:<4} {cell.name:<22} reference={cell.printed:<9}"
                f" computed={cell.shown:<12} {'ok' if cell.match else 'MISMATCH'}"
            )
        lines.append(
            f"{'PASS' if result.passed else 'FAIL'}"
            f" ({len(result.cells)} bound cells, {len(result.exact_cells)} exact"
            f" cells, {result.elapsed:.2f} s)"
        )
        _emit(args, "\n".join(lines))
    return 0 if result.passed else 1


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    suites = [args.suite] if args.suite != "all" else sorted(verify.SUITES)
    results = [verify.run_suite(name, seed=args.seed, trials=args.trials)
               for name in suites]
    if args.format == "json":
        _emit(args, json.dumps([r.to_json() for r in results], indent=2))
    else:
        lines = []
        for r in results:
            lines.append(
                f"suite={r.suite} checks={r.checks} failures={len(r.failures)}"
                f" elapsed={r.elapsed:.2f}s {'PASS' if r.ok else 'FAIL'}"
            )
        for r in results:
            if not r.ok:
                lines.append("offending instances:")
                lines.append(json.dumps(r.failures[:3], indent=2))
        _emit(args, "\n".join(lines))
    return 0 if all(r.ok for r in results) else 1


# ---------------------------------------------------------------------------
# charfn


_CHARFN_COLUMNS = (
    "t", "exact_abs", "pair_bound", "avg_bound",
    "mc_re", "mc_im", "mc_stderr_re", "mc_stderr_im",
)


def cmd_charfn(args) -> int:
    model = charfn.load_model(args.input)
    ts = args.t if args.t else [0.0]
    if not all(math.isfinite(t) for t in ts):
        raise ParseError("'t' must be finite", position="--t")
    if args.mc * model.n**2 > MC_MAX_DRAWS:
        raise FeasibilityError(
            f"Monte Carlo limit trials * n^2 <= {MC_MAX_DRAWS},"
            f" got {args.mc} * {model.n}^2"
        )
    s_perm = parse_perm(args.s_perm, model.n) if args.s_perm is not None else None
    # the pair bounds need a pair of columns; a 1 x 1 model reports them n.a.
    pairs = model.n >= 2
    rows = []
    for t in ts:
        row: dict = {"t": t}
        row["exact_abs"] = (
            abs(charfn.exact_charfn(model, t))
            if model.n <= exact.EXACT_COLUMN_MAX_N
            else None
        )
        phi = model.charfn_matrix(t)
        row["pair_bound"] = bounds.pair_bound(phi, s_perm) if pairs else None
        row["avg_bound"] = bounds.avg_pair_bound(phi) if pairs else None
        if args.mc:
            mc = charfn.monte_carlo_charfn(
                model, t, trials=args.mc, seed=args.seed
            )
            row.update(
                mc_re=mc.estimate.real, mc_im=mc.estimate.imag,
                mc_stderr_re=mc.stderr_re, mc_stderr_im=mc.stderr_im,
            )
        rows.append(row)
    if args.format == "csv":
        _emit(args, report_to_csv(rows, _CHARFN_COLUMNS))
    elif args.format == "json":
        _emit(args, json.dumps({"n": model.n, "rows": rows}, indent=2))
    else:
        lines = []
        for row in rows:
            text = f"t={row['t']:g}"
            if row["exact_abs"] is not None:
                text += f" |exact|={row['exact_abs']:.9f}"
            for label, key in (("pair", "pair_bound"), ("avg", "avg_bound")):
                text += f" {label}=" + (
                    "n.a." if row[key] is None else round_up_decimals(row[key], 9)
                )
            if "mc_re" in row:
                text += (
                    f" mc={row['mc_re']:.6f}{row['mc_im']:+.6f}i"
                    f" (se {row['mc_stderr_re']:.2e}, {row['mc_stderr_im']:.2e})"
                )
            lines.append(text)
        _emit(args, "\n".join(lines))
    return 0


# ---------------------------------------------------------------------------
# parser wiring


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on first use and shared per process: do not mutate it."""
    parser = argparse.ArgumentParser(
        prog="permbound",
        description="Exact permanents/hafnians and subset-average upper bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_exact = sub.add_parser("exact", help="evaluate an exact kernel")
    p_exact.add_argument("kind", choices=["per", "per_ell", "haf", "haf_ell"])
    p_exact.add_argument("--input", required=True)
    p_exact.add_argument("--t", type=float, default=None,
                         help="argument override for unit_circle inputs")
    p_exact.add_argument("--format", choices=["text", "json"], default="text")
    p_exact.add_argument("--output", default=None)

    p_bounds = sub.add_parser("bounds", help="bound comparison report")
    p_bounds.add_argument("--input", required=True)
    p_bounds.add_argument("--t", type=float, default=None)
    p_bounds.add_argument("--p", action="append", choices=["1", "2", "inf"],
                          default=None, help="operator norms to include")
    p_bounds.add_argument("--partition", default=None,
                          help='column blocks, e.g. "1,2|3,4" (1-based)')
    p_bounds.add_argument("--composition", default=None,
                          help='level sizes, e.g. "3,3,2"')
    p_bounds.add_argument("--s-perm", dest="s_perm", default=None,
                          help='column pairing order, e.g. "2,1,4,3" (1-based)')
    p_bounds.add_argument("--theta", action="store_true",
                          help="include the polynomial refinement row")
    p_bounds.add_argument("--all-baselines", action="store_true",
                          dest="all_baselines")
    p_bounds.add_argument("--format", choices=["text", "json", "csv"],
                          default="text")
    p_bounds.add_argument("--output", default=None)

    p_table = sub.add_parser("table1", help="embedded benchmark reproduction")
    p_table.add_argument("--format", choices=["text", "json", "csv"],
                         default="text")
    p_table.add_argument("--output", default=None)

    p_verify = sub.add_parser("verify", help="randomized property suites")
    p_verify.add_argument("--suite", default="all",
                          choices=["all"] + sorted(verify.SUITES))
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--trials", type=int, default=None)
    p_verify.add_argument("--format", choices=["text", "json"], default="text")
    p_verify.add_argument("--output", default=None)

    p_charfn = sub.add_parser("charfn", help="characteristic-function report")
    p_charfn.add_argument("--input", required=True, help="model JSON file")
    p_charfn.add_argument("--t", type=float, action="append", default=None)
    p_charfn.add_argument("--mc", type=int, default=0,
                          help="Monte Carlo trials (0 = skip)")
    p_charfn.add_argument("--seed", type=int, default=0)
    p_charfn.add_argument("--s-perm", dest="s_perm", default=None)
    p_charfn.add_argument("--format", choices=["text", "json", "csv"],
                          default="text")
    p_charfn.add_argument("--output", default=None)

    return parser


def main(argv=None) -> int:
    """Run one command and return its exit code; an argparse error raises
    ``SystemExit(2)``. Each call looks up the handler ``cmd_<command>`` by
    name, so a patched one takes effect; the parser stores no handler."""
    args = build_parser().parse_args(argv)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except (ParseError, DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FeasibilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
