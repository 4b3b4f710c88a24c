"""Command-line interface.

Subcommands: ``gen`` (write an instance file for any generator),
``solve`` (run a solver, write a report), ``bounds`` (tabulate the
bound formulas over parameter ranges), ``verify`` (re-check a stored
report against its instance) and ``sweep`` (generator x solver grids
with persisted records).  The work is done by the library: this module
parses arguments, reads and writes files and maps outcomes to exit
codes.  ``bounds`` names each column by the ``formula_id`` of its
:class:`bounds.BoundValue`.  ``verify`` prints ``ok: instance valid``
once the instance has parsed, then the checks of
:func:`sweep.verify_report`, passed ones first; ``sweep`` hands the
whole grid to :func:`sweep.run_sweep`, which skips the cells outside
their generator's domain.

Exit codes: 0 success, 1 usage error, 2 validation failure, 3 solver
budget exhaustion, 4 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import sys
from pathlib import Path

from . import bounds as bounds_mod
from .constructions import blowup_compose, certify_blocking_family, dummy_lift
from .core import Instance
from .fileformat import (
    CERT_FAILURE,
    InstanceValidationError,
    ParseError,
    parse_instance,
    parse_report,
    serialize_instance,
    serialize_report,
)
from .solvers import CERT_HEURISTIC, DEFAULT_SAMPLE_RETRIES
from .sweep import GENERATORS, SOLVERS, CellSpec, run_solver, run_sweep, verify_report

# Not called here: bench/selftest.py requires the benchmark's tracer to
# find these names bound in this module.
from .core import validate_instance  # noqa: F401
from .solvers import exact_max_rainbow, find_swap  # noqa: F401

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_BUDGET = 3
EXIT_VERIFY = 4

CONSTRUCTIONS = (*GENERATORS, "blowup", "dummy")


class UsageError(Exception):
    pass


class UnreadableInput(Exception):
    """An input path that names a directory or a file that is not UTF-8,
    or that runs through a file."""


class UnwritableOutput(Exception):
    """An output path that names a directory, or that runs through a file."""


# the message for a path whose directory part names a regular file
_THROUGH_A_FILE = "{} needs a directory where there is a file"


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we own the exit codes
        raise UsageError(message)


def _parse_span(spec: str) -> list[int]:
    """Accept "7", "3,5,7" and inclusive ranges "2..8"."""
    values: list[int] = []
    for chunk in spec.split(","):
        chunk = chunk.strip()
        if ".." in chunk:
            lo, hi = chunk.split("..", 1)
            values.extend(range(int(lo), int(hi) + 1))
        elif chunk:
            values.append(int(chunk))
    if not values:
        raise UsageError(f"empty range specification {spec!r}")
    return values


# one parser per process: parse_args changes neither it nor its list defaults
@functools.cache
def build_parser() -> _Parser:
    parser = _Parser(prog="rainbow-forge", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate an instance file")
    gen.add_argument("--construction", required=True, choices=CONSTRUCTIONS)
    gen.add_argument("--r", type=int, help="uniformity (ach, random)")
    gen.add_argument("--n", type=int, help="number of matchings")
    gen.add_argument("--m", type=int, help="dummy edge count (dummy)")
    gen.add_argument("--size", type=int, help="matching size (random; default n)")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--in", dest="inputs", action="append", default=[],
                     help="input instance file (dummy: one; blowup: repeatable)")
    gen.add_argument("--blocked", type=int, action="append", default=[],
                     help="blocked size per blowup part, same order as --in")
    gen.add_argument("--out", default="-", help="output file, '-' for stdout")
    gen.set_defaults(func=_cmd_gen)

    solve = sub.add_parser("solve", help="run a solver on an instance file")
    solve.add_argument("--in", dest="input", required=True)
    solve.add_argument("--solver", required=True, choices=SOLVERS)
    solve.add_argument("--seed", type=int, default=0)
    solve.add_argument("--node-budget", type=int, default=None)
    solve.add_argument("--retries", type=int, default=DEFAULT_SAMPLE_RETRIES)
    solve.add_argument("--out", default="-", help="report file, '-' for stdout")
    solve.set_defaults(func=_cmd_solve)

    bnd = sub.add_parser("bounds", help="tabulate bound formulas over (r, n) ranges")
    bnd.add_argument("--r", required=True, help="range, e.g. 3 or 3..5 or 3,4")
    bnd.add_argument("--n", required=True, help="range, e.g. 1000 or 100..120")
    bnd.add_argument("--format", choices=("text", "csv"), default="text")
    bnd.add_argument("--out", default="-")
    bnd.set_defaults(func=_cmd_bounds)

    ver = sub.add_parser("verify", help="re-check a stored solve report")
    ver.add_argument("--in", dest="input", required=True, help="instance file")
    ver.add_argument("--report", required=True, help="report file")
    ver.add_argument("--node-budget", type=int, default=None,
                     help="budget for proving exact certificates")
    ver.set_defaults(func=_cmd_verify)

    swp = sub.add_parser("sweep", help="run a generator x solver grid")
    swp.add_argument("--construction", required=True,
                     help=f"comma list from {','.join(GENERATORS)}")
    swp.add_argument("--r", required=True, help="range of uniformities")
    swp.add_argument("--n", required=True, help="range of matching counts")
    swp.add_argument("--solver", required=True, help=f"comma list from {','.join(SOLVERS)}")
    swp.add_argument("--seed", type=int, default=0)
    swp.add_argument("--size", type=int, default=None, help="matching size for random cells")
    swp.add_argument("--node-budget", type=int, default=None)
    swp.add_argument("--retries", type=int, default=DEFAULT_SAMPLE_RETRIES)
    swp.add_argument("--jobs", type=int, default=1)
    swp.add_argument("--out", required=True, help="results directory")
    swp.set_defaults(func=_cmd_sweep)
    return parser


def _write_out(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        p = Path(path)
        try:
            if p.parent != Path(""):
                p.parent.mkdir(parents=True, exist_ok=True)
            p.write_text(text, encoding="utf-8")
        except IsADirectoryError:
            raise UnwritableOutput(f"{path} is a directory") from None
        except (FileExistsError, NotADirectoryError):
            raise UnwritableOutput(_THROUGH_A_FILE.format(path)) from None


def _read_input(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except IsADirectoryError:
        raise UnreadableInput(f"{path} is a directory") from None
    except NotADirectoryError:
        raise UnreadableInput(_THROUGH_A_FILE.format(path)) from None
    except UnicodeDecodeError as exc:
        raise UnreadableInput(f"{path} is not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def _load_instance(path: str) -> Instance:
    return parse_instance(_read_input(path))


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise UsageError(message)


def _cmd_gen(args) -> int:
    c = args.construction
    if c in GENERATORS:
        fields, generate = GENERATORS[c]
        missing = [f"--{f}" for f in ("r", "n") if f in fields and getattr(args, f) is None]
        _require(not missing, f"{c} needs {' and '.join(missing)}")
        inst = generate(*(getattr(args, f) for f in fields))
        _require(args.r in (None, inst.r), f"{c} builds r {inst.r} instances, got --r {args.r}")
    elif c == "dummy":
        _require(len(args.inputs) == 1, "dummy needs exactly one --in")
        _require(args.m is not None, "dummy needs --m")
        inst = dummy_lift(_load_instance(args.inputs[0]), args.m)
    else:  # blowup, the last choice argparse admits
        _require(len(args.inputs) >= 1, "blowup needs at least one --in")
        _require(len(args.blocked) == len(args.inputs),
                 "blowup needs one --blocked per --in, in the same order")
        parts = [
            certify_blocking_family(_load_instance(path), t)
            for path, t in zip(args.inputs, args.blocked)
        ]
        inst = blowup_compose(parts)
    _write_out(args.out, serialize_instance(inst))
    return EXIT_OK


def _cmd_solve(args) -> int:
    inst = _load_instance(args.input)
    doc = run_solver(
        inst,
        args.solver,
        seed=args.seed,
        node_budget=args.node_budget,
        retries=args.retries,
        instance_ref=args.input,
    )
    _write_out(args.out, serialize_report(doc))
    # files and the API are 0-based; human-facing summaries number colours 1..n
    colours = ",".join(str(c + 1) for c, _ in doc.assignment.assignment)
    print(
        f"{args.solver}: size {doc.size} ({doc.certificate}), colours {{{colours}}}",
        file=sys.stderr,
    )
    if args.solver == "exact" and doc.certificate == CERT_HEURISTIC:
        print("node budget exhausted; result is heuristic", file=sys.stderr)
        return EXIT_BUDGET
    if doc.certificate == CERT_FAILURE:
        print(f"sample-and-extend failed at stage {doc.failure['stage']}", file=sys.stderr)
        return EXIT_BUDGET
    return EXIT_OK


def _bound_row(r: int, n: int) -> dict[str, object]:
    """Columns r, n, then per formula its ``formula_id`` (the value,
    ``[!]`` when out of domain) and ``<formula_id>_domain``."""
    row: dict[str, object] = {"r": r, "n": n}
    for bv in (
        bounds_mod.lower_bound_g_prime(r, n),
        bounds_mod.upper_bound_g(r, n),
        *bounds_mod.bounds_h(r, n),
        bounds_mod.weak_asymptotic_bound(r, n),
        bounds_mod.ach_bound(r, n),
    ):
        row[bv.formula_id] = str(bv.value) + ("" if bv.domain_ok else " [!]")
        row[bv.formula_id + "_domain"] = "ok" if bv.domain_ok else bv.domain_reason
    return row


def _cmd_bounds(args) -> int:
    rows = [_bound_row(r, n) for r in _parse_span(args.r) for n in _parse_span(args.n)]
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
        _write_out(args.out, buf.getvalue())
    else:
        columns = [c for c in rows[0] if not c.endswith("_domain")]
        table = [[str(row[c]) for c in columns] for row in rows]
        widths = [max(len(c), *(len(line[i]) for line in table)) for i, c in enumerate(columns)]
        lines = ["  ".join(c.ljust(w) for c, w in zip(columns, widths))]
        for line in table:
            lines.append("  ".join(v.ljust(w) for v, w in zip(line, widths)))
        lines.append("[!] marks values outside their validity domain")
        _write_out(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_verify(args) -> int:
    checks = verify_report(
        _load_instance(args.input), parse_report(_read_input(args.report)), args.node_budget
    )
    print("ok: instance valid")  # parse_instance has validated it
    # passed checks first, each group in the order the checks were made
    for check in sorted(checks, key=lambda check: not check.ok):
        print(check)
    return EXIT_OK if all(check.ok for check in checks) else EXIT_VERIFY


def _cmd_sweep(args) -> int:
    constructions = [c.strip() for c in args.construction.split(",") if c.strip()]
    for c in constructions:
        _require(c in GENERATORS, f"sweep cannot generate {c!r}")
    solvers = [s.strip() for s in args.solver.split(",") if s.strip()]
    for s in solvers:
        _require(s in SOLVERS, f"unknown solver {s!r}")
    cells = [
        CellSpec(
            construction=construction,
            r=r,
            n=n,
            solver=solver,
            seed=args.seed,
            size=args.size,
            node_budget=args.node_budget,
            retries=args.retries,
        )
        for construction in constructions
        for r in _parse_span(args.r)
        for n in _parse_span(args.n)
        for solver in solvers
    ]
    try:
        sweep_dir, records = run_sweep(cells, args.out, jobs=args.jobs)
    except (FileExistsError, NotADirectoryError):
        raise UnwritableOutput(_THROUGH_A_FILE.format(args.out)) from None
    print(f"{len(records)} cells -> {sweep_dir}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ParseError, InstanceValidationError) as exc:
        print(f"invalid instance: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except FileNotFoundError as exc:
        print(f"missing file: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except UnreadableInput as exc:
        print(f"unreadable file: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except UnwritableOutput as exc:
        print(f"unwritable file: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ValueError as exc:
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:  # console-script hook
    sys.exit(main())


if __name__ == "__main__":
    entry()
