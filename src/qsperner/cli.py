"""Command-line surface unifying all modules, with stable JSON output.

Exit codes: 0 for ok or infeasible results, 2 for usage errors, 3 when a
search budget was exhausted.  With --json a single JSON document (schema 1)
is written to stdout on one line; otherwise a short human-readable
report.  `--help` with --json is answered by a document whose payload
holds the help text, with status "ok" and the subcommand asked of (null
at the top level).

The CLI parses input, calls the library and writes one document.  A
payload holds a library result's own fields beside the CLI's header keys
(kind, n, q, L, alpha): each `BoundCertificate` of `bound`, with its
`BinomSum`; the `SearchResult` of `search`, its witness as sorted member
lists; the `RankReport` of `verify`, with the system-build time added to
its stats; the `ClosedPairCensus` of `census`; the input and closed
`IntervalL` of `closure`; the `SeparationReport` of `seppoly check`, with
the `FactoredIntPoly` checked, as `seppoly find` gives the one it
found.  A field added to one of
those results reaches the payload with no change here.  A negative
`seppoly find --window` is a usage error.

A call parses its command line once: the command's own parser reads
everything after the command's name, and the top-level parser is asked
only when there is no command to hand it to.  A family file is read by
one `open` and turned into member masks in one pass, and a `--json` call
writes no human text.

`main` is the one error boundary: a `ValueError` (a library rejecting an
input, or the CLI's own `UsageError`) becomes exit 2 with the exception's
message, as the schema-1 error document or an `error:` line on stderr.
Any other exception is an internal failure and propagates.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import functools
import json
import sys
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from . import bounds, closure, families, polylab, seppoly
from .families import ConstraintSpec, Kind, SetFamily
from .padic import INFINITY, PrimePower, _text, to_digits, vp, vp_binomial

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BUDGET = 3


@dataclass
class CommandResult:
    status: str  # ok | infeasible | budget-exhausted | error
    payload: dict = field(default_factory=dict)
    diagnostics: list[str] = field(default_factory=list)
    command: str = ""
    # writes the report without --json; `main` calls it only then, with
    # the digit limit lifted (`str`, the default, writes none)
    human: Callable[[], str] = str

    @property
    def exit_code(self) -> int:
        if self.status in ("ok", "infeasible"):
            return EXIT_OK
        if self.status == "budget-exhausted":
            return EXIT_BUDGET
        return EXIT_USAGE


class UsageError(ValueError):
    """A rejected command line, reported by `main` as exit 2."""


# the most elements an interval of --L or --roots may list: a longer one is
# refused before any element is
_MAX_INTERVAL = 10**6
# the most rows `table` makes, one per interval lo..hi of [1, q - 1]
_MAX_TABLE_ROWS = 10**4


def _parse_L(text: str, q: int | None) -> list[int]:
    """Residue sets: comma list `1,2,3`, inclusive interval `1..3`, or a
    wrap-around interval `7..1@wrap` (needs a modulus q, and spans at
    most q integers: |hi - lo| < q).  An interval of more than
    `_MAX_INTERVAL` elements is refused."""
    text = text.strip()
    if not text:
        raise UsageError("empty L")
    wrap = text.endswith("@wrap")
    if wrap:
        text = text[: -len("@wrap")]
    if ".." in text:
        lo_s, hi_s = text.split("..", 1)
        try:
            lo, hi = int(lo_s), int(hi_s)
        except ValueError as exc:
            raise UsageError(f"malformed interval {text!r}") from exc
        if wrap:
            if q is None:
                raise UsageError("wrap-around intervals need --q")
            if abs(hi - lo) >= q:
                raise UsageError(f"wrap-around interval {text!r} spans more than q = {_text(q)} integers")
            lo, count = lo % q, (hi - lo) % q + 1
        elif lo > hi:
            raise UsageError(f"interval {text!r} has lo > hi (use @wrap?)")
        else:
            count = hi - lo + 1
        if count > _MAX_INTERVAL:
            raise UsageError(
                f"interval {text!r} has {_text(count)} elements, more than the limit of {_MAX_INTERVAL}"
            )
        return [(lo + i) % q for i in range(count)] if wrap else list(range(lo, hi + 1))
    if wrap:
        raise UsageError("@wrap only applies to interval syntax a..b@wrap")
    try:
        return [int(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise UsageError(f"malformed L {text!r}") from exc


def _kind(text: str) -> Kind:
    try:
        return Kind(text)
    except ValueError as exc:
        names = ", ".join(k.value for k in Kind)
        raise UsageError(f"unknown kind {text!r}; choose one of: {names}") from exc


def _modulus_and_L(args) -> tuple[PrimePower | None, list[int]]:
    pp = PrimePower.from_q(args.q) if args.q is not None else None
    return pp, _parse_L(args.L, pp.q if pp else None) if args.L is not None else []


def _build_spec(args, n: int, *, need_L=True) -> ConstraintSpec:
    kind = _kind(args.kind)
    pp, L = _modulus_and_L(args)
    if need_L and not L and families._KINDS[kind].least is not None:
        raise UsageError(f"kind {kind.value} needs --L")
    return ConstraintSpec(
        kind=kind, n=n, L=frozenset(L), modulus=pp, uniform_residue=args.uniform_residue
    )


# the errors on which `Path.exists` reads a path as absent
_ABSENT = frozenset({errno.ENOENT, errno.ENOTDIR, errno.EBADF, errno.ELOOP})


def _read_family(args) -> SetFamily:
    """The family of --file, read by one `open`, with no stat before it:
    a path that `Path.exists` reads as absent, a NUL byte in it included,
    is named as missing, and any other failure to read it by its reason."""
    path = Path(args.file)
    try:
        with open(path) as file:  # decoded as path.read_text() decodes
            text = file.read()
    except UnicodeDecodeError as exc:
        raise UsageError(
            f"cannot read family file {path}: not UTF-8 text ({exc.reason} at offset {exc.start})"
        ) from exc
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        if isinstance(exc, OSError) and exc.errno not in _ABSENT:
            raise UsageError(f"cannot read family file {path}: {exc.strerror}") from exc
        raise UsageError(f"family file {path} does not exist") from exc
    return families.parse_family(text, args.n)


@contextlib.contextmanager
def _long_ints():
    """Let Python write ints of any length in the block, in which `main`
    writes its document or report: a bound can have more digits than its
    default limit of 4,300, past which `str` and `json.dumps` raise.  The
    limit is put back after the block; inputs are parsed outside it, where
    the limit keeps a huge number from taking quadratic time to read."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _val_json(v: int | float) -> int | str:
    return "infinity" if v == INFINITY else v


def _cert_json(cert: bounds.BoundCertificate) -> dict:
    # vars, not dataclasses.asdict, which deep-copies an auxiliary that can
    # hold a degree per residue
    return {**vars(cert), "bound": vars(cert.bound)}


def _family_json(fam: SetFamily) -> list[list[int]]:
    # `_elements` lists a mask's bits in ascending order
    return [[i + 1 for i in families._elements(m)] for m in fam.members]


# --- handlers ----------------------------------------------------------------


def _cmd_vp(args) -> CommandResult:
    payload = {"p": args.p, "n": args.n, "valuation": _val_json(vp(args.p, args.n))}
    return CommandResult("ok", payload, human=lambda: f"v_{args.p}({args.n}) = {payload['valuation']}")


def _cmd_binom(args) -> CommandResult:
    v = vp_binomial(args.p, args.a, args.b)
    return CommandResult(
        "ok",
        {"p": args.p, "a": args.a, "b": args.b, "valuation": v},
        human=lambda: f"v_{args.p}(C({args.a + args.b}, {args.a})) = {v}",
    )


def _cmd_digits(args) -> CommandResult:
    pp = PrimePower.from_q(args.q)
    digits = to_digits(pp, args.s)
    return CommandResult(
        "ok",
        {"q": pp.q, "p": pp.p, "k": pp.k, "s": args.s, "digits": list(digits)},
        human=lambda: f"{args.s} = ({','.join(map(str, digits))}) base {pp.p}, width {pp.k}",
    )


def _cmd_closure(args) -> CommandResult:
    pp = PrimePower.from_q(args.q)
    interval = closure.IntervalL(args.lo, args.hi)
    closed = closure.q_closure(pp, interval)
    already = closure.is_q_closed(pp, interval)
    return CommandResult(
        "ok",
        {
            "q": pp.q,
            "input": vars(interval),
            "closure": vars(closed),
            "length": closed.size,
            "already_closed": already,
        },
        human=lambda: f"closure of {interval} in [1, {pp.q - 1}]: {closed} "
        f"(length {closed.size}{', already closed' if already else ''})",
    )


def _cmd_mu(args) -> CommandResult:
    pp = PrimePower.from_q(args.q)
    value = closure.closure_length_bound(pp, args.s)
    return CommandResult(
        "ok",
        {"q": pp.q, "s": args.s, "closure_length_bound": value},
        human=lambda: f"closure length bound for size {args.s} intervals mod {pp.q}: {value}",
    )


def _cmd_census(args) -> CommandResult:
    pp = PrimePower.from_q(args.q)
    census = closure.count_closed_pairs(pp)
    diag = [
        "alt_form disagrees with the enumeration; it is recorded for "
        "reference and never asserted"
    ]
    return CommandResult(
        "ok",
        {"q": pp.q, **vars(census)},
        diagnostics=diag,
        human=lambda: f"closed pairs (b, s) with 1 <= s <= b < {pp.q}: {census.count} "
        f"(closed form {census.closed_form}, alt form {census.alt_form})",
    )


def _cmd_seppoly(args) -> CommandResult:
    pp = PrimePower.from_q(args.q)
    L = _parse_L(args.L, pp.q)
    header = {"q": pp.q, "alpha": args.alpha, "L": sorted(set(L))}
    if args.action == "check":
        if not args.roots:
            raise UsageError("seppoly check needs --roots")
        roots = _parse_L(args.roots, pp.q)
        g = seppoly.FactoredIntPoly(args.lead, tuple(roots))
        rep = seppoly.check_separation(pp, g, args.alpha, L)
        payload = {**header, **vars(rep), "v0": _val_json(rep.v0), "poly": vars(g)}
        return CommandResult(
            "ok",
            payload,
            human=lambda: f"{g} {'separates' if rep.separates else 'does not separate'} "
            f"{args.alpha} from L mod {pp.q}",
        )
    if args.window is not None and args.window < 0:
        raise UsageError(f"--window must be non-negative, got {_text(args.window)}")
    window = range(0, args.window) if args.window is not None else None
    searched = {**header, "max_degree": args.max_degree}
    try:
        found = seppoly.search_min_degree(pp, args.alpha, L, args.max_degree, window, args.budget)
    except seppoly.SearchBudgetExhausted as exc:
        payload = {**searched, "tried": exc.tried, "degree_reached": exc.degree}
        return CommandResult("budget-exhausted", payload, human=exc.__str__)
    if found is None:
        return CommandResult(
            "infeasible",
            searched,
            human=lambda: f"no separating polynomial of degree <= {args.max_degree} found",
        )
    g, d = found
    payload = {**header, "degree": d, "poly": vars(g)}
    return CommandResult("ok", payload, human=lambda: f"degree {d}: {g}")


def _cmd_bound(args) -> CommandResult:
    spec = _build_spec(args, args.n)
    best, all_certs = bounds.best_bound(spec)
    payload = {
        "kind": spec.kind.value,
        "n": spec.n,
        "q": spec.q,
        "L": sorted(spec.L),
        "bound": best.bound.value,
        "theorem_id": best.theorem_id,
        "best": _cert_json(best),
        "certificates": [_cert_json(c) for c in all_certs],
    }

    def human():
        lines = [f"best bound: {best.bound.value} via {best.theorem_id}"]
        for c in all_certs:
            b = c.bound
            span = f"sum_{{i={b.lower}..{b.upper}}} C({b.column}, i)"
            lines.append(f"  {c.theorem_id:>4}: {b.value}  ({span})")
        return "\n".join(lines)

    return CommandResult("ok", payload, human=human)


def _cmd_table(args) -> CommandResult:
    pp = PrimePower.from_q(args.q)
    kind = _kind(args.kind)
    intervals = (pp.q - 1) * pp.q // 2
    if intervals > _MAX_TABLE_ROWS:
        raise UsageError(
            f"a table at q = {_text(pp.q)} has {_text(intervals)} intervals, "
            f"more than the limit of {_MAX_TABLE_ROWS}"
        )
    rows = []
    brute_ok = args.n <= families.DEFAULT_N_LIMIT and not args.no_brute
    for lo in range(1, pp.q):
        for hi in range(lo, pp.q):
            L = frozenset(range(lo, hi + 1))
            spec = ConstraintSpec(kind=kind, n=args.n, L=L, modulus=pp)
            best, _ = bounds.best_bound(spec)
            row = {
                "L": f"{lo}..{hi}",
                "bound": best.bound.value,
                "theorem_id": best.theorem_id,
            }
            if brute_ok:
                result = families.max_family(spec)
                row["brute_force"] = result.max_size
                row["exact"] = result.exact
                row["sound"] = result.max_size <= best.bound.value
            rows.append(row)

    def human():
        header = f"{'L':>8} {'bound':>10} {'rule':>5}"
        if brute_ok:
            header += f" {'brute':>7} {'sound':>6}"
        lines = [header]
        for row in rows:
            line = f"{row['L']:>8} {row['bound']:>10} {row['theorem_id']:>5}"
            if brute_ok:
                line += f" {row['brute_force']:>7} {str(row['sound']).lower():>6}"
            lines.append(line)
        return "\n".join(lines)

    return CommandResult("ok", {"kind": kind.value, "q": pp.q, "n": args.n, "rows": rows}, human=human)


def _cmd_search(args) -> CommandResult:
    spec = _build_spec(args, args.n)
    result = families.max_family(spec, node_budget=args.budget)
    payload = {
        **vars(result),
        "kind": spec.kind.value,
        "n": spec.n,
        "q": spec.q,
        "L": sorted(spec.L),
        "witness": _family_json(result.witness),
    }
    status = "ok" if result.exact else "budget-exhausted"
    return CommandResult(
        status,
        payload,
        human=lambda: f"{'maximum' if result.exact else 'best found (budget exhausted)'}: "
        f"{result.max_size}\n" + families.format_family(result.witness).rstrip(),
    )


def _cmd_check(args) -> CommandResult:
    fam = _read_family(args)  # honors --n when given
    spec = _build_spec(args, fam.n, need_L=False)
    result = families.satisfies(spec, fam)
    payload = {
        "kind": spec.kind.value,
        "n": spec.n,
        "members": len(fam),
        "satisfied": result.ok,
        "violation": result.violation,
    }
    return CommandResult(
        "ok", payload, human=lambda: "satisfied" if result.ok else f"violated: {result.violation}"
    )


def _cmd_push(args) -> CommandResult:
    fam = _read_family(args)
    pushed = families.push_to_middle(fam, args.s)
    payload = {
        "n": fam.n,
        "s": args.s,
        "family": _family_json(fam),
        "pushed": _family_json(pushed),
    }
    return CommandResult("ok", payload, human=lambda: families.format_family(pushed).rstrip())


# the constraint kind each proof system certifies, by --variant
_VERIFY_KINDS = {
    None: Kind.DIFF_SPERNER,
    "sym": Kind.DIFF_SPERNER,
    "close": Kind.CLOSE_SPERNER,
}


def _cmd_verify(args) -> CommandResult:
    kind = _kind(args.kind)
    expected = _VERIFY_KINDS[args.variant]
    if kind is not expected:
        variant = f"--variant {args.variant}" if args.variant else "the default variant"
        raise UsageError(
            f"verify with {variant} needs --kind {expected.value}, got {kind.value}"
        )
    fam = _read_family(args)
    pp, L = _modulus_and_L(args)
    if not args.variant and (pp is None or not L):
        raise UsageError("verify needs --q and --L (or --variant sym|close)")
    if args.variant:
        s = args.s if args.s is not None else max(L, default=0)
        start = perf_counter()
        sys_ = polylab.build_midband_system(fam, s, args.variant)
    else:
        spec = ConstraintSpec(kind=kind, n=fam.n, L=frozenset(L), modulus=pp)
        aux = bounds.bound_from_seppoly(spec).auxiliary
        g = seppoly.FactoredIntPoly(aux["lead"], aux["roots"])
        variant = "minus" if aux["shifted_minus_ok"] or not aux["shifted_plus_ok"] else "plus"
        start = perf_counter()
        sys_ = polylab.build_diff_sperner_system(fam, g, pp, variant)
    build_s = perf_counter() - start
    report = polylab.verify_independence(sys_)
    payload = {
        **vars(report),
        "n": fam.n,
        "q": pp.q if pp else None,
        "L": sorted(set(L)),
        "stats": {**report.stats, "build_s": build_s},
    }
    return CommandResult(
        "ok",
        payload,
        human=lambda: f"rank {report.rank} of {report.total_polys} polynomials "
        f"(dimension {report.dimension}); pattern {'holds' if report.pattern_ok else 'FAILS'}",
    )


# --- parser ------------------------------------------------------------------


class _HelpRequested(Exception):
    """-h or --help, raised where argparse meets it, with the help text of
    the parser it was asked of and that parser's subcommand (None at the
    top level)."""

    def __init__(self, text: str, command: str | None):
        super().__init__(text)
        self.text, self.command = text, command


class _Parser(argparse.ArgumentParser):
    """An argparse parser that reports a bad command line as a `UsageError`
    carrying argparse's own reason, and a request for help as
    `_HelpRequested` for `main` to answer; its subparsers are of this
    class too."""

    def print_help(self, file=None):
        # argparse's -h calls this, then exits; a subparser's prog is
        # "qsperner <command>"
        raise _HelpRequested(self.format_help(), self.prog.partition(" ")[2] or None)

    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


@functools.cache
def _build_parser() -> _Parser:
    # built once per process: parse_args keeps no state between calls
    parser = _Parser(
        prog="qsperner",
        description="Certified bounds and exact searches for restricted set families",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(handler=handler)
        p.add_argument("--json", action="store_true", help="emit one JSON document")
        return p

    def add_spec(p, *, n_required, file=False, residue=True):
        """The constraint spec's options, with --file after --kind."""
        p.add_argument("--kind", type=str, required=True)
        if file:
            p.add_argument("--file", type=str, required=True)
        p.add_argument("--n", type=int, required=n_required)
        p.add_argument("--q", type=int, default=None)
        p.add_argument("--L", type=str, default=None)
        if residue:
            p.add_argument("--uniform-residue", type=int, default=None)

    # the arithmetic commands, which take required int options only
    for name, handler, text, options in (
        ("vp", _cmd_vp, "p-adic valuation of an integer", ("p", "n")),
        ("binom", _cmd_binom, "valuation of a binomial coefficient C(a+b, a)", ("p", "a", "b")),
        ("digits", _cmd_digits, "fixed-width base-p digits modulo q", ("q", "s")),
        ("closure", _cmd_closure, "shortest closed superinterval", ("q", "lo", "hi")),
        ("mu", _cmd_mu, "closure length bound for size-s intervals", ("q", "s")),
        ("census", _cmd_census, "count of closed (b, s) pairs below q", ("q",)),
    ):
        p = add(name, handler, help=text)
        for option in options:
            p.add_argument(f"--{option}", type=int, required=True)

    p = add("seppoly", _cmd_seppoly, help="check or search separating polynomials")
    p.add_argument("action", choices=["check", "find"])
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument("--L", type=str, required=True)
    p.add_argument("--roots", type=str, default=None)
    p.add_argument("--lead", type=int, default=1)
    p.add_argument("--max-degree", type=int, default=3)
    p.add_argument("--window", type=int, default=None)
    p.add_argument("--budget", type=int, default=None)

    add_spec(add("bound", _cmd_bound, help="best certified upper bound"), n_required=True)

    p = add("table", _cmd_table, help="bound vs brute force over all intervals")
    p.add_argument("--kind", type=str, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--no-brute", action="store_true")

    p = add("search", _cmd_search, help="exact maximum family search")
    add_spec(p, n_required=True)
    p.add_argument("--budget", type=int, default=None)

    p = add("check", _cmd_check, help="test a family file against a constraint")
    add_spec(p, n_required=False, file=True)

    p = add("push", _cmd_push, help="push a family into the middle band")
    p.add_argument("--file", type=str, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--n", type=int, default=None)

    p = add("verify", _cmd_verify, help="rank-verify the proof polynomials")
    add_spec(p, n_required=False, file=True, residue=False)
    p.add_argument("--s", type=int, default=None)
    p.add_argument("--variant", choices=[v for v in _VERIFY_KINDS if v], default=None)

    parser.commands = sub.choices  # each command's own parser, by name
    return parser


def dispatch(argv: list[str]) -> CommandResult:
    """Parse argv, route to the owning module, and return the result.

    When argv[0] names a command, that command's own parser reads the rest
    into the namespace the top-level parser would give, so argv is
    scanned once; the top-level parser reads argv only to answer -h, a
    missing command or an unknown one."""
    parser = _build_parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        args = parser.parse_args(argv)
    else:
        args = command.parse_args(argv[1:], argparse.Namespace(command=argv[0]))
    result = args.handler(args)
    result.command = args.command
    return result


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    want_json = "--json" in argv
    try:
        result = dispatch(argv)
    except _HelpRequested as request:
        if not want_json:
            # argparse's own behaviour: the help text on stdout, then exit 0
            sys.stdout.write(request.text)
            raise SystemExit(EXIT_OK) from None
        result = CommandResult("ok", {"help": request.text}, command=request.command)
    except ValueError as exc:
        result = CommandResult("error", diagnostics=[str(exc)])
    with _long_ints():
        if want_json:
            doc = {
                "schema": SCHEMA_VERSION,
                "status": result.status,
                "payload": result.payload,
                "diagnostics": result.diagnostics,
            }
            if result.status != "error":  # an error document names no command
                doc["command"] = result.command
            # one line: without indent, json uses its C encoder
            print(json.dumps(doc, sort_keys=True))
        else:
            human = result.human()
            if human:
                print(human)
            label = "error" if result.status == "error" else "note"
            for diag in result.diagnostics:
                print(f"{label}: {diag}", file=sys.stderr)
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
