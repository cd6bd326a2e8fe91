"""Command-line surface unifying all modules, with stable JSON output.

Exit codes: 0 for ok or infeasible results, 2 for usage errors, 3 when a
search budget was exhausted.  With --json a single JSON document (schema 1)
is written to stdout; otherwise a short human-readable report.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from . import bounds, closure, families, polylab, seppoly
from .families import ConstraintSpec, Kind, SetFamily
from .padic import PrimePower, to_digits, vp, vp_binomial

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
    human: str = ""

    @property
    def exit_code(self) -> int:
        if self.status in ("ok", "infeasible"):
            return EXIT_OK
        if self.status == "budget-exhausted":
            return EXIT_BUDGET
        return EXIT_USAGE


class UsageError(Exception):
    pass


def _parse_L(text: str, q: int | None) -> list[int]:
    """Residue sets: comma list `1,2,3`, inclusive interval `1..3`, or a
    wrap-around interval `7..1@wrap` (needs a modulus)."""
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
            out = []
            x = lo % q
            while True:
                out.append(x)
                if x == hi % q:
                    break
                x = (x + 1) % q
            return out
        if lo > hi:
            raise UsageError(f"interval {text!r} has lo > hi (use @wrap?)")
        return list(range(lo, hi + 1))
    if wrap:
        raise UsageError("@wrap only applies to interval syntax a..b@wrap")
    try:
        return [int(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise UsageError(f"malformed L {text!r}") from exc


def _prime_power(q: int) -> PrimePower:
    try:
        return PrimePower.from_q(q)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _kind(text: str) -> Kind:
    try:
        return Kind(text)
    except ValueError as exc:
        names = ", ".join(k.value for k in Kind)
        raise UsageError(f"unknown kind {text!r}; choose one of: {names}") from exc


def _build_spec(args, *, need_L=True) -> ConstraintSpec:
    kind = _kind(args.kind)
    pp = _prime_power(args.q) if getattr(args, "q", None) else None
    L = frozenset(_parse_L(args.L, pp.q if pp else None)) if getattr(args, "L", None) else frozenset()
    if need_L and not L and kind not in (Kind.ANTICHAIN, Kind.INTERSECTING_UNIFORM):
        raise UsageError(f"kind {kind.value} needs --L")
    residue = getattr(args, "uniform_residue", None)
    try:
        return ConstraintSpec(
            kind=kind, n=args.n, L=L, modulus=pp, uniform_residue=residue
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _read_family(args) -> SetFamily:
    path = Path(args.file)
    if not path.exists():
        raise UsageError(f"family file {path} does not exist")
    try:
        return families.parse_family(path.read_text(), getattr(args, "n", None))
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _val_json(v) -> int | str:
    return "infinity" if v.is_infinite else v.value


def _cert_json(cert: bounds.BoundCertificate) -> dict:
    return {
        "theorem_id": cert.theorem_id,
        "hypotheses": [[text, ok] for text, ok in cert.hypotheses],
        "bound": {
            "lower": cert.bound.lower,
            "upper": cert.bound.upper,
            "column": cert.bound.column,
            "value": cert.bound.value,
        },
        "auxiliary": cert.auxiliary,
    }


def _family_json(fam: SetFamily) -> list[list[int]]:
    return [sorted(s) for s in fam.sets()]


# --- handlers ----------------------------------------------------------------


def _cmd_vp(args) -> CommandResult:
    try:
        v = vp(args.p, args.n)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    human = f"v_{args.p}({args.n}) = {'infinity' if v.is_infinite else v.value}"
    return CommandResult("ok", {"p": args.p, "n": args.n, "valuation": _val_json(v)}, human=human)


def _cmd_binom(args) -> CommandResult:
    try:
        v = vp_binomial(args.p, args.a, args.b)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    human = f"v_{args.p}(C({args.a + args.b}, {args.a})) = {v.value}"
    return CommandResult(
        "ok",
        {"p": args.p, "a": args.a, "b": args.b, "valuation": _val_json(v)},
        human=human,
    )


def _cmd_digits(args) -> CommandResult:
    pp = _prime_power(args.q)
    if not 0 <= args.s < pp.q:
        raise UsageError(f"s = {args.s} out of range [0, {pp.q - 1}]")
    dv = to_digits(pp, args.s)
    human = f"{args.s} = ({','.join(map(str, dv.digits))}) base {pp.p}, width {dv.width}"
    return CommandResult(
        "ok",
        {"q": pp.q, "p": pp.p, "k": pp.k, "s": args.s, "digits": list(dv.digits)},
        human=human,
    )


def _cmd_closure(args) -> CommandResult:
    pp = _prime_power(args.q)
    try:
        interval = closure.IntervalL(args.lo, args.hi)
        result = closure.q_closure(pp, interval)
        already = closure.is_q_closed(pp, interval)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    human = (
        f"closure of {interval} in [1, {pp.q - 1}]: {result.interval} "
        f"(length {result.length}{', already closed' if already else ''})"
    )
    return CommandResult(
        "ok",
        {
            "q": pp.q,
            "input": {"lo": args.lo, "hi": args.hi},
            "closure": {"lo": result.interval.lo, "hi": result.interval.hi},
            "length": result.length,
            "already_closed": already,
        },
        human=human,
    )


def _cmd_mu(args) -> CommandResult:
    pp = _prime_power(args.q)
    try:
        value = closure.closure_length_bound(pp, args.s)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    return CommandResult(
        "ok",
        {"q": pp.q, "s": args.s, "closure_length_bound": value},
        human=f"closure length bound for size {args.s} intervals mod {pp.q}: {value}",
    )


def _cmd_census(args) -> CommandResult:
    pp = _prime_power(args.q)
    census = closure.count_closed_pairs(pp)
    diag = [
        "alt_form disagrees with the enumeration; it is recorded for "
        "reference and never asserted"
    ]
    human = (
        f"closed pairs (b, s) with 1 <= s <= b < {pp.q}: {census.count} "
        f"(closed form {census.closed_form}, alt form {census.alt_form})"
    )
    return CommandResult(
        "ok",
        {
            "q": pp.q,
            "count": census.count,
            "closed_form": census.closed_form,
            "alt_form": census.alt_form,
        },
        diagnostics=diag,
        human=human,
    )


def _cmd_seppoly(args) -> CommandResult:
    pp = _prime_power(args.q)
    L = _parse_L(args.L, pp.q)
    if args.action == "check":
        if not args.roots:
            raise UsageError("seppoly check needs --roots")
        roots = _parse_L(args.roots, None)
        try:
            g = seppoly.FactoredIntPoly(args.lead, tuple(roots))
            rep = seppoly.check_separation(pp, g, args.alpha, L)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        payload = {
            "q": pp.q,
            "alpha": args.alpha,
            "L": sorted(set(L)),
            "poly": {"lead": g.lead, "roots": list(g.roots)},
            "v0": _val_json(rep.v0),
            "class_minima": {str(k): _val_json(v) for k, v in rep.class_minima.items()},
            "separates": rep.separates,
            "shifted_minus_ok": rep.shifted_minus_ok,
            "shifted_plus_ok": rep.shifted_plus_ok,
        }
        human = (
            f"{g} {'separates' if rep.separates else 'does not separate'} "
            f"{args.alpha} from L mod {pp.q}"
        )
        return CommandResult("ok", payload, human=human)
    window = range(0, args.window) if args.window else None
    try:
        found = seppoly.search_min_degree(pp, args.alpha, L, args.max_degree, window)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if found is None:
        return CommandResult(
            "infeasible",
            {
                "q": pp.q,
                "alpha": args.alpha,
                "L": sorted(set(L)),
                "max_degree": args.max_degree,
            },
            human=f"no separating polynomial of degree <= {args.max_degree} found",
        )
    g, d = found
    payload = {
        "q": pp.q,
        "alpha": args.alpha,
        "L": sorted(set(L)),
        "degree": d,
        "poly": {"lead": g.lead, "roots": list(g.roots)},
    }
    return CommandResult("ok", payload, human=f"degree {d}: {g}")


def _cmd_bound(args) -> CommandResult:
    spec = _build_spec(args)
    try:
        best, all_certs = bounds.best_bound(spec)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
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
    lines = [f"best bound: {best.bound.value} via {best.theorem_id}"]
    for c in all_certs:
        b = c.bound
        span = f"sum_{{i={b.lower}..{b.upper}}} C({'n-1' if b.column == 'n-1' else 'n'}, i)"
        lines.append(f"  {c.theorem_id:>4}: {b.value}  ({span})")
    return CommandResult("ok", payload, human="\n".join(lines))


def _cmd_table(args) -> CommandResult:
    pp = _prime_power(args.q)
    kind = _kind(args.kind)
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
    header = f"{'L':>8} {'bound':>10} {'rule':>5}"
    if brute_ok:
        header += f" {'brute':>7} {'sound':>6}"
    lines = [header]
    for row in rows:
        line = f"{row['L']:>8} {row['bound']:>10} {row['theorem_id']:>5}"
        if brute_ok:
            line += f" {row['brute_force']:>7} {str(row['sound']).lower():>6}"
        lines.append(line)
    return CommandResult(
        "ok",
        {"kind": kind.value, "q": pp.q, "n": args.n, "rows": rows},
        human="\n".join(lines),
    )


def _cmd_search(args) -> CommandResult:
    spec = _build_spec(args, need_L=False)
    if spec.kind not in (Kind.ANTICHAIN, Kind.INTERSECTING_UNIFORM) and not spec.L:
        raise UsageError(f"kind {spec.kind.value} needs --L")
    try:
        result = families.max_family(spec, node_budget=args.budget)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    payload = {
        "kind": spec.kind.value,
        "n": spec.n,
        "q": spec.q,
        "L": sorted(spec.L),
        "max_size": result.max_size,
        "witness": _family_json(result.witness),
        "nodes_explored": result.nodes_explored,
        "exact": result.exact,
        "stats": result.stats,
    }
    status = "ok" if result.exact else "budget-exhausted"
    human = (
        f"{'maximum' if result.exact else 'best found (budget exhausted)'}: "
        f"{result.max_size}\n"
        + families.format_family(result.witness).rstrip()
    )
    return CommandResult(status, payload, human=human)


def _cmd_check(args) -> CommandResult:
    fam = _read_family(args)  # honors --n when given
    ns = argparse.Namespace(**vars(args))
    ns.n = fam.n
    spec = _build_spec(ns, need_L=False)
    result = families.satisfies(spec, fam)
    payload = {
        "kind": spec.kind.value,
        "n": spec.n,
        "members": len(fam),
        "satisfied": result.ok,
        "violation": result.violation,
    }
    human = "satisfied" if result.ok else f"violated: {result.violation}"
    return CommandResult("ok", payload, human=human)


def _cmd_push(args) -> CommandResult:
    fam = _read_family(args)
    try:
        pushed = families.push_to_middle(fam, args.s)
    except (ValueError, families.PushError) as exc:
        raise UsageError(str(exc)) from exc
    payload = {
        "n": fam.n,
        "s": args.s,
        "family": _family_json(fam),
        "pushed": _family_json(pushed),
    }
    return CommandResult("ok", payload, human=families.format_family(pushed).rstrip())


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
    n = fam.n
    pp = _prime_power(args.q) if args.q else None
    L = _parse_L(args.L, pp.q if pp else None) if args.L else []
    if not args.variant and (pp is None or not L):
        raise UsageError("verify needs --q and --L (or --variant sym|close)")
    try:
        if args.variant:
            s = args.s if args.s is not None else max(L, default=0)
            p = pp.p if pp else 2
            start = perf_counter()
            sys_ = polylab.build_midband_system(fam, s, args.variant)
        else:
            g = _verification_poly(pp, L)
            rep = seppoly.check_separation(pp, g, 0, L)
            variant = "minus" if rep.shifted_minus_ok or not rep.shifted_plus_ok else "plus"
            p = pp.p
            start = perf_counter()
            sys_ = polylab.build_diff_sperner_system(fam, g, pp, variant)
        build_s = perf_counter() - start
        report = polylab.verify_independence(sys_, p)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    payload = {
        "n": n,
        "q": pp.q if pp else None,
        "L": sorted(set(L)),
        "rank": report.rank,
        "total_polys": report.total_polys,
        "full_rank": report.full_rank,
        "dimension": report.dimension,
        "block_sizes": report.block_sizes,
        "pattern": report.pattern,
        "pattern_ok": report.pattern_ok,
        "pattern_failures": report.pattern_failures,
        "stats": {**report.stats, "build_s": build_s},
    }
    human = (
        f"rank {report.rank} of {report.total_polys} polynomials "
        f"(dimension {report.dimension}); pattern "
        f"{'holds' if report.pattern_ok else 'FAILS'}"
    )
    return CommandResult("ok", payload, human=human)


def _verification_poly(pp: PrimePower, L) -> seppoly.FactoredIntPoly:
    """Deterministic separating polynomial for 0 against L: the bound
    engine's first candidate that separates 0 from L reduced mod q."""
    return bounds.first_zero_separator(pp, tuple(sorted({ell % pp.q for ell in L})))[1]


# --- parser ------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsperner",
        description="Certified bounds and exact searches for restricted set families",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(handler=handler)
        p.add_argument("--json", action="store_true", help="emit one JSON document")
        return p

    p = add("vp", _cmd_vp, help="p-adic valuation of an integer")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--n", type=int, required=True)

    p = add("binom", _cmd_binom, help="valuation of a binomial coefficient C(a+b, a)")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)

    p = add("digits", _cmd_digits, help="fixed-width base-p digits modulo q")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--s", type=int, required=True)

    p = add("closure", _cmd_closure, help="shortest closed superinterval")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--lo", type=int, required=True)
    p.add_argument("--hi", type=int, required=True)

    p = add("mu", _cmd_mu, help="closure length bound for size-s intervals")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--s", type=int, required=True)

    p = add("census", _cmd_census, help="count of closed (b, s) pairs below q")
    p.add_argument("--q", type=int, required=True)

    p = add("seppoly", _cmd_seppoly, help="check or search separating polynomials")
    p.add_argument("action", choices=["check", "find"])
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument("--L", type=str, required=True)
    p.add_argument("--roots", type=str, default=None)
    p.add_argument("--lead", type=int, default=1)
    p.add_argument("--max-degree", type=int, default=3)
    p.add_argument("--window", type=int, default=None)

    p = add("bound", _cmd_bound, help="best certified upper bound")
    p.add_argument("--kind", type=str, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--L", type=str, default=None)
    p.add_argument("--uniform-residue", type=int, default=None)

    p = add("table", _cmd_table, help="bound vs brute force over all intervals")
    p.add_argument("--kind", type=str, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--no-brute", action="store_true")

    p = add("search", _cmd_search, help="exact maximum family search")
    p.add_argument("--kind", type=str, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--L", type=str, default=None)
    p.add_argument("--uniform-residue", type=int, default=None)
    p.add_argument("--budget", type=int, default=None)

    p = add("check", _cmd_check, help="test a family file against a constraint")
    p.add_argument("--kind", type=str, required=True)
    p.add_argument("--file", type=str, required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--L", type=str, default=None)
    p.add_argument("--uniform-residue", type=int, default=None)

    p = add("push", _cmd_push, help="push a family into the middle band")
    p.add_argument("--file", type=str, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--n", type=int, default=None)

    p = add("verify", _cmd_verify, help="rank-verify the proof polynomials")
    p.add_argument("--kind", type=str, required=True)
    p.add_argument("--file", type=str, required=True)
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--L", type=str, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--s", type=int, default=None)
    p.add_argument("--variant", choices=["sym", "close"], default=None)

    return parser


def dispatch(argv: list[str]) -> CommandResult:
    """Parse argv, route to the owning module, and return the result."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        if exc.code:  # bad flags; argparse already printed the usage text
            raise UsageError("argument parsing failed") from exc
        raise  # --help exits cleanly
    result = args.handler(args)
    result.command = args.command
    return result


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    want_json = "--json" in argv
    try:
        result = dispatch(argv)
    except UsageError as exc:
        message = str(exc)
        if want_json:
            doc = {
                "schema": SCHEMA_VERSION,
                "status": "error",
                "payload": {},
                "diagnostics": [message],
            }
            print(json.dumps(doc, indent=2, sort_keys=True))
        else:
            print(f"error: {message}", file=sys.stderr)
        return EXIT_USAGE
    if want_json:
        doc = {
            "schema": SCHEMA_VERSION,
            "command": result.command,
            "status": result.status,
            "payload": result.payload,
            "diagnostics": result.diagnostics,
        }
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        if result.human:
            print(result.human)
        for diag in result.diagnostics:
            print(f"note: {diag}", file=sys.stderr)
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
