"""Theorem-portfolio bound engine.

Every rule below checks its hypotheses exactly (using the p-adic, closure,
and separating-polynomial machinery), produces an auditable certificate
with a binomial-sum descriptor, and the engine returns the minimum over
all applicable certificates.  `_PORTFOLIO` holds, per kind, the rules read
without a modulus and the rules read modulo q.  A modular spec runs the
modular rules; a non-modular one runs the direct rules, then the modular
ones lifted to the smallest prime exceeding both max(L) and n, which is
always faithful because no cardinality statistic can reach that prime.
The intersecting-uniform kind alone is mapped by hand: R16, then the
intersecting modular rules on the complement of its residue.

R22's certificate is assembled in one place per shape, `_r22_zero_cert`
(difference and Hamming kinds) and `_r22_per_alpha_cert` (intersecting
kinds), for `best_bound` and `bound_from_seppoly` alike.  R22 draws its
separating polynomials from `_zero_separation_candidates`, which yields,
in non-decreasing degree, the plain residues, the closed superinterval of
their hull and the full range [1, q-1].  Candidates are built lazily.
Every candidate is monic with distinct roots in [1, q-1], so `best_bound`
decides it from one table W[x] = min(v_p(x), k) on [0, q-1]: v_p(g(0)) is
the sum of W[r], and the minimum of v_p(g) over class c the sum of
W[(c - r) mod q], over the roots r.  `_run_minima` reads a run of
consecutive roots as one range sum of W's prefix sums, for the classes of
L (separation) and of (r -+ 1) mod q (the shifted side conditions).  For
the intersecting kinds the plain candidate of each residue alpha outside
L reflects the polynomial with roots L, so all share its class minima.
`check_separation` and `separates` stay the independent route of
`bound_from_seppoly` and `first_zero_separator`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, islice
from math import comb

from .closure import IntervalL, closure_length_bound, q_closure
from .families import ConstraintSpec, Kind
from .padic import PrimePower, _lucas_nondivisible, _vp_int, is_prime, vp_factorial
from .seppoly import (
    FactoredIntPoly,
    canonical_interval_poly,
    check_separation,
    degree_upper_bound,
    search_min_degree,
    separates,
)

__all__ = [
    "BinomSum",
    "BoundCertificate",
    "SeparationFailure",
    "binom_sum",
    "best_bound",
    "bound_from_seppoly",
    "first_zero_separator",
]


@dataclass(frozen=True)
class BinomSum:
    """Descriptor of sum of C(n, i) or C(n-1, i) for i in [lower, upper],
    with indices clamped into the column's valid range when evaluating."""

    lower: int
    upper: int
    column: str  # "n" or "n-1"
    value: int


def binom_sum(n: int, lower: int, upper: int, column: str = "n") -> BinomSum:
    if column not in ("n", "n-1"):
        raise ValueError(f"unknown column {column!r}")
    width = n if column == "n" else n - 1
    lo = max(lower, 0)
    hi = min(upper, width)
    value = sum(comb(width, i) for i in range(lo, hi + 1)) if lo <= hi else 0
    return BinomSum(lower, upper, column, value)


@dataclass(frozen=True)
class BoundCertificate:
    """A bound with its rule id and the machine-checked hypotheses that
    license it; `auxiliary` carries rule-specific evidence (separating
    polynomial roots, closure intervals, per-class degrees, ...)."""

    theorem_id: str
    hypotheses: tuple[tuple[str, bool], ...]
    bound: BinomSum
    auxiliary: dict | None = None


class SeparationFailure(ValueError):
    """A supplied polynomial fails to separate; names the failing class."""

    def __init__(self, message: str, failing_class: int, report=None):
        super().__init__(message)
        self.failing_class = failing_class
        self.report = report


def _rule_number(theorem_id: str) -> int:
    return int(theorem_id.lstrip("R"))


def _cert_key(cert: BoundCertificate):
    return (cert.bound.value, len(cert.hypotheses), _rule_number(cert.theorem_id))


def _next_prime(m: int) -> int:
    c = m + 1
    while not is_prime(c):
        c += 1
    return c


def _as_interval(L: tuple[int, ...]) -> IntervalL | None:
    """The plain interval equal to L, if there is one."""
    if L and L[-1] - L[0] + 1 == len(L) and L[0] >= 1:
        return IntervalL(L[0], L[-1])
    return None


def _as_mod_interval(L: tuple[int, ...], q: int) -> int | None:
    """Size of L as an interval in the modulo-q sense (wrap-around allowed);
    returns None when L is not one.  Tested by rotating every candidate
    start through L."""
    s = len(L)
    if s == 0 or s > q:
        return None
    Lset = set(L)
    for start in L:
        if all((start + i) % q in Lset for i in range(s)):
            return s
    return None


def _as_arithmetic_progression(L: tuple[int, ...]) -> tuple[int, int] | None:
    """(first term, common difference) when sorted L is an AP of positive
    integers; singletons count with difference 1."""
    if not L or L[0] < 1:
        return None
    if len(L) == 1:
        return L[0], 1
    d = L[1] - L[0]
    if d < 1:
        return None
    if all(L[i + 1] - L[i] == d for i in range(len(L) - 1)):
        return L[0], d
    return None


@dataclass
class _Ctx:
    kind: Kind
    n: int
    L: tuple[int, ...]  # sorted
    pp: PrimePower | None
    lift_note: tuple[str, bool] | None = None

    def hyp(self, *texts: str) -> tuple[tuple[str, bool], ...]:
        hyps = [(t, True) for t in texts]
        if self.lift_note is not None:
            hyps.append(self.lift_note)
        return tuple(hyps)


def _cert(ctx, rule, texts, bound, aux=None) -> BoundCertificate:
    return BoundCertificate(rule, ctx.hyp(*texts), bound, aux)


# --- kind hypotheses ---------------------------------------------------------

_KIND_WORDING = {
    Kind.DIFF_SPERNER: "family is {q}-modular L-differencing Sperner",
    Kind.INTERSECTING: "family is {q}-modular L-avoiding L-intersecting",
    Kind.HAMMING: "pairwise Hamming distances lie in L modulo {q}",
}


def _kind_hyp(ctx: _Ctx) -> str:
    """The kind hypothesis of every rule read modulo q."""
    return _KIND_WORDING[ctx.kind].format(q=ctx.pp.q)


def _close_hyp(ctx: _Ctx) -> str:
    """The kind hypothesis of the close-Sperner rules R11 and R12."""
    if ctx.kind is Kind.CLOSE_SPERNER:
        return "family is L-close Sperner"
    return "family is L-differencing Sperner, hence L-close Sperner"


# --- difference-Sperner rules (modular) ------------------------------------


def _r2(ctx: _Ctx):
    if ctx.pp.k != 1:
        return []
    s = len(ctx.L)
    texts = (_kind_hyp(ctx), f"modulus {ctx.pp.p} is prime", f"L within [1, {ctx.pp.p - 1}]")
    return [_cert(ctx, "R2", texts, binom_sum(ctx.n, 0, s, "n-1"))]


def _r4(ctx: _Ctx):
    iv = _as_interval(ctx.L)
    if iv is None:
        return []
    b, s = iv.hi, iv.size
    if not _lucas_nondivisible(ctx.pp.p, b, s):
        return []
    texts = (
        _kind_hyp(ctx),
        f"modulus {ctx.pp.q} is a prime power",
        f"L is the interval {iv}",
        f"{ctx.pp.p} does not divide C({b}, {s})",
    )
    aux = {"b": b, "s": s}
    return [_cert(ctx, "R4", texts, binom_sum(ctx.n, 0, s, "n-1"), aux)]


def _r5(ctx: _Ctx):
    q = ctx.pp.q
    if ctx.L != tuple(range(1, q)):
        return []
    texts = (
        _kind_hyp(ctx),
        f"modulus {q} is a prime power",
        f"L = [1, {q - 1}], the full nonzero residue range",
    )
    return [_cert(ctx, "R5", texts, binom_sum(ctx.n, 0, q - 1, "n-1"))]


def _r6(ctx: _Ctx):
    ap = _as_arithmetic_progression(ctx.L)
    if ap is None:
        return []
    a, d = ap
    p, k = ctx.pp.p, ctx.pp.k
    s = len(ctx.L)
    lhs = sum(_vp_int(p, ell) for ell in ctx.L)
    vd = _vp_int(p, d)
    rhs = max((s - 1) * vd + k, s * vd + vp_factorial(p, s).value + 1)
    if lhs >= rhs:
        return []
    texts = (
        _kind_hyp(ctx),
        f"modulus {ctx.pp.q} is a prime power",
        f"L is the arithmetic progression {a} + {d}*[0, {s - 1}]",
        f"sum of valuations {lhs} < max((s-1)v(d)+v(q), s v(d)+v(s!)+1) = {rhs}",
    )
    return [_cert(ctx, "R6", texts, binom_sum(ctx.n, 0, s, "n"), {"a": a, "d": d})]


def _r7(ctx: _Ctx):
    p, k = ctx.pp.p, ctx.pp.k
    total = sum(_vp_int(p, ell) for ell in ctx.L)
    if total >= k:
        return []
    texts = (
        _kind_hyp(ctx),
        f"modulus {ctx.pp.q} is a prime power",
        f"sum of element valuations {total} < k = {k}",
    )
    return [_cert(ctx, "R7", texts, binom_sum(ctx.n, 0, len(ctx.L), "n"))]


def _r8(ctx: _Ctx):
    iv = _as_interval(ctx.L)
    if iv is None:
        return []
    s = iv.size
    mu = closure_length_bound(ctx.pp, s)
    branches = {
        "closure": binom_sum(ctx.n, 0, mu, "n-1"),
        "doubling": binom_sum(ctx.n, 0, 2 ** (s - 1), "n"),
    }
    if ctx.pp.k == 2:
        branches["prime-square"] = binom_sum(ctx.n, 0, 2 * s - 1, "n")
    winner = min(branches, key=lambda name: branches[name].value)
    texts = (
        _kind_hyp(ctx),
        f"modulus {ctx.pp.q} is a prime power",
        f"L is the interval {iv}",
    )
    aux = {
        "branches": {name: b.value for name, b in branches.items()},
        "winner": winner,
        "closure_length_bound": mu,
    }
    return [_cert(ctx, "R8", texts, branches[winner], aux)]


def _r9(ctx: _Ctx):
    s = len(ctx.L)
    texts = (
        _kind_hyp(ctx),
        f"modulus {ctx.pp.q} is a prime power",
        f"L within [1, {ctx.pp.q - 1}]",
        f"worst-case separating degree 2^(s-1) = {2 ** (s - 1)}",
    )
    return [_cert(ctx, "R9", texts, binom_sum(ctx.n, 0, 2 ** (s - 1), "n"))]


def _zero_separation_candidates(pp: PrimePower, L: tuple[int, ...]):
    """Deterministic factored candidates for separating 0 from the sorted
    residues L within [1, q-1]: the plain root set, the closed
    superinterval of its hull, and the full range [1, q-1] (which always
    works).  Degrees never decrease along the sequence, since L lies in its
    hull, the hull in its closure and the closure in [1, q-1].  Lazy: the
    closure is computed only when a caller asks past the plain root set."""
    yield "given residues", canonical_interval_poly(L)
    closed = q_closure(pp, IntervalL(L[0], L[-1])).interval
    yield f"closed superinterval {closed}", canonical_interval_poly(closed.residues())
    if pp.q > 2:
        yield "full range", canonical_interval_poly(range(1, pp.q))


def _valuation_sums(pp: PrimePower) -> list[int]:
    """Prefix sums over [0, 2q) of W[x mod q], W[x] = min(v_p(x), k) on
    [0, q-1] (so W[0] = k): entry i is the sum of the first i terms."""
    W = [0] * pp.q
    for j in range(1, pp.k + 1):
        for x in range(0, pp.q, pp.p**j):
            W[x] += 1
    return list(accumulate(W + W, initial=0))


def _run_minima(P: list[int], roots, classes) -> tuple[int, list[int]]:
    """v_p(g(0)) and the minimum of v_p(g) over each residue class c in
    `classes`, for the monic g with the sorted distinct `roots` in [0, q-1]
    and P from `_valuation_sums` (v_p(g(0)) needs 0 not a root).  Class c's
    minimum is the sum of W[(c - r) mod q] over the roots r: a maximal run
    [lo, hi] of consecutive roots adds P[c - lo + q + 1] - P[c - hi + q]."""
    q, v0, minima = len(P) // 2, 0, [0] * len(classes)
    cuts = [i for i in range(1, len(roots)) if roots[i] != roots[i - 1] + 1]
    for i, j in zip([0, *cuts], [*cuts, len(roots)]):
        lo, hi = roots[i], roots[j - 1]
        v0 += P[hi + 1] - P[lo]
        a, b = q + 1 - lo, q - hi
        minima = [m + P[c + a] - P[c + b] for m, c in zip(minima, classes)]
    return v0, minima


def first_zero_separator(pp: PrimePower, L) -> tuple[str, FactoredIntPoly]:
    """Label and polynomial of the first candidate that separates 0 from
    the sorted residues L within [1, q-1].  The candidates come in
    non-decreasing degree, so this is the lowest-degree separating
    candidate, the earliest one on ties."""
    for label, h in _zero_separation_candidates(pp, L):
        if separates(pp, h, 0, L):
            return label, h
    raise AssertionError("the full-range polynomial always separates")  # pragma: no cover


def _r22_column(kind: Kind, shifted: bool) -> str:
    # the shifted-condition column upgrade is only sound in the
    # difference-Sperner setting (see the note in _r21_prime)
    return "n-1" if shifted and kind is Kind.DIFF_SPERNER else "n"


def _r22_zero_cert(ctx: _Ctx, g: FactoredIntPoly, v0: int, minus_ok, plus_ok, label=None):
    """R22's certificate for the difference and Hamming kinds from a
    polynomial g separating 0 from L modulo q, v0 = v_p(g(0)) and the two
    shifted side conditions; `label` names g's candidate, if any."""
    column = _r22_column(ctx.kind, minus_ok or plus_ok)
    texts = [_kind_hyp(ctx), f"modulus {ctx.pp.q} is a prime power"]
    if label is not None:
        texts.append(f"candidate roots from {label}")
    texts.append("polynomial separates 0 from L modulo q")
    if column == "n-1":
        side = "u-1" if minus_ok else "u+1"
        texts.append(f"shifted condition over {side} holds, granting the n-1 column")
    aux = {
        "roots": list(g.roots),
        "lead": g.lead,
        "v0": v0,
        "shifted_minus_ok": minus_ok,
        "shifted_plus_ok": plus_ok,
    }
    return _cert(ctx, "R22", texts, binom_sum(ctx.n, 0, g.degree, column), aux)


def _r22_zero(ctx: _Ctx):
    # A higher degree with the n-1 column can beat a lower one without it,
    # so later candidates still compete, until even their best column
    # cannot beat the incumbent (degrees never decrease, so none after can
    # either).  Classes: L, then (r - 1) mod q and (r + 1) mod q for r in L.
    P, L, s = _valuation_sums(ctx.pp), ctx.L, len(ctx.L)
    classes = [*L, *((r - 1) % ctx.pp.q for r in L), *((r + 1) % ctx.pp.q for r in L)]
    best_column = _r22_column(ctx.kind, shifted=True)
    best = None
    for label, g in _zero_separation_candidates(ctx.pp, L):
        if best is not None and (
            binom_sum(ctx.n, 0, g.degree, best_column).value >= best.bound.value
        ):
            break
        v0, m = _run_minima(P, g.roots, classes)
        if v0 >= min(m[:s]):
            continue
        cert = _r22_zero_cert(ctx, g, v0, v0 <= min(m[s : 2 * s]), v0 <= min(m[2 * s :]), label)
        if best is None or (cert.bound.value, g.degree) < (best.bound.value, best.bound.upper):
            best = cert
    return [best]


# --- non-modular difference / close-Sperner rules ---------------------------


def _r10(ctx: _Ctx):
    s = len(ctx.L)
    if ctx.L != tuple(range(1, s + 1)):
        return []
    if not (ctx.n + 2 <= 3 * s and 2 * s <= ctx.n):
        return []
    texts = (
        "family is L-differencing Sperner (non-modular)",
        f"L = [{s}]",
        f"(n+2)/3 <= s <= n/2 with n = {ctx.n}, s = {s}",
    )
    return [_cert(ctx, "R10", texts, binom_sum(ctx.n, 3 * s - ctx.n - 1, s, "n-1"))]


def _r11(ctx: _Ctx):
    s = len(ctx.L)
    texts = (_close_hyp(ctx), "L is a set of positive integers")
    certs = [_cert(ctx, "R11", texts, binom_sum(ctx.n, 0, s, "n"))]
    if s == 1:
        certs.append(_cert(ctx, "R11", texts + ("|L| = 1",), binom_sum(ctx.n, 1, 1, "n")))
    return certs


def _r12(ctx: _Ctx):
    s = len(ctx.L)
    if ctx.L != tuple(range(1, s + 1)):
        return []
    if not (ctx.n + 1 <= 3 * s and 2 * s <= ctx.n):
        return []
    texts = (
        _close_hyp(ctx),
        f"L = [{s}]",
        f"(n+1)/3 <= s <= n/2 with n = {ctx.n}, s = {s}",
    )
    return [_cert(ctx, "R12", texts, binom_sum(ctx.n, 3 * s - ctx.n, s, "n"))]


# --- intersecting rules ------------------------------------------------------


def _r13(ctx: _Ctx):
    if ctx.L and ctx.L[0] >= 1:
        texts = (
            "family is L-intersecting (non-modular)",
            "L is a set of positive integers",
            "modulus-free Snevily bound",
        )
        return [_cert(ctx, "R13", texts, binom_sum(ctx.n, 0, len(ctx.L), "n-1"))]
    return []


def _r14(ctx: _Ctx):
    s = len(ctx.L)
    cap = degree_upper_bound(s, ctx.pp.k)
    texts = (
        _kind_hyp(ctx),
        f"modulus {ctx.pp.q} is a prime power",
        f"worst-case separating degree bound {cap}",
    )
    return [_cert(ctx, "R14", texts, binom_sum(ctx.n, 0, cap, "n"), {"degree_cap": cap})]


def _r15(ctx: _Ctx):
    s = len(ctx.L)
    if ctx.L != tuple(range(s)) or s >= ctx.pp.q:
        return []
    texts = (
        _kind_hyp(ctx),
        f"modulus {ctx.pp.q} is a prime power",
        f"L = {{0, ..., {s - 1}}}",
        f"s = {s} < q = {ctx.pp.q}",
    )
    return [_cert(ctx, "R15", texts, binom_sum(ctx.n, 0, 2 * s, "n"))]


def _r17(ctx: _Ctx):
    q = ctx.pp.q
    s = _as_mod_interval(ctx.L, q)
    if s is None or s > ctx.n - q + 2:
        return []
    texts = (
        _kind_hyp(ctx),
        f"modulus {q} is a prime power",
        "L is an interval in the modulo-q sense",
        f"|L| = {s} <= n - q + 2 = {ctx.n - q + 2}",
    )
    return [_cert(ctx, "R17", texts, binom_sum(ctx.n, s, q - 1, "n"))]


def _r18(ctx: _Ctx):
    q = ctx.pp.q
    s = _as_mod_interval(ctx.L, q)
    if s is None or s > q - 1:
        return []
    mu = closure_length_bound(ctx.pp, s)
    texts = (
        _kind_hyp(ctx),
        f"modulus {q} is a prime power",
        "L is an interval in the modulo-q sense",
    )
    return [_cert(ctx, "R18", texts, binom_sum(ctx.n, 0, mu, "n"), {"closure_length_bound": mu})]


def _r19(ctx: _Ctx):
    texts = (_kind_hyp(ctx), f"modulus {ctx.pp.q} is a prime power")
    return [_cert(ctx, "R19", texts, binom_sum(ctx.n, 0, ctx.pp.q - 1, "n"))]


def _r20(ctx: _Ctx):
    if ctx.pp.k != 2:
        return []
    s = _as_mod_interval(ctx.L, ctx.pp.q)
    if s is None:
        return []
    texts = (
        _kind_hyp(ctx),
        f"modulus {ctx.pp.q} = {ctx.pp.p}^2 is a prime square",
        "L is an interval in the modulo-q sense",
    )
    return [_cert(ctx, "R20", texts, binom_sum(ctx.n, 0, 2 * s - 1, "n"))]


def _reflected(pp: PrimePower, L: tuple[int, ...], alpha: int) -> tuple[int, ...]:
    """The sorted residues (alpha - L) mod q."""
    return tuple(sorted({(alpha - ell) % pp.q for ell in L}))


def _per_alpha_construction(pp: PrimePower, L: tuple[int, ...], alpha: int):
    """Cheapest deterministic factored polynomial separating alpha from
    L + qZ, built by reflecting a polynomial that separates 0 from the
    reflected residues (alpha - L) mod q."""
    label, h = first_zero_separator(pp, _reflected(pp, L, alpha))
    return label, h.shift_reflect(alpha)


def _r22_per_alpha_cert(ctx: _Ctx, degrees: dict[int, int], wording: str):
    """R22's certificate for the intersecting kinds from the degrees of
    the polynomials separating each residue alpha outside L from L."""
    worst = max(degrees.values(), default=0)
    texts = (
        _kind_hyp(ctx),
        f"modulus {ctx.pp.q} is a prime power",
        wording,
        f"maximum degree used is {worst}",
    )
    aux = {"per_alpha_degrees": degrees}
    return _cert(ctx, "R22", texts, binom_sum(ctx.n, 0, worst, "n"), aux)


def _r22_intersecting(ctx: _Ctx):
    # first_zero_separator's degree on every reflected set (reflection keeps
    # the degree).  The plain roots (alpha - L) mod q reflect g_L, with roots
    # L, and W[x] = W[-x mod q]: v_p(h(0)) is g_L's minimum over class
    # alpha, and h's class minima are g_L's over L, the same for every alpha.
    pp, L, q = ctx.pp, ctx.L, ctx.pp.q
    Lset = set(L)
    alphas = [a for a in range(q) if a not in Lset]
    if not alphas:
        return []
    P = _valuation_sums(pp)
    plain = min(_run_minima(P, L, L)[1])
    degrees = {}
    for alpha, side in zip(alphas, _run_minima(P, L, alphas)[1]):
        if side < plain:
            degrees[alpha] = len(L)
            continue
        Lr = _reflected(pp, L, alpha)
        for _, h in islice(_zero_separation_candidates(pp, Lr), 1, None):  # plain failed
            v0, minima = _run_minima(P, h.roots, Lr)
            if v0 < min(minima):
                degrees[alpha] = h.degree
                break
    wording = "a separating polynomial was constructed for every residue outside L"
    return [_r22_per_alpha_cert(ctx, degrees, wording)]


# --- uniform intersecting ----------------------------------------------------


def _r16(ctx: _Ctx, residue: int):
    q = ctx.pp.q
    if 2 * (q - 1) > ctx.n:
        return []
    texts = (
        f"member sizes are congruent to {residue} and no intersection is (mod {q})",
        f"modulus {q} is a prime power",
        f"2(q-1) = {2 * (q - 1)} <= n = {ctx.n}",
    )
    return [_cert(ctx, "R16", texts, binom_sum(ctx.n, q - 1, q - 1, "n"))]


# --- Hamming rules -----------------------------------------------------------


def _r21_nonmodular(ctx: _Ctx):
    texts = ("pairwise Hamming distances lie in L", "no modulus (Delsarte bound)")
    return [_cert(ctx, "R21", texts, binom_sum(ctx.n, 0, len(ctx.L), "n"))]


def _r21_prime(ctx: _Ctx):
    # Note: the n-1 column is NOT sound in the Hamming setting even at a
    # prime modulus.  The 8 even-weight subsets of [4] have pairwise
    # symmetric differences in {2, 4}, both nonzero mod 3, beating
    # sum of C(3, i) for i <= 2 = 7.  Only the full-column bound holds.
    if ctx.pp.k != 1:
        return []
    texts = (
        _kind_hyp(ctx),
        f"modulus {ctx.pp.p} is prime and L avoids its multiples",
    )
    return [_cert(ctx, "R21", texts, binom_sum(ctx.n, 0, len(ctx.L), "n"))]


def _r21_initial_interval(ctx: _Ctx):
    s = len(ctx.L)
    if ctx.L != tuple(range(1, s + 1)):
        return []
    texts = (
        _kind_hyp(ctx),
        f"modulus {ctx.pp.q} is a prime power",
        f"L = [{s}]",
    )
    return [_cert(ctx, "R21", texts, binom_sum(ctx.n, 0, s, "n"))]


# --- the engine --------------------------------------------------------------

# Per kind: the rules read without a modulus, then the rules read modulo q
# (the spec's own modulus, or the lifted prime of `_lifted_ctx`).  A rule
# order here is the order of ties in `best_bound`.
_PORTFOLIO = {
    Kind.DIFF_SPERNER: (
        (_r10, _r11, _r12),
        (_r2, _r4, _r5, _r6, _r7, _r8, _r9, _r22_zero),
    ),
    Kind.CLOSE_SPERNER: ((_r11, _r12), ()),
    Kind.INTERSECTING: ((_r13,), (_r14, _r15, _r17, _r18, _r19, _r20, _r22_intersecting)),
    Kind.HAMMING: ((_r21_nonmodular,), (_r21_prime, _r21_initial_interval, _r22_zero)),
}


def _lifted_ctx(kind: Kind, n: int, L: tuple[int, ...]) -> _Ctx:
    p = _next_prime(max(max(L), n))
    note = (
        f"non-modular constraint read modulo p = {p}, the smallest prime "
        f"exceeding max(L) and n",
        True,
    )
    return _Ctx(kind, n, L, PrimePower(p, 1), lift_note=note)


def _run(ctx: _Ctx, rules) -> list[BoundCertificate]:
    return [cert for rule in rules for cert in rule(ctx)]


def _applicable(spec: ConstraintSpec) -> list[BoundCertificate]:
    kind, n, pp = spec.kind, spec.n, spec.modulus
    if not spec.L and kind is not Kind.INTERSECTING_UNIFORM:
        raise ValueError("empty L is rejected by the bound engine")
    if kind is Kind.INTERSECTING_UNIFORM:
        r = spec.uniform_residue
        L = tuple(x for x in range(pp.q) if x != r)
        note = (
            f"uniform residue {r} read as L-avoiding L-intersecting with "
            f"L = all residues except {r}",
            True,
        )
        mapped = _Ctx(Kind.INTERSECTING, n, L, pp, lift_note=note)
        return _r16(_Ctx(kind, n, L, pp), r) + _run(mapped, _PORTFOLIO[Kind.INTERSECTING][1])
    if kind not in _PORTFOLIO:
        raise ValueError(f"no bound rules for kind {kind.value}")
    direct, modular = _PORTFOLIO[kind]
    L = tuple(sorted(spec.L))
    if pp is not None:
        return _run(_Ctx(kind, n, L, pp), modular)
    certs = _run(_Ctx(kind, n, L, None), direct)
    if modular:
        certs += _run(_lifted_ctx(kind, n, L), modular)
    return certs


def best_bound(spec: ConstraintSpec) -> tuple[BoundCertificate, list[BoundCertificate]]:
    """Minimum certificate plus the full applicable portfolio, sorted by
    (bound value, hypothesis count, rule number)."""
    certs = sorted(_applicable(spec), key=_cert_key)
    if not certs:  # pragma: no cover
        raise AssertionError("the rule portfolio is total for supported kinds")
    return certs[0], certs


# --- explicit separating-polynomial bounds -----------------------------------


def _first_failing_class(report) -> int:
    for ell, minimum in sorted(report.class_minima.items()):
        if not report.v0 < minimum:
            return ell
    raise AssertionError("no failing class in a separating report")


def bound_from_seppoly(
    spec: ConstraintSpec,
    g: FactoredIntPoly | None = None,
    per_alpha: dict[int, FactoredIntPoly] | None = None,
    *,
    search_max_degree: int | None = None,
) -> BoundCertificate:
    """Degree-based bound from explicit (or searched) separating polynomials.

    Difference/Hamming kinds need one polynomial separating 0 from L mod q;
    a shifted separation upgrades the column to n-1.  Intersecting kinds
    need one polynomial per residue alpha outside L, and the bound uses the
    maximum degree.  Raises SeparationFailure naming the failing class when
    a supplied polynomial does not separate.  The certificate is R22's, as
    `best_bound` would state it for the same polynomials.
    """
    if spec.modulus is None:
        raise ValueError("bound_from_seppoly needs a modular constraint")
    pp = spec.modulus
    L = tuple(sorted(spec.L))
    if not L:
        raise ValueError("empty L is rejected")
    ctx = _Ctx(spec.kind, spec.n, L, pp)
    if spec.kind in (Kind.DIFF_SPERNER, Kind.HAMMING):
        if g is None:
            if search_max_degree is None:
                raise ValueError("supply a polynomial or a search_max_degree")
            found = search_min_degree(pp, 0, L, search_max_degree)
            if found is None:
                raise SeparationFailure(
                    f"no separating polynomial found up to degree {search_max_degree}",
                    -1,
                )
            g = found[0]
        rep = check_separation(pp, g, 0, L)
        if not rep.separates:
            ell = _first_failing_class(rep)
            raise SeparationFailure(
                f"polynomial does not separate 0 from class {ell} (mod {pp.q})",
                ell,
                rep,
            )
        return _r22_zero_cert(ctx, g, rep.v0.value, rep.shifted_minus_ok, rep.shifted_plus_ok)
    if spec.kind is Kind.INTERSECTING:
        q = pp.q
        Lset = set(L)
        alphas = [a for a in range(q) if a not in Lset]
        if per_alpha is None:
            per_alpha = {}
            for alpha in alphas:
                if search_max_degree is not None:
                    found = search_min_degree(pp, alpha, L, search_max_degree)
                    if found is None:
                        raise SeparationFailure(
                            f"no separating polynomial found for alpha = {alpha}",
                            alpha,
                        )
                    per_alpha[alpha] = found[0]
                else:
                    per_alpha[alpha] = _per_alpha_construction(pp, L, alpha)[1]
        missing = [a for a in alphas if a not in per_alpha]
        if missing:
            raise SeparationFailure(
                f"no polynomial supplied for alpha = {missing[0]}", missing[0]
            )
        for alpha in alphas:
            if not separates(pp, per_alpha[alpha], alpha, L):
                rep = check_separation(pp, per_alpha[alpha], alpha, L)
                ell = _first_failing_class(rep)
                raise SeparationFailure(
                    f"polynomial for alpha = {alpha} fails on class {ell} (mod {q})",
                    ell,
                    rep,
                )
        degrees = {alpha: per_alpha[alpha].degree for alpha in alphas}
        wording = "every residue outside L has a verified separating polynomial"
        return _r22_per_alpha_cert(ctx, degrees, wording)
    raise ValueError(f"bound_from_seppoly does not apply to kind {spec.kind.value}")
