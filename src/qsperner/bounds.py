"""Theorem-portfolio bound engine.

Every rule is a `_Rule` record: its theorem id, the condition it needs of
the modulus, and a function that checks the rule's own hypotheses exactly
(using the p-adic, closure and separating-polynomial machinery) and yields
its own hypothesis texts, its bound as a binomial-sum descriptor and its
evidence.  One builder, `_certificate`, states every certificate in one
order: the kind hypothesis, the modulus hypothesis, the rule's own texts,
then the note of a lifted or uniform reading.  The engine returns the
minimum over all applicable certificates.

`_PORTFOLIO` holds, per kind, the rules read without a modulus, the rules
read modulo q and the rules of a lifted reading.  A modular spec runs the
modular rules; a non-modular one runs the direct rules, then the lifted
ones at the smallest prime exceeding both max(L) and n, which is always
faithful because no cardinality statistic can reach that prime.  The
intersecting-uniform kind runs R16 on its own residue, then R17 and R19
on the complement of that residue.  The lifted and uniform readings run
only the rules that can come first in them (the proofs close this
docstring).

R22 is one rule record, `_R22`, listed under the modular rules of the
difference, intersecting and Hamming kinds: it reads g_L's class minima
once, then takes the kind's shape.
R22's own texts are written in one place per shape, `_r22_zero_own`
(difference and Hamming kinds) and `_r22_per_alpha_own` (intersecting
kinds), and pass through `_certificate` for `best_bound` and
`bound_from_seppoly` alike.  R22 draws its separating polynomials from
two candidates in non-decreasing degree: the plain residues, then the
closed superinterval of their hull.  Only the plain residues are ever
judged.  The closure always separates, with both shifted conditions and
v_p(g(0)) = v_p(l!) for its l roots, by the proof below, so it is taken
on that proof wherever R22 picks it.  R22's choice is written once per
shape: `_r22_zero_choice` takes the candidate of least bound, and
`_r22_per_alpha_choice` gives each residue alpha outside an intersecting
L the plain reflected roots (alpha - L) mod q if they separate, else the
closure of their hull.  Each choice reads `minimum(c)`, the minimum of
v_p(g_L) over residue class c, g_L the monic polynomial with roots L,
and nothing else.  The plain residues are g_L itself, judged by
`_r22_plain` with v0 = minimum(0), as no root of a difference or Hamming
L is 0 modulo q; the plain candidate of every alpha reflects g_L, so
g_L's minima over L and over alpha decide it.  `best_bound` and
`bound_from_seppoly` differ only in where a class minimum comes from.

`best_bound` reads it from one list, `_class_minima`: for a monic g with
distinct roots in [0, q-1], the minimum of v_p(g) over class c is M[c],
the sum over the roots r of min(v_p(c - r), k), that is the sum over
j = 1..k of #{r == c mod p^j}.  M holds q entries, so R22 needs
q <= 2^22 (`_MAX_TABLE_Q`) as a hypothesis of its own: above it R22
yields no certificate, and the other rules answer.  A polynomial
is built only for the evidence of the difference or Hamming candidate
that wins; the intersecting evidence is degrees alone.
`bound_from_seppoly` is R22's checker, and it refuses first a kind whose
modular rules do not hold `_R22`.  It reads no list but `seppoly`'s
digit recursion on g_L, `min_valuation_over_class`, about |L| root steps
per class: 3|L| + 1 classes at most for the difference and Hamming kinds,
whose default so answers above q = 2^22 too, and all q for the
intersecting kinds.  Above 2^22 a closure of more than 2^22 roots is
never built: the plain residues stand if they separate, and a ValueError
names the closure if they do not.  `TestClosureSeparates` checks the
proof below through the digit recursion on all 7,582 closures at
q <= 49.  A given polynomial g is judged by `check_separation`, given
per-alpha polynomials each by `separates` in alpha's frame.  Wherever
R22 fires the default certificate is `best_bound`'s R22 (for the
intersecting kinds, its bound and evidence; the wording says
"verified").

Two candidates suffice, because the closure always separates.  Let
C = [b-l+1, b] be q-closed with l <= q-1, and g_C the monic polynomial
with roots C.  Adding m and l-m in base p carries only from digit v_p(m)
to below l's top digit, so v_p(m C(l, m)) <= k-1 for 1 <= m <= l < q
(Kummer).  Then v_p(g_C(0)) = v_p(l!) + v_p(C(b, l)) = v_p(l!), as p
does not divide C(b, l), and class b-i of C has minimum
k + v_p(i!) + v_p((l-1-i)!) = k + v_p(l!) - v_p((i+1) C(l, i+1)) > v_p(l!):
C separates 0 from every L inside it.
The classes b-l and b+1 just outside C see every root at a distance of 1
to l < q, so their minimum is v_p(l!) exactly.  Each shifted class
r -+ 1 of an r in L lies in C or in one of these two, so both shifted
conditions hold, and the difference kind always earns the n-1 column.
The full range [1, q-1] is q-closed and contains C, so as a third
candidate its degree would be no smaller and its column no better: it
could never have a smaller (bound, degree), and ties go to the earlier
candidate.  The intersecting route takes the first candidate that
separates, and C always does.

R20, the sum of C(n, i) for i <= 2s-1 when an intersecting L is an
interval of size s modulo q = p^2, is left out: it never comes first.
Each alpha outside L reflects L to an interval of size s in [1, q-1], so
R22's degree for alpha is s or, as the closure separates, at most its
closure's size, s + x%m - h%m <= s + p - 1 at q = p^2 (`q_closure`'s
m <= p there, as lo-1 < hi leaves only digit 0).  For s <= p it is s:
v_p(g(0)) = v_p(C(b, s)) + v_p(s!) = v_p(s C(b, s)) <= 1, below k = 2 and
so below every class minimum.  R22 is thus below R20 when s >= 2 and
2s-1 <= n.  At s = 1, R14 ties R20 earlier in tie order; when 2s-1 >= n,
or L is every residue, R19 is at most R20 with fewer hypotheses.

The same tie key, (value, number of hypotheses, rule number), leaves each
lifted and uniform reading only a few rules that can come first.  A
lifted reading is modulo a prime p, so k = 1.
- Difference: R2, the sum of C(n-1, i) for i <= |L| with four
  hypotheses, is at most every other lifted rule and wins its ties.  Each
  other rule reads a degree of at least |L| (R8's closure branch is |L|
  at k = 1, its doubling branch 2^(|L|-1)), in the n-1 column or in the n
  column, which is never below it, with at least four hypotheses and a
  higher number.
- Hamming: the direct R21, the sum of C(n, i) for i <= |L| with two
  hypotheses, equals every lifted certificate at best, since R22's
  Hamming column is n (`_r22_column`), and each lifted one has more
  hypotheses.  So the lifted Hamming reading runs no rule.
- Intersecting: at k = 1, R14's cap min(2^(s-1), s) is s = |L|, with four
  hypotheses.  R15 sums to 2|L| with five, R18 is |L| at k = 1 with four
  and a higher number, and R22's degree for each alpha is |L| or the size
  of a closure holding |L| residues, with five.  So only R14, R17 and R19
  run.
- Uniform: L is the q - 1 residues other than r, and R19 has three
  hypotheses.  R18's `closure_length_bound(pp, q - 1)` is q - 1, so R18
  ties R19 with four.  R14's cap, min(2^(q-2), (1 + (q-2)/k)^k), is at
  least q - 1 (Bernoulli), R15 sums to 2(q - 1), and R22's only alpha is
  r, whose plain roots are all q - 1 nonzero residues, read in column n;
  each has four or five hypotheses.  So only R16, R17 and R19 can come
  first, and none reads a residue: R17 needs |L| = q - 1 and L an
  interval modulo q, which the complement of one residue always is, and
  R19 needs nothing.  The reading's L is therefore the range
  r+1..r+q-1, one integer per residue other than r, never a list.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from functools import lru_cache, partial
from math import comb
from operator import add

from .closure import IntervalL, closure_length_bound, q_closure
from .families import _KINDS, ConstraintSpec, Kind
from .padic import (
    PrimePower,
    _lucas_nondivisible,
    _text,
    _vp_int,
    _written_q,
    is_prime,
    vp_factorial,
)
from .seppoly import (
    FactoredIntPoly,
    check_separation,
    degree_upper_bound,
    min_valuation_over_class,
    separates,
)

__all__ = [
    "BinomSum",
    "BoundCertificate",
    "SeparationFailure",
    "binom_sum",
    "best_bound",
    "bound_from_seppoly",
]


@dataclass(frozen=True)
class BinomSum:
    """Descriptor of sum of C(n, i) or C(n-1, i) for i in [lower, upper],
    with indices clamped into the column's valid range when evaluating."""

    lower: int
    upper: int
    column: str  # "n" or "n-1"
    value: int


# Column sums are memoized on the clamped span, so a repeated one costs a
# lookup; the bound keeps a long-running process's memory flat.  One pass of
# the sweeps reads a few hundred distinct spans.
@lru_cache(maxsize=1 << 10)
def _column_sum(width: int, lo: int, hi: int) -> int:
    """Sum of C(width, i) for i in [lo, hi], where 0 <= lo <= hi <= width."""
    if 2 * (hi - lo + 1) > width + 1:
        # more than half the row: 2^width less the two tails, the upper one
        # read from the lower end as C(width, i) = C(width, width - i)
        return 2**width - sum(_column_sum(width, 0, t - 1) for t in (lo, width - hi) if t)
    c = value = comb(width, lo)
    for j in range(lo + 1, hi + 1):
        c = c * (width - j + 1) // j
        value += c
    return value


def binom_sum(n: int, lower: int, upper: int, column: str = "n") -> BinomSum:
    if column not in ("n", "n-1"):
        raise ValueError(f"unknown column {column!r}")
    width = n if column == "n" else n - 1
    lo = max(lower, 0)
    hi = min(upper, width)
    return BinomSum(lower, upper, column, _column_sum(width, lo, hi) if lo <= hi else 0)


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


# --- contexts, rule records and the certificate builder --------------------


def _kind_hyp(ctx: _Ctx) -> str:
    """The kind's wording in `families._KINDS`: the plain one as it is, the
    modular one with q and the uniform residue filled in."""
    kd = _KINDS[ctx.kind]
    if ctx.pp is None:
        return kd.plain
    return kd.modular.format(q=ctx.q_text, r=None if ctx.residue is None else _text(ctx.residue))


def _close_hyp(ctx: _Ctx) -> str:
    """The kind hypothesis of the close-Sperner rules R11 and R12."""
    if ctx.kind is Kind.CLOSE_SPERNER:
        return ctx.kind_hyp
    return "family is L-differencing Sperner, hence L-close Sperner"


@dataclass
class _Ctx:
    kind: Kind
    n: int
    # sorted, distinct, nonempty; residues when pp is set, but for the
    # uniform reading the range r+1..r+q-1, one integer per residue other than r
    L: tuple[int, ...] | range
    pp: PrimePower | None
    lift_note: str | None = None  # a lifted or uniform reading, stated last
    residue: int | None = None  # the intersecting-uniform residue
    # read by several rules, so computed once per context:
    q_text: int | str | None = field(init=False)  # q as the texts write it
    kind_hyp: str = field(init=False)
    interval: IntervalL | None = field(init=False)  # the plain interval equal to L
    mod_interval: int | None = field(init=False)  # |L| if L is an interval modulo q

    def __post_init__(self):
        L, span = self.L, self.L[-1] - self.L[0] + 1
        # a range's len stops at sys.maxsize, and the uniform reading at
        # q = 2^64 holds q - 1 integers
        s = span if isinstance(L, range) else len(L)
        self.q_text = None if self.pp is None else _written_q(self.pp)
        self.kind_hyp = _kind_hyp(self)
        self.interval = IntervalL(L[0], L[-1]) if L[0] >= 1 and span == s else None
        # L is an interval modulo q, wrap-around allowed, when it is a plain
        # interval or runs 0..a-1 and then on from L[a] up to q - 1; L[i] - i
        # never falls, so L[i] == i exactly on the prefix i < a (and a < s
        # unless L = 0..s-1, a plain interval)
        self.mod_interval = None
        if self.pp is not None:
            if span == s:
                self.mod_interval = s
            elif L[-1] == self.pp.q - 1:
                a = bisect_left(range(s), 1, key=lambda i: L[i] - i)
                if L[-1] - L[a] + 1 == s - a:
                    self.mod_interval = s


@dataclass(frozen=True)
class _Modulus:
    """A rule's condition on the modulus p^k: the exponent k it needs
    (None for any) and its wording in a context."""

    k: int | None
    wording: Callable[[_Ctx], str]


_PRIME_POWER = _Modulus(None, lambda ctx: f"modulus {ctx.q_text} is a prime power")
_PRIME = _Modulus(1, lambda ctx: f"modulus {ctx.pp.p} is prime")
# L never holds a multiple of p here: a modular Hamming L lies in [1, q-1],
# and a lifted p exceeds max(L).
_PRIME_AVOIDING_L = _Modulus(1, lambda ctx: f"modulus {ctx.pp.p} is prime and L avoids its multiples")


@dataclass(frozen=True)
class _Rule:
    """One theorem of the portfolio.  `own(ctx)` yields, per certificate
    the rule grants, its own hypothesis texts, its bound and its evidence
    (or None).  `modulus` is None for the rules read without a modulus;
    `close` marks the rules that read the family as close-Sperner."""

    theorem_id: str
    modulus: _Modulus | None
    own: Callable[[_Ctx], Iterator[tuple[tuple[str, ...], BinomSum, dict | None]]]
    close: bool = False


def _certificate(ctx: _Ctx, rule: _Rule, texts, bound: BinomSum, aux) -> BoundCertificate:
    """Every certificate, in one order: the kind hypothesis, the modulus
    hypothesis, the rule's own texts, then the lifted or uniform note."""
    hyps = [_close_hyp(ctx) if rule.close else ctx.kind_hyp]
    if rule.modulus is not None:
        hyps.append(rule.modulus.wording(ctx))
    hyps += texts
    if ctx.lift_note is not None:
        hyps.append(ctx.lift_note)
    return BoundCertificate(rule.theorem_id, tuple([(t, True) for t in hyps]), bound, aux)


# --- difference-Sperner rules (modular) ------------------------------------


def _r2(ctx: _Ctx):
    yield (f"L within [1, {ctx.pp.p - 1}]",), binom_sum(ctx.n, 0, len(ctx.L), "n-1"), None


def _r4(ctx: _Ctx):
    iv = ctx.interval
    if iv is not None and _lucas_nondivisible(ctx.pp.p, iv.hi, iv.size):
        b, s = iv.hi, iv.size
        texts = (f"L is the interval {iv}", f"{ctx.pp.p} does not divide C({_text(b)}, {_text(s)})")
        yield texts, binom_sum(ctx.n, 0, s, "n-1"), {"b": b, "s": s}


def _r5(ctx: _Ctx):
    # L holds sorted distinct residues in [1, q-1], so its size decides
    q = ctx.pp.q
    if len(ctx.L) == q - 1:
        texts = (f"L = [1, {_written_q(ctx.pp, 1)}], the full nonzero residue range",)
        yield texts, binom_sum(ctx.n, 0, q - 1, "n-1"), None


def _r6(ctx: _Ctx):
    # L is sorted and distinct: an arithmetic progression of positive
    # integers when every step is the first one (1 for a singleton)
    L, s = ctx.L, len(ctx.L)
    a, d = L[0], (L[1] - L[0] if s > 1 else 1)
    if a < 1 or any(y - x != d for x, y in zip(L, L[1:])):
        return
    p, k = ctx.pp.p, ctx.pp.k
    lhs = sum(_vp_int(p, ell) for ell in ctx.L)
    vd = _vp_int(p, d)
    rhs = max((s - 1) * vd + k, s * vd + vp_factorial(p, s) + 1)
    if lhs < rhs:
        texts = (
            f"L is the arithmetic progression {_text(a)} + {_text(d)}*[0, {s - 1}]",
            f"sum of valuations {lhs} < max((s-1)v(d)+v(q), s v(d)+v(s!)+1) = {rhs}",
        )
        yield texts, binom_sum(ctx.n, 0, s, "n"), {"a": a, "d": d}


def _r7(ctx: _Ctx):
    k = ctx.pp.k
    total = sum(_vp_int(ctx.pp.p, ell) for ell in ctx.L)
    if total < k:
        texts = (f"sum of element valuations {total} < k = {k}",)
        yield texts, binom_sum(ctx.n, 0, len(ctx.L), "n"), None


def _r8(ctx: _Ctx):
    iv = ctx.interval
    if iv is None:
        return
    s = iv.size
    mu = closure_length_bound(ctx.pp, s)
    branches = {
        "closure": binom_sum(ctx.n, 0, mu, "n-1"),
        "doubling": binom_sum(ctx.n, 0, 2 ** (s - 1), "n"),
    }
    if ctx.pp.k == 2:
        branches["prime-square"] = binom_sum(ctx.n, 0, 2 * s - 1, "n")
    winner = min(branches, key=lambda name: branches[name].value)
    aux = {
        "branches": {name: b.value for name, b in branches.items()},
        "winner": winner,
        "closure_length_bound": mu,
    }
    yield (f"L is the interval {iv}",), branches[winner], aux


def _r9(ctx: _Ctx):
    s = len(ctx.L)
    degree = 2 ** (s - 1)
    written = _text(degree, lambda: f"2^{s - 1}")
    texts = (f"L within [1, {_written_q(ctx.pp, 1)}]", f"worst-case separating degree 2^(s-1) = {written}")
    yield texts, binom_sum(ctx.n, 0, degree, "n"), None


# R22's class minima are a list of q entries: at q = 2^22 a diff-Sperner
# `bound` takes about 0.7 s and 190 MB (2-core x86-64).  R22 needs q at most
# this, and no R22 choice builds a closure of more roots.
_MAX_TABLE_Q = 1 << 22


def _class_minima(pp: PrimePower, roots) -> list[int]:
    """The list M over c in [0, q-1] of the sum of min(v_p(c - r), k) over
    the distinct residues `roots` in [0, q-1]: the minimum of v_p(g) over
    class c for the monic g with those roots, as a class holds at most one
    of them.  The sum is that over j = 1..k of #{r == c mod p^j}, so the
    roots' indicator is folded from mod p^k down to mod p, then the counts
    are summed back up, in O(q)."""
    p = pp.p
    counts = [0] * pp.q
    for r in roots:
        counts[r] = 1
    levels = []  # the roots counted mod p^k, p^(k-1), ..., p^2
    while len(counts) > p:
        levels.append(counts)
        width = len(counts) // p
        folded = counts[:width]
        for i in range(width, len(counts), width):
            folded = list(map(add, folded, counts[i : i + width]))
        counts = folded
    for level in reversed(levels):
        counts = list(map(add, counts * p, level))
    return counts


def _r22_column(kind: Kind, shifted: bool) -> str:
    # the shifted-condition column upgrade is only sound in the
    # difference-Sperner setting (see the note in _r21_prime)
    return "n-1" if shifted and kind is Kind.DIFF_SPERNER else "n"


def _r22_zero_own(ctx: _Ctx, g: FactoredIntPoly, v0: int, minus_ok, plus_ok, label=None):
    """R22's own texts, bound and evidence for the difference and Hamming
    kinds from a polynomial g separating 0 from L modulo q, v0 = v_p(g(0))
    and the two shifted side conditions; `label` names g's candidate, if
    any."""
    column = _r22_column(ctx.kind, minus_ok or plus_ok)
    texts = [] if label is None else [f"candidate roots from {label}"]
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
    return texts, binom_sum(ctx.n, 0, g.degree, column), aux


def _r22_plain(minimum: Callable[[int], int], L: tuple[int, ...], q: int):
    """(v0, minus_ok, plus_ok) for the monic polynomial g with the sorted
    residues L in [1, q-1] as roots, or None when g does not separate 0
    from L, given `minimum(c)`, g's minimum valuation over class c.  No
    root is 0 modulo q, so v_p(g) is constant on class 0: v0 = minimum(0)."""
    v0 = minimum(0)
    if not all(v0 < minimum(r) for r in L):
        return None
    return v0, all(v0 <= minimum(r - 1) for r in L), all(v0 <= minimum((r + 1) % q) for r in L)


def _r22_zero_choice(ctx: _Ctx, minimum: Callable[[int], int]):
    """R22's own texts, bound and evidence for the difference and Hamming
    kinds, given `minimum(c)`: the minimum of v_p(g_L) over class c, g_L
    the monic polynomial with the plain residues L as roots, which
    `_r22_plain` judges.

    The other candidate, the closure C of L's hull, is not judged: it
    separates with v0 = v_p(|C|!) and both shifted conditions (see the
    module docstring).  A higher degree with the n-1 column can beat a
    lower one without it, so C is taken whenever its bound is below the
    plain residues', and always when they do not separate; the earlier
    wins a tie.  A closure of more than `_MAX_TABLE_Q` roots is never
    built: the plain residues are kept if they separate, and otherwise a
    ValueError names the closure.  Only the checker meets it, above
    q = 2^22, where the portfolio's R22 abstains."""
    plain = _r22_plain(minimum, ctx.L, ctx.pp.q)
    closed = q_closure(ctx.pp, IntervalL(ctx.L[0], ctx.L[-1]))
    if plain is not None:
        bound = binom_sum(ctx.n, 0, len(ctx.L), _r22_column(ctx.kind, plain[1] or plain[2]))
        closed_bound = binom_sum(ctx.n, 0, closed.size, _r22_column(ctx.kind, True))
        if closed.size > _MAX_TABLE_Q or closed_bound.value >= bound.value:
            return _r22_zero_own(ctx, FactoredIntPoly(1, ctx.L), *plain, "given residues")
    elif closed.size > _MAX_TABLE_Q:
        raise ValueError(
            f"the given residues do not separate 0 from L modulo {_written_q(ctx.pp)}, and their closed "
            f"superinterval {closed} has {_text(closed.size)} roots, "
            f"above the limit {_MAX_TABLE_Q}"
        )
    g = FactoredIntPoly(1, tuple(range(closed.lo, closed.hi + 1)))
    v0 = vp_factorial(ctx.pp.p, closed.size)
    return _r22_zero_own(ctx, g, v0, True, True, f"closed superinterval {closed}")



# --- non-modular difference / close-Sperner rules ---------------------------


def _r10(ctx: _Ctx):
    s = len(ctx.L)
    if ctx.L == tuple(range(1, s + 1)) and ctx.n + 2 <= 3 * s and 2 * s <= ctx.n:
        texts = (f"L = [{s}]", f"(n+2)/3 <= s <= n/2 with n = {ctx.n}, s = {s}")
        yield texts, binom_sum(ctx.n, 3 * s - ctx.n - 1, s, "n-1"), None


def _r11(ctx: _Ctx):
    s = len(ctx.L)
    texts = ("L is a set of positive integers",)
    yield texts, binom_sum(ctx.n, 0, s, "n"), None
    if s == 1:
        yield texts + ("|L| = 1",), binom_sum(ctx.n, 1, 1, "n"), None


def _r12(ctx: _Ctx):
    s = len(ctx.L)
    if ctx.L == tuple(range(1, s + 1)) and ctx.n + 1 <= 3 * s and 2 * s <= ctx.n:
        texts = (f"L = [{s}]", f"(n+1)/3 <= s <= n/2 with n = {ctx.n}, s = {s}")
        yield texts, binom_sum(ctx.n, 3 * s - ctx.n, s, "n"), None


# --- intersecting rules ------------------------------------------------------


def _r13(ctx: _Ctx):
    if ctx.L[0] >= 1:
        texts = ("L is a set of positive integers", "modulus-free Snevily bound")
        yield texts, binom_sum(ctx.n, 0, len(ctx.L), "n-1"), None


def _r14(ctx: _Ctx):
    s, k = len(ctx.L), ctx.pp.k
    cap = degree_upper_bound(s, k)
    written = _text(cap, lambda: f"min(2^{s - 1}, floor({k + s - 1}^{k} / {k}^{k}))")
    texts = (f"worst-case separating degree bound {written}",)
    yield texts, binom_sum(ctx.n, 0, cap, "n"), {"degree_cap": cap}


def _r15(ctx: _Ctx):
    s, q = len(ctx.L), ctx.pp.q
    if ctx.L == tuple(range(s)) and s < q:
        texts = (f"L = {{0, ..., {s - 1}}}", f"s = {s} < q = {ctx.q_text}")
        yield texts, binom_sum(ctx.n, 0, 2 * s, "n"), None


def _r17(ctx: _Ctx):
    s, q = ctx.mod_interval, ctx.pp.q
    if s is not None and s <= ctx.n - q + 2:
        texts = (
            "L is an interval in the modulo-q sense",
            f"|L| = {s} <= n - q + 2 = {ctx.n - q + 2}",
        )
        yield texts, binom_sum(ctx.n, s, q - 1, "n"), None


def _r18(ctx: _Ctx):
    s = ctx.mod_interval
    if s is not None and s <= ctx.pp.q - 1:
        mu = closure_length_bound(ctx.pp, s)
        texts = ("L is an interval in the modulo-q sense",)
        yield texts, binom_sum(ctx.n, 0, mu, "n"), {"closure_length_bound": mu}


def _r19(ctx: _Ctx):
    yield (), binom_sum(ctx.n, 0, ctx.pp.q - 1, "n"), None


def _r22_per_alpha_own(ctx: _Ctx, degrees: dict[int, int], wording: str):
    """R22's own texts, bound and evidence for the intersecting kinds from
    the degrees of the polynomials separating each residue alpha outside L
    from L."""
    worst = max(degrees.values(), default=0)
    texts = (wording, f"maximum degree used is {worst}")
    return texts, binom_sum(ctx.n, 0, worst, "n"), {"per_alpha_degrees": degrees}


def _r22_per_alpha_choice(ctx: _Ctx, minimum: Callable[[int], int]) -> dict[int, int]:
    """The degree of R22's choice for each residue alpha outside an
    intersecting L, given `minimum(c)`: the minimum of v_p(g_L) over class
    c, g_L the monic polynomial with roots L.

    The polynomial h with the plain roots (alpha - L) mod q reflects g_L,
    and negation keeps valuations: v_p(h(0)) is g_L's minimum over class
    alpha, and h's class minima are g_L's over L, the same for every
    alpha.  So alpha takes degree |L| when g_L's class-alpha minimum is
    below its minimum over every class of L.  Otherwise it takes the size
    of the closure of its reflected hull, which always separates (see the
    module docstring).  That hull of (alpha - L) mod q runs from alpha
    less L's nearest residue below alpha to alpha less its nearest above,
    each read cyclically: a bisection, not a pass over L."""
    pp, L, q = ctx.pp, ctx.L, ctx.pp.q
    Lset = set(L)
    plain = min(map(minimum, L))

    def closure_size(alpha: int) -> int:
        at = bisect_left(L, alpha)
        below = L[at - 1] if at else L[-1] - q
        above = L[at] if at < len(L) else L[0] + q
        return q_closure(pp, IntervalL(alpha - below, alpha - above + q)).size

    return {
        alpha: len(L) if minimum(alpha) < plain else closure_size(alpha)
        for alpha in range(q)
        if alpha not in Lset
    }


def _r22(ctx: _Ctx):
    # g_L's class minima read from one list
    if ctx.pp.q > _MAX_TABLE_Q:
        return
    minimum = _class_minima(ctx.pp, ctx.L).__getitem__
    if ctx.kind is not Kind.INTERSECTING:
        yield _r22_zero_choice(ctx, minimum)
    elif degrees := _r22_per_alpha_choice(ctx, minimum):
        wording = "a separating polynomial was constructed for every residue outside L"
        yield _r22_per_alpha_own(ctx, degrees, wording)


# --- uniform intersecting ----------------------------------------------------


def _r16(ctx: _Ctx):
    q = ctx.pp.q
    if 2 * (q - 1) <= ctx.n:
        texts = (f"2(q-1) = {2 * (q - 1)} <= n = {ctx.n}",)
        yield texts, binom_sum(ctx.n, q - 1, q - 1, "n"), None


# --- Hamming rules -----------------------------------------------------------


def _r21_nonmodular(ctx: _Ctx):
    yield ("no modulus (Delsarte bound)",), binom_sum(ctx.n, 0, len(ctx.L), "n"), None


def _r21_prime(ctx: _Ctx):
    # Note: the n-1 column is NOT sound in the Hamming setting even at a
    # prime modulus.  The 8 even-weight subsets of [4] have pairwise
    # symmetric differences in {2, 4}, both nonzero mod 3, beating
    # sum of C(3, i) for i <= 2 = 7.  Only the full-column bound holds.
    yield (), binom_sum(ctx.n, 0, len(ctx.L), "n"), None


def _r21_initial_interval(ctx: _Ctx):
    s = len(ctx.L)
    if ctx.L == tuple(range(1, s + 1)):
        yield (f"L = [{s}]",), binom_sum(ctx.n, 0, s, "n"), None


# --- the engine --------------------------------------------------------------

_R2 = _Rule("R2", _PRIME, _r2)
_R11 = _Rule("R11", None, _r11, close=True)
_R12 = _Rule("R12", None, _r12, close=True)
_R14 = _Rule("R14", _PRIME_POWER, _r14)
_R16 = _Rule("R16", _PRIME_POWER, _r16)
_R17 = _Rule("R17", _PRIME_POWER, _r17)
_R19 = _Rule("R19", _PRIME_POWER, _r19)
_R22 = _Rule("R22", _PRIME_POWER, _r22)

# Per kind: the rules read without a modulus, the rules read modulo the
# spec's own q, and those of them that can come first when a non-modular
# spec is lifted to the prime of `_lifted_ctx` (the module docstring gives
# the proofs).  `best_bound` sorts by `_cert_key`, (value, number of
# hypotheses, rule number), so the order here breaks a tie only between
# certificates that agree on all three: records of one number, such as
# the R21 records.
_PORTFOLIO = {
    Kind.DIFF_SPERNER: (
        (_Rule("R10", None, _r10), _R11, _R12),
        (
            _R2,
            _Rule("R4", _PRIME_POWER, _r4),
            _Rule("R5", _PRIME_POWER, _r5),
            _Rule("R6", _PRIME_POWER, _r6),
            _Rule("R7", _PRIME_POWER, _r7),
            _Rule("R8", _PRIME_POWER, _r8),
            _Rule("R9", _PRIME_POWER, _r9),
            _R22,
        ),
        (_R2,),
    ),
    Kind.CLOSE_SPERNER: ((_R11, _R12), (), ()),
    Kind.INTERSECTING: (
        (_Rule("R13", None, _r13),),
        (
            _R14,
            _Rule("R15", _PRIME_POWER, _r15),
            _R17,
            _Rule("R18", _PRIME_POWER, _r18),
            _R19,
            _R22,
        ),
        (_R14, _R17, _R19),
    ),
    Kind.HAMMING: (
        (_Rule("R21", None, _r21_nonmodular),),
        (
            _Rule("R21", _PRIME_AVOIDING_L, _r21_prime),
            _Rule("R21", _PRIME_POWER, _r21_initial_interval),
            _R22,
        ),
        (),
    ),
}


def _lifted_ctx(kind: Kind, n: int, L: tuple[int, ...]) -> _Ctx:
    p = _next_prime(max(max(L), n))
    note = f"non-modular constraint read modulo p = {p}, the smallest prime exceeding max(L) and n"
    return _Ctx(kind, n, L, PrimePower(p, 1), note)


def _run(ctx: _Ctx, rules) -> list[BoundCertificate]:
    """The certificates of every rule whose modulus condition ctx meets."""
    return [
        _certificate(ctx, rule, *own)
        for rule in rules
        if rule.modulus is None or rule.modulus.k in (None, ctx.pp.k)
        for own in rule.own(ctx)
    ]


def _applicable(spec: ConstraintSpec) -> list[BoundCertificate]:
    kind, n, pp = spec.kind, spec.n, spec.modulus
    if kind is Kind.INTERSECTING_UNIFORM:
        r = spec.uniform_residue
        L = range(r + 1, r + pp.q)  # the residues other than r, as a cyclic interval
        written = _text(r)
        note = (
            f"uniform residue {written} read as L-avoiding L-intersecting"
            f" with L = all residues except {written}"
        )
        mapped = _Ctx(Kind.INTERSECTING, n, L, pp, note)
        return _run(_Ctx(kind, n, L, pp, residue=r), (_R16,)) + _run(mapped, (_R17, _R19))
    if kind not in _PORTFOLIO:
        raise ValueError(f"no bound rules for kind {kind.value}")
    if not spec.L:
        raise ValueError("empty L is rejected by the bound engine")
    direct, modular, lifted = _PORTFOLIO[kind]
    L = tuple(sorted(spec.L))
    if pp is not None:
        return _run(_Ctx(kind, n, L, pp), modular)
    certs = _run(_Ctx(kind, n, L, None), direct)
    if lifted:
        certs += _run(_lifted_ctx(kind, n, L), lifted)
    return certs


def best_bound(spec: ConstraintSpec) -> tuple[BoundCertificate, list[BoundCertificate]]:
    """Minimum certificate plus the full applicable portfolio, sorted by
    (bound value, hypothesis count, rule number)."""
    certs = sorted(_applicable(spec), key=_cert_key)
    if not certs:
        # only a Hamming spec modulo p^k, k >= 2, above R22's limit with L
        # not of the form [s] meets no rule
        raise ValueError(
            f"no bound rule applies: q = {_written_q(spec.modulus)} is above {_MAX_TABLE_Q}, the limit of R22"
        )
    return certs[0], certs


# --- explicit separating-polynomial bounds -----------------------------------


def _separation_failure(report, pp: PrimePower, lead: str) -> SeparationFailure:
    """The failure a failed `check_separation` report raises: its first
    failing class, named after `lead`, with the report attached."""
    for ell, minimum in sorted(report.class_minima.items()):
        if not report.v0 < minimum:
            return SeparationFailure(f"{lead} class {_text(ell)} (mod {_written_q(pp)})", ell, report)
    raise AssertionError("no failing class in a separating report")


def bound_from_seppoly(
    spec: ConstraintSpec,
    g: FactoredIntPoly | None = None,
    per_alpha: dict[int, FactoredIntPoly] | None = None,
) -> BoundCertificate:
    """R22's certificate from separating polynomials, checked by `seppoly`'s
    digit recursion rather than the portfolio's list of class minima.

    Difference/Hamming kinds need one polynomial g separating 0 from L mod q;
    a shifted separation upgrades the column to n-1.  Intersecting kinds
    need one polynomial per residue alpha outside L, and the bound uses the
    maximum degree.  With no polynomial given, the checker makes R22's own
    choice from g_L's class minima by `min_valuation_over_class`, g_L the
    monic polynomial with roots L, and builds no `SeparationReport`:
    `_r22_zero_choice` for g, so the certificate is `best_bound`'s R22,
    candidate label included, and `_r22_per_alpha_choice` for the alphas,
    |L| where the plain reflected roots separate, else the size of the
    reflected closure of their hull.  Neither choice judges a closure: it
    separates by the module docstring's proof (checked through the digit
    recursion on every closure at q <= 49 in `TestClosureSeparates`).  A
    given g is judged by `check_separation`, and given per-alpha
    polynomials each by `separates` in alpha's frame.  Raises
    SeparationFailure naming the failing class when a polynomial does not
    separate, and naming alpha when a per-alpha polynomial is missing, or
    separates but has a root congruent to alpha, and ValueError for a
    kind without R22 (before its modulus or L is read), a spec without a
    modulus, an empty L, a polynomial argument the kind does not read, an
    intersecting q above 2^22, whose residues outside L are not listed, or
    a default choice that would need a closure of more than 2^22 roots.
    For given polynomials the certificate is R22's, as `best_bound` would
    state it for the same polynomials without a candidate label.
    """
    if _R22 not in _PORTFOLIO.get(spec.kind, ((), (), ()))[1]:
        raise ValueError(f"bound_from_seppoly does not apply to kind {spec.kind.value}")
    if spec.modulus is None:
        raise ValueError("bound_from_seppoly needs a modular constraint")
    pp = spec.modulus
    L = tuple(sorted(spec.L))
    if not L:
        raise ValueError("empty L is rejected")
    ctx = _Ctx(spec.kind, spec.n, L, pp)
    # g_L's class minima by the digit recursion, never the list
    minimum = partial(min_valuation_over_class, pp, FactoredIntPoly(1, L))
    if spec.kind is not Kind.INTERSECTING:
        if per_alpha is not None:
            raise ValueError(f"kind {spec.kind.value} takes one polynomial g, not per_alpha")
        if g is None:
            return _certificate(ctx, _R22, *_r22_zero_choice(ctx, minimum))
        rep = check_separation(pp, g, 0, L)
        if not rep.separates:
            raise _separation_failure(rep, pp, "polynomial does not separate 0 from")
        own = _r22_zero_own(ctx, g, rep.v0, rep.shifted_minus_ok, rep.shifted_plus_ok)
        return _certificate(ctx, _R22, *own)
    q = pp.q
    if g is not None:
        raise ValueError("kind intersecting takes per_alpha polynomials, not one g")
    if q > _MAX_TABLE_Q:
        raise ValueError(
            f"q = {_written_q(pp)} is above {_MAX_TABLE_Q}, the limit of the residues to list outside L"
        )
    if per_alpha is None:
        degrees = _r22_per_alpha_choice(ctx, minimum)
    else:
        Lset = set(L)
        alphas = [a for a in range(q) if a not in Lset]
        missing = [a for a in alphas if a not in per_alpha]
        if missing:
            raise SeparationFailure(f"no polynomial supplied for alpha = {missing[0]}", missing[0])
        degrees = {}
        for alpha in alphas:
            h = per_alpha[alpha]
            if not separates(pp, h, alpha, L):
                rep = check_separation(pp, h, alpha, L)
                raise _separation_failure(rep, pp, f"polynomial for alpha = {alpha} fails on")
            # `separates` reads h(alpha) alone, but the argument needs
            # v_p(h(u)) for every u == alpha, and such a root zeroes h there
            if any((r - alpha) % q == 0 for r in h.roots):
                raise SeparationFailure(
                    f"polynomial for alpha = {alpha} has a root congruent to {alpha} (mod {q})",
                    alpha,
                )
            degrees[alpha] = h.degree
    wording = "every residue outside L has a verified separating polynomial"
    return _certificate(ctx, _R22, *_r22_per_alpha_own(ctx, degrees, wording))
