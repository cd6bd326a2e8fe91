#!/usr/bin/env python3
"""Digest of every certificate the bound engine emits on the benchmark's
bound specs, to show that a change to the engine leaves them identical.

The specs are the `bound-table` keys at every ground-set size the benchmark
may pick, then the whole `bound-random` pool, both as `perfbench/workloads.py`
defines them.  For each spec the script hashes `repr` of the full sorted
portfolio that `best_bound` returns, so a change to any certificate's value,
rule, hypothesis wording or auxiliary evidence changes the digest.  Run it
on two checkouts and compare the printed lines.  `best-sha256` hashes the
best certificate of each spec alone, so a change that drops a rule which
never wins changes `sha256` but leaves `best-sha256` as it was.

After the digest it prints how often the specs called each function of
COUNTED, one `calls <module>.<name> <count>` line each: counts that do not
depend on the machine, taken by `count_calls`, which wraps the functions
at every name the `qsperner` package and its modules hold them by, with
`replay_digest.rebound`, for its `with` block only: the portfolio pass.

Last it prints `seppoly-sha256`, a digest of the certificate that R22's
checker, `bound_from_seppoly`, gives on every modular difference, Hamming
and intersecting spec among them, each by one call with its default
polynomials: R22's own choice, made by the checker from `seppoly`'s
digit recursion, so that wherever R22 fires the certificate is
`best_bound`'s R22 (for the intersecting kind, its bound and evidence;
the wording says "verified" where `best_bound` says "constructed").

Then it prints the large-q stratum, `large_q_specs`, on three lines of
its own: `large-q-specs`, `large-q-sha256` and `large-q-seppoly-sha256`.
It takes every modular kind at prime powers from 2^10 to 2^22 and just
above, with short intervals, L = 0..4, two far residues and the odd
residues at q = 1024, and n in {30, 10^3, 10^5}, where the benchmark's
specs stop at q = 49.  The two digests hash `repr` of each spec's
portfolio and of its checker certificate, or the message of the
`ValueError` by which the library refuses the spec.  The uniform rows
above 2^22 answer by R19: the uniform reading lists no residues, and it
refused those rows while it listed its q - 1.  The printed call counts
leave the stratum out.

`portfolio_digests` computes the first two digests for any specs,
`seppoly_digest` the third and `large_q_digests` the stratum's; the test
suite pins them, and the call counts, through these on the `bound-table`
keys at n = 24 and on a slice of the stratum.

Usage:
  python3 scripts/cert_digest.py
"""

import contextlib
import hashlib
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # leave perfbench/ as checked out
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from qsperner.bounds import best_bound, bound_from_seppoly
from qsperner.cli import _long_ints
from qsperner.families import Kind
from replay_digest import rebound
from workloads import N_CHOICES, make_spec, random_strata, table_strata

COUNTED = (
    ("seppoly", "check_separation"),
    ("seppoly", "separates"),
    ("seppoly", "min_valuation_over_class"),
    ("padic", "_vp_int"),
    ("padic", "_lucas_nondivisible"),
    ("closure", "q_closure"),
    ("closure", "is_q_closed"),
)


@contextlib.contextmanager
def count_calls():
    """For the `with` block, count the calls to each COUNTED function made
    at any name by which `qsperner` or one of its modules binds it; the
    block gets the counter, keyed `<module>.<name>`."""
    calls = Counter()
    wrappers = {}
    for home, name in COUNTED:
        original = getattr(sys.modules[f"qsperner.{home}"], name)

        def wrapper(*args, _original=original, _key=f"{home}.{name}", **kwargs):
            calls[_key] += 1
            return _original(*args, **kwargs)

        wrappers[original] = wrapper
    with rebound(wrappers):
        yield calls


def specs():
    for stratum in table_strata():
        for kind, q, L, r in stratum:
            for n in N_CHOICES:
                yield make_spec(kind, n, q, L, r)
    for stratum in random_strata():
        for kind, q, L, n in stratum:
            yield make_spec(kind, n, q, L)


def portfolio_digests(specs) -> tuple[int, str, str]:
    """The number of specs, then `sha256` and `best-sha256` over them: the
    hashes of `repr` of each spec's sorted portfolio and of its best
    certificate, in order."""
    digest, best_digest = hashlib.sha256(), hashlib.sha256()
    count = 0
    for spec in specs:
        best, certs = best_bound(spec)
        digest.update(repr(certs).encode() + b"\n")
        best_digest.update(repr(best).encode() + b"\n")
        count += 1
    return count, digest.hexdigest(), best_digest.hexdigest()


def seppoly_digest(specs) -> str:
    """`seppoly-sha256` over specs: the hash of `repr` of
    `bound_from_seppoly`'s certificate, with its default polynomials, on
    each modular difference, Hamming and intersecting spec among them, in
    order."""
    digest = hashlib.sha256()
    for spec in specs:
        if spec.modulus is not None and spec.kind is not Kind.INTERSECTING_UNIFORM:
            digest.update(repr(bound_from_seppoly(spec)).encode() + b"\n")
    return digest.hexdigest()


# The large-q stratum: prime powers from 2^10 to 2^22 (R22's limit, where
# its list of class minima holds q entries), then the prime just above it
# and 2^23.
LARGE_QS = (1024, 2187, 3125, 65536, 1 << 22, 4194319, 1 << 23)
LARGE_NS = (30, 10**3, 10**5)


def large_q_specs():
    """The stratum as make_spec arguments (kind, n, q, L, r).  Up to
    q = 65536 every kind takes each of its L shapes at every n: the
    difference and Hamming kinds a short interval, two far residues and,
    at q = 1024, the odd residues; the intersecting kind those and
    L = 0..4.  From 2^22 on, where R22's list of class minima holds q
    entries, the difference and Hamming kinds take one shape per n, the
    intersecting kind L = 0..4 alone and the uniform kind n = 10^3 alone.
    Last comes the intersecting row q = 1024, L = 0..249, n = 40."""
    for q in LARGE_QS:
        short, far = range(1, 4), (1, q // 2 + 1)
        shapes = [short, far, range(1, q, 2)] if q == 1024 else [short, far]
        if q <= 65536:
            zero = [(L, n) for L in shapes for n in LARGE_NS]
            per_alpha = [(L, n) for L in (*shapes, range(5)) for n in LARGE_NS]
            ns = LARGE_NS
        else:
            zero = list(zip((short, far, short), LARGE_NS))
            per_alpha = [(range(5), n) for n in LARGE_NS]
            ns = (10**3,)
        for kind, pairs in (("diff-sperner", zero), ("hamming", zero), ("intersecting", per_alpha)):
            for L, n in pairs:
                yield kind, n, q, tuple(L), None
        for n in ns:
            yield "intersecting-uniform", n, q, (), 1
    yield "intersecting", 40, 1024, tuple(range(250)), None


def _answer(call) -> bytes:
    """`repr` of call(), or the message of the ValueError it raises."""
    try:
        text = repr(call())
    except ValueError as exc:
        text = f"ValueError: {exc}"
    return text.encode() + b"\n"


def large_q_digests(entries) -> tuple[int, str, str]:
    """The number of entries, then `large-q-sha256` and
    `large-q-seppoly-sha256` over them: the hashes of each entry's sorted
    portfolio and of `bound_from_seppoly`'s certificate with its default
    polynomials, each in order, where a refused spec contributes its
    message.  A certificate at n = 10^5 has values past Python's default
    limit on the digits of an int's `repr`, so the limit is lifted for the
    call, as the CLI lifts it to write a bound."""
    digest, checker = hashlib.sha256(), hashlib.sha256()
    count = 0
    with _long_ints():
        for entry in entries:
            digest.update(_answer(lambda: best_bound(make_spec(*entry))[1]))
            checker.update(_answer(lambda: bound_from_seppoly(make_spec(*entry))))
            count += 1
    return count, digest.hexdigest(), checker.hexdigest()


def main() -> int:
    with count_calls() as calls:
        count, portfolios, bests = portfolio_digests(specs())
    print(f"specs {count}")
    print(f"sha256 {portfolios}")
    print(f"best-sha256 {bests}")
    for home, name in COUNTED:
        print(f"calls {home}.{name} {calls[f'{home}.{name}']}")
    print(f"seppoly-sha256 {seppoly_digest(specs())}")
    count, portfolios, certificates = large_q_digests(large_q_specs())
    print(f"large-q-specs {count}")
    print(f"large-q-sha256 {portfolios}")
    print(f"large-q-seppoly-sha256 {certificates}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
