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
depend on the machine, taken by wrapping the functions at every name the
`qsperner` modules hold them by, for the duration of this script only.

Last it prints `seppoly-sha256`, a digest of the certificate that R22's
checker, `bound_from_seppoly`, gives on every modular difference, Hamming
and intersecting spec among them, each by one call with its default
polynomials: R22's own choice, judged by the checker, so that wherever
R22 fires the certificate is `best_bound`'s R22 (for the intersecting
kind, its bound and evidence; the wording says "verified" where
`best_bound` says "constructed").

`portfolio_digests` computes the first two digests for any specs and
`seppoly_digest` the last; the test suite pins all three through them on
the `bound-table` keys at n = 24.

Usage:
  python3 scripts/cert_digest.py
"""

import hashlib
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # leave perfbench/ as checked out
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from qsperner.bounds import best_bound, bound_from_seppoly
from qsperner.families import Kind
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


def count_calls() -> Counter:
    """Wrap each COUNTED function wherever a qsperner module binds it;
    the returned counter fills as the wrappers are called."""
    calls = Counter()
    modules = [m for name, m in list(sys.modules.items()) if name.startswith("qsperner.")]
    for home, name in COUNTED:
        original = getattr(sys.modules[f"qsperner.{home}"], name)
        key = f"{home}.{name}"

        def wrapper(*args, _original=original, _key=key, **kwargs):
            calls[_key] += 1
            return _original(*args, **kwargs)

        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
    return calls


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


def main() -> int:
    calls = count_calls()
    count, portfolios, bests = portfolio_digests(specs())
    print(f"specs {count}")
    print(f"sha256 {portfolios}")
    print(f"best-sha256 {bests}")
    for home, name in COUNTED:
        print(f"calls {home}.{name} {calls[f'{home}.{name}']}")
    print(f"seppoly-sha256 {seppoly_digest(specs())}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
