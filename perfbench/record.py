"""Record the expected outputs that run.py checks every operation against.

    python3 perfbench/record.py [bound-table bound-random search-exact proof-replay]

Writes perfbench/data/<workload>.json.gz from the library in this
checkout's src/.  Run it only at a commit whose answers are the reference:
the benchmark then holds every later commit to them.  Takes a few minutes.

What is recorded: for bounds, the best certificate's theorem id and value
(not the portfolio); for searches, omega and the canonical witness, after
checking that every presentation of an instance gives the same answer;
for replays, rank, full_rank and pattern_ok (or satisfied), after checking
that relabelled mutations give the same answer.  Pushes are checked by
their properties and need no record.
"""

from __future__ import annotations

import gzip
import json
import random
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads as W  # noqa: E402
from qsperner import bounds, families  # noqa: E402
from qsperner.families import SetFamily  # noqa: E402


def _best(kind, n, q, L, r=None) -> str:
    best, _ = bounds.best_bound(W.make_spec(kind, n, q, L, r))
    return f"{best.theorem_id}:{best.bound.value}"


def record_bound_table() -> dict:
    return {
        W.spec_key(kind, q, L, r): [_best(kind, n, q, L, r) for n in W.N_CHOICES]
        for stratum in W.table_strata()
        for kind, q, L, r in stratum
    }


def record_bound_random() -> dict:
    return {
        W.spec_key(kind, q, L): _best(kind, n, q, L)
        for stratum in W.random_strata()
        for kind, q, L, n in stratum
    }


def record_search_exact() -> dict:
    out = {}
    for slot in W.SEARCH_SLOTS:
        n = slot[1]
        answers = set()
        for kind, q, L, r in W.presentations(*slot):
            res = families.max_family(W.make_spec(kind, n, q, L, r))
            if not res.exact:
                raise SystemExit(f"inexact search for {slot}")
            answers.add((res.max_size, res.witness.members))
        if len(answers) != 1:
            raise SystemExit(f"presentations of {slot} disagree: {answers}")
        omega, witness = answers.pop()
        out[W.search_key(slot)] = {"omega": omega, "witness": list(witness)}
    return out


def _replay(fam_id, n, members, argv, workdir: Path) -> dict:
    path = workdir / f"{fam_id}.txt"
    path.write_text(families.format_family(SetFamily(n, tuple(members))))
    doc = W._cli_json([argv[0], "--file", str(path), *argv[1:], "--json"])
    if W._doc_error(doc, argv[0]):
        raise SystemExit(f"{fam_id} {argv[0]}: {doc}")
    names = ("satisfied",) if argv[0] == "check" else ("rank", "full_rank", "pattern_ok")
    return {name: doc["payload"][name] for name in names}


def record_proof_replay() -> dict:
    out = {}
    workdir = HERE / "out" / "record"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for fam_id, n, members, cmds in W.proof_families(None):
            for cmd_id, argv in cmds:
                out[f"{fam_id}:{cmd_id}"] = _replay(fam_id, n, members, argv, workdir)
        # relabelled mutations must replay exactly like the recorded ones
        for seed in (1, 2):
            for fam_id, n, members, cmds in W.proof_families(random.Random(seed)):
                if fam_id.endswith("-mutated"):
                    for cmd_id, argv in cmds:
                        got = _replay(fam_id, n, members, argv, workdir)
                        if got != out[f"{fam_id}:{cmd_id}"]:
                            raise SystemExit(f"relabelled {fam_id} {cmd_id} gives {got}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return out


RECORDERS = {
    "bound-table": record_bound_table,
    "bound-random": record_bound_random,
    "search-exact": record_search_exact,
    "proof-replay": record_proof_replay,
}


def main(names: list[str]) -> None:
    W.DATA.mkdir(exist_ok=True)
    for name in names or RECORDERS:
        data = RECORDERS[name]()
        with gzip.GzipFile(W.DATA / f"{name}.json.gz", "wb", mtime=0) as fh:
            fh.write(json.dumps(data, sort_keys=True, separators=(",", ":")).encode())
        print(f"{name}: {len(data)} records", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
