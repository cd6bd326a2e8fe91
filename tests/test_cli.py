import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
from dataclasses import asdict, fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsperner import closure, families, polylab
from qsperner.bounds import best_bound, binom_sum, bound_from_seppoly
from qsperner.cli import (
    EXIT_BUDGET,
    EXIT_OK,
    EXIT_USAGE,
    UsageError,
    _build_parser,
    _long_ints,
    _parse_L,
    dispatch,
    main,
)
from qsperner.families import ConstraintSpec, Kind, SetFamily, format_family
from qsperner.padic import PrimePower
from qsperner.seppoly import FactoredIntPoly, check_separation


def run_json(capsys, argv):
    code = main(argv + ["--json"])
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == 1
    return code, doc


def _ints(doc):
    """Every int of a JSON document."""
    if isinstance(doc, dict):
        doc = list(doc.values())
    if isinstance(doc, list):
        return [v for item in doc for v in _ints(item)]
    return [doc] if type(doc) is int else []


class TestParseL:
    def test_comma_list(self):
        assert _parse_L("1,2,3", None) == [1, 2, 3]

    def test_interval(self):
        assert _parse_L("1..3", None) == [1, 2, 3]

    def test_wrap_interval(self):
        assert _parse_L("7..1@wrap", 9) == [7, 8, 0, 1]

    def test_wrap_needs_q(self):
        with pytest.raises(UsageError):
            _parse_L("7..1@wrap", None)

    def test_descending_needs_wrap(self):
        with pytest.raises(UsageError):
            _parse_L("3..1", 4)

    def test_garbage(self):
        with pytest.raises(UsageError):
            _parse_L("a,b", None)

    def test_wrap_interval_spans_at_most_q(self):
        # |hi - lo| < q, so no residue is read twice
        assert _parse_L("1..8@wrap", 8) == [1, 2, 3, 4, 5, 6, 7, 0]
        assert _parse_L("-1..3@wrap", 8) == [7, 0, 1, 2, 3]
        for text in ("1..9@wrap", "1..10@wrap", "9..1@wrap"):
            with pytest.raises(UsageError, match="spans more than q = 8 integers"):
                _parse_L(text, 8)

    def test_interval_size_limit(self):
        assert len(_parse_L("1..1000000", None)) == 10**6
        with pytest.raises(UsageError, match="has 1000001 elements, more than the limit of 1000000"):
            _parse_L("0..1000000", None)
        with pytest.raises(UsageError, match=f"has {2**40} elements"):
            _parse_L("1..0@wrap", 2**40)


class TestCommands:
    def test_bound_json_document(self, capsys):
        code, doc = run_json(
            capsys, ["bound", "--kind", "diff-sperner", "--q", "4", "--L", "1..3", "--n", "6"]
        )
        assert code == EXIT_OK
        assert doc["status"] == "ok"
        assert doc["payload"]["bound"] == 26
        assert doc["payload"]["theorem_id"] == "R5"
        assert doc["payload"]["certificates"]

    def test_mu(self, capsys):
        code, doc = run_json(capsys, ["mu", "--q", "9", "--s", "1"])
        assert code == EXIT_OK
        assert doc["payload"]["closure_length_bound"] == 3

    def test_search_close_sperner(self, capsys):
        code, doc = run_json(
            capsys, ["search", "--kind", "close-sperner", "--L", "1", "--n", "3"]
        )
        assert code == EXIT_OK
        assert doc["payload"]["max_size"] == 3
        assert doc["payload"]["witness"] == [[1], [2], [3]]
        assert doc["payload"]["exact"] is True
        stats = doc["payload"]["stats"]
        assert stats["vertices"] == 8
        # skew distance 1: the singletons, the pairs, and each singleton
        # with the pair avoiding it
        assert stats["edges"] == 9
        assert (
            stats["search_nodes"] + stats["restore_nodes"]
            == doc["payload"]["nodes_explored"]
        )
        assert stats["orbit_nodes"] >= 0 and stats["orbit_pruned"] >= 0

    def test_vp_infinity(self, capsys):
        code, doc = run_json(capsys, ["vp", "--p", "3", "--n", "0"])
        assert code == EXIT_OK
        assert doc["payload"]["valuation"] == "infinity"

    def test_binom(self, capsys):
        code, doc = run_json(capsys, ["binom", "--p", "2", "--a", "3", "--b", "3"])
        assert doc["payload"]["valuation"] == 2

    def test_digits(self, capsys):
        code, doc = run_json(capsys, ["digits", "--q", "8", "--s", "3"])
        assert doc["payload"]["digits"] == [0, 1, 1]

    def test_closure(self, capsys):
        code, doc = run_json(capsys, ["closure", "--q", "9", "--lo", "3", "--hi", "3"])
        assert doc["payload"]["length"] == 3
        assert doc["payload"]["closure"] == {"lo": 1, "hi": 3}

    def test_closure_at_a_large_prime_square(self, capsys):
        # 4294967291^2: factored from integer roots, not by trial division
        code, doc = run_json(capsys, ["closure", "--q", str(4294967291**2), "--lo", "5", "--hi", "6"])
        assert code == 0
        assert doc["payload"]["closure"] == {"lo": 5, "hi": 6}

    def test_bound_table_size_limit(self, capsys):
        """R22's list of class minima at 4294967291^2 would need q entries:
        R22 abstains before it is built, and the other rules answer."""
        q = 4294967291**2
        code, doc = run_json(capsys, ["bound", "--kind", "diff-sperner", "--q", str(q), "--L", "1,2", "--n", "20"])
        assert code == EXIT_OK
        assert doc["status"] == "ok"
        ids = [c["theorem_id"] for c in doc["payload"]["certificates"]]
        assert ids and "R22" not in ids

    @pytest.mark.parametrize(
        "argv",
        [
            ["--kind", "intersecting", "--L", "0,1"],
            ["--kind", "intersecting-uniform", "--uniform-residue", "0"],
        ],
        ids=["intersecting", "intersecting-uniform"],
    )
    def test_bound_intersecting_size_limit(self, capsys, argv):
        """At q = 2^40 R22 abstains before it lists the q - |L| residues
        outside L, and the other rules answer.  The uniform reading was
        refused here while it listed its q - 1 residues; it now lists none
        and R19 answers, 2^20 at n = 20."""
        q = 1 << 40
        code, doc = run_json(capsys, ["bound", *argv, "--q", str(q), "--n", "20"])
        assert code == EXIT_OK
        ids = [c["theorem_id"] for c in doc["payload"]["certificates"]]
        assert ids and "R22" not in ids
        if "intersecting-uniform" in argv:
            assert (doc["payload"]["theorem_id"], doc["payload"]["bound"]) == ("R19", 2**20)

    @pytest.mark.parametrize("q", [1 << 23, 1 << 40, 3**30, 1 << 64], ids=["2^23", "2^40", "3^30", "2^64"])
    def test_bound_uniform_above_the_table_limit(self, capsys, q):
        """Exit 2 while the uniform reading listed its q - 1 residues; R19
        now answers alone, also where q - 1 is past the largest `len`."""
        argv = ["bound", "--kind", "intersecting-uniform", "--q", str(q), "--uniform-residue", "1", "--n", "1000"]
        code, doc = run_json(capsys, argv)
        assert code == EXIT_OK
        assert [c["theorem_id"] for c in doc["payload"]["certificates"]] == ["R19"]
        assert (doc["payload"]["theorem_id"], doc["payload"]["bound"]) == ("R19", 2**1000)

    def test_bound_no_rule_above_the_table_limit(self, capsys):
        """Hamming modulo 2^23 with L = {2}: R21 needs a prime or L = [s],
        and R22 abstains, so no rule applies."""
        argv = ["bound", "--kind", "hamming", "--q", str(1 << 23), "--L", "2", "--n", "20"]
        code, doc = run_json(capsys, argv)
        assert code == EXIT_USAGE
        assert doc["diagnostics"] == ["no bound rule applies: q = 8388608 is above 4194304, the limit of R22"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["bound", "--kind", "hamming", "--q", "4194319", "--L", "1", "--n", "20"],
            ["bound", "--kind", "hamming", "--n", "5000000", "--L", "1"],
        ],
        ids=["prime-above-limit", "lifted-above-limit"],
    )
    def test_bound_answers_above_the_table_limit(self, capsys, argv):
        """A prime q above 2^22, given or lifted, answers by R21 with R22
        abstaining."""
        code, doc = run_json(capsys, argv)
        assert code == EXIT_OK
        assert doc["payload"]["theorem_id"] == "R21"
        assert "R22" not in [c["theorem_id"] for c in doc["payload"]["certificates"]]

    @pytest.mark.parametrize(
        "argv, check",
        [
            (
                ["bound", "--kind", "hamming", "--n", "100000", "--L", "1..10000"],
                lambda doc: doc["bound"] == binom_sum(100000, 0, 10000).value,
            ),
            (
                ["bound", "--kind", "diff-sperner", "--q", "32768", "--L", "1..14286", "--n", "20"],
                lambda doc: [c["bound"]["upper"] for c in doc["certificates"] if c["theorem_id"] == "R9"]
                == [2**14285],
            ),
            (
                ["table", "--kind", "diff-sperner", "--q", "9", "--n", str(10**600), "--no-brute"],
                lambda doc: doc["rows"][-1]["bound"]
                == best_bound(ConstraintSpec(Kind.DIFF_SPERNER, 10**600, {8}, PrimePower.from_q(9)))[0].bound.value,
            ),
            (
                ["bound", "--kind", "intersecting", "--n", "30", "--q", str(2**2000), "--L", "0..999999"],
                lambda doc: (doc["theorem_id"], doc["bound"]) == ("R19", 2**30),
            ),
        ],
        ids=["hamming-bound", "r9-degree", "table", "r14-cap"],
    )
    def test_ints_past_the_text_limit(self, capsys, argv, check):
        """Values of more than 4,300 digits, where Python's `str` raises by
        default, are written out, and the limit is left as it was."""
        limit = sys.get_int_max_str_digits()
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out
        assert main(argv + ["--json"]) == EXIT_OK
        assert sys.get_int_max_str_digits() == limit
        with _long_ints():
            doc = json.loads(capsys.readouterr().out)
        assert doc["status"] == "ok"
        assert max(_ints(doc["payload"])) >= 10**limit
        assert check(doc["payload"])

    def test_table_refusal_past_the_text_limit(self, capsys):
        """A table's size refusal names q and its count of intervals, here
        of 2,710 and 5,419 digits, and leaves the limit as it was."""
        q = 2**9000
        limit = sys.get_int_max_str_digits()
        code, doc = run_json(capsys, ["table", "--kind", "diff-sperner", "--q", str(q), "--n", "5"])
        assert code == EXIT_USAGE
        assert sys.get_int_max_str_digits() == limit
        with _long_ints():
            message = f"a table at q = {q} has {(q - 1) * q // 2} intervals, more than the limit of 10000"
        assert doc == {"schema": 1, "status": "error", "payload": {}, "diagnostics": [message]}

    def test_census(self, capsys):
        code, doc = run_json(capsys, ["census", "--q", "4"])
        assert doc["payload"]["count"] == 5
        assert doc["payload"]["closed_form"] == 5
        assert doc["payload"]["alt_form"] == -3
        assert doc["diagnostics"]

    def test_census_size_limit(self, capsys):
        """q = 2^20 has about 5.5e11 (b, s) pairs: refused before any is tested."""
        code, doc = run_json(capsys, ["census", "--q", "1048576"])
        assert code == EXIT_USAGE
        assert doc == {
            "schema": 1,
            "status": "error",
            "payload": {},
            "diagnostics": [
                "census at q = 1048576 would test 549755289600 pairs, more than the limit 10000000"
            ],
        }

    def test_seppoly_check(self, capsys):
        code, doc = run_json(
            capsys,
            [
                "seppoly", "check", "--q", "4", "--alpha", "0",
                "--L", "3", "--roots", "3",
            ],
        )
        assert doc["payload"]["separates"] is True
        assert doc["payload"]["shifted_minus_ok"] is True

    def test_seppoly_check_many_roots(self, capsys):
        # 65,536 roots at q = 2^22: v_2(g(0)) = v_2(65537!) is read root
        # by root, and ties class 1's minimum v_2(65536!)
        argv = ["seppoly", "check", "--q", "4194304", "--alpha", "0", "--L", "1", "--roots", "2..65537"]
        code, doc = run_json(capsys, argv)
        assert code == EXIT_OK
        payload = doc["payload"]
        assert payload["poly"]["roots"] == list(range(2, 65538))
        assert (payload["v0"], payload["class_minima"]) == (65535, {"1": 65535})
        assert payload["separates"] is False
        assert payload["shifted_minus_ok"] and payload["shifted_plus_ok"]

    def test_seppoly_check_long_roots(self, capsys):
        # roots 2**400 apart are judged, as human output and as --json: the
        # digit recursion is a loop, so no RecursionError
        argv = ["seppoly", "check", "--q", "2", "--alpha", "1", "--L", "0", "--roots", f"0,{2**400}"]
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out.rstrip().endswith("separates 1 from L mod 2")
        code, doc = run_json(capsys, argv)
        assert code == EXIT_OK
        assert doc["payload"]["class_minima"] == {"0": 2}

    def test_seppoly_check_wrap_roots(self, capsys):
        # --roots reads a wrap-around interval modulo --q, as --L does
        argv = ["seppoly", "check", "--q", "8", "--alpha", "0", "--L", "1", "--roots", "7..1@wrap"]
        code, doc = run_json(capsys, argv)
        assert code == EXIT_OK
        assert doc["payload"]["poly"] == {"lead": 1, "roots": [0, 1, 7]}
        assert doc["payload"]["v0"] == "infinity"

    def test_seppoly_find(self, capsys):
        code, doc = run_json(
            capsys,
            [
                "seppoly", "find", "--q", "4", "--alpha", "0",
                "--L", "1..3", "--max-degree", "3",
            ],
        )
        assert doc["payload"]["degree"] == 3

    def test_seppoly_find_readme_document(self, capsys):
        # the README's example: counting the search first leaves its answer
        argv = ["seppoly", "find", "--q", "4", "--alpha", "0", "--L", "1..3", "--max-degree", "3"]
        assert run_json(capsys, argv) == (EXIT_OK, {
            "schema": 1, "command": "seppoly", "status": "ok", "diagnostics": [],
            "payload": {
                "q": 4, "alpha": 0, "L": [1, 2, 3], "degree": 3,
                "poly": {"lead": 1, "roots": [1, 1, 2]},
            },
        })

    def test_seppoly_find_infeasible(self, capsys):
        code, doc = run_json(
            capsys,
            [
                "seppoly", "find", "--q", "4", "--alpha", "0",
                "--L", "1..3", "--max-degree", "2",
            ],
        )
        assert code == EXIT_OK
        assert doc["status"] == "infeasible"

    SEPPOLY_FIND_Q49 = [
        "seppoly", "find", "--q", "49", "--alpha", "0",
        "--L", "1,2,3,4,5,6,7", "--max-degree", "3",
    ]

    def test_seppoly_find_budget_exhausted(self, capsys):
        # degree 1 has 49**2 = 2401 root multisets, so a budget of 3000 ends
        # inside degree 2, long before the C(2403, 3) multisets of degree 3
        code, doc = run_json(capsys, [*self.SEPPOLY_FIND_Q49, "--budget", "3000"])
        assert code == EXIT_BUDGET
        assert doc["status"] == "budget-exhausted"
        assert doc["payload"] == {
            "q": 49, "alpha": 0, "L": [1, 2, 3, 4, 5, 6, 7], "max_degree": 3,
            "tried": 3000, "degree_reached": 2,
        }

    def test_seppoly_find_negative_budget(self, capsys):
        code, doc = run_json(capsys, [*self.SEPPOLY_FIND_Q49, "--budget", "-1"])
        assert code == EXIT_USAGE
        assert doc["diagnostics"] == ["node budget must be non-negative, got -1"]

    def test_seppoly_find_empty_window(self, capsys):
        # --window 0 is the empty window [0, 0), not the default [0, q**2)
        argv = ["seppoly", "find", "--q", "4", "--alpha", "0", "--L", "1..3"]
        assert run_json(capsys, argv)[1]["status"] == "ok"
        code, doc = run_json(capsys, [*argv, "--window", "0"])
        assert code == EXIT_OK
        assert doc["status"] == "infeasible"

    def test_seppoly_find_negative_window(self, capsys):
        # refused like a negative --budget, not read as the empty window
        argv = ["seppoly", "find", "--q", "4", "--alpha", "0", "--L", "1..3", "--window", "-5"]
        code, doc = run_json(capsys, argv)
        assert code == EXIT_USAGE
        assert doc["diagnostics"] == ["--window must be non-negative, got -5"]
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err == "error: --window must be non-negative, got -5\n"

    def test_seppoly_find_within_budget(self, capsys):
        argv = ["seppoly", "find", "--q", "4", "--alpha", "0", "--L", "1..3"]
        assert run_json(capsys, [*argv, "--budget", "1000"]) == run_json(capsys, argv)

    def test_table_rows_sound(self, capsys):
        code, doc = run_json(
            capsys, ["table", "--kind", "diff-sperner", "--q", "4", "--n", "5"]
        )
        assert code == EXIT_OK
        for row in doc["payload"]["rows"]:
            assert row["brute_force"] <= row["bound"]
            assert row["sound"] is True

    def test_check_and_push(self, tmp_path, capsys):
        fam = tmp_path / "fam.txt"
        fam.write_text("# demo\n{1}\n{2,3,4}\n")
        code, doc = run_json(
            capsys,
            ["check", "--kind", "close-sperner", "--file", str(fam), "--L", "1,3"],
        )
        assert doc["payload"]["satisfied"] is True

        code, doc = run_json(capsys, ["push", "--file", str(fam), "--s", "2"])
        assert code == EXIT_OK
        assert sorted(len(s) for s in doc["payload"]["pushed"]) == [2, 2]
        assert run_json(capsys, ["push", "--file", str(fam), "--s", "2"]) == (code, doc)

    def test_verify(self, tmp_path, capsys):
        fam = tmp_path / "fam.txt"
        fam.write_text("{1}\n{2}\n{3}\n{4}\n")
        code, doc = run_json(
            capsys,
            [
                "verify", "--kind", "diff-sperner", "--file", str(fam),
                "--q", "2", "--L", "1",
            ],
        )
        assert code == EXIT_OK
        assert doc["payload"]["full_rank"] is True
        assert doc["payload"]["rank"] == doc["payload"]["total_polys"] == 5
        assert doc["payload"]["pattern_ok"] is True
        stats = doc["payload"]["stats"]
        assert set(stats) == {
            "columns", "nonzeros", "rank_s", "build_s", "pattern_cells", "pattern_s",
        }
        # g(t) = t - 1, so P holds the four -x_i; F holds x_4 - 1
        assert (stats["columns"], stats["nonzeros"]) == (5, 6)
        # the valuation pattern reads P on the four member probes
        assert stats["pattern_cells"] == 16
        assert stats["rank_s"] >= 0 and stats["build_s"] >= 0 and stats["pattern_s"] >= 0

    @pytest.mark.parametrize(
        "n, members, q, L, variant",
        [
            (8, (15, 51, 60, 85, 106, 150, 169, 216, 228), 8, (2, 3, 6), "plus"),
            (7, tuple(m for m in range(1 << 7) if m.bit_count() == 3), 8, (1, 2, 3), "minus"),
            # the plain residues 2..6 separate, but R22 certifies their
            # closure 1..6 in the n-1 column (466 against 638)
            (10, (0b11, 1 << 9), 16, tuple(range(2, 7)), "minus"),
        ],
        ids=["benchmark-q8", "uniform-layer", "closure-beats-residues"],
    )
    def test_verify_replays_the_seppoly_certificate(
        self, tmp_path, capsys, monkeypatch, n, members, q, L, variant
    ):
        """verify builds the difference system from the polynomial and the
        shifted side of `bound_from_seppoly`'s certificate, which is R22's
        certificate in `best_bound`."""
        built = []
        build = polylab.build_diff_sperner_system

        def record(fam, g, pp, side="minus"):
            built.append((g, side))
            return build(fam, g, pp, side)

        monkeypatch.setattr(polylab, "build_diff_sperner_system", record)
        fam = tmp_path / "fam.txt"
        fam.write_text(format_family(SetFamily(n, members)))
        L_arg = ",".join(map(str, L))
        argv = ["verify", "--kind", "diff-sperner", "--file", str(fam), "--q", str(q), "--L", L_arg]
        code, _ = run_json(capsys, argv)
        assert code == EXIT_OK
        spec = ConstraintSpec(Kind.DIFF_SPERNER, n, frozenset(L), PrimePower.from_q(q))
        (r22,) = [c for c in best_bound(spec)[1] if c.theorem_id == "R22"]
        aux = r22.auxiliary
        assert built == [(FactoredIntPoly(aux["lead"], aux["roots"]), variant)]

    def test_verify_above_the_table_limit(self, tmp_path, capsys, monkeypatch):
        """At q = 2^40 the plain roots {1, 2^39} separate; verify builds the
        system from them, not from their closure of 2^39 roots."""
        built = []
        build = polylab.build_diff_sperner_system

        def record(fam, g, pp, side="minus"):
            built.append(g.roots)
            return build(fam, g, pp, side)

        monkeypatch.setattr(polylab, "build_diff_sperner_system", record)
        fam = tmp_path / "fam.txt"
        fam.write_text("{1}\n{2,3}\n")
        argv = ["verify", "--kind", "diff-sperner", "--file", str(fam), "--q", str(1 << 40), "--L", f"1,{1 << 39}"]
        code, doc = run_json(capsys, argv)
        assert code == EXIT_OK
        assert built == [(1, 1 << 39)]
        assert doc["payload"]["total_polys"] == 5

    def test_verify_refuses_a_closure_above_the_table_limit(self, tmp_path, capsys):
        """At q = 2^40 the plain roots 2^37, 2^38, 2^39 do not separate, and
        their closure {1..2^39} is named, not built."""
        fam = tmp_path / "fam.txt"
        fam.write_text("{1}\n{2,3}\n")
        L = f"{1 << 37},{1 << 38},{1 << 39}"
        argv = ["verify", "--kind", "diff-sperner", "--file", str(fam), "--q", str(1 << 40), "--L", L]
        code, doc = run_json(capsys, argv)
        assert code == EXIT_USAGE
        assert doc["status"] == "error"
        assert doc["diagnostics"] == [
            "the given residues do not separate 0 from L modulo 1099511627776, and their closed "
            "superinterval {1..549755813888} has 549755813888 roots, above the limit 4194304"
        ]

    def test_verify_over_a_large_ground_set(self, tmp_path, capsys):
        """Three polynomials over 300,000 elements: the system lists only
        the members' bits, never every element of the ground set."""
        fam = tmp_path / "fam.txt"
        fam.write_text("{1}\n{2}\n")
        code, doc = run_json(
            capsys,
            [
                "verify", "--kind", "diff-sperner", "--file", str(fam),
                "--q", "4", "--L", "1", "--n", "300000",
            ],
        )
        assert code == EXIT_OK
        assert (doc["payload"]["rank"], doc["payload"]["total_polys"]) == (3, 3)

    def test_verify_midband(self, tmp_path, capsys):
        fam = tmp_path / "fam.txt"
        fam.write_text("{1,2}\n{1,3}\n{2,3}\n")
        code, doc = run_json(
            capsys,
            [
                "verify", "--kind", "close-sperner", "--file", str(fam),
                "--variant", "close", "--s", "2", "--n", "4",
            ],
        )
        assert code == EXIT_OK
        assert doc["payload"]["full_rank"] is True

    def test_verify_sym_reads_the_p_block(self, tmp_path, capsys):
        # not [3]-differencing: |{4,5,6,7} - {1,2,3}| = 4
        fam = tmp_path / "fam.txt"
        fam.write_text("{1,2,3}\n{4,5,6,7}\n")
        code, doc = run_json(
            capsys, ["check", "--kind", "diff-sperner", "--file", str(fam), "--L", "1..3"]
        )
        assert doc["payload"]["satisfied"] is False
        code, doc = run_json(
            capsys,
            [
                "verify", "--kind", "diff-sperner", "--file", str(fam),
                "--variant", "sym", "--s", "3", "--n", "7",
            ],
        )
        assert code == EXIT_OK
        payload = doc["payload"]
        assert (payload["rank"], payload["total_polys"]) == (25, 25)
        assert payload["pattern_ok"] is False
        assert payload["pattern_failures"] == ["P entry (1, 0) below the diagonal is nonzero"]


def layer(n, k):
    return [m for m in range(1 << n) if m.bit_count() == k]


def without_lowest_of_first(members):
    """Replace the least member (k-layers: {1..k}, which misses element n)
    by itself minus its lowest element, a proper subset of it."""
    first = members[0]
    return [first & (first - 1)] + members[1:]


class TestArithmeticGolden:
    """The human lines and documents of the arithmetic commands, byte for
    byte: valuations print as ints or `infinity`, never as a float."""

    @pytest.mark.parametrize(
        "argv, line",
        [
            (["vp", "--p", "2", "--n", "12"], "v_2(12) = 2"),
            (["vp", "--p", "3", "--n", "0"], "v_3(0) = infinity"),
            (["binom", "--p", "2", "--a", "3", "--b", "3"], "v_2(C(6, 3)) = 2"),
            (["digits", "--q", "27", "--s", "9"], "9 = (1,0,0) base 3, width 3"),
            (["closure", "--q", "9", "--lo", "3", "--hi", "3"], "closure of {3..3} in [1, 8]: {1..3} (length 3)"),
            (
                ["closure", "--q", "9", "--lo", "1", "--hi", "3"],
                "closure of {1..3} in [1, 8]: {1..3} (length 3, already closed)",
            ),
        ],
    )
    def test_human_line(self, capsys, argv, line):
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out == line + "\n"

    @pytest.mark.parametrize(
        "argv, payload",
        [
            (["vp", "--p", "2", "--n", "12"], {"p": 2, "n": 12, "valuation": 2}),
            (["vp", "--p", "3", "--n", "0"], {"p": 3, "n": 0, "valuation": "infinity"}),
            (["binom", "--p", "2", "--a", "3", "--b", "3"], {"p": 2, "a": 3, "b": 3, "valuation": 2}),
            (["digits", "--q", "27", "--s", "9"], {"q": 27, "p": 3, "k": 3, "s": 9, "digits": [1, 0, 0]}),
            (
                ["closure", "--q", "9", "--lo", "3", "--hi", "3"],
                {
                    "q": 9,
                    "input": {"lo": 3, "hi": 3},
                    "closure": {"lo": 1, "hi": 3},
                    "length": 3,
                    "already_closed": False,
                },
            ),
            (
                # (y-0)(y-3) vanishes at alpha = 0
                ["seppoly", "check", "--q", "4", "--alpha", "0", "--L", "1,2", "--roots", "0,3"],
                {
                    "q": 4,
                    "alpha": 0,
                    "L": [1, 2],
                    "poly": {"lead": 1, "roots": [0, 3]},
                    "v0": "infinity",
                    "class_minima": {"1": 1, "2": 1},
                    "separates": False,
                    "shifted_minus_ok": False,
                    "shifted_plus_ok": False,
                },
            ),
        ],
    )
    def test_json_document(self, capsys, argv, payload):
        assert main(argv + ["--json"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "Infinity" not in out and "NaN" not in out
        doc = json.loads(out)
        assert doc == {"schema": 1, "command": argv[0], "status": "ok", "payload": payload, "diagnostics": []}
        for value in doc["payload"].get("class_minima", {}).values():
            assert type(value) is int


class TestReplayRanks:
    """Ranks of the layer systems the proof replay verifies, deficient
    ones included; a mutated layer loses {1..k} to {2..k}."""

    @pytest.mark.parametrize(
        "n, members, argv, expected",
        [
            (11, layer(11, 4), ["--kind", "diff-sperner", "--q", "8", "--L", "1..4"], (506, True, True)),
            (8, layer(8, 4), ["--kind", "close-sperner", "--variant", "close", "--s", "3"], (57, False, False)),
            (7, without_lowest_of_first(layer(7, 3)), ["--kind", "diff-sperner", "--q", "4", "--L", "1..3"], (56, False, False)),
            (9, without_lowest_of_first(layer(9, 3)), ["--kind", "diff-sperner", "--q", "7", "--L", "1..3"], (120, False, False)),
            (9, without_lowest_of_first(layer(9, 4)), ["--kind", "diff-sperner", "--q", "5", "--L", "1..4"], (218, False, False)),
        ],
        ids=["diff-11-4-q8", "close-8-3-4", "diff-7-3-q4-mutated", "diff-9-3-q7-mutated", "diff-9-4-q5-mutated"],
    )
    def test_rank(self, tmp_path, capsys, n, members, argv, expected):
        fam = tmp_path / "fam.txt"
        fam.write_text(format_family(SetFamily(n, tuple(members))))
        code, doc = run_json(capsys, ["verify", "--file", str(fam), *argv])
        assert code == EXIT_OK
        payload = doc["payload"]
        assert (payload["rank"], payload["full_rank"], payload["pattern_ok"]) == expected


    @pytest.mark.parametrize(
        "n, s, k, blocks, dimension, nonzeros, cells",
        [
            (11, 5, 6, {"H": 232, "P": 462}, 1024, 38424, 241165),
            (12, 5, 7, {"H": 79, "P": 792}, 1586, 109739, 379756),
        ],
        ids=["close-11-5-6", "close-12-5-7"],
    )
    def test_close_layers_above_n_minus_s(self, tmp_path, capsys, n, s, k, blocks, dimension, nonzeros, cells):
        """Close layers at or above n - s, whose P rows all hold the
        constant monomial: the whole payload but its timings."""
        fam = tmp_path / "fam.txt"
        fam.write_text(format_family(SetFamily(n, tuple(layer(n, k)))))
        argv = ["verify", "--file", str(fam), "--kind", "close-sperner", "--variant", "close", "--s", str(s)]
        code, doc = run_json(capsys, argv)
        assert code == EXIT_OK
        payload = doc["payload"]
        stats = {name: value for name, value in payload.pop("stats").items() if not name.endswith("_s")}
        rank = sum(blocks.values())
        assert payload == {
            "rank": rank, "total_polys": rank, "full_rank": True, "dimension": dimension,
            "block_sizes": blocks, "pattern": "triangular", "pattern_ok": True, "pattern_failures": [],
            "n": n, "q": None, "L": [],
        }
        assert stats == {"columns": dimension, "nonzeros": nonzeros, "pattern_cells": cells}


class TestExitCodes:
    def test_usage_error_bad_modulus(self, capsys):
        code = main(["bound", "--kind", "diff-sperner", "--q", "6", "--L", "1", "--n", "4"])
        assert code == EXIT_USAGE
        assert "prime power" in capsys.readouterr().err

    def test_usage_error_unknown_kind(self, capsys):
        code = main(["search", "--kind", "nonsense", "--n", "4", "--L", "1"])
        assert code == EXIT_USAGE

    def test_usage_error_json_document(self, capsys):
        code = main(
            ["bound", "--kind", "diff-sperner", "--q", "6", "--L", "1", "--n", "4", "--json"]
        )
        assert code == EXIT_USAGE
        doc = json.loads(capsys.readouterr().out)
        assert doc["status"] == "error"
        assert doc["diagnostics"]

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["bound", "--kind", "diff-sperner", "--q", "5", "--L", " ", "--n", "4"], "empty L"),
            (
                ["bound", "--kind", "diff-sperner", "--q", "5", "--L", "1..x", "--n", "4"],
                "malformed interval '1..x'",
            ),
            (
                ["bound", "--kind", "diff-sperner", "--q", "5", "--L", "1,2@wrap", "--n", "4"],
                "@wrap only applies to interval syntax a..b@wrap",
            ),
            (
                ["bound", "--kind", "diff-sperner", "--q", "8", "--L", "1..9@wrap", "--n", "4"],
                "wrap-around interval '1..9' spans more than q = 8 integers",
            ),
            (["push", "--file", "{absent}", "--s", "1"], "family file {absent} does not exist"),
            (["digits", "--q", "8", "--s", "8"], "s = 8 out of range [0, 7]"),
            (["seppoly", "check", "--q", "4", "--alpha", "0", "--L", "1"], "seppoly check needs --roots"),
            (
                ["verify", "--kind", "diff-sperner", "--file", "{family}"],
                "verify needs --q and --L (or --variant sym|close)",
            ),
            (
                ["verify", "--kind", "diff-sperner", "--q", "4", "--L", "1", "--file", "{empty}"],
                "need at least one ground element",
            ),
        ],
        ids=[
            "empty-L", "malformed-interval", "wrap-list", "wrap-span", "missing-file", "digits-s", "check-roots",
            "verify-q-L", "verify-no-ground-element",
        ],
    )
    def test_usage_error_messages(self, tmp_path, capsys, argv, message):
        fam, empty = tmp_path / "fam.txt", tmp_path / "empty.txt"
        fam.write_text("{1}\n{2}\n")
        empty.write_text("")
        paths = {"absent": tmp_path / "absent.txt", "family": fam, "empty": empty}
        argv = [a.format(**paths) for a in argv]
        code, doc = run_json(capsys, argv)
        assert code == EXIT_USAGE
        assert doc == {
            "schema": 1, "status": "error", "payload": {},
            "diagnostics": [message.format(**paths)],
        }

    def test_seed_flag_is_gone(self, capsys):
        code, doc = run_json(
            capsys, ["bound", "--seed", "1", "--kind", "diff-sperner", "--q", "4", "--L", "1", "--n", "4"]
        )
        assert code == EXIT_USAGE
        assert doc == {
            "schema": 1, "status": "error", "payload": {},
            "diagnostics": ["unrecognized arguments: --seed 1"],
        }

    def test_unrecognized_argument_usage_names_the_command(self, capsys):
        """The command's own parser reads what follows the command, so an
        argument it does not know is refused with its usage line; the
        document is the one the top-level parser gave."""
        argv = ["push", "--file", "fam.txt", "--s", "1", "--seed", "1", "--json"]
        assert main(argv) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert json.loads(out) == {
            "schema": 1, "status": "error", "payload": {},
            "diagnostics": ["unrecognized arguments: --seed 1"],
        }
        assert err == "usage: qsperner push [-h] [--json] --file FILE --s S [--n N]\n"

    @pytest.mark.parametrize(
        "argv, diagnostic, usage",
        [
            (["--json"], "the following arguments are required: command", "usage: qsperner [-h]"),
            (["nonsense", "--json"], "argument command: invalid choice: 'nonsense'", "usage: qsperner [-h]"),
            (["--json", "vp", "--p", "2", "--n", "4"], "unrecognized arguments: --json", "usage: qsperner [-h]"),
            (["vp", "--p", "2", "--json"], "the following arguments are required: --n", "usage: qsperner vp"),
        ],
        ids=["no-command", "unknown-command", "option-before-command", "missing-option"],
    )
    def test_top_level_parser_answers_without_a_command(self, capsys, argv, diagnostic, usage):
        """With no command first in argv the top-level parser reads it and
        refuses it with its own usage line; a command's missing option is
        named by the command's parser."""
        assert main(argv) == EXIT_USAGE
        out, err = capsys.readouterr()
        doc = json.loads(out)
        assert (doc["status"], doc["payload"]) == ("error", {})
        assert doc["diagnostics"][0].startswith(diagnostic)
        assert err.startswith(usage)

    def test_argparse_reason_is_the_diagnostic(self, capsys):
        """A value starting with '-' that is not a number is read as a flag;
        argparse's reason reaches the document, its usage line stderr."""
        argv = ["seppoly", "check", "--q", "7", "--alpha", "0", "--L", "-3..-1", "--roots", "1", "--json"]
        assert main(argv) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert json.loads(out) == {
            "schema": 1, "status": "error", "payload": {},
            "diagnostics": ["argument --L: expected one argument"],
        }
        assert err.startswith("usage: qsperner seppoly")

    def test_help_exits_cleanly(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bound", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: qsperner bound")

    @pytest.mark.parametrize(
        "argv, command, usage",
        [
            (["bound", "--help", "--json"], "bound", "usage: qsperner bound"),
            (["--help", "--json"], None, "usage: qsperner [-h]"),
        ],
        ids=["bound", "top-level"],
    )
    def test_help_with_json_is_one_document(self, capsys, argv, command, usage):
        """The help text argparse would print, as the payload of one
        schema-1 document, and exit 0."""
        with pytest.raises(SystemExit):
            main([a for a in argv if a != "--json"])
        text = capsys.readouterr().out
        assert main(argv) == EXIT_OK
        out, err = capsys.readouterr()
        assert json.loads(out) == {
            "schema": 1, "command": command, "status": "ok", "payload": {"help": text}, "diagnostics": [],
        }
        assert text.startswith(usage) and not err

    @pytest.mark.parametrize(
        "argv",
        [
            ["bound", "--kind", "diff-sperner", "--n", "4"],
            ["search", "--kind", "hamming", "--n", "3"],
            ["check", "--kind", "hamming", "--file", "FAMILY"],
            ["verify", "--kind", "diff-sperner", "--file", "FAMILY"],
        ],
        ids=["bound", "search", "check", "verify"],
    )
    @pytest.mark.parametrize(
        "given, message",
        [(["--q", "0", "--L", "1"], "q = 0 is not a prime power"), (["--q", "5", "--L", ""], "empty L")],
        ids=["q-0", "L-empty"],
    )
    def test_zero_q_and_empty_L_are_read(self, tmp_path, capsys, argv, given, message):
        """--q 0 and --L '' are values, refused as such, not absent flags."""
        fam = tmp_path / "fam.txt"
        fam.write_text("{1}\n{2,3}\n")
        argv = [str(fam) if arg == "FAMILY" else arg for arg in argv]
        code, doc = run_json(capsys, [*argv, *given])
        assert code == EXIT_USAGE
        assert doc == {"schema": 1, "status": "error", "payload": {}, "diagnostics": [message]}

    def test_seppoly_zero_lead(self, capsys):
        argv = ["seppoly", "check", "--q", "4", "--alpha", "0", "--L", "1",
                "--roots", "1", "--lead", "0"]
        assert main(argv) == EXIT_USAGE
        assert "lead" in capsys.readouterr().err
        code, doc = run_json(capsys, argv)
        assert code == EXIT_USAGE
        assert doc["status"] == "error"
        assert "lead" in doc["diagnostics"][0]

    @pytest.mark.parametrize(
        "extra, message",
        [(["--L", "1", "--max-degree", "0"], "max_degree"), (["--L", "4"], "lies in L")],
    )
    def test_seppoly_find_bad_input(self, capsys, extra, message):
        code, doc = run_json(capsys, ["seppoly", "find", "--q", "4", "--alpha", "0", *extra])
        assert code == EXIT_USAGE
        assert doc["status"] == "error"
        assert message in doc["diagnostics"][0]

    @pytest.mark.parametrize(
        "kind, variant, s",
        [("diff-sperner", "sym", "9"), ("close-sperner", "close", "0")],
    )
    def test_verify_out_of_band_s(self, tmp_path, capsys, kind, variant, s):
        fam = tmp_path / "fam.txt"
        fam.write_text("{1,2}\n{1,3}\n{2,3}\n")
        argv = ["verify", "--kind", kind, "--file", str(fam), "--variant", variant, "--s", s]
        assert main(argv) == EXIT_USAGE
        assert "error:" in capsys.readouterr().err
        code, doc = run_json(capsys, argv)
        assert code == EXIT_USAGE
        assert doc["status"] == "error"
        assert doc["diagnostics"]

    @pytest.mark.parametrize(
        "kind, variant, message",
        [
            ("diff-sperner", "sym", "need (n+2)/3 <= s <= n/2, got n = 6, s = 10000000000"),
            ("close-sperner", "close", "need (n+1)/3 <= s <= n/2, got n = 6, s = 10000000000"),
        ],
        ids=["sym", "close"],
    )
    def test_verify_huge_s_on_an_empty_family(self, tmp_path, capsys, kind, variant, message):
        """An empty family has no member outside any band, so s is checked
        against n before the s roots of (y-1)...(y-s) are listed."""
        fam = tmp_path / "fam.txt"
        fam.write_text("")
        argv = ["verify", "--kind", kind, "--file", str(fam), "--n", "6", "--variant", variant,
                "--s", "10000000000"]
        code, doc = run_json(capsys, argv)
        assert code == EXIT_USAGE
        assert doc == {"schema": 1, "status": "error", "payload": {}, "diagnostics": [message]}

    FAR = "element {} is above 1073741824, the largest a set mask may hold"

    @pytest.mark.parametrize(
        "text, argv, message",
        [
            ("{20000000000}\n", ["check", "--kind", "antichain"],
             "element 20000000000 outside [1, 1073741824]"),
            ("{1,2}\n{3}\n",
             ["verify", "--kind", "diff-sperner", "--n", "20000000000", "--q", "2", "--L", "1"],
             FAR.format(20000000000)),
            ("{1,2}\n{3}\n", ["push", "--n", "20000000000", "--s", "9000000000"],
             FAR.format(9000000000)),
            ("", ["verify", "--kind", "diff-sperner", "--n", "20000000000", "--variant", "sym",
                  "--s", "7000000000"], FAR.format(20000000000)),
        ],
        ids=["check", "verify", "push", "verify-sym"],
    )
    def test_far_element_is_refused_before_its_mask(self, tmp_path, capsys, text, argv, message):
        """A member element, a ground set or a pushed member past 2^30 would
        need a mask of more than 128 MB, so it is refused before one is
        built; the empty family's band holds s = 7e9 against n = 2e10, and
        the ground set is refused before the s roots of (y-1)...(y-s) are
        listed."""
        fam = tmp_path / "fam.txt"
        fam.write_text(text)
        code, doc = run_json(capsys, [*argv, "--file", str(fam)])
        assert code == EXIT_USAGE
        assert doc == {"schema": 1, "status": "error", "payload": {}, "diagnostics": [message]}

    @pytest.mark.parametrize(
        "argv, payload",
        [
            (["check", "--kind", "antichain"], {"satisfied": True, "members": 2}),
            (["push", "--s", "3"], {"pushed": [[1, 2, 3], [1, 3, 4]]}),
        ],
        ids=["check", "push"],
    )
    def test_huge_n_with_small_members_answers(self, tmp_path, capsys, argv, payload):
        fam = tmp_path / "fam.txt"
        fam.write_text("{1,2}\n{3}\n")
        code, doc = run_json(capsys, [*argv, "--n", "20000000000", "--file", str(fam)])
        assert code == EXIT_OK
        assert doc["payload"]["n"] == 20000000000
        assert {key: doc["payload"][key] for key in payload} == payload

    @pytest.mark.parametrize(
        "kind, extra",
        [
            ("antichain", ["--q", "2", "--L", "1"]),
            ("close-sperner", ["--q", "2", "--L", "1"]),
            ("close-sperner", ["--variant", "sym", "--s", "2", "--n", "4"]),
            ("diff-sperner", ["--variant", "close", "--s", "2", "--n", "4"]),
        ],
    )
    def test_verify_kind_must_match_variant(self, tmp_path, capsys, kind, extra):
        fam = tmp_path / "fam.txt"
        fam.write_text("{1,2}\n{1,3}\n{2,3}\n")
        code, doc = run_json(capsys, ["verify", "--kind", kind, "--file", str(fam), *extra])
        assert code == EXIT_USAGE
        assert doc["status"] == "error"
        assert f"got {kind}" in doc["diagnostics"][0]

    @pytest.mark.parametrize(
        "kind, n, message",
        [
            ("close-sperner", "5", "close-Sperner constraints are non-modular"),
            ("intersecting-uniform", "5", "uniform kind needs a modulus and a residue"),
            ("antichain", "5", "antichain constraints are non-modular"),
            ("diff-sperner", "-1", "n must be non-negative"),
        ],
    )
    def test_table_bad_input(self, capsys, kind, n, message):
        argv = ["table", "--kind", kind, "--q", "4", "--n", n]
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {message}\n"
        code, doc = run_json(capsys, argv)
        assert code == EXIT_USAGE
        assert doc == {"schema": 1, "status": "error", "payload": {}, "diagnostics": [message]}

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["vp", "--p", "4", "--n", "3"], "p = 4 is not prime"),
            (["binom", "--p", "2", "--a", "-1", "--b", "2"], "a and b must be non-negative"),
            (["closure", "--q", "4", "--lo", "0", "--hi", "2"], "need 1 <= lo <= hi, got [0, 2]"),
            (["mu", "--q", "4", "--s", "0"], "s = 0 out of range [1, 3]"),
            (
                ["bound", "--kind", "diff-sperner", "--q", "4", "--L", "1", "--n", "-1"],
                "n must be non-negative",
            ),
            (
                ["check", "--kind", "intersecting-uniform", "--file", "FAMILY"],
                "uniform kind needs a modulus and a residue",
            ),
            (["push", "--file", "FAMILY", "--s", "-1"], "need 0 <= 2s <= n, got s = -1, n = 3"),
            (
                ["verify", "--kind", "diff-sperner", "--q", "4", "--L", "1,4", "--file", "FAMILY"],
                "L may not contain 0 modulo q",
            ),
            (
                ["seppoly", "find", "--q", "65536", "--alpha", "0", "--L", "1..3"],
                "the root window holds more than 1000000 values; pass a smaller --window",
            ),
            (
                # about 1.7e17 multisets of degree 3 alone
                ["seppoly", "find", "--q", "1024", "--alpha", "0", "--L", "1..3", "--window", "1000000"],
                "the search would evaluate more than 1000000 root factors; "
                "pass a --budget, a smaller --window or a lower --max-degree",
            ),
            (
                ["seppoly", "find", "--q", "4", "--alpha", "0", "--L", "1", "--window", "1",
                 "--max-degree", "1000000000000"],
                "the search would evaluate more than 1000000 root factors; "
                "pass a --budget, a smaller --window or a lower --max-degree",
            ),
            (
                # checked before the empty window answers
                ["seppoly", "find", "--q", "7", "--alpha", "0", "--L", "7", "--window", "0"],
                "alpha = 0 lies in L modulo 7",
            ),
            (
                ["table", "--kind", "diff-sperner", "--q", "65536", "--n", "6"],
                "a table at q = 65536 has 2147450880 intervals, more than the limit of 10000",
            ),
            (
                ["search", "--kind", "antichain", "--n", "4", "--L", "5", "--q", "7", "--uniform-residue", "3"],
                "kind antichain takes no uniform residue",
            ),
            (["search", "--kind", "antichain", "--n", "4", "--q", "7"], "antichain constraints are non-modular"),
            (["check", "--kind", "antichain", "--L", "5", "--file", "FAMILY"], "antichain constraints take no L"),
            (["bound", "--kind", "antichain", "--n", "5"], "no bound rules for kind antichain"),
            (
                ["bound", "--kind", "intersecting-uniform", "--q", "4", "--uniform-residue", "1",
                 "--L", "1", "--n", "6"],
                "uniform kind takes no L",
            ),
        ],
        ids=[
            "vp", "binom", "closure", "mu", "bound", "check", "push", "verify", "seppoly find",
            "seppoly find work", "seppoly find degree", "seppoly find empty window", "table", "search residue", "search modulus",
            "check L", "bound antichain", "bound uniform L",
        ],
    )
    def test_library_rejection_is_a_usage_error(self, tmp_path, capsys, argv, message):
        """A library ValueError reaches the user as exit 2 with its message."""
        fam = tmp_path / "fam.txt"
        fam.write_text("{1}\n{2,3}\n")
        argv = [str(fam) if arg == "FAMILY" else arg for arg in argv]
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {message}\n"
        code, doc = run_json(capsys, argv)
        assert code == EXIT_USAGE
        assert doc == {"schema": 1, "status": "error", "payload": {}, "diagnostics": [message]}

    @pytest.mark.parametrize(
        "members, argv",
        [
            ([{1, 2}, {64}], ["--kind", "diff-sperner", "--q", "32", "--L", "1..16"]),
            ([range(1, 21), range(21, 41)], ["--kind", "diff-sperner", "--variant", "sym", "--s", "20"]),
            ([range(1, 21), range(21, 41)], ["--kind", "close-sperner", "--variant", "close", "--s", "20"]),
            # blocks whose full count has far more than 4,300 digits
            (
                [range(1, 9601)],
                ["--kind", "diff-sperner", "--variant", "sym", "--s", "9600", "--n", "24000"],
            ),
        ],
        ids=["diff", "sym", "close", "sym-wide"],
    )
    def test_verify_refuses_an_oversized_system(self, tmp_path, capsys, members, argv):
        """The polynomials are counted before any index or window mask is
        listed, and only until the count passes the limit, so a system of
        about 10**14 polynomials, or of 10**7000, is refused at once."""
        fam = tmp_path / "fam.txt"
        fam.write_text(format_family(SetFamily.from_sets(max(map(max, members)), members)))
        code, doc = run_json(capsys, ["verify", "--file", str(fam), *argv])
        assert code == EXIT_USAGE
        message = "the proof system has more than 1000000 polynomials"
        assert doc == {"schema": 1, "status": "error", "payload": {}, "diagnostics": [message]}

    def test_verify_refuses_a_system_of_too_many_coefficients(self, tmp_path, capsys, monkeypatch):
        """Two polynomials over n = 26 whose forms would expand to 5,658,538
        coefficients: the count from the forms' forward differences refuses
        the system before any form is expanded."""

        def expand(form, diffs):
            raise AssertionError(f"{form} was expanded")

        monkeypatch.setattr(polylab._ClosedForm, "coeffs", expand)
        fam = tmp_path / "fam.txt"
        fam.write_text("{1,2,3,4,5,6,7,8,9}\n")
        argv = ["verify", "--file", str(fam), "--kind", "close-sperner", "--variant", "close"]
        code, doc = run_json(capsys, [*argv, "--n", "26", "--s", "9"])
        assert code == EXIT_USAGE
        message = "the proof system has more than 1000000 coefficients"
        assert doc == {"schema": 1, "status": "error", "payload": {}, "diagnostics": [message]}

    def test_verify_refuses_coefficients_by_key_width(self, tmp_path, capsys, monkeypatch):
        """One member {1..100000}: the system's 100,003 coefficients are
        keyed by masks of 100,000 bits, so each counts 25 times, and the
        system is refused before any form is expanded."""

        def expand(form, diffs):
            raise AssertionError(f"{form} was expanded")

        monkeypatch.setattr(polylab._ClosedForm, "coeffs", expand)
        fam = tmp_path / "fam.txt"
        fam.write_text("{" + ",".join(map(str, range(1, 100_001))) + "}\n")
        argv = ["verify", "--file", str(fam), "--kind", "diff-sperner", "--q", "2", "--L", "1"]
        code, doc = run_json(capsys, argv)
        assert code == EXIT_USAGE
        message = "the proof system has more than 40000 coefficients"
        assert doc == {"schema": 1, "status": "error", "payload": {}, "diagnostics": [message]}

    # the commands that read a family file
    READERS = pytest.mark.parametrize(
        "argv",
        [
            ["check", "--kind", "antichain"],
            ["push", "--s", "1"],
            ["verify", "--kind", "diff-sperner", "--q", "2", "--L", "1"],
        ],
        ids=["check", "push", "verify"],
    )

    @READERS
    @pytest.mark.parametrize(
        "path", ["absent.txt", "fam.txt/below", "nul\0byte", "unencodable\ud800"],
        ids=["absent", "below-a-file", "nul-byte", "unencodable"],
    )
    def test_family_file_read_as_absent(self, tmp_path, capsys, argv, path):
        """Every path that `Path.exists` reads as absent is named missing,
        though the file is opened with no stat before it."""
        (tmp_path / "fam.txt").write_text("{1}\n")
        path = tmp_path / path
        code, doc = run_json(capsys, [*argv, "--file", str(path)])
        assert not path.exists()
        assert code == EXIT_USAGE
        assert doc == {
            "schema": 1, "status": "error", "payload": {},
            "diagnostics": [f"family file {path} does not exist"],
        }

    @READERS
    def test_family_file_is_a_directory(self, tmp_path, capsys, argv):
        argv = [*argv, "--file", str(tmp_path)]
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err.startswith(f"error: cannot read family file {tmp_path}: ")
        code, doc = run_json(capsys, argv)
        assert code == EXIT_USAGE
        assert doc["status"] == "error" and doc["payload"] == {}
        assert doc["diagnostics"][0].startswith(f"cannot read family file {tmp_path}: ")

    @READERS
    def test_family_file_is_not_utf8(self, tmp_path, capsys, argv):
        fam = tmp_path / "fam.txt"
        fam.write_bytes(b"{1}\n{2,\xff3}\n")
        message = f"cannot read family file {fam}: not UTF-8 text (invalid start byte at offset 7)"
        argv = [*argv, "--file", str(fam)]
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {message}\n"
        code, doc = run_json(capsys, argv)
        assert code == EXIT_USAGE
        assert doc == {"schema": 1, "status": "error", "payload": {}, "diagnostics": [message]}

    @pytest.mark.parametrize("command", ["bound", "search"])
    @pytest.mark.parametrize("extra", [["--n", "-1"], ["--n", "3", "--q", "4"]])
    def test_missing_L_is_named_first(self, capsys, command, extra):
        """bound and search share one spec builder, so an input that both
        lacks --L and fails the spec gets the same message from each."""
        code, doc = run_json(capsys, [command, "--kind", "close-sperner", *extra])
        assert code == EXIT_USAGE
        assert doc["diagnostics"] == ["kind close-sperner needs --L"]

    def test_budget_exhaustion_code(self, capsys):
        code, doc = run_json(
            capsys,
            [
                "search", "--kind", "diff-sperner", "--q", "2", "--L", "1",
                "--n", "6", "--budget", "2",
            ],
        )
        assert code == EXIT_BUDGET
        assert doc["status"] == "budget-exhausted"
        assert doc["payload"]["exact"] is False

    def test_negative_budget(self, capsys):
        argv = [
            "search", "--kind", "diff-sperner", "--n", "8", "--q", "2", "--L", "1",
            "--budget", "-1",
        ]
        code, doc = run_json(capsys, argv)
        assert code == EXIT_USAGE
        assert doc == {
            "schema": 1,
            "status": "error",
            "payload": {},
            "diagnostics": ["node budget must be non-negative, got -1"],
        }

    def test_huge_interval_is_refused_before_it_is_listed(self, capsys):
        argv = ["bound", "--kind", "diff-sperner", "--q", "4", "--L", "1..10000000000", "--n", "5"]
        code, doc = run_json(capsys, argv)
        assert code == EXIT_USAGE
        assert doc == {
            "schema": 1,
            "status": "error",
            "payload": {},
            "diagnostics": [
                "interval '1..10000000000' has 10000000000 elements, more than the limit of 1000000"
            ],
        }

    def test_dispatch_is_deterministic(self):
        one = dispatch(["bound", "--kind", "hamming", "--q", "3", "--L", "1,2", "--n", "5"])
        two = dispatch(["bound", "--kind", "hamming", "--q", "3", "--L", "1,2", "--n", "5"])
        assert one.payload == two.payload


class TestParserReuse:
    ARGVS = [
        ["bound", "--kind", "intersecting-uniform", "--q", "4", "--uniform-residue", "1", "--n", "6"],
        ["bound", "--kind", "diff-sperner", "--q", "4", "--L", "1..3", "--n", "6", "--bogus"],
        ["bound", "--kind", "diff-sperner", "--q", "4", "--L", "1..3", "--n", "6"],
        ["table", "--kind", "hamming", "--q", "4", "--n", "5", "--no-brute"],
        ["seppoly", "find", "--q", "4", "--alpha", "0", "--L", "1..3"],
        ["mu", "--q", "9", "--s", "1"],
    ]

    def test_back_to_back_calls_match_fresh_parsers(self, capsys):
        fresh = []
        for argv in self.ARGVS:
            _build_parser.cache_clear()
            fresh.append(run_json(capsys, argv))
        reused = [run_json(capsys, argv) for argv in self.ARGVS]
        assert reused == fresh
        assert [code for code, _ in reused] == [EXIT_OK, EXIT_USAGE, EXIT_OK, EXIT_OK, EXIT_OK, EXIT_OK]
        assert _build_parser.cache_info().misses == 1


class TestOneParse:
    """`dispatch` hands what follows a command to that command's own
    parser, so argparse reads argv once a call."""

    # one argv per command, every option of some command given
    ONE_PER_COMMAND = [
        ["vp", "--p", "2", "--n", "8", "--json"],
        ["binom", "--p", "2", "--a", "3", "--b", "5"],
        ["digits", "--q", "8", "--s", "5"],
        ["closure", "--q", "9", "--lo", "2", "--hi", "4"],
        ["mu", "--q", "9", "--s", "2"],
        ["census", "--q", "8"],
        [
            "seppoly", "check", "--q", "8", "--alpha", "0", "--L", "1..3", "--roots", "1,2", "--lead", "3",
            "--max-degree", "4", "--window", "2", "--budget", "100",
        ],
        ["bound", "--kind", "intersecting-uniform", "--q", "4", "--uniform-residue", "1", "--n", "6"],
        ["table", "--kind", "hamming", "--q", "4", "--n", "5", "--no-brute"],
        ["search", "--kind", "diff-sperner", "--q", "4", "--L", "1..3", "--n", "6", "--budget", "10"],
        ["check", "--kind", "antichain", "--file", "fam.txt", "--n", "4", "--uniform-residue", "1"],
        ["push", "--file", "fam.txt", "--s", "1"],
        ["verify", "--kind", "close-sperner", "--variant", "close", "--s", "2", "--file", "fam.txt", "--json"],
    ]

    @staticmethod
    def replay(load_script, tmp_path):
        """The operations of one `proof-replay` pass, then its probe, as
        `perfbench/workloads.py` builds them for `replay_digest.py`."""
        workload = load_script("scripts/replay_digest.py").build("proof-replay", 0, tmp_path)
        return workload.ops + workload.probes

    def test_command_parser_gives_the_top_level_namespace(self, load_script, tmp_path):
        """For every `proof-replay` argv and one argv per command, the
        command's parser reading argv[1:] gives the namespace that the
        top-level parser gives for argv, less the command's name."""
        parser = _build_parser()
        assert [argv[0] for argv in self.ONE_PER_COMMAND] == list(parser.commands)
        argvs = [op.arg for op in self.replay(load_script, tmp_path)] + self.ONE_PER_COMMAND
        for argv in argvs:
            own = parser.commands[argv[0]].parse_args(argv[1:])
            assert vars(parser.parse_args(argv)) == {"command": argv[0], **vars(own)}

    def test_one_argparse_pass_per_call(self, load_script, tmp_path, monkeypatch, capsys):
        """A pass of the 58 `proof-replay` calls makes 58 argparse passes,
        not 116, and each call still writes its document."""
        ops = self.replay(load_script, tmp_path)[:-1]
        passes = 0
        parse_known_args = argparse.ArgumentParser.parse_known_args

        def counting(*args, **kwargs):
            nonlocal passes
            passes += 1
            return parse_known_args(*args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counting)
        for op in ops:
            code, doc = run_json(capsys, op.arg[:-1])
            assert (code, doc["command"]) == (EXIT_OK, op.arg[0])
        assert passes == len(ops) == 58

    @pytest.mark.parametrize(
        "argv, human",
        [
            (["push", "--s", "1", "--file", "FAMILY"], "{1}\n{2,3}"),
            (
                ["search", "--kind", "antichain", "--n", "2"],
                "maximum: 2\n{1}\n{2}",
            ),
        ],
        ids=["push", "search"],
    )
    def test_json_call_writes_no_human_text(self, tmp_path, capsys, monkeypatch, argv, human):
        """A --json call of push or search never writes its family as
        text; without --json the report is as it was."""
        fam = tmp_path / "fam.txt"
        fam.write_text("{1}\n{2,3}\n")
        argv = [str(fam) if arg == "FAMILY" else arg for arg in argv]
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out == human + "\n"

        def refuse(fam):
            raise AssertionError("a --json call wrote its family as text")

        monkeypatch.setattr(families, "format_family", refuse)
        code, doc = run_json(capsys, argv)
        assert (code, doc["status"]) == (EXIT_OK, "ok")


def as_json(value):
    """A library value as a JSON document writes it."""
    return json.loads(json.dumps(value))


def untimed(stats: dict) -> dict:
    return {k: v for k, v in stats.items() if not k.endswith("_s")}


def field_names(obj) -> set[str]:
    return {f.name for f in fields(obj)}


class TestPayloadContract:
    """A payload is the library result's own fields beside the CLI's header
    keys, each with the value the library gives, timings aside."""

    @pytest.mark.parametrize(
        "argv, spec",
        [
            (["--kind", "diff-sperner", "--q", "4", "--L", "1..3", "--n", "6"],
             ConstraintSpec(Kind.DIFF_SPERNER, 6, {1, 2, 3}, PrimePower.from_q(4))),
            (["--kind", "intersecting", "--q", "9", "--L", "1,2", "--n", "8"],
             ConstraintSpec(Kind.INTERSECTING, 8, {1, 2}, PrimePower.from_q(9))),
            (["--kind", "intersecting-uniform", "--q", "4", "--uniform-residue", "1", "--n", "6"],
             ConstraintSpec(Kind.INTERSECTING_UNIFORM, 6, modulus=PrimePower.from_q(4), uniform_residue=1)),
            (["--kind", "hamming", "--L", "1..3", "--n", "7"], ConstraintSpec(Kind.HAMMING, 7, {1, 2, 3})),
            (["--kind", "close-sperner", "--L", "1", "--n", "5"], ConstraintSpec(Kind.CLOSE_SPERNER, 5, {1})),
        ],
        ids=["diff-sperner", "intersecting", "intersecting-uniform", "hamming", "close-sperner"],
    )
    def test_bound(self, capsys, argv, spec):
        code, doc = run_json(capsys, ["bound", *argv])
        best, certs = best_bound(spec)
        payload = doc["payload"]
        assert code == EXIT_OK
        for cert, written in zip(certs, payload["certificates"], strict=True):
            assert set(written) == field_names(cert)
            assert set(written["bound"]) == field_names(cert.bound)
        assert payload.pop("best") == as_json(asdict(best))
        assert payload.pop("certificates") == [as_json(asdict(c)) for c in certs]
        assert payload == {
            "kind": spec.kind.value, "n": spec.n, "q": spec.q, "L": sorted(spec.L),
            "bound": best.bound.value, "theorem_id": best.theorem_id,
        }

    def test_search(self, capsys):
        argv = ["search", "--kind", "diff-sperner", "--q", "4", "--L", "1..3", "--n", "5"]
        code, doc = run_json(capsys, argv)
        spec = ConstraintSpec(Kind.DIFF_SPERNER, 5, {1, 2, 3}, PrimePower.from_q(4))
        result = families.max_family(spec)
        payload = doc["payload"]
        assert code == EXIT_OK
        assert set(payload) == field_names(result) | {"kind", "n", "q", "L"}
        assert set(payload["stats"]) == set(result.stats)
        assert untimed(payload.pop("stats")) == as_json(untimed(result.stats))
        assert payload == {
            "kind": "diff-sperner", "n": 5, "q": 4, "L": [1, 2, 3],
            "max_size": result.max_size, "witness": [sorted(m) for m in result.witness.sets()],
            "nodes_explored": result.nodes_explored, "exact": result.exact,
        }

    @pytest.mark.parametrize(
        "kind, variant, s",
        [("diff-sperner", "sym", 2), ("close-sperner", "close", 2)],
        ids=["sym", "close"],
    )
    def test_verify(self, tmp_path, capsys, kind, variant, s):
        fam = tmp_path / "fam.txt"
        fam.write_text("{1,2}\n{1,3}\n{2,3}\n")
        argv = ["verify", "--kind", kind, "--file", str(fam), "--variant", variant, "--s", str(s), "--n", "4"]
        code, doc = run_json(capsys, argv)
        family = families.parse_family(fam.read_text(), 4)
        report = polylab.verify_independence(polylab.build_midband_system(family, s, variant))
        payload = doc["payload"]
        assert code == EXIT_OK
        assert set(payload) == field_names(report) | {"n", "q", "L"}
        assert set(payload["stats"]) == set(report.stats) | {"build_s"}
        assert untimed(payload.pop("stats")) == as_json(untimed(report.stats))
        expected = {f: getattr(report, f) for f in field_names(report) - {"stats"}}
        assert payload == as_json({**expected, "n": 4, "q": None, "L": []})

    @pytest.mark.parametrize(
        "roots, expected_v0",
        [("1..12", 10), ("0,3,5", "infinity")],
        ids=["finite", "root-at-alpha"],
    )
    def test_seppoly_check(self, capsys, roots, expected_v0):
        argv = ["seppoly", "check", "--q", "16", "--alpha", "0", "--L", "1..12", "--roots", roots]
        code, doc = run_json(capsys, argv)
        g = FactoredIntPoly(1, tuple(_parse_L(roots, None)))
        report = check_separation(PrimePower.from_q(16), g, 0, range(1, 13))
        payload = doc["payload"]
        assert code == EXIT_OK
        assert set(payload) == field_names(report) | {"q", "L", "poly"}
        assert payload.pop("v0") == expected_v0
        assert payload.pop("poly") == {"lead": 1, "roots": list(g.roots)}
        expected = {f: getattr(report, f) for f in field_names(report) - {"v0"}}
        assert payload == as_json({**expected, "q": 16, "L": list(range(1, 13))})

    def test_census(self, capsys):
        code, doc = run_json(capsys, ["census", "--q", "9"])
        census = closure.count_closed_pairs(PrimePower.from_q(9))
        assert code == EXIT_OK
        assert doc["payload"] == {"q": 9, **asdict(census)}
        assert set(doc["payload"]) == field_names(census) | {"q"}


def option(flag, type=int, required=False, default=None, choices=None, nargs=None):
    """One row of a parser's option table: option strings, dest, type,
    required, default, choices and nargs."""
    return (flag,), flag.lstrip("-").replace("-", "_"), type, required, default, choices, nargs


def required(flag, type=int):
    return option(flag, type, required=True)


HELP_OPTION = (("-h", "--help"), "help", None, False, argparse.SUPPRESS, None, 0)
JSON_OPTION = option("--json", None, default=False, nargs=0)
SPEC_OPTIONS = {required("--kind", str), option("--q"), option("--L", str)}
COMMANDS = (
    "vp", "binom", "digits", "closure", "mu", "census", "seppoly", "bound", "table", "search",
    "check", "push", "verify",
)
# every subcommand has HELP_OPTION and JSON_OPTION besides these
PARSER_OPTIONS = {
    "vp": {required("--p"), required("--n")},
    "binom": {required("--p"), required("--a"), required("--b")},
    "digits": {required("--q"), required("--s")},
    "closure": {required("--q"), required("--lo"), required("--hi")},
    "mu": {required("--q"), required("--s")},
    "census": {required("--q")},
    "seppoly": {
        ((), "action", None, True, None, ("check", "find"), None),
        required("--q"), required("--alpha"), required("--L", str), option("--roots", str),
        option("--lead", default=1), option("--max-degree", default=3), option("--window"),
        option("--budget"),
    },
    "bound": SPEC_OPTIONS | {required("--n"), option("--uniform-residue")},
    "table": {
        required("--kind", str), required("--q"), required("--n"),
        option("--no-brute", None, default=False, nargs=0),
    },
    "search": SPEC_OPTIONS | {required("--n"), option("--uniform-residue"), option("--budget")},
    "check": SPEC_OPTIONS | {required("--file", str), option("--n"), option("--uniform-residue")},
    "push": {required("--file", str), required("--s"), option("--n")},
    "verify": SPEC_OPTIONS | {
        required("--file", str), option("--n"), option("--s"),
        option("--variant", None, choices=("sym", "close")),
    },
}


def option_table(parser) -> set[tuple]:
    return {
        (
            tuple(a.option_strings), a.dest, a.type, a.required, a.default,
            None if a.choices is None else tuple(a.choices), a.nargs,
        )
        for a in parser._actions
    }


def test_parser_options():
    """Every parser's options, as a table: help may list a subcommand's
    options in another order, but no option, default or type changes."""
    parser = _build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert option_table(parser) == {HELP_OPTION, ((), "command", None, True, None, COMMANDS, argparse.PARSER)}
    assert {name: option_table(p) for name, p in sub.choices.items()} == {
        name: options | {HELP_OPTION, JSON_OPTION} for name, options in PARSER_OPTIONS.items()
    }


def run_module(argv, timeout=60):
    """`python -m qsperner argv`, in a subprocess stopped after `timeout` s."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "qsperner", *argv],
        capture_output=True, text=True, env=env, timeout=timeout,
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["bound", "--kind", "intersecting", "--q", "8", "--L", "1", "--n", "6"],
        ["seppoly", "find", "--q", "49", "--alpha", "0", "--L", "1..7", "--budget", "3"],
        ["bound", "--kind", "diff-sperner", "--q", "6", "--L", "1", "--n", "4"],
        ["mu", "--help"],
    ],
    ids=["ok", "budget-exhausted", "error", "help"],
)
def test_json_document_is_one_line(capsys, argv):
    main([*argv, "--json"])
    out = capsys.readouterr().out
    assert out.endswith("\n") and out.count("\n") == 1
    assert json.loads(out)["schema"] == 1


def test_python_dash_m_runs_the_cli():
    proc = run_module(["vp", "--p", "3", "--n", "162", "--json"])
    assert proc.returncode == EXIT_OK, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["command"] == "vp" and doc["status"] == "ok"
    assert doc["payload"]["valuation"] == 4  # 162 = 2 * 3^4


def test_closure_straddle_at_q_2_40():
    # the closure of {2^39 - 1, 2^39} reaches down to 1
    argv = ["closure", "--q", "1099511627776", "--lo", "549755813887", "--hi", "549755813888"]
    proc = run_module([*argv, "--json"], timeout=30)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert json.loads(proc.stdout)["payload"]["closure"] == {"lo": 1, "hi": 549755813888}


# --- fuzzing the command line -------------------------------------------------

FUZZ_INTS = st.one_of(st.integers(-3, 30), st.sampled_from([2**40, -(2**40), 10**30]))
# prime powers, small non-moduli, and huge ones: a prime power above R22's
# table limit, 2^40, the prime 2^61 - 1 and a non-prime-power
FUZZ_QS = st.one_of(
    st.sampled_from([2, 3, 4, 5, 7, 8, 9, 16, 25, 27]),
    st.integers(-2, 12),
    st.sampled_from([2**23, 2**40, 2**61 - 1, 10**30]),
)
FUZZ_KINDS = st.sampled_from([*(k.value for k in Kind), "nope"])
# a push or midband s: mostly 0 <= 2s <= n for the drawn families
SMALL_S = st.integers(-1, 4) | FUZZ_INTS


@st.composite
def fuzz_sets(draw):
    """An --L or --roots argument: an empty, repeated or negative list, or
    an interval, wrapped or not."""
    ints = st.integers(1, 9) | st.integers(-3, 30) | st.sampled_from([2**40, 10**30])
    if draw(st.booleans()):
        return ",".join(map(str, draw(st.lists(ints, max_size=5))))
    return f"{draw(ints)}..{draw(ints)}" + draw(st.sampled_from(["", "@wrap"]))


@st.composite
def fuzz_family(draw) -> bytes:
    """A family file: drawn bytes, or small sets in the file format, some
    with an element 0 outside every ground set."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=40))
    fam = draw(st.lists(st.sets(st.integers(0, 8), max_size=4), max_size=5))
    return "".join("{" + ",".join(map(str, sorted(s))) + "}\n" for s in fam).encode()


@st.composite
def fuzz_argvs(draw):
    """A command line of one of the fuzzed subcommands, one in ten with a
    --help put anywhere in it, and the bytes of its family file (None
    when it reads none).  The searches stay small: `search` and `table`
    draw n <= 6, `seppoly find` a budget of at most 30 multisets."""

    def opt(flag, strategy):
        return [flag, str(draw(strategy))] if draw(st.booleans()) else []

    def constraint():
        kind = draw(FUZZ_KINDS)
        # a residue mostly where it is read, so that more lines get past the spec
        read = kind == "intersecting-uniform" or draw(st.booleans())
        residue = opt("--uniform-residue", FUZZ_INTS) if read else []
        return ["--kind", kind, *opt("--q", FUZZ_QS), *opt("--L", fuzz_sets()), *residue]

    def verify():
        # the kind mostly the one the variant certifies, s mostly in a band
        variant = draw(st.sampled_from([None, "sym", "close"]))
        kind = draw(st.just("close-sperner" if variant == "close" else "diff-sperner") | FUZZ_KINDS)
        return [
            "--kind", kind, *(["--variant", variant] if variant else []), *opt("--q", FUZZ_QS),
            *opt("--L", fuzz_sets()), *opt("--n", st.integers(-2, 8)), *opt("--s", SMALL_S),
        ]

    command = draw(
        st.sampled_from([
            "vp", "binom", "digits", "closure", "mu", "census", "bound", "table", "search", "check",
            "push", "verify", "seppoly",
        ])
    )
    argv = {
        "vp": lambda: ["--p", str(draw(FUZZ_INTS)), "--n", str(draw(FUZZ_INTS))],
        "binom": lambda: [x for a in "pab" for x in (f"--{a}", str(draw(FUZZ_INTS)))],
        "digits": lambda: ["--q", str(draw(FUZZ_QS)), "--s", str(draw(FUZZ_INTS))],
        "closure": lambda: ["--q", str(draw(FUZZ_QS)), "--lo", str(draw(FUZZ_INTS)), "--hi", str(draw(FUZZ_INTS))],
        "mu": lambda: ["--q", str(draw(FUZZ_QS)), "--s", str(draw(FUZZ_INTS))],
        "census": lambda: ["--q", str(draw(FUZZ_QS))],
        "bound": lambda: [*constraint(), "--n", str(draw(st.integers(-3, 10**4)))],
        "table": lambda: [
            "--kind", draw(FUZZ_KINDS), "--q", str(draw(FUZZ_QS)), "--n", str(draw(st.integers(-2, 6))),
            *(["--no-brute"] if draw(st.booleans()) else []),
        ],
        "search": lambda: [*constraint(), "--n", str(draw(st.integers(-2, 6))), *opt("--budget", FUZZ_INTS)],
        "check": lambda: [*constraint(), *opt("--n", st.integers(-2, 8))],
        "push": lambda: ["--s", str(draw(SMALL_S)), *opt("--n", st.integers(-2, 8))],
        "verify": verify,
        "seppoly": lambda: [
            "check", "--q", str(draw(FUZZ_QS)), "--alpha", str(draw(FUZZ_INTS)),
            "--L", draw(fuzz_sets()), *opt("--roots", fuzz_sets()), *opt("--lead", FUZZ_INTS),
        ] if draw(st.booleans()) else [
            "find", "--q", str(draw(FUZZ_QS)), "--alpha", str(draw(FUZZ_INTS)), "--L", draw(fuzz_sets()),
            *opt("--max-degree", FUZZ_INTS), *opt("--window", FUZZ_INTS),
            "--budget", str(draw(st.integers(-2, 30))),
        ],
    }[command]()
    argv = [command, *argv]
    if draw(st.integers(0, 9)) == 0:
        # a request for help anywhere, even before the subcommand or
        # where an option's value belongs
        argv.insert(draw(st.integers(0, len(argv))), "--help")
    return argv, draw(fuzz_family()) if command in ("check", "push", "verify") else None


class TestFuzz:
    @given(fuzz_argvs())
    @settings(max_examples=300, deadline=None)
    def test_one_schema_1_document(self, tmp_path_factory, drawn):
        """Whatever the input, the CLI answers 0, 2 or 3 with exactly one
        parseable schema-1 document on stdout."""
        argv, family = drawn
        if family is not None:
            path = tmp_path_factory.mktemp("fuzz") / "fam.txt"
            path.write_bytes(family)
            argv = [*argv, "--file", str(path)]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main([*argv, "--json"])
        doc = json.loads(out.getvalue())
        assert code in (EXIT_OK, EXIT_USAGE, EXIT_BUDGET), argv
        assert doc["schema"] == 1
        if code == EXIT_USAGE:
            assert doc["status"] == "error" and doc["diagnostics"], argv
        else:
            assert doc["command"] == (None if argv[0] == "--help" else argv[0]), argv
            assert ("help" in doc["payload"]) == ("--help" in argv), argv
