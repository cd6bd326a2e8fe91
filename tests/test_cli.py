import json

import pytest

from qsperner.cli import (
    EXIT_BUDGET,
    EXIT_OK,
    EXIT_USAGE,
    UsageError,
    _parse_L,
    dispatch,
    main,
)
from qsperner.families import SetFamily, format_family


def run_json(capsys, argv):
    code = main(argv + ["--json"])
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == 1
    return code, doc


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
        assert (
            stats["search_nodes"] + stats["restore_nodes"]
            == doc["payload"]["nodes_explored"]
        )

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

    def test_census(self, capsys):
        code, doc = run_json(capsys, ["census", "--q", "4"])
        assert doc["payload"]["count"] == 5
        assert doc["payload"]["closed_form"] == 5
        assert doc["payload"]["alt_form"] == -3
        assert doc["diagnostics"]

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

    def test_seppoly_find(self, capsys):
        code, doc = run_json(
            capsys,
            [
                "seppoly", "find", "--q", "4", "--alpha", "0",
                "--L", "1..3", "--max-degree", "3",
            ],
        )
        assert doc["payload"]["degree"] == 3

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
        assert set(stats) == {"columns", "nonzeros", "rank_s", "build_s"}
        # g(t) = t - 1, so P holds the four -x_i; F holds x_4 - 1
        assert (stats["columns"], stats["nonzeros"]) == (5, 6)
        assert stats["rank_s"] >= 0 and stats["build_s"] >= 0

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


def layer(n, k):
    return [m for m in range(1 << n) if m.bit_count() == k]


def without_lowest_of_first(members):
    """Replace the least member (k-layers: {1..k}, which misses element n)
    by itself minus its lowest element, a proper subset of it."""
    first = members[0]
    return [first & (first - 1)] + members[1:]


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

    def test_seed_flag_is_gone(self, capsys):
        code, doc = run_json(
            capsys, ["bound", "--seed", "1", "--kind", "diff-sperner", "--q", "4", "--L", "1", "--n", "4"]
        )
        assert code == EXIT_USAGE
        assert doc == {
            "schema": 1, "status": "error", "payload": {},
            "diagnostics": ["argument parsing failed"],
        }

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

    def test_dispatch_is_deterministic(self):
        one = dispatch(["bound", "--kind", "hamming", "--q", "3", "--L", "1,2", "--n", "5"])
        two = dispatch(["bound", "--kind", "hamming", "--q", "3", "--L", "1,2", "--n", "5"])
        assert one.payload == two.payload
