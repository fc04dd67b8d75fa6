import argparse
import contextlib
import dataclasses
import inspect
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from balancegame import (
    BalanceGameError,
    CapacityError,
    DimensionError,
    DomainError,
    GameSpec,
    ResourceLimitError,
    UndecidedError,
    cli,
    engine,
    montecarlo,
    verifier,
)
from balancegame.cli import main
from balancegame.formats import FormatError, render_report, report
from test_formats import readable_parse_strategy


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


@pytest.fixture
def plan_file(tmp_path):
    def write(rows, name="plan.txt"):
        path = tmp_path / name
        path.write_text("\n".join(rows) + "\n")
        return str(path)

    return write


class TestConstruct:
    def test_binary(self, capsys):
        code, out, _ = run(capsys, "construct", "--kind", "binary", "--n", "4", "--q", "2")
        assert code == 0
        assert out.splitlines()[0].startswith("#")
        assert out.splitlines()[1:] == ["LL", "LR", "RL", "RR"]

    def test_capacity_exit_code(self, capsys):
        code, _, err = run(capsys, "construct", "--kind", "binary", "--n", "5", "--q", "2")
        assert code == 3
        assert "error" in err

    def test_random_is_seeded(self, capsys):
        _, out1, _ = run(capsys, "construct", "--kind", "random", "--n", "6",
                         "--q", "3", "--r", "0.66", "--seed", "42")
        _, out2, _ = run(capsys, "construct", "--kind", "random", "--n", "6",
                         "--q", "3", "--r", "0.66", "--seed", "42")
        assert out1 == out2


class TestAdjudicate:
    def test_identification(self, capsys, plan_file):
        path = plan_file(["LL", "LR", "RL", "RR"])
        doc = run_json(capsys, "adjudicate", "--spec", "4,2,0,heavy",
                       "--strategy", path, "--mask", "LR")
        assert doc["command"] == "adjudicate"
        assert doc["outcome"] == "player-identifies"
        assert doc["identified"] == "coin 2 heavier"
        assert doc["transcript"] == ["+x", "++", "xx", "x+"]

    def test_lie_caught(self, capsys, plan_file):
        path = plan_file(["LL", "LR", "RL", "RR"])
        doc = run_json(capsys, "adjudicate", "--spec", "4,2,0,heavy",
                       "--strategy", path, "--mask", "DD")
        assert doc["outcome"] == "player-catches-lie"
        assert doc["survivors"] == []

    def test_balance_win(self, capsys, plan_file):
        path = plan_file(["L", "L", "O"])
        doc = run_json(capsys, "adjudicate", "--spec", "3,1,0,heavy",
                       "--strategy", path, "--mask", "L")
        assert doc["outcome"] == "balance-wins"
        assert doc["survivors"] == ["coin 1 heavier", "coin 2 heavier"]

    def test_bad_mask_is_usage_error(self, capsys, plan_file):
        path = plan_file(["LL", "LR"])
        code, _, err = run(capsys, "adjudicate", "--spec", "2,2,0,heavy",
                           "--strategy", path, "--mask", "LRX")
        assert code == 2

    def test_missing_file_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "adjudicate", "--spec", "2,2,0,heavy",
                         "--strategy", "/nonexistent/plan.txt", "--mask", "LL")
        assert code == 2


class TestAttack:
    def test_exhaustive_attack(self, capsys, plan_file):
        path = plan_file(["L", "L", "O"])
        doc = run_json(capsys, "attack", "--spec", "3,1,0,heavy", "--strategy", path)
        assert doc["outcome"] == "attack-found"
        assert doc["mask"] == "L"
        assert doc["method"] == "exhaustive"

    def test_constructive_attack(self, capsys, plan_file):
        path = plan_file(["LL", "RR", "LL"])
        doc = run_json(capsys, "attack", "--spec", "3,2,0,heavy",
                       "--strategy", path, "--constructive")
        assert doc["method"] == "duplicate-rows"

    def test_perfect_plan(self, capsys, plan_file):
        path = plan_file(["L", "R", "O"])
        doc = run_json(capsys, "attack", "--spec", "3,1,0,heavy", "--strategy", path)
        assert doc["outcome"] == "perfect"
        assert doc["mask"] is None


class TestCertify:
    def test_must_win(self, capsys, plan_file):
        path = plan_file(["LL", "LR", "RL", "RR"])
        doc = run_json(capsys, "certify", "--spec", "4,2,0,heavy", "--strategy", path)
        assert doc["outcome"] == "player-must-win"
        assert doc["masks_checked"] == 9

    def test_failure_names_the_attack(self, capsys, plan_file):
        path = plan_file(["O", "O"])
        doc = run_json(capsys, "certify", "--spec", "2,1,0,heavy", "--strategy", path)
        assert doc["outcome"] == "balance-wins"
        assert doc["attack_mask"] == "D"


# Lines of a strategy file: rows of one width in either case, ragged rows,
# padding, comments (some indented, some holding '#' past their first cell),
# non-ASCII letters (some upper-casing to two letters) and blanks; joined by
# every kind of line end, then encoded, with a stray byte that is not UTF-8
# spliced in now and then.
_FILE_LINES = st.lists(st.one_of(
    st.text(alphabet="LROlro", min_size=3, max_size=3),
    st.text(alphabet="LROlro", min_size=2, max_size=4),
    st.tuples(st.text(alphabet=" \t", max_size=2), st.text(alphabet="LROlro", min_size=3, max_size=3),
              st.text(alphabet=" \t", max_size=2)).map("".join),
    st.tuples(st.text(alphabet=" \t", max_size=2), st.text(alphabet="# xL", max_size=4)).map(
        lambda t: t[0] + "#" + t[1]),
    st.sampled_from(["L#R", "l#r", "LR#", "ß", "ﬁ", "LßR", "é", "", "  ", "\t"]),
), max_size=8)
_FILE_BYTES = st.tuples(
    _FILE_LINES,
    st.lists(st.sampled_from(["\n", "\r\n", "\r", "\x0c", "\u2028", ""]), min_size=8, max_size=8),
    st.sampled_from([b"", b"", b"", b"\xff", b"\xc3", b"\xed\xa0\x80", b"\xe2\x82"]),
    st.integers(0, 64),
).map(lambda t: (lambda data: data[: t[3]] + t[2] + data[t[3]:])(
    "".join(line + end for line, end in zip(t[0], t[1])).encode()))


def _first_bad_byte(data):
    """Offset of the first byte of ``data`` that is not UTF-8, by the text
    ``errors="replace"`` decodes: its first U+FFFD (the data holds none),
    and the bytes of the text before it."""
    text = data.decode("utf-8", "replace")
    return len(text[: text.index("\ufffd")].encode()) if "\ufffd" in text else None


class TestLoadStrategy:
    """The CLI reads a strategy file's bytes and decodes them once."""

    @given(_FILE_BYTES)
    @settings(max_examples=400)
    def test_agrees_with_text_mode_reading(self, tmp_path_factory, data):
        path = tmp_path_factory.getbasetemp() / "plan-bytes.txt"
        path.write_bytes(data)
        bad = _first_bad_byte(data)
        if bad is not None:
            with pytest.raises(FormatError) as got:
                cli._load_strategy(str(path))
            assert str(got.value) == (
                f"strategy file {str(path)!r} is not UTF-8: byte {data[bad]:#04x} at offset {bad}")
            return
        with open(path, encoding="utf-8") as fh:  # text mode: universal newlines
            text = fh.read()
        try:
            want = readable_parse_strategy(text)
        except FormatError as exc:
            with pytest.raises(FormatError) as got:
                cli._load_strategy(str(path))
            assert (str(got.value), got.value.line, got.value.column) == (str(exc), exc.line, exc.column)
        else:
            assert cli._load_strategy(str(path)) == want

    @pytest.mark.parametrize("data,message", [
        (b"LRO\r\nL#R\r\n", "line 2, column 2: placement must be one of 'LRO', got '#'"),
        (b"  # note\rlro\rLR\r", "line 3: row has 2 placements, earlier rows have 3"),
        (b"lr\x0cLR\xe2\x80\xa8LRO\n", "line 3: row has 3 placements, earlier rows have 2"),
    ])
    def test_pinned_errors(self, tmp_path, data, message):
        path = tmp_path / "plan.txt"
        path.write_bytes(data)
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            cli._load_strategy(str(path))

    def test_crlf_lower_case_and_comments(self, tmp_path):
        path = tmp_path / "plan.txt"
        path.write_bytes(b"# four coins\r\n\tll \r\n  # note\r\nlr\r\n\r\nRL\r\nrr")
        assert cli._load_strategy(str(path)) == ("LL", "LR", "RL", "RR")

    def test_a_file_that_is_not_utf8_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"L\xffR\n")
        code, out, err = run(capsys, "certify", "--spec", "1,3,0,heavy", "--strategy", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: strategy file {str(path)!r} is not UTF-8: byte 0xff at offset 1\n"


class TestValue:
    def test_exhaustive(self, capsys):
        doc = run_json(capsys, "value", "--spec", "3,1,0,heavy", "--exhaustive")
        assert doc["winner"] == "player"
        assert doc["mode"] == "exhaustive"

    def test_constructive(self, capsys):
        doc = run_json(capsys, "value", "--spec", "14,3,0,unknown", "--constructive")
        assert doc["winner"] == "balance"

    def test_undecided_exit_code(self, capsys):
        code, _, err = run(capsys, "value", "--spec", "2,5,1,heavy", "--constructive")
        assert code == 6

    def test_resource_exit_code(self, capsys):
        code, _, _ = run(capsys, "value", "--spec", "4,9,1,heavy", "--exhaustive")
        assert code == 4

    def test_builder_plan_over_the_matrix_cap(self, capsys):
        code, out, err = run(capsys, "value", "--spec", "200000,13,0,heavy", "--constructive",
                             "--matrix-cap", "1000")
        assert (code, out) == (4, "") and "2600000 cells" in err and "--matrix-cap" in err
        doc = run_json(capsys, "value", "--spec", "20,13,0,heavy", "--matrix-cap", "260")
        assert doc["winner"] == "player" and len(doc["witness"]) == 20

    def test_every_printed_witness_certifies_as_text(self, capsys):
        # The witness is certified on the digits it is printed from; this holds
        # the printed text to the public certify on every value of the grid
        # q <= 5, k <= 2, n <= least + 1 that answers.  A cap of 300 000 keeps
        # the q = 5, k = 1 heavy exhaustive searches at n 16-18, which take
        # 3-5 s each at the default cap, to a tenth of a second each; from
        # n = 19 on the Delsarte LP answers without a search.
        witnesses = 0
        for q, k, prior in itertools.product(range(1, 6), range(3), ("heavy", "unknown")):
            if k > q:
                continue
            for n in range(1, engine.pigeonhole_min_n(q, k, prior) + 2):
                spec = GameSpec(n, q, k, prior)
                for flags in ((), ("--exhaustive",), ("--constructive",)):
                    code, out, err = run(capsys, "value", "--spec", spec.compact(), *flags,
                                         "--matrix-cap", "300000")
                    assert code in (0, 4, 6), (spec, flags, err)
                    witness = json.loads(out)["witness"] if code == 0 else None
                    if witness is not None:
                        assert verifier.certify(spec, witness).must_win, (spec, flags)
                        witnesses += 1
        assert witnesses >= 1700, witnesses


class TestCensus:
    def test_four_two_unknown(self, capsys):
        doc = run_json(capsys, "census", "--n", "4", "--q", "2", "--prior", "unknown")
        assert doc["perfect_count"] == 384
        assert doc["total_plans"] == 6561
        assert doc["perfect_rate"] == pytest.approx(384 / 6561)


class TestSearchFreeAnswers:
    """What the clique search answers without searching is decided at the
    default matrix cap, however many plans there are."""

    @pytest.mark.parametrize("argv,field,want", [
        (["value", "--spec", "100,4,0,heavy", "--exhaustive"], "winner", "balance"),  # n > 81 rows
        (["census", "--n", "10", "--q", "4", "--k", "1"], "perfect_count", 0),  # pigeonhole
        (["census", "--n", "1", "--q", "30"], "perfect_count", 3**30),  # every row
        (["value", "--spec", "1,30,0,heavy", "--exhaustive"], "winner", "player"),
    ])
    def test_decided_at_the_default_cap(self, capsys, argv, field, want):
        assert run_json(capsys, *argv)[field] == want

    @pytest.mark.parametrize("argv,field,want", [
        # value at its plan's 12 cells: one cell fewer is refused (below)
        (["value", "--spec", "1,12,1,unknown", "--exhaustive", "--matrix-cap", "12"], "witness",
         ["L" * 12]),
        (["census", "--n", "1", "--q", "12", "--k", "1", "--prior", "unknown", "--matrix-cap", "10"],
         "perfect_count", 531152),  # 3**12 less the 289 rows within 2 rounds on a pan
    ])
    def test_decided_without_a_graph_under_a_small_cap(self, capsys, monkeypatch, argv, field, want):
        def refuse(self):
            raise AssertionError("graph built")
        monkeypatch.setattr(engine._CliqueSearch, "_admissible", refuse)
        assert run_json(capsys, *argv)[field] == want

    @pytest.mark.parametrize("argv,field,want", [
        # 18 words at distance 3 is the most five rounds hold (the Delsarte LP),
        # so from 19 coins every plan loses; the pigeonhole starts at 23.
        *[(["value", "--spec", f"{n},5,1,heavy", "--exhaustive"], "winner", "balance")
          for n in range(19, 23)],
        (["value", "--spec", "19,5,1,heavy"], "winner", "balance"),
        (["census", "--n", "19", "--q", "5", "--k", "1"], "perfect_count", 0),
        (["census", "--n", "9", "--q", "5", "--k", "1", "--prior", "unknown"], "perfect_count", 0),
    ])
    def test_decided_by_the_delsarte_lp(self, capsys, monkeypatch, argv, field, want):
        def refuse(self):
            raise AssertionError("graph built")
        monkeypatch.setattr(engine._CliqueSearch, "_admissible", refuse)
        assert run_json(capsys, *argv)[field] == want

    def test_a_plan_past_the_cap_in_cells_is_refused(self, capsys, monkeypatch):
        monkeypatch.setattr(engine._CliqueSearch, "first", lambda self, n: pytest.fail("built"))
        code, out, err = run(capsys, "value", "--spec", "1,12,1,unknown", "--exhaustive",
                             "--matrix-cap", "11")
        assert (code, out) == (4, "")
        assert err.startswith("error: the builder plan for 1,12,1,unknown has 12 cells")


class TestSweep:
    def test_csv_shape(self, capsys):
        code, out, _ = run(capsys, "sweep", "--qmax", "2", "--prior", "heavy")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "q,player_max_n,balance_min_n,mode,capacity,mass_bound_min_n"
        assert lines[1].startswith("1,3,4,exhaustive,3,")
        assert lines[2].startswith("2,9,10,")

    @pytest.mark.parametrize("argv,rows", [
        (["--prior", "heavy", "--k", "1"],
         ["1,1,2,exhaustive,,2", "2,1,2,exhaustive,,2", "3,3,4,mass-bound,,4", "4,2,10,mass-bound,,10"]),
        (["--prior", "unknown"],
         ["1,1,2,exhaustive,1,", "2,4,5,exhaustive,4,", "3,13,14,constructive,13,",
          "4,40,41,constructive,40,"]),
    ])
    def test_csv_cells(self, capsys, argv, rows):
        # Empty cells are the fields a row leaves None.
        code, out, _ = run(capsys, "sweep", "--qmax", "4", *argv)
        assert code == 0
        assert out == "\n".join(["q,player_max_n,balance_min_n,mode,capacity,mass_bound_min_n", *rows]) + "\n"

    @pytest.mark.parametrize("argv,qmax,k", [
        (["--qmax", "0"], 0, 0), (["--qmax", "-3"], -3, 0), (["--qmax", "2", "--k", "5"], 2, 5),
    ])
    def test_a_sweep_with_no_row_is_refused(self, capsys, argv, qmax, k):
        # Rows start at q = max(1, k); below that the CSV would be its header alone.
        code, out, err = run(capsys, "sweep", *argv)
        assert (code, out, err) == (
            5, "", f"error: sweep needs qmax >= max(1, k), got qmax={qmax}, k={k}\n")

    def test_default_cap_is_the_sweeps_own(self):
        args = cli.build_parser().parse_args(["sweep", "--qmax", "1"])
        default = inspect.signature(verifier.theorem_sweep).parameters["matrix_cap"].default
        assert args.matrix_cap == default == verifier.SWEEP_MATRIX_CAP

    @pytest.mark.parametrize("prior", ["heavy", "unknown"])
    def test_lie_budget_above_one_round(self, capsys, prior):
        # Rows start at q = k, the first round count a budget of k fits.
        code, out, _ = run(capsys, "sweep", "--qmax", "4", "--k", "2", "--prior", prior)
        assert code == 0
        lines = out.strip().split("\n")
        assert [int(line.split(",")[0]) for line in lines[1:]] == [2, 3, 4]
        for line in lines[1:]:
            q, player_max, balance_min, mode, _, mass_min = line.split(",")
            q, player_max, balance_min = int(q), int(player_max), int(balance_min)
            assert mode == "exhaustive" and int(mass_min) == engine.pigeonhole_min_n(q, 2, prior)
            assert balance_min == player_max + 1
            if player_max:
                spec = GameSpec(player_max, q, 2, prior)
                assert verifier.game_value(spec, "exhaustive").winner == "player"
            spec = GameSpec(balance_min, q, 2, prior)
            assert verifier.game_value(spec, "exhaustive").winner == "balance"

    @pytest.mark.parametrize("prior", ["heavy", "unknown"])
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_each_rows_largest_win_certifies_as_text(self, capsys, prior, k):
        # The sweep certifies its largest win's digits and prints no plan;
        # this rebuilds that plan's text and holds it to the public certify.
        code, out, _ = run(capsys, "sweep", "--qmax", "5", "--k", str(k), "--prior", prior)
        assert code == 0
        for line in out.strip().split("\n")[1:]:
            q, player_max, _, mode = line.split(",")[:4]
            q = int(q)
            won, codes, _ = verifier._largest_win(q, k, prior, verifier.SWEEP_MATRIX_CAP)
            if mode != "constructive":  # past the cap a k = 0 row reports the capacity
                assert won == int(player_max or 0), line
            if won:
                plan = engine.decode_rows(codes, q)
                assert verifier.certify(GameSpec(won, q, k, prior), plan).must_win, line

    @pytest.mark.parametrize("argv", [
        ["sweep", "--qmax", "2"],
        ["construct", "--kind", "ternary", "--n", "2", "--q", "1"],
        ["analyze", "--curve", "g", "--grid", "3"],
        ["play", "--spec", "2,1,0,heavy", "--as-player"],
    ])
    def test_pretty_is_refused_where_no_report_is_rendered(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--pretty"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --pretty" in capsys.readouterr().err


class TestAnalyze:
    def test_g_curve(self, capsys):
        code, out, _ = run(capsys, "analyze", "--curve", "g", "--grid", "999")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "r,g"
        best = max(
            (line.split(",") for line in lines[1:]), key=lambda rv: float(rv[1])
        )
        assert abs(float(best[0]) - 2 / 3) < 2e-3
        assert abs(float(best[1]) - 3.0) < 1e-4

    def test_v_needs_r2(self, capsys):
        code, _, _ = run(capsys, "analyze", "--curve", "v")
        assert code == 2

    @pytest.mark.parametrize("r2", ["-0.5", "1.0", "1.5", "nan"])
    def test_v_refuses_a_lie_fraction_outside_the_unit_interval(self, capsys, r2):
        # Checked before sampling: the error names the --r2 given, not a grid point.
        code, out, err = run(capsys, "analyze", "--curve", "v", f"--r2={r2}", "--grid", "3")
        assert (code, out, err) == (5, "", f"error: lie fraction must lie in [0, 1), got {float(r2)}\n")

    @pytest.mark.parametrize("curve", ["v", "optimal-r"])
    def test_an_r2_list_without_numbers_is_malformed(self, capsys, curve):
        code, out, _ = run(capsys, "analyze", "--curve", curve, "--r2", ",")
        assert (code, out) == (2, "")

    def test_an_empty_qvec_is_malformed(self, capsys):
        # An empty profile would sum over no coins and print a table of zeros.
        code, out, err = run(capsys, "analyze", "--curve", "f", "--qvec", ",", "--q", "3", "--grid", "3")
        assert (code, out, err) == (2, "", "error: curve 'f' needs at least one --qvec value, got ','\n")

    def test_optimal_r_table(self, capsys):
        code, out, _ = run(capsys, "analyze", "--curve", "optimal-r",
                           "--r2", "0,0.2")
        lines = out.strip().split("\n")
        assert lines[0] == "r2,argmax,max"
        first = lines[1].split(",")
        assert abs(float(first[1]) - 2 / 3) < 1e-5
        assert abs(float(first[2]) - 3.0) < 1e-8
        second = lines[2].split(",")
        assert abs(float(second[1]) - 0.5632993108469602) < 1e-5

    def test_phi_curve(self, capsys):
        code, out, _ = run(capsys, "analyze", "--curve", "phi", "--r", "0.5",
                           "--q", "4", "--grid", "3")
        lines = out.strip().split("\n")
        assert lines[0] == "p,phi"
        assert len(lines) == 4

    def test_f_curve(self, capsys):
        code, out, _ = run(capsys, "analyze", "--curve", "f", "--qvec", "2,2,2,2",
                           "--q", "2", "--grid", "3")
        lines = out.strip().split("\n")
        assert lines[0] == "p,f"
        # interior grid over (0, 0.5) with 3 points: p = 0.125, 0.25, 0.375
        p_mid, f_mid = map(float, lines[2].split(","))
        assert p_mid == pytest.approx(0.25)
        assert f_mid == pytest.approx(8 * 0.25**2)


class TestSimulate:
    def test_report_fields(self, capsys):
        doc = run_json(capsys, "simulate", "--spec", "4,2,0,heavy", "--r", "1.0",
                       "--trials", "64", "--seed", "0")
        assert doc["command"] == "simulate"
        assert doc["trials"] == 64
        assert 0.0 <= doc["estimate"] <= 1.0
        assert doc["half_width"] >= 0.0

    def test_deterministic(self, capsys):
        doc1 = run_json(capsys, "simulate", "--spec", "4,2,0,heavy", "--r", "0.5",
                        "--trials", "100", "--seed", "7")
        doc2 = run_json(capsys, "simulate", "--spec", "4,2,0,heavy", "--r", "0.5",
                        "--trials", "100", "--seed", "7")
        assert doc1 == doc2


class TestTrialReports:
    """simulate and perfect-rate render a TrialReport's fields shallowly;
    the output is the deep dataclasses.asdict rendering."""

    @pytest.mark.parametrize("argv, build", [
        (["simulate", "--spec", "4,2,1,unknown", "--r", "0.5", "--trials", "30", "--seed", "2"],
         lambda: montecarlo.simulate_random_player(GameSpec(4, 2, 1, "unknown"), 0.5, 30, 2)),
        (["perfect-rate", "--n", "4", "--q", "2", "--prior", "unknown", "--trials", "50",
          "--seed", "3"],
         lambda: montecarlo.random_perfect_rate(4, 2, "unknown", 50, 3)),
    ])
    @pytest.mark.parametrize("pretty", [[], ["--pretty"]])
    def test_same_as_asdict(self, capsys, argv, build, pretty):
        code, out, _ = run(capsys, *argv, *pretty)
        doc = report(argv[0], **dataclasses.asdict(build()))
        assert code == 0 and out == render_report(doc, pretty=bool(pretty)) + "\n"


class TestConcentrate:
    def test_within_bound(self, capsys):
        doc = run_json(capsys, "concentrate", "--q", "100", "--r", "0.6667",
                       "--delta", "0.1", "--trials", "2000", "--seed", "1")
        assert doc["within_bound"] is True
        assert doc["chernoff_bound"] == pytest.approx(
            2 * math.exp(-2.0), rel=1e-12
        )


    @pytest.mark.parametrize("delta", ["nan", "NaN", "0", "-0.1"])
    def test_a_deviation_that_is_not_positive_is_refused(self, capsys, delta):
        code, out, err = run(capsys, "concentrate", "--q", "5", "--r", "0.5",
                             "--delta", delta, "--trials", "10")
        assert (code, out) == (5, "")
        assert re.fullmatch(r"error: deviation must be positive, got -?(nan|0\.0|0\.1)\n", err)

    def test_an_infinite_deviation_is_refused_where_json_has_no_word_for_it(self, capsys):
        argv = ["concentrate", "--q", "5", "--r", "0.5", "--delta", "inf", "--trials", "10"]
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (5, "", "error: cannot print delta: inf is not a JSON number\n")
        assert "delta: inf" in run(capsys, *argv, "--pretty")[1]


LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit on int-to-str


class TestHugeCoinCounts:
    """Auto value and census at 10**9 and 10**12 coins answer or refuse at once."""

    def test_auto_value(self, capsys):
        code, out, err = run(capsys, "value", "--spec", "1000000000,39,5,heavy")
        assert (code, out) == (6, "")  # below the LP threshold: only the graph decides
        doc = run_json(capsys, "value", "--spec", "1000000000000,39,5,heavy")  # past the pigeonhole
        assert (doc["winner"], doc["mode"], doc["instances_checked"]) == ("balance", "constructive", 0)

    def test_census_refuses_the_graph_at_a_billion_coins(self, capsys):
        code, out, err = run(capsys, "census", "--n", "1000000000", "--q", "39", "--k", "5")
        assert (code, out) == (4, "")
        assert err.startswith("error: a compatibility graph of 4052555153018976267**2 cells")


@pytest.mark.skipif(LIMIT == 0, reason="this interpreter prints integers of any length")
class TestUnprintableNumbers:
    """A count past the int-to-str digit limit is refused with exit 5 and one line."""

    N = LIMIT  # 3**(5n) plans of n coins over 5 rounds: about 2.4n digits, past the limit

    @staticmethod
    def digits_of_power_of_three(exponent):
        return math.floor(exponent * math.log10(3)) + 1

    @pytest.mark.parametrize("argv,field", [
        (["census", "--n", str(N), "--q", "5"], "total_plans"),
        (["census", "--n", str(N), "--q", "5", "--pretty"], "total_plans"),
        (["value", "--spec", f"{N},5,0,heavy", "--exhaustive"], "instances_checked"),
        (["value", "--spec", f"{N},5,0,heavy", "--exhaustive", "--pretty"], "instances_checked"),
    ])
    def test_a_report_count_past_the_limit(self, capsys, argv, field):
        code, out, err = run(capsys, *argv)
        digits = self.digits_of_power_of_three(5 * self.N)
        assert (code, out) == (5, "")
        assert err == (f"error: cannot print {field}: it has {digits} digits, over the "
                       f"{LIMIT}-digit limit on integer printing\n")

    def test_a_csv_cell_past_the_limit(self, capsys):
        # Heavy k = 0 capacity 3**q: the first q whose capacity has too many digits.
        q = next(q for q in itertools.count(LIMIT * 2) if self.digits_of_power_of_three(q) > LIMIT)
        code, out, err = run(capsys, "sweep", "--qmax", str(q))
        assert (code, out) == (5, "")
        assert err.startswith(f"error: cannot print player_max_n: it has {LIMIT + 1} digits")

    @pytest.mark.parametrize("argv,field", [
        (["census", "--n", "1000000000000", "--q", "39", "--k", "5"], "total_plans"),
        (["value", "--spec", "1000000000000,39,5,heavy", "--exhaustive"], "instances_checked"),
    ])
    def test_a_count_past_the_block_budget_is_refused_unformed(self, capsys, argv, field):
        # 3**(39 * 10**12) has 18,607,728,934,067 digits; it is counted, never formed.
        code, out, err = run(capsys, *argv)
        assert (code, out) == (5, "")
        assert err == (f"error: cannot print {field}: it has 18607728934067 digits, over the "
                       f"{LIMIT}-digit limit on integer printing\n")

    def test_no_traceback_from_the_console(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-m", "balancegame.cli", "census", "--n",
                               str(self.N), "--q", "5"], env=env, capture_output=True,
                              text=True, timeout=120)
        assert (done.returncode, done.stdout) == (5, "")
        assert len(done.stderr.splitlines()) == 1 and done.stderr.startswith("error: ")
        assert "Traceback" not in done.stderr


class TestPerfectRate:
    def test_census_extras(self, capsys):
        doc = run_json(capsys, "perfect-rate", "--n", "4", "--q", "2",
                       "--prior", "unknown", "--trials", "200", "--seed", "3")
        assert doc["extras"]["census_count"] == 384

    @pytest.mark.parametrize("n,q,field", [
        ("200", "1", "pair_count_rate"),
        ("324", "3", "pair_count_rate_with_columns"),  # only the q! factor overflows
    ])
    def test_rates_past_a_float_are_refused(self, capsys, n, q, field):
        code, out, err = run(capsys, "perfect-rate", "--n", n, "--q", q, "--trials", "1")
        assert (code, out) == (5, "")
        assert err == f"error: {field} overflows a float at n={n}, q={q}\n"

    def test_rates_within_a_float_are_kept(self, capsys):
        doc = run_json(capsys, "perfect-rate", "--n", "5", "--q", "1", "--trials", "1")
        assert doc["extras"]["pair_count_rate"] == 15.802469135802468
        assert doc["extras"]["pair_count_rate_with_columns"] == 15.802469135802468


class TestPlay:
    def test_balance_announces_against_file(self, capsys, plan_file, monkeypatch):
        path = plan_file(["L", "L", "O"])
        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        code = main(["play", "--spec", "3,1,0,heavy", "--strategy", path,
                     "--as-player"])
        out = capsys.readouterr().out
        assert code == 0
        assert "balance announces L" in out

    def test_human_as_balance(self, capsys, plan_file, monkeypatch):
        path = plan_file(["LL", "LR", "RL", "RR"])
        monkeypatch.setattr("sys.stdin", io.StringIO("LR\n"))
        code = main(["play", "--spec", "4,2,0,heavy", "--strategy", path])
        out = capsys.readouterr().out
        assert code == 0
        assert "coin 2" in out


class TestExitCodes:
    @pytest.mark.parametrize("error,code", [
        (FormatError, 2),
        (DimensionError, 2),
        (CapacityError, 3),
        (ResourceLimitError, 4),
        (DomainError, 5),
        (UndecidedError, 6),
        (BalanceGameError, 1),
    ])
    def test_each_error_type_has_its_exit_code(self, capsys, monkeypatch, error, code):
        def fail(args):
            raise error("boom")

        monkeypatch.setattr(cli, "_cmd_concentrate", fail)
        got, out, err = run(capsys, "concentrate", "--q", "5", "--r", "0.5",
                            "--delta", "0.1", "--trials", "10")
        assert (got, out, err) == (code, "", "error: boom\n")

    def test_domain_exit_code(self, capsys):
        code, _, err = run(capsys, "concentrate", "--q", "0", "--r", "0.5",
                           "--delta", "0.1", "--trials", "10")
        assert code == 5
        assert err.startswith("error: need q >= 1")

    @pytest.mark.parametrize("argv", [
        ["certify", "--spec", "2,40,0,heavy"],
        ["attack", "--spec", "2,40,0,heavy"],
        ["attack", "--spec", "2,40,0,heavy", "--constructive"],
        ["play", "--spec", "2,40,0,heavy", "--as-player"],
        ["simulate", "--spec", "2,40,1,unknown", "--r", "0.5", "--trials", "3"],
        ["perfect-rate", "--n", "2", "--q", "40", "--trials", "3"],
        ["census", "--n", "2", "--q", "40", "--k", "1", "--matrix-cap", str(10**40)],  # the graph
    ])
    def test_forty_rounds_are_refused(self, capsys, plan_file, argv):
        if argv[0] in ("certify", "attack", "play"):
            argv = argv + ["--strategy", plan_file(["L" * 40, "R" * 40])]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (4, "")
        assert err.startswith("error: 40 rounds exceed the 39")

    @pytest.mark.parametrize("argv,field,want", [
        (["census", "--n", "1", "--q", "40", "--matrix-cap", str(10**30)], "perfect_count", 3**40),
        (["census", "--n", "2", "--q", "40"], "perfect_count", math.comb(3**40, 2) * 2),
        (["value", "--spec", "1,40,0,heavy", "--exhaustive", "--matrix-cap", str(10**30)], "witness",
         ["L" * 40]),
        (["value", "--spec", "2,40,0,heavy", "--exhaustive"], "witness", ["L" * 40, "L" * 39 + "R"]),
    ])
    def test_forty_rounds_are_answered_by_the_rungs_before_the_graph(self, capsys, argv, field, want):
        # Only the graph rung makes int64 codes, so only it is held to 39 rounds.
        assert run_json(capsys, *argv)[field] == want


class TestSingleReportPath:
    """Handlers return their fields; main() alone stamps the schema and
    command, fills in elapsed_ms and renders."""

    TRIAL_KEYS = ["schema", "command", "spec", "params", "trials", "successes", "estimate",
                  "half_width", "seed", "extras"]
    KEYS = {
        "adjudicate": ["schema", "command", "spec", "mask", "outcome", "winner", "identified",
                       "survivors", "transcript", "elapsed_ms"],
        "attack": ["schema", "command", "spec", "outcome", "mask", "method", "survivors",
                   "elapsed_ms"],
        "certify": ["schema", "command", "spec", "outcome", "masks_checked", "attack_mask",
                    "survivors", "elapsed_ms"],
        "value": ["schema", "command", "spec", "winner", "mode", "witness", "instances_checked",
                  "elapsed_ms"],
        "census": ["schema", "command", "spec", "perfect_count", "total_plans", "perfect_rate",
                   "elapsed_ms"],
        "simulate": TRIAL_KEYS,
        "concentrate": ["schema", "command", "q", "r", "delta", "trials", "seed",
                        "empirical_tail", "chernoff_bound", "within_bound"],
        "perfect-rate": TRIAL_KEYS,
    }
    TIMED = {"adjudicate", "attack", "certify", "value", "census"}

    def argv(self, command, plan_file):
        four = plan_file(["LL", "LR", "RL", "RR"])
        return {
            "adjudicate": ["--spec", "4,2,0,heavy", "--strategy", four, "--mask", "LR"],
            "attack": ["--spec", "4,2,0,heavy", "--strategy", four],
            "certify": ["--spec", "4,2,0,heavy", "--strategy", four],
            "value": ["--spec", "3,1,0,heavy"],
            "census": ["--n", "2", "--q", "1"],
            "simulate": ["--spec", "4,2,0,heavy", "--r", "0.5", "--trials", "20"],
            "concentrate": ["--q", "9", "--r", "0.5", "--delta", "0.1", "--trials", "20"],
            "perfect-rate": ["--n", "2", "--q", "1", "--trials", "20"],
        }[command]

    @pytest.mark.parametrize("command", sorted(KEYS))
    def test_report_keys_in_order(self, capsys, plan_file, command):
        argv = [command, *self.argv(command, plan_file)]
        doc = run_json(capsys, *argv)
        assert list(doc) == self.KEYS[command]
        assert doc["schema"] == "1" and doc["command"] == command
        assert ("elapsed_ms" in doc) == (command in self.TIMED)
        if "elapsed_ms" in doc:
            assert isinstance(doc["elapsed_ms"], float) and doc["elapsed_ms"] >= 0.0
        code, out, _ = run(capsys, *argv, "--pretty")
        assert code == 0
        keys = [line.split(":")[0] for line in out.splitlines() if not line.startswith(" ")]
        assert keys == self.KEYS[command]

    def test_main_renders_what_a_handler_returns(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_cmd_concentrate", lambda args: {"x": 1, "elapsed_ms": None})
        doc = run_json(capsys, "concentrate", "--q", "5", "--r", "0.5", "--delta", "0.1",
                       "--trials", "10")
        assert list(doc) == ["schema", "command", "x", "elapsed_ms"]
        assert doc["command"] == "concentrate" and doc["elapsed_ms"] >= 0.0
        monkeypatch.setattr(cli, "_cmd_concentrate", lambda args: "a,b\n")
        assert run(capsys, "concentrate", "--q", "5", "--r", "0.5", "--delta", "0.1",
                   "--trials", "10") == (0, "a,b\n", "")

    @pytest.mark.parametrize("flags", [["--exhaustive", "--constructive"],
                                       ["--constructive", "--exhaustive"]])
    def test_value_modes_are_exclusive(self, capsys, flags):
        with pytest.raises(SystemExit) as exc:
            main(["value", "--spec", "3,1,0,heavy", *flags])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "not allowed with argument" in captured.err


class TestInProcessReuse:
    """main() builds its parser once and reuses it; no call may see another's
    options or handler."""

    def calls(self, plan_file):
        four = plan_file(["LL", "LR", "RL", "RR"], "four.txt")
        loser = plan_file(["L", "L", "O"], "loser.txt")
        return [
            (["construct", "--kind", "random", "--n", "4", "--q", "3", "--seed", "5"], ""),
            (["construct", "--kind", "ternary", "--n", "4", "--q", "2"], ""),
            (["adjudicate", "--spec", "4,2,0,heavy", "--strategy", four, "--mask", "LR"], ""),
            (["attack", "--spec", "3,1,0,heavy", "--strategy", loser, "--constructive"], ""),
            (["attack", "--spec", "3,1,0,heavy", "--strategy", loser], ""),
            (["certify", "--spec", "4,2,0,heavy", "--strategy", four, "--pretty"], ""),
            (["certify", "--spec", "4,2,0,heavy", "--strategy", four], ""),
            (["value", "--spec", "4,9,1,heavy", "--exhaustive"], ""),
            (["value", "--spec", "14,3,0,unknown"], ""),
            (["value", "--spec", "3,1,0,heavy", "--constructive"], ""),
            (["value", "--spec", "3,1,0,heavy"], ""),
            (["census", "--n", "2", "--q", "2", "--prior", "unknown"], ""),
            (["census", "--n", "2", "--q", "2"], ""),
            (["sweep", "--qmax", "2", "--k", "1"], ""),
            (["sweep", "--qmax", "2"], ""),
            (["analyze", "--curve", "optimal-r", "--r2", "0.1"], ""),
            (["analyze", "--curve", "g", "--grid", "3"], ""),
            (["simulate", "--spec", "4,2,0,heavy", "--r", "0.5", "--trials", "20",
              "--seed", "3"], ""),
            (["simulate", "--spec", "4,2,0,heavy", "--r", "0.5", "--trials", "20"], ""),
            (["concentrate", "--q", "9", "--r", "0.5", "--delta", "0.1", "--trials", "50"], ""),
            (["perfect-rate", "--n", "2", "--q", "1", "--trials", "30", "--seed", "4"], ""),
            (["play", "--spec", "3,1,0,heavy", "--strategy", loser, "--as-player"], ""),
            (["play", "--spec", "4,2,0,heavy", "--strategy", four], "LR\nDD\n"),
            (["bogus"], ""),
        ]

    def outcome(self, capsys, monkeypatch, argv, stdin):
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refusing the command line
            code = exc.code
        captured = capsys.readouterr()
        out = re.sub(r'(elapsed_ms"?: )[0-9.e+-]+', r"\1_", captured.out)
        return code, out, captured.err

    def test_every_subcommand_twice_interleaved(self, capsys, monkeypatch, plan_file):
        calls = self.calls(plan_file)
        first = [self.outcome(capsys, monkeypatch, *c) for c in calls]
        again = [self.outcome(capsys, monkeypatch, *c) for c in reversed(calls)]
        assert again[::-1] == first
        assert [code for code, _, _ in first].count(0) == len(calls) - 2
        assert first[-1][0] == 2 and first[7][0] == 4

    def test_value_mode_flags_do_not_carry_over(self, capsys):
        assert run(capsys, "value", "--spec", "4,9,1,heavy", "--exhaustive")[0] == 4
        assert run_json(capsys, "value", "--spec", "8,4,0,heavy")["mode"] == "constructive"
        run_json(capsys, "value", "--spec", "3,1,0,heavy", "--constructive")
        assert run_json(capsys, "value", "--spec", "3,1,0,heavy")["mode"] == "exhaustive"

    def test_parser_is_built_once_per_process_and_not_at_import(self):
        script = (
            "from balancegame import cli\n"
            "built = []\n"
            "build = cli.build_parser\n"
            "cli.build_parser = lambda: built.append(1) or build()\n"
            "for argv in (['census', '--n', '1', '--q', '1'], ['analyze', '--curve', 'g',"
            " '--grid', '2'], ['census', '--n', '1', '--q', '1']):\n"
            "    assert cli.main(argv) == 0\n"
            "print('built', len(built))\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "built 1"


class TestOneParse:
    """main() parses a named command with that command's own parser only;
    the oracle sends every argv through the top-level parse_args first.
    Both must give the same exit code, stdout and stderr."""

    calls = TestInProcessReuse.calls
    outcome = TestInProcessReuse.outcome

    def argvs(self, plan_file):
        four = plan_file(["LL", "LR", "RL", "RR"], "four.txt")
        certify = ["certify", "--spec", "4,2,0,heavy", "--strategy", four]
        census = ["census", "--n", "2", "--q", "2"]
        return [
            *self.calls(plan_file),
            (["-h"], ""),
            *(([name, "-h"], "") for name in cli._command_parsers()),
            ([], ""), (["bogus"], ""), (["cert"], ""), (["Certify"], ""),
            (["-x", "certify"], ""), (["--", "certify"], ""), (["-h", "certify"], ""),
            ([*certify, "--bogus"], ""), ([*certify, "--bogus=1", "-z"], ""),
            ([*certify, "extra", "positionals"], ""), ([*census, "x"], ""),
            (["certify", "--bogus"], ""),
            (["construct", "--kind", "binary", "--n", "4", "--q", "2", "--", "x"], ""),
            (["certify", "--spe", "4,2,0,heavy", "--strat", four], ""),
            (["value", "--spec", "3,1,0,heavy", "--ex"], ""),
            (["value", "--spec", "3,1,0,heavy", "--co"], ""),
            ([*census, "--prior", "light"], ""), (["census", "--n", "two", "--q", "2"], ""),
            (["value", "--spec", "3,1,0,heavy", "--exhaustive", "--constructive"], ""),
            (["sweep", "--qmax", "2", "--pretty"], ""), ([*certify, "-h", "--bogus"], ""),
        ]

    def test_same_outcome_as_the_top_level_parse(self, capsys, monkeypatch, plan_file):
        cases = self.argvs(plan_file)
        new = [self.outcome(capsys, monkeypatch, argv, stdin) for argv, stdin in cases]
        with monkeypatch.context() as m:
            m.setattr(cli, "_command_parsers", lambda: {})
            old = [self.outcome(capsys, monkeypatch, argv, stdin) for argv, stdin in cases]
        for (argv, _), got, want in zip(cases, new, old):
            assert got == want, argv
        assert {code for code, _, _ in new} == {0, 2, 4}

    def test_a_named_command_is_parsed_once(self, capsys, monkeypatch):
        top = cli._parser()
        monkeypatch.setattr(top, "parse_args", lambda *a, **k: pytest.fail("parsed at the top"))
        assert run(capsys, "census", "--n", "2", "--q", "2")[0] == 0
        with pytest.raises(SystemExit) as exc:
            main(["census", "--n", "2", "--q", "2", "--bogus"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "balancegame: error: unrecognized arguments: --bogus")


def _command_argv():
    """(command, tokens): the command's options in any order, each with a
    good value or a bad one (bad ints and choices, negative numbers, values
    starting with ``-``) or left out, plus loose tokens: abbreviations,
    ``=`` forms, repeats, ``--``, ``-h`` and strays."""
    good = {int: ["2", "3", "0"], float: ["0.5", "0.25"], None: ["4,2,0,heavy", "3,3,1,unknown"]}
    bad = ["-1", "-0.5", "1e3", "nan", "two", "", "-x", "--x", "light", "f"]

    def tokens(name):
        actions = [a for a in cli._command_parsers()[name]._actions
                   if not isinstance(a, argparse._HelpAction)]
        options = [o for a in actions for o in a.option_strings]
        loose = st.sampled_from([
            *(o[:n] for o in options for n in (3, 4) if len(o) > n),
            *(f"{o}={v}" for o in options for v in ("2", "heavy")),
            *options, *bad, "-h", "--", "--bogus", "-", "stray"]).map(lambda t: [t])
        parts = []
        for action in actions:
            option = st.sampled_from(action.option_strings)
            if action.nargs == 0:
                given = option.map(lambda o: [o])
            else:
                value = st.sampled_from(list(action.choices or good[action.type]))
                given = st.tuples(option, st.one_of(value, value, value, st.sampled_from(bad))).map(list)
            parts.append(st.one_of(given, given, given, st.just([])) if action.required
                         else st.one_of(given, st.just([])))
        strays = st.one_of(st.just([]), st.just([]), st.lists(loose, min_size=1, max_size=2))
        drawn = st.tuples(st.tuples(*parts), strays)
        return (drawn.flatmap(lambda d: st.permutations([*d[0], *d[1]]))
                .map(lambda ps: (name, [t for p in ps for t in p])))

    return st.sampled_from(sorted(cli._command_parsers())).flatmap(tokens)


class TestFastArgs:
    """cli._fast_args reads plain argv off a command parser's tables; any
    namespace it gives must be the one parse_known_args gives, with no
    extras, and it must never print or exit."""

    @settings(max_examples=300)  # about one in ten draws is plain enough for the fast path
    @given(_command_argv())
    def test_same_namespace_as_parse_known_args_or_none(self, case):
        name, tokens = case
        parser = cli._command_parsers()[name]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            fast = cli._fast_args(name, parser, tokens)
        assert out.getvalue() == err.getvalue() == ""
        if fast is None:
            return
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            slow, extra = parser.parse_known_args(tokens)
        assert extra == []
        # Compared by repr, so that a nan from --r nan equals itself.
        assert {k: repr(v) for k, v in vars(fast).items()} == {
            k: repr(v) for k, v in (vars(slow) | {"command": name}).items()}

    def test_plain_argv_takes_the_fast_path(self, plan_file):
        four = plan_file(["LL", "LR", "RL", "RR"], "four.txt")
        plain = [argv for argv, _ in TestInProcessReuse().calls(plan_file) if argv[0] != "bogus"]
        plain += [["census", "--n", "5", "--q", "3", "--k", "1", "--prior", "heavy", "--matrix-cap", "9"],
                  ["value", "--spec", "3,3,1,heavy", "--constructive", "--pretty"],
                  ["certify", "--strategy", four, "--spec", "4,2,0,heavy"]]
        for argv in plain:
            parser = cli._command_parsers()[argv[0]]
            fast = cli._fast_args(argv[0], parser, argv[1:])
            assert fast is not None, argv
            assert vars(fast) == vars(parser.parse_known_args(argv[1:])[0]) | {"command": argv[0]}

    @pytest.mark.parametrize("tokens", [
        ["--spe", "3,3,1,heavy"], ["--spec=3,3,1,heavy"], ["--spec", "3,3,1,heavy", "--ex"],
        ["--spec", "3,3,1,heavy", "--exhaustive", "--constructive"],
        ["--spec", "3,3,1,heavy", "--exhaustive", "--exhaustive"], ["--spec", "3,3,1,heavy", "-h"],
        ["--spec", "3,3,1,heavy", "--"], ["--spec", "-3,3,1,heavy"], ["--spec"],
        ["--spec", "3,3,1,heavy", "--matrix-cap", "ten"], ["--spec", "3,3,1,heavy", "extra"],
        ["--exhaustive"],
    ])
    def test_anything_but_plain_argv_goes_to_argparse(self, tokens):
        assert cli._fast_args("value", cli._command_parsers()["value"], tokens) is None

    def test_a_repeated_option_is_left_to_argparse_where_the_last_wins(self, capsys):
        census = cli._command_parsers()["census"]
        tokens = ["--n", "5", "--n", "3", "--q", "3", "--k", "1"]
        assert cli._fast_args("census", census, tokens) is None
        assert run_json(capsys, "census", *tokens)["perfect_count"] == 216
