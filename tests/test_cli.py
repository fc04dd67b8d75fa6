import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys

import pytest

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
        code, _, _ = run(capsys, "value", "--spec", "8,4,0,heavy", "--exhaustive")
        assert code == 4


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


class TestSweep:
    def test_csv_shape(self, capsys):
        code, out, _ = run(capsys, "sweep", "--qmax", "2", "--prior", "heavy")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "q,player_max_n,balance_min_n,mode,capacity,mass_bound_min_n"
        assert lines[1].startswith("1,3,4,exhaustive,3,")
        assert lines[2].startswith("2,9,10,")

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
        ["census", "--n", "1", "--q", "40", "--matrix-cap", str(10**30)],
        ["value", "--spec", "1,40,0,heavy", "--exhaustive", "--matrix-cap", str(10**30)],
    ])
    def test_forty_rounds_are_refused(self, capsys, plan_file, argv):
        if argv[0] in ("certify", "attack", "play"):
            argv = argv + ["--strategy", plan_file(["L" * 40, "R" * 40])]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (4, "")
        assert err.startswith("error: 40 rounds exceed the 39")


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
            (["value", "--spec", "8,4,0,heavy", "--exhaustive"], ""),
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
        assert run(capsys, "value", "--spec", "8,4,0,heavy", "--exhaustive")[0] == 4
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
