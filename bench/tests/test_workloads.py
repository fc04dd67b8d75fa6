"""Workload generator determinism, output checks and the benchmark manifest."""

import json
import os

import pytest

import run
import workloads
from conftest import ROOT


def _files(out_dir):
    plans = os.path.join(out_dir, "plans")
    return {name: open(os.path.join(plans, name)).read() for name in sorted(os.listdir(plans))}


def _portable(ops, out_dir):
    return json.loads(json.dumps(ops).replace(out_dir, "<dir>"))


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_gives_identical_operations(name, tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    ops_a, warm_a = workloads.build(name, 17, a)
    ops_b, warm_b = workloads.build(name, 17, b)
    assert _portable(ops_a, a) == _portable(ops_b, b)
    assert _portable(warm_a, a) == _portable(warm_b, b)
    assert _files(a) == _files(b)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_another_seed_gives_other_inputs_of_the_same_shape(name, tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    ops_a, _ = workloads.build(name, 1, a)
    ops_b, _ = workloads.build(name, 2, b)
    assert [op["argv"][0] for op in ops_a] == [op["argv"][0] for op in ops_b]
    assert _portable(ops_a, a) != _portable(ops_b, b) or _files(a) != _files(b)


def test_certify_scan_bands_and_verdicts(tmp_path):
    ops, _ = workloads.build("certify-scan", 5, str(tmp_path))
    certs = [op["ref"] for op in ops if op["ref"]["kind"] == "certify"]
    assert len(certs) == len(workloads.CERTIFY_SLOTS)
    for ref, (q, _, _, _, plant) in zip(certs, workloads.CERTIFY_SLOTS):
        if plant is None:
            assert ref["mask"] is None and ref["masks_checked"] == 3**q
        else:
            assert workloads.BANDS[ref["mask"][0]] == plant[1]


def test_overflow_operations_stay_in_and_are_marked(tmp_path):
    ops, _ = workloads.build("monte-carlo", 3, str(tmp_path))
    defects = [op for op in ops if op["defect"]]
    assert [op["argv"][2] for op in defects] == ["40000,1,1,heavy", "20000,2,2,unknown"]
    assert all(op["ref"]["successes"] == op["ref"]["trials"] for op in defects)
    assert all(op["defect_ref"] == dict(op["ref"], successes=0) for op in defects)


def test_a_marked_defect_excuses_only_the_known_wrong_output(tmp_path):
    from oracle import half_width

    ops, _ = workloads.build("monte-carlo", 3, str(tmp_path))
    op = next(op for op in ops if op["defect"])
    trials = op["ref"]["trials"]

    def report(successes):
        doc = {"trials": trials, "successes": successes, "seed": op["ref"]["seed"],
               "estimate": successes / trials, "half_width": half_width(successes, trials)}
        return {"rc": 0, "stderr": "", "stdout": json.dumps(doc)}

    assert run.check(op, report(trials))[0]
    assert not run.check(op, report(0))[0] and run.known_defect(op, report(0))
    assert not run.known_defect(op, report(1))
    assert not run.known_defect(op, {"rc": "OverflowError: boom", "stderr": "", "stdout": ""})
    assert not run.known_defect(op, dict(report(0), rc=1))


def _value_op(refusal_ok):
    return {"ref": {"kind": "value", "n": 9, "q": 4, "k": 1, "prior": "heavy", "winner": "player",
                    "refusal_ok": refusal_ok}}


def test_check_accepts_a_refusal_only_where_no_answer_is_known():
    refused = {"rc": 6, "stdout": "", "stderr": "error: undecided"}
    assert run.check(_value_op(True), refused) == (True, False, None)
    agrees, decided, why = run.check(_value_op(False), refused)
    assert not agrees and not decided and "refused" in why


def test_check_certifies_a_value_witness():
    from oracle import tetracode_rows

    good = {"rc": 0, "stderr": "", "stdout": json.dumps({"winner": "player", "witness": tetracode_rows()})}
    bad_rows = tetracode_rows()[:8] + [tetracode_rows()[1]]
    bad = {"rc": 0, "stderr": "", "stdout": json.dumps({"winner": "player", "witness": bad_rows})}
    wrong = {"rc": 0, "stderr": "", "stdout": json.dumps({"winner": "balance", "witness": None})}
    assert run.check(_value_op(True), good)[0]
    assert not run.check(_value_op(True), bad)[0]
    assert not run.check(_value_op(True), wrong)[0]


def test_tail_takes_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail(list(range(1000)))[0] == 99.0
    assert run.tail(list(range(999)))[0] == 90.0
    assert run.tail(list(range(100)))[0] == 90.0
    assert run.tail(list(range(99)))[0] == 50.0


def test_manifest_matches_the_metrics_the_benchmark_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        manifest = json.load(fh)
    assert [w["name"] for w in manifest["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in manifest["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in manifest["per_layer"]} == {k: v[0] for k, v in run.PER_LAYER.items()}


def test_times_are_scaled_by_the_calibration_kernel_around_them():
    import worker

    assert 0 < worker.pace() < 1
    assert run.scaled([0, 0.5, False, 1, run.PACE_REF_S]) == 0.5
    assert run.scaled([0, 0.5, False, 1, 2 * run.PACE_REF_S]) == 0.25
