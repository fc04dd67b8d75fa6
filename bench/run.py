"""balancegame benchmark: one closed-loop client per workload, end to end.

    python3 bench/run.py --workload certify-scan --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The workload's operations are generated
from ``--seed`` (see ``workloads.py``) and run in a fresh single-threaded
worker process that calls ``balancegame.cli.main(argv)`` for each one, one
after another, in whole passes over the list until ``--seconds`` have
elapsed.  Every output is checked against a reference from ``oracle.py``.
Times are scaled to a fixed host pace (see ``PACE_REF_S``).

With ``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` it reports the per-layer metrics of a traced run, whose spans
are written to ``.bench_out/<workload>/spans.npz``.  Lines before the last
one are a human-readable account of the same run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import oracle as o
import workloads
from tracing import LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = ".bench_out"
SETUP_PROBES = 10  # set-up-only processes before and again after the measured one; the median is reported
RUN_TIMEOUT_S = 170  # the whole run, set-up probes included, stays under 180 s
TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)
REFUSALS = (4, 6)  # typed refusals: enumeration cap exceeded, undecided
# Every reported time t is t * PACE_REF_S / p, where p is the time of the
# worker's calibration kernel (worker.pace) around it: times read as if the
# kernel took 2 ms, about its time on the reference machine (BASELINE.md).
# Each vCPU of a shared host changes speed by up to 2x, from second to
# second and over minutes; the kernel runs on the same vCPU at the same
# moment, and uses nothing from the package, so a change to the package
# still shows in full.
PACE_REF_S = 0.002

END_TO_END = {
    "throughput_ops_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "agree_frac": "ratio",
    "decided_frac": "ratio",
    "setup_s": "s",
}

# Per-layer metric -> (unit, the end-to-end metric and workloads it should move).
PER_LAYER = {
    "engine.scan.s": ("s/pass", "throughput_ops_s, latency_tail_ms, peak_rss_mb on certify-scan; no change elsewhere"),
    "engine.scan.masks": ("masks/pass", "throughput_ops_s, latency_tail_ms on certify-scan"),
    "engine.scan.computed_bytes": ("bytes/pass", "peak_rss_mb, throughput_ops_s on certify-scan"),
    "engine.scan.useful_ratio": ("ratio", "throughput_ops_s, latency_tail_ms on certify-scan"),
    "engine.batch.s": ("s/pass", "throughput_ops_s on enumerate and monte-carlo"),
    "engine.batch.plans": ("plans/pass", "throughput_ops_s on enumerate and monte-carlo"),
    "engine.batch.plan_masks": ("masks/pass", "throughput_ops_s on enumerate and monte-carlo"),
    "engine.batch.computed_bytes": ("bytes/pass", "peak_rss_mb on monte-carlo; throughput_ops_s on enumerate"),
    "engine.matrix_chunk_codes.s": ("s/pass", "throughput_ops_s on enumerate"),
    "verifier.plans_checked": ("plans/pass", "throughput_ops_s, decided_frac on enumerate"),
    "builders.random_strategy.s": ("s/pass", "throughput_ops_s on monte-carlo only"),
    "builders.random_strategy.calls": ("calls/pass", "throughput_ops_s on monte-carlo only"),
    "engine.encode_row.calls": ("calls/pass", "throughput_ops_s on monte-carlo only"),
    "adversary.find_winning_mask.self_s": ("s/pass", "latency_p50_ms on certify-scan, plans the balance wins"),
    "adversary.constructive_attack.s": ("s/pass", "latency_p50_ms on certify-scan, plans the balance wins"),
    "core.adjudicate.calls": ("calls/pass", "latency_p50_ms on certify-scan, plans the balance wins"),
    "core.adjudicate.s": ("s/pass", "latency_p50_ms on certify-scan, plans the balance wins"),
    "cli.main.self_s": ("s/pass", "latency_p50_ms wherever operations are short"),
    "formats.parse_strategy.s": ("s/pass", "latency_p50_ms wherever operations are short"),
    "formats.render_report.s": ("s/pass", "latency_p50_ms wherever operations are short"),
    "formats.render_csv.s": ("s/pass", "latency_p50_ms wherever operations are short"),
    "analysis.s": ("s/pass", "latency_p50_ms on monte-carlo"),
}
for _layer in LAYERS:
    PER_LAYER.setdefault(f"{_layer}.calls", ("calls/pass", "layer total"))
    PER_LAYER.setdefault(f"{_layer}.s", ("s/pass", "layer total"))
    PER_LAYER.setdefault(f"{_layer}.self_s", ("s/pass", "layer total"))
PER_LAYER.update({
    "trace.spans": ("spans/pass", "tracing cost"),
    "trace.untraced_ops_s": ("1/s", "throughput_ops_s, untraced passes of the traced run"),
    "trace.traced_ops_s": ("1/s", "throughput_ops_s, traced passes"),
    "trace.overhead_ratio": ("ratio", "untraced over traced throughput"),
})


# ---------------------------------------------------------------- checking


def _close(a, b, rel=2e-8) -> bool:
    return math.isclose(float(a), float(b), rel_tol=rel, abs_tol=1e-12)


def _parse_csv(text: str) -> tuple[list[str], list[list[str]]]:
    lines = text.strip().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _check_table(ref, out: str) -> str | None:
    header, rows = _parse_csv(out)
    if header != ref["header"] or len(rows) != len(ref["rows"]):
        return f"table shape {header} x {len(rows)} != {ref['header']} x {len(ref['rows'])}"
    for got, want in zip(rows, ref["rows"]):
        for col, (g, w) in enumerate(zip(got, want)):
            if ref.get("exact"):
                ok = g == ("" if w is None else str(w))
            elif ref["header"][col] == "argmax":
                ok = abs(float(g) - w) <= ref["argmax_tol"]
            else:
                ok = _close(g, w)
            if not ok:
                return f"{ref['header'][col]}: got {g}, want {w}"
    return None


def _check_doc(ref, doc) -> str | None:
    kind = ref["kind"]
    mask, surv = ref.get("mask"), ref.get("survivors")
    if kind == "certify":
        want = ("player-must-win" if mask is None else "balance-wins", ref["masks_checked"], mask, surv)
        got = (doc["outcome"], doc["masks_checked"], doc["attack_mask"], doc["survivors"])
    elif kind == "attack":
        want = ("perfect" if mask is None else "attack-found", mask, None if mask is None else "exhaustive", surv)
        got = (doc["outcome"], doc["mask"], doc["method"], doc["survivors"])
    elif kind == "attack-constructive":
        if ref["method"] is None:
            want, got = ("perfect", None), (doc["outcome"], doc["mask"])
        else:
            # Any winning mask will do; re-adjudicate the one handed out.
            alive = o.survivors(ref["rows"], doc["mask"], ref["k"], ref["prior"]) if doc["mask"] else []
            want = ("attack-found", ref["method"], True, o.survivor_labels(alive))
            got = (doc["outcome"], doc["method"], len(alive) >= 2, doc["survivors"])
    elif kind == "trial":
        p = ref["successes"] / ref["trials"]
        for key, value in ref.get("extras", {}).items():
            if not _close(doc["extras"].get(key, math.nan), value, rel=1e-12):
                return f"extras.{key}: got {doc['extras'].get(key)}, want {value}"
        want = (ref["trials"], ref["successes"], ref["seed"], True, True)
        got = (doc["trials"], doc["successes"], doc["seed"], _close(doc["estimate"], p, rel=1e-12),
               _close(doc["half_width"], o.half_width(ref["successes"], ref["trials"]), rel=1e-9))
    elif kind == "concentrate":
        want = (True, True, ref["empirical"] <= ref["bound"])
        got = (_close(doc["empirical_tail"], ref["empirical"], rel=1e-12),
               _close(doc["chernoff_bound"], ref["bound"], rel=1e-12), doc["within_bound"])
    elif kind == "census":
        want = (ref["count"], ref["total"], True)
        got = (doc["perfect_count"], doc["total_plans"], _close(doc["perfect_rate"], ref["count"] / ref["total"], rel=1e-12))
    elif kind == "value":
        witness = doc["witness"]
        certified = None
        if witness is not None:
            certified = (len(witness) == ref["n"] and all(len(r) == ref["q"] for r in witness)
                         and o.is_must_win(witness, ref["k"], ref["prior"]))
        want = (ref["winner"], ref["winner"] == "player")
        got = (doc["winner"], certified if doc["winner"] == "player" else witness is not None)
    else:
        raise ValueError(f"unknown reference kind {kind!r}")
    return None if got == want else f"got {got}, want {want}"


def check(op: dict, entry: dict) -> tuple[bool, bool, str | None]:
    """(agrees, decided, why not) for one operation's output."""
    ref, rc = op["ref"], entry["rc"]
    if rc in REFUSALS and ref["kind"] == "value":
        why = None if ref["refusal_ok"] else f"refused (exit {rc}) where the answer is known"
        return why is None, False, why
    if rc != 0:
        return False, False, f"exit {rc}: {entry['stderr'].strip()[-300:]}"
    try:
        why = _check_table(ref, entry["stdout"]) if ref["kind"] == "table" else _check_doc(ref, json.loads(entry["stdout"]))
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        why = f"unreadable output: {type(exc).__name__}: {exc}"
    return why is None, True, why


def known_defect(op: dict, entry: dict) -> bool:
    """True when a marked defect gives exactly the seed program's known
    wrong output; any other disagreement stays unexpected."""
    return op["defect"] is not None and check({"ref": op["defect_ref"]}, entry)[0]


# ---------------------------------------------------------------- running


def _worker(job: dict, job_path: str, result_path: str, deadline: float) -> dict:
    with open(job_path, "w", encoding="utf-8") as fh:
        json.dump(job, fh)
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0")
    if os.path.exists(result_path):
        os.remove(result_path)
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), job_path, result_path],
                          env=env, cwd=ROOT, timeout=max(1.0, deadline - time.monotonic()), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def scaled(t: list) -> float:
    """Seconds of one timed execution [op id, seconds, traced, pass, pace], at the reference pace."""
    return t[1] * PACE_REF_S / t[4]


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest of p99.9, p99 and p90 with at least
    ten samples beyond it.  Coarse steps keep the choice the same from run
    to run although the number of passes varies."""
    n = len(values)
    for p in TAIL_LADDER:
        if n * (100.0 - p) / 100.0 >= 10:
            return p, float(np.percentile(values, p))
    return 50.0, float(np.percentile(values, 50))


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_TIMEOUT_S
    out_dir = os.path.join(OUT, workload)
    shutil.rmtree(os.path.join(ROOT, out_dir), ignore_errors=True)
    ops, warmup = workloads.build(workload, seed, out_dir)
    job = {"root": ROOT, "ops": [{"id": op["id"], "argv": op["argv"]} for op in ops], "warmup": warmup,
           "seconds": seconds, "trace": trace, "setup_only": True,
           "spans_path": os.path.join(ROOT, out_dir, "spans.npz")}
    job_path, result_path, setup_path = (os.path.join(ROOT, out_dir, f) for f in ("job.json", "result.json", "setup.json"))
    # The host's speed changes from second to second; probes on both sides
    # of the measured process keep the median off any one slow stretch.
    def probes() -> list[float]:
        out = [_worker(job, job_path, setup_path, deadline) for _ in range(SETUP_PROBES)]
        return [r["setup_s"] * PACE_REF_S / r["setup_pace"] for r in out]

    setups = probes()
    res = _worker(dict(job, setup_only=False), job_path, result_path, deadline)
    setups += [res["setup_s"] * PACE_REF_S / res["setup_pace"], *probes()]

    by_id = {op["id"]: op for op in ops}
    verdict = {}
    for key, entry in res["outputs"].items():
        op = by_id[int(key)]
        agrees, decided, why = check(op, entry)
        if agrees and res["changed"].get(key):
            agrees, why = False, f"output changed between passes ({res['changed'][key]} times)"
        verdict[op["id"]] = (agrees, decided, why)

    timed = [t for t in res["times"] if not t[2]]
    per_op: dict[int, list[float]] = {}  # op id -> its scaled times in the run
    for t in timed:
        per_op.setdefault(t[0], []).append(scaled(t))
    attempted = len(res["times"])
    failed = sum(not verdict[t[0]][0] for t in res["times"])
    decided = sum(verdict[t[0]][1] for t in res["times"])
    unexpected = [i for i, (ok, _, _) in verdict.items()
                  if not ok and not known_defect(by_id[i], res["outputs"][str(i)])]
    lat = [scaled(t) * 1000.0 for t in timed]
    tail_p, tail_ms = tail(lat)
    report = {
        "workload": workload, "seed": seed, "ops": ops, "verdict": verdict, "passes": res["passes"],
        "attempted": attempted, "failed": failed, "unexpected": unexpected,
        "tail_p": tail_p, "samples": len(lat),
        "end_to_end": {
            "throughput_ops_s": len(ops) / sum(statistics.median(v) for v in per_op.values()),
            "latency_p50_ms": float(np.percentile(lat, 50)),
            "latency_tail_ms": tail_ms,
            "peak_rss_mb": res["peak_rss_mb"],
            "agree_frac": 1.0 - failed / attempted,
            "decided_frac": decided / attempted,
            "setup_s": statistics.median(setups),
        },
    }
    if trace:
        report["per_layer"] = per_layer(res)
    return report


def per_layer(res: dict) -> dict[str, float]:
    tr = res["trace"]
    k = tr["traced_passes"]
    summ, counts = tr["summary"], tr["counts"]
    out: dict[str, float] = {}
    for name in PER_LAYER:
        head, _, stat = name.rpartition(".")
        if name.startswith("trace."):
            continue
        if name in counts:
            out[name] = counts[name] / k
        elif head in summ and stat in ("calls", "s", "self_s"):
            out[name] = summ[head][stat] / k
    out["engine.scan.s"] = summ["engine.iter_survivor_blocks"]["s"] / k
    out["engine.batch.s"] = summ["engine.batch_survivor_counts"]["s"] / k
    for name in ("engine.scan.masks", "engine.scan.computed_bytes", "engine.batch.plans",
                 "engine.batch.plan_masks", "engine.batch.computed_bytes", "verifier.plans_checked"):
        out.setdefault(name, 0.0)
    masks = counts.get("engine.scan.masks", 0)
    out["engine.scan.useful_ratio"] = counts.get("engine.scan.masks_checked", 0) / masks if masks else 0.0
    # Pass 0 fills the engine's per-q lookup tables; compare later passes only.
    untraced = [scaled(t) for t in res["times"] if not t[2] and t[3] > 0]
    traced = [scaled(t) for t in res["times"] if t[2]]
    out["trace.spans"] = tr["spans"] / k
    out["trace.untraced_ops_s"] = len(untraced) / sum(untraced)
    out["trace.traced_ops_s"] = len(traced) / sum(traced)
    out["trace.overhead_ratio"] = out["trace.untraced_ops_s"] / out["trace.traced_ops_s"]
    missing = set(PER_LAYER) - set(out)
    if missing:
        raise RuntimeError(f"per-layer metrics not produced: {sorted(missing)}")
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "balancegame", "cli.py")):
        print(f"error: no balancegame sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    try:
        rep = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(f"workload {rep['workload']}  seed {rep['seed']}  passes {rep['passes']}  "
          f"ops/pass {len(rep['ops'])}  attempted {rep['attempted']}  failed {rep['failed']}")
    for op in rep["ops"]:
        ok, _, why = rep["verdict"][op["id"]]
        if not ok:
            tag = "UNEXPECTED" if op["id"] in rep["unexpected"] else f"known defect: {op['defect']}"
            print(f"  disagrees [{tag}]: {' '.join(op['argv'])}\n    {why}")
    e2e = rep["end_to_end"]
    for name, unit in END_TO_END.items():
        note = f"  (p{rep['tail_p']:g} of {rep['samples']} ops)" if name == "latency_tail_ms" else ""
        print(f"  {name:<20} {e2e[name]:>14.6g} {unit}{note}")
    print(f"  {'error_frac':<20} {1.0 - e2e['agree_frac']:>14.6g} ratio")
    if args.trace:
        for name, value in rep["per_layer"].items():
            unit, moves = PER_LAYER[name]
            print(f"  {name:<36} {value:>14.6g} {unit:<11} -> {moves}")
        metrics = {name: {"value": rep["per_layer"][name], "unit": PER_LAYER[name][0]} for name in PER_LAYER}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": not rep["unexpected"], "attempted": rep["attempted"],
                      "failed": rep["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
