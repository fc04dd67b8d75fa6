"""Seeded workload generator.

``build(name, seed, out_dir)`` writes the strategy files a workload needs
under ``out_dir`` and returns its operation list.  Each operation carries
the ``argv`` handed to ``balancegame.cli.main`` and a reference answer from
:mod:`oracle`; the program only ever sees the files and the argv.

The shape of each workload (which commands, at which sizes) is fixed, so
every seed costs about the same; the seed picks the plans, the planted
pairs and where their first winning mask falls, the ``r`` values and the
trial seeds.  The operation order is fixed too: it sets the order of large
allocations, and with it the process's peak resident memory.
"""

from __future__ import annotations

import math
import os

import numpy as np

import oracle as o

WORKLOADS = ("certify-scan", "monte-carlo", "enumerate")

# certify-scan plans: (q, n, k, prior, plant).  plant is None for a must-win
# plan, else (how, band): the balance wins through a planted close pair and
# its first winning mask starts with L (early), R (middle) or D (late).  At
# q = 11 the scan runs in three blocks of 3**10 masks, one per band.
CERTIFY_SLOTS = (
    (7, 120, 0, "unknown", None),
    (7, 120, 0, "unknown", ("mirror", "early")),
    (8, 100, 0, "heavy", None),
    (8, 100, 0, "heavy", ("duplicate", "middle")),
    (11, 13, 0, "unknown", None),
    (11, 13, 0, "unknown", ("all-off", "late")),
    (11, 16, 0, "heavy", ("duplicate", "early")),
    (9, 60, 1, "heavy", None),
    (9, 60, 1, "heavy", ("near", "late")),
    (10, 30, 1, "unknown", None),
    (10, 30, 1, "unknown", ("near", "early")),
    (11, 20, 2, "heavy", None),
    (11, 20, 2, "heavy", ("near", "middle")),
    (9, 13, 2, "unknown", None),
    (9, 13, 2, "unknown", ("near", "late")),
)

BANDS = {"L": "early", "R": "middle", "D": "late"}

# Survivor counts above 32767 on one mask: the true balance win rate is 1,
# and the seed program reports OVERFLOW_SUCCESSES balance wins instead.
OVERFLOW_DEFECT = "int16 survivor-count overflow in engine.batch_survivor_counts"
OVERFLOW_SUCCESSES = 0

R_RANGE = (0.45, 0.85)  # committed weighing fraction r drawn for simulate and concentrate


def _spec(n, q, k, prior) -> str:
    return f"{n},{q},{k},{prior}"


def _isometry(rows, rng) -> list[str]:
    """Permute rows and columns and swap pans per column: distances between
    all heavy and light announcements, and hence the verdict, are unchanged.
    A column holding all three placements goes first, so that a pair can be
    planted in any band."""
    q = len(rows[0])
    cols = list(rng.permutation(q))
    full = [c for c in cols if len({row[c] for row in rows}) == 3]
    if full:
        cols.remove(full[0])
        cols.insert(0, full[0])
    swap = rng.random(q) < 0.5
    flip = str.maketrans("LR", "RL")
    out = []
    for i in rng.permutation(len(rows)):
        row = "".join(rows[i][c] for c in cols)
        out.append("".join(ch.translate(flip) if s else ch for ch, s in zip(row, swap)))
    return out


def _plant(rows, k, prior, how, band, rng):
    """Replace one row so that a close pair exists and the first winning
    mask falls in the requested band; retried until it does."""
    q = len(rows[0])
    lead = {"early": "LR" if prior == "unknown" else "L", "middle": "R", "late": "O"}[band]
    starts = [i for i, r in enumerate(rows) if r[0] in lead]
    for _ in range(500):
        out = list(rows)
        i = int(rng.choice(starts)) if how != "all-off" else int(rng.integers(len(rows)))
        a = rows[i]
        if how == "all-off":
            b = "O" * q
        elif how == "duplicate":
            b = a
        elif how == "mirror":
            b = o.digits_row(o.mirror(o.row_digits(a)))
        else:  # near: 2k-1 or 2k changed rounds, never the first one
            b = list(a)
            for p in rng.choice(np.arange(1, q), int(rng.integers(max(1, 2 * k - 1), 2 * k + 1)), replace=False):
                b[p] = str(rng.choice([c for c in o.PLACEMENTS if c != a[p]]))
            b = "".join(b)
        j = int(rng.choice([x for x in range(len(rows)) if x != i]))
        out[j] = b
        mask = o.first_winning_mask(out, k, prior)
        if mask is not None and BANDS[mask[0]] == band:
            return out, mask
    raise ValueError(f"could not plant a {band} pair ({how}) at q={q}, k={k}")


def _write(out_dir, name, rows) -> str:
    path = os.path.join(out_dir, "plans", f"{name}.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(rows) + "\n")
    return path


def _certify_scan(rng, out_dir):
    ops = []
    for s, (q, n, k, prior, plant) in enumerate(CERTIFY_SLOTS):
        if k == 0:
            base = o.ternary_plan(n, q) if prior == "heavy" else o.mirror_free_plan(n, q)
            rows = _isometry(base, rng)
        else:
            rows = o.greedy_code(n, q, k, prior, rng)
        if not o.is_must_win(rows, k, prior):
            raise AssertionError("base plan is not must-win by construction")
        method = None
        if plant is None:
            mask = None
        else:
            how, band = plant
            rows, mask = _plant(rows, k, prior, how, band, rng)
            method = {"duplicate": "duplicate-rows", "mirror": "mirror-pair", "all-off": "all-off-row"}.get(how)
        path = _write(out_dir, f"plan{s:02d}", rows)
        spec = _spec(n, q, k, prior)
        surv = o.survivor_labels(o.survivors(rows, mask, k, prior)) if mask else []
        checked = o.mask_index(mask) + 1 if mask else 3**q
        common = {"rows": rows, "k": k, "prior": prior, "mask": mask, "survivors": surv}
        ops.append({"argv": ["certify", "--spec", spec, "--strategy", path],
                    "ref": dict(common, kind="certify", masks_checked=checked)})
        ops.append({"argv": ["attack", "--spec", spec, "--strategy", path],
                    "ref": dict(common, kind="attack")})
        if k == 0:
            ops.append({"argv": ["attack", "--spec", spec, "--strategy", path, "--constructive"],
                        "ref": dict(common, kind="attack-constructive", method=method)})
    warmup = ["certify", "--spec", "13,3,0,unknown", "--strategy", _write(out_dir, "warmup", o.mirror_free_plan(13, 3))]
    return ops, warmup


def _r(rng) -> float:
    return round(float(rng.uniform(*R_RANGE)), 4)


def _trial_seed(rng) -> int:
    return int(rng.integers(0, 1_000_000))


def _monte_carlo(rng, out_dir):
    ops = []
    simulate = (
        (13, 3, 0, "unknown", 2000),
        (27, 3, 0, "heavy", 2000),
        (20, 5, 1, "heavy", 400),
        (10, 5, 1, "unknown", 400),
        (40, 7, 1, "heavy", 80),
        (12, 6, 2, "heavy", 300),
    )
    for n, q, k, prior, trials in simulate:
        r, seed = _r(rng), _trial_seed(rng)
        wins = o.replay_simulate(n, q, k, prior, r, trials, seed)
        ops.append({"argv": ["simulate", "--spec", _spec(n, q, k, prior), "--r", str(r),
                             "--trials", str(trials), "--seed", str(seed)],
                    "ref": {"kind": "trial", "trials": trials, "successes": wins, "seed": seed}})
    for n, q, k, prior in ((40000, 1, 1, "heavy"), (20000, 2, 2, "unknown")):
        r, seed = _r(rng), _trial_seed(rng)
        ref = {"kind": "trial", "trials": 2, "successes": o.replay_simulate(n, q, k, prior, r, 2, seed), "seed": seed}
        ops.append({"argv": ["simulate", "--spec", _spec(n, q, k, prior), "--r", str(r),
                             "--trials", "2", "--seed", str(seed)],
                    "ref": ref, "defect": OVERFLOW_DEFECT, "defect_ref": dict(ref, successes=OVERFLOW_SUCCESSES)})
    for n, q, prior, trials in ((4, 2, "unknown", 4000), (3, 3, "heavy", 4000), (5, 2, "heavy", 2000)):
        seed = _trial_seed(rng)
        perfect = o.replay_perfect_rate(n, q, prior, trials, seed)
        total = (3**q) ** n
        census = o.census_k0(n, q, prior)
        extras = {
            "pair_count_rate": 2**n * math.factorial(n) / total,
            "pair_count_rate_with_columns": 2**n * math.factorial(n) * math.factorial(q) / total,
            "census_count": census,
            "census_rate": census / total,
        }
        ops.append({"argv": ["perfect-rate", "--n", str(n), "--q", str(q), "--prior", prior,
                             "--trials", str(trials), "--seed", str(seed)],
                    "ref": {"kind": "trial", "trials": trials, "successes": perfect, "seed": seed,
                            "extras": extras}})
    for q, delta, trials in ((100, 0.1, 3000), (30, 0.2, 3000)):
        r, seed = _r(rng), _trial_seed(rng)
        hits = o.replay_concentrate(q, r, delta, trials, seed)
        ops.append({"argv": ["concentrate", "--q", str(q), "--r", str(r), "--delta", str(delta),
                             "--trials", str(trials), "--seed", str(seed)],
                    "ref": {"kind": "concentrate", "empirical": hits / trials, "bound": o.hoeffding(q, delta)}})
    grid = o.interior_grid(0.0, 1.0, 1000)
    ops.append({"argv": ["analyze", "--curve", "g", "--grid", "1000"],
                "ref": {"kind": "table", "header": ["r", "g"], "rows": [[x, o.rate_g(x)] for x in grid]}})
    r2 = round(float(rng.uniform(0.02, 0.2)), 3)
    grid = o.interior_grid(r2, 1.0, 500)
    ops.append({"argv": ["analyze", "--curve", "v", "--r2", str(r2), "--grid", "500"],
                "ref": {"kind": "table", "header": ["r", "v"], "rows": [[x, o.rate_v(x, r2)] for x in grid]}})
    r2s = [0.0] + sorted(round(float(x), 3) for x in rng.uniform(0.01, 0.2, 3))
    ops.append({"argv": ["analyze", "--curve", "optimal-r", "--r2", ",".join(map(str, r2s))],
                "ref": {"kind": "table", "header": ["r2", "argmax", "max"], "argmax_tol": 1e-5,
                        "rows": [[x, *o.best_rate(x)] for x in r2s]}})
    r, q = _r(rng), int(rng.integers(6, 30))
    grid = o.interior_grid(0.0, 0.5, 400)
    ops.append({"argv": ["analyze", "--curve", "phi", "--r", str(r), "--q", str(q), "--grid", "400"],
                "ref": {"kind": "table", "header": ["p", "phi"], "rows": [[p, o.phi(p, r, q)] for p in grid]}})
    q = int(rng.integers(4, 12))
    qvec = [int(x) for x in rng.integers(0, q + 1, 8)]
    ops.append({"argv": ["analyze", "--curve", "f", "--qvec", ",".join(map(str, qvec)), "--q", str(q),
                         "--grid", "400"],
                "ref": {"kind": "table", "header": ["p", "f"],
                        "rows": [[p, o.expected_survivors(qvec, p, q)] for p in grid]}})
    warmup = ["simulate", "--spec", "13,3,0,unknown", "--r", "0.6667", "--trials", "20"]
    return ops, warmup


def _value_ref(n, q, k, prior, winner, refusal_ok=False):
    return {"kind": "value", "n": n, "q": q, "k": k, "prior": prior, "winner": winner,
            "refusal_ok": refusal_ok}


def _enumerate(rng, out_dir):
    ops = []
    census = ((4, 2, 0, "unknown"), (5, 2, 0, "heavy"), (3, 3, 0, "unknown"), (6, 2, 0, "heavy"),
              (2, 3, 1, "unknown"), (3, 3, 1, "heavy"), (2, 4, 1, "unknown"), (4, 3, 1, "heavy"))
    for n, q, k, prior in census:
        count = o.census_k0(n, q, prior) if k == 0 else o.count_perfect_plans(n, q, k, prior)
        ops.append({"argv": ["census", "--n", str(n), "--q", str(q), "--k", str(k), "--prior", prior],
                    "ref": {"kind": "census", "count": count, "total": (3**q) ** (n)}})
    # value, exhaustive mode: small instances settled by capacity, by
    # pigeonhole or by an explicit code.
    exhaustive = ((3, 3, 1, "heavy", "player"), (2, 3, 1, "unknown", "balance"),
                  (5, 2, 0, "heavy", "player"), (5, 2, 0, "unknown", "balance"),
                  (2, 5, 2, "heavy", "player"), (4, 2, 0, "unknown", "player"))
    for n, q, k, prior, winner in exhaustive:
        ops.append({"argv": ["value", "--spec", _spec(n, q, k, prior), "--exhaustive"],
                    "ref": _value_ref(n, q, k, prior, winner)})
    # value, auto mode beyond the enumeration cap: capacity theorems at k = 0,
    # pigeonhole at k >= 1, and instances only a code witness settles (the
    # tetracode, or a greedy code), where a typed refusal is accepted.
    auto = []
    for q, prior in ((4, "unknown"), (5, "heavy"), (3, "unknown")):
        cap = o.capacity(q, prior)
        for n in (int(rng.integers(cap - 4, cap + 1)), int(rng.integers(cap + 1, cap + 6))):
            auto.append((n, q, 0, prior, "player" if n <= cap else "balance", False))
    for q, k, prior in ((4, 1, "heavy"), (5, 1, "unknown"), (6, 2, "heavy")):
        top = o.pigeonhole_max(q, k, prior)
        auto.append((int(rng.integers(top + 1, top + 5)), q, k, prior, "balance", False))
    auto.append((9, 4, 1, "heavy", "player", True))  # the tetracode is a witness
    auto.append((int(rng.integers(5, 9)), 4, 1, "heavy", "player", True))
    n = int(rng.integers(4, 10))
    o.greedy_code(n, 5, 1, "heavy", rng)  # raises unless a witness exists
    auto.append((n, 5, 1, "heavy", "player", True))
    for n, q, k, prior, winner, refusal_ok in auto:
        ops.append({"argv": ["value", "--spec", _spec(n, q, k, prior)],
                    "ref": _value_ref(n, q, k, prior, winner, refusal_ok)})
    for prior in ("heavy", "unknown"):
        for k in (0, 1):
            rows = o.sweep_rows(4, k, prior)
            ops.append({"argv": ["sweep", "--qmax", "4", "--prior", prior, "--k", str(k)],
                        "ref": {"kind": "table", "exact": True,
                                "header": ["q", "player_max_n", "balance_min_n", "mode", "capacity",
                                           "mass_bound_min_n"],
                                "rows": rows}})
    warmup = ["census", "--n", "2", "--q", "2", "--prior", "unknown"]
    return ops, warmup


def build(name: str, seed: int, out_dir: str) -> tuple[list[dict], list[str]]:
    """Operation list and warm-up argv for one workload."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    os.makedirs(os.path.join(out_dir, "plans"), exist_ok=True)
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    make = {"certify-scan": _certify_scan, "monte-carlo": _monte_carlo, "enumerate": _enumerate}[name]
    ops, warmup = make(rng, out_dir)
    for i, op in enumerate(ops):
        op["id"] = i
        op.setdefault("defect", None)
        op.setdefault("defect_ref", None)
    return ops, warmup
