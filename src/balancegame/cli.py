"""Command-line interface.

Machine-readable reports (JSON, fixed field order) or CSV go to stdout;
``--pretty`` switches a JSON report to an aligned key/value rendering.  Exit
codes: 0 success, 1 other package error, 2 malformed input, 3 capacity
exceeded, 4 enumeration cap or round bound exceeded, 5 numeric domain
violation, 6 undecided by the requested mode.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from typing import Any, Sequence

from . import adversary, analysis, builders, engine, montecarlo, verifier
from .core import (
    BalanceGameError,
    CapacityError,
    DimensionError,
    DomainError,
    GameSpec,
    ResourceLimitError,
    adjudicate,
    transcribe,
)
from .formats import (
    FormatError,
    format_strategy,
    parse_mask,
    parse_strategy,
    render_csv,
    render_report,
    report,
    spec_fields,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_CAPACITY = 3
EXIT_RESOURCE = 4
EXIT_DOMAIN = 5
EXIT_UNDECIDED = 6

# Exit code per error type; the first type that matches wins, so subclasses
# come before the base class.
EXIT_CODES = (
    ((FormatError, DimensionError), EXIT_USAGE),
    (CapacityError, EXIT_CAPACITY),
    (ResourceLimitError, EXIT_RESOURCE),
    (verifier.UndecidedError, EXIT_UNDECIDED),
    (DomainError, EXIT_DOMAIN),
    (BalanceGameError, EXIT_ERROR),
)


def _parse_spec(text: str) -> GameSpec:
    try:
        return GameSpec.parse(text)
    except DomainError as exc:
        raise FormatError(f"bad --spec value: {exc}") from exc


def _load_strategy(path: str) -> tuple[str, ...]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise FormatError(f"cannot read strategy file {path!r}: {exc.strerror}") from exc
    return parse_strategy(text)


def _survivor_labels(survivors) -> list[str]:
    return [h.label for h in sorted(survivors)]


def _emit(args, doc: dict[str, Any]) -> None:
    print(render_report(doc, pretty=args.pretty))


def _verdict_fields(verdict) -> dict[str, Any]:
    if verdict.caught_lying:
        outcome = "player-catches-lie"
    elif verdict.identified is not None:
        outcome = "player-identifies"
    else:
        outcome = "balance-wins"
    return {
        "outcome": outcome,
        "winner": verdict.winner,
        "identified": verdict.identified.label if verdict.identified else None,
        "survivors": _survivor_labels(verdict.survivors),
    }


def _cmd_construct(args) -> int:
    if args.kind == "binary":
        rows = builders.binary_strategy(args.n, args.q)
        header = f"binary plan n={args.n} q={args.q}"
    elif args.kind == "ternary":
        rows = builders.ternary_strategy(args.n, args.q)
        header = f"ternary plan n={args.n} q={args.q}"
    elif args.kind == "complement-free":
        rows = builders.complement_free_strategy(args.n, args.q)
        header = f"complement-free plan n={args.n} q={args.q}"
    else:
        params = builders.RandomStrategyParams(args.r, args.seed)
        rows = builders.random_strategy(args.n, args.q, params)
        header = f"random plan n={args.n} q={args.q} r={args.r} seed={args.seed}"
    sys.stdout.write(format_strategy(rows, header=header))
    return EXIT_OK


def _cmd_adjudicate(args) -> int:
    spec = _parse_spec(args.spec)
    rows = _load_strategy(args.strategy)
    mask = parse_mask(args.mask, spec.q)
    t0 = time.perf_counter()
    verdict = adjudicate(spec, rows, mask)
    doc = report(
        "adjudicate",
        spec=spec_fields(spec),
        mask=mask,
        **_verdict_fields(verdict),
        transcript=list(transcribe(rows, mask, spec.prior)),
        elapsed_ms=round(1000 * (time.perf_counter() - t0), 3),
    )
    _emit(args, doc)
    return EXIT_OK


def _cmd_attack(args) -> int:
    spec = _parse_spec(args.spec)
    rows = _load_strategy(args.strategy)
    t0 = time.perf_counter()
    if args.constructive:
        result = adversary.constructive_attack(spec, rows)
    else:
        result = adversary.find_winning_mask(spec, rows)
    doc = report(
        "attack",
        spec=spec_fields(spec),
        outcome="attack-found" if result else "perfect",
        mask=result.mask if result else None,
        method=result.method if result else None,
        survivors=_survivor_labels(result.survivors) if result else [],
        elapsed_ms=round(1000 * (time.perf_counter() - t0), 3),
    )
    _emit(args, doc)
    return EXIT_OK


def _cmd_certify(args) -> int:
    spec = _parse_spec(args.spec)
    rows = _load_strategy(args.strategy)
    t0 = time.perf_counter()
    cert = verifier.certify(spec, rows)
    doc = report(
        "certify",
        spec=spec_fields(spec),
        outcome=cert.outcome,
        masks_checked=cert.masks_checked,
        attack_mask=cert.attack.mask if cert.attack else None,
        survivors=_survivor_labels(cert.attack.survivors) if cert.attack else [],
        elapsed_ms=round(1000 * (time.perf_counter() - t0), 3),
    )
    _emit(args, doc)
    return EXIT_OK


def _cmd_value(args) -> int:
    spec = _parse_spec(args.spec)
    mode = "auto"
    if args.exhaustive:
        mode = "exhaustive"
    elif args.constructive:
        mode = "constructive"
    t0 = time.perf_counter()
    value = verifier.game_value(spec, mode, matrix_cap=args.matrix_cap)
    doc = report(
        "value",
        spec=spec_fields(spec),
        winner=value.winner,
        mode=value.mode,
        witness=list(value.witness) if value.witness else None,
        instances_checked=value.instances_checked,
        elapsed_ms=round(1000 * (time.perf_counter() - t0), 3),
    )
    _emit(args, doc)
    return EXIT_OK


def _cmd_census(args) -> int:
    spec = GameSpec(args.n, args.q, args.k, args.prior)
    t0 = time.perf_counter()
    count = verifier.census_perfect(spec, matrix_cap=args.matrix_cap)
    total = (3**spec.q) ** spec.n
    doc = report(
        "census",
        spec=spec_fields(spec),
        perfect_count=count,
        total_plans=total,
        perfect_rate=count / total,
        elapsed_ms=round(1000 * (time.perf_counter() - t0), 3),
    )
    _emit(args, doc)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    rows = verifier.theorem_sweep(args.qmax, args.prior, args.k, matrix_cap=args.matrix_cap)
    header = ["q", "player_max_n", "balance_min_n", "mode", "capacity", "mass_bound_min_n"]
    out = [
        [r.q, r.player_max_n, r.balance_min_n, r.mode, r.capacity, r.mass_bound_min_n]
        for r in rows
    ]
    sys.stdout.write(render_csv(header, out))
    return EXIT_OK


def _floats_csv(text: str) -> list[float]:
    try:
        return [float(p) for p in text.split(",") if p.strip() != ""]
    except ValueError as exc:
        raise FormatError(f"bad number list {text!r}") from exc


def _ints_csv(text: str) -> list[int]:
    try:
        return [int(p) for p in text.split(",") if p.strip() != ""]
    except ValueError as exc:
        raise FormatError(f"bad integer list {text!r}") from exc


def _cmd_analyze(args) -> int:
    num = args.grid
    if args.curve == "g":
        curve = analysis.sample_curve(analysis.honest_threshold_rate, 0.0, 1.0, num)
        text = render_csv(["r", "g"], list(zip(curve.grid, curve.values)))
    elif args.curve == "v":
        if args.r2 is None:
            raise FormatError("curve 'v' needs --r2")
        r2 = _floats_csv(args.r2)
        if len(r2) != 1:
            raise FormatError("curve 'v' takes exactly one --r2 value")
        fn = lambda r: analysis.lying_threshold_rate(r, r2[0])
        curve = analysis.sample_curve(fn, r2[0], 1.0, num)
        text = render_csv(["r", "v"], list(zip(curve.grid, curve.values)))
    elif args.curve == "optimal-r":
        values = _floats_csv(args.r2) if args.r2 is not None else [0.0]
        rows = []
        for r2 in values:
            argmax, best = analysis.best_on_fraction(r2)
            rows.append([r2, argmax, best])
        text = render_csv(["r2", "argmax", "max"], rows)
    elif args.curve == "f":
        if args.qvec is None or args.q is None:
            raise FormatError("curve 'f' needs --qvec and --q")
        qvec = _ints_csv(args.qvec)
        fn = lambda p: analysis.expected_survivors(qvec, p, args.q)
        curve = analysis.sample_curve(fn, 0.0, 0.5, num, parameter="p")
        text = render_csv(["p", "f"], list(zip(curve.grid, curve.values)))
    else:  # phi
        if args.r is None or args.q is None:
            raise FormatError("curve 'phi' needs --r and --q")
        fn = lambda p: analysis.prob_considered_heavier(p, args.r, args.q)
        curve = analysis.sample_curve(fn, 0.0, 0.5, num, parameter="p")
        text = render_csv(["p", "phi"], list(zip(curve.grid, curve.values)))
    sys.stdout.write(text)
    return EXIT_OK


def _trial_report_doc(command: str, rep: montecarlo.TrialReport) -> dict[str, Any]:
    return report(
        command,
        spec=spec_fields(rep.spec) if rep.spec else None,
        params=rep.params,
        trials=rep.trials,
        successes=rep.successes,
        estimate=rep.estimate,
        half_width=rep.half_width,
        seed=rep.seed,
        extras=rep.extras,
    )


def _cmd_simulate(args) -> int:
    spec = _parse_spec(args.spec)
    rep = montecarlo.simulate_random_player(spec, args.r, args.trials, args.seed)
    _emit(args, _trial_report_doc("simulate", rep))
    return EXIT_OK


def _cmd_concentrate(args) -> int:
    empirical, bound = montecarlo.concentration_experiment(
        args.q, args.r, args.delta, args.trials, args.seed
    )
    doc = report(
        "concentrate",
        q=args.q,
        r=args.r,
        delta=args.delta,
        trials=args.trials,
        seed=args.seed,
        empirical_tail=empirical,
        chernoff_bound=bound,
        within_bound=empirical <= bound,
    )
    _emit(args, doc)
    return EXIT_OK


def _cmd_perfect_rate(args) -> int:
    rep = montecarlo.random_perfect_rate(args.n, args.q, args.prior, args.trials, args.seed)
    _emit(args, _trial_report_doc("perfect-rate", rep))
    return EXIT_OK


def _cmd_play(args) -> int:
    spec = _parse_spec(args.spec)
    if args.as_player:
        # Human supplies the plan; the tool answers as the balance.
        if args.strategy:
            rows = _load_strategy(args.strategy)
        else:
            print(f"enter {spec.n} rows over L/R/O, blank line to finish:", file=sys.stderr)
            lines = []
            for line in sys.stdin:
                if not line.strip():
                    break
                lines.append(line)
            rows = parse_strategy("".join(lines))
        result = adversary.find_winning_mask(spec, rows)
        if result is None:
            print("perfect plan: the balance concedes, every announcement is safe")
        else:
            print(f"balance announces {result.mask}")
            print(adjudicate(spec, rows, result.mask).describe())
        return EXIT_OK
    if not args.strategy:
        raise FormatError("play needs --strategy unless --as-player reads one from stdin")
    rows = _load_strategy(args.strategy)
    print(f"announce masks over {spec.q} rounds (L/R/D), one per line:", file=sys.stderr)
    for line in sys.stdin:
        text = line.strip()
        if not text:
            continue
        mask = parse_mask(text, spec.q)
        print(adjudicate(spec, rows, mask).describe())
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="balancegame",
        description="Predetermined balance games: build plans, attack them, certify them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, **kwargs):  # a command that emits a JSON report
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--pretty", action="store_true", help="human-readable report")
        return p

    p = sub.add_parser("construct", help="emit a strategy file")
    p.add_argument("--kind", choices=["binary", "ternary", "complement-free", "random"],
                   required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--r", type=float, default=2 / 3, help="on-balance rate for random plans")
    p.add_argument("--seed", type=int, default=0)

    p = add("adjudicate", help="score one announcement")
    p.add_argument("--spec", required=True, help="n,q,k,prior")
    p.add_argument("--strategy", required=True)
    p.add_argument("--mask", required=True)

    p = add("attack", help="find a winning announcement")
    p.add_argument("--spec", required=True)
    p.add_argument("--strategy", required=True)
    p.add_argument("--constructive", action="store_true",
                   help="structural rules only (k=0): equal honest announcements")

    p = add("certify", help="must-win check against every announcement")
    p.add_argument("--spec", required=True)
    p.add_argument("--strategy", required=True)

    p = add("value", help="who wins under best play")
    p.add_argument("--spec", required=True)
    p.add_argument("--exhaustive", action="store_true")
    p.add_argument("--constructive", action="store_true")
    p.add_argument("--matrix-cap", type=int, default=engine.DEFAULT_MATRIX_CAP)

    p = add("census", help="count must-win plans")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--prior", choices=["heavy", "unknown"], default="heavy")
    p.add_argument("--matrix-cap", type=int, default=engine.DEFAULT_MATRIX_CAP)

    p = sub.add_parser("sweep", help="win/lose boundary table (CSV)")
    p.add_argument("--qmax", type=int, required=True)
    p.add_argument("--prior", choices=["heavy", "unknown"], default="heavy")
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--matrix-cap", type=int, default=200_000)

    p = sub.add_parser("analyze", help="closed-form curves (CSV)")
    p.add_argument("--curve", choices=["g", "v", "f", "phi", "optimal-r"], required=True)
    p.add_argument("--grid", type=int, default=1000)
    p.add_argument("--r2", help="lie fraction(s), comma separated for optimal-r")
    p.add_argument("--r", type=float, help="on-balance rate (phi)")
    p.add_argument("--q", type=int, help="round count (f, phi)")
    p.add_argument("--qvec", help="per-coin on-round counts, comma separated (f)")

    p = add("simulate", help="random plans vs the exact balance")
    p.add_argument("--spec", required=True)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)

    p = add("concentrate", help="on-fraction concentration check")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)

    p = add("perfect-rate", help="how often random plans are perfect")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--prior", choices=["heavy", "unknown"], default="heavy")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("play", help="interactive round")
    p.add_argument("--spec", required=True)
    p.add_argument("--strategy")
    p.add_argument("--as-player", action="store_true",
                   help="you provide the plan, the tool answers as the balance")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Built on the first main() call, not at import, and reused: parse_args
    # fills a fresh namespace each call, so no call sees another's options.
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    # Looked up by name on every call, so the handler in force now runs.
    handler = globals()["_cmd_" + args.command.replace("-", "_")]
    try:
        return handler(args)
    except BalanceGameError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kinds, code in EXIT_CODES if isinstance(exc, kinds))


if __name__ == "__main__":
    sys.exit(main())
