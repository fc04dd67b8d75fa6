"""Command-line interface.

A ``_cmd_*`` handler only computes: a report command returns its fields,
``construct``, ``sweep`` and ``analyze`` return their text, and ``play``
prints as it reads stdin.  :func:`main` alone times, renders and writes; a
report's ``elapsed_ms`` spans the whole handler, parsing ``--spec`` and
reading the strategy file included.

Each call parses argv once: a named command goes straight to its own
parser, read off the top-level parser's subparsers, and anything else (no
argv, ``-h``, an unknown command) goes to the top-level parser.  Plain argv
for a command (exact option strings, one valid value each, no repeats) is
read off that parser's own tables by :func:`_fast_args` without running
argparse; everything else runs ``parse_known_args``, so argparse remains
the one definition of every command and the one source of its texts.

Machine-readable reports (JSON, fixed field order) or CSV go to stdout;
``--pretty`` switches a JSON report to an aligned key/value rendering.  Exit
codes: 0 success, 1 other package error, 2 malformed input, 3 capacity
exceeded, 4 matrix cap or round bound exceeded, 5 numeric domain
violation or a number the report cannot print, 6 undecided by the
requested mode.
"""

from __future__ import annotations

import argparse
import dataclasses
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
    Verdict,
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
    """The rows of the strategy file at ``path``: its bytes, decoded as UTF-8
    once, then :func:`parse_strategy`."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise FormatError(f"cannot read strategy file {path!r}: {exc.strerror}") from exc
    try:
        text = data.decode()
    except UnicodeDecodeError as exc:
        raise FormatError(
            f"strategy file {path!r} is not UTF-8: byte {data[exc.start]:#04x} at offset {exc.start}"
        ) from exc
    return parse_strategy(text)


def _survivor_labels(survivors) -> list[str]:
    return [h.label for h in sorted(survivors)]


def _cmd_construct(args) -> str:
    build = getattr(builders, args.kind.replace("-", "_") + "_strategy")
    header = f"{args.kind} plan n={args.n} q={args.q}"
    if args.kind == "random":
        rows = build(args.n, args.q, builders.RandomStrategyParams(args.r, args.seed))
        header += f" r={args.r} seed={args.seed}"
    else:
        rows = build(args.n, args.q)
    return format_strategy(rows, header=header)


def _cmd_adjudicate(args) -> dict[str, Any]:
    spec = _parse_spec(args.spec)
    rows = _load_strategy(args.strategy)
    mask = parse_mask(args.mask, spec.q)
    verdict = adjudicate(spec, rows, mask)
    if verdict.caught_lying:
        outcome = "player-catches-lie"
    elif verdict.identified is not None:
        outcome = "player-identifies"
    else:
        outcome = "balance-wins"
    return dict(
        spec=spec_fields(spec),
        mask=mask,
        outcome=outcome,
        winner=verdict.winner,
        identified=verdict.identified.label if verdict.identified else None,
        survivors=_survivor_labels(verdict.survivors),
        transcript=list(transcribe(rows, mask, spec.prior)),
        elapsed_ms=None,
    )


def _cmd_attack(args) -> dict[str, Any]:
    spec = _parse_spec(args.spec)
    rows = _load_strategy(args.strategy)
    if args.constructive:
        result = adversary.constructive_attack(spec, rows)
    else:
        result = adversary.find_winning_mask(spec, rows)
    return dict(
        spec=spec_fields(spec),
        outcome="attack-found" if result else "perfect",
        mask=result.mask if result else None,
        method=result.method if result else None,
        survivors=_survivor_labels(result.survivors) if result else [],
        elapsed_ms=None,
    )


def _cmd_certify(args) -> dict[str, Any]:
    spec = _parse_spec(args.spec)
    cert = verifier.certify(spec, _load_strategy(args.strategy))
    return dict(
        spec=spec_fields(spec),
        outcome=cert.outcome,
        masks_checked=cert.masks_checked,
        attack_mask=cert.attack.mask if cert.attack else None,
        survivors=_survivor_labels(cert.attack.survivors) if cert.attack else [],
        elapsed_ms=None,
    )


def _cmd_value(args) -> dict[str, Any]:
    spec = _parse_spec(args.spec)
    value = verifier.game_value(spec, args.mode, matrix_cap=args.matrix_cap)
    return dict(
        spec=spec_fields(spec),
        winner=value.winner,
        mode=value.mode,
        witness=list(value.witness) if value.witness else None,
        instances_checked=value.instances_checked,
        elapsed_ms=None,
    )


def _cmd_census(args) -> dict[str, Any]:
    spec = GameSpec(args.n, args.q, args.k, args.prior)
    count = verifier.census_perfect(spec, matrix_cap=args.matrix_cap)
    total = verifier.plan_total(spec, "total_plans")
    return dict(
        spec=spec_fields(spec),
        perfect_count=count,
        total_plans=total,
        perfect_rate=count / total,
        elapsed_ms=None,
    )


def _cmd_sweep(args) -> str:
    rows = verifier.theorem_sweep(args.qmax, args.prior, args.k, matrix_cap=args.matrix_cap)
    header = [f.name for f in dataclasses.fields(verifier.SweepRow)]
    return render_csv(header, [[getattr(r, name) for name in header] for r in rows])


def _number_list(text: str, kind: type = float) -> list:
    try:
        return [kind(p) for p in text.split(",") if p.strip() != ""]
    except ValueError as exc:
        raise FormatError(f"bad {'integer' if kind is int else 'number'} list {text!r}") from exc


def _cmd_analyze(args) -> str:
    num = args.grid
    if args.curve == "optimal-r":
        r2s = _number_list(args.r2) if args.r2 is not None else [0.0]
        if not r2s:
            raise FormatError(f"curve 'optimal-r' needs at least one --r2 value, got {args.r2!r}")
        return render_csv(["r2", "argmax", "max"],
                          [[r2, *analysis.best_on_fraction(r2)] for r2 in r2s])
    if args.curve == "g":
        curve = analysis.sample_curve(analysis.honest_threshold_rate, 0.0, 1.0, num)
    elif args.curve == "v":
        if args.r2 is None:
            raise FormatError("curve 'v' needs --r2")
        r2 = _number_list(args.r2)
        if len(r2) != 1:
            raise FormatError("curve 'v' takes exactly one --r2 value")
        analysis.check_lie_fraction(r2[0])
        fn = functools.partial(analysis.lying_threshold_rate, lie_fraction=r2[0])
        curve = analysis.sample_curve(fn, r2[0], 1.0, num)
    elif args.curve == "f":
        if args.qvec is None or args.q is None:
            raise FormatError("curve 'f' needs --qvec and --q")
        qvec = _number_list(args.qvec, int)
        if not qvec:
            raise FormatError(f"curve 'f' needs at least one --qvec value, got {args.qvec!r}")
        fn = functools.partial(analysis.expected_survivors, qvec, rounds=args.q)
        curve = analysis.sample_curve(fn, 0.0, 0.5, num, parameter="p")
    else:  # phi
        if args.r is None or args.q is None:
            raise FormatError("curve 'phi' needs --r and --q")
        fn = functools.partial(analysis.prob_considered_heavier, r=args.r, rounds=args.q)
        curve = analysis.sample_curve(fn, 0.0, 0.5, num, parameter="p")
    return render_csv([curve.parameter, args.curve], list(zip(curve.grid, curve.values)))


def _cmd_simulate(args) -> dict[str, Any]:
    spec = _parse_spec(args.spec)
    rep = montecarlo.simulate_random_player(spec, args.r, args.trials, args.seed)
    return vars(rep) | {"spec": spec_fields(rep.spec)}


def _cmd_concentrate(args) -> dict[str, Any]:
    empirical, bound = montecarlo.concentration_experiment(
        args.q, args.r, args.delta, args.trials, args.seed
    )
    return dict(
        q=args.q,
        r=args.r,
        delta=args.delta,
        trials=args.trials,
        seed=args.seed,
        empirical_tail=empirical,
        chernoff_bound=bound,
        within_bound=empirical <= bound,
    )


def _cmd_perfect_rate(args) -> dict[str, Any]:
    rep = montecarlo.random_perfect_rate(args.n, args.q, args.prior, args.trials, args.seed)
    return vars(rep) | {"spec": spec_fields(rep.spec)}


def _cmd_play(args) -> None:
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
            print(Verdict(result.survivors).describe())  # find_winning_mask adjudicated it
        return
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


MATRIX_CAP_HELP = ("bound on the clique search: W^2 graph cells over the W admissible rows, "
                   "checked before the graph is built, and search nodes, counted as they are "
                   "visited; also on the n*q cells of a plan that value hands out without "
                   "the search, checked before it is built; exit 4 beyond it")


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
    modes = p.add_mutually_exclusive_group()
    modes.add_argument("--exhaustive", dest="mode", action="store_const", const="exhaustive",
                       help="every rule, the clique search included")
    modes.add_argument("--constructive", dest="mode", action="store_const", const="constructive",
                       help="every rule but the clique search: exit 6 where only it decides")
    p.set_defaults(mode="auto")
    p.add_argument("--matrix-cap", type=int, default=engine.DEFAULT_MATRIX_CAP,
                   help=MATRIX_CAP_HELP + "; auto mode searches only while the 3^(nq) plans fit")

    p = add("census", help="count must-win plans")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--prior", choices=["heavy", "unknown"], default="heavy")
    p.add_argument("--matrix-cap", type=int, default=engine.DEFAULT_MATRIX_CAP,
                   help=MATRIX_CAP_HELP)

    p = sub.add_parser("sweep", help="win/lose boundary table (CSV)")
    p.add_argument("--qmax", type=int, required=True)
    p.add_argument("--prior", choices=["heavy", "unknown"], default="heavy")
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--matrix-cap", type=int, default=verifier.SWEEP_MATRIX_CAP,
                   help="rows are searched for each n while the 3^(nq) plans fit this cap")

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


@functools.cache
def _command_parsers() -> dict[str, argparse.ArgumentParser]:
    """Each command's own parser, read off the top-level parser's subparsers."""
    (sub,) = (a for a in _parser()._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices


def _fast_args(name: str, parser: argparse.ArgumentParser,
               tokens: Sequence[str]) -> argparse.Namespace | None:
    """The namespace ``parser.parse_known_args(tokens)`` fills, with
    ``command`` set to ``name``, read off the parser's own tables; ``None``
    wherever argparse itself must decide.

    Only the plainest argv is read here: every token an exact option string
    of a store action, followed by one value that does not start with a
    prefix character and passes the action's ``type`` and ``choices``, or of a
    store-const (``store_true``) flag.  No option may repeat, no two options
    of one mutually exclusive group may appear, a required group or option
    may not be missing, and the parser may have no positionals.  Anything
    else (abbreviations, ``--opt=value``, ``-h``, ``--``, negative numbers,
    bad values, extras) returns ``None``, so argparse stays the one source
    of usage, help and error texts.  Never prints, never exits."""
    table = parser._option_string_actions
    given: dict[argparse.Action, Any] = {}
    it = iter(tokens)
    for token in it:
        action = table.get(token)
        if action is None or action in given:
            return None
        if type(action) is argparse._StoreAction and action.nargs is None:
            value = next(it, "")
            if not value or value[0] in parser.prefix_chars:
                return None
            if action.type is not None:
                try:
                    value = action.type(value)
                except (TypeError, ValueError, argparse.ArgumentTypeError):
                    return None
            if action.choices is not None and value not in action.choices:
                return None
        elif isinstance(action, argparse._StoreConstAction):
            value = action.const
        else:
            return None
        given[action] = value
    for group in parser._mutually_exclusive_groups:
        present = sum(action in given for action in group._group_actions)
        if present > 1 or (group.required and not present):
            return None
    # Defaults as parse_known_args sets them: each action's, then set_defaults'.
    args = argparse.Namespace()
    for action in parser._actions:
        if not action.option_strings or (action.required and action not in given):
            return None
        if isinstance(action.default, str) and action.type is not None and action not in given:
            return None  # argparse would convert this default; leave that to it
        if (action.dest is not argparse.SUPPRESS and action.default is not argparse.SUPPRESS
                and not hasattr(args, action.dest)):
            setattr(args, action.dest, action.default)
    for dest, default in parser._defaults.items():
        if not hasattr(args, dest):
            setattr(args, dest, default)
    for action, value in given.items():
        setattr(args, action.dest, value)
    args.command = name
    return args


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command and return its exit code.

    argv is parsed once.  A named command goes to its own parser: read off
    its tables by :func:`_fast_args` when argv is that plain, else by its
    ``parse_known_args``.  Anything else (no argv, ``-h``, an unknown
    command) goes to the top-level parser.  Arguments the command's parser
    leaves over are refused by the top-level parser in the words of its own
    ``parse_args``, so usage texts, errors and exit codes are the same
    either way."""
    argv = sys.argv[1:] if argv is None else list(argv)
    command = _command_parsers().get(argv[0]) if argv else None
    if command is None:
        args = _parser().parse_args(argv)
    else:
        args = _fast_args(argv[0], command, argv[1:])
        if args is None:
            args, extra = command.parse_known_args(argv[1:])
            if extra:
                _parser().error("unrecognized arguments: " + " ".join(extra))
            args.command = argv[0]
    # Looked up by name on every call, so the handler in force now runs.
    handler = globals()["_cmd_" + args.command.replace("-", "_")]
    t0 = time.perf_counter()
    try:
        out = handler(args)
        if isinstance(out, dict):
            if "elapsed_ms" in out:
                out["elapsed_ms"] = round(1000 * (time.perf_counter() - t0), 3)
            out = render_report(report(args.command, **out), pretty=args.pretty) + "\n"
    except BalanceGameError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kinds, code in EXIT_CODES if isinstance(exc, kinds))
    if out:
        sys.stdout.write(out)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
