import contextlib
import decimal
import io
import json
import math
import random
import sys
import time

import numpy as np
import pytest
from hypothesis import given, strategies as st

from balancegame import DimensionError, DomainError, GameSpec, analysis, cli
from balancegame.core import validate_row, validate_strategy
from balancegame.formats import (
    FormatError,
    _digits,
    csv_number,
    power_of_three_digits,
    format_strategy,
    parse_mask,
    parse_strategy,
    render_csv,
    render_report,
    report,
)


def readable_parse_strategy(text):
    """The strategy-file rules spelled out, one character at a time."""
    rows, width = [], None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        row = line.upper()
        for col, ch in enumerate(row, start=1):
            if ch not in "LRO":
                raise FormatError(f"placement must be one of 'LRO', got {ch!r}", lineno, col)
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise FormatError(f"row has {len(row)} placements, earlier rows have {width}", lineno)
        rows.append(row)
    if not rows:
        raise FormatError("no strategy rows found")
    return tuple(rows)


# Loose characters, and lines that are mostly rows of one width: comments,
# blank lines, lower case, tabs, each kind of line end, non-ASCII (some
# upper-casing to two letters) and ragged rows.
_PLAN_TEXTS = st.one_of(
    st.text(alphabet="LROlrox #\n\t", max_size=40),
    st.tuples(st.lists(st.one_of(
        st.text(alphabet="LRO", min_size=3, max_size=3),
        st.text(alphabet="LROlro", min_size=2, max_size=4),
        st.text(alphabet="LROlro \t", max_size=6),
        st.text(alphabet="# x", max_size=4).map(lambda t: "#" + t),
        st.text(alphabet="LROlroxß\u0131\ufb01\u2028é\x0c\x85", max_size=4),
    ), max_size=8), st.sampled_from(["\n", "\r\n", "\r"])).map(lambda t: t[1].join(t[0])),
)


class TestParseStrategy:
    def test_basic(self):
        assert parse_strategy("LL\nLR\nRL\nRR\n") == ("LL", "LR", "RL", "RR")

    def test_skips_blanks_and_comments(self):
        text = "# four coins\n\nLL\n  LR\n\n# trailing note\nRL\nRR"
        assert parse_strategy(text) == ("LL", "LR", "RL", "RR")

    def test_case_insensitive(self):
        assert parse_strategy("lr\nOl\n") == ("LR", "OL")

    def test_bad_character_position(self):
        with pytest.raises(FormatError) as exc:
            parse_strategy("LL\nLX\n")
        assert exc.value.line == 2
        assert exc.value.column == 2

    def test_ragged_rows(self):
        with pytest.raises(FormatError) as exc:
            parse_strategy("LL\nLRO\n")
        assert exc.value.line == 2

    def test_empty_input(self):
        with pytest.raises(FormatError):
            parse_strategy("# nothing here\n")

    @pytest.mark.parametrize("text,message", [
        ("LRL\nLOXZ\n", "line 2, column 3: placement must be one of 'LRO', got 'X'"),
        ("LXL\n", "line 1, column 2: placement must be one of 'LRO', got 'X'"),
        ("# c\n\n  lrq \n", "line 3, column 3: placement must be one of 'LRO', got 'Q'"),
        ("LR\nL R\n", "line 2, column 2: placement must be one of 'LRO', got ' '"),
        ("LRO\nlro\nOL\n", "line 3: row has 2 placements, earlier rows have 3"),
    ])
    def test_error_messages_are_pinned(self, text, message):
        with pytest.raises(FormatError) as exc:
            parse_strategy(text)
        assert str(exc.value) == message

    @given(_PLAN_TEXTS)
    def test_agrees_with_the_per_character_scan(self, text):
        try:
            want = readable_parse_strategy(text)
        except FormatError as exc:
            with pytest.raises(FormatError) as got:
                parse_strategy(text)
            assert (str(got.value), got.value.line, got.value.column) == (
                str(exc), exc.line, exc.column)
        else:
            assert parse_strategy(text) == want

    @given(
        st.lists(
            st.text(alphabet="LRO", min_size=3, max_size=3), min_size=1, max_size=8
        )
    )
    def test_round_trip(self, rows):
        assert parse_strategy(format_strategy(rows)) == tuple(rows)

    def test_round_trip_with_header(self):
        rows = ("LRO", "OOL")
        text = format_strategy(rows, header="2 coins, 3 rounds")
        assert text.startswith("# 2 coins")
        assert parse_strategy(text) == rows


class TestParseMask:
    def test_basic(self):
        assert parse_mask(" lrd \n") == "LRD"

    def test_wrong_length(self):
        with pytest.raises(FormatError):
            parse_mask("LR", q=3)

    def test_bad_character(self):
        with pytest.raises(FormatError) as exc:
            parse_mask("LOD")
        assert exc.value.column == 2

    def test_empty(self):
        with pytest.raises(FormatError):
            parse_mask("   ")


class TestReports:
    def test_schema_and_field_order(self):
        doc = report("certify", alpha=1, beta=2)
        assert list(doc) == ["schema", "command", "alpha", "beta"]
        assert doc["schema"] == "1"

    def test_json_round_trip(self):
        doc = report("value", winner="player", n=13)
        parsed = json.loads(render_report(doc))
        assert parsed == doc

    def test_pretty_renders_every_field(self):
        doc = report("attack", mask="LRD", survivors=["coin 1 heavier", "coin 2 lighter"])
        text = render_report(doc, pretty=True)
        assert "mask: LRD" in text
        assert "coin 2 lighter" in text


class TestCsv:
    def test_number_formats(self):
        assert csv_number(3) == "3"
        assert csv_number(None) == ""
        assert csv_number(True) == "true"
        assert csv_number(0.123456789123) == "0.123456789"
        assert csv_number(2 / 3) == "0.666666667"

    def test_nine_significant_digits(self):
        assert csv_number(1234567891.0) == "1.23456789e+09"
        assert csv_number(1e-4) == "0.0001"

    def test_render(self):
        text = render_csv(["r", "g"], [[0.5, 2.8284271247461903], [2 / 3, 3.0]])
        lines = text.strip().split("\n")
        assert lines[0] == "r,g"
        assert lines[1] == "0.5,2.82842712"
        assert lines[2] == "0.666666667,3"


LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit on int-to-str


def csv_oracle(header, rows):
    """A table cell by cell through csv_number, as every table was written."""
    return "".join(",".join(map(csv_number, row)) + "\n" for row in [header, *rows])


def analyze(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["analyze", *argv]) == 0
    return out.getvalue()


class TestFloatRows:
    """Tables of floats only take one format call per row, to the same bytes."""

    CURVES = [
        (["--curve", "g"], ("r", "g"), 0.0, 1.0, analysis.honest_threshold_rate),
        (["--curve", "v", "--r2", "0.176"], ("r", "v"), 0.176, 1.0,
         lambda r: analysis.lying_threshold_rate(r, 0.176)),
        (["--curve", "phi", "--r", "0.4592", "--q", "24"], ("p", "phi"), 0.0, 0.5,
         lambda p: analysis.prob_considered_heavier(p, 0.4592, 24)),
        (["--curve", "f", "--qvec", "8,1,0,10,7", "--q", "10"], ("p", "f"), 0.0, 0.5,
         lambda p: analysis.expected_survivors([8, 1, 0, 10, 7], p, 10)),
    ]

    @pytest.mark.parametrize("grid", [1, 2, 400, 2000])
    @pytest.mark.parametrize("argv,header,lo,hi,fn", CURVES)
    def test_every_curve_equals_per_point_scalar_calls(self, argv, header, lo, hi, fn, grid):
        step = (hi - lo) / (grid + 1)
        points = [lo + i * step for i in range(1, grid + 1)]
        assert analyze(*argv, "--grid", str(grid)) == csv_oracle(header, [[x, fn(x)] for x in points])

    def test_optimal_r_rows(self):
        r2s = [0.0, 0.05, 0.3]
        rows = [[r2, *analysis.best_on_fraction(r2)] for r2 in r2s]
        assert analyze("--curve", "optimal-r", "--r2", "0,0.05,0.3") == csv_oracle(("r2", "argmax", "max"), rows)

    @pytest.mark.parametrize("rows", [
        [[0.5, math.inf], [math.nan, -math.inf], [-0.0, 1e-300]],  # floats only: the row path
        [[1, 2.5], [True, None], ["x", 1e21]],
        [[np.float64(0.1), 2.5]],  # a float subclass takes the cell path
        [[0.5], [0.25, 0.75]],  # rows narrower than the header
        [[0.5, 0.25, 0.125]],  # and wider
        [],
    ])
    def test_tables_keep_their_bytes(self, rows):
        assert render_csv(["a", "b"], rows) == csv_oracle(("a", "b"), rows)

    @pytest.mark.skipif(LIMIT == 0, reason="this interpreter prints integers of any length")
    def test_an_int_past_the_limit_is_refused(self):
        with pytest.raises(DomainError, match=rf"^cannot print b: it has {LIMIT + 1} digits, "):
            render_csv(["a", "b"], [[0.5, 0.25], [0.5, 10**LIMIT]])


class TestPowerOfThreeDigits:
    def test_small_powers(self):
        for m in range(3000):
            assert power_of_three_digits(m) == len(str(3**m)), m

    @pytest.mark.parametrize("m", [1653915, 2319052])
    def test_products_within_the_float_slack_of_an_integer(self, m):
        # Denominators of continued-fraction convergents of log10(3): m log10(3)
        # lies within 1e-12 m log10(3) of an integer, so decimal decides the floor.
        x = m * math.log10(3)
        assert abs(x - round(x)) < 1e-12 * x
        digits = power_of_three_digits(m)
        big = 3**m
        assert 10 ** (digits - 1) <= big < 10**digits

    @pytest.mark.parametrize("m,floor", [
        (9045525078269505, 4315812274942119),  # the float product reads ...118.5
        (9307476767034999, 4440794993361845),  # the float product reads ...846.5
    ])
    def test_products_past_the_float_precision(self, m, floor):
        # The floors come from ln(3) / ln(10) at 60 digits, where the product lies
        # within 1e-11 of an integer but more than 1e-20 from it.
        context = decimal.Context(prec=60)
        exact = context.multiply(context.divide(context.ln(3), context.ln(10)), m)
        assert math.floor(exact) == floor and 1e-20 < min(exact - floor, floor + 1 - exact) < 1e-11
        assert power_of_three_digits(m) == floor + 1


@contextlib.contextmanager
def no_digit_limit():
    if not LIMIT:
        yield
        return
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(LIMIT)


class TestDigits:
    def test_powers_of_ten_and_their_neighbours(self):
        with no_digit_limit():
            for k in range(4001):
                for x in (10**k - 1, 10**k, 10**k + 1):
                    if x:
                        assert _digits(x) == _digits(-x) == len(str(x)), x

    def test_random_integers(self):
        rng = random.Random(33)
        with no_digit_limit():
            for _ in range(2000):
                x = rng.getrandbits(rng.randrange(1, 16_000)) or 1
                assert _digits(x) == _digits(-x) == len(str(x)), x

    @pytest.mark.parametrize("e", [4 * 10**6, 1653915, 2319052])
    def test_large_powers_of_three(self, e):
        # The last two put log10 within the float slack of an integer, so the
        # count is settled against that power of 10.
        assert _digits(3**e) == power_of_three_digits(e)

    @pytest.mark.skipif(LIMIT == 0, reason="this interpreter prints integers of any length")
    def test_refusing_a_huge_integer_costs_less_than_forming_it(self):
        big = 3 ** (4 * 10**6)
        text = rf"^cannot print counts: it has {power_of_three_digits(4 * 10**6)} digits, over the {LIMIT}-digit limit"
        for render in (
            lambda: render_report(report("census", counts=[1, big])),
            lambda: render_report(report("census", counts=[1, big]), pretty=True),
            lambda: render_csv(["n", "counts"], [[1, 1], [2, big]]),
        ):
            start = time.perf_counter()
            with pytest.raises(DomainError, match=text):
                render()
            assert time.perf_counter() - start < 0.1


class Unprintable:
    def __str__(self):
        raise ValueError("not a number problem")


class TestUnprintable:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_json_holds_no_nan_or_infinity(self, value):
        with pytest.raises(DomainError, match=rf"^cannot print spec\.r: {value} is not a JSON number$"):
            render_report(report("simulate", spec={"n": 2, "r": value}))

    def test_pretty_and_csv_print_what_they_can(self):
        assert render_report({"x": math.nan}, pretty=True) == "x: nan"
        assert render_csv(["x"], [[math.inf]]) == "x\ninf\n"

    @pytest.mark.skipif(LIMIT == 0, reason="this interpreter prints integers of any length")
    @pytest.mark.parametrize("render", [
        lambda big: render_report(report("census", counts=[1, big])),
        lambda big: render_report(report("census", counts=[1, big]), pretty=True),
        lambda big: render_csv(["n", "counts"], [[1, 1], [2, big]]),
    ])
    def test_integers_past_the_digit_limit(self, render):
        for big, digits in ((10**LIMIT, LIMIT + 1), (-(10**LIMIT), LIMIT + 1), (10 ** (3 * LIMIT) - 1, 3 * LIMIT)):
            with pytest.raises(DomainError, match=rf"^cannot print counts: it has {digits} digits, "):
                render(big)
        render(10**LIMIT - 1)  # LIMIT digits: printable

    @pytest.mark.parametrize("render", [
        lambda: render_report({"x": Unprintable()}, pretty=True),
        lambda: render_csv(["x"], [[Unprintable()]]),
    ])
    def test_other_value_errors_propagate(self, render):
        with pytest.raises(ValueError, match="^not a number problem$"):
            render()


class TestValidateStrategy:
    @given(st.lists(st.text(alphabet="LROlrx\u0131 ", max_size=4), max_size=5),
           st.integers(1, 4), st.integers(0, 1))
    def test_the_fast_check_gives_the_row_loops_result_or_error(self, rows, q, extra):
        # The per-row rule spelled out: the row count, then each row in turn.
        spec = GameSpec(len(rows) + extra if rows else 1, q)
        try:
            if len(rows) != spec.n:
                raise DimensionError(f"strategy has {len(rows)} rows, spec wants n={spec.n}")
            for row in rows:
                validate_row(row, q)
        except DimensionError as exc:
            with pytest.raises(DimensionError) as got:
                validate_strategy(spec, iter(rows))
            assert str(got.value) == str(exc)
        else:
            assert validate_strategy(spec, iter(rows)) == tuple(rows)


_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(),
    st.sampled_from([-0.0, 0.0, 1e300, -1e300, 5e-324, 1e16, 10**30, -(10**40), "\x00\x1f\x7f\u2028\"\\/"]),
)
_TREES = st.recursive(_SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=3), st.lists(inner, max_size=3).map(tuple),
    st.dictionaries(st.text(max_size=4), inner, max_size=3)), max_leaves=12)


class TestJsonRendering:
    @given(st.dictionaries(st.text(max_size=4), _TREES, max_size=5))
    def test_same_bytes_as_json_dumps_or_a_domain_error(self, doc):
        try:
            want = json.dumps(doc, indent=2, allow_nan=False)
        except ValueError:
            with pytest.raises(DomainError):
                render_report(doc)
        else:
            assert render_report(doc) == want

    def test_nested_empty_containers_and_signed_zero(self):
        doc = report("x", a={}, b=[], c=(), d=[{}, [], [[]], {"e": ()}], f=-0.0, g=[True, None, 1e300])
        assert render_report(doc) == json.dumps(doc, indent=2, allow_nan=False)

    @pytest.mark.skipif(LIMIT == 0, reason="this interpreter prints integers of any length")
    @pytest.mark.parametrize("sign,shift", [(1, 0), (-1, 0), (1, -1)])
    def test_integers_at_the_digit_limit_nested(self, sign, shift):
        doc = report("x", a=[{"b": (1, sign * 10**LIMIT + shift)}])
        try:
            want = json.dumps(doc, indent=2, allow_nan=False)
        except ValueError:
            with pytest.raises(DomainError):
                render_report(doc)
        else:
            assert render_report(doc) == want
