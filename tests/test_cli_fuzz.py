"""Every subcommand, fed extreme numbers, exits 0 with a finite table or 2 with one line.

Each example runs ``cli.main(argv)`` in-process on flags that mix nan, +-inf, +-0,
subnormals, huge and negative values with counts past every cap.  Valid counts stay small,
so that an accepted run is quick; a count past its cap must be refused before any work.
The invariants:

- the exit status is 0 or 2;
- exit 2 prints one stderr line and nothing on stdout;
- exit 0 prints no nan or inf token;
- no run raises a warning;
- no example takes more than a second.

Only argparse's ``SystemExit`` is caught here.  Any other exception fails the example, and
``cli.main`` reports an unexpected one as an internal failure with exit 1, never 2.
"""

import contextlib
import io
import math
import re
import sys
import warnings
from datetime import timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entprobe import cli

EXTREME_FLOATS = (
    math.nan,
    math.inf,
    -math.inf,
    0.0,
    -0.0,
    5e-324,
    -5e-324,
    sys.float_info.min,
    1e-300,
    1e300,
    sys.float_info.max,
    -sys.float_info.max,
    0.5,
    -0.5,
    1.0,
    -1.0,
    1.0 - 2.0**-53,
    354.89,
    355.0,
)
# tokens that float() reads as non-finite, or not at all
ODD_TOKENS = ("1e999", "-1e999", "NaN", "-nan", "+inf", "Infinity", "0x10", "1_0", "", "x")

NUMBER = st.one_of(
    st.sampled_from(EXTREME_FLOATS).map(repr),
    st.floats(-2.0, 2.0).map(repr),
    st.floats().map(repr),
    st.sampled_from(ODD_TOKENS),
)


def count(valid_hi: int, cap: int):
    """A small valid count (half the time), or one past the cap, negative, zero or not an
    integer."""
    valid = st.integers(1, valid_hi).map(str)
    over = st.sampled_from([0, -1, cap + 1, 10**12, 2**63, 10**100]).map(str)
    return st.one_of(valid, valid, over, st.sampled_from(["2.5", "nan", ""]))


def comma_list(element, max_size: int = 5):
    return st.lists(element, min_size=0, max_size=max_size).map(",".join)


GRID = st.one_of(
    st.tuples(NUMBER, NUMBER, count(40, cli.MAX_GRID_POINTS)).map(":".join),
    comma_list(NUMBER),
)

UNITARY = st.one_of(
    st.sampled_from(["x", "y", "z", "i", "X", "q", ""]).map("pauli:".__add__),
    st.tuples(
        st.one_of(st.just(2), st.sampled_from([1, 0, -1, 3, cli.MAX_UNITARY_DIM + 1, 10**100])),
        st.one_of(st.integers(-1, 7), st.just(10**100)),
        st.one_of(st.integers(-1, 7), st.just(10**100)),
    ).map(lambda dmn: "wh:{},{},{}".format(*dmn)),
    st.tuples(NUMBER, NUMBER).map(lambda t: "diag:{},{}".format(*t)),
    comma_list(NUMBER, 4).map("diag:".__add__),
    st.sampled_from(["file:/no/such/unitary.json", "bogus:1", ""]),
)


def spectrum(d: int, first: float) -> tuple:
    """(--d, --schmidt-spec): ``first`` and d - 1 weights that share what it leaves of 1."""
    return str(d), ",".join([repr(first)] + [repr((1.0 - first) / (d - 1))] * (d - 1))


# a flat spectrum, one whose first weight is extreme, or any d and list
COVARIANT = st.one_of(
    st.integers(2, 8).map(lambda d: spectrum(d, 1.0 / d)),
    st.tuples(st.integers(2, 6), st.sampled_from(EXTREME_FLOATS)).map(lambda t: spectrum(*t)),
    st.tuples(count(8, cli.MAX_COVARIANT_DIM), comma_list(NUMBER, 8)),
)

# two priors that sum to 1, or any list
PRIORS = st.one_of(
    st.just("0.5,0.5"),
    st.floats(0.0, 1.0).map(lambda p: f"{p!r},{1.0 - p!r}"),
    comma_list(NUMBER, 3),
)

N_MAX = st.one_of(st.integers(-3, 70), st.sampled_from([10**9, -(10**100)]))

SEED = st.one_of(st.integers(0, 2**64 - 1), st.sampled_from([-1, 2**64, 10**40]))

FORMAT = st.sampled_from([[], ["--format", "json"]])

ARGV = {
    "pauli-demo": st.tuples(FORMAT).map(lambda t: t[0]),
    "wh-group": st.tuples(count(6, cli.MAX_WH_GROUP_DIM), FORMAT).map(
        lambda t: ["--d", t[0], *t[1]]
    ),
    "discriminate": st.tuples(UNITARY, UNITARY, PRIORS, FORMAT).map(
        lambda t: ["--u1", t[0], "--u2", t[1], "--priors", t[2], *t[3]]
    ),
    "ncopies": st.tuples(UNITARY, UNITARY, N_MAX, FORMAT).map(
        lambda t: ["--u1", t[0], "--u2", t[1], "--n-max", str(t[2]), *t[3]]
    ),
    "covariant": st.tuples(COVARIANT, FORMAT).map(
        lambda t: ["--d", t[0][0], "--schmidt-spec", t[0][1], *t[1]]
    ),
    "cv-estimate": st.tuples(NUMBER, NUMBER, count(2000, 10**9), SEED, FORMAT).map(
        lambda t: ["--x", t[0], "--nbar", t[1], "--trials", t[2], "--seed", str(t[3]), *t[4]]
    ),
    "threshold-scan": st.tuples(GRID, FORMAT).map(lambda t: ["--x-grid", t[0], *t[1]]),
    "stability": st.tuples(NUMBER, NUMBER, GRID, FORMAT).map(
        lambda t: ["--s", t[0], "--x", t[1], "--phi-grid", t[2], *t[3]]
    ),
}

# a nan or an inf as CSV, JSON or Python prints it, as a word of its own
NON_FINITE = re.compile(r"(?<![A-Za-z])(nan|inf|infinity)(?![A-Za-z])", re.IGNORECASE)


def run_main(argv: list) -> tuple:
    """(exit status, stdout, stderr, warnings) of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as usage_error:  # argparse reports a usage error this way
                code = usage_error.code
    return code, out.getvalue(), err.getvalue(), [str(w.message) for w in caught]


def assert_clean_exit(argv: list) -> int:
    code, out, err, caught = run_main(argv)
    assert code in (0, 2), (argv, code, err)
    assert caught == [], (argv, caught)
    if code == 2:
        assert out == "", argv
        assert err.startswith("entprobe") and err.count("\n") == 1, (argv, err)
        assert err.endswith("\n"), (argv, err)
    else:
        assert err == "", (argv, err)
        assert out and not NON_FINITE.search(out), (argv, out)
    return code


def test_every_subcommand_is_fuzzed():
    assert sorted(ARGV) == sorted(cli.build_parser()._subparsers._group_actions[0].choices)


@pytest.mark.parametrize("command", sorted(ARGV))
@settings(derandomize=True, database=None, max_examples=100, deadline=timedelta(seconds=1))
@given(data=st.data())
def test_extreme_flags_exit_cleanly(command, data):
    assert_clean_exit([command, *data.draw(ARGV[command], label="flags")])


@pytest.mark.parametrize(
    "argv, code",
    [
        # linspace overflows on its way to the last point, which it then sets to hi
        (["threshold-scan", "--x-grid", f"0:{sys.float_info.max!r}:4"], 2),
        (["stability", "--s", "1", "--x", "0.5", "--phi-grid", f"0:{sys.float_info.max!r}:4"], 0),
        (["stability", "--s", "354.89", "--x", "-0.99999999999999", "--phi-grid", "5e-324,-0"], 0),
        (["cv-estimate", "--x", "5e-324", "--nbar", "1e300", "--trials", "3", "--seed", "0"], 0),
    ],
    ids=["x-grid-overflow", "phi-grid-overflow", "largest-squeezing", "huge-noise"],
)
def test_pinned_extremes_exit_cleanly(argv, code):
    assert assert_clean_exit(argv) == code
