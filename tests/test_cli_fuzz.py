"""A fuzz harness for the command line: argv drawn from each subparser's own
actions, one or two flags over a small base per subcommand that passes.

Every run must exit 0 (PASS), 1 (FAIL) or 2 (invalid configuration) with
no exception escaping `main`; on exit 2, stderr holds argparse's `error:`
line or exactly one `invalid configuration:` line, and on exit 0 or 1 it
is empty. A run writes nothing outside its --out. The draws read the
parser, so a new flag is drawn with no edit here. An integer never exceeds
its flag's base or default value (nor 7), and an integer list entry never
exceeds the largest base entry, so no draw allocates more than its base;
the lab's worker count is no flag and is never drawn.
"""

import argparse
import contextlib
import io
import os
import re
import tempfile
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from restrictionlab import cli
from restrictionlab.oscillatory import phase_catalog

# a base per subcommand that passes quickly; the scaling runs keep an open
# slope window, so that a drawn flag decides the verdict only through what
# it changes
_OPEN = ["--slope-min=-inf", "--slope-max=inf"]
BASES = {
    "exponents": [],
    "measure": ["--n", "256"],
    "decay": ["--n", "256", "--r-list", "1,2,4", "--directions", "8", "--b-min=-inf", "--b-max=inf"],
    "dyadic": ["--points", "64", "--n", "64", "--j-list", "1,2,3"],
    "lorentz": ["--fields", "20", "--indicators", "5"],
    "knapp": ["--points", "512", "--half-width", "64", "--N-list", "2,3,4", "--sphere-n", "1024"],
    "restrict": ["--points", "64", "--n", "64", "--half-width", "16"],
    "oscillatory": ["--x-points", "16", "--y-points", "1024"] + _OPEN,
    "fold": ["--x-points", "16", "--y-points", "1024"] + _OPEN,
    "accept": ["--only", "1"],
}

# edge values of a real flag: signs, zeros, the float range's ends and NaN
REALS = ["nan", "inf", "-inf", "0", "-0", "-1", "1", "0.5", "2", "1e300", "-1e300", "1e-300", "-1e-300"]
FRACTIONS = ["0", "-1", "1", "1/3", "3/2", "5", "nan", "1e300", "1e-300"]
# a text flag names a catalog phase, an unknown phase or a missing file, or
# a file that exists but is empty
TEXTS = sorted(phase_catalog()) + ["missing", "empty.txt"]


def _subparsers():
    parser = cli.build_parser()
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


SUBPARSERS = _subparsers()


def _base_value(name, action):
    """The flag's value in the subcommand's base, else its default."""
    base = BASES[name]
    for flag in action.option_strings:
        if flag in base:
            return base[base.index(flag) + 1]
    return action.default


def _values(name, action):
    """A strategy for the text of one flag value, from the action's type."""
    if action.choices:
        return st.sampled_from(sorted(action.choices))
    kind = action.type
    if kind is None:
        return st.sampled_from(TEXTS)
    if kind is Fraction:
        return st.sampled_from(FRACTIONS)
    if kind is float or kind is cli._threshold:
        return st.sampled_from(REALS)
    if kind is cli._floats:
        return st.lists(st.sampled_from(REALS), max_size=4).map(",".join)
    base = _base_value(name, action)
    if kind is cli._ints:
        entries = base.split(",") if isinstance(base, str) else base or [7]
        return st.lists(_integers(max(int(v) for v in entries)), max_size=4).map(",".join)
    # an integer flag: int or an _at_least floor
    return _integers(7 if base is None else min(7, int(base)))


def _integers(cap):
    # -1 up to cap, and one value that is no integer
    return st.sampled_from([str(v) for v in range(-1, cap + 1)] + ["x"])


@st.composite
def argvs(draw):
    name = draw(st.sampled_from(sorted(BASES)))
    actions = [a for a in SUBPARSERS[name]._actions if a.option_strings and a.dest not in ("help", "out")]
    chosen = draw(st.lists(st.sampled_from(actions), min_size=1, max_size=2, unique_by=lambda a: a.dest))
    flags = ["%s=%s" % (a.option_strings[0], draw(_values(name, a))) for a in chosen]
    return [name] + BASES[name] + flags


def test_every_base_passes(tmp_path):
    for name, base in BASES.items():
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main([name] + base + ["--out", str(tmp_path / name)]) == 0, name


@settings(derandomize=True, deadline=None, max_examples=250, database=None)
@given(argv=argvs())
def test_any_flag_values_exit_0_1_or_2(argv):
    with tempfile.TemporaryDirectory() as work:
        open(os.path.join(work, "empty.txt"), "w").close()
        out = os.path.join(work, "out")
        err = io.StringIO()
        cwd = os.getcwd()
        os.chdir(work)  # a relative path a run writes lands here
        try:
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv + ["--out", out])
        finally:
            os.chdir(cwd)
        assert sorted(os.listdir(work)) in (["empty.txt"], ["empty.txt", "out"]), argv
    text = err.getvalue()
    assert code in (0, 1, 2), argv
    if code == 2:
        argparse_error = re.search(r"^restrictionlab %s: error: " % argv[0], text, re.M)
        one_line = text.startswith("invalid configuration: ") and text.count("\n") == 1
        assert argparse_error or one_line, (argv, text)
    else:
        assert text == "", (argv, text)
