"""Derandomized fuzz over every parser entry of the CLI at tiny bounds:
polynomials, operators, b-functions, exponents, weights, alpha and `.ann`
files.  Values are well-formed three times in four, so most examples get
past the parsers.  Whatever the input, hwkit exits 0, 2 or 3 with at most
one stderr line and no traceback, and a drawn share of the options runs
with --json, whose envelope must be the text json.dumps writes for it; at
least ENVELOPE_FLOOR of them write one."""

import contextlib
import io
import json
import os
import pathlib
import tempfile
from unittest import mock

from hypothesis import given, settings, strategies as st

from hwkit.cli import main

NOISE = st.text(alphabet="x12^*+-/()sd ,:", max_size=6)


def mostly(good, bad):
    """A value of good three times in four, else one of bad: most examples
    get past the parsers, and each parser still sees malformed input."""
    return st.sampled_from((True, True, True, False)).flatmap(
        lambda ok: good if ok else bad)


def samples(*values):
    return st.sampled_from(values)


def malformed(*values):
    """One of the malformed values, or noise."""
    return st.one_of(st.sampled_from(values), NOISE)


def listed(*parts):
    """Comma-separated lists of one to three of the fragments."""
    return st.lists(st.sampled_from(parts), min_size=1, max_size=3).map(
        ",".join)


# quasi-homogeneous polynomials with their weights
QH = (("x1^2+x2^3", "1/2,1/3"), ("x1^2+x2^2", "1/2,1/2"),
      ("x1^3+x2^4", "1/3,1/4"), ("x1^2*x2+x2^4", "3/8,1/4"))
POLY = mostly(samples(*(p for p, _ in QH), "x1*x2", "x1", "x1^2"),
              malformed("1", "0", "x1 +"))
# a polynomial and weights that need not match, either of them malformed
SOURCE = mostly(samples(*QH), st.tuples(
    st.one_of(samples("x1^2+x2^3", "x1*x2", "x1"), malformed("1", "x1 +")),
    st.one_of(listed("1/2", "0", "1/3", "-1/2", "1", "1/0", "x", ""),
              NOISE)))
B = mostly(samples("(s+1)", "(s+1)(s+1/2)", "(s+1)^2",
                   "(s+1)(s+5/6)(s+7/6)"),
           malformed("s", "(s-1)", "(s+1/0)", "(s+1)^0"))
EXPONENTS = mostly(listed("1", "2", "3"),
                   st.one_of(listed("1", "0", "2", "-1", "1.5", "x", ""),
                             NOISE))
ALPHA = mostly(samples("1", "5/6", "1/3", "1/2"),
               malformed("0", "2", "-1/2", "1/0"))
OPERATOR = mostly(samples("x1*d1 - x2*d2", "1/2*x1*d1 + 1/2*x2*d2", "d1",
                          "x1*d1", "3*x2^2*d1 - 2*x1*d2"),
                  malformed("d3", "s*d1"))
TINY = ["--order", "1", "--xdeg", "1"]

ARGVS = st.one_of(
    st.builds(lambda p, b: ["verify", "bfun", "--poly=" + p, "--b=" + b,
                            *TINY], POLY, B),
    st.builds(lambda e, a: ["snc", "--exponents=" + e, "--alpha=" + a,
                            "--kmax", "0"], EXPONENTS, ALPHA),
    st.builds(lambda v, e, a: [v, "--exponents=" + e, "--alpha=" + a],
              st.sampled_from(["bounds", "classify"]), EXPONENTS, ALPHA),
    st.builds(lambda e: ["bfun", "--exponents=" + e, "--verify", *TINY],
              EXPONENTS),
    st.builds(lambda v, pw: [v, "--poly=" + pw[0], "--weights=" + pw[1],
                             "--alpha", "1"],
              st.sampled_from(["bounds", "classify"]), SOURCE),
    st.builds(lambda pw: ["bfun", "--poly=" + pw[0], "--weights=" + pw[1]],
              SOURCE),
    st.builds(lambda pw, a: ["whom", "--poly=" + pw[0], "--weights=" + pw[1],
                             "--alpha=" + a, "--k", "0", "--l", "0"],
              SOURCE, ALPHA),
    st.builds(lambda pw, a: ["crosscheck", "--source", "whom",
                             "--poly=" + pw[0], "--weights=" + pw[1],
                             "--alpha=" + a, "--k", "0", "--l", "0",
                             *TINY],
              SOURCE, ALPHA),
)

ANN = st.builds(
    lambda f, e, a, b, pp, ops: "\n".join(
        [f"f: {f}", f"E: {e}", f"alpha: {a}", f"b: {b}", f"pp: {pp}", *ops]),
    POLY, OPERATOR, ALPHA, B, st.sampled_from(["true", "false", "?"]),
    st.lists(OPERATOR, max_size=2))


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the option
            code = exc.code
    return code, out.getvalue(), err.getvalue()


# the derandomized options examples that write an envelope: 22 of 120
ENVELOPE_FLOOR = 18


def test_fuzzed_options_exit_cleanly():
    enveloped = []

    @settings(derandomize=True, max_examples=120, deadline=None)
    @given(ARGVS, st.booleans())
    def fuzz(argv, as_json):
        argv = argv + ["--json"] if as_json else argv
        with mock.patch.dict(os.environ):
            os.environ.pop("HWKIT_CACHE", None)
            code, out, err = run(argv)
        assert code in (0, 2, 3), (argv, code, err)
        assert len(err.strip().splitlines()) <= 1, (argv, err)
        assert "Traceback" not in err
        # an inconclusive bound exits 3 with no envelope
        if as_json and (code == 0 or code == 3 and out):
            assert out == json.dumps(json.loads(out), indent=2,
                                     sort_keys=True) + "\n", argv
            enveloped.append(argv)

    fuzz()
    # the fuzz reaches the envelope writer, not only the parsers
    assert len(enveloped) >= ENVELOPE_FLOOR, len(enveloped)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(ANN)
def test_fuzzed_ann_files_exit_cleanly(text):
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ):
        os.environ.pop("HWKIT_CACHE", None)
        path = pathlib.Path(tmp) / "fuzz.ann"
        path.write_text(text, encoding="utf-8")
        code, _, err = run(["ppd", "--input", str(path), "--weight-only",
                            *TINY])
    assert code in (0, 2, 3), (text, code, err)
    assert len(err.strip().splitlines()) <= 1, (text, err)
    assert "Traceback" not in err
