"""Derandomized fuzz over every parser entry of the CLI at tiny bounds:
polynomials, operators, b-functions, exponents, weights, alpha and `.ann`
files.  Whatever the input, hwkit exits 0, 2 or 3 with at most one stderr
line and no traceback, and a drawn share of the options runs with --json,
whose envelope must be the text json.dumps writes for it."""

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


def entry(*samples):
    """A well-formed or nearly well-formed value, or noise."""
    return st.one_of(st.sampled_from(samples), NOISE)


def listed(*parts):
    """Comma-separated lists of fragments, some of them malformed, or
    noise."""
    return st.one_of(
        st.lists(st.sampled_from(parts), min_size=1, max_size=3)
        .map(",".join), NOISE)


POLY = entry("x1^2+x2^3", "x1^2+x2^2", "x1^3+x2^4", "x1^2*x2+x2^4", "x1*x2",
             "x1", "x1^2", "1", "0", "x1 +")
B = entry("(s+1)", "(s+1)(s+1/2)", "(s+1)^2", "s", "(s-1)", "(s+1/0)",
          "(s+1)^0")
EXPONENTS = listed("1", "0", "2", "3", "-1", "1.5", "x", "")
WEIGHTS = listed("1/2", "0", "1/3", "-1/2", "1", "1/0", "x", "")
ALPHA = entry("1", "5/6", "0", "-1/2", "1/0", "2", "1/3")
OPERATOR = entry("x1*d1 - x2*d2", "1/2*x1*d1 + 1/2*x2*d2", "d1", "x1*d1",
                 "3*x2^2*d1 - 2*x1*d2", "d3", "s*d1")
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
    st.builds(lambda v, p, w: [v, "--poly=" + p, "--weights=" + w,
                               "--alpha", "1"],
              st.sampled_from(["bounds", "classify"]), POLY, WEIGHTS),
    st.builds(lambda p, w: ["bfun", "--poly=" + p, "--weights=" + w],
              POLY, WEIGHTS),
    st.builds(lambda p, w, a: ["whom", "--poly=" + p, "--weights=" + w,
                               "--alpha=" + a, "--k", "0", "--l", "0"],
              POLY, WEIGHTS, ALPHA),
    st.builds(lambda p, w, a: ["crosscheck", "--source", "whom",
                               "--poly=" + p, "--weights=" + w,
                               "--alpha=" + a, "--k", "0", "--l", "0",
                               *TINY],
              POLY, WEIGHTS, ALPHA),
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


@settings(derandomize=True, max_examples=120, deadline=None)
@given(ARGVS, st.booleans())
def test_fuzzed_options_exit_cleanly(argv, as_json):
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
