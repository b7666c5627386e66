import argparse
import contextlib
import hashlib
import io
import json
import os
import pathlib
import shutil
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from hwkit import cli, vforacle, weyl
from hwkit.cli import _cache_key, build_parser, main, parse_argv
from hwkit.ppd import parse_annihilator_file

NODE_ANN = """# ordinary double point, untwisted
f: x1*x2
E: 1/2*x1*d1 + 1/2*x2*d2
alpha: 0
b: (s+1)^2
pp: true
x1*d1 - x2*d2
"""

# the ordinary triple point of the benchmark's ppd-syzygy pool, byte for byte
TRIPLE_ANN = (
    "# ordinary triple point x1*x2*(x1+x2), untwisted\n"
    "f: x1^2*x2 + x1*x2^2\n"
    "E: 1/3*x1*d1 + 1/3*x2*d2\n"
    "alpha: 0\n"
    "b: (s+1)^2(s+2/3)(s+4/3)\n"
    "pp: true\n"
    "1/3*x1^2*d1 + 2/3*x1*x2*d1 - 2/3*x1*x2*d2 - 1/3*x2^2*d2\n")

# tests/data/cusp.ann twisted by alpha = 1/6: the roots of b lie in
# (-13/6, -1/6), and -7/6 is one, so l = 0 is valid
CUSP_TWISTED_ANN = (
    "# cuspidal cubic, twisted by alpha = 1/6\n"
    "f: x1^2 + x2^3\n"
    "E: 1/2*x1*d1 + 1/3*x2*d2\n"
    "alpha: 1/6\n"
    "b: (s+1)(s+5/6)(s+7/6)\n"
    "pp: true\n"
    "3*x2^2*d1 - 2*x1*d2\n")

# the cusp with rational coefficients in f and in the generator
CUSP_RATIONAL_ANN = (
    "# cuspidal cubic with rational coefficients, twisted by alpha = 1/6\n"
    "f: 1/3*x1^2 - 2/5*x2^3\n"
    "E: 1/2*x1*d1 + 1/3*x2*d2\n"
    "alpha: 1/6\n"
    "b: (s+1)(s+5/6)(s+7/6)\n"
    "pp: true\n"
    "-6/5*x2^2*d1 - 2/3*x1*d2\n")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--json")
    return code, json.loads(out)


def test_snc_table(capsys):
    code, env = run_json(capsys, "snc", "--exponents", "1,1", "--alpha", "1",
                         "--kmax", "1")
    assert code == 0
    rows = env["outputs"]["rows"]
    by_l = {}
    for r in rows:
        by_l.setdefault(r["l"], r["generators"])
    assert by_l[0] == ["x1*x2"]
    assert sorted(by_l[1]) == ["x1", "x2"]
    assert by_l[2] == ["1"]


def test_snc_stratum_and_lmax(capsys):
    # coordinates are numbered from 1; --lmax is capped by the top offset
    code, env = run_json(capsys, "snc", "--exponents", "1,1", "--alpha", "1",
                         "--kmax", "0", "--stratum", "1", "--lmax", "5")
    assert code == 0
    assert env["outputs"]["weight_top_offset"] == 1
    assert [r["generators"] for r in env["outputs"]["rows"]] == [["x1"], ["1"]]
    assert env["inputs"]["lmax"] == "5" and env["inputs"]["stratum"] == "1"


def test_snc_alpha_normalization(capsys):
    code, env = run_json(capsys, "snc", "--exponents", "1,1", "--alpha", "0")
    assert code == 0
    assert env["outputs"]["alpha_normalized"] == "1"
    assert env["outputs"]["alpha_integer_shift"] == -1


@pytest.mark.parametrize("alpha, normalized, shift", [
    ("-1/2", "1/2", -1), ("0", "1", -1), ("1/2", "1/2", 0), ("1", "1", 0),
    ("5/2", "1/2", 2), ("3", "1", 2)])
def test_snc_alpha_normalization_values(capsys, alpha, normalized, shift):
    # alpha is shifted by ceil(alpha) - 1 into (0, 1]
    code, env = run_json(capsys, "snc", "--exponents", "1,1",
                         f"--alpha={alpha}")
    assert code == 0
    assert env["outputs"]["alpha_normalized"] == normalized
    assert env["outputs"]["alpha_integer_shift"] == shift


def test_whom(capsys):
    code, env = run_json(capsys, "whom", "--poly", "x1^2+x2^3", "--weights",
                         "1/2,1/3", "--alpha", "5/6", "--k", "1", "--l", "0")
    assert code == 0
    assert env["outputs"]["milnor_basis"] == ["1", "x2"]
    assert env["outputs"]["weight_top_offset"] == 1


def test_classify(capsys):
    code, env = run_json(capsys, "classify", "--poly", "x1^2+x2^3",
                         "--weights", "1/2,1/3", "--alpha", "5/6")
    assert code == 0
    assert env["outputs"]["classification"] == {
        "klt": False, "plt": True, "lc": True}


def test_bounds(capsys):
    code, env = run_json(capsys, "bounds", "--poly", "x1*x2", "--alpha", "1")
    assert code == 0
    assert env["outputs"]["weight_bounds"] == [4, 4]
    assert env["outputs"]["genlevel_bound"] == 0


def test_verify_member_and_refute(capsys):
    code, env = run_json(capsys, "verify", "bfun", "--poly", "x1^2+x2^3",
                         "--b", "(s+1)(s+5/6)(s+7/6)", "--order", "3",
                         "--xdeg", "6")
    assert code == 0
    cert = env["outputs"]["certificate"]
    assert cert["verdict"] == "member"
    assert cert["witness"]["minimal_at_bound"] is True
    # wrong b-function: inconclusive exit
    code2, env2 = run_json(capsys, "verify", "bfun", "--poly", "x1^2",
                           "--b", "(s+1)", "--order", "2", "--xdeg", "2")
    assert code2 == 3


def test_crosscheck(capsys):
    code, env = run_json(capsys, "crosscheck", "--source", "snc",
                         "--exponents", "1,1", "--alpha", "1", "--k", "0",
                         "--l", "1")
    assert code == 0
    assert env["outputs"]["certificate"]["verdict"] == "member"


def test_ppd(capsys, tmp_path):
    path = tmp_path / "node.ann"
    path.write_text(NODE_ANN)
    code, env = run_json(capsys, "ppd", "--input", str(path), "--l", "1",
                         "--k", "0")
    assert code == 0
    hp = env["outputs"]["hodge_presentation"]
    gens = sorted(s["generator"] for s in hp["summands"])
    assert gens == ["1", "x1", "x2"]
    assert env["provenance"] == ["conditional: primality asserted, not verified"]


def test_ppd_dimension_ignores_comments(capsys, tmp_path):
    # a variable named only in a comment is not a variable of the input
    plain = tmp_path / "node.ann"
    plain.write_text(NODE_ANN)
    commented = tmp_path / "commented.ann"
    commented.write_text(
        NODE_ANN.replace("untwisted", "untwisted; compare with the x3 "
                         "direction").replace("x2*d2\n", "x2*d2  # not d4\n"))
    assert [parse_annihilator_file(p.read_text(), None).dim
            for p in (plain, commented)] == [2, 2]
    outputs = []
    for path in (plain, commented):
        code, env = run_json(capsys, "ppd", "--input", str(path), "--l", "0",
                             "--k", "0", "--xdeg", "6")
        assert code == 0
        outputs.append(env["outputs"])
    assert outputs[0] == outputs[1]
    assert outputs[0]["meta"]["tuples"] == 75


def test_ppd_refuses_higher_k_without_flag_before_the_w0_span(
        capsys, monkeypatch, tmp_path):
    # k >= 1 without pp: true exits 2 before any w0 span is built
    def unexpected(*args):
        raise AssertionError("w0_span called")

    monkeypatch.setattr(cli, "w0_span", unexpected)
    path = tmp_path / "node.ann"
    path.write_text(NODE_ANN.replace("pp: true", "pp: false"))
    code = main(["ppd", "--input", str(path), "--l", "1", "--k", "1",
                 "--xdeg", "10"])
    assert code == 2
    assert capsys.readouterr().err == (
        "hypothesis violated: symbol ideal of the annihilator is prime "
        "(asserted)\n")


def test_ppd_refuses_a_field_that_does_not_fix_f(capsys, tmp_path):
    # x1*d1 + x2*d2 sends x1*x2 to 2*x1*x2: one stderr line, exit 2
    path = tmp_path / "node.ann"
    path.write_text(NODE_ANN.replace("E: 1/2*x1*d1 + 1/2*x2*d2",
                                     "E: x1*d1 + x2*d2"))
    assert main(["ppd", "--input", str(path), "--weight-only"]) == 2
    assert capsys.readouterr() == (
        "", "hypothesis violated: f is Euler homogeneous\n")


def test_ppd_weight_only_refuses_hodge_options_before_the_cache(
        capsys, monkeypatch, tmp_path):
    # --weight-only computes no Hodge step, so a --k above 0 or
    # --interval21 beside it changed only the payload and the cache key;
    # such a call exits 2 before any cached envelope is looked up
    def unexpected(*args):
        raise AssertionError("cached_run called")

    monkeypatch.setattr(cli, "cached_run", unexpected)
    path = tmp_path / "node.ann"
    path.write_text(NODE_ANN)
    for options in (["--k", "2", "--interval21"], ["--k", "1"],
                    ["--interval21"]):
        assert main(["ppd", "--input", str(path), "--l", "0",
                     "--weight-only", *options]) == 2
        assert capsys.readouterr() == (
            "", "hypothesis violated: --weight-only computes no Hodge step: "
            "it takes no --k or --interval21\n")


def test_ppd_header_contract_exits_2_before_any_work(capsys, monkeypatch,
                                                    tmp_path):
    # pp: ture was read as false, so --weight-only exited 0 without the
    # conditional provenance and --k 1 exited 2 naming the primality
    # hypothesis; a repeated header kept its last line.  Each is now a
    # parse error, one stderr line, before any w0 span is built, at the
    # offset of its line: pp: is at 89, the line after it at 98
    def unexpected(*args):
        raise AssertionError("w0_span called")

    monkeypatch.setattr(cli, "w0_span", unexpected)
    cases = [("pp: ture", "--weight-only",
              "parse error: pp: takes true/false, 1/0 or yes/no, not 'ture' "
              "(at position 89)\n"),
             ("pp: ture", "--k=1",
              "parse error: pp: takes true/false, 1/0 or yes/no, not 'ture' "
              "(at position 89)\n"),
             ("pp: true\nPP: true", "--weight-only",
              "parse error: repeated header PP: (at position 98)\n"),
             ("pp: true\nf: x1^2*x2", "--weight-only",
              "parse error: repeated header f: (at position 98)\n")]
    for i, (pp, option, err) in enumerate(cases):
        path = tmp_path / f"case{i}.ann"
        path.write_text(NODE_ANN.replace("pp: true", pp))
        assert main(["ppd", "--input", str(path), "--l", "1", option,
                     "--json"]) == 2
        assert capsys.readouterr() == ("", err)


def test_ppd_inconclusive_exits_3_and_caches_nothing(capsys, tmp_path,
                                                     monkeypatch):
    # the order-0 basis of the w0 span holds no s, so (s+alpha)*f leaves
    # the span and hodge_on_weight finds no element
    path = tmp_path / "node.ann"
    path.write_text(NODE_ANN)
    cache = tmp_path / "cache"
    monkeypatch.setenv("HWKIT_CACHE", str(cache))
    code = main(["ppd", "--input", str(path), "--l", "1", "--k", "0",
                 "--order", "0", "--xdeg", "0", "--json"])
    out, err = capsys.readouterr()
    assert code == 3
    assert out == ""
    assert err == ("inconclusive at bounds {'order': 0, 'xdeg': 0}: "
                   "no elements found at these bounds\n")
    assert "Traceback" not in err
    assert list(cache.glob("*")) == []


def test_precondition_exit_code(capsys):
    code = main(["classify", "--poly", "x1^2+x2^3", "--alpha", "1/2"])
    assert code == 2
    code = main(["whom", "--poly", "x1^2+x2^3", "--weights", "1/2,1/3",
                 "--alpha", "1", "--k", "0", "--l", "0"])
    assert code == 2


def test_parse_error_exit_code(capsys):
    assert main(["classify", "--poly", "x1 +", "--alpha", "1"]) == 2


SNC = ("snc", "--exponents", "1,1", "--alpha", "1")
CROSS = ("crosscheck", "--alpha", "1", "--k", "0", "--l", "0")
VERIFY = ("verify", "bfun", "--poly", "x1^2", "--b", "(s+1)(s+1/2)")
MALFORMED = [
    # --exponents that do not parse
    ("classify", "--exponents", "2,x", "--alpha", "1"),
    ("bounds", "--exponents", "2,,3", "--alpha", "1"),
    ("bfun", "--exponents", "-1"),
    ("snc", "--exponents", "1,1.5", "--alpha", "1"),
    CROSS + ("--source", "snc", "--exponents", "1,y"),
    # a crosscheck source without its input
    CROSS + ("--source", "snc"),
    CROSS + ("--source", "whom"),
    CROSS + ("--source", "whom", "--poly", "x1^2+x2^3"),
    # unreadable --input files ({} is the test's temporary directory)
    ("ppd", "--input", "{}/missing.ann"),
    ("ppd", "--input", "{}"),
    ("ppd", "--input", "{}/latin1.ann"),
    # negative bounds
    VERIFY + ("--order", "-1"),
    VERIFY + ("--escalate", "-1"),
    CROSS + ("--source", "snc", "--exponents", "1,1", "--escalate", "-1"),
    CROSS + ("--source", "snc", "--exponents", "1,1", "--xdeg", "-1"),
    CROSS + ("--source", "snc", "--exponents", "1,1", "--dtord", "-1"),
    ("bfun", "--exponents", "2,3", "--verify", "--order", "-2"),
    ("ppd", "--input", "{}/node.ann", "--xdeg", "-1"),
    # negative indices, and snc strata and weight ranges that do not parse
    SNC + ("--kmax", "-1"),
    SNC + ("--lmax", "x"),
    SNC + ("--lmax", "-1"),
    SNC + ("--stratum", "a"),
    SNC + ("--stratum", "0"),
    SNC + ("--stratum", "3"),
    SNC + ("--stratum", "1,1"),
    SNC + ("--stratum", ""),
    ("whom", "--poly", "x1^2+x2^3", "--weights", "1/2,1/3", "--alpha", "5/6",
     "--k", "0", "--l", "-1"),
    ("bounds", "--exponents", "2,3", "--alpha", "1/2", "--l", "-1"),
    ("crosscheck", "--source", "snc", "--exponents", "1,1", "--alpha", "1",
     "--k", "-1", "--l", "0"),
    ("ppd", "--input", "{}/node.ann", "--k", "-1"),
    # b-functions with a root >= 0, as an option and in a .ann file
    ("verify", "bfun", "--poly", "x1^2+x2^3", "--b", "s", "--order", "1",
     "--xdeg", "1"),
    ("verify", "bfun", "--poly", "x1^2", "--b", "(s-1)"),
    # a b-function constant with a zero denominator
    ("verify", "bfun", "--poly", "x1^2", "--b", "(s+1)(s+1/0)"),
    ("ppd", "--input", "{}/root0.ann"),
    # dimensions below 1
    ("bounds", "--exponents", "1,1", "--alpha", "1", "--dim", "-3"),
    ("verify", "bfun", "--poly", "x1^2", "--b", "(s+1)", "--dim", "0"),
    ("ppd", "--input", "{}/node.ann", "--dim", "0"),
    # dimensions below the number of --exponents
    ("bounds", "--exponents", "1,1", "--alpha", "1", "--dim", "1"),
    ("classify", "--exponents", "1,1", "--alpha", "1", "--dim", "1"),
    ("bfun", "--exponents", "2,3", "--dim", "1"),
    # --dim on the verbs that take no dimension
    ("snc", "--exponents", "2,3", "--alpha", "1", "--dim", "1"),
    ("suite", "--dim", "1"),
    # a constant f
    ("verify", "bfun", "--poly", "1", "--b", "(s+1)"),
    ("verify", "bfun", "--poly", "2", "--b", "(s+1)", "--order", "0",
     "--xdeg", "0"),
    ("verify", "bfun", "--poly", "0", "--b", "(s+1)"),
    ("ppd", "--input", "{}/zero.ann", "--weight-only"),
    # --weights with a zero or negative entry
    ("whom", "--poly", "x1^2+x2^3", "--weights", "0,1", "--alpha", "1",
     "--k", "0", "--l", "0"),
    ("bfun", "--poly", "x1^2+x2^3", "--weights", "1/2,0"),
    ("bounds", "--poly", "x1^2+x2^3", "--weights", "0,1/3", "--alpha", "1"),
    CROSS + ("--source", "whom", "--poly", "x1^2+x2^3", "--weights=-1/2,1/3"),
    # both b-function sources
    ("bfun", "--exponents", "2", "--poly", "x1^3", "--weights", "1/3"),
    ("classify", "--exponents", "2", "--poly", "x1^3", "--alpha", "1"),
    ("bounds", "--exponents", "2,3", "--poly", "x1*x2", "--alpha", "1"),
    # --weights beside --exponents, which the monomial route does not read
    ("bfun", "--exponents", "2", "--weights", "1/2"),
    ("classify", "--exponents", "2", "--weights", "1/2", "--alpha", "1/2"),
    ("bounds", "--exponents", "2", "--weights", "1/3", "--alpha", "1/2"),
    # a crosscheck option of the other source, and a --dim other than the
    # number of --exponents
    ("crosscheck", "--source", "snc", "--exponents", "1,1", "--poly",
     "x1^2+x2^3", "--weights", "1/2,1/3", "--alpha", "1", "--k", "0",
     "--l", "1"),
    ("crosscheck", "--source", "snc", "--exponents", "1,1", "--weights",
     "1/2,1/3", "--alpha", "1", "--k", "0", "--l", "1"),
    CROSS + ("--source", "whom", "--poly", "x1^2+x2^3", "--weights",
             "1/2,1/3", "--exponents", "1,1"),
    CROSS + ("--source", "snc", "--exponents", "1,1", "--dim", "1"),
    CROSS + ("--source", "snc", "--exponents", "1,1", "--dim", "3"),
    # an option of another verb
    ("ppd", "--input", "{}/node.ann", "--dtord", "6"),
    # a Hodge step option beside --weight-only, which computes none
    ("ppd", "--input", "{}/node.ann", "--l", "0", "--k", "2",
     "--weight-only", "--interval21"),
    # a pp: value that is not true/false, 1/0 or yes/no, and a repeated
    # header
    ("ppd", "--input", "{}/ture.ann", "--weight-only"),
    ("ppd", "--input", "{}/ture.ann", "--l", "1", "--k", "1"),
    ("ppd", "--input", "{}/twice.ann", "--weight-only"),
]


def _with_ann_files(tmp_path, argv) -> list:
    """argv with {} replaced by tmp_path, where the .ann files of MALFORMED,
    ONE_VERB and REFUSED are written."""
    (tmp_path / "latin1.ann").write_bytes("f: x1*x2 # caf\xe9\n".encode(
        "latin-1"))
    (tmp_path / "node.ann").write_text(NODE_ANN)
    (tmp_path / "zero.ann").write_text(NODE_ANN.replace("f: x1*x2", "f: 0"))
    (tmp_path / "root0.ann").write_text(NODE_ANN.replace("b: ", "b: s*"))
    (tmp_path / "ture.ann").write_text(NODE_ANN.replace("pp: true",
                                                        "pp: ture"))
    (tmp_path / "twice.ann").write_text(NODE_ANN + "f: x1*x2\n")
    (tmp_path / "negalpha.ann").write_text(NODE_ANN.replace("alpha: 0",
                                                            "alpha: -1/2"))
    (tmp_path / "order2e.ann").write_text(NODE_ANN.replace(
        "x2*d2\nalpha", "x2*d2 + d1^2\nalpha"))
    (tmp_path / "sgen.ann").write_text(NODE_ANN.replace(
        "x1*d1 - x2*d2", "x1*d1 - x2*d2 + s"))
    return [a.replace("{}", str(tmp_path)) for a in argv]


@pytest.mark.parametrize("argv", MALFORMED, ids=" ".join)
def test_malformed_input_exits_2(capsys, tmp_path, argv):
    argv = _with_ann_files(tmp_path, argv)
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects the option
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.strip().splitlines()) == 1, err
    assert "Traceback" not in err


# inputs refused with exit 2, each with its one stderr line
REFUSED = [
    (("ppd", "--input", "{}/negalpha.ann", "--weight-only"),
     "hypothesis violated: alpha >= 0"),
    (("ppd", "--input", "{}/order2e.ann", "--weight-only"),
     "hypothesis violated: E is an order-1 vector field"),
    # a generator that carries s is no annihilator of f^(s-1)
    (("ppd", "--input", "{}/sgen.ann", "--weight-only"),
     "hypothesis violated: zetas annihilate f^(s-1)"),
    (("verify", "bfun", "--poly", "1/0*x1", "--b", "(s+1)"),
     "parse error: zero denominator (at position 0)"),
    (("verify", "bfun", "--poly", "x1 x2", "--b", "(s+1)"),
     "parse error: unexpected token 'x2' (at position 3)"),
    (("whom", "--poly", "x1^2", "--weights", "1/2", "--alpha", "1/2", "--k",
      "0", "--l", "0"), "hypothesis violated: n >= 2"),
    (("bounds", "--exponents", "1", "--alpha", "1"),
     "hypothesis violated: f is singular at the point"),
]


@pytest.mark.parametrize("argv,line", REFUSED, ids=[" ".join(a)
                                                    for a, _ in REFUSED])
def test_refused_input_exits_2_with_its_line(capsys, tmp_path, argv, line):
    assert main(_with_ann_files(tmp_path, argv)) == 2
    assert capsys.readouterr().err == line + "\n"


def test_only_index_zero_names_dimension_one(capsys):
    # a polynomial that names only x0 has dimension 1, so the message gives
    # the range 1..1, not an empty one
    code = main(["verify", "bfun", "--poly", "x0", "--b", "(s+1)",
                 "--order", "1", "--xdeg", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.strip().splitlines() == [
        "parse error: variable x0 out of range 1..1 (at position 0)"]


def test_out_of_range_variable_is_at_its_position(capsys, tmp_path):
    # an index outside 1..dim is reported at the variable, in one wording
    # for polynomials and operators; in an .ann file, at its file offset
    code = main(["verify", "bfun", "--poly", "x1^2+x3", "--dim", "2",
                 "--b", "(s+1)"])
    assert code == 2
    assert capsys.readouterr().err.strip().splitlines() == [
        "parse error: variable x3 out of range 1..2 (at position 5)"]
    path = tmp_path / "node.ann"
    path.write_text(NODE_ANN.replace("x1*d1 - x2*d2", "x1*d1 - x2*d3"))
    code = main(["ppd", "--input", str(path), "--dim", "2", "--weight-only"])
    assert code == 2
    assert capsys.readouterr().err.strip().splitlines() == [
        "parse error: variable d3 out of range 1..2 (at position 109)"]


def test_malformed_bfunction_is_a_parse_error(capsys, tmp_path):
    # a b-function factor that does not parse, or whose constant has a zero
    # denominator, is a parse error at the factor's offset in the
    # b-function text, not a violated hypothesis; on the b: line of a .ann
    # file the offset is in the file
    code = main(["verify", "bfun", "--poly", "x1^2", "--b", "(s+x)"])
    assert code == 2
    assert capsys.readouterr().err.strip().splitlines() == [
        "parse error: cannot parse b-function factor at '(s+x)' "
        "(at position 0)"]
    code = main(["verify", "bfun", "--poly", "x1^2", "--b", "(s+1)(s+1/0)"])
    assert code == 2
    assert capsys.readouterr().err.strip().splitlines() == [
        "parse error: zero denominator (at position 5)"]
    path = tmp_path / "bad_b.ann"
    path.write_text(NODE_ANN.replace("b: (s+1)^2", "b: (s+1)^2(s+q)"))
    assert main(["ppd", "--input", str(path), "--weight-only"]) == 2
    assert capsys.readouterr().err.strip().splitlines() == [
        "parse error: cannot parse b-function factor at '(s+q)' "
        "(at position 88)"]


def test_ann_value_error_is_at_its_file_offset(capsys, tmp_path):
    # a sum that ends in an operator names the end of the text, at its
    # offset in the file, not in the f: value
    path = tmp_path / "open_sum.ann"
    path.write_text("f: x1*x2 +\n" + NODE_ANN.split("\n", 2)[2])
    assert main(["ppd", "--input", str(path), "--weight-only"]) == 2
    assert capsys.readouterr() == (
        "", "parse error: expected name, got end of input (at position 10)\n")


def test_internal_check_failure_exits_4(capsys, monkeypatch):
    # the witness evaluates to half its true value
    def halved(a, f, shift):
        h, den, top = weyl.apply_to_twisted(a, f, shift)
        return h, 2 * den, top

    monkeypatch.setattr(vforacle, "apply_to_twisted", halved)
    code = main(["verify", "bfun", "--poly", "x1^2", "--b", "(s+1)(s+1/2)",
                 "--order", "2", "--xdeg", "2"])
    err = capsys.readouterr().err
    assert code == 4
    assert err.strip().splitlines() == [
        "internal check failed: witness failed re-evaluation"]
    assert "Traceback" not in err


CUSP_ANN = str(pathlib.Path(__file__).parent / "data" / "cusp.ann")
# (exit code, SHA-256 of the --json envelope) of cheap jobs through the
# bounded-basis kernels; {} is the test's temporary directory
PINNED = [
    (("bfun", "--exponents", "2,3", "--verify", "--order", "2", "--xdeg", "2"),
     0, "2a42daf2934f264d7050f02e835b2f68d88daedadcd0a0b8ffbf2858cd334444"),
    (("verify", "bfun", "--poly", "x1*x2", "--b", "(s+1)", "--order", "3",
      "--xdeg", "4"),
     3, "8fc89ec74794ada13452cb5df1f203b20ec4a2b58ce2217f54cd9bf4c7ec7090"),
    (("verify", "bfun", "--poly", "x1^2+x2^3", "--b", "(s+1)(s+5/6)(s+7/6)",
      "--order", "1", "--xdeg", "2", "--escalate", "2"),
     0, "b29c438c71c17f06b6d364cf5621e3f3a463c037bd52b079f6ffd2491d7c0676"),
    # the cusp at (12, 24), where the Euler and Hamiltonian rules drop the
    # most keys: pinned before either rule, as the divisor (exit 3) and the
    # b-function itself
    (("verify", "bfun", "--poly", "x1^2+x2^3", "--b", "(s+1)(s+5/6)",
      "--order", "12", "--xdeg", "24"),
     3, "85034bb08963ff6991d4d3b3441e69039f35e73a419e32c19cc0543ea3848dee"),
    (("verify", "bfun", "--poly", "x1^2+x2^3", "--b", "(s+1)(s+5/6)(s+7/6)",
      "--order", "12", "--xdeg", "24"),
     0, "789cf772192ee3de92c1c7ce12418ee2097dd28d18557590cf2137f973e35615"),
    (("ppd", "--input", CUSP_ANN, "--weight-only"),
     0, "5bab4be062bf5a3a642552660eb3f3438e5f4606325ed7c7505e7a7d6364e364"),
    (("ppd", "--input", "{}/node.ann", "--l", "0", "--k", "0"),
     0, "691f94e37ad1ad8cfe57de1350e48264b47fdcaccfdec6e87760aaa5ab9066ef"),
    (("ppd", "--input", "{}/node.ann", "--l", "0", "--k", "0",
      "--interval21", "--xdeg", "4"),
     0, "1485a31bb682487a8e2ae251b75ccd3d459732f5134e6c4d1874fad405a67c0e"),
    (("crosscheck", "--source", "whom", "--poly", "x1^2+x2^3", "--weights",
      "1/2,1/3", "--alpha", "5/6", "--k", "1", "--l", "0"),
     0, "8eb9f7a2a7968873ba4e29e0014b0c9999db54bc01ee4da7e6e96437c8aa35b4"),
    (("crosscheck", "--source", "snc", "--exponents", "1,1,1", "--alpha", "1",
      "--k", "2", "--l", "1"),
     0, "71c99bbbd23dd78d24be90f7522789e02e4439d4ad1b50d0fd74e1a804df631d"),
    (("crosscheck", "--source", "snc", "--exponents", "2,3", "--alpha", "1",
      "--k", "2", "--l", "0", "--order", "1", "--xdeg", "1", "--dtord", "1",
      "--escalate", "3"),
     3, "67889faeac05ce69603a6f28733f58d2e7691836b87113c981a2b59f0238eff4"),
    (("ppd", "--input", "{}/node.ann", "--l", "1", "--k", "1", "--xdeg", "8"),
     0, "89c6fb4169cf82dcb229a40662837851296e46ffbc41beedd1b6dc0af1dab3ab"),
    (("ppd", "--input", "{}/triple.ann", "--l", "1", "--weight-only"),
     0, "eebae11bba4bf979264fae1e46179749358074e29fb40a4436490be8e881969f"),
    (("ppd", "--input", "{}/cusp_twisted.ann", "--l", "0", "--k", "0"),
     0, "8e158f1ba9f8628f92cf7de61b2e36d35c00214eeecfb9cc96102dd6865e0a44"),
    # the k = 1 Hodge elements have order 1, so this envelope sees the
    # (p + alpha) factor of the pole images; the k = 0 one does not
    (("ppd", "--input", "{}/cusp_twisted.ann", "--l", "0", "--k", "1"),
     0, "6c483ea49824b47be2a3e465df7f9027e17fbcb894887ad64d7b5bf0ac5914d7"),
    (("ppd", "--input", "{}/cusp_rational.ann", "--l", "0", "--weight-only"),
     0, "ad08c4f95abb8f496205ce3cc32293b1a42b09db91f73bf9cbfb5b03e76d4a31"),
    (("ppd", "--input", "{}/cusp_rational.ann", "--l", "0", "--k", "1"),
     0, "e9407d1ffa8916e013901629574b6fe5d962f3014132174a50b749201e44ecb5"),
    # d-part bounds above xdeg: for f = x1 an image d^gamma with
    # |gamma| > xdeg stays in the window, so a d-part set sliced from the
    # xdeg one changes both envelopes (the first to exit 3)
    (("crosscheck", "--source", "snc", "--exponents", "1", "--alpha", "1",
      "--k", "1", "--l", "1", "--order", "5", "--xdeg", "0", "--dtord", "5"),
     0, "dd535af698a48adb8a7e0658638cdfbc932238e57d6cee2cfabef381afb44741"),
    (("crosscheck", "--source", "snc", "--exponents", "1", "--alpha", "1",
      "--k", "2", "--l", "1", "--order", "3", "--xdeg", "1", "--dtord", "3"),
     0, "a39307948ee10573f45678e7883d8964198fdea41470f829bd934a82c58afc33"),
    # records that differ: the closed-form span holds a vector the oracle
    # span lacks, so its rows are reduced, and failed_at is the tag of the
    # first row outside, (0, (2, 0), (0, 0)), built as the echelon inserts it
    (("crosscheck", "--source", "snc", "--exponents", "1,1", "--alpha", "1",
      "--k", "2", "--l", "1", "--order", "1", "--xdeg", "3", "--dtord", "1"),
     3, "60b2f02ce02dec9cc1c7e93f04a43b98d7300b10454a946847c99f826f54f429"),
    # b-function columns of a rational or non-primitive f: normalization
    # halves the pole of x1^2's images, 2*x1*x2 has content 2, and the
    # rational cusp has df = 6
    (("bfun", "--exponents", "2", "--verify", "--order", "5", "--xdeg", "6"),
     0, "479015acbd78c039f5cda90392dd4d3313b646ca470c299e461ee60c7a177f42"),
    (("verify", "bfun", "--poly", "2*x1*x2", "--b", "(s+1)^2", "--order", "3",
      "--xdeg", "4"),
     0, "66f3f4ad293f8b190ad8bd2d9e07a0d56438d7063446af9ccf7ddb6b2e86a92b"),
    (("verify", "bfun", "--poly", "1/2*x1^2+1/3*x2^3", "--b",
      "(s+1)(s+5/6)(s+7/6)", "--order", "3", "--xdeg", "6"),
     0, "5b8917475776a4830209ec924444cc8d4a0bba3542a53272c112ecc28dcc81eb"),
    # a smooth point: lc, plt and klt, noted "smooth point", with reduced
    # b-function 1 and no minimal exponent
    (("classify", "--exponents", "1", "--alpha", "1/2"),
     0, "a26eb77aea8f88244791a30d4a43f8d90ad4e138344b0fc69cc2595375384f4b"),
]


@pytest.mark.parametrize("argv,code,sha", PINNED,
                         ids=[" ".join(p[0][:2]) + f" #{i}"
                              for i, p in enumerate(PINNED)])
def test_envelope_pinned(capsys, tmp_path, monkeypatch, argv, code, sha):
    monkeypatch.delenv("HWKIT_CACHE", raising=False)
    (tmp_path / "node.ann").write_text(NODE_ANN)
    (tmp_path / "triple.ann").write_text(TRIPLE_ANN)
    (tmp_path / "cusp_twisted.ann").write_text(CUSP_TWISTED_ANN)
    (tmp_path / "cusp_rational.ann").write_text(CUSP_RATIONAL_ANN)
    argv = [a.replace("{}", str(tmp_path)) for a in argv]
    got, out = run(capsys, *argv, "--json")
    assert got == code
    assert hashlib.sha256(out.encode()).hexdigest() == sha


# an annihilator line that parses to the zero operator, and no annihilator
# line at all: a zero generator has no leading term, so it takes part in no
# relation that prunes the ppd columns, and the envelopes stay those of the
# build that prunes nothing
ZERO_GENERATOR_ANN = (
    "# ordinary double point, zero annihilator line\n"
    "f: x1*x2\nE: 1/2*x1*d1 + 1/2*x2*d2\nalpha: 0\nb: (s+1)^2\npp: true\n"
    "x1*d1 - x1*d1\n")
NO_GENERATOR_ANN = (
    "# ordinary double point, no annihilator line\n"
    "f: x1*x2\nE: 1/2*x1*d1 + 1/2*x2*d2\nalpha: 0\nb: (s+1)^2\npp: true\n")
DEGENERATE_PINNED = [
    (ZERO_GENERATOR_ANN, ("--k", "0"),
     "da63fb9716053dd167fe6080c235246dec55078719579930ee99d184e3455115"),
    (ZERO_GENERATOR_ANN, ("--k", "1"),
     "63bcb894a8cc4e6989b194f407186d57a5e916a80f912a09268b8db6d948ba9e"),
    (ZERO_GENERATOR_ANN, ("--k", "0", "--interval21"),
     "a51302a1b2634c5be30c271eff82ec5082fc2e38d5f9796b7bc954aa813fb256"),
    (NO_GENERATOR_ANN, ("--k", "0"),
     "2b93f86b312b2f4a8abfaf59616d735753c264e5a69bd2c0d50d1638e78f929c"),
    (NO_GENERATOR_ANN, ("--k", "1"),
     "9a08fa2224f723046d7490e7e616e4896228df8a3abe986394b80dc9f9f930aa"),
    (NO_GENERATOR_ANN, ("--k", "0", "--interval21"),
     "5247eb53adc75328eb2f6cf30e2f546827a1ac3eefef9ca35e0ed42744fa3132"),
]


@pytest.mark.parametrize("text,args,sha", DEGENERATE_PINNED,
                         ids=[f"{'zero' if 'x1*d1 - x1*d1' in t else 'none'}"
                              f" {' '.join(a)}"
                              for t, a, _ in DEGENERATE_PINNED])
def test_ppd_zero_or_no_annihilator_envelope_pinned(capsys, tmp_path,
                                                     monkeypatch, text, args,
                                                     sha):
    monkeypatch.delenv("HWKIT_CACHE", raising=False)
    path = tmp_path / "input.ann"
    path.write_text(text)
    code, out = run(capsys, "ppd", "--input", str(path), "--l", "0", *args,
                    "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == sha

def test_envelope_roundtrip_and_determinism(capsys):
    _, out1 = run(capsys, "bounds", "--exponents", "2,3", "--alpha", "1/2",
                  "--json")
    _, out2 = run(capsys, "bounds", "--exponents", "2,3", "--alpha", "1/2",
                  "--json")
    assert out1 == out2
    env = json.loads(out1)
    assert json.dumps(env, indent=2, sort_keys=True) + "\n" == out1


# non-ASCII, control characters, quote, backslash and lone surrogates
JSON_TEXT = st.text(st.one_of(st.characters(exclude_categories=()),
                              st.sampled_from('"\\\x00\n\x1f\x7f\xe9\ud800'
                                              '\udfff\U0001f600')),
                    max_size=6)
JSON_LEAVES = st.one_of(JSON_TEXT, st.integers(), st.integers(-2**200, 2**200),
                        st.booleans(), st.none())


def json_trees(depth: int):
    """Trees of JSON_LEAVES in lists, tuples and str-keyed dicts, empty
    ones included, nested to at most depth levels."""
    if depth == 0:
        return JSON_LEAVES
    kids = json_trees(depth - 1)
    return st.one_of(JSON_LEAVES, st.sampled_from([[], (), {}]),
                     st.lists(kids, min_size=1, max_size=2),
                     st.lists(kids, min_size=1, max_size=2).map(tuple),
                     st.dictionaries(JSON_TEXT, kids, min_size=1, max_size=2))


# a drawn tree is seldom more than 5 deep; this one is 8
DEEP_TREE = -2**70
for level in range(8):
    DEEP_TREE = ({"\ud800\xe9": DEEP_TREE}, (DEEP_TREE,),
                 [DEEP_TREE, [], None])[level % 3]


@settings(derandomize=True, max_examples=150, deadline=None)
@given(json_trees(8))
@example(DEEP_TREE)
def test_canonical_json_is_indented_sorted_json_dumps(tree):
    assert cli._canonical_json(tree) \
        == json.dumps(tree, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("obj", [0.5, {"a": [1, float("nan")]}, {1: "a"},
                                 [{"a", "b"}]])
def test_canonical_json_rejects_what_it_cannot_write(obj):
    with pytest.raises(TypeError):
        cli._canonical_json(obj)


def test_cache_hit_identical(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("HWKIT_CACHE", str(tmp_path))
    _, cold = run(capsys, "classify", "--exponents", "1,1", "--alpha", "1",
                  "--json")
    assert len(os.listdir(tmp_path)) == 1
    _, warm = run(capsys, "classify", "--exponents", "1,1", "--alpha", "1",
                  "--json")
    assert cold == warm


CACHED_WORK = [
    (("bfun", "--exponents", "2,3", "--verify"), vforacle,
     "verify_bfunction"),
    (("snc", "--exponents", "2,3,1", "--alpha", "1/2"), cli, "snc_f0_ideal"),
    (("whom", "--poly", "x1^2+x2^3", "--weights", "1/2,1/3", "--alpha",
      "5/6", "--k", "1", "--l", "0"), cli, "QuasiHomogeneousGerm"),
    (("classify", "--exponents", "1,2", "--alpha", "1/2"), cli,
     "_reduced_bfunction"),
    (("bounds", "--exponents", "1,2", "--alpha", "1/2"), cli,
     "_reduced_bfunction"),
]


@pytest.mark.parametrize("argv, owner, name", CACHED_WORK,
                         ids=[argv[0] for argv, _, _ in CACHED_WORK])
def test_cache_hit_does_no_work(capsys, tmp_path, monkeypatch, argv, owner,
                                name):
    # a warm run prints the cold run's bytes without computing anything
    monkeypatch.setenv("HWKIT_CACHE", str(tmp_path))
    work, calls = getattr(owner, name), []

    def counted(*args, **kwargs):
        calls.append(args)
        return work(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    cold = run(capsys, *argv, "--json")
    assert cold[0] == 0 and calls
    calls.clear()
    assert run(capsys, *argv, "--json") == cold
    assert not calls


@pytest.mark.parametrize("argv, owner, name", CACHED_WORK,
                         ids=[argv[0] for argv, _, _ in CACHED_WORK])
def test_cache_warmed_by_other_source_recomputes(capsys, tmp_path,
                                                 monkeypatch, argv, owner,
                                                 name):
    # an entry stored by other package source is a miss: the run computes
    # again, prints the cold run's bytes and stores a second entry
    monkeypatch.setenv("HWKIT_CACHE", str(tmp_path))
    work, calls = getattr(owner, name), []

    def counted(*args, **kwargs):
        calls.append(args)
        return work(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    cold = run(capsys, *argv, "--json")
    assert cold[0] == 0 and calls
    calls.clear()
    monkeypatch.setattr(cli, "_source_digest", lambda: "0" * 64)
    assert run(capsys, *argv, "--json") == cold
    assert calls
    assert len(os.listdir(tmp_path)) == 2


def test_source_digest_is_read_only_with_caching_on(capsys, monkeypatch):
    def unread():
        raise AssertionError("source digest read with caching off")

    monkeypatch.delenv("HWKIT_CACHE", raising=False)
    monkeypatch.setattr(cli, "_source_digest", unread)
    assert run(capsys, "classify", "--exponents", "1,1", "--alpha", "1",
               "--json")[0] == 0


def test_unusable_cache_is_a_miss(capsys, tmp_path, monkeypatch):
    # a root that names a file, an entry that cannot be read and a root
    # that cannot be written all give the uncached envelope
    argv = ["classify", "--exponents", "1,1", "--alpha", "1", "--json"]
    monkeypatch.delenv("HWKIT_CACHE", raising=False)
    uncached = run(capsys, *argv)

    def served():
        code = main(argv)
        out, err = capsys.readouterr()
        assert (code, out, err) == (uncached[0], uncached[1], "")

    root = tmp_path / "file"
    root.write_text("not a directory")
    monkeypatch.setenv("HWKIT_CACHE", str(root))
    served()
    assert root.read_text() == "not a directory"
    root = tmp_path / "cache"
    monkeypatch.setenv("HWKIT_CACHE", str(root))
    served()
    (entry,) = root.iterdir()
    entry.unlink()
    entry.mkdir()
    served()
    assert list(root.iterdir()) == [entry] and entry.is_dir()
    entry.rmdir()

    def unwritable(*args, **kwargs):
        raise PermissionError("read-only cache")

    monkeypatch.setattr(cli.tempfile, "mkstemp", unwritable)
    served()
    assert not list(root.iterdir())


def test_stratum_order_gives_one_envelope(capsys, tmp_path, monkeypatch):
    # the coordinates are sorted in the payload and the key; sorted input
    # keeps the bytes it had
    monkeypatch.setenv("HWKIT_CACHE", str(tmp_path))
    outs = {run(capsys, "snc", "--exponents", "2,3,1", "--alpha", "1/2",
                "--stratum", stratum, "--json")[1]
            for stratum in ("1,2", "2,1", "2, 1")}
    (out,) = outs
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "f57d47302c667ef0a4935199e25a4b7f741cd53b7d5aefd54e549091f13a2f16")
    assert json.loads(out)["inputs"]["stratum"] == "1,2"
    assert len(os.listdir(tmp_path)) == 1


def test_suite_profiles(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("HWKIT_CACHE", str(tmp_path))
    code, env = run_json(capsys, "suite", "--profile", "corrupted")
    assert code == 0 and env["outputs"]["passed"]
    code2, env2 = run_json(capsys, "suite", "--profile", "starved")
    assert code2 == 3 and env2["outputs"]["passed"]


def test_bfun_closed_form_and_verify(capsys):
    code, env = run_json(capsys, "bfun", "--exponents", "2,3")
    assert code == 0
    assert env["outputs"]["bfunction"]["provenance"] == "closed-form-snc"
    assert env["outputs"]["bfunction"]["verified"] is False

    code2, env2 = run_json(capsys, "bfun", "--poly", "x1^2", "--verify",
                           "--order", "2", "--xdeg", "2")
    assert code2 == 0
    assert env2["outputs"]["bfunction"]["verified"] is True
    assert env2["certificates"][0]["verdict"] == "member"


def test_escalation_schedule(capsys):
    # starved bounds fail; one doubling certifies
    code, env = run_json(capsys, "verify", "bfun", "--poly", "x1^2",
                         "--b", "(s+1)(s+1/2)", "--order", "1", "--xdeg", "1",
                         "--escalate", "1")
    assert code == 0
    assert len(env["outputs"]["attempts"]) == 2
    assert env["outputs"]["attempts"][0]["verdict"] == "not-found-at-bound"
    assert env["outputs"]["certificate"]["verdict"] == "member"
    # without escalation the same call stays inconclusive
    code2, env2 = run_json(capsys, "verify", "bfun", "--poly", "x1^2",
                           "--b", "(s+1)(s+1/2)", "--order", "1", "--xdeg",
                           "1")
    assert code2 == 3


@pytest.mark.parametrize("argv,attempts", [
    (VERIFY + ("--order", "0", "--xdeg", "0", "--escalate", "3"), 1),
    (CROSS + ("--source", "snc", "--exponents", "1,1", "--order", "0",
              "--xdeg", "0", "--dtord", "0", "--escalate", "2"), 1),
    # one nonzero bound still moves when doubled
    (VERIFY + ("--order", "0", "--xdeg", "1", "--escalate", "2"), 3),
], ids=lambda v: " ".join(v) if isinstance(v, tuple) else str(v))
def test_escalation_stops_when_doubling_moves_no_bound(capsys, argv,
                                                       attempts):
    # doubling all-zero bounds gives the same bounds, so a further attempt
    # could only repeat the first
    code, env = run_json(capsys, *argv)
    assert code == 3
    got = env["outputs"]["attempts"]
    assert len(got) == attempts
    assert len({json.dumps(a["bounds"], sort_keys=True) for a in got}) \
        == attempts


def test_deep_d_chain_exits_2(capsys, tmp_path):
    # the annihilator check builds d1^150 f^(s-1) in a loop, so an
    # annihilator deeper than the recursion limit gets its exit code
    depth, frame = 0, sys._getframe()
    while frame:
        depth, frame = depth + 1, frame.f_back
    path = tmp_path / "deep.ann"
    path.write_text(NODE_ANN.replace("x1*d1 - x2*d2", "d1^150"))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 100)
    try:
        code = main(["ppd", "--input", str(path), "--l", "0", "--k", "0"])
    finally:
        sys.setrecursionlimit(limit)
    err = capsys.readouterr().err
    assert code == 2
    assert err.strip().splitlines() == [
        "hypothesis violated: zetas annihilate f^(s-1)"]
    assert "Traceback" not in err


def test_ppd_cusp_file(capsys):
    import pathlib
    path = pathlib.Path(__file__).parent / "data" / "cusp.ann"
    code, env = run_json(capsys, "ppd", "--input", str(path), "--l", "0",
                         "--k", "1", "--order", "4", "--xdeg", "10")
    assert code == 0
    assert env["outputs"]["gamma"]["generators"][1] == "s - 1/6"
    hp = env["outputs"]["hodge_presentation"]
    assert hp["summands"] == [
        {"budget": 0, "generator": "1", "pole_step": 0}]


def test_cache_key_covers_bfun_bounds(capsys, tmp_path, monkeypatch):
    # a starved window must not be served for a later, larger one
    monkeypatch.setenv("HWKIT_CACHE", str(tmp_path))
    argv = ("bfun", "--exponents", "2,3", "--verify")
    _, env1 = run_json(capsys, *argv, "--order", "1", "--xdeg", "1")
    assert env1["outputs"]["bfunction"]["verified"] is False
    code, env2 = run_json(capsys, *argv, "--order", "5", "--xdeg", "6")
    assert code == 0
    assert env2["outputs"]["bfunction"]["verified"] is True
    assert env2["certificates"][0]["verdict"] == "member"


def _spellings(action):
    """Two command-line spellings of an option that parse to different
    values."""
    opt = action.option_strings[0]
    if action.nargs == 0:
        return [], [opt]
    values = list(action.choices) if action.choices else ["1", "2"]
    return [opt, values[0]], [opt, values[1]]


def test_cache_key_changes_with_every_option():
    payload = {"input_sha": "0" * 64}
    for verb, parser in _subparsers(build_parser()).items():
        positional = [a.choices[0] for a in parser._actions
                      if not a.option_strings]
        options = [a for a in parser._actions
                   if a.option_strings and a.dest not in ("help", "json")]
        assert options, verb
        base = {a.dest: _spellings(a)[0] for a in options}

        def key(changed=None, extra=()):
            argv = [verb] + positional + list(extra)
            for a in options:
                argv += _spellings(a)[1] if a is changed else base[a.dest]
            return _cache_key(parse_argv(argv), payload)

        ref = key()
        assert key(extra=["--json"]) == ref, verb
        for a in options:
            if a.dest != "input":
                assert key(changed=a) != ref, (verb, a.dest)
    # an input file is keyed by its content, not its path
    args = parse_argv(["ppd", "--input", "a.ann"])
    moved = parse_argv(["ppd", "--input", "b.ann"])
    assert _cache_key(args, payload) == _cache_key(moved, payload)
    assert _cache_key(args, payload) != _cache_key(args, {"input_sha": "1" * 64})


VERB_NAMES = ["snc", "whom", "bfun", "verify", "classify", "bounds",
              "crosscheck", "ppd", "suite"]
# one valid argv per verb, in the order of VERB_NAMES
ONE_VERB = [
    SNC + ("--kmax", "1", "--stratum", "2"),
    ("whom", "--poly", "x1^2+x2^3", "--weights", "1/2,1/3", "--alpha", "5/6",
     "--k", "1", "--l", "0", "--dim", "3"),
    ("bfun", "--exponents", "2,3", "--verify", "--xdeg", "6"),
    VERIFY + ("--escalate", "1"),
    ("classify", "--poly", "x1^2+x2^3", "--weights", "1/2,1/3", "--alpha",
     "5/6"),
    ("bounds", "--poly", "x1*x2", "--alpha", "1", "--l", "1"),
    CROSS + ("--source", "snc", "--exponents", "1,1", "--dtord", "2"),
    ("ppd", "--input", "node.ann", "--l", "1", "--weight-only"),
    ("suite", "--profile", "starved"),
]


def _subparsers(parser) -> dict:
    return next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)).choices


@pytest.mark.parametrize("argv", ONE_VERB, ids=lambda argv: argv[0])
def test_one_verb_parser_matches_the_full_parser(argv):
    argv = list(argv) + ["--json"]
    full = build_parser()
    args = parse_argv(argv)
    assert vars(args) == vars(full.parse_args(argv))
    payload = {"input_sha": "0" * 64}
    assert _cache_key(args, payload) == _cache_key(full.parse_args(argv),
                                                   payload)
    # the option table serves every valid argv, so no new option type can
    # quietly send each call of its verb to argparse
    assert cli._table_parse(argv) is not None


def test_every_verb_is_built_without_a_named_verb(capsys, monkeypatch):
    assert [argv[0] for argv in ONE_VERB] == VERB_NAMES == list(cli.VERBS)
    built = []

    def recorded():
        built.append(build_parser())
        return built[-1]

    monkeypatch.setattr(cli, "build_parser", recorded)
    for argv in ([], ["nope"], ["--help"], ["--version"], ["--json", "snc"]):
        built.clear()
        with pytest.raises(SystemExit):
            main(argv)
        assert [list(_subparsers(p)) for p in built] == [VERB_NAMES], argv
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["nope"])
    assert exc.value.code == 2
    assert capsys.readouterr().err == (
        "hwkit: error: argument verb: invalid choice: 'nope' (choose from "
        "'snc', 'whom', 'bfun', 'verify', 'classify', 'bounds', "
        "'crosscheck', 'ppd', 'suite')\n")


def _outcome(capsys, argv) -> tuple:
    """(exit code, stdout, stderr) of main(argv)."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    return (code, *capsys.readouterr())


# argv naming a verb: valid, malformed, with an unknown option (after a
# valid argv and alone), and with a top-level option or -h after the verb
PARITY = ([argv + ("--json",) for argv in ONE_VERB] + MALFORMED
          + [argv + ("--json", "--bogus", "x") for argv in ONE_VERB]
          + [(verb,) + tail for verb in VERB_NAMES
             for tail in (("--bogus", "x"), ("--version",), ("-h",))])


@pytest.mark.parametrize("argv", PARITY, ids=" ".join)
def test_named_verb_parse_matches_the_all_verbs_parser(capsys, monkeypatch,
                                                       tmp_path, argv):
    # exit code, stdout and stderr of main are those of parsing argv with
    # build_parser, whether a handler runs or argparse ends the call
    monkeypatch.delenv("HWKIT_CACHE", raising=False)
    monkeypatch.chdir(tmp_path)  # ONE_VERB's ppd reads node.ann
    argv = _with_ann_files(tmp_path, argv)
    flat = _outcome(capsys, argv)
    monkeypatch.setattr(cli, "parse_argv",
                        lambda argv: build_parser().parse_args(argv))
    assert flat == _outcome(capsys, argv)


def test_named_verb_builds_one_parser(capsys, monkeypatch):
    # a well-formed call builds no ArgumentParser and probes no terminal
    # size, on each of two calls; -h, an abbreviation and an unknown option
    # each build the all-verbs parser once
    built, probes, all_verbs = [], [], []
    parser_init = argparse.ArgumentParser.__init__
    terminal_size = shutil.get_terminal_size

    def parser(self, *args, **kwargs):
        built.append(type(self))
        parser_init(self, *args, **kwargs)

    def probed(*args):
        probes.append(args)
        return terminal_size(*args)

    def recorded():
        all_verbs.append(build_parser())
        return all_verbs[-1]

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", parser)
    monkeypatch.setattr(shutil, "get_terminal_size", probed)
    monkeypatch.setattr(cli, "build_parser", recorded)
    monkeypatch.delenv("HWKIT_CACHE", raising=False)
    argv = ["classify", "--exponents", "1,1", "--alpha", "1", "--json"]
    for _ in range(2):
        assert main(argv) == 0
        assert built == probes == all_verbs == []
    assert capsys.readouterr().err == ""
    for tail, code in ((["-h"], 0), (["--alph", "1"], 0),
                       (["--bogus", "x"], 2)):
        all_verbs.clear()
        assert _outcome(capsys, argv + tail)[0] == code
        assert [list(_subparsers(p)) for p in all_verbs] == [VERB_NAMES]


# tokens of the table-parse property: option spellings and values
SPELLINGS = ["-h", "--", "--bogus", "bfun"]
VALUES = ["1", "0", "-1", "-1/2", "", "x", "auto", "bfun", "snc", "whom"]


@st.composite
def verb_tokens(draw):
    """A verb and a token list of exact names, abbreviations, = forms, -h,
    --, repeated options and the VALUES.  About half of the lists hold the
    verb's required options and positional, each with one of its choices or
    a valid index about half of the time, so that many lists parse."""
    verb = draw(st.sampled_from(VERB_NAMES))
    options = cli.VERBS[verb][1]
    names = [name for name in options if name.startswith("--")]
    abbreviations = [name[:n] for name in names for n in range(3, len(name))]
    name = st.one_of(st.sampled_from(names), st.sampled_from(abbreviations),
                     st.sampled_from(SPELLINGS))
    value = st.sampled_from(VALUES)
    pair = st.tuples(st.sampled_from(names), value).map(list)
    item = st.one_of(pair, pair, st.tuples(name, value).map(list),
                     st.tuples(name, value).map(lambda nv: ["=".join(nv)]),
                     name.map(lambda n: [n]), value.map(lambda v: [v]))
    items = []
    if draw(st.booleans()):
        for flag, spec in options.items():
            text = draw(st.one_of(
                st.sampled_from(spec.get("choices", ["1", "0"])), value))
            if not flag.startswith("-"):
                items.append([text])
            elif spec.get("required"):
                items.append([flag, text])
    items += draw(st.lists(item, max_size=3))
    if draw(st.booleans()):
        items = draw(st.permutations(items))
    return verb, [token for part in items for token in part]


@settings(derandomize=True, max_examples=400, deadline=None)
@given(verb_tokens())
def test_table_parse_is_the_all_verbs_parse_or_declines(drawn):
    verb, tokens = drawn
    argv = [verb, *tokens]
    plain = cli._table_parse(argv)
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            full = vars(build_parser().parse_args(argv))
        except SystemExit:
            full = None
    if full is None:
        assert plain is None, argv
    elif plain is not None:
        assert vars(plain) == full, argv


def test_console_script_reads_sys_argv(capsys, monkeypatch):
    argv = ["classify", "--exponents", "1,1", "--alpha", "1", "--json"]
    expected = run(capsys, *argv)
    monkeypatch.setattr(sys, "argv", ["hwkit"] + argv)
    assert (main(), capsys.readouterr().out) == expected


@pytest.mark.parametrize("argv, other, unread", [
    (("classify", "--exponents", "1,1", "--alpha", "1", "--json"),
     ("bounds", "--exponents", "1,1", "--alpha", "1", "--json"), ()),
    # these handlers read outputs of the envelope they are served, so
    # outputs that lack what they read are other outputs
    (("verify", "bfun", "--poly", "x1^2", "--b", "(s+1)(s+1/2)", "--order",
      "2", "--xdeg", "2", "--json"),
     ("classify", "--exponents", "1,1", "--alpha", "1", "--json"),
     ({}, {"certificate": {}}, {"certificate": []}, {"attempts": []})),
    (("suite", "--profile", "starved", "--json"),
     ("classify", "--exponents", "1,1", "--alpha", "1", "--json"),
     ({}, {"results": []}))])
def test_corrupt_cache_entry_is_a_miss(capsys, tmp_path, monkeypatch, argv,
                                       other, unread):
    monkeypatch.delenv("HWKIT_CACHE", raising=False)
    cold_code, cold = run(capsys, *argv)
    _, foreign = run(capsys, *other)
    env = json.loads(cold)
    floating = {**env, "outputs": {**env["outputs"], "x": 0.5}}
    monkeypatch.setenv("HWKIT_CACHE", str(tmp_path))
    run(capsys, *argv)
    (entry,) = tmp_path.iterdir()
    # this call's tool, version, command and inputs over outputs that are
    # not a dict, or that the handler cannot read
    others = [json.dumps({**env, "outputs": outputs}, indent=2,
                         sort_keys=True) + "\n"
              for outputs in ([], None, "outputs", *unread)]
    texts = ("", cold[:len(cold) // 2], cold[:-1], "[]\n", "{}\n",
             "[" * 100000 + "]" * 100000, '{"a": NaN}',
             json.dumps(floating, indent=2, sort_keys=True) + "\n",
             json.dumps(env, separators=(",", ":")),
             json.dumps(env, indent=4, sort_keys=True) + "\n",
             json.dumps(dict(reversed(env.items())), indent=2) + "\n",
             foreign, *others)
    for garbage in (b"\xff\xfe garbage", *(t.encode() for t in texts)):
        assert garbage != cold.encode()
        entry.write_bytes(garbage)
        assert run(capsys, *argv) == (cold_code, cold)
        assert entry.read_text(encoding="utf-8") == cold
    assert [p.name for p in tmp_path.iterdir()] == [entry.name]
