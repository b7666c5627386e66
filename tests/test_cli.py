import argparse
import hashlib
import json
import os
import pathlib

import pytest

from hwkit import cli, vforacle
from hwkit.cli import _cache_key, build_parser, main
from hwkit.ppd import parse_annihilator_file
from hwkit.weyl import TwistedSection

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
]


@pytest.mark.parametrize("argv", MALFORMED, ids=" ".join)
def test_malformed_input_exits_2(capsys, tmp_path, argv):
    (tmp_path / "latin1.ann").write_bytes("f: x1*x2 # caf\xe9\n".encode(
        "latin-1"))
    (tmp_path / "node.ann").write_text(NODE_ANN)
    (tmp_path / "zero.ann").write_text(NODE_ANN.replace("f: x1*x2", "f: 0"))
    (tmp_path / "root0.ann").write_text(NODE_ANN.replace("b: ", "b: s*"))
    argv = [a.replace("{}", str(tmp_path)) for a in argv]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects the option
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.strip().splitlines()) == 1, err
    assert "Traceback" not in err


def test_internal_check_failure_exits_4(capsys, monkeypatch):
    monkeypatch.setattr(TwistedSection, "same_element",
                        lambda self, other, f: False)
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


def test_envelope_roundtrip_and_determinism(capsys):
    _, out1 = run(capsys, "bounds", "--exponents", "2,3", "--alpha", "1/2",
                  "--json")
    _, out2 = run(capsys, "bounds", "--exponents", "2,3", "--alpha", "1/2",
                  "--json")
    assert out1 == out2
    env = json.loads(out1)
    assert json.dumps(env, indent=2, sort_keys=True) + "\n" == out1


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
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    payload = {"input_sha": "0" * 64}
    for verb, parser in sub.choices.items():
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
            return _cache_key(build_parser().parse_args(argv), payload)

        ref = key()
        assert key(extra=["--json"]) == ref, verb
        for a in options:
            if a.dest != "input":
                assert key(changed=a) != ref, (verb, a.dest)
    # an input file is keyed by its content, not its path
    args = build_parser().parse_args(["ppd", "--input", "a.ann"])
    moved = build_parser().parse_args(["ppd", "--input", "b.ann"])
    assert _cache_key(args, payload) == _cache_key(moved, payload)
    assert _cache_key(args, payload) != _cache_key(args, {"input_sha": "1" * 64})


def test_corrupt_cache_entry_is_a_miss(capsys, tmp_path, monkeypatch):
    argv = ("classify", "--exponents", "1,1", "--alpha", "1", "--json")
    monkeypatch.delenv("HWKIT_CACHE", raising=False)
    _, cold = run(capsys, *argv)
    monkeypatch.setenv("HWKIT_CACHE", str(tmp_path))
    run(capsys, *argv)
    (entry,) = tmp_path.iterdir()
    for garbage in (b"", cold[:len(cold) // 2].encode(), cold[:-1].encode(),
                    b"[]\n", b"\xff\xfe garbage"):
        entry.write_bytes(garbage)
        code, out = run(capsys, *argv)
        assert code == 0 and out == cold
        assert entry.read_text(encoding="utf-8") == cold
    assert [p.name for p in tmp_path.iterdir()] == [entry.name]
