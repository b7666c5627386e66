import argparse
import hashlib
import json
import os
import pathlib

import pytest

from hwkit.cli import _cache_key, build_parser, main
from hwkit.weyl import TwistedSection

NODE_ANN = """# ordinary double point, untwisted
f: x1*x2
E: 1/2*x1*d1 + 1/2*x2*d2
alpha: 0
b: (s+1)^2
pp: true
x1*d1 - x2*d2
"""


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
    ("whom", "--poly", "x1^2+x2^3", "--weights", "1/2,1/3", "--alpha", "5/6",
     "--k", "0", "--l", "-1"),
    ("bounds", "--exponents", "2,3", "--alpha", "1/2", "--l", "-1"),
    ("crosscheck", "--source", "snc", "--exponents", "1,1", "--alpha", "1",
     "--k", "-1", "--l", "0"),
    ("ppd", "--input", "{}/node.ann", "--k", "-1"),
    # a constant f
    ("verify", "bfun", "--poly", "1", "--b", "(s+1)"),
    ("verify", "bfun", "--poly", "2", "--b", "(s+1)", "--order", "0",
     "--xdeg", "0"),
    ("verify", "bfun", "--poly", "0", "--b", "(s+1)"),
    ("ppd", "--input", "{}/zero.ann", "--weight-only"),
]


@pytest.mark.parametrize("argv", MALFORMED, ids=" ".join)
def test_malformed_input_exits_2(capsys, tmp_path, argv):
    (tmp_path / "latin1.ann").write_bytes("f: x1*x2 # caf\xe9\n".encode(
        "latin-1"))
    (tmp_path / "node.ann").write_text(NODE_ANN)
    (tmp_path / "zero.ann").write_text(NODE_ANN.replace("f: x1*x2", "f: 0"))
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
]


@pytest.mark.parametrize("argv,code,sha", PINNED,
                         ids=[" ".join(p[0][:2]) + f" #{i}"
                              for i, p in enumerate(PINNED)])
def test_envelope_pinned(capsys, tmp_path, monkeypatch, argv, code, sha):
    monkeypatch.delenv("HWKIT_CACHE", raising=False)
    (tmp_path / "node.ann").write_text(NODE_ANN)
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
