"""Command-line front end.

The exit codes, the deterministic `--json` envelope (no timings, no
environment data) and the `HWKIT_CACHE` envelope cache are specified in
README.md (Command line).  Every verb computes its outputs only on a cache
miss, and no two runs that could produce different envelopes share a key.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import re
import sys
import tempfile
from fractions import Fraction

from . import __version__, suite as suite_mod
from .bsdata import (BFunction, bfunction_snc, bfunction_whom_isolated,
                     classify_pair, genlevel_bound, reduce as breduce,
                     weight_bounds, weighted_minimal_exponent)
from .errors import (DimensionMismatch, HwkitError, InconclusiveAtBound,
                     InternalCheckFailed, ParseError, PreconditionError)
from .exactalg import (Polynomial, WeightVector, fmt_rational, infer_dim,
                       mono_str, parse_rational, poly_parse)
from .ppd import (_require_pp, gamma_ideal, hodge_on_weight,
                  hodge_weight_interval21, parse_annihilator_file, w0_span,
                  weight_module_generators, weight_step_presentation)
from .snc import SncDivisor, snc_f0_ideal
from .vforacle import (Bounds, certify_bfunction, crosscheck_hodge_weight,
                       reduce_presentation, verify_bfunction)
from .whom import QuasiHomogeneousGerm, whom_hodge_weight, whom_weight_top


def _canonical_json(obj) -> str:
    """The text of json.dumps(obj, indent=2, sort_keys=True) and a newline,
    written directly: with indent set, json.dumps runs its pure-Python
    encoder.  A float, a key that is not a str or another type raises
    TypeError."""
    out = []
    put, escape = out.append, json.encoder.encode_basestring_ascii

    def write(o, pad):
        if isinstance(o, str):
            put(escape(o))
        elif o is None or o is True or o is False:
            put("null" if o is None else "true" if o else "false")
        elif isinstance(o, int):
            put(int.__repr__(o))
        elif isinstance(o, (dict, list, tuple)) and o:
            is_dict, inner = isinstance(o, dict), pad + "  "
            sep = ("{\n" if is_dict else "[\n") + inner
            for key in sorted(o) if is_dict else range(len(o)):
                # escape raises TypeError on a key that is not a str
                put(sep + escape(key) + ": " if is_dict else sep)
                write(o[key], inner)
                sep = ",\n" + inner
            put("\n" + pad + ("}" if is_dict else "]"))
        elif isinstance(o, (dict, list, tuple)):
            put("{}" if isinstance(o, dict) else "[]")
        else:
            raise TypeError(f"{type(o).__name__} is not written as JSON")

    write(obj, "")
    put("\n")
    return "".join(out)


def envelope(command: str, inputs: dict, outputs: dict,
             bounds: dict | None = None, certificates=None,
             provenance=None) -> dict:
    env = {"tool": "hwkit", "version": __version__, "command": command,
           "inputs": inputs, "outputs": outputs}
    if bounds is not None:
        env["bounds"] = bounds
    if certificates is not None:
        env["certificates"] = certificates
    if provenance is not None:
        env["provenance"] = provenance
    return env


def _cache_lookup(args, payload: dict):
    """(envelope, path) of a valid cache entry, (None, path) on a miss and
    (None, None) with caching off or a root that cannot be created.  An
    entry that cannot be read or decoded, or is not the canonical text of
    this call's envelope, is a miss.  The key is computed only with caching
    on."""
    root = os.environ.get("HWKIT_CACHE")
    if not root:
        return None, None
    try:
        os.makedirs(root, exist_ok=True)
    except OSError:
        return None, None
    path = os.path.join(root, _cache_key(args, payload) + ".json")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        env = json.loads(text)
        # the writer raises on a float and on nesting too deep to write;
        # putting in this call's tool, version, command and inputs (and the
        # entry's outputs, which must be a dict) changes none of the text
        valid = (isinstance(env, dict) and isinstance(env.get("outputs"), dict)
                 and _canonical_json({**env, **envelope(
                     args.verb, payload, env["outputs"])}) == text)
    except (OSError, ValueError, RecursionError, TypeError):
        return None, path
    return (env if valid else None), path


def _cache_store(path: str, text: str):
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError:
        if tmp and os.path.exists(tmp):
            os.unlink(tmp)


def cached_run(args, payload: dict, compute, exit_code=lambda outputs: 0):
    """Serve the envelope from the content-addressed cache when possible;
    otherwise compute, store atomically, and emit.  Return exit_code of the
    envelope's outputs: a cache entry whose outputs it cannot read (a field
    missing, or a container of another type) is a miss, so it is recomputed
    and overwritten."""
    env, path = _cache_lookup(args, payload)
    if env is not None:
        try:
            code = exit_code(env["outputs"])
        except (KeyError, TypeError):
            env = None
    if env is None:
        env = compute()
        code = exit_code(env["outputs"])
        if path:
            _cache_store(path, _canonical_json(env))
    sys.stdout.write(_canonical_json(env)) if args.json else _pretty(env)
    return code


def _pretty(env: dict):
    print(f"hwkit {env['command']}")
    for k, v in env["outputs"].items():
        print(f"  {k}: {json.dumps(v, sort_keys=True) if isinstance(v, (dict, list)) else v}")


@functools.cache
def _source_digest() -> str:
    """SHA-256 over the sorted names and bytes of the package's modules,
    read once per process: an envelope cached by other code is a miss."""
    digest = hashlib.sha256()
    package = os.path.dirname(os.path.abspath(__file__))
    for name in sorted(n for n in os.listdir(package) if n.endswith(".py")):
        with open(os.path.join(package, name), "rb") as fh:
            data = fh.read()
        digest.update(f"{name}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


def _cache_key(args, payload: dict) -> str:
    """Hash of the verb, every parsed option but --json and the package
    source; --input is replaced by the SHA-256 of the file text that the
    payload records."""
    options = {k: v for k, v in vars(args).items() if k not in ("func", "json")}
    if "input" in options:
        options["input"] = payload["input_sha"]
    blob = _canonical_json({"options": options, "source": _source_digest(),
                            "version": __version__})
    return hashlib.sha256(blob.encode()).hexdigest()


# ---------------------------------------------------------------------------
# shared option handling


def _int_at_least(text: str, least: int) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if n < least:
        raise argparse.ArgumentTypeError(f"must be >= {least}, got {n}")
    return n


def _nonnegative(text: str) -> int:
    """argparse type of the bound options and the indices k, l: an
    integer >= 0."""
    return _int_at_least(text, 0)


def _positive(text: str) -> int:
    """argparse type of --dim: an integer >= 1."""
    return _int_at_least(text, 1)


def _lmax(text: str):
    """argparse type of --lmax: "auto" or an integer >= 0."""
    return text if text == "auto" else _nonnegative(text)


def _parse_naturals(option: str, text: str) -> tuple:
    """An option of comma-separated non-negative integers."""
    if not re.fullmatch(r"\s*\d+\s*(,\s*\d+\s*)*", text):
        raise ParseError(f"{option} {text!r} is not a comma-separated "
                         "list of non-negative integers", 0)
    return tuple(int(x) for x in text.split(","))


def _parse_stratum(text: str, dim: int) -> tuple:
    """The --stratum option: the distinct vanishing coordinates, numbered
    1..dim, in increasing order."""
    coords = _parse_naturals("--stratum", text)
    if not all(1 <= c <= dim for c in coords):
        raise ParseError(f"--stratum {text!r} names a coordinate outside "
                         f"1..{dim}", 0)
    if len(set(coords)) != len(coords):
        raise ParseError(f"--stratum {text!r} repeats a coordinate", 0)
    return tuple(sorted(coords))


def _poly(args) -> Polynomial:
    """The --poly option, in --dim variables or, without --dim, in as many
    as it names."""
    return poly_parse(args.poly, args.dim or infer_dim(args.poly))


def _exponents(args) -> tuple:
    """The --exponents option; a --dim below their number is rejected."""
    exps = _parse_naturals("--exponents", args.exponents)
    if args.dim is not None and args.dim < len(exps):
        raise DimensionMismatch(f"--dim {args.dim} is below the {len(exps)} "
                                "variables of --exponents")
    return exps


def _bfunction_source(args):
    """Route to the closed-form b-function: a monomial (--exponents, or a
    one-term --poly) goes through the monomial table, otherwise weights are
    required for the quasi-homogeneous route.  Returns (source description,
    f, weights or None for the monomial route).  --weights with --exponents
    and a --dim below the number of variables of the input are rejected; a
    larger --dim is an ambient dimension."""
    if args.exponents and args.poly:
        raise PreconditionError("give --exponents or --poly, not both")
    if args.exponents and args.weights:
        raise PreconditionError("--exponents takes no --weights")
    if args.exponents:
        f = Polynomial.monomial(_exponents(args))
    elif args.poly:
        f = _poly(args)
    else:
        raise PreconditionError("need --exponents or --poly")
    if len(f.nums) == 1:
        return {"exponents": list(next(iter(f.nums)))}, f, None
    if not args.weights:
        raise PreconditionError(
            "non-monomial input needs --weights for the quasi-homogeneous "
            "route", hypothesis="f is monomial or weight-1 quasi-homogeneous")
    w = WeightVector.parse(args.weights)
    return {"poly": str(f), "weights": str(w)}, f, w


def _bfunction(f: Polynomial, w) -> BFunction:
    """The closed-form b-function of a source of _bfunction_source."""
    if w is None:
        return bfunction_snc(next(iter(f.nums)))
    return bfunction_whom_isolated(QuasiHomogeneousGerm(f, w))


def _reduced_bfunction(f: Polynomial, w) -> BFunction:
    """The closed-form reduced b-function of a source of _bfunction_source."""
    return breduce(_bfunction(f, w))


def _escalated_run(args, payload: dict, start: Bounds, attempt,
                   **extra) -> int:
    """Emit the envelope of a bounded certification: attempt(start), then
    up to --escalate more attempts at doubled bounds while the verdict is
    not member and doubling moves the bounds (all-zero bounds stay put).
    Outputs hold the last certificate and every attempt; extra goes to the
    envelope.  Exit 0 on member, 3 otherwise."""

    def compute():
        bd, attempts = start, []
        for _ in range(args.escalate + 1):
            cert = attempt(bd)
            attempts.append(cert.to_json())
            if cert.is_member() or bd.doubled() == bd:
                break
            bd = bd.doubled()
        return envelope(args.verb, payload,
                        {"certificate": attempts[-1], "attempts": attempts},
                        **extra)

    return cached_run(
        args, payload, compute,
        lambda outputs: 0 if outputs["certificate"]["verdict"] == "member"
        else 3)


def _normalize_alpha(alpha: Fraction):
    """Shift alpha into (0,1]; the integer part is bookkeeping only."""
    shift = math.ceil(alpha) - 1
    return alpha - shift, shift


# ---------------------------------------------------------------------------
# verbs


def cmd_snc(args) -> int:
    a = _parse_naturals("--exponents", args.exponents)
    d = SncDivisor(a)
    alpha = parse_rational(args.alpha)
    if args.stratum is not None:
        stratum = _parse_stratum(args.stratum, d.dim)
        # one payload and one cache key per stratum, whatever the order
        args.stratum = ",".join(map(str, stratum))
        d = d.restrict_to_stratum([c - 1 for c in stratum])
    payload = {"exponents": list(a), "alpha": fmt_rational(alpha),
               "kmax": args.kmax, "lmax": str(args.lmax),
               "stratum": args.stratum}

    def compute():
        norm, shift = _normalize_alpha(alpha)
        m = d.m_alpha(norm)
        lmax = m if args.lmax == "auto" else min(args.lmax, m)
        rows = []
        for l in range(lmax + 1):
            gens = snc_f0_ideal(d, norm, l).to_json()
            for k in range(args.kmax + 1):
                rows.append({"k": k, "l": l, "generators": gens})
        return envelope("snc", payload,
                        {"alpha_normalized": fmt_rational(norm),
                         "alpha_integer_shift": shift,
                         "weight_top_offset": m, "rows": rows})

    return cached_run(args, payload, compute)


def cmd_whom(args) -> int:
    f = _poly(args)
    w = WeightVector.parse(args.weights)
    alpha = parse_rational(args.alpha)
    payload = {"poly": str(f), "weights": str(w),
               "alpha": fmt_rational(alpha), "k": args.k, "l": args.l}

    def compute():
        germ = QuasiHomogeneousGerm(f, w)
        pres = whom_hodge_weight(germ, alpha, args.k, args.l)
        return envelope("whom", payload,
                        {"milnor_basis": [mono_str(m) for m in germ.milnor],
                         "milnor_number": germ.mu,
                         "weight_top_offset": whom_weight_top(germ, alpha),
                         "presentation": pres.to_json()})

    return cached_run(args, payload, compute)


def cmd_bfun(args) -> int:
    source, f, w = _bfunction_source(args)
    payload = {"source": source, "verify": bool(args.verify)}

    def compute():
        b = _bfunction(f, w)
        certs = None
        if args.verify:
            b, cert = certify_bfunction(f, b, args.order, args.xdeg)
            certs = [cert.to_json()]
        return envelope("bfun", payload, {"bfunction": b.to_json(),
                                          "product": b.product_string()},
                        certificates=certs)

    return cached_run(args, payload, compute)


def cmd_verify(args) -> int:
    f = _poly(args)
    b = BFunction.parse(args.b)
    payload = {"poly": str(f), "b": b.product_string(),
               "order": args.order, "xdeg": args.xdeg,
               "escalate": args.escalate}
    # verify_bfunction reads no dt bound, so dt = 0 stays 0 when doubled
    return _escalated_run(
        args, payload, Bounds(order=args.order, xdeg=args.xdeg, dt=0),
        lambda bd: verify_bfunction(f, b, bd.order, bd.xdeg))


def cmd_classify(args) -> int:
    source, f, w = _bfunction_source(args)
    alpha = parse_rational(args.alpha)
    payload = {"source": source, "alpha": fmt_rational(alpha)}

    def compute():
        bred = _reduced_bfunction(f, w)
        a0 = weighted_minimal_exponent(bred, 0)
        return envelope("classify", payload, {
            "classification": classify_pair(bred, alpha).to_json(),
            "reduced_bfunction": bred.product_string(),
            "minimal_exponent": fmt_rational(a0) if a0 is not None else None})

    return cached_run(args, payload, compute)


def cmd_bounds(args) -> int:
    source, f, w = _bfunction_source(args)
    alpha = parse_rational(args.alpha)
    dim = args.dim or f.dim
    payload = {"source": source, "alpha": fmt_rational(alpha),
               "dim": dim, "l": args.l}

    def compute():
        bred = _reduced_bfunction(f, w)
        lo, hi = weight_bounds(bred, alpha, dim)
        return envelope("bounds", payload, {
            "weight_bounds": [lo, hi],
            "genlevel_bound": genlevel_bound(bred, alpha, args.l, dim,
                                             graded=False),
            "genlevel_bound_graded": genlevel_bound(bred, alpha, args.l, dim,
                                                    graded=True),
            "reduced_bfunction": bred.product_string()})

    return cached_run(args, payload, compute)


def cmd_crosscheck(args) -> int:
    alpha = parse_rational(args.alpha)
    bounds = Bounds(order=args.order, xdeg=args.xdeg, dt=args.dtord)
    if args.source == "snc":
        if not args.exponents or args.poly or args.weights:
            raise PreconditionError("--source snc needs --exponents, and no "
                                    "--poly or --weights")
        exps = _exponents(args)
        if args.dim is not None and args.dim > len(exps):
            raise DimensionMismatch(f"--dim {args.dim} is above the "
                                    f"{len(exps)} variables of --exponents: "
                                    "--source snc takes no ambient dimension")
        obj = SncDivisor(exps)
        name = str(obj)
    else:
        if args.exponents or not (args.poly and args.weights):
            raise PreconditionError("--source whom needs --poly and "
                                    "--weights, and no --exponents")
        obj = QuasiHomogeneousGerm(_poly(args),
                                   WeightVector.parse(args.weights))
        name = str(obj.f)
    payload = {"source": args.source, "f": name,
               "alpha": fmt_rational(alpha), "k": args.k, "l": args.l,
               "bounds": bounds.to_json(), "escalate": args.escalate}
    return _escalated_run(
        args, payload, bounds,
        lambda bd: crosscheck_hodge_weight(args.source, obj, alpha, args.k,
                                           args.l, bd),
        bounds=bounds.to_json())


def cmd_ppd(args) -> int:
    if args.weight_only and (args.k or args.interval21):
        raise PreconditionError("--weight-only computes no Hodge step: it "
                                "takes no --k or --interval21")
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise HwkitError(f"cannot read {args.input}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise HwkitError(f"cannot read {args.input}: not UTF-8 text") from None
    # no ppd computation reads dt; 6 is the value its envelopes record
    bounds = Bounds(order=args.order, xdeg=args.xdeg, dt=6)
    payload = {"input_sha": hashlib.sha256(text.encode()).hexdigest(),
               "l": args.l, "k": args.k, "bounds": bounds.to_json(),
               "weight_only": args.weight_only, "interval21": args.interval21}

    def compute():
        inp = parse_annihilator_file(text, dim=args.dim)
        gens, meta = weight_module_generators(inp, args.l, bounds)
        wpres = weight_step_presentation(inp, gens, bounds)
        outputs = {"weight_presentation": wpres.to_json(),
                   "meta": meta,
                   "gamma": gamma_ideal(inp).to_json(),
                   "gamma_w0": gamma_ideal(inp, weighted=True).to_json()}
        provenance = ["conditional: primality asserted, not verified"] \
            if inp.pp_asserted else []
        if not args.weight_only:
            if args.interval21:
                pres = hodge_weight_interval21(inp, gens, args.k, bounds)
            else:
                if args.k >= 1:  # before the w0 span is built
                    _require_pp(inp)
                pres = hodge_on_weight(w0_span(inp, args.l, bounds), args.k)
            pres = reduce_presentation(pres, inp.f, bounds)
            outputs["hodge_presentation"] = pres.to_json()
        return envelope("ppd", payload, outputs, bounds=bounds.to_json(),
                        provenance=provenance)

    return cached_run(args, payload, compute)


def cmd_suite(args) -> int:
    payload = {"profile": args.profile}
    # the starved profile passes by refusing: its exit code is 3
    passing = 3 if args.profile == "starved" else 0
    return cached_run(
        args, payload,
        lambda: envelope("suite", payload, suite_mod.run_suite(args.profile)),
        lambda outputs: passing if outputs["passed"] else 1)


# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Reports a usage error on one stderr line, with exit code 2."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


# Option tables: each verb's options in help order, a flag (or positional
# name) -> the keyword arguments of its add_argument call.  build_parser
# feeds them to argparse and _table_parse reads them.
_JSON = {"--json": {"action": "store_true"}}
_COMMON = {**_JSON, "--dim": {"type": _positive, "default": None}}
_SOURCE = {"--exponents": {}, "--poly": {}, "--weights": {}}
_ESCALATE = {"--escalate": {
    "type": _nonnegative, "default": 0,
    "help": "doublings to offer on an inconclusive verdict"}}

_SNC_OPTIONS = {
    **_JSON,
    "--exponents": {"required": True},
    "--alpha": {"required": True},
    "--lmax": {"type": _lmax, "default": "auto"},
    "--kmax": {"type": _nonnegative, "default": 2},
    "--stratum": {"default": None}}
_WHOM_OPTIONS = {
    **_COMMON,
    "--poly": {"required": True},
    "--weights": {"required": True},
    "--alpha": {"required": True},
    "--k": {"type": _nonnegative, "required": True},
    "--l": {"type": _nonnegative, "required": True}}
_BFUN_OPTIONS = {
    **_COMMON, **_SOURCE,
    "--verify": {"action": "store_true"},
    "--order": {"type": _nonnegative, "default": 4},
    "--xdeg": {"type": _nonnegative, "default": 8}}
_VERIFY_OPTIONS = {
    **_COMMON,
    "what": {"choices": ["bfun"]},
    "--poly": {"required": True},
    "--b": {"required": True},
    "--order": {"type": _nonnegative, "default": 4},
    "--xdeg": {"type": _nonnegative, "default": 8},
    **_ESCALATE}
_CLASSIFY_OPTIONS = {**_COMMON, **_SOURCE, "--alpha": {"required": True}}
_BOUNDS_OPTIONS = {**_CLASSIFY_OPTIONS,
                   "--l": {"type": _nonnegative, "default": 0}}
_CROSSCHECK_OPTIONS = {
    **_COMMON,
    "--source": {"choices": ["snc", "whom"], "required": True},
    **_SOURCE,
    "--alpha": {"required": True},
    "--k": {"type": _nonnegative, "required": True},
    "--l": {"type": _nonnegative, "required": True},
    **_ESCALATE,
    "--order": {"type": _nonnegative, "default": 4},
    "--xdeg": {"type": _nonnegative, "default": 12},
    "--dtord": {"type": _nonnegative, "default": 6}}
_PPD_OPTIONS = {
    **_COMMON,
    "--input": {"required": True},
    "--l": {"type": _nonnegative, "default": 0},
    "--k": {"type": _nonnegative, "default": 0},
    "--weight-only": {"action": "store_true"},
    "--interval21": {"action": "store_true"},
    "--order": {"type": _nonnegative, "default": 4},
    "--xdeg": {"type": _nonnegative, "default": 10}}
_SUITE_OPTIONS = {
    **_JSON,
    "--profile": {"default": "default",
                  "choices": ["default", "corrupted", "starved"]}}

# verb: (help, its option table, its handler)
VERBS = {
    "snc": ("closed-form tables for monomial divisors", _SNC_OPTIONS,
            cmd_snc),
    "whom": ("weighted-homogeneous isolated singularity tables",
             _WHOM_OPTIONS, cmd_whom),
    "bfun": ("closed-form b-function data", _BFUN_OPTIONS, cmd_bfun),
    "verify": ("oracle verification", _VERIFY_OPTIONS, cmd_verify),
    "classify": ("singularity class of the pair", _CLASSIFY_OPTIONS,
                 cmd_classify),
    "bounds": ("highest-weight and generating-level bounds", _BOUNDS_OPTIONS,
               cmd_bounds),
    "crosscheck": ("master cross-check of a closed form against the oracle",
                   _CROSSCHECK_OPTIONS, cmd_crosscheck),
    "ppd": ("annihilator-presentation route", _PPD_OPTIONS, cmd_ppd),
    "suite": ("acceptance battery", _SUITE_OPTIONS, cmd_suite),
}


def build_parser() -> argparse.ArgumentParser:
    """The parser of every verb, for each argv _table_parse declines: its
    --help, -h and usage errors are argparse's."""
    ap = _Parser(prog="hwkit")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="verb", required=True)
    for verb, (help_text, options, handler) in VERBS.items():
        p = sub.add_parser(verb, help=help_text)
        for name, kwargs in options.items():
            p.add_argument(name, **kwargs)
        p.set_defaults(func=handler)
    return ap


def _table_parse(argv):
    """The namespace build_parser gives argv, read from the option table of
    the verb argv[0] names with no parser built; None where argv names no
    verb or another token is not well formed.  An option is its full name,
    as --name value (a value not starting with -) or --name=value, and a
    flag has no value.  An abbreviation, -h, --, a type or choice error, a
    stray or missing positional and a missing required option decline, as
    does anything argparse might read otherwise."""
    if not (argv and argv[0] in VERBS):
        return None
    _, options, handler = VERBS[argv[0]]
    positionals = [name for name in options if not name.startswith("-")]
    given = {}
    tokens = iter(argv[1:])
    for token in tokens:
        if token.startswith("-"):
            name, eq, text = token.partition("=")
            spec = options.get(name)
            if spec is None:
                return None
            if spec.get("action") == "store_true":
                if eq:
                    return None
                given[name] = True
                continue
            if not eq:
                # the next token; argparse reads one starting with - (or
                # none) its own way
                text = next(tokens, "-")
                if text.startswith("-"):
                    return None
        elif positionals:
            name, text = positionals.pop(0), token
            spec = options[name]
        else:
            return None
        try:
            value = spec.get("type", str)(text)
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if "choices" in spec and value not in spec["choices"]:
            return None
        given[name] = value
    if positionals:
        return None
    values = {}
    for name, spec in options.items():
        if name in given:
            value = given[name]
        elif spec.get("required"):
            return None
        else:
            flag = spec.get("action") == "store_true"
            value = spec.get("default", False if flag else None)
            if isinstance(value, str):  # argparse types a string default
                value = spec.get("type", str)(value)
        values[name.lstrip("-").replace("-", "_")] = value
    return argparse.Namespace(verb=argv[0], func=handler, **values)


def parse_argv(argv) -> argparse.Namespace:
    """The options of argv: from the named verb's option table when argv
    is well formed, otherwise from build_parser, which also gives help and
    usage errors."""
    args = _table_parse(argv)
    return build_parser().parse_args(argv) if args is None else args


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse_argv(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"hypothesis violated: {exc.hypothesis}", file=sys.stderr)
        return 2
    except InconclusiveAtBound as exc:
        print(f"inconclusive at bounds {exc.bounds}: {exc}", file=sys.stderr)
        return 3
    except HwkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalCheckFailed as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
