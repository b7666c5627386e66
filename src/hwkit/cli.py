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
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


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
    entry that cannot be read or decoded, or is not the canonical text of a
    JSON object (a truncated write), is a miss.  The key is computed only
    with caching on."""
    root = os.environ.get("HWKIT_CACHE")
    if not root:
        return None, None
    try:
        os.makedirs(root, exist_ok=True)
    except OSError:
        return None, None
    path = os.path.join(root, _cache_key(args, payload) + ".json")
    if not os.path.exists(path):
        return None, path
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        env = json.loads(text)
    except (OSError, ValueError):
        return None, path
    if not isinstance(env, dict) or _canonical_json(env) != text:
        return None, path
    return env, path


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


def cached_run(args, payload: dict, compute) -> dict:
    """Serve the envelope from the content-addressed cache when possible;
    otherwise compute, store atomically, and emit."""
    env, path = _cache_lookup(args, payload)
    if env is None:
        env = compute()
        if path:
            _cache_store(path, _canonical_json(env))
    sys.stdout.write(_canonical_json(env)) if args.json else _pretty(env)
    return env


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


def _bounds(args) -> Bounds:
    return Bounds(order=args.order, xdeg=args.xdeg, dt=args.dtord)


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


def _add_bounds(p, order=4, xdeg=12, dtord=6):
    p.add_argument("--order", type=_nonnegative, default=order)
    p.add_argument("--xdeg", type=_nonnegative, default=xdeg)
    p.add_argument("--dtord", type=_nonnegative, default=dtord)


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


def _bfunction_source(args):
    """Route to the closed-form b-function: a monomial (--exponents, or a
    one-term --poly) goes through the monomial table, otherwise weights are
    required for the quasi-homogeneous route.  Returns (source description,
    f, weights or None for the monomial route).  A --dim below the number of
    variables of the input is rejected; a larger one is an ambient
    dimension."""
    if getattr(args, "exponents", None):
        f = Polynomial.monomial(_parse_naturals("--exponents", args.exponents))
        if args.dim is not None and args.dim < f.dim:
            raise DimensionMismatch(f"--dim {args.dim} is below the {f.dim} "
                                    "variables of --exponents")
    elif args.poly:
        f = _poly(args)
    else:
        raise PreconditionError("need --exponents or --poly")
    if len(f.terms) == 1:
        return {"exponents": list(next(iter(f.terms)))}, f, None
    if not args.weights:
        raise PreconditionError(
            "non-monomial input needs --weights for the quasi-homogeneous "
            "route", hypothesis="f is monomial or weight-1 quasi-homogeneous")
    w = WeightVector.parse(args.weights)
    return {"poly": str(f), "weights": str(w)}, f, w


def _bfunction(f: Polynomial, w) -> BFunction:
    """The closed-form b-function of a source of _bfunction_source."""
    if w is None:
        return bfunction_snc(next(iter(f.terms)))
    return bfunction_whom_isolated(f, w, QuasiHomogeneousGerm(f, w).milnor)


def _reduced_bfunction(f: Polynomial, w) -> BFunction:
    """The closed-form reduced b-function of a source of _bfunction_source."""
    return breduce(_bfunction(f, w))


def _escalated_run(args, payload: dict, start: Bounds, attempt,
                   **extra) -> int:
    """Emit the envelope of a bounded certification: attempt(start), then
    up to --escalate more attempts at doubled bounds while the verdict is
    not member.  Outputs hold the last certificate and every attempt; extra
    goes to the envelope.  Exit 0 on member, 3 otherwise."""

    def compute():
        bd, attempts = start, []
        for _ in range(args.escalate + 1):
            cert = attempt(bd)
            attempts.append(cert.to_json())
            if cert.is_member():
                break
            bd = bd.doubled()
        return envelope(args.verb, payload,
                        {"certificate": attempts[-1], "attempts": attempts},
                        **extra)

    env = cached_run(args, payload, compute)
    return 0 if env["outputs"]["certificate"]["verdict"] == "member" else 3


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
    if args.stratum:
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

    cached_run(args, payload, compute)
    return 0


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

    cached_run(args, payload, compute)
    return 0


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

    cached_run(args, payload, compute)
    return 0


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

    cached_run(args, payload, compute)
    return 0


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

    cached_run(args, payload, compute)
    return 0


def cmd_crosscheck(args) -> int:
    alpha = parse_rational(args.alpha)
    bounds = _bounds(args)
    if args.source == "snc":
        if not args.exponents:
            raise PreconditionError("--source snc needs --exponents")
        obj = SncDivisor(_parse_naturals("--exponents", args.exponents))
        name = str(obj)
    else:
        if not (args.poly and args.weights):
            raise PreconditionError("--source whom needs --poly and --weights")
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
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise HwkitError(f"cannot read {args.input}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise HwkitError(f"cannot read {args.input}: not UTF-8 text") from None
    payload = {"input_sha": hashlib.sha256(text.encode()).hexdigest(),
               "l": args.l, "k": args.k,
               "bounds": {"order": args.order, "xdeg": args.xdeg,
                          "dt": args.dtord},
               "weight_only": args.weight_only, "interval21": args.interval21}

    def compute():
        inp = parse_annihilator_file(text, dim=args.dim)
        bounds = _bounds(args)
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

    cached_run(args, payload, compute)
    return 0


def cmd_suite(args) -> int:
    payload = {"profile": args.profile}
    env = cached_run(args, payload,
                     lambda: envelope("suite", payload,
                                      suite_mod.run_suite(args.profile)))
    passed = env["outputs"]["passed"]
    if args.profile == "starved":
        return 3 if passed else 1
    return 0 if passed else 1


# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Reports a usage error on one stderr line, with exit code 2."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="hwkit")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="verb", required=True)

    def common(p, dim=True):
        p.add_argument("--json", action="store_true")
        if dim:
            p.add_argument("--dim", type=_positive, default=None)

    p = sub.add_parser("snc", help="closed-form tables for monomial divisors")
    common(p, dim=False)
    p.add_argument("--exponents", required=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("--lmax", type=_lmax, default="auto")
    p.add_argument("--kmax", type=_nonnegative, default=2)
    p.add_argument("--stratum", default=None)
    p.set_defaults(func=cmd_snc)

    p = sub.add_parser("whom", help="weighted-homogeneous isolated "
                                    "singularity tables")
    common(p)
    p.add_argument("--poly", required=True)
    p.add_argument("--weights", required=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("--k", type=_nonnegative, required=True)
    p.add_argument("--l", type=_nonnegative, required=True)
    p.set_defaults(func=cmd_whom)

    p = sub.add_parser("bfun", help="closed-form b-function data")
    common(p)
    p.add_argument("--exponents")
    p.add_argument("--poly")
    p.add_argument("--weights")
    p.add_argument("--verify", action="store_true")
    p.add_argument("--order", type=_nonnegative, default=4)
    p.add_argument("--xdeg", type=_nonnegative, default=8)
    p.set_defaults(func=cmd_bfun)

    p = sub.add_parser("verify", help="oracle verification")
    common(p)
    p.add_argument("what", choices=["bfun"])
    p.add_argument("--poly", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--order", type=_nonnegative, default=4)
    p.add_argument("--xdeg", type=_nonnegative, default=8)
    p.add_argument("--escalate", type=_nonnegative, default=0,
                   help="doublings to offer on an inconclusive verdict")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("classify", help="singularity class of the pair")
    common(p)
    p.add_argument("--exponents")
    p.add_argument("--poly")
    p.add_argument("--weights")
    p.add_argument("--alpha", required=True)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("bounds", help="highest-weight and generating-level "
                                      "bounds")
    common(p)
    p.add_argument("--exponents")
    p.add_argument("--poly")
    p.add_argument("--weights")
    p.add_argument("--alpha", required=True)
    p.add_argument("--l", type=_nonnegative, default=0)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("crosscheck", help="master cross-check of a closed "
                                          "form against the oracle")
    common(p)
    p.add_argument("--source", choices=["snc", "whom"], required=True)
    p.add_argument("--exponents")
    p.add_argument("--poly")
    p.add_argument("--weights")
    p.add_argument("--alpha", required=True)
    p.add_argument("--k", type=_nonnegative, required=True)
    p.add_argument("--l", type=_nonnegative, required=True)
    p.add_argument("--escalate", type=_nonnegative, default=0,
                   help="doublings to offer on an inconclusive verdict")
    _add_bounds(p)
    p.set_defaults(func=cmd_crosscheck)

    p = sub.add_parser("ppd", help="annihilator-presentation route")
    common(p)
    p.add_argument("--input", required=True)
    p.add_argument("--l", type=_nonnegative, default=0)
    p.add_argument("--k", type=_nonnegative, default=0)
    p.add_argument("--weight-only", action="store_true")
    p.add_argument("--interval21", action="store_true")
    _add_bounds(p, xdeg=10)
    p.set_defaults(func=cmd_ppd)

    p = sub.add_parser("suite", help="acceptance battery")
    common(p, dim=False)
    p.add_argument("--profile", default="default",
                   choices=["default", "corrupted", "starved"])
    p.set_defaults(func=cmd_suite)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
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
