"""Command-line front end.

Exit codes: 0 success, 2 precondition violation (the violated mathematical
hypothesis is named) or malformed input (one line on stderr), 3 inconclusive
at the given bounds, 4 a failed internal check (a witness that does not
re-evaluate or a syzygy that does not re-multiply to zero; one line on
stderr).  Envelopes are
deterministic JSON (no timings, no environment data) so identical inputs
yield byte-identical output; with HWKIT_CACHE set, envelopes are cached
content-addressed and written with atomic replace.  The cache key covers the
verb and every parsed option except --json (an --input file is keyed by the
SHA-256 of its text, not its path), so no two runs that could produce
different envelopes share a key.  An unreadable or corrupt cache entry counts
as a miss and is rewritten.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import sys
import tempfile
from fractions import Fraction

from . import __version__, suite as suite_mod
from .bsdata import (BFunction, bfunction_snc, bfunction_whom_isolated,
                     classify_pair, genlevel_bound, reduce as breduce,
                     weight_bounds, weighted_minimal_exponent)
from .errors import (HwkitError, InconclusiveAtBound, InternalCheckFailed,
                     ParseError, PreconditionError)
from .exactalg import (Polynomial, WeightVector, fmt_rational, infer_dim,
                       mono_str, parse_rational, poly_parse)
from .ppd import (gamma_ideal, hodge_on_weight, hodge_weight_interval21,
                  parse_annihilator_file, weight_module_generators,
                  weight_step_presentation)
from .snc import SncDivisor, snc_f0_ideal
from .vforacle import (Bounds, certify_bfunction, crosscheck_hodge_weight,
                       verify_bfunction)
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


def _cache_lookup(key: str):
    """(envelope, path) of a valid cache entry, (None, path) on a miss and
    (None, None) with caching off.  An entry that does not decode, or is not
    the canonical text of a JSON object (a truncated write), is a miss."""
    root = os.environ.get("HWKIT_CACHE")
    if not root:
        return None, None
    os.makedirs(root, exist_ok=True)
    path = os.path.join(root, key + ".json")
    if not os.path.exists(path):
        return None, path
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        env = json.loads(text)
    except ValueError:
        return None, path
    if not isinstance(env, dict) or _canonical_json(env) != text:
        return None, path
    return env, path


def _cache_store(path: str, text: str):
    if not path:
        return
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError:
        if os.path.exists(tmp):
            os.unlink(tmp)


def cached_run(args, payload: dict, compute) -> dict:
    """Serve the envelope from the content-addressed cache when possible;
    otherwise compute, store atomically, and emit."""
    env, path = _cache_lookup(_cache_key(args, payload))
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


def _cache_key(args, payload: dict) -> str:
    """Hash of the verb and every parsed option but --json; --input is
    replaced by the SHA-256 of the file text that the payload records."""
    options = {k: v for k, v in vars(args).items() if k not in ("func", "json")}
    if "input" in options:
        options["input"] = payload["input_sha"]
    blob = _canonical_json({"options": options, "version": __version__})
    return hashlib.sha256(blob.encode()).hexdigest()


# ---------------------------------------------------------------------------
# shared option handling


def _bounds(args) -> Bounds:
    return Bounds(order=args.order, xdeg=args.xdeg, dt=args.dtord)


def _nonnegative(text: str) -> int:
    """argparse type of the bound options and the indices k, l: an
    integer >= 0."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {n}")
    return n


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


def _parse_stratum(text: str, dim: int) -> list:
    """The --stratum option: the vanishing coordinates, numbered 1..dim;
    returns their indices."""
    coords = _parse_naturals("--stratum", text)
    if not all(1 <= c <= dim for c in coords):
        raise ParseError(f"--stratum {text!r} names a coordinate outside "
                         f"1..{dim}", 0)
    return [c - 1 for c in coords]


def _reduced_bfunction(args):
    """Route to the closed-form b-function: a monomial (--exponents, or a
    one-term --poly) goes through the monomial table, otherwise weights are
    required for the quasi-homogeneous route.  Returns (reduced b-function,
    source description, f)."""
    if getattr(args, "exponents", None):
        f = Polynomial.monomial(_parse_naturals("--exponents", args.exponents))
    elif args.poly:
        f = poly_parse(args.poly, args.dim or infer_dim(args.poly))
    else:
        raise PreconditionError("need --exponents or --poly")
    if len(f.terms) == 1:
        a = next(iter(f.terms))
        return breduce(bfunction_snc(a)), {"exponents": list(a)}, f
    if not args.weights:
        raise PreconditionError(
            "non-monomial input needs --weights for the quasi-homogeneous "
            "route", hypothesis="f is monomial or weight-1 quasi-homogeneous")
    w = WeightVector.parse(args.weights)
    germ = QuasiHomogeneousGerm(f, w)
    b = bfunction_whom_isolated(f, w, germ.milnor)
    return breduce(b), {"poly": str(f), "weights": str(w)}, f


def _normalize_alpha(alpha: Fraction):
    """Shift alpha into (0,1]; the integer part is bookkeeping only."""
    shift = -((-alpha.numerator) // alpha.denominator) - 1  # ceil(alpha) - 1
    return alpha - shift, shift


# ---------------------------------------------------------------------------
# verbs


def cmd_snc(args) -> int:
    a = _parse_naturals("--exponents", args.exponents)
    d = SncDivisor(a)
    alpha = parse_rational(args.alpha)
    norm, shift = _normalize_alpha(alpha)
    if args.stratum:
        d = d.restrict_to_stratum(_parse_stratum(args.stratum, d.dim))
    m = d.m_alpha(norm)
    lmax = m if args.lmax == "auto" else min(args.lmax, m)
    rows = []
    for l in range(lmax + 1):
        gens = snc_f0_ideal(d, norm, l).to_json()
        for k in range(args.kmax + 1):
            rows.append({"k": k, "l": l, "generators": gens})
    outputs = {"alpha_normalized": fmt_rational(norm),
               "alpha_integer_shift": shift,
               "weight_top_offset": m, "rows": rows}
    payload = {"exponents": list(a), "alpha": fmt_rational(alpha),
               "kmax": args.kmax, "lmax": str(args.lmax),
               "stratum": args.stratum}
    cached_run(args, payload, lambda: envelope("snc", payload, outputs))
    return 0


def cmd_whom(args) -> int:
    dim = args.dim or infer_dim(args.poly)
    f = poly_parse(args.poly, dim)
    w = WeightVector.parse(args.weights)
    germ = QuasiHomogeneousGerm(f, w)
    alpha = parse_rational(args.alpha)
    pres = whom_hodge_weight(germ, alpha, args.k, args.l)
    outputs = {"milnor_basis": [mono_str(m) for m in germ.milnor],
               "milnor_number": germ.mu,
               "weight_top_offset": whom_weight_top(germ, alpha),
               "presentation": pres.to_json()}
    payload = {"poly": str(f), "weights": str(w),
               "alpha": fmt_rational(alpha), "k": args.k, "l": args.l}
    cached_run(args, payload, lambda: envelope("whom", payload, outputs))
    return 0


def cmd_bfun(args) -> int:
    bred, source, f = _reduced_bfunction(args)
    # rebuild the unreduced function for reporting
    roots = dict(bred.roots)
    roots[Fraction(-1)] = roots.get(Fraction(-1), 0) + 1
    prov = "closed-form-snc" if len(f.terms) == 1 else "closed-form-whom"
    b = BFunction(roots, provenance=prov)
    certs = None
    if args.verify:
        b, cert = certify_bfunction(f, b, args.order, args.xdeg)
        certs = [cert.to_json()]
    payload = {"source": source, "verify": bool(args.verify)}
    cached_run(args, payload,
               lambda: envelope("bfun", payload,
                                {"bfunction": b.to_json(),
                                 "product": b.product_string()},
                                certificates=certs))
    return 0


def cmd_verify(args) -> int:
    if args.what != "bfun":
        raise PreconditionError(f"unknown verification target {args.what!r}")
    dim = args.dim or infer_dim(args.poly)
    f = poly_parse(args.poly, dim)
    b = BFunction.parse(args.b)
    payload = {"poly": str(f), "b": b.product_string(),
               "order": args.order, "xdeg": args.xdeg,
               "escalate": args.escalate}

    def compute():
        order, xdeg = args.order, args.xdeg
        attempts = []
        for _ in range(args.escalate + 1):
            cert = verify_bfunction(f, b, order, xdeg)
            attempts.append(cert.to_json())
            if cert.is_member():
                break
            order, xdeg = order * 2, xdeg * 2
        return envelope("verify", payload,
                        {"certificate": attempts[-1], "attempts": attempts})

    env = cached_run(args, payload, compute)
    verdict = env["outputs"]["certificate"]["verdict"]
    return 0 if verdict == "member" else 3


def cmd_classify(args) -> int:
    bred, source, _ = _reduced_bfunction(args)
    alpha = parse_rational(args.alpha)
    cls = classify_pair(bred, alpha)
    a0 = weighted_minimal_exponent(bred, 0)
    payload = {"source": source, "alpha": fmt_rational(alpha)}
    outputs = {"classification": cls.to_json(),
               "reduced_bfunction": bred.product_string(),
               "minimal_exponent": fmt_rational(a0) if a0 is not None else None}
    cached_run(args, payload, lambda: envelope("classify", payload, outputs))
    return 0


def cmd_bounds(args) -> int:
    bred, source, f = _reduced_bfunction(args)
    alpha = parse_rational(args.alpha)
    dim = args.dim or f.dim
    lo, hi = weight_bounds(bred, alpha, dim)
    gl = genlevel_bound(bred, alpha, args.l, dim, graded=False)
    glg = genlevel_bound(bred, alpha, args.l, dim, graded=True)
    payload = {"source": source, "alpha": fmt_rational(alpha),
               "dim": dim, "l": args.l}
    outputs = {"weight_bounds": [lo, hi], "genlevel_bound": gl,
               "genlevel_bound_graded": glg,
               "reduced_bfunction": bred.product_string()}
    cached_run(args, payload, lambda: envelope("bounds", payload, outputs))
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
        dim = args.dim or infer_dim(args.poly)
        obj = QuasiHomogeneousGerm(poly_parse(args.poly, dim),
                                   WeightVector.parse(args.weights))
        name = str(obj.f)
    payload = {"source": args.source, "f": name,
               "alpha": fmt_rational(alpha), "k": args.k, "l": args.l,
               "bounds": bounds.to_json(), "escalate": args.escalate}

    def compute():
        b = bounds
        attempts = []
        for _ in range(args.escalate + 1):
            cert = crosscheck_hodge_weight(args.source, obj, alpha, args.k,
                                           args.l, b)
            attempts.append(cert.to_json())
            if cert.is_member():
                break
            b = b.doubled()
        return envelope("crosscheck", payload,
                        {"certificate": attempts[-1], "attempts": attempts},
                        bounds=bounds.to_json())

    env = cached_run(args, payload, compute)
    verdict = env["outputs"]["certificate"]["verdict"]
    return 0 if verdict == "member" else 3


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
        _, meta = weight_module_generators(inp, args.l, bounds)
        wpres = weight_step_presentation(inp, args.l, bounds)
        outputs = {"weight_presentation": wpres.to_json(),
                   "meta": meta,
                   "gamma": gamma_ideal(inp).to_json(),
                   "gamma_w0": gamma_ideal(inp, 0).to_json()}
        provenance = ["conditional: primality asserted, not verified"] \
            if inp.pp_asserted else []
        if not args.weight_only:
            if args.interval21:
                pres = hodge_weight_interval21(inp, args.l, args.k, bounds)
            else:
                pres = hodge_on_weight(inp, args.l, args.k, bounds)
            from .vforacle import reduce_presentation
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

    def common(p):
        p.add_argument("--json", action="store_true")
        p.add_argument("--dim", type=int, default=None)

    p = sub.add_parser("snc", help="closed-form tables for monomial divisors")
    common(p)
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
    common(p)
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
