"""JSON schema family "floerss/1": parsing and validation of input files.

Matrices are row-major nested arrays of finite numbers; half-integer
degrees are doubled integers in fields named deg2/mu2; Laurent coefficients
are maps exponent -> coefficient.  Schema violations raise SchemaError: a
missing key, and a field of the wrong JSON type or value that a parser
cannot convert (the KeyError, TypeError, ValueError, IndexError,
AttributeError or OverflowError it raises).  The domain gates of the
constructed objects raise their own errors.
"""

from functools import wraps

import numpy as np

from .errors import SchemaError
from . import symplin as sl
from . import lagpath as lp
from .novikov import GradedFreeComplex, LaurentPoly, Z2, Z, L2
from . import chain as ch

SCHEMA = "floerss/1"


_MALFORMED = (KeyError, TypeError, ValueError, IndexError, AttributeError,
              OverflowError)


def _schema_checked(parse):
    """Report a field the parser cannot convert as a SchemaError."""
    @wraps(parse)
    def checked(*args, **kwargs):
        try:
            return parse(*args, **kwargs)
        except _MALFORMED as exc:
            raise SchemaError(f"malformed input in {parse.__name__}: "
                              f"{type(exc).__name__}: {exc}") from exc
    return checked


def _need(obj, key, where):
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected an object", path=where)
    if key not in obj:
        raise SchemaError(f"missing key {key!r} in {where}", path=where,
                          expected=key, found=sorted(obj))
    return obj[key]


def _matrix(obj, where):
    try:
        M = np.asarray(obj, dtype=float)
    except (TypeError, ValueError):
        raise SchemaError(f"{where}: expected a numeric matrix", path=where)
    if M.ndim != 2:
        raise SchemaError(f"{where}: expected a 2-d matrix, got shape {M.shape}",
                          path=where)
    if M.size == 0 or not np.all(np.isfinite(M)):
        raise SchemaError(f"{where}: expected a nonempty matrix of finite numbers",
                          path=where)
    return M


def _finite(x, where):
    x = float(x)
    if not np.isfinite(x):
        raise SchemaError(f"{where}: expected a finite number, got {x}", path=where)
    return x


@_schema_checked
def option(doc, key, cast, flag=None):
    """Optional field ``key`` of doc converted by cast; None if absent or
    null.  A command-line ``flag`` value other than None (0 included) wins."""
    value = doc.get(key) if flag is None else flag
    return None if value is None else cast(value)


def check_header(doc, kind=None):
    if doc.get("schema") != SCHEMA:
        raise SchemaError(f"schema must be {SCHEMA!r}",
                          expected=SCHEMA, found=doc.get("schema"))
    if kind is not None and doc.get("kind") != kind:
        raise SchemaError(f"kind must be {kind!r}", expected=kind,
                          found=doc.get("kind"))
    return doc


@_schema_checked
def parse_frame(obj, where):
    return sl.validate_lagrangian(_matrix(obj, where))


@_schema_checked
def parse_sigma(obj, where):
    if "constant" in obj:
        return sl.constant_path(_matrix(obj["constant"], where))
    if "poly" in obj:
        mats = [_matrix(c, where) for c in obj["poly"]]
        return sl.poly_path(mats)
    raise SchemaError(f"{where}: need 'constant' or 'poly'", path=where)


def _poly_eval(coeffs, where):
    """ss -> (m,) stack of the polynomial sum_k coeffs[k] s^k."""
    cs = [_finite(c, where) for c in coeffs]

    def f(ss):
        acc, sk = 0.0, np.ones_like(ss)
        for c in cs:
            acc = acc + c * sk
            sk = sk * ss
        return acc

    return f


def _matrix_poly_eval(coeffs, where):
    """ss -> (m, n, n) stack of the symmetric part of sum_k coeffs[k] s^k;
    a coefficient that is not symmetric is refused (NotSymmetric)."""
    mats = [_matrix(c, where) for c in coeffs]
    if any(c.shape != (len(mats[0]),) * 2 for c in mats):
        raise SchemaError(f"{where}: coefficients must be square matrices of "
                          "one size", path=where)
    sl.check_symmetric(np.stack(mats))

    def f(ss):
        acc = np.zeros((len(ss),) + mats[0].shape)
        sk = np.ones_like(ss)[:, None, None]
        for c in mats:
            acc = acc + sk * c
            sk = sk * ss[:, None, None]
        return 0.5 * (acc + np.swapaxes(acc, 1, 2))

    return f


@_schema_checked
def parse_path(obj, where):
    a, b = (_finite(x, where) for x in _need(obj, "interval", where))
    typ = _need(obj, "type", where)
    if typ == "constant":
        return lp.constant_lagrangian_path(
            parse_frame(_need(obj, "frame", where), where), a, b)
    if typ == "rotation":
        theta = _poly_eval(_need(_need(obj, "theta", where), "poly", where), where)
        base = parse_frame(_need(obj, "base", where), where)
        return lp.rotation_path(theta, base, a, b)
    if typ == "graph":
        B = _matrix_poly_eval(_need(_need(obj, "B", where), "poly", where), where)
        return lp.graph_path(B, a, b)
    if typ == "fundamental":
        if not (0.0 <= a <= 1.0 and 0.0 <= b <= 1.0):
            raise SchemaError(f"{where}: a fundamental path lives on [0, 1], "
                              f"got interval [{a}, {b}]", path=where)
        sigma = parse_sigma(_need(obj, "sigma", where), where)
        base = parse_frame(_need(obj, "base", where), where)
        return lp.fundamental_image_path(sl.FundamentalFlow(sigma), base, a, b)
    if typ == "sampled":
        samples = [(_finite(s["s"], where), parse_frame(s["frame"], where))
                   for s in _need(obj, "samples", where)]
        return lp.sampled_path(samples, a, b)
    raise SchemaError(f"{where}: unknown path type {typ!r}", path=where, found=typ)


@_schema_checked
def parse_operator(doc, where="operator"):
    n = int(_need(doc, "n", where))
    sigma = parse_sigma(_need(doc, "sigma", where), where)
    frames = _need(doc, "boundary", where)
    if len(frames) != 2:
        raise SchemaError(f"{where}: boundary needs two frames", path=where)
    L0 = parse_frame(frames[0], where)
    L1 = parse_frame(frames[1], where)
    from .spectrum import AsymptoticOperator
    return AsymptoticOperator(n=n, sigma=sigma, boundary=(L0, L1))


def _laurent_coeff(c, where):
    if isinstance(c, dict):
        try:
            return LaurentPoly.make(Z2, {int(k): int(v) for k, v in c.items()})
        except (TypeError, ValueError):
            raise SchemaError(f"{where}: Laurent coefficient must map "
                              "integer exponents to integers", path=where)
    return LaurentPoly.make(Z2, {0: int(c)})


@_schema_checked
def parse_complex(doc, where="complex"):
    ring = _need(doc, "ring", where)
    if ring not in (Z2, Z, L2):
        raise SchemaError(f"{where}: ring must be Z2, Z or L2", found=ring)
    N = int(doc.get("N", 0))
    gens = [(g["name"], int(g["deg2"])) for g in _need(doc, "generators", where)]
    index = {nm: i for i, (nm, _) in enumerate(gens)}
    boundary = {}
    for arrow in doc.get("boundary", []):
        src = _need(arrow, "from", where)
        dst = _need(arrow, "to", where)
        if src not in index or dst not in index:
            raise SchemaError(f"{where}: arrow {src}->{dst} references unknown "
                              "generators", path=where)
        c = _need(arrow, "coeff", where)
        col = boundary.setdefault(index[src], {})
        if ring == L2:
            col[index[dst]] = _laurent_coeff(c, where)
        else:
            col[index[dst]] = int(c)
    return GradedFreeComplex.build(ring, gens, boundary, N=N,
                                   require_graded=bool(doc.get("graded", True)))


@_schema_checked
def parse_morse(doc, where="morse"):
    cps = [(c["name"], int(c["index"]))
           for c in _need(doc, "critical_points", where)]
    trs = []
    for t in doc.get("trajectories", []):
        trs.append((t["from"], t["to"], int(t["sign"]), t.get("transport")))
    ls = {k: np.asarray(v, dtype=int)
          for k, v in (doc.get("local_system") or {}).items()}
    return ch.MorseData.build(cps, trs, ls)


@_schema_checked
def parse_pearl(doc, where="pearl"):
    ctx_doc = _need(doc, "context", where)
    ctx = ch.MonotoneContext(tau=float(_need(ctx_doc, "tau", where)),
                             N=int(_need(ctx_doc, "N", where)))
    comps = []
    for c in _need(doc, "components", where):
        morse = parse_morse(c["morse"], where) if c.get("morse") else None
        comps.append(ch.ComponentDatum.build(
            name=_need(c, "name", where), dim=int(_need(c, "dim", where)),
            action=float(_need(c, "action", where)),
            mu2=int(_need(c, "mu2", where)),
            betti=_need(c, "betti", where), morse=morse, ctx=ctx))
    cascades = []
    for k in doc.get("cascades", []):
        maslov = float(k["maslov2"]) / 2.0 if "maslov2" in k else float(k["maslov"])
        cascades.append((k["from"], k["to"], int(k.get("sign", 1)),
                         maslov, float(k["area"])))
    return ch.PearlData.build(ctx, comps, cascades,
                              normalize=bool(doc.get("normalize", True)))


@_schema_checked
def parse_intersection(doc, where="intersection"):
    N = int(_need(doc, "N", where))
    if N < 1:
        raise SchemaError(f"{where}: N must be a positive integer", path=where,
                          found=N)
    comps = []
    for c in _need(doc, "components", where):
        dim, betti = c.get("dim"), c.get("betti")
        comps.append({
            "name": _need(c, "name", where),
            "dim": None if dim is None else int(dim),
            "betti": None if betti is None else [int(b) for b in betti],
            "mu": int(c.get("mu", 0)),
            "action_rank": int(c.get("action_rank", 1)),
        })
    if not comps:
        raise SchemaError(f"{where}: needs at least one component", path=where)
    return {"N": N, "components": comps,
            "period": int(doc.get("period", 0)) or None}
