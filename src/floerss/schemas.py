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

from .errors import FloerssError, SchemaError
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
        return sl.poly_path(_coefficients(obj["poly"], _matrix, where))
    raise SchemaError(f"{where}: need 'constant' or 'poly'", path=where)


def _coefficients(coeffs, convert, where):
    """The coefficients of a polynomial, each converted by convert; an empty
    coefficient list is refused."""
    cs = [convert(c, where) for c in coeffs]
    if not cs:
        raise SchemaError(f"{where}: a polynomial needs at least one coefficient",
                          path=where)
    return cs


def _poly_eval(coeffs, where):
    """ss -> (m,) stack of the polynomial sum_k coeffs[k] s^k."""
    cs = _coefficients(coeffs, _finite, where)
    return lambda ss: sl.poly_values(cs, ss)


def _matrix_poly_eval(coeffs, where):
    """ss -> (m, n, n) stack of the symmetric part of sum_k coeffs[k] s^k;
    a coefficient that is not symmetric is refused (NotSymmetric)."""
    mats = _coefficients(coeffs, _matrix, where)
    if any(c.shape != (len(mats[0]),) * 2 for c in mats):
        raise SchemaError(f"{where}: coefficients must be square matrices of "
                          "one size", path=where)
    sl.check_symmetric(np.stack(mats), "B")

    def f(ss):
        acc = sl.poly_values(mats, ss)
        return 0.5 * (acc + np.swapaxes(acc, 1, 2))

    return f


def _samples(items, where):
    """The (s, frame) samples of a sampled path, every frame from one stacked
    ``validate_lagrangian``.  Samples that are not one (k, 2n, n) stack of
    finite numbers with finite s, or whose stack holds a frame that is not
    Lagrangian, are parsed again one at a time in document order, so that
    the first bad sample raises the error its own ``parse_frame`` raises."""
    try:
        ss = np.array([item["s"] for item in items], dtype=float)
        M = np.array([item["frame"] for item in items], dtype=float)
        if (ss.ndim == 1 and M.ndim == 3 and M.size and np.isfinite(ss).all()
                and np.isfinite(M).all()):
            frames = sl.validate_lagrangian(M).frame
            return [(s, sl.LagrangianFrame(n=M.shape[-1], frame=F))
                    for s, F in zip(ss.tolist(), frames)]
    except (FloerssError,) + _MALFORMED:
        pass
    return [(_finite(item["s"], where), parse_frame(item["frame"], where))
            for item in items]


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
        return lp.sampled_path(_samples(_need(obj, "samples", where), where), a, b)
    raise SchemaError(f"{where}: unknown path type {typ!r}", path=where, found=typ)


@_schema_checked
def parse_operator(doc):
    where = "operator"
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
            return LaurentPoly.make({int(k): int(v) for k, v in c.items()})
        except (TypeError, ValueError):
            raise SchemaError(f"{where}: Laurent coefficient must map "
                              "integer exponents to integers", path=where)
    return LaurentPoly.make({0: int(c)})


def parse_ring(tag, where):
    """A ring tag of ``novikov``; tuple membership compares with ==, so any
    JSON value is refused without being hashed."""
    if tag not in (Z2, Z, L2):
        raise SchemaError(f"{where}: ring must be Z2, Z or L2", found=tag)
    return tag


@_schema_checked
def parse_complex(doc):
    where = "complex"
    ring = parse_ring(_need(doc, "ring", where), where)
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
        c = _laurent_coeff(c, where) if ring == L2 else int(c)
        # repeated arrows add up, as the trajectories of a Morse complex do
        col = boundary.setdefault(index[src], {})
        col[index[dst]] = col[index[dst]] + c if index[dst] in col else c
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
def parse_intersection(doc):
    where = "intersection"
    N = int(_need(doc, "N", where))
    if N < 1:
        raise SchemaError(f"{where}: N must be a positive integer", path=where,
                          found=N)
    comps = []
    for i, c in enumerate(_need(doc, "components", where)):
        at = f"{where}.components[{i}]"
        dim = None if c.get("dim") is None else int(c["dim"])
        betti = None if c.get("betti") is None else [int(b) for b in c["betti"]]
        found = {"dim": dim, "betti": betti}
        if (dim or 0) < 0 or min(betti or [0]) < 0:
            raise SchemaError(f"{at}: dim and Betti numbers must be nonnegative",
                              path=at, found=found)
        if dim is not None and betti is not None and len(betti) != dim + 1:
            raise SchemaError(f"{at}: dim {dim} needs {dim + 1} Betti numbers, "
                              f"got {len(betti)}", path=at, found=found)
        comps.append({"name": _need(c, "name", at), "dim": dim, "betti": betti,
                      "mu": int(c.get("mu", 0)),
                      "action_rank": int(c.get("action_rank", 1))})
    if not comps:
        raise SchemaError(f"{where}: needs at least one component", path=where)
    period = doc.get("period")
    return {"N": N, "components": comps,
            "period": None if period is None else int(period)}
