"""Command-line surface: one job per invocation, deterministic output.

Exit codes: 0 success, 1 domain error (machine-readable error object on
stderr), 2 schema error.
"""

import argparse
import functools
import json
import sys
from fractions import Fraction

import numpy as np

from .errors import FloerssError, SchemaError
from . import schemas
from . import lagpath as lp
from . import spectrum as sp
from . import specseq as ss
from . import obstruct as ob
from . import chain as ch
from .novikov import homology, Z2


def _num(x):
    """Deterministic number formatting for the text renderer."""
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _jsonable(x):
    if isinstance(x, Fraction):
        return {"num": x.numerator, "den": x.denominator}
    if isinstance(x, (np.integer,)):
        return int(x)
    if isinstance(x, (np.floating,)):
        return float(x)
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


def emit(result, as_json):
    if as_json:
        print(json.dumps(_jsonable(result), sort_keys=True))
        return
    kind = result.get("kind", "")
    lines = []
    if kind == "page_table":
        lines.extend(render_page_table(result["dims"]))
        for k, v in sorted(result.items()):
            if k not in ("kind", "dims"):
                lines.append(f"{k}: {_num(v) if not isinstance(v, dict) else json.dumps(_jsonable(v), sort_keys=True)}")
    else:
        for k, v in sorted(result.items()):
            if k == "kind":
                continue
            if isinstance(v, (dict, list, tuple)):
                lines.append(f"{k}: {json.dumps(_jsonable(v), sort_keys=True)}")
            else:
                lines.append(f"{k}: {_num(v)}")
    print("\n".join(lines))


def render_page_table(dims):
    """Aligned (p, q) grid with a dot for zero entries."""
    if not dims:
        return ["(empty page)"]
    items = {tuple(map(int, k.strip("()").split(","))) if isinstance(k, str)
             else k: v for k, v in dims.items()}
    ps = sorted({p for p, _ in items})
    qs = sorted({q for _, q in items}, reverse=True)
    width = max(3, max(len(str(v)) for v in items.values()) + 1)
    head = "q\\p |" + "".join(f"{p:>{width}}" for p in ps)
    out = [head, "-" * len(head)]
    for q in qs:
        row = f"{q:>4}|"
        for p in ps:
            v = items.get((p, q), 0)
            row += f"{str(v) if v else '.':>{width}}"
        out.append(row)
    return out


def _path(doc, key, where):
    return schemas.parse_path(schemas._need(doc, key, where), key)


def _parse_index_formula(doc):
    """((sigma, L0, L1) of plus, the same of minus, (F0, F1))."""
    need = schemas._need
    sides = {s: need(doc, s, "index_formula") for s in ("plus", "minus")}
    sigmas = {s: schemas.parse_sigma(need(d, "sigma", s), f"{s}.sigma")
              for s, d in sides.items()}
    frames = {(s, k): schemas.parse_frame(need(d, k, s), f"{s}.{k}")
              for s, d in sides.items() for k in ("L0", "L1")}
    F = tuple(_path(doc, k, "index_formula") for k in ("F0", "F1"))
    return tuple((sigmas[s], frames[s, "L0"], frames[s, "L1"])
                 for s in sides) + (F,)


def _parse_ss(doc):
    """(pearl, filtration, indexing, lambda window or None) of an ss document,
    refusing other choices and a lambda_window not a pair of integers."""
    pearl = schemas.parse_pearl(schemas._need(doc, "pearl", "ss"), "pearl")
    for key, allowed in (("filtration", ("novikov", "action")),
                         ("indexing", ("plain", "stretched"))):
        if doc.get(key, allowed[0]) not in allowed:
            raise SchemaError(f"{key} must be one of {allowed}", found=doc[key])
    w = doc.get("lambda_window")
    if w is not None and not (isinstance(w, list) and len(w) == 2
                              and all(type(x) is int for x in w)):
        raise SchemaError("lambda_window must be a pair of integers", found=w)
    return (pearl, doc.get("filtration", "novikov"), doc.get("indexing", "plain"),
            None if w is None else tuple(w))


# kind -> the parse code of its commands, which ``validate`` runs alone; a
# bare "pearl" document is validated like the pearl of an ss document
PARSERS = {
    "rs_index": lambda d: [_path(d, k, "rs_index") for k in ("F0", "F1")],
    "maslov": lambda d: (_path(d, "path", "maslov"), schemas.parse_frame(
        schemas._need(d, "ref", "maslov"), "ref")),
    "viterbo": lambda d: [_path(d, k, "viterbo") for k in ("F0", "F1", "Fm", "Fp")],
    "spectrum": schemas.parse_operator,
    "index_formula": _parse_index_formula,
    "complex": schemas.parse_complex,
    "morse": lambda d: (schemas.parse_morse(d),
                        schemas.parse_ring(d.get("ring", Z2), "morse")),
    "pearl": lambda d: schemas.parse_pearl(d.get("pearl", d)),
    "ss": _parse_ss,
    "intersection": schemas.parse_intersection,
}


def cmd_rs_index(doc, args):
    F0, F1 = PARSERS["rs_index"](doc)
    grid = schemas.option(doc, "grid", int, args.grid)
    mu = lp.rs_index(F0, F1, grid=grid)
    return {"kind": "rs_index", "rs_index": mu, "value": float(mu)}


def cmd_maslov(doc, args):
    path, ref = PARSERS["maslov"](doc)
    m = lp.maslov_loop(path, ref, grid=schemas.option(doc, "grid", int, args.grid))
    return {"kind": "maslov", "maslov": m}


def cmd_viterbo(doc, args):
    mu = lp.viterbo_index(*PARSERS["viterbo"](doc),
                          grid=schemas.option(doc, "grid", int, args.grid))
    return {"kind": "viterbo", "viterbo_index": mu, "value": float(mu)}


def cmd_spectrum(doc, args):
    A = schemas.parse_operator(doc)
    window = schemas.option(doc, "window", float, args.window)
    grid = schemas.option(doc, "grid", int, args.grid)
    rep = sp.eigenvalues(A, window=window, grid=grid)
    return {
        "kind": "spectrum",
        "eigenvalues": [{"rho": r, "multiplicity": m} for r, m in rep.eigenvalues],
        "gap": rep.gap,
        "kernel_dim": rep.kernel_dim,
        "window": list(rep.window),
    }


def cmd_index_formula(doc, args):
    plus, minus, F = _parse_index_formula(doc)
    kernel_dims = schemas.option(doc, "kernel_dims", tuple)
    idx = sp.fredholm_index(plus, minus, F, kernel_dims=kernel_dims)
    return {"kind": "index_formula", "index": idx}


def cmd_homology(doc, args):
    C = schemas.parse_complex(doc)
    rep = homology(C)
    return {"kind": "homology", **rep}


def cmd_morse(doc, args):
    C = ch.morse_complex(*PARSERS["morse"](doc))
    rep = homology(C)
    return {"kind": "morse", **rep}


def cmd_ss(doc, args):
    pearl, filtration, indexing, window = PARSERS["ss"](doc)
    if args.lambda_window is not None:
        window = (-args.lambda_window, args.lambda_window)
    if filtration == "novikov":
        fc = ss.novikov_filtration(ch.pearl_complex(pearl), window=window,
                                   indexing=indexing)
    else:
        fc = ss.action_filtration(ch.local_pearl_complex(pearl), pearl)
    r = schemas.option(doc, "page", int)
    r = 1 if r is None else r
    pg = ss.barcode(fc).page(r)
    final, collapse_r, conv = ss.e_infinity(fc)
    return {
        "kind": "page_table",
        "dims": {str(k): v for k, v in pg.dims().items()},
        "page": r,
        "einf_dims": {str(k): v for k, v in final.dims().items()},
        "collapse_r": collapse_r,
        "convergence_ok": conv,
    }


def _displaceable_verdict(datum):
    comps = datum["components"]
    if len(comps) != 1 or comps[0]["betti"] is None:
        raise SchemaError("displaceable check needs one component with betti")
    v = ob.displaceable_constraints(comps[0]["betti"], datum["N"])
    return {"kind": "verdict", "verdict": v.kind,
            "forced_isos": list(v.forced_isos),
            "witness": [list(w) for w in v.witness]}


def _quantum_cases(datum, period, max_rank):
    res = ob.quantum_case_analysis(datum["components"], datum["N"], period,
                                   max_rank=max_rank)
    return {"kind": "quantum_cases",
            "profiles": [{"dim": d, "betti": list(b)} for d, b in res.profiles]}


def _period(datum, args):
    """The flag's period if given (0 included), else the document's."""
    return (args.quantum_period if args.quantum_period is not None
            else datum["period"])


def cmd_intersection(doc, args):
    datum = schemas.parse_intersection(doc)
    if args.displaceable:
        return _displaceable_verdict(datum)
    period = _period(datum, args)
    if period is not None:
        return _quantum_cases(datum, period, args.max_rank)
    comp = datum["components"][0]
    if comp["betti"] is None:
        raise SchemaError("intersection needs a component with betti")
    shape = ob.PageShape.from_betti(comp["betti"], datum["N"],
                                    offset=comp.get("mu", 0))
    return {"kind": "intersection",
            "possible_differentials": ob.possible_differentials(shape)}


def cmd_displace_check(doc, args):
    return _displaceable_verdict(schemas.parse_intersection(doc))


def cmd_pozniak(doc, args):
    datum = schemas.parse_intersection(doc)
    comp = datum["components"][0]
    if comp["betti"] is None:
        raise SchemaError("pozniak needs a component with betti")
    table = ob.pozniak(comp["betti"], datum["N"])
    return {"kind": "pozniak", "hf_betti": {str(k): v for k, v in table.items()}}


def cmd_quantum_cases(doc, args):
    datum = schemas.parse_intersection(doc)
    period = _period(datum, args)
    if period is None:
        raise SchemaError("quantum-cases needs a period (flag or file)")
    return _quantum_cases(datum, period, args.max_rank)


def cmd_validate(doc, args):
    kind = doc.get("kind")
    # a list or dict kind would not hash
    if not isinstance(kind, str) or kind not in PARSERS:
        raise SchemaError(f"unknown kind {kind!r}", found=kind,
                          expected=sorted(PARSERS))
    PARSERS[kind](doc)
    return {"kind": "validate", "ok": True, "validated_kind": kind}


COMMANDS = {
    "rs-index": ("rs_index", cmd_rs_index),
    "maslov": ("maslov", cmd_maslov),
    "viterbo": ("viterbo", cmd_viterbo),
    "spectrum": ("spectrum", cmd_spectrum),
    "index-formula": ("index_formula", cmd_index_formula),
    "homology": ("complex", cmd_homology),
    "morse": ("morse", cmd_morse),
    "ss": ("ss", cmd_ss),
    "intersection": ("intersection", cmd_intersection),
    "displace-check": ("intersection", cmd_displace_check),
    "pozniak": ("intersection", cmd_pozniak),
    "quantum-cases": ("intersection", cmd_quantum_cases),
    "validate": (None, cmd_validate),
}


@functools.cache
def build_parser():
    """The argument parser, built once per process; parse_args keeps no
    state between calls."""
    ap = argparse.ArgumentParser(
        prog="floerss",
        description="Lagrangian-path indices, asymptotic spectra, pearl "
                    "complexes and their spectral sequences")
    ap.add_argument("command", choices=sorted(COMMANDS))
    ap.add_argument("input", help="JSON input file (schema floerss/1)")
    ap.add_argument("--json", action="store_true", dest="as_json")
    ap.add_argument("--window", type=float, default=None)
    ap.add_argument("--grid", type=int, default=None)
    ap.add_argument("--lambda-window", type=int, default=None,
                    dest="lambda_window")
    ap.add_argument("--displaceable", action="store_true")
    ap.add_argument("--quantum-period", type=int, default=None,
                    dest="quantum_period")
    ap.add_argument("--max-rank", type=int, default=None, dest="max_rank")
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    expected_kind, fn = COMMANDS[args.command]
    try:
        with open(args.input) as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise json.JSONDecodeError("top level must be an object", "", 0)
    except (OSError, json.JSONDecodeError) as exc:
        print(json.dumps({"error": "SchemaError", "message": str(exc)}),
              file=sys.stderr)
        return 2
    try:
        # overflow and NaN are refused by the typed checks, never by warnings
        with np.errstate(all="ignore"):
            schemas.check_header(doc, expected_kind)
            result = fn(doc, args)
    except SchemaError as exc:
        print(json.dumps(_jsonable(exc.as_dict()), sort_keys=True),
              file=sys.stderr)
        return 2
    except FloerssError as exc:
        print(json.dumps(_jsonable(exc.as_dict()), sort_keys=True),
              file=sys.stderr)
        return 1
    emit(result, args.as_json)
    return 0


if __name__ == "__main__":
    sys.exit(main())
