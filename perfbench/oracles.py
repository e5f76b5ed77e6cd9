"""Per-job answer checks against the exact values recorded by ``gen.py``.

``check(expect, answer)`` returns None when the CLI's JSON answer agrees
with the construction, else a short reason.  Nothing here imports floerss.
"""

import math
from fractions import Fraction

PI = math.pi


def _frac(x):
    return Fraction(x["num"], x["den"])


def _spectrum(e, out):
    W, eps = e["window"], e["eps"]
    tol = eps + 1e-6
    clusters = []
    for g in e["gammas"]:
        for k in range(-5, 6):
            r = g + k * PI
            if abs(r) > W + tol:
                continue
            for c in clusters:
                if abs(c[0] - r) < 1e-9:
                    c[1] += 1
                    break
            else:
                clusters.append([r, 1])
    got = [(x["rho"], x["multiplicity"]) for x in out["eigenvalues"]]
    for rho, _ in got:
        if not any(abs(rho - r) <= tol for r, _ in clusters):
            return f"eigenvalue {rho:.9g} not in the exact spectrum"
    for r, m in clusters:
        if abs(r) > W - tol - 1e-3:
            continue   # at the window edge: reporting it is optional
        near = [mm for rho, mm in got if abs(rho - r) <= tol]
        if len(near) != 1 or near[0] != m:
            return f"eigenvalue {r:.9g} (multiplicity {m}) reported as {near}"
    kernel = sum(m for r, m in clusters if abs(r) < 1e-9)
    if out["kernel_dim"] != kernel:
        return f"kernel_dim {out['kernel_dim']} != {kernel}"
    nonzero = [abs(r) for r, _ in clusters if abs(r) >= 1e-9]
    gap = min(nonzero) if nonzero else None
    if gap is None or out["gap"] is None:
        return None if gap is out["gap"] else f"gap {out['gap']} != {gap}"
    if abs(out["gap"] - gap) > tol:
        return f"gap {out['gap']:.9g} != {gap:.9g}"
    return None


def _rs_index(e, out):
    if 2 * _frac(out["rs_index"]) != e["mu2"]:
        return f"rs_index {_frac(out['rs_index'])} != {Fraction(e['mu2'], 2)}"
    return None


def _viterbo(e, out):
    mu = _frac(out["viterbo_index"])
    if 2 * mu != e["mu2"]:
        return f"viterbo {mu} != {Fraction(e['mu2'], 2)}"
    if (2 * mu + e["dm"] + e["dp"]) % 2:
        return "2 mu + dim C- + dim C+ is odd"
    return None


def _maslov(e, out):
    return None if out["maslov"] == e["value"] else \
        f"maslov {out['maslov']} != {e['value']}"


def _index_formula(e, out):
    return None if 2 * out["index"] == e["index2"] else \
        f"index {out['index']} != {Fraction(e['index2'], 2)}"


def _laurent_bits(text):
    """'1 + l + l^3' -> bitmask with the lowest exponent shifted to 0."""
    exps = []
    for term in text.split(" + "):
        term = term.strip()
        if term == "1":
            exps.append(0)
        elif term == "l":
            exps.append(1)
        elif term.startswith("l^"):
            exps.append(int(term[2:]))
        else:
            raise ValueError(f"unexpected Laurent term {term!r}")
    lo = min(exps)
    return sum(1 << (x - lo) for x in exps)


def _homology(e, out):
    if e["ring"] == "L2":
        if out["free_rank"] != e["free_rank"]:
            return f"free rank {out['free_rank']} != {e['free_rank']}"
        got = sorted(_laurent_bits(t) for t in out["torsion"])
        if got != sorted(e["torsion"]):
            return f"torsion {out['torsion']} != {e['torsion']}"
        return None
    if out["by_degree"] != e["by_degree"]:
        return f"homology {out['by_degree']} != {e['by_degree']}"
    return None


def _ss(e, out):
    if out["convergence_ok"] is not True:
        return "convergence_ok is false"
    if "homology" in e:
        total = {}
        for key, v in out["einf_dims"].items():
            p, q = (int(x) for x in key.strip("()").split(","))
            total[p + q] = total.get(p + q, 0) + v
        want = {int(m): b for m, b in e["homology"].items() if b}
        if {m: v for m, v in total.items() if v} != want:
            return f"E^inf by degree {total} != homology {want}"
    return None


def _verdict(e, out):
    if out["verdict"] != e["verdict"]:
        return f"verdict {out['verdict']} != {e['verdict']}"
    if e["forced_isos"] is not None and \
            sorted(map(tuple, out["forced_isos"])) != sorted(map(tuple, e["forced_isos"])):
        return f"forced isos {out['forced_isos']} != {e['forced_isos']}"
    return None


def _pozniak(e, out):
    return None if out["hf_betti"] == e["hf_betti"] else \
        f"HF betti {out['hf_betti']} != component betti {e['hf_betti']}"


def _quantum_cases(e, out):
    return None if out["profiles"] == e["profiles"] else \
        f"profiles {out['profiles']} != {e['profiles']}"


CHECKS = {
    "spectrum": _spectrum, "rs_index": _rs_index, "viterbo": _viterbo,
    "maslov": _maslov, "index_formula": _index_formula,
    "homology": _homology, "ss": _ss, "verdict": _verdict,
    "pozniak": _pozniak, "quantum_cases": _quantum_cases,
}


def check(expect, answer):
    try:
        return CHECKS[expect["check"]](expect, answer)
    except (KeyError, TypeError, ValueError) as exc:
        return f"malformed answer: {type(exc).__name__}: {exc}"
