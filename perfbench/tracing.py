"""Span tracing of the floerss layers, installed from outside the package.

``Tracer.install()`` replaces each layer's public functions with span
wrappers in every module that binds them (``homology`` imported into
``chain`` and ``cli`` is the same object and is patched in all three), and
puts count-only hooks on the per-sample ``__call__`` methods.  Each span
keeps its name, job, start, end and parent; spans stay in memory and are
written by ``dump`` when the run ends.  ``uninstall()`` restores every
binding.
"""

import json
import sys
from time import perf_counter

JOB = "job"

# metric name -> (module, qualified names) of the wrapped functions
LAYERS = {
    "symplin.flow_build": ("symplin", ["FundamentalFlow.__init__"]),
    "symplin.flow_query": ("symplin", ["FundamentalFlow.__call__"]),
    "symplin.fundamental_solution": ("symplin", ["fundamental_solution"]),
    "symplin.angles": ("symplin", ["principal_angle_sines", "max_principal_angle_sin",
                                   "min_principal_angle_sin", "intersection_dim",
                                   "intersection_basis"]),
    "symplin.frames": ("symplin", ["validate_lagrangian", "apply_matrix",
                                   "transform_frame", "rotate_frame",
                                   "graph_lagrangian"]),
    "spectrum.eigenvalues": ("spectrum", ["eigenvalues"]),
    "spectrum.kernel_dim": ("spectrum", ["kernel_dim"]),
    "spectrum.fredholm_index": ("spectrum", ["fredholm_index"]),
    "lagpath.rs_index": ("lagpath", ["rs_index"]),
    "lagpath.find_crossings": ("lagpath", ["find_crossings"]),
    "lagpath.crossing_form": ("lagpath", ["crossing_form"]),
    "novikov.homology": ("novikov", ["homology"]),
    "novikov.smith_diagonalize": ("novikov", ["smith_diagonalize"]),
    "gf2": ("gf2", ["asgf2", "rref", "rank", "kernel", "column_space", "solve",
                    "in_span", "sum_basis", "complement_in", "coordinates_mod"]),
    "specseq.page": ("specseq", ["page"]),
    "specseq.e_infinity": ("specseq", ["e_infinity"]),
    "specseq.filtration": ("specseq", ["novikov_filtration", "action_filtration"]),
    "chain.pearl": ("chain", ["PearlData.build", "ComponentDatum.build",
                              "pearl_complex", "local_pearl_complex"]),
    "chain.morse": ("chain", ["MorseData.build", "morse_complex"]),
    "obstruct.verdicts": ("obstruct", ["displaceable_constraints", "pozniak",
                                       "quantum_case_analysis",
                                       "possible_differentials"]),
    "schemas.parse": ("schemas", ["check_header", "parse_frame", "parse_sigma",
                                  "parse_path", "parse_operator", "parse_complex",
                                  "parse_morse", "parse_pearl",
                                  "parse_intersection"]),
    "cli.emit": ("cli", ["emit"]),
}

# count-only hooks: metric name -> (module, class) whose __call__ is counted
COUNTED = {
    "symplin.sigma_evals": ("symplin", "SymmetricPath"),
    "lagpath.path_evals": ("lagpath", "LagrangianPath"),
}


# work counts reported as they are
COUNTS = ("symplin.sigma_evals", "lagpath.path_evals", "spectrum.eigenvalues_found",
          "lagpath.crossings", "lagpath.refusals", "specseq.filtered_generators")


def _result_counts(name, result, counts):
    """Work sizes read off a layer's return value."""
    if name == "spectrum.eigenvalues":
        counts["spectrum.eigenvalues_found"] += len(result.eigenvalues)
    elif name == "lagpath.find_crossings":
        counts["lagpath.crossings"] += len(result)
    elif name == "specseq.filtration":
        counts["specseq.filtered_generators"] += result.size
    elif name == "specseq.e_infinity":
        counts["specseq.collapse_r_sum"] += result[1]


class Tracer:
    def __init__(self, package):
        self.package = package
        self.error_base = sys.modules[package + ".errors"].FloerssError
        self.names = []          # span names, indexed by id
        self.name_id = {}
        self.spans = []          # [name_id, job, start, end, parent]
        self.stack = []          # [span index, child time]
        self.agg = {}            # name -> [calls, total s, self s]
        self.counts = dict.fromkeys(COUNTS + ("specseq.collapse_r_sum",), 0)
        self.refusals = {}
        self.job = -1
        self._undo = []

    # -- spans ---------------------------------------------------------------

    def span(self, name, fn):
        nid = self.name_id.setdefault(name, len(self.name_id))
        if nid == len(self.names):
            self.names.append(name)
        self.agg.setdefault(name, [0, 0.0, 0.0])
        layer = name.split(".")[0]

        def wrapper(*args, **kwargs):
            parent = self.stack[-1][0] if self.stack else -1
            idx = len(self.spans)
            self.spans.append([nid, self.job, 0.0, 0.0, parent])
            self.stack.append([idx, 0.0])
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except self.error_base as exc:
                if layer == "lagpath" and (parent < 0 or not self.names[
                        self.spans[parent][0]].startswith("lagpath")):
                    self.counts["lagpath.refusals"] += 1
                    key = type(exc).__name__
                    self.refusals[key] = self.refusals.get(key, 0) + 1
                raise
            else:
                _result_counts(name, result, self.counts)
                return result
            finally:
                end = perf_counter()
                _, child = self.stack.pop()
                dur = end - start
                rec = self.spans[idx]
                rec[2], rec[3] = start, end
                agg = self.agg[name]
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - child
                if self.stack:
                    self.stack[-1][1] += dur

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def run_job(self, job_index, fn, *args):
        """Run one job under a root span named ``job``."""
        self.job = job_index
        return self.span(JOB, fn)(*args)

    # -- installation ----------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        mods = {k: v for k, v in sys.modules.items()
                if k == self.package or k.startswith(self.package + ".")}
        for name, (modname, quals) in LAYERS.items():
            mod = mods[f"{self.package}.{modname}"]
            for qual in quals:
                if "." in qual:
                    cls_name, attr = qual.split(".")
                    cls = getattr(mod, cls_name)
                    raw = cls.__dict__[attr]
                    if isinstance(raw, staticmethod):
                        self._set(cls, attr, staticmethod(self.span(name, raw.__func__)))
                    else:
                        self._set(cls, attr, self.span(name, raw))
                    continue
                orig = getattr(mod, qual)
                wrapped = self.span(name, orig)
                # every module-level binding of the same function object
                for m in mods.values():
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            self._set(m, attr, wrapped)
        for name, (modname, cls_name) in COUNTED.items():
            cls = getattr(mods[f"{self.package}.{modname}"], cls_name)
            orig = cls.__dict__["__call__"]
            counts = self.counts

            def counted(obj, *args, _orig=orig, _name=name, **kwargs):
                counts[_name] += 1
                return _orig(obj, *args, **kwargs)

            self._set(cls, "__call__", counted)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results -----------------------------------------------------------------

    def metrics(self):
        """Per-layer metrics: calls and self time per layer, plus counts."""
        out = {}
        for name, (calls, _, self_s) in self.agg.items():
            if name == JOB:
                continue
            out[f"{name}.calls"] = calls
            out[f"{name}.self_ms"] = 1e3 * self_s
        c = self.counts
        for k in COUNTS:
            out[k] = c[k]
        pages = self.agg["specseq.page"][0]
        out["specseq.useful_page_frac"] = (c["specseq.collapse_r_sum"] / pages
                                           if pages else 0.0)
        return out

    def balance(self):
        """(sum of all self times, sum of job times), in seconds: the layer
        self times plus the untraced remainder (the job span's own self
        time) must add up to the traced job time."""
        job_total = self.agg[JOB][1] if JOB in self.agg else 0.0
        self_total = sum(a[2] for a in self.agg.values())
        return self_total, job_total

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "job", "start_s", "end_s", "parent"],
                       "names": self.names,
                       "spans": [[n, j, round(s, 7), round(e, 7), p]
                                 for n, j, s, e, p in self.spans]}, fh)
