"""floerss benchmark: seeded CLI jobs run in-process, every answer checked.

    python3 perfbench/run.py --workload spectra --seed 1 --seconds 40 --trace 0

Runs from the root of a floerss checkout against its ``src`` tree.  The
jobs of a workload (see ``gen.WORKLOADS``) are generated from the seed,
written as ``floerss/1`` files and run one at a time through
``floerss.cli.main(argv)``: a closed loop with one client, BLAS/OpenMP
threads pinned to 1.  Each answer is checked against the exact value the
generator recorded.

``--trace 0`` runs jobs back to back for ``--seconds`` and reports the
end-to-end metrics.  ``--trace 1`` runs the pool's first ``prefix_jobs``
jobs untraced, then the same jobs with span tracing installed, and reports
the per-layer metrics and the tracing overhead.  The last line of stdout is
one JSON object with keys correct, attempted, failed and metrics; the lines
before it print every metric by name, the stdout digest and the machine.
``--all`` runs the three workloads one after another and prints only the
report lines.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import gen  # noqa: E402
import oracles  # noqa: E402
from tracing import Tracer  # noqa: E402

SETUP_REPEATS = 3


def load_cli():
    """Import floerss.cli from this checkout's src tree, never elsewhere."""
    sys.path.insert(0, SRC)
    import floerss.cli
    pkg = os.path.dirname(os.path.abspath(sys.modules["floerss"].__file__))
    if pkg != os.path.join(SRC, "floerss"):
        raise ImportError(f"floerss imported from {pkg}, not from {SRC}")
    return floerss.cli


def setup(workload, seed):
    """Import the CLI, generate and write the inputs, run the warm-up.

    Returns (cli module, pool, warm-up results, work directory)."""
    cli = load_cli()
    work = os.path.join(ROOT, ".perfbench_work", f"{workload}-{seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    pool = gen.make_pool(workload, seed)
    warm = gen.make_warmup(workload, seed)
    for tag, jobs in (("job", pool), ("warm", warm)):
        for i, job in enumerate(jobs):
            job["path"] = os.path.join(work, f"{tag}-{i:04d}.json")
            with open(job["path"], "w") as fh:
                json.dump(job["doc"], fh)
    warm_results = [run_job(cli.main, job) for job in warm]
    return cli, pool, warm_results, work


def run_job(main, job, runner=None):
    """One CLI job; returns dict(outcome, error, latency_s, stdout, reason).

    outcome: ok | refused (exit 1, typed error on stderr) | failed (exit 2,
    untyped exception or traceback, or an answer its oracle rejects)."""
    argv = [job["cmd"], job["path"]] + job["flags"]
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = runner(main, argv) if runner else main(argv)
    except (Exception, SystemExit) as exc:
        latency = time.perf_counter() - start
        return {"outcome": "failed", "error": type(exc).__name__,
                "latency_s": latency, "stdout": out.getvalue(),
                "reason": f"untyped {type(exc).__name__}: {exc}"}
    latency = time.perf_counter() - start
    res = {"outcome": "failed", "error": None, "latency_s": latency,
           "stdout": out.getvalue(), "reason": None}
    if code == 0:
        try:
            answer = json.loads(res["stdout"])
        except json.JSONDecodeError:
            res["reason"] = "stdout is not JSON"
            return res
        res["reason"] = oracles.check(job["expect"], answer)
        if res["reason"] is None:
            res["outcome"] = "ok"
        return res
    try:
        res["error"] = json.loads(err.getvalue())["error"]
    except (json.JSONDecodeError, KeyError, TypeError):
        res["reason"] = f"exit {code} without a JSON error object"
        return res
    if code == 1:
        res["outcome"] = "refused"
    else:
        res["reason"] = f"exit {code}: {res['error']}"
    return res


def percentile(sorted_vals, q):
    """Nearest-rank percentile and the number of samples beyond it."""
    n = len(sorted_vals)
    k = max(1, math.ceil(q / 100 * n))
    return sorted_vals[k - 1], n - k


def digest(results):
    h = hashlib.sha256()
    for r in results:
        h.update(r["stdout"].encode())
    return h.hexdigest()


def provenance(seed):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "floerss")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "seed": seed, "commit": git_commit(), "src_sha256": h.hexdigest()[:16]}


def git_commit():
    """HEAD of the checkout read from .git, or 'none' outside a git tree."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head[:12]
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()[:12]
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.strip().endswith(ref):
                    return line.split()[0][:12]
    except OSError:
        pass
    return "none"


def measure_setups(workload, seed):
    """Wall time from spawning a fresh process to the end of its set-up
    (import, input generation, warm-up), SETUP_REPEATS times."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--setup-only",
             "--workload", workload, "--seed", str(seed)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT)
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        proc.wait()
        if proc.returncode != 0 or not line.startswith("ready"):
            raise RuntimeError(f"set-up process failed (exit {proc.returncode})")
        times.append(elapsed)
    return times


def summarize(results):
    attempted = len(results)
    failed = [r for r in results if r["outcome"] == "failed"]
    refused = {}
    for r in results:
        if r["outcome"] == "refused":
            refused[r["error"]] = refused.get(r["error"], 0) + 1
    return attempted, failed, refused


def timed_loop(cli, pool, seconds):
    """Jobs back to back until ``seconds`` have passed; the job in flight at
    the deadline runs to its end.  Returns the results and the wall time."""
    results = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        results.append(run_job(cli.main, pool[len(results) % len(pool)]))
    return results, time.perf_counter() - start


def mix_rate(results, cycle):
    """Jobs per second of the workload's fixed mix: positions in the cycle
    over the sum of each position's mean latency.  A plain count over the
    timed window would weigh the kinds of the partial cycle at the deadline
    unevenly (one cheap job more is a whole job more)."""
    by_pos = {}
    for i, r in enumerate(results):
        by_pos.setdefault(i % cycle, []).append(r["latency_s"])
    return len(by_pos) / sum(statistics.fmean(v) for v in by_pos.values())


def workload_run(workload, seed, seconds, trace):
    """Run one workload; returns (report lines, result object)."""
    params = gen.WORKLOADS[workload]
    t0 = time.perf_counter()
    cli, pool, warm, work = setup(workload, seed)
    main_setup = time.perf_counter() - t0
    lines = []
    try:
        setups = None if trace else measure_setups(workload, seed)
        prov = provenance(seed)
        lines.append(f"workload {workload}: {params['why']}")
        lines.append("machine: " + " ".join(f"{k}={v}" for k, v in prov.items()))
        lines.append("loop: closed, 1 client, in-process floerss.cli.main; "
                     + " ".join(f"{v}={os.environ[v]}" for v in
                                ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                 "MKL_NUM_THREADS")))
        K = params["prefix_jobs"]
        if trace:
            metrics, ok, attempted, failed = traced(cli, pool[:K], lines,
                                                    workload, seed)
        else:
            metrics, ok, attempted, failed = untraced(cli, pool, seconds, lines,
                                                      params, setups)
        warm_bad = [r for r in warm if r["outcome"] == "failed"]
        for r in warm_bad:
            lines.append(f"warm-up job FAILED: {r['reason']}")
        lines.append(f"set-up of this process: {main_setup:.3f} s")
        result = {"correct": bool(ok and not warm_bad and not failed),
                  "attempted": attempted, "failed": len(failed),
                  "metrics": metrics}
        return lines, result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def untraced(cli, pool, seconds, lines, params, setups):
    results, elapsed = timed_loop(cli, pool, seconds)
    rate = mix_rate(results, len(params["cycle"]))
    attempted, failed, refused = summarize(results)
    lat = sorted(1e3 * r["latency_s"] for r in results)
    q = params["tail_percentile"]
    tail, beyond = percentile(lat, q)
    n_ref = sum(refused.values())
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    K = params["prefix_jobs"]
    metrics = {
        "jobs_per_s": {"value": rate, "unit": "1/s"},
        "job_p50_ms": {"value": statistics.median(lat), "unit": "ms"},
        "job_tail_ms": {"value": tail, "unit": "ms"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
    }
    lines.append(f"metric jobs_per_s = {rate:.6g} 1/s (mix of {len(params['cycle'])} "
                 f"job kinds from {attempted} jobs; {attempted / elapsed:.6g} jobs "
                 f"in {elapsed:.3f} s of wall time; pool of {len(pool)})")
    lines.append(f"metric job_p50_ms = {statistics.median(lat):.6g} ms (n={attempted})")
    lines.append(f"metric job_tail_ms = {tail:.6g} ms (p{q}, n={attempted}, "
                 f"{beyond} samples beyond it)")
    lines.append(f"metric failed_frac = {len(failed) / attempted:.6g} "
                 f"({len(failed)}/{attempted})")
    lines.append(f"metric refused_frac = {n_ref / attempted:.6g} "
                 f"({n_ref}/{attempted}) by error: {json.dumps(refused, sort_keys=True)}")
    lines.append(f"metric setup_s = {statistics.median(setups):.6g} s (median of "
                 f"{len(setups)} fresh processes: "
                 + ", ".join(f"{s:.3f}" for s in setups) + ")")
    lines.append(f"metric peak_rss_mb = {rss:.6g} MB")
    for r in failed[:10]:
        lines.append(f"FAILED job: {r['reason']}")
    if attempted >= K:
        lines.append(f"stdout_sha256 = {digest(results[:K])} (first {K} jobs)")
    else:
        lines.append(f"stdout_sha256 = incomplete ({attempted} of {K} jobs ran)")
    return metrics, True, attempted, failed


def traced(cli, jobs, lines, workload, seed):
    plain, t_plain = [], time.perf_counter()
    for job in jobs:
        plain.append(run_job(cli.main, job))
    t_plain = time.perf_counter() - t_plain
    tracer = Tracer("floerss")
    tracer.install()
    traced_res = []
    try:
        t_traced = time.perf_counter()
        for i, job in enumerate(jobs):
            traced_res.append(run_job(
                cli.main, job, runner=lambda main, argv, i=i: tracer.run_job(i, main, argv)))
        t_traced = time.perf_counter() - t_traced
    finally:
        tracer.uninstall()
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    span_file = os.path.join(out_dir, f"spans-{workload}-{seed}.json")
    tracer.dump(span_file)
    results = plain + traced_res
    attempted, failed, refused = summarize(results)
    values = tracer.metrics()
    self_total, job_total = tracer.balance()
    balanced = abs(self_total - job_total) <= 1e-6 * max(job_total, 1e-9)
    same_out = digest(plain) == digest(traced_res)
    n = len(jobs)
    lines.append(f"traced: {n} jobs untraced in {t_plain:.3f} s "
                 f"({n / t_plain:.6g} jobs/s), the same {n} traced in "
                 f"{t_traced:.3f} s ({n / t_traced:.6g} jobs/s); tracing "
                 f"overhead {t_traced / t_plain - 1:+.1%}")
    lines.append(f"self-time balance: layer self + untraced remainder = "
                 f"{1e3 * self_total:.3f} ms, traced job time = "
                 f"{1e3 * job_total:.3f} ms ({'ok' if balanced else 'MISMATCH'}); "
                 f"untraced remainder {1e3 * tracer.agg['job'][2]:.3f} ms")
    lines.append(f"stdout identical with tracing: {same_out}; "
                 f"stdout_sha256 = {digest(plain)} (first {n} jobs)")
    lines.append(f"lagpath refusals by error: {json.dumps(tracer.refusals, sort_keys=True)}"
                 f"; spans kept: {len(tracer.spans)} -> {os.path.relpath(span_file, ROOT)}")
    for r in failed[:10]:
        lines.append(f"FAILED job: {r['reason']}")
    metrics = {}
    for name, v in sorted(values.items()):
        unit = "ms" if name.endswith("_ms") else \
            "ratio" if name.endswith("_frac") else "count"
        metrics[name] = {"value": v, "unit": unit}
        lines.append(f"metric {name} = {v:.6g} {unit}")
    return metrics, balanced and same_out, attempted, failed


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(gen.WORKLOADS))
    ap.add_argument("--all", action="store_true",
                    help="run every workload and print the report lines")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not args.all and not args.workload:
        ap.error("give --workload or --all")
    try:
        if args.setup_only:
            _, _, _, work = setup(args.workload, args.seed)
            print("ready", flush=True)
            shutil.rmtree(work, ignore_errors=True)
            return 0
        if not args.all:
            lines, result = workload_run(args.workload, args.seed, args.seconds,
                                         args.trace)
            print("\n".join(lines))
            print(json.dumps(result, sort_keys=True))
            return 0
        correct = True
        for name in sorted(gen.WORKLOADS):
            lines, result = workload_run(name, args.seed, args.seconds, args.trace)
            print("\n".join(lines + [f"correct: {result['correct']}", ""]), flush=True)
            correct = correct and result["correct"]
        return 0 if correct else 1
    except (ImportError, OSError, RuntimeError) as exc:
        print(f"benchmark cannot run: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
