#!/usr/bin/env python3
"""Benchmark of the stochmech package: CLI jobs and realizability decisions.

    python3 bench/run.py --workload mc-pair --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 15 --trace 1

Each workload runs in a process of its own, driven by one closed-loop
caller: one job in flight at a time and no extra threads.  CLI jobs go
through ``stochmech.cli.main`` in-process; decision streams call
``stochmech.bell.classical_realizability``.  The run repeats passes over
the workload's jobs for ``--seconds`` (at least two passes), then checks
every output: a wrong or missing output, a non-zero exit code, or a pass
whose data files differ from the first pass counts as a failed operation.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json; ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics.
Human-readable lines come first; the last line of stdout is one JSON
object.  Spans and the run record go to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
MIN_PASSES = 2
SETUP_COLD_STARTS = 3
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import stochmech.cli; "
    "from stochmech.config import load_config; load_config(sys.argv[2])"
)
MEASUREMENT_LIMITS = (
    "no CPU pinning or frequency control; other tenants may share the cores; "
    "RSS only from getrusage of the benchmark's own processes"
)


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, help="a workload name, or 'all'")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, for the smoke test")
    return ap.parse_args()


# --------------------------------------------------------------------------
# run record
# --------------------------------------------------------------------------

def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def run_record(args, passes: int) -> dict:
    import numpy
    import scipy

    blas = {v: os.environ.get(v) for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    try:
        blas["numpy_blas"] = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas["numpy_blas"] = None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "passes": passes,
        "nproc": os.cpu_count(), "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas,
        "commit": _git_commit(), "limits": MEASUREMENT_LIMITS,
        "load": "closed loop, one caller, one job in flight, no extra threads",
    }


# --------------------------------------------------------------------------
# measurement
# --------------------------------------------------------------------------

def measure_setup(config_path: Path, repeats: int) -> float:
    """Median wall time of a fresh interpreter importing stochmech.cli and parsing a config."""
    cmd = [sys.executable, "-c", SETUP_CODE, str(SRC), str(config_path)]
    times = []
    for i in range(repeats + 1):  # the first start fills the bytecode and page caches
        start = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        if i:
            times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_pass(jobs, decisions, pass_dir: Path, configs: dict, cli, bell) -> dict:
    """One pass over the jobs, then the decisions; nothing but the calls is timed."""
    pass_dir.mkdir(parents=True)
    job_ms, runs, decide_ns, results = [], [], [], []
    t0 = time.perf_counter()
    for job in jobs:
        out = pass_dir / (job.name + job.data_ext)
        argv = [job.command[0], "--config", str(configs[job.name]), "--out", str(out), *job.command[1:]]
        buf = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli.main(argv)
        except Exception as exc:  # a crashing job is a failed operation, not the end of the run
            rc = f"{type(exc).__name__}: {exc}"
        job_ms.append((time.perf_counter() - start) * 1e3)
        runs.append((out, rc, buf.getvalue()))
    for E, marginals in decisions:
        start = time.perf_counter_ns()
        try:
            result = bell.classical_realizability(E, marginals)
        except Exception as exc:
            result = exc
        decide_ns.append(time.perf_counter_ns() - start)
        results.append(result)
    return {"wall": time.perf_counter() - t0, "job_ms": job_ms, "runs": runs,
            "decide_ns": decide_ns, "results": results}


def _job_output(job, out: Path, rc, stdout: str):
    """(files, fingerprint) of one job run, or (error, None)."""
    if rc != 0:
        return f"exit {rc}", None
    files = {"stdout": stdout}
    try:
        files["data"] = out.read_bytes()
        for suffix in job.side:
            files[suffix] = Path(str(out) + suffix).read_bytes()
        Path(str(out) + ".meta.json").stat()
    except OSError as exc:
        return f"missing output: {exc}", None
    digest = hashlib.sha256()
    for key in sorted(files):
        digest.update(key.encode() + b"\0" + (files[key].encode() if key == "stdout" else files[key]))
    return files, digest.digest()


def _decision_fingerprint(result):
    if isinstance(result, Exception):
        return None
    cert = None if result.certificate is None else result.certificate.tobytes()
    atoms = None if result.model is None else result.model.atoms
    return (result.feasible, atoms, result.violated, cert)


def _safe_check(check, *args) -> list[str]:
    try:
        return check(*args)
    except Exception as exc:  # malformed output: report it as a failed check
        return [f"check raised {type(exc).__name__}: {exc}"]


def check_outputs(workload, passes, check_decision) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over every operation of every pass."""
    attempted = failed = 0
    problems = []
    for j, job in enumerate(workload.jobs):
        outputs = [_job_output(job, *p["runs"][j]) for p in passes]
        first, first_print = outputs[0]
        found = [first] if first_print is None else _safe_check(job.check, first)
        problems += [f"{job.name}: {msg}" for msg in found]
        for k, (files, fingerprint) in enumerate(outputs):
            attempted += 1
            if found or fingerprint is None or fingerprint != first_print:
                failed += 1
                if not found:
                    problems.append(f"{job.name}: pass {k} output differs from pass 0"
                                    if fingerprint else f"{job.name}: pass {k}: {files}")
    for i, (E, marginals) in enumerate(workload.decisions):
        first = passes[0]["results"][i]
        if isinstance(first, Exception):
            found = [f"raised {type(first).__name__}: {first}"]
        else:
            found = _safe_check(check_decision, E, marginals, first)
        problems += [f"decision {i}: {msg}" for msg in found]
        reference = _decision_fingerprint(first)
        for k, p in enumerate(passes):
            attempted += 1
            fingerprint = _decision_fingerprint(p["results"][i])
            if found or fingerprint is None or fingerprint != reference:
                failed += 1
                if not found:
                    problems.append(f"decision {i}: pass {k} result differs from pass 0")
    return attempted, failed, problems


def _quantile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# --------------------------------------------------------------------------
# entry points
# --------------------------------------------------------------------------

def run_all(args) -> int:
    """Every workload, each in a fresh process; one combined JSON line."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd + (["--smoke"] if args.smoke else []), cwd=ROOT,
                              capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        print(f"== {name}: attempted {result['attempted']}, failed {result['failed']}\n")
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}:{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main() -> int:
    args = parse_args()
    sys.path.insert(0, str(BENCH))
    from workloads import WORKLOADS, check_decision

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        sys.stderr.write(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or all\n")
        return 2
    if not (SRC / "stochmech" / "__init__.py").is_file():
        sys.stderr.write(f"no package source at {SRC / 'stochmech'}; run from a stochmech checkout\n")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    workload = WORKLOADS[args.workload](args.seed, args.smoke)

    work = OUT / f"work-{os.getpid()}"
    try:
        configs = {}
        (work / "config").mkdir(parents=True)
        for job in workload.warmup + workload.jobs:
            configs[job.name] = work / "config" / f"{job.name}.json"
            configs[job.name].write_text(json.dumps(job.config, indent=1))
        metrics = {}
        if not args.trace:
            repeats = 1 if args.smoke else SETUP_COLD_STARTS
            metrics["setup_s"] = measure_setup(configs[workload.jobs[0].name], repeats)

        sys.path.insert(0, str(SRC))
        from stochmech import bell, cli

        if not Path(cli.__file__).resolve().is_relative_to(SRC):
            sys.stderr.write(f"imported stochmech from {cli.__file__}, not from {SRC}\n")
            return 2
        tracer = None
        if args.trace:
            from spans import Tracer, layer_metrics
            tracer = Tracer()
        run_pass(workload.warmup, workload.warmup_decisions, work / "warmup", configs, cli, bell)

        passes, peak_rss_mb = [], None
        start = time.perf_counter()
        while len(passes) < MIN_PASSES or time.perf_counter() - start < args.seconds:
            trace_this = tracer is not None and len(passes) % 2 == 1
            if trace_this:
                tracer.start()
            try:
                result = run_pass(workload.jobs, workload.decisions, work / f"pass{len(passes)}",
                                  configs, cli, bell)
            finally:
                if trace_this:
                    tracer.stop()
            result["traced"] = trace_this
            passes.append(result)
            if len(passes) == MIN_PASSES:  # fixed work, whatever the pass count
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        attempted, failed, problems = check_outputs(workload, passes, check_decision)
        plain = [p for p in passes if not p["traced"]]
        job_ms = [ms for p in plain for ms in p["job_ms"]]
        decide_us = [ns / 1e3 for p in plain for ns in p["decide_ns"]]
        samples = {"passes": len(plain), "job_ms": len(job_ms), "decide_us": len(decide_us)}
        if args.trace:
            traced = [p for p in passes if p["traced"]]
            traced_wall = sum(p["wall"] for p in traced)
            metrics.update(layer_metrics(tracer.spans, traced_wall, len(traced)))
            metrics["trace.overhead_frac"] = (
                statistics.median(p["wall"] for p in traced) / statistics.median(p["wall"] for p in plain) - 1.0
            )
            samples["traced_passes"] = len(traced)
            samples["spans"] = len(tracer.spans)
        else:
            metrics["wall_s"] = statistics.median(p["wall"] for p in plain)
            metrics["job_ms.p50"] = _quantile(job_ms, 50)
            metrics["job_ms.p90"] = _quantile(job_ms, 90)
            metrics["peak_rss_mb"] = peak_rss_mb
        if decide_us:
            metrics["decide_us.p50"] = _quantile(decide_us, 50)
            metrics["decide_us.p99"] = _quantile(decide_us, 99)
        elif args.trace:
            metrics["decide_us.p50"] = metrics["decide_us.p99"] = 0.0

        record = run_record(args, len(passes))
        record["samples"] = samples
        for key, value in record.items():
            print(f"# {key}: {value}")
        print(f"# attempted {attempted}, failed {failed}")
        record["problems"] = problems
        units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
        for name in sorted(metrics):
            print(f"{name} = {metrics[name]:.6g} {units.get(name, '')}".rstrip())
        for msg in problems[:20]:
            sys.stderr.write(f"check failed: {msg}\n")
        report = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted}
        record["metrics"] = metrics
        if tracer is not None:
            record["spans"] = tracer.spans
        OUT.mkdir(exist_ok=True)
        kind = "trace" if args.trace else "run"
        (OUT / f"{kind}-{args.workload}-seed{args.seed}.json").write_text(json.dumps(record))
        print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                          "metrics": report}))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
