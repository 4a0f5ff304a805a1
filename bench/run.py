"""Benchmark entry point: one workload, one seed, one result line.

    python3 bench/run.py --workload byol-plain --seed 1 --seconds 30 --trace 0

Run it from anywhere; it measures the package in ``src/`` next to this
directory. ``--workload all`` runs every workload in turn, each in its own
process. ``--trace 0`` prints the end-to-end metrics of BENCHMARK.json;
``--trace 1`` splits the window into an untraced and a traced half and
prints the per-layer metrics. The last line of standard output is the
result as JSON; the lines before it give each metric by name and unit.
Working files go to ``.bench_run/`` at the repository root.
"""

from __future__ import annotations

import os
import sys

# The reference setting: one BLAS thread, fixed before numpy loads.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

SETUP_REPEATS = 5


def _fail(message: str) -> "None":
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def _prepare_imports() -> None:
    if not __debug__:
        _fail("run without -O: the package's contract checks are part of what is measured")
    if not os.path.isfile(os.path.join(SRC, "simdistill", "__init__.py")):
        _fail(f"no simdistill package under {SRC}")
    sys.path.insert(0, SRC)


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """SHA-256 over the package sources, which identifies the code outside git too."""
    import hashlib
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "simdistill")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def environment(seed: int) -> dict:
    import platform

    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def declared_metrics(trace: int) -> dict[str, str]:
    """Metric name -> unit from BENCHMARK.json: end-to-end untraced, per-layer traced."""
    import json
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def percentile(values, q: float) -> float:
    import numpy as np
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def untraced(workload, state, seconds: float, setup_s: list[float]):
    """End-to-end metrics from one untraced window."""
    import resource
    import statistics

    import workloads
    phase = workloads.measure(workload, state, seconds)
    timed = phase.ok_s or phase.op_s
    metrics = {
        "setup_s": statistics.median(setup_s),
        "op_s_p50": percentile(timed, 50),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = [f"op_s_p50 over {len(timed)} operations of {phase.attempted} attempted; "
             f"p90 {percentile(timed, 90):.6g} s (not gated: too few operations beyond it)"]
    return [phase], metrics, notes, [], None


def traced(workload, state, seconds: float, spans_path: str):
    """Per-layer metrics: an untraced half for step timing, then a traced half for spans."""
    import workloads
    from tracer import Tracer, layer_metrics, step_residual_ms
    plain = workloads.measure(workload, state, seconds / 2)
    tracer = Tracer()
    spanned = workloads.measure(workload, state, seconds / 2, tracer)
    spans = tracer.arrays()
    problems = []
    if not (spans["end"] >= spans["start"]).all():
        problems.append("a span was left open")
    layer, layers = layer_metrics(tracer.names, spans, tracer.counters, spanned.attempted)

    def rate(phase):
        """Train steps per second inside Trainer.run, else operations per second."""
        log = phase.steplog
        if log.run_steps:
            return log.run_steps / log.run_s
        return len(phase.op_s) / sum(phase.op_s)

    def step_ms(q, steps):
        return percentile(steps, q) * 1e3 if steps else 0.0

    log = plain.steplog
    all_steps = [s for v in log.step_s.values() for s in v]
    metrics = {
        "train.steps_per_s": rate(plain) if log.run_steps else 0.0,
        "train.step_ms_p50": step_ms(50, all_steps),
        "train.step_ms_p90": step_ms(90, all_steps),
        "train.isd_step_ms_p50": step_ms(50, log.step_s.get("isd")),
        "train.moco_step_ms_p50": step_ms(50, log.step_s.get("moco")),
        "trace.overhead_frac": 1.0 - rate(spanned) / rate(plain),
    }
    metrics.update((name, value) for name, value in layer.items() if not name.startswith("_"))
    residual = step_residual_ms(layer)
    if abs(residual) > 1e-6:
        problems.append(f"per-step parts miss train.step_ms by {residual} ms")
    notes = [f"train.step_ms = step_self + children, residual {residual:.3e} ms",
             "no layer waits: one process, closed loop, nothing queued or run in parallel",
             f"untraced half: {plain.attempted} ops; traced half: {spanned.attempted} ops, "
             f"{len(spans['start'])} spans in {os.path.relpath(spans_path, ROOT)}"]
    if layer["_step_unmapped_ms"]:
        notes.append(f"{layer['_step_unmapped_ms']:.4f} ms/step in step children with no metric")
    tracer.save(spans_path)
    return [plain, spanned], metrics, notes, problems, layers


def run_all(names, args) -> int:
    """Each workload in its own process, one after another; the worst exit code."""
    import subprocess
    common = ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    return max(subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                               *common]).returncode for name in names)


def main(argv=None) -> int:
    import argparse
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _prepare_imports()
    import json
    import shutil
    from time import perf_counter

    import workloads

    if args.workload == "all":
        return run_all(workloads.WORKLOADS, args)
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        _fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    declared = declared_metrics(args.trace)
    env = environment(args.seed)
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    run_dir = os.path.join(ROOT, ".bench_run")
    workdir = os.path.join(run_dir, f"{tag}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)

    setup_s = []
    for i in range(SETUP_REPEATS):
        t0 = perf_counter()
        state = workload.setup(args.seed, os.path.join(workdir, f"setup{i}"))
        setup_s.append(perf_counter() - t0)

    if args.trace:
        phases, metrics, notes, problems, layers = traced(
            workload, state, args.seconds, os.path.join(run_dir, f"{tag}-spans.npz"))
    else:
        phases, metrics, notes, problems, layers = untraced(workload, state, args.seconds, setup_s)
    shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    problems = [q for p in phases for q in p.problems] + problems
    if metrics.keys() != declared.keys():
        problems.append(f"metrics differ from BENCHMARK.json: {sorted(metrics.keys() ^ declared.keys())}")

    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": declared.get(name, "")}
                    for name, value in metrics.items()},
    }
    record = dict(result, workload=workload.name, environment=env, setup_s=setup_s,
                  op_s=[s for p in phases for s in p.op_s], problems=problems, notes=notes,
                  layers=layers)
    with open(os.path.join(run_dir, f"{tag}.json"), "w") as f:
        json.dump(record, f, indent=1)

    print(f"# environment {json.dumps(env, sort_keys=True)}")
    for line in notes:
        print(f"# {line}")
    for problem in problems[:10]:
        print(f"# problem: {problem}")
    print(f"# failed_op_frac {failed / attempted:.6g} ({failed} failed of {attempted} attempted)")
    for name, entry in result["metrics"].items():
        print(f"{workload.name} {name} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
