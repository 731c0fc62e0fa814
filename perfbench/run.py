"""Benchmark runner: one workload, one seed, one process, one caller.

    python3 perfbench/run.py --workload games --seed 1 --seconds 25 --trace 0

Run from anywhere inside a source checkout; the program is imported from
the checkout's `src/`.  The runner generates the workload's inputs from the
seed, then repeats passes over the same batch (closed loop, one caller)
until about `--seconds` of measured time is spent.  Correctness checks run
on the first pass, outside the timed region; every later pass must give
byte-identical outputs.

With `--trace 0` the last line reports the end-to-end metrics.  With
`--trace 1` the runner makes one untraced pass and one traced pass and the
last line reports the per-layer metrics; the traced outputs must equal the
untraced ones.  The line before the last is the run record: machine,
versions, sample counts, digest and per-kind timings.
"""

from __future__ import annotations

import argparse
import hashlib
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
from typing import Dict, List, Optional

import tracing

PERFBENCH = Path(__file__).resolve().parent
ROOT = PERFBENCH.parent
WORK_ROOT = ROOT / ".perfbench_run"

# one caller: BLAS runs single-threaded, pinned here and not by the program
BLAS_THREADS = 1
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

SETUP_SAMPLES = 5
TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples above it

END_TO_END = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("batch_s", "s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
]


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (no program, no configs)."""


def pin_blas() -> None:
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)


def import_program() -> None:
    """Import schmidtgame from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "schmidtgame" / "__init__.py").is_file():
        raise SetupError(f"no program sources under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(PERFBENCH))
    import schmidtgame

    if Path(schmidtgame.__file__).resolve().parent != (src / "schmidtgame").resolve():
        raise SetupError(f"schmidtgame imported from {schmidtgame.__file__}")


def git_sha() -> Optional[str]:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    ref_file = ROOT / ".git" / name
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def measure_setup(workload: str, seed: int, work: Path) -> List[float]:
    """Set up in fresh interpreters: import the program and numpy, generate inputs."""
    samples = []
    for i in range(SETUP_SAMPLES):
        probe_dir = work / f"setup{i}"
        proc = subprocess.run(
            [sys.executable, str(PERFBENCH / "setup_probe.py"),
             "--workload", workload, "--seed", str(seed), "--work", str(probe_dir)],
            capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise SetupError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
        shutil.rmtree(probe_dir, ignore_errors=True)
    return samples


class PassResult:
    def __init__(self, n: int):
        self.times = [0.0] * n
        self.outputs: List[Optional[bytes]] = [None] * n
        self.failures: Dict[int, str] = {}
        self.transcript_bytes = 0

    @property
    def wall(self) -> float:
        return sum(self.times)

    def digest(self) -> str:
        h = hashlib.sha256()
        for out in self.outputs:
            h.update(len(out or b"").to_bytes(8, "big"))
            h.update(out or b"")
        return h.hexdigest()


def run_pass(ops, check: bool) -> PassResult:
    """One closed-loop pass: each op starts when the previous one returned."""
    clock = time.perf_counter
    res = PassResult(len(ops))
    for i, op in enumerate(ops):
        start = clock()
        try:
            value = op.call()
        except Exception as e:  # a failed op is counted, the pass goes on
            res.times[i] = clock() - start
            res.failures[i] = f"{type(e).__name__}: {e}"
            continue
        res.times[i] = clock() - start
        try:
            res.outputs[i] = op.output(value)
            reason = op.check(value) if check else None
        except Exception as e:  # malformed output counts as a failed op
            reason = f"{type(e).__name__} reading output: {e}"
        if reason:
            res.failures[i] = reason
        if op.transcript is not None and op.transcript.is_file():
            res.transcript_bytes += op.transcript.stat().st_size
    return res


def tail(values: List[float]):
    """(value, percentile): the highest percentile with TAIL_BEYOND values above it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def machine_record(args) -> Dict:
    import numpy

    return {
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": BLAS_THREADS,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def count_failures(ops, passes: List[PassResult], reference: PassResult) -> List[str]:
    """Failures of every pass; a later pass must reproduce the reference outputs."""
    out = []
    for p_idx, p in enumerate(passes):
        for i, op in enumerate(ops):
            if i in p.failures:
                out.append(f"pass {p_idx}: {op.label}: {p.failures[i]}")
            elif p is not reference and p.outputs[i] != reference.outputs[i]:
                out.append(f"pass {p_idx}: {op.label}: output differs from the first pass")
    return out


def measure(args, ops, work: Path):
    setup = measure_setup(args.workload, args.seed, work)
    passes = [run_pass(ops, check=True)]
    spent = passes[0].wall
    # stop when the next pass would end more than half a pass past the budget
    while spent + passes[-1].wall / 2 <= args.seconds:
        passes.append(run_pass(ops, check=False))
        spent += passes[-1].wall
    failures = count_failures(ops, passes, passes[0])
    per_op = [statistics.median(p.times[i] for p in passes) for i in range(len(ops))]
    samples = [t for p in passes for t in p.times]
    tail_value, tail_pct = tail(samples)
    kinds: Dict[str, float] = {}
    for op, t in zip(ops, per_op):
        kinds[op.kind] = kinds.get(op.kind, 0.0) + t
    metrics = {
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        # each op at its median over the passes: a slow spell of the host
        # during one pass moves only the ops it overlapped
        "batch_s": sum(per_op),
        "op_p50_s": statistics.median(samples),
        "op_tail_s": tail_value,
    }
    record = {
        "passes": len(passes),
        "ops_per_pass": len(ops),
        "samples": {"setup_s": len(setup), "batch_s": len(passes), "op_p50_s": len(samples),
                    "op_tail_s": len(samples)},
        "op_tail_percentile": round(tail_pct, 2),
        "measured_s": spent,
        "kind_s": kinds,
        "digest": passes[0].digest(),
    }
    attempted = len(ops) * len(passes)
    units = dict(END_TO_END)
    return attempted, failures, {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}, record


def trace_ops(ops):
    """(untraced pass, traced pass, tracer): the untraced pass runs the checks."""
    plain = run_pass(ops, check=True)
    tracer = tracing.Tracer()
    with tracer.installed():
        traced = run_pass(ops, check=False)
    return plain, traced, tracer


def measure_traced(args, ops, work: Path):
    plain, traced, tracer = trace_ops(ops)
    # an op whose traced output differs from its untraced output fails
    failures = count_failures(ops, [plain, traced], plain)
    values = tracer.metrics()
    values["engine.transcript_bytes"] = plain.transcript_bytes
    values["trace.overhead_s"] = traced.wall - plain.wall
    trace_path = WORK_ROOT / f"trace-{args.workload}-seed{args.seed}.tsv.gz"
    tracer.write(trace_path)
    record = {
        "passes": 2,
        "ops_per_pass": len(ops),
        "untraced_s": plain.wall,
        "traced_s": traced.wall,
        "spans": len(tracer.spans),
        "span_file": str(trace_path.relative_to(ROOT)),
        "digest": plain.digest(),
        "traced_digest": traced.digest(),
    }
    units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    return 2 * len(ops), failures, metrics, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pin_blas()
    try:
        import_program()
        import workloads

        if args.workload not in workloads.BUILDERS:
            raise SetupError(f"unknown workload {args.workload!r}")
        work = WORK_ROOT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
        ops = workloads.build(args.workload, args.seed, ROOT, work)
    except (SetupError, ImportError, OSError) as e:
        print(f"perfbench: cannot set up: {e}", file=sys.stderr)
        return 2
    try:
        run = measure_traced if args.trace else measure
        attempted, failures, metrics, record = run(args, ops, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for line in failures:
        print(f"perfbench: FAILED {line}", file=sys.stderr)
    record = {**machine_record(args), **record, "failed": failures[:20]}
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
