"""csikey benchmark: closed-loop CLI workloads with end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload attack-n16 --seed 1 --seconds 20 --trace 0

One client in one process issues ops back to back; each op is an in-process
`csikey.cli.main(argv)` call whose seed is drawn from --seed.  With
--trace 0 the run reports the end-to-end metrics; with --trace 1 it runs
pairs of untraced and traced stretches over the same op seeds and reports
per-layer metrics and the tracing overhead.  Outputs are checked after the
timed loop.  The last line of standard output is one JSON object; a result
file with provenance goes to perfbench/out/.  `--workload all` runs every
workload, each in its own process.
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

# One BLAS thread: a single-client benchmark on a small shared machine is
# steadier without a thread pool, and both commits run the same way.
BLAS_THREADS = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                 "MKL_NUM_THREADS")}
# Set-up time has a hard floor, the imports, and the machine only adds to
# it, so a run takes many probes and reports the lowest.  On a host that
# switches between a fast and a slow mode for seconds at a time, the lowest
# reads the fast mode unless every probe landed in the slow one.
SETUP_SAMPLES = 10
WARMUP_OPS = 2
# Untraced/traced stretch pairs in a traced run.
TRACE_PAIRS = 10
TAIL_BEYOND = 10
SETUP_PROBE = ("import time, csikey.cli, csikey; "
               "print(repr(time.monotonic())); print(csikey.__file__)")

END_TO_END_UNITS = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
                    "setup_s": "s", "peak_rss_mib": "MiB"}


@dataclass
class Op:
    seed: int
    start_ns: int
    end_ns: int
    stdout: str
    error: str | None

    @property
    def wall_ns(self) -> int:
        return self.end_ns - self.start_ns


def fail(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_csikey():
    if not (SRC / "csikey" / "cli.py").is_file():
        fail(f"no csikey sources under {SRC}")
    os.environ.update(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import csikey.cli
    if not Path(csikey.cli.__file__).resolve().is_relative_to(SRC):
        fail(f"csikey imported from {csikey.cli.__file__}, not {SRC}")
    return csikey


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def measure_setup() -> float:
    """Seconds from spawning a fresh interpreter until `import csikey.cli`
    has returned in it, i.e. until its first op could begin."""
    start = time.monotonic()
    proc = subprocess.run([sys.executable, "-c", SETUP_PROBE],
                          capture_output=True, text=True, env=child_env(),
                          timeout=120)
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or \
            not Path(lines[1]).resolve().is_relative_to(SRC):
        fail(f"setup probe failed: {proc.stderr.strip()[-500:]}")
    return float(lines[0]) - start


def op_seeds(workload: str, seed: int, phase: str):
    """Per-op seeds, a pure function of (workload, workload seed, phase)."""
    rng = random.Random(f"{workload}:{seed}:{phase}")
    while True:
        yield rng.randrange(2**31)


def run_op(cli, argv: list[str], seed: int) -> Op:
    out, err = io.StringIO(), io.StringIO()
    rc, error = None, None
    start = time.perf_counter_ns()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except (Exception, SystemExit) as exc:
        error = f"{type(exc).__name__}: {exc}"
    end = time.perf_counter_ns()
    if rc not in (None, 0) and error is None:
        error = f"rc={rc}: {err.getvalue().strip()[-300:]}"
    return Op(seed, start, end, out.getvalue(), error)


def closed_loop(cli, workload, seeds, seconds: float, ops: list[Op],
                tracer=None) -> int:
    """Issue ops back to back, one per seed, until `seconds` have passed
    (at least one op) or the seeds run out, appending them to `ops`;
    returns the timed nanoseconds."""
    start = time.perf_counter_ns()
    deadline = start + seconds * 1e9
    for seed in seeds:
        if tracer is not None:
            tracer.op = len(ops)
        ops.append(run_op(cli, workload.argv(seed), seed))
        if ops[-1].end_ns >= deadline:
            break
    return ops[-1].end_ns - start


def check_ops(workload, ops: list[Op]) -> dict[int, str]:
    """Index -> failure reason for every op that failed."""
    failures, docs = {}, {}
    for i, op in enumerate(ops):
        if op.error is not None:
            failures[i] = op.error
            continue
        try:
            doc = json.loads(op.stdout)
            cfg = doc["config"]
            if cfg["seed"] != op.seed or cfg["subcommand"] != workload.args[0]:
                reason = f"output is for seed {cfg['seed']} {cfg['subcommand']}"
            else:
                reason = workload.check_op(doc)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            reason = f"malformed output: {type(exc).__name__}: {exc}"
        if reason is None:
            docs[i] = doc
        else:
            failures[i] = reason
    if workload.check_pool is not None and docs:
        reason = workload.check_pool(list(docs.values()))
        if reason is not None:
            failures.update({i: "pooled check: " + reason for i in docs})
    return failures


def latency_metrics(ops: list[Op]) -> dict:
    walls = sorted(op.wall_ns / 1e6 for op in ops)
    n = len(walls)
    # Highest percentile with TAIL_BEYOND samples beyond it; a run too short
    # to have that many reports the median instead of a lower percentile.
    tail_idx = max(n - 1 - TAIL_BEYOND, n // 2)
    return {"op_p50_ms": statistics.median(walls),
            "op_tail_ms": walls[tail_idx],
            "tail_percentile": 100.0 * (tail_idx + 1) / n,
            "tail_samples_beyond": n - 1 - tail_idx, "ops_timed": n}


def git_revision() -> str:
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def provenance(workload: str, seed: int) -> dict:
    import numpy
    import scipy
    digest = hashlib.sha256()
    for path in sorted((SRC / "csikey").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "workload": workload, "workload_seed": seed,
        "cpu_count": os.cpu_count(), "machine": platform.machine(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREADS},
        "git_revision": git_revision(), "src_sha256": digest.hexdigest(),
    }


def write_result(name: str, doc: dict) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / name
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return path


def run_audits(tracer) -> list[tuple[int, str]]:
    """(traced op, reason) for each sampled layer call the reference rejects."""
    from reference import audit_lll, audit_ml
    failed = []
    for op, original, reduced, transform, delta in \
            tracer.samples["lattice.lll_reduce"].values():
        reason = audit_lll(original, reduced, transform, delta)
        if reason:
            failed.append((op, "lll_reduce: " + reason))
    for op, g, y, M, estimate in \
            tracer.samples["attacks.exact_ml_decode"].values():
        reason = audit_ml(g, y, M, estimate)
        if reason:
            failed.append((op, "exact_ml_decode: " + reason))
    return failed


def traced_run(csikey, workload, seed: int, seconds: float) -> tuple:
    """Pairs of stretches, one untraced and one traced, over the same op
    seeds; the first of a pair runs for its share of `seconds` and the
    second replays its seeds, and which side goes first alternates.  A
    drift of the machine's speed and the ops' own spread of cost then
    affect both sides alike.  Returns (untraced ops, their timed ns, traced
    ops, their timed ns, tracer), with the originals restored."""
    from tracer import Tracer
    tracer = Tracer(csikey, sample_seed=seed)
    seeds = op_seeds(workload.name, seed, "loop")
    ops = {False: [], True: []}
    ns = {False: 0, True: 0}

    def stretch(traced: bool, stretch_seeds, stretch_seconds: float) -> int:
        if not traced:
            return closed_loop(csikey.cli, workload, stretch_seeds,
                               stretch_seconds, ops[False])
        tracer.install()
        try:
            return closed_loop(csikey.cli, workload, stretch_seeds,
                               stretch_seconds, ops[True], tracer)
        finally:
            tracer.uninstall()

    for pair in range(TRACE_PAIRS):
        first = pair % 2 == 1
        done = len(ops[first])
        ns[first] += stretch(first, seeds, seconds / (2 * TRACE_PAIRS))
        again = [op.seed for op in ops[first][done:]]
        ns[not first] += stretch(not first, again, math.inf)
    return ops[False], ns[False], ops[True], ns[True], tracer


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    csikey = load_csikey()
    from tracer import per_layer_metric_units
    from workloads import WORKLOADS
    workload = WORKLOADS[name]
    # Fixed cwd, and git kept from searching above the checkout, so that the
    # CLI's `git describe` costs the same for every tree measured here.
    os.chdir(ROOT)
    os.environ["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
    info = provenance(name, seed)

    warm = [run_op(csikey.cli, workload.argv(s), s)
            for s, _ in zip(op_seeds(name, seed, "warmup"), range(WARMUP_OPS))]
    result = {"provenance": info, "seconds": seconds, "trace": int(trace)}
    if trace:
        ops, ops_ns, traced, traced_ns, tracer = traced_run(
            csikey, workload, seed, seconds)
        all_ops = warm + ops + traced
        failures = check_ops(workload, all_ops)
        for op, reason in run_audits(tracer):
            failures.setdefault(len(warm) + len(ops) + op, "audit: " + reason)
        metrics = tracer.per_op_metrics([op.wall_ns for op in traced])
        ops_per_s = len(ops) / (ops_ns / 1e9)
        traced_rate = len(traced) / (traced_ns / 1e9)
        metrics["trace.overhead_pct"] = 100.0 * (1 - traced_rate / ops_per_s)
        units = per_layer_metric_units()
        table = tracer.layer_table()
        result.update({
            "untraced_ops_per_s": ops_per_s, "traced_ops_per_s": traced_rate,
            "layer_table": table, "held_out_counts":
                tracer.held_out_counts(len(traced)),
            "patched_sites": tracer.patched_sites(),
            "audited_calls": {k: len(v) for k, v in tracer.samples.items()}})
        spans = tracer.spans_document()
        spans["provenance"] = info
        write_result(f"{name}-seed{seed}-spans.json", spans)
        top = max(table, key=lambda k: table[k]["self_ns"])
        summary = (f"traced {traced_rate:.4g} ops/s vs untraced "
                   f"{ops_per_s:.4g} ops/s, over {TRACE_PAIRS} pairs of "
                   f"stretches; largest self time {top} "
                   f"{table[top]['self_ns'] / len(traced) / 1e6:.4g} ms/op; "
                   f"audited calls {result['audited_calls']}")
    else:
        # Set-up probes are spread over the run, one before each timed
        # stretch, so that they and the loop see the same machine conditions.
        ops, timed_ns, setup = [], 0, []
        seeds = op_seeds(name, seed, "loop")
        for _ in range(SETUP_SAMPLES):
            setup.append(measure_setup())
            timed_ns += closed_loop(csikey.cli, workload, seeds,
                                    seconds / SETUP_SAMPLES, ops)
        all_ops = warm + ops
        failures = check_ops(workload, all_ops)
        lat = latency_metrics(ops)
        metrics = {"ops_per_s": len(ops) / (timed_ns / 1e9),
                   "op_p50_ms": lat["op_p50_ms"],
                   "op_tail_ms": lat["op_tail_ms"],
                   "setup_s": min(setup),
                   "peak_rss_mib": resource.getrusage(
                       resource.RUSAGE_SELF).ru_maxrss / 1024}
        units = END_TO_END_UNITS
        result.update({"latency": lat, "setup_samples_s": setup,
                       "op_wall_ms": [op.wall_ns / 1e6 for op in ops]})
        summary = (f"op_tail_ms is p{lat['tail_percentile']:.2f}, with "
                   f"{lat['tail_samples_beyond']} of {lat['ops_timed']} timed "
                   f"ops beyond it; setup_s is the lowest of {len(setup)} "
                   f"fresh interpreters")
    attempted = len(all_ops)
    result.update({
        "attempted": attempted, "failed": len(failures),
        "fail_rate": len(failures) / attempted, "metrics": metrics,
        "failures": [f"op {i} (seed {all_ops[i].seed}): {r}"
                     for i, r in sorted(failures.items())]})
    path = write_result(f"{name}-seed{seed}-trace{int(trace)}.json", result)

    print(f"workload {name}  seed {seed}  seconds {seconds}  trace {int(trace)}"
          f"  ({attempted} ops, {len(failures)} failed; {path.name})")
    for key, value in metrics.items():
        print(f"  {key:<50} {value:>14.6g} {units[key]}")
    print(f"  {'fail_rate':<50} {result['fail_rate']:>14.6g} ratio")
    print(f"  {summary}")
    for line in result["failures"][:20]:
        print(f"  FAILED {line}")
    print(json.dumps({
        "correct": not failures, "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process (peak RSS is per process)."""
    from workloads import WORKLOADS
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace",
             str(int(trace))], capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        last = json.loads(proc.stdout.splitlines()[-1])
        correct &= last["correct"]
        attempted += last["attempted"]
        failed += last["failed"]
        metrics.update({f"{name}.{k}": v for k, v in last["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    from workloads import WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds,
                        bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
