"""cliffdyn benchmark: closed-loop workloads, end-to-end metrics, traced per-layer run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload verify --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1
    python3 perfbench/run.py --write-benchmark-json

One caller runs ops back to back (closed loop) for about ``--seconds``,
whole rounds at a time (see ``workloads.py``).  With ``--trace 0`` it prints
the end-to-end metrics; with ``--trace 1`` every round runs once untraced and
once traced with the same inputs, and it prints the per-layer metrics of
``layers.PER_LAYER`` plus the tracing overhead.  The last line of standard
output is one JSON object; a fuller record, with provenance, every per-layer
statistic in seconds and every failure by input seed, goes to
``.perfbench/results/`` in the checkout.  ``--workload all`` runs each
workload in its own process and prints one table.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
SETUPS_BEFORE = 3
SETUPS_AFTER = 3
TAIL_BEYOND = 10
RUN_SECONDS = 50
# Every end-to-end figure the summary prints; the JSON line has those of
# layers.END_TO_END.
E2E_PRINTED = (("setup_s", "s"), ("op_p50_s", "s"), ("op_tail_s", "s"), ("ops_per_s", "1/s"),
               ("peak_rss_mb", "MB"), ("fail_ratio", "1"))

IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
                "import cliffdyn; print(time.perf_counter() - t)")


def _import_cliffdyn() -> None:
    """Import the package from this checkout's ``src``; refuse any other copy."""
    if not (SRC / "cliffdyn" / "__init__.py").is_file():
        raise SystemExit(f"error: no cliffdyn sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import cliffdyn
    if Path(cliffdyn.__file__).resolve().parent != SRC / "cliffdyn":
        raise SystemExit(f"error: imported cliffdyn from {cliffdyn.__file__}, not {SRC}")


def _import_seconds() -> float:
    """Import time of cliffdyn in a fresh interpreter, as a CLI user pays it."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip())


def _provenance(seed: int, workload: str) -> dict:
    import numpy as np
    try:
        build = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: build[k] for k in ("blas", "lapack") if k in build}
    except (TypeError, KeyError):
        blas = "unavailable"
    head = ROOT / ".git" / "HEAD"
    commit = "unknown: not a git checkout"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    env_threads = os.environ.get("CLIFFDYN_THREADS")
    return {
        "workload": workload,
        "seed": seed,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas_lapack": blas,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "CLIFFDYN_THREADS": env_threads,
        "run_all_workers_by_rule": (max(1, int(env_threads)) if env_threads
                                    else min(4, os.cpu_count() or 1)),
        "commit": commit,
    }


def _tail(times: list[float]) -> dict | None:
    """The highest percentile that leaves TAIL_BEYOND ops beyond it."""
    n = len(times)
    if n < 2 * TAIL_BEYOND:
        return None
    ordered = sorted(times)
    return {"value": ordered[n - TAIL_BEYOND - 1],
            "percentile": 100.0 * (n - TAIL_BEYOND) / n, "ops": n}


class Runner:
    def __init__(self, workload, seed: int, seconds: float, trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = STATE / "work" / f"{workload.name}-{seed}-{os.getpid()}"
        self.out = self.work / "out"
        self.records: list[dict] = []
        self.op_times: list[float] = []
        self.traced_times: list[float] = []
        self.rounds_derived: list[dict] = []
        self.tracer = None

    def setup(self, inputs: Path) -> tuple[list, float]:
        """One set-up: generate the inputs, plus cliffdyn's import time."""
        shutil.rmtree(inputs, ignore_errors=True)
        start = perf_counter()
        rounds = self.workload.generate(self.seed, inputs)
        generate_s = perf_counter() - start
        return rounds, _import_seconds() + generate_s

    def one_op(self, op, phase: str, traced: bool) -> tuple[float, Counter | None]:
        out = self.out / op.kind
        for name in self.workload.outputs[op.kind]:
            (out / name).unlink(missing_ok=True)   # never check a stale output
        totals = None
        start = perf_counter()
        try:
            if traced:
                with self.tracer.op():
                    result = self.workload.run(op, out)
            else:
                result = self.workload.run(op, out)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            elapsed = perf_counter() - start
            reason = f"{type(exc).__name__}: {exc}"
            detail = traceback.format_exc(limit=4)
        else:
            elapsed = perf_counter() - start
            try:
                reason = self.workload.check(op, result, out)
            except Exception as exc:  # unreadable or missing output
                reason = f"output check raised {type(exc).__name__}: {exc}"
            detail = None
        if traced:
            totals = self.tracer.totals()
            totals["cli.output_bytes"] = self._output_bytes(op, out)
        self.records.append({"phase": phase, "kind": op.kind, "seed": op.seed,
                             "wall_s": elapsed, "failed": reason is not None,
                             "reason": reason, "traceback": detail})
        return elapsed, totals

    def _output_bytes(self, op, out: Path) -> int:
        return sum((out / name).stat().st_size for name in self.workload.outputs[op.kind]
                   if (out / name).is_file())

    def warmup(self, rounds) -> None:
        seen = set()
        for op in (op for r in rounds for op in r):
            if op.kind in self.workload.warmup_kinds and op.kind not in seen:
                seen.add(op.kind)
                self.one_op(op, "warmup", traced=False)

    def measure(self, rounds) -> float:
        """Run whole rounds until the next one would end past ``seconds``."""
        from tracer import Tracer, add, derive
        if self.trace:
            self.tracer = Tracer()
        min_rounds = 1 if self.trace else 2
        round_times: list[float] = []
        start = perf_counter()
        index = 0
        while True:
            elapsed = perf_counter() - start
            if len(round_times) >= min_rounds and (
                    elapsed + statistics.median(round_times) > self.seconds):
                break
            ops = rounds[index % len(rounds)]
            index += 1
            t0 = perf_counter()
            for op in ops:
                self.op_times.append(self.one_op(op, "timed", traced=False)[0])
            if self.trace:
                acc = Counter()
                with self.tracer.installed():
                    for op in ops:
                        wall, totals = self.one_op(op, "traced", traced=True)
                        self.traced_times.append(wall)
                        add(acc, totals)
                self.rounds_derived.append(derive(acc))
            round_times.append(perf_counter() - t0)
        return perf_counter() - start


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def run_workload(args) -> int:
    import layers
    import workloads
    workload = workloads.WORKLOADS[args.workload]()
    runner = Runner(workload, args.seed, args.seconds, bool(args.trace))
    # Set-ups are split between the start and the end of the run, so that
    # setup_s samples the host at two times rather than in one slow or fast
    # spell; the ops use the inputs of the last set-up before the loop.
    setup_times = []
    try:
        for _ in range(SETUPS_BEFORE):
            rounds, seconds = runner.setup(runner.work / "inputs")
            setup_times.append(seconds)
        runner.out.mkdir(parents=True, exist_ok=True)
        runner.warmup(rounds)
        loop_s = runner.measure(rounds)
        for _ in range(SETUPS_AFTER):
            setup_times.append(runner.setup(runner.work / "spare")[1])
    finally:
        shutil.rmtree(runner.work, ignore_errors=True)

    scored = [r for r in runner.records if r["phase"] != "warmup"]
    failed = sum(r["failed"] for r in scored)
    e2e = {
        "setup_s": _median(setup_times),
        "op_p50_s": _median(runner.op_times),
        "ops_per_s": len(runner.op_times) / sum(runner.op_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "fail_ratio": failed / len(scored),
    }
    per_layer = {}
    if args.trace:
        keys = {k for d in runner.rounds_derived for k in d}
        per_layer = {k: _median([d.get(k, 0.0) for d in runner.rounds_derived])
                     for k in sorted(keys)}
        per_layer["trace.op_p50_s"] = _median(runner.traced_times)
        per_layer["trace.overhead"] = per_layer["trace.op_p50_s"] / e2e["op_p50_s"]
        metrics = {name: {"value": per_layer.get(name, 0.0), "unit": unit}
                   for name, unit in layers.PER_LAYER}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit, _, _ in layers.END_TO_END}
    kinds = Counter(r["kind"] for r in scored if r["phase"] == "timed")
    record = {
        "provenance": _provenance(args.seed, workload.name),
        "seconds": args.seconds, "trace": args.trace, "loop_s": loop_s,
        "attempted": len(scored), "failed": failed,
        "setup_s_each": setup_times,
        "ops": dict(kinds), "traced_ops": len(runner.traced_times),
        "warmup": [r for r in runner.records if r["phase"] == "warmup"],
        "end_to_end": e2e, "op_tail_s": _tail(runner.op_times),
        "per_layer": per_layer,
        "per_round": runner.rounds_derived,
        "failures": [r for r in scored if r["failed"]],
        "op_walls": {phase: {kind: [r["wall_s"] for r in scored
                                    if r["phase"] == phase and r["kind"] == kind]
                             for kind in kinds}
                     for phase in ("timed", "traced")},
        "predictions": layers.PREDICTIONS,
    }
    STATE.joinpath("results").mkdir(parents=True, exist_ok=True)
    path = STATE / "results" / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")
    _print_summary(record, path)
    print(json.dumps({"correct": failed == 0, "attempted": len(scored), "failed": failed,
                      "metrics": metrics}))
    return 0


def _print_summary(record: dict, path: Path) -> None:
    import layers
    e2e, tail, per_layer = record["end_to_end"], record["op_tail_s"], record["per_layer"]
    print(f"workload {record['provenance']['workload']}  seed {record['provenance']['seed']}"
          f"  ops {record['ops']}  warm-up {len(record['warmup'])}  loop {record['loop_s']:.1f} s")
    for name, unit in E2E_PRINTED:
        if name == "op_tail_s":
            print(f"  op_tail_s    {tail['value']:.6g} s  (p{tail['percentile']:.2f} of "
                  f"{tail['ops']} ops)" if tail else
                  f"  op_tail_s    n/a (fewer than {2 * TAIL_BEYOND} ops)")
        elif name == "fail_ratio":
            print(f"  fail_ratio   {e2e[name]:.6g}  ({record['failed']} of "
                  f"{record['attempted']} ops)")
        else:
            print(f"  {name:<12} {e2e[name]:.6g} {unit}")
    for r in record["failures"]:
        print(f"  FAILED {r['kind']} seed {r['seed']}: {r['reason']}")
    if per_layer:
        print(f"  trace.overhead {per_layer['trace.overhead']:.4f}  "
              f"accounted {per_layer['trace.accounted']:.6f} of the op wall")
        for layer in layers.LAYERS:
            print(f"  {layer:<16} self {per_layer[layer + '.self_s']:.6f} s  "
                  f"share {per_layer[layer + '.share']:.4f}")
        print(f"  {'uncovered':<16} self {per_layer['trace.uncovered_s']:.6f} s  "
              f"share {per_layer['trace.uncovered_share']:.4f}")
    print(f"  results {path.relative_to(ROOT)}")


def run_all(args) -> int:
    """Each workload in its own process, then one table of every metric."""
    import workloads
    rows: dict[str, dict] = {}
    code = 0
    for name in workloads.WORKLOADS:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stdout.write(child.stdout)
        sys.stderr.write(child.stderr)
        if child.returncode != 0:
            code = child.returncode
            continue
        rows[name] = json.loads(
            (STATE / "results" / f"{name}-seed{args.seed}-trace0.json").read_text())
    print(f"\n{'metric':<12} {'unit':<5}" + "".join(f"{w:>14}" for w in rows))
    for name, unit in E2E_PRINTED:
        cells = []
        for result in rows.values():
            if name == "op_tail_s":
                tail = result["op_tail_s"]
                cells.append(f"{tail['value']:.4g}@p{tail['percentile']:.1f}" if tail else "n/a")
            else:
                cells.append(f"{result['end_to_end'][name]:.6g}")
        print(f"{name:<12} {unit:<5}" + "".join(f"{c:>14}" for c in cells))
    return code


def write_benchmark_json() -> int:
    import layers
    import workloads
    doc = {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": workloads.WORKLOADS[n].why}
                      for n in workloads.GATED],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in layers.END_TO_END],
        "per_layer": [{"name": n, "unit": u,
                       "better": "higher" if n in layers.HIGHER_IS_BETTER else "lower"}
                      for n, u in layers.PER_LAYER],
    }
    (ROOT / "BENCHMARK.json").write_text(json.dumps(doc, indent=2) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-benchmark-json", action="store_true",
                        help="write BENCHMARK.json at the checkout root and exit")
    args = parser.parse_args(argv)
    _import_cliffdyn()
    import workloads
    if args.write_benchmark_json:
        return write_benchmark_json()
    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
