"""cyclebench benchmark: one workload, one process, a closed loop of ops.

Run from the repository root:

    python3 perfbench/run.py --workload cb2q-depol --seed 1 --seconds 20 --trace 0

One client runs op 0, 1, 2, ... back to back, each op starting when the
previous one ends, until ``--seconds`` have passed.  Op ``i``'s inputs derive
from ``(--seed, i)`` only.  Before the loop the benchmark times set-up in
fresh processes, sets up in this one and runs op 0 once as a discarded
warm-up; the loop then starts again at op 0, whose output digest must match
the warm-up's byte for byte.  Every op's outputs are checked.

``--trace 0`` reports the end-to-end metrics, measured untraced.
``--trace 1`` runs each op untraced and then traced, and reports per-layer
metrics from the traced ops (see tracer.py); the spans are written to
``.perfbench_out/trace-<workload>.jsonl``.

``--thread-probe`` runs op 0 of ``--seed`` (default 0) under
``OPENBLAS_NUM_THREADS=1`` and under the default thread count and compares
the two output digests.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
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
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import facts
import tracer as tr

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
PINNED = HERE / "pinned.json"

SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 150

WORKLOAD_NAMES = ("cb2q-depol", "qcap-c1-coherent", "epoch-readme")
END_TO_END = {
    "setup_s": "s",
    "op_s_p50": "s",
    "circuits_per_s": "1/s",
    "peak_rss_mb": "MB",
}


@dataclass
class Outcome:
    index: int
    seconds: float
    digest: str | None
    problems: list[str] = field(default_factory=list)


def execute(wl, seed: int, index: int, workdir: Path, tracer=None) -> Outcome:
    """Run op ``index`` once, timing only the call into the package."""
    from cyclebench.circuits import _cycle_unitary_cached

    opdir = workdir / f"op{index}"
    shutil.rmtree(opdir, ignore_errors=True)
    opdir.mkdir(parents=True)
    inp = wl.make_input(seed, index, opdir)
    if tracer is not None:
        cache_before = _cycle_unitary_cached.cache_info()
        tracer.op = index
        tracer.install()
    start = time.perf_counter()
    try:
        out = wl.run(inp)
        error = None
    except Exception as exc:  # an op that raises is a failed op
        traceback.print_exc()
        error = f"raised {exc!r}"
    finally:
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
            cache_after = _cycle_unitary_cached.cache_info()
            tracer.counts["cache.hits"] += cache_after.hits - cache_before.hits
            tracer.counts["cache.misses"] += cache_after.misses - cache_before.misses
    if error is not None:
        outcome = Outcome(index, elapsed, None, [error])
    else:
        try:
            outcome = Outcome(index, elapsed, wl.digest(inp, out), wl.check(inp, out))
        except (OSError, ValueError, KeyError) as exc:
            outcome = Outcome(index, elapsed, None, [f"output unreadable: {exc!r}"])
    shutil.rmtree(opdir, ignore_errors=True)
    for problem in outcome.problems:
        print(f"op {index}: {problem}", file=sys.stderr)
    return outcome


def load_workload(name: str):
    import workloads

    return workloads.WORKLOADS[name]()


def setup_in_child(workload: str, seed: int) -> float:
    """Wall seconds for a fresh interpreter to import cyclebench, build the
    workload's tables and op 0's inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    start = time.perf_counter()
    subprocess.run(cmd, cwd=ROOT, check=True, timeout=CHILD_TIMEOUT_S,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def setup_probe(workload: str, seed: int, workdir: Path) -> int:
    wl = load_workload(workload)
    wl.warm_tables()
    (workdir / "setup").mkdir(parents=True)
    wl.make_input(seed, 0, workdir / "setup")
    return 0


def digest_op0(workload: str, seed: int, workdir: Path) -> int:
    wl = load_workload(workload)
    wl.warm_tables()
    outcome = execute(wl, seed, 0, workdir)
    if outcome.problems:
        return 1
    print(outcome.digest)
    return 0


def pinned_digest(workload: str, seed: int) -> str | None:
    """The digest pinned for op 0 of this workload and seed, if any."""
    pinned = json.loads(PINNED.read_text())
    return pinned["digests"].get(workload) if seed == pinned["seed"] else None


def compare_rerun(warm: Outcome, first: Outcome) -> None:
    if first.problems or warm.problems:
        return
    if first.digest != warm.digest:
        first.problems.append("digest differs from the warm-up run of the same op")
        print(f"op 0: digest {first.digest} != warm-up {warm.digest}", file=sys.stderr)


def run_untraced(args, workdir: Path) -> tuple[dict, list[Outcome], dict]:
    setup_s = [setup_in_child(args.workload, args.seed) for _ in range(SETUP_REPEATS)]
    wl = load_workload(args.workload)
    wl.warm_tables()
    warm = execute(wl, args.seed, 0, workdir)
    timed: list[Outcome] = []
    start = time.perf_counter()
    while not timed or time.perf_counter() - start < args.seconds:
        timed.append(execute(wl, args.seed, len(timed), workdir))
    compare_rerun(warm, timed[0])

    op_s = [o.seconds for o in timed]
    metrics = {
        "setup_s": statistics.median(setup_s),
        "op_s_p50": statistics.median(op_s),
        "circuits_per_s": wl.circuits_per_op * len(timed) / sum(op_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {
        "ops_timed": len(timed),
        "circuits_per_op": wl.circuits_per_op,
        "setup_s_samples": setup_s,
        "op_s_samples": op_s,
        "op0_digest": warm.digest,
    }
    pinned = pinned_digest(args.workload, args.seed)
    if pinned is not None:
        notes["pinned_digest_match"] = pinned == warm.digest
        if pinned != warm.digest:
            print(f"note: op 0 digest {warm.digest} differs from the pinned {pinned}",
                  file=sys.stderr)
    return metrics, [warm] + timed, notes


def run_traced(args, workdir: Path) -> tuple[dict, list[Outcome], dict]:
    tracer = tr.Tracer()
    wl = load_workload(args.workload)
    tracer.install()
    wl.warm_tables()
    tracer.uninstall()
    tracer.counts.clear()  # set-up keeps only its spans
    warm = execute(wl, args.seed, 0, workdir)
    outcomes = [warm]
    plain_s: list[float] = []
    traced_s: dict[int, float] = {}
    start = time.perf_counter()
    index = 0
    while not traced_s or time.perf_counter() - start < args.seconds:
        plain = execute(wl, args.seed, index, workdir)
        traced = execute(wl, args.seed, index, workdir, tracer)
        if not plain.problems and not traced.problems and plain.digest != traced.digest:
            traced.problems.append("traced output differs from untraced output")
        outcomes += [plain, traced]
        plain_s.append(plain.seconds)
        traced_s[index] = traced.seconds
        index += 1
    compare_rerun(warm, outcomes[1])
    metrics = tr.layer_metrics(tracer, traced_s, plain_s)
    trace_path = OUT / f"trace-{args.workload}.jsonl"
    tracer.write(trace_path)
    notes = {"ops_traced": len(traced_s), "spans": len(tracer.spans),
             "trace_file": str(trace_path.relative_to(ROOT))}
    return metrics, outcomes, notes


def thread_probe(workload: str, seed: int) -> int:
    """Compare op 0's digest under one BLAS thread and the default count."""
    digests = {}
    for label, threads in (("threads_1", "1"), ("threads_default", None)):
        env = dict(os.environ)
        env.pop("OPENBLAS_NUM_THREADS", None)
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(seed), "--digest-op0"]
        proc = subprocess.run(cmd, cwd=ROOT, env=env, timeout=CHILD_TIMEOUT_S,
                              check=True, stdout=subprocess.PIPE, text=True)
        digests[label] = proc.stdout.split()[-1]
    match = digests["threads_1"] == digests["threads_default"]
    print(json.dumps({"workload": workload, **digests, "match": match}))
    return 0 if match else 1


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--digest-op0", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--thread-probe", action="store_true")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cyclebench" / "__init__.py").is_file():
        print(f"error: no cyclebench sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.thread_probe:
        return thread_probe(args.workload, args.seed)
    workdir = OUT / f"run-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        if args.setup_probe:
            return setup_probe(args.workload, args.seed, workdir)
        if args.digest_op0:
            return digest_op0(args.workload, args.seed, workdir)
        if args.trace:
            metrics, outcomes, notes = run_traced(args, workdir)
            units = {name: unit for name, (unit, _) in tr.LAYER_METRICS.items()}
        else:
            metrics, outcomes, notes = run_untraced(args, workdir)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(1 for o in outcomes if o.problems)
    print("facts " + json.dumps(facts.machine_facts(ROOT)))
    print("notes " + json.dumps(notes))
    print(f"{args.workload} seed={args.seed} trace={args.trace} ops={len(outcomes)}")
    print(f"  failed_frac = {failed / len(outcomes):.6g} fraction")
    for name, unit in units.items():
        print(f"  {name} = {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
