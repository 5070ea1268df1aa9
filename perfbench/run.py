"""reelab benchmark: one workload per run, closed loop, checked outputs.

Usage, from the repository root:

    python3 perfbench/run.py --workload solve_small --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --report            # all workloads, one table

The program is imported from ./src. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics. With
--trace 0 the metrics are the end-to-end metrics of BENCHMARK.json; with
--trace 1 they are its per-layer metrics. The line before it is a detail
record: the machine block and the workload's own figures under the names
used in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("solve_small", "solve_dense", "campaign")
SETUP_REPEATS = 11


def _import_reelab():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "reelab", "__init__.py")):
        raise SystemExit(f"perfbench: no reelab sources under {src}")
    sys.path.insert(0, src)
    import reelab
    import reelab.cli
    import reelab.solver
    import reelab.statefile

    if not os.path.abspath(reelab.__file__).startswith(src + os.sep):
        raise SystemExit(f"perfbench: imported reelab from {reelab.__file__}, not from {src}")
    return reelab


def _load_refs() -> dict:
    with open(os.path.join(HERE, "references.json"), encoding="utf-8") as fh:
        return json.load(fh)


@contextlib.contextmanager
def work_dir():
    """A scratch directory for state files, inside the checkout, removed after."""
    root = os.path.join(HERE, ".work")
    os.makedirs(root, exist_ok=True)
    path = tempfile.mkdtemp(dir=root)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(root)


def _percentile(values, q: int) -> float:
    """The q-th percentile as statistics.quantiles gives it (exclusive method)."""
    return statistics.quantiles(values, n=100)[q - 1] if len(values) > 1 else values[0]


class SetupProbes:
    """Interpreter start to first timed operation, in fresh child processes.

    The probes are spread over the run, at most one every `every_s` seconds
    between operations, so that their median does not hang on a few seconds
    of a shared machine; finish() tops them up to SETUP_REPEATS. The times
    are wall clock; run_workload scales their median (see README.md).
    """

    def __init__(self, workload: str, seed: int, every_s: float) -> None:
        self.argv = [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(seed),
                     "--setup-probe"]
        self.every_s = every_s
        self.times = []
        self.last = None

    def probe(self) -> None:
        t0 = perf_counter()
        proc = subprocess.Popen(self.argv, cwd=ROOT, stdout=subprocess.PIPE)
        try:
            line = proc.stdout.readline()
            self.times.append(perf_counter() - t0)
        finally:
            proc.stdout.close()
            code = proc.wait(timeout=120)
        if line.strip() != b"ready" or code != 0:
            raise SystemExit(f"perfbench: setup probe failed (exit {code})")
        self.last = perf_counter()

    def maybe_probe(self) -> None:
        if self.last is None or perf_counter() - self.last >= self.every_s:
            self.probe()

    def finish(self) -> list:
        while len(self.times) < SETUP_REPEATS:
            self.probe()
        return self.times


def _run_rounds(bench, rounds, rng, seconds, pause, failures, probes=None) -> tuple[list, list]:
    """Run planned rounds, then new ones until `seconds` have passed.

    Stops on a round boundary, so every class of input appears equally
    often. Setup probes, if given, run between operations. Returns the
    rounds run and, for every operation, its description, its latency and
    the speed scale around it.
    """
    log = speed.SpeedLog()
    timed = []
    done = []
    start = perf_counter()
    queue = list(rounds)
    while queue or (rng is not None and perf_counter() - start < seconds):
        ops = queue.pop(0) if queue else bench.plan_round(rng)
        for op in ops:
            if probes is not None:
                probes.maybe_probe()
            log.maybe_sample()
            t0 = perf_counter()
            latency, problem = bench.run(op, pause)
            timed.append((bench.describe(op), latency, t0, perf_counter()))
            if problem:
                failures.append(problem)
        done.append(ops)
    log.sample()
    return done, [(desc, latency, log.scale(t0, t1)) for desc, latency, t0, t1 in timed]


def _figures(records) -> dict:
    """Timing figures of one run, as name -> (value, unit).

    Each operation is costed at its latency times the speed scale around
    it (see speed.py). Percentiles are taken over operations, each at the
    median cost of its input across the run's repetitions, so they hinge
    neither on single repetitions of the two inputs around the middle nor
    on a repetition that a slow spell of the machine caught. Plain
    wall-clock figures are kept under wall_*.
    """
    costs = [latency * scale for _, latency, scale in records]
    by_input = {}
    for (desc, _, _), cost in zip(records, costs):
        by_input.setdefault(desc[0], []).append(cost)
    typical = {key: statistics.median(values) for key, values in by_input.items()}
    per_op = [typical[desc[0]] for desc, _, _ in records]
    walls = [latency for _, latency, _ in records]
    out = {
        "ops_per_s": (len(records) / sum(costs), "1/s"),
        "op_ms_p50": (1000.0 * statistics.median(per_op), "ms"),
        "wall_ops_per_s": (len(records) / sum(walls), "1/s"),
        "wall_op_ms_p50": (1000.0 * statistics.median(walls), "ms"),
    }
    # the highest percentile with at least ten samples beyond it
    if len(records) >= 100:
        out["op_ms_p90"] = (1000.0 * _percentile(per_op, 90), "ms")
    stages, classes = {}, {}
    for ((_, stage, weight, group), _, _), cost in zip(records, costs):
        done, total = stages.get(stage, (0, 0.0))
        stages[stage] = (done + weight, total + cost)
        classes.setdefault(group, []).append(cost)
    names = {"solve": "solves_per_s", "mkstate": "mkstate_files_per_s",
             "compute": "compute_files_per_s", "verify": "verify_trials_per_s"}
    for stage, (done, total) in stages.items():
        out[names[stage]] = (done / total, "1/s")
    if "solve" in stages:
        for group, values in sorted(classes.items()):
            out[f"solve_ms_mean.{group}"] = (1000.0 * statistics.fmean(values), "ms")
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    reelab = _import_reelab()
    probes = SetupProbes(name, seed, (seconds / 2 if trace else seconds) / SETUP_REPEATS)
    import machine
    import spans
    import workloads

    info = machine.info(reelab)
    with work_dir() as workdir:
        bench = workloads.make(name, _load_refs(), reelab, workdir)
        bench.warm_up()
        rng = workloads.seeded_rng(seed)
        failures = []
        tracer = spans.Tracer()
        if not trace:
            _, records = _run_rounds(bench, [], rng, seconds, contextlib.nullcontext, failures, probes)
            traced = []
        else:
            # a fixed number of rounds, drawn from the seed, so that layer
            # totals compare between commits; they run untraced for half of
            # --seconds and then once traced, and the time ratio is the
            # tracing overhead on identical inputs
            rounds = [bench.plan_round(rng) for _ in range(bench.TRACE_ROUNDS)]
            records, passes = [], []
            start = perf_counter()
            while not passes or perf_counter() - start < seconds / 2:
                _, timed = _run_rounds(bench, rounds, None, 0.0, contextlib.nullcontext, failures, probes)
                records += timed
                passes.append(sum(latency * scale for _, latency, scale in timed))
            with spans.tracing(tracer) as pause:
                _, traced = _run_rounds(bench, rounds, None, 0.0, pause, failures)

    setup_times = probes.finish()
    attempted = len(records) + len(traced)
    figures = _figures(records)
    # start-up is too short to have kernel samples of its own, so it takes
    # the run's median speed scale
    figures["wall_setup_s"] = (statistics.median(setup_times), "s")
    figures["setup_s"] = (figures["wall_setup_s"][0] * statistics.median(scale for *_, scale in records), "s")
    figures["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    figures["failed_frac"] = (len(failures) / attempted, "ratio")
    if trace:
        metrics = spans.layer_metrics(tracer, info["verify_workers"])
        traced_s = sum(latency * scale for _, latency, scale in traced)
        metrics["trace.overhead_frac"] = (traced_s / statistics.median(passes) - 1.0, "ratio")
        metrics["trace.ops"] = (len(traced), "count")
    else:
        metrics = {k: figures[k] for k in ("setup_s", "ops_per_s", "op_ms_p50", "peak_rss_mb")}
    return {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "samples": len(records),
        "distinct_inputs": len({desc[0] for desc, _, _ in records}),
        "setup_samples_s": setup_times,
        "machine": info,
        "figures": {k: {"value": v, "unit": u} for k, (v, u) in sorted(figures.items())},
        "failures": failures[:20],
        "result": {
            "correct": not failures,
            "attempted": attempted,
            "failed": len(failures),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
    }


def _setup_probe(name: str) -> None:
    reelab = _import_reelab()
    import workloads

    workloads.make(name, _load_refs(), reelab)
    print("ready", flush=True)


def _report(seed: int, seconds: int) -> int:
    """Run every workload in its own process and print one table."""
    rows = []
    for name in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"perfbench: {name} failed (exit {proc.returncode})", file=sys.stderr)
            return 1
        rows.append((json.loads(lines[-2]), json.loads(lines[-1])))
    print(json.dumps({"machine": rows[0][0]["machine"]}, sort_keys=True))
    for row, result in rows:
        print(f"\n{row['workload']}  (seed {row['seed']}, {row['samples']} operations timed over "
              f"{row['distinct_inputs']} inputs, {result['failed']} failed)")
        for key, cell in sorted(row["figures"].items()):
            print(f"  {key:24s} {cell['value']:>14.6g} {cell['unit']}")
        for problem in row["failures"]:
            print(f"  FAILED {problem}")
    return 0 if all(result["correct"] for _, result in rows) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", action="store_true", help="run every workload and print one table")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be nonnegative and --seconds positive")
    if args.report:
        return _report(args.seed, args.seconds)
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_probe:
        _setup_probe(args.workload)
        return 0
    out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for problem in out["failures"]:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    result = out.pop("result")
    print(json.dumps(out, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
