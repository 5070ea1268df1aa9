"""Self-checks of the benchmark itself.

    python3 perfbench/selfcheck.py

1. The campaign makes zero solver calls.
2. Each solve panel covers every (dims, rank) class it names, and its
   Werner and Bell-diagonal points lie on the sides of the PPT boundary
   their slot names claim.
3. With the pinned references one round of solve_small and of campaign
   has failed_frac 0; with references moved by 1e-6 bits it is positive.
4. The per-solve eigh count repeats exactly across two traced runs.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import copy
import sys

import numpy as np

import run

reelab = run._import_reelab()

import panels  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SMALL_CLASSES = {(2, 2, r) for r in range(1, 5)} | {(2, 3, r) for r in range(1, 7)}
DENSE_CLASSES = {(3, 3, r) for r in range(1, 10)} | {(4, 4, 1)}


def _traced(bench, ops, tracer):
    """Run ops with the spans on; return the failures."""
    failures = []
    with spans.tracing(tracer) as pause:
        run._run_rounds(bench, [ops], None, 0.0, pause, failures)
    return failures


def check_campaign_solver_free(refs, workdir) -> str | None:
    bench = workloads.make("campaign", refs, reelab, workdir)
    tracer = spans.Tracer()
    ops = [op for r in range(2) for op in bench.plan_round(workloads.seeded_rng(r))]
    failures = _traced(bench, ops, tracer)
    if failures:
        return f"campaign failed: {failures[0]}"
    if tracer.calls["solver.ree_ppt"] != 0 or tracer.calls["cli.main"] != len(ops):
        return f"campaign made {tracer.calls['solver.ree_ppt']} solver calls in {tracer.calls['cli.main']} CLI calls"
    return None


def check_panel_classes() -> str | None:
    for name, named in (("solve_small", SMALL_CLASSES), ("solve_dense", DENSE_CLASSES)):
        seen = set()
        for cases in panels.solve_panel(name):
            for case in cases:
                da, db = case.dims
                rank = int(np.linalg.matrix_rank(case.mat, tol=1e-10))
                seen.add((da, db, rank))
                low_pt = float(np.linalg.eigvalsh(
                    case.mat.reshape(da, db, da, db).transpose(0, 3, 2, 1).reshape(da * db, da * db))[0])
                if case.slot.endswith("-ppt") and low_pt < -1e-12:
                    return f"{case.key} is not PPT (min PT eigenvalue {low_pt:.3g})"
                if case.slot.endswith("-npt") and low_pt >= 0:
                    return f"{case.key} is PPT"
        if not named <= seen:
            return f"{name} misses classes {sorted(named - seen)}"
        keys = [case.key for cases in panels.solve_panel(name) for case in cases]
        bench = workloads.make(name, {}, reelab)
        if sorted(c.key for c in bench.plan_round(workloads.seeded_rng(5))) != sorted(keys):
            return f"{name}: a round does not hold every panel member once"
    if not any(c[0].slot.startswith("werner-ppt") for c in panels.solve_panel("solve_small")):
        return "solve_small has no PPT-side Werner points"
    return None


def check_perturbed_reference(refs, workdir) -> str | None:
    """One round per workload with true references, then with perturbed ones."""
    bad = copy.deepcopy(refs)
    for entry in bad["solve"].values():
        entry["ree_bits"] -= 1e-6
    for entry in bad["compute"].values():
        entry["lines"]["entropy_joint_bits"] += 1e-6
    for name in ("solve_small", "campaign"):
        fracs = []
        for table in (refs, bad):
            bench = workloads.make(name, table, reelab, workdir)
            failures = []
            _, records = run._run_rounds(bench, [bench.plan_round(workloads.seeded_rng(0))], None, 0.0,
                                         contextlib.nullcontext, failures)
            fracs.append(len(failures) / len(records))
        print(f"  {name}: failed_frac {fracs[0]:.3f} with the pinned references, {fracs[1]:.3f} perturbed")
        if fracs[0] != 0.0 or fracs[1] == 0.0:
            return f"{name}: failed_frac {fracs} with true and perturbed references"
    return None


def check_eigh_counts_repeat(refs) -> str | None:
    counts = []
    for _ in range(2):
        bench = workloads.make("solve_small", refs, reelab)
        per_solve = []
        for cases in bench.slots[:6]:
            tracer = spans.Tracer()
            failures = _traced(bench, [cases[0]], tracer)
            if failures:
                return failures[0]
            per_solve.append(tracer.calls["hermitian.eigh"])
        counts.append(per_solve)
    if counts[0] != counts[1] or not all(counts[0]):
        return f"per-solve eigh counts differ: {counts}"
    print(f"  per-solve eigh counts: {counts[0]}")
    return None


def main() -> int:
    refs = run._load_refs()
    bad = 0
    with run.work_dir() as workdir:
        for name, check in (
            ("campaign makes zero solver calls", lambda: check_campaign_solver_free(refs, workdir)),
            ("solve panels cover their classes", check_panel_classes),
            ("perturbed references are caught", lambda: check_perturbed_reference(refs, workdir)),
            ("per-solve eigh counts repeat", lambda: check_eigh_counts_repeat(refs)),
        ):
            problem = check()
            print(f"{'FAIL' if problem else 'ok  '} {name}" + (f": {problem}" if problem else ""), flush=True)
            bad += problem is not None
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
