"""Regenerate perfbench/references.json from the program as it stands.

    python3 perfbench/pin.py

The references are the accuracy baseline that the benchmark's checks read:
the REE of every solve-panel input and the `compute` output of every
campaign state file. Regenerate them only on purpose, when a change is
meant to move those numbers, and say so in the change. The script refuses
to write a reference that breaks a known lower bound, and checks that every
pooled verify seed passes.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
from time import perf_counter

import run

reelab = run._import_reelab()

import panels  # noqa: E402
import workloads  # noqa: E402


def pin_solves(name: str, refs: dict) -> None:
    bench = workloads.make(name, {}, reelab)
    for cases in bench.slots:
        for case in cases:
            t0 = perf_counter()
            res = reelab.ree_ppt(case.state)
            dt = perf_counter() - t0
            refs[case.key] = {"input": panels.fingerprint(case.mat), "ree_bits": res.value_bits}
            problem = bench.check(case, res.value_bits, refs)
            print(f"{case.key:20s} {dt * 1000:9.1f} ms  ree {res.value_bits:.12f}  "
                  f"lower {case.lower_bits:.12f}  converged {res.converged}", flush=True)
            if problem:
                raise SystemExit(f"pin: {problem}")


def pin_campaign(refs: dict, workdir: str) -> None:
    bench = workloads.make("campaign", {}, reelab, workdir)
    path = os.path.join(workdir, "state.json")
    for members in bench.specs:
        for key, argv in members:
            code, _, _ = bench._cli(["mkstate", *argv, "--out", path])
            with open(path, encoding="ascii") as fh:
                text = fh.read()
            code2, out, _ = bench._cli(["compute", path])
            if code or code2:
                raise SystemExit(f"pin: {key}: exit codes {code}, {code2}")
            refs[key] = {"input": panels.fingerprint(text), "lines": workloads.parse_compute(out)}
    for suite, dims, seeds in bench.verify:
        for seed in seeds:
            op = ("verify", f"{suite}-{dims}-{seed}", [suite, dims, seed], "verify.jsonl")
            _, problem = bench.run(op, contextlib.nullcontext)
            if problem:
                raise SystemExit(f"pin: {problem}")


def main() -> int:
    refs = {"pool_seed": panels.POOL_SEED, "solve": {}, "compute": {}}
    pin_solves("solve_small", refs["solve"])
    pin_solves("solve_dense", refs["solve"])
    with run.work_dir() as workdir:
        pin_campaign(refs["compute"], workdir)
    with open(os.path.join(run.HERE, "references.json"), "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"pinned {len(refs['solve'])} REE values and {len(refs['compute'])} compute outputs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
