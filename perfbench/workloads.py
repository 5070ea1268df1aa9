"""The benchmark's workloads: closed loops of operations, each checked.

One caller issues the next operation only after the previous one returns.
A workload yields rounds of operations. An operation returns its latency in
seconds and, if it failed, a reason. Checks run after the timer stops and
with tracing paused, so they cost the measurement nothing.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from time import perf_counter

import numpy as np

import panels

# an REE may exceed its pinned reference, or undercut a known lower bound,
# by at most this many bits; the same band applies to compute outputs
TOL_BITS = 1e-9


class SolveWorkload:
    """reelab.ree_ppt on a seeded panel of states."""

    # rounds in a traced run: every panel member once
    TRACE_ROUNDS = 1

    def __init__(self, name: str, refs: dict, reelab) -> None:
        self.reelab = reelab
        self.slots = panels.solve_panel(name)
        self.refs = refs.get("solve", {})
        for cases in self.slots:
            for case in cases:
                case.state = reelab.DensityMatrix(case.mat, case.dims)

    def plan_round(self, rng) -> list:
        cases = [case for cases in self.slots for case in cases]
        return [cases[i] for i in rng.permutation(len(cases))]

    @staticmethod
    def describe(case) -> tuple:
        """(input key, stage, work units, class) of one operation."""
        return case.key, "solve", 1, case.slot.split("-")[0]

    def warm_up(self) -> None:
        self.reelab.ree_ppt(self.slots[0][0].state)

    def run(self, case, pause) -> tuple[float, str | None]:
        solver = self.reelab.solver
        t0 = perf_counter()
        try:
            result = solver.ree_ppt(case.state)
        except Exception as exc:  # a failed operation is counted, not fatal
            return perf_counter() - t0, f"{case.key}: raised {type(exc).__name__}: {exc}"
        latency = perf_counter() - t0
        with pause():
            return latency, self.check(case, result.value_bits, self.refs)

    @staticmethod
    def check(case, value, refs) -> str | None:
        if not isinstance(value, float) or not math.isfinite(value):
            return f"{case.key}: non-finite REE {value!r}"
        ref = refs.get(case.key)
        if ref is None or ref["input"] != panels.fingerprint(case.mat):
            return f"{case.key}: no pinned reference for this input; run perfbench/pin.py"
        if value > ref["ree_bits"] + TOL_BITS:
            return f"{case.key}: REE {value!r} above pinned {ref['ree_bits']!r}"
        if value < case.lower_bits - TOL_BITS:
            return f"{case.key}: REE {value!r} below lower bound {case.lower_bits!r}"
        return None


def parse_compute(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        key, _, raw = line.partition(": ")
        if raw in ("true", "false"):
            out[key] = raw == "true"
        elif key == "dims":
            out[key] = raw
        else:
            out[key] = float(raw)
    return out


def compare_compute(got: dict, want: dict) -> str | None:
    if set(got) != set(want):
        return f"keys {sorted(set(got) ^ set(want))} differ"
    for key, ref in want.items():
        value = got[key]
        if isinstance(ref, float):
            if not math.isfinite(value) or abs(value - ref) > TOL_BITS:
                return f"{key} {value!r} differs from pinned {ref!r}"
        elif value != ref:
            return f"{key} {value!r} differs from pinned {ref!r}"
    return None


class CampaignWorkload:
    """The reelab CLI in-process: mkstate, compute, then solver-free verify."""

    # rounds in a traced run, each one seeded pick per pool
    TRACE_ROUNDS = 4

    def __init__(self, refs: dict, reelab, workdir: str | None = None) -> None:
        self.reelab = reelab
        self.specs = panels.campaign_specs()
        self.verify = panels.verify_seeds()
        self.refs = refs.get("compute", {})
        self.workdir = workdir

    def plan_round(self, rng) -> list:
        picks = [self.specs[i][int(rng.integers(len(self.specs[i])))] for i in rng.permutation(len(self.specs))]
        ops = [("mkstate", key, argv, f"slot{n}.json") for n, (key, argv) in enumerate(picks)]
        ops += [("compute", key, None, f"slot{n}.json") for n, (key, _) in enumerate(picks)]
        for i in rng.permutation(len(self.verify)):
            suite, dims, seeds = self.verify[i]
            seed = seeds[int(rng.integers(len(seeds)))]
            ops.append(("verify", f"{suite}-{dims}-{seed}", [suite, dims, seed], f"{suite}-{dims}.jsonl"))
        return ops

    @staticmethod
    def describe(op) -> tuple:
        """(input key, stage, work units, class) of one operation."""
        stage, key = op[0], op[1]
        return f"{stage} {key}", stage, panels.VERIFY_TRIALS if stage == "verify" else 1, stage

    def warm_up(self) -> None:
        key, argv = self.specs[0][0]
        self._cli(["mkstate", *argv, "--out", os.path.join(self.workdir, "warm.json")])
        self._cli(["compute", os.path.join(self.workdir, "warm.json")])
        suite, dims, seeds = self.verify[0]
        self._cli(["verify", suite, "--trials", "2", "--seed", str(seeds[0]), "--dims", dims,
                   "--out", os.path.join(self.workdir, "warm.jsonl")])

    def _cli(self, argv) -> tuple[int, str, float]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = perf_counter()
            try:
                code = self.reelab.cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            latency = perf_counter() - t0
        return code, out.getvalue() + err.getvalue(), latency

    def run(self, op, pause) -> tuple[float, str | None]:
        stage, key, args, name = op
        path = os.path.join(self.workdir, name)
        if stage == "mkstate":
            argv = ["mkstate", *args, "--out", path]
        elif stage == "compute":
            argv = ["compute", path]
        else:
            suite, dims, seed = args
            argv = ["verify", suite, "--trials", str(panels.VERIFY_TRIALS), "--seed", str(seed),
                    "--dims", dims, "--out", path]
        t0 = perf_counter()
        try:
            code, text, latency = self._cli(argv)
        except Exception as exc:  # a failed operation is counted, not fatal
            return perf_counter() - t0, f"{stage} {key}: raised {type(exc).__name__}: {exc}"
        if code != 0:
            return latency, f"{stage} {key}: exit code {code}: {text.strip()[:200]}"
        with pause():
            return latency, getattr(self, f"_check_{stage}")(key, path, text)

    def _check_mkstate(self, key, path, text) -> str | None:
        with open(path, encoding="ascii") as fh:
            written = fh.read()
        statefile = self.reelab.statefile
        if statefile.dumps_state(statefile.loads_state(written)) != written:
            return f"mkstate {key}: file does not round-trip byte-identically"
        return None

    def _check_compute(self, key, path, text) -> str | None:
        ref = self.refs.get(key)
        with open(path, encoding="ascii") as fh:
            written = fh.read()
        if ref is None or ref["input"] != panels.fingerprint(written):
            return f"compute {key}: no pinned reference for this file; run perfbench/pin.py"
        try:
            problem = compare_compute(parse_compute(text), ref["lines"])
        except ValueError as exc:
            problem = f"unreadable output ({exc})"
        return f"compute {key}: {problem}" if problem else None

    def _check_verify(self, key, path, text) -> str | None:
        with open(path, encoding="ascii") as fh:
            lines = fh.read().splitlines()
        try:
            records = [json.loads(line) for line in lines]
        except ValueError as exc:
            return f"verify {key}: unreadable record ({exc})"
        summary = records[-1] if records else {}
        if len(records) != panels.VERIFY_TRIALS + 1 or summary.get("failed") != 0:
            return f"verify {key}: {len(records)} lines, summary {summary}"
        return None


def make(name: str, refs: dict, reelab, workdir: str | None = None):
    if name in ("solve_small", "solve_dense"):
        return SolveWorkload(name, refs, reelab)
    if name == "campaign":
        return CampaignWorkload(refs, reelab, workdir)
    raise ValueError(f"unknown workload {name!r}")


def seeded_rng(seed: int):
    return np.random.default_rng(seed)
