"""Seeded verification campaigns with machine-readable reports.

Each suite checks one inequality or identity on randomly sampled states.
_SUITES holds each suite's trial and default tolerance; a trial raises
InputError on dims it cannot take (lemma3 off 2x2, monotone at d = 1).
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
    _reduce,
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
    _ppt_edge_weight,
    _random_density_arr,
    partial_trace_B,
    random_density,
    random_pure,
    random_separable,
    tensor_bipartite,
)

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
        "quantities": record.quantities,
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


def _state_seed(rng: np.random.Generator) -> int:
    # a scalar draw gives the value of a draw of size 1 at a third of the cost
    return int(rng.integers(0, 2**63 - 1))


# Rejection chunks: doubling, so a dimension where most candidates pass
# builds few wasted ones; together they spend the budget of 200.
_PPT_CHUNKS = (8, 16, 32, 64, 80)


def _random_nondistillable(rng, dims) -> DensityMatrix:
    """A state satisfying the PPT hypothesis, with mixed ranks represented.

    One quarter of draws are explicit short product mixtures, which are
    separable (hence PPT) and usually rank deficient; the rest are
    Ginibre states of random rank, rejection-sampled to a PSD partial
    transpose with a budget of 200 candidates.  When the budget runs
    out, the 200th candidate is blended toward the uniform state onto
    the PPT boundary, by the closed-form weight of
    states._ppt_edge_weight.  That is not rare: on the four seeds of the
    benchmark campaign's 2x3 theorem1 slot, 100 trials each, it happens
    in 0 of the 313 Ginibre trials at 2x2, 101 at 2x3 and all 313 at 3x3.

    Candidates are drawn from rng in chunks and screened by
    states._first_ppt, so rng may be drawn past the accepted candidate:
    a caller must not read rng after this returns.  Only the returned
    state is validated.
    """
    d = dims.total
    da, db = dims.da, dims.db
    if rng.integers(0, 4) == 0:
        k = int(rng.integers(1, 4))
        return random_separable(dims, _state_seed(rng), k=k)
    for size in _PPT_CHUNKS:
        specs = [(int(rng.integers(1, d + 1)), _state_seed(rng)) for _ in range(size)]
        mat = _first_ppt(specs, da, db)
        if mat is not None:
            return DensityMatrix(mat, dims)
    last = _random_density_arr(d, *specs[-1])
    t = _ppt_edge_weight(last, da, db)
    return DensityMatrix((1.0 - t) * last + t * (np.eye(d) / d), dims)


def _random_sigma(rng, dims) -> tuple[DensityMatrix, int]:
    """A random state of uniformly drawn rank on dims, and that rank."""
    rank = int(rng.integers(1, dims.total + 1))
    return random_density(dims.total, rank, _state_seed(rng)).tagged(dims.da, dims.db), rank


def _trial_theorem1(rng, dims, tol, trial):
    sigma, rank_s = _random_sigma(rng, dims)
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
    sigma, rank = _random_sigma(rng, dims)
    res = ree_ppt(sigma)
    bound = lemma2_bound(sigma)
    quantities = {"bound": bound, "rank": float(rank), "ree": res.value_bits}
    quantities.update(_solve_diagnostics(res))
    # the certified lower bound, not the value, must clear the bound
    return quantities, min(res.lower_bits - bound, res.lower_bits)


def _trial_corollary1(rng, dims, tol, trial):
    psi = random_pure(dims, _state_seed(rng))
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
    # both ends of the certified interval must meet the reduced entropy
    gaps = (abs(res.value_bits - reduced_entropy), abs(res.lower_bits - reduced_entropy))
    return quantities, -max(gaps)


def _trial_corollary2(rng, dims, tol, trial):
    psi1 = random_pure(dims, _state_seed(rng))
    psi2 = random_pure(dims, _state_seed(rng))
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
    # each side's certified lower bound stays below the other side's value
    return quantities, -max(
        abs(r12.value_bits - r1.value_bits - r2.value_bits),
        r12.lower_bits - r1.value_bits - r2.value_bits,
        r1.lower_bits + r2.lower_bits - r12.value_bits,
    )


def _trial_lemma3(rng, dims, tol, trial):
    if (dims.da, dims.db) != (2, 2):
        raise InputError("lemma3 needs two-qubit states")
    sigma, rank = _random_sigma(rng, dims)
    res = ree_ppt(sigma)
    eof = eof_two_qubit(sigma)
    ent = von_neumann_entropy(sigma)
    quantities = {"eof": eof, "entropy": ent, "rank": float(rank), "ree": res.value_bits}
    quantities.update(_solve_diagnostics(res))
    # the certified lower bound, not the value, must clear E_F - S
    return quantities, res.lower_bits - (eof - ent)


def _trial_lemma4(rng, dims, tol, trial):
    psi = random_pure(dims, _state_seed(rng))
    sigma = psi.density()
    res = ree_ppt(sigma)
    bound = lemma2_bound(sigma)
    quantities = {"bound": bound, "ree": res.value_bits}
    quantities.update(_solve_diagnostics(res))
    if abs(res.value_bits - bound) >= _SATURATION_GATE:
        return quantities, None
    reduced = {side: _reduce(sigma, side) for side in "AB"}
    entropies = {side: von_neumann_entropy(r) for side, r in reduced.items()}
    worst = 0.0
    for side, other in ("AB", "BA"):
        if entropies[side] >= entropies[other] - 1e-12:
            delta = _reduce(res.closest_state, side).mat - reduced[side].mat
            worst = max(worst, 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(delta)))))
    quantities["reduction_distance"] = worst
    return quantities, -worst


def _trial_monotone(rng, dims, tol, trial):
    d = dims.total
    if d < 2:
        raise InputError("monotone needs a total dimension of at least 2")
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
    rho, rank = _random_sigma(rng, dims)
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


# suite name -> (trial, default tolerance), where
# trial(rng, dims, tol, trial index) -> (quantities, margin)
_SUITES = {
    "theorem1": (_trial_theorem1, 1e-8),
    "lemma2": (_trial_lemma2, 1e-8),
    "corollary1": (_trial_corollary1, 1e-8),
    "corollary2": (_trial_corollary2, 1e-8),
    "lemma3": (_trial_lemma3, 1e-8),
    "lemma4": (_trial_lemma4, 1e-8),
    "monotone": (_trial_monotone, MONOTONE_TOL),
    "reduction": (_trial_reduction, PSD_TOL),
}

SUITE_NAMES = tuple(_SUITES)


def _run_trial(suite: str, master_seed: int, trial: int, dims: BipartiteDims, tol: float):
    quantities, margin = _SUITES[suite][0](_trial_rng(master_seed, suite, trial), dims, tol, trial)
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
        tol = _SUITES[suite][1]
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
