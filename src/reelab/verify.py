"""Seeded verification campaigns with machine-readable reports.

Each suite checks one inequality or identity on randomly sampled states.
_SUITES holds each suite's chunk evaluator and default tolerance; a suite
raises InputError on dims it cannot take (lemma3 off 2x2, monotone at
d = 1).  Trial i draws its generator from the seed sequence (master
seed, crc32(suite name), i), so different suites and different trials
never share a stream and any trial can be reproduced in isolation.  A
campaign runs its trials in chunks of at most hermitian._STACK_ENTRIES
matrix entries, in three steps: the chunk's generators are seeded in
one states._generators pass, each bit for bit the one
np.random.default_rng gives its seed sequence, and every trial of the
chunk draws its inputs from its own stream, one after another; the
chunk is evaluated in one stacked pass (theorem1, reduction and
monotone) or trial by trial (the suites that call the solver); and one
record per trial is written, in trial order.  The stacked kernels
reproduce their single-state functions bit for bit, so the records do
not depend on the chunking.  Records serialize as one JSON object per
line with sorted keys and 17-significant-digit decimals; non-finite
values appear as the strings "inf", "-inf", or "nan".

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
    _sample_monotone_pairs,
    _witnesses,
)
from .entropy import (
    _reduce,
    _theorem1_gaps,
    lemma2_bound,
    relative_entropy,
    von_neumann_entropy,
)
from .errors import InputError
from .hermitian import _LOG_PD, _STACK_ENTRIES, PSD_TOL, _eigvalsh, _matrix_functions
from .solver import closest_state_for_pure, eof_two_qubit, ree_ppt
from .statefile import _fmt
from .states import (
    BipartiteDims,
    DensityMatrix,
    _as_dims,
    _entropy,
    _first_ppt,
    _generators,
    _ginibre,
    _gram_state,
    _integral,
    _partial_transpose_b,
    _ppt_edge_weight,
    _random_separable_arr,
    _reduction_b,
    _states,
    partial_trace_B,
    random_pure,
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


def _trial_rngs(master_seed: int, suite: str, trials) -> list:
    """The generators of the given trials, trial i's that of the seed sequence (master_seed, crc32(suite), i)."""
    tag = zlib.crc32(suite.encode("ascii"))
    return list(_generators(_entropy((master_seed, tag), trials)))


def _trial_rng(master_seed: int, suite: str, trial: int) -> np.random.Generator:
    return _trial_rngs(master_seed, suite, [trial])[0]


def _state_seed(rng: np.random.Generator) -> int:
    # a scalar draw gives the value of a draw of size 1 at a third of the
    # cost; _nondistillable_arrays draws a chunk's seeds with their ranks in
    # one bounded draw, which gives the values of these calls in turn
    return int(rng.integers(0, 2**63 - 1))


# Rejection chunks: doubling, so a dimension where most candidates pass
# builds few wasted ones; together they spend the budget of 200.
_PPT_CHUNKS = (8, 16, 32, 64, 80)


def _nondistillable_arrays(rngs, dims) -> list:
    """One array per generator of a state satisfying the PPT hypothesis, with mixed ranks represented.

    One quarter of draws are explicit short product mixtures, which are
    separable (hence PPT) and usually rank deficient; the rest are
    Ginibre states of random rank, rejection-sampled to a PSD partial
    transpose with a budget of 200 candidates.  When the budget runs
    out, the 200th candidate is blended toward the uniform state onto
    the PPT boundary, by the closed-form weight of
    states._ppt_edge_weight.  That is not rare: on the four seeds of the
    benchmark campaign's 2x3 theorem1 slot, 100 trials each, it happens
    in 0 of the 313 Ginibre trials at 2x2, 101 at 2x3 and all 313 at 3x3.

    Each generator draws its own candidates in the chunks of _PPT_CHUNKS,
    all (rank, seed) pairs of a chunk in one integers call with
    elementwise bounds.  numpy draws such a call element by element with
    the routine of a scalar call, so the pairs, and the stream after
    them, are those of a loop of scalar rank and _state_seed draws.
    Chunk k of every generator still without a state is screened by one
    states._first_ppt call, so each array is the one a loop over that
    generator's candidates accepts.  That call builds no candidate of
    rank at most max(dA, dB) when both are at least 2, since those are
    NPT; their (rank, seed) pairs are still drawn, so each stream is the
    loop's, and an exhausted budget's 200th candidate is rebuilt whatever
    its rank.  The separable quarter and those rebuilds are each seeded
    in one _generators pass.  A generator may be drawn past its accepted
    candidate: a caller must not read it after this returns.  The arrays
    are not validated.
    """
    d = dims.total
    da, db = dims.da, dims.db
    out = [None] * len(rngs)
    separable, pending = [], []
    for k, rng in enumerate(rngs):
        if rng.integers(0, 4) == 0:
            kind = int(rng.integers(1, 4))
            separable.append((k, kind, _state_seed(rng)))
        else:
            pending.append(k)
    seeded = _generators(_entropy((), [seed for _, _, seed in separable]))
    for (k, kind, _), rng in zip(separable, seeded):
        out[k] = _random_separable_arr(dims, rng, kind)
    for size in _PPT_CHUNKS:
        if not pending:
            return out
        low = np.array([1, 0] * size, dtype=np.int64)
        high = np.array([d + 1, 2**63 - 1] * size, dtype=np.int64)
        groups = np.stack([rngs[k].integers(low, high).reshape(size, 2) for k in pending])
        for k, mat in zip(pending, _first_ppt(groups, da, db)):
            out[k] = mat
        # the rows of this chunk whose generator is still without a state
        left = [j for j, k in enumerate(pending) if out[k] is None]
        pending = [pending[j] for j in left]
    for k, mat in zip(pending, _density_arrays(d, groups[left, -1])):
        t = _ppt_edge_weight(mat, da, db)
        out[k] = (1.0 - t) * mat + t * (np.eye(d) / d)
    return out


def _density_arrays(d: int, specs) -> list:
    """_random_density_arr(d, rank, seed) for each (rank, seed) of specs, the seeds hashed in one _generators pass."""
    seeded = _generators(_entropy((), [seed for _, seed in specs]))
    return [_gram_state(_ginibre(rng, d, rank)) for (rank, _), rng in zip(specs, seeded)]


def _sigma_draws(rngs, d: int) -> list:
    """For each generator, a uniformly drawn rank and the array of a random state of that rank on dimension d.

    Each generator draws the rank and then the seed of its state, whose
    array is _random_density_arr(d, rank, seed), built by _density_arrays.
    """
    specs = [(int(rng.integers(1, d + 1)), _state_seed(rng)) for rng in rngs]
    return [(rank, mat) for (rank, _), mat in zip(specs, _density_arrays(d, specs))]


def _random_sigma(rng, dims) -> tuple[DensityMatrix, int]:
    """The state of _sigma_draws on dims for one generator, and its rank."""
    [(rank, mat)] = _sigma_draws([rng], dims.total)
    return DensityMatrix(mat, dims), rank


def _theorem1(rngs, dims, tol, trials):
    draws = _sigma_draws(rngs, dims.total)
    # the last read of each stream: the sampler may draw past its accepted candidate
    rho = _states(np.stack(_nondistillable_arrays(rngs, dims)))
    sigma = _states(np.stack([mat for _, mat in draws]))
    gaps_a, gaps_b = _theorem1_gaps(sigma, rho, dims.da, dims.db)
    out = []
    for (rank, _), gap_a, gap_b in zip(draws, gaps_a.tolist(), gaps_b.tolist()):
        # a NaN gap is theorem1_gap's None: indeterminate
        quantities = {"gap_a": gap_a, "gap_b": gap_b, "rank_sigma": float(rank)}
        out.append((quantities, None if math.isnan(gap_a) or math.isnan(gap_b) else min(gap_a, gap_b)))
    return out


def _solve_diagnostics(res, name: str = "ree") -> dict:
    """Whether one solve converged, and its iteration count, as record floats."""
    return {
        f"{name}_converged": 1.0 if res.converged else 0.0,
        f"{name}_iterations": float(res.iterations),
    }


def _trial_lemma2(rng, dims, tol):
    sigma, rank = _random_sigma(rng, dims)
    res = ree_ppt(sigma)
    bound = lemma2_bound(sigma)
    quantities = {"bound": bound, "rank": float(rank), "ree": res.value_bits}
    quantities.update(_solve_diagnostics(res))
    # the certified lower bound, not the value, must clear the bound
    return quantities, min(res.lower_bits - bound, res.lower_bits)


def _trial_corollary1(rng, dims, tol):
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


def _trial_corollary2(rng, dims, tol):
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


def _trial_lemma3(rng, dims, tol):
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


def _trial_lemma4(rng, dims, tol):
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
            worst = max(worst, 0.5 * float(np.sum(np.abs(_eigvalsh(delta)))))
    quantities["reduction_distance"] = worst
    return quantities, -worst


def _monotone(rngs, dims, tol, trials):
    d = dims.total
    if d < 2:
        raise InputError("monotone needs a total dimension of at least 2")
    out = []
    if trials[0] == 0:
        # the deterministic squaring counterexample; finding a violation
        # here is the expected outcome, so the slack is its magnitude
        a, b = _canonical_pair(d)
        viol = float(_eigvalsh(a @ a - b @ b)[0])
        out.append(({"square_violation": viol}, -viol))
        rngs = rngs[1:]
    if rngs:
        a, b, _, _ = _sample_monotone_pairs(rngs, d, (0.1, 10.0), (0.0, 1.0))
        logs = _matrix_functions(np.concatenate([a, b]), _LOG_PD)
        slacks = _eigvalsh(logs[: len(a)] - logs[len(a):])[:, 0].tolist()
        squares = _eigvalsh(a @ a - b @ b)[:, 0].tolist()
        out += [({"log_slack": s, "square_slack": q}, s) for s, q in zip(slacks, squares)]
    return out


def _reduction(rngs, dims, tol, trials):
    da, db = dims.da, dims.db
    draws = _sigma_draws(rngs, dims.total)
    rho = _states(np.stack([mat for _, mat in draws]))[0]
    red_holds, red_witness = _witnesses(_reduction_b(rho, da, db), tol)
    ppt_holds, ppt_witness = _witnesses(_partial_transpose_b(rho, da, db), tol)
    out = []
    for (rank, _), red, w_red, ppt, w_ppt in zip(
        draws, red_holds.tolist(), red_witness.tolist(), ppt_holds.tolist(), ppt_witness.tolist()
    ):
        quantities = {
            "ppt": 1.0 if ppt else 0.0,
            "ppt_witness": w_ppt,
            "rank": float(rank),
            "reduction": 1.0 if red else 0.0,
            "reduction_witness": w_red,
        }
        slacks = []
        # a PPT state is non-distillable, so the reduction operator must be PSD
        if ppt:
            slacks.append(w_red)
        # with the map acting on a qubit B side it is a conjugated partial
        # transpose, so the two criteria decide identically
        if db == 2:
            closest = min(abs(w_red), abs(w_ppt))
            slacks.append(closest if red == ppt else -closest)
        out.append((quantities, min(slacks) if slacks else math.inf))
    return out


def _one_by_one(trial):
    """A chunk evaluator that runs trial(rng, dims, tol) on each stream in turn: the solver suites."""
    return lambda rngs, dims, tol, trials: [trial(rng, dims, tol) for rng in rngs]


# suite name -> (evaluate, default tolerance), where
# evaluate(rngs, dims, tol, trial indices) -> [(quantities, margin)], one per trial
_SUITES = {
    "theorem1": (_theorem1, 1e-8),
    "lemma2": (_one_by_one(_trial_lemma2), 1e-8),
    "corollary1": (_one_by_one(_trial_corollary1), 1e-8),
    "corollary2": (_one_by_one(_trial_corollary2), 1e-8),
    "lemma3": (_one_by_one(_trial_lemma3), 1e-8),
    "lemma4": (_one_by_one(_trial_lemma4), 1e-8),
    "monotone": (_monotone, MONOTONE_TOL),
    "reduction": (_reduction, PSD_TOL),
}

SUITE_NAMES = tuple(_SUITES)


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

    Trials run in chunks of at most _STACK_ENTRIES matrix entries, each
    drawn, evaluated and recorded as the module docstring describes.
    Each trial draws only from its own stream, fixed by (seed, suite,
    index), so a longer campaign extends a shorter one record for record
    and any trial can be rerun alone.
    """
    if suite not in SUITE_NAMES:
        raise InputError(f"unknown suite {suite!r}")
    count, master = _integral(trials), _integral(seed)
    if count is None or count < 1:
        raise InputError(f"trials must be a positive integer, got {trials!r}")
    if master is None or not 0 <= master < 2**64:
        raise InputError(f"seed must be an integer that fits in an unsigned 64-bit integer, got {seed!r}")
    trials, seed = count, master
    dims = _as_dims(dims) or BipartiteDims(2, 2)
    if tol is None:
        tol = _SUITES[suite][1]
    if not tol > 0:
        raise InputError(f"tolerance must be positive, got {tol!r}")
    evaluate = _SUITES[suite][0]
    per_chunk = max(1, _STACK_ENTRIES // dims.total**2)
    records = []
    for start in range(0, trials, per_chunk):
        chunk = range(start, min(start + per_chunk, trials))
        outcomes = evaluate(_trial_rngs(seed, suite, chunk), dims, tol, chunk)
        for i, (quantities, margin) in zip(chunk, outcomes):
            indeterminate = margin is None
            records.append(ReportRecord(
                suite=suite,
                trial=i,
                seed=seed,
                dims=dims,
                quantities=quantities,
                margin=margin,
                passed=indeterminate or margin >= -tol,
                indeterminate=indeterminate,
            ))

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
