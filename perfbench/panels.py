"""Inputs of the benchmark workloads, generated with numpy alone.

Each workload is a list of slots. A slot names one input class, such as
"2x3 states of rank 4" or "mkstate random --dims 3x3", and owns a fixed
pool of inputs drawn from POOL_SEED, so the pinned references in
references.json cover every input a run can see. A run is a sequence of
rounds, and the run seed shapes each round:

- a solve round runs every member of every pool once, in seeded order, so
  every run times the same panel and solve costs, which differ by up to
  20x between inputs of one class, do not vary with the seed;
- a campaign round runs one seeded pick from every pool; it takes 2 to
  3 s, most of it in the theorem1 verify calls, and a 30-second run holds
  8 to 17 rounds.

Solve pools are small so that a round takes a few seconds and a run
repeats every input several times.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

POOL_SEED = 20001
POOL_SIZE = 4
# inputs per class: a solve_small round takes about 4 s, a solve_dense one 7 s
SMALL_POOL_SIZE = 2
DENSE_POOL_SIZE = 1

# Werner singlet weights on both sides of the PPT boundary F = 1/2
WERNER_PPT = (0.40, 0.49)
WERNER_NPT = (0.52, 0.75)

VERIFY_SUITES = ("theorem1", "reduction", "monotone")
VERIFY_DIMS = ("2x2", "2x3")
# the CLI's default --trials; theorem1 takes most of a round, 2x3 most of all
VERIFY_TRIALS = 100

_BELL = np.array(
    [
        [0.0, 1.0, -1.0, 0.0],
        [0.0, 1.0, 1.0, 0.0],
        [1.0, 0.0, 0.0, 1.0],
        [1.0, 0.0, 0.0, -1.0],
    ],
    dtype=np.complex128,
).T / math.sqrt(2.0)


def fingerprint(data) -> str:
    raw = data.encode("ascii") if isinstance(data, str) else np.ascontiguousarray(data).tobytes()
    return hashlib.sha256(raw).hexdigest()[:16]


def _entropy_bits(w) -> float:
    w = np.asarray(w, dtype=float)
    w = w[w > 1e-15]
    return float(-np.sum(w * np.log2(w)))


def _binary_entropy_bits(p: float) -> float:
    return _entropy_bits([p, 1.0 - p])


def _ginibre_state(rng, dim: int, rank: int) -> np.ndarray:
    g = (rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))) / math.sqrt(2.0)
    m = g @ g.conj().T
    return m / np.real(np.trace(m))


def _haar_vector(rng, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def _bell_diagonal(p) -> np.ndarray:
    return (_BELL * np.asarray(p, dtype=float)) @ _BELL.conj().T


def _bell_closed_form(p) -> float:
    """Exact REE of a Bell-diagonal state: 1 - h(p_max) above 1/2, else 0."""
    top = float(np.max(p))
    return 1.0 - _binary_entropy_bits(top) if top > 0.5 else 0.0


def lemma2_lower_bits(mat: np.ndarray, da: int, db: int) -> float:
    """max(S(A), S(B)) - S(AB), a lower bound on the REE."""
    t = mat.reshape(da, db, da, db)
    s_a = _entropy_bits(np.linalg.eigvalsh(np.einsum("ijkj->ik", t)))
    s_b = _entropy_bits(np.linalg.eigvalsh(np.einsum("ijil->jl", t)))
    return max(s_a, s_b) - _entropy_bits(np.linalg.eigvalsh(mat))


class SolveCase:
    """One ree_ppt input with its independently known lower bound."""

    __slots__ = ("key", "slot", "dims", "mat", "lower_bits", "state")

    def __init__(self, key, slot, dims, mat, lower_bits):
        self.key = key
        self.slot = slot
        self.dims = dims
        self.mat = mat
        self.lower_bits = lower_bits
        self.state = None


def _mixed_slot(rng, da: int, db: int, rank: int, size: int) -> list:
    slot = f"{da}x{db}-r{rank}"
    cases = []
    for k in range(size):
        mat = _ginibre_state(rng, da * db, rank)
        cases.append(SolveCase(f"{slot}-k{k}", slot, (da, db), mat, lemma2_lower_bits(mat, da, db)))
    return cases


def _werner_slot(slot: str, weights) -> list:
    cases = []
    for k, f in enumerate(weights):
        p = [f] + [(1.0 - f) / 3.0] * 3
        cases.append(SolveCase(f"{slot}-k{k}", slot, (2, 2), _bell_diagonal(p), _bell_closed_form(p)))
    return cases


def _bell_slot(rng, slot: str, entangled: bool) -> list:
    cases = []
    while len(cases) < SMALL_POOL_SIZE:
        p = rng.dirichlet(np.ones(4))
        # keep a margin from the boundary so the side is unambiguous
        if (entangled and p.max() > 0.55) or (not entangled and p.max() < 0.45):
            k = len(cases)
            cases.append(SolveCase(f"{slot}-k{k}", slot, (2, 2), _bell_diagonal(p), _bell_closed_form(p)))
    return cases


def _product_slot(rng, slot: str, size: int) -> list:
    """4x4 pure products psi1 (x) psi2 regrouped to (A1 A2)|(B1 B2), as in corollary2."""
    cases = []
    for k in range(size):
        v1, v2 = _haar_vector(rng, 4), _haar_vector(rng, 4)
        joint = np.kron(v1, v2).reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(16)
        mat = np.outer(joint, joint.conj())
        exact = sum(_entropy_bits(np.linalg.svd(v.reshape(2, 2), compute_uv=False) ** 2) for v in (v1, v2))
        cases.append(SolveCase(f"{slot}-k{k}", slot, (4, 4), mat, exact))
    return cases


def solve_panel(workload: str) -> list:
    """The slots of a solve workload, each a list of cases."""
    rng = np.random.default_rng([POOL_SEED, 1 if workload == "solve_small" else 2])
    if workload == "solve_small":
        slots = [_mixed_slot(rng, 2, 2, r, SMALL_POOL_SIZE) for r in range(1, 5)]
        slots += [_mixed_slot(rng, 2, 3, r, SMALL_POOL_SIZE) for r in range(1, 7)]
        slots += [_werner_slot("werner-ppt", WERNER_PPT), _werner_slot("werner-npt", WERNER_NPT)]
        slots += [_bell_slot(rng, "bell-ppt", False), _bell_slot(rng, "bell-npt", True)]
        return slots
    if workload == "solve_dense":
        slots = [_mixed_slot(rng, 3, 3, r, DENSE_POOL_SIZE) for r in range(1, 10)]
        slots.append(_product_slot(rng, "4x4-product", DENSE_POOL_SIZE))
        return slots
    raise ValueError(workload)


def _fmt(x: float) -> str:
    return repr(float(x))


def campaign_specs() -> list:
    """The mkstate slots of the campaign, each a list of (key, argv) pairs."""
    rng = np.random.default_rng([POOL_SEED, 3])
    slots = [[("singlet-k0", ["singlet"])]]
    slots.append(
        [(f"werner-k{k}", ["werner", "--F", _fmt(f)]) for k, f in enumerate((0.2, 0.45, 0.55, 0.9))]
    )
    bell = []
    for k in range(POOL_SIZE):
        p = rng.dirichlet(np.ones(4))
        p[-1] = 1.0 - float(np.sum(p[:-1]))
        bell.append((f"bell_diagonal-k{k}", ["bell_diagonal", "--weights", ",".join(_fmt(x) for x in p)]))
    slots.append(bell)
    for dims in ("2x2", "2x3", "2x4", "3x3", "4x4"):
        da, db = (int(x) for x in dims.split("x"))
        members = []
        for k in range(POOL_SIZE):
            rank = int(rng.integers(1, da * db + 1))
            seed = int(rng.integers(0, 2**31))
            argv = ["random", "--dims", dims, "--seed", str(seed), "--rank", str(rank)]
            members.append((f"random-{dims}-k{k}", argv))
        slots.append(members)
    for dims in ("2x2", "3x3"):
        n = int(dims[0])
        members = []
        for k in range(POOL_SIZE):
            alpha = np.sqrt(rng.dirichlet(np.ones(n)))
            members.append(
                (f"pure_schmidt-{dims}-k{k}", ["pure_schmidt", "--dims", dims, "--alpha", ",".join(_fmt(a) for a in alpha)])
            )
        slots.append(members)
    return slots


def verify_seeds() -> list:
    """The verify slots of the campaign: (suite, dims, [seeds])."""
    rng = np.random.default_rng([POOL_SEED, 4])
    return [
        (suite, dims, [int(s) for s in rng.integers(0, 2**31, size=POOL_SIZE)])
        for suite in VERIFY_SUITES
        for dims in VERIFY_DIMS
    ]
