"""Time d = 64 Newton steps and check the peak memory of the process.

Runs ree_ppt with a budget of a few Newton steps on a 4x16 state, times
each call of _newton_step, and reads the peak resident set size of the
process (ru_maxrss, in KiB on Linux).  Exits with status 1 when the peak
exceeds --max-rss-mb, or when fewer than --max-iters steps were timed, so
that a solve answered without the barrier path cannot pass.  Both inputs
are entangled and mixed, since pure and PPT states are answered in closed
form: --input real (the default) takes a real Ginibre state of rank 4,
which the solver steps in the real basis; --input complex takes
random_density(64, 4, 1), a complex state of rank 4, which keeps the
Hermitian basis.  --certify instead solves a full-rank real Ginibre 4x16
state to its certificate, through the KKT polish that ends the path, and
exits with status 1 unless the solve converged within --max-rss-mb.  Run
each in a fresh process, from the repository root:

    PYTHONPATH=src python3 tools/newton_step_probe.py --input real --max-iters 2 --max-rss-mb 287
    PYTHONPATH=src python3 tools/newton_step_probe.py --input complex --max-iters 2 --max-rss-mb 530
    PYTHONPATH=src python3 tools/newton_step_probe.py --certify --max-rss-mb 287
"""

from __future__ import annotations

import argparse
import resource
import sys
import warnings
from time import perf_counter

import numpy as np

from reelab import solver
from reelab.errors import ConvergenceWarning
from reelab.states import DensityMatrix, random_density


def _real_ginibre(d: int, rank: int, seed: int) -> np.ndarray:
    g = np.random.default_rng(seed).standard_normal((d, rank))
    m = g @ g.T
    return m / np.trace(m)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--input", choices=("real", "complex"), default="real", help="the 4x16 state to solve")
    parser.add_argument("--max-iters", type=int, default=3, help="Newton steps to take")
    parser.add_argument("--max-rss-mb", type=float, default=800.0, help="fail above this peak RSS")
    parser.add_argument(
        "--certify", action="store_true", help="solve a full-rank real 4x16 state to its certificate instead"
    )
    args = parser.parse_args()

    if args.certify:
        sigma = DensityMatrix(_real_ginibre(64, 64, 1), (4, 16))
        start = perf_counter()
        res = solver.ree_ppt(sigma)
        elapsed = perf_counter() - start
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(
            f"full-rank real 4x16: {res.iterations} Newton systems in {elapsed:.1f} s, "
            f"converged {res.converged}, gap {res.value_bits - res.lower_bits:.3g} bits"
        )
        print(f"peak RSS {peak_mb:.0f} MB (limit {args.max_rss_mb:.0f} MB)")
        return 0 if res.converged and peak_mb <= args.max_rss_mb else 1

    if args.input == "real":
        sigma = DensityMatrix(_real_ginibre(64, 4, 1), (4, 16))
    else:
        sigma = random_density(64, 4, 1).tagged(4, 16)
    times = []
    inner = solver._newton_step

    def timed(*a, **kw):
        start = perf_counter()
        out = inner(*a, **kw)
        times.append(perf_counter() - start)
        return out

    solver._newton_step = timed
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvergenceWarning)
        solver.ree_ppt(sigma, max_iters=args.max_iters)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    dims = sigma.dims
    print(f"{args.input} {dims.da}x{dims.db}: steps " + ", ".join(f"{t:.2f} s" for t in times))
    print(f"peak RSS {peak_mb:.0f} MB (limit {args.max_rss_mb:.0f} MB)")
    if len(times) < args.max_iters:
        print(f"timed {len(times)} of {args.max_iters} Newton steps")
        return 1
    return 0 if peak_mb <= args.max_rss_mb else 1


if __name__ == "__main__":
    sys.exit(main())
