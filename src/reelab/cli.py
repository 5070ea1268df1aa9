"""Command-line interface: compute, verify, and mkstate subcommands.

Exit codes: 0 success (for verify: every determinate trial passed),
1 verification failures, 2 a file could not be read, written or parsed
(parse failures give line and column), 3 state invariant violation, 64
usage errors (unknown suite or family, malformed or out-of-range
parameters such as monotone at --dims 1x1, inputs outside the solver's
envelope such as d > 64 with --ree), 70 an eigendecomposition failed
(EigensolverError).

The commands raise the package's typed errors, and main alone turns
them into an exit code and one "reelab: ..." line on stderr.  Any other
exception propagates as a traceback.
"""

from __future__ import annotations

import argparse
import re
import sys

from .criteria import ppt_criterion, reduction_criterion
from .entropy import (
    lemma2_bound,
    negative_conditional_entropy,
    von_neumann_entropy,
)
from .errors import (
    EigensolverError,
    InputError,
    NormalizationError,
    ShapeError,
    StateFileParseError,
    StateInvariantError,
)
from .hermitian import PSD_TOL
from .solver import ree_ppt
from .statefile import _fmt, dumps_state, load_state
from .states import (
    BipartiteDims,
    bell_diagonal,
    partial_trace_A,
    partial_trace_B,
    pure_from_schmidt,
    random_density,
    singlet,
    werner,
)
from .verify import (
    SUITE_NAMES,
    record_to_json,
    run_suite,
    summary_to_json,
)

EXIT_OK = 0
EXIT_FAILURES = 1
EXIT_PARSE = 2
EXIT_INVARIANT = 3
EXIT_USAGE = 64
EXIT_SOFTWARE = 70

# each family with the flags it takes
_FAMILIES = {
    "singlet": set(),
    "werner": {"F"},
    "bell_diagonal": {"weights"},
    "random": {"dims", "seed", "rank"},
    "pure_schmidt": {"alpha", "dims"},
}


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped onto exit code 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _bool(x: bool) -> str:
    return "true" if x else "false"


def _parse_dims(text: str) -> BipartiteDims:
    m = re.fullmatch(r"(\d+)x(\d+)", text)
    if not m:
        raise InputError(f"dims must look like 2x2, got {text!r}")
    return BipartiteDims(int(m.group(1)), int(m.group(2)))


def _parse_weights(text: str, name: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",")]
    except ValueError:
        raise InputError(f"{name} must be comma-separated numbers, got {text!r}") from None


def _build_parser() -> _Parser:
    parser = _Parser(prog="reelab", description="Entropic entanglement toolbox.")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p_compute = sub.add_parser("compute", help="report entropies and criteria for a state file")
    p_compute.add_argument("state", help="path to a state file")
    p_compute.add_argument("--ree", action="store_true", help="also run the REE solver")
    p_compute.add_argument(
        "--tol-criteria", type=float, default=PSD_TOL, metavar="X",
        help="PSD tolerance for the criterion verdicts",
    )

    p_verify = sub.add_parser("verify", help="run a seeded verification suite")
    p_verify.add_argument("suite", help="one of: " + "|".join(SUITE_NAMES))
    p_verify.add_argument("--trials", type=int, default=100, metavar="N")
    p_verify.add_argument("--seed", type=int, default=0, metavar="S")
    p_verify.add_argument("--dims", default="2x2", metavar="dAxdB")
    p_verify.add_argument("--out", default=None, metavar="PATH",
                          help="write records there instead of stdout")
    for name in SUITE_NAMES:
        p_verify.add_argument(
            f"--tol-{name}", type=float, default=None, metavar="X",
            help=f"override the {name} suite tolerance",
        )

    p_mkstate = sub.add_parser("mkstate", help="write a canonical state file")
    p_mkstate.add_argument("family", help="one of: " + "|".join(_FAMILIES))
    p_mkstate.add_argument("--F", type=float, default=None,
                           help="werner singlet weight in [0, 1]")
    p_mkstate.add_argument("--weights", default=None, metavar="p0,p1,p2,p3",
                           help="bell_diagonal mixing weights")
    p_mkstate.add_argument("--alpha", default=None, metavar="a0,a1,...",
                           help="pure_schmidt coefficients, squares sum to 1")
    p_mkstate.add_argument("--dims", default=None, metavar="dAxdB")
    p_mkstate.add_argument("--seed", type=int, default=None, metavar="S")
    p_mkstate.add_argument("--rank", type=int, default=None, metavar="R")
    p_mkstate.add_argument("--out", default=None, metavar="PATH")
    return parser


# argparse parsers keep no state between parse_args calls, so one serves
# every call of main
_PARSER = _build_parser()


def _emit(text: str, out: str | None) -> None:
    """Write text to the file out, or to stdout when out is None."""
    if out is None:
        sys.stdout.write(text)
        return
    with open(out, "w", encoding="ascii") as fh:
        fh.write(text)


def _cmd_compute(args) -> int:
    state = load_state(args.state)
    if state.dims is None:
        raise StateInvariantError(
            "state file carries no dims, but the computed quantities need an A|B split"
        )
    red = reduction_criterion(state, args.tol_criteria)
    ppt = ppt_criterion(state, args.tol_criteria)
    lines = [
        f"dims: {state.dims.da}x{state.dims.db}",
        f"entropy_joint_bits: {_fmt(von_neumann_entropy(state))}",
        f"entropy_a_bits: {_fmt(von_neumann_entropy(partial_trace_B(state)))}",
        f"entropy_b_bits: {_fmt(von_neumann_entropy(partial_trace_A(state)))}",
        f"neg_conditional_a_bits: {_fmt(negative_conditional_entropy(state, 'A'))}",
        f"neg_conditional_b_bits: {_fmt(negative_conditional_entropy(state, 'B'))}",
        f"lemma2_bound_bits: {_fmt(lemma2_bound(state))}",
        f"reduction_holds: {_bool(red.holds)}",
        f"reduction_witness: {_fmt(float(red.witness_eigenvalue))}",
        f"ppt_holds: {_bool(ppt.holds)}",
        f"ppt_witness: {_fmt(float(ppt.witness_eigenvalue))}",
    ]
    if args.ree:
        res = ree_ppt(state)
        lines += [
            f"ree_bits: {_fmt(res.value_bits)}",
            f"ree_converged: {_bool(res.converged)}",
            f"ree_iterations: {res.iterations}",
            f"ree_lower_bits: {_fmt(res.lower_bits)}",
        ]
    print("\n".join(lines))
    return EXIT_OK


def _cmd_verify(args) -> int:
    if args.suite not in SUITE_NAMES:
        _PARSER.print_usage(sys.stderr)
        raise InputError(
            f"unknown suite {args.suite!r}; expected one of " + ", ".join(SUITE_NAMES)
        )
    overrides = {
        name: getattr(args, f"tol_{name}")
        for name in SUITE_NAMES
        if getattr(args, f"tol_{name}") is not None
    }
    stray = sorted(set(overrides) - {args.suite})
    if stray:
        raise InputError("tolerance overrides for suites not being run: " + ", ".join(stray))
    result = run_suite(
        args.suite,
        trials=args.trials,
        seed=args.seed,
        dims=_parse_dims(args.dims),
        tol=overrides.get(args.suite),
    )

    lines = [record_to_json(r) for r in result.records]
    lines.append(summary_to_json(result.summary))
    _emit("\n".join(lines) + "\n", args.out)
    if args.out is not None:
        print(summary_to_json(result.summary))
    return EXIT_OK if result.all_pass else EXIT_FAILURES


def _flag_clash(args, family: str) -> None:
    """Raise InputError naming every given flag that the family does not take."""
    given = {
        name
        for name in ("F", "weights", "alpha", "dims", "seed", "rank")
        if getattr(args, name) is not None
    }
    extra = sorted(given - _FAMILIES[family])
    if extra:
        raise InputError(f"family {family!r} does not take --" + ", --".join(extra))


def _cmd_mkstate(args) -> int:
    family = args.family
    if family not in _FAMILIES:
        raise InputError(
            f"unknown family {family!r}; expected one of " + ", ".join(_FAMILIES)
        )
    _flag_clash(args, family)
    if family == "singlet":
        state = singlet()
    elif family == "werner":
        if args.F is None:
            raise InputError("werner needs --F")
        state = werner(args.F)
    elif family == "bell_diagonal":
        if args.weights is None:
            raise InputError("bell_diagonal needs --weights p0,p1,p2,p3")
        state = bell_diagonal(_parse_weights(args.weights, "--weights"))
    elif family == "random":
        if args.dims is None or args.seed is None:
            raise InputError("random needs --dims and --seed")
        # numpy takes any nonnegative integer as a seed, however large
        if args.seed < 0:
            raise InputError(f"seed must be nonnegative, got {args.seed}")
        dims = _parse_dims(args.dims)
        rank = dims.total if args.rank is None else args.rank
        state = random_density(dims.total, rank, args.seed).tagged(dims.da, dims.db)
    else:
        if args.alpha is None or args.dims is None:
            raise InputError("pure_schmidt needs --alpha and --dims")
        dims = _parse_dims(args.dims)
        state = pure_from_schmidt(_parse_weights(args.alpha, "--alpha"), dims).density()

    _emit(dumps_state(state), args.out)
    return EXIT_OK


_COMMANDS = {"compute": _cmd_compute, "verify": _cmd_verify, "mkstate": _cmd_mkstate}


def main(argv=None) -> int:
    """Run one command; the only place a failure becomes an exit code."""
    args = _PARSER.parse_args(argv)
    if args.command is None:
        _PARSER.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except StateFileParseError as exc:
        where = "" if exc.line is None else f" at line {exc.line}, column {exc.column}"
        code, message = EXIT_PARSE, f"parse failure{where}: {exc}"
    except OSError as exc:
        code, message = EXIT_PARSE, f"file error: {exc}"
    except StateInvariantError as exc:
        code, message = EXIT_INVARIANT, f"invariant violation: {exc}"
    except (InputError, ShapeError, NormalizationError) as exc:
        code, message = EXIT_USAGE, str(exc)
    except EigensolverError as exc:
        code, message = EXIT_SOFTWARE, f"eigensolver failure: {exc}"
    print(f"reelab: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
