"""Command-line front end: thresholds, tables, q-sweeps, spectra, verification.

All data output is CSV with a header row and ``\\n`` line endings; errors go
to standard error as one-line messages. Exit codes: 0 on success, 2 when a
criterion has no sign change on [0, 1), 1 on usage or runtime errors.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from decimal import ROUND_HALF_UP, Decimal

import numpy as np

from . import criteria
from .criteria import Criterion, curve, threshold, verify
from .entropy import check_entropic_order
from .exceptions import BadParameter, NoSignChange, QsepError
from .states import FAMILIES, StateFamily

#: most q points a curve takes; numpy builds the whole grid before the first solve
MAX_Q_STEPS = 10_000


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on its own; remap to the documented code 1
    def error(self, message):
        raise BadParameter(message)


def _fmt(value: float) -> str:
    """10 significant digits, plain decimal point."""
    return f"{value:.10g}"


def _round4(value: float) -> str:
    """Round half-up to 4 decimals, keeping trailing zeros."""
    return str(Decimal(repr(float(value))).quantize(Decimal("0.0001"), rounding=ROUND_HALF_UP))


def cmd_threshold(args) -> int:
    result = threshold(args.family, args.n, Criterion(args.criterion, args.q), tol=args.tol)
    q_field = _fmt(result.criterion.q) if result.criterion.q is not None else ""
    sys.stdout.write("family,n,criterion,q,x_threshold\n")
    sys.stdout.write(
        f"{result.family},{result.n_qubits},{result.criterion.kind},"
        f"{q_field},{_fmt(result.x_star)}\n"
    )
    return 0


@contextlib.contextmanager
def _csv_out(path: str, header: str):
    """Collect CSV lines and write them to path once the block returns.

    An unwritable path fails before the block runs. If the block raises, an
    existing file keeps its bytes and a file this call created is removed.
    """
    created = not os.path.exists(path)
    open(path, "a").close()
    lines = [header]
    try:
        yield lines
    except BaseException:
        if created:
            os.remove(path)
        raise
    with open(path, "w", newline="") as handle:
        handle.write("\n".join(lines) + "\n")


def cmd_table(args) -> int:
    labels = ",".join(label for label, _ in criteria.TABLES[args.id][1])
    with _csv_out(args.out, "n," + labels) as lines:
        for n, row in criteria.family_table(args.id).items():
            lines.append(f"{n}," + ",".join(_round4(v) for v in row))
    return 0


def cmd_curve(args) -> int:
    # the endpoints take the one q rule before numpy sees them; curve checks every q
    # of the grid again before solving
    check_entropic_order(args.q_min)
    check_entropic_order(args.q_max)
    if not args.q_min <= args.q_max:
        raise BadParameter("need q-min <= q-max")
    if args.q_steps < 1:
        raise BadParameter("need q-steps >= 1")
    if args.q_steps > MAX_Q_STEPS:
        raise BadParameter(f"need q-steps <= {MAX_Q_STEPS}, got {args.q_steps}")
    if args.log_spacing:
        grid = np.geomspace(args.q_min, args.q_max, args.q_steps)
    else:
        grid = np.linspace(args.q_min, args.q_max, args.q_steps)
    kinds = [c.strip() for c in args.criterion.split(",")]
    with _csv_out(args.out, "criterion,q,x_threshold") as lines:
        for point in curve(args.family, args.n, kinds, grid):
            x_field = _fmt(point.x_star) if point.x_star is not None else ""
            lines.append(f"{point.criterion},{_fmt(point.q)},{x_field}")
    return 0


def cmd_eigs(args) -> int:
    family = StateFamily(args.family, args.n, args.x)
    if args.source == "numeric":
        entries = [(float(v), 1) for v in criteria.numeric_sandwich_eigs(family, args.q)]
        if args.x == 1.0:  # numeric_sandwich_eigs has checked q by now
            sys.stderr.write(
                "warning: x = 1 is a pure endpoint; zero modes of the reduction "
                "are dropped by the support convention\n"
            )
    else:
        spectrum = criteria.CLOSED_FORM_SPECTRUM[args.family](args.n, args.x, args.q)
        entries = list(spectrum.sorted_entries())
    sys.stdout.write("eigenvalue,multiplicity\n")
    for value, mult in entries:
        sys.stdout.write(f"{_fmt(value)},{mult}\n")
    return 0


def cmd_verify(args) -> int:
    report = verify(args.n_max)
    sys.stdout.write(report.summary() + "\n")
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qsep", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_thr = sub.add_parser("threshold", help="solve one separability threshold")
    p_thr.add_argument("--family", required=True, choices=FAMILIES)
    p_thr.add_argument("--n", required=True, type=int, help="qubit count")
    p_thr.add_argument("--criterion", required=True, choices=criteria.CRITERIA)
    p_thr.add_argument("--q", type=float, help="entropic order (cstre/ar only)")
    p_thr.add_argument("--tol", type=float, default=criteria.DEFAULT_X_TOL)
    p_thr.set_defaults(func=cmd_threshold)

    p_tab = sub.add_parser("table", help="write a reference-table CSV")
    p_tab.add_argument("--id", required=True, choices=tuple(criteria.TABLES))
    p_tab.add_argument("--out", required=True)
    p_tab.set_defaults(func=cmd_table)

    p_cur = sub.add_parser("curve", help="threshold as a function of q")
    p_cur.add_argument("--family", required=True, choices=FAMILIES)
    p_cur.add_argument("--n", required=True, type=int)
    p_cur.add_argument("--criterion", required=True, help="comma list from: cstre,ar")
    p_cur.add_argument("--q-min", required=True, type=float)
    p_cur.add_argument("--q-max", required=True, type=float)
    p_cur.add_argument("--q-steps", required=True, type=int)
    p_cur.add_argument("--log-spacing", action="store_true")
    p_cur.add_argument("--out", required=True)
    p_cur.set_defaults(func=cmd_curve)

    p_eig = sub.add_parser("eigs", help="sandwich spectrum at one (family, n, x, q)")
    p_eig.add_argument("--family", required=True, choices=FAMILIES)
    p_eig.add_argument("--n", required=True, type=int)
    p_eig.add_argument("--x", required=True, type=float)
    p_eig.add_argument("--q", required=True, type=float)
    p_eig.add_argument("--source", required=True, choices=("numeric", "analytic"))
    p_eig.set_defaults(func=cmd_eigs)

    p_ver = sub.add_parser("verify", help="run the cross-validation report")
    p_ver.add_argument("--n-max", type=int, default=criteria.TABLE_N[-1])
    p_ver.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (QsepError, OSError) as err:
        sys.stderr.write(f"error: {err}\n")
        return 2 if isinstance(err, NoSignChange) else 1


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
