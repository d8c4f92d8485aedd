"""Batch command-line interface chaining the pipeline end to end.

Subcommands: ``blur``, ``deblur``, ``lcurve``, ``svd-analyze``,
``upc-encode``, ``upc-decode``, and ``demo-coke`` (encode a known product
code, blur it, add seeded noise, deblur, threshold, decode, and report the
match).  All randomness flows through ``--seed``, so identical invocations
produce byte-identical outputs.

Every operator command has the same shape: check the arguments, load the
input, compute every result, then write.  The SVG, which can still reject
its data, is rendered to a temporary sibling before any CSV is written and
moved into place only once every CSV write has succeeded.  So a command
that exits 1 has written nothing (no stdout, no output file and no SVG),
and one whose CSV write fails with exit 3 leaves no SVG behind.

Exit codes: 0 success, 1 usage error, 2 computation error (singular matrix,
decode failure, out of memory, ...), 3 I/O error.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import sys

import numpy as np

from . import io
from .blur import Signal, build_blur_matrix, forward_blur, test_signal
from .errors import DeblurError, VectorParseError
from .kernels import Kernel, KernelSpec, make_grid
from .lcurve import _check_sweep, lcurve_sweep, logspace, suggest_corner
from .linalg import solve_linear, svd_econ
from .noise import NoiseSpec, add_noise
from .regularize import Method, tikhonov_solve
from .svd_analysis import _check_lambdas, spectral_diagnostics
from .svgplot import write_svg_polyline
from .upc import (
    decode_upc,
    encode_upc,
    parse_digits,
    pattern_to_signal,
    threshold_signal,
)

__all__ = ["run_cli", "main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_COMPUTATION = 2
EXIT_IO = 3

COKE_DIGITS = "049000027679"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValueError(f"{self.prog}: {message}\n{self.format_usage()}".rstrip())


def _seed_type(value: str) -> int:
    seed = int(value)
    if not 0 <= seed < 2**64:
        raise argparse.ArgumentTypeError("seed must fit in 64 unsigned bits")
    return seed


def _positive_int(value: str) -> int:
    n = int(value)
    if n < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return n


def _index_list(value: str) -> list[int]:
    try:
        return [int(tok) for tok in value.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError("takes comma-separated indices") from None


@contextlib.contextmanager
def _svg_after_writes(args, x, y, **plot):
    """Plot to a hidden sibling of ``--svg`` now, run the body (the CSV
    writes), then move the plot into place; on any failure the sibling is
    unlinked and an existing ``--svg`` file is left as it was."""
    if not args.svg:
        yield
        return
    head, name = os.path.split(args.svg)
    tmp = os.path.join(head, f".{name}.{os.getpid()}.tmp")
    try:
        write_svg_polyline(tmp, x, y, **plot)
        yield
        os.replace(tmp, args.svg)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)


def _add_kernel_flags(p):
    p.add_argument("--kernel", default="averaging",
                   help="blur kernel: averaging | hat | gaussian (default averaging)")
    p.add_argument("--z", type=float, default=0.025,
                   help="kernel half-width / spread (default 0.025)")


def _load_signal(path) -> Signal:
    values = io.read_vector_csv(path)
    if values.size == 0:
        raise ValueError(f"input vector {path} is empty")
    return Signal(make_grid(values.size), values)


def _load_system(args) -> tuple[Signal, np.ndarray]:
    """The ``--input`` data b and the blur matrix A of its size, kernel checked first."""
    spec = KernelSpec(args.kernel, args.z)
    b = _load_signal(args.input)
    return b, build_blur_matrix(spec, b.grid.n)


def _cmd_blur(args) -> int:
    spec = KernelSpec(args.kernel, args.z)
    if args.n is not None and (args.upc or args.input):
        raise ValueError("blur: --n applies only to the built-in test signal")
    if args.points_per_unit is not None and not args.upc:
        raise ValueError("blur: --points-per-unit applies only with --upc")
    if args.upc:
        f = pattern_to_signal(encode_upc(args.upc), args.points_per_unit or 6)
    elif args.input:
        f = _load_signal(args.input)
    else:
        f = test_signal(make_grid(args.n or 100))
    b = forward_blur(build_blur_matrix(spec, f.grid.n), f)
    if args.noise is not None:
        b = add_noise(b, NoiseSpec(args.noise, args.seed))
    with _svg_after_writes(args, b.grid.points, b.values, title="blurred signal"):
        if args.save_input:
            io.write_vector_csv(args.save_input, f.values)
        io.write_vector_csv(args.output or sys.stdout, b.values)
    return EXIT_OK


def _cmd_deblur(args) -> int:
    method = Method.from_name(args.method)
    if args.lam is not None:
        _check_lambdas(args.lam, zero_ok=True)
    b, a = _load_system(args)
    if args.lam is None:
        f = solve_linear(a, b.values)
    else:
        f = tikhonov_solve(a, b.values, args.lam, method).f_lambda
    with _svg_after_writes(args, b.grid.points, f, title="recovered signal"):
        io.write_vector_csv(args.output or sys.stdout, f)
    return EXIT_OK


def _cmd_lcurve(args) -> int:
    method = Method.from_name(args.method)
    lambdas = _check_sweep(logspace(args.lambda_min_exp, args.lambda_max_exp, args.count))
    b, a = _load_system(args)
    curve = lcurve_sweep(a, b.values, lambdas, method)
    i = suggest_corner(curve) if args.corner else None
    rows = zip(curve.lambdas, curve.residual_norms, curve.solution_norms)
    with _svg_after_writes(args, curve.residual_norms, curve.solution_norms,
                           log_x=True, log_y=True, title="L-curve"):
        io.write_table_csv(args.output or sys.stdout,
                           ["lambda", "residual_norm", "solution_norm"], rows)
    if i is not None:
        print(
            f"suggested corner (advisory): index {i}, lambda = {curve.lambdas[i]:.6g}",
            file=sys.stderr,
        )
    return EXIT_OK


def _cmd_svd_analyze(args) -> int:
    if args.lam is not None:
        _check_lambdas(args.lam)
    elif not args.vectors:
        raise ValueError("svd-analyze: --lambda is required without --vectors")
    b, a = _load_system(args)
    if args.vectors and any(not 1 <= j <= b.grid.n for j in args.vectors):
        raise ValueError(f"svd-analyze: vector indices must lie in 1..{b.grid.n}")
    svd = svd_econ(a)
    sink = args.output or sys.stdout
    if args.vectors:
        cols = [svd.v[:, j - 1] for j in args.vectors]
        rows = ([k + 1, *(col[k] for col in cols)] for k in range(b.grid.n))
        io.write_table_csv(sink, ["k"] + [f"v{j}" for j in args.vectors], rows)
        return EXIT_OK
    diag = spectral_diagnostics(svd, b.values, args.lam)
    io.write_table_csv(
        sink,
        ["j", "sigma", "abs_coeff", "abs_naive_coeff", "abs_filtered_coeff"],
        diag.rows(),
    )
    return EXIT_OK


def _cmd_upc_encode(args) -> int:
    f = pattern_to_signal(encode_upc(args.digits), args.points_per_unit)
    io.write_vector_csv(args.output or sys.stdout, f.values)
    return EXIT_OK


def _cmd_upc_decode(args) -> int:
    f = _load_signal(args.input)
    result = decode_upc(threshold_signal(f), allow_reversed=args.allow_reversed)
    print(result.digits_string)
    if args.json:
        payload = {
            "digits": result.digits_string,
            "check_digit_ok": result.check_digit_ok,
            "reversed_scan": result.reversed_scan,
            "groups": [dataclasses.asdict(g) for g in result.groups],
        }
        print(json.dumps(payload, indent=2))
    return EXIT_OK


def _cmd_demo_coke(args) -> int:
    digits = parse_digits(COKE_DIGITS)
    f_true = pattern_to_signal(encode_upc(digits), 6)
    n = f_true.grid.n
    spec = KernelSpec(Kernel.GAUSSIAN, 0.01)
    a = build_blur_matrix(spec, n)
    b = forward_blur(a, f_true)
    b_noise = add_noise(b, NoiseSpec(args.noise, args.seed))
    method = Method.from_name(args.method)
    solution = tikhonov_solve(a, b_noise.values, args.lam, method)
    recovered = Signal(f_true.grid, solution.f_lambda)
    bits = threshold_signal(recovered)
    mismatches = int(np.sum(bits.bits != f_true.values.astype(np.uint8)))
    print(f"encoded digits : {COKE_DIGITS}")
    print(f"kernel         : gaussian z=0.01, n={n} (6 samples per unit)")
    print(f"noise          : epsilon={args.noise:g}, seed={args.seed}")
    print(f"solve          : lambda={args.lam:g}, method={method.value}")
    print(f"bit mismatches : {mismatches} / {n}")
    result = decode_upc(bits)
    check = "ok" if result.check_digit_ok else "FAILED"
    print(f"decoded digits : {result.digits_string} (check digit {check})")
    if args.output:
        io.write_vector_csv(args.output, solution.f_lambda)
    if result.digits_string != COKE_DIGITS:
        print("result         : MISMATCH", file=sys.stderr)
        return EXIT_COMPUTATION
    print("result         : decoded digits match the encoded product code")
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="deblur1d",
                     description="1-d blur simulation, regularized deblurring, "
                                 "and UPC-A barcode decoding")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("blur", help="build the blur matrix and blur a signal")
    _add_kernel_flags(p)
    p.add_argument("--n", type=_positive_int,
                   help="grid size for the built-in test signal (default 100)")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--input", help="signal file to blur (one float per line)")
    source.add_argument("--upc", help="blur the sampled encoding of this 12-digit code")
    p.add_argument("--points-per-unit", type=_positive_int,
                   help="samples per bar-width unit with --upc (default 6)")
    p.add_argument("--noise", type=float, default=None,
                   help="relative noise level epsilon to add after blurring")
    p.add_argument("--seed", type=_seed_type, default=0, help="noise seed (default 0)")
    p.add_argument("--save-input", help="also write the unblurred input signal here")
    p.add_argument("--output", help="output file (default stdout)")
    p.add_argument("--svg", help="also write a line plot to this SVG file")
    p.set_defaults(func=_cmd_blur)

    p = sub.add_parser("deblur", help="recover a signal: naive solve or Tikhonov")
    _add_kernel_flags(p)
    p.add_argument("--input", required=True, help="measured signal file")
    p.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="regularization parameter (omit for the naive solve)")
    p.add_argument("--method", default="aug",
                   help="solve path: aug | normal | svd (default aug)")
    p.add_argument("--output", help="output file (default stdout)")
    p.add_argument("--svg", help="also write a line plot to this SVG file")
    p.set_defaults(func=_cmd_deblur)

    p = sub.add_parser("lcurve", help="lambda sweep emitting the L-curve table")
    _add_kernel_flags(p)
    p.add_argument("--input", required=True, help="noisy measured signal file")
    p.add_argument("--lambda-min-exp", type=float, default=-7.0,
                   help="log10 of the smallest lambda (default -7)")
    p.add_argument("--lambda-max-exp", type=float, default=0.5,
                   help="log10 of the largest lambda (default 0.5)")
    p.add_argument("--count", type=int, default=100,
                   help="number of lambda values (default 100)")
    p.add_argument("--method", default="svd",
                   help="solve path: aug | normal | svd (default svd)")
    p.add_argument("--corner", action="store_true",
                   help="print the advisory corner suggestion to stderr")
    p.add_argument("--output", help="output CSV (default stdout)")
    p.add_argument("--svg", help="also write a log-log plot to this SVG file")
    p.set_defaults(func=_cmd_lcurve)

    p = sub.add_parser("svd-analyze", help="emit per-index spectral diagnostics")
    _add_kernel_flags(p)
    p.add_argument("--input", required=True, help="data vector file")
    p.add_argument("--lambda", dest="lam", type=float,
                   help="lambda for the filtered-coefficient column "
                        "(required without --vectors)")
    p.add_argument("--vectors", type=_index_list,
                   help="emit these right singular vectors (1-based, comma-"
                        "separated) as columns instead of the diagnostics")
    p.add_argument("--output", help="output CSV (default stdout)")
    p.set_defaults(func=_cmd_svd_analyze)

    p = sub.add_parser("upc-encode", help="encode 12 digits as a sampled bar signal")
    p.add_argument("--digits", required=True, help="12 decimal digits")
    p.add_argument("--points-per-unit", type=_positive_int, default=6,
                   help="samples per bar-width unit (default 6)")
    p.add_argument("--output", help="output file (default stdout)")
    p.set_defaults(func=_cmd_upc_encode)

    p = sub.add_parser("upc-decode", help="threshold a signal and decode its digits")
    p.add_argument("--input", required=True, help="recovered signal file")
    p.add_argument("--allow-reversed", action="store_true",
                   help="retry a failed decode on the reversed vector")
    p.add_argument("--json", action="store_true", help="also print JSON diagnostics")
    p.set_defaults(func=_cmd_upc_decode)

    p = sub.add_parser("demo-coke",
                       help="end-to-end demo: encode, blur, add noise, deblur, decode")
    p.add_argument("--noise", type=float, default=1e-8,
                   help="relative noise level epsilon (default 1e-8)")
    p.add_argument("--seed", type=_seed_type, default=0, help="noise seed (default 0)")
    p.add_argument("--lambda", dest="lam", type=float, default=1e-5,
                   help="regularization parameter (default 1e-5)")
    p.add_argument("--method", default="aug",
                   help="solve path: aug | normal | svd (default aug)")
    p.add_argument("--output", help="also write the recovered signal to this file")
    p.set_defaults(func=_cmd_demo_coke)

    return parser


# First match wins: VectorParseError is a DeblurError but an I/O failure.
_EXIT_CODES = (
    (ValueError, EXIT_USAGE),
    (VectorParseError, EXIT_IO),
    (DeblurError, EXIT_COMPUTATION),
    (MemoryError, EXIT_COMPUTATION),
    (OSError, EXIT_IO),
)


def run_cli(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except tuple(exc_type for exc_type, _ in _EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for exc_type, code in _EXIT_CODES if isinstance(exc, exc_type))


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
