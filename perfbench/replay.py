"""Traced replays: each request re-made as the public calls its CLI command makes.

Every call is wrapped in a span named after its module (``blur`` includes
``kernels``; ``regularize`` on the ``aug`` path includes ``linalg``).  Each
replay returns a small outcome for the output checks and, for the L-curve,
the operator, so the caller can time ``svd_econ`` on it outside the request.
"""

from __future__ import annotations

import numpy as np

from deblur1d import io
from deblur1d.blur import Signal, build_blur_matrix, forward_blur, test_signal
from deblur1d.cli import COKE_DIGITS
from deblur1d.kernels import Kernel, KernelSpec, make_grid
from deblur1d.lcurve import lcurve_sweep, logspace, suggest_corner
from deblur1d.noise import NoiseSpec, add_noise
from deblur1d.regularize import Method, tikhonov_solve
from deblur1d.upc import (
    decode_upc,
    encode_upc,
    parse_digits,
    pattern_to_signal,
    threshold_signal,
)


def barcode(tr, rid, p):
    """``demo-coke --noise EPS --seed S --lambda LAM`` (method ``aug``)."""
    with tr.span("upc.encode", rid):
        f_true = pattern_to_signal(encode_upc(parse_digits(COKE_DIGITS)), 6)
    with tr.span("blur.build", rid):
        a = build_blur_matrix(KernelSpec(Kernel.GAUSSIAN, 0.01), f_true.grid.n)
    with tr.span("blur.forward", rid):
        b = forward_blur(a, f_true)
    with tr.span("noise.add", rid):
        b_noise = add_noise(b, NoiseSpec(p["eps"], p["seed"]))
    with tr.span("regularize.solve", rid):
        solution = tikhonov_solve(a, b_noise.values, p["lam"], Method.AUGMENTED_LS)
    with tr.span("upc.threshold", rid):
        bits = threshold_signal(Signal(f_true.grid, solution.f_lambda))
    mismatches = int(np.sum(bits.bits != f_true.values.astype(np.uint8)))
    with tr.span("upc.decode", rid):
        result = decode_upc(bits)
    return {
        "digits": result.digits_string,
        "check_ok": result.check_digit_ok,
        "repaired": sum(g.repaired for g in result.groups),
        "mismatches": mismatches,
    }, None


def lcurve(tr, rid, p):
    """``lcurve --kernel hat --z Z --input IN --corner --output OUT``."""
    with tr.span("io.read", rid):
        values = io.read_vector_csv(p["input"])
    b = Signal(make_grid(values.size), values)
    with tr.span("blur.build", rid):
        a = build_blur_matrix(KernelSpec(Kernel.HAT, p["z"]), b.grid.n)
    lambdas = logspace(-7.0, 0.5, 100)
    with tr.span("lcurve.sweep", rid):
        curve = lcurve_sweep(a, b.values, lambdas, Method.SVD_FILTER)
    with tr.span("io.write", rid):
        io.write_table_csv(
            p["output"],
            ["lambda", "residual_norm", "solution_norm"],
            zip(curve.lambdas, curve.residual_norms, curve.solution_norms),
        )
    with tr.span("lcurve.corner", rid):
        corner = suggest_corner(curve)
    return {"corner": corner}, a


def forward(tr, rid, p):
    """``blur --kernel gaussian --z Z --n N --noise EPS --seed S --output OUT``."""
    f = test_signal(make_grid(p["n"]))
    with tr.span("blur.build", rid):
        a = build_blur_matrix(KernelSpec(Kernel.GAUSSIAN, p["z"]), f.grid.n)
    with tr.span("blur.forward", rid):
        b = forward_blur(a, f)
    with tr.span("noise.add", rid):
        b = add_noise(b, NoiseSpec(p["eps"], p["seed"]))
    with tr.span("io.write", rid):
        io.write_vector_csv(p["output"], b.values)
    return {}, None


REPLAYS = {"barcode": barcode, "lcurve": lcurve, "forward": forward}
