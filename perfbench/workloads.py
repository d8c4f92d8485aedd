"""The three benchmark workloads: seeded requests, references and output checks.

Nothing here imports deblur1d.  Inputs and references are built with numpy
from the formulas the package documents -- the midpoint grid, the operator
A[j, k] = h(s_j, t_k)/n, the built-in test signal and the splitmix64 /
xorshift64* / Box-Muller noise stream -- so a change to the program cannot
also change what its outputs are checked against.

Each workload is one CLI request type with one kernel, so its latency is
unimodal (README.md records why each was chosen and what it should show):

* ``barcode``: ``demo-coke`` at n = 570.  One operator is shared by every
  request and the augmented least-squares solve dominates.
* ``lcurve``: ``lcurve --corner`` on a fresh hat-kernel input at n = 570.
  Factorization and the per-lambda loop dominate; no operator repeats.
* ``forward``: ``blur --noise`` of the built-in test signal at n = 2000.
  Nothing is factored; operator assembly dominates.
"""

from __future__ import annotations

import filecmp
import math
import re
from pathlib import Path

import numpy as np

COKE_DIGITS = "049000027679"
# Golden-ratio increment of the low-discrepancy sequence used for kernel widths.
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_U64 = (1 << 64) - 1


def golden_widths(rng, count, lo, hi):
    """``count`` distinct values that cover [lo, hi] evenly.

    A golden-ratio sequence from a seeded start: every seed gives other
    values, but every run sees the same mix of widths, so a run's latency
    median does not depend on which widths its seed happened to draw.
    """
    u = (rng.random() + _GOLDEN * np.arange(count)) % 1.0
    return lo + (hi - lo) * u


def grid(n):
    """Midpoint grid (k - 1/2)/n, k = 1..n."""
    return (np.arange(1, n + 1, dtype=float) - 0.5) / n


def kernel(name, z, d):
    """Kernel density h at distance d = |t - s|."""
    if name == "hat":
        return np.maximum(0.0, 1.0 - d / z) / z
    if name == "gaussian":
        return np.exp(-(d * d) / (z * z)) / (np.sqrt(np.pi) * z)
    raise ValueError(f"no reference for kernel {name!r}")


def blur_matrix(name, z, n):
    """Dense A[j, k] = h(|t_k - s_j|)/n on the midpoint grid."""
    t = grid(n)
    return kernel(name, z, np.abs(t[None, :] - t[:, None])) / n


def blur_toeplitz(name, z, f):
    """A @ f through the Toeplitz structure: one kernel column, one convolution.

    Offsets are exact integers over n, so entries differ from the dense
    operator's float |t_k - s_j| only in the last bits.
    """
    n = f.size
    column = kernel(name, z, np.abs(np.arange(1 - n, n)) / n) / n
    return np.convolve(f, column)[n - 1 : 2 * n - 1]


def test_signal(n):
    """Down ramp from 1 at t = 0.15 (slope -12), a step on |t - 0.5| <= 0.1,
    and a hat peaking at t = 0.825 (slope 10)."""
    t = grid(n)
    ramp = (t >= 0.15) * np.maximum(1 - 12 * (t - 0.15), 0)
    step = np.double(np.abs(t - 0.5) <= 0.1)
    hat = np.maximum(1 - 10 * np.abs(t - 0.825), 0)
    return ramp + step + hat


def pinned_normals(count, seed):
    """The package's documented noise stream, rebuilt from its description.

    One splitmix64 step seeds an xorshift64* generator (a zero state is
    replaced by the golden-ratio constant); each pair of 53-bit draws
    (u1 in (0, 1], u2 in [0, 1)) gives two normals by Box-Muller.
    """
    x = (seed + 0x9E3779B97F4A7C15) & _U64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _U64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _U64
    state = (x ^ (x >> 31)) or 0x9E3779B97F4A7C15

    def draw():
        nonlocal state
        state ^= state >> 12
        state = (state ^ (state << 25)) & _U64
        state ^= state >> 27
        return ((state * 0x2545F4914F6CDD1D) & _U64) >> 11

    out = []
    while len(out) < count:
        radius = math.sqrt(-2.0 * math.log((draw() + 1) * 2.0**-53))
        angle = 2.0 * math.pi * draw() * 2.0**-53
        out += (radius * math.cos(angle), radius * math.sin(angle))
    return np.array(out[:count])


def read_vector(path):
    return np.array(Path(path).read_text().split(), dtype=float)


def write_vector(path, values):
    Path(path).write_text("".join(format(v, ".17g") + "\n" for v in values.tolist()))


def _exit_failure(rec):
    if rec["rc"] != 0:
        return f"exit code {rec['rc']}: {rec['stderr'].strip()[-300:]}"
    return None


class Barcode:
    """``demo-coke``: encode, blur (Gaussian z = 0.01), noise, aug solve, decode."""

    name = "barcode"
    n = 570
    # Pool size per measured second: about ten times the request rate at the baseline.
    max_rate = 50.0
    # (epsilon, lambda) cells that decode 20/20 on the ROADMAP decode map.
    cells = ((1e-8, 1e-5), (1e-6, 1e-4), (1e-4, 1e-2), (1e-3, 1e-1))
    _decoded = re.compile(r"^decoded digits : (\d+) \(check digit (ok|FAILED)\)$", re.M)

    def make_requests(self, rng, count, work):
        cells = rng.integers(len(self.cells), size=count)
        seeds = rng.integers(0, 2**63, size=count)
        requests = []
        for i in range(count):
            eps, lam = self.cells[cells[i]]
            seed = int(seeds[i])
            requests.append({
                "argv": ["demo-coke", "--noise", repr(eps), "--seed", str(seed),
                         "--lambda", repr(lam)],
                "replay": {"eps": eps, "seed": seed, "lam": lam},
            })
        return requests

    def decoded(self, rec):
        """(digits, check digit ok) from the CLI's stdout, or None."""
        m = self._decoded.search(rec["stdout"])
        return (m.group(1), m.group(2) == "ok") if m else None

    def check(self, req, rec):
        """Exit 0, and the decoded digits equal the encoded code with the check digit ok."""
        bad = _exit_failure(rec)
        if bad:
            return bad
        decoded = self.decoded(rec)
        if decoded != (COKE_DIGITS, True):
            return f"decoded (digits, check digit ok) = {decoded}, expected ({COKE_DIGITS}, True)"
        return None

    def replay_matches(self, req, rec):
        rep = rec["replay"]
        return self.decoded(rec) == (rep["digits"], rep["check_ok"])


class LCurve:
    """``lcurve --corner`` with the CLI defaults (100 lambdas, ``svd``) on hat data."""

    name = "lcurve"
    # At n = 1000 a request takes ~0.85 s, so a 25-s run held ~28 of them and
    # its tail latency spread by 19% across runs on a shared host.  At
    # n = 570 the factorization and the per-lambda loop keep the same shares
    # (~73% and ~24%) with four times the samples.
    n = 570
    max_rate = 40.0
    lambdas = np.logspace(-7.0, 0.5, 100)
    # The program forms residual norms as ||b - A f||, which cancels at
    # small lambda, so they are held to 1e-10 of ||b|| rather than to their
    # own size; solution norms to 1e-8 relative.  Measured disagreement with
    # this reference is about 3e-15 for both, so the margin admits another
    # factorization of the same operator but not a different curve.
    res_atol = 1e-10
    sol_rtol = 1e-8
    _corner = re.compile(r"suggested corner \(advisory\): index (\d+), lambda = (\S+)")

    def make_requests(self, rng, count, work):
        zs = golden_widths(rng, count, 0.025, 0.05)
        epss = 10.0 ** rng.uniform(-4.0, -2.0, size=count)
        f = test_signal(self.n)
        requests = []
        for i in range(count):
            z = float(zs[i])
            b = blur_toeplitz("hat", z, f)
            b = b + epss[i] * np.linalg.norm(b) * rng.standard_normal(self.n)
            src = work / f"in-{i:06d}.csv"
            write_vector(src, b)
            requests.append({
                "argv": ["lcurve", "--kernel", "hat", "--z", repr(z), "--input", str(src),
                         "--corner", "--output", str(work / f"out-{i:06d}.csv")],
                "replay": {"z": z, "input": str(src), "output": str(work / f"rep-{i:06d}.csv")},
            })
        return requests

    def reference(self, req):
        """Both norms from numpy.linalg.svd and the Tikhonov filter factors."""
        b = read_vector(req["replay"]["input"])
        u, s, _ = np.linalg.svd(blur_matrix("hat", req["replay"]["z"], b.size),
                                full_matrices=False)
        beta = (u.T @ b)[:, None]
        s2, l2 = (s * s)[:, None], (self.lambdas * self.lambdas)[None, :]
        residual = np.linalg.norm(l2 / (s2 + l2) * beta, axis=0)
        solution = np.linalg.norm(s[:, None] / (s2 + l2) * beta, axis=0)
        return np.linalg.norm(b), residual, solution

    def corner(self, rec):
        m = self._corner.search(rec["stderr"])
        return (int(m.group(1)), m.group(2)) if m else None

    def check(self, req, rec):
        """Exit 0, the CSV norms agree with the reference, and the corner line is on stderr."""
        bad = _exit_failure(rec)
        if bad:
            return bad
        path = req["argv"][req["argv"].index("--output") + 1]
        lines = Path(path).read_text().splitlines()
        if not lines or lines[0] != "lambda,residual_norm,solution_norm":
            return "missing or wrong CSV header"
        table = np.array([row.split(",") for row in lines[1:]], dtype=float)
        if table.shape != (self.lambdas.size, 3):
            return f"table shape {table.shape}"
        if not np.allclose(table[:, 0], self.lambdas, rtol=1e-15, atol=0.0):
            return "lambda column differs from logspace(-7, 0.5, 100)"
        b_norm, residual, solution = self.reference(req)
        res_err = np.max(np.abs(table[:, 1] - residual)) / b_norm
        sol_err = np.max(np.abs(table[:, 2] - solution) / solution)
        if res_err > self.res_atol:
            return f"residual norms off by {res_err:.3g} of ||b||"
        if sol_err > self.sol_rtol:
            return f"solution norms off by {sol_err:.3g} relative"
        corner = self.corner(rec)
        if corner is None:
            return "no corner line on stderr"
        i, lam = corner
        if not 1 <= i <= self.lambdas.size - 2 or lam != format(table[i, 0], ".6g"):
            return f"corner line inconsistent with the table: {corner}"
        return None

    def replay_matches(self, req, rec):
        out = req["argv"][req["argv"].index("--output") + 1]
        corner = self.corner(rec)
        return (filecmp.cmp(out, req["replay"]["output"], shallow=False)
                and corner is not None and corner[0] == rec["replay"]["corner"])


class Forward:
    """``blur --noise 1e-4`` of the built-in test signal with a Gaussian kernel."""

    name = "forward"
    n = 2000
    max_rate = 100.0
    eps = 1e-4
    # Reference and program differ by summation order and last-bit kernel
    # entries only (~1e-15); a wrong noise draw is off by eps = 1e-4.
    rtol = 1e-10

    def make_requests(self, rng, count, work):
        zs = golden_widths(rng, count, 0.025, 0.035)
        seeds = rng.integers(0, 2**63, size=count)
        requests = []
        for i in range(count):
            z, seed = float(zs[i]), int(seeds[i])
            requests.append({
                "argv": ["blur", "--kernel", "gaussian", "--z", repr(z), "--n", str(self.n),
                         "--noise", repr(self.eps), "--seed", str(seed),
                         "--output", str(work / f"out-{i:06d}.csv")],
                "replay": {"z": z, "seed": seed, "n": self.n, "eps": self.eps,
                           "output": str(work / f"rep-{i:06d}.csv")},
            })
        return requests

    def reference(self, req):
        p = req["replay"]
        b = blur_toeplitz("gaussian", p["z"], test_signal(p["n"]))
        return b + p["eps"] * np.linalg.norm(b) * pinned_normals(p["n"], p["seed"])

    def check(self, req, rec):
        """Exit 0, and the output equals h(s_j, t_k)/n applied to the test
        signal plus the pinned noise stream, to 1e-10 of its largest value."""
        bad = _exit_failure(rec)
        if bad:
            return bad
        out = read_vector(req["argv"][req["argv"].index("--output") + 1])
        ref = self.reference(req)
        if out.shape != ref.shape:
            return f"output has {out.size} samples, expected {ref.size}"
        err = np.max(np.abs(out - ref)) / np.max(np.abs(ref))
        if err > self.rtol:
            return f"output off by {err:.3g} of its largest value"
        return None

    def replay_matches(self, req, rec):
        out = req["argv"][req["argv"].index("--output") + 1]
        return filecmp.cmp(out, req["replay"]["output"], shallow=False)


WORKLOADS = {w.name: w for w in (Barcode(), LCurve(), Forward())}
