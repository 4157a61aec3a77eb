"""Property checks for the functional/scalar inequalities the construction relies on.

Each suite scans deterministic ensembles (seeded random band-limited fields,
dense scalar grids, or the wavenumber lattice |k1|, |k2| <= 128) and reports
worst ratios, empirical constants, and any violations with reproduction data.
Every scalar claim of the construction is one `InequalityReport`, including the
two behind the smoothing step: the two-sided weight comparison and the H^2
weight bound. Theorem-backed inequalities must come back with zero violations;
constant-bearing ones only need bounded, stable ratios. A NaN ratio is recorded,
never dropped.

The two dense 2-D scans, fractional subadditivity on xi x eta and the A - B
gap on x x y, run in blocks of SCAN_BLOCK_ROWS rows against the whole second
axis, so they hold O(grid_density) floats rather than O(grid_density^2). Each
keeps its running max, min and first row-major violation per exponent, so the
reports are those of a whole-array scan.

Each ensemble sample is evaluated in one pass: every field's power |c|^2 and
grid values are formed once, and each field's norms are taken together, its
H^s norms in one stacked reduction and its Lp norms from one scaling by its max.
These are the reductions of `norms`, so the reports are bit-identical to those
of the per-call norms. The oversampled product fg is formed on the half layout:
irfft2 of each padded factor's columns k2 >= 0, rfft2 of the product back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from functools import lru_cache

import numpy as np

from .grid import (GridSpec, SpectralField, full_spectrum, half_from_physical,
                   half_to_physical, sobolev_weight, to_physical)
from .norms import _hs_table, _lp_table
from .operators import DissipParams, gevrey_symbol, riesz_multipliers

REL_SLACK = 1e-12  # rounding slack for exact (constant-free) inequalities
GAP_SLACK = 1e-9  # rounding slack of the weight-gap identity and of its floor -2
LATTICE_KMAX = 128  # the integer lattice |k1|, |k2| <= LATTICE_KMAX of the wavenumber scans
H2_WEIGHT_TIMES = np.logspace(-3.0, 1.0, 40)  # weight times m of the H^2 weight bound
SCAN_BLOCK_ROWS = 64  # rows of a dense 2-D scalar scan held at once


@dataclass(frozen=True)
class FieldEnsembleSpec:
    """Deterministic ensemble of mean-zero band-limited fields with |f^(k)| = |k|^-slope."""

    grid: GridSpec
    seed: int
    count: int
    kmax: int
    spectrum_slope: float

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("ensemble count must be >= 1")
        band = min(self.grid.n1 // 3, self.grid.n2 // 3)
        if not 1 <= self.kmax <= band:
            raise ValueError(f"kmax must lie in [1, {band}] for grid {self.grid}")


@lru_cache(maxsize=None)
def _shell_representatives(m: int) -> tuple[tuple[int, int], ...]:
    """Canonical half of the sup-norm shell max(|k1|,|k2|) = m, in a fixed order."""
    return tuple(sorted((k1, k2) for k1 in range(m + 1) for k2 in range(-m, m + 1)
                        if max(abs(k1), abs(k2)) == m and (k1 > 0 or k2 > 0)))


@lru_cache(maxsize=16)
def _band_layout(grid: GridSpec, kmax: int, spectrum_slope: float):
    """Read-only index arrays of the shells 1..kmax in canonical order, of their
    reflections -k, and the amplitudes |k|^-slope, on this grid."""
    reps = [k for m in range(1, kmax + 1) for k in _shell_representatives(m)]
    k1 = np.array([k[0] for k in reps])
    k2 = np.array([k[1] for k in reps])
    r = np.array([float(np.hypot(a, b)) ** (-spectrum_slope) for a, b in reps])
    layout = (k1 % grid.n1, k2 % grid.n2, -k1 % grid.n1, -k2 % grid.n2, r)
    for arr in layout:
        arr.flags.writeable = False
    return layout


def random_band_limited_field(spec: FieldEnsembleSpec, index: int) -> SpectralField:
    """Sample `index` of the ensemble; bit-identical for equal (seed, index).

    Phases are drawn shell by shell in a grid-independent canonical order (one
    draw of all of them is the same stream), so the same (seed, index) on a
    finer grid extends this field with new shells rather than reshuffling the
    shared ones.
    """
    rng = np.random.default_rng([spec.seed, index])
    grid = spec.grid
    i1, i2, j1, j2, r = _band_layout(grid, spec.kmax, spec.spectrum_slope)
    amp = r * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=r.size))
    coeffs = np.zeros(grid.shape, dtype=np.complex128)
    coeffs[i1, i2] = amp
    coeffs[j1, j2] = np.conj(amp)
    return SpectralField(grid, coeffs)


def oversampled_product(f: SpectralField, g: SpectralField) -> SpectralField:
    """Pointwise product fg on a 2x finer grid; exact for band-limited factors."""
    if f.grid != g.grid:
        raise ValueError("product factors must share a grid")
    fine = GridSpec(2 * f.grid.n1, 2 * f.grid.n2)
    return SpectralField(fine, full_spectrum(_product_coeffs(f.coeffs, g.coeffs, f.grid), fine))


def _product_coeffs(f: np.ndarray, g: np.ndarray, coarse: GridSpec) -> np.ndarray:
    """Half layout of fg on the grid of twice the mode counts of `coarse`.

    Only the columns k2 = 0 .. n2/2 of f and g are read. Each is padded into the
    fine half layout without its Nyquist row and column, both factors go to the
    fine grid by irfft2, and their product comes back by rfft2."""
    fine = GridSpec(2 * coarse.n1, 2 * coarse.n2)
    h1, h2 = coarse.n1 // 2, coarse.n2 // 2

    def fine_values(c: np.ndarray) -> np.ndarray:
        pad = np.zeros(fine.half_shape, dtype=np.complex128)
        pad[:h1, :h2] = c[:h1, :h2]  # k1 = 0 .. h1 - 1
        pad[1 - h1:, :h2] = c[h1 + 1:, :h2]  # k1 = 1 - h1 .. -1
        return half_to_physical(pad, fine)

    return half_from_physical(fine_values(f) * fine_values(g), fine)


@dataclass
class InequalityReport:
    """Evidence for one inequality over one scan or ensemble."""

    inequality: str
    samples: int = 0
    worst_ratio: float = 0.0
    empirical_constant: float = 0.0
    violations: int = 0
    violation_examples: list = dc_field(default_factory=list)
    skipped: int = 0
    # exact_bound: the inequality has a concrete numeric bound to violate;
    # otherwise it carries an unspecified constant and only the boundedness
    # and stability of the empirical ratio are certified
    exact_bound: bool = True
    note: str = ""

    def merge_violation(self, example) -> None:
        self.violations += 1
        if len(self.violation_examples) < 10:
            self.violation_examples.append(example)


# ---------------------------------------------------------------------------
# scalar inequalities
# ---------------------------------------------------------------------------


def scalar_inequality_suite(p: DissipParams, grid_density: int = 1000) -> list[InequalityReport]:
    """Scans of the scalar bounds: fractional subadditivity, the exponential
    decay bound, the isotropic multiplier equivalence, the A-B >= -2 gap, and on
    the wavenumber lattice the two-sided weight comparison and the H^2 weight
    bound."""
    if grid_density < 10:
        raise ValueError("grid_density too small for a meaningful scan")
    kk = np.arange(-LATTICE_KMAX, LATTICE_KMAX + 1, dtype=float)
    lattice = (kk[:, None], kk[None, :], kk[:, None] ** 2 + kk[None, :] ** 2)
    return [
        _check_subadditivity(p, grid_density),
        _check_exp_bound(grid_density),
        _check_multiplier_equivalence(p, lattice),
        _check_weight_gap(p, grid_density),
        _check_weight_comparison(p, lattice),
        _check_h2_weight_bound(p, lattice),
    ]


def _row_blocks(n: int):
    """Slices of at most SCAN_BLOCK_ROWS consecutive rows covering 0 .. n - 1, in order."""
    return (slice(i, min(i + SCAN_BLOCK_ROWS, n)) for i in range(0, n, SCAN_BLOCK_ROWS))


def _check_subadditivity(p: DissipParams, gd: int) -> InequalityReport:
    rep = InequalityReport("subadditivity_fractional",
                           note="|xi|^r <= |xi-eta|^r + |eta|^r, r in (0,1]")
    xi = eta = np.linspace(-50.0, 50.0, gd)
    for r in sorted({0.25, 0.5, 0.75, 1.0, p.alpha, p.beta}):
        xi_r, eta_r = np.abs(xi[:, None]) ** r, np.abs(eta) ** r
        worst, first = 0.0, None  # max ratio and first violation in row-major order
        for rows in _row_blocks(gd):
            lhs = xi_r[rows]
            rhs = np.abs(xi[rows, None] - eta) ** r + eta_r
            bad = lhs > rhs * (1.0 + REL_SLACK) + 1e-300
            if first is None and np.any(bad):
                i, j = np.argwhere(bad)[0]
                first = {"r": r, "xi": float(xi[rows.start + i]), "eta": float(eta[j])}
            with np.errstate(invalid="ignore", divide="ignore"):
                ratio = np.where(rhs > 0, lhs / np.where(rhs > 0, rhs, 1.0), 0.0)
            worst = max(worst, float(np.max(ratio)))
        rep.samples += gd * gd
        if first is not None:
            rep.merge_violation(first)
        rep.worst_ratio = max(rep.worst_ratio, worst)
    # 2-D version on seeded random pairs
    rng = np.random.default_rng(20240501)
    xi2 = rng.uniform(-50, 50, size=(100_000, 2))
    eta2 = rng.uniform(-50, 50, size=(100_000, 2))
    len_xi, len_dist, len_eta = (np.linalg.norm(v, axis=1) for v in (xi2, xi2 - eta2, eta2))
    for r in (p.alpha, p.beta):
        lhs = len_xi ** r
        rhs = len_dist ** r + len_eta ** r
        rep.samples += lhs.size
        bad = lhs > rhs * (1.0 + REL_SLACK) + 1e-300
        if np.any(bad):
            i = int(np.flatnonzero(bad)[0])
            rep.merge_violation({"r": r, "xi": xi2[i].tolist(), "eta": eta2[i].tolist()})
        rep.worst_ratio = max(rep.worst_ratio, float(np.max(lhs / np.maximum(rhs, 1e-300))))
    rep.empirical_constant = rep.worst_ratio
    return rep


def _check_exp_bound(gd: int) -> InequalityReport:
    rep = InequalityReport("exp_decay_bound",
                           note="x^a exp(-rx) <= a^a / r^a; sharp value (a/e r)^a")
    x = np.logspace(-4.0, 4.0, gd)
    for a in (0.3, 0.5, 0.75, 1.0, 2.0):
        for r in map(float, np.logspace(-2.0, 2.0, 40)):
            lhs = x**a * np.exp(-r * x)
            bound = a**a / r**a
            rep.samples += x.size
            worst = float(np.max(lhs)) / bound
            rep.worst_ratio = max(rep.worst_ratio, worst)
            if worst > 1.0 + REL_SLACK:
                rep.merge_violation({"a": a, "r": r, "x": float(x[np.argmax(lhs)])})
    # golden-section refinement of sup_x x exp(-x) against the a=r=1 bound
    lo, hi = 0.1, 10.0
    phi = (np.sqrt(5.0) - 1.0) / 2.0
    f = lambda z: z * np.exp(-z)
    for _ in range(200):
        m1, m2 = hi - phi * (hi - lo), lo + phi * (hi - lo)
        if f(m1) < f(m2):
            lo = m1
        else:
            hi = m2
    rep.empirical_constant = float(f(0.5 * (lo + hi)))  # = e^{-1}, against bound 1
    return rep


def _check_multiplier_equivalence(p: DissipParams, lattice) -> InequalityReport:
    rep = InequalityReport("multiplier_equivalence",
                           note="1 <= (|k1|^2a+|k2|^2a)/|k|^2a <= 2^(1-a) for a=b, mu=nu=1")
    k1, k2, ksq = lattice
    mask = ksq > 0
    worst_hi = 0.0
    worst_lo = np.inf
    for a in (0.1, 0.25, 0.4, 0.5, 0.6, 0.75, 0.9, p.alpha):
        iso = ksq[mask] ** a
        aniso = np.abs(k1) ** (2 * a) + np.abs(k2) ** (2 * a)
        ratio = aniso[mask] / iso
        rep.samples += ratio.size
        hi_bound = 2.0 ** (1.0 - a)
        if np.any(ratio > hi_bound * (1 + REL_SLACK)) or np.any(ratio < 1.0 - REL_SLACK):
            i = int(np.argmax(ratio))
            rep.merge_violation({"alpha": a, "ratio": float(ratio[i])})
        worst_hi = max(worst_hi, float(np.max(ratio / hi_bound)))
        worst_lo = min(worst_lo, float(np.min(ratio)))
    rep.worst_ratio = worst_hi
    rep.empirical_constant = worst_lo  # min ratio; 1 means the lower bound is sharp
    return rep


def _check_weight_gap(p: DissipParams, gd: int) -> InequalityReport:
    rep = InequalityReport("dissipation_minus_weight_gap",
                           note="A(k)-B(k) = (|k1|^a-1)^2+(|k2|^b-1)^2-2 >= -2 at mu=nu=1")
    n = max(200, gd // 3)
    x = np.concatenate(([0.0, 1.0], np.linspace(0.0, 40.0, n), np.logspace(-3, 3, n)))
    y = x.copy()
    worst_gap = np.inf
    for a in (0.55, 0.6, 0.75, 0.9, p.alpha):
        for b in (0.55, 0.7, 0.8, 0.95, p.beta):
            xa, yb = x**a, y**b
            x2a, y2b = x ** (2 * a), y ** (2 * b)
            x_ident, y_ident = (xa - 1.0) ** 2, (yb - 1.0) ** 2
            gap_min, gap_max, mismatch, first = np.inf, -np.inf, 0.0, None
            for rows in _row_blocks(x.size):  # every entry is finite
                gap = x2a[rows, None] + y2b  # gap = X^2a + Y^2b - 2 (X^a + Y^b)
                gap -= 2.0 * (xa[rows, None] + yb)
                ident = x_ident[rows, None] + y_ident  # the identity's form
                ident -= 2.0
                mismatch = max(mismatch, float(np.max(np.abs(gap - ident))))
                block_min = float(np.min(gap))
                gap_min, gap_max = min(gap_min, block_min), max(gap_max, float(np.max(gap)))
                if first is None and block_min < -2.0 - GAP_SLACK:
                    i, j = np.argwhere(gap < -2.0 - GAP_SLACK)[0]
                    first = {"alpha": a, "beta": b, "x": float(x[rows.start + i]),
                             "y": float(y[j])}
            rep.samples += x.size * y.size
            if mismatch > GAP_SLACK * (1.0 + max(gap_max, -gap_min)):
                rep.merge_violation({"alpha": a, "beta": b, "kind": "identity mismatch"})
            if first is not None:
                rep.merge_violation(first)
            worst_gap = min(worst_gap, gap_min)
    rep.worst_ratio = worst_gap / -2.0
    rep.empirical_constant = worst_gap  # approaches -2 at x = y = 1
    return rep


def _check_weight_comparison(p: DissipParams, lattice) -> InequalityReport:
    """Two-sided comparison of the Gevrey weight with the isotropic ones. With
    D(k) the exponent gap of one side, the log-space claim t D(k) + T0 >= 0 for
    t in [0, T0] fails iff D(k) < -1, so one lattice pass decides it for every
    T0. On integers min D = 0 when a <= b; otherwise violations are findings."""
    rep = InequalityReport("weight_comparison", exact_bound=p.alpha <= p.beta,
                           note="|k|^a <= |k1|^a+|k2|^b+1 and |k1|^a+|k2|^b <= 2|k|^b+1 "
                                "on |k_i| <= 128; exact for a <= b")
    k1, k2, ksq = lattice
    kmag = np.sqrt(ksq)  # exact on the axes, where the lower side is tight
    mixed = np.abs(k1) ** p.alpha + np.abs(k2) ** p.beta
    min_gap = np.inf
    for side, gap in (("lower", mixed - kmag**p.alpha), ("upper", 2.0 * kmag**p.beta - mixed)):
        rep.samples += gap.size
        min_gap = min(min_gap, float(np.min(gap)))
        bad = np.count_nonzero(gap < -1.0)
        if bad:  # every such point counts; the worst one of each side is the example
            i, j = np.unravel_index(np.argmin(gap), gap.shape)
            rep.violations += bad
            rep.violation_examples.append({"side": side, "k": [int(k1[i, 0]), int(k2[0, j])],
                                           "D": float(gap[i, j])})
    rep.worst_ratio = max(0.0, -min_gap)
    rep.empirical_constant = min_gap
    return rep


def _check_h2_weight_bound(p: DissipParams, lattice) -> InequalityReport:
    """sup_k (1+|k|^2)^{4-2s} e^{-m B(k)} against 1 + m^{-(8-4s)/a} + m^{-(8-4s)/b}
    at each weight time m of H2_WEIGHT_TIMES, in log space so that no
    intermediate overflows; a ratio beyond the float range reads inf."""
    rep = InequalityReport("h2_weight_bound", exact_bound=False,
                           note="sup_k (1+|k|^2)^(4-2s) e^(-m B(k)) <= C(1 + m^(-(8-4s)/a) "
                                "+ m^(-(8-4s)/b)), m in [1e-3, 10], |k_i| <= 128")
    k1, k2, ksq = lattice
    n = LATTICE_KMAX  # both sides are even in k1 and k2: the quadrant k1, k2 >= 0 holds the sup
    log_weight = (4.0 - 2.0 * p.s) * np.log1p(ksq[n:, n:].ravel())
    B = gevrey_symbol((k1[n:], k2[:, n:]), p).ravel()
    m = H2_WEIGHT_TIMES
    log_sup = np.max(log_weight[None, :] - m[:, None] * B[None, :], axis=1)
    power = 8.0 - 4.0 * p.s
    log_rhs = np.logaddexp(0.0, np.logaddexp(-power / p.alpha * np.log(m),
                                             -power / p.beta * np.log(m)))
    rep.samples = m.size * B.size
    with np.errstate(over="ignore"):
        rep.worst_ratio = rep.empirical_constant = float(np.exp(np.max(log_sup - log_rhs)))
    return rep


# ---------------------------------------------------------------------------
# functional inequalities on field ensembles
# ---------------------------------------------------------------------------

INTERPOLATION_THETAS = (0.25, 0.5, 0.75)
INTERPOLATION_PAIRS = ((-0.4, 1.0), (0.2, 1.5), (0.5, 0.9), (0.0, 2.0))
PRODUCT_PAIRS = ((-0.4, 0.9), (0.2, 0.5), (0.5, 0.5), (0.9, 0.2), (0.5, 1.2))
SOBOLEV_SIGMAS = (0.0, 0.25, 0.5, 0.75)
CZ_EXPONENTS = (1.5, 2.0, 3.0, 4.0)
SOBOLEV_EXPONENTS = tuple(2.0 / (1.0 - sigma) for sigma in SOBOLEV_SIGMAS)  # 1/p + sigma/2 = 1/2


def functional_inequality_suite(spec: FieldEnsembleSpec, p: DissipParams) -> list[InequalityReport]:
    """Evaluate the Sobolev-injection, product-law, Riesz-Lp, directional-control,
    and interpolation inequalities on every ensemble sample.

    Each sample pair (f, g) is evaluated in one pass. The power |c|^2 of each
    field the checks read (f, g, fg, |grad|^a f and each directional power of f)
    is formed once, on the half layout that the norm sums read, and so are the
    grid values |f| and |u| = |R^perp f|. Each field's norms are then taken in one
    go, the H^s ones by `_hs_table` and the Lp ones by `_lp_table`, which give the
    bits of `norms`, so each ratio is bit-identical to the one the public
    per-call norms give.
    """
    reps = {r.inequality: r for r in (
        InequalityReport("interpolation_homogeneous",
                         note="||f||_{ts1+(1-t)s2} <= ||f||_{s1}^t ||f||_{s2}^(1-t), homogeneous"),
        InequalityReport("interpolation_inhomogeneous"),
        InequalityReport("sobolev_injection", exact_bound=False,
                         note="||f||_Lp <= C |||grad|^sigma f||_L2 at 1/p + sigma/2 = 1/2"),
        InequalityReport("product_law_symmetric", exact_bound=False,
                         note="||fg||_{s1+s2-1} <= C(||f||_{s1}||g||_{s2} + ||f||_{s2}||g||_{s1})"),
        InequalityReport("product_law_asymmetric", exact_bound=False,
                         note="||fg||_{s1+s2-1} <= C'||f||_{s1}||g||_{s2}, s1, s2 < 1"),
        InequalityReport("calderon_zygmund", exact_bound=False,
                         note="||R^perp theta||_Lp <= C(p) ||theta||_Lp"),
        InequalityReport("calderon_zygmund_p2", note="p=2 multiplier isometry: ratio = 1 to 1e-12"),
        InequalityReport("directional_control",
                         note="|||grad|^a f|| <= ||f|| + |||d1|^a f|| + |||d2|^b f||, a <= b"),
        InequalityReport("directional_interpolation",
                         note="|||d2|^a f|| <= ||f||^(1-z) |||d2|^b f||^z, z = a/b"),
    )}
    a, b = (p.alpha, p.beta) if p.alpha <= p.beta else (p.beta, p.alpha)
    grid = spec.grid
    m1, m2 = riesz_multipliers(grid)
    fine = GridSpec(2 * grid.n1, 2 * grid.n2)  # the grid of the product fg
    h = grid.n2 // 2 + 1
    grad_a = sobolev_weight(grid, a / 2.0, True)[:, :h]
    # |k1| and |k2|, with the axes swapped when alpha > beta
    k_ax1, k_ax2 = (np.abs(grid.k2), np.abs(grid.k1)) if p.alpha > p.beta else \
        (np.abs(grid.k1), np.abs(grid.k2))
    d1a, d2a, d2b = (m[:, :h] for m in (k_ax1**a, k_ax2**a, k_ax2**b))
    f_orders, g_orders, fg_orders, dir_orders = _hs_orders(p)
    lp_f_exponents = tuple(dict.fromkeys(SOBOLEV_EXPONENTS + CZ_EXPONENTS))

    for i in range(spec.count):
        f = random_band_limited_field(spec, 2 * i).coeffs
        g = random_band_limited_field(spec, 2 * i + 1).coeffs
        f_half = f[:, :h]
        nf = _hs_table(np.abs(f_half) ** 2, grid, f_orders)
        lp_f = _lp_table(np.abs(to_physical(f, grid)), lp_f_exponents)
        lp_u = _lp_table(np.sqrt(to_physical(m1 * f, grid) ** 2 + to_physical(m2 * f, grid) ** 2),
                         CZ_EXPONENTS)
        _interpolation_checks(reps, nf, i)
        _sobolev_injection_check(reps["sobolev_injection"], nf, lp_f, i)
        _product_law_checks(reps, nf, _hs_table(np.abs(g[:, :h]) ** 2, grid, g_orders),
                            _hs_table(np.abs(_product_coeffs(f, g, grid)) ** 2, fine, fg_orders), i)
        _calderon_zygmund_checks(reps, lp_f, lp_u, i)
        _directional_checks(reps, nf, *(_hs_table(np.abs(m * f_half) ** 2, grid, dir_orders)
                                        for m in (grad_a, d1a, d2a, d2b)), p, a, b, i)
    return list(reps.values())


def _hs_orders(p: DissipParams) -> tuple[tuple, ...]:
    """The distinct (s, homogeneous) H^s norms the checks read of f, of g, of fg
    and of each directional power of f, in that order."""
    interpolation = [(s, homogeneous) for s1, s2 in INTERPOLATION_PAIRS
                     for s in (s1, s2, *(t * s1 + (1 - t) * s2 for t in INTERPOLATION_THETAS))
                     for homogeneous in (True, False)]
    injection = [(sigma, True) for sigma in SOBOLEV_SIGMAS]
    product = [(s, True) for pair in PRODUCT_PAIRS for s in pair]
    directional = [(s, True) for s in _directional_orders(p)]
    f = interpolation + injection + product + directional
    fg = [(s1 + s2 - 1.0, True) for s1, s2 in PRODUCT_PAIRS]
    return tuple(tuple(dict.fromkeys(o)) for o in (f, product, fg, directional))


def _directional_orders(p: DissipParams) -> tuple[float, ...]:
    return (0.0, p.s, 1.0)


def _worse(old: float, new: float) -> float:
    """max(old, new), except that a NaN is kept rather than dropped."""
    return new if new > old or math.isnan(new) else old


def _ratio_update(rep: InequalityReport, lhs: float, rhs: float, repro) -> None:
    rep.samples += 1
    if rhs <= 0.0:
        rep.skipped += 1
        return
    ratio = lhs / rhs
    rep.worst_ratio = _worse(rep.worst_ratio, ratio)
    rep.empirical_constant = _worse(rep.empirical_constant, ratio)
    if rep.exact_bound and not ratio <= 1.0 + REL_SLACK:  # a NaN ratio is a violation
        rep.merge_violation(repro)


def _interpolation_checks(reps, nf: dict, i: int) -> None:
    """nf holds f's H^s norms by (s, homogeneous), as all the tables below do."""
    for s1, s2 in INTERPOLATION_PAIRS:
        n1h, n2h, n1i, n2i = nf[s1, True], nf[s2, True], nf[s1, False], nf[s2, False]
        for t in INTERPOLATION_THETAS:
            s_mid = t * s1 + (1 - t) * s2
            _ratio_update(reps["interpolation_homogeneous"],
                          nf[s_mid, True], n1h**t * n2h ** (1 - t),
                          {"sample": i, "s1": s1, "s2": s2, "t": t})
            _ratio_update(reps["interpolation_inhomogeneous"],
                          nf[s_mid, False], n1i**t * n2i ** (1 - t),
                          {"sample": i, "s1": s1, "s2": s2, "t": t})


def _sobolev_injection_check(rep: InequalityReport, nf: dict, lp_f: dict, i: int) -> None:
    """lp_f holds the Lp norms of f by exponent."""
    for sigma, p_exp in zip(SOBOLEV_SIGMAS, SOBOLEV_EXPONENTS):
        _ratio_update(rep, lp_f[p_exp], nf[sigma, True], {"sample": i, "sigma": sigma})


def _product_law_checks(reps, nf: dict, ng: dict, nfg: dict, i: int) -> None:
    for s1, s2 in PRODUCT_PAIRS:
        if not (s1 < 1.0 and s1 + s2 > 0.0):
            reps["product_law_symmetric"].skipped += 1
            continue
        lhs = nfg[s1 + s2 - 1.0, True]
        f1, f2 = nf[s1, True], nf[s2, True]
        g1, g2 = ng[s1, True], ng[s2, True]
        _ratio_update(reps["product_law_symmetric"], lhs, f1 * g2 + f2 * g1,
                      {"sample": i, "s1": s1, "s2": s2})
        if s2 < 1.0:
            _ratio_update(reps["product_law_asymmetric"], lhs, f1 * g2,
                          {"sample": i, "s1": s1, "s2": s2})
        else:
            reps["product_law_asymmetric"].skipped += 1


def _calderon_zygmund_checks(reps, lp_f: dict, lp_u: dict, i: int) -> None:
    """lp_f and lp_u hold the Lp norms of |f| and |u| = |R^perp f| by exponent."""
    for q in CZ_EXPONENTS:
        lhs = lp_u[q]
        rhs = lp_f[q]
        _ratio_update(reps["calderon_zygmund"], lhs, rhs, {"sample": i, "p": q})
        if q == 2.0:
            rep = reps["calderon_zygmund_p2"]
            rep.samples += 1
            if rhs <= 0.0:
                rep.skipped += 1
                continue
            ratio = lhs / rhs
            rep.worst_ratio = _worse(rep.worst_ratio, abs(ratio - 1.0))
            rep.empirical_constant = _worse(rep.empirical_constant, ratio)
            if not abs(ratio - 1.0) <= 1e-12:  # a NaN ratio is a violation
                rep.merge_violation({"sample": i, "ratio": ratio})


def _directional_checks(reps, nf: dict, n_grad: dict, n1a: dict, n2a: dict, n2b: dict,
                        p: DissipParams, a: float, b: float, i: int) -> None:
    """nf, n_grad, n1a, n2a and n2b hold the H^s norms of f, |grad|^a f,
    |d1|^a f, |d2|^a f and |d2|^b f, with d1, d2 swapped when alpha > beta."""
    for s in _directional_orders(p):
        norm_s, seminorm_b = nf[s, True], n2b[s, True]
        lhs = n_grad[s, True]
        rhs = norm_s + n1a[s, True] + seminorm_b
        _ratio_update(reps["directional_control"], lhs, rhs, {"sample": i, "s": s})
        z = a / b
        lhs2 = n2a[s, True]
        rhs2 = norm_s ** (1 - z) * seminorm_b ** z
        _ratio_update(reps["directional_interpolation"], lhs2, rhs2,
                      {"sample": i, "s": s, "z": z})


def total_violations(reports: list[InequalityReport]) -> int:
    """Release-blocking count: exact-bound violations plus any constant-bearing
    inequality whose empirical ratio came out unbounded."""
    bad = 0
    for r in reports:
        if r.exact_bound:
            bad += r.violations
        elif not np.isfinite(r.worst_ratio):
            bad += 1
    return bad
