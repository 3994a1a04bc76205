"""Independent reference forces and pressures for the benchmark's accuracy gate.

Nothing here imports or mirrors ``trapcav``; the formulas are derived again
from the raw corner geometry of the cavity cross section:

    M0 = (0, 0)                       upper wing, apex end
    M1 = (R cos phi,  R sin phi)      upper wing, open end
    M2 = (R cos phi, -R sin phi - a)  lower wing, open end
    M3 = (0, -a)                      lower wing, apex end

A point P = r (cos phi, sin phi) on the upper wing sees the lower wing
through the directions between P->M2 and P->M3.  A direction is the
clockwise angle theta from the wing direction d = (cos phi, sin phi), so
theta = atan2(cross(q, d), dot(q, d)) for a vector q.  Writing the cross and
dot products of the corner vectors out by hand leaves no cancelling terms:

    q2 = M2 - P:  cross = cos phi (a + 2 R sin phi)
                  dot   = (R - r) cos^2 phi - ((R + r) sin phi + a) sin phi
    q3 = M3 - P:  cross = a cos phi,   dot = -(r + a sin phi)

The ray at theta has length b = s / sin(u), u = theta - 2 phi, with
s = cos phi (a + 2 r sin phi).  A ray of length b carries the plate pressure
-K / b^4, projected on the wing frame by sin(u + phi) (z) and -cos(u + phi)
(x, sign chosen so that forward rays push towards the apex).

Two evaluators implement this:

* ``forces`` / ``pressures``: float64 numpy.  The fan integral is a
  Gauss-Legendre sum over u of the raw integrand; the wing integral is
  Gauss-Legendre on panels that grow geometrically (ratio 4) away from both
  wing ends, the only places where the integrand varies on the scale of the
  gap.  Nodes near the open end are placed by their distance to it, so
  R - r is never formed by subtraction.
* ``forces_mp``: mpmath at 30 digits.  The fan integral uses the
  antiderivatives of sin^5 u and sin^4 u cos u, whose cancellation 30 digits
  absorb; the wing integral is mpmath's tanh-sinh quadrature on breakpoints
  that halve towards both ends.  It shares only the geometry above with the
  float64 path, which it checks.

At phi = 0 the compression force has the closed form
-(16/15) R/a + 2/5 (reduced units), up to a tail of order (a/R)^5, which
checks both evaluators (:func:`self_check`).
"""

from __future__ import annotations

import math

import numpy as np

# CODATA 2018, duplicated on purpose: the reference must not move if the
# program's constants do
HBAR = 1.054571817e-34
C_LIGHT = 2.99792458e8
K_SI = HBAR * C_LIGHT * math.pi**2 / 240.0

# 20-point Gauss-Legendre integrates the fan integrand (a trig polynomial of
# degree 5 over a window of width < pi) to rounding, and each geometric wing
# panel to well below 1e-15 relative
_X_IN, _W_IN = np.polynomial.legendre.leggauss(20)
_X_OUT, _W_OUT = np.polynomial.legendre.leggauss(20)


def prefactor(units: str) -> float:
    return 1.0 if units == "reduced" else K_SI


def _panels(rho: float) -> list[tuple[float, float, bool]]:
    """Wing panels in units of the gap: (lo, hi, from_open_end).

    Panels touching the open end are described by their distance t = R - r
    to it, so that nodes near that end keep full relative precision.
    """
    h = 0.25
    if rho <= 2.0 * h:
        return [(0.0, rho, False)]
    edges = [0.0]
    x = h
    while x < 0.5 * rho:
        edges.append(x)
        x *= 4.0
    panels = [(lo, hi, False) for lo, hi in zip(edges, edges[1:])]
    tail = [(lo, hi, True) for lo, hi in zip(edges, edges[1:])]
    mid_lo, mid_hi = edges[-1], rho - edges[-1]
    panels.append((mid_lo, mid_hi, False))
    return panels + tail


def _nodes(rho: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Wing nodes r, distances to the open end t, and weights (gap units)."""
    rs, ts, ws = [], [], []
    for lo, hi, from_end in _panels(rho):
        half = 0.5 * (hi - lo)
        x = 0.5 * (hi + lo) + half * _X_OUT
        w = half * _W_OUT
        if from_end:
            rs.append(rho - x)
            ts.append(x)
        else:
            rs.append(x)
            ts.append(rho - x)
        ws.append(w)
    return np.concatenate(rs), np.concatenate(ts), np.concatenate(ws)


def _reduced_pressures(rho: float, phi: float, r: np.ndarray, t: np.ndarray):
    """(p_x, p_z) for gap 1, prefactor 1, at wing points r = rho - t."""
    cphi, sphi = math.cos(phi), math.sin(phi)
    # limit angles, then u = theta - 2 phi
    theta1 = np.arctan2(cphi * (1.0 + 2.0 * rho * sphi), t * cphi * cphi - ((rho + r) * sphi + 1.0) * sphi)
    theta2 = np.arctan2(cphi, -(r + sphi))
    u1 = theta1 - 2.0 * phi
    width = theta2 - theta1
    s = cphi * (1.0 + 2.0 * r * sphi)
    u = u1[:, None] + width[:, None] * (0.5 + 0.5 * _X_IN[None, :])
    w = 0.5 * width[:, None] * _W_IN[None, :]
    sin4 = np.sin(u) ** 4
    i_z = np.sum(w * sin4 * np.sin(u + phi), axis=1)
    i_x = np.sum(w * sin4 * np.cos(u + phi), axis=1)
    scale = 1.0 / s**4
    return scale * i_x, -scale * i_z


def reduced_forces(rho: float, phi: float) -> tuple[float, float]:
    """(F_x, F_z) on one wing for gap 1, width 1, prefactor 1."""
    r, t, w = _nodes(rho)
    p_x, p_z = _reduced_pressures(rho, phi, r, t)
    return float(np.dot(w, p_x)), float(np.dot(w, p_z))


def forces(a: float, R: float, L: float, phi: float, units: str):
    """Reference (f_x, f_z) on one wing, in the units the program reports."""
    fx, fz = reduced_forces(R / a, phi)
    scale = L * prefactor(units) / a**3
    return scale * fx, scale * fz


def pressures(a: float, R: float, phi: float, units: str, r: np.ndarray):
    """Reference (p_x, p_z) arrays at wing points ``r`` (same length unit as a)."""
    r = np.asarray(r, dtype=float)
    p_x, p_z = _reduced_pressures(R / a, phi, r / a, (R - r) / a)
    scale = prefactor(units) / a**4
    return scale * p_x, scale * p_z


def forces_mp(rho: float, phi: float, dps: int = 30) -> tuple[float, float]:
    """(F_x, F_z) as :func:`reduced_forces`, evaluated by mpmath at ``dps`` digits."""
    import mpmath

    with mpmath.workdps(dps):
        rho = mpmath.mpf(rho)
        phi = mpmath.mpf(phi)
        cphi, sphi = mpmath.cos(phi), mpmath.sin(phi)

        def f5(u):
            c = mpmath.cos(u)
            return -c + c**3 * 2 / 3 - c**5 / 5

        def g5(u):
            return mpmath.sin(u) ** 5 / 5

        def integrand(t, component):
            r = rho - t
            theta1 = mpmath.atan2(cphi * (1 + 2 * rho * sphi), t * cphi**2 - ((rho + r) * sphi + 1) * sphi)
            theta2 = mpmath.atan2(cphi, -(r + sphi))
            u1, u2 = theta1 - 2 * phi, theta2 - 2 * phi
            df5 = f5(u2) - f5(u1)
            dg5 = g5(u2) - g5(u1)
            s4 = (cphi * (1 + 2 * r * sphi)) ** 4
            if component == "z":
                return -(cphi * df5 + sphi * dg5) / s4
            return (cphi * dg5 - sphi * df5) / s4

        # integrate in t = R - r; breakpoints halve towards both ends
        points = {mpmath.mpf(0), rho}
        x = mpmath.mpf(1) / 8
        while x < rho / 2:
            points.add(x)
            points.add(rho - x)
            x *= 2
        points = sorted(points)
        fx = mpmath.quad(lambda t: integrand(t, "x"), points)
        fz = mpmath.quad(lambda t: integrand(t, "z"), points)
        return float(fx), float(fz)


def self_check(cases: list[tuple[float, float]], mp: dict | None = None, rel: float = 1e-12) -> list[str]:
    """Check the float64 evaluator against mpmath and the phi = 0 closed form.

    ``cases`` are (R/a, phi) pairs; ``mp`` may hold :func:`forces_mp` values
    computed earlier for them.  Returns a list of problems, empty when every
    check holds: both components within ``rel`` * |F_z| of the 30-digit
    value, and, for phi = 0 and R/a >= 100, both evaluators within ``rel`` of
    -(16/15) R/a + 2/5.
    """
    mp = mp or {}
    problems = []
    for rho, phi in cases:
        fx, fz = reduced_forces(rho, phi)
        mx, mz = mp[(rho, phi)] if (rho, phi) in mp else forces_mp(rho, phi)
        scale = abs(mz)
        for name, got, want in (("f_x", fx, mx), ("f_z", fz, mz)):
            if not abs(got - want) <= rel * scale:
                problems.append(f"float64 {name} {got!r} vs mpmath {want!r} at R/a={rho!r}, phi={phi!r}")
        if phi == 0.0 and rho >= 100.0:
            exact = -16.0 / 15.0 * rho + 0.4
            for label, value in (("float64", fz), ("mpmath", mz)):
                if not abs(value - exact) <= rel * abs(exact):
                    problems.append(f"{label} f_z {value!r} vs exact {exact!r} at R/a={rho!r}, phi=0")
    return problems
