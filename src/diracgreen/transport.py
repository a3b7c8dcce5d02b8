"""Spinor transport along zero-energy orbits.

The amplitude of the leading kernel carries a unitary factor solving

    U'(t) = -(i/2) (alpha . grad V)(gamma(t)) / V(gamma(t)) U(t),   U(0) = 1,

along the connecting orbit gamma, in every dimension.  The generator is
anti-hermitian, so U stays unitary up to integrator error; a defect above
1e-9 is a solver failure and raises.

In 1D the generator is proportional to the single alpha matrix and the
solution collapses to a rotation by the half-log phase

    theta = int V'(gamma)/(2 V(gamma)) dt,

which has the closed form (arcsin V(left end) - arcsin V(right end)) / 2,
independent of traversal direction.  theta_1d and rotation_1d give that
closed form; they serve as references for the transported U, not as a
second route to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .clifford import DomainError, projector
from .geoflow import TIGHT, NumericalError

_UNITARITY_TOL = 1e-9


@dataclass(frozen=True)
class TransportResult:
    u_matrix: np.ndarray
    unitarity_defect: float


def solve_spinor_transport(model, rep, traj):
    """Integrate the transport equation along a trajectory, returning U(tau).

    Integrated at TIGHT tolerances.  unitarity_defect is the Frobenius norm
    of U*U - 1; above 1e-9 the solve raises NumericalError.
    """
    n = rep.dstar

    def rhs(t, y):
        u = y.reshape(n, n)
        x, _ = traj.phase(t)
        v, grad, _ = model.evaluate(x)
        gen = rep.alpha_dot(grad) * (-0.5j / v)
        return (gen @ u).ravel()

    y0 = np.eye(n, dtype=complex).ravel()
    sol = solve_ivp(rhs, (0.0, traj.tau), y0, **TIGHT.solver_kwargs())
    if not sol.success:
        raise NumericalError(f"spinor transport failed: {sol.message}")
    u_end = sol.y[:, -1].reshape(n, n)

    defect = float(np.linalg.norm(u_end.conj().T @ u_end - np.eye(n)))
    if defect > _UNITARITY_TOL:
        raise NumericalError(f"spinor transport lost unitarity: |U*U - 1| = {defect:.3e} "
                             f"above {_UNITARITY_TOL:.0e}")
    return TransportResult(u_matrix=u_end, unitarity_defect=defect)


def theta_1d(model, a, b):
    """Closed-form 1D half-log phase between two points.

    Equals (arcsin V(left) - arcsin V(right)) / 2 with left/right the
    smaller/larger coordinate; traversal direction does not enter.
    """
    if model.dim != 1:
        raise DomainError("the closed-form phase is 1D only")
    lo, hi = (a, b) if a <= b else (b, a)
    v_lo = model.value(np.atleast_1d(np.asarray(lo, dtype=float)))
    v_hi = model.value(np.atleast_1d(np.asarray(hi, dtype=float)))
    return 0.5 * (math.asin(v_lo) - math.asin(v_hi))


def rotation_1d(rep, theta):
    """U = cos(theta) 1 - i sin(theta) alpha_1, the 1D transport in closed form."""
    if rep.dstar != 2:
        raise DomainError("closed-form rotation applies to the 1D representation")
    return math.cos(theta) * np.eye(2, dtype=complex) - 1j * math.sin(theta) * rep.alphas[0]


def transport_matrix(model, rep, geo, u_matrix):
    """Projected amplitude matrix M = (-V(y)) U(tau) P_plus(i omega(0)).

    Returns (M, residual) where residual checks the equivalent left-side
    form M = (-V(x)) P_plus(i omega(tau)) alpha_0 M, a structural identity
    of the transported projector; both are relative Frobenius quantities.
    """
    p0 = geo.p0
    p_end = geo.trajectory.p_end
    proj_start = projector(rep, 1j * p0)
    m = (-model.value(geo.y_star)) * (u_matrix @ proj_start.lambda_plus)
    proj_end = projector(rep, 1j * p_end)
    left = (-model.value(geo.x_star)) * (proj_end.lambda_plus @ rep.alpha0 @ m)
    scale = max(float(np.linalg.norm(m)), 1e-300)
    residual = float(np.linalg.norm(m - left)) / scale
    return m, residual
