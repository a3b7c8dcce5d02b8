"""Two-spinor reduction of the 3D transport and spin precession.

On the zero level set the four-spinor amplitude lives in the rank-2 range
of the projection at the running momentum.  A position/momentum dependent
4 x 2 frame W identifies that range with C^2; conjugating the transport
through W turns it into the 2 x 2 precession equation

    s'(t) = i M(t) s(t),    M = sigma . (E x p) / (-2 V (1 - V)),

with E = -grad V the static field along the orbit.  The Bloch vector
b_k = <u, sigma_k u> of a spinor u carried by s(t) precesses as

    db/dt = b x (E x p) / (-V (1 - V)),

which is checked here by finite differencing the integrated path.  M is
computed in one place, _precession, as four Python numbers from the field
and momentum floats: the spin solve's right-hand side forms i M s from them
in Python complex, and spin_generator builds its 2 x 2 matrix from them.

Two candidate pairings close the frame sandwich on the left: the plain
transpose W^T, and the hermitian pseudo-inverse (W*W)^(-1) W* restricted
to the range.  They differ once the momentum has a second component
(sigma_2 is antisymmetric), so the equivalence check measures both and
reports which one reproduces the four-spinor transport.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .clifford import SIGMA_1, SIGMA_2, SIGMA_3, DomainError, projector
from .dop853 import TIGHT, NumericalError, solve_ivp
from .kernel import scalar_ratio
from .transport import solve_spinor_transport

_SIGMA = (SIGMA_1, SIGMA_2, SIGMA_3)
# the carried spinor whose Bloch vector solve_bmt_spin reports
_U0 = np.array([1.0, 0.0], dtype=complex)


def _sigma_dot(vec):
    vec = np.asarray(vec)
    return vec[0] * SIGMA_1 + vec[1] * SIGMA_2 + vec[2] * SIGMA_3


def _require_standard_rep(rep):
    if rep.dim != 3 or rep.dstar != 4:
        raise DomainError("the two-spinor reduction is specific to 3D")
    expected0 = np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex)
    ok = np.allclose(rep.alpha0, expected0, atol=1e-14)
    for a, s in zip(rep.alphas, _SIGMA):
        blk = np.zeros((4, 4), dtype=complex)
        blk[:2, 2:] = s
        blk[2:, :2] = s
        ok = ok and np.allclose(a, blk, atol=1e-14)
    if not ok:
        raise DomainError("reduction frames assume the standard block 3D representation")


def build_W(v, p):
    """Range frame of the projection: 4 x 2, columns spanning ran Lambda_plus.

    W = (-2 V (1 - V))^(-1/2) [ (1 - V) I ; i sigma . p ] for on-shell
    momentum |p|^2 = 1 - V^2; then W*W = (-1/V) I and Lambda_plus W = W.
    """
    v = float(v)
    if not -1.0 < v < 0.0:
        raise DomainError(f"frame needs V in (-1, 0), got {v}")
    p = np.asarray(p, dtype=float)
    if p.shape != (3,):
        raise DomainError("momentum must be a 3-vector")
    shell = abs(float(p @ p) - (1.0 - v * v))
    if shell > 1e-8:
        raise DomainError(f"momentum off the energy shell by {shell:.3e}")
    c = 1.0 / math.sqrt(-2.0 * v * (1.0 - v))
    w = np.zeros((4, 2), dtype=complex)
    w[:2, :] = (1.0 - v) * np.eye(2)
    w[2:, :] = 1j * _sigma_dot(p)
    return c * w


def left_factor(lambda_plus, w):
    """Hermitian left pairing (W*W)^(-1) W* Lambda_plus.

    On the shell the Gram matrix equals (-1/V) I, but it is solved rather
    than substituted so the factor identities W_L W = I and W W_L =
    Lambda_plus hold to rounding even for slightly perturbed frames.
    """
    gram = w.conj().T @ w
    cond = float(np.linalg.cond(gram))
    if not np.isfinite(cond) or cond > 1e12:
        raise NumericalError(f"frame Gram matrix ill-conditioned: cond = {cond:.3e}")
    return np.linalg.solve(gram, w.conj().T @ lambda_plus)


def _precession(model, x, p):
    """The entries (M00, M01, M10, M11) of M = sigma.(E x p)/(-2V(1-V)) as Python numbers.

    With m = (E x p)/(-2V(1-V)), M = [[m2, m0 - i m1], [m0 + i m1, -m2]].
    x and p are sequences of three floats.
    """
    v, r, gamma, _, _ = model.terms(x)
    f0, f1, f2 = (-gamma * c for c in r)   # the field E = -grad V
    q0, q1, q2 = p
    scale = -2.0 * v * (1.0 - v)
    # np.cross's own component operations, without its per-call overhead
    m0, m1, m2 = ((f1 * q2 - f2 * q1) / scale, (f2 * q0 - f0 * q2) / scale,
                  (f0 * q1 - f1 * q0) / scale)
    return m2, complex(m0, -m1), complex(m0, m1), -m2


def spin_generator(model, x, p):
    """2 x 2 hermitian precession generator M = sigma.(E x p)/(-2V(1-V)).

    x and p are sequences of three floats.
    """
    m00, m01, m10, m11 = _precession(model, x, p)
    return np.array([[m00, m01], [m10, m11]], dtype=complex)


@dataclass(frozen=True)
class SpinTransportResult:
    s_matrix: np.ndarray
    times: np.ndarray
    bloch: np.ndarray
    residual_path: np.ndarray
    unitarity_defect: float
    bmt2_residual: float
    norm_drift: float


def solve_bmt_spin(model, traj):
    """Integrate the 2 x 2 spin propagator along a trajectory and check it.

    Integrated at TIGHT tolerances.

    bloch is the path of the Bloch vector of s(t) u0, u0 = (1, 0), at 201
    uniform times;
    residual_path finite-differences that path against its stated vector
    equation, testing reduction and integration together rather than
    restating the algebra that produced them.
    """
    if model.dim != 3:
        raise DomainError("spin precession applies to 3D trajectories")

    def rhs(t, y):
        # i M s in Python complex: numpy's fixed cost per call outweighs four
        # multiply-adds.  _precession is read from the module on every call, so a
        # fault injected there reaches the solve.
        m00, m01, m10, m11 = _precession(model, *traj.phase_at(t))
        s00, s01, s10, s11 = y.tolist()
        return [1j * (m00 * s00 + m01 * s10), 1j * (m00 * s01 + m01 * s11),
                1j * (m10 * s00 + m11 * s10), 1j * (m10 * s01 + m11 * s11)]

    sol = solve_ivp(rhs, (0.0, traj.tau), np.eye(2, dtype=complex).ravel(),
                    dense_output=True, **TIGHT.solver_kwargs())
    if not sol.success:
        raise NumericalError(f"spin propagator integration failed: {sol.message}")
    s_tau = sol.y[:, -1].reshape(2, 2)
    defect = float(np.linalg.norm(s_tau.conj().T @ s_tau - np.eye(2)))

    n = 201
    times = np.linspace(0.0, traj.tau, n)
    delta = 1e-5 * max(traj.tau, 1.0)
    # clamp so the FD stencil stays inside [0, tau]
    t_c = np.minimum(np.maximum(times, delta), traj.tau - delta)
    grid = np.concatenate([times, t_c, t_c - delta, t_c + delta])
    spinors = (sol.sol(grid).T.reshape(-1, 2, 2) @ _U0)[:, :, None]
    # b_k = <u, sigma_k u>, one Bloch vector per grid row
    bloch_grid = np.stack([(spinors.conj().transpose(0, 2, 1) @ (s @ spinors))[:, 0, 0].real
                           for s in _SIGMA], axis=1)
    bloch, s_c, b_minus, b_plus = bloch_grid.reshape(4, n, 3)

    # the orbit at the stencil centres, where the BMT equation is checked
    p, v, grad = traj.potential_along(t_c)
    norms = np.sqrt(np.vecdot(bloch, bloch))
    drift = float(np.abs(norms - norms[0]).max())

    lhs = (b_plus - b_minus) / (2.0 * delta)
    rhs_vec = np.cross(s_c, np.cross(-grad, p)) / (-v * (1.0 - v))[:, None]
    residual_path = np.sqrt(np.vecdot(lhs - rhs_vec, lhs - rhs_vec))

    return SpinTransportResult(s_matrix=s_tau, times=times, bloch=bloch,
                               residual_path=residual_path, unitarity_defect=defect,
                               bmt2_residual=float(residual_path.max()),
                               norm_drift=drift)


@dataclass(frozen=True)
class EquivalenceReport:
    residual_left_inverse: float
    scalar_left_inverse: complex
    residual_transpose: float
    best: str
    passed: bool


def equivalence_check(model, rep, geo, spin, transport=None):
    """Compare four-spinor transport with the reduced two-spinor route.

    Builds T = U(tau) Lambda_plus(i omega(0)) and the frame sandwich
    sqrt(V(x)/V(y)) W(x, omega(tau)) s(tau) pair(y, omega(0)) for the two
    pairings (plain transpose W^T, hermitian left factor W_L), fitting a
    free scalar to each; passes when either matches to 1e-6 relative.
    spin is solve_bmt_spin's result along geo.trajectory.
    """
    _require_standard_rep(rep)
    traj = geo.trajectory
    if transport is None:
        transport = solve_spinor_transport(model, rep, traj)
    lam_start = projector(rep, 1j * geo.p0).lambda_plus
    target = transport.u_matrix @ lam_start

    v_x = model.value(geo.x_star)
    v_y = model.value(geo.y_star)
    scale = math.sqrt(v_x / v_y)
    w_end = build_W(v_x, traj.p_end)
    w_start = build_W(v_y, geo.p0)

    pairings = {
        "transpose": w_start.T,
        "left_inverse": left_factor(lam_start, w_start),
    }
    results = {}
    for name, pair in pairings.items():
        candidate = scale * (w_end @ spin.s_matrix @ pair)
        coeff = scalar_ratio(candidate, target)
        resid = float(np.linalg.norm(target - coeff * candidate)
                      / np.linalg.norm(target))
        results[name] = (resid, coeff)

    best = min(results, key=lambda k: results[k][0])
    return EquivalenceReport(
        residual_left_inverse=results["left_inverse"][0],
        scalar_left_inverse=results["left_inverse"][1],
        residual_transpose=results["transpose"][0],
        best=best,
        passed=results[best][0] <= 1e-6,
    )
