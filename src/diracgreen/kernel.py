"""Leading small-h Green kernel assembly and the constant-potential check.

The off-diagonal Green kernel of alpha . (-i h grad) + alpha_0 + V decays
like exp(-d_A(x,y)/h) with d_A the conformal distance; the leading matrix
amplitude is assembled here from four independently computed pieces: the
distance, the exponential-map Jacobian determinant, the spinor transport
unitary, and the spectral projection at the arrival momentum.

For constant potential the kernel is an exact Bessel-type expression in
closed form, which makes it the natural end-to-end validation target: the
ratio of the exact kernel to the assembled leading term must tend to 1
linearly in h.  The modified Bessel functions occur at the orders d/2 and
their neighbours (0, 1/2, 1, 3/2): the half orders in closed form, K_0 and
K_1 from scipy.special; selfcheck holds the independent quadrature oracle
that checks them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import special

from .clifford import DomainError, negate_rep
from .dop853 import NumericalError
from .geoflow import shoot_geodesic
from .potential import constant_model, negated
from .transport import solve_spinor_transport, transport_matrix

_BESSEL_ORDERS = (0.0, 0.5, 1.0, 1.5)


def bessel_K(nu, rho):
    """Modified Bessel K_nu(rho) for nu in {0, 1/2, 1, 3/2}, rho > 0."""
    rho = float(rho)
    if rho <= 0.0:
        raise DomainError(f"bessel_K requires rho > 0, got {rho}")
    if nu == 0.5:
        return math.sqrt(math.pi / (2.0 * rho)) * math.exp(-rho)
    if nu == 1.5:
        return math.sqrt(math.pi / (2.0 * rho)) * math.exp(-rho) * (1.0 + 1.0 / rho)
    if nu == 0.0:
        return float(special.k0(rho))
    if nu == 1.0:
        return float(special.k1(rho))
    raise DomainError(f"unsupported order {nu}; supported: {_BESSEL_ORDERS}")


def bessel_K_prime(nu, rho):
    """d/drho K_nu(rho) via K_nu' = -(K_(nu-1) + K_(nu+1))/2 and recurrences."""
    rho = float(rho)
    if rho <= 0.0:
        raise DomainError(f"bessel_K_prime requires rho > 0, got {rho}")
    if nu == 0.5:
        return -0.5 * (bessel_K(0.5, rho) + bessel_K(1.5, rho))
    if nu == 1.0:
        return -float(special.k0(rho)) - float(special.k1(rho)) / rho
    if nu == 1.5:
        return -bessel_K(0.5, rho) - 1.5 * bessel_K(1.5, rho) / rho
    if nu == 0.0:
        return -float(special.k1(rho))
    raise DomainError(f"unsupported order {nu}; supported: {_BESSEL_ORDERS}")


def closed_form_dim(d):
    """d, refused unless the constant-potential closed form covers it."""
    if d not in (1, 2, 3):
        raise DomainError("constant-potential closed form covers d in {1, 2, 3}")
    return d


def constant_V_exact(rep, e_value, x, y, h):
    """Exact Green kernel G(x, y; h) for constant potential E, d in {1, 2, 3}.

    G = (1-E^2)^(d/4) (2 pi)^(-d/2) h^(-d) (r/h)^(1-d/2)
        { -i (alpha.u) K'_(d/2)(kr/h)
          + (alpha_0 - E + i h (d/2-1)(alpha.u)/r) K_(d/2)(kr/h)/k },

    with k = sqrt(1-E^2), r = |x-y|, u the unit vector from y to x.
    """
    d = closed_form_dim(rep.dim)
    e_value = float(e_value)
    if not -1.0 < e_value < 1.0:
        raise DomainError(f"constant level must satisfy |E| < 1, got {e_value}")
    if h <= 0.0:
        raise DomainError(f"h must be positive, got {h}")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    sep = x - y
    r = float(np.linalg.norm(sep))
    if r == 0.0:
        raise DomainError("the kernel diverges on the diagonal; x and y must differ")
    u_hat = sep / r
    kappa = math.sqrt(1.0 - e_value * e_value)
    rho = kappa * r / h
    nu = d / 2.0
    k_val = bessel_K(nu, rho)
    k_der = bessel_K_prime(nu, rho)
    alpha_u = rep.alpha_dot(u_hat)
    eye = np.eye(rep.dstar)
    mat = (-1j * alpha_u * k_der
           + (rep.alpha0 - e_value * eye + 1j * h * (nu - 1.0) * alpha_u / r)
           * (k_val / kappa))
    scale = ((1.0 - e_value * e_value) ** (d / 4.0)
             * (2.0 * math.pi) ** (-d / 2.0) * h ** (-d) * (r / h) ** (1.0 - d / 2.0))
    return scale * mat


@dataclass(frozen=True)
class KernelEstimate:
    """Leading kernel G(x, y; h) ~ prefactor * amplitude."""

    matrix: np.ndarray
    h: float
    agmon: float
    prefactor: float
    amplitude: np.ndarray
    left_identity_residual: float


def _det_exp_prime(geo):
    """det exp' of the connection; the exponential map of a line is an isometry, so 1 in 1D."""
    return 1.0 if geo.det_exp_prime is None else geo.det_exp_prime


def _assemble(model, rep, geo, h, u_matrix):
    """Scalar prefactor times projected amplitude, with U(tau) the transport."""
    dim, agmon = model.dim, geo.agmon
    v_x, v_y = model.value(geo.x_star), model.value(geo.y_star)
    amplitude, left_res = transport_matrix(model, rep, geo, u_matrix)
    conf = ((1.0 - v_x * v_x) ** ((dim - 2) / 4.0)
            * (1.0 - v_y * v_y) ** ((dim - 2) / 4.0))
    tail = (2.0 * math.pi * agmon / h) ** (-(dim - 1) / 2.0)
    pref = conf / math.sqrt(_det_exp_prime(geo)) * math.exp(-agmon / h) * tail / h ** dim
    return KernelEstimate(matrix=pref * amplitude, h=float(h), agmon=agmon,
                          prefactor=pref, amplitude=amplitude,
                          left_identity_residual=left_res)


def leading_kernel_multid(model, rep, geo, h, transport=None):
    """Assemble the leading kernel at a solved connection, in any dimension."""
    if rep.dim != model.dim:
        raise DomainError("the assembly needs a representation of the model's dimension")
    if h <= 0.0:
        raise DomainError(f"h must be positive, got {h}")
    if transport is None:
        transport = solve_spinor_transport(model, rep, geo.trajectory)
    return _assemble(model, rep, geo, h, transport.u_matrix)


def leading_kernel_1d(model, rep, x, y, h):
    """Leading kernel in 1D between scalar endpoints, assembled as in any dimension.

    Calls _assemble directly rather than leading_kernel_multid, so that a
    tracer wrapping both names never times one kernel twice.
    """
    if model.dim != 1 or rep.dim != 1:
        raise DomainError("leading_kernel_1d needs a 1D model and representation")
    if h <= 0.0:
        raise DomainError(f"h must be positive, got {h}")
    geo = shoot_geodesic(model, np.atleast_1d(float(y)), np.atleast_1d(float(x)))
    transport = solve_spinor_transport(model, rep, geo.trajectory)
    return _assemble(model, rep, geo, h, transport.u_matrix)


def positive_potential_kernel(model, rep, x, y, h):
    """Leading kernel for a potential inside the upper gap, V in (0, 1).

    Flipping the signs of the representation and the potential turns the
    operator into minus a lower-gap operator, so its kernel is minus the
    standard assembly on (-V) with the negated matrices.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if model.value(y) <= 0.0 or model.value(x) <= 0.0:
        raise DomainError("positive_potential_kernel expects V > 0 at the endpoints")
    neg_model = negated(model)
    geo = shoot_geodesic(neg_model, y, x)
    est = leading_kernel_multid(neg_model, negate_rep(rep), geo, h)
    return replace(est, matrix=-est.matrix, amplitude=-est.amplitude)


def unit_scale(m):
    """The power of two that brings the largest entry of m into [0.5, 1).

    Scaling by it is exact, so a quotient of norms or inner products of
    scaled operands equals the unscaled one bit for bit, and the squares
    inside a norm neither underflow (a kernel of 1e-211) nor overflow.
    """
    exponent = math.frexp(float(np.max(np.abs(m))))[1]
    return math.ldexp(1.0, -max(exponent, -1021))


def scalar_ratio(lead, ref):
    """Frobenius projection R = <lead, ref> / <lead, lead> of ref on lead.

    Both operands are scaled by unit_scale(lead) first.  Raises
    NumericalError when lead is zero or under 1e-14 |ref| (underflow).
    """
    s = unit_scale(lead)
    lead, ref = s * lead, s * ref
    norm2 = float(np.vdot(lead, lead).real)
    lead_norm, ref_norm = math.sqrt(norm2), float(np.linalg.norm(ref))
    if lead_norm == 0.0 or lead_norm < 1e-14 * ref_norm:
        raise NumericalError(f"degenerate leading kernel: norm {lead_norm / s:.3e} against a "
                             f"reference of norm {ref_norm / s:.3e}, no scalar ratio")
    return complex(np.vdot(lead, ref)) / norm2


# deviations at most this are round-off: the 1D constant well's bound on |R - 1|
ROUNDOFF_DEVIATION = 1e-12


def loglog_slope(h_list, deviations):
    """Slope of the least-squares line through (log h, log dev).

    0.0 when the fit is undefined: under two points or a zero deviation.
    Also 0.0 when every deviation is at most ROUNDOFF_DEVIATION: where the
    leading kernel is exact (the 1D constant well), |R - 1| is round-off,
    and a line through it carries no order, only the rounding's noise.
    """
    if (len(h_list) < 2 or not all(dev > 0.0 for dev in deviations)
            or all(dev <= ROUNDOFF_DEVIATION for dev in deviations)):
        return 0.0
    return float(np.polyfit(np.log(h_list), np.log(deviations), 1)[0])


@dataclass(frozen=True)
class RatioSweep:
    """Exact-over-leading scalar ratios across an h sweep."""

    agmon: float
    det_exp_prime: float
    h_list: tuple
    ratios: tuple
    deviations: tuple
    estimates: tuple
    references: tuple
    slope: float


def exact_sweep(model, rep, x, y, h_list, exact, *, multistart=None):
    """Compare the full leading-kernel assembly with exact(h) at every h.

    The leading term is produced by the complete pipeline (shoot, Jacobi
    determinant, transport), never by a closed form.  R(h) is the
    scalar_ratio of the reference exact(h) on the leading kernel, and
    |R - 1| is fitted with a log-log line whose slope estimates the order
    of the first correction (0 when undefined, e.g. for a single h).
    A leading kernel that underflows to zero raises before exact(h) runs.
    multistart is shoot_geodesic's.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    geo = shoot_geodesic(model, y, x, multistart=multistart)
    transport = solve_spinor_transport(model, rep, geo.trajectory)

    ratios, deviations, estimates, references = [], [], [], []
    for h in h_list:
        lead = leading_kernel_multid(model, rep, geo, h, transport=transport)
        if not lead.matrix.any():
            raise NumericalError(
                f"leading kernel underflows to zero at h = {h:.3e}: d_A/h = "
                f"{geo.agmon / h:.3e} puts e^(-d_A/h) below the float range")
        references.append(exact(h))
        ratio = scalar_ratio(lead.matrix, references[-1])
        ratios.append(ratio)
        deviations.append(abs(ratio - 1.0))
        estimates.append(lead)

    return RatioSweep(agmon=geo.agmon, det_exp_prime=_det_exp_prime(geo),
                      h_list=tuple(h_list), ratios=tuple(ratios),
                      deviations=tuple(deviations), estimates=tuple(estimates),
                      references=tuple(references), slope=loglog_slope(h_list, deviations))


def ratio_sweep(rep, e_value, x, y, h_list, *, multistart=None):
    """exact_sweep against the constant-V closed form; needs E in (-1, 0), two h > 0, d <= 3."""
    e_value = float(e_value)
    if not -1.0 < e_value < 0.0:
        raise DomainError(f"the sweep needs a gap level E in (-1, 0), got {e_value}")
    h_list = [float(h) for h in h_list]
    if len(h_list) < 2:
        raise DomainError("need at least two h values to fit a slope")
    if any(h <= 0.0 for h in h_list):
        raise DomainError("all h values must be positive")
    return exact_sweep(constant_model(closed_form_dim(rep.dim), e_value), rep, x, y, h_list,
                       lambda h: constant_V_exact(rep, e_value, x, y, h),
                       multistart=multistart)
