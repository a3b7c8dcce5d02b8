"""Dirac matrices and non-orthogonal spectral projections of the symbol.

The symbol of the operator at momentum zeta is

    alpha . zeta + alpha_0 + V(x) I

built from hermitian matrices alpha_0, ..., alpha_d with

    alpha_k alpha_l + alpha_l alpha_k = 2 delta_kl I.

Its two eigenvalue branches +/- sqrt(1 + zeta^2) + V(x) (complex square of
zeta, principal root) are separated for |Im zeta| < 1, and the associated
eigenprojections are Lambda_pm = (I +/- S)/2 with
S(zeta) = (alpha . zeta + alpha_0)/sqrt(1 + zeta^2).  These projections are
idempotent but not hermitian for complex momenta.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

SIGMA_1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


class DomainError(ValueError):
    """Raised when an argument leaves the validity region of a formula."""


def refuse_booleans(what, value):
    """Raise DomainError on a boolean in a config value or nested in its lists and objects.

    float() and int() read true and false as 1 and 0, so a boolean would
    otherwise pass as a number.
    """
    if isinstance(value, dict):
        for key, item in value.items():
            refuse_booleans(f"{what}.{key}", item)
    elif isinstance(value, (list, tuple)):
        for item in value:
            refuse_booleans(what, item)
    elif isinstance(value, bool):
        raise DomainError(f"{what} must hold numbers, not booleans")


@dataclass(frozen=True)
class DiracRep:
    """Concrete hermitian representation of the Clifford relations.

    alphas holds the spatial matrices alpha_1..alpha_d; alpha0 is the mass
    matrix.
    """

    dim: int
    dstar: int
    alpha0: np.ndarray
    alphas: tuple
    # the alphas as the rows of one (dim, dstar^2) matrix, for alpha_dot's one product
    _rows: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rows = np.array([a.ravel() for a in self.alphas], dtype=complex)
        rows.setflags(write=False)
        object.__setattr__(self, "_rows", rows)

    def alpha_dot(self, vec):
        """Contraction sum_j alpha_j vec_j for a (possibly complex) vector.

        One product of vec with the alphas, stacked once per representation.
        Every alpha entry is 0, +-1 or +-i, and no two alphas have a nonzero
        real part, or a nonzero imaginary part, at the same entry.  So each
        component of the result sums at most two nonzero exact terms and
        exact zeros, which no summation order changes, and the product
        equals the sum 0 + vec_1 alpha_1 + ... + vec_d alpha_d in index order
        bit for bit.
        """
        vec = np.asarray(vec, dtype=complex)
        if vec.shape != (self.dim,):
            raise DomainError(f"expected a vector of length {self.dim}, got shape {vec.shape}")
        return (vec @ self._rows).reshape(self.dstar, self.dstar)


def _freeze(mat):
    mat = np.asarray(mat, dtype=complex)
    mat.setflags(write=False)
    return mat


def build_dirac_rep(d):
    """Construct the representation in dimension d >= 1.

    d = 1, 2 are seeded by the Pauli triple, d = 3 is the standard 4x4
    representation, and higher dimensions extend a two-lower representation
    by alpha_j -> sigma_1 (x) alpha_j with sigma_2 (x) I, sigma_3 (x) I
    filling the two new slots.
    """
    if not isinstance(d, (int, np.integer)) or d < 1:
        raise DomainError(f"dimension must be a positive integer, got {d!r}")
    if d == 1:
        alphas = [SIGMA_1]
        alpha0 = SIGMA_3
    elif d == 2:
        alphas = [SIGMA_1, SIGMA_2]
        alpha0 = SIGMA_3
    elif d == 3:
        zero = np.zeros((2, 2), dtype=complex)
        eye = np.eye(2, dtype=complex)
        alphas = [np.block([[zero, s], [s, zero]]) for s in (SIGMA_1, SIGMA_2, SIGMA_3)]
        alpha0 = np.block([[eye, zero], [zero, -eye]])
    else:
        inner = build_dirac_rep(d - 2)
        eye = np.eye(inner.dstar, dtype=complex)
        alphas = [np.kron(SIGMA_1, a) for a in inner.alphas]
        alphas.append(np.kron(SIGMA_1, inner.alpha0))
        alphas.append(np.kron(SIGMA_2, eye))
        alpha0 = np.kron(SIGMA_3, eye)
    return DiracRep(
        dim=d,
        dstar=alpha0.shape[0],
        alpha0=_freeze(alpha0),
        alphas=tuple(_freeze(a) for a in alphas),
    )


def negate_rep(rep):
    """Representation with every matrix negated (still a valid one).

    Used by the sign reduction for positive potentials: negating the
    operator flips all alphas and the potential at once.
    """
    alphas = tuple(_freeze(-a) for a in rep.alphas)
    return DiracRep(rep.dim, rep.dstar, _freeze(-rep.alpha0), alphas)


def clifford_residual(rep):
    """Largest violation of hermiticity and the anticommutation relations."""
    mats = [rep.alpha0, *rep.alphas]
    eye = np.eye(rep.dstar)
    res = max(np.max(np.abs(m - m.conj().T)) for m in mats)
    for i, a in enumerate(mats):
        for j, b in enumerate(mats):
            anti = a @ b + b @ a
            target = 2.0 * eye if i == j else 0.0
            res = max(res, np.max(np.abs(anti - target)))
    return float(res)


def principal_sqrt(z):
    """Principal square root with the slit on (-inf, 0], Re > 0 off the slit."""
    z = complex(z)
    if z.imag == 0.0 and z.real <= 0.0:
        raise DomainError(f"principal_sqrt undefined on the slit (-inf, 0], got {z}")
    return complex(np.sqrt(z))


def lambda_branches(zeta, v):
    """Eigenvalue pair (+sqrt(1+zeta^2) + v, -sqrt(1+zeta^2) + v)."""
    zeta = np.asarray(zeta, dtype=complex)
    root = principal_sqrt(1.0 + np.sum(zeta * zeta))
    return root + v, -root + v


def dirac_symbol(rep, zeta, v):
    """Symbol matrix alpha . zeta + alpha_0 + v I."""
    return rep.alpha_dot(zeta) + rep.alpha0 + v * np.eye(rep.dstar)


@dataclass(frozen=True)
class Projector:
    """Spectral projection pair of the symbol at momentum zeta."""

    s_matrix: np.ndarray
    lambda_plus: np.ndarray
    lambda_minus: np.ndarray


def projector(rep, zeta):
    """Projections Lambda_pm(zeta) = (I +/- S(zeta))/2, |Im zeta| < 1.

    S(zeta) = (alpha . zeta + alpha_0)/sqrt(1 + zeta^2) squares to the
    identity; the branch separation requires |Im zeta| < 1.
    """
    zeta = np.atleast_1d(np.asarray(zeta, dtype=complex))
    if zeta.shape != (rep.dim,):
        raise DomainError(f"momentum must have length {rep.dim}, got shape {zeta.shape}")
    im = float(np.linalg.norm(zeta.imag))
    if im >= 1.0:
        raise DomainError(f"projector requires |Im zeta| < 1, got {im}")
    root = principal_sqrt(1.0 + np.sum(zeta * zeta))
    s = (rep.alpha_dot(zeta) + rep.alpha0) / root
    eye = np.eye(rep.dstar)
    return Projector(
        s_matrix=_freeze(s),
        lambda_plus=_freeze(0.5 * (eye + s)),
        lambda_minus=_freeze(0.5 * (eye - s)),
    )
