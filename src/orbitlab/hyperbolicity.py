"""Distance of a linear operator's action from the unit circle.

For a real square matrix L the quantity of interest is

    gamma(L) = min over phases phi in [0, 1) of sigma_min(L - e^{2 pi i phi} I),

the smallest distance between L v and a unit-circle rotation of a unit vector.
gamma(L) = 0 exactly when L has an eigenvalue on the unit circle; for a normal
matrix it equals the spectral gap min_j ||lambda_j| - 1|.

gamma is computed by a level-set test (Byers, SIAM J. Sci. Stat. Comput. 9,
1988).  For k x k L, a number d >= 0 is a singular value of L - zI with
|z| = 1 exactly when z is a unit-modulus eigenvalue of the 2k x 2k pencil
A - zB,

    A = [[L, -d I], [0, I]],    B = [[I, 0], [-d I, L^T]],

so the phases where the profile phi -> sigma_min(L - e^{2 pi i phi} I)
crosses the level d are eigenvalue phases of one generalized eigenproblem,
solved by QZ (safe for singular L).  The criss-cross iteration of Boyd &
Balakrishnan (Systems & Control Letters 15, 1990) lowers d to the profile's
value at the midpoint of each arc between consecutive crossings until no
midpoint lowers it; it converges quadratically to the global minimum.  The
profile of a real L is even in the phase, so only the arcs in [0, pi] are
evaluated.  One more pencil test at a level below the result certifies it:
no unit-modulus eigenvalue at level lo means the profile stays above lo at
every phase.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .dynamics import OrbitSegment, _as_square, _check_map, cocycle
from .errors import InvalidInputError, _real

__all__ = [
    "HyperbolicityValue",
    "gamma_linear",
    "is_gamma_hyperbolic",
    "orbit_hyperbolicity",
]

_EPS = float(np.finfo(float).eps)
_TWO_PI = 2.0 * math.pi
_MAX_SWEEPS = 50  # criss-cross sweeps; a handful suffice in practice


@functools.cache
def _ggev():
    # resolved on first use, since importing scipy.linalg is most of `import orbitlab`'s time
    from scipy.linalg import get_lapack_funcs

    return get_lapack_funcs("ggev", dtype=np.float64)


@dataclass(frozen=True)
class HyperbolicityValue:
    """gamma value, the phase achieving it, and the certified bracket width:
    the true infimum lies in [gamma - certified_tolerance, gamma]."""

    gamma: float
    argmin_phase: float
    certified_tolerance: float


def _sigma_min(L: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """sigma_min(L - e^{i theta} I) at each angle theta, in one batched SVD."""
    stack = L - np.exp(1j * angles)[:, None, None] * np.eye(L.shape[0])
    return np.linalg.svd(stack, compute_uv=False)[:, -1]


def _crossings(L: np.ndarray, d: float, norm: float):
    """Sorted angles in [0, pi] at which sigma_min(L - e^{i theta} I) = d:
    the unit-modulus eigenvalues of the level-d pencil.  None when QZ fails.
    L is real, so the profile is even in the phase, and the real pencil's
    complex eigenvalues come in exactly conjugate pairs, of which the one
    with nonnegative imaginary part gives the angle |arg z|.

    QZ is backward stable: the computed eigenvalues are exact for a pencil
    within about 2k eps ||(A, B)|| of the given one, and ||(A, B)|| is at most
    1 + d + ||L||.  A perturbation of size eta moves a simple eigenvalue by
    eta times its condition number, but below a minimum of the profile the
    eigenvalues nearest the circle are a nearly double pair z, 1/conj(z),
    which moves by about sqrt(eta).  So an eigenvalue counts as unit-modulus
    within sqrt(2k eps (1 + d + ||L||_F)), about 1e-7 for a 4 x 4 L of norm 3.
    A fixed 1e-6 is too wide: on random matrices it kept pairs that sat 9e-7
    off the circle at 1e-10 below gamma; with this tolerance every such pair
    on 200 random matrices of size 2-5 lay at least 11 tolerances off."""
    k = L.shape[0]
    i = np.arange(k)
    A, B = np.zeros((2 * k, 2 * k)), np.zeros((2 * k, 2 * k))
    A[:k, :k], A[i, k + i], A[k + i, k + i] = L, -d, 1.0
    B[i, i], B[k + i, i], B[k:, k:] = 1.0, -d, L.T
    ar, ai, beta, _, _, _, info = _ggev()(A, B, compute_vl=0, compute_vr=0, overwrite_a=1, overwrite_b=1)
    if info != 0:
        return None
    with np.errstate(divide="ignore", invalid="ignore"):
        z = (ar + 1j * ai) / beta  # infinite (or nan) where B is singular
    on = np.abs(np.abs(z) - 1.0) <= math.sqrt(2 * k * _EPS * (1.0 + d + norm))
    return np.sort(np.abs(np.angle(z[on & (ai >= 0.0)])))  # one of each pair


def gamma_linear(matrix, refine_tol: float = 1e-10) -> HyperbolicityValue:
    """Compute gamma(L) by the criss-cross iteration on the level-set pencil.

    d starts at the smallest sigma_min(L - zI) over z at the phases of L's
    eigenvalues and at z = 1 and z = -1.  Each sweep finds the phases where
    the profile crosses d, adds the phase where d was attained (a crossing
    the pencil misses when the profile only touches d there), evaluates the
    profile at the midpoint of every arc between consecutive crossings in
    one batched SVD, and lowers d to the smallest value found; it stops when
    no midpoint lowers d.  L is real, so the profile is even in the phase:
    the sweep works on the crossings folded into [0, pi] and evaluates each
    arc and its mirror image once.  An arc that spans 0 or pi has its
    midpoint there, where the start already put the profile at or above d,
    so it is not evaluated again.  The phase reported lies in [0, 1/2].  d
    is an attained value of the profile, so it bounds gamma from above.
    The certificate is one more pencil test at lo = d - delta, starting
    from delta = refine_tol: no unit-modulus eigenvalue there puts gamma in
    [lo, d]; otherwise delta grows tenfold until none is left, or until lo
    reaches 0.
    `certified_tolerance` is d - lo.  1x1 matrices are solved in closed form:
    gamma = ||lambda| - 1|.
    """
    L = _as_square(matrix)
    _real(refine_tol, "refine_tol", gt=0)
    if L.shape[0] == 1:
        lam = float(L[0, 0])
        gamma = abs(abs(lam) - 1.0)
        phase = 0.0 if lam >= 0.0 else 0.5
        return HyperbolicityValue(gamma=gamma, argmin_phase=phase, certified_tolerance=0.0)

    norm = float(np.linalg.norm(L))
    # the profile is even in the phase, so phases in [0, pi] suffice
    lam = np.linalg.eigvals(L)
    angles = np.append(np.angle(lam[lam.imag > 0.0]), (0.0, math.pi))
    s = _sigma_min(L, angles)
    j = int(np.argmin(s))
    d, theta = float(s[j]), float(angles[j])
    for _ in range(_MAX_SWEEPS):
        cross = _crossings(L, d, norm) if d > 0.0 else None
        if cross is None:
            break
        # theta is on the level set by construction; QZ drops it when the
        # profile only touches d there (a local maximum between two dips)
        cross = np.sort(np.append(cross, theta))
        # an arc that spans 0 or pi has its midpoint there, where the start
        # put the profile at or above d: only the arcs inside (0, pi), of
        # positive length, can lower d
        mids = ((cross[:-1] + cross[1:]) / 2.0)[cross[:-1] < cross[1:]]
        if not mids.size:
            break
        s = _sigma_min(L, mids)
        j = int(np.argmin(s))
        if not s[j] < d:
            break
        d, theta = float(s[j]), float(mids[j])

    delta = refine_tol
    while d - delta > 0.0:
        cross = _crossings(L, d - delta, norm)
        if cross is not None and cross.size == 0:
            break
        delta *= 10.0
    lo = max(d - delta, 0.0)
    return HyperbolicityValue(gamma=d, argmin_phase=theta / _TWO_PI, certified_tolerance=d - lo)


def is_gamma_hyperbolic(matrix, gamma: float, refine_tol: float = 1e-10) -> bool:
    """True when the computed distance to the unit circle is at least `gamma`.

    The computed value overestimates the truth by at most the certified
    tolerance, so for a sound claim at the boundary compare against
    ``value.gamma - value.certified_tolerance`` yourself.
    """
    _real(gamma, "gamma", ge=0)
    return gamma_linear(matrix, refine_tol).gamma >= gamma


def orbit_hyperbolicity(f, orb: OrbitSegment, refine_tol: float = 1e-10) -> HyperbolicityValue:
    """gamma of the Jacobian cocycle along a finite orbit of f."""
    _check_map(f, "orbit_hyperbolicity")
    if not isinstance(orb, OrbitSegment):  # its Jacobians are needed, not only its points
        raise InvalidInputError(f"orbit_hyperbolicity needs an OrbitSegment, got {type(orb).__name__}")
    if orb.dim != f.dim:
        raise InvalidInputError("orbit dimension does not match the map")
    edge = f.domain_radius * (1.0 + 1e-9)
    norms = np.linalg.norm(orb.points, axis=1)
    if np.any(norms > edge):
        raise InvalidInputError("orbit leaves the domain of the map")
    return gamma_linear(cocycle(orb), refine_tol)
