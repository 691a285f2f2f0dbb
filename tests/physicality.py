"""Physicality checks on the package's own results, kept on the test side.

The detected pair is a passive beam splitter plus loss acting on a pure
Gaussian input, so it is physical by construction and the production
path does not re-check it.  These helpers pin that property with the
slacks the production checks once used.
"""
import numpy as np

# symplectic form of two modes, J = [[0, 1], [-1, 0]] on each (x, y) pair
OMEGA = np.kron(np.eye(2), [[0.0, 1.0], [-1.0, 0.0]])


def obeys_uncertainty_principle(cov: np.ndarray) -> bool:
    """Whether every covariance of a stack (..., 4, 4) satisfies
    V + i Omega / 2 >= 0 (Simon, Mukunda and Dutta, PRA 49, 1567 (1994)).

    That holds exactly where the real form [[V, -Omega/2], [Omega/2, V]]
    is positive semi-definite: one Cholesky factorization over the
    stack, with V shifted by 1e-10 (1 + max|V|) so that pure states,
    with an exact zero eigenvalue, pass."""
    scale = 1.0 + np.max(np.abs(cov), axis=(-2, -1))
    shifted = cov + np.expand_dims(1e-10 * scale, (-2, -1)) * np.eye(4)
    real_form = np.empty(cov.shape[:-2] + (8, 8))
    real_form[..., :4, :4] = real_form[..., 4:, 4:] = shifted
    real_form[..., :4, 4:], real_form[..., 4:, :4] = -0.5 * OMEGA, 0.5 * OMEGA
    try:
        np.linalg.cholesky(real_form)
    except np.linalg.LinAlgError:
        return False
    return True


def violated_second_moments(var_1, var_2, cov) -> list[str]:
    """The bounds a float or a stack of second moments breaks: a variance
    below -1e-10 (1 + |var_1| + |var_2|), or a covariance above the
    Cauchy-Schwarz bound sqrt(var_1 var_2) (1 + 1e-10) + 1e-12 of that
    scale, in any member."""
    scale = 1.0 + np.abs(var_1) + np.abs(var_2)
    broken = []
    if np.any((var_1 < -1e-10 * scale) | (var_2 < -1e-10 * scale)):
        broken.append(f"negative variance: {var_1}, {var_2}")
    bound = np.sqrt(np.maximum(var_1, 0.0) * np.maximum(var_2, 0.0))
    if np.any(np.abs(cov) > bound * (1.0 + 1e-10) + 1e-12 * scale):
        broken.append(f"covariance {cov} above sqrt(var_1 var_2) = {bound}")
    return broken
