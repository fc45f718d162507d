"""Transport-law checks: tensor algebra, primitives, production sign, gates."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsflab import transport


def test_sym_and_traceless_hand_case():
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert np.allclose(transport.sym_part(a), [[0.0, 0.5], [0.5, 0.0]])
    assert np.allclose(transport.traceless_sym(a), [[0.0, 0.5], [0.5, 0.0]])
    b = np.array([[2.0, 0.0], [0.0, 0.0]])
    assert np.allclose(transport.traceless_sym(b), [[1.0, 0.0], [0.0, -1.0]])


@given(st.integers(1, 2), st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_traceless_sym_properties(d, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(5, d, d))
    t0 = transport.traceless_sym(a)
    assert np.allclose(np.trace(t0, axis1=-2, axis2=-1), 0.0, atol=1e-12)
    assert np.allclose(t0, np.swapaxes(t0, -1, -2))
    # orthogonal decomposition: D(A) = D0(A) + tr/d I reconstructs
    tr = np.trace(a, axis1=-2, axis2=-1)
    recon = t0 + tr[..., None, None] / d * np.eye(d)
    assert np.allclose(recon, transport.sym_part(a))


def test_viscous_stress_hand_case():
    model = transport.PowerKappa(mu0=1.0, mu1=0.0, lambda0=0.7, lambda1=0.0, kappa1=1.0, kappa2=0.0)
    grad_u = np.array([[0.0, 1.0], [1.0, 0.0]])  # symmetric, traceless
    S = transport.viscous_stress(model, 1.0, 1.0, grad_u)
    assert np.allclose(S, [[0.0, 1.0], [1.0, 0.0]])
    grad_u = np.array([[2.0, 0.0], [0.0, 2.0]])  # pure dilation, tr = 4
    S = transport.viscous_stress(model, 1.0, 1.0, grad_u)
    assert np.allclose(S, 0.7 * 4.0 * np.eye(2))


@given(st.integers(1, 2), st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_entropy_production_nonnegative(d, seed):
    rng = np.random.default_rng(seed)
    model = transport.AffineTheta(c_mu=0.2, c_lambda=0.3, kappa0=0.1)
    du = transport.sym_part(rng.normal(size=(8, d, d)))
    dth = rng.normal(size=(8, d))
    theta = np.exp(rng.uniform(-2, 2, size=8))
    sigma = transport.entropy_production_density(model, 1.0, theta, du, dth)
    assert np.all(sigma >= -1e-13)


def test_entropy_production_orthogonal_split():
    # S(D):D = mu|D0|^2 + lam (tr D)^2 exactly
    model = transport.PowerKappa(mu0=2.0, mu1=0.0, lambda0=0.5, lambda1=0.0, kappa1=1.0, kappa2=0.0)
    rng = np.random.default_rng(4)
    du = transport.sym_part(rng.normal(size=(10, 2, 2)))
    theta = np.ones(10)
    sigma = transport.entropy_production_density(model, 1.0, theta, du, np.zeros((10, 2)))
    d0 = transport.traceless_sym(du)
    tr = np.trace(du, axis1=-2, axis2=-1)
    expect = 2.0 * np.sum(d0 * d0, axis=(-2, -1)) + 0.5 * tr**2
    assert np.allclose(sigma, expect, rtol=1e-13)


def test_bounded_general_is_validator_only():
    env = transport.BoundedGeneral()
    for law in ("mu", "dmu_dtheta", "dlam_dtheta", "dkappa_dtheta"):
        with pytest.raises(TypeError, match="envelope validator"):
            getattr(env, law)(1.0, 1.0)


@pytest.mark.parametrize("model", [transport.AffineTheta(c_mu=0.2, c_lambda=0.3, kappa0=0.1),
                                   transport.PowerKappa(mu1=0.2, lambda1=0.3, kappa2=0.4, beta=1.5)],
                         ids=["affine_theta", "power_kappa"])
def test_theta_derivatives_match_finite_differences(model):
    theta = np.linspace(0.2, 3.0, 15)
    h = 1e-6
    for law in ("mu", "lam", "kappa"):
        fd = (getattr(model, law)(1.0, theta + h) - getattr(model, law)(1.0, theta - h)) / (2 * h)
        exact = getattr(model, f"d{law}_dtheta")(1.0, theta)
        assert exact.shape == theta.shape
        assert np.max(np.abs(exact - fd)) < 1e-8, law


def test_coefficient_validation():
    with pytest.raises(ValueError):
        transport.AffineTheta(c_mu=0.0)
    with pytest.raises(ValueError):
        transport.PowerKappa(kappa1=0.0)
    with pytest.raises(ValueError):
        transport.PowerKappa(mu1=-0.1)


@pytest.mark.parametrize("d", [1, 2])
@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_stress_column_is_the_full_tensors_column_bit_for_bit(d, seed):
    # rhs differences this column instead of the full tensor's, so every
    # bit must agree; one in three gradient entries is a zero of either sign
    rng = np.random.default_rng(seed)
    grad = rng.standard_normal((5, 3, d, d))
    grad[rng.integers(0, 3, grad.shape) == 0] = 0.0
    grad *= rng.choice([-1.0, 1.0], grad.shape)
    theta = np.exp(rng.uniform(-1.0, 1.0, (5, 3)))
    model = transport.PowerKappa()
    full = transport.viscous_stress(model, None, theta, grad)
    for axis in range(d):
        normal = np.moveaxis(grad[..., :, axis], -1, 0)
        tangential = np.moveaxis(grad[..., :, 1 - axis], -1, 0) if d == 2 else None
        col = transport.viscous_stress_column(model, None, theta, normal, tangential, axis)
        assert col.tobytes() == np.ascontiguousarray(np.moveaxis(full[..., :, axis], -1, 0)).tobytes()
