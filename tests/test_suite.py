"""The identity suite against the public operators, and its transform count;
the Poincare family rows against a wrong eigenvalue."""

import dataclasses

import numpy as np
import pytest

from rieszgrad import fracops as fo
from rieszgrad import inequalities as iq
from rieszgrad import suite
from rieszgrad.grid import GridSpec, ScalarField, lp_norm, make_grid, remove_mean

S_VALUES = (0.25, 0.5, 0.75)


def public_residuals(u, v, s):
    """Worst relative residual of each operator identity on one sample pair,
    written with the public operators only: the oracle of identity_checks,
    which shares transforms and symbols on the half-spectrum layer."""
    g = u.grid
    n = g.spec.n
    hn = g.h**n
    out = {}
    um = remove_mean(u)
    gr = fo.riesz_gradient(um, s)

    # integration by parts: <grad^s u, V> = -<u, div^s V>
    V = fo.riesz_gradient(v, s)
    lhs = hn * sum(
        float(np.sum(gr.components[j].values * V.components[j].values))
        for j in range(n)
    )
    dv = fo.fractional_divergence(V, s)
    rhs = -hn * float(np.sum(um.values * dv.values))
    scale = lp_norm(gr, 2) * lp_norm(V, 2) + lp_norm(um, 2) * lp_norm(dv, 2)
    out["integration_by_parts"] = abs(lhs - rhs) / (scale if scale else 1.0)

    # fundamental theorem of calculus (mean-zero): u = I_s(R . grad^s u)
    acc = None
    for j in range(n):
        t = fo.riesz_transform(gr.components[j], j)
        acc = t if acc is None else acc + t
    rec = fo.riesz_potential(acc, s)
    out["fundamental_theorem"] = lp_norm(rec - um, 2) / lp_norm(um, 2)

    # commutation: grad^s u = D(I_{1-s} u) = I_{1-s}(D u)
    route1 = fo.spectral_gradient(fo.riesz_potential(um, 1.0 - s))
    route2 = tuple(
        fo.riesz_potential(c, 1.0 - s) for c in fo.spectral_gradient(um).components
    )
    den = max(lp_norm(gr.components[j], 2) for j in range(n))
    comm = max(
        max(lp_norm(gr.components[j] - route1.components[j], 2) for j in range(n)),
        max(lp_norm(gr.components[j] - route2[j], 2) for j in range(n)),
    )
    out["gradient_of_potential"] = comm / den

    # bessel inverse: Lambda_s Lambda_{-s} = id
    br = fo.bessel_potential(fo.bessel_potential(u, s), -s)
    out["bessel_roundtrip"] = lp_norm(br - u, 2) / lp_norm(u, 2)

    # -div^s grad^s = (-Lap)^s
    dg = fo.fractional_divergence(fo.riesz_gradient(u, s), s)
    lap = fo.fractional_laplacian(u, 2.0 * s)
    out["div_grad_laplacian"] = lp_norm(dg + lap, 2) / lp_norm(lap, 2)

    # space equivalence construction: u = Lambda_s(G_s(id + sum R_j d_j^s) u)
    acc = u
    for j in range(n):
        dju = fo.apply_multiplier(u, "riesz_gradient", s, component=j)
        acc = acc + fo.riesz_transform(dju, j)
    rec2 = fo.bessel_potential(fo.gs_multiplier(acc, s), s)
    out["bessel_reconstruction"] = lp_norm(rec2 - u, 2) / lp_norm(u, 2)

    # Riesz potential semigroup on mean-zero fields: I_a I_b = I_{a+b}
    a, b = 0.3 * s, 0.5 * s
    two = fo.riesz_potential(fo.riesz_potential(um, a), b)
    one = fo.riesz_potential(um, a + b)
    out["potential_semigroup"] = lp_norm(two - one, 2) / lp_norm(one, 2)
    return out


@pytest.mark.parametrize("n,N", [(1, 32), (2, 32), (3, 16)])
def test_residuals_equal_public_operators(n, N):
    count, seed = 2, 0
    grid = make_grid(GridSpec(n=n, N=N, L=1.0))
    fam = iq.bump_family(grid, count, seed=seed)
    fam_v = iq.bump_family(grid, count, seed=seed + 1)
    worst = {}
    for u, v in zip(fam, fam_v):
        for s in S_VALUES:
            for name, r in public_residuals(u, v, s).items():
                worst[name] = max(worst.get(name, 0.0), r)
    got = {r.name: r.observed
           for r in suite.identity_checks(n, N, S_VALUES, count=count, seed=seed)}
    assert got == {f"identity[{k}] n={n} N={N}": r for k, r in worst.items()}


@pytest.mark.parametrize("s_values,transforms", [((0.5,), 61), (S_VALUES, 157)])
def test_transform_count(monkeypatch, s_values, transforms):
    """One 3D pair: 4 transforms build the two bump families, 9 the pair's
    shared spectra, and 48 each s (the public operators take 72)."""
    calls = []

    def counted(fn):
        def wrapper(*args):
            calls.append(fn.__name__)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(fo, "_rfft", counted(fo._rfft))
    monkeypatch.setattr(fo, "_irfft", counted(fo._irfft))
    suite.identity_checks(3, 16, s_values, count=1)
    assert len(calls) == transforms


def family_ratio(grid, mask, fam, p, constant):
    """Worst ||u||_p / (C ||grad^(1/2) u||_p) over the family's interior fields."""
    worst = 0.0
    for u in fam:
        ui = ScalarField(grid, np.where(mask, u.values, 0.0))
        worst = max(worst, lp_norm(ui, p) / (lp_norm(fo.riesz_gradient(ui, 0.5), p) * constant))
    return worst


def test_family_rows_catch_a_wrong_eigenvalue(monkeypatch):
    """An eigenvalue 100 times too large, with the constant still raised to
    the maximum over the estimate's own family: the rows, which test
    lambda^(-1/p) on an unseen family, fail; the same comparison against the
    constant on the estimate's family cannot."""
    real = iq.poincare_constant
    seen = []

    def inflated(grid, mask, s, p=2.0, **kwargs):
        est = real(grid, mask, s, p, **kwargs)
        fam = iq._interior_family(grid, mask, kwargs.get("seed", 0))
        lam = 100.0 * est.eigenvalue
        constant = max(lam ** (-1.0 / p), 1.0 / family_ratio(grid, mask, fam, p, 1.0))
        seen.append((grid, mask, fam, p, constant))
        return dataclasses.replace(est, eigenvalue=lam, constant=constant)

    monkeypatch.setattr(iq, "poincare_constant", inflated)
    rows = {r.name: r for r in suite.poincare_check(seed=0)}
    for name in ("poincare_family_inequality", "poincare_p3_family_inequality"):
        assert not rows[name].passed
    assert len(seen) == 2
    for grid, mask, fam, p, constant in seen:
        assert family_ratio(grid, mask, fam, p, constant) <= 1.0 + 1e-8
