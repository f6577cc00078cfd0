"""Fractional operator tests: symbols, multipliers, PV oracle, constants."""

import math

import mpmath as mp
import numpy as np
import pytest

from rieszgrad.grid import (
    GridSpec,
    ScalarField,
    VectorField,
    bump,
    lp_norm,
    make_grid,
    remove_mean,
    sample,
)
from rieszgrad import fracops as fo
from rieszgrad.inequalities import band_limit, bump_family


def grid1(N=128, L=1.0):
    return make_grid(GridSpec(n=1, N=N, L=L))


class TestSymbol:
    def test_bessel_at_zero(self):
        for s in (-1.3, 0.5, 2.0):
            assert fo.symbol("bessel_potential", [0.0], s) == 1.0

    def test_gradient_value(self):
        # 2 pi i / (2 pi)^{1/2} = i (2 pi)^{1/2}
        val = fo.symbol("riesz_gradient", [1.0], 0.5, component=0)
        assert abs(val - 1j * np.sqrt(2 * np.pi)) < 1e-14

    def test_gradient_vector_form(self):
        v = fo.symbol("riesz_gradient", [1.0, 0.0], 0.5)
        assert v.shape == (2,)
        assert abs(v[1]) == 0.0

    def test_ts_value(self):
        # (2 pi)^s / (1 + 4 pi^2)^(s/2) at xi = 1, s = 1/2
        expected = np.sqrt(2 * np.pi) / (1 + 4 * np.pi**2) ** 0.25
        assert abs(fo.symbol("T_s", [1.0], 0.5) - expected) < 1e-14

    def test_gs_at_zero(self):
        assert fo.symbol("G_s", [0.0], 0.5) == 1.0

    def test_homogeneous_vanish_at_zero(self):
        for kind in ("riesz_potential", "fractional_laplacian", "T_s"):
            assert fo.symbol(kind, [0.0, 0.0], 0.5) == 0.0
        assert fo.symbol("riesz_transform", [0.0], 0.0, component=0) == 0.0

    def test_order_range_errors(self):
        with pytest.raises(ValueError, match="order in"):
            fo.symbol("riesz_gradient", [1.0], 1.5, component=0)
        with pytest.raises(ValueError, match="riesz_potential"):
            fo.symbol("riesz_potential", [1.0], 1.5)  # n = 1 caps sigma
        with pytest.raises(ValueError, match="fractional_laplacian"):
            fo.symbol("fractional_laplacian", [1.0], 2.5)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown"):
            fo.symbol("nope", [1.0], 0.5)

    def test_unknown_kind_refused_by_apply_multiplier(self):
        u = ScalarField(grid1(16), np.ones(16))
        with pytest.raises(ValueError, match="unknown multiplier kind 'nope'"):
            fo.apply_multiplier(u, "nope", 0.5)

    def test_riesz_potential_domain_follows_n(self):
        g = make_grid(GridSpec(n=2, N=16, L=1.0))
        u = ScalarField(g, np.random.default_rng(5).standard_normal((16, 16)))
        assert fo.symbol("riesz_potential", [1.0, 0.0], 1.5) == (2 * np.pi) ** -1.5
        fo.riesz_potential(u, 1.5)
        with pytest.raises(ValueError, match=r"riesz_potential needs order in \(0, 2\)"):
            fo.symbol("riesz_potential", [1.0, 0.0], 2.5)
        with pytest.raises(ValueError, match=r"riesz_potential needs order in \(0, 2\)"):
            fo.riesz_potential(u, 2.5)


class TestMultipliers:
    def test_laplacian_on_sine(self):
        g = grid1()
        u = sample(lambda x: np.sin(2 * np.pi * x), g)
        for sigma in (0.5, 1.0, 1.5):
            v = fo.fractional_laplacian(u, sigma)
            expected = (2 * np.pi) ** sigma * u.values
            assert np.max(np.abs(v.values - expected)) < 1e-10

    def test_bessel_roundtrip(self):
        rng = np.random.default_rng(0)
        g = grid1()
        u = ScalarField(g, rng.standard_normal(128))
        for sigma in (0.3, 1.0):
            v = fo.bessel_potential(fo.bessel_potential(u, sigma), -sigma)
            assert lp_norm(v - u, 2) / lp_norm(u, 2) <= 1e-11
        # large orders widen the spectral dynamic range: the roundoff floor is
        # eps * <xi_Nyquist>^sigma, about 3e-10 here
        ub = bump(g, [0.5], 0.2)
        v = fo.bessel_potential(fo.bessel_potential(ub, 2.5), -2.5)
        assert lp_norm(v - ub, 2) / lp_norm(ub, 2) <= 1e-9

    def test_riesz_transform_of_sine(self):
        g = grid1()
        u = sample(lambda x: np.sin(2 * np.pi * x), g)
        v = fo.riesz_transform(u, 0)
        expected = -np.cos(2 * np.pi * g.axes[0])
        assert np.max(np.abs(v.values - expected)) < 1e-12


class TestRieszGradient:
    def test_constant_maps_to_zero(self):
        g = grid1()
        u = ScalarField(g, np.full(128, 2.5))
        v = fo.riesz_gradient(u, 0.5)
        assert np.max(np.abs(v.components[0].values)) < 1e-14

    def test_sine(self):
        g = grid1()
        u = sample(lambda x: np.sin(2 * np.pi * x), g)
        for s in (0.25, 0.5, 0.75):
            v = fo.riesz_gradient(u, s).components[0]
            expected = (2 * np.pi) ** s * np.cos(2 * np.pi * g.axes[0])
            assert np.max(np.abs(v.values - expected)) < 1e-11

    def test_limit_to_classical_gradient(self):
        g = grid1(N=256)
        u = band_limit(bump(g, [0.5], 0.2), fraction=0.1)
        classical = fo.spectral_gradient(u).components[0]
        v = fo.riesz_gradient(u, 0.999).components[0]
        rel = lp_norm(v - classical, 2) / lp_norm(classical, 2)
        assert rel < 1e-2

    def test_order_validation(self):
        g = grid1()
        u = ScalarField(g, np.ones(128))
        with pytest.raises(ValueError, match="s in"):
            fo.riesz_gradient(u, 1.2)


class TestDivergence:
    def test_constant_vector(self):
        g = make_grid(GridSpec(n=2, N=16, L=1.0))
        one = ScalarField(g, np.ones((16, 16)))
        v = VectorField(g, (one, 2.0 * one))
        d = fo.fractional_divergence(v, 0.5)
        assert np.max(np.abs(d.values)) < 1e-14

    def test_div_grad_is_laplacian_on_sine(self):
        g = grid1()
        u = sample(lambda x: np.sin(2 * np.pi * x), g)
        for s in (0.25, 0.6):
            d = fo.fractional_divergence(fo.riesz_gradient(u, s), s)
            expected = -((2 * np.pi) ** (2 * s)) * u.values
            assert np.max(np.abs(d.values - expected)) < 1e-10

    def test_symbol_product_matches_two_applications(self):
        # div^s(grad^s u) via two applications vs the composite symbol
        rng = np.random.default_rng(1)
        g = make_grid(GridSpec(n=2, N=32, L=1.0))
        u = ScalarField(g, rng.standard_normal((32, 32)))
        s = 0.5
        two = fo.fractional_divergence(fo.riesz_gradient(u, s), s)
        syms = [
            fo.lattice_symbol(g, "riesz_gradient", s, component=j) for j in range(2)
        ]
        composite = sum(m * m for m in syms)
        F = np.fft.fftn(u.values) * g.h**2
        direct = np.fft.ifftn(composite * F) / g.h**2
        assert np.max(np.abs(two.values - direct.real)) <= 1e-11 * np.max(
            np.abs(two.values)
        )

    @pytest.mark.parametrize("s", [0.0, 1.0, -0.5, 1.5])
    def test_order_outside_unit_interval_refused(self, s):
        g = grid1()
        v = VectorField(g, (ScalarField(g, np.ones(128)),))
        with pytest.raises(ValueError, match=rf"fractional_divergence needs s in \(0, 1\), got {s}"):
            fo.fractional_divergence(v, s)


#: (kind, order) for every multiplier kind, orders valid in n = 1, 2, 3
HALF_SPECTRUM_CASES = (
    ("riesz_gradient", 0.4),
    ("fractional_divergence", 0.65),
    ("riesz_potential", 0.7),
    ("bessel_potential", -0.8),
    ("fractional_laplacian", 1.2),
    ("riesz_transform", 0.0),
    ("T_s", 0.3),
    ("G_s", 0.6),
    ("derivative", 0.0),
)
COMPONENT_KINDS = {"riesz_gradient", "fractional_divergence", "riesz_transform", "derivative"}


def _complex_reference(g, kind, order, u, component=None):
    """The full-lattice complex route, kept only as a test reference."""
    return np.fft.ifftn(
        fo.lattice_symbol(g, kind, order, component) * np.fft.fftn(u)
    ).real


def _rel_err(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


class TestHalfSpectrumLayer:
    """Operators on the real half spectrum against the complex route."""

    @staticmethod
    def _grid(n, N):
        origin = (0.3, -1.1, 2.5)[:n]
        return make_grid(GridSpec(n=n, N=N, L=1.7, origin=origin))

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("N", [8, 16])
    def test_every_kind_matches_complex_route(self, n, N):
        g = self._grid(n, N)
        assert {kind for kind, _ in HALF_SPECTRUM_CASES} == set(fo.MULTIPLIER_KINDS)
        u = ScalarField(g, np.random.default_rng(n * N).standard_normal(g.spec.shape))
        for kind, order in HALF_SPECTRUM_CASES:
            comps = range(n) if kind in COMPONENT_KINDS else [None]
            for j in comps:
                got = fo.apply_multiplier(u, kind, order, component=j).values
                ref = _complex_reference(g, kind, order, u.values, j)
                assert _rel_err(got, ref) <= 1e-13, (kind, j)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("N", [8, 16])
    def test_gradients_and_divergences(self, n, N):
        g = self._grid(n, N)
        rng = np.random.default_rng(10 + n * N)
        u = ScalarField(g, rng.standard_normal(g.spec.shape))
        v = VectorField(g, tuple(
            ScalarField(g, rng.standard_normal(g.spec.shape)) for _ in range(n)
        ))
        s = 0.35
        routes = (
            (fo.riesz_gradient(u, s), fo.fractional_divergence(v, s), "riesz_gradient", s),
            (fo.spectral_gradient(u), fo.spectral_divergence(v), "derivative", 0.0),
        )
        for grad, div, kind, order in routes:
            for j in range(n):
                ref = _complex_reference(g, kind, order, u.values, j)
                assert _rel_err(grad.components[j].values, ref) <= 1e-13
            ref = np.fft.ifftn(sum(
                fo.lattice_symbol(g, kind, order, j) * np.fft.fftn(c.values)
                for j, c in enumerate(v.components)
            )).real
            assert _rel_err(div.values, ref) <= 1e-13

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("N", [8, 16])
    def test_raw_operator_kit(self, n, N):
        g = self._grid(n, N)
        rng = np.random.default_rng(20 + n * N)
        u = rng.standard_normal(g.spec.shape)
        a = rng.uniform(0.5, 2.0, g.spec.shape)
        s = 0.6
        ops = fo._RieszOps(g, s)
        grad = ops.grad(u)
        for j in range(n):
            ref = _complex_reference(g, "riesz_gradient", s, u, j)
            assert _rel_err(grad[j], ref) <= 1e-13
        ref = -np.fft.ifftn(sum(
            fo.lattice_symbol(g, "riesz_gradient", s, j)
            * np.fft.fftn(a * _complex_reference(g, "riesz_gradient", s, u, j))
            for j in range(n)
        )).real
        assert _rel_err(ops.elliptic(a, u), ref) <= 1e-13
        ref = _complex_reference(g, "fractional_laplacian", 2 * s, u)
        assert _rel_err(ops.multiply(ops.lap_sym, u), ref) <= 1e-13
        z = fo.lattice_symbol(g, "riesz_potential", s) * np.fft.fftn(u)
        ref = np.sqrt(np.sum(np.abs(z) ** 2) / g.spec.L**n)
        assert abs(ops.dual_norm(u) - ref) <= 1e-13 * ref

    @pytest.mark.parametrize("n,N", [(1, 8), (1, 16), (1, 256), (2, 64), (3, 16)])
    def test_transforms_match_nd_route(self, n, N):
        # the per-axis passes run in rfftn's and irfftn's order: bitwise equal
        g = self._grid(n, N)
        axes = tuple(range(n))
        u = np.random.default_rng(N).standard_normal(g.spec.shape)
        F = fo._rfft(g, u)
        np.testing.assert_array_equal(F, np.fft.rfftn(u, axes=axes))
        # a generic half spectrum, whose self-mirrored entries are not real
        G = F + 1j * np.random.default_rng(N + 1).standard_normal(F.shape)
        ref = np.fft.irfftn(G, s=g.spec.shape, axes=axes)
        back = fo._irfft(g, G)
        assert back.shape == g.spec.shape
        np.testing.assert_array_equal(back, ref)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_operators_leave_inputs_unchanged(self, n):
        # the inverse transform overwrites its argument; no caller may hand
        # it an array someone else still holds
        g = self._grid(n, 8)
        rng = np.random.default_rng(40 + n)
        u, a, r = (rng.standard_normal(g.spec.shape) for _ in range(3))
        vec = [rng.standard_normal(g.spec.shape) for _ in range(n)]
        uf = ScalarField(g, u)
        vf = VectorField(g, tuple(ScalarField(g, c) for c in vec))
        ops = fo._RieszOps(g, 0.4)
        held = [u, a, r, *vec, uf.values, *(c.values for c in vf.components),
                ops.lap_sym, *ops.grad_syms]
        before = [x.copy() for x in held]
        fo.riesz_gradient(uf, 0.4)
        fo.fractional_divergence(vf, 0.4)
        fo.apply_multiplier(uf, "riesz_potential", 0.5)
        band_limit(uf)
        ops.grad(u)
        ops.div(vec)
        ops.elliptic(a, u)
        ops.multiply(ops.lap_sym, u)
        ops.dual_norm(r)
        for x, y in zip(held, before):
            np.testing.assert_array_equal(x, y)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_lattice_symbols_match_closed_forms(self, n):
        # the formulas on |xi| with the zero frequency masked out: even
        # symbols evaluate the same floating-point expression, odd ones
        # share one radial factor and may differ in rounding
        g = self._grid(n, 16)
        xi = np.meshgrid(*[np.fft.fftfreq(16, d=g.h)] * n, indexing="ij")
        norm = np.sqrt(sum(x * x for x in xi))
        zero = norm == 0.0
        r = 2 * np.pi * np.where(zero, 1.0, norm)
        even = {
            "riesz_potential": lambda o: r ** (-o),
            "bessel_potential": lambda o: (1.0 + r**2) ** (-o / 2.0),
            "fractional_laplacian": lambda o: r**o,
            "T_s": lambda o: r**o / (1.0 + r**2) ** (o / 2.0),
            "G_s": lambda o: (1.0 + r**2) ** (o / 2.0) / (1.0 + r**o),
        }
        odd = {
            "riesz_gradient": lambda o, x: 1j * 2 * np.pi * x / r ** (1.0 - o),
            "fractional_divergence": lambda o, x: 1j * 2 * np.pi * x / r ** (1.0 - o),
            "riesz_transform": lambda o, x: -1j * x / np.where(zero, 1.0, norm),
            "derivative": lambda o, x: 1j * 2 * np.pi * x,
        }
        assert set(even) | set(odd) == set(fo.MULTIPLIER_KINDS)
        for kind, order in HALF_SPECTRUM_CASES:
            if kind in even:
                fill = 1.0 if kind in ("bessel_potential", "G_s") else 0.0
                ref = np.where(zero, fill, even[kind](order))
                assert np.array_equal(fo.lattice_symbol(g, kind, order), ref), kind
                continue
            for j in range(n):
                ref = np.where(zero, 0.0, odd[kind](order, xi[j]))
                ref[(slice(None),) * j + (8,)] = 0.0
                assert _rel_err(fo.lattice_symbol(g, kind, order, j), ref) <= 1e-14, kind

    @pytest.mark.parametrize("N", [8, 16])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_lattice_symbols_conjugate_symmetric(self, n, N):
        # m(-xi) = conj(m(xi)) exactly, also on columns 0 and N/2, which the
        # conjugate extension copies from the half lattice
        g = self._grid(n, N)
        minus = np.ix_(*[(-np.arange(N)) % N] * n)
        for kind, order in HALF_SPECTRUM_CASES:
            comps = range(n) if kind in COMPONENT_KINDS else [None]
            for j in comps:
                m = fo.lattice_symbol(g, kind, order, j)
                assert np.array_equal(m[minus], np.conj(m)), (kind, j)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_half_symbol_is_full_symbol_restricted(self, n):
        N = 16
        g = self._grid(n, N)
        # rfftfreq ends at +N/(2L) where fftfreq has -N/(2L)
        assert g.half_xi[-1].ravel()[-1] == pytest.approx(N / (2 * g.spec.L), rel=1e-14)
        for kind, order in HALF_SPECTRUM_CASES:
            comps = range(n) if kind in COMPONENT_KINDS else [None]
            for j in comps:
                half = fo._symbol(g, kind, order, j)
                full_half = fo.lattice_symbol(g, kind, order, j)[..., : N // 2 + 1]
                # a constant radial factor gives an axis vector that broadcasts
                half = np.broadcast_to(half, full_half.shape)
                assert np.array_equal(half, full_half), (kind, j)
                if j == n - 1:
                    # odd symbols vanish on the last axis's Nyquist column
                    assert np.all(half[..., N // 2] == 0.0), kind

    @staticmethod
    def _full_derivative_symbols(g):
        """The derivative symbols as full half-lattice arrays, written out
        from the lattice: 2 pi i xi_j everywhere, 0 at the origin and on
        axis j's Nyquist plane."""
        n, N = g.spec.n, g.spec.N
        out = []
        for j in range(n):
            m = np.empty(g.half_wavenumber.shape, np.complex128)
            np.multiply(1j * g.half_xi[j], 2.0 * np.pi, out=m)
            m[(0,) * n] = 0.0
            m[(slice(None),) * j + (N // 2,)] = 0.0
            out.append(m)
        return out

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_derivative_symbols_are_axis_vectors(self, n):
        # a constant radial factor: extent 1 off the symbol's own axis
        N = 16
        g = self._grid(n, N)
        half = g.half_wavenumber.shape
        syms = fo._odd_symbols(g, "derivative", 0.0, range(n))
        for j, (m, full) in enumerate(zip(syms, self._full_derivative_symbols(g))):
            assert m.shape == tuple(half[d] if d == j else 1 for d in range(n))
            assert np.broadcast_to(m, half).tobytes() == full.tobytes(), j
            assert fo._symbol(g, "derivative", 0.0, j).shape == m.shape
        # a radial factor that varies keeps the full half lattice
        for m in fo._odd_symbols(g, "riesz_transform", 0.0, range(n)):
            assert m.shape == half

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_derivative_products_are_full_symbol_products(self, n):
        # bit for bit the products with the full-array symbols
        g = self._grid(n, 16)
        rng = np.random.default_rng(50 + n)
        u = ScalarField(g, rng.standard_normal(g.spec.shape))
        vec = [rng.standard_normal(g.spec.shape) for _ in range(n)]
        v = VectorField(g, tuple(ScalarField(g, c) for c in vec))
        full = self._full_derivative_symbols(g)
        Fu = fo._rfft(g, u.values)
        grad = fo.spectral_gradient(u)
        for j, m in enumerate(full):
            ref = fo._irfft(g, m * Fu).tobytes()
            assert grad.components[j].values.tobytes() == ref, j
            got = fo.apply_multiplier(u, "derivative", 0.0, component=j)
            assert got.values.tobytes() == ref, j
        acc = full[0] * fo._rfft(g, vec[0])
        for m, c in zip(full[1:], vec[1:]):
            acc += m * fo._rfft(g, c)
        ref = fo._irfft(g, acc).tobytes()
        assert fo.spectral_divergence(v).values.tobytes() == ref

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_pointwise_symbol_matches_half_lattice(self, n):
        # the same table entry, evaluated at one point and on the lattice;
        # numpy's scalar and array pow may round differently, so not bitwise
        N = 16 if n < 3 else 8
        g = self._grid(n, N)
        xi = [x.ravel() for x in g.half_xi]
        for kind, order in HALF_SPECTRUM_CASES:
            comps = range(n) if kind in COMPONENT_KINDS else [None]
            for j in comps:
                half = fo._symbol(g, kind, order, j)
                for idx in np.ndindex(half.shape):
                    if j is not None and idx[j] == N // 2:
                        continue  # the Nyquist plane, zeroed on the lattice only
                    got = fo.symbol(kind, [x[i] for x, i in zip(xi, idx)], order, j)
                    assert abs(got - half[idx]) <= 1e-15 * abs(half[idx]), (kind, j, idx)


#: public operators of fracops, each checked by TestOperatorOutputs
PUBLIC_OPERATORS = {
    "apply_multiplier", "riesz_gradient", "fractional_divergence",
    "riesz_potential", "bessel_potential", "fractional_laplacian",
    "riesz_transform", "ts_multiplier", "gs_multiplier",
    "spectral_gradient", "spectral_divergence",
}


class TestOperatorOutputs:
    """Operators wrap their fresh output arrays without the public
    constructor's copy and finiteness scan; the result must be what that
    constructor gives on the same raw array."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_no_copy_wrap_matches_public_constructor(self, n):
        g = make_grid(GridSpec(n=n, N=16, L=1.7, origin=(0.3, -1.1, 2.5)[:n]))
        rng = np.random.default_rng(40 + n)
        u = ScalarField(g, rng.standard_normal(g.spec.shape))
        v = VectorField(g, tuple(
            ScalarField(g, rng.standard_normal(g.spec.shape)) for _ in range(n)
        ))
        s = 0.45

        def syms(kind, order):
            return [fo._symbol(g, kind, order, j) for j in range(n)]

        def one(kind, order, j=None):
            return [fo._multiply(g, fo._symbol(g, kind, order, j), u.values)]

        vec = [c.values for c in v.components]
        # name -> (outputs, raw arrays of the same route, inputs)
        cases = {
            "riesz_gradient": (fo.riesz_gradient(u, s).components,
                               fo._grad(g, syms("riesz_gradient", s), u.values), [u]),
            "spectral_gradient": (fo.spectral_gradient(u).components,
                                  fo._grad(g, syms("derivative", 0.0), u.values), [u]),
            "fractional_divergence": ([fo.fractional_divergence(v, s)],
                                      [fo._div(g, syms("riesz_gradient", s), vec)],
                                      v.components),
            "spectral_divergence": ([fo.spectral_divergence(v)],
                                    [fo._div(g, syms("derivative", 0.0), vec)],
                                    v.components),
            "riesz_potential": ([fo.riesz_potential(u, 0.7)],
                                one("riesz_potential", 0.7), [u]),
            "bessel_potential": ([fo.bessel_potential(u, -0.8)],
                                 one("bessel_potential", -0.8), [u]),
            "fractional_laplacian": ([fo.fractional_laplacian(u, 1.2)],
                                     one("fractional_laplacian", 1.2), [u]),
            "riesz_transform": ([fo.riesz_transform(u, j) for j in range(n)],
                                [one("riesz_transform", 0.0, j)[0] for j in range(n)],
                                [u]),
            "ts_multiplier": ([fo.ts_multiplier(u, 0.3)], one("T_s", 0.3), [u]),
            "gs_multiplier": ([fo.gs_multiplier(u, 0.6)], one("G_s", 0.6), [u]),
            "apply_multiplier": ([fo.apply_multiplier(u, "derivative", 0.0, n - 1)],
                                 one("derivative", 0.0, n - 1), [u]),
        }
        assert set(cases) == PUBLIC_OPERATORS and PUBLIC_OPERATORS <= set(fo.__all__)
        for name, (outs, raws, inputs) in cases.items():
            assert len(outs) == len(raws), name
            for out, raw in zip(outs, raws):
                ref = ScalarField(g, raw)
                assert out.grid == g and out.values.dtype == np.float64, name
                assert _rel_err(out.values, ref.values) <= 1e-14, name
                assert not out.values.flags.writeable, name
                assert not any(np.shares_memory(out.values, x.values) for x in inputs), name
                with pytest.raises(ValueError):
                    out.values[(0,) * n] = 1.0


class TestPVQuadrature:
    def test_zero_field(self):
        g = grid1()
        u = ScalarField(g, np.zeros(128))
        v = fo.riesz_gradient_pv(u, 0.5)
        assert np.max(np.abs(v.components[0].values)) == 0.0

    def test_agreement_and_refinement(self):
        # window |x - c| <= R - 2 rho, where the truncated oracle is valid
        rho = 1.0 / 16.0
        for s in (0.25, 0.75):
            errs = {}
            for N in (128, 256):
                g = grid1(N=N)
                u = bump(g, [0.5], rho, 1.0)
                pv = fo.riesz_gradient_pv(u, s)
                sp = fo.riesz_gradient(u, s)
                win = np.abs(g.axes[0] - 0.5) <= 0.25 - 2 * rho
                d = pv.components[0].values - sp.components[0].values
                ref = sp.components[0].values
                errs[N] = np.sqrt(np.sum(d[win] ** 2) / np.sum(ref[win] ** 2))
            assert errs[256] <= 1e-2
            assert errs[128] / errs[256] >= 2.0

    @pytest.mark.parametrize("n", [2, 3])
    def test_one_dimensional_only(self, n):
        g = make_grid(GridSpec(n=n, N=16, L=1.0))
        u = bump(g, [0.5] * n, 0.2, 1.0)
        with pytest.raises(ValueError, match="one-dimensional.*Gaussian"):
            fo.riesz_gradient_pv(u, 0.5)

    def test_order_validation(self):
        u = bump(grid1(), [0.5], 0.1)
        for s in (0.0, 1.0):
            with pytest.raises(ValueError, match="s in \\(0, 1\\)"):
                fo.riesz_gradient_pv(u, s)


class TestConstants:
    def test_value_against_mpmath(self):
        mp.mp.dps = 40
        for n in (1, 2, 3):
            for s in (0.1, 0.5, 0.9):
                exact = mp.gamma((n + s + 1) / 2) / (
                    mp.pi ** (mp.mpf(n) / 2) * mp.mpf(2) ** (-s) * mp.gamma((1 - s) / 2)
                )
                got = fo.gradient_normalization(n, s)
                assert abs(got - float(exact)) <= 1e-14 * float(exact)
        assert abs(fo.gradient_normalization(1, 0.5) - 0.19947114020071635) < 1e-15

    def test_product_identity(self):
        # gamma_{n,1-s} c_{n,s} = n + s - 1 exactly (Gamma recurrence); the
        # displayed form with 1 - s in place of s - 1 is refuted by the same
        # closed forms it accompanies.
        for n in (1, 2, 3):
            for i in range(1, 100):
                s = i / 100.0
                prod = fo.gradient_normalization(n, s) * fo.riesz_normalization(
                    n, 1.0 - s
                )
                target = n + s - 1.0
                assert abs(prod - target) <= 1e-12 * abs(target)

    def test_gradient_constant_bounded(self):
        vals = [
            fo.gradient_normalization(n, s)
            for n in (1, 2, 3)
            for s in np.linspace(0.01, 0.99, 50)
        ]
        assert 0.0 < min(vals) and max(vals) < 10.0

    def test_pole_rejection(self):
        with pytest.raises(ValueError):
            fo.gradient_normalization(1, 1.0)
        with pytest.raises(ValueError):
            fo.riesz_normalization(1, 1.0)


class TestIdentities:
    """Property sweeps for the operator identities on seeded bumps."""

    @pytest.mark.parametrize("n,N", [(1, 128), (2, 32)])
    def test_integration_by_parts(self, n, N):
        g = make_grid(GridSpec(n=n, N=N, L=1.0))
        us = bump_family(g, 10, seed=0)
        vs = bump_family(g, 10, seed=1)
        for u, vb in zip(us, vs):
            V = VectorField(g, tuple(
                fo.riesz_transform(vb, j) for j in range(n)
            ))
            for s in (0.3, 0.7):
                gr = fo.riesz_gradient(u, s)
                dv = fo.fractional_divergence(V, s)
                hn = g.h**n
                lhs = hn * sum(
                    np.sum(gr.components[j].values * V.components[j].values)
                    for j in range(n)
                )
                rhs = -hn * np.sum(u.values * dv.values)
                scale = lp_norm(gr, 2) * lp_norm(V, 2) + lp_norm(u, 2) * lp_norm(dv, 2)
                assert abs(lhs - rhs) <= 1e-10 * scale

    def test_fundamental_theorem_mean_zero(self):
        g = grid1(N=256)
        for i, u in enumerate(bump_family(g, 5, seed=2)):
            um = remove_mean(u)
            for s in (0.25, 0.5, 0.75):
                gr = fo.riesz_gradient(um, s)
                acc = fo.riesz_transform(gr.components[0], 0)
                rec = fo.riesz_potential(acc, s)
                assert lp_norm(rec - um, 2) <= 1e-10 * lp_norm(um, 2)

    def test_gradient_commutation(self):
        g = grid1(N=256)
        u = remove_mean(bump_family(g, 1, seed=3)[0])
        for s in (0.25, 0.75):
            direct = fo.riesz_gradient(u, s).components[0]
            via1 = fo.spectral_gradient(fo.riesz_potential(u, 1 - s)).components[0]
            via2 = fo.riesz_potential(fo.spectral_gradient(u).components[0], 1 - s)
            assert lp_norm(direct - via1, 2) <= 1e-11 * lp_norm(direct, 2)
            assert lp_norm(direct - via2, 2) <= 1e-11 * lp_norm(direct, 2)

    def test_potential_semigroup(self):
        g = grid1(N=128)
        u = remove_mean(bump_family(g, 1, seed=4)[0])
        for a, b in ((0.2, 0.3), (0.1, 0.6)):
            two = fo.riesz_potential(fo.riesz_potential(u, a), b)
            one = fo.riesz_potential(u, a + b)
            assert lp_norm(two - one, 2) <= 1e-11 * lp_norm(one, 2)

    def test_bessel_reconstruction_closes(self):
        g = make_grid(GridSpec(n=2, N=64, L=1.0))
        u = bump_family(g, 2, seed=5)[0]
        for s in (0.25, 0.5, 0.75):
            acc = u
            for j in range(2):
                dju = fo.apply_multiplier(u, "riesz_gradient", s, component=j)
                acc = acc + fo.riesz_transform(dju, j)
            rec = fo.bessel_potential(fo.gs_multiplier(acc, s), s)
            assert lp_norm(rec - u, 2) <= 1e-10 * lp_norm(u, 2)


def test_nyquist_reality_convention():
    # a field with energy at the Nyquist mode still yields exactly real output
    g = grid1(N=16)
    vals = np.zeros(16)
    vals[::2] = 1.0
    vals[1::2] = -1.0  # pure Nyquist sawtooth
    u = ScalarField(g, vals)
    v = fo.riesz_gradient(u, 0.5).components[0]
    assert np.max(np.abs(v.values)) == 0.0  # odd symbol zeroed on that plane
    lap = fo.fractional_laplacian(u, 1.0)
    assert np.max(np.abs(lap.values)) > 0.0  # even symbol keeps it
