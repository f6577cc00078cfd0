"""Grid, field, transform, bump, and norm tests."""

import math
import struct

import numpy as np
import pytest

from rieszgrad.grid import (
    GridSpec,
    ScalarField,
    SpectralField,
    VectorField,
    bump,
    field_to_csv,
    forward_transform,
    inverse_transform,
    lp_norm,
    make_grid,
    read_field,
    remove_mean,
    sample,
    write_field,
)
from rieszgrad.weights import tabulated_weight


class TestGridSpec:
    def test_basic_1d(self):
        g = make_grid(GridSpec(n=1, N=8, L=1.0))
        freq = np.fft.fftfreq(8, d=g.h)
        assert sorted(freq.tolist()) == [-4, -3, -2, -1, 0, 1, 2, 3]

    def test_spacing(self):
        spec = GridSpec(n=2, N=16, L=2.0)
        assert spec.h == 0.125
        g = make_grid(spec)
        assert g.coords()[0].size == 256

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            GridSpec(n=1, N=7, L=1.0)

    def test_rejects_small_N(self):
        with pytest.raises(ValueError, match="power of two"):
            GridSpec(n=1, N=4, L=1.0)

    def test_rejects_bad_L(self):
        with pytest.raises(ValueError, match="positive"):
            GridSpec(n=1, N=8, L=0.0)

    @pytest.mark.parametrize("L", [math.inf, math.nan])
    def test_rejects_non_finite_L(self, L):
        with pytest.raises(ValueError, match="finite"):
            GridSpec(n=1, N=8, L=L)

    @pytest.mark.parametrize("origin", [(math.nan,), (0.0, math.inf)])
    def test_rejects_non_finite_origin(self, origin):
        with pytest.raises(ValueError, match="origin entries must be finite"):
            GridSpec(n=len(origin), N=8, L=1.0, origin=origin)

    def test_rejects_bad_dim(self):
        with pytest.raises(ValueError, match="dimension"):
            GridSpec(n=4, N=8, L=1.0)

    @pytest.mark.parametrize("n,N", [(True, 8), (1, 8.0), (1.0, 8), (1, True),
                                     (np.float64(2.0), 16)])
    def test_rejects_non_integral_n_and_N(self, n, N):
        with pytest.raises(ValueError, match="must be an integer"):
            GridSpec(n=n, N=N, L=1.0)

    def test_numpy_integers_accepted(self):
        spec = GridSpec(n=np.int64(2), N=np.int32(16), L=1.0)
        assert (type(spec.n), type(spec.N)) == (int, int)
        assert spec == GridSpec(n=2, N=16, L=1.0)

    def test_grids_of_one_spec_hash_alike(self):
        spec = GridSpec(n=2, N=16, L=1.0, origin=(0.5, 0.0))
        a, b = make_grid(spec), make_grid(spec)
        assert a is not b and len({a, b}) == 1
        assert len({a, make_grid(GridSpec(n=2, N=16, L=1.0))}) == 2
        assert repr(a) == f"Grid({spec!r})"

    def test_origin_default_and_length(self):
        assert GridSpec(n=2, N=8, L=1.0).origin == (0.0, 0.0)
        with pytest.raises(ValueError, match="origin"):
            GridSpec(n=2, N=8, L=1.0, origin=(1.0,))


class TestFields:
    def test_scalar_rejects_nan(self):
        g = make_grid(GridSpec(n=1, N=8, L=1.0))
        vals = np.zeros(8)
        vals[3] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            ScalarField(g, vals)

    def test_values_immutable(self):
        g = make_grid(GridSpec(n=1, N=8, L=1.0))
        u = ScalarField(g, np.ones(8))
        with pytest.raises(ValueError):
            u.values[0] = 2.0

    @pytest.mark.parametrize("cls, dtype", [(ScalarField, float), (SpectralField, complex)])
    def test_public_constructor_copies_and_checks(self, cls, dtype):
        # operator outputs skip the copy and the scan; user input never does
        g = make_grid(GridSpec(n=2, N=8, L=1.0))
        src = np.ones((8, 8), dtype=dtype)
        field = cls(g, src)
        stored = field.values if cls is ScalarField else field.coefficients
        src[2, 3] = 5.0
        assert stored[2, 3] == 1.0 and not np.shares_memory(stored, src)
        assert not stored.flags.writeable
        for bad in (np.nan, np.inf, -np.inf):
            vals = np.ones((8, 8), dtype=dtype)
            vals[1, 4] = bad
            with pytest.raises(ValueError, match="NaN or Inf"):
                cls(g, vals)
        with pytest.raises(ValueError, match="shape"):
            cls(g, np.ones((8, 4), dtype=dtype))

    def test_vector_component_count(self):
        g = make_grid(GridSpec(n=2, N=8, L=1.0))
        u = ScalarField(g, np.ones((8, 8)))
        with pytest.raises(ValueError, match="components"):
            VectorField(g, (u,))

    def test_arithmetic(self):
        g = make_grid(GridSpec(n=1, N=8, L=1.0))
        u = ScalarField(g, np.arange(8.0))
        v = 2.0 * u - u
        assert np.allclose(v.values, u.values)


class TestSample:
    def test_zero(self):
        g = make_grid(GridSpec(n=1, N=16, L=1.0))
        u = sample(lambda x: 0.0 * x, g)
        assert np.all(u.values == 0.0)

    def test_sinusoid_two_modes(self):
        g = make_grid(GridSpec(n=1, N=32, L=1.0))
        u = sample(lambda x: np.sin(2 * np.pi * x), g)
        F = forward_transform(u).coefficients
        nonzero = np.abs(F) > 1e-12
        assert nonzero.sum() == 2
        assert nonzero[1] and nonzero[-1]

    def test_singularity_names_coordinate(self):
        g = make_grid(GridSpec(n=1, N=8, L=1.0))
        with pytest.raises(ValueError, match="not finite at x"):
            sample(lambda x: 1.0 / x, g)


class TestTransforms:
    def test_constant_field(self):
        g = make_grid(GridSpec(n=1, N=16, L=2.0))
        u = ScalarField(g, 3.0 * np.ones(16))
        F = forward_transform(u).coefficients
        # only the zero mode, equal to the integral 3 * L
        assert abs(F[0] - 6.0) < 1e-12
        assert np.max(np.abs(F[1:])) < 1e-12

    def test_sin_coefficients(self):
        g = make_grid(GridSpec(n=1, N=64, L=1.0))
        u = sample(lambda x: np.sin(2 * np.pi * x), g)
        F = forward_transform(u).coefficients
        assert abs(F[1] - (-0.5j)) < 1e-13
        assert abs(F[-1] - 0.5j) < 1e-13

    def test_roundtrip_random(self):
        rng = np.random.default_rng(0)
        for spec in (GridSpec(n=1, N=64, L=1.0),
                     GridSpec(n=2, N=16, L=2.0, origin=(-1.0, 0.5))):
            g = make_grid(spec)
            for _ in range(50):
                u = ScalarField(g, rng.standard_normal(spec.shape))
                v = inverse_transform(forward_transform(u))
                err = np.max(np.abs(v.values - u.values)) / np.max(np.abs(u.values))
                assert err <= 1e-12

    def test_parseval(self):
        rng = np.random.default_rng(1)
        g = make_grid(GridSpec(n=2, N=16, L=1.5))
        for _ in range(20):
            u = ScalarField(g, rng.standard_normal(g.spec.shape))
            F = forward_transform(u)
            phys = g.h**2 * np.sum(u.values**2)
            spec = np.sum(np.abs(F.coefficients) ** 2) / g.spec.L**2
            assert abs(phys - spec) / phys <= 1e-10

    @pytest.mark.parametrize("origin", [(0.0, 0.0), (-1.0, 0.5)])
    def test_forward_output_wrap_matches_public_constructor(self, origin):
        g = make_grid(GridSpec(n=2, N=16, L=2.0, origin=origin))
        u = ScalarField(g, np.random.default_rng(2).standard_normal(g.spec.shape))
        F = forward_transform(u)
        freq = np.fft.fftfreq(g.spec.N, d=g.h)
        phase = np.exp(-2j * np.pi * np.add.outer(origin[0] * freq, origin[1] * freq))
        ref = SpectralField(g, np.fft.fftn(u.values) * g.h**2 * phase)
        err = np.max(np.abs(F.coefficients - ref.coefficients))
        assert err <= 1e-14 * np.max(np.abs(ref.coefficients))
        assert F.coefficients.dtype == np.complex128
        assert not F.coefficients.flags.writeable
        assert not np.shares_memory(F.coefficients, u.values)

    def test_imag_residue_rejected(self):
        g = make_grid(GridSpec(n=1, N=8, L=1.0))
        C = np.zeros(8, dtype=complex)
        C[1] = 1.0  # no conjugate partner
        with pytest.raises(ValueError, match="imaginary residue"):
            inverse_transform(SpectralField(g, C))


class TestBump:
    def test_center_value(self):
        g = make_grid(GridSpec(n=1, N=64, L=1.0))
        u = bump(g, [0.5], 0.125, sharpness=2.0)
        i = np.argmin(np.abs(g.axes[0] - 0.5))
        assert abs(u.values[i] - np.exp(-2.0)) < 1e-12

    def test_zero_outside_ball(self):
        g = make_grid(GridSpec(n=2, N=32, L=1.0))
        u = bump(g, [0.5, 0.5], 0.2)
        X, Y = g.coords()
        outside = (X - 0.5) ** 2 + (Y - 0.5) ** 2 >= 0.2**2
        assert np.all(u.values[outside] == 0.0)
        assert np.all(u.values[~outside] > 0.0)

    def test_positive_mass(self):
        g = make_grid(GridSpec(n=1, N=64, L=1.0))
        u = bump(g, [0.5], 0.2)
        assert g.h * np.sum(u.values) > 0.0

    @pytest.mark.parametrize("center,radius,sharpness", [
        ([math.nan], 0.1, 1.0), ([math.inf], 0.1, 1.0),
        ([0.5], math.nan, 1.0), ([0.5], math.inf, 1.0),
        ([0.5], 0.1, math.nan), ([0.5], 0.1, math.inf),
        ([0.5], 0.1, 0.0), ([0.5], 0.1, -1.0),
    ])
    def test_non_finite_or_non_positive_inputs_refused(self, center, radius, sharpness):
        # each of these gave an all-zero field
        g = make_grid(GridSpec(n=1, N=64, L=1.0))
        with pytest.raises(ValueError, match="finite center and a positive, finite"):
            bump(g, center, radius, sharpness)

    def test_margin_enforced(self):
        g = make_grid(GridSpec(n=1, N=64, L=1.0))
        with pytest.raises(ValueError, match="margin"):
            bump(g, [0.3], 0.2)

    @pytest.mark.parametrize("n,N", [(1, 64), (2, 32), (3, 16)])
    def test_matches_meshgrid_formula(self, n, N):
        # |x - c|^2 summed in axis order over the meshgrid arrays, bitwise
        g = make_grid(GridSpec(n=n, N=N, L=2.0, origin=(-0.5,) * n))
        center, radius = [0.4 + 0.1 * d for d in range(n)], 0.3
        r2 = sum((x - c) ** 2 for x, c in zip(g.coords(), center)) / radius**2
        want = np.zeros(g.spec.shape)
        want[r2 < 1.0] = np.exp(-1.5 / (1.0 - r2[r2 < 1.0]))
        assert np.array_equal(bump(g, center, radius, 1.5).values, want)


class TestLpNorm:
    def test_zero(self):
        g = make_grid(GridSpec(n=1, N=16, L=1.0))
        assert lp_norm(ScalarField(g, np.zeros(16)), 2) == 0.0

    def test_constant(self):
        g = make_grid(GridSpec(n=2, N=16, L=2.0))
        u = ScalarField(g, np.ones((16, 16)))
        for p in (1.5, 2.0, 3.0):
            assert abs(lp_norm(u, p) - 4.0 ** (1.0 / p)) < 1e-12

    def test_sin_l2(self):
        g = make_grid(GridSpec(n=1, N=128, L=1.0))
        u = sample(lambda x: np.sin(2 * np.pi * x), g)
        assert abs(lp_norm(u, 2) - 1.0 / np.sqrt(2.0)) < 1e-12

    def test_homogeneity(self):
        rng = np.random.default_rng(2)
        g = make_grid(GridSpec(n=1, N=64, L=1.0))
        u = ScalarField(g, rng.standard_normal(64))
        for alpha in (-2.5, 0.1, 7.0):
            lhs = lp_norm(alpha * u, 2.7)
            rhs = abs(alpha) * lp_norm(u, 2.7)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, rhs)

    def test_vector_magnitude(self):
        g = make_grid(GridSpec(n=2, N=16, L=1.0))
        one = ScalarField(g, np.ones((16, 16)))
        v = VectorField(g, (one, one))
        # |v| = sqrt(2) everywhere, box volume 1
        assert abs(lp_norm(v, 2) - np.sqrt(2.0)) < 1e-12

    def test_weight_argument(self):
        g = make_grid(GridSpec(n=1, N=64, L=1.0))
        u = ScalarField(g, np.ones(64))
        w = np.full(64, 4.0)
        assert abs(lp_norm(u, 2, w) - 2.0) < 1e-12

    def test_rejects_p_one(self):
        g = make_grid(GridSpec(n=1, N=16, L=1.0))
        with pytest.raises(ValueError, match="p must exceed 1"):
            lp_norm(ScalarField(g, np.ones(16)), 1.0)

    def test_rejects_infinite_p(self):
        # the max norm is not this sum's limit: p = inf read 1.0 for every
        # field, here a bump whose maximum is exp(-1) = 0.37
        g = make_grid(GridSpec(n=1, N=64, L=1.0))
        u = bump(g, [0.5], 0.25)
        assert abs(np.max(u.values) - math.exp(-1.0)) < 1e-12
        with pytest.raises(ValueError, match="p must be finite, got inf"):
            lp_norm(u, math.inf)

    def test_rejects_weight_array_of_another_shape(self):
        # a 1D weight would broadcast along the rows of a 2D field
        g = make_grid(GridSpec(n=2, N=64, L=1.0))
        u = ScalarField(g, np.ones((64, 64)))
        with pytest.raises(ValueError, match="shape"):
            lp_norm(u, 2, np.full(64, 4.0))

    @pytest.mark.parametrize("spec", [GridSpec(n=1, N=64, L=3.0), GridSpec(n=2, N=64, L=1.0)])
    def test_rejects_weight_on_another_grid(self, spec):
        w = tabulated_weight(make_grid(GridSpec(n=1, N=64, L=1.0)), np.full(64, 4.0), 2.0)
        g = make_grid(spec)
        with pytest.raises(ValueError, match="different grid"):
            lp_norm(ScalarField(g, np.ones(g.spec.shape)), 2, w)


class TestSerialization:
    def test_binary_roundtrip(self, tmp_path):
        rng = np.random.default_rng(3)
        g = make_grid(GridSpec(n=2, N=16, L=2.0, origin=(-1.0, 0.0)))
        u = ScalarField(g, rng.standard_normal((16, 16)))
        path = tmp_path / "field.bin"
        write_field(u, path)
        v = read_field(path)
        assert v.grid.spec == g.spec
        assert np.array_equal(v.values, u.values)

    def test_csv_columns(self, tmp_path):
        g = make_grid(GridSpec(n=1, N=8, L=1.0))
        u = ScalarField(g, np.arange(8.0))
        path = tmp_path / "field.csv"
        field_to_csv(u, path)
        header = path.read_text().splitlines()[0]
        assert header == "x1,value"

    def test_truncated_payload_rejected(self, tmp_path):
        g = make_grid(GridSpec(n=1, N=8, L=1.0))
        u = ScalarField(g, np.arange(8.0))
        path = tmp_path / "field.bin"
        write_field(u, path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValueError, match="payload"):
            read_field(path)

    @pytest.mark.parametrize("size", [0, 3, 16, 23, 24, 32])
    def test_truncated_header_rejected(self, tmp_path, size):
        # header: n, N, L (24 bytes), then 8 bytes per origin entry
        g = make_grid(GridSpec(n=2, N=8, L=1.0))
        path = tmp_path / "field.bin"
        write_field(ScalarField(g, np.zeros((8, 8))), path)
        path.write_bytes(path.read_bytes()[:size])
        with pytest.raises(ValueError, match="field header is cut short"):
            read_field(path)

    @pytest.mark.parametrize("n", [-1, 0, 4, 2**40])
    def test_header_dimension_rejected(self, tmp_path, n):
        path = tmp_path / "field.bin"
        path.write_bytes(struct.pack("<qqd", n, 8, 1.0) + bytes(64))
        with pytest.raises(ValueError, match=f"dimension n = {n}"):
            read_field(path)


def test_remove_mean():
    g = make_grid(GridSpec(n=1, N=32, L=1.0))
    u = ScalarField(g, np.arange(32.0))
    assert abs(remove_mean(u).mean()) < 1e-13


#: two 1D grids and a 2D one, and unit fields on them
G8 = make_grid(GridSpec(n=1, N=8, L=1.0))
G16 = make_grid(GridSpec(n=1, N=16, L=1.0))
G2D = make_grid(GridSpec(n=2, N=8, L=1.0))
ONE8, ONE16 = ScalarField(G8, np.ones(8)), ScalarField(G16, np.ones(16))


@pytest.mark.parametrize("call,match", [
    pytest.param(lambda: ONE8 + ONE16, "fields live on different grids", id="add"),
    pytest.param(lambda: ONE8 - ONE16, "fields live on different grids", id="sub"),
    pytest.param(lambda: VectorField(G2D, (
        ScalarField(G2D, np.ones((8, 8))),
        ScalarField(make_grid(GridSpec(n=2, N=8, L=2.0)), np.ones((8, 8))))),
                 "components live on different grids", id="vector components"),
    pytest.param(lambda: bump(G2D, [0.5], 0.2), "center must have 2 entries", id="bump center"),
])
def test_refusals(call, match):
    with pytest.raises(ValueError, match=match):
        call()
