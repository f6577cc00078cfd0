"""Muckenhoupt weight and cube-family estimator tests."""

import math
import tracemalloc

import numpy as np
import pytest

from rieszgrad.grid import GridSpec, make_grid
from rieszgrad import weights as wt


def centered_grid(N=256, L=2.0):
    return make_grid(GridSpec(n=1, N=N, L=L, origin=(-L / 2,)))


def full_family(grid, levels, shifted=True):
    return wt.CubeFamily(
        lo=tuple(grid.spec.origin),
        size=grid.spec.L,
        level_min=0,
        level_max=levels,
        shifted=shifted,
    )


class TestConstructors:
    def test_alpha_zero_is_one(self):
        g = centered_grid()
        w = wt.power_weight(g, [0.0], 0.0, 2.0)
        assert np.all(w.values == 1.0)
        est = wt.ap_constant(w, 2.0, full_family(g, 4))
        assert abs(est.value - 1.0) < 1e-12

    def test_membership_flags(self):
        g = centered_grid()
        assert wt.power_weight(g, [0.0], 0.5, 2.0).in_class is True
        assert wt.power_weight(g, [0.0], 1.0, 2.0).in_class is False  # boundary
        assert wt.power_weight(g, [0.0], -1.0, 2.0).in_class is False

    def test_singularity_nudge(self):
        g = centered_grid(N=64)
        w = wt.power_weight(g, [0.0], -0.5, 2.0)
        assert np.all(np.isfinite(w.values))
        i0 = np.argmin(np.abs(g.axes[0]))
        assert abs(w.values[i0] - (g.h / 2.0) ** (-0.5)) < 1e-12

    @pytest.mark.parametrize("n,N", [(1, 64), (2, 32), (3, 16)])
    def test_power_matches_meshgrid_formula(self, n, N):
        # |x - x0|^2 summed in axis order over the meshgrid arrays, bitwise
        g = make_grid(GridSpec(n=n, N=N, L=2.0, origin=(-1.0,) * n))
        x0 = [0.25 * d for d in range(n)]
        dist = np.sqrt(sum((x - c) ** 2 for x, c in zip(g.coords(), x0)))
        dist[dist == 0.0] = g.h / 2.0
        assert np.array_equal(wt.power_weight(g, x0, -0.5, 2.0).values, dist**-0.5)

    def test_distance_point_set_matches_power(self):
        g = centered_grid(N=128)
        wp = wt.power_weight(g, [0.25], 0.5, 2.0)
        wd = wt.distance_weight(g, [[0.25]], 0.5, 2.0, manifold_dim=0)
        assert np.allclose(wp.values, wd.values)
        assert wd.in_class is True

    def test_distance_alpha_zero(self):
        g = centered_grid(N=64)
        wd = wt.distance_weight(g, [[0.0]], 0.0, 2.0)
        assert np.all(wd.values == 1.0)

    def test_distance_segment_2d_membership(self):
        g = make_grid(GridSpec(n=2, N=32, L=2.0, origin=(-1.0, -1.0)))
        seg = np.column_stack([np.linspace(-0.5, 0.5, 101), np.zeros(101)])
        wd = wt.distance_weight(g, seg, 0.5, 2.0, manifold_dim=1)
        # codimension n - k = 1: range is -1 < alpha < 1
        assert wd.in_class is True
        out = wt.distance_weight(g, seg, 1.5, 2.0, manifold_dim=1)
        assert out.in_class is False

    def test_distance_empty_set(self):
        g = centered_grid(N=64)
        with pytest.raises(ValueError, match="nonempty"):
            wt.distance_weight(g, np.zeros((0, 1)), 0.5, 2.0)

    @pytest.mark.parametrize("dim", [0.9, 1.0, True, "1", None])
    def test_distance_manifold_dim_must_be_an_integer(self, dim):
        # 0.9 once became 0, and the record and in_class used codimension n
        g = make_grid(GridSpec(n=2, N=16, L=2.0, origin=(-1.0, -1.0)))
        with pytest.raises(ValueError, match="manifold_dim must be an integer"):
            wt.distance_weight(g, [[0.0, 0.0]], 0.5, 2.0, manifold_dim=dim)
        wd = wt.distance_weight(g, [[0.0, 0.0]], 1.5, 2.0, manifold_dim=np.int64(1))
        assert wd.family["manifold_dim"] == 1 and type(wd.family["manifold_dim"]) is int
        assert wd.in_class is False  # codimension 1: -1 < alpha < 1

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_points_refused(self, bad):
        g = make_grid(GridSpec(n=2, N=16, L=2.0, origin=(-1.0, -1.0)))
        with pytest.raises(ValueError, match="points of M must be finite"):
            wt.distance_weight(g, [[0.0, 0.0], [0.5, bad]], 0.5, 2.0)
        with pytest.raises(ValueError, match="x0 must be finite"):
            wt.power_weight(g, [bad, 0.0], 0.5, 2.0)

    @pytest.mark.parametrize("alpha", [np.nan, np.inf, -np.inf])
    def test_non_finite_alpha_refused(self, alpha):
        # a NaN alpha was reported as non-finite weight values
        g = make_grid(GridSpec(n=2, N=16, L=2.0, origin=(-1.0, -1.0)))
        with pytest.raises(ValueError, match="alpha must be finite"):
            wt.power_weight(g, [0.0, 0.0], alpha, 2.0)
        with pytest.raises(ValueError, match="alpha must be finite"):
            wt.distance_weight(g, [[0.0, 0.0]], alpha, 2.0)

    def test_complex_values_refused(self):
        # the imaginary part was dropped with a ComplexWarning
        g = centered_grid(N=64)
        with pytest.raises(ValueError, match="must be real"):
            wt.tabulated_weight(g, np.ones(64) + 1j * np.ones(64), 2.0)
        with pytest.raises(ValueError, match="must be real"):
            wt.tabulated_weight(g, np.ones(64, dtype=complex), 2.0)

    def test_values_copied_or_owned(self):
        # the public constructor copies the caller's array; the built
        # weights own theirs; every weight's values are read-only
        g = centered_grid(N=64)
        a = np.linspace(1.0, 2.0, 64)
        w = wt.tabulated_weight(g, a, 2.0)
        a[:] = 5.0
        assert np.array_equal(w.values, np.linspace(1.0, 2.0, 64))
        built = wt.power_weight(g, [0.0], 0.5, 2.0)
        for v in (w, built, wt.distance_weight(g, [[0.25]], 0.5, 2.0), wt.dual_weight(built)):
            assert v.values.dtype == np.float64 and not v.values.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                v.values[0] = 1.0

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
    def test_own_checks_as_the_constructor(self, bad):
        g = centered_grid(N=64)
        vals = np.ones(64)
        vals[7] = bad
        with pytest.raises(ValueError, match="finite and strictly positive"):
            wt.Weight._own(g, vals, {"kind": "tabulated"}, 2.0, None)
        with pytest.raises(ValueError, match="p must be finite and exceed 1"):
            wt.Weight._own(g, np.ones(64), {"kind": "tabulated"}, 1.0, None)

    def test_weight_rejects_nonpositive(self):
        g = centered_grid(N=64)
        with pytest.raises(ValueError, match="strictly positive"):
            wt.tabulated_weight(g, np.zeros(64), 2.0)

    @pytest.mark.parametrize("p", [np.inf, np.nan])
    def test_non_finite_p_refused(self, p):
        # by Hoelder every A_p constant is at least 1; p = inf gave 0.99
        g = centered_grid(N=64)
        with pytest.raises(ValueError, match="p must be finite"):
            wt.power_weight(g, [0.0], 0.5, p)
        with pytest.raises(ValueError, match="p must be finite"):
            wt.tabulated_weight(g, np.ones(64), p)
        w = wt.tabulated_weight(g, np.ones(64), 2.0)
        with pytest.raises(ValueError, match="p must be finite"):
            wt.dual_weight(w, p)
        with pytest.raises(ValueError, match="p must be finite"):
            wt.ap_constant(w, p, full_family(g, 2))


class TestDualWeight:
    def test_constant(self):
        g = centered_grid(N=64)
        w = wt.tabulated_weight(g, np.ones(64), 2.0)
        assert np.all(wt.dual_weight(w, 2.0).values == 1.0)

    def test_power_half_p2(self):
        g = centered_grid(N=128)
        w = wt.power_weight(g, [0.0], 0.5, 2.0)
        ws = wt.dual_weight(w, 2.0)
        assert np.allclose(ws.values, w.values**-1.0)
        assert abs(ws.p - 2.0) < 1e-15

    def test_involution(self):
        g = centered_grid(N=128)
        w = wt.power_weight(g, [0.0], 0.5, 3.0)
        ws = wt.dual_weight(w, 3.0)
        back = wt.dual_weight(ws, 1.5)
        assert np.max(np.abs(back.values - w.values) / w.values) <= 1e-12


class TestApConstant:
    def test_constant_weight_every_family(self):
        g = centered_grid(N=128)
        w = wt.tabulated_weight(g, np.ones(128), 2.0)
        for levels in (0, 2, 4):
            est = wt.ap_constant(w, 2.0, full_family(g, levels))
            assert abs(est.value - 1.0) < 1e-13

    def test_power_half_closed_form(self):
        # supremum over origin-touching intervals: 1/(1 - alpha^2) = 4/3
        g = centered_grid(N=1024)
        w = wt.power_weight(g, [0.0], 0.5, 2.0)
        est = wt.ap_constant(w, 2.0, full_family(g, 7))
        assert abs(est.value - 4.0 / 3.0) <= 0.02 * 4.0 / 3.0

    def test_per_cube_holder_floor(self):
        # every single-cube family value is >= 1 (Jensen on the pair)
        rng = np.random.default_rng(0)
        g = centered_grid(N=128)
        w = wt.tabulated_weight(g, np.exp(rng.standard_normal(128)), 2.0)
        for _ in range(20):
            lo = rng.uniform(-1.0, 0.5)
            edge = rng.uniform(0.1, 1.0 - lo)
            fam = wt.CubeFamily(lo=(lo,), size=edge, level_min=0, level_max=0,
                                shifted=False)
            est = wt.ap_constant(w, 2.0, fam)
            assert est.value >= 1.0 - 1e-12

    def test_duality_relation_every_family(self):
        g = centered_grid(N=512)
        w = wt.power_weight(g, [0.0], 0.5, 2.0)
        for levels in (2, 4, 6):
            fam = full_family(g, levels)
            for p in (1.5, 2.0, 3.0):
                a = wt.ap_constant(w, p, fam).value
                ad = wt.ap_constant(wt.dual_weight(w, p), p / (p - 1.0), fam).value
                assert abs(ad - a ** (1.0 / (p - 1.0))) <= 1e-10 * ad

    def test_family_monotonicity(self):
        g = centered_grid(N=256)
        w = wt.power_weight(g, [0.0], 0.5, 2.0)
        prev = 0.0
        for levels in (0, 1, 2, 3, 4, 5):
            val = wt.ap_constant(w, 2.0, full_family(g, levels)).value
            assert val >= prev - 1e-14
            prev = val

    def test_nesting_in_p(self):
        g = centered_grid(N=256)
        w = wt.power_weight(g, [0.0], 0.5, 2.0)
        fam = full_family(g, 5)
        a2 = wt.ap_constant(w, 2.0, fam).value
        a3 = wt.ap_constant(w, 3.0, fam).value
        a4 = wt.ap_constant(w, 4.0, fam).value
        assert a4 <= a3 + 1e-12 and a3 <= a2 + 1e-12

    def test_in_range_stabilizes_out_of_range_diverges(self):
        # in-range alpha: < 1% change between the last two refinements;
        # alpha = 2 (out of range): grows by >= 2x per grid refinement
        vals_in, vals_out = [], []
        for N in (256, 512, 1024):
            g = centered_grid(N=N)
            lev = int(np.log2(N)) - 3
            fam = full_family(g, lev)
            vals_in.append(wt.ap_constant(
                wt.power_weight(g, [0.0], 0.5, 2.0), 2.0, fam).value)
            vals_out.append(wt.ap_constant(
                wt.power_weight(g, [0.0], 2.0, 2.0), 2.0, fam).value)
        assert abs(vals_in[-1] - vals_in[-2]) / vals_in[-1] < 0.01
        assert vals_out[-1] / vals_out[-2] >= 2.0
        assert vals_out[-2] / vals_out[-3] >= 2.0

    def test_boundary_alpha_grows_without_bound(self):
        # alpha = 1 at the A_2 boundary: the estimate keeps growing under
        # refinement (logarithmically; see the divergence-rate note)
        vals = []
        for N in (128, 256, 512, 1024):
            g = centered_grid(N=N)
            fam = full_family(g, int(np.log2(N)) - 3)
            vals.append(wt.ap_constant(
                wt.power_weight(g, [0.0], 1.0, 2.0), 2.0, fam).value)
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_empty_family_errors(self):
        g = centered_grid(N=64)
        w = wt.power_weight(g, [0.0], 0.5, 2.0)
        fam = wt.CubeFamily(lo=(10.0,), size=0.5)
        with pytest.raises(ValueError):
            wt.ap_constant(w, 2.0, fam)

    def test_cube_wider_than_h_without_a_point_is_left_out(self):
        # the box ends within the grid's tolerance past its last point but
        # one, so its one cube, wider than h, holds no grid point; its
        # level-1 cubes, narrower than h, hold none either
        g = centered_grid(N=16)
        w = wt.power_weight(g, [0.0], 0.5, 2.0)
        for level_max in (0, 1):
            fam = wt.CubeFamily(lo=(0.875 + 1e-9,), size=0.125 + 1e-9, level_max=level_max)
            assert fam.size > g.h
            with pytest.raises(ValueError, match="no cube in the family contains a grid point"):
                wt.ap_constant(w, 2.0, fam)

    def test_argmax_reported(self):
        g = centered_grid(N=256)
        w = wt.power_weight(g, [0.0], 0.5, 2.0)
        est = wt.ap_constant(w, 2.0, full_family(g, 4))
        corner, edge = est.argmax_cube
        # the maximizing cube touches the singularity
        assert corner[0] <= 0.0 <= corner[0] + edge
        rec = est.to_record()
        assert rec["constant"] == est.value


class TestApq:
    def test_constant_weight(self):
        g = centered_grid(N=128)
        w = wt.tabulated_weight(g, np.ones(128), 2.0)
        est = wt.apq_constant(w, 2.0, 4.0, full_family(g, 3))
        assert abs(est.value - 1.0) < 1e-13

    def test_requires_p_less_q(self):
        g = centered_grid(N=64)
        w = wt.tabulated_weight(g, np.ones(64), 2.0)
        with pytest.raises(ValueError, match="1 < p < q"):
            wt.apq_constant(w, 3.0, 2.0, full_family(g, 2))

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    @pytest.mark.parametrize("name", ["p", "q"])
    def test_non_finite_exponents_refused(self, name, bad):
        g = centered_grid(N=64)
        w = wt.tabulated_weight(g, np.ones(64), 2.0)
        pq = {"p": 2.0, "q": 4.0, name: bad}
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            wt.apq_constant(w, pq["p"], pq["q"], full_family(g, 2))

    def test_single_cube_matches_direct_formula(self):
        rng = np.random.default_rng(1)
        g = centered_grid(N=128)
        vals = np.exp(rng.standard_normal(128))
        w = wt.tabulated_weight(g, vals, 2.0)
        fam = wt.CubeFamily(lo=(-1.0,), size=2.0, level_min=0, level_max=0,
                            shifted=False)
        p, q = 2.0, 4.0
        pprime = p / (p - 1.0)
        direct = np.mean(vals) * np.mean(vals ** (-pprime / q)) ** (q / pprime)
        est = wt.apq_constant(w, p, q, fam)
        assert abs(est.value - direct) <= 1e-12 * direct

    def test_equivalence_with_ar_finiteness(self):
        # [w]_{p,q} finite <-> [w]_r finite with r = 1 + q/p' on one family
        g = centered_grid(N=512)
        fam = full_family(g, 5)
        p, q = 2.0, 4.0
        r = 1.0 + q / (p / (p - 1.0))
        for alpha in (0.5, -0.5):
            w = wt.power_weight(g, [0.0], alpha, p)
            apq = wt.apq_constant(w, p, q, fam).value
            ar = wt.ap_constant(w, r, fam).value
            assert np.isfinite(apq) and np.isfinite(ar)


class TestSawyerWheeden:
    def test_unweighted_single_cube_exponent(self):
        g = centered_grid(N=256)
        one = wt.tabulated_weight(g, np.ones(256), 2.0)
        s, p, q = 0.5, 2.0, 4.0
        fam = wt.CubeFamily(lo=(-0.5,), size=1.0, level_min=0, level_max=0,
                            shifted=False)
        rec = wt.sawyer_wheeden_constant(one, one, s, p, q, fam)
        # |Q|^(s/n-1) |Q|^(1/q) |Q|^(1/p') with |Q| = 1 -> 1
        assert abs(rec["constant"] - 1.0) < 1e-12

    def test_critical_exponent_flat(self):
        # q = p_s^*: the single-weight quantity is exactly 1 on every cube
        g = centered_grid(N=256)
        one = wt.tabulated_weight(g, np.ones(256), 2.0)
        n, s, p = 1, 0.25, 2.0
        q = n * p / (n - s * p)
        rec = wt.sawyer_wheeden_constant(one, one, s, p, q, full_family(g, 5))
        assert abs(rec["single_weight_constant"] - 1.0) < 1e-12

    def test_bounded_iff_exponent_condition(self):
        # per-cube value is |Q|^(1/q - 1/p + s/n): bounded over shrinking
        # cubes exactly when 1/q >= 1/p - s/n, i.e. q <= p_s^*
        g = centered_grid(N=512)
        one = wt.tabulated_weight(g, np.ones(512), 2.0)
        n, s, p = 1, 0.25, 2.0
        q_ok = 3.0  # below p_s^* = 4: exponent positive, sup sits on big cubes
        shallow = wt.sawyer_wheeden_constant(one, one, s, p, q_ok, full_family(g, 1))
        deep = wt.sawyer_wheeden_constant(one, one, s, p, q_ok, full_family(g, 7))
        assert deep["constant"] <= shallow["constant"] * (1.0 + 1e-12)
        q_bad = 20.0  # above p_s^*: exponent negative, shrinking cubes diverge
        shallow_b = wt.sawyer_wheeden_constant(one, one, s, p, q_bad, full_family(g, 1))
        deep_b = wt.sawyer_wheeden_constant(one, one, s, p, q_bad, full_family(g, 7))
        assert deep_b["constant"] >= 2.0 * shallow_b["constant"]

    def test_parameter_validation(self):
        g = centered_grid(N=64)
        one = wt.tabulated_weight(g, np.ones(64), 2.0)
        with pytest.raises(ValueError, match="0 < s"):
            wt.sawyer_wheeden_constant(one, one, 1.5, 2.0, 4.0, full_family(g, 2))
        with pytest.raises(ValueError, match="1 < p < q"):
            wt.sawyer_wheeden_constant(one, one, 0.5, 4.0, 2.0, full_family(g, 2))

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    @pytest.mark.parametrize("name", ["p", "q"])
    def test_non_finite_exponents_refused(self, name, bad):
        g = centered_grid(N=64)
        one = wt.tabulated_weight(g, np.ones(64), 2.0)
        pq = {"p": 2.0, "q": 4.0, name: bad}
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            wt.sawyer_wheeden_constant(one, one, 0.5, pq["p"], pq["q"], full_family(g, 2))


class TestWeightedMeasure:
    def test_whole_box(self):
        g = make_grid(GridSpec(n=2, N=32, L=1.5))
        w = wt.tabulated_weight(g, np.ones((32, 32)), 2.0)
        mask = np.ones((32, 32), dtype=bool)
        assert abs(wt.weighted_measure(w, mask) - 1.5**2) < 1e-12

    def test_additivity(self):
        rng = np.random.default_rng(2)
        g = centered_grid(N=256)
        w = wt.tabulated_weight(g, np.exp(rng.standard_normal(256)), 2.0)
        whole = wt.weighted_measure(w, ((-1.0,), 2.0))
        parts = sum(
            wt.weighted_measure(w, ((-1.0 + k * 0.5,), 0.5)) for k in range(4)
        )
        assert abs(whole - parts) <= 1e-12 * whole

    @pytest.mark.parametrize("corner", [(0.01, 0.5), (0.5, 0.01)])
    def test_cube_between_grid_points_measures_zero(self, corner):
        # h = 1.5 / 32: an edge of h / 2 from 0.01 holds no point on that axis
        g = make_grid(GridSpec(n=2, N=32, L=1.5))
        w = wt.tabulated_weight(g, np.ones((32, 32)), 2.0)
        assert wt.weighted_measure(w, (corner, 1.5 / 64)) == 0.0

    @pytest.mark.parametrize("corner", [(0.25,), (0.25, 0.25, 0.25)])
    def test_corner_of_wrong_length_refused(self, corner):
        g = make_grid(GridSpec(n=2, N=32, L=1.5))
        w = wt.tabulated_weight(g, np.ones((32, 32)), 2.0)
        with pytest.raises(ValueError, match="must have 2 entries"):
            wt.weighted_measure(w, (corner, 0.5))

    @pytest.mark.parametrize("corner, edge, match", [
        ((np.nan, 0.25), 0.5, "corner must be finite"),
        ((0.25, -np.inf), 0.5, "corner must be finite"),
        ((0.25, 0.25), np.nan, "edge must be finite and positive"),
        ((0.25, 0.25), np.inf, "edge must be finite and positive"),
        ((0.25, 0.25), -0.5, "edge must be finite and positive"),
        ((0.25, 0.25), 0.0, "edge must be finite and positive"),
    ])
    def test_bad_cube_refused(self, corner, edge, match):
        # each of these once measured 0.0, the NaN and inf ones with a
        # numpy cast warning
        g = make_grid(GridSpec(n=2, N=32, L=1.5))
        w = wt.tabulated_weight(g, np.ones((32, 32)), 2.0)
        with pytest.raises(ValueError, match=match):
            wt.weighted_measure(w, (corner, edge))

    @pytest.mark.parametrize("region", [np.ones(32 * 32, dtype=int),
                                        np.ones((32, 32), dtype=int), 0.5,
                                        ((0.25, 0.25), 0.5, 1)])
    def test_region_of_another_form_refused(self, region):
        # an int mask raised "too many values to unpack (expected 2)"
        g = make_grid(GridSpec(n=2, N=32, L=1.5))
        w = wt.tabulated_weight(g, np.ones((32, 32)), 2.0)
        with pytest.raises(ValueError, match=r"bool mask of the grid's shape or a \(corner, edge\)"):
            wt.weighted_measure(w, region)

    def test_dyadic_cubes_start_on_their_grid_points(self):
        # at N = 4096 the rounding of (corner - origin) / h reaches 1e-12
        # cells; a tolerance of 1e-9 h cells moved 127 of these starts and
        # 438 ends to the next point
        L, N = 0.7, 4096
        g = make_grid(GridSpec(n=1, N=N, L=L, origin=(-L / 2,)))
        for j in range(12):
            corners = -L / 2 + np.arange(2**j) * (L / 2**j)
            lo, hi = wt._axis_ranges(g, 0, corners, L / 2**j)
            assert np.array_equal(lo, np.arange(2**j) * (N >> j))
            assert np.array_equal(hi, lo + (N >> j))

    def test_power_integral_refines(self):
        # integral of |x|^(1/2) over [0, 1] is 2/3
        errs = []
        for N in (512, 2048):
            g = centered_grid(N=N)
            w = wt.power_weight(g, [0.0], 0.5, 2.0)
            val = wt.weighted_measure(w, ((0.0,), 1.0))
            errs.append(abs(val - 2.0 / 3.0))
        assert errs[-1] < errs[0]
        assert errs[-1] < 5e-4


def test_cube_family_validation():
    with pytest.raises(ValueError, match="edge must be positive"):
        wt.CubeFamily(lo=(0.0,), size=-1.0)
    with pytest.raises(ValueError, match="level"):
        wt.CubeFamily(lo=(0.0,), size=1.0, level_min=3, level_max=1)
    for size in (np.nan, np.inf):
        with pytest.raises(ValueError, match="size must be finite"):
            wt.CubeFamily(lo=(0.0,), size=size)
    for lo in ((np.nan,), (0.0, -np.inf)):
        with pytest.raises(ValueError, match="lo must be finite"):
            wt.CubeFamily(lo=lo, size=1.0)
    for name, level in (("level_max", 3.5), ("level_max", 2.0), ("level_min", True),
                        ("level_max", "4")):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            wt.CubeFamily(lo=(0.0,), size=1.0, **{name: level})
    fam = wt.CubeFamily(lo=(0.0,), size=1.0, level_min=np.int64(1), level_max=np.int64(3))
    assert type(fam.level_min) is int and type(fam.level_max) is int
    g = centered_grid(N=64)
    fam = wt.CubeFamily(lo=(-1.0,), size=2.0, level_min=0, level_max=2)
    cubes = fam.cubes(g)
    # standard cubes tile the box at each level; shifted ones stay inside
    standard = [c for c in cubes if not any(
        abs((c[0][0] + 1.0) / c[1] % 1.0 - 0.5) < 1e-9 for _ in (0,))]
    assert len(cubes) == (1 + 2 + 4) + (0 + 1 + 3)


# ---------------------------------------------------------------------------
# The tiling engine against a per-cube reference loop
# ---------------------------------------------------------------------------


def _cube_slices(grid, corner, edge):
    """Index slices of the grid points in [corner, corner + edge), or None."""
    h = grid.h
    out = []
    for d in range(grid.spec.n):
        o = grid.spec.origin[d]
        lo = max(int(np.ceil((corner[d] - o) / h - 1e-9)), 0)
        hi = min(int(np.ceil((corner[d] + edge - o) / h - 1e-9)), grid.spec.N)
        if hi <= lo:
            return None
        out.append(slice(lo, hi))
    return tuple(out)


def _brute_sup(grid, arrays, term, fam):
    """Reference supremum: one np.sum per cube, in CubeFamily.cubes() order,
    the first maximal cube kept."""
    best, best_cube = -np.inf, None
    for corner, edge in fam.cubes(grid):
        sl = _cube_slices(grid, corner, edge)
        if sl is None:
            continue
        count = int(np.prod([s.stop - s.start for s in sl]))
        val = term(count, [float(np.sum(a[sl])) for a in arrays], edge)
        if val > best:
            best, best_cube = val, (corner, edge)
    return best, best_cube


def _ap_term(p):
    return lambda c, sums, e: (sums[0] / c) * (sums[1] / c) ** (p - 1.0)


#: the engine and the reference sum each cube in another order
SUM_ORDER_RTOL = 1e-12

#: (n, N, L, family) off the lattice and finer than h: the pyramid's base
#: is capped at the first level whose edge is <= h, and its blocks are
#: shorter than h, so some hold no grid point.  The 2D box is a sub-box
#: whose shifted cubes overhang it.
CAPPED_CASES = [
    (2, 16, 2.0, dict(lo=(-0.7, -0.45), size=1.1, level_max=5)),
    (3, 8, 2.0, dict(lo=(-0.9, -0.75, -0.8), size=1.65, level_max=4)),
]


class TestTilingEngine:
    # (n, N, L, family): a box offset from the grid origin whose shifted
    # cubes run off the grid, level_min > 0, and levels finer than h
    CASES = [
        (1, 64, 2.0, dict(lo=(-0.35,), size=1.35, level_min=0, level_max=8)),
        (1, 128, 2.0, dict(lo=(-1.0,), size=2.0, level_min=3, level_max=9)),
        (2, 32, 2.0, dict(lo=(-0.6, -0.2), size=1.2, level_min=1, level_max=6)),
        (3, 8, 1.0, dict(lo=(-0.15, -0.4, -0.1), size=0.6, level_min=0, level_max=3)),
    ] + CAPPED_CASES

    @pytest.mark.parametrize("n, N, L, fam", CASES)
    def test_matches_reference_loop(self, n, N, L, fam):
        g = make_grid(GridSpec(n=n, N=N, L=L, origin=(-L / 2,) * n))
        fam = wt.CubeFamily(**fam)
        cubes = fam.cubes(g)
        empty = sum(_cube_slices(g, c, e) is None for c, e in cubes)
        assert empty > 0 or fam.level_min > 0
        rng = np.random.default_rng(n * 100 + N)
        vals = np.exp(1.5 * rng.standard_normal(g.spec.shape))
        w = wt.tabulated_weight(g, vals, 2.0)
        for p in (1.5, 3.0):
            est = wt.ap_constant(w, p, fam)
            ref, ref_cube = _brute_sup(g, [vals, vals ** (-1.0 / (p - 1.0))],
                                       _ap_term(p), fam)
            assert est.argmax_cube == ref_cube
            assert abs(est.value - ref) <= SUM_ORDER_RTOL * ref
        s, p, q = 0.5, 2.0, 4.0
        hn = g.h**n
        rec = wt.sawyer_wheeden_constant(w, w, s, p, q, fam)
        single = lambda c, sums, e: (e**n) ** (s / n) * (hn * sums[0]) ** (1 / q - 1 / p)  # noqa: E731
        ref, ref_cube = _brute_sup(g, [vals], single, fam)
        assert (tuple(rec["single_weight_argmax"]["corner"]),
                rec["single_weight_argmax"]["edge"]) == ref_cube
        assert abs(rec["single_weight_constant"] - ref) <= SUM_ORDER_RTOL * ref

    @pytest.mark.parametrize("n, N, L, fam", CAPPED_CASES)
    def test_capped_base_holds_empty_blocks(self, n, N, L, fam):
        g = make_grid(GridSpec(n=n, N=N, L=L, origin=(-L / 2,) * n))
        fam = wt.CubeFamily(**fam)
        plan = fam._plan(g)
        # tilings finer than h are kept, and the base blocks are shorter
        # than h: along some axis a block holds no grid point
        assert min(plan.edges) < g.h
        assert fam.size / 2**fam.level_max < g.h
        assert any(full is not None and len(full) < k for *_, k, _, full in plan.base)
        if fam.lo[0] + fam.size < L / 2:
            assert any(c[0] + e > fam.lo[0] + fam.size + 1e-12 for c, e in fam.cubes(g))

    def test_shifted_cubes_off_grid_are_dropped(self):
        g = make_grid(GridSpec(n=2, N=32, L=2.0, origin=(-1.0, -1.0)))
        fam = wt.CubeFamily(lo=(-0.2, -0.2), size=1.2, level_min=0, level_max=2)
        # the shifted tilings stick out of the grid at levels 0 and 1
        per_level = [1 + 0, 4 + 1, 16 + 9]
        assert len(fam.cubes(g)) == sum(per_level)

    def test_cubes_follow_tilings(self):
        g = make_grid(GridSpec(n=2, N=16, L=1.0))
        fam = wt.CubeFamily(lo=(0.0, 0.25), size=0.75, level_min=1, level_max=3)
        expanded = []
        for edge, corners in fam.tilings(g):
            expanded += [((x, y), edge) for x in corners[0] for y in corners[1]]
        assert fam.cubes(g) == expanded

    def test_overflowing_cube_sum_raises(self):
        g = centered_grid(N=64)
        vals = np.ones(64)
        vals[40:44] = 1e308
        w = wt.tabulated_weight(g, vals, 2.0)
        with np.errstate(over="ignore"), pytest.raises(
                ValueError, match=r"cube \(\(.*non-finite sum inf"):
            wt.ap_constant(w, 2.0, full_family(g, 5))


def _reduceat_cube_sum(a, sl):
    """One cube's sum by np.add.reduceat, one axis at a time."""
    for d, s in enumerate(sl):
        a = np.add.reduceat(a[(slice(None),) * d + (slice(None, s.stop),)],
                            [s.start], axis=d)
    return float(a.item())


#: (n, N, family) on the lattice: boxes away from the grid origin, some of
#: whose shifted cubes overhang the box (kept: they stay inside the grid),
#: level_min > 0, shifted=False, and levels finer than h
PYRAMID_CASES = [
    (1, 64, dict(lo=(-0.5,), size=1.0, level_max=5)),
    (1, 128, dict(lo=(0.0,), size=0.5, level_min=2, level_max=7)),
    (1, 64, dict(lo=(-0.75,), size=1.0, level_max=4, shifted=False)),
    (2, 32, dict(lo=(-0.5, 0.0), size=1.0, level_max=4)),
    (2, 64, dict(lo=(-1.0, -1.0), size=2.0, level_min=2, level_max=5, shifted=False)),
    (2, 32, dict(lo=(-0.75, -0.25), size=1.0, level_min=1, level_max=3)),
    (3, 16, dict(lo=(-0.5, -0.25, 0.0), size=1.0, level_max=3)),
    (3, 16, dict(lo=(-1.0,) * 3, size=2.0, level_min=1, level_max=4, shifted=False)),
]


class TestReshapeCubeSums:
    """Every family is summed from one dyadic pyramid, whose base sums its
    blocks by a reshape on the lattice and by reduceat off it; both against
    direct per-cube sums."""

    # (n, N, family, on_lattice): boxes whose aligned and half-shifted
    # tilings cut contiguous equal blocks, and boxes off the lattice, whose
    # clipped tilings cut uneven ranges
    CASES = [
        (1, 64, dict(lo=(-1.0,), size=2.0, level_max=6), True),
        (1, 64, dict(lo=(-0.35,), size=1.35, level_max=6), False),
        (2, 32, dict(lo=(-1.0, -0.5), size=1.0, level_max=4), True),
        (2, 32, dict(lo=(-0.6, -0.2), size=1.2, level_max=5), False),
        (3, 16, dict(lo=(-1.0,) * 3, size=2.0, level_max=4), True),
        (3, 16, dict(lo=(-0.15, -0.4, -0.1), size=1.1, level_max=3), False),
    ] + [(n, N, fam, True) for n, N, fam in PYRAMID_CASES]

    @pytest.mark.parametrize("n, N, fam, on_lattice", CASES)
    def test_sums_match_per_cube_reduceat(self, n, N, fam, on_lattice):
        g = make_grid(GridSpec(n=n, N=N, L=2.0, origin=(-1.0,) * n))
        fam = wt.CubeFamily(**fam)
        # distinct lengths of the non-empty ranges, per tiling and axis
        lengths = [
            np.unique((hi - lo)[hi > lo])
            for edge, corners in fam.tilings(g)
            for lo, hi in (wt._axis_ranges(g, d, corners[d], edge) for d in range(n))
        ]
        assert all(len(ls) <= 1 for ls in lengths) == on_lattice
        rng = np.random.default_rng(n * 1000 + N)
        vals = np.exp(1.5 * rng.standard_normal(g.spec.shape))
        p = 3.0
        arrays = [vals, vals ** (-1.0 / (p - 1.0))]
        ref = [[], []]
        for corner, edge in fam.cubes(g):
            sl = _cube_slices(g, corner, edge)
            if sl is not None:
                for r, a in zip(ref, arrays):
                    r.append(_reduceat_cube_sum(a, sl))
        got = [[], []]

        def capture(count, sums, edge):
            for r, a in zip(got, sums):
                r.extend(a.ravel().tolist())
            return sums[0]

        wt._family_sup(g, [(a, None) for a in arrays], capture, fam)
        for r, a in zip(ref, got):
            r, a = np.array(r), np.array(a)
            assert r.shape == a.shape
            assert np.max(np.abs(a - r) / r) <= 1e-13
        count = np.array([
            np.prod([s.stop - s.start for s in sl])
            for sl in (_cube_slices(g, c, e) for c, e in fam.cubes(g)) if sl is not None
        ])
        sup = np.max(_ap_term(p)(count, [np.array(r) for r in ref], None))
        est = wt.ap_constant(wt.tabulated_weight(g, vals, p), p, fam)
        assert abs(est.value - sup) <= 1e-13 * sup

    @pytest.mark.parametrize("n", [2, 3])
    def test_overflowing_block_sum_raises(self, n):
        # the level-0 cube is the whole box, one block of N points per axis
        N = 16
        g = make_grid(GridSpec(n=n, N=N, L=2.0, origin=(-1.0,) * n))
        vals = np.ones(g.spec.shape)
        vals[(slice(9, 13),) * n] = 1e308
        w = wt.tabulated_weight(g, vals, 2.0)
        with np.errstate(over="ignore"), pytest.raises(
                ValueError, match=r"cube \(\(-1\.0, -1\.0.*non-finite sum inf"):
            wt.ap_constant(w, 2.0, wt.CubeFamily(lo=(-1.0,) * n, size=2.0, level_max=2))


class TestDyadicPyramid:
    """On-lattice families, summed from one dyadic pyramid per array (their
    sums are checked in TestReshapeCubeSums): estimates and argmax cubes
    against the per-cube reference loop."""

    @pytest.mark.parametrize("n, N, fam", PYRAMID_CASES)
    def test_argmax_matches_reference_loop(self, n, N, fam):
        g = make_grid(GridSpec(n=n, N=N, L=2.0, origin=(-1.0,) * n))
        fam = wt.CubeFamily(**fam)
        rng = np.random.default_rng(n * 100 + N)
        vals = np.exp(1.5 * rng.standard_normal(g.spec.shape))
        p = 2.5
        est = wt.ap_constant(wt.tabulated_weight(g, vals, p), p, fam)
        ref, ref_cube = _brute_sup(g, [vals, vals ** (-1.0 / (p - 1.0))], _ap_term(p), fam)
        assert est.argmax_cube == ref_cube
        assert abs(est.value - ref) <= 1e-13 * ref
        # every cube of a constant weight ties: the family's first cube wins
        one = wt.ap_constant(wt.tabulated_weight(g, np.ones(g.spec.shape), p), p, fam)
        assert one.value == 1.0 and one.argmax_cube == fam.cubes(g)[0]

    def test_shifted_overhang_is_summed(self):
        # along axis 0 the shifted cubes of a sub-box reach past it, into
        # the grid, at every level but 0
        g = make_grid(GridSpec(n=2, N=32, L=2.0, origin=(-1.0, -1.0)))
        fam = wt.CubeFamily(lo=(-0.5, 0.0), size=1.0, level_max=4)
        over = [(c, e) for c, e in fam.cubes(g) if c[0] + e > 0.5 + 1e-12]
        assert {e for _, e in over} == {0.5, 0.25, 0.125, 0.0625}
        vals = np.ones(g.spec.shape)
        corner, edge = over[0]
        vals[_cube_slices(g, corner, edge)] = 50.0
        w = wt.tabulated_weight(g, vals, 2.0)
        ref, ref_cube = _brute_sup(g, [vals, 1.0 / vals], _ap_term(2.0), fam)
        est = wt.ap_constant(w, 2.0, fam)
        assert est.argmax_cube == ref_cube
        assert abs(est.value - ref) <= 1e-13 * ref


# ---------------------------------------------------------------------------
# One-pass evaluation against the tiling-by-tiling sweep it replaced
# ---------------------------------------------------------------------------


def _whole_pyramid(a, plan):
    """Every level of a's dyadic pyramid, each formed whole."""
    levels = [wt._base(a, plan.base)]
    for _ in range(plan.depth):
        levels.append(wt._halve(levels[-1]))
    return levels


def _sweep_pyramid_sums(levels, read):
    level, paired, sels = read
    x = levels[level]
    for d, sel in enumerate(sels):
        sl = (slice(None),) * d
        if paired:
            x = x[sl + (sel[0],)] + x[sl + (sel[1],)]
        else:
            x = x[sl + (sel,)]
    return x


def _sweep_sup(grid, arrays, term, fam):
    """Reference: term(count, sums, edge) one tiling at a time in family
    order, edge a Python float, count from the kept cubes' index ranges and
    sums read from the same pyramid; the first maximal cube wins, and the
    first tiling with a bad sum (arrays in order) or a NaN term raises."""
    plan = fam._plan(grid)
    pyramids = [_whole_pyramid(a, plan) for a in arrays]
    best, best_cube = -np.inf, None
    for edge, kept, read in zip(plan.edges, plan.corners, plan.reads):
        count = 1
        for d, corners in enumerate(kept):
            lo, hi = wt._axis_ranges(grid, d, corners, edge)
            count = np.multiply.outer(count, hi - lo)
        sums = []
        for levels in pyramids:
            a = _sweep_pyramid_sums(levels, read)
            if not (a.min() > 0.0 and a.max() < np.inf):
                k = int(np.argmax(~((a > 0.0) & (a < np.inf))))
                raise ValueError(f"cube {wt._cube_at(kept, k, edge)} has "
                                 f"non-positive or non-finite sum {a.flat[k]}")
            sums.append(a)
        vals = term(count, sums, edge)
        k = int(np.argmax(vals))
        if np.isnan(vals.flat[k]):
            raise ValueError(f"cube {wt._cube_at(kept, k, edge)} gives a NaN term")
        if vals.flat[k] > best:
            best, best_cube = vals.flat[k], wt._cube_at(kept, k, edge)
    return best, best_cube


#: (n, N, L, family) on the lattice and off it
ONE_PASS_CASES = ([(n, N, 2.0, fam) for n, N, fam in PYRAMID_CASES]
                  + TestTilingEngine.CASES)


class TestOnePass:
    """Each family is compiled once per grid and evaluated in one pass:
    bitwise the sweep's values and argmax cubes, and its errors."""

    @pytest.mark.parametrize("n, N, L, fam", ONE_PASS_CASES)
    def test_bitwise_sweep_estimates(self, n, N, L, fam):
        g = make_grid(GridSpec(n=n, N=N, L=L, origin=(-L / 2,) * n))
        fam = wt.CubeFamily(**fam)
        rng = np.random.default_rng(n * 10 + N)
        vals = np.exp(1.5 * rng.standard_normal(g.spec.shape))
        w = wt.tabulated_weight(g, vals, 2.0)
        for p in (1.5, 3.0):
            est = wt.ap_constant(w, p, fam)
            ref = _sweep_sup(g, [vals, vals ** (-1.0 / (p - 1.0))], _ap_term(p), fam)
            assert (est.value, est.argmax_cube) == ref
        p, q, s = 2.0, 4.0, 0.5
        pp = p / (p - 1.0)
        est = wt.apq_constant(w, p, q, fam)
        term = lambda c, sums, e: (sums[0] / c) * (sums[1] / c) ** (q / pp)  # noqa: E731
        assert (est.value, est.argmax_cube) == _sweep_sup(g, [vals, vals ** (-pp / q)], term, fam)
        rec = wt.sawyer_wheeden_constant(w, w, s, p, q, fam)
        hn = g.h**n

        def two(c, sums, edge):
            volume = edge**n
            return (volume ** (s / n - 1.0) * (hn * sums[0]) ** (1.0 / q)
                    * (hn * sums[1]) ** (1.0 / pp))

        def single(c, sums, edge):
            volume = edge**n
            return volume ** (s / n) * (hn * sums[0]) ** (1.0 / q - 1.0 / p)

        for key, term, arrays in (("", two, [vals, vals ** (-1.0 / (p - 1.0))]),
                                  ("single_weight_", single, [vals])):
            value, (corner, edge) = _sweep_sup(g, arrays, term, fam)
            cube = rec["argmax_cube" if not key else "single_weight_argmax"]
            assert rec[key + "constant"] == value
            assert cube == {"corner": list(corner), "edge": edge}

    def test_edge_factor_is_a_python_float_per_tiling(self):
        # the Sawyer-Wheeden |Q|^(s/n-1) and |Q|^(s/n): numpy's power of an
        # array may round otherwise than Python's power of each edge
        for n, N, L, fam in TestTilingEngine.CASES:
            g = make_grid(GridSpec(n=n, N=N, L=L, origin=(-L / 2,) * n))
            fam = wt.CubeFamily(**fam)
            plan = fam._plan(g)
            sizes = np.diff(plan.offsets)
            edges = plan.edges
            for s in np.linspace(0.1, 0.9, 9):
                def edge_factor(edge):
                    return (edge**n) ** (s / n - 1.0)
                seen = []
                wt._family_sup(g, [(np.ones(g.spec.shape), None)],
                               lambda c, sums, f: seen.append(f) or sums[0], fam, edge_factor)
                want = np.concatenate([np.full(k, edge_factor(e)) for k, e in zip(sizes, edges)])
                assert np.array_equal(seen[0], want)

    # levels 2..5 of a 1D box of 64 points: tilings 0..7 are level 2
    # aligned (cubes of 16 points) and shifted, 3 aligned and shifted, ...
    # and 5 aligned (cubes of 2 points) is tiling 6
    def _failing(self, arrays, term):
        g = make_grid(GridSpec(n=1, N=64, L=2.0, origin=(-1.0,)))
        fam = wt.CubeFamily(lo=(-1.0,), size=2.0, level_min=2, level_max=5)
        with pytest.raises(ValueError) as want:
            _sweep_sup(g, arrays, term, fam)
        with pytest.raises(ValueError) as got:
            wt._family_sup(g, [(a, None) for a in arrays], term, fam)
        assert str(got.value) == str(want.value)
        return str(got.value)

    def test_earlier_tiling_named_before_earlier_array(self):
        a0, a1 = np.ones(64), np.ones(64)
        # a non-positive sum in array 0 only in the cubes of 2 points (tilings
        # 6 and 7) and a non-finite one in array 1 from tiling 1 on: the
        # shifted level-2 cube [24, 40) is the first to hold both huge samples
        a0[10] = -1.5
        a1[31] = a1[32] = 1e308
        with np.errstate(over="ignore"):
            msg = self._failing([a0, a1], _ap_term(2.0))
        assert msg == "cube ((-0.25,), 0.5) has non-positive or non-finite sum inf"

    def test_array_order_within_a_tiling(self):
        # both arrays first fail in tiling 6, array 1 at an earlier cube
        a0, a1 = np.ones(64), np.ones(64)
        a0[40] = -1.5
        a1[10] = -1.5
        msg = self._failing([a0, a1], _ap_term(2.0))
        assert msg == "cube ((0.25,), 0.0625) has non-positive or non-finite sum -0.5"

    @pytest.mark.parametrize("points, message", [
        # a NaN term in tiling 0, at the cube [16, 32), before the bad sum
        (16, "cube ((-0.5,), 0.5) gives a NaN term"),
        # a NaN term at the cube [20, 22) of tiling 6, whose bad sum at
        # [40, 42) is checked before its term
        (2, "cube ((0.25,), 0.0625) has non-positive or non-finite sum -0.5"),
    ])
    def test_nan_term_against_bad_sum(self, points, message):
        a0 = np.ones(64)
        a0[20] = 200.0
        a0[40] = -1.5

        def term(c, sums, edge):
            # NaN on the cubes of the given size that hold sample 20
            return np.where((sums[0] > 100.0) & (c == points), np.nan, sums[0] / c)

        assert self._failing([a0], term) == message

    def test_plan_compiled_once_per_grid(self, monkeypatch):
        compiled = []
        compile_family = wt._compile_family

        def counting(grid, cubes):
            compiled.append(grid.spec)
            return compile_family(grid, cubes)

        monkeypatch.setattr(wt, "_compile_family", counting)
        fam = wt.CubeFamily(lo=(-1.0,), size=2.0, level_max=5)
        g = centered_grid(N=256)
        w = wt.power_weight(g, [0.0], 0.5, 2.0)
        wt.ap_constant(w, 2.0, fam)
        wt.apq_constant(w, 2.0, 4.0, fam)
        wt.sawyer_wheeden_constant(w, w, 0.5, 2.0, 4.0, fam)
        # an equal grid built apart shares the plan
        wt.ap_constant(wt.power_weight(centered_grid(N=256), [0.0], 0.5, 3.0), 3.0, fam)
        assert compiled == [g.spec]
        g2 = centered_grid(N=512)
        wt.ap_constant(wt.power_weight(g2, [0.0], 0.5, 2.0), 2.0, fam)
        wt.ap_constant(wt.power_weight(g, [0.0], 0.5, 2.0), 2.0, fam)
        assert compiled == [g.spec, g2.spec]
        # the plans ride on the family, apart from its equality and repr
        fresh = wt.CubeFamily(lo=(-1.0,), size=2.0, level_max=5)
        assert fresh == fam and hash(fresh) == hash(fam) and repr(fresh) == repr(fam)


class TestPlanCubes:
    """Each cube of a compiled family against its own index ranges."""

    @pytest.mark.parametrize("n, N, L, fam", ONE_PASS_CASES + [
        (n, N, 2.0, fam) for n, N, fam, _ in TestReshapeCubeSums.CASES[:6]] + [
        # grid spacings that are not binary fractions
        (1, 4096, 0.7, dict(lo=(-0.35,), size=0.7, level_max=10)),
        (2, 128, 0.7, dict(lo=(-0.35, -0.35), size=0.7, level_max=5))])
    def test_counts_and_sums_per_cube(self, n, N, L, fam):
        g = make_grid(GridSpec(n=n, N=N, L=L, origin=(-L / 2,) * n))
        fam = wt.CubeFamily(**fam)
        plan = fam._plan(g)
        vals = np.exp(1.5 * np.random.default_rng(n * 10 + N).standard_normal(g.spec.shape))
        w = wt.tabulated_weight(g, vals, 2.0)
        counts, sums = plan.counts, plan.sums(vals)
        hn = g.h**n
        for t, shape in enumerate(plan.shapes):
            for k in range(int(np.prod(shape))):
                corner, edge = cube = plan.cube(t, k)
                ranges = [wt._axis_ranges(g, d, corner[d], edge) for d in range(n)]
                flat = plan.offsets[t] + k
                assert counts[flat] == np.prod([hi - lo for lo, hi in ranges])
                want = wt.weighted_measure(w, cube) / hn
                assert abs(sums[flat] - want) <= 1e-13 * want

    def test_far_finer_than_h_builds_no_larger_pyramid(self, monkeypatch):
        # level 8 cubes of a 16^3 grid have edge h/16
        n, N = 3, 16
        g = make_grid(GridSpec(n=n, N=N, L=2.0, origin=(-1.0,) * n))
        sizes = []
        # level 0, a slab at a time, and each level after it
        for name in ("_base", "_halve"):
            def recording(*args, build=getattr(wt, name)):
                x = build(*args)
                sizes.append(x.size)
                return x

            monkeypatch.setattr(wt, name, recording)
        vals = np.exp(np.random.default_rng(3).standard_normal(g.spec.shape))
        w = wt.tabulated_weight(g, vals, 2.0)
        fine = wt.ap_constant(w, 2.0, wt.CubeFamily(lo=(-1.0,) * n, size=2.0, level_max=8))
        assert max(sizes) <= 2**n * N**n
        # its cubes finer than h hold one point each, where the term is 1:
        # the family of levels 0..4 gives the same supremum and cube
        coarse = wt.ap_constant(w, 2.0, wt.CubeFamily(lo=(-1.0,) * n, size=2.0, level_max=4))
        assert fine.value > 1.0
        assert (fine.value, fine.argmax_cube) == (coarse.value, coarse.argmax_cube)

    # a full box, whose aligned tilings read levels 1.. whole, and a sub-box
    # whose shifted cubes overhang it, so its levels 1 and 2 run past the
    # aligned tilings of levels 2 and 1
    @pytest.mark.parametrize("n, N, fam, slots", [
        (2, 64, dict(lo=(-1.0, -1.0), size=2.0, level_min=2, level_max=5, shifted=False),
         [None, 2, 1, 0]),
        (2, 32, dict(lo=(-0.5, 0.0), size=1.0, level_max=4), [None, None, None, 1, 0]),
    ])
    def test_levels_built_into_slots(self, n, N, fam, slots):
        # both families are ONE_PASS_CASES, so their estimates are also
        # checked bitwise against the sweep
        assert (n, N, 2.0, fam) in ONE_PASS_CASES
        g = make_grid(GridSpec(n=n, N=N, L=2.0, origin=(-1.0,) * n))
        plan = wt.CubeFamily(**fam)._plan(g)
        assert plan.slots == slots
        # a level built in its slot holds what a whole pyramid holds
        vals = np.exp(np.random.default_rng(5).standard_normal(g.spec.shape))
        levels = _whole_pyramid(vals, plan)
        sums = plan.sums(vals)
        for level, t in enumerate(plan.slots):
            if t is not None:
                got = sums[plan.offsets[t]:plan.offsets[t + 1]].reshape(plan.shapes[t])
                assert np.array_equal(got, levels[level])

    @pytest.mark.parametrize("n, N, L, fam", ONE_PASS_CASES + [
        # off the lattice, its last base block holds no grid point
        (1, 32, 2.0, dict(lo=(0.48,), size=0.46, level_max=5))])
    def test_slab_size_leaves_sums_bitwise(self, monkeypatch, n, N, L, fam):
        # slabs of two blocks and up: pairs across a slab's end, a last
        # slab of one block (also of one empty block), and off-lattice
        # bases summed by reduceat
        g = make_grid(GridSpec(n=n, N=N, L=L, origin=(-L / 2,) * n))
        vals = np.exp(1.5 * np.random.default_rng(n * 10 + N).standard_normal(g.spec.shape))
        whole = wt.CubeFamily(**fam)._plan(g)
        assert len(whole.slabs) == 1
        want = [whole.sums(vals), whole.sums(vals, -0.5), whole.sums(vals, -1.0)]
        plane = N ** (n - 1)
        for size in (1, 4 * plane, 6 * plane):
            monkeypatch.setattr(wt, "_SLAB", size)
            plan = wt.CubeFamily(**fam)._plan(g)
            assert len(plan.slabs) > 1
            got = [plan.sums(vals), plan.sums(vals, -0.5), plan.sums(vals, -1.0)]
            assert all(np.array_equal(a, b) for a, b in zip(got, want))


class TestWorkingSet:
    """tracemalloc peaks against an inventory of the arrays a call holds at
    once, in bytes: no full-grid array but the weight's own."""

    N = 64
    #: the Weight, its family dict and index tuples, and the plan's views
    OBJECTS = 4096

    def grid(self):
        return make_grid(GridSpec(n=3, N=self.N, L=2.0, origin=(-1.0,) * 3))

    @staticmethod
    def peak(call):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_power_weight_builds_one_grid_array(self):
        # the array, the coordinates and their squares per axis, and numpy's
        # ufunc buffer (the sum of squares broadcasts its operand)
        g = self.grid()
        bound = 8 * (self.N**3 + 2 * 3 * self.N + np.getbufsize()) + self.OBJECTS
        assert self.peak(lambda: wt.power_weight(g, [0.0] * 3, 0.5, 2.0)) <= bound

    def test_ap_constant_forms_no_full_grid_power(self):
        g = self.grid()
        fam = wt.CubeFamily(lo=(-1.0,) * 3, size=2.0, level_max=5)
        plan = fam._plan(g)  # compiled once per grid, before the call
        assert len(plan.slabs) > 1
        levels = sum(math.prod(k >> level for _, _, k, _, _ in plan.base)
                     for level in range(1, plan.depth + 1))
        bound = 8 * (
            self.N**3  # the weight
            + 4 * plan.offsets[-1]  # two flat sums arrays and the term's two quotients
            + levels  # pyramid levels 1 and up
            + 2 * wt._SLAB  # one slab of w^expo and its passes
            + np.getbufsize()  # numpy's ufunc buffer
        ) + self.OBJECTS
        assert self.peak(lambda: wt.ap_constant(
            wt.power_weight(g, [0.0] * 3, 0.5, 2.0), 2.0, fam)) <= bound


class TestWideRangeDualWeights:
    """Dual weights of power weights spanning up to 1e65: every cube sum is
    a direct sum of positive samples, so no cube is lost to cancellation."""

    @pytest.mark.parametrize("alpha, p", [(0.5, 1.1), (1.5, 1.2), (0.9, 1.05)])
    def test_ap_matches_reference_loop(self, alpha, p):
        g = centered_grid(N=4096)
        wd = wt.dual_weight(wt.power_weight(g, [0.0], alpha, p), p)
        pd = wd.p
        arrays = [wd.values, wd.values ** (-1.0 / (pd - 1.0))]
        # the whole box, and cubes far from the singularity, whose sums are
        # tiny next to the sums over the cubes before them
        for fam in (full_family(g, 10),
                    wt.CubeFamily(lo=(0.5,), size=0.5, level_max=8)):
            est = wt.ap_constant(wd, pd, fam)
            ref, ref_cube = _brute_sup(g, arrays, _ap_term(pd), fam)
            assert np.isfinite(est.value)
            assert abs(est.value - ref) <= SUM_ORDER_RTOL * ref
            assert est.argmax_cube == ref_cube

    def test_sawyer_wheeden_single_weight_finite(self):
        g = centered_grid(N=4096)
        fam = full_family(g, 10)
        w = wt.dual_weight(wt.power_weight(g, [0.0], 0.5, 2.0), 1.1)
        s, p, q = 0.5, 2.0, 4.0
        rec = wt.sawyer_wheeden_constant(w, w, s, p, q, fam)
        single = lambda c, sums, e: e**s * (g.h * sums[0]) ** (1 / q - 1 / p)  # noqa: E731
        ref, _ = _brute_sup(g, [w.values], single, fam)
        assert np.isfinite(rec["single_weight_constant"])
        assert abs(rec["single_weight_constant"] - ref) <= SUM_ORDER_RTOL * ref
        assert np.isfinite(rec["constant"])


def _random_points(n, count):
    def make(g):
        pts = np.random.default_rng(n).uniform(-0.8, 0.8, size=(count, n))
        pts[0] = g.axes[0][g.spec.N // 2]  # on a grid node: the h/2 nudge
        return pts
    return make


def _flat(n, axes, m=23, through=(0.25, -0.5, 0.125)):
    """m^k points of an axis-aligned flat spanned by the given axes, through
    a grid node, at uneven spacing and in shuffled order; one of them lies
    on a grid node."""
    def make(g):
        rng = np.random.default_rng(n * 10 + len(axes))
        along = [np.sort(rng.uniform(-0.9, 0.9, m)) for _ in axes]
        along[0][m // 2] = g.axes[0][g.spec.N // 2 + 1]  # one on a grid node
        pts = np.tile(np.array(through[:n]), (m ** len(axes), 1))
        for d, c in zip(axes, np.meshgrid(*along, indexing="ij")):
            pts[:, d] = c.ravel()
        return rng.permutation(pts)
    return make


def _repeated(g):
    base = np.array([[0.25, -0.5], [0.25, 0.125], [-0.7, 0.3]])
    return np.concatenate([base, base[::-1], base[:1]])


def _stacked_distance(g, pts):
    """d(x, M) per grid point from all pairwise differences at once."""
    stacked = np.stack([c.ravel() for c in g.coords()], axis=1)
    d = stacked[:, None, :] - pts[None, :, :]
    dist = np.sqrt(np.min(np.sum(d * d, axis=2), axis=1)).reshape(g.spec.shape)
    dist[dist == 0.0] = g.h / 2.0
    return dist


# (n, N, point set maker, lines): scattered sets (lines of one point),
# segments and lines along each axis, a plane, repeated points, one point
DISTANCE_SETS = [
    pytest.param(1, 256, _random_points(1, 53), 1, id="1-256-53"),
    pytest.param(2, 64, _random_points(2, 101), 101, id="2-64-101"),
    pytest.param(3, 16, _random_points(3, 37), 37, id="3-16-37"),
    pytest.param(2, 64, _flat(2, (0,)), 1, id="2d-segment-axis0"),
    pytest.param(2, 64, _flat(2, (1,)), 1, id="2d-segment-axis1"),
    pytest.param(3, 16, _flat(3, (0,)), 1, id="3d-line-axis0"),
    pytest.param(3, 16, _flat(3, (1,)), 1, id="3d-line-axis1"),
    pytest.param(3, 16, _flat(3, (2,)), 1, id="3d-line-axis2"),
    pytest.param(3, 16, _flat(3, (0, 2), m=9), 9, id="3d-plane"),
    pytest.param(2, 32, _repeated, 2, id="2d-repeated"),
    pytest.param(3, 16, lambda g: np.array([[0.125, -0.3, 0.7]]), 1, id="3d-one-point"),
]


@pytest.mark.parametrize("n, N, make, lines", DISTANCE_SETS)
def test_distance_scan_matches_stacked_formula(n, N, make, lines):
    g = make_grid(GridSpec(n=n, N=N, L=2.0, origin=(-1.0,) * n))
    pts = make(g)
    assert len(wt._lines(pts)[1]) == lines
    dist = _stacked_distance(g, pts)
    # the declared dimension moves class membership only, never the values
    for k in range(n):
        wd = wt.distance_weight(g, pts, 0.5, 2.0, manifold_dim=k)
        assert np.array_equal(wd.values, dist**0.5)


#: a 1D grid N = 256 and weights on it and on N = 128
G256 = centered_grid(N=256)
ONE256 = wt.tabulated_weight(G256, np.ones(256), 2.0)
ONE128 = wt.tabulated_weight(centered_grid(N=128), np.ones(128), 2.0)
G2D = make_grid(GridSpec(n=2, N=16, L=2.0, origin=(-1.0, -1.0)))


@pytest.mark.parametrize("call,match", [
    pytest.param(lambda: wt.Weight(G256, np.ones(128), {"family": "tabulated"}, 2.0),
                 "weight shape does not match grid", id="weight shape"),
    pytest.param(lambda: wt.power_weight(G2D, [0.0], 0.5, 2.0),
                 "x0 must have 2 entries", id="power x0"),
    pytest.param(lambda: wt.distance_weight(G2D, [[0.0, 0.0, 0.0]], 0.5, 2.0),
                 "points must have 2 coordinates", id="distance points"),
    pytest.param(lambda: wt.distance_weight(G2D, [[0.0, 0.0]], 0.5, 2.0, manifold_dim=2),
                 r"manifold dimension must be in \[0, 2\)", id="distance dim=n"),
    pytest.param(lambda: wt.distance_weight(G2D, [[0.0, 0.0]], 0.5, 2.0, manifold_dim=-1),
                 r"manifold dimension must be in \[0, 2\)", id="distance dim<0"),
    pytest.param(lambda: wt.ap_constant(
        wt.tabulated_weight(G2D, np.ones((16, 16)), 2.0), 2.0, full_family(G256, 2)),
                 "cube family dimension does not match grid", id="family dimension"),
    pytest.param(lambda: wt.sawyer_wheeden_constant(
        ONE256, ONE128, 0.5, 2.0, 4.0, full_family(G256, 2)),
                 "weights live on different grids", id="sawyer-wheeden grids"),
    pytest.param(lambda: wt.weighted_measure(ONE256, np.ones(128, dtype=bool)),
                 "mask shape does not match grid", id="measure mask"),
])
def test_refusals(call, match):
    with pytest.raises(ValueError, match=match):
        call()
