"""Lorentz-model geometry tests.

Derived quantities are checked against independent oracles: extended-precision
(longdouble) evaluations of the closed forms, the general exponential map
restricted to the origin, and a log-map reconstruction of the exterior angle.
"""

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hyperlift import autograd as ag
from hyperlift.autograd import ParamStore, Tensor
from hyperlift.manifold import (
    DegenerateInputError,
    ManifoldParams,
    exp_map_origin,
    exterior_angle,
    geodesic_distance,
    half_aperture,
    lift,
    lorentz_inner,
    lorentz_radius,
    pairwise_geodesic_distance,
)
from reference import MANIFOLD_ATOL, check_gradients, exp_map_general, trainable_params

RNG = np.random.default_rng(0xA11CE)


def random_points(n, dim, kappa, scale=1.0, rng=RNG):
    v = rng.standard_normal((n, dim)) * scale
    return exp_map_origin(v, kappa).data


def origin(dim, kappa):
    o = np.zeros(dim + 1)
    o[-1] = 1.0 / np.sqrt(kappa)
    return o


@dataclass
class LorentzPoint:
    """A validated point on the upper hyperboloid sheet."""

    x_space: np.ndarray
    x_time: float
    kappa_ref: float

    def __post_init__(self):
        self.x_space = np.asarray(self.x_space, dtype=np.float64)
        self.x_time = float(self.x_time)
        if self.x_time <= 0:
            raise ValueError("time coordinate must be positive (upper sheet)")
        resid = abs(-self.x_time**2 + float(self.x_space @ self.x_space) + 1.0 / self.kappa_ref)
        if resid > MANIFOLD_ATOL:
            raise ValueError(f"point violates manifold constraint by {resid:.3g}")

    @property
    def vector(self) -> np.ndarray:
        return np.concatenate([self.x_space, [self.x_time]])

    @classmethod
    def from_vector(cls, vec, kappa) -> "LorentzPoint":
        vec = np.asarray(vec, dtype=np.float64)
        return cls(x_space=vec[:-1], x_time=vec[-1], kappa_ref=float(kappa))

    @classmethod
    def from_euclidean(cls, v_euc, kappa) -> "LorentzPoint":
        vec = exp_map_origin(np.asarray(v_euc, dtype=np.float64), float(kappa)).data
        return cls.from_vector(vec, kappa)


@dataclass
class TangentVector:
    """A vector in the tangent space at `base_point` (Lorentz-orthogonal)."""

    v: np.ndarray
    base_point: LorentzPoint

    def __post_init__(self):
        self.v = np.asarray(self.v, dtype=np.float64)
        inner = float(lorentz_inner(self.v, self.base_point.vector).data)
        if abs(inner) > MANIFOLD_ATOL:
            raise ValueError(f"vector not tangent at base point: <v,p>_L = {inner:.3g}")


class TestLift:
    @pytest.mark.parametrize("kappa", [0.1, 1.0, 10.0])
    def test_membership_constraint(self, kappa):
        # moderate radius: |<x,x>_L| checks lose float64 digits as x_t^2 grows
        x = random_points(500, 8, kappa, scale=0.5)
        inner = lorentz_inner(Tensor(x), Tensor(x)).data
        np.testing.assert_allclose(inner, -1.0 / kappa, atol=1e-9)
        assert (x[:, -1] > 0).all()

    def test_zero_vector_lifts_to_origin(self):
        out = exp_map_origin(np.zeros((1, 4)), 2.0).data
        np.testing.assert_allclose(out[0], origin(4, 2.0), rtol=1e-15)

    def test_extended_precision_oracle(self):
        # scalar closed form evaluated in longdouble, coordinate by coordinate
        kappa = 0.7
        v = np.array([[0.3, -1.2, 0.9]])
        out = exp_map_origin(v, kappa).data[0]
        vl = v[0].astype(np.longdouble)
        sk = np.sqrt(np.longdouble(kappa))
        nrm = np.sqrt((vl * vl).sum())
        space = np.sinh(sk * nrm) / (sk * nrm) * vl
        time = np.sqrt(1.0 / np.longdouble(kappa) + (space * space).sum())
        np.testing.assert_allclose(out[:-1], space.astype(np.float64), rtol=1e-14)
        np.testing.assert_allclose(out[-1], float(time), rtol=1e-14)

    def test_taylor_branch_is_continuous(self):
        # values straddling the series cutoff agree to near machine precision
        eps = 1e-4
        v = np.array([[eps * 0.99], [eps * 1.01]])
        out = exp_map_origin(v, 1.0).data
        vl = v.astype(np.longdouble)[:, 0]
        ref = np.sinh(vl) / vl * vl
        np.testing.assert_allclose(out[:, 0], ref.astype(np.float64), rtol=1e-13)

    def test_gradients_through_lift(self):
        store = ParamStore()
        store.add("v", RNG.standard_normal((3, 4)))
        store.add("log_kappa", np.array(0.3))
        target = RNG.standard_normal((3, 5))

        def f():
            x = exp_map_origin(store["v"], ag.exp(store["log_kappa"]))
            return (x * Tensor(target)).sum()

        assert check_gradients(f, trainable_params(store), n_probes=25, seed=1).passed


class TestExpMapGeneral:
    def test_reduces_to_origin_form(self):
        # independent route: general map at the origin base point, tangent
        # vectors (v, 0), versus the simplified origin lift
        kappa = 1.7
        v = RNG.standard_normal((200, 6)) * 1.5
        base = np.broadcast_to(origin(6, kappa), (200, 7))
        tangent = np.concatenate([v, np.zeros((200, 1))], axis=-1)
        general = exp_map_general(base, tangent, kappa).data
        simple = exp_map_origin(v, kappa).data
        np.testing.assert_allclose(general, simple, atol=1e-9)

    def test_rejects_non_tangent_vector(self):
        kappa = 1.0
        base = origin(3, kappa)
        bad = np.array([0.1, 0.2, 0.3, 0.5])  # time component breaks tangency
        with pytest.raises(ValueError, match="tangent"):
            exp_map_general(base, bad, kappa)

    def test_output_stays_on_manifold(self):
        kappa = 0.5
        p = random_points(50, 4, kappa)
        u = RNG.standard_normal((50, 4))
        # project u onto the tangent space at p: v = u + k <u, p>_L p
        ufull = np.concatenate([u, np.zeros((50, 1))], axis=-1)
        inner = (ufull[:, :-1] * p[:, :-1]).sum(-1) - ufull[:, -1] * p[:, -1]
        v = ufull + kappa * inner[:, None] * p
        out = exp_map_general(p, v, kappa).data
        check = (out[:, :-1] ** 2).sum(-1) - out[:, -1] ** 2
        np.testing.assert_allclose(check, -1.0 / kappa, atol=1e-9)


class TestDistance:
    def test_self_distance_is_exactly_zero(self):
        # round-off in <x,x>_L scales with x_t^2; the snap window covers
        # radii well past anything the lift produces for unit-scale inputs
        x = random_points(100, 8, 1.0, scale=1.0)
        d = geodesic_distance(Tensor(x), Tensor(x), 1.0).data
        assert np.array_equal(d, np.zeros(100))

    def test_symmetry_exact(self):
        x = random_points(64, 6, 2.0)
        y = random_points(64, 6, 2.0)
        dxy = geodesic_distance(Tensor(x), Tensor(y), 2.0).data
        dyx = geodesic_distance(Tensor(y), Tensor(x), 2.0).data
        assert np.array_equal(dxy, dyx)

    def test_triangle_inequality(self):
        kappa = 1.3
        x, y, z = (random_points(300, 5, kappa, scale=2.0, rng=np.random.default_rng(s))
                   for s in (1, 2, 3))
        dxy = geodesic_distance(Tensor(x), Tensor(y), kappa).data
        dyz = geodesic_distance(Tensor(y), Tensor(z), kappa).data
        dxz = geodesic_distance(Tensor(x), Tensor(z), kappa).data
        assert (dxz <= dxy + dyz + 1e-6).all()

    def test_collinear_additivity(self):
        # points exp_o(t v) along one geodesic through the origin satisfy
        # d(p(s), p(t)) = |t - s| |v|
        kappa, vdir = 1.0, np.array([0.6, -0.8])
        ts = np.array([-1.5, -0.2, 0.0, 0.7, 2.0])
        pts = exp_map_origin(ts[:, None] * vdir, kappa).data
        for i in range(len(ts)):
            for j in range(len(ts)):
                d = geodesic_distance(Tensor(pts[i]), Tensor(pts[j]), kappa).item()
                np.testing.assert_allclose(d, abs(ts[i] - ts[j]), atol=1e-6)

    def test_distance_from_origin_matches_radius(self):
        kappa = 2.5
        x = random_points(100, 4, kappa, scale=1.5)
        o = np.broadcast_to(origin(4, kappa), x.shape)
        d = geodesic_distance(Tensor(x), Tensor(o), kappa).data
        r = lorentz_radius(Tensor(x), kappa).data
        np.testing.assert_allclose(d, r, rtol=1e-10)

    def test_pairwise_matches_elementwise(self):
        kappa = 1.0
        x = random_points(6, 4, kappa)
        y = random_points(5, 4, kappa)
        grid = pairwise_geodesic_distance(Tensor(x), Tensor(y), kappa).data
        for i in range(6):
            for j in range(5):
                d = geodesic_distance(Tensor(x[i]), Tensor(y[j]), kappa).item()
                np.testing.assert_allclose(grid[i, j], d, rtol=1e-10)

    def test_extended_precision_oracle(self):
        kappa = 0.9
        x = random_points(1, 3, kappa)[0]
        y = random_points(1, 3, kappa, rng=np.random.default_rng(5))[0]
        d = geodesic_distance(Tensor(x), Tensor(y), kappa).item()
        xl, yl = x.astype(np.longdouble), y.astype(np.longdouble)
        inner = (xl[:-1] * yl[:-1]).sum() - xl[-1] * yl[-1]
        ref = np.sqrt(1 / np.longdouble(kappa)) * np.arccosh(-np.longdouble(kappa) * inner)
        np.testing.assert_allclose(d, float(ref), rtol=1e-12)

    def test_gradients(self):
        store = ParamStore()
        store.add("vx", RNG.standard_normal((4, 3)))
        store.add("vy", RNG.standard_normal((4, 3)))

        def f():
            x = exp_map_origin(store["vx"], 1.0)
            y = exp_map_origin(store["vy"], 1.0)
            return geodesic_distance(x, y, 1.0).sum()

        assert check_gradients(f, trainable_params(store), n_probes=24, seed=3).passed


class TestCones:
    def test_half_aperture_saturates_near_origin(self):
        kappa, cone_k = 1.0, 0.1
        near = exp_map_origin(np.array([[1e-3, 0.0]]), kappa)
        psi = half_aperture(near, kappa, cone_k).data
        np.testing.assert_allclose(psi, np.pi / 2)

    def test_half_aperture_monotone_in_radius(self):
        kappa, cone_k = 1.0, 0.1
        radii = np.linspace(0.3, 4.0, 30)
        pts = exp_map_origin(radii[:, None] * np.array([1.0, 0.0]), kappa)
        psi = half_aperture(pts, kappa, cone_k).data
        assert (np.diff(psi) < 0).all()

    def test_half_aperture_longdouble_oracle(self):
        kappa, k = 2.0, 0.25
        x = random_points(1, 3, kappa, scale=2.0)[0]
        psi = half_aperture(Tensor(x), kappa, k).item()
        snorm = np.sqrt((x[:-1].astype(np.longdouble) ** 2).sum())
        ref = np.arcsin(min(np.longdouble(1.0), 2 * k / (np.sqrt(np.longdouble(kappa)) * snorm)))
        np.testing.assert_allclose(psi, float(ref), rtol=1e-12)

    def test_exterior_angle_log_map_oracle(self):
        # reconstruct the angle in the tangent space at x: the exterior angle
        # equals pi minus the angle between log_x(o) and log_x(y)
        kappa = 1.0
        rng = np.random.default_rng(17)
        x = random_points(200, 4, kappa, scale=1.2, rng=rng)
        y = random_points(200, 4, kappa, scale=1.2, rng=rng)
        ext = exterior_angle(Tensor(x), Tensor(y), kappa).data

        def log_map(p, q):
            inner = (p[:, :-1] * q[:, :-1]).sum(-1) - p[:, -1] * q[:, -1]
            d = np.arccosh(np.maximum(-kappa * inner, 1.0))
            u = q + kappa * inner[:, None] * p
            unorm = np.sqrt(np.maximum((u[:, :-1] ** 2).sum(-1) - u[:, -1] ** 2, 1e-30))
            return d[:, None] * u / unorm[:, None]

        o = np.broadcast_to(origin(4, kappa), x.shape)
        u, w = log_map(x, y), log_map(x, o)

        def lorentz_dot(a, b):
            return (a[:, :-1] * b[:, :-1]).sum(-1) - a[:, -1] * b[:, -1]

        cosang = lorentz_dot(u, w) / np.sqrt(lorentz_dot(u, u) * lorentz_dot(w, w))
        ref = np.pi - np.arccos(np.clip(cosang, -1.0, 1.0))
        np.testing.assert_allclose(ext, ref, atol=1e-7)

    def test_exterior_angle_zero_for_coincident_points(self):
        x = random_points(10, 3, 1.0)
        ext = exterior_angle(Tensor(x), Tensor(x), 1.0).data
        assert np.array_equal(ext, np.zeros(10))

    def test_origin_parent_raises(self):
        o = origin(3, 1.0)
        child = random_points(1, 3, 1.0)[0]
        with pytest.raises(DegenerateInputError):
            exterior_angle(Tensor(o), Tensor(child), 1.0)

    def test_child_on_outward_axis_is_contained(self):
        # pushing a point further out along its own ray keeps it inside the cone
        kappa, cone_k = 1.0, 0.1
        vdir = np.array([[1.0, 0.5, -0.3]]) / np.linalg.norm([1.0, 0.5, -0.3])
        parent = exp_map_origin(1.0 * vdir, kappa)
        child = exp_map_origin(2.5 * vdir, kappa)
        ext = exterior_angle(parent, child, kappa).item()
        psi = half_aperture(parent, kappa, cone_k).item()
        assert ext <= psi
        assert ext < 1e-5

    def test_child_behind_parent_is_excluded(self):
        # a child between parent and origin sits opposite the outward axis
        kappa, cone_k = 1.0, 0.1
        vdir = np.array([[1.0, 0.0]])
        parent = exp_map_origin(2.0 * vdir, kappa)
        child = exp_map_origin(0.5 * vdir, kappa)
        ext = exterior_angle(parent, child, kappa).item()
        psi = half_aperture(parent, kappa, cone_k).item()
        assert ext > psi
        np.testing.assert_allclose(ext, np.pi, atol=1e-6)

    def test_gradients_through_cone_quantities(self):
        store = ParamStore()
        store.add("vx", RNG.standard_normal((3, 4)) * 0.8)
        store.add("vy", RNG.standard_normal((3, 4)) * 0.8)
        cone_k = 0.1

        def f():
            x = exp_map_origin(store["vx"], 1.0)
            y = exp_map_origin(store["vy"], 1.0)
            gap = exterior_angle(x, y, 1.0) - half_aperture(x, 1.0, cone_k)
            return ag.relu(gap).sum()

        assert check_gradients(f, trainable_params(store), n_probes=24, seed=4).passed


class TestValidatedTypes:
    def test_lorentz_point_roundtrip(self):
        x = random_points(1, 4, 1.5)[0]
        p = LorentzPoint.from_vector(x, 1.5)
        np.testing.assert_allclose(p.vector, x)

    def test_lorentz_point_rejects_off_manifold(self):
        with pytest.raises(ValueError):
            LorentzPoint.from_vector(np.array([1.0, 1.0, 1.0]), 1.0)

    def test_lorentz_point_rejects_lower_sheet(self):
        x = random_points(1, 3, 1.0)[0]
        x[-1] = -x[-1]
        with pytest.raises(ValueError):
            LorentzPoint.from_vector(x, 1.0)

    def test_from_euclidean(self):
        v = np.array([0.4, -0.7, 0.1])
        p = LorentzPoint.from_euclidean(v, 2.0)
        np.testing.assert_allclose(p.vector, exp_map_origin(v, 2.0).data)

    def test_tangent_vector_validation(self):
        kappa = 1.0
        p = LorentzPoint.from_vector(origin(3, kappa), kappa)
        TangentVector(np.array([0.1, 0.2, 0.3, 0.0]), p)  # tangent at origin
        with pytest.raises(ValueError):
            TangentVector(np.array([0.1, 0.2, 0.3, 1.0]), p)


class TestManifoldParams:
    def test_kappa_positive_for_any_log_value(self):
        params = ManifoldParams(embed_dim=16, init_kappa=1.0, store=ParamStore())
        params.log_kappa.data = np.array(-30.0)
        assert params.kappa.item() > 0

    def test_alpha_init_is_inverse_sqrt_dim(self):
        params = ManifoldParams(embed_dim=64, store=ParamStore())
        np.testing.assert_allclose(params.alpha("image").item(), 1 / 8, rtol=1e-12)
        np.testing.assert_allclose(params.alpha("text").item(), 1 / 8, rtol=1e-12)

    def test_registration_in_external_store(self):
        store = ParamStore()
        ManifoldParams(embed_dim=8, store=store)
        names = set(store.names())
        assert {"manifold.log_kappa", "manifold.log_alpha_img",
                "manifold.log_alpha_txt"} <= names
        assert all(n in store.no_decay for n in names)

    def test_lift_scales_before_exp_map(self):
        params = ManifoldParams(embed_dim=4, store=ParamStore())
        v = np.array([[0.5, -0.5, 0.25, 1.0]])
        out = lift(v, "image", params).data
        alpha = params.alpha("image").item()
        ref = exp_map_origin(alpha * v, params.kappa.item()).data
        np.testing.assert_allclose(out, ref, rtol=1e-12)

    def test_lift_rejects_unknown_side(self):
        params = ManifoldParams(embed_dim=4, store=ParamStore())
        with pytest.raises(ValueError):
            lift(np.ones((1, 4)), "audio", params)


@settings(max_examples=40, deadline=None)
@given(st.floats(0.1, 10.0), st.integers(0, 2 ** 31 - 1))
def test_membership_property(kappa, seed):
    v = np.random.default_rng(seed).standard_normal((8, 5)) * 0.5
    x = exp_map_origin(v, kappa).data
    inner = (x[:, :-1] ** 2).sum(-1) - x[:, -1] ** 2
    np.testing.assert_allclose(inner, -1.0 / kappa, atol=1e-8)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_distance_nonnegative_and_symmetric_property(seed):
    rng = np.random.default_rng(seed)
    x = exp_map_origin(rng.standard_normal((4, 3)), 1.0).data
    y = exp_map_origin(rng.standard_normal((4, 3)), 1.0).data
    dxy = geodesic_distance(Tensor(x), Tensor(y), 1.0).data
    dyx = geodesic_distance(Tensor(y), Tensor(x), 1.0).data
    assert (dxy >= 0).all()
    assert np.array_equal(dxy, dyx)
