"""Acceptance Monte Carlo: emission, transport, ray tests, convergence."""

import concurrent.futures
import dataclasses
import math

import numpy as np
import pytest
from scipy import integrate, stats

from pepsearch import core, efficiency
from pepsearch.errors import DomainError


def slab_escape_quadrature(thickness_cm, att_cm):
    """Volume-and-angle-averaged escape fraction for an infinite slab.

    Uniform emission depth, isotropic direction; photons exit through
    whichever flat face the ray reaches.  Reduced by symmetry to the
    upward hemisphere against the distance-to-top integrand.
    """
    def integrand(mu, x):
        return math.exp(-x / (att_cm * mu))

    val, _ = integrate.dblquad(integrand, 0.0, thickness_cm,
                               lambda x: 1e-9, lambda x: 1.0,
                               epsabs=1e-12, epsrel=1e-10)
    return val / thickness_cm


class TestSampleEmission:
    def test_uniform_depth_and_isotropy(self, cfg):
        g = cfg.geometry
        rng = np.random.default_rng(1)
        points, directions = efficiency.sample_emission(g, rng, 1_000_000)
        half_t = g.strip_thickness_cm / 2
        assert np.all(np.abs(points[:, 2]) <= half_t)
        assert np.all(np.abs(points[:, 0]) <= g.strip_length_cm / 2)
        # uniform in z: mean 0 within 4 sigma of t/sqrt(12n)
        tol = 4 * g.strip_thickness_cm / math.sqrt(12 * 1_000_000)
        assert abs(points[:, 2].mean()) < tol
        # isotropy: cos(theta) uniform on [-1, 1]
        dz = directions[:, 2]
        assert abs(dz.mean()) < 4 / math.sqrt(3 * 1_000_000)
        norms = np.linalg.norm(directions, axis=1)
        assert np.allclose(norms, 1.0, atol=1e-12)

    def test_zero_thickness(self):
        g = core.GeometryConfig(strip_thickness_cm=0.0)
        rng = np.random.default_rng(2)
        points, _ = efficiency.sample_emission(g, rng, 1000)
        assert np.all(points[:, 2] == 0.0)


class TestExitDistance:
    def setup_method(self):
        self.g = core.GeometryConfig()  # 10 x 2 x 0.005 box

    def test_axis_rays(self):
        pts = np.zeros((3, 3))
        dirs = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, -1.0, 0.0]])
        d = efficiency.exit_distance(pts, dirs, self.g)
        assert d == pytest.approx([0.0025, 5.0, 1.0])

    def test_oblique_ray(self):
        pts = np.array([[0.0, 0.0, 0.0]])
        dirs = np.array([[0.0, 0.6, 0.8]])
        d = efficiency.exit_distance(pts, dirs, self.g)
        # z face at 0.0025/0.8 long before the y face at 1/0.6
        assert d[0] == pytest.approx(0.0025 / 0.8)

    def test_on_surface_outward(self):
        pts = np.array([[0.0, 0.0, 0.0025]])
        dirs = np.array([[0.0, 0.0, 1.0]])
        assert efficiency.exit_distance(pts, dirs, self.g)[0] == 0.0


class TestTransmission:
    def setup_method(self):
        self.g = core.GeometryConfig()
        self.c = core.PhysicsConstants()

    def test_surface_emission_outward(self):
        pts = np.array([[0.0, 0.0, 0.0025]])
        dirs = np.array([[0.0, 0.0, 1.0]])
        p = efficiency.transmission_probability(pts, dirs, self.g, self.c)
        assert p[0] == 1.0

    def test_one_attenuation_length(self):
        # default strip (50 um) is thinner than lambda_Cu (21 um fits, but
        # only just); use a 100 um slab so the test point is clearly inside
        depth = self.c.cu_attenuation_length_cm
        g = core.GeometryConfig(strip_thickness_cm=0.01)
        pts = np.array([[0.0, 0.0, 0.005 - depth]])
        dirs = np.array([[0.0, 0.0, 1.0]])
        p = efficiency.transmission_probability(pts, dirs, g, self.c)
        assert p[0] == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_slab_escape_matches_quadrature(self):
        oracle = slab_escape_quadrature(self.g.strip_thickness_cm,
                                        self.c.cu_attenuation_length_cm)
        rng = np.random.default_rng(31)
        points, directions = efficiency.sample_emission(self.g, rng, 400_000)
        mc = efficiency.transmission_probability(points, directions, self.g,
                                                 self.c).mean()
        assert mc == pytest.approx(oracle, rel=0.01)


class TestAccepts:
    def test_half_space_plate(self):
        plate = core.DetectorPlate(0, 0.0, 0.0, 1.0, 1e6, 1e6, -1)
        g = core.GeometryConfig(detectors=(plate,))
        rng = np.random.default_rng(4)
        _, directions = efficiency.sample_emission(g, rng, 100_000)
        exit_points = np.zeros((100_000, 3))
        accepted, det = efficiency.accepts(exit_points, directions, g)
        frac = accepted.mean()
        assert frac == pytest.approx(0.5, abs=4 * 0.5 / math.sqrt(100_000))
        assert np.all(det[accepted] == 0)
        assert np.all(det[~accepted] == -1)

    def test_zero_area_never_accepts(self):
        plate = core.DetectorPlate(0, 0.0, 0.0, 1.0, 0.0, 0.0, -1)
        g = core.GeometryConfig(detectors=(plate,))
        pts = np.zeros((1, 3))
        dirs = np.array([[0.0, 0.0, 1.0]])  # aimed exactly at the center
        accepted, _ = efficiency.accepts(pts, dirs, g)
        assert not accepted[0]

    def test_small_plate_solid_angle(self):
        a_side, r = 0.2, 2.0
        plate = core.DetectorPlate(0, 0.0, 0.0, r, a_side, a_side, -1)
        g = core.GeometryConfig(detectors=(plate,))
        rng = np.random.default_rng(6)
        _, directions = efficiency.sample_emission(g, rng, 2_000_000)
        exit_points = np.zeros((2_000_000, 3))
        accepted, _ = efficiency.accepts(exit_points, directions, g)
        expect = a_side * a_side / (4 * math.pi * r * r)
        assert accepted.mean() == pytest.approx(expect, rel=0.10)

    def test_wrong_side_never_accepts(self):
        plate = core.DetectorPlate(0, 0.0, 0.0, 1.0, 10.0, 10.0, -1)
        g = core.GeometryConfig(detectors=(plate,))
        pts = np.zeros((1, 3))
        dirs = np.array([[0.0, 0.0, -1.0]])   # heading away from the plate
        accepted, _ = efficiency.accepts(pts, dirs, g)
        assert not accepted[0]

    def test_nearest_plate_wins(self):
        near = core.DetectorPlate(0, 0.0, 0.0, 1.0, 10.0, 10.0, -1)
        far = core.DetectorPlate(1, 0.0, 0.0, 2.0, 10.0, 10.0, -1)
        g = core.GeometryConfig(detectors=(near, far))
        pts = np.zeros((1, 3))
        dirs = np.array([[0.0, 0.0, 1.0]])
        accepted, det = efficiency.accepts(pts, dirs, g)
        assert accepted[0] and det[0] == 0


class TestAbsorption:
    def test_normal_incidence(self):
        c = core.PhysicsConstants()  # 450 um silicon, 70 um attenuation
        dirs = np.array([[0.0, 0.0, 1.0]])
        p = efficiency.absorption_probability(dirs, c)
        assert p[0] == pytest.approx(-math.expm1(-0.045 / 0.007), rel=1e-12)
        assert p[0] == pytest.approx(0.998, abs=5e-4)

    def test_oblique_path_longer(self):
        c = core.PhysicsConstants()
        straight = efficiency.absorption_probability(
            np.array([[0.0, 0.0, 1.0]]), c)[0]
        oblique = efficiency.absorption_probability(
            np.array([[0.8, 0.0, 0.6]]), c)[0]
        assert oblique > straight


class TestRunEfficiency:
    def test_default_geometry_band(self, cfg):
        res = efficiency.run_efficiency(cfg.geometry, cfg.constants,
                                        200_000, seed=3)
        assert 0.005 <= res.efficiency <= 0.02
        assert res.mc_uncertainty / res.efficiency < 0.05
        bernoulli = math.sqrt(res.efficiency * (1 - res.efficiency)
                              / res.samples)
        assert 0.5 < res.mc_uncertainty / bernoulli < 2.0

    def test_breakdown_bounds(self, cfg):
        res = efficiency.run_efficiency(cfg.geometry, cfg.constants,
                                        200_000, seed=3)
        trans, accept, absorb = res.breakdown
        product_bound = trans * accept * absorb
        assert product_bound <= res.efficiency <= min(trans, accept)
        assert 0.9 < absorb <= 1.0

    def test_determinism_and_worker_independence(self, cfg):
        a = efficiency.run_efficiency(cfg.geometry, cfg.constants, 60_000,
                                      seed=9, batch_size=16_384)
        b = efficiency.run_efficiency(cfg.geometry, cfg.constants, 60_000,
                                      seed=9, batch_size=16_384)
        assert a == b
        c = efficiency.run_efficiency(cfg.geometry, cfg.constants, 60_000,
                                      seed=9, batch_size=16_384, workers=2)
        assert a == c

    def test_pool_capped_at_batch_count(self, cfg, monkeypatch):
        # a stand-in pool that records its size and runs each task inline,
        # so no process is started
        sizes = []

        class InlinePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = concurrent.futures.Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(efficiency, "ProcessPoolExecutor", InlinePool)
        pooled = efficiency.run_efficiency(cfg.geometry, cfg.constants,
                                           60_000, seed=9, batch_size=16_384,
                                           workers=5000)
        assert sizes == [4]      # 3 full batches and a remainder
        assert pooled == efficiency.run_efficiency(
            cfg.geometry, cfg.constants, 60_000, seed=9, batch_size=16_384)

    def test_minimum_samples(self, cfg):
        with pytest.raises(DomainError):
            efficiency.run_efficiency(cfg.geometry, cfg.constants, 9_999,
                                      seed=1)

    def test_no_detectors_zero(self, cfg):
        g = dataclasses.replace(cfg.geometry, detectors=())
        res = efficiency.run_efficiency(g, cfg.constants, 20_000, seed=1)
        assert res.efficiency == 0.0
        assert res.breakdown[1] == 0.0

    def test_monotone_in_detector_area(self, cfg):
        effs = []
        for scale in (0.5, 1.0, 2.0):
            plates = tuple(dataclasses.replace(
                p, width_x_cm=p.width_x_cm * scale,
                width_y_cm=p.width_y_cm * scale)
                for p in cfg.geometry.detectors)
            g = dataclasses.replace(cfg.geometry, detectors=plates)
            effs.append(efficiency.run_efficiency(
                g, cfg.constants, 100_000, seed=12).efficiency)
        assert effs[0] < effs[1] < effs[2]

    def test_monotone_in_strip_thickness(self, cfg):
        effs = []
        for t in (0.0025, 0.005, 0.01):
            g = dataclasses.replace(cfg.geometry, strip_thickness_cm=t)
            effs.append(efficiency.run_efficiency(
                g, cfg.constants, 100_000, seed=12).efficiency)
        assert effs[0] > effs[1] > effs[2]

    def test_monotone_in_si_thickness(self, cfg):
        effs = []
        for t in (0.005, 0.045, 0.2):
            c = dataclasses.replace(cfg.constants, sdd_thickness_cm=t)
            effs.append(efficiency.run_efficiency(
                cfg.geometry, c, 100_000, seed=12).efficiency)
        assert effs[0] < effs[1] < effs[2]

    def test_variance_halves_with_doubled_samples(self, cfg):
        small = [efficiency.run_efficiency(cfg.geometry, cfg.constants,
                                           25_000, seed=1000 + i).efficiency
                 for i in range(30)]
        big = [efficiency.run_efficiency(cfg.geometry, cfg.constants,
                                         50_000, seed=2000 + i).efficiency
               for i in range(30)]
        ratio = np.var(small, ddof=1) / np.var(big, ddof=1)
        bound = stats.f.ppf(0.995, 29, 29)
        assert ratio / 2.0 < bound
        assert ratio / 2.0 > 1.0 / bound

    def test_report_round_trip(self, cfg):
        res = efficiency.run_efficiency(cfg.geometry, cfg.constants, 50_000,
                                        seed=5)
        text = efficiency.render_efficiency_report(res)
        back = efficiency.parse_efficiency_report(text)
        assert back.samples == res.samples
        assert back.efficiency == pytest.approx(res.efficiency, rel=1e-5)
        assert back.breakdown[0] == pytest.approx(res.breakdown[0], abs=1e-6)

    def test_parse_rejects_incomplete(self):
        with pytest.raises(DomainError):
            efficiency.parse_efficiency_report("efficiency = 0.01\n")
