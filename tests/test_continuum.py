"""Monte-Carlo geometry on the flat tori and the unit-area sphere."""

import math

import numpy as np
import pytest

from netfunc.continuum import (SphereArea1, Torus2, Torus3, continuum_ratio,
                               mc_characteristic_length, mc_mean_cluster)
from netfunc.errors import InvalidParam, RadiusTooLarge
from netfunc.rng import generator


def test_torus_minimum_image_distance():
    t = Torus2(1.0)
    d = t.distance(np.array([[0.0, 0.0]]), np.array([[0.9, 0.0]]))
    assert d[0] == pytest.approx(0.1, abs=1e-15)
    d = t.distance(np.array([[0.1, 0.95]]), np.array([[0.9, 0.05]]))
    assert d[0] == pytest.approx(math.hypot(0.2, 0.1), abs=1e-12)


def test_sphere_geometry():
    s = SphereArea1()
    assert 4 * math.pi * s.radius**2 == pytest.approx(1.0)
    north = np.array([[0.0, 0.0, s.radius]])
    south = -north
    assert s.distance(north, south)[0] == pytest.approx(math.pi * s.radius)
    pts = s.sample_points(generator(3), 1000)
    assert np.allclose(np.linalg.norm(pts, axis=1), s.radius)
    a, b = s.sample_sphere_pair(generator(4), pts, 0.05)
    assert np.allclose(np.linalg.norm(a, axis=1), s.radius)
    assert np.allclose(s.distance(pts, a), 0.05, atol=1e-12)


def test_torus_sphere_points_at_radius():
    t = Torus3(1.0)
    centers = t.sample_points(generator(5), 500)
    a, b = t.sample_sphere_pair(generator(6), centers, 0.02)
    assert np.allclose(t.distance(centers, a), 0.02, atol=1e-12)
    assert np.allclose(t.distance(centers, b), 0.02, atol=1e-12)


def test_estimates_deterministic():
    a = mc_characteristic_length(Torus2(1.0), 50_000, seed=9)
    b = mc_characteristic_length(Torus2(1.0), 50_000, seed=9)
    assert a.estimate == b.estimate and a.std_error == b.std_error
    c = mc_mean_cluster(Torus3(1.0), 0.01, 30_000, seed=9)
    d = mc_mean_cluster(Torus3(1.0), 0.01, 30_000, seed=9)
    assert c.estimate == d.estimate


def test_worker_split_identical():
    one = mc_characteristic_length(Torus2(1.0), 200_000, seed=4, workers=1)
    two = mc_characteristic_length(Torus2(1.0), 200_000, seed=4, workers=3)
    assert one.estimate == two.estimate
    assert one.std_error == two.std_error


def test_scaling_homogeneity():
    # length scales linearly with the torus side
    small = mc_characteristic_length(Torus2(1.0), 150_000, seed=2)
    big = mc_characteristic_length(Torus2(3.0), 150_000, seed=2)
    scaled_se = 3 * small.std_error + big.std_error
    assert abs(big.estimate / 3 - small.estimate) <= 3 * scaled_se


def test_flat_constants_quick():
    mu = mc_characteristic_length(Torus2(1.0), 150_000, seed=1)
    assert abs(mu.estimate - 0.382598) <= 4 * mu.std_error
    nu = mc_mean_cluster(Torus2(1.0), 0.01, 150_000, seed=1)
    assert abs(nu.estimate - (2 - 4 / math.pi)) <= 4 * nu.std_error
    sphere_mean = mc_mean_cluster(Torus3(1.0), 0.01, 150_000, seed=1)
    assert abs((2 - sphere_mean.estimate) - 4 / 3) <= 4 * sphere_mean.std_error


def test_sphere_cluster_matches_tangent_plane_limit():
    nu = mc_mean_cluster(SphereArea1(), 0.005, 150_000, seed=3)
    assert abs(nu.estimate - (2 - 4 / math.pi)) <= 4 * nu.std_error + 1e-4


def test_ratio_quick():
    lam = continuum_ratio(Torus3(1.0), 0.01, 150_000, seed=1)
    assert lam == pytest.approx(0.480296 / math.log(1.5), abs=0.01)


def test_radius_and_sample_guards():
    with pytest.raises(RadiusTooLarge):
        mc_mean_cluster(Torus2(1.0), 0.3, 1000, seed=0)
    with pytest.raises(RadiusTooLarge):
        mc_mean_cluster(SphereArea1(), 0.5, 1000, seed=0)
    with pytest.raises(InvalidParam):
        mc_characteristic_length(Torus2(1.0), 1, seed=0)


@pytest.mark.parametrize("radius", [-0.01, 0.0, float("nan")])
def test_radius_must_be_positive(radius):
    with pytest.raises(InvalidParam):
        mc_mean_cluster(Torus2(1.0), radius, 1000, seed=0)
    with pytest.raises(InvalidParam):
        continuum_ratio(Torus2(1.0), radius, 1000, seed=0)
