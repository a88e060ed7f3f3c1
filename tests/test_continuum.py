"""Monte-Carlo geometry on the flat tori and the unit-area sphere."""

import math

import numpy as np
import pytest

from conftest import whole_block_cluster, whole_block_length, whole_block_sphere_pair
from netfunc.continuum import (BLOCK, SPACES, FlatTorus, SphereArea1, Torus2, Torus3,
                               _cluster_block, _length_block, continuum_ratio,
                               mc_characteristic_length, mc_mean_cluster)
from netfunc.errors import InvalidParam, RadiusTooLarge
from netfunc.rng import generator

SIX_KERNELS = [(space, quantity) for space in ("torus2", "torus3", "sphere_area1")
               for quantity in ("length", "cluster")]

# (sum, sum of squares) of blocks 0 (65,536 samples) and 30 (the 33,920-sample
# tail of a 2e6-sample run) at seed 5 and radius 0.01, as float.hex, from the
# whole-block kernels the sliced ones replaced
PINNED_BLOCKS = {
    ("torus2", "length"): (("0x1.877d41516b0d4p+14", "0x1.549fe64da0188p+13"),
                           ("0x1.93d3f9e08a095p+13", "0x1.5ede7b45141a5p+12")),
    ("torus2", "cluster"): (("0x1.461f070819292p+16", "0x1.005a3ba4606ecp+17"),
                            ("0x1.5200436b34f70p+15", "0x1.09c7ffc292647p+16")),
    ("torus3", "length"): (("0x1.eca4ac4b6718ap+14", "0x1.00d3de7128799p+14"),
                           ("0x1.fbbe5bb663396p+13", "0x1.07b39841c83a4p+13")),
    ("torus3", "cluster"): (("0x1.55e2c9e7845a6p+16", "0x1.00ee6a84b282ep+17"),
                            ("0x1.6168c79e81a84p+15", "0x1.0909498eaf439p+16")),
    ("sphere_area1", "length"): (("0x1.c5aa9250e7db4p+14", "0x1.ddbe005d45974p+13"),
                                 ("0x1.d517e4c639903p+13", "0x1.eec97a544359ap+12")),
    ("sphere_area1", "cluster"): (("0x1.4619376ff4c99p+16", "0x1.005362fc6afd8p+17"),
                                  ("0x1.51fa3f69d4cfcp+15", "0x1.09c0e8f4f1492p+16")),
}

# (estimate, std_error) of the 2e6-sample runs at seed 5 and radius 0.01
PINNED_RUNS = {
    ("torus2", "length"): ("0x1.87cc675a8b590p-2", "0x1.a637d2682129bp-14"),
    ("torus2", "cluster"): ("0x1.740e991f4f95ep-1", "0x1.c87244967f492p-12"),
    ("torus3", "length"): ("0x1.ebd4a19ee20a9p-2", "0x1.9c374c81a1c56p-14"),
    ("torus3", "cluster"): ("0x1.55b69c730877ep-1", "0x1.5d97a323ac39ap-12"),
    ("sphere_area1", "length"): ("0x1.c5b4182cfe57cp-2", "0x1.1df1ee85e280ep-13"),
    ("sphere_area1", "cluster"): ("0x1.741a3f43ec3bap-1", "0x1.c874e0c6b18bap-12"),
}

SLICED = (_length_block, _cluster_block)
WHOLE = (whole_block_length, whole_block_cluster)


def _block(kernels, space, quantity, block, count, seed, radius=0.01):
    length, cluster = kernels
    if quantity == "length":
        return length(space, block, count, seed)
    return cluster(space, block, count, seed, radius)


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


@pytest.mark.parametrize("seed", [0, 1, 5, 9])
@pytest.mark.parametrize("name, quantity", SIX_KERNELS)
def test_sliced_blocks_equal_whole_block_oracle(name, quantity, seed):
    # counts straddle the 4096-sample slices and include a 2e6 run's tail block
    space = SPACES[name]()
    for block in (0, 1, 30):
        for count in (2, 7, 4095, 4096, 4097, 33920, BLOCK):
            assert (_block(SLICED, space, quantity, block, count, seed)
                    == _block(WHOLE, space, quantity, block, count, seed)), (block, count)


@pytest.mark.parametrize("space, radius", [
    (Torus2(0.37), 0.09), (Torus3(2.5), 0.6), (SphereArea1(), 0.2), (Torus2(1e-100), 1e-105),
])
def test_sliced_blocks_equal_oracle_off_the_default_geometry(space, radius):
    # near the largest radius many sphere points wrap across the box
    for quantity in ("length", "cluster"):
        for seed, count in ((0, 4097), (1, BLOCK)):
            assert (_block(SLICED, space, quantity, 2, count, seed, radius)
                    == _block(WHOLE, space, quantity, 2, count, seed, radius))


@pytest.mark.parametrize("r", [1.0, 0.37, 2.5])
def test_torus_wrap_equals_mod(r):
    # x + r rounds to r just below 0, so the shift must be chosen before it
    edges = [-r / 4, -1e-300, -1e-20, -np.nextafter(0.0, 1.0), 0.0, np.nextafter(r, 0.0), r,
             np.nextafter(r, 2 * r), 5 * r / 4 - 1e-12]
    x = np.concatenate([edges, np.random.default_rng(0).uniform(-r / 4, 5 * r / 4, 5000)])
    assert np.array_equal(FlatTorus(2, r)._wrap(x), np.mod(x, r))


def test_sphere_frame_ties_equal_oracle():
    # centers whose smallest |component| is tied pin argmin's first-minimum rule
    s = SphereArea1()
    R = s.radius
    signs = [(i, j, k) for i in (-1, 1) for j in (-1, 1) for k in (-1, 1)]
    centers = np.array([[R, 0, 0], [0, R, 0], [0, 0, R], [-R, 0, 0], [0, -R, 0], [0, 0, -R]]
                       + [[R * i / math.sqrt(2), R * j / math.sqrt(2), 0] for i, j, _ in signs]
                       + [[0, R * i / math.sqrt(2), R * j / math.sqrt(2)] for i, j, _ in signs]
                       + [[R * i / math.sqrt(3), R * j / math.sqrt(3), R * k / math.sqrt(3)]
                          for i, j, k in signs])
    got = s.sample_sphere_pair(generator(8), centers, 0.05)
    want = whole_block_sphere_pair(s, generator(8), centers, 0.05)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


@pytest.mark.parametrize("name, quantity", SIX_KERNELS)
def test_block_sums_pinned(name, quantity):
    space = SPACES[name]()
    for (block, count), want in zip(((0, BLOCK), (30, 33920)), PINNED_BLOCKS[name, quantity]):
        got = _block(SLICED, space, quantity, block, count, seed=5)
        assert tuple(x.hex() for x in got) == want


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name, quantity", SIX_KERNELS)
def test_two_million_sample_runs_pinned(name, quantity, workers):
    space = SPACES[name]()
    if quantity == "length":
        est = mc_characteristic_length(space, 2_000_000, seed=5, workers=workers)
    else:
        est = mc_mean_cluster(space, 0.01, 2_000_000, seed=5, workers=workers)
    assert (est.estimate.hex(), est.std_error.hex()) == PINNED_RUNS[name, quantity]


@pytest.mark.parametrize("dim, side", [
    (2, math.inf), (3, 1e308), (2, math.nan), (3, 1e101), (2, 1e-101), (3, -math.inf),
])
def test_torus_side_out_of_range(dim, side):
    with pytest.raises(InvalidParam):
        FlatTorus(dim, side)


@pytest.mark.parametrize("side", [1e-100, 1e100])
def test_torus_side_range_ends_give_finite_estimates(side):
    # no overflow or underflow at either end, down to the smallest radius
    space = FlatTorus(3, side)
    mu = mc_characteristic_length(space, 20_000, seed=1)
    assert 0.45 < mu.estimate / side < 0.51 and 0 < mu.std_error / side < 0.01
    nu = mc_mean_cluster(space, space.min_radius(), 20_000, seed=1)
    assert abs((2 - nu.estimate) - 4 / 3) <= 4 * nu.std_error


@pytest.mark.parametrize("space, radius", [
    (SphereArea1(), 1e-9), (Torus2(1.0), 1e-200), (Torus3(2.0), 1.9e-5),
])
def test_radius_below_precision_limit(space, radius):
    assert radius < space.min_radius()
    with pytest.raises(InvalidParam):
        mc_mean_cluster(space, radius, 1000, seed=0)
    with pytest.raises(InvalidParam):
        continuum_ratio(space, radius, 1000, seed=0)


def test_sphere_cluster_at_smallest_radius_is_unbiased():
    space = SphereArea1()
    nu = mc_mean_cluster(space, space.min_radius(), 150_000, seed=3)
    assert abs(nu.estimate - (2 - 4 / math.pi)) <= 4 * nu.std_error
