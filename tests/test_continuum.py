"""Monte-Carlo estimators on the flat tori and the unit-area sphere, against
the geometric whole-block kernels of conftest."""

import math
from unittest import mock

import numpy as np
import pytest

from conftest import (whole_block_cluster, whole_block_distance, whole_block_length,
                      whole_block_points, whole_block_sphere_pair)
from netfunc import continuum
from netfunc.continuum import (BLOCK, SPACES, FlatTorus, SphereArea1, Torus2, Torus3,
                               _cluster_block, _length_block, continuum_ratio,
                               mc_characteristic_length, mc_mean_cluster)
from netfunc.errors import InvalidParam, RadiusTooLarge, UndefinedRatio
from netfunc.rng import generator

SIX_KERNELS = [(space, quantity) for space in ("torus2", "torus3", "sphere_area1")
               for quantity in ("length", "cluster")]

# (sum, sum of squares) of blocks 0 (65,536 samples) and 30 (the 33,920-sample
# tail of a 2e6-sample run) at seed 5 and radius 0.01, as float.hex
PINNED_BLOCKS = {
    ("torus2", "length"): (("0x1.87d3fb11ecd32p+14", "0x1.54e55268b4cd6p+13"),
                           ("0x1.94d4b259095f8p+13", "0x1.609cae7a4b9f2p+12")),
    ("torus2", "cluster"): (("0x1.473f204819dfdp+16", "0x1.01af1ca6e2cc8p+17"),
                            ("0x1.50627dffd29c8p+15", "0x1.080b2aa42cb00p+16")),
    ("torus3", "length"): (("0x1.ebdfde42dc197p+14", "0x1.ffffb3bfdd8b4p+13"),
                           ("0x1.fc75cdef0b9f8p+13", "0x1.087482a2b74b2p+13")),
    ("torus3", "cluster"): (("0x1.566ab88f050a5p+16", "0x1.01304c441b918p+17"),
                            ("0x1.60e2f229c909cp+15", "0x1.08b890bad218cp+16")),
    ("sphere_area1", "length"): (("0x1.c679b48a3e5c0p+14", "0x1.dfbfbf8808654p+13"),
                                 ("0x1.d4bb2b22168d2p+13", "0x1.eddb0d62b53fbp+12")),
    ("sphere_area1", "cluster"): (("0x1.473952d864220p+16", "0x1.01a83fc459d9fp+17"),
                                  ("0x1.505c7701c21d8p+15", "0x1.08040f1aeac38p+16")),
}

# (estimate, std_error) of the 2e6-sample runs at seed 5 and radius 0.01
PINNED_RUNS = {
    ("torus2", "length"): ("0x1.87b8ec8e29fa1p-2", "0x1.a68ca1eebaa07p-14"),
    ("torus2", "cluster"): ("0x1.73c4a124c14d8p-1", "0x1.c840beb5cdeffp-12"),
    ("torus3", "length"): ("0x1.ebd397ab9674ep-2", "0x1.9c6ef80878bfdp-14"),
    ("torus3", "cluster"): ("0x1.552900a724450p-1", "0x1.5d607296497dfp-12"),
    ("sphere_area1", "length"): ("0x1.c5e437162f6c6p-2", "0x1.1debf8154227bp-13"),
    ("sphere_area1", "cluster"): ("0x1.73d04812ceeb2p-1", "0x1.c8435a18660eap-12"),
}

# the default geometry, then spaces whose largest radius reaches a quarter of
# a small or large box, and the smallest torus at its smallest radius
GEOMETRIES = [(Torus2(1.0), 0.01), (Torus3(1.0), 0.01), (SphereArea1(), 0.01),
              (Torus2(0.37), 0.09), (Torus3(2.5), 0.6), (SphereArea1(), 0.2),
              (Torus2(1e-100), 1e-105)]


def _block(space, quantity, block, count, seed, radius=0.01):
    if quantity == "length":
        return _length_block(space, block, count, seed)
    return _cluster_block(space, block, count, seed, radius)


def _whole_block(space, quantity, block, count, seed, radius=0.01):
    """The block evaluated as one slice."""
    with mock.patch.object(continuum, "_STEP", BLOCK):
        return _block(space, quantity, block, count, seed, radius)


def _estimate(space, quantity, samples, seed, radius=0.01):
    if quantity == "length":
        return mc_characteristic_length(space, samples, seed)
    return mc_mean_cluster(space, radius, samples, seed)


def _geodesic(space, a, b):
    """Distance between the rows of a and b; on the sphere from the chord, as
    arccos loses half its digits between near points."""
    if isinstance(space, FlatTorus):
        return whole_block_distance(space, a, b)
    half_chord = np.linalg.norm(a - b, axis=1) / (2 * space.radius)
    return 2 * space.radius * np.arcsin(np.minimum(half_chord, 1.0))


def _check_cluster_formula(space, radius, centers):
    """On the points that whole_block_sphere_pair puts around `centers`, the
    formula at the uniform it reduces to equals their geometric distance."""
    count = len(centers)
    a, b = whole_block_sphere_pair(space, generator(8), centers, radius)
    # the same uniforms, in whole_block_sphere_pair's draw order
    per_point = 2 if isinstance(space, FlatTorus) and space.dim == 3 else 1
    u = generator(8).random((2 * per_point, count))
    if per_point == 1:  # an azimuth each: their difference over 2 pi
        w = np.mod(u[0] - u[1], 1.0)
    else:  # cos theta, then phi, of each direction: w = (1 - cos gamma) / 2
        cos_a, cos_b = 1 - 2 * u[0], 1 - 2 * u[2]
        sin_a, sin_b = np.sqrt(1 - cos_a**2), np.sqrt(1 - cos_b**2)
        cos_gamma = cos_a * cos_b + sin_a * sin_b * np.cos(2 * math.pi * (u[1] - u[3]))
        w = (1 - cos_gamma) / 2
    got = space._clusters(w, radius) * radius
    assert np.abs(got - _geodesic(space, a, b)).max() <= 1e-12 * radius


def test_torus_minimum_image_distance():
    t = Torus2(1.0)
    d = whole_block_distance(t, np.array([[0.0, 0.0]]), np.array([[0.9, 0.0]]))
    assert d[0] == pytest.approx(0.1, abs=1e-15)
    d = whole_block_distance(t, np.array([[0.1, 0.95]]), np.array([[0.9, 0.05]]))
    assert d[0] == pytest.approx(math.hypot(0.2, 0.1), abs=1e-12)


def test_sphere_geometry():
    s = SphereArea1()
    assert 4 * math.pi * s.radius**2 == pytest.approx(1.0)
    north = np.array([[0.0, 0.0, s.radius]])
    south = -north
    assert whole_block_distance(s, north, south)[0] == pytest.approx(math.pi * s.radius)
    pts = whole_block_points(s, generator(3), 1000)
    assert np.allclose(np.linalg.norm(pts, axis=1), s.radius)
    a, b = whole_block_sphere_pair(s, generator(4), pts, 0.05)
    assert np.allclose(np.linalg.norm(a, axis=1), s.radius)
    assert np.allclose(whole_block_distance(s, pts, a), 0.05, atol=1e-12)


def test_torus_sphere_points_at_radius():
    t = Torus3(1.0)
    centers = whole_block_points(t, generator(5), 500)
    a, b = whole_block_sphere_pair(t, generator(6), centers, 0.02)
    assert np.allclose(whole_block_distance(t, centers, a), 0.02, atol=1e-12)
    assert np.allclose(whole_block_distance(t, centers, b), 0.02, atol=1e-12)


@pytest.mark.parametrize("space", [Torus2(1.0), Torus3(1.0), SphereArea1(), Torus2(0.37),
                                   Torus3(2.5)])
def test_length_formula_is_the_geometric_distance(space):
    gen = generator(9)
    a, b = whole_block_points(space, gen, 2000), whole_block_points(space, gen, 2000)
    if isinstance(space, FlatTorus):  # b - a, the point that a moves to the origin
        u = np.mod((b - a) / space.r, 1.0)
    else:  # the height of b with a at the pole, as a uniform
        u = ((1 - (a * b).sum(axis=1) / space.radius**2) / 2)[:, None]
    got = space._lengths(u)
    assert np.abs(got - _geodesic(space, a, b)).max() <= 1e-12 * space.scale


@pytest.mark.parametrize("space, radius", GEOMETRIES[:-1])
def test_cluster_formula_is_the_geometric_distance(space, radius):
    centers = whole_block_points(space, generator(7), 2000)
    if isinstance(space, FlatTorus):
        # every other center within the radius of a face, so its points wrap
        gen = generator(10)
        near = gen.random((1000, space.dim)) * radius
        centers[::2] = np.where(gen.random(near.shape) < 0.5, near, space.r - near)
    _check_cluster_formula(space, radius, centers)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("space, radius", GEOMETRIES)
def test_estimates_agree_with_geometric_kernels(space, radius, seed):
    # the geometric kernels run on other seeds, so the two estimates are
    # independent
    for quantity in ("length", "cluster"):
        new = _estimate(space, quantity, 100_000, seed, radius)
        with mock.patch.object(continuum, "_length_block", whole_block_length), \
                mock.patch.object(continuum, "_cluster_block", whole_block_cluster):
            old = _estimate(space, quantity, 100_000, seed + 100, radius)
        gap = abs(new.estimate - old.estimate)
        assert gap <= 4 * math.hypot(new.std_error, old.std_error), quantity


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


def test_ratio_undefined_unless_cluster_estimate_in_unit_interval():
    # at 2 samples the cluster estimate often reaches 1
    undefined = 0
    for name in ("torus2", "torus3", "sphere_area1"):
        space = SPACES[name]()
        for seed in range(10):
            nu = mc_mean_cluster(space, 0.01, 2, seed).estimate
            if 0 < nu < 1:
                assert continuum_ratio(space, 0.01, 2, seed) > 0
            else:
                with pytest.raises(UndefinedRatio, match="nu_at_least_one"):
                    continuum_ratio(space, 0.01, 2, seed)
                undefined += 1
    assert undefined > 0


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
            assert (_block(space, quantity, block, count, seed)
                    == _whole_block(space, quantity, block, count, seed)), (block, count)


@pytest.mark.parametrize("space, radius", GEOMETRIES[3:])
def test_sliced_blocks_equal_oracle_off_the_default_geometry(space, radius):
    for quantity in ("length", "cluster"):
        for seed, count in ((0, 4097), (1, BLOCK)):
            assert (_block(space, quantity, 2, count, seed, radius)
                    == _whole_block(space, quantity, 2, count, seed, radius))


def test_sphere_frame_ties_equal_oracle():
    # centers whose smallest |component| is tied, where the geometric kernel's
    # tangent frame takes argmin's first minimum
    s = SphereArea1()
    R = s.radius
    signs = [(i, j, k) for i in (-1, 1) for j in (-1, 1) for k in (-1, 1)]
    centers = np.array([[R, 0, 0], [0, R, 0], [0, 0, R], [-R, 0, 0], [0, -R, 0], [0, 0, -R]]
                       + [[R * i / math.sqrt(2), R * j / math.sqrt(2), 0] for i, j, _ in signs]
                       + [[0, R * i / math.sqrt(2), R * j / math.sqrt(2)] for i, j, _ in signs]
                       + [[R * i / math.sqrt(3), R * j / math.sqrt(3), R * k / math.sqrt(3)]
                          for i, j, k in signs])
    _check_cluster_formula(s, 0.05, centers)


@pytest.mark.parametrize("name, quantity", SIX_KERNELS)
def test_block_sums_pinned(name, quantity):
    space = SPACES[name]()
    for (block, count), want in zip(((0, BLOCK), (30, 33920)), PINNED_BLOCKS[name, quantity]):
        got = _block(space, quantity, block, count, seed=5)
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
