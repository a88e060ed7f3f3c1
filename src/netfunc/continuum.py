"""Monte-Carlo estimators on flat tori and the unit-area round sphere.

Every space here is homogeneous, so each sample's distance comes straight from
the uniforms it depends on, with no points, centre, tangent frame or torus
wrap built on the way:

- length on the torus of side r: d(a, b) = d(0, b - a) by translation
  invariance, and b - a is uniform, so d = r·sqrt(sum_j min(u_j, 1 - u_j)^2)
  from one uniform u_j per coordinate;
- length on the sphere of radius R: by rotation a is the pole, and the height
  of b is uniform (Archimedes), so d = 2R·arcsin(sqrt(u));
- cluster on torus2: two points of the circle of radius rho differ by a
  uniform angle 2·pi·u, so their chord is d = 2·rho·sin(pi·u);
- cluster on torus3: the cosine of the angle between two uniform directions
  is uniform, so the chord is d = 2·rho·sqrt(u);
- cluster on the sphere: two points at geodesic distance rho from a centre
  differ by a uniform azimuth 2·pi·u, and the haversine formula gives
  d = 2R·arcsin(sin(rho/R)·sin(pi·u)).

A cluster radius lies below side/4 on a torus, so a chord is its own minimum
image.  Each sample has the distribution of the geometric construction, so
the estimators' expectations and variances are those of sampling a centre and
two points on its metric sphere.

Sampling is organized into fixed blocks of 2^16 samples; block b of a run
draws from the Philox substream (seed, tag, b).  Sample i of a block takes the
next `_length_draws` uniforms (length) or the next one (cluster) of that
stream, in sample order.  A block evaluates its samples over slices of
`_STEP`, drawing each slice's uniforms as it goes, so the temporaries stay in
cache.  Each sample's arithmetic is the same whatever slice it falls in, and a
block sums its values over the whole block.  Totals are reduced in block
order, so estimates are bit-identical for every worker count and every slice
size.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .errors import InvalidParam, RadiusTooLarge, UndefinedRatio

BLOCK = 1 << 16
_STEP = 1 << 12  # samples per slice: a slice's temporaries stay in cache
_LENGTH_TAG = 1
_CLUSTER_TAG = 2
# the squares of the lengths stay normal, and the sum of squares of any run
# stays finite
_MIN_SIDE, _MAX_SIDE = 1e-100, 1e100
# the accepted range of cluster radii starts at 1e-5 of the scale; the
# per-sample formulas keep their precision below it
_MIN_RADIUS_SCALE = 1e-5


class _Space:
    """A space gives `_length_draws`, the uniforms per length sample;
    `_lengths(u)`, the distances of the samples whose uniforms are the rows of
    a (count, _length_draws) table; and `_clusters(u, radius)`, d / radius
    for the samples of `count` uniforms."""

    def min_radius(self):
        """The smallest accepted cluster radius: 1e-5·scale, less two ulps,
        since the product can round above a radius written as 1e-5·scale."""
        floor = _MIN_RADIUS_SCALE * self.scale
        return math.nextafter(math.nextafter(floor, 0), 0)


@dataclass(frozen=True)
class FlatTorus(_Space):
    """Flat square (dim 2) or cubic (dim 3) torus of side r with the
    minimum-image metric."""

    dim: int
    r: float = 1.0

    def __post_init__(self):
        if self.dim not in (2, 3) or not _MIN_SIDE <= self.r <= _MAX_SIDE:
            raise InvalidParam(f"torus needs dim 2 or 3 and side in [{_MIN_SIDE}, "
                               f"{_MAX_SIDE}], got {self.dim}, {self.r}")

    @property
    def scale(self):
        return self.r

    def max_radius(self):
        return self.r / 4

    @property
    def _length_draws(self):
        return self.dim

    def _lengths(self, u):
        delta = np.minimum(u, 1 - u)
        delta *= delta
        return self.r * np.sqrt(sum(delta.T))  # by columns: faster than .sum(axis=1)

    def _clusters(self, u, radius):
        if self.dim == 2:
            return 2 * np.sin(math.pi * u)
        return 2 * np.sqrt(u)


Torus2 = functools.partial(FlatTorus, 2)
Torus3 = functools.partial(FlatTorus, 3)


@dataclass(frozen=True)
class SphereArea1(_Space):
    """Round 2-sphere of surface area 1 (radius 1/(2 sqrt(pi)))."""

    _length_draws = 1

    @property
    def radius(self):
        return 1.0 / (2.0 * math.sqrt(math.pi))

    @property
    def scale(self):
        return 1.0

    def max_radius(self):
        return math.pi * self.radius / 4

    def _lengths(self, u):
        return 2 * self.radius * np.arcsin(np.sqrt(u[:, 0]))

    def _clusters(self, u, radius):
        R = self.radius
        return (2 * R / radius) * np.arcsin(math.sin(radius / R) * np.sin(math.pi * u))


SPACES = {"torus2": Torus2, "torus3": Torus3, "sphere_area1": SphereArea1}


@dataclass
class MCEstimate:
    estimate: float
    std_error: float
    samples: int


def _blocks(samples):
    return [(b, min(BLOCK, samples - b * BLOCK))
            for b in range((samples + BLOCK - 1) // BLOCK)]


def _block_sums(count, values):
    """(sum, sum of squares) over a block of the values that `values(n)` gives
    for its next n samples, taken over slices of at most _STEP samples."""
    v = np.empty(count)
    for start in range(0, count, _STEP):
        n = min(_STEP, count - start)
        v[start:start + n] = values(n)
    return float(v.sum()), float((v * v).sum())


def _length_block(space, block, count, seed):
    gen = rng.generator(seed, _LENGTH_TAG, block)
    return _block_sums(count, lambda n: space._lengths(gen.random((n, space._length_draws))))


def _cluster_block(space, block, count, seed, radius):
    gen = rng.generator(seed, _CLUSTER_TAG, block)
    return _block_sums(count, lambda n: space._clusters(gen.random(n), radius))


def _run_blocks(fn, space, samples, seed, workers, *extra):
    calls = [(space, b, c, seed, *extra) for b, c in _blocks(samples)]
    partial = rng.ordered_map(fn, calls, workers)
    total = total_sq = 0.0
    for s, sq in partial:  # fixed block order: result independent of the split
        total += s
        total_sq += sq
    return total, total_sq


def _finish(total, total_sq, samples, transform=lambda mean: mean):
    mean = total / samples
    var = max(0.0, (total_sq - samples * mean * mean) / (samples - 1))
    return MCEstimate(transform(mean), math.sqrt(var / samples), samples)


def mc_characteristic_length(space, samples, seed, workers=1):
    """Mean distance between two independent uniform points, with its
    standard error."""
    if samples < 2:
        raise InvalidParam("need at least 2 samples")
    total, total_sq = _run_blocks(_length_block, space, samples, seed, workers)
    return _finish(total, total_sq, samples)


def mc_mean_cluster(space, radius, samples, seed, workers=1):
    """Estimate of 2 - E[d(a, b)] / radius for two uniform points a, b on the
    metric sphere of the given radius around a uniform center."""
    if samples < 2:
        raise InvalidParam("need at least 2 samples")
    if not radius > 0:
        raise InvalidParam(f"radius must be > 0, got {radius}")
    if radius >= space.max_radius():
        raise RadiusTooLarge(f"radius {radius} >= limit {space.max_radius()}")
    if radius < space.min_radius():
        raise InvalidParam(f"radius {radius} < limit {space.min_radius()}, "
                           "the smallest accepted")
    total, total_sq = _run_blocks(_cluster_block, space, samples, seed, workers, radius)
    return _finish(total, total_sq, samples, transform=lambda mean: 2.0 - mean)


def continuum_ratio(space, radius, samples, seed, workers=1):
    """Scale-free ratio (length / side) / log(1 / cluster); raises
    UndefinedRatio unless the cluster estimate lies in (0, 1)."""
    nu = mc_mean_cluster(space, radius, samples, seed, workers=workers).estimate
    if not nu > 0:
        raise UndefinedRatio("nu_at_most_zero")
    if not nu < 1:
        raise UndefinedRatio("nu_at_least_one")
    mu = mc_characteristic_length(space, samples, seed, workers=workers).estimate
    return (mu / space.scale) / math.log(1.0 / nu)
