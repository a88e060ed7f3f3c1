"""Monte-Carlo estimators on flat tori and the unit-area round sphere.

Sampling is organized into fixed blocks of 2^16 samples; block b of a run
draws from the Philox substream (seed, tag, b).  Totals are always reduced
in block order, so estimates are bit-identical no matter how blocks are
split across workers.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .errors import InvalidParam, RadiusTooLarge

BLOCK = 1 << 16
_LENGTH_TAG = 1
_CLUSTER_TAG = 2


@dataclass(frozen=True)
class FlatTorus:
    """Flat square (dim 2) or cubic (dim 3) torus of side r with the
    minimum-image metric."""

    dim: int
    r: float = 1.0

    def __post_init__(self):
        if self.dim not in (2, 3) or not self.r > 0:
            raise InvalidParam(f"torus needs dim 2 or 3 and side > 0, got {self.dim}, {self.r}")

    @property
    def scale(self):
        return self.r

    def max_radius(self):
        return self.r / 4

    def sample_points(self, gen, count):
        return gen.random((count, self.dim)) * self.r

    def distance(self, a, b):
        delta = np.abs(a - b)
        delta = np.minimum(delta, self.r - delta)
        return np.sqrt((delta * delta).sum(axis=1))

    def sample_sphere_pair(self, gen, centers, radius):
        out = []
        for _ in range(2):  # draw order per dimension fixes the seeded stream
            if self.dim == 2:
                phi = gen.random(len(centers)) * (2 * math.pi)
                unit = [np.cos(phi), np.sin(phi)]
            else:
                cos_theta = 1 - 2 * gen.random(len(centers))
                sin_theta = np.sqrt(np.maximum(0.0, 1 - cos_theta**2))
                phi = gen.random(len(centers)) * (2 * math.pi)
                unit = [sin_theta * np.cos(phi), sin_theta * np.sin(phi), cos_theta]
            out.append(np.mod(centers + radius * np.stack(unit, axis=1), self.r))
        return out


Torus2 = functools.partial(FlatTorus, 2)
Torus3 = functools.partial(FlatTorus, 3)


@dataclass(frozen=True)
class SphereArea1:
    """Round 2-sphere of surface area 1 (radius 1/(2 sqrt(pi)))."""

    @property
    def radius(self):
        return 1.0 / (2.0 * math.sqrt(math.pi))

    @property
    def scale(self):
        return 1.0

    def max_radius(self):
        return math.pi * self.radius / 4

    def sample_points(self, gen, count):
        z = self.radius * (1 - 2 * gen.random(count))
        phi = gen.random(count) * (2 * math.pi)
        rho = np.sqrt(np.maximum(0.0, self.radius**2 - z * z))
        return np.stack([rho * np.cos(phi), rho * np.sin(phi), z], axis=1)

    def distance(self, a, b):
        cos = (a * b).sum(axis=1) / (self.radius**2)
        return self.radius * np.arccos(np.clip(cos, -1.0, 1.0))

    def sample_sphere_pair(self, gen, centers, radius):
        R = self.radius
        axis = centers / R
        # orthonormal frame at each center: helper axis avoids near-parallel picks
        helper = np.zeros_like(axis)
        helper[np.arange(len(axis)), np.argmin(np.abs(axis), axis=1)] = 1.0
        e1 = np.cross(helper, axis)
        e1 /= np.linalg.norm(e1, axis=1, keepdims=True)
        e2 = np.cross(axis, e1)
        theta = radius / R  # geodesic radius as a colatitude
        out = []
        for _ in range(2):
            phi = gen.random(len(centers)) * (2 * math.pi)
            direction = (math.cos(theta) * axis
                         + math.sin(theta) * (np.cos(phi)[:, None] * e1
                                              + np.sin(phi)[:, None] * e2))
            out.append(R * direction)
        return out


SPACES = {"torus2": Torus2, "torus3": Torus3, "sphere_area1": SphereArea1}


@dataclass
class MCEstimate:
    estimate: float
    std_error: float
    samples: int


def _blocks(samples):
    return [(b, min(BLOCK, samples - b * BLOCK))
            for b in range((samples + BLOCK - 1) // BLOCK)]


def _length_block(space, block, count, seed):
    gen = rng.generator(seed, _LENGTH_TAG, block)
    a = space.sample_points(gen, count)
    b = space.sample_points(gen, count)
    d = space.distance(a, b)
    return float(d.sum()), float((d * d).sum())


def _cluster_block(space, block, count, seed, radius):
    gen = rng.generator(seed, _CLUSTER_TAG, block)
    centers = space.sample_points(gen, count)
    a, b = space.sample_sphere_pair(gen, centers, radius)
    v = space.distance(a, b) / radius
    return float(v.sum()), float((v * v).sum())


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
    total, total_sq = _run_blocks(_cluster_block, space, samples, seed, workers, radius)
    return _finish(total, total_sq, samples, transform=lambda mean: 2.0 - mean)


def continuum_ratio(space, radius, samples, seed, workers=1):
    """Scale-free ratio (length / side) / log(1 / cluster)."""
    nu = mc_mean_cluster(space, radius, samples, seed, workers=workers).estimate
    mu = mc_characteristic_length(space, samples, seed, workers=workers).estimate
    return (mu / space.scale) / math.log(1.0 / nu)
