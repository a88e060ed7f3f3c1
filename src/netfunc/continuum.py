"""Monte-Carlo estimators on flat tori and the unit-area round sphere.

Sampling is organized into fixed blocks of 2^16 samples; block b of a run
draws from the Philox substream (seed, tag, b).  A block takes all its
uniforms in one draw, then evaluates its samples over slices of `_STEP`
samples, one array per coordinate, so the temporaries stay in cache.  Each
sample's arithmetic is the same whatever slice it falls in, and a block sums
its values over the whole block.  Totals are reduced in block order, so
estimates are bit-identical for every worker count and every slice size.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .errors import InvalidParam, RadiusTooLarge

BLOCK = 1 << 16
_STEP = 1 << 12  # samples per slice: a slice's few dozen temporaries fit in L2
_LENGTH_TAG = 1
_CLUSTER_TAG = 2
# squares of distances down to 1e-5 of the side stay normal, and the sum of
# squares of any run stays finite
_MIN_SIDE, _MAX_SIDE = 1e-100, 1e100
# below 1e-5 of the scale the rounding of the cosines (sphere) or coordinates
# (torus) stops being negligible against the standard error of a cluster run
_MIN_RADIUS_SCALE = 1e-5


def _by_draw(u, draws, count):
    """(count, draws) view of u when u holds `draws` runs of `count` uniforms."""
    return u.reshape(draws, count).T


class _ColumnSpace:
    """Array-level wrappers over a space's column kernels.

    A space gives `_point_draws` and `_pair_draws`, the uniforms per point and
    per pair of sphere points; `_point_table(u, count)`, the (count,
    _point_draws) view of one point per row; `_points(table)`, coordinate
    columns from such rows; `_distance(a, b)` between coordinate columns; and
    `_sphere_pair(centers, table, radius)`, two points on the metric sphere
    around each center, from a (count, _pair_draws) table."""

    def sample_points(self, gen, count):
        table = self._point_table(gen.random(self._point_draws * count), count)
        return np.stack(self._points(table), axis=1)

    def distance(self, a, b):
        return self._distance(a.T, b.T)

    def sample_sphere_pair(self, gen, centers, radius):
        count = len(centers)
        table = _by_draw(gen.random(self._pair_draws * count), self._pair_draws, count)
        return [np.stack(p, axis=1) for p in self._sphere_pair(centers.T, table, radius)]

    def min_radius(self):
        return _MIN_RADIUS_SCALE * self.scale


@dataclass(frozen=True)
class FlatTorus(_ColumnSpace):
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
    def _point_draws(self):
        return self.dim

    @property
    def _pair_draws(self):
        return 2 * (self.dim - 1)  # per point: phi (dim 2), cos theta then phi (dim 3)

    def _point_table(self, u, count):
        return u.reshape(count, self.dim)

    def _points(self, table):
        return [table[:, j] * self.r for j in range(self.dim)]

    def _distance(self, a, b):
        square_sum = 0.0
        for x, y in zip(a, b):
            delta = np.abs(x - y)
            delta = np.minimum(delta, self.r - delta)
            square_sum = square_sum + delta * delta
        return np.sqrt(square_sum)

    def _wrap(self, x):
        """np.mod(x, r) for -r <= x < 2r, by one period.  The shift is chosen on
        the unwrapped value, so an x + r that rounds to r stays r as in np.mod,
        and x - r is exact (Sterbenz), as is np.mod's fmod."""
        return x + (self.r * (x < 0) - self.r * (x >= self.r))

    def _sphere_pair(self, centers, table, radius):
        out = []
        for col in (0, self.dim - 1):  # each point's first column in the table
            if self.dim == 2:
                phi = table[:, col] * (2 * math.pi)
                unit = [np.cos(phi), np.sin(phi)]
            else:
                cos_theta = 1 - 2 * table[:, col]
                sin_theta = np.sqrt(np.maximum(0.0, 1 - cos_theta**2))
                phi = table[:, col + 1] * (2 * math.pi)
                unit = [sin_theta * np.cos(phi), sin_theta * np.sin(phi), cos_theta]
            out.append([self._wrap(c + radius * e) for c, e in zip(centers, unit)])
        return out


Torus2 = functools.partial(FlatTorus, 2)
Torus3 = functools.partial(FlatTorus, 3)


@dataclass(frozen=True)
class SphereArea1(_ColumnSpace):
    """Round 2-sphere of surface area 1 (radius 1/(2 sqrt(pi)))."""

    _point_draws = 2  # z, then phi
    _pair_draws = 2  # phi of each point

    @property
    def radius(self):
        return 1.0 / (2.0 * math.sqrt(math.pi))

    @property
    def scale(self):
        return 1.0

    def max_radius(self):
        return math.pi * self.radius / 4

    def _point_table(self, u, count):
        return _by_draw(u, self._point_draws, count)

    def _points(self, table):
        z = self.radius * (1 - 2 * table[:, 0])
        phi = table[:, 1] * (2 * math.pi)
        rho = np.sqrt(np.maximum(0.0, self.radius**2 - z * z))
        return [rho * np.cos(phi), rho * np.sin(phi), z]

    def _distance(self, a, b):
        cos = (a[0] * b[0] + a[1] * b[1] + a[2] * b[2]) / (self.radius**2)
        return self.radius * np.arccos(np.clip(cos, -1.0, 1.0))

    def _sphere_pair(self, centers, table, radius):
        R = self.radius
        axis = [c / R for c in centers]
        # orthonormal frame at each center: e1 = helper x axis, the helper being
        # the coordinate axis of the smallest |component| (the first on ties),
        # which avoids near-parallel picks; per helper x, y, z the cross product
        # is (0, -az, ay), (az, 0, -ax) or (-ay, ax, 0)
        ax, ay, az = axis
        x, y, z = np.abs(ax), np.abs(ay), np.abs(az)
        first = (x <= y) & (x <= z)
        second = ~first & (y <= z)
        e1 = [np.where(first, 0.0, np.where(second, az, -ay)),
              np.where(first, -az, np.where(second, 0.0, ax)),
              np.where(first, ay, np.where(second, -ax, 0.0))]
        norm = np.sqrt(e1[0] * e1[0] + e1[1] * e1[1] + e1[2] * e1[2])
        e1 = [e / norm for e in e1]
        e2 = [ay * e1[2] - az * e1[1], az * e1[0] - ax * e1[2], ax * e1[1] - ay * e1[0]]
        theta = radius / R  # geodesic radius as a colatitude
        out = []
        for col in range(2):
            phi = table[:, col] * (2 * math.pi)
            cos_phi, sin_phi = np.cos(phi), np.sin(phi)
            out.append([R * (math.cos(theta) * a + math.sin(theta) * (cos_phi * f + sin_phi * g))
                        for a, f, g in zip(axis, e1, e2)])
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


def _block_sums(count, values):
    """(sum, sum of squares) over a block of the per-sample values that
    `values(part)` gives for each slice `part` of at most _STEP samples."""
    v = np.empty(count)
    for start in range(0, count, _STEP):
        part = slice(start, start + _STEP)
        v[part] = values(part)
    return float(v.sum()), float((v * v).sum())


def _length_block(space, block, count, seed):
    k = space._point_draws
    u = rng.generator(seed, _LENGTH_TAG, block).random(2 * k * count)
    a = space._point_table(u[:k * count], count)
    b = space._point_table(u[k * count:], count)
    return _block_sums(count, lambda part: space._distance(space._points(a[part]),
                                                           space._points(b[part])))


def _cluster_block(space, block, count, seed, radius):
    k = space._point_draws
    u = rng.generator(seed, _CLUSTER_TAG, block).random((k + space._pair_draws) * count)
    centers = space._point_table(u[:k * count], count)
    pair = _by_draw(u[k * count:], space._pair_draws, count)

    def values(part):
        a, b = space._sphere_pair(space._points(centers[part]), pair[part], radius)
        return space._distance(a, b) / radius

    return _block_sums(count, values)


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
                           "too small for double precision")
    total, total_sq = _run_blocks(_cluster_block, space, samples, seed, workers, radius)
    return _finish(total, total_sq, samples, transform=lambda mean: 2.0 - mean)


def continuum_ratio(space, radius, samples, seed, workers=1):
    """Scale-free ratio (length / side) / log(1 / cluster)."""
    nu = mc_mean_cluster(space, radius, samples, seed, workers=workers).estimate
    mu = mc_characteristic_length(space, samples, seed, workers=workers).estimate
    return (mu / space.scale) / math.log(1.0 / nu)
