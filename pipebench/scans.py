"""Seeded LiDAR-like scans with the uneven pillar fill of a real sweep.

A spinning sensor with ``beams`` elevation rings and ``azimuth_steps`` firings
per ring casts rays from 1.73 m above a ground plane. Each ray returns the
nearest hit among the ground and a seeded set of yawed boxes (cars, walls,
poles); rays that hit nothing within range, and a random share of the rest,
return no point. Near the sensor the rings crowd together and pillars
overflow; far out a pillar sees one or two returns, so most slots of a
``CellBatch`` built from such a scan are padding.
"""

from __future__ import annotations

import numpy as np

SENSOR_HEIGHT = 1.73
MAX_RANGE = 120.0


def _stratified(rng: np.random.Generator, count: int, r_min: float, r_max: float):
    """``count`` (x, y) positions, one per range stratum, half of them ahead."""
    sector = rng.permutation(count // 2)
    for j in range(count):
        r = r_min + (r_max - r_min) * (j + rng.random()) / count
        az = np.pi * (j % 2 - 0.5 + (sector[j // 2] + rng.random()) / (count // 2))
        yield r * np.cos(az), r * np.sin(az)


def _boxes(rng: np.random.Generator) -> np.ndarray:
    """Rows of (cx, cy, z0, length, width, height, yaw) in sensor coordinates."""
    rows = []
    # cars and poles are stratified over range and azimuth, the front and the
    # rear half taking every other range stratum: the share of ground they
    # shadow, and with it the pillar count, then varies little between seeds
    for x, y in _stratified(rng, 40, 10.0, 70.0):
        yaw = rng.normal(0.0, 0.15) + (np.pi / 2 if rng.random() < 0.15 else 0.0)
        rows.append((x, y, -SENSOR_HEIGHT, rng.uniform(3.8, 4.8), rng.uniform(1.6, 2.0),
                     rng.uniform(1.4, 1.8), yaw))
    for x, y in _stratified(rng, 60, 6.0, 70.0):
        rows.append((x, y, -SENSOR_HEIGHT, 0.3, 0.3, rng.uniform(3.0, 8.0), 0.0))
    for side in (-1.0, 1.0):  # building fronts with gaps between them
        x = -80.0
        while x < 80.0:
            length = rng.uniform(12.0, 18.0)
            rows.append((x + length / 2, side * rng.uniform(24.0, 26.0), -SENSOR_HEIGHT,
                         length, rng.uniform(4.0, 10.0), rng.uniform(4.0, 12.0), 0.0))
            x += length + rng.uniform(4.0, 6.0)
    return np.asarray(rows)


def _hit_box(dirs: np.ndarray, box: np.ndarray) -> np.ndarray:
    """Ray parameter of the first entry into ``box`` (inf where missed)."""
    cx, cy, z0, length, width, height, yaw = box
    c, s = np.cos(-yaw), np.sin(-yaw)
    # ray origin (the sensor at 0, 0, 0) and direction in the box frame
    ox, oy = c * -cx - s * -cy, s * -cx + c * -cy
    dx = c * dirs[:, 0] - s * dirs[:, 1]
    dy = s * dirs[:, 0] + c * dirs[:, 1]
    dz = dirs[:, 2]
    lo = np.array([-length / 2, -width / 2, z0])
    hi = np.array([length / 2, width / 2, z0 + height])
    t_near = np.full(dirs.shape[0], -np.inf)
    t_far = np.full(dirs.shape[0], np.inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        for o, d, a, b in ((ox, dx, lo[0], hi[0]), (oy, dy, lo[1], hi[1]),
                           (0.0, dz, lo[2], hi[2])):
            t1, t2 = (a - o) / d, (b - o) / d
            parallel_outside = (d == 0) & ((o < a) | (o > b))
            t_near = np.maximum(t_near, np.where(d == 0, -np.inf, np.minimum(t1, t2)))
            t_far = np.minimum(t_far, np.where(d == 0, np.inf, np.maximum(t1, t2)))
            t_far[parallel_outside] = -np.inf
    return np.where((t_near <= t_far) & (t_near > 0.5), t_near, np.inf)


def generate_scan(
    seed: int, beams: int = 64, azimuth_steps: int = 2048, dropout: float = 0.06
) -> np.ndarray:
    """(M, 4) float32-representable x, y, z, reflectance points of one sweep."""
    rng = np.random.default_rng(seed)
    elevation = np.deg2rad(np.linspace(2.0, -24.8, beams))
    azimuth = np.linspace(-np.pi, np.pi, azimuth_steps, endpoint=False)
    azimuth = azimuth + rng.uniform(0.0, 2 * np.pi / azimuth_steps)
    el, az = np.meshgrid(elevation, azimuth, indexing="ij")
    dirs = np.stack(
        [np.cos(el) * np.cos(az), np.cos(el) * np.sin(az), np.sin(el)], axis=-1
    ).reshape(-1, 3)

    with np.errstate(divide="ignore"):
        t = np.where(dirs[:, 2] < 0, SENSOR_HEIGHT / -dirs[:, 2], np.inf)
    for box in _boxes(rng):
        t = np.minimum(t, _hit_box(dirs, box))

    keep = (t < MAX_RANGE) & (rng.random(t.size) >= dropout)
    t = t[keep] + rng.normal(0.0, 0.02, size=int(keep.sum()))
    xyz = dirs[keep] * t[:, None]
    reflectance = rng.uniform(0.0, 1.0, size=t.size)
    points = np.column_stack([xyz, reflectance]).astype(np.float32)
    return points.astype(np.float64)
