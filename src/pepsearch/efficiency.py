"""Monte Carlo detection efficiency for x-rays born inside the strip.

Each sample is one photon: a uniform point in the copper volume and an
isotropic direction.  Three factors are tracked along the straight ray:

  * transmission out of the copper, exp(-exit_path / lambda_Cu);
  * geometric acceptance, a ray-rectangle test against the detector
    plates (nearest hit wins, plates never overlap);
  * absorption in the silicon, 1 - exp(-thickness / (lambda_Si |dz|)).

The efficiency is the mean of the product, not the product of the means;
escape and acceptance are positively correlated through the emission
angle, so the factorized value is only a lower bound.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import GeometryConfig, PhysicsConstants, Section
from .errors import DomainError

MIN_SAMPLES = 10_000
_EPS_T = 1e-12          # rejects hits at the emission point itself


def sample_emission(geometry: GeometryConfig, rng: np.random.Generator,
                    count: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Uniform emission points in the strip and isotropic directions.

    Returns (points, directions), each of shape (count, 3), in cm.
    """
    half = 0.5 * np.array([geometry.strip_length_cm,
                           geometry.strip_width_cm,
                           geometry.strip_thickness_cm])
    points = rng.uniform(-half, half, size=(count, 3))
    u = rng.uniform(-1.0, 1.0, size=count)          # cos(theta)
    phi = rng.uniform(0.0, 2.0 * math.pi, size=count)
    s = np.sqrt(1.0 - u * u)
    directions = np.column_stack((s * np.cos(phi), s * np.sin(phi), u))
    return points, directions


def exit_distance(points: np.ndarray, directions: np.ndarray,
                  geometry: GeometryConfig) -> np.ndarray:
    """Distance along each ray to the strip boundary (points are inside)."""
    half = 0.5 * np.array([geometry.strip_length_cm,
                           geometry.strip_width_cm,
                           geometry.strip_thickness_cm])
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = (-half - points) / directions
        t2 = (half - points) / directions
        t_far = np.maximum(t1, t2)
    t_far[directions == 0.0] = np.inf    # also covers 0/0 on degenerate axes
    return np.min(t_far, axis=1)


def transmission_probability(points: np.ndarray, directions: np.ndarray,
                             geometry: GeometryConfig,
                             consts: PhysicsConstants) -> np.ndarray:
    """exp(-path_to_exit / cu_attenuation_length) along each ray."""
    return np.exp(-exit_distance(points, directions, geometry)
                  / consts.cu_attenuation_length_cm)


def accepts(exit_points: np.ndarray, directions: np.ndarray,
            geometry: GeometryConfig) -> tuple[np.ndarray, np.ndarray]:
    """Ray-rectangle test against every detector plate.

    Returns (accepted, det_id); det_id is -1 where no plate is hit.
    A plate counts only when approached from its sensitive side and the
    hit lies strictly inside the rectangle, so zero-area plates never
    accept.  The nearest hit along the ray wins.
    """
    n = len(exit_points)
    best_t = np.full(n, np.inf)
    det_id = np.full(n, -1, dtype=np.int64)
    dz = directions[:, 2]
    for plate in geometry.detectors:
        with np.errstate(divide="ignore", invalid="ignore"):
            t = (plate.center_z_cm - exit_points[:, 2]) / dz
        ok = (dz * plate.normal_z < 0.0) & (t > _EPS_T) & np.isfinite(t)
        if not ok.any():
            continue
        x = exit_points[:, 0] + t * directions[:, 0]
        y = exit_points[:, 1] + t * directions[:, 1]
        ok &= (np.abs(x - plate.center_x_cm) < 0.5 * plate.width_x_cm)
        ok &= (np.abs(y - plate.center_y_cm) < 0.5 * plate.width_y_cm)
        closer = ok & (t < best_t)
        best_t[closer] = t[closer]
        det_id[closer] = plate.det_id
    return det_id >= 0, det_id


def absorption_probability(directions: np.ndarray,
                           consts: PhysicsConstants) -> np.ndarray:
    """1 - exp(-si_thickness / (lambda_Si |dz|)) for z-normal plates."""
    dz = np.abs(directions[:, 2])
    with np.errstate(divide="ignore"):
        depth = consts.sdd_thickness_cm / (consts.si_attenuation_length_cm * dz)
    return -np.expm1(-depth)


@dataclass(frozen=True)
class EfficiencyResult:
    efficiency: float
    mc_uncertainty: float
    samples: int
    # unconditional means of the first two stages and the mean silicon
    # absorption over accepted rays
    breakdown: tuple[float, float, float]

    def __post_init__(self):
        if not 0.0 <= self.efficiency <= 1.0:
            raise DomainError("efficiency must be in [0, 1]")
        if self.samples <= 0:
            raise DomainError("samples must be positive")


def _batch_sums(geometry: GeometryConfig, consts: PhysicsConstants,
                count: int, seed_seq: np.random.SeedSequence) -> np.ndarray:
    rng = np.random.default_rng(seed_seq)
    points, directions = sample_emission(geometry, rng, count)
    dist = exit_distance(points, directions, geometry)
    trans = np.exp(-dist / consts.cu_attenuation_length_cm)
    exit_points = points + dist[:, None] * directions
    accepted, _ = accepts(exit_points, directions, geometry)
    absorb = np.where(accepted, absorption_probability(directions, consts),
                      0.0)
    w = trans * accepted * absorb
    return np.array([w.sum(), (w * w).sum(), trans.sum(),
                     accepted.sum(), absorb.sum(), float(count)])


def run_efficiency(geometry: GeometryConfig, consts: PhysicsConstants,
                   samples: int, seed: int, batch_size: int = 262_144,
                   workers: int = 1) -> EfficiencyResult:
    """Estimate the detection efficiency with `samples` photons.

    Samples are drawn in independently seeded batches; the combination is
    a fixed-order sum over batch indices, so the result is identical for
    any worker count.
    """
    if samples < MIN_SAMPLES:
        raise DomainError(f"need at least {MIN_SAMPLES} samples")
    if batch_size <= 0 or workers <= 0:
        raise DomainError("batch_size and workers must be positive")
    counts = [batch_size] * (samples // batch_size)
    if samples % batch_size:
        counts.append(samples % batch_size)
    seeds = np.random.SeedSequence(seed).spawn(len(counts))
    if workers == 1 or len(counts) == 1:
        partials = [_batch_sums(geometry, consts, c, s)
                    for c, s in zip(counts, seeds)]
    else:
        # a pool starts all its processes at the first submit
        pool_size = min(workers, len(counts))
        with ProcessPoolExecutor(max_workers=pool_size) as pool:
            futures = [pool.submit(_batch_sums, geometry, consts, c, s)
                       for c, s in zip(counts, seeds)]
            partials = [f.result() for f in futures]
    total = np.zeros(6)
    for part in partials:            # fixed batch order, scheduler-proof
        total += part
    w_sum, w2_sum, t_sum, a_sum, abs_sum, n = total
    mean = w_sum / n
    var = max(w2_sum / n - mean * mean, 0.0)
    n_accepted = a_sum
    breakdown = (t_sum / n, a_sum / n,
                 abs_sum / n_accepted if n_accepted > 0 else 0.0)
    return EfficiencyResult(efficiency=mean,
                            mc_uncertainty=math.sqrt(var / n),
                            samples=int(n), breakdown=breakdown)


def render_efficiency_report(result: EfficiencyResult) -> str:
    """Key = value text, parseable by parse_efficiency_report."""
    t, a, ab = result.breakdown
    lines = [
        "efficiency monte carlo",
        "======================",
        f"samples        = {result.samples}",
        f"efficiency     = {result.efficiency:.6e}",
        f"mc_uncertainty = {result.mc_uncertainty:.3e}",
        f"transmission   = {t:.6f}",
        f"acceptance     = {a:.6f}",
        f"absorption     = {ab:.6f}",
    ]
    return "\n".join(lines) + "\n"


def parse_efficiency_report(text: str) -> EfficiencyResult:
    """Inverse of render_efficiency_report, to the printed precision."""
    sec = Section.from_text("efficiency report", text)
    return EfficiencyResult(
        efficiency=sec.number("efficiency"),
        mc_uncertainty=sec.number("mc_uncertainty"),
        samples=sec.integer("samples"),
        breakdown=(sec.number("transmission"), sec.number("acceptance"),
                   sec.number("absorption")))
