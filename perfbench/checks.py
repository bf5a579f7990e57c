"""Output checks for every op.

The numeric tolerances are the ones the acceptance tests use:
criterion 4 for the efficiency, criterion 5 for the calibration and
criterion 3 (bound within 15% of its analytic expectation) for the bound.
Each check returns a list of problems; an empty list means it passed.
"""

from __future__ import annotations

import hashlib
import math
import re
from pathlib import Path

import numpy as np

from pepsearch import simulate


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 23):
            digest.update(chunk)
    return digest.hexdigest()


def hash_artifacts(directory: Path) -> dict[str, str]:
    """sha256 of every artifact in ``directory``; logs are not artifacts."""
    return {p.name: sha256_file(p) for p in sorted(directory.iterdir())
            if p.is_file() and not p.name.endswith(".log")}


def generation_total(text: str) -> int | None:
    match = re.search(r"^total\s+\S+\s+(\d+)\s*$", text, re.MULTILINE)
    return int(match.group(1)) if match else None


def slab_escape(thickness_cm: float, attenuation_cm: float) -> float:
    """Escape probability from a slab: uniform depth, isotropic direction.

    The oracle of acceptance criterion 4 with the depth integral done in
    closed form: (a/t) * integral over mu in (0, 1] of
    mu * (1 - exp(-t / (a mu))).
    """
    mu = np.linspace(0.0, 1.0, 200_001)[1:]
    f = mu * -np.expm1(-thickness_cm / (attenuation_cm * mu))
    integral = float(np.sum(0.5 * (f[1:] + f[:-1]) * np.diff(mu))) \
        + 0.5 * mu[0] * f[0]
    return attenuation_cm / thickness_cm * integral


def check_efficiency(result, cfg) -> list[str]:
    problems = []
    if not 0.005 <= result.efficiency <= 0.02:
        problems.append(f"efficiency {result.efficiency:.4g} outside "
                        "[0.005, 0.02]")
    if not result.mc_uncertainty / result.efficiency < 0.05:
        problems.append("relative MC uncertainty not below 5%")
    escape = slab_escape(cfg.geometry.strip_thickness_cm,
                         cfg.constants.cu_attenuation_length_cm)
    if not abs(result.breakdown[0] / escape - 1.0) < 0.01:
        problems.append(f"transmission {result.breakdown[0]:.5f} not within "
                        f"1% of the slab-escape oracle {escape:.5f}")
    return problems


def check_calibration(response, cfg) -> list[str]:
    nominal = cfg.response
    problems = []
    if not abs(response.gain_ev_per_channel
               - nominal.gain_ev_per_channel) < 0.001:
        problems.append(f"gain {response.gain_ev_per_channel:.6f} off by "
                        "0.001 or more")
    if not abs(response.offset_ev - nominal.offset_ev) < 1.0:
        problems.append(f"offset {response.offset_ev:.3f} eV off by 1 eV "
                        "or more")
    if not abs(response.fwhm_at_reference_ev
               - nominal.fwhm_at_reference_ev) < 5.0:
        problems.append(f"fwhm {response.fwhm_at_reference_ev:.2f} eV off "
                        "by 5 eV or more")
    return problems


def expected_sigma_delta(cfg) -> float:
    """Analytic sigma of the on/off subtraction (paper-naive errors).

    Flat components (continuum, untagged muons) contribute their width
    share of the ROI, lines their Gaussian containment, and the on-run
    adds the expected injected excess.  Var = mu_on + f * mu_off with
    f the on/off live-time ratio.
    """
    source, roi = cfg.source, cfg.roi
    flat_hz = source.continuum.rate_hz \
        + source.muon_rate_hz * (1.0 - source.veto_tag_probability)
    rate = flat_hz * roi.width_ev / (source.continuum.high_ev
                                     - source.continuum.low_ev)
    for line, line_rate in source.lines:
        rate += line_rate * simulate.roi_containment(cfg.response, roi,
                                                     line.energy_ev)
    on, off = cfg.run_on.live_time_s, cfg.run_off.live_time_s
    mu_on = rate * on + simulate.expected_violation_counts(
        cfg.injection, cfg.run_on, cfg.constants, cfg.limit.efficiency)
    mu_off = rate * off
    return math.sqrt(mu_on + (on / off) * mu_off)


def check_bound(limit_result, cfg) -> list[str]:
    """Bound within 15% of n_sigma * analytic sigma / denominator."""
    ref = limit_result.n_sigma * expected_sigma_delta(cfg) \
        / limit_result.denominator
    bound = limit_result.beta2_over_2_limit
    if not abs(bound / ref - 1.0) < 0.15:
        return [f"bound {bound:.3e} not within 15% of the analytic "
                f"{ref:.3e}"]
    return []
