"""Energy-scale calibration from fluorescence peaks in raw-channel spectra.

The pipeline is: locate candidate peaks (moving-average smoothing, then
prominence ranking), fit each with a Gaussian plus a constant, and fit an
affine channel-to-energy map through the anchor lines.  Cross-check lines
participate in the residual report but not in the map.  The resolution is
extrapolated to 8 keV under the constant-FWHM model, so it is simply the
weighted mean of the per-peak FWHM values in eV.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import FWHM_OVER_SIGMA, ResponseModel
from .errors import CalibrationError, FitError
from .eventio import Spectrum

MAX_FIT_EVALS = 200
DEFAULT_RESIDUAL_THRESHOLD_EV = 5.0


def find_peaks(raw: Spectrum, min_prominence: float, expected_count: int,
               smooth_sigma_channels: float = 85.0) -> np.ndarray:
    """Candidate peak positions, most prominent first.

    The spectrum is smoothed with a moving average as wide as the
    expected peak sigma before the local-maximum search; ties in
    prominence break toward the lower channel.  Maxima closer together
    than the smoothing width are not resolvable and collapse to the
    more prominent one.
    """
    from scipy import signal   # ~1 s to load; only calibrate needs scipy
    if expected_count < 1:
        raise CalibrationError("expected_count must be at least 1")
    counts = raw.counts.astype(np.float64)
    if counts.sum() == 0:
        raise CalibrationError("empty spectrum, no peaks to find")
    width = max(1, int(round(smooth_sigma_channels)))
    kernel = np.ones(width) / width
    # edge-value padding: zero padding would fake a broad plateau peak on
    # any spectrum with nonzero counts near the boundaries
    padded = np.pad(counts, width, mode="edge")
    smoothed = np.convolve(padded, kernel, mode="same")[width:-width]
    idx, props = signal.find_peaks(smoothed, prominence=min_prominence,
                                   distance=width)
    if len(idx) < expected_count:
        found = raw.bin_centers[idx] if len(idx) else np.empty(0)
        raise CalibrationError(
            f"found {len(idx)} peak(s) above prominence {min_prominence}, "
            f"expected {expected_count}; candidates at {np.round(found, 1)}")
    order = np.lexsort((idx, -props["prominences"]))
    return raw.bin_centers[idx[order]]


def _multi_gauss_const(x, *params):
    background = params[-1]
    out = np.full_like(x, background, dtype=np.float64)
    for i in range(0, len(params) - 1, 3):
        amplitude, centroid, sigma = params[i:i + 3]
        out += amplitude * np.exp(-0.5 * ((x - centroid) / sigma) ** 2)
    return out


@dataclass(frozen=True)
class PeakFit:
    """One Gaussian-plus-constant fit in a channel window."""

    centroid_channel: float
    sigma_channels: float
    amplitude: float
    background: float
    fit_window: tuple[float, float]
    goodness: float                    # reduced chi-square
    centroid_uncertainty: float
    sigma_uncertainty: float

    def __post_init__(self):
        if self.sigma_channels <= 0:
            raise FitError("negative or zero fitted sigma rejected")
        if self.amplitude <= 0:
            raise FitError("non-positive fitted amplitude rejected")
        lo, hi = self.fit_window
        if not lo <= self.centroid_channel <= hi:
            raise FitError(
                f"fitted centroid {self.centroid_channel:.1f} escaped the "
                f"window [{lo:.1f}, {hi:.1f}]")


def _fit_window(raw: Spectrum, lo: float, hi: float, start) -> list[PeakFit]:
    """Least-squares Gaussians + one constant over the bins in [lo, hi].

    ``start(x, y, background0)`` returns the initial parameters, three
    per peak (amplitude, centroid, sigma) then the background.  The
    peaks share the window's reduced chi-square and come back ordered by
    centroid.
    """
    from scipy import optimize
    centers = raw.bin_centers
    sel = (centers >= lo) & (centers <= hi)
    x = centers[sel]
    y = raw.counts[sel].astype(np.float64)
    if len(x) < 7:
        raise CalibrationError(f"window [{lo}, {hi}] holds {len(x)} bins, "
                               "need at least 7")
    if y.sum() < 100:
        raise CalibrationError(f"window [{lo}, {hi}] holds {y.sum():.0f} "
                               "counts, need at least 100")
    yerr = np.sqrt(np.maximum(y, 1.0))
    background0 = float(np.median(np.concatenate((y[:3], y[-3:]))))
    p0 = start(x, y, background0)
    peaks = (len(p0) - 1) // 3
    try:
        popt, pcov, info, mesg, ier = optimize.curve_fit(
            _multi_gauss_const, x, y, p0=p0, sigma=yerr, absolute_sigma=True,
            maxfev=MAX_FIT_EVALS * peaks, full_output=True)
    except RuntimeError as exc:
        raise FitError(f"no convergence within {MAX_FIT_EVALS * peaks} "
                       f"evaluations in window [{lo}, {hi}]: {exc}") from None
    if ier not in (1, 2, 3, 4):
        raise FitError(f"fit failed in window [{lo}, {hi}]: {mesg}")
    if not np.all(np.isfinite(pcov)):
        raise FitError(f"undefined fit covariance in window [{lo}, {hi}]")
    residual = (y - _multi_gauss_const(x, *popt)) / yerr
    goodness = float((residual ** 2).sum() / max(len(x) - len(popt), 1))
    perr = np.sqrt(np.clip(np.diag(pcov), 0.0, None))
    fits = []
    for i in range(peaks):
        amplitude, centroid, sigma = popt[3 * i:3 * i + 3]
        sigma = abs(sigma)  # model is even in sigma; lm may pick the mirror
        fits.append(PeakFit(centroid_channel=float(centroid),
                            sigma_channels=float(sigma),
                            amplitude=float(amplitude),
                            background=float(popt[-1]),
                            fit_window=(float(lo), float(hi)),
                            goodness=goodness,
                            centroid_uncertainty=float(perr[3 * i + 1]),
                            sigma_uncertainty=float(perr[3 * i + 2])))
    # joint fits may legally swap order; map back by channel
    fits.sort(key=lambda p: p.centroid_channel)
    return fits


def fit_gaussian(raw: Spectrum, window: tuple[float, float]) -> PeakFit:
    """Least-squares Gaussian + constant over the bins inside `window`,
    started from the moments of the background-subtracted counts."""
    lo, hi = window

    def moments(x, y, background0):
        amplitude0 = max(float(y.max() - background0), 1.0)
        weights = np.clip(y - background0, 0.0, None)
        if weights.sum() > 0:
            centroid0 = float(np.average(x, weights=weights))
            var0 = float(np.average((x - centroid0) ** 2, weights=weights))
            sigma0 = math.sqrt(var0) if var0 > 0 else (hi - lo) / 6.0
        else:
            centroid0 = 0.5 * (lo + hi)
            sigma0 = (hi - lo) / 6.0
        return [amplitude0, centroid0, sigma0, background0]

    return _fit_window(raw, lo, hi, moments)[0]


@dataclass(frozen=True)
class CalibrationResult:
    """Affine energy scale and the evidence behind it."""

    gain_ev_per_channel: float
    offset_ev: float
    gain_uncertainty: float
    offset_uncertainty: float
    # (known energy eV, residual eV) for anchors then cross-checks
    residuals: tuple[tuple[float, float], ...]
    resolution_fwhm_at_8kev: float

    def __post_init__(self):
        if self.gain_ev_per_channel <= 0:
            raise CalibrationError("gain must be positive")

    @property
    def max_abs_residual_ev(self) -> float:
        return max((abs(r) for _, r in self.residuals), default=0.0)


def fit_calibration(anchors, crosschecks=(),
                    residual_threshold_ev: float =
                    DEFAULT_RESIDUAL_THRESHOLD_EV) -> CalibrationResult:
    """Weighted affine fit energy = offset + gain * channel.

    `anchors` and `crosschecks` are sequences of (PeakFit, energy_ev);
    only anchors constrain the map.  Channel uncertainties are mapped to
    energy through the gain, so the weights are refined once after a
    first pass.  Residuals beyond `residual_threshold_ev` fail the
    calibration.
    """
    if len(anchors) < 2:
        raise CalibrationError("need at least two anchor lines")
    channels = np.array([p.centroid_channel for p, _ in anchors])
    energies = np.array([float(e) for _, e in anchors])
    cerr = np.array([max(p.centroid_uncertainty, 1e-9) for p, _ in anchors])
    if np.ptp(channels) < 1e-6:
        raise CalibrationError("anchor peaks coincide in channel, "
                               "degenerate fit")
    gain = 1.0
    for _ in range(2):
        w = 1.0 / (gain * cerr) ** 2
        sw = w.sum()
        cx = (w * channels).sum() / sw
        ce = (w * energies).sum() / sw
        var = (w * (channels - cx) ** 2).sum()
        if var <= 0:
            raise CalibrationError("anchor peaks coincide in channel, "
                                   "degenerate fit")
        gain = (w * (channels - cx) * (energies - ce)).sum() / var
        if gain <= 0:
            raise CalibrationError("fitted gain is non-positive; peak "
                                   "assignment is inconsistent")
        offset = ce - gain * cx
    gain_err = math.sqrt(1.0 / var)
    offset_err = math.sqrt(1.0 / sw + cx * cx / var)

    residuals = []
    fwhm_vals, fwhm_w = [], []
    for peak, energy in tuple(anchors) + tuple(crosschecks):
        residuals.append((float(energy),
                          float(energy - (offset + gain * peak.centroid_channel))))
        fwhm_vals.append(FWHM_OVER_SIGMA * peak.sigma_channels * gain)
        err = max(FWHM_OVER_SIGMA * peak.sigma_uncertainty * gain, 1e-9)
        fwhm_w.append(1.0 / (err * err))
    fwhm = float(np.average(fwhm_vals, weights=fwhm_w))
    result = CalibrationResult(gain_ev_per_channel=float(gain),
                               offset_ev=float(offset),
                               gain_uncertainty=float(gain_err),
                               offset_uncertainty=float(offset_err),
                               residuals=tuple(residuals),
                               resolution_fwhm_at_8kev=fwhm)
    if result.max_abs_residual_ev > residual_threshold_ev:
        raise CalibrationError(
            f"calibration residual {result.max_abs_residual_ev:.2f} eV "
            f"exceeds the {residual_threshold_ev} eV threshold")
    return result


def _fit_cluster(raw: Spectrum, channels: np.ndarray, half: float,
                 sigma0: float) -> list[PeakFit]:
    """Joint fit of neighboring peaks sharing one constant background,
    started at the expected positions.

    Lines closer than two window half-widths would pollute each other's
    single-peak fit through their tails, so they are fitted together.
    """
    if len(channels) == 1:
        c = channels[0]
        return [fit_gaussian(raw, (c - half, c + half))]

    def expected(x, y, background0):
        p0 = []
        for c in channels:
            near = np.abs(x - c) < sigma0
            amplitude0 = max(float(y[near].max() - background0), 1.0) \
                if near.any() else 1.0
            p0 += [amplitude0, float(c), sigma0]
        return p0 + [background0]

    return _fit_window(raw, channels[0] - half, channels[-1] + half, expected)


def calibrate_spectrum(raw: Spectrum, anchor_lines, crosscheck_lines=(),
                       expected_fwhm_ev: float = 200.0,
                       approx_gain_ev_per_channel: float = 1.0,
                       min_prominence: float = 20.0,
                       window_halfwidth_sigmas: float = 2.5,
                       residual_threshold_ev: float =
                       DEFAULT_RESIDUAL_THRESHOLD_EV,
                       ) -> tuple[CalibrationResult, dict]:
    """Full chain: peak search, per-peak fits, affine energy map.

    `anchor_lines` and `crosscheck_lines` are sequences of EmissionLine.
    Candidate peaks are matched to lines by rank order in channel vs.
    energy, which assumes all expected lines are actually present.
    Lines whose configured spacing, mapped through the approximate gain,
    is under two window half-widths are fitted jointly.
    """
    wanted = tuple(anchor_lines) + tuple(crosscheck_lines)
    if len(wanted) < 2:
        raise CalibrationError("need at least two calibration lines")
    sigma_ch = (expected_fwhm_ev / FWHM_OVER_SIGMA) / approx_gain_ev_per_channel
    candidates = find_peaks(raw, min_prominence, len(wanted),
                            smooth_sigma_channels=sigma_ch)
    picked = np.sort(candidates[:len(wanted)])
    by_energy = sorted(wanted, key=lambda ln: ln.energy_ev)
    half = window_halfwidth_sigmas * sigma_ch
    # clusters follow the configured line spacing, not the noisy candidates
    spacing = np.diff([ln.energy_ev for ln in by_energy]) \
        / approx_gain_ev_per_channel

    fits = {}
    start = 0
    for i in range(1, len(picked) + 1):
        if i == len(picked) or spacing[i - 1] >= 2.0 * half:
            cluster_fits = _fit_cluster(raw, picked[start:i], half, sigma_ch)
            for line, peak in zip(by_energy[start:i], cluster_fits):
                fits[line.label] = peak
            start = i
    anchors = [(fits[ln.label], ln.energy_ev) for ln in anchor_lines]
    checks = [(fits[ln.label], ln.energy_ev) for ln in crosscheck_lines]
    result = fit_calibration(anchors, checks,
                             residual_threshold_ev=residual_threshold_ev)
    return result, fits


def response_from_calibration(result: CalibrationResult,
                              channel_count: int,
                              reference_energy_ev: float) -> ResponseModel:
    """Measured response usable by the energy-axis histogrammer."""
    return ResponseModel(fwhm_at_reference_ev=result.resolution_fwhm_at_8kev,
                         reference_energy_ev=reference_energy_ev,
                         gain_ev_per_channel=result.gain_ev_per_channel,
                         offset_ev=result.offset_ev,
                         channel_count=channel_count)


def render_calibration_report(result: CalibrationResult, fits: dict,
                              response_text: str) -> str:
    """Human-readable summary followed by ``response_text``, the
    [response] section written beside it."""
    lines = ["calibration", "==========="]
    lines.append(f"gain    = {result.gain_ev_per_channel:.6f} "
                 f"+/- {result.gain_uncertainty:.6f} eV/channel")
    lines.append(f"offset  = {result.offset_ev:.3f} "
                 f"+/- {result.offset_uncertainty:.3f} eV")
    lines.append(f"fwhm@8keV = {result.resolution_fwhm_at_8kev:.2f} eV")
    lines.append("residuals:")
    for energy, residual in result.residuals:
        lines.append(f"  {energy:9.2f} eV : {residual:+.3f} eV")
    lines.append("peaks:")
    for label in sorted(fits):
        p = fits[label]
        lines.append(f"  {label:<8} centroid {p.centroid_channel:10.3f} "
                     f"+/- {p.centroid_uncertainty:.3f} ch, sigma "
                     f"{p.sigma_channels:7.3f} ch, chi2/dof "
                     f"{p.goodness:.2f}")
    lines.append("")
    lines.append(response_text)
    return "\n".join(lines)


def response_section_text(result: CalibrationResult, channel_count: int,
                          reference_energy_ev: float) -> str:
    """Machine-readable [response] section for reuse by the histogrammer."""
    return "\n".join([
        "[response]",
        f"gain_ev_per_channel = {result.gain_ev_per_channel!r}",
        f"offset_ev = {result.offset_ev!r}",
        f"fwhm_at_reference_ev = {result.resolution_fwhm_at_8kev!r}",
        f"reference_energy_ev = {reference_energy_ev!r}",
        f"channel_count = {channel_count}",
    ]) + "\n"
