"""Energy-scale calibration from fluorescence peaks in raw-channel spectra.

The pipeline is: locate candidate peaks (moving-average smoothing, then
prominence ranking), fit them with Gaussians plus a constant, and fit an
affine channel-to-energy map through the anchor lines.  Every window is
fitted the same way, from the candidate channels it holds: one Gaussian
each, started there.  Lines closer than two window half-widths share a
window, so that neither fit takes in the other's tail; a lone line is a
window of one.  Cross-check lines participate in the residual report but
not in the map.  The resolution is extrapolated to 8 keV under the
constant-FWHM model, so it is simply the weighted mean of the per-peak
FWHM values in eV.

Both steps are numpy alone.  The peak search follows the definitions of
``scipy.signal.find_peaks``.  The peak fits are a weighted
Levenberg-Marquardt least squares (Marquardt, J. SIAM 11 (1963) 431)
with the analytic Jacobian J.  The weights W = 1/max(counts, 1) per bin
are taken as absolute, so the parameter covariance is inv(J^T W J) at
the minimum, and chi2/dof comes from the same weighted residuals.  A
window whose chi2/dof exceeds MAX_REDUCED_CHI2 is rejected: the model
does not describe it, so its centroid would be biased.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import FWHM_OVER_SIGMA
from .errors import CalibrationError, FitError
from .eventio import Spectrum

MAX_FIT_EVALS = 200             # iterations per fitted peak
CONVERGED_CHI2_DROP = 1e-10     # rounding leaves under 1e-14
# windows read 0.85-1.21 on the bundled 34-day on-run (seeds 1-60), and
# up to 1.63 on single lines of a few thousand counts, where the weights
# 1/max(counts, 1) inflate chi2; a doublet fitted as one line reads more
MAX_REDUCED_CHI2 = 2.0


def prominent_peaks(x: np.ndarray, min_prominence: float,
                    distance: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices and prominences of the local maxima of `x`, in index order.

    The semantics are those of ``scipy.signal.find_peaks(x,
    prominence=min_prominence, distance=distance)``:

    - a local maximum is a sample, or the middle of a plateau (rounded
      down), with a strictly lower sample on each side; the first and
      last samples are never maxima;
    - from the highest maximum down, each kept maximum removes the
      maxima closer than `distance` samples; equal heights are taken in
      the order numpy's default argsort gives, as scipy takes them;
    - the prominence of a survivor is its height minus the higher of its
      two bases, each base being the minimum of `x` up to the nearest
      strictly higher sample on that side, or up to the border; maxima
      with prominence at least `min_prominence` are returned.
    """
    starts = np.flatnonzero(np.r_[True, x[1:] != x[:-1]])
    ends = np.r_[starts[1:], len(x)] - 1
    level = x[starts]
    inner = (level[1:-1] > level[:-2]) & (level[1:-1] > level[2:])
    peaks = (starts[1:-1][inner] + ends[1:-1][inner]) // 2

    keep = np.ones(len(peaks), dtype=bool)
    near_lo = np.searchsorted(peaks, peaks - distance, side="right")
    near_hi = np.searchsorted(peaks, peaks + distance, side="left")
    for j in np.argsort(x[peaks])[::-1]:
        if keep[j]:
            keep[near_lo[j]:near_hi[j]] = False
            keep[j] = True
    peaks = peaks[keep]

    prominences = np.empty(len(peaks))
    for k, peak in enumerate(peaks):
        higher = np.flatnonzero(x > x[peak])
        i = np.searchsorted(higher, peak)
        left = higher[i - 1] + 1 if i > 0 else 0
        right = higher[i] if i < len(higher) else len(x)
        prominences[k] = x[peak] - max(x[left:peak + 1].min(),
                                       x[peak:right].min())
    strong = prominences >= min_prominence
    return peaks[strong], prominences[strong]


def find_peaks(raw: Spectrum, min_prominence: float, expected_count: int,
               smooth_sigma_channels: float) -> np.ndarray:
    """Candidate peak positions, most prominent first.

    The spectrum is smoothed with a moving average as wide as the
    expected peak sigma before the local-maximum search; ties in
    prominence break toward the lower channel.  Maxima closer together
    than the smoothing width are not resolvable and collapse to the
    higher one.
    """
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
    idx, prominences = prominent_peaks(smoothed, min_prominence, width)
    if len(idx) < expected_count:
        found = raw.bin_centers[idx] if len(idx) else np.empty(0)
        raise CalibrationError(
            f"found {len(idx)} peak(s) above prominence {min_prominence}, "
            f"expected {expected_count}; candidates at {np.round(found, 1)}")
    order = np.lexsort((idx, -prominences))
    return raw.bin_centers[idx[order]]


def _gaussians_and_jacobian(x: np.ndarray, params: np.ndarray
                            ) -> tuple[np.ndarray, np.ndarray]:
    """Gaussians plus a constant at `x`, and the derivatives by `params`.

    `params` holds (amplitude, centroid, sigma) per peak, then the
    constant.
    """
    model = np.full(len(x), params[-1], dtype=np.float64)
    jac = np.empty((len(x), len(params)))
    jac[:, -1] = 1.0
    for i in range(0, len(params) - 1, 3):
        amplitude, centroid, sigma = params[i:i + 3]
        u = (x - centroid) / sigma
        g = np.exp(-0.5 * u * u)
        model += amplitude * g
        jac[:, i] = g
        jac[:, i + 1] = amplitude * g * u / sigma
        jac[:, i + 2] = amplitude * g * u * u / sigma
    return model, jac


def _levenberg_marquardt(x, y, yerr, p0, max_iter: int):
    """Minimize chi2 = sum(((y - model) / yerr)**2) from `p0`.

    Marquardt's damping scales the diagonal of the curvature matrix
    A = J^T W J, so a step does not depend on the parameters' units.
    Converged when the undamped Gauss-Newton step would lower chi2 by
    less than CONVERGED_CHI2_DROP, which bounds every parameter's
    remaining shift by 1e-5 of its uncertainty.  Returns the parameters,
    the covariance inv(A) with absolute `yerr` and chi2, or None after
    `max_iter` iterations; a singular A raises LinAlgError.
    """
    def evaluate(p):
        model, jac = _gaussians_and_jacobian(x, p)
        r = (y - model) / yerr
        j = jac / yerr[:, None]
        return r @ r, j.T @ j, j.T @ r

    p = np.array(p0, dtype=np.float64)
    chi2, a, g = evaluate(p)
    damping = 1e-3
    for _ in range(max_iter):
        if g @ np.linalg.solve(a, g) < CONVERGED_CHI2_DROP:
            return p, np.linalg.inv(a), chi2
        trial = p + np.linalg.solve(a + damping * np.diag(np.diag(a)), g)
        trial_chi2, trial_a, trial_g = evaluate(trial)
        if trial_chi2 < chi2:
            p, chi2, a, g = trial, trial_chi2, trial_a, trial_g
            damping /= 10.0
        else:
            damping *= 10.0
            if damping > 1e20:      # no step is downhill: stalled
                return None
    return None


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


def fit_window(raw: Spectrum, channels, half: float,
               sigma0: float) -> list[PeakFit]:
    """Least-squares Gaussians + one constant over the bins in
    [channels[0] - half, channels[-1] + half], one Gaussian per channel.

    Each peak starts at its expected channel with sigma `sigma0` and the
    amplitude of the highest bin within `sigma0` of it above the
    background, taken as the median of the three bins at each edge.  The
    peaks share the window's reduced chi-square and come back ordered by
    centroid.
    """
    lo, hi = channels[0] - half, channels[-1] + half
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
    p0 = []
    for c in channels:
        near = np.abs(x - c) < sigma0
        amplitude0 = max(float(y[near].max() - background0), 1.0) \
            if near.any() else 1.0
        p0 += [amplitude0, float(c), sigma0]
    p0.append(background0)
    max_iter = MAX_FIT_EVALS * len(channels)
    try:
        solution = _levenberg_marquardt(x, y, yerr, p0, max_iter)
    except np.linalg.LinAlgError:
        raise FitError(f"undefined fit covariance in window [{lo}, {hi}]"
                       ) from None
    if solution is None:
        raise FitError(f"no convergence within {max_iter} iterations in "
                       f"window [{lo}, {hi}]")
    popt, pcov, chi2 = solution
    if not np.all(np.isfinite(pcov)):
        raise FitError(f"undefined fit covariance in window [{lo}, {hi}]")
    goodness = float(chi2 / max(len(x) - len(popt), 1))
    if goodness > MAX_REDUCED_CHI2:
        raise FitError(f"chi2/dof {goodness:.2f} in window [{lo}, {hi}] "
                       f"exceeds {MAX_REDUCED_CHI2}: the model does not "
                       "describe the window")
    perr = np.sqrt(np.clip(np.diag(pcov), 0.0, None))
    fits = []
    for i in range(len(channels)):
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


def fit_calibration(anchors, crosschecks=(), *,
                    residual_threshold_ev: float) -> CalibrationResult:
    """Weighted affine fit energy = offset + gain * channel.

    `anchors` and `crosschecks` are sequences of (PeakFit, energy_ev);
    only anchors constrain the map.  The weights are 1/cerr^2 of the
    channel uncertainties; mapping those to energy would scale every
    weight by the same 1/gain^2, which moves neither the gain nor the
    offset, so only the parameter errors are scaled by the gain.
    Residuals beyond `residual_threshold_ev` fail the calibration.
    """
    if len(anchors) < 2:
        raise CalibrationError("need at least two anchor lines")
    channels = np.array([p.centroid_channel for p, _ in anchors])
    energies = np.array([float(e) for _, e in anchors])
    cerr = np.array([max(p.centroid_uncertainty, 1e-9) for p, _ in anchors])
    if np.ptp(channels) < 1e-6:
        raise CalibrationError("anchor peaks coincide in channel, "
                               "degenerate fit")
    w = 1.0 / cerr ** 2
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
    gain_err = gain * math.sqrt(1.0 / var)
    offset_err = gain * math.sqrt(1.0 / sw + cx * cx / var)

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


def calibrate_spectrum(raw: Spectrum, anchor_lines, crosscheck_lines=(), *,
                       expected_fwhm_ev: float,
                       approx_gain_ev_per_channel: float,
                       min_prominence: float,
                       window_halfwidth_sigmas: float,
                       residual_threshold_ev: float,
                       ) -> tuple[CalibrationResult, dict]:
    """Full chain: peak search, window fits, affine energy map.

    `anchor_lines` and `crosscheck_lines` are sequences of EmissionLine.
    Candidate peaks are matched to lines by rank order in channel vs.
    energy, which assumes all expected lines are actually present.
    Lines whose configured spacing, mapped through the approximate gain,
    is under two window half-widths share one `fit_window` call.
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
            cluster_fits = fit_window(raw, picked[start:i], half, sigma_ch)
            for line, peak in zip(by_energy[start:i], cluster_fits):
                fits[line.label] = peak
            start = i
    anchors = [(fits[ln.label], ln.energy_ev) for ln in anchor_lines]
    checks = [(fits[ln.label], ln.energy_ev) for ln in crosscheck_lines]
    result = fit_calibration(anchors, checks,
                             residual_threshold_ev=residual_threshold_ev)
    return result, fits


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
