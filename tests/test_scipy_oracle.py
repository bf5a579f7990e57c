"""The numpy peak search and fit against scipy, which is kept as an oracle.

`calibrate.prominent_peaks` must return what ``scipy.signal.find_peaks``
returns, and the Levenberg-Marquardt fit what ``scipy.optimize.curve_fit``
finds, on the spectra the calibration actually sees: the smoothed
channel spectra of short on-runs, and the windows fitted in them.
"""

import dataclasses

import numpy as np
import pytest
from scipy import optimize, signal

from conftest import calibration_kwargs
from pepsearch import calibrate, eventio, simulate

SEEDS = range(1, 25)
ON_LIVE_S = 86_400.0    # one day: about 0.03 s to simulate, and 4 lines found


@pytest.fixture(scope="module")
def on_spectra(cfg):
    run = dataclasses.replace(cfg.run_on, live_time_s=ON_LIVE_S)
    channels = cfg.response.channel_count
    spectra = []
    for seed in SEEDS:
        _, events, _ = simulate.simulate_run(
            cfg.source, cfg.injection, cfg.response, cfg.limit.efficiency,
            run, cfg.constants, cfg.roi, seed)
        spectra.append(eventio.histogram(events, None, channels, -0.5,
                                         channels - 0.5))
    return spectra


def calibrate_on(cfg, spec):
    return calibrate.calibrate_spectrum(
        spec, [cfg.lines[label] for label in cfg.calibration.anchors],
        [cfg.lines[label] for label in cfg.calibration.crosschecks],
        **calibration_kwargs(cfg))


def recorded(monkeypatch, name):
    """Replace calibrate.<name> by a wrapper that logs (args, result)."""
    calls = []
    original = getattr(calibrate, name)

    def wrapper(*args):
        result = original(*args)
        calls.append((args, result))
        return result

    monkeypatch.setattr(calibrate, name, wrapper)
    return calls


def assert_same_peaks(x, min_prominence, distance):
    idx, prominences = calibrate.prominent_peaks(x, min_prominence, distance)
    ref_idx, props = signal.find_peaks(x, prominence=min_prominence,
                                       distance=distance)
    np.testing.assert_array_equal(idx, ref_idx)
    np.testing.assert_array_equal(prominences, props["prominences"])


def test_peak_search_matches_scipy_on_run_spectra(cfg, on_spectra,
                                                  monkeypatch):
    calls = recorded(monkeypatch, "prominent_peaks")
    for spec in on_spectra:
        calibrate_on(cfg, spec)
    monkeypatch.undo()
    assert len(calls) == len(SEEDS)
    for (smoothed, min_prominence, distance), _ in calls:
        assert_same_peaks(smoothed, min_prominence, distance)
        # every maximum that survives the distance filter, not only the
        # four lines above the configured prominence
        assert_same_peaks(smoothed, 0.0, distance)


ADVERSARIAL = {
    "odd-plateau": ([0, 1, 3, 3, 3, 1, 0], 1),
    "even-plateau-rounds-down": ([0, 2, 2, 0, 1, 5, 5, 5, 5, 0], 1),
    "plateaus-at-the-borders": ([4, 4, 1, 2, 1, 3, 3], 1),
    "maxima-at-the-edges": ([5, 1, 2, 1, 5], 1),
    "monotonic": ([1, 2, 3, 4, 5], 1),
    "plateau-then-rise": ([0, 3, 3, 4, 0], 1),
    "equal-heights-closer-than-distance": ([0, 4, 0, 4, 0, 4, 0, 4, 0], 3),
    "many-equal-heights": (np.tile([0, 1, 5, 1], 40), 6),
    "lower-peak-is-more-prominent": ([0, 9, 8, 9.5, 1, 0], 3),
    "flat": (np.full(50, 7.0), 5),
    "single-sample": ([3.0], 1),
}


@pytest.mark.parametrize("min_prominence", [0.0, 1.0, 4.0])
@pytest.mark.parametrize("name", sorted(ADVERSARIAL))
def test_peak_search_matches_scipy_on_adversarial_arrays(name,
                                                         min_prominence):
    x, distance = ADVERSARIAL[name]
    assert_same_peaks(np.asarray(x, dtype=np.float64), min_prominence,
                      distance)


@pytest.mark.parametrize("distance", [1, 2, 7, 30])
def test_peak_search_matches_scipy_on_integer_noise(distance):
    # small integers make plateaus and ties in height everywhere
    rng = np.random.default_rng(distance)
    for _ in range(20):
        x = rng.integers(0, 5, 300).astype(np.float64)
        for min_prominence in (0.0, 1.0, 3.0):
            assert_same_peaks(x, min_prominence, distance)


def reference_model(x, *params):
    out = np.full_like(x, params[-1], dtype=np.float64)
    for i in range(0, len(params) - 1, 3):
        amplitude, centroid, sigma = params[i:i + 3]
        out += amplitude * np.exp(-0.5 * ((x - centroid) / sigma) ** 2)
    return out


def test_fit_matches_curve_fit_in_every_window(cfg, on_spectra,
                                               monkeypatch):
    calls = recorded(monkeypatch, "_levenberg_marquardt")
    for spec in on_spectra:
        calibrate_on(cfg, spec)
    monkeypatch.undo()
    # three windows per on-run: Ti K-alpha and K-beta lie closer than two
    # window half-widths and share one, and each Mn line has its own
    assert len(calls) == 3 * len(SEEDS)
    for (x, y, yerr, p0, max_iter), (popt, pcov, chi2) in calls:
        peaks = (len(p0) - 1) // 3
        ref, ref_cov = optimize.curve_fit(
            reference_model, x, y, p0=p0, sigma=yerr, absolute_sigma=True,
            maxfev=calibrate.MAX_FIT_EVALS * peaks)
        ref_err = np.sqrt(np.diag(ref_cov))
        err = np.sqrt(np.diag(pcov))
        centroids = slice(1, 3 * peaks, 3)
        assert np.all(np.abs(popt[centroids] - ref[centroids])
                      <= 1e-3 * ref_err[centroids])
        np.testing.assert_allclose(err, ref_err, rtol=1e-3)
        ref_chi2 = (((y - reference_model(x, *ref)) / yerr) ** 2).sum()
        assert chi2 == pytest.approx(ref_chi2, rel=1e-3)
