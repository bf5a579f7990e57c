"""Shared fixtures and the acceptance-criteria result board."""

import dataclasses

import pytest

from pepsearch import config as config_mod

# (number, name, passed) rows filled in by tests/test_acceptance.py
CRITERIA_BOARD: list[tuple[int, str, bool]] = []


def calibration_kwargs(cfg, **overrides):
    """The keyword settings of ``calibrate_spectrum`` that the calibrate
    stage takes from the config, with ``overrides`` applied."""
    return {
        "expected_fwhm_ev": cfg.response.fwhm_at_reference_ev,
        "approx_gain_ev_per_channel": cfg.response.gain_ev_per_channel,
        "min_prominence": cfg.calibration.min_prominence,
        "window_halfwidth_sigmas": cfg.calibration.window_halfwidth_sigmas,
        "residual_threshold_ev": cfg.calibration.residual_threshold_ev,
        **overrides}


def _key(line):
    """The key of a ``key = value`` line, else None."""
    key, sep, _ = line.partition("=")
    if sep and key.strip() and not line.startswith(("#", "[")):
        return key.strip()
    return None


def ini_keys(text):
    """The (section, key) pairs of an INI text or a ``key = value``
    artifact, in file order; an artifact's keys are in section None."""
    pairs, section = [], None
    for line in text.splitlines():
        if line.startswith("["):
            section = line.strip("[]")
        elif _key(line):
            pairs.append((section, _key(line)))
    return pairs


def edit_ini(text, edits):
    """Text with ``edits[(section, key)]`` applied: ``None`` drops the key,
    any other value replaces it, and a key the section lacks is added as
    its first line."""
    present = set(ini_keys(text))

    def added(section):
        return [f"{k} = {value}" for (sec, k), value in edits.items()
                if sec == section and value is not None
                and (sec, k) not in present]

    lines, section = added(None), None
    for line in text.splitlines():
        target = (section, _key(line))
        if line.startswith("["):
            section = line.strip("[]")
            lines += [line] + added(section)
        elif target not in edits:
            lines.append(line)
        elif edits[target] is not None:
            lines.append(f"{target[1]} = {edits[target]}")
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="session")
def cfg():
    return config_mod.load_default_config()


@pytest.fixture(scope="session")
def quiet_source(cfg):
    """Default source with the calibration component removed.

    The calibration lines sit more than 12 sigma below the ROI, so ROI
    statistics are unchanged while event volume drops ~30x.
    """
    return dataclasses.replace(cfg.source, calibration_rate_hz=0.0,
                               calibration_lines=())


@pytest.fixture(scope="session")
def consts(cfg):
    return cfg.constants


@pytest.fixture(scope="session")
def silent_source(cfg):
    """Default source with every rate at zero: tests switch on the one
    component they study with ``dataclasses.replace``."""
    return dataclasses.replace(
        cfg.source, lines=(),
        continuum=dataclasses.replace(cfg.source.continuum, rate_hz=0.0),
        calibration_rate_hz=0.0, calibration_lines=(), muon_rate_hz=0.0)


@pytest.fixture(scope="session")
def no_injection(cfg):
    return dataclasses.replace(cfg.injection, beta2_over_2=0.0)


def pytest_terminal_summary(terminalreporter):
    if not CRITERIA_BOARD:
        return
    terminalreporter.section("acceptance criteria")
    for number, name, passed in sorted(CRITERIA_BOARD):
        verdict = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"criterion {number} ({name}): {verdict}")
