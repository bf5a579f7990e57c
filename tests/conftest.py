"""Shared fixtures and the acceptance-criteria result board."""

import dataclasses

import pytest

from pepsearch import config as config_mod

# (number, name, passed) rows filled in by tests/test_acceptance.py
CRITERIA_BOARD: list[tuple[int, str, bool]] = []


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
def no_injection(cfg):
    return dataclasses.replace(cfg.injection, beta2_over_2=0.0,
                               enabled=False)


def pytest_terminal_summary(terminalreporter):
    if not CRITERIA_BOARD:
        return
    terminalreporter.section("acceptance criteria")
    for number, name, passed in sorted(CRITERIA_BOARD):
        verdict = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"criterion {number} ({name}): {verdict}")
