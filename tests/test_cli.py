"""End-to-end checks of the command-line pipeline."""

import contextlib
import errno
import hashlib
import io
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import pepsearch
from conftest import edit_ini, ini_keys
from pepsearch import cli, config, limits, reference
from pepsearch.efficiency import EfficiencyResult, render_efficiency_report
from pepsearch.errors import DomainError
from pepsearch.eventio import EVENT_DTYPE, _encode_header, read_run

# 3 d on / 2 d off keeps full-source simulations fast while leaving
# calibration statistics comfortable; reproduce-paper reads only the
# [constants], which stay at the published operating point
ON_SMALL_S = 259_200
OFF_SMALL_S = 172_800

# sha256 of the artifacts of simulate --seed 5 on the small config, then
# calibrate, analyze with the configured response and limit; a change
# here is a change of output bytes.  calibration.txt and response.cfg are
# left out: their fit digits come from LAPACK solves and BLAS products,
# whose rounding may differ between numpy builds.
PINNED_SHA256 = {
    "on-100A-34d.run":
        "986d55dc938835dc0cc131dd21d4922f33d707989bd902b1ae8aeace59781dd8",
    "off-0A-28d.run":
        "d228584f7a16929715ed2aa64b9bbc5748469a57540d337113bf0f4548ff92b8",
    "on-100A-34d_generation.txt":
        "ef34e6a5678fd6e0e8c72ec8d7c7462e647cb39d1afb67d1506d6bc0d68c028f",
    "off-0A-28d_generation.txt":
        "344319da767b30f9cc2755bb5044685fc143ed6b1a54d9ec1fdc22a243b9ccd5",
    "spectrum_on.txt":
        "7eaa7a33c93945425e0c7f70753795694676bf50b55201b75a62a9071baa2bd1",
    "spectrum_off.txt":
        "ab6b7e4ab5743cda0ab2b3b913947bbf727a13d24d1db336582f5d56a7373222",
    "analysis.txt":
        "5e60d3e5844b23f5f73db54e644cbcad207ca9b43bc9bfb6a08cc675202c4432",
    "limit.txt":
        "796ff9e841f164699ce9cc9d55595adb44e4f113befdcf33231b60dd857693c1",
}

# sha256 of the artifacts computed from the published operating point
# alone, on the bundled config: reproduce-paper and project --target 1e-31
PINNED_REFERENCE_SHA256 = {
    "reproduction.txt":
        "71535936465ae966bf8b659867d923a0fd8112b521d1a8243cc8393a2d433191",
    "projection.txt":
        "53162c0c081fa4cc9826ab82e954849111df1268d172e832503290d87051b757",
}

# the record layouts of the run-file versions that the reader refuses:
# version 2 ended in an i32 sdd_timing_ns, version 3 carried a u8 sdd_id
OLD_RECORD_LAYOUTS = {
    2: np.dtype([("timestamp_ns", "<u8"), ("trigger_flags", "u1"),
                 ("sdd_id", "u1"), ("adc", "<u2"),
                 ("sdd_timing_ns", "<i4")]),
    3: np.dtype([("timestamp_ns", "<u8"), ("trigger_flags", "u1"),
                 ("sdd_id", "u1"), ("adc", "<u2")]),
}


def small_config_text():
    text = config.default_config_text()
    text = text.replace(
        "current_a = 100.0\nlive_time_s = 2937600",
        f"current_a = 100.0\nlive_time_s = {ON_SMALL_S}")
    text = text.replace(
        "run_id = off-0A-28d\nlive_time_s = 2419200",
        f"run_id = off-0A-28d\nlive_time_s = {OFF_SMALL_S}")
    return text


@pytest.fixture(scope="module")
def small_cfg_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "small.cfg"
    path.write_text(small_config_text())
    return path


@pytest.fixture(scope="module")
def small_cfg():
    return config.load_config_text(small_config_text())


def artifact_texts(cfg):
    """Valid analysis.txt and efficiency.txt texts, keyed by file name."""
    n_off_raw = limits.poisson_count(1796.0)
    record = limits.AnalysisRecord(
        subtraction=limits.subtract(limits.poisson_count(2222.0), n_off_raw,
                                    cfg.run_on.live_time_s,
                                    cfg.run_off.live_time_s,
                                    cfg.limit.error_mode),
        n_off_raw=n_off_raw, on_run=cfg.run_on,
        off_live_time_s=cfg.run_off.live_time_s, roi=cfg.roi)
    return {
        "analysis.txt": limits.render_analysis_report(record),
        "efficiency.txt": render_efficiency_report(EfficiencyResult(
            efficiency=0.01, mc_uncertainty=1e-5, samples=10_000,
            breakdown=(0.5, 0.02, 0.9))),
    }


@pytest.fixture(scope="module")
def campaign_dir(small_cfg_path, tmp_path_factory):
    out = tmp_path_factory.mktemp("campaign")
    rc = cli.main(["simulate", "--seed", "5", "--config",
                   str(small_cfg_path), "--output-dir", str(out)])
    assert rc == 0
    return out


class TestSimulate:
    def test_deterministic_artifacts(self, small_cfg_path, tmp_path):
        dirs = []
        for name in ("a", "b"):
            out = tmp_path / name
            rc = cli.main(["simulate", "--seed", "3", "--config",
                           str(small_cfg_path), "--output-dir", str(out)])
            assert rc == 0
            dirs.append(out)
        for stem in ("on-100A-34d", "off-0A-28d"):
            first = (dirs[0] / f"{stem}.run").read_bytes()
            second = (dirs[1] / f"{stem}.run").read_bytes()
            assert first == second
            assert (dirs[0] / f"{stem}_generation.txt").exists()

    def test_run_files_carry_roles(self, campaign_dir):
        on_header, _ = read_run(campaign_dir / "on-100A-34d.run")
        off_header, _ = read_run(campaign_dir / "off-0A-28d.run")
        assert on_header.current_on and not off_header.current_on
        assert on_header.live_time_s == ON_SMALL_S
        assert off_header.live_time_s == OFF_SMALL_S


class TestChain:
    def test_calibrate_then_analyze_then_limit(self, small_cfg,
                                               small_cfg_path, campaign_dir,
                                               tmp_path):
        out = tmp_path / "artifacts"
        on_path = campaign_dir / "on-100A-34d.run"
        off_path = campaign_dir / "off-0A-28d.run"

        rc = cli.main(["calibrate", "--input", str(on_path), "--config",
                       str(small_cfg_path), "--output-dir", str(out)])
        assert rc == 0
        response_path = out / "response.cfg"
        assert response_path.exists()
        assert (out / "calibration.txt").exists()

        rc = cli.main(["analyze", "--on", str(on_path), "--off",
                       str(off_path), "--calibration", str(response_path),
                       "--config", str(small_cfg_path),
                       "--output-dir", str(out)])
        assert rc == 0
        assert (out / "spectrum_on.txt").exists()
        assert (out / "spectrum_off.txt").exists()

        rc = cli.main(["limit", "--analysis", str(out / "analysis.txt"),
                       "--config", str(small_cfg_path),
                       "--output-dir", str(out)])
        assert rc == 0

        # the file-mediated chain must equal the single-process chain
        response = config.load_response_file(response_path)
        record, _, _ = cli.analyze_runs(small_cfg, on_path, off_path,
                                        response, small_cfg.limit.error_mode)
        result = limits.compute_limit(
            record.subtraction, record.on_run, small_cfg.constants,
            small_cfg.limit.efficiency, n_sigma=small_cfg.limit.n_sigma,
            bound_convention=small_cfg.limit.bound_convention)
        expected = limits.render_limit_report(
            result, n_off_raw=record.n_off_raw,
            off_live_time_s=record.off_live_time_s,
            on_live_time_s=record.on_run.live_time_s)
        assert (out / "limit.txt").read_text() == expected

    def test_calibration_report_carries_response_file(self, campaign_dir,
                                                      tmp_path):
        text = small_config_text() \
            .replace("channel_count = 16384", "channel_count = 20000") \
            .replace("reference_energy_ev = 8040.0",
                     "reference_energy_ev = 6000.0")
        cfg_path = tmp_path / "wide.cfg"
        cfg_path.write_text(text)
        rc = cli.main(["calibrate", "--input",
                       str(campaign_dir / "on-100A-34d.run"),
                       "--config", str(cfg_path), "--output-dir",
                       str(tmp_path)])
        assert rc == 0
        section = (tmp_path / "response.cfg").read_text()
        assert "channel_count = 20000\n" in section
        assert "reference_energy_ev = 6000.0\n" in section
        report = (tmp_path / "calibration.txt").read_text()
        assert report.endswith("\n\n" + section)
        assert report.count("[response]") == 1

    def test_artifact_bytes_pinned(self, small_cfg_path, campaign_dir,
                                   tmp_path):
        out = tmp_path / "pinned"
        shared = ["--config", str(small_cfg_path), "--output-dir", str(out)]
        on_path = campaign_dir / "on-100A-34d.run"
        off_path = campaign_dir / "off-0A-28d.run"
        assert cli.main(["calibrate", "--input", str(on_path)] + shared) == 0
        assert cli.main(["analyze", "--on", str(on_path), "--off",
                         str(off_path)] + shared) == 0
        assert cli.main(["limit", "--analysis",
                         str(out / "analysis.txt")] + shared) == 0
        digests = {}
        for name in PINNED_SHA256:
            path = campaign_dir / name
            if not path.exists():
                path = out / name
            digests[name] = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digests == PINNED_SHA256

    def test_reference_bytes_pinned(self, tmp_path):
        out = ["--output-dir", str(tmp_path)]
        assert cli.main(["reproduce-paper"] + out) == 0
        assert cli.main(["project", "--target", "1e-31"] + out) == 0
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes())
                   .hexdigest() for name in PINNED_REFERENCE_SHA256}
        assert digests == PINNED_REFERENCE_SHA256

    def test_analyze_idempotent(self, small_cfg_path, campaign_dir,
                                tmp_path):
        texts = []
        for name in ("first", "second"):
            out = tmp_path / name
            rc = cli.main(["analyze",
                           "--on", str(campaign_dir / "on-100A-34d.run"),
                           "--off", str(campaign_dir / "off-0A-28d.run"),
                           "--config", str(small_cfg_path),
                           "--output-dir", str(out)])
            assert rc == 0
            texts.append((out / "analysis.txt").read_text())
        assert texts[0] == texts[1]

    def test_analyze_rejects_swapped_roles(self, small_cfg_path,
                                           campaign_dir, tmp_path, capsys):
        rc = cli.main(["analyze",
                       "--on", str(campaign_dir / "off-0A-28d.run"),
                       "--off", str(campaign_dir / "on-100A-34d.run"),
                       "--config", str(small_cfg_path),
                       "--output-dir", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith("error:")
        assert "\n" not in err

    def test_analyze_error_mode_from_config(self, small_cfg_path,
                                            campaign_dir, tmp_path):
        text = small_config_text().replace("error_mode = paper-naive",
                                           "error_mode = propagated")
        cfg_path = tmp_path / "propagated.cfg"
        cfg_path.write_text(text)
        runs = ["--on", str(campaign_dir / "on-100A-34d.run"),
                "--off", str(campaign_dir / "off-0A-28d.run")]
        modes = {}
        for name, path in (("default", small_cfg_path),
                           ("propagated", cfg_path)):
            out = tmp_path / name
            assert cli.main(["analyze"] + runs + ["--config", str(path),
                                                  "--output-dir",
                                                  str(out)]) == 0
            assert cli.main(["limit", "--analysis", str(out / "analysis.txt"),
                             "--config", str(path),
                             "--output-dir", str(out)]) == 0
            modes[name] = limits.parse_analysis_report(
                (out / "analysis.txt").read_text()).subtraction.error_mode
            assert f"(error mode: {modes[name]})" in \
                (out / "limit.txt").read_text()
        assert modes == {"default": "paper-naive", "propagated": "propagated"}

    def test_strong_injection_shows_up(self, tmp_path):
        # beta^2/2 three decades above the published bound must produce an
        # unmissable ROI excess even at 3 d exposure
        text = small_config_text().replace("beta2_over_2 = 4.2e-29",
                                           "beta2_over_2 = 1e-27")
        cfg_path = tmp_path / "hot.cfg"
        cfg_path.write_text(text)
        out = tmp_path / "hot"
        rc = cli.main(["simulate", "--seed", "5", "--config", str(cfg_path),
                       "--output-dir", str(out)])
        assert rc == 0
        rc = cli.main(["analyze", "--on", str(out / "on-100A-34d.run"),
                       "--off", str(out / "off-0A-28d.run"),
                       "--config", str(cfg_path), "--output-dir", str(out)])
        assert rc == 0
        record = limits.parse_analysis_report(
            (out / "analysis.txt").read_text())
        delta = record.subtraction.delta
        assert delta.value / delta.uncertainty > 5.0


class TestEfficiencyCommand:
    def test_report_artifact(self, small_cfg_path, tmp_path):
        out = tmp_path / "eff"
        rc = cli.main(["efficiency", "--seed", "2", "--samples", "20000",
                       "--config", str(small_cfg_path),
                       "--output-dir", str(out)])
        assert rc == 0
        from pepsearch.efficiency import parse_efficiency_report
        result = parse_efficiency_report((out / "efficiency.txt").read_text())
        assert result.samples == 20000
        assert 0.005 <= result.efficiency <= 0.02


class TestProjectCommand:
    def test_fixed_point_and_goal(self, small_cfg_path, small_cfg,
                                  tmp_path):
        ref = reference.PUBLISHED_REFERENCE
        denominator = (ref["current_a"] * ref["on_live_time_s"] / 1.602e-19) \
            * 0.1 * (10.0 / 3.9e-6) * ref["efficiency"]
        ref_limit = 3.0 * ref["published_delta_uncertainty"] / denominator

        out = tmp_path / "proj"
        rc = cli.main(["project", "--target", repr(ref_limit), "--config",
                       str(small_cfg_path), "--output-dir", str(out)])
        assert rc == 0
        text = (out / "projection.txt").read_text()
        assert "improvement factor   = 1.0" in text
        assert "  sigma ~ sqrt(t)    = 34.0 d" in text
        assert "  sigma fixed        = 34.0 d" in text

        rc = cli.main(["project", "--target", "1e-31", "--config",
                       str(small_cfg_path), "--output-dir", str(out)])
        assert rc == 0
        text = (out / "projection.txt").read_text()
        factor = ref_limit / 1e-31
        assert f"improvement factor   = {factor:.1f}" in text


class TestReproduceCommand:
    def test_published_numbers(self, tmp_path, capsys):
        out = tmp_path / "repro"
        rc = cli.main(["reproduce-paper", "--output-dir", str(out)])
        assert rc == 0
        text = (out / "reproduction.txt").read_text()
        assert "4.2e-29" in text
        assert "41 +/- 66" in text
        assert "verdict          = PASS" in text
        assert text in capsys.readouterr().out

    def test_flags_constant_drift(self, tmp_path, capsys):
        text = config.default_config_text().replace(
            "capture_fraction = 0.1", "capture_fraction = 0.2")
        cfg_path = tmp_path / "drift.cfg"
        cfg_path.write_text(text)
        rc = cli.main(["reproduce-paper", "--config", str(cfg_path),
                       "--output-dir", str(tmp_path)])
        assert rc == 1
        assert "constants.capture_fraction" in capsys.readouterr().err

    def test_zero_efficiency_config(self, tmp_path, capsys):
        text = config.default_config_text().replace(
            "bound_convention = paper\nefficiency = 0.01",
            "bound_convention = paper\nefficiency = 0.0")
        cfg_path = tmp_path / "zeroeff.cfg"
        cfg_path.write_text(text)
        rc = cli.main(["reproduce-paper", "--config", str(cfg_path),
                       "--output-dir", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith("error:")
        assert "\n" not in err


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["simulate", "--seed", "1", "--bogus"])
        assert exc.value.code == 2

    def test_missing_seed_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["simulate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", ["simulate --seed -1",
                                      "efficiency --seed -1 --samples 10000"],
                             ids=["simulate", "efficiency"])
    def test_negative_seed_is_usage_error(self, argv, tmp_path, capsys):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            cli.main(argv.split() + ["--output-dir", str(out)])
        assert exc.value.code == 2
        assert "argument --seed: -1 is negative" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("name", ["absent.cfg", "."],
                             ids=["missing", "directory"])
    def test_missing_config_file_is_usage_error(self, name, tmp_path, capsys):
        rc = cli.main(["reproduce-paper", "--config",
                       str(tmp_path / name),
                       "--output-dir", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "usage error" in err
        assert err.endswith(" is not a file\n") and err.count("\n") == 1

    def test_workers_only_on_efficiency(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(["analyze", "--on", "a.run", "--off", "b.run",
                      "--workers", "2", "--output-dir", str(tmp_path)])
        assert exc.value.code == 2

    @pytest.mark.parametrize("artifact, key", [
        ("efficiency", "efficiency"),
        ("analysis", "n_off_raw"),
        ("analysis", "error_mode"),
    ])
    def test_non_numeric_artifact_value(self, artifact, key, small_cfg,
                                        tmp_path, capsys):
        texts = artifact_texts(small_cfg)
        target = f"{artifact}.txt"
        lines = [f"{key} = x" if line.split("=")[0].strip() == key else line
                 for line in texts[target].splitlines()]
        texts[target] = "\n".join(lines) + "\n"
        for name, text in texts.items():
            (tmp_path / name).write_text(text)
        rc = cli.main(["limit", "--analysis", str(tmp_path / "analysis.txt"),
                       "--efficiency-file", str(tmp_path / "efficiency.txt"),
                       "--output-dir", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith("error:")
        assert "\n" not in err
        assert key in err
        assert not (tmp_path / "limit.txt").exists()

    @pytest.mark.parametrize("old, new, section, key", [
        ("live_time_s = 2937600", "live_time_s = nan", "[run.on]",
         "live_time_s"),
        ("[source.line.cu_ka]\nrate_hz = 0.02",
         "[source.line.cu_ka]\nrate_hz = inf", "[source.line.cu_ka]",
         "rate_hz"),
    ], ids=["run-on-live-time-nan", "cu-ka-rate-inf"])
    def test_non_finite_config_value(self, old, new, section, key, tmp_path,
                                     capsys):
        text = config.default_config_text()
        assert old in text
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text(text.replace(old, new))
        rc = cli.main(["simulate", "--seed", "1", "--config", str(cfg_path),
                       "--output-dir", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith("error:")
        assert "\n" not in err
        assert f"{section} {key} = " in err
        assert not (tmp_path / "out").exists()

    def test_non_finite_artifact_value(self, small_cfg, tmp_path, capsys):
        text = artifact_texts(small_cfg)["analysis.txt"]
        text = "\n".join("on_live_time_s = inf"
                         if line.startswith("on_live_time_s") else line
                         for line in text.splitlines()) + "\n"
        (tmp_path / "analysis.txt").write_text(text)
        rc = cli.main(["limit", "--analysis", str(tmp_path / "analysis.txt"),
                       "--output-dir", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: analysis report on_live_time_s")
        assert "\n" not in err
        assert not (tmp_path / "limit.txt").exists()

    # n_sigma has no flag: the config is the one place it is set
    @pytest.mark.parametrize("argv, artifact, match", [
        ("limit --analysis analysis.txt --config nsigma-nan.cfg",
         "limit.txt", "n_sigma"),
        ("limit --analysis analysis.txt --config nsigma-inf.cfg",
         "limit.txt", "n_sigma"),
        ("project --target inf", "projection.txt", "target bound"),
    ], ids=["nsigma-nan", "nsigma-inf", "target-inf"])
    def test_non_finite_flag(self, argv, artifact, match, small_cfg,
                             tmp_path, capsys, monkeypatch):
        (tmp_path / "analysis.txt").write_text(
            artifact_texts(small_cfg)["analysis.txt"])
        for value in ("nan", "inf"):
            text = config.default_config_text()
            assert "n_sigma = 3.0" in text
            (tmp_path / f"nsigma-{value}.cfg").write_text(
                text.replace("n_sigma = 3.0", f"n_sigma = {value}"))
        monkeypatch.chdir(tmp_path)
        rc = cli.main(argv.split() + ["--output-dir", "out"])
        assert rc == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith("error:")
        assert "\n" not in err
        assert match in err
        assert not (tmp_path / "out" / artifact).exists()

    @pytest.mark.parametrize("key, value, match", [
        ("n_off_raw", "-5.0",
         "analysis report n_off_raw = -5.0: a count must be non-negative"),
        ("n_on", "-1.0",
         "analysis report n_on = -1.0: a count must be non-negative"),
        ("off_live_time_s", "0.0", "analysis report off_live_time_s = 0.0: "
                                   "source live time must be positive"),
        ("on_live_time_s", "-1.0", "analysis report on_run_id = on-100A-34d, "
                                   "on_current_a = 100.0, on_live_time_s = "
                                   "-1.0: live_time_s must be non-negative"),
        ("on_run_id", "../x", "analysis report on_run_id = ../x, "
                              "on_current_a = 100.0, on_live_time_s = "
                              "259200.0: run_id '../x' must be a non-empty "
                              "file name"),
        ("roi_low_ev", "9000.0", "analysis report roi_low_ev = 9000.0, "
                                 "roi_high_ev = 7829.0: ROI low bound must "
                                 "be below the high bound"),
        ("error_mode", "bogus", "analysis report error_mode = bogus: "
                                "unknown error_mode 'bogus'"),
    ], ids=["negative-count", "negative-on-count", "zero-off-live-time",
            "negative-on-live-time", "run-id-path", "empty-roi",
            "unknown-error-mode"])
    def test_impossible_analysis_value(self, key, value, match, small_cfg,
                                       tmp_path, capsys):
        text = artifact_texts(small_cfg)["analysis.txt"]
        lines = [f"{key} = {value}" if line.startswith(key + " =") else line
                 for line in text.splitlines()]
        assert lines != text.splitlines()
        (tmp_path / "analysis.txt").write_text("\n".join(lines) + "\n")
        rc = cli.main(["limit", "--analysis", str(tmp_path / "analysis.txt"),
                       "--output-dir", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert match in err
        assert not (tmp_path / "limit.txt").exists()

    @pytest.mark.parametrize("argv", [
        "analyze --on a.run --off b.run --error-mode propagated",
        "limit --analysis analysis.txt --nsigma 2",
        "limit --analysis analysis.txt --bound-convention paper",
    ], ids=["error-mode", "nsigma", "bound-convention"])
    def test_limit_convention_flags_are_gone(self, argv, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv.split() + ["--output-dir", str(tmp_path)])
        assert exc.value.code == 2

    @pytest.mark.parametrize("edits, argv, match", [
        ({("binning", "bins"): "1" + "0" * 400}, "reproduce-paper",
         f"error: [binning] bins = '1{'0' * 400}' does not fit in a 64-bit "
         "integer\n"),
        ({("binning", "bins"): str(2**62)}, "reproduce-paper",
         "[binning] bins"),
        ({("efficiency", "samples"): str(10**30)}, "efficiency --seed 1",
         "[efficiency] samples"),
        ({}, f"efficiency --seed 1 --samples {10**30}", "samples"),
    ], ids=["400-digit-bins", "2**62-bins", "1e30-samples-key",
            "1e30-samples-flag"])
    def test_oversized_integer(self, edits, argv, match, tmp_path, capsys):
        path = tmp_path / "oversized.cfg"
        path.write_text(edit_ini(config.default_config_text(), edits))
        out = tmp_path / "out"
        rc = cli.main(argv.split() + ["--config", str(path),
                                      "--output-dir", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert match in err
        assert not out.exists()

    @pytest.mark.parametrize("edits, match", [
        ({("constants", "electron_charge_c"): "1.0",
          ("constants", "capture_fraction"): "0.5"},
         "constants.electron_charge_c: expected 1.602e-19, configured 1.0; "
         "constants.capture_fraction"),
        ({("roi", "low_ev"): "7629.0\nnot a key"}, "cannot parse"),
    ], ids=["two-constants-off-the-reference", "line-without-a-key"])
    def test_config_error_is_one_line(self, edits, match, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text(edit_ini(config.default_config_text(), edits))
        rc = cli.main(["reproduce-paper", "--config", str(path),
                       "--output-dir", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert match in err

    @pytest.mark.parametrize("leading", [True, False],
                             ids=["leading", "trailing"])
    @pytest.mark.parametrize("argv, bad", [
        ("limit --analysis {} --efficiency-file efficiency.txt",
         "analysis.txt"),
        ("limit --analysis analysis.txt --efficiency-file {}",
         "efficiency.txt"),
        ("project --target 1e-31 --analysis {}", "analysis.txt"),
        ("analyze --on on.run --off off.run --calibration {}",
         "response.cfg"),
        ("reproduce-paper --config {}", "small.cfg"),
    ], ids=["limit-analysis", "limit-efficiency", "project-analysis",
            "analyze-calibration", "config"])
    def test_non_utf8_text_input(self, argv, bad, leading, small_cfg,
                                 tmp_path, capsys, monkeypatch):
        texts = artifact_texts(small_cfg)
        texts["response.cfg"] = config.default_config_text()
        texts["small.cfg"] = small_config_text()
        for name, text in texts.items():
            data = text.encode()
            if name == bad:
                data = b"\xff" + data if leading else data + b"\xff"
            (tmp_path / name).write_bytes(data)
        monkeypatch.chdir(tmp_path)
        rc = cli.main(argv.format(bad).split() + ["--output-dir", "out"])
        assert rc == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith("error:")
        assert "\n" not in err
        assert bad in err
        assert not (tmp_path / "out").exists()

    # every text input is read by config.read_text, the one place an
    # unreadable path fails
    @pytest.mark.parametrize("missing", [True, False],
                             ids=["missing", "directory"])
    @pytest.mark.parametrize("argv", [
        "analyze --on {on} --off {off} --calibration {bad}",
        "limit --analysis {bad}",
        "limit --analysis analysis.txt --efficiency-file {bad}",
        "project --target 1e-31 --analysis {bad}",
    ], ids=["analyze-calibration", "limit-analysis", "limit-efficiency",
            "project-analysis"])
    def test_unreadable_text_input(self, argv, missing, small_cfg_path,
                                   small_cfg, campaign_dir, tmp_path,
                                   capsys, monkeypatch):
        (tmp_path / "analysis.txt").write_text(
            artifact_texts(small_cfg)["analysis.txt"])
        bad = tmp_path / "bad"
        if not missing:
            bad.mkdir()
        monkeypatch.chdir(tmp_path)
        rc = cli.main(argv.format(on=campaign_dir / "on-100A-34d.run",
                                  off=campaign_dir / "off-0A-28d.run",
                                  bad=bad).split()
                      + ["--config", str(small_cfg_path)])
        assert rc == 1
        reason = os.strerror(errno.ENOENT if missing else errno.EISDIR)
        assert capsys.readouterr().err == \
            f"error: cannot read {bad}: {reason}\n"

    # read_run names an unreadable run file as read_text names a text input
    @pytest.mark.parametrize("missing", [True, False],
                             ids=["missing", "directory"])
    @pytest.mark.parametrize("argv", [
        "calibrate --input {bad}",
        "analyze --on {bad} --off {off}",
        "analyze --on {on} --off {bad}",
    ], ids=["calibrate-input", "analyze-on", "analyze-off"])
    def test_unreadable_run_file(self, argv, missing, small_cfg_path,
                                 campaign_dir, tmp_path, capsys):
        bad = tmp_path / "bad.run"
        if not missing:
            bad.mkdir()
        out = tmp_path / "out"
        rc = cli.main(argv.format(on=campaign_dir / "on-100A-34d.run",
                                  off=campaign_dir / "off-0A-28d.run",
                                  bad=bad).split()
                      + ["--config", str(small_cfg_path),
                         "--output-dir", str(out)])
        assert rc == 1
        reason = os.strerror(errno.ENOENT if missing else errno.EISDIR)
        assert capsys.readouterr().err == \
            f"error: cannot read {bad}: {reason}\n"
        assert not out.exists()

    # the output directory is made by the first write, so a command that
    # fails before it leaves none behind
    @pytest.mark.parametrize("argv", [
        "efficiency --seed 1 --samples -1",
        "calibrate --input {tmp}/absent.run",
        "analyze --on {on} --off {tmp}/absent.run",
        "limit --analysis {tmp}",
        "project --target -1",
    ], ids=["efficiency-samples", "calibrate-input", "analyze-off",
            "limit-analysis", "project-target"])
    def test_failed_command_leaves_no_output_dir(self, argv, small_cfg_path,
                                                 campaign_dir, tmp_path,
                                                 capsys):
        out = tmp_path / "out"
        rc = cli.main(argv.format(tmp=tmp_path,
                                  on=campaign_dir / "on-100A-34d.run").split()
                      + ["--config", str(small_cfg_path),
                         "--output-dir", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert not out.exists()

    def test_truncated_run_file(self, small_cfg_path, campaign_dir,
                                tmp_path, capsys):
        whole = (campaign_dir / "on-100A-34d.run").read_bytes()
        broken = tmp_path / "broken.run"
        broken.write_bytes(whole[:len(whole) // 2 + 13])
        rc = cli.main(["calibrate", "--input", str(broken), "--config",
                       str(small_cfg_path), "--output-dir", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith("error:")
        assert "\n" not in err
        assert "Traceback" not in err

    def test_header_field_overflow(self, tmp_path, capsys):
        # 5e6 A is 5e9 mA, past the u32 current_ma field of the header
        text = small_config_text().replace(
            "current_a = 100.0", "current_a = 5000000.0")
        cfg_path = tmp_path / "huge.cfg"
        cfg_path.write_text(text)
        out = tmp_path / "out"
        rc = cli.main(["simulate", "--seed", "1", "--config", str(cfg_path),
                       "--output-dir", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: run header current_ma = 5000000000 does not fit its "
            "u32 field\n")
        assert not out.exists()

    # simulate names its files after the run_id; an indented line continues
    # the value above it in an INI file
    @pytest.mark.parametrize("run_id", ["../escaped",
                                        "on-100A-34d\n  ../../evil"],
                             ids=["parent-path", "continuation-line"])
    def test_run_id_outside_output_dir(self, run_id, tmp_path, capsys):
        cfg_path = tmp_path / "escape.cfg"
        cfg_path.write_text(small_config_text().replace(
            "run_id = on-100A-34d", f"run_id = {run_id}"))
        out = tmp_path / "a" / "b" / "out"
        rc = cli.main(["simulate", "--seed", "1", "--config", str(cfg_path),
                       "--output-dir", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: run_id ") and err.count("\n") == 1
        assert [p.name for p in tmp_path.rglob("*")] == ["escape.cfg"]

    @pytest.mark.parametrize("live_time_s", ["1e20", "1e12"])
    def test_live_time_past_the_slice_bound(self, live_time_s, tmp_path):
        # 1e20 s would size a 49.3 PiB table of per-slice counts and 1e12 s
        # spawn 11.6M seed sequences per component; the child process runs
        # under a 3e6 KiB address-space limit, so that no version of the
        # program can take the machine's memory in this test
        cfg_path = tmp_path / "long.cfg"
        cfg_path.write_text(small_config_text().replace(
            f"live_time_s = {ON_SMALL_S}", f"live_time_s = {live_time_s}"))
        out = tmp_path / "out"
        src = Path(pepsearch.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-c", UNDER_3E6_KIB, "simulate", "--seed", "1",
             "--config", str(cfg_path), "--output-dir", str(out)],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 1
        assert proc.stderr == (
            f"error: run on-100A-34d: live_time_s = {float(live_time_s)} "
            "exceeds 5662310400 s, the 65536 one-day slices a run may "
            "span\n")
        assert not out.exists()

    def test_out_of_memory(self, tmp_path):
        # 1e9 s is inside the slice bound but draws about 2.1e9 events,
        # whose 21 GiB record array cannot be had under a 3e6 KiB
        # address-space limit
        cfg_path = tmp_path / "long.cfg"
        cfg_path.write_text(small_config_text().replace(
            f"live_time_s = {ON_SMALL_S}", "live_time_s = 1e9"))
        out = tmp_path / "out"
        src = Path(pepsearch.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-c", UNDER_3E6_KIB, "simulate", "--seed", "1",
             "--config", str(cfg_path), "--output-dir", str(out)],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: out of memory")
        assert proc.stderr.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["calibrate", "analyze"])
    @pytest.mark.parametrize("version", [2, 3], ids=["v2", "v3"])
    def test_old_version_run_file(self, version, command, small_cfg_path,
                                  campaign_dir, tmp_path, capsys):
        # the on-run rewritten in its old record layout
        header, events = read_run(campaign_dir / "on-100A-34d.run")
        old_records = np.zeros(len(events), OLD_RECORD_LAYOUTS[version])
        for name in EVENT_DTYPE.names:
            old_records[name] = events[name]
        head = bytearray(_encode_header(header))
        head[4:6] = version.to_bytes(2, "little")
        old = tmp_path / f"v{version}.run"
        old.write_bytes(bytes(head) + old_records.tobytes())
        argv = {"calibrate": ["calibrate", "--input", str(old)],
                "analyze": ["analyze", "--on", str(old), "--off",
                            str(campaign_dir / "off-0A-28d.run")]}[command]
        out = tmp_path / "out"
        rc = cli.main(argv + ["--config", str(small_cfg_path),
                              "--output-dir", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == \
            f"error: unsupported format version {version} (byte offset 4)\n"
        assert not out.exists()


ANALYSIS_KEYS = ("roi_low_ev", "roi_high_ev", "error_mode", "n_on",
                 "n_off_raw", "on_run_id", "on_current_a", "on_live_time_s",
                 "off_live_time_s")

# None drops the key; every other value replaces it
_mutation_values = (st.sampled_from([None, "nan", "-1", "0", "1e400",
                                     "1" + "0" * 400, ""])
                    | st.text(st.characters(blacklist_categories=("Cs",)),
                              max_size=12))


class TestAnalysisFuzz:
    @settings(max_examples=60, deadline=None)
    @given(mutations=st.dictionaries(st.sampled_from(ANALYSIS_KEYS),
                                     _mutation_values, min_size=1,
                                     max_size=3))
    def test_limit_on_mutated_analysis(self, mutations, small_cfg):
        lines = []
        for line in artifact_texts(small_cfg)["analysis.txt"].splitlines():
            key = line.split(" = ")[0]
            if key not in mutations:
                lines.append(line)
            elif mutations[key] is not None:
                lines.append(f"{key} = {mutations[key]}")
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "analysis.txt"
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                rc = cli.main(["limit", "--analysis", str(path),
                               "--output-dir", tmp])
            wrote = (Path(tmp) / "limit.txt").exists()
        assert rc in (0, 1)
        if rc == 0:
            assert wrote and err.getvalue() == ""
        else:
            assert not wrote
            assert err.getvalue().startswith("error:")
            assert err.getvalue().count("\n") == 1


def _with_unknown_key(keys):
    """(section, key) pairs to mutate: the given keys, and a key named
    "bogus" in each of their sections, which setting adds."""
    return keys + [(section, "bogus")
                   for section in dict.fromkeys(s for s, _ in keys)]


CONFIG_TARGETS = _with_unknown_key(ini_keys(config.default_config_text()))
RESPONSE_TEXT = ("[response]\ngain_ev_per_channel = 1.0\noffset_ev = 0.0\n"
                 "fwhm_at_reference_ev = 200.0\n"
                 "reference_energy_ev = 8040.0\nchannel_count = 16384\n")
RESPONSE_TARGETS = _with_unknown_key(ini_keys(RESPONSE_TEXT))
EFFICIENCY_TARGETS = _with_unknown_key(ini_keys(
    artifact_texts(config.load_default_config())["efficiency.txt"]))


def _edits(targets):
    return st.dictionaries(st.sampled_from(targets), _mutation_values,
                           min_size=1, max_size=3)


def _main(argv):
    """cli.main's exit code and stderr; it must end 0 with nothing on
    stderr, or 1 or 2 with one error line."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    if rc == 0:
        assert err.getvalue() == ""
    else:
        assert rc in (1, 2)
        assert err.getvalue().startswith(("error:", "usage error:"))
        assert err.getvalue().count("\n") == 1
    return rc


class TestTextInputFuzz:
    """Mutated config, response.cfg and efficiency.txt texts: keys
    dropped, unknown keys added, values out of range or garbage."""

    @settings(max_examples=40, deadline=None)
    @given(command=st.sampled_from([["reproduce-paper"],
                                    ["project", "--target", "1e-31"]]),
           edits=_edits(CONFIG_TARGETS))
    def test_config(self, command, edits):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "fuzz.cfg"
            path.write_text(edit_ini(config.default_config_text(), edits),
                            encoding="utf-8")
            _main(command + ["--config", str(path), "--output-dir", tmp])

    @settings(max_examples=40, deadline=None)
    @given(edits=_edits(RESPONSE_TARGETS))
    def test_response_file(self, edits):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "response.cfg"
            path.write_text(edit_ini(RESPONSE_TEXT, edits), encoding="utf-8")
            try:
                config.load_response_file(path)
            except DomainError as exc:
                assert "\n" not in str(exc)

    @settings(max_examples=40, deadline=None)
    @given(edits=_edits(EFFICIENCY_TARGETS))
    def test_efficiency_file(self, edits, small_cfg):
        texts = artifact_texts(small_cfg)
        with tempfile.TemporaryDirectory() as tmp:
            for name, text in texts.items():
                if name == "efficiency.txt":
                    text = edit_ini(text, edits)
                (Path(tmp) / name).write_text(text, encoding="utf-8")
            rc = _main(["limit", "--analysis", f"{tmp}/analysis.txt",
                        "--efficiency-file", f"{tmp}/efficiency.txt",
                        "--output-dir", tmp])
            assert (Path(tmp) / "limit.txt").exists() == (rc == 0)


@pytest.fixture(scope="module")
def chain_files(small_cfg_path, campaign_dir, tmp_path_factory):
    """The small campaign's config, run files and the artifacts of its
    chain, by file name."""
    out = tmp_path_factory.mktemp("chain")
    on, off = campaign_dir / "on-100A-34d.run", campaign_dir / "off-0A-28d.run"
    for argv in (["calibrate", "--input", str(on)],
                 ["analyze", "--on", str(on), "--off", str(off),
                  "--calibration", str(out / "response.cfg")],
                 ["efficiency", "--seed", "1", "--samples", "10000"]):
        assert cli.main(argv + ["--config", str(small_cfg_path),
                                "--output-dir", str(out)]) == 0
    files = {p.name: p for d in (campaign_dir, out) for p in d.iterdir()}
    return {**files, "small.cfg": small_cfg_path}


# a path flag takes a file of the small chain or one of three bad paths,
# made fresh for each example
_BAD_PATHS = ["absent", "directory", "bytes"]
_PATHS = st.sampled_from(["on-100A-34d.run", "off-0A-28d.run", "response.cfg",
                          "analysis.txt", "efficiency.txt"] + _BAD_PATHS)
_NUMBERS = st.one_of(*map(st.just, ["nan", "-1", "0", "1e400",
                                     "1" + "0" * 400]),
                     st.text(st.characters(blacklist_categories=("Cs",)),
                             max_size=12))

# the flags of each subcommand but --config and --output-dir, with the
# values they take
CLI_FLAGS = {
    "simulate": {"--seed": _NUMBERS},
    "efficiency": {"--seed": _NUMBERS,
                   "--samples": st.sampled_from(["-1", "0", "10000",
                                                 "1" + "0" * 400]),
                   "--workers": st.sampled_from(["-1", "0", "1", "2"])},
    "calibrate": {"--input": _PATHS},
    "analyze": {"--on": _PATHS, "--off": _PATHS, "--calibration": _PATHS},
    "limit": {"--analysis": _PATHS, "--efficiency-file": _PATHS},
    "project": {"--target": _NUMBERS, "--analysis": _PATHS},
    "reproduce-paper": {},
}


# true about 3 times in 4: a flag is left out, or an unknown one added, often
# enough to be tested but seldom enough that most argvs reach the command
_MOSTLY = st.sampled_from([True, True, True, False])


@st.composite
def _argvs(draw):
    """One subcommand and a subset of its flags, sometimes with a flag it
    does not know."""
    command = draw(st.sampled_from(sorted(CLI_FLAGS)))
    flags = {**CLI_FLAGS[command],
             "--config": st.sampled_from(["small.cfg"] + _BAD_PATHS)}
    argv = [command]
    for flag, values in flags.items():
        if draw(_MOSTLY):
            argv += [flag, draw(values)]
    if not draw(_MOSTLY):
        argv += ["--unknown", draw(_NUMBERS)]
    return argv


class TestArgvFuzz:
    # --seed -1 once ended in a traceback; the random argvs reach it in
    # about one run of 60 examples in five, so it is pinned
    @settings(max_examples=60, deadline=None)
    @given(argv=_argvs(), blob=st.binary(max_size=64))
    @example(argv=["simulate", "--seed", "-1"], blob=b"")
    @example(argv=["efficiency", "--seed", "-1", "--samples", "10000"],
             blob=b"")
    def test_main(self, argv, blob, chain_files):
        with tempfile.TemporaryDirectory() as tmp:
            paths = {**chain_files, "absent": Path(tmp) / "absent",
                     "directory": Path(tmp) / "directory",
                     "bytes": Path(tmp) / "bytes"}
            paths["directory"].mkdir()
            paths["bytes"].write_bytes(blob)
            argv = [str(paths.get(arg, arg)) for arg in argv]
            try:
                _main(argv + ["--output-dir", str(Path(tmp) / "out")])
            except SystemExit as exc:
                assert exc.code == 2


class TestOutputDir:
    def test_flag_is_the_one_way_to_name_it(self, tmp_path, monkeypatch):
        # artifacts go to --output-dir, made at the first write, else to
        # the working directory; the environment names no directory
        env_dir = tmp_path / "from_env"
        monkeypatch.setenv("PEPSEARCH_OUTPUT_DIR", str(env_dir))
        monkeypatch.chdir(tmp_path)
        assert cli.main(["reproduce-paper"]) == 0
        assert (tmp_path / "reproduction.txt").exists()
        assert cli.main(["reproduce-paper", "--output-dir", "a/b/c"]) == 0
        assert (tmp_path / "a" / "b" / "c" / "reproduction.txt").exists()
        assert not env_dir.exists()

    # a file where the directory or one of its parents would go is a
    # usage error before any work, not an OSError at the first write
    @pytest.mark.parametrize("under", [False, True],
                             ids=["file", "under-file"])
    @pytest.mark.parametrize("argv", [["simulate", "--seed", "1"],
                                      ["reproduce-paper"]],
                             ids=["simulate", "reproduce-paper"])
    def test_file_in_the_way(self, argv, under, tmp_path, capsys,
                             monkeypatch):
        def no_work(*args):
            raise AssertionError("work started")

        monkeypatch.setattr(cli.simulate_mod, "simulate_campaign", no_work)
        monkeypatch.setattr(cli.reference_mod, "reproduce_reference", no_work)
        afile = tmp_path / "afile"
        afile.write_text("")
        out = afile / "sub" if under else afile
        assert cli.main(argv + ["--output-dir", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"usage error: output directory {out}: {afile} is not a "
            "directory\n")
        assert sorted(tmp_path.iterdir()) == [afile]


class TestArtifactMode:
    @pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
    def test_mode_of_a_plain_open(self, umask, tmp_path):
        old = os.umask(umask)
        try:
            with open(tmp_path / "plain", "wb"):
                pass
            with cli._atomic_write(tmp_path / "atomic") as fh:
                fh.write(b"x")
        finally:
            os.umask(old)
        modes = [(tmp_path / name).stat().st_mode & 0o777
                 for name in ("plain", "atomic")]
        assert modes == [0o666 & ~umask] * 2


# runs `python -m pepsearch.cli` with its address space capped at 3e6 KiB,
# as `ulimit -v 3000000` caps it
UNDER_3E6_KIB = """\
import resource, runpy

limit = 3_000_000 * 1024
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
runpy.run_module("pepsearch.cli", run_name="__main__")
"""

# runs `python -m pepsearch.cli` with every scipy import failing
WITHOUT_SCIPY = """\
import runpy, sys

class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ImportError(f"{name} is blocked")

sys.meta_path.insert(0, BlockScipy())
runpy.run_module("pepsearch.cli", run_name="__main__")
"""


def test_calibrate_runs_without_scipy(small_cfg_path, campaign_dir,
                                      tmp_path):
    src = Path(pepsearch.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = tmp_path / "artifacts"
    proc = subprocess.run(
        [sys.executable, "-c", WITHOUT_SCIPY, "calibrate", "--input",
         str(campaign_dir / "on-100A-34d.run"), "--config",
         str(small_cfg_path), "--output-dir", str(out)],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (out / "response.cfg").exists()


def test_startup_does_not_load_scipy():
    # only calibrate fits peaks; every other command starts without scipy
    src = Path(pepsearch.__file__).resolve().parents[1]
    code = ("import sys, pepsearch.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "[]"
