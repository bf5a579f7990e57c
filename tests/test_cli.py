"""End-to-end checks of the command-line pipeline."""

import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pepsearch
from pepsearch import cli, config, limits, reference
from pepsearch.efficiency import EfficiencyResult, render_efficiency_report
from pepsearch.eventio import read_run

# 3 d on / 2 d off keeps full-source simulations fast while leaving
# calibration statistics comfortable; reproduce-paper reads only the
# [constants], which stay at the published operating point
ON_SMALL_S = 259_200
OFF_SMALL_S = 172_800

# sha256 of the artifacts of simulate --seed 5 on the small config, then
# calibrate, analyze with the configured response and limit; a change
# here is a change of output bytes.  calibration.txt and response.cfg are
# left out: their fit digits may differ between scipy builds.
PINNED_SHA256 = {
    "on-100A-34d.run":
        "5dc8ad5508d3c92845a08611734994584df09b016a5f9f0cd8709dbda7c3263d",
    "off-0A-28d.run":
        "3bf5afc910fa2977a5a5b7616a1cdd5c1a149a3590fa6fe0854d92f4614a7fad",
    "on-100A-34d_generation.txt":
        "ef34e6a5678fd6e0e8c72ec8d7c7462e647cb39d1afb67d1506d6bc0d68c028f",
    "off-0A-28d_generation.txt":
        "344319da767b30f9cc2755bb5044685fc143ed6b1a54d9ec1fdc22a243b9ccd5",
    "spectrum_on.txt":
        "ce2b3bd30323117152cfaf11ec2df34c7576fbcb1c0ba4bd9ccc771d0d66c7b5",
    "spectrum_off.txt":
        "ad515c2b6295ca10a01d1315600537cfc955e9f61e9fb78aa56bb0817b48962e",
    "analysis.txt":
        "b40553aa94d60b5753257e557a7652446483c9458fbc4d2838025ffc3209432d",
    "limit.txt":
        "1ab06f7857db1bd778a991f116b1be6367181bf827bfa195ef0e4ba098fac65c",
}

# sha256 of the artifacts computed from the published operating point
# alone, on the bundled config: reproduce-paper and project --target 1e-31
PINNED_REFERENCE_SHA256 = {
    "reproduction.txt":
        "71535936465ae966bf8b659867d923a0fd8112b521d1a8243cc8393a2d433191",
    "projection.txt":
        "53162c0c081fa4cc9826ab82e954849111df1268d172e832503290d87051b757",
}


def small_config_text():
    text = config.default_config_text()
    text = text.replace(
        "current_a = 100.0\nlive_time_s = 2937600",
        f"current_a = 100.0\nlive_time_s = {ON_SMALL_S}")
    text = text.replace(
        "current_a = 0.0\nlive_time_s = 2419200",
        f"current_a = 0.0\nlive_time_s = {OFF_SMALL_S}")
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
    record = limits.AnalysisRecord(
        subtraction=limits.subtract(limits.Measurement(2222.0, 47.0),
                                    limits.Measurement(2181.0, 47.0)),
        n_off_raw=limits.Measurement(1796.0, 42.0),
        on_run=cfg.run_on, off_live_time_s=cfg.run_off.live_time_s,
        roi=cfg.roi)
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
                                        response, "paper-naive")
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

    def test_missing_config_file_is_usage_error(self, tmp_path, capsys):
        rc = cli.main(["reproduce-paper", "--config",
                       str(tmp_path / "absent.cfg"),
                       "--output-dir", str(tmp_path)])
        assert rc == 2
        assert "usage error" in capsys.readouterr().err

    def test_workers_only_on_efficiency(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(["analyze", "--on", "a.run", "--off", "b.run",
                      "--workers", "2", "--output-dir", str(tmp_path)])
        assert exc.value.code == 2

    @pytest.mark.parametrize("artifact, key", [
        ("efficiency", "efficiency"),
        ("analysis", "delta_sigma"),
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
        assert not list(tmp_path.glob("out/*"))

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

    @pytest.mark.parametrize("argv, artifact, match", [
        ("limit --analysis analysis.txt --nsigma nan", "limit.txt",
         "n_sigma"),
        ("limit --analysis analysis.txt --nsigma inf", "limit.txt",
         "n_sigma"),
        ("project --target inf", "projection.txt", "target bound"),
    ], ids=["nsigma-nan", "nsigma-inf", "target-inf"])
    def test_non_finite_flag(self, argv, artifact, match, small_cfg,
                             tmp_path, capsys, monkeypatch):
        (tmp_path / "analysis.txt").write_text(
            artifact_texts(small_cfg)["analysis.txt"])
        monkeypatch.chdir(tmp_path)
        rc = cli.main(argv.split() + ["--output-dir", "out"])
        assert rc == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith("error:")
        assert "\n" not in err
        assert match in err
        assert not (tmp_path / "out" / artifact).exists()

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
        assert not any((tmp_path / "out").glob("*.txt"))

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


class TestOutputDirPrecedence:
    def test_flag_beats_environment(self, small_cfg_path, tmp_path,
                                    monkeypatch):
        env_dir = tmp_path / "from_env"
        flag_dir = tmp_path / "from_flag"
        monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(env_dir))
        rc = cli.main(["reproduce-paper", "--output-dir", str(flag_dir)])
        assert rc == 0
        assert (flag_dir / "reproduction.txt").exists()
        assert not env_dir.exists()

    def test_environment_used_without_flag(self, tmp_path, monkeypatch):
        env_dir = tmp_path / "from_env"
        monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(env_dir))
        rc = cli.main(["reproduce-paper"])
        assert rc == 0
        assert (env_dir / "reproduction.txt").exists()


def test_startup_does_not_load_scipy():
    # only calibrate fits peaks; every other command starts without scipy
    src = Path(pepsearch.__file__).resolve().parents[1]
    code = ("import sys, pepsearch.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "[]"
