"""Fast tests of the benchmark's own arithmetic.

    PYTHONPATH=src python -m pytest perfbench/test_perfbench.py

The chain tests use a tiny config: one day on, one day off and no
calibration source, so a campaign has about ten thousand events.
"""

import json
import statistics
import sys

import pytest

import run
from spans import Span, Tracer, covered_ns, layer_self_s, self_times_ns
from summary import Tally, describe, differing
from workloads import (CHAIN, ROOT, STAGES, Campaign, Proc, Replay,
                       campaign_events, exit_problems, spawn)

from pepsearch import cli, config, eventio


def tiny_config_text() -> str:
    text = config.default_config_text()
    text = text.replace("calibration_rate_hz = 2.0",
                        "calibration_rate_hz = 0.0")
    text = text.replace("live_time_s = 2937600", "live_time_s = 86400", 1)
    return text.replace("live_time_s = 2419200", "live_time_s = 86400", 1)


@pytest.fixture(scope="module")
def tiny_store(tmp_path_factory):
    cfg = config.load_config_text(tiny_config_text())
    assert cfg.source.calibration_rate_hz == 0.0
    assert cfg.run_on.live_time_s == 86400
    store = tmp_path_factory.mktemp("store")
    tiny = store / "tiny.cfg"
    tiny.write_text(tiny_config_text())
    assert cli.main(["simulate", "--config", str(tiny), "--seed", "4",
                     "--output-dir", str(store)]) == 0
    return cfg, store


def span(id, start, end, parent=None, name="cli.x"):
    return Span(id, name, start, end, parent, "op0")


class TestSelfTime:
    def test_union_of_overlapping_intervals(self):
        assert covered_ns([(10, 50), (30, 70)], 0, 100) == 60
        assert covered_ns([(10, 50), (60, 70)], 0, 100) == 50
        assert covered_ns([(-5, 20), (90, 150)], 0, 100) == 30
        assert covered_ns([], 0, 100) == 0

    def test_overlapping_children(self):
        spans = [span(0, 0, 100),
                 span(1, 10, 50, parent=0, name="eventio.a"),
                 span(2, 30, 70, parent=0, name="simulate.b"),
                 span(3, 20, 30, parent=1, name="eventio.c")]
        own = self_times_ns(spans)
        # the children cover 10..70 together, not 40 + 40
        assert own == {0: 40, 1: 30, 2: 40, 3: 10}
        layers = layer_self_s(spans)
        assert layers["cli"] == pytest.approx(40e-9)
        assert layers["eventio"] == pytest.approx(40e-9)
        assert layers["simulate"] == pytest.approx(40e-9)
        assert layers["limits"] == 0.0

    def test_traced_chain_nests_and_adds_up(self, tiny_store, tmp_path):
        cfg, store = tiny_store
        tracer = Tracer()
        tracer.op = "op0"
        original = cli.analyze_runs
        tracer.install()
        try:
            with tracer.span("perfbench.chain"):
                cli.analyze_runs(cfg, store / f"{cfg.run_on.run_id}.run",
                                 store / f"{cfg.run_off.run_id}.run",
                                 cfg.response, "paper-naive")
        finally:
            tracer.uninstall()
        assert cli.analyze_runs is original
        by_id = {s.id: s for s in tracer.spans}
        for s in tracer.spans:
            if s.parent is not None:
                parent = by_id[s.parent]
                assert parent.start_ns <= s.start_ns <= s.end_ns \
                    <= parent.end_ns
        # cli imports read_run by name; the call is still seen, under the
        # public function that made it
        reads = [s for s in tracer.spans if s.name == "eventio.read_run"]
        assert len(reads) == 2
        assert {by_id[s.parent].name for s in reads} == {"cli.analyze_runs"}
        assert sum(s.counts["events"] for s in reads) > 1000
        root = tracer.spans[0]
        total_self = sum(self_times_ns(tracer.spans).values())
        assert total_self == root.duration_ns


class TestSummary:
    def test_median_and_quartiles(self):
        values = [float(v) for v in (7, 1, 9, 3, 5, 2, 8, 4, 6, 10)]
        d = describe(values)
        q1, q2, q3 = statistics.quantiles(values, n=4)
        assert (d["q1"], d["median"], d["q3"], d["n"]) == (q1, q2, q3, 10)
        assert d["median"] == 5.5

    def test_single_sample(self):
        assert describe([2.5]) == {"median": 2.5, "q1": 2.5, "q3": 2.5,
                                   "n": 1}
        with pytest.raises(ValueError):
            describe([])

    def test_differing_artifacts(self):
        first = {"a.run": "1", "limit.txt": "2", "gone.txt": "3"}
        later = {"a.run": "1", "limit.txt": "9", "new.txt": "4"}
        assert differing(first, later) == ["gone.txt", "limit.txt",
                                           "new.txt"]
        assert differing(first, dict(first)) == []


def test_reported_metrics_are_the_listed_ones():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    reported = run.layer_metrics([], {}, import_s=1.0, overhead_s=0.0)
    assert [(k, unit) for k, (_, unit) in reported.items()] == listed
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END_UNITS


class TestFailureCounting:
    def test_tally(self):
        tally = Tally()
        tally.record("simulate", [])
        tally.record("calibrate", ["exit status 1: error: no peaks"])
        tally.record("limit", ["bound off", "limit.txt differs"])
        assert (tally.attempted, tally.failed) == (3, 2)
        assert tally.failed_ratio == pytest.approx(2 / 3)
        assert tally.problems[0].startswith("calibrate: ")
        assert Tally().failed_ratio == 0.0

    def test_failed_cli_stage(self, tiny_store, tmp_path):
        cfg, store = tiny_store
        tiny = tmp_path / "tiny.cfg"
        tiny.write_text(tiny_config_text())
        proc = spawn([sys.executable, "-m", "pepsearch.cli", "calibrate",
                      "--config", str(tiny), "--input",
                      str(store / f"{cfg.run_on.run_id}.run"),
                      "--output-dir", str(tmp_path)], tmp_path, "calibrate")
        assert proc.code == 1
        assert exit_problems(proc)[0].startswith("exit status 1: error: ")
        assert proc.peak_rss_mb > 0 and proc.cpu_s > 0

    def test_campaign_checks_survive_missing_and_broken_artifacts(
            self, tmp_path):
        campaign = Campaign(seed=1)
        campaign.cfg = config.load_default_config()
        (tmp_path / "efficiency.txt").write_text("efficiency = oops\n")
        procs = {stage: Proc(code=1, start_ns=0, end_ns=1, cpu_s=0.0,
                             peak_rss_mb=0.0, stderr="error: boom")
                 for stage in STAGES}
        events, problems = campaign.check(tmp_path, procs)
        assert events == 0
        assert set(problems) == set(STAGES)
        assert all(problems[stage] for stage in STAGES)
        assert problems["simulate"][0] == "exit status 1: error: boom"
        assert any("unreadable" in p for p in problems["efficiency"])

    def test_failed_stage_is_counted_not_fatal(self, tiny_store):
        # without a calibration source there are no lines to fit: the
        # replay op reports the calibrate stage and everything after it
        # as failed and returns normally
        cfg, store = tiny_store
        replay = Replay(seed=4)
        replay.cfg = config.load_default_config()
        replay.store = store
        replay.events, bad = campaign_events(store, replay.cfg)
        assert bad == []
        assert replay.events == sum(len(eventio.read_run(p)[1])
                                    for p in store.glob("*.run"))
        original = cli.main
        result = replay.op("op0", traced=True)
        assert cli.main is original
        for stage in CHAIN:
            assert result.problems[stage][0].startswith(
                "exit status 1: error: ")
        assert result.events == replay.events
        tally = Tally()
        for stage, problems in result.problems.items():
            tally.record(stage, problems)
        assert (tally.attempted, tally.failed) == (3, 3)
        # the stages ran through the program's own entry point
        names = [s.name for s in result.spans]
        assert names[:3] == ["perfbench.replay", "cli.main",
                             "cli.build_parser"]
        assert names.count("cli.main") == 3
        assert "cli.cmd_calibrate" in names and "cli.cmd_limit" in names
