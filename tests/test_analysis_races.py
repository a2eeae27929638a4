"""Race-detector tests: the static pass and the dynamic sanitizer must
both catch the seeded racy fixture, stay silent on clean code, honour
benign justifications, and leave the determinism contract untouched."""

import os
import textwrap

import pytest

from repro.analysis.lint import Baseline
from repro.analysis.races import (
    DEFAULT_RACE_PATHS,
    RACE_RW,
    RACE_WW,
    analyze_paths,
    analyze_source,
)
from repro.analysis.sanitizers import (
    BENIGN_RACE_FIELDS,
    RaceSanitizer,
    result_digest,
)
from repro.config.presets import wafer_7x7_config
from repro.config.system import SystemConfig
from repro.errors import OrderRaceError, SanitizerError, SimulationError
from repro.faults import FaultPlan, recovery_scenario
from repro.obs import Observability
from repro.sim.component import Component
from repro.sim.engine import Simulator
from repro.system.runner import run_benchmark
from tests.fixtures.racy_ticker import RacyCounter

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURE = os.path.join(REPO_ROOT, "tests", "fixtures", "racy_ticker.py")
RACES_BASELINE = os.path.join(REPO_ROOT, "analysis-races-baseline.txt")


class Probe(Component):
    """Unslotted component so tests can attach ad-hoc fields."""


def race_findings(source, path="src/repro/sim/toy.py"):
    return analyze_source(textwrap.dedent(source), path=path)


# ----------------------------------------------------------------------
# Static half
# ----------------------------------------------------------------------
class TestStaticPass:
    def test_fixture_is_flagged_write_write(self):
        with open(FIXTURE, "r", encoding="utf-8") as handle:
            findings = analyze_source(handle.read(), path=FIXTURE)
        fields = {f.message.split()[0] for f in findings}
        assert all(f.rule_id == RACE_WW for f in findings)
        assert "RacyCounter.value" in fields
        assert "RacyCounter.last_writer" in fields
        # The value conflict is only visible through one level of
        # inlining (tick_bump -> _bump_value).
        value = next(f for f in findings if "value" in f.message)
        assert "tick_bump" in value.message and "tick_double" in value.message

    def test_read_write_conflict_is_race002(self):
        findings = race_findings("""
            class Probe:
                def start(self):
                    self.sim.schedule(1, self.writer)
                    self.sim.schedule(1, self.reader)
                def writer(self):
                    self.level = 1
                def reader(self):
                    self.seen = self.level
            """)
        by_rule = {f.rule_id for f in findings}
        assert RACE_RW in by_rule
        rw = next(f for f in findings if f.rule_id == RACE_RW)
        assert "Probe.level" in rw.message

    def test_lambda_and_local_def_registrations_resolve(self):
        findings = race_findings("""
            class T:
                def start(self):
                    self.sim.schedule(1, lambda: self._apply(1))
                    def _send():
                        self.acc = self.acc + 1
                    self.sim.schedule(2, _send)
                def _apply(self, v):
                    self.acc += v
            """)
        assert [f.rule_id for f in findings] == [RACE_WW]
        assert "start.<lambda" in findings[0].message
        assert "start._send" in findings[0].message

    def test_single_registered_callback_is_clean(self):
        findings = race_findings("""
            class Solo:
                def start(self):
                    self.sim.schedule(1, self.tick)
                def tick(self):
                    self.count += 1
                    self.sim.schedule(1, self.tick)
            """)
        assert findings == []

    def test_inlining_stops_at_one_level(self):
        # Two levels of indirection are out of the documented conflict
        # model: the pass must stay silent rather than guess.
        findings = race_findings("""
            class Deep:
                def start(self):
                    self.sim.schedule(1, self.tick_a)
                    self.sim.schedule(1, self.tick_b)
                def tick_a(self):
                    self._hop()
                def tick_b(self):
                    self._hop()
                def _hop(self):
                    self._land()
                def _land(self):
                    self.field = 1
            """)
        assert findings == []

    def test_pragma_suppresses_on_multiline_statement(self):
        source = """
            class Pair:
                def start(self):
                    self.sim.schedule(1, self.tick_a)
                    self.sim.schedule(1, self.tick_b)
                def tick_a(self):
                    self.total = (
                        self.total  # lint: disable=RACE001
                        + 1
                    )
                def tick_b(self):
                    self.total = 0
            """
        assert race_findings(source) == []
        assert race_findings(source.replace(
            "# lint: disable=RACE001", "")) != []

    def test_allow_race_tag_suppresses(self):
        findings = race_findings("""
            class Pair:
                def start(self):
                    self.sim.schedule(1, self.tick_a)
                    self.sim.schedule(1, self.tick_b)
                def tick_a(self):
                    self.total = 1  # lint: allow-race
                def tick_b(self):
                    self.total = 0
            """)
        assert findings == []

    def test_baseline_suppresses_with_inline_justification(self, tmp_path):
        baseline_file = tmp_path / "races.txt"
        baseline_file.write_text(
            "# reviewed races\n"
            f"{RACE_WW}:{FIXTURE}:*  # seeded fixture, racy on purpose\n"
        )
        findings, baselined = analyze_paths(
            [FIXTURE], baseline=Baseline.load(str(baseline_file))
        )
        assert findings == []
        assert baselined == 2

    def test_shipped_simulation_trees_clean_with_committed_baseline(self):
        paths = [os.path.join(REPO_ROOT, p) for p in DEFAULT_RACE_PATHS]
        findings, _ = analyze_paths(
            paths, baseline=Baseline.load(RACES_BASELINE)
        )
        assert findings == [], [f.key() for f in findings]


# ----------------------------------------------------------------------
# Dynamic half
# ----------------------------------------------------------------------
class TestDynamicSanitizer:
    def test_fixture_raises_order_race_error(self):
        sim = Simulator(sanitize="races")
        RacyCounter(sim).start()
        with pytest.raises(OrderRaceError, match="RacyCounter"):
            sim.run()
        # Typed and catchable alongside the other sanitizer errors.
        assert issubclass(OrderRaceError, SanitizerError)

    def test_error_names_both_events_and_field(self):
        sim = Simulator(sanitize="races")
        RacyCounter(sim).start()
        with pytest.raises(OrderRaceError) as excinfo:
            sim.run()
        message = str(excinfo.value)
        assert "tick_double" in message and "tick_bump" in message
        assert "insertion seq" in message

    def test_report_mode_collects_instead_of_raising(self):
        sim = Simulator(sanitize="races:report")
        RacyCounter(sim).start()
        sim.run()
        races = sim.sanitizer.report()["races"]
        assert races["report_mode"] is True
        assert races["conflicts"] > 0
        kinds = {f["kind"] for f in races["findings"]}
        assert kinds == {"write-write"}
        fields = {f["field"] for f in races["findings"]}
        assert fields == {"value", "last_writer"}

    def test_hooks_restored_after_raise_and_after_clean_run(self):
        sim = Simulator(sanitize="races")
        RacyCounter(sim).start()
        with pytest.raises(OrderRaceError):
            sim.run()
        assert "__getattribute__" not in vars(Component)
        assert "__setattr__" not in vars(Component)

        clean = Simulator(sanitize="races")
        clean.schedule(1, lambda: None)
        clean.run()
        assert "__getattribute__" not in vars(Component)

    def test_benign_registry_suppresses_justified_fields(self):
        added = {
            ("RacyCounter", "value"): "test: justified",
            ("RacyCounter", "last_writer"): "test: justified",
        }
        BENIGN_RACE_FIELDS.update(added)
        try:
            sim = Simulator(sanitize="races")
            RacyCounter(sim).start()
            sim.run()
            races = sim.sanitizer.report()["races"]
            assert races["findings"] == []
            assert races["benign_suppressed"] > 0
        finally:
            for key in added:
                del BENIGN_RACE_FIELDS[key]

    def test_observer_readers_do_not_count_as_race(self):
        # A read-only observer (PeriodicSampler._tick is registered as
        # such) sampling a field another event writes is not a race:
        # observer output never reaches digests.
        sim = Simulator(sanitize="races")
        target = Probe(sim, "observed")
        target.depth = 0

        def writer():
            target.depth = sim.now

        def sampler():
            _ = target.depth

        sampler.__qualname__ = "PeriodicSampler._tick"
        sim.schedule(1, writer)
        sim.schedule(1, sampler)
        sim.run()
        races = sim.sanitizer.report()["races"]
        assert races["findings"] == []
        assert races["benign_suppressed"] >= 1

    def test_double_arm_rejected(self):
        first = RaceSanitizer()
        first.arm()
        try:
            with pytest.raises(SimulationError):
                RaceSanitizer().arm()
        finally:
            first.disarm()

    def test_plain_sanitize_mode_has_no_race_sanitizer(self):
        sim = Simulator(sanitize=True)
        assert sim.sanitizer.races is None

    def test_unknown_sanitize_mode_rejected(self):
        with pytest.raises(SimulationError):
            Simulator(sanitize="rces")


# ----------------------------------------------------------------------
# Sanitizer x calendar-queue interaction (batched dispatch)
# ----------------------------------------------------------------------
class TestCalendarQueueInteraction:
    def test_overflow_tier_migration_keeps_detection(self):
        # Beyond the 1024-slot ring both events land in the heap
        # overflow tier and migrate into the ring later; they must still
        # be recognised as same-cycle once dispatched.
        sim = Simulator(sanitize="races")
        counter = RacyCounter(sim)
        sim.schedule(5000, counter.tick_double)
        sim.schedule(5000, counter.tick_bump)
        with pytest.raises(OrderRaceError, match="cycle 5000"):
            sim.run()

    def test_mid_batch_self_rescheduling_ticker_is_clean(self):
        # A ticker that re-schedules itself from inside the batch is the
        # calendar queue's trickiest path (same-slot insertion during
        # drain); one writer per cycle is not a race.
        sim = Simulator(sanitize="races")
        ticker = Probe(sim, "ticker")
        ticker.beats = 0

        def tick():
            ticker.beats += 1
            if ticker.beats < 50:
                sim.schedule(1, tick)

        sim.schedule(1, tick)
        sim.run()
        assert ticker.beats == 50
        assert sim.sanitizer.report()["races"]["findings"] == []

    def test_racing_pair_of_self_rescheduling_tickers_caught(self):
        sim = Simulator(sanitize="races")
        counter = RacyCounter(sim)

        def tick_a():
            counter.tick_double()
            sim.schedule(1, tick_a)

        def tick_b():
            counter.tick_bump()
            sim.schedule(1, tick_b)

        sim.schedule(1, tick_a)
        sim.schedule(1, tick_b)
        with pytest.raises(OrderRaceError, match="value"):
            sim.run()

    def test_event_order_sanitizer_still_armed_alongside_races(self):
        from repro.errors import EventOrderError

        sim = Simulator(sanitize="races")
        sim.schedule(10, lambda: None)
        sim.step()
        with pytest.raises(EventOrderError):
            sim.schedule_at(5, lambda: None)
        sim.sanitizer.races.disarm()

    def test_step_mode_arms_and_disarms(self):
        # The same-cycle analysis closes a cycle when time advances past
        # it; in step mode the last cycle is flushed by the drain call
        # (the step() that returns None), which must also restore hooks.
        sim = Simulator(sanitize="races")
        RacyCounter(sim).start(cycles=1)
        with pytest.raises(OrderRaceError):
            while sim.step() is not None:
                pass
        assert "__getattribute__" not in vars(Component)


# ----------------------------------------------------------------------
# End-to-end: clean system runs, digests, phase attribution
# ----------------------------------------------------------------------
class TestEndToEnd:
    CONFIG = dict(scale=0.02, seed=7)

    def test_small_preset_clean_and_digest_unchanged(self):
        config = SystemConfig(mesh_width=3, mesh_height=3)
        plain = run_benchmark(config, "fir", **self.CONFIG)
        raced = run_benchmark(config, "fir", sanitize="races", **self.CONFIG)
        assert result_digest(plain.to_dict()) == result_digest(raced.to_dict())
        races = raced.extras["sanitizers"]["races"]
        assert races["findings"] == []
        assert races["cycles_checked"] > 0
        assert races["accesses_recorded"] > 0

    def test_recovery_timeline_clean_and_digest_unchanged(self):
        # CI's recovery-timeline race plan, at a tier-1 scale: timeline
        # events mutate the topology mid-run while sends are in flight,
        # so per-send route caching must not write state those events
        # race with.
        plan = FaultPlan(seed=9, timeline=recovery_scenario(
            7, 7, seed=9, kill_cycle=4000, recover_cycle=9000,
            drain_cycle=2000, degrade_cycle=1000, restore_cycle=8000,
            num_victims=2,
        ))
        config = wafer_7x7_config().with_faults(plan)
        plain = run_benchmark(config, "spmv", scale=0.02, seed=3)
        raced = run_benchmark(
            config, "spmv", scale=0.02, seed=3, sanitize="races"
        )
        assert result_digest(plain.to_dict()) == result_digest(raced.to_dict())
        counters = raced.extras["faults"]["counters"]
        assert counters["timeline.kills"] == counters["timeline.recoveries"] == 2
        races = raced.extras["sanitizers"]["races"]
        assert races["findings"] == []
        assert races["cycles_checked"] > 0

    def test_phase_row_attributes_race_overhead(self):
        obs = Observability(phases=True)
        config = SystemConfig(mesh_width=3, mesh_height=3)
        result = run_benchmark(
            config, "fir", obs=obs, sanitize="races", **self.CONFIG
        )
        snapshot = result.extras["phase_profile"]
        assert "sanitize.races" in snapshot
        assert snapshot["sanitize.races"] >= 0
        report_rows = {row["phase"] for row in result.extras["phase_report"]}
        assert "sanitize.races" in report_rows


# ----------------------------------------------------------------------
# CLI: the races verb and the sanitize/run --races plumbing
# ----------------------------------------------------------------------
class TestCli:
    def _run(self, *args):
        import subprocess
        import sys

        env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
        return subprocess.run(
            [sys.executable, "-m", "repro.analysis", *args],
            capture_output=True, text=True, env=env, cwd=REPO_ROOT,
        )

    def test_races_verb_flags_fixture(self):
        proc = self._run("races", FIXTURE)
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert "RACE001" in proc.stdout

    def test_races_update_baseline_then_clean(self, tmp_path):
        baseline = tmp_path / "races-baseline.txt"
        write = self._run("races", FIXTURE,
                          "--update-baseline", str(baseline))
        assert write.returncode == 0, write.stdout + write.stderr
        rerun = self._run("races", FIXTURE, "--baseline", str(baseline))
        assert rerun.returncode == 0, rerun.stdout

    def test_races_default_paths_clean_with_committed_baseline(self):
        proc = self._run("races", "--baseline", "analysis-races-baseline.txt",
                         "--format", "json")
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_run_cli_accepts_and_validates_sanitize_modes(self, capsys):
        from repro.system.cli import main as run_main

        assert run_main(["fir", "--scale", "0.02", "--mesh", "3x3",
                         "--sanitize", "races"]) == 0
        out = capsys.readouterr().out
        assert "sanitizers: clean" in out
        assert "races:" in out
        assert run_main(["fir", "--sanitize", "bogus"]) == 2

    def test_sanitize_verb_report_requires_races(self, capsys):
        from repro.analysis.cli import main as analysis_main

        assert analysis_main(["sanitize", "--report"]) == 2
