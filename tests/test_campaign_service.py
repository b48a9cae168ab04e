"""Tests for the distributed campaign service.

Layers, roughly bottom-up:

* **LeaseQueue** — pure scheduling semantics under a scripted clock:
  grant order, steal age gating, deadline expiry, first-wins dedup.
* **Coordinator** — the dict-level worker protocol against a real
  journal: welcome/lease/result round-trips, duplicate and stale-result
  handling, telemetry counters, the status event stream.
* **HTTP API** — submit/status/report/metrics over a live socket via
  the stdlib client, including the one-campaign-at-a-time conflict.
* **The acceptance criterion** — a 48-unit campaign served to three
  worker processes; one worker is SIGKILLed mid-run, then the
  coordinator itself is torn down and a fresh one resumes the same
  journal on the same port.  Every unit must land in the journal
  exactly once and the report must be byte-identical to a serial
  ``run_campaign`` baseline.
* **Journal durability** — fsync-on-append flag, and recovery from a
  tail truncated *mid-record* (not just a torn appended line).
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import time
from pathlib import Path

import pytest

from repro.campaign import (
    CampaignSpec,
    ExperimentDef,
    build_report,
    load_state,
    read_journal,
    register_experiment,
    register_trial_runner,
    run_campaign,
)
from repro.campaign.service import (
    Coordinator,
    LeaseQueue,
    ServiceServer,
    fetch_metrics,
    fetch_report,
    fetch_status,
    parse_endpoint,
    parse_url,
    serve_campaign,
    spawn_worker,
    submit_campaign,
)
from repro.campaign.service.coordinator import unit_record_payload
from repro.cli import main
from repro.errors import ConfigurationError, ServiceError
from repro.experiments.common import TrialResult

# --------------------------------------------------------------------------
# Synthetic experiments (module-level: fork-inherited by worker processes).


@dataclasses.dataclass(frozen=True)
class _SleepyTrial:
    seed: int


@dataclasses.dataclass(frozen=True)
class _QuickTrial:
    seed: int


def _run_sleepy_trial(trial):
    time.sleep(0.03)  # long enough to kill things mid-campaign
    return TrialResult(success=True, attempts=trial.seed % 3 + 1,
                       effect_observed=True, connection_survived=True)


def _run_quick_trial(trial):
    return TrialResult(success=trial.seed % 4 != 3,
                       attempts=trial.seed % 2 + 1,
                       effect_observed=True, connection_survived=True)


def _sleepy_units(base_seed=0, n_connections=2):
    return [("sleepy", _SleepyTrial(seed=base_seed + i))
            for i in range(n_connections)]


def _quick_units(base_seed=0, n_connections=2):
    return [("quick", _QuickTrial(seed=base_seed + i))
            for i in range(n_connections)]


register_experiment(ExperimentDef(
    "test-sleepy", _sleepy_units, "slow fixture"), replace=True)
register_experiment(ExperimentDef(
    "test-quick", _quick_units, "instant fixture"), replace=True)
register_trial_runner(_SleepyTrial, _run_sleepy_trial, replace=True)
register_trial_runner(_QuickTrial, _run_quick_trial, replace=True)


def _quick_spec(n=6) -> CampaignSpec:
    return CampaignSpec.from_dict({
        "name": "svc-quick", "seed": 0, "timeout_s": 60,
        "axes": [{"experiment": "test-quick", "n_connections": n}],
    })


def _grid48_spec() -> CampaignSpec:
    """48 units across two axes — the acceptance-criterion grid."""
    return CampaignSpec.from_dict({
        "name": "svc-grid48", "seed": 0, "timeout_s": 60,
        "axes": [
            {"experiment": "test-sleepy", "n_connections": 32},
            {"experiment": "test-quick", "n_connections": 16},
        ],
    })


# --------------------------------------------------------------------------
# LeaseQueue: pure scheduling semantics.


class TestLeaseQueue:
    def test_pending_granted_in_order_then_nothing(self):
        q = LeaseQueue(["a", "b"], lease_timeout_s=10, steal_after_s=5)
        first = q.lease("w1", now=0.0)
        second = q.lease("w2", now=0.1)
        assert (first.unit_id, first.stolen) == ("a", False)
        assert (second.unit_id, second.stolen) == ("b", False)
        assert q.lease("w3", now=0.2) is None  # too young to steal
        assert q.pending_count == 0 and q.inflight_count == 2

    def test_steal_requires_age_and_resets_it(self):
        q = LeaseQueue(["a"], lease_timeout_s=100, steal_after_s=2)
        q.lease("w1", now=0.0)
        assert q.lease("w2", now=1.9) is None
        grant = q.lease("w2", now=2.1)
        assert grant.stolen and grant.unit_id == "a"
        assert sorted(q.holders("a")) == ["w1", "w2"]
        # the steal refreshed last_granted: w3 must wait a full period
        assert q.lease("w3", now=3.0) is None
        assert q.lease("w3", now=4.2).stolen

    def test_worker_never_steals_its_own_lease(self):
        q = LeaseQueue(["a"], lease_timeout_s=100, steal_after_s=1)
        q.lease("w1", now=0.0)
        assert q.lease("w1", now=50.0) is None

    def test_expired_lease_is_requeued_and_regranted(self):
        q = LeaseQueue(["a"], lease_timeout_s=5, steal_after_s=100)
        q.lease("w1", now=0.0)
        assert q.requeue_expired(now=4.9) == []
        assert q.requeue_expired(now=5.1) == ["a"]
        grant = q.lease("w2", now=5.2)
        assert grant.unit_id == "a" and not grant.stolen

    def test_complete_is_first_wins_with_latency(self):
        q = LeaseQueue(["a"], lease_timeout_s=100, steal_after_s=1)
        q.lease("w1", now=1.0)
        q.lease("w2", now=2.5)  # steal
        done = q.complete("a", now=4.0)
        assert done.first and done.latency_s == pytest.approx(3.0)
        again = q.complete("a", now=4.1)
        assert not again.first and again.latency_s is None
        assert q.drained

    def test_complete_of_pending_unit_removes_it(self):
        q = LeaseQueue(["a", "b"])
        assert q.complete("b", now=0.0).first  # e.g. replayed journal
        grant = q.lease("w1", now=0.1)
        assert grant.unit_id == "a"
        q.complete("a", now=0.2)
        assert q.drained


# --------------------------------------------------------------------------
# Coordinator: the dict-level protocol against a real journal.


class _Clock:
    """Scripted monotonic clock."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _drain_units(coordinator, spec, worker="w"):
    """Lease and complete every unit the way a worker would."""
    from repro.campaign.engine import expand_units, unit_record, units_by_id
    from repro.campaign.registry import run_unit_trial
    from repro.runner import run_units

    units = units_by_id(expand_units(spec))
    while True:
        reply = coordinator.handle_message({
            "op": "lease", "worker": worker,
            "fingerprint": spec.fingerprint})
        if reply["op"] == "drained":
            return
        assert reply["op"] == "unit"
        unit = units[reply["unit_id"]]
        (outcome,) = run_units(run_unit_trial, [unit.trial],
                               timeout_s=60, max_retries=0,
                               backoff_s=0.01)
        record = unit_record(unit, outcome.result, outcome, cached=False)
        ack = coordinator.handle_message({
            "op": "result", "worker": worker,
            "fingerprint": spec.fingerprint,
            "record": unit_record_payload(record)})
        assert ack["op"] == "ack" and not ack["duplicate"]


class TestCoordinator:
    def test_protocol_roundtrip_matches_serial_run(self, tmp_path):
        spec = _quick_spec()
        serial = tmp_path / "serial.jsonl"
        run_campaign(spec, serial, jobs=1)

        clock = _Clock()
        coordinator = Coordinator(clock=clock)
        welcome = coordinator.handle_message({"op": "hello",
                                              "worker": "w"})
        assert welcome["op"] == "idle"  # nothing submitted yet
        coordinator.submit(spec, tmp_path / "served.jsonl")
        welcome = coordinator.handle_message({"op": "hello", "worker": "w"})
        assert welcome["op"] == "welcome"
        assert welcome["fingerprint"] == spec.fingerprint
        assert CampaignSpec.from_dict(welcome["spec"]) == spec
        _drain_units(coordinator, spec)
        coordinator.close()

        assert coordinator.complete
        assert build_report(load_state(tmp_path / "served.jsonl")) == \
            build_report(load_state(serial))

    def test_duplicate_and_stale_results_are_discarded(self, tmp_path):
        spec = _quick_spec(n=2)
        clock = _Clock()
        coordinator = Coordinator(clock=clock)
        coordinator.submit(spec, tmp_path / "j.jsonl")
        grant = coordinator.handle_lease("w1", spec.fingerprint)
        from repro.campaign.engine import expand_units, unit_record, units_by_id
        from repro.runner.executor import UnitOutcome

        unit = units_by_id(expand_units(spec))[grant["unit_id"]]
        result = TrialResult(success=True, attempts=1,
                             effect_observed=True,
                             connection_survived=True)
        outcome = UnitOutcome(index=0, status="ok", result=result,
                              detail="", retries=0)
        payload = unit_record_payload(
            unit_record(unit, outcome.result, outcome, cached=False))

        stale = coordinator.handle_result("w1", "not-the-fingerprint",
                                          payload)
        assert stale["op"] == "error"
        first = coordinator.handle_result("w1", spec.fingerprint, payload)
        assert first["op"] == "ack" and not first["duplicate"]
        second = coordinator.handle_result("w2", spec.fingerprint, payload)
        assert second["op"] == "ack" and second["duplicate"]

        counters = coordinator.metrics.snapshot()["counters"]
        assert counters["service.units.completed"] == 1
        assert counters["service.units.duplicate"] == 1
        assert counters["service.results.stale"] == 1
        # exactly one unit record hit the journal
        coordinator.close()
        _, _, records, _ = read_journal(tmp_path / "j.jsonl")
        assert list(records) == [unit.unit_id]

    def test_lease_telemetry_counts_steals_and_requeues(self, tmp_path):
        spec = _quick_spec(n=1)
        clock = _Clock()
        coordinator = Coordinator(clock=clock, lease_timeout_s=5,
                                  steal_after_s=1)
        coordinator.submit(spec, tmp_path / "j.jsonl")
        coordinator.handle_lease("w1", spec.fingerprint)
        clock.now = 2.0
        stolen = coordinator.handle_lease("w2", spec.fingerprint)
        assert stolen["stolen"] is True
        clock.now = 20.0  # both leases expired
        waiting = coordinator.handle_lease("w3", spec.fingerprint)
        assert waiting["op"] == "unit"  # requeued, then granted fresh
        counters = coordinator.metrics.snapshot()["counters"]
        assert counters["service.units.leased"] == 3
        assert counters["service.units.stolen"] == 1
        assert counters["service.units.requeued"] == 1
        coordinator.close()

    def test_second_submit_while_incomplete_is_refused(self, tmp_path):
        coordinator = Coordinator(clock=_Clock())
        coordinator.submit(_quick_spec(), tmp_path / "a.jsonl")
        with pytest.raises(ConfigurationError, match="still being served"):
            coordinator.submit(_quick_spec(n=3), tmp_path / "b.jsonl")
        coordinator.close()

    def test_event_stream_reports_each_unit_then_done(self, tmp_path):
        spec = _quick_spec(n=3)
        coordinator = Coordinator(clock=_Clock())
        coordinator.submit(spec, tmp_path / "j.jsonl")

        class _Sink(list):
            def put_nowait(self, item):
                self.append(item)

        sink = _Sink()
        coordinator.subscribe(sink)
        _drain_units(coordinator, spec)
        coordinator.close()
        kinds = [event["event"] for event in sink]
        assert kinds[0] == "status"
        assert kinds.count("unit") == 3
        assert kinds[-1] == "done"
        assert sink[-1]["campaign"]["done"] == 3


# --------------------------------------------------------------------------
# HTTP API over a live socket.


def _run_server(coroutine):
    """Run an async server-driving test body to completion."""
    return asyncio.run(coroutine)


async def _with_server(body, **coordinator_kwargs):
    """Start a coordinator+server on an ephemeral port, run ``body``."""
    coordinator = Coordinator(**coordinator_kwargs)
    server = ServiceServer(coordinator, port=0)
    await server.start()
    try:
        return await body(coordinator, server,
                          f"http://127.0.0.1:{server.port}")
    finally:
        await server.stop()
        coordinator.close()


class TestHttpApi:
    def test_submit_status_report_metrics(self, tmp_path):
        spec = _quick_spec()
        serial = tmp_path / "serial.jsonl"
        run_campaign(spec, serial, jobs=1)
        serial_report = build_report(load_state(serial))

        async def body(coordinator, server, url):
            loop = asyncio.get_event_loop()
            health = await loop.run_in_executor(
                None, lambda: fetch_status(url))
            assert health["campaign"] is None
            accepted = await loop.run_in_executor(
                None, lambda: submit_campaign(
                    url, spec.to_dict(),
                    journal=str(tmp_path / "served.jsonl")))
            assert accepted["total"] == 6
            # drain in-process (the protocol path is tested elsewhere)
            await loop.run_in_executor(
                None, lambda: _drain_units(coordinator, spec))
            status = await loop.run_in_executor(
                None, lambda: fetch_status(url))
            assert status["campaign"]["done"] == 6
            report = await loop.run_in_executor(
                None, lambda: fetch_report(url))
            report_json = await loop.run_in_executor(
                None, lambda: fetch_report(url, as_json=True))
            metrics = await loop.run_in_executor(
                None, lambda: fetch_metrics(url))
            return report, report_json, metrics

        report, report_json, metrics = _run_server(_with_server(body))
        assert report == serial_report + "\n"
        assert report_json["campaign"]["name"] == "svc-quick"
        assert report_json["campaign"]["done"] == 6
        assert metrics["counters"]["service.units.completed"] == 6

    def test_conflicting_submit_and_bad_requests(self, tmp_path):
        spec = _quick_spec()

        async def body(coordinator, server, url):
            loop = asyncio.get_event_loop()
            await loop.run_in_executor(
                None, lambda: submit_campaign(
                    url, spec.to_dict(),
                    journal=str(tmp_path / "a.jsonl")))
            with pytest.raises(ServiceError, match="still being served"):
                await loop.run_in_executor(
                    None, lambda: submit_campaign(
                        url, spec.to_dict(),
                        journal=str(tmp_path / "b.jsonl")))
            import http.client

            def raw(method, path):
                conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                                  timeout=10)
                try:
                    conn.request(method, path)
                    response = conn.getresponse()
                    return response.status, response.read()
                finally:
                    conn.close()

            not_found = await loop.run_in_executor(
                None, lambda: raw("GET", "/nope"))
            wrong_method = await loop.run_in_executor(
                None, lambda: raw("DELETE", "/status"))
            health = await loop.run_in_executor(
                None, lambda: raw("GET", "/healthz"))
            return not_found, wrong_method, health

        not_found, wrong_method, health = _run_server(_with_server(body))
        assert not_found[0] == 404
        assert wrong_method[0] == 405
        assert health[0] == 200 and json.loads(health[1]) == {"ok": True}

    def test_url_and_endpoint_parsing(self):
        assert parse_url("http://127.0.0.1:8000") == ("127.0.0.1", 8000)
        assert parse_url("127.0.0.1:8000/") == ("127.0.0.1", 8000)
        assert parse_endpoint("10.0.0.2:4100") == ("10.0.0.2", 4100)
        for bad in ("https://x:1", "nope", "host:"):
            with pytest.raises(ServiceError):
                parse_url(bad)
        with pytest.raises(ServiceError):
            parse_endpoint("no-port")


# --------------------------------------------------------------------------
# serve_campaign: managed fleets.


class TestServeCampaign:
    def test_served_report_is_byte_identical_to_serial(self, tmp_path):
        spec = _quick_spec()
        serial = tmp_path / "serial.jsonl"
        run_campaign(spec, serial, jobs=1)
        events = []
        state = serve_campaign(spec, tmp_path / "served.jsonl", workers=2,
                               on_event=events.append)
        assert state.done == 6 and not state.pending
        assert build_report(state) == build_report(load_state(serial))
        kinds = [event["event"] for event in events]
        assert kinds.count("unit") == 6 and kinds[-1] == "done"

    def test_all_workers_dead_raises_instead_of_hanging(self, tmp_path):
        """If every managed worker dies, the watchdog must raise rather
        than serve an un-drainable campaign forever.  A supervisor
        thread SIGKILLs the single managed worker the moment it appears;
        sleepy units guarantee it cannot drain the grid first."""
        import multiprocessing
        import threading

        spec = CampaignSpec.from_dict({
            "name": "doomed", "seed": 0, "timeout_s": 60,
            "axes": [{"experiment": "test-sleepy", "n_connections": 8}],
        })

        def killer():
            deadline = time.monotonic() + 20
            while time.monotonic() < deadline:
                children = multiprocessing.active_children()
                if children:
                    for child in children:
                        child.kill()
                    return
                time.sleep(0.005)

        thread = threading.Thread(target=killer, daemon=True)
        thread.start()
        with pytest.raises(ServiceError, match="every managed worker"):
            serve_campaign(spec, tmp_path / "dead.jsonl", workers=1)
        thread.join(timeout=30)


# --------------------------------------------------------------------------
# The acceptance criterion: SIGKILL a worker mid-run, kill the
# coordinator, resume on the same journal, byte-identical report.


class TestWorkStealingAcceptance:
    def test_kill_worker_and_coordinator_then_resume_byte_identical(
            self, tmp_path):
        spec = _grid48_spec()
        serial = tmp_path / "serial.jsonl"
        run_campaign(spec, serial, jobs=1)
        serial_report = build_report(load_state(serial))
        journal = tmp_path / "served.jsonl"

        async def wait_done(coordinator, minimum, timeout_s=120.0):
            deadline = time.monotonic() + timeout_s
            while time.monotonic() < deadline:
                if coordinator.campaign.state.done >= minimum:
                    return
                await asyncio.sleep(0.02)
            raise AssertionError(
                f"campaign stalled before reaching {minimum} units "
                f"(at {coordinator.campaign.state.done})")

        async def phase_one():
            """Serve until mid-campaign; SIGKILL one worker, then 'crash'
            the coordinator by dropping it without draining."""
            coordinator = Coordinator(lease_timeout_s=30, steal_after_s=0.5)
            server = ServiceServer(coordinator, port=0)
            await server.start()
            port = server.port
            fleet = [spawn_worker("127.0.0.1", port, f"w{i}",
                                  reconnect_s=60.0,
                                  close_fds=server.listen_fds)
                     for i in range(3)]
            try:
                coordinator.submit(spec, journal)
                await wait_done(coordinator, 5)
                fleet[0].kill()  # SIGKILL mid-campaign
                await wait_done(coordinator, 15)
                done = coordinator.campaign.state.done
                assert done < 48, "finished too fast to exercise resume"
            finally:
                await server.stop()
                coordinator.close()  # journal writer released, not drained
            return port, fleet

        async def phase_two(port, fleet):
            """Fresh coordinator, same port, same journal: resume."""
            coordinator = Coordinator(lease_timeout_s=30, steal_after_s=0.5)
            server = ServiceServer(coordinator, host="127.0.0.1", port=port)
            await server.start()
            try:
                state = coordinator.submit(spec, journal)
                assert 0 < state.done < 48  # genuinely mid-campaign
                done_event = asyncio.Event()
                coordinator.add_completion_callback(done_event.set)
                await asyncio.wait_for(done_event.wait(), timeout=120)
                # keep serving while the survivors fetch their
                # "drained" reply and exit; only then tear down
                loop = asyncio.get_event_loop()
                for process in fleet[1:]:
                    await loop.run_in_executor(
                        None, lambda p=process: p.join(30))
            finally:
                await server.stop()
                coordinator.close()
            for process in fleet[1:]:
                assert process.exitcode == 0  # drained and exited cleanly
            fleet[0].join(timeout=10)

        port, fleet = asyncio.run(phase_one())
        try:
            asyncio.run(phase_two(port, fleet))
        finally:
            for process in fleet:
                if process.is_alive():
                    process.terminate()
                    process.join(timeout=10)

        # Every unit exactly once: 48 unique unit records, no duplicates.
        unit_lines = [json.loads(line)
                      for line in journal.read_text().splitlines()
                      if '"type": "unit"' in line]
        ids = [line["unit_id"] for line in unit_lines]
        assert len(ids) == 48
        assert len(set(ids)) == 48

        final = load_state(journal)
        assert final.done == 48 and not final.pending
        assert build_report(final) == serial_report


# --------------------------------------------------------------------------
# Journal durability satellites.


class TestJournalDurability:
    def test_fsync_flag_reaches_the_writer_and_journal_is_valid(
            self, tmp_path):
        spec = _quick_spec(n=3)
        journal = tmp_path / "fsync.jsonl"
        state = run_campaign(spec, journal, jobs=1, fsync=True)
        assert state.done == 3
        plain = tmp_path / "plain.jsonl"
        run_campaign(spec, plain, jobs=1)
        # identical bytes: fsync changes durability, not content
        assert journal.read_bytes() == plain.read_bytes()

    def test_fsync_attribute_plumbing(self, tmp_path):
        from repro.campaign import open_journal

        writer, _, _ = open_journal(_quick_spec(), tmp_path / "a.jsonl",
                                    fsync=True)
        assert writer.fsync is True
        writer.close()
        writer, _, _ = open_journal(_quick_spec(), tmp_path / "b.jsonl")
        assert writer.fsync is False
        writer.close()

    def test_truncation_mid_record_recovers_all_complete_records(
            self, tmp_path):
        spec = _quick_spec(n=5)
        journal = tmp_path / "cut.jsonl"
        run_campaign(spec, journal, jobs=1)
        intact = read_journal(journal)[2]
        assert len(intact) == 5

        # cut the file in the middle of the final record, as a power
        # loss or full disk would
        blob = journal.read_bytes()
        last_line_start = blob.rstrip(b"\n").rfind(b"\n") + 1
        cut_at = last_line_start + (len(blob) - last_line_start) // 2
        journal.write_bytes(blob[:cut_at])

        state = load_state(journal)
        assert state.done == 4  # the torn record is dropped, rest survive
        resumed = run_campaign(spec, journal, jobs=1)
        assert resumed.done == 5 and not resumed.pending

    def test_truncated_then_resumed_report_is_byte_identical(self, tmp_path):
        spec = _quick_spec(n=5)
        reference = tmp_path / "ref.jsonl"
        run_campaign(spec, reference, jobs=1)
        cut = tmp_path / "cut.jsonl"
        run_campaign(spec, cut, jobs=1)
        blob = cut.read_bytes()
        last_line_start = blob.rstrip(b"\n").rfind(b"\n") + 1
        cut.write_bytes(blob[:last_line_start + 7])  # mid-record tail
        run_campaign(spec, cut, jobs=1)  # re-executes the torn unit
        assert build_report(load_state(cut)) == \
            build_report(load_state(reference))


# --------------------------------------------------------------------------
# CLI surface: --format json shares the HTTP API's rendering path.


class TestCliJsonFormats:
    def test_status_and_report_format_json(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(_quick_spec().to_dict()))
        journal = tmp_path / "j.jsonl"
        assert main(["campaign", "run", str(spec_path),
                     "--journal", str(journal)]) == 0
        capsys.readouterr()

        assert main(["campaign", "status", str(journal),
                     "--format", "json"]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["name"] == "svc-quick"
        assert status["done"] == status["total"] == 6

        assert main(["campaign", "report", str(journal),
                     "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["campaign"] == status
        assert report["axes"][0]["experiment"] == "test-quick"
        assert "failures" in report and "metrics" in report

    def test_status_requires_journal_or_url(self, capsys):
        assert main(["campaign", "status"]) == 2
        assert "journal" in capsys.readouterr().err

    def test_serve_cli_runs_and_resumes(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(_quick_spec().to_dict()))
        journal = tmp_path / "served.jsonl"
        assert main(["serve", str(spec_path), "--journal", str(journal),
                     "--workers", "2", "--port", "0"]) == 0
        capsys.readouterr()
        # resume of a finished journal (no spec): immediate clean exit
        assert main(["serve", "--journal", str(journal),
                     "--workers", "0", "--port", "0"]) == 0
        capsys.readouterr()
        # no spec and no journal: usage error
        assert main(["serve", "--journal",
                     str(tmp_path / "missing.jsonl")]) == 2
