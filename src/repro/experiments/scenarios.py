"""Scenario end-to-end runners (paper §VI) for benchmarks and the CLI.

Each runner builds a fresh world (victim device + phone + attacker on the
2 m triangle), executes one scenario, and verifies the *offensive goal*
rather than just the injection: the feature fired, the impersonation
served spoofed data, the takeover drove the device, the relay mutated
traffic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.core.attacker import Attacker
from repro.core.scenarios import (
    IllegitimateUseScenario,
    MasterHijackScenario,
    MitmScenario,
    SlaveHijackScenario,
)
from repro.core.scenarios.scenario_b import hacked_gatt_server
from repro.devices import Keyfob, Lightbulb, Smartphone, Smartwatch
from repro.devices.smartwatch import Sms
from repro.host.att.pdus import ReadByTypeRsp, WriteReq, decode_att_pdu
from repro.host.gatt.uuids import UUID_DEVICE_NAME
from repro.host.l2cap import CID_ATT, l2cap_decode, l2cap_encode
from repro.sim.medium import Medium
from repro.sim.simulator import Simulator
from repro.sim.topology import Topology

#: Victim device classes by display name.
DEVICES = {
    "lightbulb": Lightbulb,
    "keyfob": Keyfob,
    "smartwatch": Smartwatch,
}


def build_world(device_cls, seed: int, world_hook: Optional[Callable] = None,
                engine: Optional[str] = None, trace_enabled: bool = False,
                metrics_enabled: bool = False):
    """Victim + phone + synchronised attacker, connection established.

    ``world_hook(sim, medium)``, if given, runs before any device exists —
    the spot to attach observers such as a
    :class:`~repro.telemetry.capture.FrameRecorder` or a
    :class:`~repro.defense.bank.DetectorBank` so they see the whole
    exchange from the first advertisement (and thus learn the CONNECT_REQ's
    CRCInit for CRC validation).

    ``engine`` selects the simulation engine (see
    :func:`repro.sim.fastforward.resolve_engine`); ``trace_enabled`` turns
    on full trace recording for differential comparisons;
    ``metrics_enabled`` runs the world instrumented (defense bench trials
    ship the snapshot back in their results).
    """
    from repro.sim.fastforward import install_engine

    sim = Simulator(seed=seed, trace_enabled=trace_enabled,
                    metrics_enabled=metrics_enabled)
    topo = Topology.equilateral_triangle(("victim", "phone", "attacker"))
    medium = Medium(sim, topo)
    if world_hook is not None:
        world_hook(sim, medium)
    victim = device_cls(sim, medium, "victim")
    victim.ll.readvertise_on_disconnect = False
    phone = Smartphone(sim, medium, "phone", interval=36)
    attacker = Attacker(sim, medium, "attacker")
    install_engine(sim, medium, phone.ll, victim.ll, engine=engine)
    attacker.sniff_new_connections()
    victim.power_on()
    phone.connect_to(victim.address)
    sim.run(until_us=1_200_000)
    assert attacker.synchronized
    return sim, victim, phone, attacker


def feature_write(victim):
    """(handle, value, check) triggering each device's §VI-A feature."""
    if isinstance(victim, Lightbulb):
        return (victim.gatt.find_characteristic(0xFF11).value_handle,
                Lightbulb.power_payload(False, pad_to=5),
                lambda: not victim.is_on)
    if isinstance(victim, Keyfob):
        return (victim.alert_char.value_handle, Keyfob.ring_payload(),
                lambda: victim.is_ringing)
    return (victim.sms_char.value_handle,
            Sms("Bank", "forged alert").to_bytes(),
            lambda: bool(victim.inbox))


def run_scenario_a(device_cls, seed: int,
                   world_hook: Optional[Callable] = None) -> tuple[bool, int]:
    """Scenario A: inject a feature-triggering ATT request."""
    sim, victim, phone, attacker = build_world(device_cls, seed, world_hook)
    handle, value, check = feature_write(victim)
    results = []
    IllegitimateUseScenario(attacker).inject_write(handle, value,
                                                   on_done=results.append)
    sim.run(until_us=60_000_000)
    ok = bool(results and results[0].success and check())
    return ok, results[0].report.attempts if results else 0


def run_scenario_b(device_cls, seed: int,
                   world_hook: Optional[Callable] = None) -> tuple[bool, int]:
    """Scenario B: terminate + impersonate; verify the spoofed name."""
    sim, victim, phone, attacker = build_world(device_cls, seed, world_hook)
    results = []
    SlaveHijackScenario(attacker, gatt_server=hacked_gatt_server("Hacked")
                        ).run(on_done=results.append)
    sim.run(until_us=15_000_000)
    if not (results and results[0].success):
        return False, results[0].report.attempts if results else 0
    names = []
    phone.host.att.read_by_type(UUID_DEVICE_NAME, names.append)
    sim.run(until_us=sim.now + 3_000_000)
    spoofed = bool(names and isinstance(names[0], ReadByTypeRsp)
                   and names[0].records[0][1] == b"Hacked")
    ok = spoofed and not victim.ll.is_connected and phone.is_connected
    return ok, results[0].report.attempts


def run_scenario_c(device_cls, seed: int,
                   world_hook: Optional[Callable] = None) -> tuple[bool, int]:
    """Scenario C: forged update takeover; verify the attacker drives."""
    sim, victim, phone, attacker = build_world(device_cls, seed, world_hook)
    results = []
    MasterHijackScenario(attacker, instant_delta=40).run(
        on_done=results.append)
    sim.run(until_us=25_000_000)
    if not (results and results[0].success):
        return False, results[0].report.attempts if results else 0
    handle, value, check = feature_write(victim)
    results[0].fake_master.queue_att(WriteReq(handle, value).to_bytes())
    sim.run(until_us=sim.now + 3_000_000)
    ok = check() and victim.ll.is_connected and not phone.is_connected
    return ok, results[0].report.attempts


def run_scenario_d(device_cls, seed: int,
                   world_hook: Optional[Callable] = None) -> tuple[bool, int]:
    """Scenario D: MitM; verify on-the-fly mutation of relayed writes."""
    sim, victim, phone, attacker = build_world(device_cls, seed, world_hook)

    def mutate(frame):
        try:
            cid, att = l2cap_decode(frame)
            pdu = decode_att_pdu(att)
            if isinstance(pdu, WriteReq):
                return l2cap_encode(CID_ATT, WriteReq(
                    pdu.handle, b"\xEE" + pdu.value[1:]).to_bytes())
        except Exception:
            pass
        return frame

    results = []
    MitmScenario(attacker, master_to_slave=mutate).run(
        on_done=results.append)
    sim.run(until_us=15_000_000)
    if not (results and results[0].success):
        return False, results[0].report.attempts if results else 0
    handle, value, _ = feature_write(victim)
    witness = []
    char = None
    for service in victim.gatt.services:
        for candidate in service.characteristics:
            if candidate.value_handle == handle:
                char = candidate
    assert char is not None
    char.on_write = witness.append
    phone.gatt.write(handle, value)
    sim.run(until_us=sim.now + 6_000_000)
    mutated = bool(witness and witness[-1][:1] == b"\xEE")
    ok = mutated and phone.is_connected and victim.ll.is_connected
    return ok, results[0].report.attempts


#: Scenario runners by display name.
SCENARIOS: dict[str, Callable] = {
    "A (use feature)": run_scenario_a,
    "B (slave hijack)": run_scenario_b,
    "C (master hijack)": run_scenario_c,
    "D (MitM)": run_scenario_d,
}


#: Single-letter shortcuts ("A".."D") to the display names in SCENARIOS.
SCENARIO_LETTERS: dict[str, str] = {
    display.split()[0]: display for display in SCENARIOS
}


def resolve_scenario(name: str) -> str:
    """Resolve a display name or single-letter shortcut to a SCENARIOS key."""
    if name in SCENARIOS:
        return name
    key = name.strip().upper()
    if key in SCENARIO_LETTERS:
        return SCENARIO_LETTERS[key]
    raise KeyError(
        f"unknown scenario {name!r}; expected one of "
        f"{sorted(SCENARIO_LETTERS)} or {list(SCENARIOS)}"
    )


@dataclass(frozen=True)
class ScenarioTrial:
    """One end-to-end scenario world, as a campaign-runnable unit.

    Attributes:
        seed: world seed.
        scenario: display name in :data:`SCENARIOS`.
        device: device name in :data:`DEVICES`.
    """

    seed: int
    scenario: str
    device: str


def run_scenario_trial(trial: ScenarioTrial):
    """Run one scenario world; picklable campaign runner for the suite."""
    from repro.experiments.common import TrialResult

    ok, attempts = SCENARIOS[trial.scenario](DEVICES[trial.device],
                                             trial.seed)
    return TrialResult(success=ok, attempts=attempts, effect_observed=ok)


def trial_units(
    base_seed: int = 1000,
    n_connections: int = 1,
    scenarios: Optional[tuple[str, ...]] = None,
    devices: Optional[tuple[str, ...]] = None,
) -> list[tuple[str, ScenarioTrial]]:
    """Expand the suite into ``("<scenario> vs <device>", trial)`` units.

    Seeds follow the historical serial enumeration over the *full* grid
    (``base_seed + 13`` per case, scenario-major) so a filtered subset
    reproduces exactly the cases it keeps; repetitions beyond the first
    offset the case seed by ``rep * 104_729``.
    """
    wanted_scenarios = (None if scenarios is None
                        else {resolve_scenario(s) for s in scenarios})
    wanted_devices = None if devices is None else set(devices)
    if wanted_devices is not None:
        for name in wanted_devices:
            if name not in DEVICES:
                raise KeyError(f"unknown device {name!r}; expected one of "
                               f"{list(DEVICES)}")
    units: list[tuple[str, ScenarioTrial]] = []
    seed = base_seed
    for scenario_name in SCENARIOS:
        for device_name in DEVICES:
            seed += 13
            if wanted_scenarios is not None and \
                    scenario_name not in wanted_scenarios:
                continue
            if wanted_devices is not None and \
                    device_name not in wanted_devices:
                continue
            for rep in range(n_connections):
                units.append((
                    f"{scenario_name} vs {device_name}",
                    ScenarioTrial(seed=seed + rep * 104_729,
                                  scenario=scenario_name,
                                  device=device_name),
                ))
    return units


def run_scenario_suite(
    base_seed: int = 1000,
    jobs: Optional[int] = None,
) -> list[tuple[str, bool, int]]:
    """Every scenario × every device, each in its own fresh world.

    Seeds follow the historical serial enumeration (``base_seed + 13`` per
    case, scenario-major), so results match the pre-parallel benchmark
    byte for byte regardless of ``jobs``.
    """
    from repro.runner import run_units

    units = trial_units(base_seed=base_seed)
    results = [outcome.unwrap() for outcome in run_units(
        run_scenario_trial, [trial for _, trial in units], jobs=jobs)]
    return [(label, result.success, result.attempts)
            for (label, _), result in zip(units, results)]
