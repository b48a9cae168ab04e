"""Exception hierarchy for the :mod:`repro` library.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch a single base class at API boundaries.  Subsystems raise
the most specific subclass that applies.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of every exception raised by this library."""


class CodecError(ReproError):
    """A PDU or frame could not be encoded or decoded.

    Raised by the serialisation layers in :mod:`repro.ll.pdu` and
    :mod:`repro.host.att` when bytes on the wire do not form a valid
    protocol data unit, or when a PDU object holds out-of-range fields.
    """


class SimulationError(ReproError):
    """The discrete-event simulator was driven into an invalid state."""


class SchedulingError(SimulationError):
    """An event was scheduled in the past or with an invalid handler."""


class MediumError(SimulationError):
    """A transceiver interacted with the radio medium incorrectly."""


class LinkLayerError(ReproError):
    """A Link-Layer state machine violated the BLE specification."""


class ConnectionStateError(LinkLayerError):
    """An operation required a connection state that does not hold."""


class ProcedureError(LinkLayerError):
    """A Link-Layer control procedure (e.g. connection update) failed."""


class HostError(ReproError):
    """ATT/GATT/GAP layer failure."""


class AttError(HostError):
    """An ATT operation failed; carries the ATT error code.

    Attributes:
        code: ATT error code as defined by the Bluetooth Core Specification
            (e.g. 0x0A ``Attribute Not Found``).
        handle: attribute handle the failed request targeted, or 0.
    """

    def __init__(self, code: int, handle: int = 0, message: str = ""):
        super().__init__(message or f"ATT error 0x{code:02X} on handle 0x{handle:04X}")
        self.code = code
        self.handle = handle


class SecurityError(ReproError):
    """Pairing, key derivation or encryption failure."""


class AttackError(ReproError):
    """An offensive primitive (sniffing, injection, hijack) failed."""


class SnifferError(AttackError):
    """The sniffer could not synchronise with or follow a connection."""


class InjectionError(AttackError):
    """An injection attempt could not be carried out (not merely lost)."""


class HijackError(AttackError):
    """A hijacking scenario failed after the injection phase."""


class ConfigurationError(ReproError):
    """Invalid experiment or model configuration."""


class CampaignBusyError(ConfigurationError):
    """A campaign was submitted while another is still being served.

    The service maps this type, and only this type, to HTTP 409 Conflict.
    """


class ServiceError(ReproError):
    """The campaign service (coordinator, worker, or client) failed.

    Raised for protocol violations, unreachable endpoints, and serving
    states that cannot make progress (e.g. every worker of a managed
    fleet died mid-campaign).
    """
