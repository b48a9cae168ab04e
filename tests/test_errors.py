"""Tests for the exception hierarchy contract."""

import pytest

from repro import errors


class TestHierarchy:
    @pytest.mark.parametrize("cls", [
        errors.CodecError, errors.SimulationError, errors.SchedulingError,
        errors.MediumError, errors.LinkLayerError,
        errors.ConnectionStateError, errors.ProcedureError,
        errors.HostError, errors.AttError, errors.SecurityError,
        errors.AttackError, errors.SnifferError, errors.InjectionError,
        errors.HijackError, errors.ConfigurationError,
    ])
    def test_all_derive_from_repro_error(self, cls):
        assert issubclass(cls, errors.ReproError)

    def test_scheduling_is_simulation_error(self):
        assert issubclass(errors.SchedulingError, errors.SimulationError)

    def test_campaign_busy_is_configuration_error(self):
        assert issubclass(errors.CampaignBusyError, errors.ConfigurationError)

    def test_sniffer_is_attack_error(self):
        assert issubclass(errors.SnifferError, errors.AttackError)

    def test_connection_state_is_link_layer_error(self):
        assert issubclass(errors.ConnectionStateError, errors.LinkLayerError)

    def test_mic_error_is_security_error(self):
        from repro.crypto.session import MicError

        assert issubclass(MicError, errors.SecurityError)


class TestAttError:
    def test_carries_code_and_handle(self):
        exc = errors.AttError(0x0A, handle=0x42)
        assert exc.code == 0x0A and exc.handle == 0x42
        assert "0x0A" in str(exc) and "0x0042" in str(exc)

    def test_custom_message(self):
        exc = errors.AttError(0x01, message="boom")
        assert str(exc) == "boom"


class TestCatchability:
    def test_single_base_catches_subsystem_errors(self):
        """API consumers can catch ReproError at a boundary."""
        from repro.phy.crc import crc24

        with pytest.raises(errors.ReproError):
            crc24(b"x", 1 << 24)

    def test_errors_do_not_leak_bare_exception(self):
        from repro.ll.csa1 import Csa1

        try:
            Csa1(hop_increment=99)
        except errors.ReproError:
            pass
        else:  # pragma: no cover
            pytest.fail("expected a ReproError subclass")
