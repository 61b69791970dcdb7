"""Compatibility stub for the retired per-host engine calibration.

Engine dispatch is a fixed rule of each call's inputs (see "Dispatch
rule" in :mod:`repro.mining.engines`); there is no profile to load or
pin.  The one function left here is kept for the ``perfbench`` harness
(``perfbench/child.py``), which calls ``set_active_profile(None)``
before every run.
"""

from __future__ import annotations

from repro.errors import ConfigError

__all__ = ["set_active_profile"]


def set_active_profile(profile: None) -> None:
    """Accept ``None`` (a no-op) and reject anything else.

    Called by ``perfbench/child.py`` to pin "no profile"; no profile
    exists anymore, so any other argument is a :class:`ConfigError`.
    """
    if profile is not None:
        raise ConfigError(
            "engine calibration profiles are retired; dispatch uses the "
            "fixed rule in repro.mining.engines"
        )
