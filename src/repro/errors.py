"""Exception hierarchy for the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch a single base class at API boundaries.  Subclasses map
onto subsystem failure modes (configuration, kernel launch, device
memory, workload validation, experiment definitions).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigError(ReproError):
    """A configuration value is out of range or inconsistent."""


class LaunchError(ReproError):
    """A kernel launch configuration violates device limits.

    Mirrors the CUDA driver's ``CUDA_ERROR_INVALID_CONFIGURATION``: raised
    when a block exceeds the per-block thread limit, requests more shared
    memory than a multiprocessor owns, or a grid dimension is zero.
    """


class DeviceMemoryError(ReproError):
    """An allocation exceeds device memory or an access is out of bounds."""


class ValidationError(ReproError):
    """Input data (episodes, databases, alphabets) failed validation."""


class ExperimentError(ReproError):
    """An experiment definition is malformed or references unknown entities."""


class MiningError(ReproError):
    """The mining driver was asked to do something unsupported."""


class ArtifactError(ReproError):
    """A JSON artifact is missing, truncated, or structurally wrong.

    Raised by :mod:`repro.resilience.artifacts` when a file that should
    hold a JSON object (a benchmark trajectory, a run report, a lint
    baseline) cannot be read as one.  Distinct from
    :class:`ValidationError` so callers can answer "regenerate the
    artifact" instead of "fix the input data".
    """


class CheckpointError(ReproError):
    """A stream checkpoint is unreadable, torn, corrupt, or mismatched.

    Raised by :mod:`repro.streaming.checkpoint` when a file fails its
    digest or schema validation, and by resume when the checkpoint's
    recorded configuration contradicts the resuming miner's.
    """
