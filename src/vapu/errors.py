"""Exception hierarchy shared by every vapu module.

All errors derive from VapuError so callers can catch the whole family;
gateway transport problems additionally derive from GatewayError.  ``vapu``
exits with the ``exit_code`` of the error that stops it (18, a defect, by default).
"""


class VapuError(Exception):
    """Base class for all errors raised by this package."""
    exit_code = 18


# --- configuration / CLI ---

class ConfigInvalid(VapuError):
    """Run configuration or asset file violates its contract."""
    exit_code = 2


# --- pipeline ---

class EmptyRequirements(VapuError):
    """Requirement body is blank after trimming."""
    exit_code = 12


class UnparseableTaskList(VapuError):
    """Manager output yielded zero tasks."""


class EmptyInstruction(VapuError):
    """Prompt-maker returned a blank instruction."""


class NoCodeInResponse(VapuError):
    """Code extraction from an agent response produced nothing."""


class UnparseableVerdict(VapuError):
    """Verifier output matched neither the accept nor the reject protocol."""


class EmptyChangeList(VapuError):
    """Finalizer invoked without any change requests."""


class AbortedRun(VapuError):
    """An agent error aborted the run; a partial transcript was persisted.

    task_index is 0 while still planning, and for a baseline's single
    call; otherwise the 1-based index of the task that was in flight.
    """
    exit_code = 9

    def __init__(self, message: str, task_index: int, run_id: str):
        super().__init__(message)
        self.task_index = task_index
        self.run_id = run_id


# --- gateway ---

class GatewayError(VapuError):
    """Base class for model-endpoint access failures."""


class UnknownModel(GatewayError):
    """profile_id not present in the model registry."""
    exit_code = 3


class TransientExhausted(GatewayError):
    """Retry budget spent on transient endpoint failures."""


class ContextOverflow(GatewayError):
    """Prompt exceeds the model's context length (estimated pre-check)."""


class BackendRefused(GatewayError):
    """Non-retryable endpoint error."""


class FixtureMiss(BackendRefused):
    """Replay backend had no fixture for the requested (role, index) key."""


class MalformedFixtureName(GatewayError):
    """Fixture file name does not follow <role>-<index>.txt."""
    exit_code = 7


class GapInIndices(GatewayError):
    """Per-role fixture indices are not contiguous from 0."""
    exit_code = 8


# --- prompt library ---

class MissingBinding(VapuError):
    """A placeholder in the template body has no binding."""


class UnknownPlaceholder(VapuError):
    """A placeholder or binding name is outside the documented set."""


class EmptyResponse(VapuError):
    """Agent response was blank where content is required."""


# --- evaluation harness ---

class InvalidCCLetter(VapuError):
    """Cyclomatic-complexity grade outside A..F."""


class EmptyScores(VapuError):
    """Temperature selection invoked with no candidate scores."""


# --- workspace ---

class NoFilesMatched(VapuError):
    """Codebase ingestion globs matched no files."""
    exit_code = 13


class StorageFull(VapuError):
    """An output (transcript, updated file, scored records, report) cannot be written."""
    exit_code = 15


class CorruptTranscript(VapuError):
    """Persisted transcript failed its checksum or structural checks."""
    exit_code = 14


class ReplayMismatch(VapuError):
    """Re-executing a transcript did not reproduce its recorded final code."""
    exit_code = 19
