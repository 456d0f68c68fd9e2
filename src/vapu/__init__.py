"""vapu: multi-agent legacy code updates with a replayable evaluation harness.

The package root exports only the error base class and the version.
Import everything else from its submodule: ``vapu.pipeline`` (runs),
``vapu.gateway`` (backends), ``vapu.models``, ``vapu.prompts``,
``vapu.workspace`` (config and transcripts), ``vapu.evaluation``,
``vapu.errors`` and ``vapu.cli``.
"""

from .errors import VapuError

__version__ = "0.1.0"
