"""Exception hierarchy shared across the toolkit, the readers that turn
a text file that is not UTF-8 or a torn or wrongly shaped JSON file into
a typed error, and the one writer of every file svloop makes.

Frontend errors carry source positions so the CLI can print
``file:line:col: message`` diagnostics.
"""

import json
import os
from contextlib import contextmanager


class SvLoopError(Exception):
    """Base class for all toolkit errors."""


# --- frontend ---------------------------------------------------------------

class FrontendError(SvLoopError):
    def __init__(self, message, line=None, col=None):
        super().__init__(message)
        self.message = message
        self.line = line
        self.col = col

    def diagnostic(self, filename="<input>"):
        line = self.line if self.line is not None else 0
        col = self.col if self.col is not None else 0
        return f"{filename}:{line}:{col}: {self.message}"


class ParseError(FrontendError):
    """Malformed source text within the supported grammar."""


class UnsupportedConstruct(FrontendError):
    """Syntactically recognizable construct outside the supported subset.

    Kept distinct from ParseError so that mutants or patches using exotic
    syntax are rejected explicitly rather than misparsed.
    """


class ElaborationError(FrontendError):
    pass


class CombinationalLoop(ElaborationError):
    pass


class MultipleDrivers(ElaborationError):
    pass


class WidthMismatch(ElaborationError):
    pass


class AmbiguousClock(ElaborationError):
    pass


# --- simulator --------------------------------------------------------------

class StimulusMismatch(SvLoopError):
    """Unit-test columns do not match the design signature."""


# --- verdict / metrics ------------------------------------------------------

class TraceShapeMismatch(SvLoopError):
    """Traces being compared disagree on length or signal set."""


class CalledOnPass(SvLoopError):
    """Mismatch summary requested for a passing verdict."""


# --- mutation ---------------------------------------------------------------

class NoApplicableSite(SvLoopError):
    pass


class NoDistinctMutant(SvLoopError):
    """Every applicable site produced a semantic equivalent of the reference."""


# --- llm gateway ------------------------------------------------------------

class GatewayError(SvLoopError):
    pass


class PromptOverflow(GatewayError):
    """Rendered prompt exceeds the configured input token window."""


class ProviderTimeout(GatewayError):
    pass


class ProviderRejection(GatewayError):
    pass


class ScriptExhausted(GatewayError):
    """Scripted mock ran out of replayable responses."""


class NoStimulusFound(GatewayError):
    pass


class MalformedStimulus(GatewayError):
    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line


class NoModuleFound(GatewayError):
    pass


class PatchRejected(GatewayError):
    """Patch text failed parse, elaboration, or signature preservation."""

    def __init__(self, reason, detail=""):
        super().__init__(f"patch rejected ({reason}): {detail}" if detail else f"patch rejected ({reason})")
        self.reason = reason
        self.detail = detail


# --- dataset / reporting ----------------------------------------------------

class ManifestError(SvLoopError):
    pass


class ReportError(SvLoopError):
    pass


class CheckpointError(SvLoopError):
    """A run-directory checkpoint that is not valid JSON or not the shape
    its writer gives it."""


class RunDirectoryError(SvLoopError):
    """A run directory that another configuration made, or that another
    process is writing."""


class MockScriptError(SvLoopError):
    """A mock-script ``index.json`` that is not valid JSON or not the shape
    ``save_mock_script`` writes."""


# --- reading input files, writing files and directories --------------------

def _read_text(path, error=ManifestError):
    """The text of an input file; bytes that are not UTF-8 are an ``error``
    (a ManifestError unless given) that names the file."""
    try:
        return path.read_text("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})") from exc


def _read_json(path, error=ManifestError):
    try:
        return json.loads(path.read_text("utf-8"))
    except ValueError as exc:  # bad JSON or bad UTF-8
        raise error(f"{path} is not valid JSON: {exc}") from exc


def _write_bytes(path, data: bytes) -> None:
    """Create or truncate ``path`` and write ``data`` to it: a descriptor,
    no file object and no buffer. Every file svloop writes comes here, but
    the packaged corpus that ``init-corpus`` copies."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        written = os.write(fd, data)
        while written < len(data):
            written += os.write(fd, data[written:])
    finally:
        os.close(fd)


def _write_json(path, data) -> None:
    # atomic: a file that exists is never torn
    tmp = f"{path}.tmp"
    _write_bytes(tmp, (json.dumps(data, indent=2, sort_keys=True) + "\n").encode("utf-8"))
    os.replace(tmp, path)


def _mkdir(path, parents=False) -> None:
    """Make the directory ``path``, and its missing parents with ``parents``.
    A directory already there is fine; any other file there is an error, as
    under ``Path.mkdir(exist_ok=True)``."""
    if parents:
        os.makedirs(path, exist_ok=True)
        return
    try:
        os.mkdir(path)
    except FileExistsError:
        if not os.path.isdir(path):
            raise


@contextmanager
def _required_keys(path, error=ManifestError):
    """Turn a missing key or a wrongly shaped or valued entry into an
    ``error`` (a ManifestError unless given) that names the file."""
    try:
        yield
    except (LookupError, TypeError, AttributeError, ValueError, ZeroDivisionError) as exc:
        raise error(f"{path} is malformed: missing or invalid {exc}") from exc
