"""Structured errors shared across the package.

Every error that can surface through the command line carries a stage
label and a JSON-friendly payload, so failures are reportable as stable
machine-readable objects.  The exit_code attribute is what the CLI
returns when the error escapes.
"""

from __future__ import annotations

from contextlib import contextmanager


class AdoError(Exception):
    """Base class for structured errors."""

    exit_code = 2

    def __init__(self, stage: str, message: str, **payload):
        super().__init__(message)
        self.stage = stage
        self.message = message
        self.payload = payload

    def to_json(self) -> dict:
        body: dict = {
            "stage": self.stage,
            "kind": type(self).__name__,
            "message": self.message,
        }
        if self.payload:
            body["detail"] = {key: self.payload[key] for key in sorted(self.payload)}
        return {"error": body}


class InputError(AdoError):
    """Invalid user input: malformed files or tables violating the axioms."""

    exit_code = 1


class TripwireError(AdoError):
    """An internal consistency check failed.  Indicates a bug, not bad input."""

    exit_code = 2


@contextmanager
def as_tripwire(stage: str):
    """Raise a ValueError from inside the block as a TripwireError of the stage.

    For internal calls on values built to be valid, such as the algebra
    on a span already checked to be closed: a failure there is a bug.
    """
    try:
        yield
    except ValueError as exc:
        raise TripwireError(stage, str(exc)) from None
