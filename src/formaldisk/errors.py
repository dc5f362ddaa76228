"""Exception types shared across the package."""

import re


class FormalDiskError(Exception):
    """Base class for all package errors."""


class ShapeError(FormalDiskError):
    """Rank, truncation order, or matrix shape mismatch."""


class InvertibilityError(FormalDiskError):
    """Singular linear part or non-unit constant term."""


class ClosednessError(FormalDiskError):
    """A form required to be de Rham closed is not."""


class TruncationOverflowError(FormalDiskError):
    """A state operation produced a term past its truncation policy's bounds."""


class ParseError(FormalDiskError):
    """Expression text rejected; carries the offending position."""

    def __init__(self, message, text="", pos=0):
        super().__init__(message)
        self.text = text
        self.pos = pos

    def caret_diagnostic(self) -> str:
        """The line of the text that holds the position, each blank shown
        as one space, and under it a caret at the position."""
        start = self.text.rfind("\n", 0, self.pos) + 1
        end = self.text.find("\n", self.pos)
        line = re.sub(r"\s", " ", self.text[start:end if end >= 0 else None])
        return f"{line}\n{' ' * (self.pos - start)}^ {self.args[0]}"
