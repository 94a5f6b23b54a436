"""Exception types shared across the toolchain."""


class BrickIrError(Exception):
    """Base class for all toolchain errors."""


class LdrawParseError(BrickIrError):
    """Malformed LDraw input; carries the 1-based source line number."""

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class GraphParseError(BrickIrError):
    """Malformed connectivity-graph JSON."""


class EncodingError(BrickIrError):
    """Input bytes that are not text in the encoding their format requires."""


class AnnotationError(BrickIrError):
    """Invalid connector annotation or override."""


class CatalogError(BrickIrError):
    """Missing or inconsistent catalog entry."""


class MatchError(BrickIrError):
    """Connector pairing that violates the matching predicate."""


class ProgramError(BrickIrError):
    """Invalid build-sequence text; carries a stable error code and line."""

    def __init__(self, code, message, line=None):
        where = "" if line is None else f"line {line}: "
        super().__init__(f"{where}{code}: {message}")
        self.code = code
        self.line = line
