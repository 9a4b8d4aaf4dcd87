"""Exception types shared across the package.

The CLI maps these onto process exit codes: ParameterError -> 2,
DataError and subclasses -> 3, DegenerateLabelsError -> 4.
"""


class SmeriskError(Exception):
    """Base class for every error raised by this package."""


class ParameterError(SmeriskError, ValueError):
    """An argument or configuration value lies outside its allowed domain."""


class DataError(SmeriskError):
    """Input data cannot be used as requested."""


class SchemaError(DataError):
    """A CSV header does not match the canonical column contract."""


class ParseError(DataError):
    """A document or cell could not be parsed."""


class RowParseError(ParseError):
    """A data row holds a non-numeric or out-of-range cell."""

    def __init__(self, row_index: int, message: str):
        super().__init__(f"row {row_index}: {message}")
        self.row_index = row_index


class EmptyInputError(DataError):
    """No usable records were provided."""


class ModelFormatError(DataError):
    """A serialized model has an unsupported format_version or model_type,
    or a body that does not describe a valid model."""


class DegenerateLabelsError(SmeriskError):
    """A training set contains only one class."""
