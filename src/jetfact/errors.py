"""The error type of bad input."""


class InputError(ValueError):
    """Input that does not parse or fails validation; the CLI exits 2 on it."""
