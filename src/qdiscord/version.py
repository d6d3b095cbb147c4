"""Single source of the package version for code and run metadata."""

__version__ = "0.2.0"
