"""Single source of the package version, for code, run metadata and pyproject.toml."""

__version__ = "0.7.0"
