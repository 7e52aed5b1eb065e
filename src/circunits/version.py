"""Single source of the tool version string recorded in certificates."""

__all__ = ["TOOL_VERSION"]

TOOL_VERSION = "0.2.0"
