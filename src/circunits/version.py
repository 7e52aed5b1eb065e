"""Single source of the tool version string recorded in certificates."""

TOOL_VERSION = "0.2.0"
