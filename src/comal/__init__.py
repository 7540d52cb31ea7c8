"""Commitment-alignment protocols: parsing, synthesis, asynchronous enactment,
and bounded verification."""

__version__ = "0.1.0"
