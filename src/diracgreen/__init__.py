"""Semiclassical Green kernel asymptotics for Dirac operators with scalar potential."""

__version__ = "0.1.0"
