"""Foundational utilities shared by every PolarStore subsystem.

This package deliberately has no dependencies on the rest of ``repro`` so
that every other subpackage can import it freely.
"""
