"""Effective-dimension bounds and minimax-rate checks for kernel ridge regression."""

__version__ = "0.1.0"
