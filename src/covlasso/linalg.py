"""Relative tolerance of ``formats.read_cov``'s positive semidefinite check."""

NEG_EIG_BAND = 1e-8
