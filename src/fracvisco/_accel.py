"""Compiled-kernel flag, kept for run metadata.

Every kernel is plain numpy; nothing is compiled, so the flag is constant.
"""

USE_NUMBA = False
