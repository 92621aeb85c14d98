"""Numeric bounds on user-supplied sizes, and the defaults inside them.

This module imports nothing, so the command line parser can show the
bounds in its defaults and help text without loading any engine.
"""

# Largest dimension accepted for an algebra, built-in abelian(n) or loaded
# from JSON: its derivation systems have n^2 unknowns and up to n^2 rows
# of that width, so dimension 64 already asks for a 4096-column system.
MAX_DIM = 64

# Polynomial runs stop after this many generated basis elements.
DEFAULT_GUARD = 5000
MAX_GUARD = 10**6

# Largest exponent of one variable in one term of a parsed polynomial:
# division rewrites a power one leading-term step at a time, so its work
# grows with the exponent.
MAX_EXPONENT = 10**5

# Graded dimensions: half-width K of the exponent window, and the largest
# automorphism order searched.
DEFAULT_WINDOW = 8
MAX_WINDOW = 64
DEFAULT_ORDER_BOUND = 64
MAX_ORDER_BOUND = 1024
