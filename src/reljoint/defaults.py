"""Default parameter values, each written once.

The library modules and the command line both read them from here. This
module imports nothing, so the command line can type its flags without
loading the modules that use them.
"""

# clues: type-clue score cut-off and uniqueness-ratio threshold
DEFAULT_KAPPA = -3.0
DEFAULT_THETA = 0.8

# candidates: relations kept per pair and their minimum confidence
DEFAULT_TOP_K = 3
DEFAULT_MIN_CONF = 0.1

# ilp: solver budget per solve in milliseconds (0 = none)
DEFAULT_TIME_BUDGET_MS = 60_000

# synth: seeded synthetic worlds
WORLD_MODES = ("conflict", "riedel")
DEFAULT_WORLD_MODE = "conflict"
DEFAULT_SEED = 0
DEFAULT_PAIRS = 500
DEFAULT_NOISE = 0.3
DEFAULT_MENTIONS_PER_PAIR = (1, 3)
