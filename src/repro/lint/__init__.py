"""repro.lint -- AST-based determinism & safety linter.

The simulation's headline guarantee -- same seed, same dataset digest, at
any worker count -- rests on code conventions nothing in the runtime can
check: every random draw comes from a named :class:`~repro.world.rng.
RNGRegistry` stream, engine code never reads the wall clock, and nothing
hashes or serializes data in set iteration order.  This package
enforces those conventions statically, as named rules over the AST:

========  ========  ==========================================================
rule      severity  invariant
========  ========  ==========================================================
DET001    error     no unseeded RNG construction
DET002    error     no module-level ``random.*`` calls (hidden global state)
DET003    error     no wall-clock reads in engine packages (``obs`` exempt)
DET004    error     ``world/`` derives seeded RNGs via ``RNGRegistry`` only
GEN001    warning   no mutable default arguments
GEN002    warning   no bare ``except:``
========  ========  ==========================================================

Findings are suppressed per line with ``# repro: lint-ok[RULE] reason``
(the reason is mandatory -- an unexplained suppression does not
suppress), or grandfathered wholesale via a committed baseline file.

Run it as ``repro lint [paths] [--strict]`` or ``python -m repro.lint``.
"""
