"""Combinatorial blow-up guards.

Pattern-set generation and the exhaustive searches estimate their size
before they start.  Guards are on by default; the one way to lift them
is the environment variable ULTRADIV_GUARD: ``off`` or ``0`` disables
all guards, a positive integer replaces every default cap, and any other
value is an error (ValueError), not silently ignored.
"""

from __future__ import annotations

import os

ENV_VAR = "ULTRADIV_GUARD"


class GuardExceeded(RuntimeError):
    """An operation refused to run because a size guard tripped."""


def _env_override() -> int | None:
    """None = no override, 0 = guards disabled, n > 0 = replacement cap."""
    raw = os.environ.get(ENV_VAR)
    if raw is None:
        return None
    value = raw.strip().lower()
    if value == "off":
        return 0
    try:
        cap = int(value)
    except ValueError:
        cap = -1
    if cap < 0:
        raise ValueError(f"{ENV_VAR}={raw!r}: expected off, 0 or a positive integer")
    return cap


def check_guard(value: int, default_cap: int, what: str) -> None:
    """Raise GuardExceeded if value exceeds default_cap, or the cap that
    ULTRADIV_GUARD puts in its place (off or 0: no check)."""
    env = _env_override()
    cap = default_cap if env is None else env
    if cap and value > cap:
        raise GuardExceeded(
            f"{what} = {value} exceeds guard cap {cap}; set {ENV_VAR}=off or a larger cap to lift it"
        )
