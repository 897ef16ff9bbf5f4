"""Combinatorial blow-up guards.

Several operations (pattern-set generation, set-partition enumeration)
can explode for careless inputs.  Guards are on by default and can be
lifted either per call or globally with the environment variable
ULTRADIV_GUARD: set it to ``off`` or ``0`` to disable all guards, or to
a positive integer to replace every default cap with that value.  Any
other value is an error (ValueError), not silently ignored.
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


def check_guard(value: int, default_cap: int, what: str, cap: int | None = None) -> None:
    """Raise GuardExceeded if value exceeds the effective cap.

    cap=None uses default_cap (or the env override); an explicit cap<=0
    disables the check for this call.
    """
    if cap is None:
        env = _env_override()
        if env == 0:
            return
        cap = env if env is not None else default_cap
    if cap <= 0:
        return
    if value > cap:
        raise GuardExceeded(
            f"{what} = {value} exceeds guard cap {cap}; "
            f"pass an explicit cap or set {ENV_VAR}=off to override"
        )
