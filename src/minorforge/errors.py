"""Shared exception types and the size-guard helper."""

import os


class SizeGuardError(ValueError):
    """An input exceeds the desk-scale size guard of an exact operation."""


class BudgetExceededError(RuntimeError):
    """An exact enumeration ran out of its configured node budget."""


# Errors an operation raises on bad input, a guard or a budget; the CLI
# turns them into clean exits and a replay records them per line.
OPERATION_ERRORS = (SizeGuardError, BudgetExceededError, ValueError, RuntimeError, OSError)


def guard_limit(default: int) -> int:
    """Effective guard limit, scaled by the FORGE_GUARD_OVERRIDE multiplier.

    The multiplier must be a positive integer; any other value raises
    ValueError rather than silently leaving the limits as they are.
    """
    raw = os.environ.get("FORGE_GUARD_OVERRIDE")
    if not raw:
        return default
    try:
        factor = int(raw)
    except ValueError:
        factor = 0
    if factor < 1:
        raise ValueError(f"FORGE_GUARD_OVERRIDE must be a positive integer, not {raw!r}")
    return default * factor


def check_size(value: int, default_limit: int, what: str) -> None:
    """Raise SizeGuardError when ``value`` exceeds the effective limit."""
    limit = guard_limit(default_limit)
    if value > limit:
        raise SizeGuardError(f"{what} is {value}, exceeding the size guard of {limit}")
