"""Small shared helpers."""

from decimal import ROUND_DOWN, ROUND_HALF_UP, Decimal

_HUNDREDTH = Decimal("0.01")


def round_half_up(value: float) -> float:
    """Round to two decimals with ties away from zero (accuracy display
    convention). Python's built-in round() is banker's rounding; 0.125 must
    become 0.13.
    """
    return float(Decimal(str(value)).quantize(_HUNDREDTH, rounding=ROUND_HALF_UP))


def trunc_pct(value: float | None) -> float | None:
    """Truncate toward zero at two decimals, the convention the published
    tables follow (3282/3344 prints as 98.14, not 98.15). None, a missing
    cell, stays None."""
    if value is None:
        return None
    return float(Decimal(str(value)).quantize(_HUNDREDTH, rounding=ROUND_DOWN))


def fmt_pct(value: float | None) -> str:
    return "NA" if value is None else f"{trunc_pct(value):.2f}%"
