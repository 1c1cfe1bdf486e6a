"""Field rules: each recipe dataclass (``TrainConfig``, ``ShadowParams``, ...) calls
:func:`check` in ``__post_init__``, which reports every broken rule at once, so that
``validate_config`` can name the config key behind each one.
"""

from __future__ import annotations

__all__ = ["RecipeError", "check"]


class RecipeError(ValueError):
    """Every broken field rule of one recipe, as (field, message) pairs."""

    def __init__(self, problems: list[tuple[str, str]]):
        self.problems = problems
        super().__init__("; ".join(f"{name} {message}" for name, message in problems))


def check(*rules: tuple[str, bool, str]) -> None:
    """Raise one :class:`RecipeError` for every ``(field, holds, message)`` rule that does not hold."""
    problems = [(name, message) for name, holds, message in rules if not holds]
    if problems:
        raise RecipeError(problems)
