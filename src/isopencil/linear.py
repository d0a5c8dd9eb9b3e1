"""Integer linear forms in one parameter, used for family columns."""

from __future__ import annotations

from functools import total_ordering

from .record import Record

__all__ = ["LinearForm"]


@total_ordering
class LinearForm(Record):
    """slope * m + intercept, ordered by (slope, intercept)."""

    __slots__ = ("slope", "intercept")

    def __lt__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.slope, self.intercept) < (other.slope, other.intercept)

    def shift(self, delta: int) -> "LinearForm":
        """The same form with the parameter replaced by (parameter + delta)."""
        return LinearForm(self.slope, self.intercept + self.slope * delta)

    def render(self) -> str:
        if self.slope == 0:
            return str(self.intercept)
        if self.slope == 1:
            head = "m"
        elif self.slope == -1:
            head = "-m"
        else:
            head = f"{self.slope}m"
        if self.intercept > 0:
            return f"{head}+{self.intercept}"
        if self.intercept < 0:
            return f"{head}{self.intercept}"
        return head
