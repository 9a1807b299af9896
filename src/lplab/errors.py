"""Shared exception types."""


class Refusal(ValueError):
    """An operation's hypotheses are not met; refuse rather than guess."""
