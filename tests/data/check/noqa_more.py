"""Noqa fixture: suppressed RC002/RC005/RC006 violations."""

from concurrent.futures import ProcessPoolExecutor


class Platform:
    def __init__(self):
        self.links = {}
        self._version = 0

    def waived_mutator(self, name, bw):
        self.links[name] = bw        # repro: noqa[RC002]


def waived_silent():
    try:
        raise ValueError("boom")
    except ValueError:               # repro: noqa[RC005]
        pass


def waived_lambda():
    ProcessPoolExecutor().submit(lambda: 1)      # repro: noqa[RC006]
