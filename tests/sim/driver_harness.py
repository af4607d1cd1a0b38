"""A hand-cranked runtime for unit tests of one party driver.

It feeds events to a driver at a sim time the test sets, records every
command the driver returns, and keeps the driver's timers so a test can
fire them in time order.
"""

from __future__ import annotations

import itertools

from repro.sim.driver import Abandon, Send, Timer


class Harness:
    def __init__(self, driver):
        self.driver = driver
        self.now = 0.0
        self.commands = []
        self.timers = {}  # name -> due time
        self._keys = itertools.count(1)
        self.run(driver.recover(()))

    def run(self, commands):
        self.commands.extend(commands)
        for command in commands:
            if isinstance(command, Timer):
                if command.at is None:
                    self.timers.pop(command.name, None)
                else:
                    self.timers[command.name] = command.at
        return commands

    @property
    def out(self):
        """Every action the driver offered for the first time, in order."""
        return [c.action for c in self.commands if isinstance(c, Send) and c.record]

    @property
    def abandoned(self):
        return [c.key for c in self.commands if isinstance(c, Abandon)]

    def start(self):
        return self.run(self.driver.start(self.now))

    def deliver(self, action, key=None):
        """Deliver *action*; without a *key*, as a fresh envelope."""
        if key is None:
            key = f"in:{next(self._keys)}"
        return self.run(self.driver.delivered(self.now, key, action))

    def ack(self, key):
        return self.run(self.driver.acked(self.now, key))

    def fire(self, name):
        self.now = self.timers.pop(name)
        return self.run(self.driver.fired(self.now, name))

    def fire_all(self):
        """Fire every timer, earliest first, until none is left."""
        while self.timers:
            self.fire(min(self.timers, key=lambda name: (self.timers[name], name)))
