"""In-memory spans recorded around calls into the package's layers."""

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    name: str
    parent: int  # -1 for an operation's root span
    start: float
    end: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans kept in memory until the run ends; each probe is a child of
    the operation whose inputs it reuses."""

    def __init__(self):
        self.spans = []

    @contextmanager
    def span(self, name, parent=None):
        s = Span(len(self.spans), name, -1 if parent is None else parent.id, time.perf_counter())
        self.spans.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()

    def seconds(self, name):
        return [s.seconds for s in self.spans if s.name == name]

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")
