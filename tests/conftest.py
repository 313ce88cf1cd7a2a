"""Shared pytest wiring and helpers: collects one summary line per acceptance
criterion, pads words with cancelling pairs and draws seeded relators."""

import random

import pytest

from fibreconj.words import is_cyclically_reduced, random_reduced_word

ACCEPTANCE_LINES: list[str] = []


def record(criterion: int, details: str) -> None:
    ACCEPTANCE_LINES.append(f"ACCEPTANCE {criterion}: PASS ({details})")


def pad(w: str, rng, letters: str) -> str:
    """w with one to three cancelling pairs (aA, Bb, ...) inserted at seeded positions."""
    for _ in range(rng.randint(1, 3)):
        i = rng.randint(0, len(w))
        c = rng.choice(letters)
        w = w[:i] + c + c.swapcase() + w[i:]
    return w


def seeded_relator(seed: int, generators: str, n: int) -> str:
    """The first seeded random reduced word of n letters that is cyclically reduced."""
    rng = random.Random(seed)
    while not is_cyclically_reduced(r := random_reduced_word(rng, generators, n)):
        pass
    return r


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "acceptance(n): numbered end-to-end acceptance criterion"
    )


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    rep = outcome.get_result()
    marker = item.get_closest_marker("acceptance")
    if marker is not None and rep.when == "call" and rep.failed:
        ACCEPTANCE_LINES.append(f"ACCEPTANCE {marker.args[0]}: FAIL")


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(
            ACCEPTANCE_LINES, key=lambda s: int(s.split()[1].rstrip(":"))
        ):
            terminalreporter.write_line(line)
