"""Shared fixtures: small synthetic populations reused across test modules.

Session scope keeps the expensive generators to one call each; tests must
treat fixture objects as read-only.
"""

import csv
import importlib.util
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from zoneplan import ingest, optimize, synth
from zoneplan.diversity import layout_diversity

ACCEPTANCE_LINES: list[tuple[int, str]] = []
REPO = Path(__file__).resolve().parents[1]

# HYPOTHESIS_PROFILE=ci runs ten times hypothesis's default number of examples
# in the tests that do not set their own; tier-1 keeps the default profile
settings.register_profile("ci", max_examples=1000)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def load_module(path: Path):
    """Import a repository file that is not on the import path (bench/, scripts/)."""
    spec = importlib.util.spec_from_file_location(f"_{path.parent.name}_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def record_criterion(number: int, name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    line = f"criterion {number:2d} {status}  {name}" + (f"  [{detail}]" if detail else "")
    ACCEPTANCE_LINES.append((number, line))
    print(line)


@pytest.fixture(scope="session")
def record():
    return record_criterion


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for _, line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def pop36():
    # Four-archetype population, one day: 4 zones of 9, 36 occupants.
    return synth.generate_population((9, 9, 9, 9), 1, seed=11)


@pytest.fixture(scope="session")
def pop36_pure(pop36):
    return optimize.Layout.from_groups(synth.archetype_pure_layout(pop36, 4))


@pytest.fixture(scope="session")
def pop8():
    # Two occupants per archetype, two days: the smallest non-trivial case.
    return synth.generate_population((2, 2, 2, 2), 2, seed=5)


@pytest.fixture(scope="session")
def paired_vectors():
    # Two identical pairs: optimum is zero diversity when pairs share a zone.
    return {
        "a1": np.array([0.0, 0.0, 1.0]),
        "a2": np.array([0.0, 0.0, 1.0]),
        "b1": np.array([5.0, 5.0, 5.0]),
        "b2": np.array([5.0, 5.0, 5.0]),
    }


@pytest.fixture(scope="session")
def paired_adversarial(paired_vectors):
    # Adversarial start: each zone mixes the two pairs.
    return optimize.Layout.from_groups({"Z1": ["a1", "b1"], "Z2": ["a2", "b2"]})


def diversity_fitness(vectors):
    """GA population fitness: each layout's total zone diversity, one layout at a time."""

    def fitness(population, template):
        return np.array([
            layout_diversity(template.with_seat_row(row).by_zone(), vectors).total
            for row in population
        ])

    return fitness


def write_plug_load(events: dict, path, header_comment: str | None = None) -> None:
    """Plug-load events as the CSV load_plug_load reads, each row formatted on its own.

    The per-row reference for the series writers, which format a shared
    timeline once.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        if header_comment:
            fh.write(f"# {header_comment}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["occupant_id", "timestamp", "power_w"])
        for occ, ev in events.items():
            for t, p in zip(ev.times, ev.powers):
                writer.writerow([occ, ingest.format_timestamp(t), repr(float(p))])
