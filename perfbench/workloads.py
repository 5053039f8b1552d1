"""The four benchmark workloads as seeded lists of heartlab CLI commands.

heartlab only ever sees the generated argv and batch files; the workload
seed is a benchmark argument.  Each command carries the facts the oracle
checks its output against (see oracle.py).
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("audit_ladder", "heart_deep", "meataxe_large", "probe_batch")

# ROADMAP item 1's ladder without the entries too slow for one run (see
# README.md): every family, branches i/ii/iii, all three verdicts, and the
# PGL/S_n containment check.
AUDIT_LADDER = (
    "M11", "M12", "M22", "M23", "M24",
    "A7", "S8", "S9", "A10", "A30", "A40",
    "PSL(3,2)", "PSL(2,8)", "PSL(2,32)", "PSL(3,3)", "PGL(3,3)",
    "PSL(3,16)", "PSL(5,3)", "PSL(2,256)", "PSL(4,3)",
    "PSL(4,2)", "PSL(3,4)",
    "PSL(2,5)", "PSL(2,11)", "D7", "D10",
)

# PSL(3,8) (d = 72, 10 s a command) is left out so that a run holds two passes
HEART_DEEP = ("M22", "M24", "PSL(3,5)", "PSL(4,3)", "PSL(5,2)", "PSL(3,7)", "PSL(2,64)")

MEATAXE_GROUPS = ("PSL(3,13)", "PSL(3,16)", "PSL(2,256)", "PSL(5,3)", "PSL(2,128)")
# The same MeatAxe seeds for every workload seed: the attempt count, and so
# the time, depends on the MeatAxe seed (PSL(2,256): 0.46 s to 5.4 s over
# seeds 0-7), which would swamp any code change in the workload-seed spread.
MEATAXE_SEEDS = (0, 1)

KNOWN_POLYS = (
    # (constant-first coefficients, {candidate: status}): x^5-x-1 has Galois
    # group S5 and x^5+20x+16 has Galois group A5
    ((-1, -1, 0, 0, 0, 1), {"A5": "inconsistent", "S5": "consistent"}),
    ((16, 20, 0, 0, 0, 1), {"A5": "consistent", "S5": "consistent"}),
)

# (batch name, degree, polynomial count, primes, candidates)
PROBE_BATCHES = (
    ("deg7", 7, 3, 150, ("A7", "S7")),
    ("deg8", 8, 2, 150, ("A8", "S8")),
    ("deg9", 9, 2, 60, ("A9",)),
    ("deg10", 10, 2, 150, ("A10", "S10")),
    ("nocand", 8, 1, 1000, ()),
)


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    label: str  # argv with batch-file paths replaced by their content digest
    kind: str  # "audit" | "heart" | "probe"
    group: str | None = None
    polys: tuple[tuple[int, ...], ...] = ()  # constant-first coefficients
    expect: dict = field(default_factory=dict, compare=False)


def _random_poly(rng: random.Random, degree: int) -> tuple[int, ...]:
    """Monic, coefficients in [-9, 9], nonzero constant term; constant first."""
    constant = rng.choice([-1, 1]) * rng.randint(1, 9)
    return (constant, *(rng.randint(-9, 9) for _ in range(degree - 1)), 1)


def poly_text(coeffs: tuple[int, ...]) -> str:
    """Render constant-first integer coefficients of a monic polynomial."""
    degree = len(coeffs) - 1
    text = f"x^{degree}"
    for power in range(degree - 1, -1, -1):
        c = coeffs[power]
        if c == 0:
            continue
        body = str(abs(c)) if power == 0 else f"{abs(c)}*x" + (f"^{power}" if power > 1 else "")
        text += ("+" if c > 0 else "-") + body
    return text


def _write_batch(inputs: Path, name: str, polys: list[tuple[int, ...]]) -> tuple[str, str]:
    """Write one polynomial per line; return (relative path, label token)."""
    text = "".join(poly_text(p) + "\n" for p in polys)
    path = inputs / f"{name}.txt"
    path.write_text(text, encoding="utf-8")
    digest = hashlib.sha256(text.encode()).hexdigest()[:12]
    return path.as_posix(), f"@{name}:{digest}"


def build(workload: str, seed: int, inputs: Path) -> list[Command]:
    """Commands for one pass of ``workload``; batch files go under ``inputs``,
    a path relative to the directory the commands run in."""
    rng = random.Random(f"{workload}:{seed}")
    commands: list[Command] = []
    if workload == "audit_ladder":
        for g in AUDIT_LADDER:
            argv = ("audit", g)
            commands.append(Command(argv, " ".join(argv), "audit", g))
    elif workload == "heart_deep":
        for g in HEART_DEEP:
            argv = ("audit", g, "--deep", "--seed", str(rng.randrange(1000)))
            commands.append(Command(argv, " ".join(argv), "audit", g))
    elif workload == "meataxe_large":
        for g in MEATAXE_GROUPS:
            for s in MEATAXE_SEEDS:
                argv = ("heart", g, "--meataxe", "--seed", str(s))
                commands.append(Command(argv, " ".join(argv), "heart", g))
    elif workload == "probe_batch":
        inputs.mkdir(parents=True, exist_ok=True)
        batches = [
            (name, [_random_poly(rng, degree) for _ in range(count)], primes, cands, {})
            for name, degree, count, primes, cands in PROBE_BATCHES
        ]
        batches.append(("known5", [p for p, _ in KNOWN_POLYS], 100, ("A5", "S5"),
                        dict(KNOWN_POLYS)))
        for name, polys, primes, cands, known in batches:
            path, token = _write_batch(inputs, name, polys)
            argv = ["probe", "--file", path, "--primes", str(primes)]
            if cands:
                argv += ["--candidates", ",".join(cands)]
            if name == "deg10":
                argv += ["--seed", str(rng.randrange(1000))]  # drives the sampler
            label = " ".join(token if a == path else a for a in argv)
            commands.append(Command(tuple(argv), label, "probe", None, tuple(polys),
                                    {"primes": primes, "candidates": cands, "known": known}))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(commands)
    return commands
