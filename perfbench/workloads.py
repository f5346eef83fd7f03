"""The three workloads: inputs made from the benchmark seed, one CLI call per op.

A round is the unit a throughput sample is taken over: one convexified
campaign chunk, one inf_bound chunk, or one cycle of profiles over all piece
counts.  The program receives only seed ranges or JSON files.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from checks import check_campaign, check_profile
from oscillib.funcspace import StepFunction

GRID = 128
PROFILE_PIECES = (64, 80, 96, 112, 128)
# Seeds handed to one run never overlap another child's or the warm-up's.
_CHILD_STRIDE = 10**6
_SEED_STRIDE = 10**7


@dataclass
class Op:
    argv: list[str]
    items: int
    output: Path
    check: Callable[[int, str], list[str]]


def _seed_base(seed: int, child: int) -> int:
    return (seed % 2**32) * _SEED_STRIDE + child * _CHILD_STRIDE


class Campaigns:
    """`oscillib verify` over consecutive seed ranges, `chunk` seeds per op."""

    def __init__(self, statements: tuple[str, ...], chunk: int):
        self.statements = statements
        self.chunk = chunk

    def _op(self, statement: str, first: int, seeds: int) -> Op:
        out = self.workdir / f"{statement}.json"
        return Op(
            argv=["verify", statement, "--seeds", f"{first}..{first + seeds}",
                  "--grid", str(GRID), "--output", str(out)],
            items=seeds,
            output=out,
            check=lambda rc, text: check_campaign(rc, text, statement, seeds),
        )

    def prepare(self, seed: int, child: int, workdir: Path) -> None:
        self.base = _seed_base(seed, child)
        self.workdir = workdir

    def warmup(self) -> list[Op]:
        # a few seeds suffice to finish lazy set-up; more would only add noise
        seeds = 4
        first = self.base + _CHILD_STRIDE - seeds
        return [self._op(s, first, seeds) for s in self.statements]

    def rounds(self) -> Iterator[list[Op]]:
        first = self.base
        while True:
            yield [self._op(s, first, self.chunk) for s in self.statements]
            first += self.chunk


def random_pieces(rng: np.random.Generator, pieces: int) -> StepFunction:
    """Step function on [0, 1] with exactly `pieces` pieces, values in [-1, 1]."""
    while True:
        bp = np.sort(rng.uniform(0.0, 1.0, pieces - 1))
        if np.all(np.diff(bp) > 0) and bp[0] > 0.0:
            break
    values = rng.uniform(-1.0, 1.0, pieces)
    return StepFunction.from_json_dict(
        {"domain": [0.0, 1.0], "breakpoints": bp.tolist(), "values": values.tolist()})


class Profiles:
    """`oscillib profile --grid 128` on JSON step functions of 64..128 pieces."""

    # distinct inputs per child; a longer run cycles through them again, and
    # one extra round supplies the warm-up input
    pool_rounds = 24

    def prepare(self, seed: int, child: int, workdir: Path) -> None:
        rng = np.random.default_rng([seed % 2**32, child])
        self.grid = np.linspace(1.0 / GRID, 1.0, GRID)
        self.pool = []
        for r in range(self.pool_rounds + 1):
            ops = []
            for n in PROFILE_PIECES:
                sf = random_pieces(rng, n)
                path = workdir / f"f{r}_{n}.json"
                path.write_text(json.dumps(sf.to_json_dict()))
                ops.append(self._op(sf, path, workdir / f"f{r}_{n}.csv"))
            self.pool.append(ops)

    def _op(self, sf: StepFunction, path: Path, out: Path) -> Op:
        return Op(
            argv=["profile", "--input", str(path), "--grid", str(GRID), "--output", str(out)],
            items=1,
            output=out,
            check=lambda rc, text: check_profile(rc, text, sf, self.grid),
        )

    def warmup(self) -> list[Op]:
        return self.pool[-1][:1]

    def rounds(self) -> Iterator[list[Op]]:
        k = 0
        while True:
            yield self.pool[k % self.pool_rounds]
            k += 1


WORKLOADS = {
    "verify_profile": lambda: Campaigns(("convexified",), 120),
    "verify_certify": lambda: Campaigns(("inf_bound",), 40),
    "profile_large": Profiles,
}
