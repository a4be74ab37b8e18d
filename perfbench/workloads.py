"""The two workloads, as the CLI calls each one makes per round.

A round is a fixed multiset of call kinds, played in an order shuffled by the
workload seed. The multiplicities keep the median and the tail of the call
times inside a block of sorted times held by one kind, or by kinds of about
the same cost, so that neither sits on the gap between two blocks. Every
seeded call gets its own seed, derived from the workload seed and the call
index.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from typing import NamedTuple

# The ladder of regime cells, T,R,N,Q, and the Jacobian size n of each.
N12, N45, N124, N432 = "2,3,4,1", "3,4,12,1", "4,8,16,2", "6,11,40,3"
# A regime cell with N <= 5 whose exact witness takes the median time of a certify call.
MEDIAN_CELL = "2,4,5,2"


class Kind(NamedTuple):
    """One kind of CLI call. units is the work it completes: draws, trials or 1."""

    command: str
    dims: str | None
    units: int
    constant: bool = False

    @property
    def label(self) -> str:
        return "/".join(
            [self.command] + ([self.dims] if self.dims else []) + (["constant"] if self.constant else [])
        )

    @property
    def family(self) -> str:
        return self.command + ("/constant" if self.constant else "")

    def argv(self, seed: int | None) -> list[str]:
        if self.command == "verify-all":
            return ["verify-all"]
        argv = [self.command, "--dims", self.dims]
        if self.command == "genericity" or self.command == "identify":
            argv += ["--trials", str(self.units)]
        elif self.command == "mc-logdet":
            argv += ["--samples", str(self.units)]
        elif self.command == "jacobian-witness":
            argv += ["--exact"]
        if self.constant:
            argv += ["--constant-model"]
        return argv + ["--seed", str(seed)]

    def warmup_argv(self, seed: int) -> list[str]:
        """The smallest call of this subcommand and coloring, on the smallest cell.

        It pays the first-call costs (lazy imports, argparse, LAPACK start-up),
        which do not depend on the cell, and little else: a warm-up on the
        workload's own n=432 cell made set-up time swing with the machine's
        LAPACK speed.
        """
        if self.command == "verify-all":
            return ["verify-all", "--nmax", "2"]
        units = 2 if self.command == "mc-logdet" else 1
        return self._replace(dims=N12, units=units).argv(seed)


def call_seed(workload_seed: int | str, index: int) -> int:
    """A 32-bit seed for call `index` (negative for warm-up calls) of a run.

    make_reference.py passes a string namespace the workloads never use.
    """
    digest = hashlib.blake2b(f"{workload_seed}:{index}".encode(), digest_size=4).digest()
    return int.from_bytes(digest, "little")


def regime_cells(n_max: int):
    """All (T, R, N, Q) in the constructive regime with N <= n_max and T = T_eff."""
    for N in range(2, n_max + 1):
        for Q in range(1, N):
            for T in range(1, N):
                if T * Q >= N:
                    continue
                rx_needed = -(-T * (N - 1) // (N - T * Q))
                for R in range(T, rx_needed + 1):
                    yield f"{T},{R},{N},{Q}"


def _numeric():
    # Small cells: per-draw Python work dominates; half the calls use the
    # constant model, whose Jacobians are exactly singular. Large cells:
    # LAPACK dominates. identify adds the Gauss-Newton solves. Sorted by time
    # the calls are three of 15 to 30 ms (genericity n=12, identify n=45),
    # seven of 40 to 60 ms (genericity n=45 and n=124, mc-logdet n=12 and
    # n=124), then six of 170 to 300 ms (identify n=124, mc-logdet n=45, both
    # n=432 calls): the median falls inside the 40 to 60 ms group and the
    # 10-beyond tail among the n=432 calls.
    kinds = []
    for constant in (False, True):
        kinds += [Kind("genericity", dims, 64, constant) for dims in (N12, N45)]
        kinds += [Kind("mc-logdet", dims, 256, constant) for dims in (N12, N45)]
    kinds += [Kind("genericity", N124, 16)] * 2
    kinds += [Kind("mc-logdet", N124, 8), Kind("genericity", N432, 4), Kind("mc-logdet", N432, 2)]
    kinds += [Kind("identify", N45, 10)] + [Kind("identify", N124, 10)] * 2
    return kinds


def _certify():
    # The exact witness on a mid-sized cell costs about as much as the median
    # call; nine of them per round hold the median, which without them would
    # fall between two cells whose times differ by a third.
    cells = list(regime_cells(5))
    return (
        [Kind("verify-all", None, 1)]
        + [Kind("jacobian-witness", dims, 1) for dims in cells]
        + [Kind("jacobian-witness", MEDIAN_CELL, 1)] * 8
        + [Kind("jacobian-witness", N124, 1)] * 3
    )


WORKLOADS = {"numeric": _numeric(), "certify": _certify()}


def rounds(workload: str, workload_seed: int):
    """Endless sequence of (kind, argv) calls; each round is shuffled by the seed."""
    kinds = WORKLOADS[workload]
    index = 0
    for r in itertools.count():
        order = list(kinds)
        random.Random(f"{workload_seed}:round:{r}").shuffle(order)
        batch = []
        for kind in order:
            batch.append((kind, kind.argv(call_seed(workload_seed, index))))
            index += 1
        yield batch
