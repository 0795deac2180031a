"""The benchmark's workloads and the inputs each one draws.

Every workload owns a fixed pool of planted inputs. Pool entry ``i`` is
generated from its own seed string, so it is the same on every machine and
in every run, and its input digest and its output at the reference commit
are recorded in ``golden.json``. A run's ``--seed`` draws the run's inputs
(which pool entries, in which order) from the pool; see ``Workload.draw``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial

import gen

RRNA5S_PROFILES = ("rrna5s-archaeal", "rrna5s-archaeal-general",
                   "rrna5s-bacterial", "rrna5s-eukaryotic")

# The census alternates cloverleaf tRNA inputs with 5S inputs under the four
# rrna5s profiles in turn.
CENSUS_KINDS = tuple(k for p in RRNA5S_PROFILES for k in ("trna", p))
# topk-search runs three cloverleaf tRNA inputs per protein input.
TOPK_KINDS = ("trna", "trna", "trna", "protein")
STRATUM = 8  # the seed drops one entry in each stratum of this many

# Input kinds: (generator, profile the input is run under). See gen.py for
# the free-base compositions and README.md for the clique counts they give.
KINDS = {
    # Cloverleaf with the test inputs' loop composition: 10^3..10^5 cliques.
    "trna": (partial(gen.plant_trna, free=gen.FIXTURE), "trna"),
    # Acceptor and anticodon arm only, same composition: 10..10^3 cliques.
    "trna-ac": (partial(gen.plant_trna, arms=("acceptor", "anticodon"), free=gen.FIXTURE),
                "trna"),
    # Cloverleaf with uniform free bases: 10^3..10^5 cliques.
    "trna-uniform": (gen.plant_trna, "trna"),
    "protein": (gen.plant_protein, "protein"),
    **{p: (None, p) for p in RRNA5S_PROFILES},
}


def plant(kind: str, rng: random.Random, id: str) -> tuple[gen.Planted, str]:
    """One input of ``kind`` and the profile it runs under."""
    make, profile = KINDS[kind]
    if make is None:
        make = gen.rrna5s_planner(profile).plant
    return make(rng, id), profile


@dataclass(frozen=True)
class Workload:
    name: str
    command: str                 # "predict" or "evaluate"
    kinds: tuple[str, ...]       # pool entry i < pool has kind kinds[i % len(kinds)]
    pool: int                    # drawn pool entries
    max_cliques: int             # per-call budget, above every count at the seed
    top_k: int | None = None
    take_all: int = 8            # costliest drawn entries every run measures
    # Entries every run measures on top of the drawn ones, as (kind, index
    # of the generator's seed string); they are pool entries pool, pool + 1...
    heavy: tuple[tuple[str, int], ...] = ()

    def entry(self, index: int) -> tuple[gen.Planted, str]:
        """Pool entry ``index`` and the profile it runs under."""
        if index >= self.pool:
            kind, seed = self.heavy[index - self.pool]
        else:
            kind, seed = self.kinds[index % len(self.kinds)], index
        return plant(kind, random.Random(f"{kind}:{seed}"), f"{kind}-{seed}")

    @property
    def size(self) -> int:
        """Pool entries, the heavy ones included."""
        return self.pool + len(self.heavy)

    @property
    def profiles(self) -> list[str]:
        kinds = self.kinds + tuple(kind for kind, _ in self.heavy)
        return sorted({KINDS[kind][1] for kind in kinds})

    def draw(self, seed: int, seed_results: dict) -> list[int]:
        """The pool entries a run with this seed measures, in run order.

        The ``heavy`` entries are always in. The rest is stratified by the
        reference commit's results (``golden.json``): the ``take_all``
        costliest entries are always in, since a few of them carry much of a
        pass's time. The others are grouped by their exit code at the
        reference commit, and each group, in cost order, is cut into strata
        of ``STRATUM`` entries; the seed drops one entry from each full
        stratum. Every run so holds the same mix of cheap and costly, passing
        and failing inputs, and its figures vary little with the seed.
        """
        rng = random.Random(f"{self.name}:{seed}")
        cost = {i: seed_results.get(str(i), {}).get("seconds", 0.0) for i in range(self.pool)}
        exit_code = {i: seed_results.get(str(i), {}).get("exit", 0) for i in range(self.pool)}
        order = sorted(range(self.pool), key=lambda i: (-cost[i], i))
        chosen = list(range(self.pool, self.size)) + order[:self.take_all]
        for code in sorted({exit_code[i] for i in order[self.take_all:]}):
            group = [i for i in order[self.take_all:] if exit_code[i] == code]
            for k in range(0, len(group), STRATUM):
                stratum = group[k:k + STRATUM]
                if len(stratum) == STRATUM:
                    stratum.remove(rng.choice(stratum))
                chosen += stratum
        rng.shuffle(chosen)
        return chosen

    def argv(self, profile: str, fasta: str, ct: str, out: str) -> list[str]:
        args = [self.command, "--profile", profile, "--max-cliques", str(self.max_cliques)]
        if self.top_k is not None:
            args += ["--top-k", str(self.top_k)]
        if self.command == "evaluate":
            args += ["--reference", ct]
        return args + [fasta, "-o", out]


WORKLOADS = {w.name: w for w in (
    # The heavy entry is the uniform cloverleaf among the first 40 whose
    # clique count (40,994) lies nearest that sample's median (38,002).
    Workload(name="trna-report", command="predict", kinds=("trna-ac",), pool=128,
             max_cliques=400_000, heavy=(("trna-uniform", 6),)),
    Workload(name="topk-search", command="predict", kinds=TOPK_KINDS, pool=64,
             max_cliques=2_000_000, top_k=5),
    Workload(name="census", command="evaluate", kinds=CENSUS_KINDS, pool=128,
             max_cliques=800_000, take_all=16),
)}
