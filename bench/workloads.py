"""Deterministic job lists for the benchmark workloads.

``generate`` turns (workload, seed) into CLI argument lists and writes the
input files they name into the current directory, so the same seed gives
the same jobs byte for byte.  Jobs are capped by structure (order, color
count, palette size, family and sample size), never by measured time.
``attach_references`` fills in what each job must print; its plain loops are
slow, so it runs outside every timed region.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

import reference as ref

NAMES = ("extremal-cold", "templates-cover")

# three n = 5 tables and two n = 6 tables, so that the job median falls on
# an n = 5 table at r >= 5, which counts every class, and not halfway
# between the short n = 5 and the long n = 6 tables
EXTREMAL_TABLES = ((6, 3), (6, 4), (5, 4), (5, 5), (5, 10))
GA_TEMPLATES, GA_ORDER, GA_COLORS = 12, 7, 4
BIG_TEMPLATES, BIG_ORDER, BIG_COLORS = 1, 30, 4
# the count-ga palettes are fixed designs and the seed only orders them:
# relabeling a design's vertices or colors keeps its count but moves its
# search cost by about a tenth, and the job median is a count-ga job
GA_DESIGNS = "templates-cover:count-ga designs"
CLASSIFY_MODES = ("complete", "dense-generic", "dense4")
COVER_ORDER, COVER_COLORS, COVER_FAMILY, COVER_SAMPLES, COVER_C = 7, 3, 20, 200, 648000.0


@dataclass
class Job:
    argv: tuple[str, ...]
    spec: dict
    expect: object = None
    # count cache the job writes; it is emptied before each cold pass
    cache: str | None = None


@dataclass
class Workload:
    name: str
    jobs: list[Job]
    files: dict[str, str] = field(default_factory=dict)

    def digest(self) -> str:
        """Hash of the job list and input files; equal seeds give equal digests."""
        blob = json.dumps([[list(j.argv) for j in self.jobs], sorted(self.files.items())])
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _write(workload: Workload, path: str, text: str) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(text)
    workload.files[path] = text


def _template_text(n: int, r: int, palette: dict) -> str:
    lines = [f"{n} {r}"]
    for u, v in ref.pairs(n):
        lines.append(f"{u} {v} " + "".join("1" if palette[(u, v)] >> k & 1 else "0"
                                           for k in range(r)))
    return "\n".join(lines) + "\n"


def _random_palette(rng: random.Random, n: int, r: int, sizes) -> dict:
    return {e: sum(1 << c for c in rng.sample(range(r), rng.choice(sizes)))
            for e in ref.pairs(n)}


def _balanced_palette(rng: random.Random, n: int, r: int) -> dict:
    """Every palette lacks one color, and each color is lacking on C(n,2)/r
    edges (give or take one).  Independent draws spread the count-ga cost
    about three times as widely from design to design."""
    edges = ref.pairs(n)
    missing = [k % r for k in range(len(edges))]
    rng.shuffle(missing)
    return {e: ((1 << r) - 1) ^ (1 << c) for e, c in zip(edges, missing)}


def _extremal(rng: random.Random, wl: Workload) -> None:
    tables = list(EXTREMAL_TABLES)
    rng.shuffle(tables)  # the inputs are fixed; the seed only orders them
    for n, r in tables:
        cache = f"cold-n{n}-r{r}.jsonl"
        wl.jobs.append(Job(("--cache", cache, "extremal", "--n", str(n), "--r", str(r)),
                           {"kind": "extremal", "n": n, "r": r}, cache=cache))


def _templates_cover(rng: random.Random, wl: Workload) -> None:
    designs = random.Random(GA_DESIGNS)
    palettes = [_balanced_palette(designs, GA_ORDER, GA_COLORS) for _ in range(GA_TEMPLATES)]
    rng.shuffle(palettes)
    for i, palette in enumerate(palettes):
        path = f"ga{i}.tpl"
        _write(wl, path, _template_text(GA_ORDER, GA_COLORS, palette))
        wl.jobs.append(Job(("template", "count-ga", path, "--graph", f"K{GA_ORDER}"),
                           {"kind": "count-ga", "n": GA_ORDER, "r": GA_COLORS,
                            "palette": palette}))
    for i in range(BIG_TEMPLATES):
        palette = _random_palette(rng, BIG_ORDER, BIG_COLORS, range(BIG_COLORS + 1))
        path = f"big{i}.tpl"
        _write(wl, path, _template_text(BIG_ORDER, BIG_COLORS, palette))
        spec = {"n": BIG_ORDER, "r": BIG_COLORS, "palette": palette}
        wl.jobs.append(Job(("template", "rt", path), {"kind": "rt", **spec}))
        for mode in CLASSIFY_MODES:
            wl.jobs.append(Job(("template", "classify", path, "--mode", mode),
                               {"kind": "classify", "mode": mode, **spec}))
    # sparse one- and two-color palettes, then the full template, which sorts
    # last, so coverage passes and every sample meets the whole family
    family = [_random_palette(rng, COVER_ORDER, COVER_COLORS, (1, 2))
              for _ in range(COVER_FAMILY - 1)]
    family.append({e: (1 << COVER_COLORS) - 1 for e in ref.pairs(COVER_ORDER)})
    for i, palette in enumerate(family):
        _write(wl, f"family/t{i:02d}.tpl", _template_text(COVER_ORDER, COVER_COLORS, palette))
    wl.jobs.append(Job(("--sample-size", str(COVER_SAMPLES), "verify-cover", "family",
                        "--n", str(COVER_ORDER), "--r", str(COVER_COLORS),
                        "--c", str(COVER_C), "--seed", str(rng.randrange(1000))),
                       {"kind": "verify-cover", "family": family}))


def generate(name: str, seed: int) -> Workload:
    """Build the job list in the current directory and write its inputs."""
    rng = random.Random(f"{name}:{seed}")
    wl = Workload(name, [])
    if name == "extremal-cold":
        _extremal(rng, wl)
    elif name == "templates-cover":
        _templates_cover(rng, wl)
    else:
        raise ValueError(f"unknown workload {name!r}; expected one of {NAMES}")
    return wl


def attach_references(wl: Workload) -> None:
    """Compute each job's expected output, or leave extremal tables to
    ``reference.extremal_mismatches``."""
    for job in wl.jobs:
        spec = job.spec
        kind = spec["kind"]
        if kind == "count-ga":
            n = spec["n"]
            job.expect = {"n": n, "r": spec["r"], "graph": ref.graph6(n, ref.pairs(n)),
                          "count": str(ref.count_in_palettes(ref.pairs(n), spec["palette"]))}
        elif kind == "rt":
            job.expect = {"n": spec["n"], "r": spec["r"],
                          "rt": ref.rt_count(spec["n"], spec["r"], spec["palette"])}
        elif kind == "classify":
            job.expect = ref.classify(spec["n"], spec["palette"], spec["mode"])
        elif kind == "verify-cover":
            job.expect = ref.cover_expectation(COVER_ORDER, COVER_COLORS, spec["family"],
                                               COVER_C, COVER_SAMPLES)
