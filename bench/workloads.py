"""The three benchmark workloads and the checks on their outputs.

Each workload builds a seeded corpus once, then hands out job k on demand.
Job k takes its template from the workload's PERIOD (k modulo its length)
and its specifics (which fragment, which points, which relabeling seed)
from an RNG seeded by (workload, seed, k).  The fixed period keeps the mix
of job sizes identical from seed to seed, so a run's latency quantiles land
on the same size class whatever the seed; the seed only varies the inputs
inside each class.

``Job.run`` is the timed part: what a user of the CLI or the library does.
``Job.check`` is untimed: it verifies the outputs by an independent route
(``oracle``) and returns (problems, digest text).  The digest text contains
only what every correct implementation must reproduce byte for byte.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import os
import random
import sys
from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from typing import Callable

import oracle
from oracle import bits

AMAX = 4


class Env:
    """A fresh import of the package; every call goes through these module
    objects so that the tracer's rebinding is seen."""

    def __init__(self):
        for name in [n for n in sys.modules
                     if n == "strposet" or n.startswith("strposet.")]:
            del sys.modules[name]
        importlib.import_module("strposet")
        for name in ("core", "models", "conditions", "structure",
                     "reconstruction", "cli"):
            setattr(self, name, importlib.import_module(f"strposet.{name}"))


@dataclass
class Job:
    kind: str
    run: Callable[[], dict]
    check: Callable[[dict], tuple[list, str]]


def expect(problems: list, ok: bool, message: str) -> None:
    if not ok:
        problems.append(message)


class Workload:
    name = ""
    PERIOD: list[tuple] = []
    # Jobs of the traced pass and of the output digest: jobs 0..TRACE_JOBS-1.
    TRACE_JOBS = 0
    # The set-up's warm-up job takes the template PERIOD[WARMUP]; a cheap
    # template whose cost varies little with the seed keeps setup_s steady.
    WARMUP = 0

    def __init__(self, env: Env, tmp: str, seed: int):
        self.env = env
        self.tmp = tmp
        self.seed = seed
        self.counts: Counter = Counter()

    def path(self, name: str) -> str:
        return os.path.join(self.tmp, name)

    def rng(self, k: int) -> random.Random:
        return random.Random(f"{self.name}/{self.seed}/{k}")

    def job(self, k: int) -> Job:
        kind, *params = self.PERIOD[k % len(self.PERIOD)]
        return getattr(self, f"job_{kind}")(self.rng(k), *params)

    def cli(self, *argv) -> int:
        """One in-process CLI call; error text on stderr is dropped."""
        self.counts["cli.calls"] += 1
        with contextlib.redirect_stderr(io.StringIO()):
            try:
                return self.env.cli.main([str(a) for a in argv])
            except SystemExit as exc:
                return exc.code

    def output(self, path: str) -> bytes:
        with open(path, "rb") as fh:
            data = fh.read()
        self.counts["cli.output_bytes"] += len(data)
        return data

    def save(self, fragment, name: str) -> str:
        path = self.path(name)
        self.env.models.save_fragment(fragment, path)
        return path

    def probe_known_defect(self) -> str:
        """`mu --amax 1` must be refused with exit 3 (usage of an invalid
        budget); it currently escapes cli.main as a ValueError."""
        path = self.path("probe.json")
        self.cli("gen", "--model", "affine", "-p", 2, "-d", 1, "-o", path)
        try:
            rc = self.cli("mu", path, "--x", "x", "--m", "pt00", "--amax", 1)
        except Exception as exc:  # the defect being probed
            return f"raised {type(exc).__name__}: {exc}"
        return "ok" if rc == 3 else f"exit {rc}, expected 3"


def labels(names, mask: int) -> str:
    return ",".join(names[i] for i in bits(mask))


# -- fiber --------------------------------------------------------------------


class Fiber(Workload):
    """Fibers of the pair order and down-set counting (the structure layer).

    A fiber window is B (one point, or the full upper set of a two-point
    curve) with support = the first s curves below all of B plus one curve
    that is not, at amax 4; a window with at least s such curves has
    exactly sum(C(s+1, i), i=1..4) - 1 nodes, so s sets the job size.
    """

    name = "fiber"
    # Sorted by cost, the period is three light jobs (0-30%), four s=7
    # fibers (30-70%), one heavier job and two s=9 fibers on ag(3,2)
    # (80-100%): the median is the middle of the s=7 fibers and the 90th
    # percentile (nearest rank 9 of 10) the lower of the two s=9 fibers.
    PERIOD = [
        ("fiber", "random", "point", 7),
        ("downset", "random", "point", 8),
        ("fiber", "ag32", "point", 9),
        ("fiber", "ag22", "point", 7),
        ("fiber", "random", "point", 6),
        ("downset", "ag32", "pair", 9),
        ("fiber", "random", "pair", 7),
        ("fiber", "ag32", "point", 9),
        ("fiber", "ag22", "point", 6),
        ("fiber", "ag32", "point", 7),
    ]
    TRACE_JOBS = 10
    WARMUP = 8  # the s=6 fiber on ag(2,2)
    RANDOM_SIZES = [(24, 4), (27, 5), (30, 6), (33, 4), (36, 5), (40, 6)]

    def __init__(self, env: Env, tmp: str, seed: int):
        super().__init__(env, tmp, seed)
        models = env.models
        rng = random.Random(f"fiber/{seed}/corpus")
        frags = {"ag32": [models.affine_plane_fragment(3, 2)],
                 "ag22": [models.affine_plane_fragment(2, 2)],
                 "random": []}
        # Fixed tier sizes spanning n1 = 24..40 and n2 = 4..6; the seed
        # draws the incidences, so set-up cost varies little between seeds.
        for n1, n2 in self.RANDOM_SIZES:
            params = models.GeneratorParams(
                n1=n1, n2=n2, planted_pairs_per_point=3,
                seed=rng.randrange(10 ** 6))
            frags["random"].append(models.random_fragment(params))
        self.corpus = {}
        for source, group in frags.items():
            self.corpus[source] = []
            for n, frag in enumerate(group):
                path = self.save(frag, f"{source}-{n}.json")
                self.corpus[source].append((frag, path, self.windows(frag)))

    @staticmethod
    def windows(frag) -> dict:
        """Windows B by kind, with the curves below all of B."""
        points = [1 << m for m in range(frag.n2)]
        pairs = sorted({u for u in frag.up if u.bit_count() == 2})
        return {kind: [(b, bits(oracle.below_all(frag, b))) for b in group]
                for kind, group in (("point", points), ("pair", pairs))}

    def pick(self, rng, source: str, kind: str, size: int):
        """A window of the given kind with at least `size` curves below all
        of B, drawn over every fragment of the source."""
        windows = [(frag, path, b_mask, carriers)
                   for frag, path, by_kind in self.corpus[source]
                   for b_mask, carriers in by_kind[kind]
                   if len(carriers) >= size]
        frag, path, b_mask, carriers = rng.choice(windows)
        junk = [x for x in range(frag.n1) if b_mask & ~frag.up[x]]
        return frag, path, b_mask, carriers, junk[:1]

    def job_fiber(self, rng, source: str, kind: str, s: int) -> Job:
        frag, path, b_mask, carriers, junk = self.pick(rng, source, kind, s)
        support = carriers[:s] + junk
        out_path = self.path("fiber.json")
        structure = self.env.structure
        argv = ["fiber", path, "--b", labels(frag.h2_labels, b_mask),
                "--support", ",".join(frag.h1_labels[i] for i in support),
                "--amax", AMAX, "-o", out_path]
        sample_seed = rng.randrange(10 ** 6)

        def run():
            rc = self.cli(*argv)
            with open(out_path, encoding="utf-8") as fh:
                view = json.load(fh)
            counted = []
            for i, node in enumerate(view["nodes"]):
                node = structure.finite_node(oracle.mask(node["a"]),
                                             oracle.mask(node["b"]))
                if structure.has_strictly_smaller(frag, node):
                    predicted, actual = structure.counting_formula(frag, node)
                    parity = structure.parity_mub_check(frag, node)
                    counted.append((i, predicted, actual, parity))
            return {"rc": rc, "view": view, "counted": counted,
                    "bytes": self.output(out_path)}

        def check(out):
            problems = []
            view = out["view"]
            expect(problems, out["rc"] == 0, f"exit {out['rc']}, expected 0")
            a_masks = [oracle.mask(n["a"]) for n in view["nodes"]]
            expect(problems, all(oracle.mask(n["b"]) == b_mask
                                 for n in view["nodes"]),
                   "node outside the fiber")
            expect(problems, a_masks == oracle.fiber_members(
                frag, b_mask, support, AMAX), "fiber nodes differ")
            rows = oracle.fiber_rows(frag, b_mask, a_masks)
            covers = [tuple(c) for c in view["covers"]]
            expect(problems, covers == oracle.transitive_reduction(rows),
                   "covers differ from the transitive reduction")
            problems += self.sample_order(frag, b_mask, a_masks, rows,
                                          random.Random(sample_seed))
            down = [0] * len(a_masks)
            for row in rows:
                for j in bits(row):
                    down[j] += 1
            positive = [i for i, d in enumerate(down) if d >= 2]
            expect(problems, [c[0] for c in out["counted"]] == positive,
                   "positive-height nodes differ")
            for i, predicted, actual, parity in out["counted"]:
                expect(problems, predicted == actual == down[i],
                       f"node {i}: predicted {predicted}, actual {actual}, "
                       f"oracle {down[i]}")
                expect(problems, parity, f"node {i}: parity check fails")
            self.counts["structure.fiber_nodes"] += len(a_masks)
            self.counts["structure.comparable_pairs"] += sum(
                r.bit_count() for r in rows)
            self.counts["structure.cover_edges"] += len(covers)
            return problems, f"{out['rc']} {oracle.sha(out['bytes'])} " \
                             f"{out['counted']}"

        return Job("fiber", run, check)

    def sample_order(self, frag, b_mask, a_masks, rows, rng) -> list:
        """Compare order entries with the package's subset-search oracle:
        six comparable pairs and six uniformly drawn ones."""
        n = len(a_masks)
        comparable = [(i, j) for i, r in enumerate(rows) for j in bits(r)]
        pairs = rng.sample(comparable, min(6, len(comparable)))
        pairs += [(rng.randrange(n), rng.randrange(n)) for _ in range(6)]
        brute = self.env.structure.str_leq_bruteforce
        return [f"order entry {i} <= {j} disagrees with str_leq_bruteforce"
                for i, j in pairs
                if bool(rows[i] >> j & 1) != brute(
                    frag, (a_masks[i], b_mask), (a_masks[j], b_mask))]

    def job_downset(self, rng, source: str, kind: str, size: int) -> Job:
        """Down set of (A, B) with A = size - 1 curves below all of B plus
        one that is not, redrawn until no curve of A breaks domination, so
        the down set has its full (2**(size-1) - 1) * 2 nodes."""
        for _ in range(100):
            frag, _, b_mask, carriers, junk = self.pick(rng, source, kind,
                                                        size - 1)
            chosen = rng.sample(carriers, min(size - len(junk), len(carriers)))
            a_mask = oracle.mask(chosen + junk)
            if not oracle.breaking_curves(frag, a_mask, b_mask):
                break
        structure = self.env.structure
        sample_seed = rng.randrange(10 ** 6)

        def run():
            view = structure.down_set_in_fiber(
                frag, structure.finite_node(a_mask, b_mask))
            return {"view": view}

        def check(out):
            problems = []
            view = out["view"]
            got = sorted(n.a_mask for n in view.nodes)
            expect(problems, got == oracle.down_set(frag, a_mask, b_mask),
                   "down set differs")
            expect(problems, all(n.b_mask == b_mask for n in view.nodes),
                   "down set leaves the fiber")
            if len(got) >= 2:
                l = (a_mask & oracle.below_all(frag, b_mask)).bit_count()
                e = a_mask.bit_count() - l
                expect(problems, len(got) == (2 ** l - 1) * 2 ** e,
                       "down-set size breaks the counting formula")
            rng = random.Random(sample_seed)
            brute = structure.str_leq_bruteforce
            for _ in range(8):
                i, j = rng.randrange(len(got)), rng.randrange(len(got))
                u, v = view.nodes[i], view.nodes[j]
                expect(problems, view.leq(i, j) == brute(frag, u, v),
                       "down-set order disagrees with str_leq_bruteforce")
            self.counts["structure.down_set_nodes"] += len(got)
            return problems, f"{b_mask} {got}"

        return Job("downset", run, check)


# -- roundtrip ----------------------------------------------------------------


class Roundtrip(Workload):
    """Reconstruction of hidden relabelings from pair-order maps.

    Fragments are battery-passing random fragments in four size classes,
    n1 = 16, 20, 24 and 30 with four points, three of each per seed; the
    structure layer is reached only through point queries.
    """

    name = "roundtrip"
    # Sorted by cost: six light jobs on classes 0-1 (0-30%), eight jobs of
    # about a class-2 round trip's cost (30-70%), two heavier ones, then a
    # class-1 validation, two class-2 reconstructions and the rare
    # ag(3,2) round trip (80-100%): the median falls in the middle of the
    # class-2 round trips and the 90th percentile (nearest rank 18 of 20)
    # on the lower of the two class-2 reconstructions.
    PERIOD = [
        ("roundtrip", 0), ("roundtrip", 2), ("corrupt", 2),
        ("reconstruct", 0), ("roundtrip", 1), ("validate", 0),
        ("roundtrip", 2), ("reconstruct", 2), ("corrupt", 0),
        ("roundtrip", 3), ("roundtrip", 2), ("corrupt", 1),
        ("validate", 1), ("roundtrip", 0), ("corrupt", 2),
        ("reconstruct", 1), ("roundtrip", 1), ("roundtrip", 2),
        ("reconstruct", 2), ("affine",),
    ]
    SIZES = [16, 20, 24, 30]
    TRACE_JOBS = 20

    def __init__(self, env: Env, tmp: str, seed: int):
        super().__init__(env, tmp, seed)
        models, conditions = env.models, env.conditions
        rng = random.Random(f"roundtrip/{seed}/corpus")
        self.classes = []
        for c, n1 in enumerate(self.SIZES):
            group = []
            while len(group) < 3:
                params = models.GeneratorParams(
                    n1=n1, n2=4, planted_pairs_per_point=3,
                    seed=rng.randrange(10 ** 6))
                frag = models.random_fragment(params)
                if conditions.witness_battery(frag).passed:
                    path = self.save(frag, f"c{c}-{len(group)}.json")
                    group.append((frag, path))
            self.classes.append(group)
        ag32 = models.affine_plane_fragment(3, 2)
        self.affine = (ag32, self.save(ag32, "ag32.json"))

    def domain_size(self, frag, k_cap: int) -> int:
        """Nodes (K, {m}) with K among the curves below m, |K| <= k_cap."""
        return sum(math.comb(frag.down[m].bit_count(), size)
                   for m in range(frag.n2) for size in range(1, k_cap + 1))

    def roundtrip_job(self, kind, frag, path, extra, k_cap, rng) -> Job:
        out_path = self.path("roundtrip.json")
        argv = ["roundtrip", path, "--seed", rng.randrange(10 ** 6),
                "--k-cap", k_cap, *extra, "-o", out_path]
        corrupt = "--corrupt" in extra

        def run():
            return {"rc": self.cli(*argv)}

        def check(out):
            problems = []
            report = json.loads(self.output(out_path))
            want = 1 if corrupt else 0
            expect(problems, out["rc"] == want,
                   f"exit {out['rc']}, expected {want}")
            expect(problems, report["recovered"] is not corrupt,
                   f"recovered is {report['recovered']}")
            expect(problems, bool(report["conflicts"]) is corrupt,
                   f"{len(report['conflicts'])} conflicts")
            expect(problems, report["probes"] > 0, "no probes reported")
            self.counts["reconstruction.probes"] += report["probes"]
            self.counts["reconstruction.conflicts"] += len(report["conflicts"])
            self.counts["reconstruction.domain_nodes"] += self.domain_size(
                frag, k_cap)
            return problems, f"{out['rc']} {report['recovered']} " \
                             f"{bool(report['conflicts'])}"

        return Job(kind, run, check)

    def job_roundtrip(self, rng, c: int) -> Job:
        frag, path = rng.choice(self.classes[c])
        return self.roundtrip_job("roundtrip", frag, path, [], 3, rng)

    def job_corrupt(self, rng, c: int) -> Job:
        frag, path = rng.choice(self.classes[c])
        return self.roundtrip_job("corrupt", frag, path, ["--corrupt"], 3,
                                  rng)

    def job_affine(self, rng) -> Job:
        frag, path = self.affine
        return self.roundtrip_job("affine", frag, path,
                                  ["--allow-weak-battery"], 2, rng)

    def job_reconstruct(self, rng, c: int) -> Job:
        frag, path = rng.choice(self.classes[c])
        hidden_seed = rng.randrange(10 ** 6)
        env = self.env
        y_path, map_path = self.path("y.json"), self.path("map.json")
        out_path = self.path("reconstruct.json")

        def run():
            target, rho = env.core.relabel(frag, hidden_seed)
            phi = env.reconstruction.induce_str_iso(
                rho, env.reconstruction.DomainSpec(k_cap=3))
            with open(y_path, "w", encoding="utf-8") as fh:
                fh.write(env.models.dumps_fragment(target))
            with open(map_path, "w", encoding="utf-8") as fh:
                json.dump(phi.to_json(), fh)
            rc = self.cli("reconstruct", path, y_path, "--map", map_path,
                          "--k-cap", 3, "-o", out_path)
            return {"rc": rc, "rho": rho, "target": target,
                    "domain": len(phi.domain)}

        def check(out):
            problems = []
            report = json.loads(self.output(out_path))
            rho, target = out["rho"], out["target"]
            rho1 = {frag.h1_labels[i]: target.h1_labels[y]
                    for i, y in enumerate(rho.h1_map)}
            rho2 = {frag.h2_labels[j]: target.h2_labels[n]
                    for j, n in enumerate(rho.h2_map)}
            expect(problems, out["rc"] == 0, f"exit {out['rc']}, expected 0")
            expect(problems, report.get("recovered") is True, "not recovered")
            expect(problems, report.get("rho1") == rho1,
                   "curve map differs from the hidden map")
            expect(problems, report.get("rho2") == rho2,
                   "point map differs from the hidden map")
            size = self.domain_size(frag, 3)
            expect(problems, out["domain"] == size, "domain size differs")
            expect(problems,
                   report.get("factorization", {}).get("checked") == size,
                   "factorization did not check the whole domain")
            self.counts["reconstruction.probes"] += report.get("probes", 0)
            self.counts["reconstruction.domain_nodes"] += size
            return problems, json.dumps([out["rc"], report.get("rho1"),
                                         report.get("rho2")], sort_keys=True)

        return Job("reconstruct", run, check)

    def job_validate(self, rng, c: int) -> Job:
        frag, _ = rng.choice(self.classes[c])
        hidden_seed = rng.randrange(10 ** 6)
        env = self.env

        def run():
            _, rho = env.core.relabel(frag, hidden_seed)
            phi = env.reconstruction.induce_str_iso(
                rho, env.reconstruction.DomainSpec(k_cap=2))
            problems = phi.validate(order_check=True)
            return {"problems": problems, "domain": len(phi.domain),
                    "probes": phi.probes}

        def check(out):
            problems = [f"validate: {p}" for p in out["problems"][:3]]
            size = self.domain_size(frag, 2)
            expect(problems, out["domain"] == size, "domain size differs")
            self.counts["reconstruction.probes"] += out["probes"]
            self.counts["reconstruction.domain_nodes"] += size
            return problems, f"{out['domain']} {out['problems']}"

        return Job("validate", run, check)


# -- inspect ------------------------------------------------------------------


class Inspect(Workload):
    """A user generating a fragment and inspecting it: gen, check, then a
    few mu and str-leq queries that each reload the file, with a small share
    of malformed requests whose documented outcome is exit 3."""

    name = "inspect"
    # Sorted by cost: five small fragments (0-25%), nine (30, 6) fragments
    # (25-70%), one (30, 8) and five (60, 4) fragments (75-100%): the
    # median is the middle of the nine (30, 6) jobs and the 90th percentile
    # the middle of the five (60, 4) jobs, so each is a median of several
    # like-sized draws rather than an extreme of few.  Random fragments
    # have three planted pairs per point.
    PERIOD = [
        ("inspect", "affine", 2, 2),
        ("inspect", "random", 30, 6),
        ("inspect", "random", 60, 4),
        ("inspect", "random", 20, 4),
        ("inspect", "random", 30, 6),
        ("inspect", "random", 60, 4),
        ("inspect", "random", 30, 6),
        ("inspect", "affine", 3, 1),
        ("inspect", "random", 30, 6),
        ("inspect", "random", 60, 4),
        ("inspect", "random", 30, 6),
        ("inspect", "random", 20, 4),
        ("inspect", "random", 30, 8),
        ("inspect", "random", 30, 6),
        ("inspect", "random", 60, 4),
        ("inspect", "random", 30, 6),
        ("inspect", "random", 20, 4),
        ("inspect", "random", 30, 6),
        ("inspect", "random", 60, 4),
        ("inspect", "random", 30, 6),
    ]
    TRACE_JOBS = 20
    AFFINE_SIZES = {(2, 2): (38, 4), (3, 1): (12, 9)}
    MALFORMED = ("unknown-label", "non-member", "truncated")

    def job_inspect(self, rng, model: str, a: int, b: int) -> Job:
        gen_path, check_path = self.path("gen.json"), self.path("check.json")
        if model == "affine":
            gen = ["gen", "--model", "affine", "-p", a, "-d", b]
        else:
            n1, n2, planted = a, b, 3
            gen = ["gen", "--model", "random", "--n1", n1, "--n2", n2,
                   "--planted", planted, "--seed", rng.randrange(10 ** 6)]
        malformed = (self.MALFORMED[rng.randrange(3)]
                     if rng.random() < 0.15 else None)
        query_seed = rng.randrange(10 ** 6)

        def run():
            calls = [("gen", self.cli(*gen, "-o", gen_path))]
            with open(gen_path, encoding="utf-8") as fh:
                frag = oracle.Tables(json.load(fh))
            calls.append(("check", self.cli("check", gen_path, "--smax", 2,
                                            "--tmax", 2, "-o", check_path)))
            queries = self.queries(frag, gen_path, random.Random(query_seed))
            if malformed:
                queries.append(self.malformed(frag, malformed, gen_path))
            for n, (verb, argv, _) in enumerate(queries):
                out = self.path(f"q{n}.json")
                calls.append((verb, self.cli(verb, *argv, "-o", out)))
            return {"calls": calls, "frag": frag, "queries": queries}

        def check(out):
            problems = []
            frag = out["frag"]
            calls = out["calls"]
            digest = []
            gen_bytes = self.output(gen_path)
            digest.append(oracle.sha(gen_bytes))
            expect(problems, calls[0][1] == 0, f"gen exit {calls[0][1]}")
            if model == "affine":
                problems += self.check_affine(frag, (a, b))
            else:
                problems += self.check_random(frag, n1, n2, planted)
            report = json.loads(self.output(check_path))
            digest.append(oracle.sha(json.dumps(report).encode()))
            problems += self.check_report(frag, report, calls[1][1])
            for n, ((verb, argv, expected), (_, rc)) in enumerate(
                    zip(out["queries"], calls[2:])):
                if expected == "exit 3":
                    expect(problems, rc == 3, f"{verb} {argv}: exit {rc}, "
                           "expected 3")
                    digest.append(f"{verb} {rc}")
                    continue
                result = json.loads(self.output(self.path(f"q{n}.json")))
                digest.append(json.dumps(result, sort_keys=True))
                problems += expected(rc, result)
            return problems, " ".join(digest)

        return Job("inspect", run, check)

    def queries(self, frag, gen_path: str, rng) -> list:
        """Two mu and two str-leq queries on labels of the fragment, each
        with a function that checks the reply against the oracle (called
        from the untimed check)."""
        h1, h2 = frag.h1_labels, frag.h2_labels
        out = []
        for _ in range(2):
            m = rng.randrange(frag.n2)
            below = bits(frag.down[m])
            x = rng.choice(below) if rng.random() < 0.8 else \
                rng.randrange(frag.n1)

            def mu_check(rc, result, x=x, m=m):
                mu = oracle.mu_value(frag, x, m, AMAX)
                ge4 = not oracle.has_partner_at(frag, x, m)
                bad = []
                expect(bad, rc == 0, f"mu exit {rc}")
                expect(bad, result.get("mu") == mu and
                       result.get("ge4") == ge4,
                       f"mu({h1[x]}, {h2[m]}) = {result.get('mu')}, "
                       f"{result.get('ge4')}; oracle {mu}, {ge4}")
                return bad
            out.append(("mu", [gen_path, "--x", h1[x], "--m", h2[m]],
                        mu_check))
        for _ in range(2):
            m = rng.randrange(frag.n2)
            below = bits(frag.down[m])
            upper = rng.sample(below, min(3, len(below)))
            others = [i for i in range(frag.n1) if i not in below]
            if others and rng.random() < 0.5:
                upper.append(rng.choice(others))
            lower = [i for i in upper if rng.random() < 0.5]
            if not any(i in below for i in lower):
                lower.append(upper[0])
            c, a = oracle.mask(upper), oracle.mask(lower)
            lhs = f"{labels(h1, a)}|{h2[m]}"
            rhs = f"{labels(h1, c)}|{h2[m]}"

            def leq_check(rc, result, a=a, c=c, m=m):
                holds = oracle.leq_literal(frag, (a, 1 << m), (c, 1 << m))
                witness = None
                if holds and a != c:
                    witness = [h1[i] for i in bits(c & frag.down[m])]
                bad = []
                expect(bad, rc == (0 if holds else 1), f"str-leq exit {rc}")
                expect(bad, result.get("holds") == holds and
                       result.get("witness") == witness,
                       f"str-leq {result}: oracle {holds}, {witness}")
                return bad
            out.append(("str-leq", [gen_path, "--lhs", lhs, "--rhs", rhs],
                        leq_check))
        return out

    def malformed(self, frag, kind: str, gen_path: str) -> tuple:
        m = 0
        outside = [i for i in range(frag.n1) if not frag.down[m] >> i & 1]
        if kind == "non-member" and outside:
            node = f"{frag.h1_labels[outside[0]]}|{frag.h2_labels[m]}"
            return ("str-leq", [gen_path, "--lhs", node, "--rhs", node],
                    "exit 3")
        if kind == "truncated":
            broken = self.path("truncated.json")
            with open(gen_path, encoding="utf-8") as src:
                text = src.read()
            with open(broken, "w", encoding="utf-8") as dst:
                dst.write(text[:len(text) // 2])
            return ("check", [broken], "exit 3")
        return ("mu", [gen_path, "--x", "no-such-curve", "--m",
                       frag.h2_labels[m]], "exit 3")

    def check_random(self, frag, n1, n2, planted) -> list:
        problems = []
        expect(problems, (frag.n1, frag.n2) == (n1, n2), "wrong tier sizes")
        expect(problems, all(u.bit_count() >= 2 for u in frag.up),
               "a curve has fewer than 2 points above it")
        for m in range(frag.n2):
            pairs = [(i, j) for i, j in combinations(bits(frag.down[m]), 2)
                     if frag.up[i] & frag.up[j] == 1 << m]
            expect(problems, len(pairs) >= planted,
                   f"point {m}: {len(pairs)} partner pairs, planted {planted}")
        return problems

    def check_affine(self, frag, pd) -> list:
        p, _ = pd
        problems = []
        expect(problems, (frag.n1, frag.n2) == self.AFFINE_SIZES[pd],
               "wrong tier sizes")
        for i, label in enumerate(frag.h1_labels):
            for j, point in enumerate(frag.h2_labels):
                a, b = int(point[2]), int(point[3])
                on_curve = oracle.eval_poly(label, a, b, p) == 0
                if on_curve != bool(frag.up[i] >> j & 1):
                    problems.append(f"incidence of {label} at {point}")
        return problems

    def check_report(self, frag, report, rc) -> list:
        problems = []
        expect(problems, rc == (0 if report["ok"] else 1),
               f"check exit {rc} with ok={report['ok']}")
        conditions = {c["condition"]: c for c in report["conditions"]}
        low = [{"x": frag.h1_labels[i], "points_above": u.bit_count()}
               for i, u in enumerate(frag.up) if u.bit_count() < 2]
        expect(problems, conditions["J2"]["witnesses"] == low,
               "J2 updegree failures differ")
        uncovered = [{"T": [frag.h2_labels[j] for j in t]}
                     for size in (1, 2)
                     for t in combinations(range(frag.n2), size)
                     if not oracle.below_all(frag, oracle.mask(t))]
        expect(problems, conditions["J4"]["witnesses"] == uncovered,
               "J4 failures differ")
        ok = (report["structure"]["ok"]
              and all(c["holds"] for c in report["conditions"]
                      if c["condition"] != "P4"))
        expect(problems, report["ok"] == ok, "ok flag inconsistent")
        p5 = report["p5_survey"]
        s_count = frag.n1 + frag.n1 * (frag.n1 - 1) // 2
        t_count = frag.n2 + frag.n2 * (frag.n2 - 1) // 2
        expect(problems, p5["params"]["checked"] == s_count * t_count,
               "P5 survey did not check every instance")
        h1 = {label: i for i, label in enumerate(frag.h1_labels)}
        h2 = {label: j for j, label in enumerate(frag.h2_labels)}
        failures = {(tuple(h1[s] for s in w["S"]),
                     tuple(h2[t] for t in w["T"])) for w in p5["witnesses"]}
        rng = random.Random(len(failures))
        for s, t in rng.sample(sorted(failures), min(4, len(failures))):
            expect(problems, not oracle.p5_witness_exists(frag, s, t),
                   f"P5 failure {s} {t} has a witness")
        for _ in range(4):
            s = tuple(sorted(rng.sample(range(frag.n1), rng.randint(1, 2))))
            t = tuple(sorted(rng.sample(range(frag.n2), rng.randint(1, 2))))
            if (s, t) not in failures:
                expect(problems, oracle.p5_witness_exists(frag, s, t),
                       f"P5 instance {s} {t} lacks a witness")
        self.counts["conditions.p5_instances"] += p5["params"]["checked"]
        return problems


WORKLOADS = {w.name: w for w in (Fiber, Roundtrip, Inspect)}
