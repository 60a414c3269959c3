"""Seeded job streams for the three benchmark workloads.

A stream is an endless sequence of rounds. Every round of a workload has
the same template: a fixed count of jobs per group in each cost band. The
seed picks the endomorphisms, coefficients, potentials and the order of
the jobs. So two seeds give different inputs with the same mix, and a run
that stops at a round boundary has the same mix whatever its seed.

Every file the program reads (Cayley tables, derivation tables,
potentials) is written here, under the stream's own directory; the
program sees only argv and those files.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

import refgroups as rg

WORKLOADS = ("finite-solve", "finite-certify", "heisenberg-ball")


@dataclass
class Job:
    """One CLI invocation and what its output is checked against."""

    kind: str
    band: str
    argv: list
    group_spec: str
    expect_exit: int = 0
    facts: dict = field(default_factory=dict)


class Catalog:
    """Finite groups by name, built lazily from refgroups.

    Each entry pairs a FiniteRef with the family structure its non-inner
    endomorphisms come from; the products q8xc<n> are written to
    Cayley-table files the first time they are used.
    """

    def __init__(self, workdir):
        self.workdir = workdir
        self._cache = {}

    def get(self, name):
        if name not in self._cache:
            self._cache[name] = self._build(name)
        return self._cache[name]

    def _build(self, name):
        if name.startswith("q8xc"):
            n = int(name[4:])
            left, right = rg.quaternion8(), rg.cyclic(n)
            path = os.path.join(self.workdir, f"group_{name}.json")
            ref = rg.direct_product(left, right, f"file:{path}")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"name": name, "cayley": ref.table}, fh)
            families = [("quaternion8", None), ("cyclic", n)]
            return ref, ("product", left, right, families)
        family, _, param = name.rpartition("_")
        if name == "quaternion8":
            return rg.quaternion8(), ("quaternion8", None)
        builders = {"cyclic": rg.cyclic, "dihedral": rg.dihedral,
                    "symmetric": rg.symmetric, "heisenberg_mod": rg.heisenberg_mod}
        return builders[family](int(param)), (family, int(param))


# the (a, b) part of x - y for sigma, tau = conjugation by x, y, per job kind
HEIS_STEPS = {"export": (1, 0), "classes": (0, 1), "centralizers": (1, 1),
              "group-info": (1, -1), "heis-quasi-inner": (2, 1)}


class Stream:
    def __init__(self, workload, seed, workdir):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.rng = random.Random(f"{workload}/{seed}")
        self.workdir = workdir
        self.catalog = Catalog(workdir)
        self.rounds = 0
        self._files = 0

    # -- shared helpers ------------------------------------------------------

    def _path(self, stem):
        self._files += 1
        return os.path.join(self.workdir, f"{stem}_{self._files:05d}.json")

    def _write(self, stem, obj):
        path = self._path(stem)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        return path

    def _fraction(self):
        return Fraction(self.rng.randint(-9, 9), self.rng.randint(1, 6))

    def _scalar(self):
        while True:
            c = (self._fraction(), self._fraction())
            if c[0] or c[1]:
                return c

    def _endo(self, ref, structure):
        """An endomorphism spec and its table: id, inner, or a family map."""
        r = self.rng.random()
        if r < 0.3:
            return "id", list(range(ref.order))
        if r < 0.7:
            x = self.rng.randrange(ref.order)
            return f"inner:{x}", ref.inner_table(x)
        if structure[0] == "product":
            _, left, right, families = structure
            fl = rg.family_endo(*families[0], self.rng)
            fr = rg.family_endo(*families[1], self.rng)
            table = ref.endo_table(lambda p: (left.index[fl(left.payloads[p[0]])],
                                              right.index[fr(right.payloads[p[1]])]))
        else:
            table = ref.endo_table(rg.family_endo(*structure, self.rng))
        if not ref.is_hom(table):
            raise AssertionError(f"benchmark built a non-homomorphism on {ref.name}")
        images = ",".join(f"{ref.labels[g]}:{table[g]}" for g in ref.generators())
        return "images:{" + images + "}", table

    def _finite_pair(self, name, twisted=False):
        """A group spec with sigma, tau and their tables.

        twisted gives sigma = inner:x and tau = inner:(x w) for a random x
        and w the group's last generator. The twisted classes of such a
        pair depend on w alone up to relabelling by x, so the cost of the
        job barely depends on the seed; heavy jobs use it to keep the
        run-to-run spread low. Otherwise each of sigma, tau is id, inner or
        a family map, which may be non-injective and can make the system
        much smaller.
        """
        ref, structure = self.catalog.get(name)
        if twisted:
            x = self.rng.randrange(ref.order)
            y = ref.mul(x, ref.generators()[-1])
            sigma_spec, sigma = f"inner:{x}", ref.inner_table(x)
            tau_spec, tau = f"inner:{y}", ref.inner_table(y)
        else:
            sigma_spec, sigma = self._endo(ref, structure)
            tau_spec, tau = self._endo(ref, structure)
        argv = ["--group", ref.spec, "--sigma", sigma_spec, "--tau", tau_spec]
        return ref, sigma, tau, argv

    def _finite_job(self, band, name, action, twisted=False):
        ref, sigma, tau, argv = self._finite_pair(name, twisted)
        kind = {"verify-decomposition": "verify"}.get(action, action)
        return Job(kind, band, ["derivations", action, *argv], ref.spec, 0,
                   dict(group=ref, sigma=sigma, tau=tau))

    def _band(self, band, groups, actions, twisted=False):
        """One job per action, the groups taken in turn in a shuffled order,
        so every group of the band gets the same share of each round."""
        order = list(groups)
        self.rng.shuffle(order)
        return [self._finite_job(band, order[i % len(order)], action, twisted)
                for i, action in enumerate(actions)]

    # -- rounds ----------------------------------------------------------------

    def next_round(self):
        self.rounds += 1
        jobs = {"finite-solve": self._round_finite_solve,
                "finite-certify": self._round_finite_certify,
                "heisenberg-ball": self._round_heisenberg_ball}[self.workload]()
        self.rng.shuffle(jobs)
        return jobs

    # Bands are named by job cost, A cheapest. The counts put each
    # percentile inside a band of twisted jobs, whose cost is nearly fixed
    # by their slot: p50 in band B of finite-solve, band P of finite-certify
    # and among the check-radius-3 central jobs of heisenberg-ball; p90 in
    # the single-group band D of finite-solve, band M of finite-certify and
    # among the radius-5 classes and group-info jobs of heisenberg-ball.
    # Jobs with free sigma, tau (non-injective ones included) sit in bands
    # A and C, where many per run average out their spread.

    def _round_finite_solve(self):
        return (
            self._band("A", ["quaternion8", "dihedral_4", "cyclic_8"], ["dim"] * 15)
            + self._band("B", ["dihedral_8", "cyclic_16", "q8xc2"],
                         ["basis"] * 3 + ["dim"] * 9, twisted=True)
            + self._band("C", ["symmetric_4", "dihedral_12", "heisenberg_mod_3",
                               "q8xc4"], ["basis"] + ["dim"] * 7)
            + self._band("D", ["dihedral_16"], ["dim"] * 4, twisted=True)
            + [self._finite_job("L", "dihedral_32", "dim", twisted=True),
               self._finite_job("L", "heisenberg_mod_4", "basis", twisted=True),
               self._finite_job("L", "q8xc8", "dim", twisted=True)])

    def _round_finite_certify(self):
        verify = "verify-decomposition"
        tables = ["dihedral_8", "q8xc2", "symmetric_4", "heisenberg_mod_3",
                  "dihedral_16", "q8xc4"]
        jobs = (
            self._band("L", ["symmetric_4", "dihedral_16"], [verify] * 2,
                       twisted=True)
            + self._band("M", ["heisenberg_mod_3"], [verify] * 4, twisted=True)
            + self._band("B", ["dihedral_8", "q8xc2"], [verify] * 2, twisted=True)
            + self._band("A", ["quaternion8", "dihedral_4"], [verify] * 2))
        for name in tables:
            jobs.append(self._check_inner_job("B", name, perturb=True))
            jobs.append(self._finite_potential_job("A", name))
            if name != "dihedral_8":
                jobs.append(self._check_inner_job("B", name, perturb=False))
        # as many jobs cost less than the dihedral_8 check-inner jobs as
        # cost more, so p50 falls in the middle of these eight
        jobs += [self._check_inner_job("P", "dihedral_8", perturb=False)
                 for _ in range(8)]
        jobs += [self._finite_potential_job("A", name)
                 for name in ("dihedral_8", "q8xc2") * 2]
        return jobs

    def _check_inner_job(self, band, name, perturb):
        """delta_q for a random q; perturbed tables must be refused."""
        ref, sigma, tau, argv = self._finite_pair(name, twisted=True)
        q = {h: self._scalar() for h in self.rng.sample(range(ref.order), 3)}
        table = {}
        for g in range(ref.order):
            value = rg.combine(rg.right_translate(ref.mul, q, tau[g]),
                               rg.left_translate(ref.mul, sigma[g], q), sign=-1)
            if value:
                table[g] = value
        if perturb:
            g = self.rng.choice([g for g in range(ref.order) if g != ref.identity])
            h = self.rng.randrange(ref.order)
            bump = (Fraction(self.rng.randint(1, 5), self.rng.randint(1, 3)),
                    Fraction(0))
            value = dict(table.get(g, {}))
            value[h] = rg.gadd(value.get(h, rg.ZERO), bump)
            table[g] = rg.clean(value)
            if not table[g]:
                del table[g]
        path = self._write("derivation", {"D": {
            str(g): rg.terms_json(v, int) for g, v in sorted(table.items())}})
        kind = "refuse" if perturb else "check-inner"
        return Job(kind, band, ["derivations", "check-inner", *argv,
                                "--derivation", path],
                   ref.spec, 4 if perturb else 0,
                   dict(group=ref, sigma=sigma, tau=tau, table=table))

    def _finite_potential_job(self, band, name):
        ref, sigma, tau, argv = self._finite_pair(name)
        support = self.rng.sample(range(ref.order), self.rng.randint(2, 4))
        potential = {h: self._scalar() for h in support}
        path = self._write("potential", {"values": rg.terms_json(
            potential, int)["terms"]})
        return Job("quasi-inner", band, ["derivations", "quasi-inner", *argv,
                                         "--potential", path],
                   ref.spec, 0, dict(group=ref, sigma=sigma, tau=tau,
                                     potential=potential))

    def _round_heisenberg_ball(self):
        jobs = []
        for i in range(19):
            jobs.append(self._central_job(check_radius=3 if i < 15 else 4,
                                          zero=i in (0, 15)))
        for radius in (4, 5, 6):
            jobs.append(self._heis_job("export", "groupoid-export", radius))
        for radius in (4, 5, 5):
            jobs.append(self._heis_job("classes", "classes", radius))
            jobs.append(self._heis_job("group-info", "group-info", radius))
        for radius in (4, 5):
            jobs.append(self._heis_job("centralizers", "centralizers", radius))
        for i in range(15):
            jobs.append(self._heis_potential_job(3 + i % 3))
        return jobs

    # -- heisenberg_Z ------------------------------------------------------------

    def _triple(self, lo=-3, hi=3):
        return tuple(self.rng.randint(lo, hi) for _ in range(3))

    def _inner_pair(self, step):
        """sigma, tau conjugation by x and y = x - step in the (a, b) part.

        The class structure depends only on that step, which each job kind
        keeps fixed, so the seed moves the inputs more than the cost.
        """
        x = self._triple()
        y = (x[0] - step[0], x[1] - step[1], self.rng.randint(-3, 3))
        return x, y, ["--group", "builtin:heisenberg_Z",
                      "--sigma", "inner:" + rg.hlabel(x),
                      "--tau", "inner:" + rg.hlabel(y)]

    def _central_job(self, check_radius, zero):
        rng = self.rng
        sa, sb, sc, tc = (rng.randint(-3, 3) for _ in range(4))
        # a zero coefficient makes the job several times cheaper, so the
        # zero pattern is fixed per slot and the seed picks the values
        mu, nu = (0, 0) if zero else (rng.choice([-3, -2, -1, 1, 2, 3]),
                                      rng.choice([-3, -2, -1, 1, 2, 3]))
        r = rng.randint(-3, 3)
        argv = ["derivations", "central", "--group", "builtin:heisenberg_Z",
                "--sigma", f"inner:[{sa},{sb},{sc}]",
                "--tau", f"inner:[{sa},{sb},{tc}]",
                f"--params={sa},{sb},{sc},{tc}", f"--mu={mu}", f"--nu={nu}",
                f"--r={r}", f"--check-radius={check_radius}"]
        return Job("central", "S" if check_radius == 3 else "M", argv,
                   "builtin:heisenberg_Z", 0,
                   dict(params=(sa, sb, sc, tc), mu=mu, nu=nu, r=r,
                        check_radius=check_radius))

    def _heis_job(self, kind, command, radius):
        x, y, argv = self._inner_pair(HEIS_STEPS[kind])
        return Job(kind, "M" if radius == 4 else "L",
                   [command, *argv, f"--radius={radius}"],
                   "builtin:heisenberg_Z", 0, dict(x=x, y=y, radius=radius))

    def _heis_potential_job(self, radius):
        x, y, argv = self._inner_pair(HEIS_STEPS["heis-quasi-inner"])
        support = set()
        while len(support) < 3:
            support.add(self._triple(-2, 2))
        potential = {p: self._scalar() for p in sorted(support)}
        path = self._write("potential", {"values": rg.terms_json(
            potential, list)["terms"]})
        return Job("heis-quasi-inner", "S",
                   ["derivations", "quasi-inner", *argv, f"--radius={radius}",
                    "--potential", path],
                   "builtin:heisenberg_Z", 0,
                   dict(x=x, y=y, radius=radius, potential=potential))
