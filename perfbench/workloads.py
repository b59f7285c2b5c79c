"""The four workloads: their inputs, their ops and the checks on each op.

Each workload is a closed loop with one client: the next op starts when
the previous one returns.  ``run_user`` is the op as a user pays for it
(tracing off); ``run_traced`` makes the same calls split into stage spans
in dependency order, so each stage's span covers its own uncached work.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import resource
import subprocess
import sys
from pathlib import Path

import toriq
from toriq import catalog, cli
from toriq.cones import affine_fiber_rank, dual_cone, fan_cone, hilbert_basis
from toriq.fans import build_fan, load_fan
from toriq.homogeneous import (
    HomogeneousPoint, TorusElement, act, check_equivariance, power_map, same_orbit,
)
from toriq.intlinalg import IntMatrix, integer_kernel, smith_normal_form
from toriq.kring import oracle_reduce, parse_expression, reduce
from toriq.moment import delzant_report, face_lattice
from toriq.quotient import (
    aut_presentation, charge_matrix, discriminant_locus, fan_symmetry, group_structure,
    quotient_report,
)
from toriq.solenoid import PolarComplex, ProfiniteInt, SolenoidPoint, cover_map, refine, sol_exp

import checks
import inputs
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden"
FAN_DIR = Path(toriq.__file__).resolve().parent / "data" / "fans"

# Public lru_cache functions whose counters the traced run reports.
CACHED = {
    "cones.dual_cone": dual_cone,
    "cones.hilbert_basis": hilbert_basis,
    "quotient.charge_matrix": charge_matrix,
    "quotient.group_structure": group_structure,
    "quotient.discriminant_locus": discriminant_locus,
    "quotient.fan_symmetry": fan_symmetry,
    "quotient.aut_presentation": aut_presentation,
    "moment.face_lattice": face_lattice,
}


class CacheCounters:
    """hits / misses / size of every cached function since creation,
    summed across clears.  Functions without ``cache_info`` are skipped."""

    def __init__(self):
        self.fns = {name: fn for name, fn in CACHED.items() if hasattr(fn, "cache_info")}
        self.base = {name: fn.cache_info() for name, fn in self.fns.items()}
        self.totals = {name: [0, 0, 0] for name in self.fns}

    def _absorb(self):
        for name, fn in self.fns.items():
            info, base, total = fn.cache_info(), self.base[name], self.totals[name]
            total[0] += info.hits - base.hits
            total[1] += info.misses - base.misses
            total[2] = max(total[2], info.currsize)
            self.base[name] = info

    def clear(self):
        """Empty every cache, as a fresh CLI process would find them."""
        self._absorb()
        for name, fn in self.fns.items():
            fn.cache_clear()
            self.base[name] = fn.cache_info()

    def read(self) -> dict[str, tuple[int, int, int]]:
        self._absorb()
        return {name: tuple(t) for name, t in self.totals.items()}


# ---------------------------------------------------------------- fan stages


def analyze_stages(fan, tr) -> None:
    """Stage calls of one analyze, in dependency order."""
    tr.call("quotient.charge_matrix", charge_matrix, fan)
    tr.call("quotient.group_structure", group_structure, fan)
    disc = tr.call("quotient.discriminant_locus", discriminant_locus, fan)
    tr.count("quotient.discriminant_locus.members", len(disc.minimal_subsets))
    tr.call("quotient.fan_symmetry", fan_symmetry, fan)
    tr.call("quotient.aut_presentation", aut_presentation, fan)
    for cone in fan.cones():
        dual = tr.call("cones.dual_cone", dual_cone, fan_cone(fan, cone))
        basis = tr.call("cones.hilbert_basis", hilbert_basis, dual)
        tr.count("cones.hilbert_basis.elements", basis.rank_r)
    tr.call("moment.face_lattice", face_lattice, fan)


def analyze(fan, tr) -> dict:
    """The work of ``toriq analyze`` on a complete fan."""
    if tr.enabled:
        analyze_stages(fan, tr)
    report = tr.call("quotient.quotient_report", quotient_report, fan)
    fiber_ranks = [
        {"cone": [i + 1 for i in cone], "rank": tr.call("cones.affine_fiber_rank", affine_fiber_rank, fan, cone)}
        for cone in fan.cones()
    ]
    delzant = tr.call("moment.delzant_report", delzant_report, fan)
    return {"report": report, "fiber_ranks": fiber_ranks, "delzant": delzant}


def intlinalg_probe(rank, rays, cones, tr) -> None:
    """Time intlinalg on the op's ray matrix and maximal-cone matrices.

    Runs after the op's span closes, so it adds nothing to op time.
    """
    for rows in [rays] + [[rays[i] for i in c] for c in cones]:
        m = tr.call("intlinalg.IntMatrix.from_rows", IntMatrix.from_rows, rows, rank)
        tr.call("intlinalg.smith_normal_form", smith_normal_form, m)
        tr.call("intlinalg.integer_kernel", integer_kernel, m.transpose())


def det_sum(rank, rays, cones) -> int:
    """Sum of |det| over full-dimensional cones, computed by the benchmark."""
    return sum(abs(checks.det([rays[i] for i in c])) for c in cones if len(c) == rank)


def _fan_summary(items) -> dict:
    rays = [len(f.rays) for f in items]
    cones = [len(f.cones) for f in items]
    dets = [det_sum(f.rank, f.rays, f.cones) for f in items]
    families = sorted({f.family for f in items})
    return {
        "ops": len(items),
        "families": ",".join(families),
        "rays": f"{min(rays)}-{max(rays)} (mean {sum(rays) / len(rays):.1f})",
        "maximal_cones": f"{min(cones)}-{max(cones)} (mean {sum(cones) / len(cones):.1f})",
        "cones.det_sum per op": f"{min(dets)}-{max(dets)} (mean {sum(dets) / len(dets):.0f})",
        "prime_bits": "none",
    }


class FanWorkload:
    """build_fan plus a full analyze of each generated fan.

    A ``cold`` workload empties the library caches before each op, as a
    fresh ``toriq analyze`` process would find them, so that an op's cost
    is set by its own fan and not by how many ops ran before it.
    """

    def __init__(self, items, cold=False):
        self.items = items
        self.cold = cold
        self.counters = None  # the run's CacheCounters, set before the timed loop

    def before_op(self):
        if self.cold:
            self.counters.clear()

    def run_user(self, item):
        return self.run_traced(item, DISABLED)

    def run_traced(self, item, tr):
        fan = tr.call("fans.build_fan", build_fan, item.rank, item.rays, item.cones,
                      True, item.name)
        return analyze(fan, tr)

    def after_traced(self, item, tr):
        intlinalg_probe(item.rank, item.rays, item.cones, tr)
        tr.count("cones.det_sum", det_sum(item.rank, item.rays, item.cones))

    def check(self, item, result):
        return checks.check_analysis(item, result)

    def summary(self, n):
        return _fan_summary(self.items[:n])

    def peak_rss_mb(self):
        return self_rss_mb()


def self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _shuffled_cycles(rng, slots, count):
    """``count`` ops drawn slot by slot from a fixed cycle, each cycle shuffled.

    Every run sees the same mix of op kinds, so seeds change the draws
    inside each kind but not the mix.
    """
    out = []
    while len(out) < count:
        cycle = list(slots)
        rng.shuffle(cycle)
        out.extend(slot(rng) for slot in cycle)
    return out[:count]


# The cycles below are built so that the median op and the 90th-percentile
# op each fall inside a cluster of like ops and not on the border between
# two, which keeps both percentiles steady from seed to seed.


def wide_fans(seed: int, count: int) -> FanWorkload:
    """Many small rays: the 2^n-subset discriminant scan does most work."""
    def polygon(n):
        return lambda r: inputs.polygon_fan(r, n)

    def blowup(r):
        return inputs.disguise(r, inputs.cp3_blowup(r, 7))

    # The polygons' cones come from a small box, so the cone caches fill
    # within the first ops and stay warm: the work left is the scan.
    slots = [polygon(11)] * 2 + [polygon(12)] * 5 + [polygon(14)] * 2 + [blowup]
    return FanWorkload(_shuffled_cycles(random.Random(seed), slots, count))


def deep_cones(seed: int, count: int) -> FanWorkload:
    """Few rays, large determinants or high rank: Hilbert bases do most work."""
    def weighted(lo, hi):
        return lambda r: inputs.disguise(r, inputs.weighted_plane(r.randint(lo, hi)))

    def product(*dims_choices):
        return lambda r: inputs.disguise(r, inputs.projective_product(r.choice(dims_choices)))

    def hirzebruch(r):
        return inputs.disguise(r, inputs.hirzebruch(inputs.log_uniform(r, 100, 4000)))

    slots = [
        hirzebruch, product((2,), (1, 1)), product((3,), (2, 1)), product((1, 1, 1)),
        *[weighted(700, 850)] * 5,
        weighted(2400, 2600), *[product((4,))] * 2,
    ]
    # Disguised fans share cones only by chance, yet such hits made the
    # later ops of a run up to a fifth cheaper, so that an op's cost hung on
    # how many ops ran before it: every op starts cold instead.
    return FanWorkload(_shuffled_cycles(random.Random(seed), slots, count), cold=True)


# ---------------------------------------------------------------- CLI


class CliWorkload:
    """``python -m toriq analyze | delzant | hilbert`` over the shipped fans."""

    def __init__(self, seed: int, count: int):
        rng = random.Random(seed)
        self.fans = {p.stem: json.loads(p.read_text()) for p in sorted(FAN_DIR.glob("*.json"))}
        self.golden = {p.name: p.read_bytes() for p in sorted(GOLDEN.glob("*.json"))}
        slots = []
        for name, data in self.fans.items():
            for cmd in ("analyze", "delzant", "hilbert"):
                slots.append(lambda r, name=name, cmd=cmd: self._item(r, name, cmd))
        self.items = _shuffled_cycles(rng, slots, count)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.child_rss_kb = 0
        self.counters = None  # the run's CacheCounters, set before the timed loop

    def _item(self, rng, name, cmd):
        argv = [cmd, str(FAN_DIR / f"{name}.json")]
        cone = ()
        if cmd == "hilbert":
            cones = sorted(checks.cone_closure(
                [[i - 1 for i in c] for c in self.fans[name]["maximal_cones"]]))
            cone = tuple(i + 1 for i in rng.choice(cones))
            argv += ["--cone", ",".join(map(str, cone)) or "0"]
        return name, cmd, cone, argv

    def before_op(self):
        pass

    def run_user(self, item):
        proc = subprocess.Popen([sys.executable, "-m", "toriq", *item[3]], cwd=ROOT,
                                env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        out = proc.stdout.read()
        err = proc.stderr.read()
        proc.stdout.close()
        proc.stderr.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.child_rss_kb = max(self.child_rss_kb, usage.ru_maxrss)
        if err:
            sys.stderr.write(err.decode(errors="replace"))
        return proc.returncode, out

    def run_traced(self, item, tr):
        """In process: empty caches (a CLI call starts fresh), stage the
        library calls, then let ``cli.main`` print from the warm caches."""
        name, cmd, cone, argv = item
        self.counters.clear()
        fan = tr.call("fans.load_fan", load_fan, argv[1])
        if tr.enabled:
            if cmd == "analyze":
                analyze_stages(fan, tr)
            elif cmd == "delzant":
                tr.call("moment.face_lattice", face_lattice, fan)
            else:
                dual = tr.call("cones.dual_cone", dual_cone, fan_cone(fan, [i - 1 for i in cone]))
                basis = tr.call("cones.hilbert_basis", hilbert_basis, dual)
                tr.count("cones.hilbert_basis.elements", basis.rank_r)
        return tr.call("cli.main", call_main, argv)

    def after_traced(self, item, tr):
        data = self.fans[item[0]]
        rays = [tuple(v) for v in data["rays"]]
        cones = [[i - 1 for i in c] for c in data["maximal_cones"]]
        intlinalg_probe(data["lattice_rank"], rays, cones, tr)
        tr.count("cones.det_sum", det_sum(data["lattice_rank"], rays, cones))

    def check(self, item, result):
        name, cmd, cone, _ = item
        code, out = result
        return checks.check_cli(cmd, self.fans[name], cone, out,
                                self.golden.get(f"{name}_{cmd}.json"), code)

    def summary(self, n):
        items = self.items[:n]
        per_fan = [self.fans[name] for name, _, _, _ in items]
        rays = [len(d["rays"]) for d in per_fan]
        dets = [det_sum(d["lattice_rank"], d["rays"], [[i - 1 for i in c] for c in d["maximal_cones"]])
                for d in per_fan]
        cmds = {cmd: sum(1 for _, c, _, _ in items if c == cmd) for cmd in ("analyze", "delzant", "hilbert")}
        return {
            "ops": len(items),
            "commands": ", ".join(f"{k} {v}" for k, v in cmds.items()),
            "rays": f"{min(rays)}-{max(rays)}",
            "cones.det_sum per op": f"{min(dets)}-{max(dets)}",
            "prime_bits": "none",
        }

    def peak_rss_mb(self):
        return self.child_rss_kb / 1024


def call_main(argv) -> tuple[int, bytes]:
    """``toriq.cli.main`` in process, with stdout captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue().encode()


# ---------------------------------------------------------------- orbits


ORBIT_FANS = ("cp2", "cp1xcp1", "hirzebruch_1", "hirzebruch_2", "cp3")
PROJECTIVE = ("cp2", "cp3")
# same_orbit trial-divides, so its cost grows as 2^(bits/2).  Half the ops
# share one size and a fifth the largest, so the median and the 90th
# percentile each sit inside one cluster of like ops.
PRIME_BITS = (24, 26, 26, 28, 28, 28, 28, 28, 32, 32)


class OrbitWorkload:
    """Point pairs through the homogeneous model, plus solenoid and K-ring riders."""

    def __init__(self, seed: int, count: int):
        rng = random.Random(seed)
        self.fans = {}
        for name in ORBIT_FANS:
            if name == "cp3":
                self.fans[name] = catalog.projective_space(3)
            else:
                self.fans[name] = catalog.load_named(name)
        self.q_rows = {name: charge_matrix(fan).matrix.entries for name, fan in self.fans.items()}
        # act and same_orbit read the charge matrix; check it once here
        self.charge_failures = {
            name: checks.check_charge_matrix(fan.lattice_rank, fan.rays, self.q_rows[name])
            for name, fan in self.fans.items()
        }
        slots = [
            lambda r, b=bits, positive=(k % 2 == 0): self._item(
                r, r.choice(ORBIT_FANS if positive else PROJECTIVE), b, positive)
            for k, bits in enumerate(PRIME_BITS)
        ]
        self.items = _shuffled_cycles(rng, slots, count)

    def _item(self, rng, name, bits, positive):
        columns = tuple(zip(*self.q_rows[name]))
        return inputs.orbit_input(rng, name, columns, bits, positive)

    def before_op(self):
        pass

    def run_user(self, item):
        return self.run_traced(item, DISABLED)

    def run_traced(self, item, tr):
        fan = self.fans[item.fan_name]
        z = HomogeneousPoint(fan, item.level, tuple(PolarComplex(*c) for c in item.coords))
        t = TorusElement(item.level, tuple(PolarComplex(*p) for p in item.params))
        image = tr.call("homogeneous.act", act, t, z)
        other = image
        if not item.positive:
            moved = image.coords[0] * PolarComplex(1, item.nudge)
            other = HomogeneousPoint(fan, item.level, (moved,) + image.coords[1:])
        tr.maximum("homogeneous.same_orbit.prime_bits_max", item.prime_bits)
        same = tr.call("homogeneous.same_orbit", same_orbit, z, other)
        powered = tr.call("homogeneous.power_map", power_map, item.power, z)
        equivariant = tr.call("homogeneous.check_equivariance", check_equivariance,
                              fan, t, z, item.power)
        base = SolenoidPoint(item.sol_level, PolarComplex(*item.sol_base))
        lifted = tr.call("solenoid.refine", refine, base, item.sol_to, item.sol_branch)
        covered = tr.call("solenoid.cover_map", cover_map, item.sol_level, item.sol_to, lifted.top)
        a, theta = item.sol_exp
        exp = tr.call("solenoid.sol_exp", sol_exp, ProfiniteInt(item.sol_level, a), theta)
        formal = tr.call("kring.parse_expression", parse_expression, item.kring_text)
        reduced = tr.call("kring.reduce", reduce, formal)
        oracle = tr.call("kring.oracle_reduce", oracle_reduce, formal, item.oracle_seed)
        return image, other, same, powered, equivariant, covered, exp, formal, reduced, oracle

    def after_traced(self, item, tr):
        pass

    def check(self, item, result):
        image, other, same, powered, equivariant, covered, exp, formal, reduced, oracle = result
        plain = {
            "image": [(c.rho, c.turns) for c in image.coords],
            "other": [(c.rho, c.turns) for c in other.coords],
            "same_orbit": same,
            "power": [(c.rho, c.turns) for c in powered.coords],
            "equivariant": equivariant,
            "covered": (covered.rho, covered.turns),
            "exp": (exp.level, (exp.top.rho, exp.top.turns)),
            "parsed": list(formal.terms),
            "reduced": (reduced.rank_part, reduced.class_part),
            "oracle": (oracle.rank_part, oracle.class_part),
        }
        return (self.charge_failures[item.fan_name]
                + checks.check_orbit(item, self.q_rows[item.fan_name], plain))

    def summary(self, n):
        items = self.items[:n]
        bits = [i.prime_bits for i in items]
        return {
            "ops": len(items),
            "fans": ",".join(sorted({i.fan_name for i in items})),
            "positive pairs": sum(1 for i in items if i.positive),
            "rays": f"{min(len(i.coords) for i in items)}-{max(len(i.coords) for i in items)}",
            "cones.det_sum per op": "n/a",
            "prime_bits": f"{min(bits)}-{max(bits)}",
        }

    def peak_rss_mb(self):
        return self_rss_mb()


DISABLED = Tracer(False)

# Inputs generated per second of run time, far above today's op rates.  A
# much faster program ends its run when the inputs run out rather than
# repeat an input its caches already hold.
WORKLOADS = {
    "cli-shipped": (CliWorkload, 60),
    "wide-fans": (wide_fans, 100),
    "deep-cones": (deep_cones, 100),
    "orbits": (OrbitWorkload, 100),
}


def make(name: str, seed: int, seconds: float, min_ops: int):
    factory, rate = WORKLOADS[name]
    return factory(seed, max(min_ops, int(rate * seconds)))
