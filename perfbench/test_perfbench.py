"""Tests of the benchmark itself: seeded inputs, checkers, tiny runs.

    python3 -m pytest perfbench -q
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

WORKLOADS = list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", WORKLOADS)
def test_same_seed_same_inputs(name):
    a = workloads.make(name, 7, 1, 40).items
    b = workloads.make(name, 7, 1, 40).items
    c = workloads.make(name, 8, 1, 40).items
    assert a == b
    assert a != c


def test_primes_have_the_asked_bits():
    import random

    rng = random.Random(3)
    for bits in (20, 32, 40):
        p = inputs.random_prime(rng, bits)
        assert p.bit_length() == bits
        assert all(p % d for d in range(2, 2000))
    assert not inputs.is_prime(3215031751)  # strong pseudoprime to bases 2, 3, 5, 7
    assert inputs.is_prime(2**61 - 1)


@pytest.mark.parametrize("factory", [workloads.wide_fans, workloads.deep_cones])
def test_analysis_checker_accepts_then_rejects_corruption(factory):
    wl = factory(11, 10)
    for item in wl.items:
        result = wl.run_user(item)
        assert checks.check_analysis(item, result) == []

        bad = copy.deepcopy(result)
        bad["report"]["charge_matrix"][0][0] += 1
        assert checks.check_analysis(item, bad)

        bad = copy.deepcopy(result)
        bad["report"]["discriminant"] = bad["report"]["discriminant"][1:]
        assert checks.check_analysis(item, bad)

        bad = copy.deepcopy(result)
        bad["fiber_ranks"][-1]["rank"] += 1
        assert checks.check_analysis(item, bad)

        bad = copy.deepcopy(result)
        bad["delzant"]["f_vector"][0] += 1
        assert checks.check_analysis(item, bad)


def test_rank3_discriminant_checker_rejects_a_non_minimal_member():
    wl = workloads.wide_fans(5, 10)
    item = next(i for i in wl.items if i.rank == 3)
    result = wl.run_user(item)
    assert checks.check_analysis(item, result) == []
    member = result["report"]["discriminant"][0]
    extra = next(i for i in range(1, len(item.rays) + 1) if i not in member)
    result["report"]["discriminant"][0] = sorted(member + [extra])
    assert any(layer == "quotient" for layer, _ in checks.check_analysis(item, result))


def test_rank2_fiber_rank_matches_continued_fractions():
    # (1, 0), (-1, n): the dual's Hilbert basis has n + 1 elements
    for n in (2, 3, 7, 50):
        assert checks.rank2_fiber_rank((1, 0), (-1, n)) == n + 1
    assert checks.hj_length(7, 3) == 3   # 7/3 = [3, 2, 2]
    assert checks.rank2_fiber_rank((1, 0), (0, 1)) == 2


def test_cli_checker_rejects_corruption():
    wl = workloads.CliWorkload(2, 27)
    wl.counters = workloads.CacheCounters()
    for item in wl.items:
        code, out = wl.run_traced(item, workloads.DISABLED)
        assert wl.check(item, (code, out)) == []
        assert wl.check(item, (1, out))
        if item[1] == "hilbert":
            data = json.loads(out)
            data["rank"] += 1
            assert wl.check(item, (0, json.dumps(data).encode()))
        else:
            assert wl.check(item, (0, out + b" "))


def test_orbit_checker_rejects_corruption():
    wl = workloads.OrbitWorkload(4, 10)
    for item in wl.items:
        result = wl.run_user(item)
        assert wl.check(item, result) == []
        image, other, same, powered, equi, covered, exp, formal, reduced, oracle = result
        PolarComplex = type(covered)
        corrupt = [
            (image, other, not same, powered, equi, covered, exp, formal, reduced, oracle),
            (image, other, same, powered, False, covered, exp, formal, reduced, oracle),
            (image, other, same, powered, equi, covered * PolarComplex(2), exp, formal,
             reduced, oracle),
            (image, other, same, powered, equi, covered, exp, formal, reduced,
             type(oracle)(oracle.rank_part + 1, oracle.class_part)),
            (other if not item.positive else powered, other, same, powered, equi, covered,
             exp, formal, reduced, oracle),
        ]
        for bad in corrupt:
            assert wl.check(item, bad)


def test_negative_pairs_really_leave_the_orbit():
    wl = workloads.OrbitWorkload(9, 40)
    negatives = [i for i in wl.items if not i.positive]
    assert negatives and all(i.fan_name in workloads.PROJECTIVE for i in negatives)
    for item in negatives:
        assert wl.run_user(item)[2] is False


def test_tracer_spans_and_unaccounted_share():
    tr = Tracer(True)
    tr.op = 0
    tr.call("op", lambda: tr.call("fans.build_fan", sum, [1, 2]))
    names = [s[0] for s in tr.spans]
    assert names == ["op", "fans.build_fan"]
    assert tr.spans[1][3] == 0 and tr.spans[1][4] == 0
    assert 0 <= tr.unaccounted_share("op") <= 1
    with pytest.raises(ZeroDivisionError):
        tr.call("kring.reduce", lambda: 1 / 0)
    assert tr.errors["kring"] == 1


def test_host_adjusted_scales_by_the_probes_around_each_op():
    nominal = run.REFERENCE_LOOP_S
    # a host at half speed: every probe takes twice nominal
    assert run.host_adjusted([0.2, 0.4], [2 * nominal] * 2) == pytest.approx([0.1, 0.2])
    # one slow probe among many barely moves the smoothed speed
    probes = [nominal] * 10 + [10 * nominal] + [nominal] * 10
    assert run.host_adjusted([0.1] * 21, probes) == pytest.approx([0.1] * 21)


def test_cold_workload_starts_each_op_with_empty_caches():
    wl = workloads.deep_cones(3, 3)
    wl.counters = workloads.CacheCounters()
    for item in wl.items:
        wl.before_op()
        assert all(fn.cache_info().currsize == 0 for fn in wl.counters.fns.values())
        wl.run_user(item)
    assert wl.counters.read()["cones.hilbert_basis"][1] > 0


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("name", WORKLOADS)
def test_tiny_run_has_no_errors(name, trace):
    proc = _run(["--workload", name, "--seed", "1", "--seconds", "0", "--trace", trace,
                 "--max-ops", "4"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 4
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_without_toriq_source_the_run_fails():
    # a directory holding only BENCHMARK.json and the benchmark's own files
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = _run(["--workload", "orbits", "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
