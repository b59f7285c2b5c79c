"""Command-line interface: golden reports, exit codes, determinism."""

import hashlib
import json
import os
import random
import subprocess
import sys
import time
from itertools import combinations
from pathlib import Path
from xml.dom import minidom

import pytest

from test_demos import STRICT_ENCODING
from test_discriminant_fastpath import cp3_blowup
from toriq.catalog import fan_path, projective_space, weighted_plane
from toriq.cli import main
from toriq.cones import affine_fiber_rank
from toriq.fans import build_fan, fan_to_dict

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).parent / "golden"
FAN_NAMES = [
    "cp1",
    "cp2",
    "cp1xcp1",
    "cp11_2",
    "cp11_3",
    "cp11_5",
    "hirzebruch_1",
    "hirzebruch_2",
    "hirzebruch_3",
]


def _src_env() -> dict:
    """The environment, with ``src/`` first on ``PYTHONPATH``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("name", FAN_NAMES)
def test_analyze_matches_golden(capsys, name):
    code, out, err = run(capsys, "analyze", str(fan_path(name)))
    assert code == 0 and err == ""
    assert out == (GOLDEN / f"{name}_analyze.json").read_text()


@pytest.mark.parametrize("name", FAN_NAMES)
def test_delzant_matches_golden(capsys, name):
    code, out, err = run(capsys, "delzant", str(fan_path(name)))
    assert code == 0 and err == ""
    assert out == (GOLDEN / f"{name}_delzant.json").read_text()


def _moved_cp4():
    """cp^4 with its rays mapped by one fixed unimodular matrix (det 1)
    whose entries pass 10^6, so that the 4 x 4 determinants of its maximal
    cones run on large coordinates."""
    basis = ((1, 1_000_003, 0, 2),
             (0, 1, -1_000_033, 0),
             (3, 3_000_009, 1, 6),
             (0, 0, 1_000_037, 1))
    cp4 = projective_space(4)
    rays = [tuple(sum(a * x for a, x in zip(row, v)) for row in basis) for v in cp4.rays]
    return build_fan(4, rays, cp4.maximal_cones, complete=True, name="cp4_moved")


# no shipped fan has rank above 2; these pin analyze in rank 3 and 4, where
# faces of maximal cones are neither rays nor maximal.  P(1,1,1,2) has one
# singular maximal cone among three smooth ones, and P(1,1,1,1,2) one among
# four.  Goldens live in a subdirectory because every top-level
# *_analyze.json names a shipped fan.
HIGHER_RANK_FANS = {
    "cp3": lambda: projective_space(3),
    "cp4": lambda: projective_space(4),
    "cp4_moved": _moved_cp4,
    "cp111_2": lambda: build_fan(
        3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -2)], combinations(range(4), 3),
        complete=True, name="cp111_2",
    ),
    "cp1111_2": lambda: build_fan(
        4, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (-1, -1, -1, -2)],
        combinations(range(5), 4), complete=True, name="cp1111_2",
    ),
}


@pytest.mark.parametrize("name", sorted(HIGHER_RANK_FANS))
def test_analyze_matches_golden_in_rank_3_and_4(capsys, tmp_path, name):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(fan_to_dict(HIGHER_RANK_FANS[name]())))
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 0 and err == ""
    assert out == (GOLDEN / "rank3" / f"{name}_analyze.json").read_text()


def test_analyze_of_a_200_ray_blowup_is_byte_identical(capsys, tmp_path):
    """``toriq analyze`` of a 200-ray cp3 blow-up, whose lex-last ray basis
    has determinant 113, so that the charge matrix takes the mod-d relation
    scan: stdout hashes to the digest recorded from the augmented Hermite
    pass and the hash-lookup discriminant scan (1,099,467 bytes)."""
    path = tmp_path / "blowup200.json"
    path.write_text(json.dumps(fan_to_dict(cp3_blowup(random.Random(0), 196))))
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 0 and err == ""
    assert len(out.encode()) == 1_099_467
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "a748508d630679fb20da1a3a322beadc9896d5e696d8b42ee81e5f94cf07307a"
    )


def test_analyze_is_byte_deterministic(capsys):
    _, first, _ = run(capsys, "analyze", str(fan_path("hirzebruch_2")))
    _, second, _ = run(capsys, "analyze", str(fan_path("hirzebruch_2")))
    assert first == second


def test_analyze_key_facts(capsys):
    code, out, _ = run(capsys, "analyze", str(fan_path("cp2")))
    report = json.loads(out)
    assert report["symmetry"]["order"] == 6
    assert report["aut"]["torus_rank"] == 2
    assert len(report["discriminant"]) == 1
    code, out, _ = run(capsys, "analyze", str(fan_path("hirzebruch_3")))
    report = json.loads(out)
    assert report["symmetry"]["order"] == 2
    assert report["discriminant"] == [[1, 2], [3, 4]]


def test_delzant_key_facts(capsys):
    code, out, _ = run(capsys, "delzant", str(fan_path("cp2")))
    report = json.loads(out)
    assert report["f_vector"] == [3, 3, 1] and report["cusps"] == 3
    code, out, _ = run(capsys, "delzant", str(fan_path("cp1")))
    assert json.loads(out)["cusps"] == 2


def test_delzant_svg_output(capsys, tmp_path):
    target = tmp_path / "cp2.svg"
    code, out, _ = run(capsys, "delzant", str(fan_path("cp2")), "--svg", str(target))
    assert code == 0
    assert target.exists() and "<svg" in target.read_text()
    assert json.loads(out)["svg"] == str(target)


def test_delzant_svg_is_utf8_whatever_the_locale(tmp_path):
    """``toriq delzant --svg`` on a fan with a non-ASCII name, run with a
    file opened in the locale's encoding made an error: it exits 0, and
    the SVG parses as UTF-8 with the name as its title."""
    name = "\u2119\u00b2 \u00e0 la Delzant"
    fan = dict(fan_to_dict(projective_space(2)), name=name)
    path = tmp_path / "named.json"
    path.write_text(json.dumps(fan), encoding="utf-8")
    proc = subprocess.run([sys.executable, *STRICT_ENCODING, "-m", "toriq", "delzant", str(path),
                           "--svg", "out.svg"],
                          cwd=tmp_path, env=_src_env(), capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0 and proc.stderr == ""
    assert json.loads(proc.stdout)["name"] == name
    title = minidom.parse(str(tmp_path / "out.svg")).getElementsByTagName("text")[0]
    assert title.firstChild.data.startswith(f"{name}: ")


def test_delzant_incomplete_fan_is_domain_error(capsys, tmp_path):
    path = tmp_path / "halfplane.json"
    path.write_text(
        json.dumps(
            {
                "lattice_rank": 2,
                "rays": [[1, 0], [0, 1]],
                "maximal_cones": [[1, 2]],
                "complete": False,
            }
        )
    )
    code, out, err = run(capsys, "delzant", str(path))
    assert code == 1
    assert "complete" in err


def test_malformed_fan_file_is_input_error(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"lattice_rank": 2, "rays": [[2, 4], [0, 1]], "maximal_cones": [[1, 2]]}')
    code, out, err = run(capsys, "delzant", str(path))
    assert code == 2
    assert "rays[1]" in err
    path.write_text("{oops")
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 2 and "invalid JSON" in err


def test_missing_file_is_input_error(capsys):
    code, _, err = run(capsys, "analyze", "/no/such/fan.json")
    assert code == 2 and err


def _toriq_into_pipe(tmp_path, argv, read):
    """Run ``python -m toriq *argv`` with stdout a pipe whose reader takes
    ``read`` bytes, or none if 0, and closes its end (before the start, if
    0).  Block-buffered, so that a short report reaches the pipe only when
    flushed.  Returns ``(bytes read, exit status, stderr)``."""
    env = _src_env()
    env.pop("PYTHONUNBUFFERED", None)
    r, w = os.pipe()
    if not read:
        os.close(r)
    proc = subprocess.Popen([sys.executable, "-m", "toriq", *argv], cwd=tmp_path, env=env,
                            stdout=w, stderr=subprocess.PIPE, text=True)
    os.close(w)
    data = b""
    if read:
        data = os.read(r, read)
        os.close(r)
    _, err = proc.communicate(timeout=30)
    return data, proc.returncode, err


@pytest.mark.parametrize("m, read", [(12, 5), (2, 0)], ids=["p12-after-5-bytes", "p2-closed"])
def test_a_closed_stdout_exits_1_with_nothing_on_stderr(tmp_path, m, read):
    """A reader that closes stdout early (``toriq analyze ... | head -c 5``)
    is no malformed input: the run exits 1 with nothing on stderr, neither
    an ``error:`` line nor a traceback from the flush at exit.  The P^12
    report (about 1 MB) overfills the pipe after 5 bytes; the P^2 report
    fits in the stdout buffer, so only the flush meets the closed pipe.  A
    fan path that cannot be read still exits 2."""
    path = tmp_path / "fan.json"
    path.write_text(json.dumps(fan_to_dict(projective_space(m))))
    data, code, err = _toriq_into_pipe(tmp_path, ["analyze", str(path)], read)
    assert (code, err) == (1, "") and len(data) == read
    data, code, err = _toriq_into_pipe(tmp_path, ["analyze", str(tmp_path / "missing.json")], 5)
    assert code == 2 and data == b"" and _one_error_line(err, tmp_path, "No such file"), err


def test_a_run_started_with_no_stdout_exits_0(tmp_path):
    """Started with file descriptor 1 closed (``toriq analyze fan.json >&-``),
    Python sets ``sys.stdout`` to None and ``print`` writes nowhere: the
    run exits 0 with nothing on stderr, with no flush to try."""
    proc = subprocess.run([sys.executable, "-m", "toriq", "analyze", str(fan_path("cp2"))],
                          cwd=tmp_path, env=_src_env(), stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=30,
                          preexec_fn=lambda: os.close(1))
    assert (proc.returncode, proc.stderr) == (0, "")


def _one_error_line(err, path, cause):
    return err.startswith("error: ") and err.count("\n") == 1 and str(path) in err and cause in err


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no integer digit limit")
def test_fan_file_with_an_integer_past_the_digit_limit_is_input_error(capsys, tmp_path):
    path = tmp_path / "huge.json"
    digits = "1" * (sys.get_int_max_str_digits() + 1)
    path.write_text(f'{{"lattice_rank": 1, "rays": [[{digits}]], "maximal_cones": [[1]]}}')
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 2 and out == "" and _one_error_line(err, path, "digits"), err


def test_fan_file_that_is_not_utf8_is_input_error(capsys, tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"lattice_rank": 1, "rays": [[1]], "maximal_cones": [[1]], "name": "\xe9"}')
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 2 and out == "" and _one_error_line(err, path, "'utf-8' codec can't decode"), err


def test_fan_path_that_is_a_directory_is_input_error(capsys, tmp_path):
    code, out, err = run(capsys, "delzant", str(tmp_path))
    assert code == 2 and out == "" and _one_error_line(err, tmp_path, "Is a directory"), err


def test_hilbert_subcommand(capsys):
    code, out, _ = run(capsys, "hilbert", str(fan_path("cp2")), "--cone", "1,2")
    assert code == 0
    report = json.loads(out)
    assert report["rank"] == 2
    assert report["hilbert_basis"] == [[0, 1], [1, 0]]
    code, out, _ = run(capsys, "hilbert", str(fan_path("cp2")), "--cone", "0")
    assert json.loads(out)["rank"] == 4
    code, out, _ = run(capsys, "hilbert", str(fan_path("cp11_3")), "--cone", "1,2")
    assert json.loads(out)["rank"] == 4


def test_hilbert_rejects_non_cone(capsys):
    code, _, err = run(capsys, "hilbert", str(fan_path("cp1xcp1")), "--cone", "1,2")
    assert code == 1 and "not a cone" in err
    code, _, err = run(capsys, "hilbert", str(fan_path("cp2")), "--cone", "9")
    assert code == 2 and "out of range" in err


def test_huge_fiber_rank_is_counted_not_built(capsys, tmp_path):
    """The singular chart of the weighted plane (1, 1, 10^18) has fiber rank
    10^18 + 1: the count takes well under a second, ``toriq analyze``
    prints it, and ``hilbert``, which would have to list the basis, stops at
    the size cap.  ``analyze`` runs as its own process, so that a count that
    walks the basis fails on the timeout instead of hanging the suite; only
    the in-process count after it is timed, free of interpreter start-up."""
    fan = weighted_plane(10 ** 18)
    path = tmp_path / "cp11_huge.json"
    path.write_text(json.dumps(fan_to_dict(fan)))
    proc = subprocess.run([sys.executable, "-m", "toriq", "analyze", str(path)],
                          cwd=tmp_path, env=_src_env(), capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0 and proc.stderr == ""
    ranks = {tuple(r["cone"]): r["rank"] for r in json.loads(proc.stdout)["fiber_ranks"]}
    assert ranks[(1, 2)] == 10 ** 18 + 1 and ranks[(1, 3)] == ranks[(2, 3)] == 2
    start = time.perf_counter()
    assert affine_fiber_rank(fan, (0, 1)) == 10 ** 18 + 1
    assert time.perf_counter() - start < 1.0
    code, out, err = run(capsys, "hilbert", str(path), "--cone", "1,2")
    assert code == 1 and out == ""
    assert err.startswith("error: hilbert_basis: ") and str(10 ** 18 + 1) in err
    assert str(2 ** 20) in err


def test_one_21_ray_cone_is_refused_at_the_face_cap(capsys, tmp_path):
    """``analyze`` on one 21-ray cone would list 2^21 faces: it exits 1 at
    once, naming the stage, the cone's size and the cap."""
    path = tmp_path / "cone21.json"
    rays = [[int(i == j) for j in range(21)] for i in range(21)]
    path.write_text(json.dumps({"lattice_rank": 21, "rays": rays, "maximal_cones": [list(range(1, 22))]}))
    start = time.perf_counter()
    code, out, err = run(capsys, "analyze", str(path))
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out == ""
    assert err == (f"error: cones: listing the faces of maximal cone 1 of 1 (21 rays, {2 ** 21} faces) "
                   f"passes the cap of {2 ** 20} cones\n")


def test_solenoid_subcommands(capsys):
    code, out, _ = run(capsys, "solenoid", "exp", "--a", "1/4", "--turns", "1/4")
    assert code == 0 and out == "level=4 rho=1 turns=5/16\n"
    code, out, _ = run(capsys, "solenoid", "exp", "--a", "1", "--level", "4", "--turns", "1")
    assert out == "level=4 rho=1 turns=1/2\n"
    code, out, _ = run(capsys, "solenoid", "cover", "--n", "2", "--m", "6", "--rho", "2", "--turns", "1/3")
    assert out == "rho=8 turns=0\n"
    code, out, _ = run(
        capsys, "solenoid", "refine", "--level", "2", "--to", "4", "--branch", "0",
        "--rho", "1", "--turns", "1/2",
    )
    assert out == "level=4 rho=1 turns=1/4\n"


def test_solenoid_errors(capsys):
    code, _, err = run(capsys, "solenoid", "cover", "--n", "4", "--m", "6", "--rho", "1", "--turns", "0")
    assert code == 1 and "n | m" in err
    code, _, err = run(
        capsys, "solenoid", "cover", "--n", "1", "--m", "1000000000", "--rho", "3/2", "--turns", "0"
    )
    assert code == 1 and "pow_int" in err and "cap" in err
    code, _, err = run(capsys, "solenoid", "exp", "--a", "1", "--turns", "0")
    assert code == 2 and "--level" in err
    code, _, err = run(
        capsys, "solenoid", "refine", "--level", "2", "--to", "4", "--branch", "0",
        "--rho", "2", "--turns", "0",
    )
    assert code == 1 and "perfect" in err


@pytest.mark.parametrize("argv, message", [
    (["solenoid", "exp", "--a", "1/x", "--turns", "0"], "RESIDUE/LEVEL"),
    (["solenoid", "exp", "--a", "1/4", "--level", "3", "--turns", "0"], "conflicts"),
    (["solenoid", "exp", "--a", "x", "--level", "3", "--turns", "0"], "integer residue"),
    (["solenoid", "exp", "--a", "1/0", "--turns", "0"], "level must be positive"),
    (["solenoid", "exp", "--a", "1/4", "--turns", "abc"], "--turns"),
    (["solenoid", "cover", "--n", "0", "--m", "1", "--rho", "1", "--turns", "0"], "positive"),
    (["hilbert", str(fan_path("cp2")), "--cone", "1,x"], "comma-separated"),
    (["solenoid", "exp", "--a", "1/0", "--turns", "0"], "--a: level must be positive, got 0"),
    (["solenoid", "exp", "--a", "1", "--level", "0", "--turns", "0"],
     "--level: level must be positive, got 0"),
    (["solenoid", "cover", "--n", "1", "--m", "0", "--rho", "1", "--turns", "0"],
     "--m: level must be positive, got 0"),
    (["solenoid", "refine", "--level", "0", "--to", "4", "--rho", "1", "--turns", "0"],
     "--level: level must be positive, got 0"),
    (["solenoid", "refine", "--level", "2", "--to", "0", "--rho", "1", "--turns", "0"],
     "--to: level must be positive, got 0"),
    (["kring", "level", "0", "x"], "n: level must be positive, got 0"),
])
def test_malformed_arguments_exit_2(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and err.startswith("error: ") and message in err


def test_refine_without_level_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["solenoid", "refine", "--to", "4", "--rho", "1", "--turns", "0"])
    assert info.value.code == 2 and "--level" in capsys.readouterr().err


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="no limit on integer-to-string conversion")
def test_overlong_integer_output_is_resource_error(capsys):
    # (3/2)^20000 has a 31,700-bit numerator, past the 4,300-digit default
    limit = str(sys.get_int_max_str_digits())
    code, out, err = run(capsys, "solenoid", "cover", "--n", "1", "--m", "20000",
                         "--rho", "3/2", "--turns", "0")
    assert code == 1 and out == ""
    assert err.startswith("error: solenoid cover: ") and "31700-bit" in err and limit in err
    big = "9" * 3000
    code, out, err = run(capsys, "kring", "mul", big, big)
    assert code == 1 and out == ""
    assert err.startswith("error: kring mul: ") and limit in err


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="no limit on string-to-integer conversion")
def test_overlong_integer_literal_is_expression_error(capsys):
    limit = str(sys.get_int_max_str_digits())
    big = "7" * 5000
    for expr in (f"{big}*x^(1/2) + 1", f"x^({big}/3)", f"x^{big}", f"x^(1/{big})"):
        code, out, err = run(capsys, "kring", "reduce", expr)
        assert code == 2 and out == "", expr
        assert err.startswith("error: term ") and limit in err, expr
        assert "Traceback" not in err and len(err) < 300, expr


def test_kring_subcommands(capsys):
    code, out, _ = run(capsys, "kring", "reduce", "3*x^(1/2) - x^(2/3) + 1")
    assert code == 0 and out == "rank_part=3 class_part=5/6\n"
    code, out, _ = run(capsys, "kring", "mul", "x^(1/2)", "x^(1/2)")
    assert out == "rank_part=1 class_part=1\n"
    code, out, _ = run(capsys, "kring", "level", "2", "x^(1/2)")
    assert out == "true\n"
    code, out, _ = run(capsys, "kring", "level", "1", "x^(1/2)")
    assert out == "false\n"


def test_kring_parse_error(capsys):
    code, _, err = run(capsys, "kring", "reduce", "x^^2")
    assert code == 2 and "cannot parse" in err
