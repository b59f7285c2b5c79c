"""Fan construction, validation, cone queries, file round-trips."""

import json
from itertools import chain, combinations

import pytest

from toriq import catalog
from toriq.cones import affine_fiber_rank, fan_cone
from toriq.errors import DomainError, FanValidationError
from toriq.fans import Fan, build_fan, fan_from_dict, fan_to_dict, load_fan
from toriq.intlinalg import IntMatrix


def test_cp1_fan_builds():
    fan = build_fan(1, [(1,), (-1,)], [[0], [1]], complete=True)
    assert fan.n_rays == 2
    assert fan.maximal_cones == ((0,), (1,))


def test_cp2_fan_builds():
    fan = build_fan(2, [(1, 0), (0, 1), (-1, -1)], [[0, 1], [1, 2], [0, 2]], complete=True)
    assert fan.n_rays == 3


def test_nonprimitive_ray_rejected():
    with pytest.raises(FanValidationError, match="not primitive"):
        build_fan(2, [(2, 4), (0, 1)], [[0, 1]])


def test_zero_ray_rejected():
    with pytest.raises(FanValidationError, match="zero vector"):
        build_fan(2, [(0, 0), (0, 1)], [[0, 1]])


def test_duplicate_ray_rejected():
    with pytest.raises(FanValidationError, match="duplicate ray"):
        build_fan(1, [(1,), (1,)], [[0], [1]])


def test_empty_rays_rejected():
    with pytest.raises(FanValidationError, match="at least one ray"):
        build_fan(1, [], [[0]])


def test_index_out_of_range_rejected():
    with pytest.raises(FanValidationError, match="out of range"):
        build_fan(1, [(1,)], [[0, 5]])


def test_unused_ray_rejected():
    with pytest.raises(FanValidationError, match="not used"):
        build_fan(2, [(1, 0), (0, 1)], [[0]])


def test_non_simplicial_cone_rejected():
    with pytest.raises(FanValidationError, match="simplicial"):
        build_fan(2, [(1, 0), (0, 1), (1, 1)], [[0, 1, 2]])


def test_completeness_necessary_conditions():
    # one maximal cone cannot be complete in rank 1
    with pytest.raises(FanValidationError, match="complete"):
        build_fan(1, [(1,)], [[0]], complete=True)
    # missing cone: facet shared once only
    with pytest.raises(FanValidationError, match="facet"):
        build_fan(2, [(1, 0), (0, 1), (-1, -1)], [[0, 1], [1, 2]], complete=True)
    # same fan not declared complete is fine
    build_fan(2, [(1, 0), (0, 1), (-1, -1)], [[0, 1], [1, 2]])


CP2_RAYS = [(1, 0), (0, 1), (-1, -1)]


@pytest.mark.parametrize(
    "args, message",
    [
        ((1, [(1,)], [()]), "maximal_cones[1]: empty cone"),
        ((2, [(1, 0), (0, 1)], [(1, 0)]), "maximal_cones[1]: indices must be sorted and distinct"),
        ((2, [(1, 0), (0, 1)], [(0, 0, 1)]), "maximal_cones[1]: indices must be sorted and distinct"),
        ((1, [(1,), (-1,)], [(0,), (1,), (0,)]), "maximal_cones[3]: duplicate cone"),
        # the lowest-index other cone holding it is named
        ((2, CP2_RAYS, [(0,), (0, 1), (0, 2)]), "maximal_cones: cone [1] is contained in [1, 2]"),
        ((2, CP2_RAYS, [(0, 1), (1, 2), (1,)]), "maximal_cones: cone [2] is contained in [1, 2]"),
        ((2, CP2_RAYS, [(0, 1), (2,)], True), "complete: maximal_cones[2] is not full-dimensional"),
        ((2, [(1, 0), (-1, 0)], [(0,), (1,)], True), "complete: rays of a complete fan must span the lattice"),
        (
            (2, CP2_RAYS, [(0, 1), (1, 2)], True),
            "complete: facet [1] lies in 1 maximal cones, expected exactly 2",
        ),
        (
            (2, CP2_RAYS + [(-1, 1)], [(0, 1), (1, 2), (0, 2), (1, 3)], True),
            "complete: facet [2] lies in 3 maximal cones, expected exactly 2",
        ),
    ],
)
def test_constructor_messages(args, message):
    # Fan(...) directly: build_fan would sort the cones and their indices
    with pytest.raises(FanValidationError) as exc:
        Fan(*args)
    assert str(exc.value) == message


def test_is_cone_product_fan():
    fan = catalog.product_of_lines()
    # rays 1,2 are opposite: no cone; 1,3 span a quadrant
    assert not fan.is_cone({0, 1})
    assert fan.is_cone(set())
    assert fan.is_cone({0, 2})
    # unsorted and repeated indices
    assert fan.is_cone((2, 0))
    assert fan.is_cone((0, 0, 2))
    assert not fan.is_cone((1, 0, 1))


def test_is_cone_index_validation():
    fan = catalog.projective_line()
    for indices, message in [({7}, "ray index 8 out of range"), ((0, 2), "ray index 3 out of range"),
                             ((-1,), "ray index 0 out of range")]:
        with pytest.raises(FanValidationError) as exc:
            fan.is_cone(indices)
        assert str(exc.value) == message


@pytest.mark.parametrize("bad", [1.0, "a", True, False, None])
def test_ray_indices_must_be_integers(bad):
    """Caught before any sort compares them, and a bool is no ray index."""
    message = "maximal_cones[2]: indices must be integers"
    for cones in ([[0, 1], [bad, 2]], [[0, 1], [2, bad]], [[0, 1], [bad, bad]],
                  [[0, 1], [2, 1, bad]]):
        with pytest.raises(FanValidationError) as exc:
            build_fan(2, CP2_RAYS, cones)
        assert str(exc.value) == message
        with pytest.raises(FanValidationError) as exc:
            Fan(2, CP2_RAYS, cones)
        assert str(exc.value) == message
    data = {"lattice_rank": 2, "rays": [list(v) for v in CP2_RAYS],
            "maximal_cones": [[1, 2], [2, bad]]}
    with pytest.raises(FanValidationError) as exc:
        fan_from_dict(data)
    assert str(exc.value) == message
    fan = catalog.projective_plane()
    for indices in ([bad], [0, bad], [bad, 0], {bad}):
        for query in (fan.is_cone, lambda i: fan_cone(fan, i), lambda i: affine_fiber_rank(fan, i)):
            with pytest.raises(FanValidationError) as exc:
                query(indices)
            assert str(exc.value) == f"ray index {bad!r} is not an integer"


def test_int_subclass_rays_and_indices_are_accepted():
    """The constructor's scans stop at any entry that is not an exact int;
    an int subclass then passes the full checks like the int it equals."""
    class Index(int):
        pass

    rays = [tuple(map(Index, v)) for v in CP2_RAYS]
    cones = [(Index(0), Index(1)), (1, Index(2)), (Index(0), 2)]
    plain = catalog.projective_plane()
    for fan in (Fan(2, rays, sorted(cones), True), build_fan(2, rays, cones, True)):
        assert fan.rays == plain.rays and fan.maximal_cones == plain.maximal_cones
        assert fan._star == plain._star and fan._unimodular == plain._unimodular
    with pytest.raises(FanValidationError, match=r"^maximal_cones\[2\]: indices must be sorted"):
        Fan(2, rays, [(0, 1), (Index(2), 1)])
    with pytest.raises(FanValidationError, match=r"^rays\[2\]: ray \(2, 4\) is not primitive"):
        Fan(2, [(1, 0), (Index(2), Index(4))], [(0,), (1,)])


def test_fan_cones_cp1():
    assert catalog.projective_line().cones() == ((), (0,), (1,))


def test_fan_cones_cp2_counts():
    cones = catalog.projective_plane().cones()
    assert [sum(1 for c in cones if len(c) == k) for k in range(3)] == [1, 3, 3]


def test_single_cone_chain():
    fan = build_fan(1, [(1,)], [[0]])
    assert fan.cones() == ((), (0,))


def powerset(iterable):
    s = list(iterable)
    return chain.from_iterable(combinations(s, r) for r in range(len(s) + 1))


@pytest.mark.parametrize(
    "fan",
    [
        catalog.projective_line(),
        catalog.projective_plane(),
        catalog.product_of_lines(),
        catalog.weighted_plane(3),
        catalog.hirzebruch(2),
        catalog.projective_space(3),
    ],
    ids=lambda f: f.name,
)
def test_face_closure_and_is_cone_agree(fan):
    carrier = set(fan.cones())
    for subset in powerset(range(fan.n_rays)):
        assert fan.is_cone(subset) == (tuple(sorted(subset)) in carrier)
    # downward closure
    for cone in carrier:
        for face in powerset(cone):
            assert tuple(sorted(face)) in carrier


@pytest.mark.parametrize(
    "fan",
    [catalog.projective_plane(), catalog.hirzebruch(3), catalog.projective_space(3)],
    ids=lambda f: f.name,
)
def test_cone_dim_matches_matrix_rank(fan):
    """Fans are simplicial: a cone's dimension, its rank, is its ray count."""
    for cone in fan.cones():
        if cone:
            mat = IntMatrix.from_rows([fan.rays[i] for i in cone], fan.lattice_rank)
            assert mat.rank() == len(cone)


def test_json_round_trip(tmp_path):
    fan = catalog.hirzebruch(2)
    data = fan_to_dict(fan)
    assert data["maximal_cones"][0] == [1, 3]  # 1-based in files, canonically sorted
    assert fan_from_dict(data) == fan
    path = tmp_path / "fan.json"
    path.write_text(json.dumps(data))
    assert load_fan(path) == fan


def test_shipped_fans_match_catalog():
    shipped = catalog.shipped_fans()
    assert shipped["cp1"] == catalog.projective_line()
    assert shipped["cp2"] == catalog.projective_plane()
    assert shipped["cp1xcp1"] == catalog.product_of_lines()
    for n in (2, 3, 5):
        assert shipped[f"cp11_{n}"] == catalog.weighted_plane(n)
    for n in (1, 2, 3):
        assert shipped[f"hirzebruch_{n}"] == catalog.hirzebruch(n)


@pytest.mark.parametrize(
    "build, parameter",
    [
        (catalog.projective_space, 0),
        (catalog.projective_space, 1.5),
        (catalog.weighted_plane, 0),
        (catalog.weighted_plane, "2"),
        (catalog.hirzebruch, -1),
        (catalog.hirzebruch, True),
    ],
)
def test_catalog_parameters_raise_domain_error(build, parameter):
    with pytest.raises(DomainError, match=f"^{build.__name__} needs "):
        build(parameter)


@pytest.mark.parametrize(
    "broken, message",
    [
        ({"rays": [[1]], "maximal_cones": [[1]]}, "lattice_rank"),
        ({"lattice_rank": 1, "maximal_cones": [[1]]}, "rays"),
        ({"lattice_rank": 1, "rays": [[1]]}, "maximal_cones"),
        ({"lattice_rank": 1, "rays": [[1]], "maximal_cones": [[0]]}, "1-based"),
        ({"lattice_rank": 1, "rays": [["x"]], "maximal_cones": [[1]]}, "integers"),
        ({"lattice_rank": 1, "rays": [[1]], "maximal_cones": [[1]], "complete": "yes"}, "complete"),
    ],
)
def test_fan_from_dict_names_offending_field(broken, message):
    with pytest.raises(FanValidationError, match=message):
        fan_from_dict(broken)


def test_load_fan_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(FanValidationError, match="invalid JSON"):
        load_fan(path)
