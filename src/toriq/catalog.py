"""Ready-made fans: projective spaces, the quadric surface, weighted planes
and Hirzebruch surfaces.  The same fans ship as JSON files under
``toriq/data/fans`` for use as CLI inputs and test fixtures.
"""

from __future__ import annotations

from importlib import resources
from pathlib import Path

from .errors import ResourceLimitError, _check_int, _shown
from .fans import _FACE_CAP, Fan, build_fan, load_fan


def projective_space(m: int) -> Fan:
    """Standard complete fan of m-dimensional projective space.

    Rays are the unit vectors plus the negative of their sum; maximal cones
    are all m-subsets of the m + 1 rays.  Past m = 1023 those cones list
    more than 2^20 ray indices, and it raises ``ResourceLimitError``.
    """
    if _check_int(m, "projective_space needs m >= 1", 1) * (m + 1) > _FACE_CAP:
        raise ResourceLimitError(f"projective_space: m = {_shown(m)} is past 1023: the maximal "
                                 f"cones would list more than {_FACE_CAP} ray indices")
    rays = [tuple(1 if j == i else 0 for j in range(m)) for i in range(m)]
    rays.append(tuple(-1 for _ in range(m)))
    cones = [
        [i for i in range(m + 1) if i != skip]
        for skip in range(m + 1)
    ]
    return build_fan(m, rays, cones, complete=True, name=f"cp{m}")


def projective_line() -> Fan:
    return projective_space(1)


def projective_plane() -> Fan:
    return projective_space(2)


def product_of_lines() -> Fan:
    """The quadric surface: product of two projective lines."""
    rays = [(1, 0), (-1, 0), (0, 1), (0, -1)]
    cones = [[0, 2], [1, 2], [1, 3], [0, 3]]
    return build_fan(2, rays, cones, complete=True, name="cp1xcp1")


def weighted_plane(n: int) -> Fan:
    """Weighted projective plane with weights (1, 1, n).

    Ray order realizes the relation v1 + v2 + n*v3 = 0, so the charge
    matrix is the column (1, 1, n).
    """
    _check_int(n, "weighted_plane needs n >= 1", 1)
    rays = [(1, 0), (-1, n), (0, -1)]
    cones = [[0, 1], [1, 2], [0, 2]]
    return build_fan(2, rays, cones, complete=True, name=f"cp11_{_shown(n)}")


def hirzebruch(n: int) -> Fan:
    """Hirzebruch surface of parameter n.

    Ray order realizes v3 + v4 = 0 and v1 + v2 - n*v4 = 0.
    """
    _check_int(n, "hirzebruch needs n >= 0", 0)
    rays = [(1, 0), (-1, n), (0, -1), (0, 1)]
    cones = [[0, 3], [1, 3], [1, 2], [0, 2]]
    return build_fan(2, rays, cones, complete=True, name=f"hirzebruch_{_shown(n)}")


def fan_path(name: str) -> Path:
    """Filesystem path of a packaged fan file, e.g. ``fan_path("cp2")``."""
    root = resources.files("toriq").joinpath("data/fans")
    path = root.joinpath(f"{name}.json")
    if not path.is_file():
        available = sorted(p.stem for p in Path(str(root)).glob("*.json"))
        raise FileNotFoundError(f"no packaged fan {name!r}; available: {available}")
    return Path(str(path))


def load_named(name: str) -> Fan:
    return load_fan(fan_path(name))


def shipped_fans() -> dict[str, Fan]:
    """All packaged example fans, keyed by name."""
    root = Path(str(resources.files("toriq").joinpath("data/fans")))
    return {p.stem: load_fan(p) for p in sorted(root.glob("*.json"))}
