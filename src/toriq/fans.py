"""Fans: primitive rays plus simplicial cones given as ray-index sets.

A cone is identified with the sorted tuple of indices of its extreme rays;
its faces are exactly the subsets.  Non-simplicial maximal cones are
rejected at build time: the discriminant / charge-matrix machinery built on
top is stated ray-wise and needs every cone determined by its rays.

Cone membership is read off one ray-incidence index, built with one mask
operation per (ray, maximal cone) incidence: bit k of ``star[i]`` is set
when maximal cone k holds ray i.  The AND of the listed rays' masks is the
set of maximal cones holding them all, which decides ``is_cone``, the
containment of one maximal cone in another, the facet count of a complete
fan, the unused-ray check, the facet tests of ``discriminant_locus``,
whether a point's zero pattern lies in the discriminant, whether a ray
permutation is a fan automorphism and whether a cone lies in a unimodular
maximal cone (``affine_fiber_rank``).  Only ``cones()`` lists faces, once
per fan and at most 2^20 of them.

The constructor validates in one pass and in a fixed order, so the first
message it raises does not depend on how it checks.  Rays of exact ints
are checked by ``any(v)`` and ``gcd(*v) == 1``; any other ray goes through
``primitive`` for its message.  Each maximal cone's indices take one
strictly-increasing scan that also fills the incidence index; only a scan
that stops sorts them, to choose the message.  ``cones()`` fills one set
per face size and sorts each natively.

``ray_lattice()`` computes the Hermite form of the rays and the canonical
basis of their relations on first use and keeps them, like the face list.
``intlinalg.spanning_lattice`` reads both off the lex-last basis B among
the rays and d = |det B|: directly when d = 1, else by a Hermite form
modulo d.  Rays that do not span raise ``TorusFactorError`` before any
kernel work.  The constructor never computes the lattice: it checks ranks
by one ``_bareiss`` per maximal cone, whose last pivot is a k-minor of the
cone's k rays (the determinant, by a closed form, for a nonsingular square
matrix up to 4 x 4).  A pivot of +-1 sets bit k of ``_unimodular``: the cone
and its faces are unimodular.  That decides every full-dimensional cone
(the pivot is +-det), not every smaller one.

Completeness is a declared flag.  When set, necessary conditions are
enforced (rays span, maximal cones full-dimensional, each facet shared by
exactly two maximal cones, counted from prefix and suffix ANDs of each
cone's incidence masks); a full covering check of the ambient space is
deliberately out of scope.  The rays of a full-dimensional maximal cone
span, so only a fan with none eliminates all its rays again.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache, wraps
from itertools import combinations
from math import gcd
from os import PathLike
from pathlib import Path

from .errors import (DomainError, FanValidationError, ResourceLimitError, TorusFactorError,
                     _check_int, _check_iterable, _check_type, _shown, _trusted)
from .intlinalg import IntMatrix, IntVector, _bareiss, primitive, spanning_lattice

ConeRef = tuple[int, ...]

_FACE_CAP = 2**20  # most cones Fan.cones lists: all of cp1^9 or P^19, not a 21-ray cone's
_CACHE_SIZE = 128  # entries of each lru_cache keyed on a fan or a cone


def _cached(cls, name: str | None = None):
    """``lru_cache`` of ``_CACHE_SIZE`` entries on a function of one argument,
    checked to be a ``cls`` (``_check_type``) before the cache hashes it."""
    def decorate(fn):
        cached = lru_cache(maxsize=_CACHE_SIZE)(fn)
        message = f"{name or fn.__name__}: {fn.__code__.co_varnames[0]} must be a {cls.__name__}, got {{}}"
        @wraps(fn)  # and __wrapped__ is the uncached fn
        def lookup(key):
            return cached(_check_type(key, cls, message))
        lookup.cache_info, lookup.cache_clear = cached.cache_info, cached.cache_clear
        return lookup
    return decorate


@dataclass(frozen=True)
class Fan:
    lattice_rank: int
    rays: tuple[IntVector, ...]
    maximal_cones: tuple[ConeRef, ...]
    complete: bool = False
    name: str | None = field(default=None, compare=False)
    _cones = None  # not a field; see cones
    _lattice = None  # not a field; see ray_lattice

    def __post_init__(self):
        rays = _check_iterable(self.rays, "Fan: rays must be an iterable of integer vectors, "
                               "got {}", FanValidationError, item=tuple)
        cones = _check_iterable(self.maximal_cones, "Fan: maximal_cones must be an iterable of "
                                "index lists, got {}", FanValidationError, item=tuple)
        object.__setattr__(self, "rays", rays)
        object.__setattr__(self, "maximal_cones", cones)
        rank = self.lattice_rank
        _check_int(rank, "lattice_rank must be a positive integer", 1, FanValidationError)
        _check_type(self.complete, bool, "Fan: complete must be a bool, got {}", FanValidationError)
        if self.name is not None:
            _check_type(self.name, str, "Fan: name must be a str, got {}", FanValidationError)
        if not rays:
            raise FanValidationError("rays: at least one ray is required")
        # rays of exact ints only need any(v) and gcd(*v) == 1; primitive()
        # names what is wrong with any other
        exact = {type(x) for v in rays for x in v} <= {int}
        for k, v in enumerate(rays):
            if len(v) != rank:
                raise FanValidationError(
                    f"rays[{k + 1}]: expected {_shown(rank)} coordinates, got {len(v)}"
                )
            if not (exact and any(v)):
                try:
                    primitive(v)
                except DomainError as exc:
                    raise FanValidationError(f"rays[{k + 1}]: {exc}") from None
            if gcd(*v) != 1:
                raise FanValidationError(f"rays[{k + 1}]: ray {_shown(v)} is not primitive")
        if len(set(rays)) != len(rays):
            raise FanValidationError("rays: duplicate ray")
        if not cones:
            raise FanValidationError("maximal_cones: at least one cone is required")
        n = len(rays)
        star, unimodular = [0] * n, 0
        seen: set[ConeRef] = set()
        for k, cone in enumerate(cones):
            if not cone:
                raise FanValidationError(f"maximal_cones[{k + 1}]: empty cone")
            bit, last = 1 << k, -1
            for i in cone:
                if type(i) is not int or not last < i < n:
                    _check_indices(k, cone, n)  # returns only for int subclasses
                star[i] |= bit
                last = i
            if cone in seen:
                raise FanValidationError(f"maximal_cones[{k + 1}]: duplicate cone")
            seen.add(cone)
            independent, pivot = _bareiss([rays[i] for i in cone], rank)
            if independent != len(cone):
                raise FanValidationError(
                    f"maximal_cones[{k + 1}]: generators are linearly dependent "
                    "(only simplicial cones are supported)"
                )
            unimodular |= (abs(pivot) == 1) << k
        object.__setattr__(self, "_star", star)
        object.__setattr__(self, "_unimodular", unimodular)
        object.__setattr__(self, "_orbit_plans", {})  # see homogeneous._orbit_plan
        for k, a in enumerate(cones):
            others = self._holders(a) & ~(1 << k)
            if others:
                b = cones[(others & -others).bit_length() - 1]
                raise FanValidationError(
                    f"maximal_cones: cone {_one_based(a)} is contained in {_one_based(b)}"
                )
        for i, holders in enumerate(star):
            if not holders:
                raise FanValidationError(f"rays[{i + 1}]: ray is not used by any cone")
        if self.complete:
            self._check_completeness_necessary()

    def _check_completeness_necessary(self):
        n, cones, star = self.lattice_rank, self.maximal_cones, self._star
        if all(len(c) < n for c in cones) and _bareiss(self.rays, n)[0] != n:
            raise FanValidationError("complete: rays of a complete fan must span the lattice")
        for k, cone in enumerate(cones):
            if len(cone) != n:
                raise FanValidationError(
                    f"complete: maximal_cones[{k + 1}] is not full-dimensional"
                )
        # every cone has n rays: the facet without cone[j] is held by prefix
        # (rays before j) AND suffix[n - 1 - j] (rays after j), 3n ANDs a cone
        full = (1 << len(cones)) - 1
        for cone in cones:
            suffix = [full]
            for i in reversed(cone):
                suffix.append(suffix[-1] & star[i])
            prefix = full
            for j, i in enumerate(cone):
                count = (prefix & suffix[n - 1 - j]).bit_count()
                if count != 2:
                    facet = cone[:j] + cone[j + 1:]
                    raise FanValidationError(
                        f"complete: facet {_one_based(facet)} lies in {count} maximal cones, "
                        "expected exactly 2"
                    )
                prefix &= star[i]

    @property
    def n_rays(self) -> int:
        return len(self.rays)

    def ray_matrix(self) -> IntMatrix:
        """Rows are the primitive ray generators."""
        return _trusted(IntMatrix, entries=self.rays, cols=self.lattice_rank)

    def ray_lattice(self) -> tuple[IntMatrix, IntMatrix]:
        """``spanning_lattice`` of the ray matrix: its Hermite form and the
        canonical basis of the relations among the rays.  Rays that do not
        span raise ``TorusFactorError`` before any kernel work."""
        if self._lattice is None:
            lattice = spanning_lattice(self.rays, self.lattice_rank)
            if lattice is None:
                raise TorusFactorError(
                    "fan has a torus factor (rays do not span the lattice); "
                    "the homogeneous quotient presentation does not apply"
                )
            object.__setattr__(self, "_lattice", lattice)
        return self._lattice

    def _holders(self, indices) -> int:
        """Bit k is set when maximal cone k holds every listed ray."""
        mask = (1 << len(self.maximal_cones)) - 1
        for i in indices:
            mask &= self._star[i]
        return mask

    def _cone_indices(self, indices) -> tuple[tuple[int, ...], int]:
        """The ray indices sorted and deduplicated, and the mask of the
        maximal cones holding them.  One pass type- and range-checks each
        index and ANDs its mask; only indices that do not strictly increase
        are sorted."""
        idx = tuple(indices)
        n, star, last, ordered = len(self.rays), self._star, -1, True
        mask = (1 << len(self.maximal_cones)) - 1
        for i in idx:
            if type(i) is not int:
                _check_int(i, "ray index {} is not an integer", error=FanValidationError)
            if not (0 <= i < n):
                raise FanValidationError(f"ray index {_shown(i + 1)} out of range")
            mask &= star[i]
            ordered, last = ordered and i > last, i
        if not ordered:
            idx = tuple(sorted(set(idx)))
        return idx, mask

    def is_cone(self, indices) -> bool:
        """Is this ray-index set a cone of the fan (a face of a maximal cone)?"""
        indices = _check_iterable(indices, "Fan.is_cone: indices must be an iterable of ray "
                                  "indices, got {}", FanValidationError)
        return self._cone_indices(indices)[1] != 0

    def cones(self) -> tuple[ConeRef, ...]:
        """All cones of the fan: the subset closure of the maximal cones,
        sorted by dimension, then lexicographically; listed once per fan.
        One set per face size is filled and sorted natively.  Past
        ``_FACE_CAP`` faces, counted before and after each maximal cone's
        are listed, it raises ``ResourceLimitError``."""
        if self._cones is None:
            cones = self.maximal_cones
            by_size: list[set[ConeRef]] = [set() for _ in range(max(map(len, cones)) + 1)]
            for k, c in enumerate(cones):
                if 2 ** len(c) <= _FACE_CAP:
                    for r in range(len(c) + 1):
                        by_size[r].update(combinations(c, r))
                if 2 ** len(c) > _FACE_CAP or sum(map(len, by_size)) > _FACE_CAP:
                    raise ResourceLimitError(
                        f"cones: listing the faces of maximal cone {k + 1} of {len(cones)} "
                        f"({len(c)} rays, {2 ** len(c)} faces) passes the cap of {_FACE_CAP} cones"
                    )
            object.__setattr__(self, "_cones", tuple(f for faces in by_size for f in sorted(faces)))
        return self._cones


def build_fan(lattice_rank, rays, maximal_cones, complete=False, name=None) -> Fan:
    """Validate and normalize fan data (cones sorted, duplicates rejected)."""
    rays = _check_iterable(rays, "build_fan: rays must be an iterable of integer vectors, got {}",
                           FanValidationError, item=tuple)
    cones = _check_iterable(maximal_cones, "build_fan: maximal_cones must be an iterable of "
                            "index lists, got {}", FanValidationError, item=tuple)
    if not {type(i) for c in cones for i in c} <= {int}:
        cones = [_int_indices(k, c) for k, c in enumerate(cones)]
    cones = sorted(tuple(sorted(set(c))) for c in cones)
    return Fan(lattice_rank, rays, tuple(cones), bool(complete), name)


def _int_indices(k: int, cone) -> tuple:
    """Maximal cone k's indices, checked to be integers before a sort
    compares them (``True`` would pass for ray 1).  An exact ``int`` passes
    on the first, cheapest test."""
    cone = tuple(cone)
    for i in cone:
        if type(i) is not int:
            _check_int(i, f"maximal_cones[{k + 1}]: indices must be integers", error=FanValidationError)
    return cone


def _check_indices(k: int, cone: tuple, n: int) -> None:
    """Raise the first message for maximal cone k's indices, if any: one
    not an integer, then not sorted and distinct, then out of range.  The
    constructor calls this only when its scan stops, and sorts only here."""
    if tuple(sorted(set(_int_indices(k, cone)))) != cone:
        raise FanValidationError(f"maximal_cones[{k + 1}]: indices must be sorted and distinct")
    for i in cone:
        if not (0 <= i < n):
            raise FanValidationError(f"maximal_cones[{k + 1}]: ray index {_shown(i + 1)} out of range")


def _one_based(cone) -> list[int]:
    return [i + 1 for i in cone]


def fan_to_dict(fan: Fan) -> dict:
    """JSON-ready description; ray indices are 1-based in files."""
    _check_type(fan, Fan, "fan_to_dict: fan must be a Fan, got {}")
    out = {
        "lattice_rank": fan.lattice_rank,
        "rays": [list(v) for v in fan.rays],
        "maximal_cones": [_one_based(c) for c in fan.maximal_cones],
        "complete": fan.complete,
    }
    if fan.name is not None:
        out["name"] = fan.name
    return out


def fan_from_dict(data) -> Fan:
    _check_type(data, dict, "fan file must contain a JSON object", FanValidationError)
    for key in ("lattice_rank", "rays", "maximal_cones"):
        if key not in data:
            raise FanValidationError(f"{key}: missing field")
    rank = data["lattice_rank"]
    _check_int(rank, "lattice_rank: expected an integer", error=FanValidationError)
    rays, message = data["rays"], "rays: expected a list of integer vectors"
    for v in _check_type(rays, list, message, FanValidationError):
        _check_type(v, list, message, FanValidationError)
    for k, v in enumerate(rays):
        for x in v:
            _check_int(x, f"rays[{k + 1}]: entries must be integers", error=FanValidationError)
    cones_raw, message = data["maximal_cones"], "maximal_cones: expected a list of index lists"
    for c in _check_type(cones_raw, list, message, FanValidationError):
        _check_type(c, list, message, FanValidationError)
    cones = []
    for k, c in enumerate(cones_raw):
        for i in _int_indices(k, c):
            if i < 1:
                raise FanValidationError(
                    f"maximal_cones[{k + 1}]: ray indices are 1-based, got {_shown(i)}"
                )
        cones.append([i - 1 for i in c])
    complete, name = data.get("complete", False), data.get("name")
    _check_type(complete, bool, "complete: expected true or false", FanValidationError)
    if name is not None:
        _check_type(name, str, "name: expected a string", FanValidationError)
    return build_fan(rank, rays, cones, complete, name)


def load_fan(path) -> Fan:
    """Read a fan from a UTF-8 JSON file; see ``fan_to_dict`` for the
    format.  A file that is not UTF-8 or holds an integer past
    ``sys.get_int_max_str_digits()`` raises ``FanValidationError`` naming
    it; a path that cannot be read raises the ``OSError``."""
    _check_type(path, (str, PathLike), "load_fan: path must be a str or a PathLike, got {}")
    raw = Path(path).read_bytes()
    try:
        data = json.loads(raw.decode())
    except json.JSONDecodeError as exc:
        raise FanValidationError(f"invalid JSON: {exc}") from None
    except ValueError as exc:  # not UTF-8, or an integer past the digit limit
        raise FanValidationError(f"{path}: {exc}") from None
    return fan_from_dict(data)
