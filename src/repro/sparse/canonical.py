"""Translation-invariant canonicalization of subdomain geometry.

On structured decompositions, most subdomains are *translates* of one
another: interior subdomains of a 5x5 grid share the stiffness pattern, the
gluing pattern and the mesh geometry — only the absolute position differs.
Every pattern-cache key in :mod:`repro.batch` is therefore supposed to
collapse them into one group.  In practice absolute node coordinates leak
into two decisions upstream of the fingerprint:

* :func:`repro.sparse.regularization.choose_fixing_dofs` breaks distance
  ties with float jitter that differs per grid position, and
* geometric nested dissection (:mod:`repro.sparse.ordering.nested_dissection`)
  picks its bisection axis with ``argmax`` over extents whose last-ulp
  noise differs per grid position,

so translate-identical subdomains end up with different fixing DOFs and
different permutations — and fingerprint apart (observed: 5x5 grid → 25
groups despite 9 interior subdomains sharing all patterns).

The fix is a **canonical local frame**: coordinates are translated to the
bounding-box origin and quantized onto an integer lattice whose quantum is
a *relative* tolerance times the bounding-box size.  Quantized lattice
coordinates of translate-identical subdomains are bit-for-bit equal, so
every decision derived from them (ties included) is identical, and their
digest is a translation-invariant geometry key.

A second, stronger key canonicalizes *orientation* as well:
:func:`canonical_signature` minimizes the lattice over all axis
permutations and flips (the 8 symmetries of the square, 48 of the cube),
so mirror- and rotation-identical subdomains — the four corner subdomains
of a grid, say — also share a key.  That coarser key is what
:func:`repro.feti.planner.plan_population` groups by: approach pricing only
depends on patterns up to isomorphism, so reflected subdomains can share
one plan even though their exact patterns differ.

The strongest construct is :class:`CanonicalRelabeling`: an *invertible*
map of a subdomain's DOFs (and gluing columns) into the canonical
orientation frame.  Relabeled mirror-identical subdomains have bit-equal
stiffness and gluing patterns, so the whole pattern-only analysis — fixing
DOFs, fill-reducing ordering, symbolic factor, stepped permutation,
pruning plan — done once in the canonical frame serves every member, and
assembled Schur complements are mapped back to each member's original
multiplier order by the inverse.  See ``docs/batching.md`` for how
:mod:`repro.batch` threads the relabeling through its cache and the
grouped executor.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.util import require

#: Default relative quantization tolerance.  Coordinate jitter below
#: ``tolerance * bounding_box_size / 2`` cannot split a group; geometric
#: features closer together than the quantum are merged.
DEFAULT_TOLERANCE = 1e-6

#: Default relative *value* quantization used when canonicalizing matrix
#: patterns: stored entries whose magnitude is at most
#: ``value_tolerance * max|A|`` are treated as structural zeros.  The value
#: analogue of the coordinate quantum — on a uniformly triangulated square,
#: the cross-diagonal stiffness couplings cancel to 0.0 in some subdomains
#: and to ~1e-17 roundoff in others, and only the quantized pattern is
#: symmetric under the full orientation group.
DEFAULT_VALUE_TOLERANCE = 1e-12


@dataclass(frozen=True)
class CanonicalFrame:
    """A subdomain's geometry in its canonical (translation-free) frame.

    Attributes
    ----------
    origin:
        Per-axis minimum of the raw coordinates (the frame's anchor).
    quantum:
        Nominal lattice spacing in raw units (``tolerance * scale``).
    scale:
        Bounding-box size used to make the tolerance relative.
    tolerance:
        The relative tolerance the frame was built with.
    lattice:
        ``(n, d)`` integer lattice coordinates — bit-identical for
        translate-identical point sets.
    axis_quanta:
        Per-axis lattice spacings actually used.  With extent snapping
        (the default) each axis's quantum is adjusted so the axis extent
        is an *integral* number of quanta — the symmetry-aware rounding
        that keeps mirror images of the lattice bit-comparable even when
        ``extent / quantum`` is fractional.  ``None`` on frames built with
        ``snap_extents=False`` (every axis uses ``quantum``).
    """

    origin: np.ndarray
    quantum: float
    scale: float
    tolerance: float
    lattice: np.ndarray
    axis_quanta: np.ndarray | None = None

    @property
    def n_points(self) -> int:
        return self.lattice.shape[0]

    @property
    def dim(self) -> int:
        return self.lattice.shape[1]

    def coords(self) -> np.ndarray:
        """Float canonical coordinates (lattice scaled by the tolerance).

        The uniform positive scaling preserves every comparison the
        ordering/fixing heuristics make (distances, extents, ties), while
        keeping magnitudes O(1) regardless of the raw units.
        """
        return self.lattice.astype(np.float64) * self.tolerance

    def digest(self) -> str:
        """Translation-invariant hex digest of the canonical geometry."""
        h = hashlib.sha256()
        h.update(np.asarray(self.lattice.shape, dtype=np.int64).tobytes())
        h.update(b"|")
        h.update(np.ascontiguousarray(self.lattice).tobytes())
        return h.hexdigest()


def canonical_frame(
    coords: np.ndarray,
    tolerance: float = DEFAULT_TOLERANCE,
    snap_extents: bool = True,
) -> CanonicalFrame:
    """Map *coords* to their canonical local frame.

    Coordinates are shifted so the bounding-box minimum is the origin and
    rounded to an integer lattice with spacing ``tolerance * scale`` where
    *scale* is the largest bounding-box extent.  Rounding absorbs the float
    jitter a rigid translation introduces (relative error ``eps * |offset|``
    per coordinate), so two point sets that are translates of each other up
    to jitter far below the quantum produce bit-identical lattices.

    With *snap_extents* (the default), each axis's quantum is additionally
    snapped so the axis extent is an **integral** number of quanta
    (``extent / round(extent / quantum)``).  A flip maps lattice value
    ``l`` to ``N - l`` where ``N`` is the integral extent; when the raw
    extent is fractional in quanta (``N + f``), a point at ``x`` and its
    mirror image at ``extent - x`` round to values differing by the stray
    fraction ``f``, so mirror-identical subdomains used to split into
    separate conservative classes whenever their extents did not happen to
    be integral.  Snapping rescales each axis by at most ``quantum / 2``
    over the whole extent — far below what any downstream tie-break can
    observe — and is the identity (up to float noise) on lattices whose
    extents are already integral, such as uniform structured subdomains.
    """
    coords = np.asarray(coords, dtype=np.float64)
    if coords.ndim == 1:
        coords = coords[:, None]
    require(coords.ndim == 2, "coords must be (n, d)")
    require(0.0 < tolerance < 1.0, "tolerance must be in (0, 1)")
    if coords.shape[0] == 0:
        return CanonicalFrame(
            origin=np.zeros(coords.shape[1]),
            quantum=tolerance,
            scale=0.0,
            tolerance=tolerance,
            lattice=np.empty(coords.shape, dtype=np.int64),
        )
    require(np.all(np.isfinite(coords)), "coords must be finite")
    origin = coords.min(axis=0)
    rel = coords - origin
    scale = float(rel.max())
    quantum = tolerance * scale if scale > 0.0 else tolerance
    axis_quanta = None
    if snap_extents and scale > 0.0:
        extents = rel.max(axis=0)
        n_quanta = np.maximum(np.round(extents / quantum), 1.0)
        # Snap only axes at least one quantum wide: a sub-quantum extent is
        # (numerical) noise, and snapping to it would resolve that noise at
        # full precision — sub-quantum axes keep the nominal quantum so
        # jitter far below it still cannot split a class.
        axis_quanta = np.where(extents >= quantum, extents / n_quanta, quantum)
        lattice = np.round(rel / axis_quanta).astype(np.int64)
    else:
        lattice = np.round(rel / quantum).astype(np.int64)
    return CanonicalFrame(
        origin=origin,
        quantum=quantum,
        scale=scale,
        tolerance=tolerance,
        lattice=lattice,
        axis_quanta=axis_quanta,
    )


def canonical_coords(
    coords: np.ndarray, tolerance: float = DEFAULT_TOLERANCE
) -> np.ndarray:
    """Translation-invariant float coordinates (see :class:`CanonicalFrame`).

    The drop-in replacement for absolute coordinates in
    :func:`repro.sparse.regularization.choose_fixing_dofs` and
    :func:`repro.sparse.ordering.nested_dissection.nd_ordering`: any two
    translate-identical inputs yield bit-identical outputs, so argmin /
    argmax / stable-sort tie-breaks are reproduced exactly across the
    group.
    """
    return canonical_frame(coords, tolerance).coords()


def frame_digest(coords: np.ndarray, tolerance: float = DEFAULT_TOLERANCE) -> str:
    """Digest of the canonical frame — a translation-invariant geometry key."""
    return canonical_frame(coords, tolerance).digest()


def orientation_transforms(dim: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All axis permutations x sign flips of a *dim*-dimensional frame.

    The hyperoctahedral group: 8 transforms in 2-D (the dihedral symmetries
    of the square), 48 in 3-D.
    """
    require(1 <= dim <= 3, "orientation canonicalization supports dim 1..3")
    return [
        (perm, signs)
        for perm in itertools.permutations(range(dim))
        for signs in itertools.product((1, -1), repeat=dim)
    ]


def canonical_signature(
    coords: np.ndarray,
    features: np.ndarray | None = None,
    tolerance: float = DEFAULT_TOLERANCE,
    snap_extents: bool = True,
) -> str:
    """Orientation- and translation-invariant digest of labelled geometry.

    Minimizes the canonical lattice over every axis permutation and flip,
    sorting points lexicographically in each candidate orientation, and
    hashes the smallest byte string.  *features* — per-point integer labels
    such as the gluing multiplicity of each DOF — ride along in the sorted
    rows, so two subdomains share a signature exactly when some rigid
    lattice symmetry maps one labelled point set onto the other.

    This is the coarse pricing key of
    :func:`repro.feti.planner.plan_population`: the four corner subdomains
    of a structured grid are mirror images with isomorphic patterns, and
    isomorphic patterns cost the same.
    """
    frame = canonical_frame(coords, tolerance, snap_extents=snap_extents)
    lat = frame.lattice
    n, d = lat.shape
    feats = _as_features(features, n)
    best, _ = _point_set_ties(lat, feats)
    h = hashlib.sha256()
    h.update(np.asarray([n, d, feats.shape[1]], dtype=np.int64).tobytes())
    h.update(b"|")
    h.update(best)
    return h.hexdigest()


def _as_features(features: np.ndarray | None, n: int) -> np.ndarray:
    """Normalize per-point integer labels to an ``(n, k)`` int64 array."""
    if features is None:
        return np.empty((n, 0), dtype=np.int64)
    feats = np.asarray(features, dtype=np.int64)
    if feats.ndim == 1:
        feats = feats[:, None]
    require(feats.shape[0] == n, "features must have one row per point")
    return feats


def _minimal(cands, segment) -> tuple[bytes, list]:
    """Smallest ``segment(cand)`` and the candidates tying for it, in input
    order (the first is what a strict ``<`` scan would keep)."""
    best, kept = None, []
    for cand in cands:
        seg = segment(cand)
        if best is None or seg < best:
            best, kept = seg, [cand]
        elif seg == best:
            kept.append(cand)
    return best, kept


def _point_set_ties(lattice: np.ndarray, feats: np.ndarray) -> tuple[bytes, list[tuple]]:
    """Stage 1 of every orientation search: the labelled point set.

    Each axis perm/flip of *lattice* is shifted back to a zero minimum and
    its ``[pts | feats]`` rows are lexsorted (the candidate DOF order); the
    flips of one axis permutation are sorted as one stacked array.  Returns
    the smallest sorted-row bytes and, in enumeration order, the
    ``(perm, signs, order, pts)`` of each transform tying for them (``pts``
    in sorted row order).
    """
    n, d = lattice.shape
    transforms = orientation_transforms(d) if d else [((), ())]
    flips = transforms[: 2**d]
    signs = np.asarray([s for _, s in flips], dtype=np.int64).reshape(len(flips), 1, d)
    feats = np.broadcast_to(feats, (len(flips), *feats.shape))

    def oriented(perm):
        pts = lattice[:, perm] * signs
        rows = np.concatenate([pts - pts.min(axis=1, keepdims=True) if n else pts, feats], 2)
        keys = np.moveaxis(rows, 2, 0)[::-1]
        order = np.lexsort(keys) if len(keys) else np.zeros((len(flips), n), dtype=np.intp)
        rows = np.take_along_axis(rows, order[:, :, None], axis=1)
        for f, (_, flip) in enumerate(flips):
            yield rows[f].tobytes(), (perm, flip, order[f], rows[f, :, :d])

    best, ties = _minimal(
        (c for perm, _ in transforms[:: len(flips)] for c in oriented(perm)), lambda c: c[0]
    )
    return best, [tie for _, tie in ties]


def quantize_pattern(
    a: sp.spmatrix, value_tolerance: float = DEFAULT_VALUE_TOLERANCE
) -> sp.csr_matrix:
    """Stored pattern of *a* with below-tolerance entries treated as zeros.

    Entries with ``|value| <= value_tolerance * max|A|`` are dropped — the
    value analogue of the coordinate quantization above.  Needed because
    assembled stiffness matrices carry *near*-structural zeros (couplings
    that cancel analytically but evaluate to 0.0 in one subdomain and
    ~1e-17 in its translate or mirror image); only the quantized pattern is
    invariant under the rigid symmetries the relabeling searches over.
    """
    require(sp.issparse(a), "quantize_pattern needs a sparse matrix")
    out = a.tocsr().copy()
    if out.nnz:
        scale = float(np.abs(out.data).max())
        out.data[np.abs(out.data) <= value_tolerance * scale] = 0.0
        out.eliminate_zeros()
    return out


#: Relative eigen-gap of the inertia spectrum below which the PCA alignment
#: refuses to rotate: degenerate principal directions are numerically
#: arbitrary, and rotating into them would *split* classes that the
#: axis-aligned frame keeps together (an isotropic structured subdomain is
#: the common case).  Falling back to the identity is always conservative.
INERTIA_GAP_TOLERANCE = 1e-6

#: Near-match mode defaults: relative width of the logarithmic size buckets
#: (DOF / multiplier / nonzero counts) and the quantization step of the
#: dimensionless shape invariants (inertia fractions, radial histogram).
DEFAULT_NEAR_SIZE_TOLERANCE = 0.1
DEFAULT_NEAR_SHAPE_TOLERANCE = 0.35


def inertia_alignment(
    coords: np.ndarray, gap_tolerance: float = INERTIA_GAP_TOLERANCE
) -> np.ndarray | None:
    """Principal axes of the centred point cloud, or ``None`` when unstable.

    Columns of the returned ``(d, d)`` orthogonal matrix are the inertia
    eigenvectors in order of *descending* moment.  ``None`` is returned
    when any relative eigen-gap falls below *gap_tolerance* (degenerate
    spectra make the eigenvectors arbitrary — e.g. any axis-isotropic point
    set) or when the cloud has no spatial extent; callers then keep the
    axis-aligned frame.  Two congruent point clouds have identically
    degenerate spectra, so the rotate/don't-rotate decision itself is
    rotation-invariant.
    """
    coords = np.asarray(coords, dtype=np.float64)
    if coords.ndim == 1:
        coords = coords[:, None]
    n, d = coords.shape
    if n == 0 or d < 2:
        return None
    centred = coords - coords.mean(axis=0)
    cov = centred.T @ centred / n
    moments, axes = np.linalg.eigh(cov)
    order = np.argsort(moments)[::-1]
    moments = moments[order]
    axes = axes[:, order]
    top = float(moments[0])
    if top <= 0.0:
        return None
    gaps = (moments[:-1] - moments[1:]) / top
    if np.any(gaps < gap_tolerance):
        return None
    return axes


def rotation_coords(
    coords: np.ndarray, gap_tolerance: float = INERTIA_GAP_TOLERANCE
) -> tuple[np.ndarray, bool]:
    """Centred coordinates in the inertia-aligned frame.

    Returns ``(aligned, rotated)``: with a stable inertia spectrum the
    cloud is centred at its centroid and rotated onto its principal axes
    (moment-descending), so free rotations of the input produce outputs
    equal up to per-axis sign — exactly the ambiguity the downstream
    flip/permutation minimization resolves.  With a degenerate spectrum the
    input is returned unrotated (``rotated=False``).
    """
    coords = np.asarray(coords, dtype=np.float64)
    if coords.ndim == 1:
        coords = coords[:, None]
    axes = inertia_alignment(coords, gap_tolerance)
    if axes is None:
        return coords, False
    return (coords - coords.mean(axis=0)) @ axes, True


def rotation_signature(
    coords: np.ndarray,
    features: np.ndarray | None = None,
    tolerance: float = DEFAULT_TOLERANCE,
    gap_tolerance: float = INERTIA_GAP_TOLERANCE,
) -> str:
    """Rotation-, translation- and flip-invariant digest of labelled geometry.

    The PCA/inertia extension of :func:`canonical_signature`: coordinates
    are first rotated into the inertia-aligned frame (stable spectra only;
    see :func:`inertia_alignment`), then quantized and minimized over axis
    permutations and flips exactly like the axis-aligned signature — the
    lexicographic minimization doubles as the distance-multiset tie-break
    (sorted lattice rows *are* the labelled point multiset).  The quantized
    distance-from-centroid multiset is mixed into the hash as an extra
    congruence invariant.

    Two subdomains share this key exactly when a rigid motion (translation
    + free rotation + reflection) maps one quantized labelled point set
    onto the other — the signature a METIS-like decomposition needs, where
    congruent subdomains show up at arbitrary orientations.  Like the
    axis-aligned signature it is safe for *pricing* only; exact artifact
    sharing stays gated on bitwise relabeled-pattern equality.
    """
    aligned, rotated = rotation_coords(coords, gap_tolerance)
    frame = canonical_frame(aligned, tolerance)
    lat = frame.lattice
    n, d = lat.shape
    feats = _as_features(features, n)
    best, _ = _point_set_ties(lat, feats)
    centred = aligned - aligned.mean(axis=0) if n else aligned
    radii = np.linalg.norm(centred, axis=1) if n else np.empty(0)
    quantum = frame.quantum if frame.scale > 0.0 else tolerance
    radius_multiset = np.sort(np.round(radii / quantum).astype(np.int64))
    h = hashlib.sha256()
    h.update(
        np.asarray([n, d, feats.shape[1], int(rotated)], dtype=np.int64).tobytes()
    )
    h.update(b"|rot|")
    h.update(best)
    h.update(b"|")
    h.update(radius_multiset.tobytes())
    return h.hexdigest()


def log_bucket(value: float, tolerance: float) -> int:
    """Index of the logarithmic bucket of width ``1 + tolerance`` holding
    *value* (relative quantization: values within ~*tolerance* share it)."""
    if value <= 0.0:
        return -1
    return int(np.round(np.log(value) / np.log1p(tolerance)))


def near_signature(
    coords: np.ndarray,
    features: np.ndarray | None = None,
    size_tolerance: float = DEFAULT_NEAR_SIZE_TOLERANCE,
    shape_tolerance: float = DEFAULT_NEAR_SHAPE_TOLERANCE,
    radial_bins: int = 4,
) -> str:
    """Near-match pricing key: groups *approximately* congruent point sets.

    Unlike the exact signatures, nothing here is a lattice — the key is a
    vector of coarsely quantized rigid-motion invariants:

    * the point count in logarithmic buckets of relative width
      *size_tolerance* (a balanced partitioner's subdomains differ by a few
      per cent in size and must not split on that),
    * the normalized inertia moments (shape anisotropy) quantized in steps
      of *shape_tolerance*,
    * a *radial_bins*-bin histogram of centroid distances (normalized by
      the RMS radius), fractions quantized in steps of *shape_tolerance*,
    * the labelled fraction and mean label of *features* (e.g. gluing
      multiplicity), quantized likewise.

    Everything is normalized, so the key is invariant under translation,
    rotation, reflection **and scaling** — correct for pricing, where cost
    depends on pattern sizes and shapes, not on physical units.  Members of
    a near class have *similar*, not equal, patterns: use it to share
    approach plans and cost estimates across a METIS-like decomposition
    (where exact classes are almost all singletons), never to transfer
    exact pattern artifacts.  Two nearly identical subdomains straddling a
    bucket boundary may still split — the grouping is a heuristic upper
    bound on sharing, tuned by the two tolerances.
    """
    require(size_tolerance > 0.0, "size_tolerance must be > 0")
    require(shape_tolerance > 0.0, "shape_tolerance must be > 0")
    require(radial_bins >= 0, "radial_bins must be >= 0")
    coords = np.asarray(coords, dtype=np.float64)
    if coords.ndim == 1:
        coords = coords[:, None]
    n, d = coords.shape
    feats = _as_features(features, n)
    key: list[int] = [d, feats.shape[1], log_bucket(float(n), size_tolerance)]
    if n:
        centred = coords - coords.mean(axis=0)
        cov = centred.T @ centred / n
        moments = np.sort(np.linalg.eigvalsh(cov))[::-1]
        trace = float(moments.sum())
        if trace > 0.0:
            key.extend(int(np.round(m / trace / shape_tolerance)) for m in moments)
        radii = np.linalg.norm(centred, axis=1)
        rms = float(np.sqrt(np.mean(radii**2)))
        if rms > 0.0 and radial_bins:
            spread = radii / rms
            hist, _ = np.histogram(spread, bins=radial_bins, range=(0.0, 2.0))
            key.extend(int(np.round(f / shape_tolerance)) for f in hist / n)
            key.append(int(np.round(float(spread.max()) / shape_tolerance)))
        if feats.size:
            labelled = feats != 0
            key.append(
                int(np.round(float(labelled.any(axis=1).mean()) / shape_tolerance))
            )
            key.append(
                log_bucket(float(np.abs(feats).sum()) / n, size_tolerance)
            )
    h = hashlib.sha256()
    h.update(np.asarray(key, dtype=np.int64).tobytes())
    h.update(b"|near|")
    return h.hexdigest()


def _csc_entries(rows: np.ndarray, cols: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``(col, row)`` of COO entries with *n* rows, in CSC order (duplicates
    kept, as a CSC conversion keeps them)."""
    return np.divmod(np.sort(cols.astype(np.int64) * max(n, 1) + rows), max(n, 1))


def _pattern_bytes(rows: np.ndarray, cols: np.ndarray, n: int) -> bytes:
    """CSC pattern bytes (shape, indptr, indices) of an ``(n, n)`` COO pattern."""
    col, row = _csc_entries(rows, cols, n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(col, minlength=n), out=indptr[1:])
    return b"".join(
        np.asarray(arr, dtype=np.int64).tobytes() + b"|" for arr in ((n, n), indptr, row)
    )


def _canonical_columns(
    rows: np.ndarray, cols: np.ndarray, n: int, m: int
) -> tuple[np.ndarray, bytes]:
    """Canonical column order of an ``(n, m)`` COO gluing pattern with
    relabeled rows.

    Columns are sorted by ``(nnz, row-index sequence)`` — a total order that
    depends only on which *canonical* DOF slots each column touches, so two
    mirror-identical subdomains (whose relabeled row sets coincide) sort
    their columns into bit-equal patterns.  One stable ``lexsort`` over the
    nnz and the zero-padded row matrix: columns with identical patterns
    (redundant multipliers on one DOF) keep their relative order; any
    resolution of that tie yields the same pattern.  Returns the column
    permutation (canonical position ``j`` holds original column
    ``col_perm[j]``) and the key bytes (each column's big-endian rows, then
    ``;``, in canonical order).
    """
    col, row = _csc_entries(rows, cols, n)
    nnz = np.bincount(col, minlength=m)
    padded = np.zeros((m, int(nnz.max()) if m else 0), dtype=np.int64)
    padded[col, np.arange(col.size) - (np.cumsum(nnz) - nnz)[col]] = row
    col_perm = np.lexsort(np.vstack([padded.T[::-1], nnz]))
    row = row[np.argsort(_invert(col_perm)[col], kind="stable")]
    keys = np.insert(row.astype(">i8").view(np.uint8), np.cumsum(8 * nnz[col_perm]), ord(";"))
    return col_perm, keys.tobytes()


def _invert(perm: np.ndarray) -> np.ndarray:
    inverse = np.empty(perm.size, dtype=np.intp)
    inverse[perm] = np.arange(perm.size, dtype=np.intp)
    return inverse


@dataclass(frozen=True)
class CanonicalRelabeling:
    """Invertible map of one subdomain into its canonical orientation frame.

    Chosen by minimizing, over every axis permutation and flip of the
    canonical lattice, the byte string of the labelled point set, the
    relabeled (quantized) stiffness pattern, and the canonical gluing
    column keys — so two subdomains share a ``signature`` exactly when some
    rigid lattice symmetry maps one labelled structure onto the other, and
    equal signatures guarantee bit-equal *relabeled* patterns.

    Conventions (all "canonical ← original"):

    * ``dof_perm[k]`` is the original DOF sitting at canonical slot ``k``;
      ``apply_matrix``/``apply_bt``/``apply_vector`` reindex rows with it.
    * ``col_perm[j]`` is the original gluing column at canonical column
      ``j``; :meth:`unapply_sc` undoes it on an assembled Schur complement.

    Attributes
    ----------
    signature:
        Orientation-canonical class digest (the shared-artifact cache key
        component; see :func:`repro.batch.fingerprint.factor_fingerprint`).
    axis_perm / axis_signs:
        The minimizing axis permutation and flips.
    dof_perm / col_perm:
        The DOF and gluing-column relabelings (canonical ← original).
    lattice:
        ``(n, d)`` canonical-oriented integer lattice in relabeled row
        order — the geometry every decision in the canonical frame sees.
    tolerance / value_tolerance:
        The coordinate and value quanta the relabeling was built with.
    """

    signature: str
    axis_perm: tuple[int, ...]
    axis_signs: tuple[int, ...]
    dof_perm: np.ndarray
    col_perm: np.ndarray
    lattice: np.ndarray
    tolerance: float
    value_tolerance: float

    def __post_init__(self) -> None:
        require(
            np.array_equal(np.sort(self.dof_perm), np.arange(self.dof_perm.size)),
            "dof_perm must be a permutation",
        )
        require(
            np.array_equal(np.sort(self.col_perm), np.arange(self.col_perm.size)),
            "col_perm must be a permutation",
        )
        require(
            self.lattice.shape[0] == self.dof_perm.size,
            "lattice must have one row per DOF",
        )

    @property
    def n_dofs(self) -> int:
        return int(self.dof_perm.size)

    @property
    def n_cols(self) -> int:
        return int(self.col_perm.size)

    @property
    def is_identity(self) -> bool:
        """True when both relabelings are the identity (already canonical)."""
        n, m = self.n_dofs, self.n_cols
        return bool(
            np.array_equal(self.dof_perm, np.arange(n))
            and np.array_equal(self.col_perm, np.arange(m))
        )

    def dof_inverse(self) -> np.ndarray:
        """``dof_inverse()[i]`` is the canonical slot of original DOF *i*."""
        return _invert(self.dof_perm)

    def col_inverse(self) -> np.ndarray:
        """``col_inverse()[j]`` is the canonical position of original column *j*."""
        return _invert(self.col_perm)

    def coords(self) -> np.ndarray:
        """Float canonical coordinates (relabeled row order, O(1) magnitude).

        The drop-in replacement for the subdomain's coordinates inside the
        canonical-frame factorization: bit-identical across every member of
        the canonical class, so fixing-DOF and ordering decisions coincide.
        """
        return self.lattice.astype(np.float64) * self.tolerance

    def apply_matrix(self, k: sp.spmatrix, quantize: bool = True) -> sp.csr_matrix:
        """Relabel a DOF-indexed square matrix into the canonical frame.

        With *quantize* (default) below-tolerance entries are dropped first
        (:func:`quantize_pattern`) so the relabeled pattern matches the one
        the signature minimized over — required for exact sharing.
        """
        require(sp.issparse(k), "k must be sparse")
        require(k.shape == (self.n_dofs, self.n_dofs), "k shape mismatch")
        kk = quantize_pattern(k, self.value_tolerance) if quantize else k.tocsr()
        return kk[self.dof_perm][:, self.dof_perm].tocsr()

    def apply_bt(self, bt: sp.spmatrix) -> sp.csc_matrix:
        """Relabel a gluing matrix: canonical DOF rows, canonical columns."""
        require(sp.issparse(bt), "bt must be sparse")
        require(bt.shape == (self.n_dofs, self.n_cols), "bt shape mismatch")
        return bt.tocsr()[self.dof_perm].tocsc()[:, self.col_perm]

    def apply_vector(self, v: np.ndarray) -> np.ndarray:
        """Reindex a DOF vector into the canonical frame."""
        return np.asarray(v)[self.dof_perm]

    def unapply_vector(self, v: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`apply_vector`."""
        v = np.asarray(v)
        out = np.empty_like(v)
        out[self.dof_perm] = v
        return out

    def unapply_sc(self, f: np.ndarray) -> np.ndarray:
        """Map an assembled SC from canonical back to original column order.

        The exact inverse of assembling against ``bt[:, col_perm]``: entry
        ``(i, j)`` of the canonical result describes the original multiplier
        pair ``(col_perm[i], col_perm[j])``.  A pure host-side reindex — the
        values are untouched, so the result is bit-equal to assembling the
        un-relabeled columns up to kernel association order.
        """
        f = np.asarray(f)
        m = self.n_cols
        require(f.shape == (m, m), "f must be (n_cols, n_cols)")
        out = np.empty_like(f)
        out[np.ix_(self.col_perm, self.col_perm)] = f
        return out


def canonical_relabeling(
    coords: np.ndarray,
    k: sp.spmatrix | None = None,
    bt: sp.spmatrix | None = None,
    tolerance: float = DEFAULT_TOLERANCE,
    value_tolerance: float = DEFAULT_VALUE_TOLERANCE,
    rotations: bool = False,
) -> CanonicalRelabeling:
    """Build the :class:`CanonicalRelabeling` of one subdomain.

    Enumerates every orientation transform of the canonical lattice and
    picks the one minimizing the concatenated byte string of

    1. the lexsorted labelled point set (coordinates + per-DOF gluing
       multiplicity — the :func:`canonical_signature` candidate),
    2. the relabeled pattern of the quantized stiffness *k* (when given —
       triangulated meshes have adjacency the point set alone cannot see),
    3. the canonical gluing-column keys of *bt* (when given).

    The minimum is the class representative: members of one canonical class
    relabel onto bit-equal structures, members of different classes cannot
    collide.  DOFs that remain indistinguishable (same lattice point, same
    labels — e.g. vector components at one node) keep their original
    relative order, which can conservatively split a class but never
    corrupts results: sharing is gated downstream by the *exact* relabeled
    fingerprint.

    Exactness caveat: flips act on the *quantized* lattice, so two mirror
    images relabel onto bit-equal structures only when the lattice itself
    is mirror-symmetric — the extent snapping of :func:`canonical_frame`
    guarantees integral per-axis extents, so the remaining conservative
    splits come from points landing exactly between lattice sites.

    With *rotations* the lattice is built in the inertia-aligned frame
    (:func:`rotation_coords`) before the orientation search, extending the
    canonical classes from axis permutations/flips to free rotations —
    congruent subdomains of a METIS-like decomposition relabel together
    regardless of orientation.  Point sets with degenerate inertia spectra
    (structured boxes) keep the axis-aligned frame, so the option is safe
    to leave on for mixed populations; it defaults to off because the two
    modes emit different signature namespaces.
    """
    coords = np.asarray(coords, dtype=np.float64)
    if coords.ndim == 1:
        coords = coords[:, None]
    rotated = False
    if rotations:
        coords, rotated = rotation_coords(coords)
    frame = canonical_frame(coords, tolerance)
    lat = frame.lattice
    n, d = lat.shape
    multiplicity = None
    kq = None
    btr = None
    if bt is not None:
        require(sp.issparse(bt), "bt must be sparse")
        require(bt.shape[0] == n, "bt must have one row per DOF")
        btr = bt.tocsr().tocoo()
        multiplicity = np.bincount(btr.row, minlength=n).astype(np.int64)
    if k is not None:
        require(sp.issparse(k), "k must be sparse")
        require(k.shape == (n, n), "k must be square with one row per DOF")
        kq = quantize_pattern(k, value_tolerance).tocoo()
    feats = _as_features(multiplicity, n)

    # Staged search: the point-set, K-pattern and column-key segments each
    # have one length for every transform, so the minimum of their
    # concatenation is decided segment by segment, and only the transforms
    # still tied pay for the next one.
    cand, ties = _point_set_ties(lat, feats)
    if kq is not None:

        def k_segment(tie):
            inverse = _invert(tie[2])
            return _pattern_bytes(inverse[kq.row], inverse[kq.col], n)

        k_bytes, ties = _minimal(ties, k_segment)
        cand += b"#" + k_bytes
    col_perm = np.empty(0, dtype=np.intp)
    if btr is not None:

        def columns(tie):
            return _canonical_columns(_invert(tie[2])[btr.row], btr.col, n, btr.shape[1])

        _, ties = _minimal(ties, lambda tie: columns(tie)[1])
        col_perm, col_bytes = columns(ties[0])
        cand += b"#" + col_bytes
    axis_perm, axis_signs, dof_perm, lattice = ties[0]
    h = hashlib.sha256()
    h.update(
        np.asarray(
            [
                n,
                d,
                feats.shape[1],
                int(k is not None),
                int(bt is not None),
                # Namespace the rotated frame: identical lattices reached
                # with and without inertia alignment are different classes.
                int(rotations) + int(rotated),
            ],
            dtype=np.int64,
        ).tobytes()
    )
    h.update(b"|")
    h.update(cand)
    return CanonicalRelabeling(
        signature=h.hexdigest(),
        axis_perm=tuple(int(p) for p in axis_perm),
        axis_signs=tuple(int(s) for s in axis_signs),
        dof_perm=dof_perm.copy(),
        col_perm=col_perm,
        lattice=lattice.copy(),
        tolerance=tolerance,
        value_tolerance=value_tolerance,
    )


# ---------------------------------------------------------------------------
# Union patterns: padded exact execution of near-congruent members
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UnionEmbedding:
    """Injective index maps embedding one member into a union pattern.

    ``rows[i]`` is the union row holding member row *i* and ``cols[j]`` the
    union column holding member multiplier *j*.  The construction used by
    :func:`union_plan` is the identity prefix — member index *i* maps to
    union index *i* — which keeps the maps trivially injective and makes
    the inverse a plain leading slice, but the extraction below only relies
    on injectivity, so tests can exercise arbitrary embeddings.
    """

    rows: np.ndarray
    cols: np.ndarray

    def __post_init__(self) -> None:
        for name, arr in (("rows", self.rows), ("cols", self.cols)):
            require(
                np.unique(np.asarray(arr)).size == np.asarray(arr).size,
                f"embedding {name} must be injective",
            )

    @property
    def n_rows(self) -> int:
        return int(np.asarray(self.rows).size)

    @property
    def n_cols(self) -> int:
        return int(np.asarray(self.cols).size)

    def extract_sc(self, f_union: np.ndarray) -> np.ndarray:
        """Member Schur complement out of a union-shaped SC.

        The exact inverse of the padded assembly: padding columns carry
        structural zeros through TRSM/SYRK, so the member's ``(m, m)``
        block is bit-equal to what the unpadded assembly of that member
        would have produced (up to kernel association order).
        """
        f_union = np.asarray(f_union)
        require(
            f_union.ndim == 2 and f_union.shape[0] == f_union.shape[1],
            "f_union must be square",
        )
        cols = np.asarray(self.cols, dtype=np.intp)
        return np.ascontiguousarray(f_union[np.ix_(cols, cols)])


@dataclass(frozen=True)
class PatternUnion:
    """Structural union of several same-role sparse patterns.

    The shared CSC pattern (``indptr``/``indices``) holds every entry any
    member stores, in canonical sorted order; ``scatters[g]`` maps member
    *g*'s stored entries (canonical CSC entry order) to their positions in
    the union's entry order, so packing a member into the union is one
    vectorized scatter.  Members embed with the identity prefix: member
    row/column *i* is union row/column *i*.
    """

    shape: tuple[int, int]
    indptr: np.ndarray
    indices: np.ndarray
    scatters: tuple[np.ndarray, ...]
    member_shapes: tuple[tuple[int, int], ...]

    @property
    def nnz(self) -> int:
        """Stored entries of the union pattern."""
        return int(self.indices.shape[0])

    @property
    def group(self) -> int:
        """Number of members the union was built from."""
        return len(self.scatters)

    def entry_columns(self) -> np.ndarray:
        """Column index of every stored entry (CSC expansion of ``indptr``)."""
        return np.repeat(np.arange(self.shape[1], dtype=np.intp), np.diff(self.indptr))

    def pattern_csc(self) -> sp.csc_matrix:
        """The union pattern as an all-ones CSC matrix (for the pattern-only
        analysis: stepped permutation, pruning plan, cost estimate)."""
        return sp.csc_matrix(
            (
                np.ones(self.nnz, dtype=np.float64),
                self.indices.copy(),
                self.indptr.copy(),
            ),
            shape=self.shape,
        )


def pattern_union(
    mats: list[sp.spmatrix],
    shape: tuple[int, int],
    force_diagonal: bool = False,
) -> PatternUnion:
    """Union the stored patterns of *mats* inside a common *shape*.

    Every member must fit the union shape (identity-prefix embedding:
    member entry ``(i, j)`` lands at union ``(i, j)``).  With
    *force_diagonal* the full main diagonal of the union shape is added
    even where no member stores it — the factor-union case, where padded
    members get an identity block and the batched triangular solves need
    every diagonal entry present.
    """
    require(len(mats) >= 1, "need at least one matrix to union")
    rows_u, cols_u = int(shape[0]), int(shape[1])
    keys_per: list[np.ndarray] = []
    member_shapes: list[tuple[int, int]] = []
    for g, m in enumerate(mats):
        require(sp.issparse(m), f"member {g}: must be sparse")
        mc = m.tocsc()
        if not mc.has_canonical_format:
            mc = mc.copy()
            mc.sum_duplicates()
        require(
            mc.shape[0] <= rows_u and mc.shape[1] <= cols_u,
            f"member {g}: shape {mc.shape} exceeds union shape {shape}",
        )
        cols = np.repeat(
            np.arange(mc.shape[1], dtype=np.int64), np.diff(mc.indptr)
        )
        keys_per.append(cols * rows_u + mc.indices.astype(np.int64))
        member_shapes.append((int(mc.shape[0]), int(mc.shape[1])))
    all_keys = np.concatenate(keys_per)
    if force_diagonal:
        diag = np.arange(min(rows_u, cols_u), dtype=np.int64)
        all_keys = np.concatenate([all_keys, diag * rows_u + diag])
    # Sorted unique (col, row) keys ARE canonical CSC entry order: ascending
    # column-major with rows sorted within each column.
    union_keys = np.unique(all_keys)
    scatters = tuple(
        np.searchsorted(union_keys, k).astype(np.intp) for k in keys_per
    )
    union_cols = (union_keys // rows_u).astype(np.intp)
    indptr = np.zeros(cols_u + 1, dtype=np.intp)
    np.cumsum(np.bincount(union_cols, minlength=cols_u), out=indptr[1:])
    return PatternUnion(
        shape=(rows_u, cols_u),
        indptr=indptr,
        indices=(union_keys % rows_u).astype(np.intp),
        scatters=scatters,
        member_shapes=tuple(member_shapes),
    )


@dataclass(frozen=True)
class UnionPlan:
    """Everything the batched path needs to execute one near class padded.

    ``l_union`` is the structural union of the members' factor patterns
    (square at the largest member order, diagonal forced so the padded
    identity block exists); ``bt_union`` the union of the permuted gluing
    patterns at ``(n_max, m_max)``.  ``embeddings[g]`` maps member *g*'s
    rows/multipliers into the union frame (identity prefix), and the two
    nnz totals price the padding: ``padded_nnz`` is what the batched run
    stores and streams, ``member_nnz`` what the members would store
    per-member — their ratio is the fill the union trades for one launch
    per kernel step (see :attr:`fill_ratio` and the engine's
    ``union_fill_cap`` guard).
    """

    l_union: PatternUnion
    bt_union: PatternUnion
    embeddings: tuple[UnionEmbedding, ...]
    padded_nnz: float
    member_nnz: float

    @property
    def group(self) -> int:
        return len(self.embeddings)

    @property
    def shape(self) -> tuple[int, int]:
        """The padded per-member problem shape ``(n_max, m_max)``."""
        return self.bt_union.shape

    @property
    def fill_ratio(self) -> float:
        """Padded stored entries over exact stored entries (>= 1.0)."""
        return self.padded_nnz / self.member_nnz if self.member_nnz else 1.0


def union_plan(
    l_mats: list[sp.spmatrix], bt_mats: list[sp.spmatrix]
) -> UnionPlan:
    """Build the padded-execution plan of one near class.

    *l_mats* are the members' (lower-triangular) factor matrices, *bt_mats*
    their row-permuted gluing matrices ``bt[perm][:, col_perm]`` — the same
    objects the exact grouped path stacks, except their patterns (and even
    shapes) may differ.  Every member embeds at the identity prefix of the
    ``(n_max, n_max)`` / ``(n_max, m_max)`` union, so the padded stacked
    factor is ``[[L, 0], [0, I]]`` and the padded RHS ``[[X], [0]]``:
    forward substitution and the Gram product then reproduce the member's
    exact Schur complement in the leading ``(m, m)`` block, with the
    padding contributing structural zeros only — values are never
    approximated.
    """
    require(
        len(l_mats) == len(bt_mats) and len(l_mats) >= 1,
        "need matching non-empty factor and gluing lists",
    )
    n_max = max(int(l.shape[0]) for l in l_mats)
    m_max = max(int(b.shape[1]) for b in bt_mats)
    for g, (l, b) in enumerate(zip(l_mats, bt_mats)):
        require(
            l.shape[0] == l.shape[1], f"member {g}: factor must be square"
        )
        require(
            b.shape[0] == l.shape[0],
            f"member {g}: gluing rows must match factor order",
        )
    l_union = pattern_union(l_mats, (n_max, n_max), force_diagonal=True)
    bt_union = pattern_union(bt_mats, (n_max, m_max))
    embeddings = tuple(
        UnionEmbedding(
            rows=np.arange(int(l.shape[0]), dtype=np.intp),
            cols=np.arange(int(b.shape[1]), dtype=np.intp),
        )
        for l, b in zip(l_mats, bt_mats)
    )
    g = len(l_mats)
    member_nnz = float(
        sum(s.size for s in l_union.scatters)
        + sum(s.size for s in bt_union.scatters)
    )
    padded_nnz = float(g * (l_union.nnz + bt_union.nnz))
    return UnionPlan(
        l_union=l_union,
        bt_union=bt_union,
        embeddings=embeddings,
        padded_nnz=padded_nnz,
        member_nnz=member_nnz,
    )


__all__ = [
    "DEFAULT_TOLERANCE",
    "DEFAULT_VALUE_TOLERANCE",
    "DEFAULT_NEAR_SIZE_TOLERANCE",
    "DEFAULT_NEAR_SHAPE_TOLERANCE",
    "INERTIA_GAP_TOLERANCE",
    "CanonicalFrame",
    "CanonicalRelabeling",
    "canonical_frame",
    "canonical_coords",
    "canonical_relabeling",
    "frame_digest",
    "inertia_alignment",
    "log_bucket",
    "near_signature",
    "orientation_transforms",
    "canonical_signature",
    "rotation_coords",
    "rotation_signature",
    "quantize_pattern",
    "PatternUnion",
    "UnionEmbedding",
    "UnionPlan",
    "pattern_union",
    "union_plan",
]
