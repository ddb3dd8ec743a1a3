"""Canonical relabeling: invertibility under every rigid symmetry, and
exact artifact sharing across mirror classes.

The contract under test (see ``docs/batching.md``): for each of the 8 axis
perm/flip symmetries of the square, ``CanonicalRelabeling`` composed with
its inverse is the identity on DOFs, matrices and gluing columns; members
of one mirror class relabel onto bit-equal patterns, share one executed
batch group, and their un-relabeled Schur complements match per-member
assembly at tight tolerance.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch import (
    BatchAssembler,
    factor_fingerprint,
    subdomain_fingerprint,
)
from repro.batch.engine import items_from_decomposition
from repro.core import SchurAssembler, default_config
from repro.dd import decompose
from repro.fem import heat_transfer_2d
from repro.feti.operator import factorize_subdomain
from repro.feti.planner import plan_population
from repro.sparse import (
    CanonicalRelabeling,
    canonical_frame,
    canonical_relabeling,
    canonical_signature,
    orientation_transforms,
    quantize_pattern,
    rotation_coords,
)
from tests.conftest import grid_coords, laplacian_2d

RTOL, ATOL = 1e-9, 1e-10

#: Dyadic offsets keep translated coordinates exact in floating point.
OFFSETS = st.integers(min_value=-64, max_value=64)

SYMMETRIES_2D = orientation_transforms(2)


def _labelled_problem(nx: int = 5, ny: int = 3, seed: int = 0):
    """Grid coordinates, a geometric stiffness and a one-entry-per-column
    gluing matrix whose multiplicities break the point-set symmetry enough
    to make the relabeling non-trivial.

    The 5x3 extents (4 and 2) divide the canonical quantum count exactly,
    so the quantized lattice is bit-symmetric under every flip — the
    regime where orientation canonicalization is exact (see
    :mod:`repro.sparse.canonical`); non-integral extents split classes
    conservatively instead.
    """
    coords = grid_coords(nx, ny).astype(np.float64)
    n = coords.shape[0]
    k = laplacian_2d(nx, ny).tocsr()
    rng = np.random.default_rng(seed)
    glued = rng.permutation(n)[: n // 2]
    cols = []
    for d in glued:
        col = np.zeros(n)
        col[d] = 1.0 if rng.random() < 0.5 else -1.0
        cols.append(col)
    bt = sp.csc_matrix(np.column_stack(cols)) if cols else sp.csc_matrix((n, 0))
    return coords, k, bt


@pytest.mark.parametrize("perm,signs", SYMMETRIES_2D)
@settings(max_examples=12, deadline=None)
@given(dx=OFFSETS, dy=OFFSETS)
def test_property_relabeling_roundtrip_all_symmetries(perm, signs, dx, dy):
    """apply ∘ unapply is the identity on DOFs, matrices, gluing columns and
    Schur complements, for coordinates under every axis perm/flip."""
    coords, k, bt = _labelled_problem()
    moved = coords[:, perm] * np.asarray(signs, dtype=np.float64) + np.array(
        [dx, dy], dtype=np.float64
    )
    rel = canonical_relabeling(moved, k=k, bt=bt)
    assert isinstance(rel, CanonicalRelabeling)
    n, m = rel.n_dofs, rel.n_cols
    assert (n, m) == bt.shape

    # DOF vector roundtrip.
    v = np.arange(n, dtype=np.float64)
    assert np.array_equal(rel.unapply_vector(rel.apply_vector(v)), v)
    assert np.array_equal(rel.dof_perm[rel.dof_inverse()], np.arange(n))
    assert np.array_equal(rel.col_perm[rel.col_inverse()], np.arange(m))

    # Matrix roundtrip (no quantization so values survive bit-for-bit).
    k_c = rel.apply_matrix(k, quantize=False)
    k_back = k_c.tocsr()[rel.dof_inverse()][:, rel.dof_inverse()]
    assert (k_back != k).nnz == 0

    # Gluing roundtrip on rows *and* columns.
    bt_c = rel.apply_bt(bt)
    bt_back = bt_c.tocsr()[rel.dof_inverse()].tocsc()[:, rel.col_inverse()]
    assert (bt_back != bt).nnz == 0

    # SC roundtrip: unapply_sc inverts the column relabeling exactly.
    f = np.arange(m * m, dtype=np.float64).reshape(m, m)
    f = f + f.T
    f_can = f[np.ix_(rel.col_perm, rel.col_perm)]
    assert np.array_equal(rel.unapply_sc(f_can), f)


@settings(max_examples=10, deadline=None)
@given(
    transform=st.sampled_from(SYMMETRIES_2D),
    dx=OFFSETS,
    dy=OFFSETS,
)
def test_property_signature_invariant_under_symmetries(transform, dx, dy):
    """The relabeling signature is one orientation-canonical class key:
    invariant under every rigid symmetry of the labelled point set."""
    perm, signs = transform
    coords, _, bt = _labelled_problem()
    base = canonical_relabeling(coords, bt=bt)
    moved = coords[:, perm] * np.asarray(signs, dtype=np.float64) + np.array(
        [dx, dy], dtype=np.float64
    )
    rel = canonical_relabeling(moved, bt=bt)
    assert rel.signature == base.signature
    # The relabeled gluing patterns coincide bit-for-bit.
    a, b = base.apply_bt(bt).tocsc(), rel.apply_bt(bt).tocsc()
    a.sort_indices(), b.sort_indices()
    assert np.array_equal(a.indptr, b.indptr)
    assert np.array_equal(a.indices, b.indices)


def test_quantize_pattern_drops_only_below_tolerance():
    a = sp.csr_matrix(np.array([[2.0, 1e-17], [1e-17, 1.0]]))
    q = quantize_pattern(a)
    assert q.nnz == 2 and np.array_equal(q.toarray(), np.diag([2.0, 1.0]))
    exact = quantize_pattern(a, value_tolerance=0.0)
    assert exact.nnz == 4  # zero tolerance keeps the tiny entries
    assert quantize_pattern(sp.csr_matrix((3, 3))).nnz == 0
    with pytest.raises(ValueError, match="sparse"):
        quantize_pattern(np.eye(2))


def test_relabeling_validates_shapes():
    coords, k, bt = _labelled_problem()
    rel = canonical_relabeling(coords, k=k, bt=bt)
    with pytest.raises(ValueError, match="shape mismatch"):
        rel.apply_matrix(sp.eye(3, format="csr"))
    with pytest.raises(ValueError, match="shape mismatch"):
        rel.apply_bt(sp.csc_matrix((3, 1)))
    with pytest.raises(ValueError, match="n_cols"):
        rel.unapply_sc(np.zeros((3, 3)))
    with pytest.raises(ValueError, match="one row per DOF"):
        canonical_relabeling(coords[:-1], bt=bt)


# ---------------------------------------------------------------------------
# mirror classes on a real decomposition: shared artifacts, allclose SCs
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def floating_3x3():
    problem = heat_transfer_2d(12, dirichlet=())
    return decompose(problem, grid=(3, 3))


def test_mirror_members_share_canonical_fingerprints(floating_3x3):
    dec = floating_3x3
    subs = dec.subdomains
    rels = [canonical_relabeling(s.coords, k=s.k, bt=s.bt) for s in subs]
    # Corner subdomains 0/2/6/8 form one canonical class, edges another.
    corner_sigs = {rels[i].signature for i in (0, 2, 6, 8)}
    edge_sigs = {rels[i].signature for i in (1, 3, 5, 7)}
    assert len(corner_sigs) == 1 and len(edge_sigs) == 1
    assert corner_sigs != edge_sigs != {rels[4].signature}

    # subdomain_fingerprint emits the same canonical-class key...
    corner_keys = {
        subdomain_fingerprint(subs[i].k, subs[i].bt, relabeling=rels[i]).key
        for i in (0, 2, 6, 8)
    }
    assert len(corner_keys) == 1
    # ...where the raw key tells the corners apart.
    raw_keys = {subdomain_fingerprint(subs[i].k, subs[i].bt).key for i in (0, 2, 6, 8)}
    assert len(raw_keys) == 4

    # Canonical-frame factors of one class share pattern; factor_fingerprint
    # with the relabeling collides, without it stays apart.
    factors = [
        factorize_subdomain(subs[i], relabeling=rels[i]) for i in (0, 2, 6, 8)
    ]
    canon = {
        factor_fingerprint(f, subs[i].bt, relabeling=rels[i]).key
        for f, i in zip(factors, (0, 2, 6, 8))
    }
    exact = {
        factor_fingerprint(f, subs[i].bt).key for f, i in zip(factors, (0, 2, 6, 8))
    }
    assert len(canon) == 1 and len(exact) == 4


def test_canonical_factor_solves_the_subdomain(floating_3x3):
    """The canonical-frame factor (perm composed back to original DOFs) is a
    genuine factorization of the canonically regularized subdomain matrix:
    K x = b residuals stay small on the regularized operator's range."""
    sub = floating_3x3.subdomains[0]
    rel = canonical_relabeling(sub.coords, k=sub.k, bt=sub.bt)
    factor = factorize_subdomain(sub, relabeling=rel)
    rng = np.random.default_rng(0)
    b = rng.standard_normal(sub.n_dofs)
    x = factor.solve(b)
    # factor.solve applies K_reg^{-1}; verify against the explicitly
    # reconstructed regularized matrix in the canonical frame.
    from repro.sparse import choose_fixing_dofs, regularize

    k_c = rel.apply_matrix(sub.k)
    fixing = choose_fixing_dofs(k_c, sub.kernel_dim, coords=rel.coords())
    k_reg_c = regularize(k_c, fixing)
    k_reg = k_reg_c.tocsr()[rel.dof_inverse()][:, rel.dof_inverse()]
    assert np.allclose(k_reg @ x, b, atol=1e-8 * max(1.0, np.abs(b).max()))


def test_mirror_classes_execute_as_shared_groups(floating_3x3):
    """The ISSUE acceptance property at 3x3 scale: mirror-class members run
    through one stacked group and their un-relabeled SCs match per-member
    assembly."""
    items = items_from_decomposition(floating_3x3)
    cfg = default_config("gpu", 2)
    batch = BatchAssembler(config=cfg).assemble_batch(items, execution="grouped")
    assert batch.stats.n_groups == 3 and batch.stats.n_exact_groups == 9
    assert batch.stats.n_grouped == 9
    assert len(batch.stats.group_launches) == 3
    ref = SchurAssembler(config=cfg)
    for it, res in zip(items, batch.results):
        expect = ref.assemble(it.factor, it.bt).f
        scale = max(1.0, float(np.abs(expect).max(initial=0.0)))
        assert np.allclose(res.f, expect, rtol=RTOL, atol=ATOL * scale)


def test_mirror_classes_share_in_3d():
    """Kuhn-tetrahedra adjacency is not symmetric under all 48 transforms,
    but the quantized-K-aware minimizer still collapses the 8 octants of a
    floating 2x2x2 decomposition into one canonical group — with SCs
    matching per-member assembly."""
    from repro.fem import heat_transfer_3d

    problem = heat_transfer_3d(6, dirichlet=())
    dec = decompose(problem, grid=(2, 2, 2))
    items = items_from_decomposition(dec)
    cfg = default_config("gpu", 3)
    batch = BatchAssembler(config=cfg).assemble_batch(items, execution="grouped")
    assert batch.stats.n_exact_groups == 8
    assert batch.stats.n_groups == 1
    assert batch.stats.n_grouped == 8
    ref = SchurAssembler(config=cfg)
    for it, res in zip(items, batch.results):
        expect = ref.assemble(it.factor, it.bt).f
        scale = max(1.0, float(np.abs(expect).max(initial=0.0)))
        assert np.allclose(res.f, expect, rtol=RTOL, atol=ATOL * scale)


def test_plan_population_accepts_relabelings(floating_3x3):
    items = items_from_decomposition(floating_3x3)
    members = [(it.factor, it.bt) for it in items]
    rels = [it.relabeling for it in items]
    pop = plan_population(members, dim=2, expected_iterations=30, relabelings=rels)
    assert pop.n_groups == 3
    geo = plan_population(
        members,
        dim=2,
        expected_iterations=30,
        coords=[it.coords for it in items],
    )
    assert [pop.chosen_for(i) for i in range(9)] == [
        geo.chosen_for(i) for i in range(9)
    ]
    with pytest.raises(ValueError, match="one entry"):
        plan_population(members, dim=2, expected_iterations=30, relabelings=rels[:-1])


def test_items_from_decomposition_canonicalize_flag(floating_3x3):
    canonical = items_from_decomposition(floating_3x3)
    plain = items_from_decomposition(floating_3x3, canonicalize=False)
    assert all(it.relabeling is not None for it in canonical)
    assert all(it.relabeling is None for it in plain)
    batch = BatchAssembler(config=default_config("gpu", 2)).assemble_batch(
        plain, execute=False
    )
    assert batch.stats.n_groups == batch.stats.n_exact_groups == 9
    assert batch.stats.mirrors_shared == 0


# ---------------------------------------------------------------------------
# staged search == brute-force search, bit for bit
# ---------------------------------------------------------------------------


def _reference_relabeling(coords, k=None, bt=None, rotations=False):
    """The brute-force orientation search the staged one must reproduce.

    Builds the whole candidate byte string — sorted labelled point set,
    relabeled quantized K pattern (SciPy fancy indexing), gluing-column
    keys (one Python sort key per column) — for every transform and keeps
    the first strict minimum.  Returns ``(signature, axis_perm, axis_signs,
    dof_perm, col_perm, lattice)``.
    """
    coords = np.asarray(coords, dtype=np.float64)
    rotated = False
    if rotations:
        coords, rotated = rotation_coords(coords)
    lat = canonical_frame(coords).lattice
    n, d = lat.shape
    btr = None if bt is None else bt.tocsr()
    feats = np.empty((n, 0), dtype=np.int64)
    if btr is not None:
        feats = btr.getnnz(axis=1).astype(np.int64)[:, None]
    kq = None if k is None else quantize_pattern(k)
    best = None
    for perm, signs in orientation_transforms(d):
        pts = lat[:, perm] * np.asarray(signs, dtype=np.int64)
        pts = pts - pts.min(axis=0)
        rows = np.concatenate([pts, feats], axis=1)
        order = np.lexsort(rows.T[::-1])
        cand = rows[order].tobytes()
        col_perm = np.empty(0, dtype=np.intp)
        if kq is not None:
            kc = kq[order][:, order].tocsc()
            kc.sort_indices()
            cand += b"#" + b"".join(
                np.asarray(a, dtype=np.int64).tobytes() + b"|"
                for a in (kc.shape, kc.indptr, kc.indices)
            )
        if btr is not None:
            bc = btr[order].tocsc()
            bc.sort_indices()
            keys = [
                bc.indices[bc.indptr[j] : bc.indptr[j + 1]].astype(">i8").tobytes()
                for j in range(bc.shape[1])
            ]
            col_perm = np.asarray(
                sorted(range(len(keys)), key=lambda j: (len(keys[j]), keys[j])),
                dtype=np.intp,
            )
            cand += b"#" + b"".join(keys[j] + b";" for j in col_perm)
        if best is None or cand < best[0]:
            best = (cand, perm, signs, order, col_perm, pts[order])
    cand, *found = best
    header = [n, d, feats.shape[1], k is not None, bt is not None, rotations + rotated]
    h = hashlib.sha256(np.asarray(header, dtype=np.int64).tobytes() + b"|" + cand)
    return (h.hexdigest(), *found)


def _reference_signature(coords, feats):
    """Brute-force :func:`canonical_signature`: hash of the smallest sorted
    labelled point set over every transform."""
    lat = canonical_frame(coords).lattice
    n, d = lat.shape
    cands = []
    for perm, signs in orientation_transforms(d):
        pts = lat[:, perm] * np.asarray(signs, dtype=np.int64)
        rows = np.concatenate([pts - pts.min(axis=0), feats[:, None]], axis=1)
        cands.append(rows[np.lexsort(rows.T[::-1])].tobytes())
    header = np.asarray([n, d, 1], dtype=np.int64).tobytes()
    return hashlib.sha256(header + b"|" + min(cands)).hexdigest()


def _assert_matches_reference(coords, k, bt):
    for kw in (
        {"k": k, "bt": bt},
        {"k": k, "bt": bt, "rotations": True},
        {"k": k},
        {"bt": bt},
        {},
    ):
        rel = canonical_relabeling(coords, **kw)
        sig, perm, signs, dof_perm, col_perm, lattice = _reference_relabeling(
            coords, **kw
        )
        assert rel.signature == sig, sorted(kw)
        assert (rel.axis_perm, rel.axis_signs) == (perm, signs), sorted(kw)
        assert np.array_equal(rel.dof_perm, dof_perm), sorted(kw)
        assert np.array_equal(rel.col_perm, col_perm), sorted(kw)
        assert np.array_equal(rel.lattice, lattice), sorted(kw)
    feats = bt.tocsr().getnnz(axis=1)
    assert canonical_signature(coords, feats) == _reference_signature(coords, feats)


def _decomposed(scenario):
    from repro.fem import heat_problem, heat_transfer_3d
    from repro.part import MESH_ZOO, make_mesh

    if scenario == "cube-3x3x3":
        return decompose(heat_transfer_3d(6, dirichlet=()), grid=(3, 3, 3)).subdomains
    if scenario.startswith("square-"):
        g = int(scenario[-1])
        return decompose(heat_transfer_2d(2 * g, dirichlet=()), grid=(g, g)).subdomains
    if scenario == "jittered-rcb16":
        mesh = make_mesh("jittered", 12, seed=3)
        return decompose(
            heat_problem(mesh, dirichlet=()), n_subdomains=16, partitioner="rcb"
        ).subdomains
    assert scenario == "mesh-zoo"
    subs = []
    for name, (dim, _) in sorted(MESH_ZOO.items()):
        mesh = make_mesh(name, 3 if dim == 3 else 8, seed=1)
        subs += decompose(
            heat_problem(mesh, dirichlet=()), n_subdomains=4, partitioner="rcb"
        ).subdomains
    return subs


SCENARIOS = ["cube-3x3x3", "square-6", "square-5", "jittered-rcb16", "mesh-zoo"]


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_staged_search_matches_brute_force(scenario):
    """Signature, axis perm/signs, DOF and column relabelings and lattice
    equal the brute-force search on every subdomain of the decomposition,
    with and without rotations and with *k* / *bt* omitted."""
    for sub in _decomposed(scenario):
        _assert_matches_reference(sub.coords, sub.k, sub.bt)


def _interleaved_elasticity(nx, seed):
    """2-D elasticity with two DOFs per node (coincident lattice points) and
    a random signed one-entry-per-column gluing matrix."""
    from repro.fem import assemble_elasticity, unit_square_mesh

    mesh = unit_square_mesh(nx)
    k = assemble_elasticity(mesh)
    n = k.shape[0]
    rng = np.random.default_rng(seed)
    m = n // 2
    bt = sp.csc_matrix(
        (rng.choice([-1.0, 1.0], m), (rng.integers(0, n, m), np.arange(m))),
        shape=(n, m),
    )
    return np.repeat(mesh.coords, 2, axis=0), k, bt


@pytest.mark.parametrize("seed", range(4))
def test_staged_search_matches_brute_force_interleaved_dofs(seed):
    _assert_matches_reference(*_interleaved_elasticity(3, seed))


@pytest.mark.parametrize("seed", range(6))
def test_staged_search_matches_brute_force_moved_inputs(seed):
    """Randomly permuted, mirrored, axis-swapped and translated copies of
    subdomains (DOFs and gluing columns shuffled too)."""
    rng = np.random.default_rng(seed)
    scenario = SCENARIOS[seed % len(SCENARIOS)]
    subs = _decomposed(scenario)
    inputs = [(s.coords, s.k, s.bt) for s in subs[:: max(1, len(subs) // 4)]]
    inputs.append(_interleaved_elasticity(2, seed))
    for coords, k, bt in inputs:
        n, d = coords.shape
        p = rng.permutation(n)
        moved = coords[p][:, rng.permutation(d)] * rng.choice([-1.0, 1.0], d)
        moved = moved + rng.integers(-64, 65, d)
        bt_moved = bt.tocsr()[p].tocsc()[:, rng.permutation(bt.shape[1])]
        _assert_matches_reference(moved, k.tocsr()[p][:, p], bt_moved)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 12),
    d=st.integers(1, 3),
    m=st.integers(0, 8),
)
def test_staged_search_matches_brute_force_random_patterns(seed, n, d, m):
    """Coarse random point sets (coincident points, many tied transforms),
    non-symmetric K patterns and gluing columns with several entries."""
    rng = np.random.default_rng(seed)
    coords = rng.integers(0, 3, size=(n, d)).astype(np.float64)
    k = sp.random(n, n, density=0.3, random_state=rng, format="csr")
    bt = sp.random(n, m, density=0.4, random_state=rng, format="csc")
    _assert_matches_reference(coords, k, bt)


def test_staged_search_index_keys_do_not_wrap():
    """Column-major ``col * n + row`` keys exceed int32 when ``n * m`` does;
    SciPy's int32 COO indices must not wrap them."""
    n = m = 50_000
    rng = np.random.default_rng(0)
    rows = rng.integers(0, n, 64)
    cols = np.concatenate([rng.integers(0, m, 62), [m - 1, m - 2]])
    bt = sp.csc_matrix((np.ones(64), (rows, cols)), shape=(n, m))
    assert bt.tocoo().col.dtype == np.int32
    coords = rng.integers(0, 1000, n).astype(np.float64)[:, None]
    rel = canonical_relabeling(coords, bt=bt)
    sig, _, _, dof_perm, col_perm, _ = _reference_relabeling(coords, bt=bt)
    assert rel.signature == sig
    assert np.array_equal(rel.dof_perm, dof_perm)
    assert np.array_equal(rel.col_perm, col_perm)


#: Sorted ``(signature, members)`` of the floating 12^3 cube split 3x3x3 —
#: the input of the ``assemble-3d`` benchmark.  The signature is a pattern-
#: cache and artifact-store key component: a change here orphans stored
#: artifacts and splits cache classes.
CUBE_SIGNATURES = [
    ("19634cf7938e76ff7fc1da77d146d2d5a1df36c6eae68a9768d4095aae81eeef", 6),
    ("1fdaf67b4c1d0a53874f6a8262f5d499d6e7213417a10403c93428262c2e56ed", 12),
    ("6b820f2e6e32aa3aab2327f79eab29066653e8c797a7dc6838fb95b5d324e9d9", 1),
    ("e4dcf7cedcb9638e3d4b909da9e61267eedc316887090f77bb03beb4a59a104e", 8),
]


def test_cube_signatures_pinned():
    from collections import Counter

    from repro.fem import heat_transfer_3d

    dec = decompose(heat_transfer_3d(12, dirichlet=()), grid=(3, 3, 3))
    sigs = Counter(
        canonical_relabeling(s.coords, k=s.k, bt=s.bt).signature
        for s in dec.subdomains
    )
    assert sorted(sigs.items()) == CUBE_SIGNATURES
