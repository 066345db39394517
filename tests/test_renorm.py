"""Renormalization estimates and renormalized solves."""

import hashlib

import numpy as np
import pytest

from fraclap import cli, geometry, measures, renorm
from fraclap.errors import AssemblyError, SolveError, UsageError
from fraclap.geometry import build_level, embed, predicted_vertices
from fraclap.graphs import _apply_elements, graph_laplacian
from fraclap.measures import (
    _LOAD_MEASURE,
    MeasureKind,
    VertexWeights,
    _elements,
    _load,
    _masses,
    fd_graph_stiffness,
    fem_area_stiffness,
    fem_edge_stiffness,
    load_vector,
    vertex_weights,
)
from fraclap.meshfile import write_table
from fraclap.renorm import (
    RenormEstimate,
    auto_constant,
    default_estimate_pair,
    estimate_energy_ratio,
    estimate_laplacian_ratio,
    renormalize,
    solve_online,
)
from fraclap.solver import (
    BACKWARD_ERROR_BOUND,
    Solution,
    partition,
    solve_condensed,
    solve_dirichlet,
)

SQRT3 = np.sqrt(3.0)


# -- estimators ------------------------------------------------------------------

def test_laplacian_ratio_sierpinski():
    est = estimate_laplacian_ratio("sierpinski", 3)
    assert est.level_pair == (3, 4)
    assert est.direction == "fine_over_coarse"
    assert est.excluded_count == 0
    assert abs(est.max - 5.0) <= 1e-3
    assert abs(est.mean - 5.0) <= 1e-3


def test_energy_ratio_sierpinski():
    est = estimate_energy_ratio("sierpinski", 3, "graph_energy")
    assert abs(est.mean - 5.0 / 3.0) <= 1e-3
    assert abs(est.max - est.min) <= 1e-3 * est.mean


def test_fem_ratios_sierpinski():
    for form in ("fem_edge", "fem_area"):
        est = estimate_energy_ratio("sierpinski", 4, form)
        assert abs(est.mean - 1.25) <= 1e-3, form


def test_fem_edge_ratio_koch():
    est = estimate_energy_ratio("koch", 3, "fem_edge")
    assert abs(est.mean - 16.0 / 9.0) <= 1e-3


def test_fem_edge_ratio_hata():
    est = estimate_energy_ratio("hata2d", 3, "fem_edge")
    assert abs(est.mean - 5.0 / 3.0) <= 1e-3


def test_hata_fd_ratios_positive_and_finite():
    est = estimate_laplacian_ratio("hata2d", 2)
    assert np.isfinite(est.ratios).all()
    assert est.min > 0.0


def test_hata3d_fd_positive_and_stable():
    a = estimate_laplacian_ratio("hata3d", 2)
    b = estimate_laplacian_ratio("hata3d", 3)
    assert a.min > 0.0 and b.min > 0.0
    assert abs(a.mean - b.mean) < 0.5


# renorm means from elements taken from coordinates, before a built level
# took one element per level; pairs first:first+len.  The forward error of
# the ratio grows about 8x per level on Koch, and the largest move measured
# is 4.7e-7 relative, at Koch 8:9.
COORDINATE_ELEMENT_MEANS = {
    ("koch", "fem_edge", 3): [1.7777777777776267, 1.7777777777778765, 1.7777777777257842,
                              1.7777777780336814, 1.777777791158215, 1.7777780205116476],
    ("hata2d", "fem_edge", 3): [1.6666666666667962, 1.666666666668849, 1.6666666666215604,
                                1.6666666668452792],
    ("sierpinski", "fem_area", 4): [1.2499999999999816, 1.249999999999938, 1.2500000000002742,
                                    1.2499999999961295, 1.2499999999700193],
    ("hata3d", "fem_edge", 3): [2.0002643847091095, 2.0000418150392996, 2.000006808246049],
}


@pytest.mark.parametrize("family, formulation, first", list(COORDINATE_ELEMENT_MEANS))
def test_level_elements_keep_the_renorm_means(family, formulation, first):
    for n, mean in enumerate(COORDINATE_ELEMENT_MEANS[family, formulation, first], first):
        est = estimate_energy_ratio(family, n, formulation)
        assert abs(est.mean - mean) <= 1e-6 * mean, (n, est.mean)


# sha256 of write_table output over the level pairs a:b, recorded with the
# geometric ``embed`` as the estimator's coarse-to-fine map.  Like
# SOLUTION_FILE_DIGESTS they hold the bits of the condensation's BLAS
# products on the OpenBLAS kernel that recorded them (SkylakeX); another
# kernel sums in another order (ROADMAP item 1).
RENORM_TABLE_DIGESTS = {
    ("sierpinski", "fd", 3, 7): "c37ee2569d50cc741312ea2fb60cbf9895bd9b20b9346ff99143ab3067fe3ea6",
    ("sierpinski", "fem_area", 3, 6):
        "65096973e53bd97c98b2425a784dce7e5a5335401902584e5f57fcdba5ad7d86",
    ("sierpinski", "graph_energy", 3, 6):
        "501d9f7fa7aa440355c3c3ae0bdaba34d32133827a0337eeaef3a5af8e9f8ad7",
    ("koch", "fem_edge", 3, 7): "526b2b6819d6ef8e74a460a46d081f445a10427d9d5ec1473c9f387de927b1c6",
    ("hata2d", "fd", 2, 5): "375ae73d1deeeb8ae917125252edbee9e5b0b9f672311a17ecf745023daa0f48",
    ("hata3d", "fem_edge", 2, 5):
        "2dfa7078dc98a768a14f7b0b00c6608f7ff63d1c00c1c681d0c0d7d56e28b699",
}


@pytest.mark.parametrize("family, formulation, a, b", list(RENORM_TABLE_DIGESTS))
def test_renorm_tables_are_byte_identical(tmp_path, family, formulation, a, b):
    path = tmp_path / "renorm.csv"
    write_table([estimate_laplacian_ratio(family, n) if formulation == "fd"
                 else estimate_energy_ratio(family, n, formulation)
                 for n in range(a, b)], path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == RENORM_TABLE_DIGESTS[family, formulation, a, b]


def test_koch_fem_edge_mean_at_level_8_is_16_ninths():
    # forward error of the condensation: 6.0e-7 from 16/9 with the Schur
    # diagonal formed by subtraction, 2.2e-15 with it set from the row sums
    assert abs(estimate_energy_ratio("koch", 8, "fem_edge").mean - 16.0 / 9.0) <= 1e-12


# -- the estimator against the two-level path --------------------------------------

def _reference_model_solution(mesh, formulation):
    """The un-normalized model solution on a built level (unit data, zero
    boundary data), solved by the condensation on the whole level."""
    elements, local = _elements(mesh, formulation)
    load = _load(mesh, formulation, np.ones(mesh.num_vertices))
    zero = {int(i): 0.0 for i in mesh.boundary_indices}
    return solve_condensed(mesh, elements, local, load, zero).values


def _first_places(glue):
    """Two arrays: the first ``(child, child vertex)`` in ``glue`` of each level-1 vertex."""
    return np.divmod(np.unique(glue, return_index=True)[1], glue.shape[1])


def _corner_reader(table, family, height):
    """``read(s)``: the V0 of the copies ``s`` (a slice) ``height`` levels
    above the leaves of a built level of ``family``, one strided read of its
    copy table ``table`` per column.  Copies meet only at images of V0: a
    copy's vertex ``s`` is vertex ``k`` of child ``i`` for ``s``'s first
    place ``(i, k)`` (``_first_places``), and so on down to a leaf."""
    glue = geometry._structure(family)[1]
    (m, nb), step = glue.shape, 1
    child, vertex = (c[:nb] for c in _first_places(glue))
    offsets, positions = np.zeros(nb, np.int64), np.arange(nb)
    for _ in range(height):
        offsets, positions, step = child * step + offsets[vertex], positions[vertex], step * m
    return lambda s: np.column_stack([table[s.start * step + o:s.stop * step:step, k]
                                      for o, k in zip(offsets.tolist(), positions.tolist())])


def _reference_ratios(family, n, formulation):
    """``(ratios, excluded, den, num)`` of the pair ``(n, n + 1)`` by the
    two-level path: both levels built and solved, the coarse-to-fine map
    read off their copy tables (the corner reader one level above the fine
    leaves), the two solutions ``den`` and ``num`` gathered at the coarse
    interior vertices, and the ratios kept by ``DENOMINATOR_GUARD``."""
    coarse, fine = build_level(family, n), build_level(family, n + 1)
    z_c, z_f = (_reference_model_solution(mesh, formulation) for mesh in (coarse, fine))
    table = geometry._copy_table(coarse)
    index_map = np.full(coarse.num_vertices, -1)
    index_map[table] = _corner_reader(geometry._copy_table(fine), family, 1)(
        slice(0, len(table)))
    interior = coarse.interior_indices
    den, num = z_c[interior], z_f[index_map[interior]]
    keep = np.abs(den) >= renorm.DENOMINATOR_GUARD * np.abs(z_c).max()
    return num[keep] / den[keep], int(interior.size - keep.sum()), den, num


def _assert_estimates_match_the_reference(family, formulation, a, b):
    for n, est in enumerate(renorm._estimates(family, a, b, formulation), a):
        ratios, excluded, den, num = _reference_ratios(family, n, formulation)
        # the model values themselves, not only their ratios: a factor
        # common to both levels would cancel in these
        for level, values in ((n, den), (n + 1, num)):
            assert renorm._model_values(family, n, level, formulation).tobytes() == (
                values.tobytes()), (n, level)
        assert est.level_pair == (n, n + 1)
        assert est.ratios.tobytes() == ratios.tobytes(), n
        lo, hi = ratios.min(), ratios.max()
        assert (est.max, est.min, est.excluded_count) == (hi, lo, excluded), n
        assert est.mean == min(max(ratios.mean(), lo), hi), n


# the largest coarse level of the tier-1 pairs, and the top admitted pair's
_BIT_LEVELS = {"sierpinski": (9, 13), "koch": (7, 10), "hata2d": (6, 8), "hata3d": (5, 7)}
_FORMULATIONS = [(family, formulation) for family in geometry.FAMILIES
                 for formulation in ("fd", "graph_energy", "fem_edge", "fem_area")
                 if formulation != "fem_area" or family == "sierpinski"]


@pytest.mark.parametrize("family, formulation", _FORMULATIONS)
def test_estimates_are_bit_identical_to_the_two_level_path(family, formulation):
    # every pair from (1, 2) up: 90 pairs over the 13 family x formulation pairs
    _assert_estimates_match_the_reference(family, formulation, 1, _BIT_LEVELS[family][0] + 1)


@pytest.mark.deep
@pytest.mark.parametrize("family, formulation", _FORMULATIONS)
def test_top_pair_estimates_are_bit_identical_to_the_two_level_path(family, formulation):
    top = _BIT_LEVELS[family][1]
    assert geometry._largest_level(family) == top + 1
    _assert_estimates_match_the_reference(family, formulation, top, top + 1)


def _v1_load(family, level, formulation):
    """The model load (unit data) of ``build_level(family, level)`` at the
    vertices of V1 outside V0, summed on V1 (each child a seed) with the
    level's one mass element."""
    seed, glue, _ = geometry._structure(family)
    nb, nv1 = glue.shape[1], int(glue.max()) + 1
    if formulation == "fd":
        return np.ones(nv1 - nb)
    _, mass = _masses(build_level(family, level), _LOAD_MEASURE[formulation])
    assert mass.strides[0] == 0  # one element on the whole level
    p = mass.shape[1]
    rows = glue[:, geometry._element_rows(seed, p)].reshape(-1, p)
    load = _apply_elements(rows, mass[0], np.ones(nv1))[nb:]
    return 0.5 * load if formulation == "fem_edge" else load


def _assert_new_vertices_take_the_v1_load(family, formulation, top):
    # a vertex new in a copy of any depth lies in as many elements of the
    # level as in V1, so its load is the V1 row, bit for bit
    for n in range(1, top + 1):
        mesh = build_level(family, n)
        load = _load(mesh, formulation, np.ones(mesh.num_vertices))
        row = _v1_load(family, n, formulation)
        for walk, places in geometry._copy_starts(family, n):
            first = np.concatenate([first for _, _, first in walk])
            new, copies = first[:, None] + places, len(first)
            assert load[new].tobytes() == np.tile(row, (copies, 1)).tobytes(), (n, copies)


@pytest.mark.parametrize("family, formulation", _FORMULATIONS)
def test_new_vertices_of_every_copy_take_the_v1_load(family, formulation):
    # built levels 1-8 as admitted; the deep suite runs the rest
    _assert_new_vertices_take_the_v1_load(family, formulation, min(8, _BIT_LEVELS[family][0] + 1))


@pytest.mark.deep
@pytest.mark.parametrize("family, formulation",
                         [case for case in _FORMULATIONS if case[0] in ("hata2d", "hata3d")])
def test_new_vertices_of_every_copy_take_the_v1_load_up_to_level_8(family, formulation):
    _assert_new_vertices_take_the_v1_load(family, formulation, 8)


# -- refusals of the estimator ---------------------------------------------------------

def test_estimate_refuses_the_first_level_past_the_vertex_bound():
    with pytest.raises(UsageError, match="sierpinski level 15 would exceed"):
        estimate_laplacian_ratio("sierpinski", 15)


@pytest.mark.deep
def test_estimates_refuse_a_level_past_the_vertex_bound_when_they_reach_it():
    estimates = renorm._estimates("sierpinski", 13, 16, "fd")
    assert next(estimates).level_pair == (13, 14)
    with pytest.raises(UsageError, match="sierpinski level 15 would exceed"):
        next(estimates)


def test_fem_area_estimate_on_a_family_without_cells_names_the_cells():
    with pytest.raises(AssemblyError, match=r"^area formulation requires a mesh with cells$"):
        estimate_energy_ratio("koch", 2, "fem_area")


def test_a_singular_depth_block_is_refused(monkeypatch, tmp_path, capsys):
    # a zero edge element leaves every interior block zero
    monkeypatch.setattr(measures, "_EDGE_ELEMENT", np.zeros((2, 2)))
    with pytest.raises(SolveError, match=r"^singular interior block$"):
        estimate_laplacian_ratio("sierpinski", 2)
    argv = ["renorm", "--family", "koch", "--method", "fem-edge", "--levels", "1:3"]
    assert cli.main([*argv, "--out", str(tmp_path / "renorm.csv")]) == 3
    assert capsys.readouterr().err == "numerical failure: singular interior block\n"
    assert not (tmp_path / "renorm.csv").exists()


def _level_3_values(family, method, constant, n):
    """The renormalized solution of g = 1, zero boundary data at level n, at
    the level-3 vertices, through the embeddings of consecutive levels."""
    mesh = build_level(family, n)
    u = solve_online(family, n, method, constant, np.ones(mesh.num_vertices), _zero_bc(mesh)).values
    idx = np.arange(build_level(family, 3).num_vertices)
    for k in range(3, n):
        idx = embed(build_level(family, k), build_level(family, k + 1)).index_map[idx]
    return u[idx]


# Exactly self-similar pairs: with the exact constant the renormalized
# solution at the level-3 vertices is the same at every level.  Measured
# drift from level 3 at the top level: 4.3e-11 (Sierpinski) to 5.3e-7 (Koch
# rfem1d) with the Schur diagonal formed by subtraction, at most 8.3e-16 with
# it set from the row sums.  The deep cases run at the largest allowed
# levels, outside tier-1 (``pytest -m deep``).
@pytest.mark.parametrize("family, method, constant, top", [
    ("sierpinski", "rfd", 5.0, 10), ("sierpinski", "rfem1d", 5 / 4, 10),
    ("sierpinski", "rfem2d", 5 / 4, 10), ("koch", "rfd", 16.0, 9),
    ("koch", "rfem1d", 16 / 9, 9), ("hata2d", "rfem1d", 5 / 3, 8),
    *(pytest.param(*case, marks=pytest.mark.deep) for case in [
        ("sierpinski", "rfd", 5.0, 14), ("koch", "rfd", 16.0, 11),
        ("koch", "rfem1d", 16 / 9, 11), ("hata2d", "rfem1d", 5 / 3, 9),
    ]),
])
def test_self_similar_solution_does_not_drift_with_the_level(family, method, constant, top):
    coarse = _level_3_values(family, method, constant, 3)
    fine = _level_3_values(family, method, constant, top)
    assert np.abs(fine - coarse).max() <= 1e-12 * np.abs(coarse).max()


@pytest.mark.deep
def test_harmonic_solution_keeps_the_maximum_principle_at_hata3d_level_8():
    mesh = build_level("hata3d", 8)
    h = _zero_bc(mesh, [0.0, 1.0])
    u = solve_online("hata3d", 8, "rfd", 3.0, np.zeros(mesh.num_vertices), h).values
    assert [u[i] for i in h] == list(h.values())
    assert 0.0 <= u.min() and u.max() <= 1.0


def test_estimate_statistics_ordering():
    est = estimate_laplacian_ratio("hata2d", 2)
    assert est.max >= est.mean >= est.min
    # near-equal ratios: their rounded mean exceeded their max by 3 ulp
    est = estimate_energy_ratio("sierpinski", 3, "fem_area")
    assert est.max >= est.mean >= est.min


def test_results_cannot_be_made_writable():
    # each is a view of a read-only owner, on which numpy refuses the write
    # flag: a write through it would change a result that another caller holds
    mesh = build_level("sierpinski", 3)
    h = _zero_bc(mesh)
    results = [
        solve_online("sierpinski", 3, "rfd", 5.0, np.ones(mesh.num_vertices), h).values,
        estimate_laplacian_ratio("sierpinski", 2).ratios,
        embed(build_level("sierpinski", 2), mesh).index_map,
        vertex_weights(mesh, MeasureKind.SELF_SIMILAR).weights,
    ]
    for k, values in enumerate(results):
        assert not values.flags.writeable, k
        with pytest.raises(ValueError):
            values.setflags(write=True)


@pytest.mark.parametrize("wrap, name, value", [
    (lambda x: Solution(x, 0, 0.0), "values", 5.0),
    (lambda x: VertexWeights(x, MeasureKind.SELF_SIMILAR, 0), "weights", 7.0),
    (lambda x: RenormEstimate((1, 2), x), "ratios", 9.0),
], ids=["Solution", "VertexWeights", "RenormEstimate"])
def test_a_result_keeps_its_own_copy_of_a_caller_array(wrap, name, value):
    # the caller's array set writable again and written changes nothing in
    # the result; an array whose owner is already read-only is kept as it is
    x = np.zeros(3)
    kept = getattr(wrap(x), name)
    x.setflags(write=True)
    x[0] = value
    assert kept.tolist() == [0.0, 0.0, 0.0] and not kept.flags.writeable
    x.setflags(write=False)
    assert np.shares_memory(getattr(wrap(x[1:]), name), x)


def test_estimate_requires_level_one():
    with pytest.raises(UsageError):
        estimate_laplacian_ratio("sierpinski", 0)


@pytest.mark.parametrize("formulation", ["fd", "fem_area"])
def test_estimates_let_go_of_the_coarse_level_before_the_fine_solve(builds_nothing,
                                                                    formulation):
    # no level is built for an estimate, so none is held past its pair
    assert len(list(renorm._estimates("sierpinski", 2, 5, formulation))) == 3


@pytest.mark.parametrize("method", renorm.SOLVE_METHODS)
def test_auto_constant_builds_no_level(builds_nothing, method):
    for family in geometry.FAMILIES if method != "rfem2d" else ["sierpinski"]:
        for level in (1, 2, 6):
            assert np.isfinite(auto_constant(family, method, level)[0])


_ADMITTED = [(family, formulation) for family in geometry.FAMILIES
             for formulation in ("fd", "graph_energy", "fem_edge", "fem_area")
             if formulation != "fem_area" or family == "sierpinski"]


def _counting_distances(monkeypatch):
    """The point arrays that ``geometry._distance_blocks`` measures from
    now on: every edge length is measured by it, whole arrays too."""
    distances, measured = geometry._distance_blocks, []

    def counting(p, i, j):
        measured.append(p)
        return distances(p, i, j)

    monkeypatch.setattr(geometry, "_distance_blocks", counting)
    return measured


def _assert_estimates_measure_no_edge(monkeypatch, family, formulation):
    # no level is built: the seed's edges are the only ones measured
    measured = _counting_distances(monkeypatch)
    assert len(list(renorm._estimates(family, 1, 4, formulation))) == 3
    assert geometry._LEVELS.get((family, 4)) is None
    seed = geometry._structure(family)[0]
    assert all(p is seed.vertices for p in measured)


@pytest.mark.parametrize("family", geometry.FAMILIES)
def test_fd_estimates_measure_no_edge(monkeypatch, refines, family):
    # the fd elements and load take no length; the level store starts empty
    # (``refines``)
    _assert_estimates_measure_no_edge(monkeypatch, family, "fd")


@pytest.mark.parametrize("family, formulation", [case for case in _ADMITTED if case[1] != "fd"])
def test_weak_form_estimates_measure_no_edge(monkeypatch, refines, family, formulation):
    # the elements and loads of a level come from its structure
    # (``measures._level_forms``), so no level's edges are measured either
    _assert_estimates_measure_no_edge(monkeypatch, family, formulation)


def test_estimate_rejects_unknown_formulation():
    with pytest.raises(UsageError):
        estimate_energy_ratio("sierpinski", 2, "spectral")


def test_fem_area_estimate_requires_cells():
    with pytest.raises(AssemblyError):
        estimate_energy_ratio("koch", 2, "fem_area")


def test_reciprocity_between_fd_and_energy():
    # the two model problems differ only by the measure factor per level
    for n in (3, 4, 5):
        q = estimate_laplacian_ratio("sierpinski", n).mean
        r = estimate_energy_ratio("sierpinski", n, "graph_energy").mean
        assert abs(q / 3.0 - r) <= 1e-6


def test_level_stability():
    cases = [
        ("sierpinski", "fd", (3, 4)),
        ("sierpinski", "graph_energy", (3, 4)),
        ("sierpinski", "fem_edge", (4, 5)),
        ("sierpinski", "fem_area", (4, 5)),
        ("koch", "fem_edge", (3, 4)),
        ("hata2d", "fem_edge", (3, 4)),
    ]
    for family, form, (n1, n2) in cases:
        if form == "fd":
            a = estimate_laplacian_ratio(family, n1).mean
            b = estimate_laplacian_ratio(family, n2).mean
        else:
            a = estimate_energy_ratio(family, n1, form).mean
            b = estimate_energy_ratio(family, n2, form).mean
        assert abs(a - b) <= 1e-3, (family, form)


def test_ratio_field_constancy_on_sierpinski():
    for n in (3, 4, 5):
        est = estimate_laplacian_ratio("sierpinski", n)
        assert est.max - est.min <= 1e-3 * est.mean


def test_scaling_neutrality():
    # multiplying the operator by a constant at both levels cancels exactly
    family, n, form = "sierpinski", 2, "fem_edge"
    coarse, fine = build_level(family, n), build_level(family, n + 1)
    emb = embed(coarse, fine)
    ratios = {}
    for c in (1.0, 7.5):
        zs = []
        for mesh in (coarse, fine):
            elements, local = _elements(mesh, form)
            load = _load(mesh, form, np.ones(mesh.num_vertices))
            zero = {int(i): 0.0 for i in mesh.boundary_indices}
            zs.append(solve_condensed(mesh, elements, local * c, load, zero).values)
        interior = coarse.interior_indices
        ratios[c] = zs[1][emb.index_map[interior]] / zs[0][interior]
    np.testing.assert_allclose(ratios[7.5], ratios[1.0], rtol=1e-12)


def test_denominator_guard_excludes_near_zeros(monkeypatch):
    def model_values(family, n, level, formulation):
        return np.array([1.0, 1e-20, 2.0, 0.5]) if level == n else np.ones(4)

    monkeypatch.setattr(renorm, "_model_values", model_values)
    est = estimate_laplacian_ratio("sierpinski", 2)
    assert est.excluded_count == 1
    assert est.ratios.tolist() == [1.0, 0.5, 2.0]


# -- renormalize --------------------------------------------------------------------

def test_renormalize_identity_constant():
    stiff = fd_graph_stiffness(build_level("sierpinski", 2))
    out = renormalize(stiff, 1.0, 2)
    np.testing.assert_array_equal(out.data, stiff.data)


def test_renormalize_scales_entries():
    stiff = fd_graph_stiffness(build_level("sierpinski", 2))
    out = renormalize(stiff, 5.0, 2)
    np.testing.assert_allclose(out.data, 25.0 * stiff.data, rtol=1e-15)
    np.testing.assert_array_equal(out.data, stiff.data * 25.0)


def test_renormalized_edge_stiffness_relation():
    # constant 5/4 on the edge stiffness equals (5/2)^n times the Laplacian
    n = 3
    m = build_level("sierpinski", n)
    out = renormalize(fem_edge_stiffness(m), 1.25, n)
    lap = graph_laplacian(m) * 2.5**n
    gap = np.abs(out.toarray() - lap.toarray()).max()
    assert gap <= 1e-12 * np.abs(out.data).max()


def test_renormalize_rejects_nonpositive_constant():
    stiff = fd_graph_stiffness(build_level("koch", 1))
    with pytest.raises(UsageError):
        renormalize(stiff, 0.0, 1)


@pytest.mark.parametrize("constant, n", [
    (1e300, 3),     # constant**n overflows
    (1e-300, 3),    # constant**n underflows to zero
    (np.inf, 3),
    (np.inf, 0),    # inf**0 == 1, but the constant itself is not finite
    (1e154, 2),     # 1e308 is finite, the scaled degree-4 entries are not
])
def test_renormalize_rejects_unrepresentable_scaling(constant, n):
    stiff = fd_graph_stiffness(build_level("sierpinski", 3))
    with pytest.raises(UsageError, match="finite"):
        renormalize(stiff, constant, n)


@pytest.mark.parametrize("n, message", [
    (2.5, "level must be an integer"),   # int(n) once scaled it by 2**2
    (True, "level must be an integer"),  # and this by 2**1
    (-1, "level must be nonnegative"),
])
def test_renormalize_takes_its_level_by_the_one_level_rule(n, message):
    stiff = fd_graph_stiffness(build_level("koch", 1))
    with pytest.raises(UsageError, match=message):
        renormalize(stiff, 2.0, n)
    assert renormalize(stiff, 2.0, np.int64(2)).data.tobytes() == (4.0 * stiff.data).tobytes()


# -- solve_online ----------------------------------------------------------------------

@pytest.mark.parametrize("family, method", [
    (family, method) for family, formulation in _ADMITTED
    for method, f in renorm._METHOD_FORMULATION.items() if f == formulation
])
def test_solve_online_measures_no_edge(monkeypatch, refines, family, method):
    # the elements and the load of a built level come from its structure
    # (``measures._level``): no edge of the level is measured; the level is
    # built by this test alone (``refines``), so nothing was cached on it
    mesh = build_level(family, 4)
    measured = _counting_distances(monkeypatch)
    solve_online(family, 4, method, 5.0, np.ones(mesh.num_vertices), _zero_bc(mesh))
    assert not any(p is mesh.vertices for p in measured)


@pytest.mark.parametrize("constant", [1e300, 1e-300, np.inf])
def test_solve_online_rejects_unrepresentable_scaling(constant):
    m = build_level("sierpinski", 3)
    with pytest.raises(UsageError, match="finite"):
        solve_online("sierpinski", 3, "rfd", constant, np.ones(m.num_vertices),
                     {0: 1.0, 1: 0.0, 2: 0.0})


@pytest.mark.parametrize("method", ["rfd", "rfem1d", "rfem2d"])
def test_solve_online_rejects_forcing_of_the_wrong_length(method):
    # the load of each method checks it: rfd's in the solver, the weak forms'
    # in measures.load_vector
    m = build_level("sierpinski", 2)
    with pytest.raises(UsageError, match="length does not match the mesh"):
        solve_online("sierpinski", 2, method, 5.0, np.ones(m.num_vertices - 1),
                     {0: 1.0, 1: 0.0, 2: 0.0})


def _zero_bc(mesh, values=None):
    vals = values if values is not None else [0.0] * mesh.boundary_indices.size
    return {int(i): float(v) for i, v in zip(mesh.boundary_indices, vals)}


def test_homogeneous_solution_independent_of_constant():
    m = build_level("sierpinski", 3)
    g = np.zeros(m.num_vertices)
    h = _zero_bc(m, [1.0, 0.0, 0.0])
    u1 = solve_online("sierpinski", 3, "rfd", 5.0, g, h).values
    u2 = solve_online("sierpinski", 3, "rfd", 0.7, g, h).values
    np.testing.assert_allclose(u1, u2, atol=1e-12)


def test_doubling_constant_scales_forced_solution():
    n = 3
    m = build_level("sierpinski", n)
    g = np.ones(m.num_vertices)
    h = _zero_bc(m)
    u1 = solve_online("sierpinski", n, "rfd", 5.0, g, h).values
    u2 = solve_online("sierpinski", n, "rfd", 10.0, g, h).values
    np.testing.assert_allclose(u2, u1 / 2.0**n, atol=1e-13)


def test_rfem1d_takes_half_the_edge_length_load():
    n, c = 2, 1.25
    m = build_level("sierpinski", n)
    g = np.ones(m.num_vertices)
    h = _zero_bc(m)
    half = solve_online("sierpinski", n, "rfem1d", c, g, h).values
    elements, local = _elements(m, "fem_edge")
    load = 0.5 * load_vector(m, MeasureKind.EDGE_LENGTH, g)
    expected = solve_condensed(m, elements, local * c**n, load, h).values
    np.testing.assert_array_equal(half, expected)
    # the load is linear in g, so 2 g gives the full edge-length load
    full = solve_online("sierpinski", n, "rfem1d", c, 2.0 * g, h).values
    np.testing.assert_allclose(full, 2.0 * half, atol=1e-13)


def test_solve_online_keeps_the_fd_stack_broadcast(monkeypatch):
    from fraclap import renorm

    n, c = 4, 5.0
    mesh = build_level("sierpinski", n)
    g = mesh.vertices[:, 0].copy()
    h = {0: 1.0, 1: 0.0, 2: 0.5}
    handed = []

    def spy(family, level, local, load, boundary_values):
        handed.append(local)
        return solve_level(family, level, local, load, boundary_values)

    solve_level = renorm._solve_level
    monkeypatch.setattr(renorm, "_solve_level", spy)
    sol = solve_online("sierpinski", n, "rfd", c, g, h)
    (local,) = handed
    assert local.strides[0] == 0
    elements, base = _elements(mesh, "fd")
    dense = solve_condensed(mesh, elements, np.array(base) * c**n, _load(mesh, "fd", g), h)
    assert np.array_equal(sol.values, dense.values)


@pytest.mark.parametrize("family, n, method, bound", [
    ("sierpinski", 9, "rfd", 54), ("sierpinski", 9, "rfem1d", 62),
    ("sierpinski", 9, "rfem2d", 62), ("koch", 8, "rfem1d", 47), ("hata2d", 7, "rfem1d", 44),
    ("hata3d", 6, "rfd", 45), ("hata3d", 6, "rfem1d", 53), ("sierpinski", 10, "rfem2d", 47),
    ("sierpinski", 10, "rfd", 39),
], ids=["sierpinski-9-rfd", "sierpinski-9-rfem1d", "sierpinski-9-rfem2d", "koch-8-rfem1d",
        "hata2d-7-rfem1d", "hata3d-6-rfd", "hata3d-6-rfem1d", "sierpinski-10-rfem2d",
        "sierpinski-10-rfd"])
def test_solve_online_working_set_is_bounded_by_the_mesh(family, n, method, bound, traced):
    # traced peak above what the solve leaves held, in bytes per vertex, with
    # no level built (the solve builds none) and lazy imports warm; every
    # formulation serves a depth with one block, so no per-copy stack is
    # formed.  The solve keeps the load, the right-hand side, the solution
    # and about one more whole-length vector (the residual, or the loads
    # that the copies of the two deepest depths pass up); the rest is blocks
    # of geometry._SCAN_ROWS copies or elements, and one block per depth of
    # the copy tree's walk, which weighs most at these small levels.  Each
    # bound is the figure measured (numpy 2.4) plus about a tenth: 48.9,
    # 56.9, 56.9, 42.3, 39.9, 40.5, 48.5, 42.9 and 34.9 B in order, where
    # the solve that built and held its level took 82.8, 90.8, 90.8, 64.7,
    # 63.0, 71.0, 79.0, 80.7 and 72.7
    nb = build_level(family, 0).boundary_indices.size
    small = predicted_vertices(family, 2)
    solve_online(family, 2, method, 2.0, np.ones(small), dict.fromkeys(range(nb), 0.0))
    vertices = predicted_vertices(family, n)
    g = np.ones(vertices)
    h = dict(zip(range(nb), [1.0, 0.5, 0.0]))
    with traced:
        solve_online(family, n, method, 2.0, g, h)
    assert traced.peak - traced.held <= bound * vertices, (traced.peak - traced.held) / vertices


def test_solve_online_records_metadata():
    m = build_level("koch", 2)
    sol = solve_online("koch", 2, "rfem1d", 16 / 9,
                       np.zeros(m.num_vertices), _zero_bc(m, [1.0, 0.0]))
    assert sol.method == "rfem1d"
    assert sol.level == 2
    assert sol.renorm_constant_applied == pytest.approx(16 / 9)


def test_solve_online_rejects_area_on_curve():
    m = build_level("koch", 2)
    with pytest.raises(AssemblyError):
        solve_online("koch", 2, "rfem2d", 1.0,
                     np.zeros(m.num_vertices), _zero_bc(m, [1.0, 0.0]))


def test_solve_online_rejects_unknown_method():
    m = build_level("koch", 1)
    with pytest.raises(UsageError):
        solve_online("koch", 1, "spectral", 1.0,
                     np.zeros(m.num_vertices), _zero_bc(m, [1.0, 0.0]))


@pytest.mark.parametrize("h", [{0: 1.0, 1: 0.0, 2: 0.0, 2.5: 7.0}, {0.5: 1.0, 1: 0.0, 2: 0.0}],
                         ids=["extra-float-key", "float-key"])
def test_solve_online_refuses_boundary_keys_that_are_not_indices(h):
    m = build_level("sierpinski", 2)
    with pytest.raises(UsageError, match="integer vertex indices"):
        solve_online("sierpinski", 2, "rfd", 5.0, np.zeros(m.num_vertices), h)


def test_solve_online_boundary_exact():
    m = build_level("sierpinski", 4)
    g = np.ones(m.num_vertices)
    sol = solve_online("sierpinski", 4, "rfem2d", 1.25, g,
                       _zero_bc(m, [1.0, 0.25, -0.5]))
    assert sol.values[0] == 1.0
    assert sol.values[1] == 0.25
    assert sol.values[2] == -0.5


def test_direct_solve_at_sierpinski_level_11():
    """265,719 unknowns, above the size where an interpreted conjugate
    gradient once replaced the direct factorization."""
    n, h = 11, {0: 1.0, 1: 0.0, 2: 0.0}
    m = build_level("sierpinski", n)
    sol = solve_online("sierpinski", n, "rfem2d", 1.25, np.zeros(m.num_vertices), h)
    assert m.interior_indices.size == 265_719
    assert sol.values.min() >= 0.0 and sol.values.max() <= 1.0
    op = renormalize(fem_area_stiffness(m), 1.25, n)
    a_ii, a_i0, iidx, bidx = partition(op, m.boundary_indices)
    rhs = -(a_i0 @ np.array([h[int(i)] for i in bidx]))
    x = sol.values[iidx]
    bound = BACKWARD_ERROR_BOUND * (
        abs(a_ii).sum(axis=1).max() * np.abs(x).max() + np.abs(rhs).max())
    assert sol.solver_residual <= bound
    assert np.abs(rhs - a_ii @ x).max() <= bound


@pytest.mark.parametrize("family, level", [
    ("sierpinski", 9), ("hata2d", 6), ("hata2d", 8), ("hata3d", 5), ("hata3d", 6),
    ("koch", 6), ("koch", 8),
])
def test_fd_model_solves_meet_the_contract(family, level):
    """|x| grows like the fd constant to the level (4e8 on hata2d level 8), so
    these failed the former absolute bound |b - Ax| <= 1e-10 max(1, |b|)
    with either solver; both meet the backward-error bound."""
    mesh = build_level(family, level)
    load = np.ones(mesh.num_vertices)
    zero = {int(i): 0.0 for i in mesh.boundary_indices}
    operator = fd_graph_stiffness(mesh)
    factored = solve_dirichlet(mesh, *_elements(mesh, "fd"), load, zero).values
    a_ii, _, iidx, _ = partition(operator, mesh.boundary_indices)
    norm_a = abs(a_ii).sum(axis=1).max()
    for values in (_reference_model_solution(mesh, "fd"), factored):
        x = values[iidx]
        residual = np.abs(load[iidx] - a_ii @ x).max()
        assert residual <= BACKWARD_ERROR_BOUND * (norm_a * np.abs(x).max() + 1.0)


# -- auto constant ------------------------------------------------------------------------

def test_default_estimate_pair():
    assert default_estimate_pair(5) == (3, 4)
    assert default_estimate_pair(3) == (1, 2)
    assert default_estimate_pair(1) == (1, 2)


@pytest.mark.parametrize("call", [
    lambda level: default_estimate_pair(level),
    lambda level: auto_constant("koch", "rfd", level),
    lambda level: estimate_laplacian_ratio("koch", level),
    lambda level: estimate_energy_ratio("koch", level, "fem_edge"),
], ids=["pair", "auto", "laplacian", "energy"])
@pytest.mark.parametrize("level", [2.7, "5", True, None])
def test_estimates_take_their_level_by_the_one_level_rule(call, level):
    # int() once read 2.7 as the pair (1, 2) and "5" as (3, 4), and "2"
    # reached a bare TypeError: each is refused as solve_online refuses it
    with pytest.raises(UsageError, match="level must be an integer"):
        call(level)
    assert default_estimate_pair(np.int64(5)) == (3, 4)


def test_auto_constant_matches_estimator():
    c, pair = auto_constant("sierpinski", "rfd", 5)
    assert pair == (3, 4)
    assert c == pytest.approx(estimate_laplacian_ratio("sierpinski", 3).mean)
    c, pair = auto_constant("sierpinski", "rfem1d", 6)
    assert c == pytest.approx(estimate_energy_ratio("sierpinski", 4, "fem_edge").mean)
