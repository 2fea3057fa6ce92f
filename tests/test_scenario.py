from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pqchainlab.bench import BenchConfig, _runs_for
from pqchainlab.scenario import (
    KexMode,
    Placement,
    Scenario,
    SigFamily,
    classify_placement,
    compose_scenario_id,
    conceptual_perf_group,
    find_scenario,
    parse_scenario_id,
    resolve_id,
)

ML = SigFamily.ML_DSA_65
SLH = SigFamily.SLH_DSA_SHAKE_192S


def test_compose_positional_ids():
    assert (
        compose_scenario_id(KexMode.HYBRID, Placement(SLH, ML, ML))
        == "x25519mlkem768__slh_root__ml_int__ml_leaf"
    )
    assert compose_scenario_id(KexMode.PURE_PQC, Placement(ML, None, ML)) == "mlkem768__ml_root__ml_leaf"


def test_parse_legacy_alias():
    kex, placement = parse_scenario_id("x25519__leaf_mldsa65")
    assert kex is KexMode.CLASSICAL
    assert placement == Placement(ML, None, ML)
    kex, placement = parse_scenario_id("x25519mlkem768__leaf_slhdsashake192s")
    assert placement == Placement(SLH, None, SLH)


def test_compose_never_generates_alias(matrix):
    assert compose_scenario_id(KexMode.CLASSICAL, Placement(ML, None, ML)) == "x25519__ml_root__ml_leaf"
    # campaign A's ids are the legacy aliases, of uniform depth-2 hierarchies only
    for s in matrix:
        canonical = compose_scenario_id(s.kex, s.placement)
        if s.campaign == "A":
            assert canonical != s.display_id
            assert s.depth == 2 and s.placement.root is s.placement.leaf
        else:
            assert canonical == s.display_id


@pytest.mark.parametrize("bad", ["nonsense", "x25519", "x25519__ml_root", "foo__ml_root__ml_leaf"])
def test_parse_rejects_malformed(bad):
    with pytest.raises(ValueError):
        parse_scenario_id(bad)
    with pytest.raises(ValueError):
        Scenario(bad, "A")


@given(
    kex=st.sampled_from(list(KexMode)),
    root=st.sampled_from([ML, SLH]),
    intermediate=st.sampled_from([None, ML, SLH]),
    leaf=st.sampled_from([ML, SLH]),
)
def test_compose_parse_roundtrip(kex, root, intermediate, leaf):
    placement = Placement(root, intermediate, leaf)
    parsed_kex, parsed = parse_scenario_id(compose_scenario_id(kex, placement))
    assert parsed_kex is kex and parsed == placement


def test_matrix_inventory(matrix):
    assert len(matrix) == 17
    assert len({s.display_id for s in matrix}) == 17
    # campaigns A and C deliberately re-measure two hybrid depth-2 shapes,
    # so canonical ids repeat while inventory ids stay unique
    assert len({compose_scenario_id(s.kex, s.placement) for s in matrix}) == 15
    assert Counter(s.campaign for s in matrix) == {"A": 4, "B": 6, "C": 4, "D": 3}
    assert [s.campaign for s in matrix] == sorted(s.campaign for s in matrix)


def test_matrix_run_policy(matrix):
    default = BenchConfig()
    assert _runs_for(find_scenario(matrix, "x25519__leaf_slhdsashake192s"), default) == ("runs_heavy", 300)
    assert _runs_for(find_scenario(matrix, "x25519__leaf_mldsa65"), default) == ("runs", 10000)
    assert default.warmup == 20
    for s in matrix:
        heavy = s.placement.leaf is SLH
        assert _runs_for(s, default)[1] == (300 if heavy else 10000)
        assert _runs_for(s, BenchConfig(runs=7))[1] == 7  # one count for every scenario
        assert _runs_for(s, BenchConfig(runs=7, runs_heavy=2))[1] == (2 if heavy else 7)
        assert _runs_for(s, BenchConfig(runs_heavy=2))[1] == (2 if heavy else 10000)


def test_matrix_id_shapes(matrix):
    for s in matrix:
        if s.depth == 2:
            assert "_int__" not in s.display_id
        else:
            assert "_int__" in s.display_id


def test_find_scenario_accepts_either_spelling(matrix, fixture_rows):
    legacy = find_scenario(matrix, "x25519mlkem768__leaf_mldsa65")
    canonical = find_scenario(matrix, "x25519mlkem768__ml_root__ml_leaf")
    assert legacy.campaign == "A"
    assert canonical.campaign == "C"
    assert (legacy.kex, legacy.placement) == (canonical.kex, canonical.placement)  # same hierarchy
    # classical alias resolves through its canonical spelling
    assert find_scenario(matrix, "x25519__ml_root__ml_leaf").display_id == "x25519__leaf_mldsa65"
    with pytest.raises(KeyError):
        find_scenario(matrix, "x25519__slh_root__ml_int__ml_leaf")
    # summary rows follow the same rule, in either order: an exact id wins
    # over another row of the same hierarchy
    for rows in (fixture_rows, fixture_rows[::-1]):
        assert resolve_id(rows, "x25519mlkem768__ml_root__ml_leaf").campaign == "C"
        assert resolve_id(rows, "x25519mlkem768__leaf_mldsa65").campaign == "A"
        assert resolve_id(rows, "x25519__ml_root__ml_leaf").scenario_id == "x25519__leaf_mldsa65"
    with pytest.raises(KeyError):
        resolve_id(fixture_rows, "x25519__slh_root__ml_int__ml_leaf")


def test_classification_flags():
    assert classify_placement(Placement(ML, ML, ML)).flags() == {"all_ml"}
    assert classify_placement(Placement(SLH, ML, ML)).flags() == {"root_slh_leaf_not_slh"}
    assert classify_placement(Placement(ML, SLH, SLH)).flags() == {
        "intermediate_slh_any",
        "leaf_slh",
    }
    assert classify_placement(Placement(SLH, None, SLH)).flags() == {"leaf_slh"}


def test_class_sizes_over_matrix(matrix):
    counts = Counter(flag for s in matrix for flag in s.placement_class.flags())
    assert counts == {
        "all_ml": 5,
        "root_slh_leaf_not_slh": 3,
        "intermediate_slh_any": 2,
        "leaf_slh": 9,
    }


def test_conceptual_groups(matrix):
    groups = Counter(conceptual_perf_group(s.placement) for s in matrix)
    assert groups == {"all_ml": 5, "root_slh_leaf_ml": 3, "leaf_slh": 9}


def test_matrix_is_the_published_inventory(matrix, fixture_rows):
    # the reference table's 17 rows, in its order: ids, campaigns, KEX modes, depths
    assert [(s.campaign, s.display_id) for s in matrix] == [
        (r.campaign, r.scenario_id) for r in fixture_rows
    ]
    assert [(s.kex.name.lower(), s.depth) for s in matrix] == [
        (r.kex_mode, r.depth) for r in fixture_rows
    ]
    # ordered by (campaign, id), as every release has listed it
    assert [(s.campaign, s.display_id) for s in matrix] == sorted(
        (s.campaign, s.display_id) for s in matrix
    )

