import sys

import pytest

import frobtilt.frobenius
from frobtilt.catalog import builtin, catalog_names
from frobtilt.cohomology import cohomology
from frobtilt.cones import NEITHER, bu_set, nef_fano_status
from frobtilt.fan import TorusDivisor, canonical_divisor, divisor_class, product
from frobtilt.tilting import (
    HYPOTHESIS_FAILED,
    NOT_APPLICABLE,
    VERIFIED,
    build_candidate,
    ext_vanishing,
    m0,
    orlov_check,
)
from oracles import projection_chain_check

P1 = builtin("P1").fan
P2 = builtin("P2").fan
F2 = builtin("F2").fan
F3 = builtin("F3").fan


def cls_of(fan, coeffs):
    return divisor_class(TorusDivisor(fan, coeffs))


# --- build_candidate ---------------------------------------------------------


def test_p1_candidate():
    c = build_candidate(P1)
    assert [s.coords for s in c.summands] == [(-1,), (0,)]
    for row in c.ext_table:
        for vec in row:
            assert all(h == 0 for h in vec.dims[1:])


def test_p2_candidate_gram():
    c = build_candidate(P2)
    assert len(c.summands) == 3
    # summands sorted (-2), (-1), (0): chi table is the Euler pairing
    assert c.gram == ((1, 3, 6), (0, 1, 3), (0, 0, 1))
    assert c.gram_det == 1
    assert c.triangular_order() is not None


def test_f1_candidate_size():
    assert len(build_candidate(builtin("F1").fan).summands) == 4


def test_candidate_diagonals():
    for name in ("P1", "P2", "F2", "dP7"):
        c = build_candidate(builtin(name).fan)
        k = len(c.summands)
        for a in range(k):
            assert c.ext_table[a][a].dims == (1,) + (0,) * c.fan.dim
            assert c.gram[a][a] == 1


# --- ext_vanishing --------------------------------------------------------------


def test_ext_vanishing_p1_p2():
    assert ext_vanishing(build_candidate(P1)).ok
    assert ext_vanishing(build_candidate(P2)).ok


def test_artificial_pair_fails_with_witness():
    c = build_candidate(P1, (cls_of(P1, (0, 0)), cls_of(P1, (-2, 0))))
    ev = ext_vanishing(c)
    assert not ev.ok
    # Ext^1(O, O(-2)) has dimension 1
    assert (0, 1, 1, 1) in ev.violations


# --- m0 ---------------------------------------------------------------------------


def test_m0_p1_is_zero():
    c = build_candidate(P1)
    assert m0(c) == 0
    # direct check: every pairwise twist by -K has only sections
    K = canonical_divisor(P1)
    for a in c.summands:
        for b in c.summands:
            dims = cohomology(P1, b.representative() - a.representative() - K).dims
            assert all(h == 0 for h in dims[1:])


def test_m0_p2_is_zero():
    assert m0(build_candidate(P2)) == 0


def test_m0_f2_nef_fano_stress_case():
    assert m0(build_candidate(F2)) == 0


# --- orlov_check -------------------------------------------------------------------


def test_orlov_p2():
    r = orlov_check(P2, "P2")
    assert r.status == VERIFIED
    assert r.gen_time_upper == 2 == r.rdim_lower
    assert r.ext_vanishing and r.m0 == 0


def test_orlov_f2_nef_fano_branch():
    r = orlov_check(F2, "F2")
    assert r.status == VERIFIED
    assert r.nef_fano == "nef_fano"


def test_orlov_f3_not_applicable_but_reported():
    r = orlov_check(F3, "F3")
    assert r.status == NOT_APPLICABLE
    assert r.reason == "-K not nef"
    assert r.m0 >= 0
    assert r.gen_time_upper == F3.dim + r.m0
    assert r.rdim_lower == F3.dim


def test_report_monotonicity_and_status_logic():
    for name in catalog_names():
        fan = builtin(name).fan
        r = orlov_check(fan, name)
        assert r.rdim_lower <= r.gen_time_upper
        assert (r.rdim_lower == r.gen_time_upper) == (r.m0 == 0)
        verified = r.ext_vanishing and r.nef_fano != NEITHER and r.m0 == 0
        assert (r.status == VERIFIED) == verified


def test_theorem_shadow_nef_plus_ext_vanishing_forces_m0_zero():
    # the content of the main generation-time argument, as a stopping test
    for name in catalog_names():
        fan = builtin(name).fan
        r = orlov_check(fan, name)
        if r.nef_fano != NEITHER and r.ext_vanishing:
            assert r.m0 == 0, f"{name}: m0 = {r.m0}"


def test_gram_unimodular_when_rank_matches():
    for name in catalog_names():
        r = orlov_check(builtin(name).fan, name)
        if r.status == VERIFIED:
            assert r.k_rank_match
            assert r.gram_unimodular


def test_orlov_runs_frob_set_once(monkeypatch):
    original = frobtilt.frobenius.frob_set
    calls = []

    def counting(fan):
        calls.append(fan)
        return original(fan)

    for name, module in list(sys.modules.items()):
        if name == "frobtilt" or name.startswith("frobtilt."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
    fan = product(P1, P2)  # a fresh Fan: no cache carries over
    r = orlov_check(fan, "P1xP2")
    assert r.status == VERIFIED and r.n_bu == 6
    assert len(calls) == 1


def test_report_serialization_round_trip():
    r = orlov_check(P2, "P2")
    d = r.to_dict()
    assert d["status"] == VERIFIED
    assert d["gen_time_upper"] == 2


# --- projection_chain_check -----------------------------------------------------------


def test_chain_p1_ell2_by_hand():
    # summands of the square pushforward are O and O(-1); with K = -2pts,
    # both sides reduce to cohomology of twists of O(1) and O(2)
    K = canonical_divisor(P1)
    check = projection_chain_check(P1, 2)
    assert check.ok
    L = cls_of(P1, (-1, 0))
    lhs = [0, 0]
    for coeffs in ((0, 0), (-1, 0)):
        vec = cohomology(P1, TorusDivisor(P1, coeffs) - L.representative() - K)
        lhs = [x + y for x, y in zip(lhs, vec.dims)]
    rhs = cohomology(P1, -2 * (L.representative() + K)).dims
    assert tuple(lhs) == rhs


def test_chain_ell1_trivial():
    for name in ("P2", "F3", "dP6"):
        assert projection_chain_check(builtin(name).fan, 1).ok


@pytest.mark.parametrize("ell", [2, 3])
def test_chain_p2(ell):
    assert projection_chain_check(P2, ell).ok


@pytest.mark.parametrize("check", [orlov_check, bu_set, build_candidate])
def test_candidate_paths_walk_no_pushforward(monkeypatch, check):
    # bu(X) needs frob(X) only as a set: no minimal witness ell is swept
    real = frobtilt.frobenius.pushforward_summands
    ells = []

    def recording(fan, D, ell):
        ells.append(ell)
        return real(fan, D, ell)

    monkeypatch.setattr(frobtilt.frobenius, "pushforward_summands", recording)
    check(product(builtin("dP6").fan, P1))  # a fresh Fan: no cache carries over
    assert ells == []
