"""Arrangement resolutions: closed forms vs. the explicitly built census."""
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from chernslope.geometry import (
    ArrangementParams,
    DegenerateParameterError,
    Family,
    build_resolution,
    component_count,
    limit_slope,
    log_chern_closed,
    log_chern_pair,
    node_count,
)
from chernslope.partitions import min_feasible_q


def a0_params(p=2, r=1, e=1, d=3, g=0):
    return ArrangementParams(Family.A0, p=p, r=r, e=e, d=d, g=g)


class TestKnownValues:
    def test_base_arrangement_example(self):
        params = a0_params()
        c1b, c2b, slope = log_chern_closed(params)
        assert (c1b, c2b) == (6, 2)
        assert slope == 3
        config = build_resolution(params)
        assert len(config.components) == 13
        assert params.delta == 3
        assert config.t2 == 18
        assert log_chern_pair(config) == (6, 2)

    def test_paired_family_example(self):
        params = ArrangementParams(Family.APRIME, p=2, r=1, e=1, d=6)
        c1b, c2b, _ = log_chern_closed(params)
        assert (c1b, c2b) == (122, 52)
        assert limit_slope(params) == 2 + Fraction(3, 29)

    def test_delta_formula(self):
        for d, e in [(3, 1), (4, 2), (6, 1), (5, 3)]:
            params = ArrangementParams(Family.A0, p=2, r=1, e=e, d=d)
            assert params.delta == e * d * (d - 1) // 2


class TestClosedFormsMatchCensus:
    @pytest.mark.parametrize("p,r", [(2, 1), (2, 2), (3, 1), (5, 1)])
    @pytest.mark.parametrize("e,d", [(1, 3), (1, 4), (2, 3), (3, 5)])
    @pytest.mark.parametrize("g", [0, 1, 2])
    def test_base_family(self, p, r, e, d, g):
        params = ArrangementParams(Family.A0, p=p, r=r, e=e, d=d, g=g)
        config = build_resolution(params)
        assert log_chern_pair(config) == log_chern_closed(params)[:2]

    @pytest.mark.parametrize("p,r", [(2, 1), (3, 1), (2, 3)])
    @pytest.mark.parametrize("e,d", [(1, 3), (2, 4)])
    @pytest.mark.parametrize("u,w", [(1, 1), (2, 0), (0, 3)])
    def test_augmented_family(self, p, r, e, d, u, w):
        params = ArrangementParams(Family.A, p=p, r=r, e=e, d=d, u=u, w=w)
        config = build_resolution(params)
        assert log_chern_pair(config) == log_chern_closed(params)[:2]

    @pytest.mark.parametrize("p,r", [(2, 1), (3, 2), (5, 1)])
    @pytest.mark.parametrize("e,d", [(1, 4), (1, 6), (2, 4), (1, 8)])
    def test_paired_family(self, p, r, e, d):
        params = ArrangementParams(Family.APRIME, p=p, r=r, e=e, d=d)
        config = build_resolution(params)
        assert log_chern_pair(config) == log_chern_closed(params)[:2]


class TestNodeCount:
    @pytest.mark.parametrize("family", list(Family))
    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("r,e", [(1, 1), (1, 2), (2, 1), (2, 2)])
    def test_matches_census(self, family, p, r, e):
        checked = 0
        for d in (3, 4, 6):
            for u in (0, 1, 2):
                for w in (0, 1, 2):
                    try:
                        params = ArrangementParams(family, p=p, r=r, e=e, d=d, u=u, w=w)
                    except DegenerateParameterError:
                        continue  # A0 and APRIME take no u, w; APRIME no odd d
                    config = build_resolution(params)
                    assert node_count(params) == config.t2
                    assert component_count(params) == len(config.components)
                    checked += 1
        assert checked

    @given(st.sampled_from(list(Family)), st.sampled_from([2, 3, 5, 7, 11]),
           st.integers(1, 4), st.integers(1, 4), st.integers(2, 12),
           st.integers(0, 3), st.integers(0, 4), st.integers(0, 4))
    def test_never_below_min_feasible_q(self, family, p, r, e, half_d, g, u, w):
        # `run_pipeline` starts its prime search at the node count alone
        if family is Family.APRIME:
            params = ArrangementParams(family, p=p, r=r, e=e, d=2 * half_d)
        elif family is Family.A0:
            params = ArrangementParams(family, p=p, r=r, e=e, d=half_d + 1, g=g)
        else:
            params = ArrangementParams(family, p=p, r=r, e=e, d=half_d + 1, g=g, u=u, w=w)
        assert node_count(params) >= min_feasible_q(params)


class TestStructure:
    def test_chain_lengths(self):
        params = a0_params(p=3, r=2)
        config = build_resolution(params)
        for tang in config.tangencies:
            assert len(tang.chain) == 3 ** 2

    def test_chain_self_intersections(self):
        config = build_resolution(a0_params(p=2, r=2))
        chain_ids = {gc for t in config.tangencies for gc in t.chain}
        by_id = {c.cid: c for c in config.components}
        for tang in config.tangencies:
            selfs = [by_id[gc].self_int for gc in tang.chain]
            assert selfs == [-2] * (len(selfs) - 1) + [-1]
        assert chain_ids <= set(by_id)

    def test_node_endpoints_distinct(self):
        config = build_resolution(a0_params())
        for i, j, count in config.nodes:
            assert i != j
            assert count >= 1

    def test_t2_counts_all_nodes(self):
        config = build_resolution(a0_params())
        assert config.t2 == sum(c for _, _, c in config.nodes)

    def test_recorded_ids_and_node_fibers(self):
        params = ArrangementParams(Family.A, p=2, r=2, e=1, d=3, u=1, w=1)
        config = build_resolution(params)
        assert config.section_ids == ("S1", "S2", "S3", "H1", "S4")
        assert config.fiber_ids == ("F1", "F2", "F3", "R1")
        assert not config.exempt_nodes
        kinds = {c.cid: c.kind for c in config.components}
        for (i, j, _), fiber in zip(config.nodes, config.node_fibers, strict=True):
            # the fibers a node meets, directly or through a chain curve
            met = {config.chain_position[c][0].fiber if kinds[c] == "exceptional" else c
                   for c in (i, j) if kinds[c] in ("fiber", "general_fiber", "exceptional")}
            assert met == ({fiber} if fiber else set())

    def test_paired_flags(self):
        # a tangency of a pair S_{2i-1}, S_{2i} has all its chain links exempt,
        # any other tangency none of them
        config = build_resolution(ArrangementParams(Family.APRIME, p=2, r=1, e=1, d=4))
        exempt = set()
        for t in config.tangencies:
            links = {(t.fiber, t.chain[0], 1), *zip(t.chain, t.chain[1:], [1] * len(t.chain))}
            s1, s2 = (int(s[1:]) for s in t.sections)
            if (min(s1, s2) % 2 == 1) and (abs(s1 - s2) == 1):
                exempt |= links
            else:
                assert not links & config.exempt_nodes
        assert exempt and config.exempt_nodes == exempt


class TestValidation:
    def test_rejects_small_d(self):
        with pytest.raises(DegenerateParameterError):
            ArrangementParams(Family.A0, p=2, r=1, e=1, d=2)

    def test_rejects_odd_d_for_paired_family(self):
        with pytest.raises(DegenerateParameterError):
            ArrangementParams(Family.APRIME, p=2, r=1, e=1, d=5)

    def test_rejects_sections_on_base_family(self):
        with pytest.raises(DegenerateParameterError):
            ArrangementParams(Family.A0, p=2, r=1, e=1, d=3, u=1)

    def test_rejects_nonprime_p(self):
        with pytest.raises(DegenerateParameterError):
            ArrangementParams(Family.A0, p=4, r=1, e=1, d=3)
