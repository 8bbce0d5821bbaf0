"""Canonical-class intersection tables and the nef threshold scan."""
from fractions import Fraction

import pytest

from chernslope.geometry import ArrangementParams, Family, build_resolution
from chernslope.nefcheck import closed_entries, config_entries, min_nef_q, nef_report
from chernslope.numtheory import next_prime, primes_between


def a_params(**kw):
    base = dict(family=Family.A, p=2, r=1, e=1, d=3, g=0, u=1, w=1)
    base.update(kw)
    return ArrangementParams(**base)


class TestClosedEntries:
    def test_known_values_for_paired_family(self):
        params = ArrangementParams(Family.APRIME, p=2, r=1, e=1, d=6)
        ent = closed_entries(params, 17)
        assert ent["K.Sbar_neg"] == 240
        assert ent["K.Fbar_general"] == 62
        assert ent["K.Gbar_first"] == 0
        assert ent["K.Gbar_end"] == Fraction(15, 17)

    def test_end_chain_entry_general_form(self):
        # the last exceptional curve always meets K with (q - 2)/q
        for q in (17, 101):
            for params in (a_params(), ArrangementParams(Family.APRIME, p=2, r=1, e=1, d=4)):
                assert closed_entries(params, q)["K.Gbar_end"] == Fraction(q - 2, q)


class TestClosedVersusConfig:
    @pytest.mark.parametrize("q", [17, 101, 499])
    def test_family_a(self, q):
        rep = nef_report(a_params(), q)
        assert not rep.mismatched_labels

    @pytest.mark.parametrize("q", [17, 101])
    def test_extra_sections_long_chains_and_genus(self, q):
        rep = nef_report(a_params(r=2, u=2, g=1), q)
        assert {"K.Hbar_i", "K.Gbar_interior"} <= set(rep.config_entries)
        assert not rep.mismatched_labels

    @pytest.mark.parametrize("q", [17, 101])
    def test_paired_family(self, q):
        params = ArrangementParams(Family.APRIME, p=2, r=1, e=1, d=6)
        rep = nef_report(params, q)
        assert not rep.mismatched_labels

    def test_config_entries_standalone(self):
        params = a_params()
        config = build_resolution(params)
        ent = config_entries(config, 17)
        closed = closed_entries(params, 17)
        shared = set(ent) & set(closed)
        assert shared  # the two tables overlap on the structural classes
        for label in shared:
            assert ent[label] == closed[label], label


class TestMinNefQ:
    def test_known_thresholds(self):
        assert min_nef_q(ArrangementParams(Family.A0, p=2, r=1, e=1, d=3)) == 17
        assert min_nef_q(ArrangementParams(Family.APRIME, p=2, r=1, e=1, d=6)) == 17

    def test_all_entries_nonnegative_at_and_after_threshold(self):
        params = a_params()
        threshold = min_nef_q(params)
        assert threshold is not None
        q = threshold
        for _ in range(4):
            rep = nef_report(params, q)
            assert rep.all_nef, q
            q = next_prime(q + 1)

    def test_threshold_is_minimal(self):
        params = ArrangementParams(Family.APRIME, p=3, r=1, e=1, d=4)
        threshold = min_nef_q(params)
        assert threshold is not None
        earlier = [q for q in primes_between(17, threshold - 1) if q != params.p]
        for q in earlier:
            assert not nef_report(params, q).all_nef
