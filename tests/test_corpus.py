"""The built-in corpus: fixture inventory and the check runner."""

import pytest

from slopelab import corpus
from slopelab.elimpres import PointSpec


class TestInventory:
    def test_seven_local_rings(self):
        members = corpus.local_ring_members()
        assert [m.name for m in members] == [
            "cusp-char0", "cusp-char2", "node-char0", "node-char2",
            "node-char3", "regular-2vars", "plane-pair"]

    def test_hypersurface_members_carry_split_and_relation(self):
        for m in corpus.local_ring_members():
            if m.name == "regular-2vars":
                assert m.g is None and m.split is None
                continue
            assert m.g is not None
            assert m.split is not None
            assert len(m.split.fiber) == 1
            assert m.presentation.relations.generators == (m.g,)

    def test_cusp_carries_a_validating_certificate(self):
        cusp = corpus.local_ring_members()[0]
        cusp.certificate.validate(cusp.presentation.maximal_ideal())

    def test_three_umbrella_members_at_a_prime(self):
        members = corpus.whitney_members()
        assert [m.ring.char for m in members] == [2, 3, 5]
        for m in members:
            assert m.point.kind == "prime"
            assert m.point.variables == ("x", "y1")

    def test_six_monomial_ideals(self):
        members = corpus.monomial_members()
        assert len(members) == 6
        for m in members:
            assert m.ideal.is_monomial_ideal()
            assert 2 <= len(m.ideal.ring.variables) <= 3


class TestCheckRunner:
    def test_every_row_name_is_frozen_and_vice_versa(self):
        names = [name for name, _ in corpus.checks()]
        assert len(names) == len(set(names))
        assert set(names) == set(corpus.EXPECTED)

    def test_filter_keeps_matching_rows_lazily(self):
        rows = corpus.run_corpus(filters=("kernel/",))
        assert [r.name for r in rows] == [
            "kernel/cusp-char0", "kernel/cusp-char2", "kernel/node-char0",
            "kernel/node-char2", "kernel/node-char3",
            "kernel/regular-2vars", "kernel/plane-pair"]
        assert all(r.ok for r in rows)

    def test_mismatch_is_reported_not_raised(self, monkeypatch):
        monkeypatch.setitem(corpus.EXPECTED, "kernel/cusp-char0",
                            "something else")
        rows = corpus.run_corpus(filters=("kernel/cusp-char0",))
        assert len(rows) == 1
        assert not rows[0].ok
        assert rows[0].computed == "extremal r=1 t=1"

    def test_a_crashing_row_surfaces_as_error_text(self, monkeypatch):
        def broken_checks(max_n=20):
            return [("kernel/cusp-char0", lambda: 1 // 0)]
        monkeypatch.setattr(corpus, "checks", broken_checks)
        rows = corpus.run_corpus()
        assert len(rows) == 1
        assert not rows[0].ok
        assert rows[0].computed.startswith("error:")


class TestGridHelpers:
    def test_monomial_enumeration_counts(self):
        from slopelab.poly import Ring
        r2 = Ring(("x", "y"))
        r3 = Ring(("x", "y", "z"))
        assert len(corpus._monomials_up_to(r2, 6)) == 27
        assert len(corpus._monomials_up_to(r3, 6)) == 83

    def test_closure_grid_detects_a_broken_ideal_power(self, monkeypatch):
        """Sanity check that the grid is not vacuous: breaking one side
        must produce mismatches."""
        import slopelab.corpus as module
        from slopelab.newton import build_polyhedron

        member = corpus.monomial_members()[1]  # the maximal ideal (x, y)
        real = module.closure_member

        def broken(f, ideal, a=1, polyhedron=None):
            return not real(f, ideal, a, polyhedron=polyhedron)

        monkeypatch.setattr(module, "closure_member", broken)
        assert module.closure_equivalence_mismatches(
            member.ideal, degree=2, amax=2, bmax=2) > 0
