from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ilplab import instances as instances_module
from ilplab.errors import BudgetExceededError, EmbeddingError
from ilplab.exactla import dot, vec
from ilplab.instances import (
    FAMILIES,
    FAMILY_BINPACK_PROX,
    FAMILY_BINPACK_SENS,
    FAMILY_PROXIMITY,
    BinPackingInstance,
    binpack_ilp_instance,
    doc_dumps,
    enumerate_configurations,
    expected_sensitivity_pair,
    gen_binpack_proximity,
    gen_binpack_sensitivity,
    gen_proximity,
    gen_sensitivity,
    instance_from_doc,
    instance_to_doc,
    p_q_constants,
)
from ilplab.lp import is_feasible_point


class TestSensitivityFamily:
    def test_matrix_and_rhs(self):
        inst = gen_sensitivity(2, 4)
        assert inst.lp.a.to_json() == [
            ["1", "0", "0", "0"],
            ["2", "1", "0", "0"],
            ["0", "2", "1", "0"],
            ["0", "0", "2", "1"],
        ]
        assert inst.lp.b == vec([1, 2, 4, 8])
        assert inst.alt_rhs == vec([0, 2, 4, 8])
        assert inst.lp.c == vec([0, 0, 0, 0])

    def test_smallest_parameters(self):
        inst = gen_sensitivity(1, 2)
        assert inst.lp.a.to_json() == [["1", "0"], ["1", "1"]]
        assert inst.lp.b == vec([1, 1]) and inst.alt_rhs == vec([0, 1])

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            gen_sensitivity(0, 2)
        with pytest.raises(ValueError):
            gen_sensitivity(2, 3)

    def test_expected_pair_examples(self):
        assert expected_sensitivity_pair(2, 4) == (vec([1, 0, 4, 0]), vec([0, 2, 0, 8]))
        assert expected_sensitivity_pair(1, 2) == (vec([1, 0]), vec([0, 1]))
        x, x2 = expected_sensitivity_pair(3, 6)
        assert max(abs(a - b) for a, b in zip(x, x2)) == 243

    @pytest.mark.parametrize("delta", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("d", [2, 4, 6, 8])
    def test_pair_solves_both_systems(self, delta, d):
        inst = gen_sensitivity(delta, d)
        x, x2 = expected_sensitivity_pair(delta, d)
        assert inst.lp.a.mul_vec(x) == tuple(inst.lp.b)
        assert inst.lp.a.mul_vec(x2) == tuple(inst.alt_rhs)


class TestBlockFamily:
    def test_dimensions(self):
        inst = gen_proximity(2, 3)
        assert (inst.lp.d, inst.lp.n) == (45, 51)
        assert inst.lp.b == vec([1] * 15 + [2] * 15 + [4] * 15)

    def test_degenerate_single_block(self):
        inst = gen_proximity(2, 1)
        assert (inst.lp.d, inst.lp.n) == (15, 21)
        assert inst.lp.b == vec([1] * 15)

    @pytest.mark.parametrize("delta,d", [(2, 1), (2, 3), (3, 3), (4, 5)])
    def test_columns_exceed_rows_by_six(self, delta, d):
        inst = gen_proximity(delta, d)
        assert inst.lp.n - inst.lp.d == 6
        entries = {x for row in inst.lp.a.rows for x in row}
        assert entries <= {F(0), F(1), F(delta)}
        if d >= 3:  # the single-block system has no coupling entries
            assert inst.lp.a.max_abs() == delta

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            gen_proximity(1, 3)
        with pytest.raises(ValueError):
            gen_proximity(2, 2)

    def test_certificate_examples(self):
        certificate = FAMILIES[FAMILY_PROXIMITY].certificate
        z = certificate(2, 3)
        assert is_feasible_point(gen_proximity(2, 3).lp, z)
        assert z == vec([F(1, 2)] * 6 + [0] * 15 + [2] * 15 + [0] * 15)
        assert certificate(2, 1) == vec([F(1, 2)] * 6 + [0] * 15)

    @pytest.mark.parametrize("delta,d", [(2, 3), (3, 3), (2, 5)])
    def test_certificate_feasible(self, delta, d):
        inst = gen_proximity(delta, d)
        assert is_feasible_point(inst.lp, FAMILIES[FAMILY_PROXIMITY].certificate(delta, d))


class TestTailSums:
    def test_examples(self):
        assert p_q_constants(2, 3) == (2, 5)
        assert p_q_constants(2, 5) == (10, 21)
        assert p_q_constants(7, 1) == (0, 1)

    @pytest.mark.parametrize("delta", [2, 3, 5])
    @pytest.mark.parametrize("d", [1, 3, 5, 7])
    def test_q_is_delta_p_plus_one(self, delta, d):
        p, q = p_q_constants(delta, d)
        assert q == delta * p + 1


class TestConfigurations:
    def test_single_size(self):
        assert enumerate_configurations([F(1, 2)]) == [(0,), (1,), (2,)]

    def test_two_sizes(self):
        got = enumerate_configurations([F(1, 3), F(1, 2)])
        assert got == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0), (3, 0)]

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            enumerate_configurations([F(1, 100)], limit=10)

    def test_size_validation(self):
        with pytest.raises(ValueError):
            enumerate_configurations([F(3, 2)])

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.fractions(min_value=F(1, 6), max_value=1), min_size=1, max_size=3
        ),
        st.randoms(use_true_random=False),
    )
    def test_downward_closed(self, sizes, rnd):
        configs = set(enumerate_configurations(sorted(set(sizes))))
        k = rnd.choice(sorted(configs))
        smaller = tuple(max(v - rnd.randint(0, 1), 0) for v in k)
        assert smaller in configs


class TestBinPackingSensitivity:
    def test_boundary_sizes(self):
        bp, cs, c = gen_binpack_sensitivity(2, 2)
        assert bp.epsilon == F(1, 20)
        assert bp.sizes == (F(3, 10), F(7, 20))
        # the largest distinguished column fills the bin exactly
        assert bp.sizes[0] + 2 * bp.sizes[1] == 1
        assert (1, 2) in cs.configurations

    def test_distinguished_columns_lead(self):
        bp, cs, c = gen_binpack_sensitivity(2, 4)
        general = gen_sensitivity(2, 4)
        for j in range(4):
            assert vec(cs.configurations[j]) == general.lp.a.col(j)
        assert cs.c1_indices == (0, 1, 2, 3)
        assert c[:4] == vec([0, 0, 0, 0]) and all(x == 1 for x in c[4:])
        assert cs.complete

    @pytest.mark.parametrize("delta", [2, 3, 4])
    @pytest.mark.parametrize("d", [2, 4, 6])
    def test_columns_are_feasible_configurations(self, delta, d):
        bp, cs, _ = gen_binpack_sensitivity(delta, d)
        for idx in cs.c1_indices:
            k = cs.configurations[idx]
            assert dot(vec(k), bp.sizes) <= 1

    def test_single_items_always_fit(self):
        bp, cs, _ = gen_binpack_sensitivity(3, 4)
        for i in range(len(bp.sizes)):
            single = tuple(1 if j == i else 0 for j in range(len(bp.sizes)))
            assert single in cs.configurations

    def test_delta_one_embedding_fails_loudly(self):
        # two items of size > 1/2 can never share a bin
        with pytest.raises(EmbeddingError):
            gen_binpack_sensitivity(1, 2)

    def test_multiplicities_match_family_rhs(self):
        bp, cs, c = gen_binpack_sensitivity(2, 4)
        assert bp.multiplicities == (1, 2, 4, 8)
        inst = binpack_ilp_instance(bp, cs, c, FAMILY_BINPACK_SENS, 2, 4)
        assert inst.lp.b == vec([1, 2, 4, 8])
        assert inst.alt_rhs == vec([0, 2, 4, 8])


class TestBinPackingProximity:
    def test_structure(self):
        bp, cs, c = gen_binpack_proximity(2, 3)
        general = gen_proximity(2, 3)
        assert len(bp.sizes) == 45
        assert len(cs.configurations) == 51
        assert not cs.complete
        assert bp.multiplicities == tuple(int(x) for x in general.lp.b)
        assert all(x == 0 for x in c)
        # restriction to the distinguished columns is the block system itself
        for j, k in enumerate(cs.configurations):
            assert vec(k) == general.lp.a.col(j)

    @pytest.mark.parametrize("delta", [2, 3])
    def test_columns_fit_exactly(self, delta):
        bp, cs, _ = gen_binpack_proximity(delta, 3)
        for k in cs.configurations:
            assert dot(vec(k), bp.sizes) <= 1

    def test_epsilon_is_positive_and_capped(self):
        bp, _, _ = gen_binpack_proximity(2, 3)
        cap = F(57, 60 * (45 - 2 + 2 * (45 - 1)))
        assert 0 < bp.epsilon <= cap

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            gen_binpack_proximity(1, 3)
        with pytest.raises(ValueError):
            gen_binpack_proximity(2, 2)

    def test_sizes_strictly_increasing(self):
        bp, _, _ = gen_binpack_proximity(3, 3)
        assert all(a < b for a, b in zip(bp.sizes, bp.sizes[1:]))


class TestBinPackingValidation:
    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            BinPackingInstance((F(1, 2), F(1, 2)), (1, 1), F(1, 10))
        with pytest.raises(ValueError):
            BinPackingInstance((F(3, 2),), (1,), F(1, 10))


class TestSerialization:
    @pytest.mark.parametrize(
        "inst",
        [
            gen_sensitivity(2, 4),
            gen_proximity(2, 1),
            binpack_ilp_instance(*gen_binpack_sensitivity(2, 2), FAMILY_BINPACK_SENS, 2, 2),
            binpack_ilp_instance(*gen_binpack_proximity(2, 3), FAMILY_BINPACK_PROX, 2, 3),
        ],
        ids=["sensitivity", "proximity", "binpack_sens", "binpack_prox"],
    )
    def test_round_trip_is_identity_on_canonical_form(self, inst):
        doc = instance_to_doc(inst)
        text = doc_dumps(doc)
        again = instance_to_doc(instance_from_doc(doc))
        assert doc_dumps(again) == text
        assert instance_from_doc(again) == instance_from_doc(doc)

    def test_schema_version_checked(self):
        doc = instance_to_doc(gen_sensitivity(2, 2))
        doc["schema_version"] = 99
        with pytest.raises(ValueError):
            instance_from_doc(doc)

    def test_unknown_family_rejected(self):
        doc = instance_to_doc(gen_sensitivity(2, 2))
        doc["family"] = "mystery"
        with pytest.raises(ValueError):
            instance_from_doc(doc)

    def test_repeated_entries_parse_once_to_the_same_values(self, monkeypatch):
        # one entry string, or int, recurs across rows and keys; each is parsed once
        doc = instance_to_doc(binpack_ilp_instance(*gen_binpack_sensitivity(2, 2), FAMILY_BINPACK_SENS, 2, 2))
        doc.update(family="custom", b=[1, "1"] + doc["b"][2:], c=["1/2"] + doc["c"][1:])
        doc["matrix"][0][:2] = ["1/2", "2/4"]
        expected = (
            tuple(vec(row) for row in doc["matrix"]),
            vec(doc["b"]),
            vec(doc["c"]),
            vec(doc["sizes"]),
            F(doc["epsilon"]),
        )
        entries = [*(x for row in doc["matrix"] for x in row), *doc["b"], *doc["c"], *doc["sizes"], doc["epsilon"]]
        parsed = []
        monkeypatch.setattr(instances_module, "Fraction", lambda x: parsed.append(x) or F(x))
        inst = instance_from_doc(doc)
        assert (inst.lp.a.rows, inst.lp.b, inst.lp.c, inst.sizes, inst.epsilon) == expected
        assert sorted(map(repr, parsed)) == sorted({repr(x) for x in entries})
        assert len(parsed) < len(entries)

    def test_malformed_entry_after_a_parsed_one_is_rejected(self):
        doc = instance_to_doc(gen_sensitivity(2, 2))
        doc["b"] = [doc["matrix"][0][0], True]
        with pytest.raises(ValueError, match="'b'"):
            instance_from_doc(doc)
        doc["b"] = [doc["matrix"][0][0], "3/0"]
        with pytest.raises(ValueError, match="zero denominator in 'b'"):
            instance_from_doc(doc)
