import hashlib
import json
import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ilplab import instances as instances_module
from ilplab.errors import BudgetExceededError, EmbeddingError
from ilplab.exactla import dot, vec, vec_str
from ilplab.instances import (
    FAMILIES,
    FAMILY_PROXIMITY,
    FAMILY_SENSITIVITY,
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

from oracles import shallow_stack


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


#: sha256 of each cell's generated document followed by its expected pair
#: (sensitivity) or its certificate (proximity), as JSON lists of rationals
GENERATED_SHA256 = {
    (FAMILY_SENSITIVITY, 1, 2): "3e7ce61bfd78b0ecb715f95464bdebf2759d4efaa2287e9c40dee078a7929dd6",
    (FAMILY_SENSITIVITY, 1, 4): "94ef67309b631f32cfbfd0997bf4ff0adc87ecb3af0a41c6aa176b41b48fb715",
    (FAMILY_SENSITIVITY, 1, 10): "b65f744686b8a7e72e9ae7ec92b9e2fb92b42ef7d94af1e575503172e4724746",
    (FAMILY_SENSITIVITY, 1, 16): "69a9afa186afb965cadd4c563a38632db95392b7d2ed159769860042517c005b",
    (FAMILY_SENSITIVITY, 2, 2): "9330d72e5baf53166d8654e90fd6a20f75fb7eadb26df448e54eda18d560e362",
    (FAMILY_SENSITIVITY, 2, 4): "42f10a5bb1d64e9ab01fe9cf26bfbcdf8beffd2a7df01c96b052369c3c38b766",
    (FAMILY_SENSITIVITY, 2, 10): "520d0af7b56e822fa85c2e58bafaac3c5e7481c78ba448e655ddfb27d9b281a0",
    (FAMILY_SENSITIVITY, 2, 16): "00c13aae79bad0f14ba3527bb68675f679b9f9c34d14cd79894d7031ce50d6c4",
    (FAMILY_SENSITIVITY, 3, 2): "5e461652619a68fc5cf1282f0bf5dc9a06f762a66a0270596b171a7115e78c5d",
    (FAMILY_SENSITIVITY, 3, 4): "37c5e27b62341120feaf08ccf291e71b52b85b5841b31d36cb14af6bf027276a",
    (FAMILY_SENSITIVITY, 3, 10): "41a26a39477c3468e7f846dcc440da781d17e1211f0bb70126d700cc650a89cc",
    (FAMILY_SENSITIVITY, 3, 16): "718be03c4f84546fe16d04e2d9fcecc93a8573a43d6ab000c78203a26430dd59",
    (FAMILY_SENSITIVITY, 5, 2): "957ef58cfc5e1b983c45d392dd2eb970815999ea7b54c06e9e5bd4968e033c19",
    (FAMILY_SENSITIVITY, 5, 4): "72f0e48a7dbe5323341399c94769b17486e41f138cd3b918d2069adc00383357",
    (FAMILY_SENSITIVITY, 5, 10): "cb1166d21d9430062ea23b36ca8d8fdd3968c0df943a0a5b4edf25b37c1ebbb3",
    (FAMILY_SENSITIVITY, 5, 16): "474bbc3bae07c566f8969927b187c4eb4f791b608ff4f9acc1c4a91996d74991",
    (FAMILY_PROXIMITY, 2, 1): "aef7f2f20dbafd0633d8bce6c5048110a0094403d2fd3130997130f6aeb4c620",
    (FAMILY_PROXIMITY, 2, 3): "8d1be60a22310e7166ebe6d18efec7c7622de10b460076131a13517212bc1f94",
    (FAMILY_PROXIMITY, 2, 7): "e2266a34dbcf0b10fbec023b19a22e6632581a71dd76c7f97a89b4a026bef46a",
    (FAMILY_PROXIMITY, 2, 9): "654031e9f62d5fd498559bb8adcf91dcf9800d0209d58a07e936cb52765b01f6",
    (FAMILY_PROXIMITY, 3, 1): "66f75376bf9196a5f4eebc0af4279fb77021e2c10edd630febc80082e2a8da65",
    (FAMILY_PROXIMITY, 3, 3): "4b265ddacda47d96140c4d0969143a7845382280ad5617f21ca2ad8f0c467ad9",
    (FAMILY_PROXIMITY, 3, 7): "f7e31e429f4b38adde02534fe305910ef7ca902507cf602126d921c8f2f695e3",
    (FAMILY_PROXIMITY, 3, 9): "bde909a9eada4474db931fc92b4622dc0383e8b2ad1ab56d11a514288897e8c0",
    (FAMILY_PROXIMITY, 5, 1): "28ff9b5a0993d4d242f310f6459e9609f7dc9be27286eb54acaa5a119560fa2a",
    (FAMILY_PROXIMITY, 5, 3): "0ba06b3533e1b8cd8afca5a8186fbc2ffebfafdebd7432394a3e7bdcc12a6b10",
    (FAMILY_PROXIMITY, 5, 7): "03d5b21e3143953241a6924ed5a5ca4a74af24c26e05ab77ff9907ffaaed8fd8",
    (FAMILY_PROXIMITY, 5, 9): "a87d626bdbdb7e396be8713b500babd79b6a78f74692b4105647b386b32d629d",
}


@pytest.mark.parametrize("family, delta, d", list(GENERATED_SHA256))
def test_generated_cell_is_pinned(family, delta, d):
    record = FAMILIES[family]
    text = doc_dumps(instance_to_doc(record.generate(delta, d)))
    if record.expected_pair is not None:
        extra = [vec_str(x) for x in record.expected_pair(delta, d)]
    else:
        extra = vec_str(record.certificate(delta, d))
    got = hashlib.sha256((text + json.dumps(extra)).encode()).hexdigest()
    assert got == GENERATED_SHA256[family, delta, d]


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

    @pytest.mark.parametrize("delta", [2, 3, 5, 7])
    @pytest.mark.parametrize("d", [1, 3, 5, 7, 9, 11])
    def test_literal_sums(self, delta, d):
        p = sum(delta ** (2 * i - 1) for i in range(1, (d - 1) // 2 + 1))
        q = sum(delta ** (2 * i - 2) for i in range(1, (d + 1) // 2 + 1))
        assert p_q_constants(delta, d) == (p, q)

    @pytest.mark.parametrize("delta", [1, 2, 3, 5])
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 7, 10, 16])
    def test_tails_differ_by_the_staircase_reference(self, delta, d):
        # the paper's closed forms: the tails from 1 and from 0 differ by delta**(j-1) in block j
        gap = [abs(x - y) for x, y in zip(instances_module._tail(delta, d, 1), instances_module._tail(delta, d, 0))]
        assert instances_module._staircase_reference(delta, d) == (sum(gap), max(gap))


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

    def test_many_sizes_do_not_recurse(self):
        # 1,000 sizes in (1/2, 1]: the empty bin and each item alone, on paths 1,000 items deep
        sizes = [F(1, 2) + F(i, 2000) for i in range(1, 1001)]
        with shallow_stack():
            got = enumerate_configurations(sizes)
        assert len(got) == 1001 and got == sorted(got)
        assert got[0] == (0,) * 1000 and got[-1] == (1,) + (0,) * 999

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

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.fractions(min_value=F(1, 6), max_value=1), min_size=1, max_size=3))
    def test_count_is_the_listing_length(self, sizes):
        sizes = sorted(set(sizes))
        q = math.lcm(*(x.denominator for x in sizes))
        n = len(enumerate_configurations(sizes))
        assert instances_module._count_configurations([int(x * q) for x in sizes], q, n) == n
        # so the listing is refused exactly when it would pass the limit
        with pytest.raises(BudgetExceededError, match=f"more than {n - 1} configurations"):
            enumerate_configurations(sizes, limit=n - 1)


def configurations(inst):
    """The columns of a bin-packing instance as item multiplicity vectors."""
    return [tuple(int(x) for x in col) for col in inst.lp.a.cols()]


class TestBinPackingSensitivity:
    def test_boundary_sizes(self):
        inst = gen_binpack_sensitivity(2, 2)
        assert inst.epsilon == F(1, 20)
        assert inst.sizes == (F(3, 10), F(7, 20))
        # the largest distinguished column fills the bin exactly
        assert inst.sizes[0] + 2 * inst.sizes[1] == 1
        assert (1, 2) in configurations(inst)

    def test_distinguished_columns_lead(self):
        inst = gen_binpack_sensitivity(2, 4)
        general = gen_sensitivity(2, 4)
        for j in range(4):
            assert inst.lp.a.col(j) == general.lp.a.col(j)
        assert inst.c1_indices == (0, 1, 2, 3)
        assert inst.lp.c[:4] == vec([0, 0, 0, 0]) and all(x == 1 for x in inst.lp.c[4:])
        assert inst.notes == "configurations=all"

    @pytest.mark.parametrize("delta", [2, 3, 4])
    @pytest.mark.parametrize("d", [2, 4, 6])
    def test_columns_are_feasible_configurations(self, delta, d):
        inst = gen_binpack_sensitivity(delta, d)
        for idx in inst.c1_indices:
            assert dot(inst.lp.a.col(idx), inst.sizes) <= 1

    def test_single_items_always_fit(self):
        inst = gen_binpack_sensitivity(3, 4)
        for i in range(len(inst.sizes)):
            single = tuple(1 if j == i else 0 for j in range(len(inst.sizes)))
            assert single in configurations(inst)

    def test_delta_one_embedding_fails_loudly(self):
        # two items of size > 1/2 can never share a bin
        with pytest.raises(EmbeddingError):
            gen_binpack_sensitivity(1, 2)

    def test_multiplicities_match_family_rhs(self):
        inst = gen_binpack_sensitivity(2, 4)
        assert inst.lp.b == vec([1, 2, 4, 8])
        assert inst.alt_rhs == vec([0, 2, 4, 8])


class TestBinPackingProximity:
    def test_structure(self):
        inst = gen_binpack_proximity(2, 3)
        general = gen_proximity(2, 3)
        assert len(inst.sizes) == 45
        assert inst.lp.n == 51
        assert inst.notes == "configurations=distinguished only"
        assert inst.lp.b == general.lp.b
        assert all(x == 0 for x in inst.lp.c)
        # restriction to the distinguished columns is the block system itself
        for j in range(inst.lp.n):
            assert inst.lp.a.col(j) == general.lp.a.col(j)

    @pytest.mark.parametrize("delta", [2, 3])
    def test_columns_fit_exactly(self, delta):
        inst = gen_binpack_proximity(delta, 3)
        for col in inst.lp.a.cols():
            assert dot(col, inst.sizes) <= 1

    def test_epsilon_is_positive_and_capped(self):
        inst = gen_binpack_proximity(2, 3)
        cap = F(57, 60 * (45 - 2 + 2 * (45 - 1)))
        assert 0 < inst.epsilon <= cap

    def test_epsilon_from_the_fit_below_the_cap(self):
        # at (100, 3) a family column fills the bin exactly before the cap binds
        inst = gen_binpack_proximity(100, 3)
        assert inst.epsilon == F(2899, 13590000) < F(57, 60 * (45 - 2 + 100 * (45 - 1)))
        assert max(dot(col, inst.sizes) for col in inst.lp.a.cols()) == 1

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            gen_binpack_proximity(1, 3)
        with pytest.raises(ValueError):
            gen_binpack_proximity(2, 2)

    def test_sizes_strictly_increasing(self):
        inst = gen_binpack_proximity(3, 3)
        assert all(a < b for a, b in zip(inst.sizes, inst.sizes[1:]))


@pytest.mark.parametrize(
    "generate, staircase, delta, d",
    [(gen_binpack_sensitivity, gen_sensitivity, delta, d) for delta in (2, 3) for d in (2, 4)]
    + [(gen_binpack_proximity, gen_proximity, delta, 3) for delta in (2, 3)],
)
def test_embedding_structure(generate, staircase, delta, d):
    inst, general = generate(delta, d), staircase(delta, d)
    n_family = len(inst.c1_indices)
    assert inst.c1_indices == tuple(range(general.lp.n))
    assert [inst.lp.a.col(j) for j in range(n_family)] == general.lp.a.cols()
    assert (inst.lp.b, inst.alt_rhs) == (general.lp.b, general.alt_rhs)
    assert [j for j, cj in enumerate(inst.lp.c) if cj == 0] == list(inst.c1_indices)
    assert all(cj in (0, 1) for cj in inst.lp.c)
    columns = configurations(inst)
    assert all(dot(vec(k), inst.sizes) <= 1 for k in columns)
    assert len(set(columns)) == len(columns)
    if generate is gen_binpack_sensitivity:
        assert set(columns) == set(enumerate_configurations(inst.sizes))


class TestSerialization:
    @pytest.mark.parametrize(
        "inst",
        [
            gen_sensitivity(2, 4),
            gen_proximity(2, 1),
            gen_binpack_sensitivity(2, 2),
            gen_binpack_proximity(2, 3),
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
        # one entry string, or int, recurs across rows and keys; each 'p/q'
        # string is parsed by Fraction once, and an integral one is read as its int
        doc = instance_to_doc(gen_binpack_sensitivity(2, 2))
        doc.update(family="custom", b=[1, "1"] + doc["b"][2:], c=["6/3"] + doc["c"][1:])
        doc["matrix"][0][:2] = ["4/2", "4/2"]
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
        assert all(type(x) is int for x in (*inst.lp.a.rows[0], *inst.lp.b, *inst.lp.c))
        written = [x for x in entries if isinstance(x, str) and "/" in x]
        assert sorted(parsed) == sorted(set(written))
        assert len(parsed) < len(written)

    def test_malformed_entry_after_a_parsed_one_is_rejected(self):
        doc = instance_to_doc(gen_sensitivity(2, 2))
        doc["b"] = [doc["matrix"][0][0], True]
        with pytest.raises(ValueError, match="'b'"):
            instance_from_doc(doc)
        doc["b"] = [doc["matrix"][0][0], "3/0"]
        with pytest.raises(ValueError, match="zero denominator in 'b'"):
            instance_from_doc(doc)
