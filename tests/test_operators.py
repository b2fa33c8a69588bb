"""Entry sequences, truncation assembly, Carleman diagnostic, JSON interchange."""

import json
import math

import numpy as np
import pytest

from blockjacobi import (EntrySequence, ParameterError,
                         assemble_truncation, carleman_check, constant_sequence,
                         custom_sequence, example1_sequence, example2_sequence,
                         example3_sequence, explicit_sequence, load_operator,
                         operator_to_json, with_prefix)


def test_example2_blocks():
    seq = example2_sequence(3.0)
    A, B = seq.block(7)
    assert np.array_equal(A, np.array([[1, 3], [0, 1]], dtype=complex))
    assert np.array_equal(B, np.zeros((2, 2)))


def test_constant_scalar_free_jacobi():
    seq = constant_sequence(np.array([[1.0]]), np.array([[0.0]]))
    assert seq.dim == 1
    A, B = seq.block(5)
    assert A[0, 0] == 1.0 and B[0, 0] == 0.0


def test_example3_block_values():
    seq = example3_sequence(x=0.0, alpha=0.75, c1=0.0, c2=1.0)
    A1 = seq.a(1)
    A2 = seq.a(2)
    assert np.allclose(A1, np.eye(2))
    assert np.allclose(A2, (2.0 ** 0.75 + 1.0) * np.eye(2))
    assert A2[0, 0].real == pytest.approx(2.681793, abs=1e-6)


def test_example1_rules():
    seq = example1_sequence(lambda_rule={"kind": "power", "scale": 2.0, "exponent": 1.0},
                            eps_rule={"kind": "power", "scale": 1.0, "exponent": -1.0})
    A, B = seq.block(4)
    assert A[0, 1] == 8.0
    assert A[0, 0] == pytest.approx(0.25)
    assert A[1, 0] == 0.0
    assert np.all(B == 0)


def test_parameter_validation():
    with pytest.raises(ParameterError):
        example3_sequence(x=0.0, alpha=0.4, c1=0.0, c2=1.0)
    with pytest.raises(ParameterError):
        example3_sequence(x=0.0, alpha=1.0, c1=0.0, c2=1.0)
    with pytest.raises(ParameterError):
        example3_sequence(x=2.0, alpha=0.75, c1=0.0, c2=1.0)
    with pytest.raises(ParameterError):
        EntrySequence(dim=2, family="example2", params={"x": 1 + 1j})
    with pytest.raises(ParameterError):
        EntrySequence(dim=2, family="nonsense")
    with pytest.raises(ParameterError):
        EntrySequence(dim=0, family="example2", params={"x": 1.0})


def test_hermiticity_enforced_on_b():
    bad_b = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ParameterError):
        constant_sequence(np.eye(2), bad_b)
    with pytest.raises(ParameterError):
        explicit_sequence([(np.eye(2), bad_b)])
    # deviation within tolerance is accepted
    almost = np.array([[0.0, 1.0], [1.0 + 5e-13, 0.0]])
    constant_sequence(np.eye(2), almost)


def test_truncation_example2_n2():
    op = assemble_truncation(example2_sequence(3.0), 2)
    expected = np.array([[0, 0, 1, 3],
                         [0, 0, 0, 1],
                         [1, 0, 0, 0],
                         [3, 1, 0, 0]], dtype=complex)
    assert np.array_equal(op.to_dense(), expected)


def test_truncation_diagonal_case():
    seq = constant_sequence(np.zeros((1, 1)), np.array([[2.5]]))
    op = assemble_truncation(seq, 6)
    assert np.array_equal(op.to_dense(), 2.5 * np.eye(6))


def test_truncation_example1_coupling_structure():
    seq = example1_sequence(lambda_rule={"kind": "power"}, eps_rule={"kind": "zero"})
    op = assemble_truncation(seq, 3)
    M = op.to_dense()
    nz = {(i, j) for i in range(6) for j in range(6) if M[i, j] != 0}
    # (block n, row 1) couples to (block n+1, col 2) with value lambda_n = n
    expected = {(0, 3), (3, 0), (2, 5), (5, 2)}
    assert nz == expected
    assert M[0, 3] == 1.0 and M[2, 5] == 2.0


def test_truncation_hermitian_and_nesting():
    for seq in (example2_sequence(3.0),
                example3_sequence(x=0.5, alpha=0.6, c1=-1.0, c2=2.0),
                example1_sequence(eps_rule={"kind": "power", "scale": 0.1,
                                            "exponent": -0.5})):
        big = assemble_truncation(seq, 50).to_dense()
        dev = np.max(np.abs(big - big.conj().T))
        assert dev <= 1e-12
        small = assemble_truncation(seq, 49)
        lead = big[: 49 * 2, : 49 * 2]
        assert np.array_equal(lead, small.to_dense())
    # hermiticity holds at N = 1000 as well
    M = assemble_truncation(example2_sequence(3.0), 1000).to_dense()
    assert np.max(np.abs(M - M.conj().T)) == 0.0


def test_truncation_needs_two_blocks():
    with pytest.raises(ParameterError):
        assemble_truncation(example2_sequence(1.0), 1)


def test_prefix_override():
    base = example2_sequence(3.0)
    pert = with_prefix(base, [(base.a(1), 1.5 * np.eye(2))])
    assert np.allclose(pert.b(1), 1.5 * np.eye(2))
    assert np.all(pert.b(2) == 0)
    assert np.array_equal(pert.a(5), base.a(5))


def test_explicit_sequence_tail_and_exhaustion():
    blocks = [(np.array([[float(k)]]), np.array([[0.0]])) for k in (1, 2, 3)]
    seq = explicit_sequence(blocks)
    assert seq.a(2)[0, 0] == 2.0
    with pytest.raises(ParameterError):
        seq.block(4)
    seq_tail = explicit_sequence(blocks, tail=(np.array([[9.0]]), np.array([[1.0]])))
    assert seq_tail.a(10)[0, 0] == 9.0
    with pytest.raises(ParameterError):
        explicit_sequence([])


def test_norms_spectral():
    seq = example2_sequence(3.0)
    # ||A||^2 = 1 + x^2/2 + sqrt((1 + x^2/2)^2 - 1)
    expected = math.sqrt(5.5 + math.sqrt(5.5 ** 2 - 1.0))
    nrm = seq.norms(4)
    assert np.allclose(nrm, expected, rtol=1e-12)
    oracle = np.linalg.norm(seq.a(1), 2)
    assert nrm[0] == pytest.approx(oracle, rel=1e-13)


# ---------------------------------------------------------------------------
# Carleman diagnostic

def test_carleman_constant():
    seq = constant_sequence(np.array([[1.0]]), np.array([[0.0]]))
    diag = carleman_check(seq, 100)
    assert diag.partial_sum == pytest.approx(100.0, rel=1e-12)
    assert diag.verdict == "divergent-looking"


def test_carleman_example3():
    seq = example3_sequence(x=0.0, alpha=0.75, c1=0.0, c2=1.0)
    diag = carleman_check(seq, 10 ** 4)
    oracle = sum(1.0 / (k ** 0.75 + (0.0 if k % 2 == 1 else 1.0))
                 for k in range(1, 10 ** 4 + 1))
    assert diag.partial_sum == pytest.approx(oracle, rel=1e-10)
    assert abs(diag.partial_sum - 37.0) <= 3.7
    assert diag.verdict == "divergent-looking"


def test_carleman_geometric_inconclusive():
    seq = custom_sequence(lambda n: (np.array([[2.0 ** n]]), np.array([[0.0]])), 1)
    diag = carleman_check(seq, 50)
    assert diag.partial_sum < 1.0
    assert diag.verdict == "inconclusive"


def test_carleman_zero_block():
    seq = explicit_sequence([(np.zeros((1, 1)), np.zeros((1, 1)))],
                            tail=(np.ones((1, 1)), np.zeros((1, 1))))
    diag = carleman_check(seq, 10)
    assert math.isinf(diag.partial_sum)
    assert diag.verdict == "divergent-looking"


# ---------------------------------------------------------------------------
# JSON interchange

def test_json_round_trip(tmp_path):
    base = example3_sequence(x=0.5, alpha=0.8, c1=0.0, c2=2.0)
    seq = with_prefix(base, [(np.array([[0, 1j], [0, 0]]), np.eye(2))])
    data = operator_to_json(seq)
    text = json.dumps(data)
    loaded = load_operator(json.loads(text))
    assert loaded.family == "example3"
    assert loaded.params["alpha"] == 0.8
    for n in (1, 2, 5):
        a1, b1 = seq.block(n)
        a2, b2 = loaded.block(n)
        assert np.allclose(a1, a2, atol=0) and np.allclose(b1, b2, atol=0)
    path = tmp_path / "op.json"
    path.write_text(text)
    assert np.allclose(load_operator(str(path)).a(3), seq.a(3))


def test_json_complex_entries():
    spec = {"dim": 1, "family": "constant",
            "params": {"A": [[[0.0, 1.0]]], "B": [[0.0]]}}
    seq = load_operator(spec)
    assert seq.a(1)[0, 0] == 1j


def test_json_rejects_unknown_family_and_custom():
    with pytest.raises(ParameterError):
        load_operator({"dim": 1, "family": "custom", "params": {}})
    seq = custom_sequence(lambda n: (np.eye(1), np.zeros((1, 1))), 1)
    with pytest.raises(ParameterError):
        operator_to_json(seq)


def test_block_index_validation():
    seq = example2_sequence(1.0)
    with pytest.raises(ParameterError):
        seq.block(0)
