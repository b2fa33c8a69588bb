"""Entry sequences, truncation assembly, Carleman diagnostic, JSON interchange."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from blockjacobi import (EntrySequence, ParameterError, TruncatedOperator,
                         assemble_truncation, carleman_check, constant_sequence,
                         custom_sequence, example1_sequence, example2_sequence,
                         example3_sequence, explicit_sequence, load_operator,
                         operator_to_json, with_prefix)
from blockjacobi import cumulative_phi, operators

from dense import dense


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
    assert np.array_equal(dense(op), expected)


def test_truncation_diagonal_case():
    seq = constant_sequence(np.zeros((1, 1)), np.array([[2.5]]))
    op = assemble_truncation(seq, 6)
    assert np.array_equal(dense(op), 2.5 * np.eye(6))


def test_truncation_example1_coupling_structure():
    seq = example1_sequence(lambda_rule={"kind": "power"}, eps_rule={"kind": "zero"})
    op = assemble_truncation(seq, 3)
    M = dense(op)
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
        big = dense(assemble_truncation(seq, 50))
        dev = np.max(np.abs(big - big.conj().T))
        assert dev <= 1e-12
        small = assemble_truncation(seq, 49)
        lead = big[: 49 * 2, : 49 * 2]
        assert np.array_equal(lead, dense(small))
    # hermiticity holds at N = 1000 as well
    M = dense(assemble_truncation(example2_sequence(3.0), 1000))
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


@given(st.integers(1, 4), st.integers(0, 5), st.booleans(), st.integers(0, 2**32 - 1))
def test_json_round_trip_explicit_list(d, n_prefix, with_tail, seed):
    # random explicit-list operators with prefix and tail survive the JSON
    # text round trip bit for bit
    with_tail = with_tail or n_prefix == 0     # the sequence needs one of them
    rng = np.random.default_rng(seed)
    count = n_prefix + 1
    A = rng.standard_normal((count, d, d)) + 1j * rng.standard_normal((count, d, d))
    H = rng.standard_normal((count, d, d)) + 1j * rng.standard_normal((count, d, d))
    B = H + H.conj().transpose(0, 2, 1)
    tail = (A[-1], B[-1]) if with_tail else None
    seq = explicit_sequence(list(zip(A[:n_prefix], B[:n_prefix])), tail=tail, dim=d)
    loaded = load_operator(json.loads(json.dumps(operator_to_json(seq))))
    assert (loaded.family, loaded.dim) == ("explicit-list", d)
    assert len(loaded.prefix) == n_prefix
    assert (loaded.tail is None) == (not with_tail)
    hi = n_prefix + 1 + (3 if with_tail else 0)
    for old, new in zip(seq.blocks(1, hi), loaded.blocks(1, hi)):
        assert old.dtype == new.dtype and old.tobytes() == new.tobytes()


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


# ---------------------------------------------------------------------------
# block stacks

def test_blocks_names_first_non_hermitian_b():
    def fn(n):
        B = np.array([[0.0, 1.0], [0.0, 0.0]]) if n >= 7 else np.zeros((2, 2))
        return np.eye(2), B
    seq = custom_sequence(fn, 2)
    assert seq.blocks(1, 7)[1].shape == (6, 2, 2)
    with pytest.raises(ParameterError, match=r"^B_7 is not Hermitian"):
        seq.blocks(1, 10)


def test_blocks_names_non_finite_a():
    seq = custom_sequence(
        lambda n: (np.array([[math.nan if n in (3, 5) else 1.0]]), np.zeros((1, 1))), 1)
    with pytest.raises(ParameterError, match=r"^A_3 contains non-finite entries"):
        seq.blocks(2, 8)
    with pytest.raises(ParameterError, match=r"^A_3 "):
        seq.norms(6)


def test_blocks_shape_and_range_validation():
    seq = custom_sequence(
        lambda n: (np.eye(3 if n == 4 else 2), np.zeros((2, 2))), 2)
    with pytest.raises(ParameterError, match=r"^A_4 must be 2x2"):
        seq.blocks(1, 6)
    ragged = custom_sequence(lambda n: (np.ones((2, 3)), np.zeros((2, 2))), 2)
    with pytest.raises(ParameterError, match=r"^A_1 must be a square matrix"):
        ragged.blocks(1, 3)
    with pytest.raises(ParameterError):
        example2_sequence(3.0).blocks(0, 4)
    A, B = example2_sequence(3.0).blocks(5, 5)
    assert A.shape == B.shape == (0, 2, 2)


def test_blocks_match_block_across_prefix_and_tail():
    rng = np.random.default_rng(11)
    prefix = []
    for _ in range(4):
        H = rng.standard_normal((2, 2))
        prefix.append((rng.standard_normal((2, 2)), H + H.T))
    tail = (np.array([[2.0, 1.0], [0.0, 2.0]]), np.diag([1.0, -1.0]))
    seq = explicit_sequence(prefix, tail=tail)
    A, B = seq.blocks(2, 9)
    assert A.shape == B.shape == (7, 2, 2)
    assert not A.flags.writeable and not B.flags.writeable
    for i, n in enumerate(range(2, 9)):
        a, b = seq.block(n)
        assert np.array_equal(A[i], a) and np.array_equal(B[i], b)
    assert np.array_equal(B[0], prefix[1][1]) and np.array_equal(A[-1], tail[0])


def per_n_blocks(seq, lo, hi):
    """(A, B) stacks of ``seq`` for n in [lo, hi), one block per n: the
    generation rules of the stack families written out for a single n."""
    p, d = seq.params, seq.dim

    def upper(x):
        return np.array([[1.0, x], [0.0, 1.0]], dtype=complex)

    def block(n):
        if n <= len(seq.prefix):
            return seq.prefix[n - 1]
        if seq.family == "constant":
            return p["A"], p["B"]
        if seq.family == "example2":
            return upper(p["x"]), np.zeros((2, 2), dtype=complex)
        if seq.family == "example3":
            c = p["c1"] if n % 2 == 1 else p["c2"]
            return (n ** p["alpha"] + c) * upper(p["x"]), np.zeros((2, 2), dtype=complex)
        return seq.tail
    pairs = [block(n) for n in range(lo, hi)]
    return (np.array([a for a, _ in pairs], dtype=complex).reshape(-1, d, d),
            np.array([b for _, b in pairs], dtype=complex).reshape(-1, d, d))


def test_stacks_equal_per_n_blocks_bit_for_bit():
    rng = np.random.default_rng(3)
    H = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    constant = constant_sequence(rng.standard_normal((3, 3)) - 2j, H + H.conj().T)
    prefix2 = [(rng.standard_normal((2, 2)) + 1j, np.diag([k, -k])) for k in (1.0, 2.0, 3.0)]
    families = [
        example2_sequence(3.0), example2_sequence(-0.7),
        # c1 != c2, negative n**alpha + c_n and negative x: signed zeros too
        example3_sequence(x=0.5, alpha=0.75, c1=-1.0, c2=2.0),
        example3_sequence(x=-1.5, alpha=0.6, c1=0.25, c2=-9.0),
        explicit_sequence(prefix2, tail=(np.array([[2.0, 1j], [0.0, 2.0]]),
                                         np.diag([1.0, -1.0]))),
    ]
    seqs = [constant, with_prefix(constant, [(np.eye(3), np.eye(3))] * 3)]
    seqs += families + [with_prefix(s, prefix2) for s in families[:4]]
    # from inside, at the end of and beyond a 3-block prefix, both parities
    ranges = [(1, 1), (1, 4), (2, 3), (2, 9), (3, 10), (4, 9), (4, 5), (5, 40),
              (6, 41), (1, 20_001)]
    for seq in seqs:
        for lo, hi in ranges:
            got, want = seq.blocks(lo, hi), per_n_blocks(seq, lo, hi)
            for g, w in zip(got, want):
                assert g.shape == w.shape and g.tobytes() == w.tobytes(), (seq.family, lo, hi)
                assert not g.flags.writeable


def test_stack_errors_name_the_first_bad_index():
    eye, zero = np.eye(2), np.zeros((2, 2))
    no_tail = explicit_sequence([(eye, zero)] * 3)
    assert no_tail.blocks(1, 4)[0].shape == (3, 2, 2)
    for lo, first in ((2, 4), (5, 5)):
        with pytest.raises(ParameterError, match=(
                rf"^explicit-list sequence has 3 blocks and no tail; block {first} requested$")):
            no_tail.blocks(lo, 8)
    with pytest.raises(ParameterError, match=r"^prefix A_2 contains non-finite entries$"):
        with_prefix(example2_sequence(1.0), [(eye, zero), (np.full((2, 2), math.inf), zero)])
    with pytest.raises(ParameterError, match=(
            r"^prefix B_3 is not Hermitian \(deviation 1\.000e\+00 > 1e-12\)$")):
        with_prefix(example3_sequence(0.5, 0.75, 1.0, 2.0),
                    [(eye, zero)] * 2 + [(eye, np.array([[0.0, 1.0], [0.0, 0.0]]))])
    with pytest.raises(ParameterError, match=r"^A_4 contains non-finite entries$"):
        with_prefix(example2_sequence(math.inf), [(eye, zero)] * 3).blocks(2, 6)
    # an infinite c2 makes the even blocks NaN, without a numpy warning
    with pytest.raises(ParameterError, match=r"^A_6 contains non-finite entries$"):
        example3_sequence(0.5, 0.75, 0.0, math.inf).blocks(5, 9)


def test_rules_are_evaluated_once_per_n():
    calls = []

    def fn(n):
        calls.append(n)
        bad = math.nan if n == 11 else float(n)
        return np.array([[bad]]), np.zeros((1, 1))
    seq = with_prefix(custom_sequence(fn, 1), [(np.eye(1), np.eye(1))] * 2)
    seq.blocks(1, 6)
    assert calls == [3, 4, 5]
    seq.blocks(2, 9)                        # starts inside the kept blocks
    seq.blocks(4, 7)
    assert calls == [3, 4, 5, 6, 7, 8]
    seq.blocks(12, 14)                      # past them: evaluated on its own
    seq.blocks(9, 10)
    assert calls == [3, 4, 5, 6, 7, 8, 12, 13, 9]
    with pytest.raises(ParameterError, match=r"^A_11 contains non-finite entries$"):
        seq.blocks(5, 13)
    assert calls[-3:] == [10, 11, 12]
    A, B = seq.blocks(1, 11)
    assert A[:, 0, 0].real.tolist() == [1.0, 1.0] + [float(n) for n in range(3, 11)]
    assert calls[-1:] == [10] and not A.flags.writeable and not B.flags.writeable
    # per-n evaluation errors keep their text and first index
    eps = example1_sequence(eps_rule=lambda n: 1j if n >= 4 else 0.5)
    assert eps.blocks(1, 4)[0].shape == (3, 2, 2)
    with pytest.raises(ParameterError, match=r"^example1 eps rule must be real, got 1j at n=4$"):
        eps.blocks(2, 7)


def counted_entry(monkeypatch, family):
    """Replace ``family``'s generator by one that records each (lo, hi) call."""
    calls = []
    entry = operators._BLOCK_STACKS[family]

    def counted(seq, lo, hi):
        calls.append((lo, hi))
        return entry(seq, lo, hi)
    monkeypatch.setitem(operators._BLOCK_STACKS, family, counted)
    return calls


def test_experiment_reads_generate_each_block_once(monkeypatch):
    calls = counted_entry(monkeypatch, "example2")
    seq = example2_sequence(3.0)
    seq.norms(600)
    assemble_truncation(seq, 600)
    assemble_truncation(seq, 1200)
    cumulative_phi(seq, 1.0, 1199)
    generated = [n for lo, hi in calls for n in range(lo, hi)]
    assert generated == list(range(1, 1201))


def test_norms_grown_in_pieces_equal_one_batched_svd(monkeypatch):
    def fn(n):
        rng = np.random.default_rng(n)
        return rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)), np.eye(3)
    seq = custom_sequence(fn, 3)
    measured = []
    svd = np.linalg.svd

    def counted(a, *args, **kwargs):
        measured.append(len(a))
        return svd(a, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "svd", counted)
    pieces = {k: seq.norms(k) for k in (5, 60, 1200)}
    assert measured == [5, 55, 1140]
    assert seq.norms(700).tobytes() == pieces[1200][:700].tobytes() and len(measured) == 3
    monkeypatch.undo()
    want = np.linalg.svd(seq.blocks(1, 1201)[0], compute_uv=False)[:, 0]
    for k, got in pieces.items():
        assert got.tobytes() == want[:k].tobytes() and not got.flags.writeable


def test_closed_form_ranges_past_the_kept_blocks_stand_alone(monkeypatch):
    calls = counted_entry(monkeypatch, "example3")
    eye, zero = np.eye(2), np.zeros((2, 2))
    seq = with_prefix(example3_sequence(0.5, 0.75, 1.0, -2.0), [(eye, zero)] * 2)
    seq.blocks(1, 6)
    assert calls == [(3, 6)]
    seq.blocks(2, 9)                        # starts inside the kept blocks
    seq.blocks(4, 7)
    assert calls == [(3, 6), (6, 9)]
    far = seq.blocks(20_000, 20_002)        # past them: generated on its own
    seq.blocks(9, 10)
    assert calls == [(3, 6), (6, 9), (20_000, 20_002), (9, 10)]
    A, B = seq.blocks(1, 11)
    assert calls[-1] == (10, 11)
    for got, want in zip(far + (A, B), per_n_blocks(seq, 20_000, 20_002)
                         + per_n_blocks(seq, 1, 11)):
        assert got.tobytes() == want.tobytes() and not got.flags.writeable


def test_truncation_rejects_non_hermitian_b_stack():
    b_blocks = np.zeros((4, 2, 2), dtype=complex)
    b_blocks[2, 0, 1] = 1e-6
    with pytest.raises(ParameterError, match=r"^B_3 is not Hermitian"):
        TruncatedOperator(a_blocks=np.ones((3, 2, 2)), b_blocks=b_blocks)
