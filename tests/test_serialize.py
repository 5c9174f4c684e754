import json

import numpy as np
import pytest

import infobalance as ib
from conftest import qstate, random_state


def test_instrument_round_trip():
    instr = ib.random_instrument(42, 2, 3, 2, 2)
    text = ib.dumps_instrument(instr)
    back = ib.loads_instrument(text)
    assert back.d_in == instr.d_in and back.d_out == instr.d_out
    for oa, ob in zip(instr.outcomes, back.outcomes):
        assert oa.label == ob.label
        for ka, kb in zip(oa.kraus, ob.kraus):
            assert np.array_equal(ka, kb)


def test_serialize_is_canonical():
    instr = ib.random_instrument(7, 2, 2, 2, 1)
    text = ib.dumps_instrument(instr)
    assert ib.dumps_instrument(ib.loads_instrument(text)) == text


def test_projective_fixture_file(fixtures_dir):
    instr = ib.loads_instrument((fixtures_dir / "projective_qubit.json").read_text())
    assert instr.n_outcomes == 2
    assert all(o.multiplicity == 1 for o in instr.outcomes)


def test_trace_violating_file_names_invariant(fixtures_dir):
    text = (fixtures_dir / "tp_violating.json").read_text()
    with pytest.raises(ib.ParseError, match="trace preservation"):
        ib.loads_instrument(text)
    # loading without invariant checks still works, for inspection
    instr = ib.loads_instrument(text, validate_invariants=False)
    assert not ib.validate(instr).passed


def test_malformed_json_reports_line(fixtures_dir):
    with pytest.raises(ib.ParseError, match="line"):
        ib.loads_instrument((fixtures_dir / "malformed.json").read_text())


def test_missing_field():
    with pytest.raises(ib.ParseError, match="d_out"):
        ib.loads_instrument('{"d_in": 2, "outcomes": []}')


def test_ragged_matrix_rejected():
    doc = '{"d_in": 2, "d_out": 2, "outcomes": [{"label": "0", "kraus": [[[[1,0],[0,0]],[[0,0]]]]}]}'
    with pytest.raises(ib.ParseError, match="ragged"):
        ib.loads_instrument(doc)


@pytest.mark.parametrize(
    "load, text, where",
    [
        (
            ib.loads_instrument,
            '{"d_in": true, "d_out": true, "outcomes": [{"label": "0", "kraus": [[[[1, 0]]]]}]}',
            "field 'd_in': expected int, got bool",
        ),
        (
            ib.loads_state,
            '{"labels": [{"name": "Q", "dim": true}], "matrix": [[[1, 0]]]}',
            r"field 'labels\[0\].dim': expected int, got bool",
        ),
        (
            ib.loads_instrument,
            '{"d_in": 1, "d_out": 1, "outcomes": [{"label": "0", "kraus": [[[[true, false]]]]}]}',
            r"complex entries are \[re, im\]",
        ),
    ],
    ids=["instrument-dims", "state-dim", "kraus-entry"],
)
def test_boolean_is_not_a_number(load, text, where):
    with pytest.raises(ib.ParseError, match=where):
        load(text)


def test_state_round_trip():
    rng = np.random.default_rng(3)
    state = random_state(rng, 3)
    text = ib.dumps_state(state)
    back = ib.loads_state(text)
    assert back.names == state.names
    np.testing.assert_allclose(back.matrix, state.matrix, atol=0)


def test_state_full_precision():
    state = qstate([1 / 3, 2 / 3])
    text = ib.dumps_state(state)
    assert "0.33333333333333331" in text
    back = ib.loads_state(text)
    assert back.matrix[0, 0].real == 1 / 3


def test_state_invariant_violation():
    text = ib.dumps_state(qstate([0.5, 0.5])).replace("0.5", "0.7", 1)
    with pytest.raises(ib.ParseError, match="invariant"):
        ib.loads_state(text)


def test_complex_entries_survive():
    m = np.array([[0.5, 0.1j], [-0.1j, 0.5]], dtype=complex)
    state = ib.LabeledState([ib.Subsystem("Q", 2)], m)
    back = ib.loads_state(ib.dumps_state(state))
    np.testing.assert_allclose(back.matrix, m, atol=0)


def test_recovery_channels_are_valid_single_outcome_instruments():
    instr = ib.projective()
    family = ib.petz_family(instr, qstate([0.5, 0.5]))
    for label, kraus in zip(family.outcome_labels, family.channels):
        channel = ib.Instrument(instr.d_out, instr.d_in, (ib.OutcomeMap(label, kraus),))
        assert ib.validate(channel).passed


def test_reduced_dilation_state_serializes():
    bundle = ib.dilate(ib.projective(), ib.purify(qstate([0.5, 0.5])))
    state = ib.reduced(bundle, ["R", "X"])
    back = ib.loads_state(ib.dumps_state(state))
    assert back.names == ("R", "X")
    np.testing.assert_allclose(back.matrix, state.matrix, atol=0)


def nested_floats(m):
    """The nested ``[re, im]`` lists that ``_matrix_out`` formats in one pass."""
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m)]


@pytest.mark.parametrize(
    "matrix",
    [
        np.array([[-0.0, 5e-324], [1e308, -1e308]]),
        np.array([[1.0, 2.0 - 3.0j], [-0.0j, 1e16 + 0.5j]]),
        np.array([[complex(-0.0, -0.0), 2.5e-310j, 12345678901234567.0]]),
        np.zeros((3, 0)),
        np.eye(4)[:, ::2],
        *(
            np.random.default_rng(seed).standard_normal((r, c, 2)) @ [1, 1j]
            for seed, (r, c) in enumerate([(1, 1), (2, 3), (5, 5), (8, 2)])
        ),
    ],
    ids=["extremes", "integral", "negative-zero", "no-columns", "strided", *"abcd"],
)
def test_matrix_fragment_is_the_recursive_emit(matrix):
    fragment = ib.serialize._matrix_out(matrix)
    assert fragment == ib.serialize._emit(nested_floats(matrix))
    assert ib.serialize._emit({"m": fragment}) == '{"m": ' + fragment + "}"


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
def test_matrix_fragment_rejects_non_finite(value):
    matrix = np.eye(2, dtype=complex)
    matrix[1, 0] = value
    expected = next(x for x in np.ravel(nested_floats(matrix)) if not np.isfinite(x))
    with pytest.raises(ib.ParseError, match=rf"^cannot serialize non-finite float {expected}$"):
        ib.serialize._matrix_out(matrix)


@pytest.mark.parametrize(
    "matrix, message",
    [
        ("[[[1, 0], 5]]", "field 'matrix[0][1]': expected list, got int"),
        ("[[[1, 0], [1]]]", "field 'matrix'[0][1]: complex entries are [re, im]"),
        ("[[[1, 0], [1, 0, 0]]]", "field 'matrix'[0][1]: complex entries are [re, im]"),
        ("[[[1, 0], [true, 0]]]", "field 'matrix'[0][1]: complex entries are [re, im]"),
        ('[[[1, 0], [0, "1"]]]', "field 'matrix'[0][1]: complex entries are [re, im]"),
        ("[[[1, 0], [null, 0]]]", "field 'matrix'[0][1]: complex entries are [re, im]"),
        ("[[[1, 0], [0, 0]], [[0, 0]]]", "field 'matrix': row 1 has ragged length"),
        ("[[[1, 0]], 3]", "field 'matrix[1]': expected list, got int"),
        ("3", "field 'matrix': expected list, got int"),
        ("[]", "field 'matrix': empty matrix"),
    ],
    ids=["non-list", "one-element", "three-elements", "true", "string", "null",
         "ragged", "row-not-list", "not-list", "empty"],
)
def test_malformed_matrix_message(matrix, message):
    text = '{"labels": [{"name": "Q", "dim": 2}], "matrix": %s}' % matrix
    with pytest.raises(ib.ParseError) as exc:
        ib.loads_state(text)
    assert str(exc.value) == message


def test_integers_read_as_floats_bit_for_bit():
    values = [0, 1, -7, 2**53 + 1, 2**63 + 1, -(2**64) - 3, 3**600, 2**1024 - 2**970 - 1]
    node = json.loads(json.dumps([[[v, -v] for v in values]]))
    matrix = ib.serialize._matrix_in(node, "matrix")
    assert matrix.tobytes() == np.array([[complex(v, -v) for v in values]]).tobytes()


BIG = "9" * 401


def big_entry_docs():
    """One malformed document per loader, each with a 401-digit integer entry."""
    instr = json.loads(ib.dumps_instrument(ib.projective()))
    instr["outcomes"][1]["kraus"][0][0][1] = [0, "BIG"]
    state = json.loads(ib.dumps_state(qstate([0.5, 0.5])))
    state["matrix"][1][0] = ["-BIG", 0]
    return [
        (ib.loads_instrument, instr, "'outcomes[1].kraus[0]'[0][1]"),
        (ib.loads_state, state, "'matrix'[1][0]"),
    ]


@pytest.mark.parametrize(
    "load, doc, field", big_entry_docs(), ids=["instrument", "state"]
)
def test_integer_too_large_for_a_float_is_a_parse_error(load, doc, field):
    text = json.dumps(doc).replace('"-BIG"', "-" + BIG).replace('"BIG"', BIG)
    assert BIG in text
    with pytest.raises(ib.ParseError) as exc:
        load(text)
    assert str(exc.value) == f"field {field}: integer too large for a float"


def test_least_integer_past_the_largest_float_is_a_parse_error():
    # 2**1024 - 2**970 is halfway between the largest float and 2**1024
    limit = 2**1024 - 2**970
    with pytest.raises(OverflowError):
        float(limit)
    with pytest.raises(ib.ParseError, match=r"^field 'm'\[0\]\[1\]: integer too large for a float$"):
        ib.serialize._matrix_in([[[0, 0], [1, -limit]]], "m")
