import numpy as np
import pytest

from reelab.errors import EigensolverError, StateFileParseError, StateInvariantError
from reelab.statefile import dumps_state, load_state, loads_state, save_state
from reelab.states import (
    DensityMatrix,
    maximally_mixed,
    random_density,
    random_pure,
    singlet,
    werner,
)


def test_round_trip_is_byte_identical(tmp_path):
    states = [
        singlet(),
        werner(0.3),
        maximally_mixed((2, 3)),
        random_density(4, 4, 8).tagged(2, 2),
        random_density(3, 2, 9),
        random_pure((2, 2), seed=10).density(),
    ]
    for idx, state in enumerate(states):
        path = tmp_path / f"state_{idx}.json"
        save_state(state, path)
        first = path.read_bytes()
        save_state(load_state(path), path)
        assert path.read_bytes() == first


def test_round_trip_preserves_values_exactly():
    state = random_density(4, 4, 77).tagged(2, 2)
    again = loads_state(dumps_state(state))
    assert np.array_equal(again.mat, state.mat)
    assert again.dims.da == 2 and again.dims.db == 2


def test_dims_block_is_optional():
    state = random_density(3, 3, 5)
    assert state.dims is None
    again = loads_state(dumps_state(state))
    assert again.dims is None
    assert np.array_equal(again.mat, state.mat)


def test_malformed_json_reports_position():
    with pytest.raises(StateFileParseError) as info:
        loads_state('{"version": "1",\n  "matrix": [[[1, 0]]\n}')
    assert info.value.line is not None
    assert info.value.column is not None


def test_undecodable_file_is_a_parse_failure(tmp_path):
    path = tmp_path / "binary.json"
    path.write_bytes(b'{"version": "1", \xff}')
    with pytest.raises(StateFileParseError, match="not UTF-8 text: invalid start byte at byte 17"):
        load_state(path)


def test_schema_violations_rejected():
    good = dumps_state(singlet())
    with pytest.raises(StateFileParseError):
        loads_state("[1, 2, 3]")
    with pytest.raises(StateFileParseError):
        loads_state('{"matrix": [[[1, 0]]]}')
    with pytest.raises(StateFileParseError):
        loads_state(good.replace('"1"', '"2"'))
    with pytest.raises(StateFileParseError):
        loads_state(good.replace('"version"', '"verzion"'))
    with pytest.raises(StateFileParseError):
        loads_state('{"version": 1, "matrix": [[[1, 0]]]}')
    # dims must match the matrix dimension
    with pytest.raises(StateFileParseError):
        loads_state(
            '{"version": "1", "dims": {"dA": 2, "dB": 2}, "matrix": [[[1, 0]]]}'
        )
    # entries must be [re, im] pairs of plain numbers
    with pytest.raises(StateFileParseError):
        loads_state('{"version": "1", "matrix": [[[1, 0, 0]]]}')
    with pytest.raises(StateFileParseError):
        loads_state('{"version": "1", "matrix": [[[true, 0]]]}')
    with pytest.raises(StateFileParseError):
        loads_state('{"version": "1", "matrix": [[[1e999, 0]]]}')
    # rows must form a square matrix
    with pytest.raises(StateFileParseError):
        loads_state('{"version": "1", "matrix": [[[1, 0], [0, 0]]]}')


def _matrix_doc(rows: str) -> str:
    return '{"version": "1", "matrix": ' + rows + "}"


def test_integer_entries_are_accepted():
    state = loads_state(_matrix_doc("[[[1, 0], [0, 0]], [[0, 0], [0, 0]]]"))
    assert np.array_equal(state.mat, np.diag([1.0, 0.0]).astype(complex))
    assert np.array_equal(loads_state(_matrix_doc("[[[1, 0]]]")).mat, [[1.0 + 0j]])


@pytest.mark.parametrize(
    "rows, message",
    [
        ("[[[0.5, 0], [0, 0]], [[true, 0], [0.5, 0]]]", "matrix entry (1,0) real part must be a number"),
        ("[[[0.5, 0], [0, false]], [[0, 0], [0.5, 0]]]", "matrix entry (0,1) imaginary part must be a number"),
        ('[[[0.5, 0], [0, 0]], [[0, 0], ["0.5", 0]]]', "matrix entry (1,1) real part must be a number"),
        ("[[[0.5, {}], [0, 0]], [[0, 0], [0.5, 0]]]", "matrix entry (0,0) imaginary part must be a number"),
        ("[[[0.5, 0], [0, 0]], [[0, null], [0.5, 0]]]", "matrix entry (1,0) imaginary part must be a number"),
        ("[[[0.5, 0], [0, 0]], [[NaN, 0], [0.5, 0]]]", "matrix entry (1,0) real part must be finite"),
        ("[[[0.5, 0], [0, -Infinity]], [[0, 0], [0.5, 0]]]", "matrix entry (0,1) imaginary part must be finite"),
        ("[[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0, 0]]]", "matrix entry (1,1) must be a [re, im] pair"),
        ("[[[0.5, 0], [0, 0]], [[0, 0], 0.5]]", "matrix entry (1,1) must be a [re, im] pair"),
        ("[[[0.5, 0], [0, 0]], [[0, 0]]]", "matrix row 1 must be an array of 2 entries"),
        # the first faulty entry in file order is the one reported
        ("[[[0.5, 0], [1e999, true]], [[true, 0], [0.5, 0]]]", "matrix entry (0,1) real part must be finite"),
        ("[[[0.5, 0], [0, 0]], [[1e999, true], [0.5]]]", "matrix entry (1,0) real part must be finite"),
    ],
)
def test_entry_faults_name_the_first_faulty_entry(rows, message):
    with pytest.raises(StateFileParseError) as info:
        loads_state(_matrix_doc(rows))
    assert str(info.value) == message
    assert info.value.line is None and info.value.column is None


@pytest.mark.parametrize("sign", ["", "-"])
def test_oversized_integer_entry_is_not_finite(sign):
    # float() of a 401-digit integer overflows; 1e999 already parses as inf
    huge = sign + "1" + "0" * 400
    with pytest.raises(StateFileParseError, match=r"^matrix entry \(0,0\) real part must be finite$"):
        loads_state(_matrix_doc(f"[[[{huge}, 0]]]"))
    with pytest.raises(StateFileParseError, match=r"^matrix entry \(0,0\) imaginary part must be finite$"):
        loads_state(_matrix_doc(f"[[[1, {huge}]]]"))
    # an integer inside the double range is a number, and fails the trace check instead
    with pytest.raises(StateInvariantError, match="trace"):
        loads_state(_matrix_doc(f"[[[{sign}1{'0' * 300}, 0]]]"))


def test_negative_zero_entries_round_trip():
    state = DensityMatrix(np.array([[0.5, complex(-0.0, -0.0)], [0.0, 0.5]]))
    assert np.signbit(state.mat[0, 1].imag)
    text = dumps_state(state)
    assert "[0, -0.0]" in text
    again = loads_state(text)
    assert np.signbit(again.mat[0, 1].imag)
    assert dumps_state(again) == text


@pytest.mark.parametrize("d", range(1, 17))
def test_saving_a_loaded_file_reproduces_it(d):
    rng = np.random.default_rng(d)
    g = rng.standard_normal((d, d))
    real = g @ g.T
    candidates = [
        random_density(d, d, 40 + d),
        random_density(d, max(1, d // 2), 60 + d),
        DensityMatrix(real / np.trace(real)),
    ]
    # a pure state on every split of d into dA x dB
    candidates += [random_pure((da, d // da), 80 + d).density() for da in range(1, d + 1) if d % da == 0]
    for state in candidates:
        text = dumps_state(state)
        assert dumps_state(loads_state(text)) == text


def test_state_invariants_enforced():
    with pytest.raises(StateInvariantError):
        loads_state('{"version": "1", "matrix": [[[0.9, 0], [0, 0]], [[0, 0], [0.099, 0]]]}')
    with pytest.raises(StateInvariantError):
        loads_state(
            '{"version": "1", "matrix": [[[1.5, 0], [0, 0]], [[0, 0], [-0.5, 0]]]}'
        )
    # hermiticity failure beyond tolerance
    with pytest.raises(StateInvariantError):
        loads_state(
            '{"version": "1", "matrix": [[[0.5, 0], [0.1, 0]], [[0.2, 0], [0.5, 0]]]}'
        )


def test_small_defects_are_repaired_not_rejected():
    # trace off by 5e-9 sits inside the file band but outside the strict
    # constructor band; the loader renormalizes
    off = 0.5 + 2.5e-9
    text = f'{{"version": "1", "matrix": [[[{off}, 0], [0, 0]], [[0, 0], [{off}, 0]]]}}'
    state = loads_state(text)
    assert abs(float(np.trace(state.mat).real) - 1.0) < 1e-12

    # a slightly negative eigenvalue is clipped to zero
    text = (
        '{"version": "1", "matrix": '
        '[[[1.000000005, 0], [0, 0]], [[0, 0], [-5e-9, 0]]]}'
    )
    state = loads_state(text)
    assert float(np.linalg.eigvalsh(state.mat)[0]) >= 0.0


def _count_decompositions(monkeypatch, text):
    """np.linalg eigh and eigvalsh calls made by loads_state(text)."""
    calls = {"eigh": 0, "eigvalsh": 0}
    for name in calls:
        inner = getattr(np.linalg, name)

        def counted(m, _name=name, _inner=inner):
            calls[_name] += 1
            return _inner(m)

        monkeypatch.setattr(np.linalg, name, counted)
    loads_state(text)
    return calls


def test_exact_file_is_decomposed_once(monkeypatch):
    # one eigh serves the file's PSD band and becomes the state's spectrum
    text = dumps_state(random_density(6, 3, 12).tagged(2, 3))
    assert _count_decompositions(monkeypatch, text) == {"eigh": 1, "eigvalsh": 0}


def test_repaired_files_are_decomposed_once_or_after_clipping(monkeypatch):
    # a renormalised matrix is decomposed once, after the renormalisation;
    # a clipped one is rebuilt, so the constructor decomposes it again
    off = 0.5 + 2.5e-9
    renormalised = f'{{"version": "1", "matrix": [[[{off}, 0], [0, 0]], [[0, 0], [{off}, 0]]]}}'
    assert _count_decompositions(monkeypatch, renormalised) == {"eigh": 1, "eigvalsh": 0}
    clipped = '{"version": "1", "matrix": [[[1.000000005, 0], [0, 0]], [[0, 0], [-5e-9, 0]]]}'
    assert _count_decompositions(monkeypatch, clipped) == {"eigh": 2, "eigvalsh": 0}


def test_eigensolver_failure_is_typed(monkeypatch):
    def failing(m):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", failing)
    with pytest.raises(EigensolverError):
        loads_state(dumps_state(werner(0.3)))


def test_serialization_keeps_17_significant_digits():
    text = dumps_state(singlet())
    assert '"version": "1"' in text
    assert '"dims": {"dA": 2, "dB": 2}' in text

    third = DensityMatrix(np.diag([1 / 3, 2 / 3]))
    text = dumps_state(third)
    assert "0.33333333333333331" in text
    assert "0.66666666666666663" in text
