"""Property tests for the two file parsers: any input either parses to a
structure that survives a serialize/parse round trip, or is refused with
LatticeError or ValueError, and the command line refuses the same bytes
with exit status 2 instead of a traceback."""
import contextlib
import io
import json

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from supq.cli import EXIT_BAD_INPUT, main
from supq.lattice import LatticeError, parse_lattice, serialize_lattice
from supq.structures import parse_quantale, serialize_quantale

FUZZ = settings(max_examples=300, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=20,
)
small = st.integers(-1, 6)
lattice_docs = st.one_of(
    st.builds(lambda n, covers: {"elements": [str(i) for i in range(n)], "covers": covers},
              st.integers(0, 6), st.lists(st.lists(small, min_size=2, max_size=2), max_size=8)),
    st.builds(lambda rows: {"leq": rows},
              st.lists(st.lists(st.booleans(), max_size=5), max_size=5)),
    st.dictionaries(st.sampled_from(["elements", "covers", "leq", "extra"]), json_values, max_size=3),
    json_values,
)
chain_carriers = st.builds(
    lambda n: {"elements": [str(i) for i in range(n)], "covers": [[i, i + 1] for i in range(n - 1)]},
    st.integers(1, 3),
)
quantale_docs = st.one_of(
    st.builds(lambda c, m: {"carrier": c, "mult": m}, lattice_docs, json_values),
    st.builds(lambda c, m: {"carrier": c, "mult": m}, chain_carriers,
              st.lists(st.lists(st.integers(-1, 3) | json_values, max_size=3), max_size=3)),
    json_values,
)
DEEP = b"[" * 100_000


def _cli_exit(args) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(args)
    assert "Traceback" not in err.getvalue()
    return code


@FUZZ
@given(st.one_of(lattice_docs.map(lambda doc: json.dumps(doc).encode()), st.binary(max_size=30)))
@example(DEEP)
@example(b'{"elements": ["a"], "covers": [[0, 1e400]]}')
@example('{"leq": [[true]], "elements": ["é"]}'.encode())
def test_parse_lattice_round_trips_or_refuses(tmp_path, data):
    try:
        L = parse_lattice(data)
    except (LatticeError, ValueError):
        path = tmp_path / "input.json"
        path.write_bytes(data)
        assert _cli_exit(["verify", str(path)]) == EXIT_BAD_INPUT
        assert _cli_exit(["analyze", str(path)]) == EXIT_BAD_INPUT
        return
    back = parse_lattice(serialize_lattice(L))
    assert back.same_structure(L) and list(back.names) == list(L.names)


@FUZZ
@given(quantale_docs.map(json.dumps))
@example(DEEP.decode())
@example('{"carrier": {"elements": ["0"], "covers": []}, "mult": [[null]]}')
@example('{"carrier": {"elements": ["0"], "covers": []}, "mult": [[100000]]}')
@example('{"carrier": {"elements": ["0", "1"], "covers": [[0, 1]]}, "mult": [[0, 0], [0.5, 1]]}')
def test_parse_quantale_round_trips_or_refuses(text):
    try:
        Q = parse_quantale(text)
    except (LatticeError, ValueError):
        return
    back = parse_quantale(serialize_quantale(Q))
    assert back.carrier.same_structure(Q.carrier) and (back.mult == Q.mult).all()
