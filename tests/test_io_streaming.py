"""The text codec block by block: writers hand out pieces of about
``errors.BLOCK_ROWS`` pairs, gate records or CSV rows, the array reader parses
one block at a time, and the CLI writes the pieces to disk.

The codec's results must not depend on the block size, so the canonical
round trips and the tampered files of ``test_io_cli`` are rerun with blocks of
1 and 3; each tampered file still falls back to the full parse and gets its
error. At N = 256 the transients of the codec are bounded by tracemalloc.
"""

import math
import tracemalloc
from io import BytesIO

import pytest
from cli_runner import CliRunner
from test_io_cli import (
    ARRAY_FORMATS,
    ARRAY_SHAPES,
    CIRCUIT_SHAPES,
    array_outcome,
    array_variants,
    bloch_csv,
    canonical_circuit,
    circuit_record,
    circuit_variants,
    coefficient_record,
    density_record,
    dump_coefficients,
    dump_density,
    json_text,
    load_outcome,
    reference_load_circuit,
    state_record,
)

from qpurify import (
    apply_schedule,
    cholesky_purify,
    coefficients_to_state,
    extract_parameters,
    random_density,
    schedule_from_parameters,
)
from qpurify import bloch, errors, io
from qpurify.cli import main

#: Block sizes that put a block boundary after every pair or every third one.
SMALL_BLOCKS = [1, 3]


@pytest.fixture(params=SMALL_BLOCKS, ids=lambda b: f"block{b}")
def small_block(request, monkeypatch):
    monkeypatch.setattr(errors, "BLOCK_ROWS", request.param)
    return request.param


def refuse(pair):
    raise AssertionError("a canonical array was parsed entry by entry")


class Pipe(BytesIO):
    """A binary file that cannot seek, as a pipe."""

    def seekable(self):
        return False


def sources(text):
    """The ways a reader takes a file: its text, an open binary file and one
    that cannot seek."""
    data = text.encode()
    return {"str": lambda: text, "file": lambda: BytesIO(data), "pipe": lambda: Pipe(data)}


class TestSmallBlocks:
    @pytest.mark.parametrize("kind", sorted(ARRAY_FORMATS))
    @pytest.mark.parametrize("d,n,rank", ARRAY_SHAPES)
    def test_array_variants_match_full_parse(self, small_block, kind, d, n, rank):
        load, reference, canonical, key = ARRAY_FORMATS[kind]
        for label, text in array_variants(canonical(d, n, rank), key).items():
            want = array_outcome(reference, text)
            for kind, source in sources(text).items():
                assert array_outcome(load, source()) == want, (label, kind)

    @pytest.mark.parametrize("d,n,rank", CIRCUIT_SHAPES)
    def test_circuit_variants_match_full_parse(self, small_block, d, n, rank):
        for label, text in circuit_variants(canonical_circuit(d, n, rank)).items():
            want = load_outcome(reference_load_circuit, text)
            for kind, source in sources(text).items():
                assert load_outcome(io.load_circuit, source()) == want, (label, kind)

    def test_tampered_at_every_separator(self, small_block, monkeypatch):
        # a stray space or token beside each separator in turn, so that one
        # sits at every block boundary: each file goes to the full parse,
        # which decides it
        full_parses = []
        record = io._record

        def spy(text, kind):
            full_parses.append(kind)
            return record(text, kind)

        monkeypatch.setattr(io, "_record", spy)
        for kind, (load, reference, canonical, key) in ARRAY_FORMATS.items():
            text = canonical(2, 2, None)
            cut = text.index(f'"{key}":[') + len(key) + 4
            head, body = text[:cut], text[cut:]
            seps = [i for i in range(len(body)) if body.startswith("],[", i)]
            assert len(seps) >= 15
            for i in seps:
                for edit in ("], [", "]0,[", "],0[", "]],["):
                    variant = head + body[:i] + edit + body[i + 3 :]
                    want = array_outcome(reference, variant)
                    for source in sources(variant).values():
                        full_parses.clear()
                        assert array_outcome(load, source()) == want, (kind, i, edit)
                        assert full_parses, (kind, i, edit)

    def test_canonical_files_read_block_by_block(self, small_block, monkeypatch):
        monkeypatch.setattr(io, "_parse_complex", refuse)
        for load, _, canonical, _ in ARRAY_FORMATS.values():
            for d, n, rank in ARRAY_SHAPES:
                for source in sources(canonical(d, n, rank)).values():
                    load(source())

    def test_writers_match_json(self, small_block):
        rho = random_density(2, 3, seed=8)
        coeffs = cholesky_purify(rho)
        state = coefficients_to_state(coeffs)
        params = extract_parameters(coeffs)
        schedule = schedule_from_parameters(params)
        assert io.dump_state(state) == json_text(state_record(state))
        assert dump_density(rho) == json_text(density_record(rho))
        assert dump_coefficients(coeffs.C) == json_text(coefficient_record(coeffs.C))
        assert io.dump_circuit(rho.shape, params, schedule) == json_text(circuit_record(rho.shape, params, schedule))
        # round trips, byte for byte
        assert io.dump_state(io.load_state(io.dump_state(state))) == io.dump_state(state)
        assert dump_density(io.load_density(dump_density(rho))) == dump_density(rho)
        text = io.dump_circuit(rho.shape, params, schedule)
        assert io.dump_circuit(*io.load_circuit(text)) == text

    def test_pieces_hold_at_most_one_block(self, small_block):
        # every piece after the head holds at most a block of pairs (whole
        # rows of a matrix: one row here), gate records or CSV rows
        rho = random_density(2, 2, seed=3)
        pieces = list(io.state_pieces(coefficients_to_state(cholesky_purify(rho))))[1:-1]
        assert len(pieces) == math.ceil(16 / small_block)
        assert all(p.lstrip(",").count("],[") < small_block for p in pieces)
        rows = list(io.density_pieces(rho))[1:-1]
        assert len(rows) == 4 and all(r.lstrip(",").count("]],[[") == 0 for r in rows)
        csv = list(bloch.bloch_pieces([0.0, 0.5], 6, 2))[1:]  # whole thetas of 2 rows
        assert all(p.count("\n") == 2 * max(small_block // 2, 1) for p in csv)
        assert sum(p.count("\n") for p in csv) == 2 * 6 * 2
        params = extract_parameters(cholesky_purify(rho))
        pieces = list(io.circuit_pieces(rho.shape, params))
        block = pieces[pieces.index(',"schedule":[') + 1 : -1]
        assert all(p.count('{"gate"') <= small_block for p in block)
        assert sum(p.count('{"gate"') for p in block) == 15


#: A character of two UTF-8 bytes, and a lone surrogate, which UTF-8 cannot encode.
NON_ASCII = {"e-acute": "\u00e9", "lone surrogate": "\ud800"}


def edits_from(text, start, char):
    """``text`` with ``char`` put in before, and in place of, each of its
    characters from ``start`` on."""
    for i in range(start, len(text)):
        yield text[:i] + char + text[i:]
        yield text[:i] + char + text[i + 1 :]


class TestNonAsciiText:
    """A text source is encoded one window at a time, with its positions
    counted in characters: a character of more than one byte, or of none,
    moves no window off the text it belongs to. Blocks of 1 and 3 put a
    window edge every few pairs or records, and each edit is made at every
    character of the block, so some sit at an edge."""

    @pytest.mark.parametrize("notes", [1, 2, 3])
    def test_non_ascii_head_reads_block_by_block(self, small_block, monkeypatch, notes):
        monkeypatch.setattr(io, "_parse_complex", refuse)
        note = '{"note":"%s",' % (NON_ASCII["e-acute"] * notes)
        for load, _, canonical, _ in ARRAY_FORMATS.values():
            for d, n, rank in ARRAY_SHAPES:
                text = canonical(d, n, rank)
                assert array_outcome(load, text.replace("{", note, 1)) == array_outcome(load, text)

    @pytest.mark.parametrize("char", NON_ASCII.values(), ids=NON_ASCII)
    def test_non_ascii_in_array_matches_full_parse(self, small_block, char):
        for kind, (load, reference, canonical, key) in ARRAY_FORMATS.items():
            text = canonical(2, 1, None)
            start = text.index(f'"{key}":[') + len(key) + 4
            for variant in edits_from(text, start, char):
                assert array_outcome(load, variant) == array_outcome(reference, variant), (kind, variant)

    @pytest.mark.parametrize("char", NON_ASCII.values(), ids=NON_ASCII)
    def test_non_ascii_in_schedule_matches_full_parse(self, small_block, char):
        text = canonical_circuit(2, 1, None)
        for variant in edits_from(text, text.index(io._SCHEDULE_KEY), char):
            assert load_outcome(io.load_circuit, variant) == load_outcome(reference_load_circuit, variant), variant


def traced_peak(fn):
    """The result of ``fn()`` and the peak of the memory traced while it runs."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def n256():
    rho = random_density(2, 8, seed=7)
    coeffs = cholesky_purify(rho)
    params = extract_parameters(coeffs)
    return rho, coeffs, params, schedule_from_parameters(params)


def writers(rho, coeffs, params, schedule):
    """Each writer's pieces, by file kind, and the count of its units."""
    state = coefficients_to_state(coeffs)
    N = rho.shape.N
    return {
        "state": (lambda: io.state_pieces(state), N * N),
        "density": (lambda: io.density_pieces(rho), N * N),
        "coefficients": (lambda: io.coefficient_pieces(coeffs.C), N * N),
        "circuit": (lambda: io.circuit_pieces(rho.shape, params), N * N - 1),
        "bloch": (lambda: bloch.bloch_pieces(bloch.sweep_alphas(5), 100, 100), 5 * 100 * 100),
    }


class TestMemoryAtN256:
    @pytest.mark.parametrize("kind", ["state", "density", "coefficients", "circuit", "bloch"])
    def test_writer_transients(self, n256, kind):
        pieces, units = writers(*n256)[kind]
        "".join(pieces())  # warm caches
        text, peak = traced_peak(lambda: "".join(pieces()))
        # the joined text and the list of its pieces, and little else
        assert peak <= 2.5 * len(text), peak / len(text)
        # no piece longer than twice the mean text of a block of units
        assert max(map(len, pieces())) <= 2 * len(text) * errors.BLOCK_ROWS / units
        assert len(list(pieces())) > 8

    @pytest.mark.parametrize("kind", ["state", "density", "circuit"])
    @pytest.mark.parametrize("form", ["str", "file"])
    def test_reader_transients(self, n256, kind, form):
        rho, coeffs, params, schedule = n256
        text = {
            "state": lambda: io.dump_state(coefficients_to_state(coeffs)),
            "density": lambda: dump_density(rho),
            "circuit": lambda: io.dump_circuit(rho.shape, params, schedule),
        }[kind]()
        load = {"state": io.load_state, "density": io.load_density, "circuit": io.load_circuit}[kind]
        source = sources(text)[form]
        load(source())  # warm caches
        given = source()
        _, peak = traced_peak(lambda: load(given))
        assert peak <= 2.0 * len(text), peak / len(text)


class TestCliStreams:
    """At N = 128 every file is several blocks; each one the CLI streams is
    the joined text of its writer, byte for byte."""

    def test_files_equal_joined_text(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        runner = CliRunner()

        def run(*argv):
            result = runner.invoke(main, list(argv))
            assert result.exit_code == 0, result.output

        run("random", "--d", "2", "--n", "7", "--seed", "11", "--out", "rho.json")
        rho = random_density(2, 7, seed=11)
        assert (tmp_path / "rho.json").read_text() == dump_density(rho)
        assert len(list(io.density_pieces(rho))) > 3

        run("purify", "--input", "rho.json", "--out", "psi.json", "--coeffs", "c.json")
        coeffs = cholesky_purify(io.load_density((tmp_path / "rho.json").read_text()))
        state = coefficients_to_state(coeffs)
        assert (tmp_path / "psi.json").read_text() == io.dump_state(state)
        assert (tmp_path / "c.json").read_text() == dump_coefficients(coeffs.C)
        assert len(list(io.state_pieces(state))) > 3

        run("synth", "--input", "rho.json", "--out", "circuit.json")
        params = extract_parameters(coeffs)
        schedule = schedule_from_parameters(params)
        assert (tmp_path / "circuit.json").read_text() == io.dump_circuit(rho.shape, params, schedule)

        run("simulate", "--circuit", "circuit.json", "--out", "state.json", "--expect", "rho.json")
        simulated = apply_schedule(io.load_circuit((tmp_path / "circuit.json").read_text())[2])
        assert (tmp_path / "state.json").read_text() == io.dump_state(simulated)

        run("bloch", "--alphas", "3", "--grid", "80x80", "--out", "bloch.csv")
        assert (tmp_path / "bloch.csv").read_text() == bloch_csv(bloch.sweep_alphas(3), 80, 80)
        assert len(list(bloch.bloch_pieces(bloch.sweep_alphas(3), 80, 80))) > 3


class TestOpenFiles:
    """A reader given an open file gives what it gives for the text
    ``Path.read_text`` reads from the same file."""

    @pytest.mark.parametrize(
        "edit",
        [
            lambda b: b,
            lambda b: b.replace(b"\n", b"\r\n"),  # universal newlines
            lambda b: b"\xef\xbb\xbf" + b,  # a UTF-8 byte order mark stays in the text
            lambda b: b[:20] + b"\xff" + b[20:],  # not UTF-8
            lambda b: b.replace(b"{", b'{"note":"\xc3\xa9",', 1),  # non-ASCII before the array
        ],
        ids=["canonical", "crlf", "bom", "invalid", "non-ascii head"],
    )
    @pytest.mark.parametrize("kind", ["density", "state", "circuit"])
    def test_file_read_as_text(self, tmp_path, kind, edit):
        rho = random_density(2, 2, seed=5)
        coeffs = cholesky_purify(rho)
        params = extract_parameters(coeffs)
        load, text, outcome = {
            "density": (io.load_density, dump_density(rho), array_outcome),
            "state": (io.load_state, io.dump_state(coefficients_to_state(coeffs)), array_outcome),
            "circuit": (
                io.load_circuit,
                io.dump_circuit(rho.shape, params, schedule_from_parameters(params)),
                load_outcome,
            ),
        }[kind]
        path = tmp_path / "file.json"
        path.write_bytes(edit(text.encode()))
        try:
            want = outcome(load, path.read_text())
        except UnicodeDecodeError as exc:
            want = type(exc), str(exc)
        with path.open("rb") as file:
            assert outcome(load, file) == want
