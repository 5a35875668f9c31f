"""Persistence (CSV/JSON) and CLI tests."""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import io as repro_io
from repro.cli import main
from repro.data import inflation_growth_fragment
from repro.errors import SchemaError
from repro.model import AttributeCategory, MicrodataDB, MicrodataSchema
from repro.vadalog.terms import LabelledNull


class TestSchemaSerialization:
    def test_roundtrip(self, ig_db):
        payload = repro_io.schema_to_dict(ig_db.schema)
        rebuilt = repro_io.schema_from_dict(payload)
        assert rebuilt == ig_db.schema

    def test_bad_payload(self):
        with pytest.raises(SchemaError):
            repro_io.schema_from_dict({"nope": []})


class TestCsvRoundtrip:
    def test_plain_roundtrip(self, ig_db, tmp_path):
        path = tmp_path / "ig.csv"
        repro_io.save_csv(ig_db, path)
        loaded = repro_io.load_csv(path)
        assert loaded.schema == ig_db.schema
        assert loaded.rows == ig_db.rows

    def test_labelled_nulls_survive(self, cities_db, tmp_path):
        db = cities_db.copy()
        db.with_value(0, "Sector", LabelledNull(7))
        path = tmp_path / "cities.csv"
        repro_io.save_csv(db, path)
        loaded = repro_io.load_csv(path)
        assert loaded.rows[0]["Sector"] == LabelledNull(7)

    def test_numbers_reparsed(self, ig_db, tmp_path):
        path = tmp_path / "ig.csv"
        repro_io.save_csv(ig_db, path)
        loaded = repro_io.load_csv(path)
        assert isinstance(loaded.rows[0]["Weight"], int)
        assert loaded.weight_of(14) == 30

    def test_explicit_schema_object(self, cities_db, tmp_path):
        path = tmp_path / "c.csv"
        repro_io.save_csv(cities_db, path)
        loaded = repro_io.load_csv(path, schema=cities_db.schema,
                                   name="renamed")
        assert loaded.name == "renamed"

    def test_missing_schema_sidecar(self, tmp_path):
        path = tmp_path / "orphan.csv"
        path.write_text("A\n1\n")
        with pytest.raises(SchemaError):
            repro_io.load_csv(path)

    def test_header_mismatch(self, cities_db, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("Wrong,Header\n1,2\n")
        with pytest.raises(SchemaError):
            repro_io.load_csv(path, schema=cities_db.schema)

    def test_empty_file(self, cities_db, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(SchemaError):
            repro_io.load_csv(path, schema=cities_db.schema)


class TestCli:
    def generate(self, tmp_path, code="R6A4U", scale=20):
        out = tmp_path / "data.csv"
        exit_code = main(
            ["generate", code, "--scale", str(scale), "-o", str(out)]
        )
        assert exit_code == 0
        return out

    def test_generate_writes_csv_and_schema(self, tmp_path):
        out = self.generate(tmp_path)
        assert out.exists()
        sidecar = out.with_suffix(".schema.json")
        assert sidecar.exists()
        payload = json.loads(sidecar.read_text())
        names = [e["name"] for e in payload["attributes"]]
        assert "Area" in names

    def test_assess_exit_code_signals_risk(self, tmp_path, capsys):
        out = self.generate(tmp_path)
        exit_code = main(
            ["assess", str(out), "--measure", "k-anonymity", "--k", "2"]
        )
        captured = capsys.readouterr().out
        assert "risky rows" in captured
        assert exit_code == 1  # risky rows found

    def test_assess_explain(self, tmp_path, capsys):
        out = self.generate(tmp_path)
        main(["assess", str(out), "--measure", "k-anonymity", "--k",
              "2", "--explain", "0"])
        assert "row 0" in capsys.readouterr().out

    def test_anonymize_roundtrip(self, tmp_path, capsys):
        out = self.generate(tmp_path)
        anon = tmp_path / "anon.csv"
        exit_code = main(
            ["anonymize", str(out), "--measure", "k-anonymity",
             "--k", "2", "-o", str(anon)]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "converged=True" in output
        loaded = repro_io.load_csv(anon)
        # Identifiers dropped by default.
        assert "Id" not in loaded.schema.attributes
        # The anonymized view is k-anonymous again.
        exit_code = main(
            ["assess", str(anon), "--measure", "k-anonymity", "--k", "2"]
        )
        assert exit_code == 0

    def test_anonymize_differential_measure(self, tmp_path, capsys):
        out = self.generate(tmp_path)
        anon = tmp_path / "anon.csv"
        exit_code = main(
            ["anonymize", str(out), "--measure", "differential",
             "--epsilon", "0.8", "-o", str(anon)]
        )
        assert exit_code == 0

    def test_report_command(self, tmp_path, capsys):
        out = self.generate(tmp_path)
        exit_code = main(["report", str(out), "--k", "2"])
        output = capsys.readouterr().out
        assert "Exchange report" in output
        assert "k-anonymity" in output
        assert exit_code == 1  # raw synthetic file is blocked

    def test_report_passes_after_anonymization(self, tmp_path, capsys):
        out = self.generate(tmp_path)
        anon = tmp_path / "anon.csv"
        main(["anonymize", str(out), "--measure", "k-anonymity",
              "--k", "2", "-o", str(anon)])
        capsys.readouterr()
        exit_code = main(["report", str(anon), "--k", "2"])
        output = capsys.readouterr().out
        # k-anonymity holds; reidentification/individual may still
        # exceed the default global budget on a small file, so only
        # check the k-anonymity line shows zero risky.
        assert "k-anonymity        risky     0" in output

    def test_engine_command(self, tmp_path, capsys):
        program = tmp_path / "tc.vada"
        program.write_text(
            """
            edge(a, b). edge(b, c).
            path(X, Y) :- edge(X, Y).
            path(X, Z) :- path(X, Y), edge(Y, Z).
            """
        )
        exit_code = main(["engine", str(program), "--output", "path"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert 'path(a, c)' in output

    def test_engine_warded_check_fails_unwarded(self, tmp_path, capsys):
        program = tmp_path / "bad.vada"
        program.write_text(
            """
            p(X, Z) :- e(X).
            r(Y) :- p(X, Y), p(X2, Y).
            """
        )
        exit_code = main(["engine", str(program), "--check-warded"])
        assert exit_code == 3


class TestIngestValidation:
    """Malformed rows and weights fail with a ``SchemaError`` that
    names where the problem is."""

    def write(self, tmp_path, db, edit):
        path = tmp_path / "data.csv"
        repro_io.save_csv(db, path)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(edit(lines)))
        return path

    def test_truncated_row_names_file_and_line(self, ig_db, tmp_path):
        path = self.write(
            tmp_path, ig_db,
            lambda lines: lines[:3] + ["17,North\n"] + lines[3:],
        )
        with pytest.raises(SchemaError, match=r"data\.csv:4: expected"):
            repro_io.load_csv(path)

    def test_unparsable_typed_cell(self, ig_db, tmp_path):
        path = self.write(
            tmp_path, ig_db,
            lambda lines: lines[:2] + [
                lines[2].rsplit(",", 1)[0] + ",abc\n"
            ],
        )
        with pytest.raises(SchemaError, match=r"data\.csv:3: .*'abc'"):
            repro_io.load_csv(path)

    @pytest.mark.parametrize("weight", [0, -5, -0.5, "abc", float("nan"),
                                        float("inf")])
    def test_invalid_weight_rejected(self, ig_db, weight):
        rows = [dict(row) for row in ig_db.rows]
        rows[3]["Weight"] = weight
        with pytest.raises(SchemaError, match="row 3"):
            MicrodataDB(ig_db.name, ig_db.schema, rows)

    @pytest.mark.parametrize("weight", [None, LabelledNull(9), 0.25, "2"])
    def test_valid_or_absent_weight_accepted(self, ig_db, weight):
        rows = [dict(row) for row in ig_db.rows]
        rows[3]["Weight"] = weight
        MicrodataDB(ig_db.name, ig_db.schema, rows)

    def test_schema_sidecar_must_be_json(self, ig_db, tmp_path):
        path = tmp_path / "data.csv"
        repro_io.save_csv(ig_db, path)
        path.with_suffix(".schema.json").write_text("{not json")
        with pytest.raises(SchemaError, match="not valid JSON"):
            repro_io.load_csv(path)


#: Bytes that most often break a CSV reader or a typed cell parser.
_HOSTILE_BYTES = st.sampled_from(
    [b",", b"\n", b"\r", b'"', b"\x00", b"\xff", b"-", b"#NULL:",
     b"#NULL:x", b"a", b"0", b" ", b"nan", b"inf"]
) | st.binary(min_size=1, max_size=3)

_MUTATIONS = st.lists(
    st.tuples(
        st.sampled_from(["insert", "replace", "delete", "truncate"]),
        st.floats(min_value=0.0, max_value=1.0),
        _HOSTILE_BYTES,
    ),
    min_size=1,
    max_size=6,
)


def _mutate(data: bytes, mutations) -> bytes:
    for operation, where, chunk in mutations:
        at = int(where * len(data))
        if operation == "insert":
            data = data[:at] + chunk + data[at:]
        elif operation == "replace":
            data = data[:at] + chunk + data[at + len(chunk):]
        elif operation == "delete":
            data = data[:at] + data[at + len(chunk):]
        else:
            data = data[:at]
    return data


class TestIngestFuzz:
    @settings(settings.get_profile("ci"))
    @given(mutations=_MUTATIONS)
    def test_mutated_csv_loads_or_raises_schema_error(self, mutations):
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "ig.csv"
            repro_io.save_csv(inflation_growth_fragment(), path)
            path.write_bytes(_mutate(path.read_bytes(), mutations))
            try:
                loaded = repro_io.load_csv(path)
            except SchemaError:
                return
            assert isinstance(loaded, MicrodataDB)


class TestCliErrorBoundary:
    """Every rejected input exits 3 with one ``error:`` line on
    stderr, never a traceback."""

    def assert_rejected(self, capsys, argv, fragment):
        exit_code = main(argv)
        err = capsys.readouterr().err
        assert exit_code == 3
        lines = err.splitlines()
        assert len(lines) == 1, err
        assert lines[0].startswith("error: ")
        assert fragment in lines[0]
        assert "Traceback" not in err

    def dataset(self, tmp_path, edit):
        path = tmp_path / "data.csv"
        main(["generate", "R6A4U", "--scale", "20", "-o", str(path)])
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(edit(lines)))
        return path

    def test_truncated_row(self, tmp_path, capsys):
        path = self.dataset(
            tmp_path, lambda lines: lines[:2] + ["1,Center\n"] + lines[2:]
        )
        self.assert_rejected(
            capsys, ["assess", str(path)], "data.csv:3: expected"
        )

    @pytest.mark.parametrize("weight", ["abc", "-5"])
    def test_bad_weight(self, tmp_path, capsys, weight):
        path = self.dataset(
            tmp_path,
            lambda lines: lines[:1] + [
                lines[1].rsplit(",", 1)[0] + f",{weight}\n"
            ] + lines[2:],
        )
        self.assert_rejected(capsys, ["assess", str(path)], weight)

    def test_missing_schema_sidecar(self, tmp_path, capsys):
        path = tmp_path / "orphan.csv"
        path.write_text("A\n1\n")
        self.assert_rejected(
            capsys, ["anonymize", str(path), "-o", str(tmp_path / "o.csv")],
            "schema file",
        )

    def test_unparsable_program(self, tmp_path, capsys):
        program = tmp_path / "bad.vada"
        program.write_text("p(X) :- q(X\n")
        self.assert_rejected(capsys, ["engine", str(program)], "expected")

    def test_unreadable_file_exits_2(self, tmp_path, capsys):
        exit_code = main(["engine", str(tmp_path / "missing.vada")])
        err = capsys.readouterr().err
        assert exit_code == 2
        assert err.startswith("error: ") and len(err.splitlines()) == 1
