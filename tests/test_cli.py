import csv
import io
import json
import math
import weakref

import numpy as np
import pytest

import infobalance as ib
from infobalance import cli
from infobalance.cli import main
from conftest import fano_under_threshold, qstate


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    def test_valid_fixture(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "validate", str(fixtures_dir / "projective_qubit.json"), "--quiet")
        assert code == 0
        assert "passed" in out and "yes" in out

    def test_tp_violating_fixture(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "validate", str(fixtures_dir / "tp_violating.json"), "--quiet")
        assert code == 1
        assert "trace preservation" in out

    def test_malformed_file(self, capsys, fixtures_dir):
        code, _, err = run(capsys, "validate", str(fixtures_dir / "malformed.json"), "--quiet")
        assert code == 2
        assert "parse error" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "validate", "/nonexistent/file.json", "--quiet")
        assert code == 2


def non_finite_file(tmp_path, value):
    """A projective-qubit instrument file with one entry replaced by ``value``."""
    doc = json.loads(ib.dumps_instrument(ib.projective()))
    doc["outcomes"][0]["kraus"][0][1][0][0] = value
    path = tmp_path / "non_finite.json"
    path.write_text(json.dumps(doc))
    assert ("NaN" if math.isnan(value) else "Infinity") in path.read_text()
    return str(path)


@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
class TestNonFiniteInstrument:
    def test_validate_exits_1(self, capsys, tmp_path, value):
        code, out, _ = run(capsys, "validate", non_finite_file(tmp_path, value), "--quiet")
        assert code == 1
        assert out.splitlines()[0] == "passed            no"
        assert "violated: non-finite entries: outcome '0' Kraus 0\n" in out

    @pytest.mark.parametrize("command", ["analyze", "recover", "holevo"])
    def test_library_commands_exit_2(self, capsys, tmp_path, value, command):
        code, out, err = run(capsys, command, non_finite_file(tmp_path, value))
        assert (code, out) == (2, "")
        assert err.startswith("parse error: instrument invariant violated: non-finite entries")
        assert err.count("\n") == 1


BIG_INTEGER = int("9" * 401)  # a JSON integer no float can hold


class TestIntegerTooLargeForAFloat:
    @pytest.fixture
    def files(self, tmp_path):
        doc = json.loads(ib.dumps_instrument(ib.projective()))
        doc["outcomes"][0]["kraus"][0][1][0][0] = BIG_INTEGER
        instrument = tmp_path / "instrument.json"
        instrument.write_text(json.dumps(doc))
        doc = json.loads(ib.dumps_state(qstate([0.5, 0.5])))
        doc["matrix"][0][1][1] = -BIG_INTEGER
        state = tmp_path / "state.json"
        state.write_text(json.dumps(doc))
        return str(instrument), str(state)

    @pytest.mark.parametrize(
        "argv, field",
        [
            (["validate", "INSTRUMENT"], "'outcomes[0].kraus[0]'[1][0]"),
            (["analyze", "INSTRUMENT"], "'outcomes[0].kraus[0]'[1][0]"),
            (["analyze", "family:filter", "--state", "STATE"], "'matrix'[0][1]"),
        ],
        ids=["validate", "analyze-file", "analyze-state-file"],
    )
    def test_parse_error_exit_2(self, capsys, files, argv, field):
        instrument, state = files
        argv = [{"INSTRUMENT": instrument, "STATE": state}.get(a, a) for a in argv]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"parse error: field {field}: integer too large for a float\n"


class TestValidatedOnce:
    @pytest.mark.parametrize(
        "argv",
        [
            ["recover", "family:projective"],
            ["analyze", "FILE"],
            ["holevo", "FILE", "--trials", "5"],
            ["validate", "FILE"],
        ],
        ids=["recover-family", "analyze-file", "holevo-file", "validate-file"],
    )
    def test_one_validation_per_command(self, capsys, tmp_path, validations, argv):
        path = tmp_path / "instrument.json"
        path.write_text(ib.dumps_instrument(ib.random_instrument(1, 2, 2, 2, 2)))
        code, _, err = run(capsys, *[str(path) if a == "FILE" else a for a in argv])
        assert (code, err) == (0, "")
        assert len(validations) == 1


@pytest.mark.parametrize("command", ["validate", "analyze"])
def test_boolean_dimensions_are_a_parse_error(capsys, tmp_path, command):
    doc = {"d_in": True, "d_out": True, "outcomes": [{"label": "0", "kraus": [[[[1, 0]]]]}]}
    path = tmp_path / "boolean.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, command, str(path), "--quiet")
    assert (code, out) == (2, "")
    assert err == "parse error: field 'd_in': expected int, got bool\n"


class TestAnalyze:
    def test_projective_table(self, capsys, fixtures_dir):
        code, out, _ = run(
            capsys,
            "analyze",
            str(fixtures_dir / "projective_qubit.json"),
            "--state",
            "maximally-mixed",
            "--quiet",
        )
        assert code == 0
        assert "iota              1.000000" in out
        assert "delta             1.000000" in out
        assert "noise             0.000000" in out

    def test_depolarizing_preset(self, capsys):
        code, out, _ = run(
            capsys, "analyze", "family:depolarizing", "--format", "json", "--quiet"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["iota"] == pytest.approx(0.0, abs=1e-9)
        assert doc["delta"] == pytest.approx(2.0, abs=1e-9)
        assert doc["noise"] == pytest.approx(2.0, abs=1e-9)
        assert doc["iota_g"] == pytest.approx(-1.0, abs=1e-9)

    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "analyze", "family:projective", "--format", "json", "--quiet")
        assert code == 0
        doc = json.loads(out)
        for key in ("iota", "delta", "noise", "iota_g", "residual_balance", "per_outcome"):
            assert key in doc
        assert set(doc["per_outcome"][0]) == {"label", "p", "iota_m", "delta_m", "noise_m"}

    def test_csv_header(self, capsys):
        code, out, _ = run(capsys, "analyze", "family:projective", "--format", "csv", "--quiet")
        assert code == 0
        assert out.splitlines()[0] == "parameter,iota,delta,noise,iota_g,residual_balance"

    def test_dimension_mismatch_exits_1(self, capsys, fixtures_dir):
        code, _, err = run(
            capsys,
            "analyze",
            str(fixtures_dir / "projective_qubit.json"),
            "--state",
            "diag:0.5,0.3,0.2",
            "--quiet",
        )
        assert code == 1

    def test_diag_preset(self, capsys, fixtures_dir):
        code, out, _ = run(
            capsys,
            "analyze",
            str(fixtures_dir / "filter.json"),
            "--state",
            "diag:0.9",
            "--format",
            "json",
            "--quiet",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["iota"] == pytest.approx(0.26900, abs=1e-4)

    def test_state_from_file(self, capsys, fixtures_dir):
        code, out, _ = run(
            capsys,
            "analyze",
            "family:projective",
            "--state",
            str(fixtures_dir / "mixed_qubit.json"),
            "--format",
            "json",
            "--quiet",
        )
        assert code == 0
        assert json.loads(out)["iota"] == pytest.approx(1.0, abs=1e-9)

    def test_nats_flag(self, capsys):
        _, out_bits, _ = run(capsys, "analyze", "family:projective", "--format", "json", "--quiet")
        _, out_nats, _ = run(
            capsys, "analyze", "family:projective", "--format", "json", "--quiet", "--nats"
        )
        bits = json.loads(out_bits)
        nats = json.loads(out_nats)
        assert nats["iota"] == pytest.approx(bits["iota"] * math.log(2.0), abs=1e-12)

    def test_banner_suppression(self, capsys):
        _, loud, _ = run(capsys, "analyze", "family:projective")
        _, quiet, _ = run(capsys, "analyze", "family:projective", "--quiet")
        assert loud.startswith(f"infobalance {ib.__version__}")
        assert quiet == loud.replace(f"infobalance {ib.__version__}\n", "", 1)


class TestSweep:
    def test_parameter_column_is_printed_exactly(self, capsys):
        # the text of each grid value, which a comparison of numbers within a
        # tolerance would not see change
        code, out, _ = run(capsys, "sweep", "--family", "filter", "--grid", "0.05,0.1", "--quiet")
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()]
        assert rows[0] == ["parameter", "iota", "delta", "noise", "iota_g", "residual_balance"]
        assert [row[0] for row in rows[1:]] == ["0.050000000000000003", "0.10000000000000001"]

    def test_filter_sweep_file(self, capsys, tmp_path):
        out_csv = tmp_path / "filter.csv"
        code, _, _ = run(
            capsys,
            "sweep",
            "--family",
            "filter",
            "--points",
            "11",
            "--out",
            str(out_csv),
            "--quiet",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out_csv.read_text())))
        assert rows[0] == ["parameter", "iota", "delta", "noise", "iota_g", "residual_balance"]
        assert len(rows) == 12
        first = [float(v) for v in rows[1]]
        assert first[0] == 0.0
        assert abs(first[1]) <= 1e-9 and abs(first[2]) <= 1e-9  # identity endpoint
        for row in rows[1:]:
            vals = [float(v) for v in row]
            assert vals[1] <= vals[2] + 1e-9
            assert vals[5] <= 1e-9

    def test_partial_dephasing_endpoint(self, capsys, tmp_path):
        out_csv = tmp_path / "pd.csv"
        run(
            capsys,
            "sweep",
            "--family",
            "partial-dephasing",
            "--grid",
            "0,1",
            "--out",
            str(out_csv),
            "--quiet",
        )
        rows = list(csv.reader(io.StringIO(out_csv.read_text())))
        last = [float(v) for v in rows[-1]]
        assert last[1] == pytest.approx(last[2], abs=1e-9)  # iota = delta
        assert last[1] == pytest.approx(1.0, abs=1e-9)

    def test_unknown_family(self, capsys):
        code, _, err = run(capsys, "sweep", "--family", "nonsense", "--quiet")
        assert code == 1
        assert "unknown family" in err

    def test_unknown_family_message_matches_analyze(self, capsys):
        _, _, sweep_err = run(capsys, "sweep", "--family", "nope", "--quiet")
        _, _, analyze_err = run(capsys, "analyze", "family:nope", "--quiet")
        assert sweep_err.startswith("error: unknown family 'nope'")
        assert sweep_err == analyze_err

    def test_state_file_read_once(self, capsys, monkeypatch, fixtures_dir):
        reads = []
        read_text = cli._read_text
        monkeypatch.setattr(cli, "_read_text", lambda path: reads.append(path) or read_text(path))
        state = str(fixtures_dir / "mixed_qubit.json")
        argv = ["sweep", "--family", "filter", "--points", "21", "--quiet", "--state"]
        code, from_file, _ = run(capsys, *argv, state)
        assert code == 0 and reads == [state]
        _, from_diag, _ = run(capsys, *argv, "diag:0.5,0.5")
        assert from_file == from_diag

    def test_each_grid_instrument_is_built_once(self, capsys, monkeypatch):
        built = []
        family = ib.FAMILIES["filter"]
        monkeypatch.setitem(cli.FAMILIES, "filter", lambda t: built.append(t) or family(t))
        code, _, _ = run(capsys, "sweep", "--family", "filter", "--grid", "0,0.5,1", "--quiet")
        assert code == 0 and built == [0.0, 0.5, 1.0]

    def test_errors_come_in_grid_order(self, capsys):
        # the state misfits the first point before the second parameter is built
        code, out, err = run(capsys, "sweep", "--family", "filter", "--grid", "0.5,2",
                             "--state", "diag:0.2,0.3,0.5", "--quiet")
        assert (code, out, err) == (1, "", "error: state dimension 3 != instrument d_in 2\n")
        code, _, err = run(capsys, "sweep", "--family", "filter", "--grid", "0.5,2", "--quiet")
        assert (code, err) == (1, "error: filter parameter 2.0 outside [0, 1]\n")

    @pytest.mark.parametrize("family", ["depolarizing", "filter"])
    @pytest.mark.parametrize("units", [[], ["--nats"]])
    def test_rows_take_only_the_printed_fields(self, capsys, monkeypatch, family, units):
        # a row reads the five CSV fields of its report, not the per-outcome
        # rows of a report document the CSV never prints
        argv = ["sweep", "--family", family, "--points", "9", "--quiet", *units]
        _, expected, _ = run(capsys, *argv)

        def refuse(report):
            raise AssertionError("sweep built a report document")

        monkeypatch.setattr(ib.BalanceReport, "to_dict", refuse)
        assert run(capsys, *argv) == (0, expected, "")

    def test_reports_are_dropped_as_their_blocks_complete(self, capsys, monkeypatch):
        # one pair per block; when a block starts, every report but the
        # previous block's last (the row being formatted) is gone
        monkeypatch.setattr(ib.measures, "_BLOCK_BYTES", 1)
        block_reports, made, live = ib.measures._block_reports, [], []

        def kept(pairs, offset):
            live.append(sum(ref() is not None for ref in made))
            reports = block_reports(pairs, offset)
            made.extend(weakref.ref(report) for report in reports)
            return reports

        monkeypatch.setattr(ib.measures, "_block_reports", kept)
        argv = ["sweep", "--family", "depolarizing", "--points", "12", "--quiet"]
        code, out, _ = run(capsys, *argv)
        assert code == 0 and len(made) == 12 and max(live) <= 1, live
        monkeypatch.undo()
        assert run(capsys, *argv) == (0, out, "")

    def test_error_after_completed_blocks_writes_no_file(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr(ib.measures, "_BLOCK_BYTES", 1)
        path = tmp_path / "sweep.csv"
        code, out, err = run(capsys, "sweep", "--family", "filter", "--grid", "0.2,0.5,2",
                             "--quiet", "--out", str(path))
        assert (code, out, err) == (1, "", "error: filter parameter 2.0 outside [0, 1]\n")
        assert not path.exists()

    @pytest.mark.parametrize("grid", ["", ","], ids=["empty", "comma"])
    def test_empty_grid_writes_no_file(self, capsys, tmp_path, grid):
        path = tmp_path / "sweep.csv"
        code, out, err = run(capsys, "sweep", "--family", "filter", "--grid", grid,
                             "--quiet", "--out", str(path))
        assert (code, out, err) == (1, "", "error: empty parameter grid\n")
        assert not path.exists()

    def test_deterministic_bytes(self, capsys):
        _, a, _ = run(capsys, "sweep", "--family", "depolarizing", "--grid", "0,0.5,1", "--quiet")
        _, b, _ = run(capsys, "sweep", "--family", "depolarizing", "--grid", "0,0.5,1", "--quiet")
        assert a == b


class TestRecover:
    def test_unitary_instrument(self, capsys, tmp_path):
        u = ib.haar_isometry(np.random.default_rng(1), 2, 2)
        instr = ib.Instrument(2, 2, (ib.OutcomeMap("0", (u,)),))
        path = tmp_path / "unitary.json"
        path.write_text(ib.dumps_instrument(instr))
        code, out, _ = run(capsys, "recover", str(path), "--format", "json", "--quiet")
        assert code == 0
        doc = json.loads(out)
        assert doc["corrected_fidelity"] == pytest.approx(1.0, abs=1e-9)
        assert doc["delta"] == pytest.approx(0.0, abs=1e-9)
        assert doc["fano_holds"] is True

    def test_projective_values(self, capsys, fixtures_dir):
        code, out, _ = run(
            capsys,
            "recover",
            str(fixtures_dir / "projective_qubit.json"),
            "--format",
            "json",
            "--quiet",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["corrected_fidelity"] == pytest.approx(0.5, abs=1e-9)
        assert doc["delta"] == pytest.approx(1.0, abs=1e-9)
        assert doc["meets_4sqrt"] is True


    #: recover --format json at maximally-mixed and at diag:0.7, recorded
    #: before the fidelity was computed without the composite Kraus list
    RECORDED = {
        ("filter", "maximally-mixed"): (0.7394468924503992, 0.666666666666667, 2.8932333352564146),
        ("filter", "diag:0.7"): (0.6041765704563075, 0.7200000000000002, 2.5984806215241076),
        ("partial-dephasing", "maximally-mixed"): (1.0, 0.5000000000000002, 3.584962500721155),
        ("partial-dephasing", "diag:0.7"): (0.8812908992306927, 0.5800000000000002, 3.2942762906730776),
        ("depolarizing", "maximally-mixed"): (2.0, 0.25000000000000006, 4.0),
        ("depolarizing", "diag:0.7"): (1.7625817984613859, 0.3700000000000001, 3.898396936282788),
        ("projective", "maximally-mixed"): (1.0, 0.5000000000000002, 3.584962500721155),
        ("projective", "diag:0.7"): (0.8812908992306927, 0.5800000000000002, 3.2942762906730776),
    }

    @pytest.mark.parametrize("family, state", list(RECORDED))
    def test_presets_match_recorded_values(self, capsys, family, state):
        code, out, _ = run(
            capsys, "recover", f"family:{family}", "--state", state, "--format", "json",
            "--quiet",
        )
        assert code == 0
        doc = json.loads(out)
        delta, fidelity, fano = self.RECORDED[family, state]
        assert doc["delta"] == pytest.approx(delta, abs=1e-12)
        assert doc["corrected_fidelity"] == pytest.approx(fidelity, abs=1e-12)
        assert doc["fano_bound"] == pytest.approx(fano, abs=1e-12)
        assert doc["bound_2sqrt"] == pytest.approx(1.0 - 2.0 * math.sqrt(delta), abs=1e-12)
        assert doc["meets_4sqrt"] and doc["meets_2sqrt"] and doc["fano_holds"]

    @pytest.mark.parametrize("factor", [2, 4])
    def test_fidelity_within_the_slack_meets_its_threshold(self, capsys, monkeypatch, factor):
        monkeypatch.setattr(cli, "fano_bound_check", fano_under_threshold(factor))
        code, out, _ = run(capsys, "recover", "family:filter", "--format", "json", "--quiet")
        doc = json.loads(out)
        assert doc["corrected_fidelity"] == doc[f"bound_{factor}sqrt"] - 5e-10
        assert doc[f"meets_{factor}sqrt"] is True and doc["meets_4sqrt"] is True and code == 0


class TestRandom:
    def test_same_seed_identical_files(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, "random", "--seed", "9", "--out", str(a), "--quiet")
        run(capsys, "random", "--seed", "9", "--out", str(b), "--quiet")
        assert a.read_bytes() == b.read_bytes()

    def test_generated_file_validates(self, capsys, tmp_path):
        path = tmp_path / "inst.json"
        run(capsys, "random", "--seed", "4", "--d-in", "3", "--d-out", "2",
            "--outcomes", "3", "--multiplicity", "2", "--out", str(path), "--quiet")
        code, _, _ = run(capsys, "validate", str(path), "--quiet")
        assert code == 0

    def test_single_kraus_output_is_noiseless(self, capsys, tmp_path):
        path = tmp_path / "sk.json"
        run(capsys, "random", "--seed", "12", "--multiplicity", "1", "--out", str(path), "--quiet")
        code, out, _ = run(capsys, "analyze", str(path), "--format", "json", "--quiet")
        assert code == 0
        assert abs(json.loads(out)["noise"]) <= 1e-9

    @pytest.mark.parametrize(
        "sizes",
        [["--d-in", "0"], ["--outcomes", "-1", "--d-out", "-2"], ["--d-in", "-1"]],
        ids=["d-in-zero", "negative-outcomes-and-d-out", "negative-d-in"],
    )
    def test_nonpositive_size_exits_1_without_file(self, capsys, tmp_path, sizes):
        path = tmp_path / "r.json"
        code, out, err = run(capsys, "random", *sizes, "--out", str(path), "--quiet")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not path.exists()

    def test_infeasible_dims(self, capsys):
        code, _, err = run(
            capsys, "random", "--d-in", "9", "--d-out", "2", "--outcomes", "2",
            "--multiplicity", "1", "--quiet",
        )
        assert code == 1


class TestHolevo:
    def test_projective_tight(self, capsys, fixtures_dir):
        code, out, _ = run(
            capsys,
            "holevo",
            str(fixtures_dir / "projective_qubit.json"),
            "--trials",
            "60",
            "--seed",
            "5",
            "--format",
            "json",
            "--quiet",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["iota"] == pytest.approx(1.0, abs=1e-9)
        assert doc["max_classical_mi"] <= doc["iota"] + 1e-9
        assert set(doc) == {"iota", "max_classical_mi", "margin", "n_trials", "seed"}

    def test_pure_input_zeros(self, capsys, fixtures_dir):
        code, out, _ = run(
            capsys,
            "holevo",
            str(fixtures_dir / "projective_qubit.json"),
            "--state",
            "diag:1.0",
            "--trials",
            "10",
            "--format",
            "json",
            "--quiet",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["iota"] == pytest.approx(0.0, abs=1e-9)
        assert doc["max_classical_mi"] == pytest.approx(0.0, abs=1e-9)

    def test_random_instrument_passes(self, capsys, tmp_path):
        path = tmp_path / "r.json"
        run(capsys, "random", "--seed", "31", "--multiplicity", "2", "--out", str(path), "--quiet")
        code, _, _ = run(capsys, "holevo", str(path), "--trials", "40", "--seed", "2", "--quiet")
        assert code == 0


class TestOutOfMemory:
    def test_random_writes_no_file(self, capsys, monkeypatch, tmp_path):
        def no_memory(*args):
            raise MemoryError("Unable to allocate 14.6 TiB for an array")

        monkeypatch.setattr(cli, "random_instrument", no_memory)
        path = tmp_path / "x.json"
        code, out, err = run(
            capsys, "random", "--d-in", "1000000", "--d-out", "1000000", "--out", str(path)
        )
        assert (code, out) == (1, "")
        assert err == "error: out of memory: Unable to allocate 14.6 TiB for an array\n"
        assert not path.exists()

    def test_holevo(self, capsys, monkeypatch):
        def no_memory(*args):
            raise MemoryError

        monkeypatch.setattr(cli, "holevo_check", no_memory)
        code, out, err = run(capsys, "holevo", "family:projective")
        assert (code, out) == (1, "")
        assert err == "error: out of memory: allocation failed\n"


class TestMalformedInput:
    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "family:filter:abc"],
            ["analyze", "family:projective", "--state", "diag:0.5,abc"],
            ["sweep", "--family", "filter", "--grid", "0,x"],
            ["holevo", "family:projective", "--trials", "-1"],
            ["sweep", "--family", "filter", "--points", "-1"],
            ["random", "--seed", "-1"],
        ],
        ids=["family-param", "diag-entry", "grid-entry", "trials", "points", "seed"],
    )
    def test_parse_error_exits_2(self, capsys, argv):
        code, _, err = run(capsys, *argv, "--quiet")
        assert code == 2
        assert err.startswith("parse error: ")
        assert err.count("\n") == 1

    def test_projective_parameter_outside_unit_interval(self, capsys):
        code, _, err = run(capsys, "analyze", "family:projective:7", "--quiet")
        assert code == 1
        assert "outside [0, 1]" in err


#: json fields that carry entropies; every value under residual_routes is one too
ENTROPIC_JSON_FIELDS = {
    "iota", "delta", "noise", "iota_g", "residual_balance", "iota_m", "delta_m",
    "noise_m", "fano_bound", "max_classical_mi", "margin", "residual_routes",
}


def assert_nats_of(bits, nats, key=None):
    """Entropic fields are bits * ln 2 in ``nats``; every other field is unchanged."""
    if isinstance(bits, dict):
        assert bits.keys() == nats.keys()
        for k in bits:
            assert_nats_of(bits[k], nats[k], key if key == "residual_routes" else k)
    elif isinstance(bits, list):
        assert len(bits) == len(nats)
        for b, n in zip(bits, nats):
            assert_nats_of(b, n, key)
    elif key in ENTROPIC_JSON_FIELDS:
        assert nats == pytest.approx(bits * math.log(2.0), rel=1e-15, abs=0.0)
    else:
        assert nats == bits


class TestOutputLayer:
    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "family:filter", "--state", "diag:0.7"],
            ["recover", "family:filter", "--state", "diag:0.7"],
            ["holevo", "family:filter", "--state", "diag:0.7", "--trials", "5"],
        ],
        ids=["analyze", "recover", "holevo"],
    )
    def test_nats_scales_exactly_the_entropic_fields(self, capsys, argv):
        _, bits, _ = run(capsys, *argv, "--format", "json", "--quiet")
        _, nats, _ = run(capsys, *argv, "--format", "json", "--quiet", "--nats")
        bits, nats = json.loads(bits), json.loads(nats)
        assert any(bits.get(k, 0.0) > 0.1 for k in ("iota", "delta"))
        assert_nats_of(bits, nats)

    def test_excluded_weight_precedes_outcome_table(self, capsys):
        code, out, _ = run(
            capsys, "analyze", "family:filter:1", "--state", "diag:1e-13", "--quiet"
        )
        assert code == 0
        lines = out.splitlines()
        header = next(i for i, line in enumerate(lines) if line.startswith("outcome "))
        assert lines[header - 1] == "excluded_weight   1.000e-13"

    @pytest.mark.parametrize(
        "argv",
        [
            ["recover", "family:projective", "--format", "csv"],
            ["holevo", "family:projective", "--format", "csv"],
            ["analyze", "family:projective", "--seed", "1"],
            ["validate", "instrument.json", "--nats"],
        ],
        ids=["recover-csv", "holevo-csv", "analyze-seed", "validate-nats"],
    )
    def test_flag_the_subcommand_does_not_read_exits_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


class TestParser:
    def test_built_once_per_process(self, capsys, monkeypatch):
        _, first, _ = run(capsys, "analyze", "family:filter", "--quiet")

        def rebuilt():
            raise AssertionError("main rebuilt the parser")

        monkeypatch.setattr(cli, "build_parser", rebuilt)
        code, again, _ = run(capsys, "analyze", "family:filter", "--quiet")
        assert (code, again) == (0, first)

    def test_dispatch_goes_through_commands(self, capsys, monkeypatch):
        seen = []
        monkeypatch.setitem(cli.COMMANDS, "validate", lambda args: seen.append(args.file) or 7)
        assert main(["validate", "x.json"]) == 7
        assert seen == ["x.json"]

    def test_usage_error_repeats_unchanged(self, capsys):
        errors = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(["analyze"])
            assert exc.value.code == 2
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert errors[0].startswith("usage: infobalance analyze")
