import hashlib
import json
import re
from xml.dom import minidom

import numpy as np
import pytest

from qergo.basis import MIN_DIM, haar_random_basis
from qergo.ccp import ccp_table
from qergo.cli import build_scenario, main
from qergo.render import parse_grid_csv, parse_profile_csv, render_distribution, render_profile
from qergo.errors import ConfigError, ParseError
from qergo.lattice import MIN_GRID_SIZE
from qergo.verify import MAX_DIM
from qergo.weak import MAX_COUPLING, MIN_SHOTS
from conftest import run_fresh_interpreter

HADAMARD = {
    "kind": "explicit",
    "re": [[0.7071067811865476, 0.7071067811865476], [0.7071067811865476, -0.7071067811865476]],
    "im": [[0.0, 0.0], [0.0, 0.0]],
}
Y_BASIS = {
    "kind": "explicit",
    "re": [[0.7071067811865476, 0.7071067811865476], [0.0, 0.0]],
    "im": [[0.0, 0.0], [0.7071067811865476, -0.7071067811865476]],
}


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestVerifyCommand:
    def test_small_sweep_passes(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "v.json", {"params": {"dims": [2, 3], "seeds_per_dim": 2}, "seed": 1}
        )
        code = main(["verify", "--config", cfg, "--out", str(tmp_path / "v")])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 15
        report = json.loads((tmp_path / "v.json").read_text())
        assert report["all_pass"] is True
        assert "wall" not in json.dumps(report)  # timing stays out of the file

    def test_dim_out_of_range_rejected(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "v.json", {"params": {"dims": [33], "seeds_per_dim": 1}}
        )
        code = main(["verify", "--config", cfg, "--out", str(tmp_path / "v")])
        assert code == 2
        assert "usage" in capsys.readouterr().err

    def test_reruns_byte_identical(self, tmp_path):
        cfg = write_config(
            tmp_path, "v.json", {"params": {"dims": [2], "seeds_per_dim": 1}, "seed": 3}
        )
        main(["verify", "--config", cfg, "--out", str(tmp_path / "a")])
        main(["verify", "--config", cfg, "--out", str(tmp_path / "b")])
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


class TestKdCommand:
    def _config(self):
        return {
            "params": {
                "dim": 2,
                "state": {"basis": {"kind": "computational"}, "index": 0},
                "row_basis": HADAMARD,
                "col_basis": Y_BASIS,
            }
        }

    def test_csv_and_heatmap(self, tmp_path):
        cfg = write_config(tmp_path, "kd.json", self._config())
        out = str(tmp_path / "kd")
        assert main(["kd", "--config", cfg, "--out", out, "--format", "csv"]) == 0
        csv_text = (tmp_path / "kd.csv").read_text()
        rows, cols, mat = parse_grid_csv(csv_text)
        assert mat.shape == (2, 2)
        assert complex(mat.sum()) == pytest.approx(1.0 + 0.0j, abs=1e-12)
        assert main(["render", str(tmp_path / "kd.csv"), "--style", "heatmap", "--out", out]) == 0
        svg = (tmp_path / "kd.svg").read_text()
        assert svg.startswith("<svg ")
        assert svg.count("<rect") == 5  # background plus one rect per cell

    def test_json_round_trip(self, tmp_path):
        cfg = write_config(tmp_path, "kd.json", self._config())
        out = str(tmp_path / "kd")
        assert main(["kd", "--config", cfg, "--out", out]) == 0
        payload = json.loads((tmp_path / "kd.json").read_text())
        total = np.array(payload["re"]).sum()
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_missing_param_rejected(self, tmp_path):
        bad = self._config()
        del bad["params"]["state"]
        cfg = write_config(tmp_path, "kd.json", bad)
        assert main(["kd", "--config", cfg, "--out", str(tmp_path / "kd")]) == 2

    @pytest.mark.parametrize("labels", [["a,1", "<b&>"], ["a", "a"]])
    def test_labels_that_break_artifacts_rejected(self, tmp_path, labels):
        config = self._config()
        config["params"]["row_basis"] = {**HADAMARD, "labels": labels}
        cfg = write_config(tmp_path, "kd.json", config)
        assert main(["kd", "--config", cfg, "--out", str(tmp_path / "kd"), "--format", "csv"]) == 2
        assert not (tmp_path / "kd.csv").exists()

    def test_invalid_explicit_basis_is_config_error(self, tmp_path, capsys):
        config = self._config()
        not_unitary = {"kind": "explicit", "re": [[1, 1], [0, 1]], "im": [[0, 0], [0, 0]]}
        config["params"]["row_basis"] = not_unitary
        cfg = write_config(tmp_path, "kd.json", config)
        assert main(["kd", "--config", cfg, "--out", str(tmp_path / "kd"), "--format", "csv"]) == 2
        assert "Gram defect" in capsys.readouterr().err
        assert not (tmp_path / "kd.csv").exists()

    def test_explicit_basis_re_im_shapes_must_match(self, tmp_path, capsys):
        # An im of another shape must not broadcast against re.
        config = self._config()
        config["params"]["row_basis"] = {"kind": "explicit", "re": [[1, 0], [0, 1]], "im": [[0, 0]]}
        cfg = write_config(tmp_path, "kd.json", config)
        assert main(["kd", "--config", cfg, "--out", str(tmp_path / "kd"), "--format", "csv"]) == 2
        assert "re of shape (2, 2) but im of (1, 2)" in capsys.readouterr().err
        assert not (tmp_path / "kd.csv").exists()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_labeled_export_renders_well_formed_svg(self, tmp_path, fmt):
        config = self._config()
        config["params"]["row_basis"] = {**HADAMARD, "labels": ["+", "-"]}
        config["params"]["col_basis"] = {**Y_BASIS, "labels": ["+i", "-i"]}
        cfg = write_config(tmp_path, "kd.json", config)
        out = str(tmp_path / "kd")
        assert main(["kd", "--config", cfg, "--out", out, "--format", fmt]) == 0
        assert main(["render", f"{out}.{fmt}", "--style", "heatmap", "--out", out]) == 0
        svg = minidom.parseString((tmp_path / "kd.svg").read_bytes())
        assert len(svg.getElementsByTagName("rect")) == 5  # background plus 2 x 2 cells
        texts = [t.firstChild.data for t in svg.getElementsByTagName("text")]
        assert texts == ["+", "-", "+i", "-i"]


class TestWeakAndSeqCommands:
    def test_weak_run(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "w.json",
            {
                "params": {
                    "dim": 2,
                    "initial": {"basis": {"kind": "computational"}, "index": 0},
                    "final": {"basis": HADAMARD, "index": 0},
                    "meter_basis": Y_BASIS,
                    "m_index": 0,
                    "g": 0.05,
                    "shots": 20000,
                },
                "seed": 42,
            },
        )
        out = str(tmp_path / "w")
        assert main(["weak", "--config", cfg, "--out", out]) == 0
        payload = json.loads((tmp_path / "w.json").read_text())
        assert payload["analytic_ref"] == {"re": pytest.approx(0.5), "im": pytest.approx(0.5)}
        assert payload["shots_postselected"] >= 100

    def test_weak_rerun_byte_identical(self, tmp_path):
        params = {
            "dim": 2,
            "initial": {"basis": {"kind": "computational"}, "index": 0},
            "final": {"basis": {"kind": "haar", "seed": 4}, "index": 1},
            "meter_basis": Y_BASIS,
            "m_index": 0,
            "g": 0.2,
            "shots": 20000,
        }
        cfg = write_config(tmp_path, "w.json", {"params": params, "seed": 8})
        outputs = []
        for tag in ("r1", "r2"):
            assert main(["weak", "--config", cfg, "--out", str(tmp_path / tag)]) == 0
            outputs.append((tmp_path / f"{tag}.json").read_bytes())
        assert outputs[0] == outputs[1]
        assert sorted(json.loads(outputs[0])) == [
            "analytic_ref", "coupling", "estimate", "shots_postselected", "shots_total", "std_err",
        ]

    def test_weak_bad_coupling_rejected_before_run(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "w.json",
            {
                "params": {
                    "dim": 2,
                    "initial": {"basis": {"kind": "computational"}, "index": 0},
                    "final": {"basis": HADAMARD, "index": 0},
                    "meter_basis": Y_BASIS,
                    "m_index": 0,
                    "g": 0.9,
                    "shots": 20000,
                }
            },
        )
        assert main(["weak", "--config", cfg, "--out", str(tmp_path / "w")]) == 2

    def test_seq_run_csv(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "s.json",
            {
                "params": {
                    "dim": 2,
                    "initial": {"basis": HADAMARD, "index": 0},
                    "m_basis": {"kind": "computational"},
                    "b_basis": HADAMARD,
                    "shots": 20000,
                },
                "seed": 9,
            },
        )
        out = str(tmp_path / "s")
        assert main(["seq", "--config", cfg, "--out", out, "--format", "csv"]) == 0
        lines = (tmp_path / "s.csv").read_text().strip().splitlines()
        assert lines[0] == "m_label,b_label,count,frequency"
        counts = [int(r.split(",")[2]) for r in lines[1:]]
        assert sum(counts) == 20000


class TestLatticeAndQuantize:
    def test_lattice_export_and_profile_render(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "l.json",
            {
                "params": {
                    "d": 16,
                    "L": 1.0,
                    "mass": 1.0,
                    "hbar": 1.0,
                    "potential": {"kind": "box"},
                    "column": {"energy_index": 0, "p_ref_index": 8},
                }
            },
        )
        out = str(tmp_path / "l")
        assert main(["lattice", "--config", cfg, "--out", out]) == 0
        payload = json.loads((tmp_path / "l.json").read_text())
        assert len(payload["energies"]) == 16
        assert main(["render", str(tmp_path / "l.csv"), "--style", "profile", "--out", out]) == 0
        assert (tmp_path / "l.svg").read_text().startswith("<svg ")

    def test_lattice_reruns_byte_identical(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "l.json",
            {
                "params": {
                    "d": 64, "L": 20.0, "mass": 1.0, "hbar": 1.0,
                    "potential": {"kind": "harmonic", "omega": 1.0},
                    "column": {"energy_index": 2, "p_ref_index": 32},
                }
            },
        )
        for run in ("a", "b"):
            assert main(["lattice", "--config", cfg, "--out", str(tmp_path / run)]) == 0
        for ext in (".json", ".csv"):
            assert (tmp_path / f"a{ext}").read_bytes() == (tmp_path / f"b{ext}").read_bytes()

    def test_free_grid_reruns_byte_identical(self, tmp_path):
        # every free level but the band edges is in a degenerate pair
        cfg = write_config(
            tmp_path,
            "l.json",
            {
                "params": {
                    "d": 64, "L": 20.0, "mass": 1.0, "hbar": 1.0,
                    "potential": {"kind": "free"},
                    "column": {"energy_index": 2, "p_ref_index": 33},
                }
            },
        )
        for run in ("a", "b"):
            assert main(["lattice", "--config", cfg, "--out", str(tmp_path / run)]) == 0
        for ext in (".json", ".csv"):
            assert (tmp_path / f"a{ext}").read_bytes() == (tmp_path / f"b{ext}").read_bytes()

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_potential_is_config_error(self, tmp_path, capsys, bad):
        values = [0.0] * 16
        values[7] = bad
        cfg = write_config(
            tmp_path,
            "cfg.json",
            {
                "params": {
                    "d": 16, "L": 1.0, "mass": 1.0, "hbar": 1.0,
                    "potential": {"kind": "custom", "values": values},
                    "column": {"energy_index": 0, "p_ref_index": 8},
                }
            },
        )
        assert main(["lattice", "--config", cfg, "--out", str(tmp_path / "l")]) == 2
        assert "potential is" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    def test_column_index_validated_before_run(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "l.json",
            {
                "params": {
                    "d": 16, "L": 1.0, "mass": 1.0, "hbar": 1.0,
                    "potential": {"kind": "box"},
                    "column": {"energy_index": 40, "p_ref_index": 8},
                }
            },
        )
        assert main(["lattice", "--config", cfg, "--out", str(tmp_path / "l")]) == 2

    def test_orthogonal_column_is_numeric_failure(self, tmp_path):
        # parity-forbidden (E, p_ref) pair: valid config, undefined conditional
        cfg = write_config(
            tmp_path,
            "l.json",
            {
                "params": {
                    "d": 16, "L": 20.0, "mass": 1.0, "hbar": 1.0,
                    "potential": {"kind": "harmonic", "omega": 1.0},
                    "column": {"energy_index": 1, "p_ref_index": 8},
                }
            },
        )
        assert main(["lattice", "--config", cfg, "--out", str(tmp_path / "l")]) == 3

    def test_quantize_values(self, tmp_path, capsys):
        unit = 2 * np.pi
        cfg = write_config(
            tmp_path,
            "q.json",
            {"params": {"values": [0.0, unit, 3 * unit], "period": 1.0, "hbar": 1.0}},
        )
        assert main(["quantize", "--config", cfg, "--out", str(tmp_path / "q")]) == 0
        assert "PASS" in capsys.readouterr().out
        assert json.loads((tmp_path / "q.json").read_text())["pass"] is True

    def test_quantize_from_lattice(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "q.json",
            {
                "params": {
                    "lattice": {
                        "d": 64,
                        "L": 20.0,
                        "mass": 1.0,
                        "hbar": 1.0,
                        "potential": {"kind": "harmonic", "omega": 1.0},
                    },
                    "levels": 5,
                    "period": 2 * np.pi,
                    "rtol": 0.01,
                }
            },
        )
        assert main(["quantize", "--config", cfg, "--out", str(tmp_path / "q")]) == 0
        payload = json.loads((tmp_path / "q.json").read_text())
        assert payload["pass"] is True
        assert payload["max_defect"] < 0.01

    def test_quantize_fail_exits_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "q.json", {"values": [0.0, 1.0, 2.5], "period": 1.0})
        assert main(["quantize", "--config", cfg, "--out", str(tmp_path / "q")]) == 1
        assert "FAIL" in capsys.readouterr().out
        payload = json.loads((tmp_path / "q.json").read_text())
        assert payload["pass"] is False
        assert payload["max_defect"] == pytest.approx(0.39788735772973816, rel=1e-12)

    @pytest.mark.parametrize("levels", [-13, 0, 1, 17])
    def test_quantize_levels_outside_two_to_d_rejected(self, tmp_path, capsys, levels):
        lattice = {"d": 16, "L": 1.0, "mass": 1.0, "hbar": 1.0, "potential": {"kind": "box"}}
        params = {"lattice": lattice, "levels": levels, "period": 1.0}
        cfg = write_config(tmp_path, "cfg.json", params)
        assert main(["quantize", "--config", cfg, "--out", str(tmp_path / "q")]) == 2
        assert "levels" in capsys.readouterr().err
        assert not (tmp_path / "q.json").exists()

    @pytest.mark.parametrize("field", ["period", "hbar", "rtol", "values"])
    def test_quantize_nan_field_is_a_config_error(self, tmp_path, capsys, field):
        # A NaN must not read as an identity FAIL, nor reach the output as "max_defect": NaN.
        params = {"values": [0.0, 2 * np.pi], "period": 1.0, "hbar": 1.0, "rtol": 1e-8}
        params[field] = [0.0, float("nan")] if field == "values" else float("nan")
        cfg = write_config(tmp_path, "cfg.json", {"params": params})
        assert main(["quantize", "--config", cfg, "--out", str(tmp_path / "q")]) == 2
        assert "finite" in capsys.readouterr().err
        assert not (tmp_path / "q.json").exists()

    def test_quantize_negative_rtol_is_a_config_error(self, tmp_path, capsys):
        # A perfect spectrum must not read FAIL and exit 1 because no defect is below -1.
        params = {"values": [0.0, 2 * np.pi], "period": 1.0, "hbar": 1.0, "rtol": -1.0}
        cfg = write_config(tmp_path, "cfg.json", {"params": params})
        assert main(["quantize", "--config", cfg, "--out", str(tmp_path / "q")]) == 2
        assert "rtol" in capsys.readouterr().err
        assert not (tmp_path / "q.json").exists()

    def test_quantize_lattice_spec_validated_before_run(self, tmp_path):
        cfg = write_config(
            tmp_path, "cfg.json", {"lattice": {"d": 16}, "levels": 3, "period": 1.0}
        )
        assert main(["quantize", "--config", cfg, "--out", str(tmp_path / "q")]) == 2
        assert not (tmp_path / "q.json").exists()


class TestRenderErrors:
    def test_truncated_csv_names_line(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a_label,b_label,re,im\n0,f0,0.5,0.0\n0,f1,0.25\n")
        code = main(["render", str(bad), "--style", "heatmap", "--out", str(tmp_path / "x")])
        assert code == 2
        with pytest.raises(ParseError) as err:
            parse_grid_csv(bad.read_text())
        assert err.value.line == 3

    def test_bad_float_names_line(self):
        with pytest.raises(ParseError) as err:
            parse_profile_csv("x,re,im\n0.0,uh,0.0\n")
        assert err.value.line == 2

    def test_repeated_cell_rejected(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a_label,b_label,re,im\n0,0,0.5,0.0\n0,1,0.5,0.0\n0,0,0.25,0.0\n")
        code = main(["render", str(bad), "--style", "heatmap", "--out", str(tmp_path / "x")])
        assert code == 2
        assert not (tmp_path / "x.svg").exists()
        with pytest.raises(ParseError) as err:
            parse_grid_csv(bad.read_text())
        assert err.value.line == 4

    @pytest.mark.parametrize(
        "style, parse, text",
        [
            ("profile", parse_profile_csv, "x,re,im\n0.0,0.5,0.0\n0.1,nan,0.0\n"),
            ("heatmap", parse_grid_csv, "a_label,b_label,re,im\n0,0,0.5,0.0\n0,1,0.5,inf\n"),
        ],
    )
    def test_non_finite_csv_value_names_line(self, tmp_path, style, parse, text):
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        code = main(["render", str(bad), "--style", style, "--out", str(tmp_path / "x")])
        assert code == 2
        assert not (tmp_path / "x.svg").exists()
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.line == 3

    @pytest.mark.parametrize(
        "style, text",
        [
            ("profile", '{"re": [0.0, 0.5], "im": [0.0, NaN]}'),  # json.loads reads NaN
            ("heatmap", '{"re": [[0.5, 0.0], [0.0, 0.5]], "im": [[0.0, 0.0], [Infinity, 0.0]]}'),
        ],
    )
    def test_non_finite_json_value_rejected(self, tmp_path, style, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        code = main(["render", str(bad), "--style", style, "--out", str(tmp_path / "x")])
        assert code == 2
        assert not (tmp_path / "x.svg").exists()

    @pytest.mark.parametrize(
        "name, style, text, line",
        [
            ("grid.csv", "heatmap", "a_label,b_label,re,im\n", 2),
            ("profile.json", "profile", '{"re": [], "im": []}', 1),
            ("grid.json", "heatmap", '{"re": [[]], "im": [[]]}', 1),
        ],
        ids=["header-only-grid-csv", "empty-json-profile", "empty-json-heatmap"],
    )
    def test_empty_data_names_line(self, tmp_path, name, style, text, line):
        bad = tmp_path / name
        bad.write_text(text)
        code = main(["render", str(bad), "--style", style, "--out", str(tmp_path / "x")])
        assert code == 2
        assert not (tmp_path / "x.svg").exists()
        with pytest.raises(ParseError, match="no data") as err:
            render_distribution(text, style)
        assert err.value.line == line

    @pytest.mark.parametrize(
        "fields",
        [
            {"a_basis": [1, 2]},
            {"b_basis": {"labels": ["x", "y", "z"]}},
            {"a_basis": {"labels": [0, 1]}},
        ],
        ids=["basis-not-an-object", "three-labels-for-two-columns", "labels-not-strings"],
    )
    def test_bad_json_labels_rejected(self, tmp_path, fields):
        bad = tmp_path / "bad.json"
        grid = {"re": [[0.5, 0.0], [0.0, 0.5]], "im": [[0.0, 0.0], [0.0, 0.0]]}
        bad.write_text(json.dumps({**grid, **fields}))
        code = main(["render", str(bad), "--style", "heatmap", "--out", str(tmp_path / "x")])
        assert code == 2
        assert not (tmp_path / "x.svg").exists()

    def test_markup_in_labels_is_escaped(self):
        text = "a_label,b_label,re,im\n<b&>,x,0.5,0.0\n<b&>,y,0.5,0.0\n"
        svg = minidom.parseString(render_distribution(text, "heatmap"))
        texts = [t.firstChild.data for t in svg.getElementsByTagName("text")]
        assert texts == ["<b&>", "x", "y"]

    def test_render_deterministic_bytes(self, tmp_path):
        text = "a_label,b_label,re,im\n0,0,0.5,0.0\n0,1,0.0,0.25\n1,0,0.0,-0.25\n1,1,0.5,0.0\n"
        assert render_distribution(text, "heatmap") == render_distribution(text, "heatmap")

    def test_render_golden_hashes(self):
        import hashlib

        heat = "a_label,b_label,re,im\n0,0,0.5,0.0\n0,1,0.0,0.25\n1,0,0.0,-0.25\n1,1,0.5,0.0\n"
        prof = "x,re,im,magnitude,phase_unwrapped\n" + "".join(
            f"{i * 0.1},{(i % 5) * 0.2 - 0.4},{0.1 * i - 0.6},0.0,0.0\n" for i in range(12)
        )
        heat_sha = hashlib.sha256(render_distribution(heat, "heatmap").encode()).hexdigest()
        prof_sha = hashlib.sha256(render_distribution(prof, "profile").encode()).hexdigest()
        assert heat_sha == "5fc4a1fac96cb4d43d03e7fbc338abc06513b832c9eaf7aa72fa6594e0eeeb47"
        assert prof_sha == "c8acffeaaef2c6d5d22b9036ae587fc5a8003f7e84112823ae31e816853db7f3"


_KD = {
    "dim": 2,
    "state": {"basis": {"kind": "computational"}, "index": 0},
    "row_basis": HADAMARD,
    "col_basis": Y_BASIS,
}
_WEAK = {
    "dim": 2,
    "initial": {"basis": {"kind": "computational"}, "index": 0},
    "final": {"basis": HADAMARD, "index": 0},
    "meter_basis": Y_BASIS,
    "m_index": 0,
    "g": 0.05,
    "shots": 20000,
}
_SEQ = {
    "dim": 2,
    "initial": {"basis": {"kind": "computational"}, "index": 0},
    "m_basis": HADAMARD,
    "b_basis": Y_BASIS,
    "shots": 20000,
}


@pytest.mark.parametrize(
    "kind, base, key, at_limit, past_limit",
    [
        ("verify", {"seeds_per_dim": 1}, "dims", [MAX_DIM], [MAX_DIM + 1]),
        ("weak", _WEAK, "g", MAX_COUPLING, float(np.nextafter(MAX_COUPLING, 1.0))),
        ("weak", _WEAK, "shots", MIN_SHOTS, MIN_SHOTS - 1),
        ("seq", _SEQ, "shots", MIN_SHOTS, MIN_SHOTS - 1),
        ("verify", {"seeds_per_dim": 1}, "dims", [MIN_DIM], [MIN_DIM - 1]),
        ("kd", _KD, "dim", MIN_DIM, MIN_DIM - 1),
        ("weak", _WEAK, "dim", MIN_DIM, MIN_DIM - 1),
        ("seq", _SEQ, "dim", MIN_DIM, MIN_DIM - 1),
    ],
)
def test_cli_limit_follows_library_constant(tmp_path, kind, base, key, at_limit, past_limit):
    build_scenario(kind, {"params": {**base, key: at_limit}}, None)
    past = {"params": {**base, key: past_limit}}
    with pytest.raises(ConfigError):
        build_scenario(kind, past, None)
    cfg = write_config(tmp_path, "past.json", past)
    assert main([kind, "--config", cfg, "--out", str(tmp_path / "out")]) == 2


@pytest.mark.parametrize(
    "d, accepted", [(MIN_GRID_SIZE, True), (6, False), (MIN_GRID_SIZE + 1, False)]
)
def test_cli_grid_rule_follows_library(d, accepted):
    params = {"d": d, "L": 1.0, "mass": 1.0, "hbar": 1.0, "potential": {"kind": "box"}}
    if accepted:
        build_scenario("lattice", {"params": params}, None)
    else:
        with pytest.raises(ConfigError):
            build_scenario("lattice", {"params": params}, None)


@pytest.mark.parametrize(
    "command, flag, value",
    [("verify", "--format", "json"), ("weak", "--format", "json"),
     ("lattice", "--format", "json"), ("quantize", "--format", "json"),
     ("kd", "--seed", "1"), ("lattice", "--seed", "1"), ("quantize", "--seed", "1")],
)
def test_command_rejects_flags_it_does_not_read(command, flag, value):
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", "unused.json", flag, value])
    assert exc.value.code == 2


_GRID = {"d": 16, "L": 1.0, "mass": 1.0, "hbar": 1.0, "potential": {"kind": "box"}}
_QUANTIZE = {"values": [0.0, 2 * np.pi], "period": 1.0}
_COLUMN = {"energy_index": 0, "p_ref_index": 8}


def _potential(spec):
    return {**_GRID, "potential": spec}


@pytest.mark.parametrize(
    "kind, payload",
    [
        ("lattice", {"params": _potential({"kind": "harmonic"})}),
        ("lattice", {"params": _potential({"kind": "custom"})}),
        ("lattice", {"params": _potential({"kind": "harmonic", "omega": "x"})}),
        ("lattice", {"params": _potential({})}),
        ("quantize", {"params": {"lattice": _potential({"kind": "harmonic"}), "levels": 3,
                                 "period": 1.0}}),
        ("quantize", {"params": {**_QUANTIZE, "values": [0.0, None]}}),
        ("quantize", {"params": {**_QUANTIZE, "values": [0.0, [1.0]]}}),
        ("quantize", {"params": {**_QUANTIZE, "hbar": None}}),
        ("quantize", {"params": {**_QUANTIZE, "rtol": "x"}}),
        ("kd", {"params": {**_KD, "row_basis": {**HADAMARD, "labels": 5}}}),
        ("weak", {"params": {**_WEAK, "m_index": 5}}),
        ("verify", {"params": {"dims": [2], "seeds_per_dim": True}, "seed": True}),
        # A JSON boolean is no integer and no number.
        ("verify", {"params": {"dims": [2], "seeds_per_dim": True}}),
        ("verify", {"params": {"dims": [2], "seeds_per_dim": 1}, "seed": True}),
        ("quantize", {"params": {**_QUANTIZE, "period": True}}),
        ("quantize", {"params": {**_QUANTIZE, "period": 10**400}}),
        ("quantize", {"params": {**_QUANTIZE, "hbar": True}}),
        ("quantize", {"params": {**_QUANTIZE, "rtol": True}}),
        ("quantize", {"params": {**_QUANTIZE, "values": [0.0, True]}}),
        ("lattice", {"params": {**_GRID, "L": True}}),
        ("lattice", {"params": {**_GRID, "mass": True}}),
        ("lattice", {"params": {**_GRID, "hbar": True}}),
        ("lattice", {"params": {**_GRID, "column": {**_COLUMN, "energy_index": True}}}),
        ("lattice", {"params": {**_GRID, "column": {**_COLUMN, "p_ref_index": True}}}),
        ("lattice", {"params": _potential({"kind": "harmonic", "omega": True})}),
        ("kd", {"params": {**_KD, "state": {"basis": {"kind": "computational"}, "index": True}}}),
        ("kd", {"params": {**_KD, "col_basis": {"kind": "haar", "seed": True}}}),
        ("weak", {"params": {**_WEAK, "m_index": True}}),
        ("kd", {"params": {**_KD, "row_basis": {**HADAMARD, "labels": "pm"}}}),
        ("kd", {"params": {**_KD, "row_basis": {"kind": "explicit", "re": np.eye(3).tolist(),
                                                "im": np.zeros((3, 3)).tolist()}}}),
        # Well-typed constants whose wall or V leaves the float range.
        ("lattice", {"params": {**_GRID, "L": 1e200}}),
        ("lattice", {"params": _potential({"kind": "harmonic", "omega": 1e200})}),
        ("lattice", {"params": _potential({"kind": "harmonic", "omega": 10**400})}),
        ("lattice", {"params": {**_GRID, "L": 1e-300, "potential": {"kind": "free"}}}),
    ],
    ids=[
        "harmonic-no-omega", "custom-no-values", "omega-str", "potential-empty",
        "quantize-no-omega", "values-null", "values-nested", "hbar-null", "rtol-str",
        "labels-int", "m_index-out-of-range", "seeds_per_dim-and-seed-true",
        "seeds_per_dim-true", "seed-true", "period-true", "period-past-float",
        "quantize-hbar-true", "rtol-true", "values-true", "L-true", "mass-true", "hbar-true",
        "energy_index-true", "p_ref_index-true", "omega-true", "index-true", "haar-seed-true",
        "m_index-true", "labels-str", "explicit-dim-mismatch",
        "box-wall-past-float", "omega-squared-past-float", "omega-int-past-float",
        "kinetic-past-float",
    ],
)
def test_malformed_config_exits_two_before_any_output(tmp_path, capsys, kind, payload):
    cfg = write_config(tmp_path, "cfg.json", payload)
    assert main([kind, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


_README_KD = {
    "dim": 2,
    "state": {"basis": {"kind": "computational"}, "index": 0},
    "row_basis": {"kind": "fourier"},
    "col_basis": {"kind": "haar", "seed": 3},
}
_PINNED_SEQ = {
    "dim": 3,
    "initial": {"basis": {"kind": "fourier"}, "index": 1},
    "m_basis": {"kind": "computational"},
    "b_basis": {"kind": "haar", "seed": 5},
    "shots": 100000,
}
_README_LATTICE = {
    "d": 64, "L": 1.0, "mass": 1.0, "hbar": 1.0, "potential": {"kind": "box"},
    "column": {"energy_index": 0, "p_ref_index": 32},
}
_README_VERIFY = {"dims": [2, 3, 4, 5, 6, 7, 8], "seeds_per_dim": 100}
_README_WEAK = {
    "dim": 2,
    "initial": {"basis": {"kind": "computational"}, "index": 0},
    "final": {"basis": {"kind": "fourier"}, "index": 0},
    "meter_basis": {"kind": "haar", "seed": 1},
    "m_index": 0, "g": 0.05, "shots": 1000000,
}
_README_QUANTIZE = {
    "lattice": {
        "d": 64, "L": 20.0, "mass": 1.0, "hbar": 1.0,
        "potential": {"kind": "harmonic", "omega": 1.0},
    },
    "levels": 5, "period": 6.283185307179586, "rtol": 0.01,
}


class TestPinnedArtifactBytes:
    """sha256 of exports as first pinned: any change to their bytes is a format change.

    The seed-42 ``weak.json`` pin holds the pointer's present draw order.  Drawing
    each stage from its own independent stream (ROADMAP item 1) will move it, as
    a recorded format change.
    """

    @pytest.mark.parametrize(
        "argv, payload, digest",
        [
            (["kd", "--format", "csv"], {"params": _README_KD},
             "e8f4b4dfbdf760bbcd28123bfa6877a5eabd88403f62b466a55a7c06cb3f09a9"),
            (["seq", "--format", "csv"], {"params": _PINNED_SEQ, "seed": 9},
             "0de01c7d7cea13fc6c98833a09af4277b3f226b8c4255928e7e1395f05e9a51a"),
            (["lattice"], {"params": _README_LATTICE},
             "840b4da064871c92de959821c8e3168f720e56029a78a2517227752dfeba8288"),
        ],
        ids=["kd", "seq", "lattice"],
    )
    def test_cli_csv(self, tmp_path, argv, payload, digest):
        cfg = write_config(tmp_path, "cfg.json", payload)
        assert main([*argv, "--config", cfg, "--out", str(tmp_path / "x")]) == 0
        assert hashlib.sha256((tmp_path / "x.csv").read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize(
        "argv, payload, digest",
        [
            (["kd"], {"params": _README_KD},
             "bc802a33921b32197838282462a1fb77f27ca2f14b2aefcd8802bd4c1a103c03"),
            (["seq"], {"params": _PINNED_SEQ, "seed": 9},
             "156c27ab3e2b698398528af1e90f2552c9133390dab9ef412520905b4c04aca1"),
            (["verify"], {"params": _README_VERIFY, "seed": 7},
             "bcdd4beb424a2c0722e2624868e03786984c1d7cdfdd97d4439d9a4511407b2c"),
            (["lattice"], {"params": _README_LATTICE},
             "314dbdc2bdc4993b71081e57c02fb800395c4f1830fcc1bdf65d0ef5032909f4"),
            (["quantize"], {"params": _README_QUANTIZE},
             "29e91eac6b4899c92405b4ef94f11e05e0ad00be3ce2be1f05e1df7e17cbbeae"),
            (["weak"], {"params": _README_WEAK, "seed": 42},
             "8876b0deccb8a65465cc846bdef44226b8b6e6882f3786516625e58faa9d71ca"),
        ],
        ids=["kd", "seq", "verify", "lattice", "quantize", "weak"],
    )
    def test_cli_json(self, tmp_path, argv, payload, digest):
        cfg = write_config(tmp_path, "cfg.json", payload)
        assert main([*argv, "--config", cfg, "--out", str(tmp_path / "x")]) == 0
        assert hashlib.sha256((tmp_path / "x.json").read_bytes()).hexdigest() == digest

    def test_column_csv(self):
        m, a, b = (haar_random_basis(16, s) for s in (1, 2, 3))
        table = ccp_table(m, a, b)
        text = "".join(table.column_csv(i, 0) for i in range(16))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "7161fa4cc2d642bb16eaa7fc01e402116b06aca9e50f12e56b75c4362e622d64"
        )


def test_cli_import_loads_no_third_party_module_but_numpy():
    # Every process pays for what ``import qergo.cli`` pulls in, so a new
    # heavy dependency must be a deliberate change, not a side effect.
    probe = (
        "import sys; before = set(sys.modules); import qergo.cli; "
        "top = {m.partition('.')[0] for m in set(sys.modules) - before}; "
        "print(' '.join(sorted(top - set(sys.stdlib_module_names))))"
    )
    assert run_fresh_interpreter(probe).split() == ["numpy", "qergo"]


_GRID_MISSING_A_CELL = "a_label,b_label,re,im\n0,0,1,0\n0,1,1,0\n1,0,1,0\n"
_JSON_GRID = '{"re": [[1, 0], [0, 1]], "im": [[0, 0], [0, 0]]}'


@pytest.mark.parametrize(
    "call, error, fragment",
    [
        pytest.param(
            lambda: render_distribution("", "heatmap"), ParseError, "empty input", id="empty",
        ),
        pytest.param(
            lambda: render_distribution("x,y\n1,2\n", "heatmap"),
            ParseError, "unexpected header 'x,y'", id="header",
        ),
        pytest.param(
            lambda: render_distribution(_GRID_MISSING_A_CELL, "heatmap"),
            ParseError, "incomplete grid for row '1'", id="incomplete-grid",
        ),
        pytest.param(
            lambda: render_distribution("{", "heatmap"), ParseError, "bad JSON", id="bad-json",
        ),
        pytest.param(
            lambda: render_distribution('{"re": [1, 0], "im": [0, 0]}', "heatmap"),
            ParseError, "heatmap needs a 2D re/im grid", id="heatmap-of-a-series",
        ),
        pytest.param(
            lambda: render_distribution(_JSON_GRID, "profile"),
            ParseError, "profile needs a 1D re/im series", id="profile-of-a-grid",
        ),
        pytest.param(
            lambda: render_distribution("x,re,im\n0,1,0\n", "contour"),
            ValueError, "style must be 'heatmap' or 'profile', got 'contour'", id="style",
        ),
    ],
)
def test_render_input_errors(call, error, fragment):
    with pytest.raises(error, match=re.escape(fragment)):
        call()


def test_json_profile_renders_its_series_against_the_index():
    vals = np.array([0.0 + 0.0j, 0.5 - 0.5j, 1.0 + 0.25j])
    text = json.dumps({"re": vals.real.tolist(), "im": vals.imag.tolist()})
    svg = render_distribution(text, "profile")
    assert svg == render_profile(np.arange(3.0), vals)
    lines = minidom.parseString(svg).getElementsByTagName("polyline")
    assert [len(line.getAttribute("points").split()) for line in lines] == [3, 3]
