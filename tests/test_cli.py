import json

import numpy as np
import pytest

from qergo.basis import MIN_DIM
from qergo.cli import build_scenario, main
from qergo.render import parse_grid_csv, parse_profile_csv, render_distribution
from qergo.errors import ConfigError, ParseError
from qergo.lattice import MIN_GRID_SIZE
from qergo.verify import MAX_DIM
from qergo.weak import MAX_COUPLING, MIN_SHOTS

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


class TestEnvironment:
    def test_invalid_thread_cap_rejected(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QERGO_THREADS", "zero")
        cfg = write_config(
            tmp_path, "v.json", {"params": {"dims": [2], "seeds_per_dim": 1}}
        )
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "v")]) == 2

    def test_results_independent_of_thread_cap(self, tmp_path, monkeypatch):
        cfg = write_config(
            tmp_path, "v.json", {"params": {"dims": [2], "seeds_per_dim": 2}, "seed": 11}
        )
        monkeypatch.setenv("QERGO_THREADS", "1")
        main(["verify", "--config", cfg, "--out", str(tmp_path / "t1")])
        monkeypatch.setenv("QERGO_THREADS", "8")
        main(["verify", "--config", cfg, "--out", str(tmp_path / "t8")])
        assert (tmp_path / "t1.json").read_bytes() == (tmp_path / "t8.json").read_bytes()


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
        ("weak_run", _WEAK, "g", MAX_COUPLING, float(np.nextafter(MAX_COUPLING, 1.0))),
        ("weak_run", _WEAK, "shots", MIN_SHOTS, MIN_SHOTS - 1),
        ("sequential_run", _SEQ, "shots", MIN_SHOTS, MIN_SHOTS - 1),
        ("verify", {"seeds_per_dim": 1}, "dims", [MIN_DIM], [MIN_DIM - 1]),
        ("kd_table", _KD, "dim", MIN_DIM, MIN_DIM - 1),
        ("weak_run", _WEAK, "dim", MIN_DIM, MIN_DIM - 1),
        ("sequential_run", _SEQ, "dim", MIN_DIM, MIN_DIM - 1),
    ],
)
def test_cli_limit_follows_library_constant(tmp_path, kind, base, key, at_limit, past_limit):
    build_scenario(kind, {"params": {**base, key: at_limit}}, None, "out")
    past = {"params": {**base, key: past_limit}}
    with pytest.raises(ConfigError):
        build_scenario(kind, past, None, "out")
    command = {"verify": "verify", "kd_table": "kd", "weak_run": "weak", "sequential_run": "seq"}
    cfg = write_config(tmp_path, "past.json", past)
    assert main([command[kind], "--config", cfg, "--out", str(tmp_path / "out")]) == 2


@pytest.mark.parametrize(
    "d, accepted", [(MIN_GRID_SIZE, True), (6, False), (MIN_GRID_SIZE + 1, False)]
)
def test_cli_grid_rule_follows_library(d, accepted):
    params = {"d": d, "L": 1.0, "mass": 1.0, "hbar": 1.0, "potential": {"kind": "box"}}
    if accepted:
        build_scenario("lattice", {"params": params}, None, "out")
    else:
        with pytest.raises(ConfigError):
            build_scenario("lattice", {"params": params}, None, "out")
