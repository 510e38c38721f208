import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from qcool.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_RUNTIME,
    GRID_KEYS,
    LIMITS_COLUMNS,
    MAX_GRID_POINTS,
    RATE_KEYS,
    ConfigError,
    load_run_config,
    main,
    parse_config,
    serialize_config,
    write_rows,
)
from qcool.limits import SWEEP_CHUNK

from helpers import reference_sweep_record

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")

#: The keys each command reads (README "Command line"); `seed` and
#: `format` are read by every command.
SCENARIO_KEYS = RATE_KEYS + ("p_t", "duration")
COMMAND_KEYS = {
    "limits": GRID_KEYS,
    "surface": GRID_KEYS,
    "simulate": RATE_KEYS + ("duration",),
    "tomo": ("p_s", "p_l", "p_t", "state_file", "shots_per_setting", "noise_model"),
    "pipeline": ("shots_per_setting", "duration")
    + tuple(f"scenario{k}.{key}" for k in (1, 2, 3) for key in SCENARIO_KEYS),
}

#: Config values: finite, non-finite, negative, huge, non-numeric, empty.
NUMBERS = st.one_of(
    st.floats(-2.0, 2.0).map(repr),
    st.integers(-3, 50).map(str),
    st.sampled_from([
        "nan", "inf", "-inf", "-1", "1e400", str(2**62 + 1), str(10**30),
        "abc", "", "poisson", "multinomial", "jsonl",
    ]),
)
VALUES = NUMBERS | st.tuples(NUMBERS, NUMBERS, NUMBERS).map(":".join)
#: Any three probabilities in [0, 1/2] form a valid channel point.
PROBS = st.floats(0.0, 0.5).map(repr)
NO_HEALTH = dict(suppress_health_check=[HealthCheck.function_scoped_fixture], deadline=None)


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def scenario(k, **overrides):
    """A pipeline scenario's key lines, short enough to simulate quickly."""
    values = {"rate_singlet": "1e5", "rate_singles": "0", "rate_noise": "4e5",
              "tau": "1e-6", "p_t": "0", "duration": "0.2", **overrides}
    return "".join(f"scenario{k}.{key} = {v}\n" for key, v in values.items())


class TestConfigParsing:
    def test_parse_basic(self):
        cfg = parse_config("a = 1\n# comment\n\nb=two # trailing\n")
        assert cfg == {"a": "1", "b": "two"}

    def test_parse_rejects_duplicate(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("a = 1\na = 2\n")

    def test_parse_rejects_missing_equals(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config("not a pair\n")

    @settings(max_examples=60)
    @given(st.dictionaries(
        st.text(st.characters(categories=("L", "N", "P", "S"), exclude_characters="#="), min_size=1),
        st.text(st.characters(categories=("L", "N", "P", "S", "Zs"), exclude_characters="#"))
        .map(str.strip),
    ))
    def test_round_trip(self, cfg):
        text = serialize_config(cfg)
        assert parse_config(text) == cfg
        assert serialize_config(parse_config(text)) == text


class TestLoadRunConfig:
    def test_flags_override_file(self, tmp_path):
        path = write_cfg(tmp_path, "p_t = 0.5\np_l = 0\np_s = 0.4\nseed = 3\n")
        rc = load_run_config("limits", path, seed=9, out=str(tmp_path / "x.csv"))
        assert rc.seed == 9

    def test_unknown_key_named(self, tmp_path):
        path = write_cfg(tmp_path, "p_t = 0.5\np_l = 0\np_s = 0.4\nbogus = 1\n")
        with pytest.raises(ConfigError, match="bogus"):
            load_run_config("limits", path, out=str(tmp_path / "x.csv"))

    def test_missing_key_named(self, tmp_path):
        path = write_cfg(tmp_path, "p_t = 0.5\np_l = 0\n")
        with pytest.raises(ConfigError, match="p_s"):
            load_run_config("limits", path, out=str(tmp_path / "x.csv"))

    def test_bad_axis_named(self, tmp_path):
        path = write_cfg(tmp_path, "p_t = 0.5\np_l = 0\np_s = a:b:c\n")
        with pytest.raises(ConfigError, match="p_s"):
            load_run_config("limits", path, out=str(tmp_path / "x.csv"))

    def test_unwritable_out(self, tmp_path):
        path = write_cfg(tmp_path, "p_t = 0.5\np_l = 0\np_s = 0.4\n")
        with pytest.raises(ConfigError, match="out"):
            load_run_config("limits", path, out="/nonexistent/dir/x.csv")

    def test_removed_keys_rejected(self, tmp_path, capsys):
        rates = "rate_singlet = 1e5\nrate_singles = 0\nrate_noise = 4e5\ntau = 1e-6\n"
        scenario = "".join(f"scenario1.{line}\n" for line in rates.splitlines())
        cases = (
            ("limits", "p_t = 0.5\np_l = 0\np_s = 0.4\nworkers = 2\n", "workers"),
            ("simulate", rates + "duration = 1\nnoise = excited\n", "noise"),
            ("pipeline", scenario + "scenario1.p_t = 0\nscenario1.duration = 1\n"
             "scenario1.noise = excited\n", "scenario1.noise"),
        )
        for command, text, key in cases:
            cfg = write_cfg(tmp_path, text)
            code = main([command, "--config", cfg, "--out", str(tmp_path / "x.csv")])
            assert code == EXIT_CONFIG
            assert f"unknown key {key!r}" in capsys.readouterr().err

    @settings(max_examples=150, **NO_HEALTH)
    @given(st.sampled_from(sorted(COMMAND_KEYS)), st.data())
    def test_fuzzed_config_loads_or_is_rejected(self, tmp_path, command, data):
        keys = COMMAND_KEYS[command] + ("seed", "format")
        cfg = data.draw(st.dictionaries(st.sampled_from(keys), VALUES))
        path = write_cfg(tmp_path, serialize_config(cfg))
        try:
            load_run_config(command, path, out=str(tmp_path / "x.csv"))
        except ConfigError:
            pass

    def test_grid_cap(self, tmp_path, capsys):
        assert 26 * 19 * 41 <= MAX_GRID_POINTS  # the default surface grid
        huge = f"0:0.5:{MAX_GRID_POINTS + 1}"
        for text in (
            f"p_t = {huge}\np_l = 0\np_s = 0.4\n",
            f"p_t = {huge}\np_l = 0:1:0\np_s = 0.4\n",  # an empty axis hides nothing
            "p_t = 0:0.5:2000\np_l = 0:0.9:2000\np_s = 0:1:2000\n",
        ):
            cfg = write_cfg(tmp_path, text)
            assert main(["limits", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == EXIT_CONFIG
            assert "keys p_t/p_l/p_s" in capsys.readouterr().err

    def test_shot_bound(self, tmp_path, capsys):
        point = "p_s = 0.4\np_l = 0.3\np_t = 0.2\n"
        for command, body in (("tomo", point), ("pipeline", scenario(1))):
            cfg = write_cfg(tmp_path, body + f"shots_per_setting = {2**62 + 1}\n")
            assert main([command, "--config", cfg, "--out", str(tmp_path / "x.csv")]) == EXIT_CONFIG
            assert "shots_per_setting" in capsys.readouterr().err
            cfg = write_cfg(tmp_path, body + f"shots_per_setting = {2**62}\n")
            rc = load_run_config(command, cfg, out=str(tmp_path / "x.csv"))
            assert rc.params["settings"].shots_per_setting == 2**62
        cfg = write_cfg(tmp_path, point + f"shots_per_setting = {2**62}\n")
        assert main(["tomo", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == EXIT_OK

    def test_surface_defaults(self, tmp_path):
        path = write_cfg(tmp_path, "")
        rc = load_run_config("surface", path, out=str(tmp_path / "x.csv"))
        grid = rc.params["grid"]
        assert len(grid.p_t_values) == 26
        assert len(grid.p_l_values) == 19
        assert len(grid.p_s_values) == 41


class TestLimitsCommand:
    def test_hot_point_unconditional_ok(self, tmp_path):
        cfg = write_cfg(tmp_path, "p_t = 0.5\np_l = 0\np_s = 0.34\n")
        out = tmp_path / "lim.csv"
        assert main(["limits", "--config", cfg, "--out", str(out)]) == EXIT_OK
        header, row = out.read_text().splitlines()
        cols = dict(zip(header.split(","), row.split(",")))
        assert cols["uncond_ok"] == "true"

    def test_conditional_boundary_point(self, tmp_path):
        cfg = write_cfg(tmp_path, "p_t = 0.5\np_l = 0.5\np_s = 0.30\n")
        out = tmp_path / "lim.csv"
        assert main(["limits", "--config", cfg, "--out", str(out)]) == EXIT_OK
        header, row = out.read_text().splitlines()
        cols = dict(zip(header.split(","), row.split(",")))
        assert cols["cond_ok"] == "false"
        assert abs(float(cols["cond_boundary"]) - 0.3256939094329986) <= 1e-9

    def test_rerun_byte_identical(self, tmp_path):
        cfg = write_cfg(tmp_path, "p_t = 0.1:0.5:5\np_l = 0:0.6:4\np_s = 0:1:7\n")
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["limits", "--config", cfg, "--out", str(out1)])
        main(["limits", "--config", cfg, "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_jsonl_mirrors_columns(self, tmp_path):
        cfg = write_cfg(tmp_path, "p_t = 0.2\np_l = 0.9\np_s = 0.5\n")
        out = tmp_path / "lim.jsonl"
        main(["limits", "--config", cfg, "--out", str(out), "--format", "jsonl"])
        row = json.loads(out.read_text().splitlines()[0])
        assert row["feasible"] is False
        assert row["numeric_negativity"] is None  # NaN maps to null
        assert set(row) == {
            "p_T", "P_S", "P_L", "P_TL", "uncond_boundary", "cond_boundary",
            "uncond_ok", "cond_ok", "numeric_negativity", "feasible",
        }

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_chunked_surface_equals_per_point_reference(self, tmp_path, fmt):
        axes = {"p_t": (0.005, 0.5, 16), "p_l": (0.0, 0.95, 20), "p_s": (0.0, 1.0, 21)}
        cfg = write_cfg(tmp_path, "".join(f"{k} = {lo}:{hi}:{n}\n" for k, (lo, hi, n) in axes.items()))
        out = tmp_path / f"surface.{fmt}"
        assert main(["surface", "--config", cfg, "--out", str(out), "--format", fmt]) == EXIT_OK
        p_t, p_l, p_s = ([float(v) for v in np.linspace(*axes[k])] for k in ("p_t", "p_l", "p_s"))
        points = sorted(itertools.product(p_l, p_t, p_s))
        # several full chunks, a partial last one, and infeasible points
        assert len(points) > 3 * SWEEP_CHUNK and len(points) % SWEEP_CHUNK
        records = [reference_sweep_record(t, l, s) for l, t, s in points]
        assert not all(r.feasible for r in records)
        want = tmp_path / f"reference.{fmt}"
        write_rows(str(want), fmt, LIMITS_COLUMNS, records)
        assert out.read_bytes() == want.read_bytes()

    def test_closure_edge_point_flagged_infeasible(self, tmp_path):
        cfg = write_cfg(tmp_path, "p_t = 0.2\np_l = 0.5\np_s = 0.500000000001\n")
        out = tmp_path / "lim.csv"
        assert main(["limits", "--config", cfg, "--out", str(out)]) == EXIT_OK
        header, row = out.read_text().splitlines()
        cols = dict(zip(header.split(","), row.split(",")))
        assert cols["feasible"] == "false"
        assert cols["numeric_negativity"] == "nan"

    def test_probability_columns_in_unit_interval(self, tmp_path):
        cfg = write_cfg(tmp_path, "p_t = 0:0.5:4\np_l = 0:1:4\np_s = 0:1:4\n")
        out = tmp_path / "lim.csv"
        main(["limits", "--config", cfg, "--out", str(out)])
        lines = out.read_text().splitlines()
        header = lines[0].split(",")
        for line in lines[1:]:
            row = dict(zip(header, line.split(",")))
            for col in ("p_T", "P_S", "P_L", "P_TL", "uncond_boundary", "cond_boundary"):
                assert 0.0 <= float(row[col]) <= 1.0


class TestFuzzedRuns:
    @settings(max_examples=40, **NO_HEALTH)
    @given(st.lists(
        PROBS | NUMBERS | st.tuples(PROBS, PROBS, st.integers(-1, 4).map(str)).map(":".join),
        min_size=3, max_size=3,
    ))
    def test_limits_exit_status(self, tmp_path, axes):
        text = "".join(f"{key} = {v}\n" for key, v in zip(GRID_KEYS, axes))
        cfg = write_cfg(tmp_path, text)
        code = main(["limits", "--config", cfg, "--out", str(tmp_path / "x.csv")])
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_RUNTIME)

    @settings(max_examples=40, **NO_HEALTH)
    @given(
        st.lists(PROBS, min_size=3, max_size=3) | st.lists(NUMBERS, min_size=3, max_size=3),
        st.sampled_from(["1", "39", "40", "2000", "0", "-1", "abc", str(2**62 + 1), str(10**20)]),
        st.sampled_from(["multinomial", "poisson", "gaussian"]),
    )
    @example(["0.4", "0.3", "0.2"], str(10**20), "multinomial")
    @example(["0.4", "0.3", "0.2"], "1", "poisson")
    def test_tomo_exit_status(self, tmp_path, point, shots, noise_model):
        text = "".join(f"{key} = {v}\n" for key, v in zip(("p_s", "p_l", "p_t"), point))
        text += f"shots_per_setting = {shots}\nnoise_model = {noise_model}\n"
        cfg = write_cfg(tmp_path, text)
        code = main(["tomo", "--config", cfg, "--out", str(tmp_path / "x.csv")])
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_RUNTIME)


class TestSimulateCommand:
    def test_no_noise_reports_zero_triples(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "rate_singlet = 1000\nrate_singles = 0\nrate_noise = 0\n"
            "tau = 1e-8\nduration = 10\n",
        )
        out = tmp_path / "sim.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_OK
        header, row = out.read_text().splitlines()
        cols = dict(zip(header.split(","), row.split(",")))
        assert cols["n_triple"] == "0"
        assert cols["p_s_emp"] == ""

    def test_constraint_row(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "rate_singlet = 100000\nrate_singles = 200000\nrate_noise = 400000\n"
            "tau = 1e-6\nduration = 3\n",
        )
        out = tmp_path / "sim.csv"
        assert main(["simulate", "--config", cfg, "--seed", "5", "--out", str(out)]) == EXIT_OK
        header, row = out.read_text().splitlines()
        cols = dict(zip(header.split(","), row.split(",")))
        n = int(cols["n_triple"])
        assert n > 1000
        dev = abs(float(cols["two_ps_plus_pl"]) - 1.0)
        p_s, p_f = float(cols["p_s_emp"]), float(cols["p_f_emp"])
        sigma = math.sqrt((p_s + p_f - (p_s - p_f) ** 2) / n)
        assert dev <= 3.0 * sigma

    def test_infinite_duration_rejected(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            "rate_singlet = 1e5\nrate_singles = 0\nrate_noise = 4e5\n"
            "tau = 1e-6\nduration = inf\n",
        )
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "s.csv")]) == EXIT_CONFIG
        assert "key 'duration'" in capsys.readouterr().err

    def test_same_seed_identical_output(self, tmp_path):
        text = (
            "rate_singlet = 50000\nrate_singles = 50000\nrate_noise = 100000\n"
            "tau = 1e-6\nduration = 1\nseed = 12\n"
        )
        cfg = write_cfg(tmp_path, text)
        out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        main(["simulate", "--config", cfg, "--out", str(out1)])
        main(["simulate", "--config", cfg, "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()


class TestTomoCommand:
    def test_singlet_truth_high_fidelity(self, tmp_path):
        cfg = write_cfg(
            tmp_path, "p_s = 1\np_l = 0\np_t = 0\nshots_per_setting = 1000000\n"
        )
        out = tmp_path / "tomo.csv"
        assert main(["tomo", "--config", cfg, "--seed", "2", "--out", str(out)]) == EXIT_OK
        header, row = out.read_text().splitlines()
        cols = dict(zip(header.split(","), row.split(",")))
        assert float(cols["fidelity"]) >= 0.999
        assert cols["entangled_true"] == "true"

    def test_maximally_mixed_state_file(self, tmp_path):
        state = tmp_path / "mixed.txt"
        rows = ["0.25+0j 0j 0j 0j", "0j 0.25+0j 0j 0j", "0j 0j 0.25+0j 0j", "0j 0j 0j 0.25+0j"]
        state.write_text("\n".join(rows) + "\n")
        cfg = write_cfg(tmp_path, f"state_file = {state}\nshots_per_setting = 100000\n")
        out = tmp_path / "tomo.csv"
        assert main(["tomo", "--config", cfg, "--out", str(out)]) == EXIT_OK
        header, row = out.read_text().splitlines()
        cols = dict(zip(header.split(","), row.split(",")))
        assert float(cols["negativity_true"]) == 0.0
        assert float(cols["negativity_recon"]) == 0.0
        assert cols["p_t"] == ""  # no parameter block for explicit states

    def test_infeasible_params_rejected(self, tmp_path):
        cfg = write_cfg(tmp_path, "p_s = 0.7\np_l = 0.7\np_t = 0.1\n")
        out = tmp_path / "tomo.csv"
        code = main(["tomo", "--config", cfg, "--out", str(out)])
        assert code == EXIT_CONFIG

    def test_few_poisson_shots_rejected(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            "p_s = 0.4\np_l = 0.3\np_t = 0.2\nnoise_model = poisson\nshots_per_setting = 1\n",
        )
        out = str(tmp_path / "t.csv")
        assert main(["tomo", "--config", cfg, "--seed", "1", "--out", out]) == EXIT_CONFIG
        assert "shots_per_setting" in capsys.readouterr().err

    def test_non_finite_state_file(self, tmp_path, capsys):
        state = tmp_path / "nan.txt"
        rows = ["nan 0 0 0", "0 0.5 0 0", "0 0 0.5 0", "0 0 0 0"]
        state.write_text("\n".join(rows) + "\n")
        cfg = write_cfg(tmp_path, f"state_file = {state}\n")
        assert main(["tomo", "--config", cfg, "--out", str(tmp_path / "t.csv")]) == EXIT_CONFIG
        assert "state_file" in capsys.readouterr().err

    def test_both_input_forms_rejected(self, tmp_path, capsys):
        state = tmp_path / "mixed.txt"
        state.write_text("\n".join(["0.25 0 0 0", "0 0.25 0 0", "0 0 0.25 0", "0 0 0 0.25"]) + "\n")
        cfg = write_cfg(tmp_path, f"state_file = {state}\np_s = 0.4\np_l = 0.3\np_t = 0.2\n")
        assert main(["tomo", "--config", cfg, "--out", str(tmp_path / "t.csv")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "state_file" in err and "not both" in err and "unknown key" not in err

    def test_malformed_state_file(self, tmp_path):
        state = tmp_path / "junk.txt"
        state.write_text("this is not a matrix\n")
        cfg = write_cfg(tmp_path, f"state_file = {state}\n")
        assert main(["tomo", "--config", cfg, "--out", str(tmp_path / "t.csv")]) == EXIT_CONFIG

    def test_non_physical_state_file(self, tmp_path):
        state = tmp_path / "bad.txt"
        rows = ["1.2+0j 0j 0j 0j", "0j -0.2+0j 0j 0j", "0j 0j 0j 0j", "0j 0j 0j 0j"]
        state.write_text("\n".join(rows) + "\n")
        cfg = write_cfg(tmp_path, f"state_file = {state}\n")
        assert main(["tomo", "--config", cfg, "--out", str(tmp_path / "t.csv")]) == EXIT_CONFIG


class TestPipelineCommand:
    def test_three_scenarios_three_classes(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "shots_per_setting = 50000\n"
            # no residual singles and cold noise: quantum without heralding
            "scenario1.rate_singlet = 1e5\nscenario1.rate_singles = 0\n"
            "scenario1.rate_noise = 4e5\nscenario1.tau = 1e-6\n"
            "scenario1.p_t = 0\nscenario1.duration = 3\n"
            # hot noise, ratio near 1: saved only by the heralding projection
            "scenario2.rate_singlet = 1e5\nscenario2.rate_singles = 5e5\n"
            "scenario2.rate_noise = 4e5\nscenario2.tau = 5e-7\n"
            "scenario2.p_t = 0.5\nscenario2.duration = 10\n"
            # hot noise, large ratio: entanglement broken
            "scenario3.rate_singlet = 1e5\nscenario3.rate_singles = 9e5\n"
            "scenario3.rate_noise = 4e5\nscenario3.tau = 1e-6\n"
            "scenario3.p_t = 0.5\nscenario3.duration = 5\n",
        )
        out = tmp_path / "pipe.csv"
        assert main(["pipeline", "--config", cfg, "--seed", "17", "--out", str(out)]) == EXIT_OK
        lines = out.read_text().splitlines()
        header = lines[0].split(",")
        classes = []
        for line in lines[1:]:
            row = dict(zip(header, line.split(",")))
            classes.append(row["classification"])
            assert abs(
                float(row["p_s_emp"]) + float(row["p_f_emp"]) + float(row["p_l_emp"]) - 1.0
            ) <= 1e-9
        assert classes == ["unconditional", "conditional_only", "separable"]

    def test_no_triples_is_runtime_error(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "scenario1.rate_singlet = 10\nscenario1.rate_singles = 0\n"
            "scenario1.rate_noise = 10\nscenario1.tau = 1e-9\n"
            "scenario1.p_t = 0\nscenario1.duration = 0.5\n",
        )
        code = main(["pipeline", "--config", cfg, "--out", str(tmp_path / "p.csv")])
        assert code == EXIT_RUNTIME

    def test_missing_scenarios_rejected(self, tmp_path):
        cfg = write_cfg(tmp_path, "shots_per_setting = 1000\n")
        assert main(["pipeline", "--config", cfg, "--out", str(tmp_path / "p.csv")]) == EXIT_CONFIG

    def test_infinite_scenario_duration_rejected(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            "scenario1.rate_singlet = 1e5\nscenario1.rate_singles = 0\n"
            "scenario1.rate_noise = 4e5\nscenario1.tau = 1e-6\n"
            "scenario1.p_t = 0\nscenario1.duration = inf\n",
        )
        assert main(["pipeline", "--config", cfg, "--out", str(tmp_path / "p.csv")]) == EXIT_CONFIG
        assert "key 'scenario1.duration'" in capsys.readouterr().err

    def test_zero_default_duration_rejected(self, tmp_path, capsys):
        # an explicit 0 is an invalid value, not an absent default
        cfg = write_cfg(
            tmp_path,
            "duration = 0\n"
            "scenario1.rate_singlet = 1e5\nscenario1.rate_singles = 0\n"
            "scenario1.rate_noise = 4e5\nscenario1.tau = 1e-6\nscenario1.p_t = 0\n",
        )
        assert main(["pipeline", "--config", cfg, "--out", str(tmp_path / "p.csv")]) == EXIT_CONFIG
        assert "key 'duration'" in capsys.readouterr().err

    def test_scenario_gap_named(self, tmp_path, capsys):
        for text in (scenario(1) + scenario(3), scenario(1) + f"scenario{'9' * 5000}.tau = 1\n"):
            cfg = write_cfg(tmp_path, text)
            assert main(["pipeline", "--config", cfg, "--out", str(tmp_path / "p.csv")]) == EXIT_CONFIG
            assert "missing scenario2" in capsys.readouterr().err

    def test_zero_singlet_rate_rejected(self, tmp_path, capsys):
        # simulate accepts a zero singlet rate; a pipeline scenario cannot
        # form the rate ratio it classifies by
        cfg = write_cfg(tmp_path, scenario(1, rate_singlet="0", rate_singles="1e5"))
        assert main(["pipeline", "--config", cfg, "--out", str(tmp_path / "p.csv")]) == EXIT_CONFIG
        assert "key 'scenario1.rate_singlet'" in capsys.readouterr().err

    def test_rerun_byte_identical(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "shots_per_setting = 2000\n"
            "scenario1.rate_singlet = 2e4\nscenario1.rate_singles = 2e4\n"
            "scenario1.rate_noise = 8e4\nscenario1.tau = 1e-6\n"
            "scenario1.p_t = 0.25\nscenario1.duration = 2\n",
        )
        out1, out2 = tmp_path / "p1.csv", tmp_path / "p2.csv"
        main(["pipeline", "--config", cfg, "--seed", "4", "--out", str(out1)])
        main(["pipeline", "--config", cfg, "--seed", "4", "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()


class TestDeterminismAcrossFormats:
    def test_jsonl_rerun_byte_identical(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "rate_singlet = 50000\nrate_singles = 50000\nrate_noise = 100000\n"
            "tau = 1e-6\nduration = 1\nformat = jsonl\nseed = 3\n",
        )
        out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        main(["simulate", "--config", cfg, "--out", str(out1)])
        main(["simulate", "--config", cfg, "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()
