"""Config parsing, CSV artifacts, CLI dispatch and the verification gate."""

import configparser
import csv
import dataclasses
import inspect
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import fgle.linalg as linalg_mod
import fgle.stepper as stepper_mod
from fgle import cli
from fgle.cli import (
    ConfigError,
    VerifySettings,
    main,
    parse_config,
    write_csv,
)

MINIMAL_SIMULATE = """
[run]
mode = simulate

[model]
alpha = 1.8
upsilon = 1.0
eta = 1.0
kappa = 1.0
zeta = 2.0
gamma = 0.0

[grid]
a = -10
b = 10
m = 400

[time]
t_final = 1.0
steps = 20
"""

CONVERGENCE_EXACT = """
[run]
mode = convergence

[model]
alpha = 2.0
upsilon = 0.3
eta = 0.5
kappa = -0.13337568346479610
zeta = -1.0
gamma = 0.0
initial = soliton

[grid]
a = -16
b = 16
m = 40

[time]
t_final = 1.0
steps = 5

[convergence]
levels = 5
reference = exact
"""

CONVERGENCE_FINE = CONVERGENCE_EXACT.replace("reference = exact", "reference = fine").replace(
    "levels = 5", "levels = 2\nh_ref = 0.1\ntau_ref = 0.05"
)



def study_config(mode, entry):
    """A decay or inviscid config with one ``entry`` in its study's section: the
    simulate one without the [model] keys that study sets for each run itself."""
    unread = {"decay": "gamma", "inviscid": "upsilon|kappa"}[mode]
    text = re.sub(rf"\n(?:{unread}) = [^\n]*", "", MINIMAL_SIMULATE)
    return text.replace("mode = simulate", f"mode = {mode}") + f"\n[{mode}]\n{entry}\n"


DECAY = study_config("decay", "gammas = -2")
INVISCID = study_config("inviscid", "upsilon_kappa = 0.1")
VERIFY = "[run]\nmode = verify\n"


def assert_config_error(tmp_path, capsys, mode, text, expected):
    """``fgle <mode>`` on ``text`` exits 2 with ``expected`` on stderr, no
    traceback, and makes no output directory."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert main([mode, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert expected in err
    assert "Traceback" not in err
    assert not out.exists()


class TestParseConfig:
    def test_minimal_simulate_accepted(self):
        cfg = parse_config(MINIMAL_SIMULATE)
        assert cfg.mode == "simulate"
        assert cfg.model.alpha == 1.8
        assert cfg.grid.M == 400
        assert cfg.grid.h == pytest.approx(0.05)
        assert cfg.time.tau == pytest.approx(0.05)
        assert cfg.solver.iter_tol == 1e-14

    def test_alpha_out_of_range_rejected(self):
        bad = MINIMAL_SIMULATE.replace("alpha = 1.8", "alpha = 0.9")
        with pytest.raises(ConfigError, match=r"alpha must lie in \(1, 2\]"):
            parse_config(bad)

    def test_unknown_key_named(self):
        bad = MINIMAL_SIMULATE.replace("alpha = 1.8", "alhpa = 1.8")
        with pytest.raises(ConfigError, match="alhpa"):
            parse_config(bad)

    def test_unknown_section_named(self):
        with pytest.raises(ConfigError, match=r"\[extras\]"):
            parse_config(MINIMAL_SIMULATE + "\n[extras]\nfoo = 1\n")

    def test_missing_section_named(self):
        head, _, tail = MINIMAL_SIMULATE.partition("[grid]")
        bad = head + "[time]" + tail.partition("[time]")[2]
        with pytest.raises(ConfigError, match="grid"):
            parse_config(bad)

    def test_syntax_error_reported(self):
        with pytest.raises(ConfigError, match="syntax"):
            parse_config("mode = simulate\n")  # key before any section header

    def test_non_numeric_value_named(self):
        bad = MINIMAL_SIMULATE.replace("upsilon = 1.0", "upsilon = fast")
        with pytest.raises(ConfigError, match="upsilon"):
            parse_config(bad)

    def test_snapshot_outside_horizon_rejected(self):
        bad = MINIMAL_SIMULATE + "\n[output]\nsnapshot_times = 2.0\n"
        with pytest.raises(ConfigError, match="snapshot"):
            parse_config(bad)

    def test_empty_verify_alphas_rejected(self):
        text = "[run]\nmode = verify\n[verify]\n"
        with pytest.raises(ConfigError, match="alphas must list at least one value"):
            parse_config(text + "alphas =\n")
        assert parse_config(text + "seed = 7\n").verify.alphas == VerifySettings.alphas

    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigError, match="mode"):
            parse_config("[run]\nmode = explode\n")

    @pytest.mark.parametrize(
        "text, prefix",
        [
            (MINIMAL_SIMULATE + "\n[solver]\nmax_iters = 2.5\n", "[solver]"),
            (MINIMAL_SIMULATE.replace("eta = 1.0", "eta = abc"), "[model]"),
        ],
        ids=("solver", "model"),
    )
    def test_section_prefix_named_once(self, text, prefix):
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert str(info.value).count(prefix) == 1

    @pytest.mark.parametrize(
        "old, new",
        [("m = 40\n", ""), ("steps = 5\n", "")],
        ids=["m", "steps"],
    )
    def test_convergence_level_zero_needs_m_and_steps(self, old, new):
        with pytest.raises(ConfigError, match="is missing required key"):
            parse_config(CONVERGENCE_EXACT.replace(old, new))

    def test_convergence_level_zero_is_the_grid_and_time(self):
        cfg = parse_config(CONVERGENCE_FINE)
        assert (cfg.grid.M, cfg.time.N) == (40, 5)
        assert cfg.convergence == cli.ConvergenceSettings(2, "fine", 0.1, 0.05)

    def test_readme_reference_names_every_key(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = re.search(r"### Configuration reference.*?```ini\n(.*?)```", readme, re.S)
        cp = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)
        cp.read_string(block.group(1))
        assert cp.sections() == list(cli._KEYS)
        for section, keys in cli._KEYS.items():
            assert list(cp[section]) == list(keys), section

    @pytest.mark.parametrize(
        "old, new, expected",
        [
            ("reference = exact", "reference = nearby",
             "[convergence] reference must be 'exact' or 'fine', got 'nearby'"),
            ("levels = 5", "levels = 0", "[convergence] levels must be an integer >= 1, got 0"),
            ("reference = exact", "reference = fine",
             "[convergence] reference = fine requires both h_ref and tau_ref"),
        ],
    )
    def test_convergence_settings_rejected(self, old, new, expected):
        with pytest.raises(ConfigError) as info:
            parse_config(CONVERGENCE_EXACT.replace(old, new))
        assert str(info.value) == expected


class TestWriteCsv:
    def test_empty_rows_is_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_csv(path, ["t", "norm_sq"], [])
        assert path.read_text() == "t,norm_sq\n"

    def test_floats_roundtrip_exactly(self, tmp_path):
        path = tmp_path / "vals.csv"
        vals = [1 / 3, 0.05, 2.3186799528877455e-05, np.float64(np.pi)]
        write_csv(path, ["v"], [(v,) for v in vals])
        lines = path.read_text().splitlines()[1:]
        for text, v in zip(lines, vals):
            assert float(text) == float(v)

    def test_none_is_empty_cell(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["a", "b"], [(1.0, None)])
        assert path.read_text().splitlines()[1] == "1,"

    @given(
        rows=st.lists(
            st.lists(
                st.one_of(
                    st.floats(allow_nan=False, allow_infinity=False),
                    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
                    st.integers(),
                    st.booleans(),
                    st.none(),
                    st.text(alphabet='ab ,"'),
                ),
                min_size=3,
                max_size=3,
            ),
            max_size=5,
        )
    )
    def test_cells_roundtrip_exactly(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("csv") / "cells.csv"
        write_csv(path, ["a", "b", "c"], rows)
        text = path.read_text()
        # one line per row after the header, and exactly one newline at the end
        assert text.endswith("\n")
        assert text.count("\n") == len(rows) + 1
        records = list(csv.reader(text.splitlines()))
        assert records[0] == ["a", "b", "c"] and len(records) == len(rows) + 1
        for record, row in zip(records[1:], rows):
            assert len(record) == 3
            for cell, v in zip(record, row):
                if v is None:
                    assert cell == ""
                elif isinstance(v, str):
                    assert cell == v
                elif isinstance(v, bool):
                    assert cell == ("1" if v else "0")
                elif isinstance(v, int):
                    assert cell == str(v)
                else:
                    back = float(cell)
                    assert back == v and math.copysign(1.0, back) == math.copysign(1.0, v)


class TestCliDispatch:
    def test_simulate_writes_artifacts(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(MINIMAL_SIMULATE + "\n[output]\nsnapshot_times = 0.5\n")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "norms.csv").exists()
        assert (out / "diagnostics.csv").exists()
        assert (out / "snapshot_t0.5.csv").exists()
        norms = (out / "norms.csv").read_text().splitlines()
        assert norms[0] == "t,norm_sq"
        assert len(norms) == 22  # header + N + 1 levels

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(MINIMAL_SIMULATE)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["simulate", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["simulate", "--config", str(cfg), "--out", str(out2)]) == 0
        assert (out1 / "norms.csv").read_bytes() == (out2 / "norms.csv").read_bytes()
        assert (out1 / "diagnostics.csv").read_bytes() == (out2 / "diagnostics.csv").read_bytes()

    def test_convergence_five_rows(self, tmp_path):
        cfg = tmp_path / "conv.cfg"
        cfg.write_text(CONVERGENCE_EXACT)
        out = tmp_path / "out"
        assert main(["convergence", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "convergence.csv").read_text().splitlines()
        assert lines[0] == "tau,h,err_l2,err_linf,order1,order2"
        assert len(lines) == 6  # header + five refinement levels
        first = lines[1].split(",")
        assert first[4] == "" and first[5] == ""  # no orders on the first row

    def test_mode_mismatch_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(MINIMAL_SIMULATE)
        assert main(["decay", "--config", str(cfg)]) == 2
        assert "mode" in capsys.readouterr().err

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(MINIMAL_SIMULATE.replace("alpha = 1.8", "alpha = 0.9"))
        assert main(["simulate", "--config", str(cfg)]) == 2
        assert "alpha" in capsys.readouterr().err

    def test_non_finite_coefficient_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(MINIMAL_SIMULATE.replace("eta = 1.0", "eta = nan"))
        assert main(["simulate", "--config", str(cfg)]) == 2
        assert "eta must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "old, new, key",
        [
            ("a = -16", "a = -inf", "[grid] a"),
            ("a = -16", "a = nan", "[grid] a"),
            ("t_final = 1.0", "t_final = inf", "[time] t_final"),
        ],
    )
    def test_non_finite_convergence_bound_exit_code(self, tmp_path, capsys, old, new, key):
        cfg = tmp_path / "conv.cfg"
        cfg.write_text(CONVERGENCE_EXACT.replace(old, new))
        assert main(["convergence", "--config", str(cfg)]) == 2
        assert f"{key} must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "mode, section", [("decay", "gammas = -2 nan"), ("inviscid", "upsilon_kappa = 0.1 nan")]
    )
    def test_non_finite_study_list_exit_code(self, tmp_path, capsys, mode, section):
        cfg = tmp_path / "study.cfg"
        cfg.write_text(study_config(mode, section))
        assert main([mode, "--config", str(cfg)]) == 2
        assert f"[{mode}] {section.split()[0]} must be finite" in capsys.readouterr().err

    def test_comma_separated_list_exit_code(self, tmp_path, capsys):
        # lists are space-separated: a comma leaves one entry that is not a number
        assert_config_error(tmp_path, capsys, "verify", VERIFY + "\n[verify]\nalphas = 1.5,2\n",
                            "[verify] alphas: expected a number, got '1.5,2'")

    def test_negative_inviscid_value_exit_code(self, tmp_path, capsys):
        # each value is upsilon, so it meets the model's own upsilon >= 0 check
        cfg = tmp_path / "inviscid.cfg"
        cfg.write_text(INVISCID.replace("upsilon_kappa = 0.1", "upsilon_kappa = 0.1 -0.1"))
        out = tmp_path / "out"
        assert main(["inviscid", "--config", str(cfg), "--out", str(out)]) == 2
        expected = "[inviscid] upsilon_kappa: upsilon must be >= 0, got -0.1"
        assert expected in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "setting, expected",
        [
            ("grid_points = 2", "[verify] grid_points must be an integer >= 3, got 2"),
            ("vectors = 0", "[verify] vectors must be an integer >= 1, got 0"),
            ("weight_length = 2", "[verify] weight_length must be an integer >= 3, got 2"),
            ("seed = -1", "[verify] seed must be an integer >= 0, got -1"),
            ("alphas = 1.5 0.5", "[verify] alphas: alpha must lie in (1, 2], got 0.5"),
        ],
    )
    def test_verify_integer_below_minimum_exit_code(self, tmp_path, capsys, setting, expected):
        cfg = tmp_path / "v.cfg"
        cfg.write_text(f"[run]\nmode = verify\n\n[verify]\n{setting}\n")
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert expected in capsys.readouterr().err

    def test_stalled_inner_iteration_exit_code(self, tmp_path, capsys):
        text = MINIMAL_SIMULATE.replace("m = 400", "m = 64").replace("steps = 20", "steps = 2")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text + "\n[solver]\nmax_iters = 1\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: step 1: no convergence within 1 iterations")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "m, attr, value, expected",
        [
            (400, "_GS_GATE_RTOL", 0.0,
             "error: Gohberg-Semencul inverse of order 399: the probe solve fails the gate; "),
            (64, "_PIVOT_FLOOR", math.inf, "error: matrix is numerically singular"),
        ],
        ids=["gate", "pivot"],
    )
    def test_singular_matrix_exit_code(
        self, tmp_path, capsys, monkeypatch, m, attr, value, expected
    ):
        monkeypatch.setattr(linalg_mod, attr, value)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(MINIMAL_SIMULATE.replace("m = 400", f"m = {m}"))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err.startswith(expected)
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "old, new",
        [("eta = 1.0", "eta = 1e308"), ("a = -10\nb = 10\nm = 400", "a = 0\nb = 1e-197\nm = 1000")],
        ids=["eta", "spacing"],
    )
    def test_overflowing_midpoint_matrix_exit_code(self, tmp_path, capsys, old, new):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(MINIMAL_SIMULATE.replace(old, new))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: midpoint matrix has entries that are not finite: "
                              "(tau/2)(upsilon + i eta) h^(-alpha) = ")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "a, b, m, shown", [(-1e308, 1e308, 10, "inf"), (0.0, 1e-320, 100000, "0.0")],
        ids=["overflows", "underflows"],
    )
    def test_grid_spacing_not_positive_and_finite_exit_code(self, tmp_path, capsys, a, b, m, shown):
        text = MINIMAL_SIMULATE.replace("a = -10\nb = 10\nm = 400", f"a = {a}\nb = {b}\nm = {m}")
        assert_config_error(tmp_path, capsys, "simulate", text,
                            f"[grid] grid spacing h must be positive and finite, got {shown}")

    def test_off_grid_snapshot_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(MINIMAL_SIMULATE + "\n[output]\nsnapshot_times = 0.33\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "[output] snapshot time 0.33 does not lie on the time grid" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "old, new, expected",
        [
            ("eta = 0.5", "eta = 1.0", "[model] eta = 0.5 at upsilon = 0.3, got 1.0"),
            ("kappa = -0.13337568346479610", "kappa = -0.13338",
             "[model] kappa = -0.13337568346479609 at upsilon = 0.3, got -0.13338"),
            ("zeta = -1.0", "zeta = 2.0", "[model] zeta = -1.0 at upsilon = 0.3, got 2.0"),
            ("alpha = 2.0", "alpha = 1.6", "[convergence] reference = exact requires alpha = 2"),
            ("initial = soliton", "initial = gaussian",
             "[convergence] reference = exact requires [model] initial = soliton"),
            ("initial = soliton", "",
             "[convergence] reference = exact requires [model] initial = soliton"),
        ],
        ids=["eta", "kappa", "zeta", "alpha", "gaussian", "initial-omitted"],
    )
    def test_exact_reference_needs_the_soliton_model(self, tmp_path, capsys, old, new, expected):
        cfg = tmp_path / "conv.cfg"
        cfg.write_text(CONVERGENCE_EXACT.replace(old, new))
        out = tmp_path / "out"
        assert main(["convergence", "--config", str(cfg), "--out", str(out)]) == 2
        assert expected in capsys.readouterr().err
        assert not out.exists()

    def test_convergence_starts_from_the_initial_key(self, tmp_path):
        csv = {}
        for initial in ("gaussian", "soliton"):
            cfg = tmp_path / f"{initial}.cfg"
            cfg.write_text(CONVERGENCE_FINE.replace("initial = soliton", f"initial = {initial}"))
            out = tmp_path / initial
            assert main(["convergence", "--config", str(cfg), "--out", str(out)]) == 0
            csv[initial] = (out / "convergence.csv").read_text()
        assert csv["gaussian"] != csv["soliton"]

    @pytest.mark.parametrize(
        "mode, text, expected",
        [
            ("simulate", MINIMAL_SIMULATE.replace("gamma = 0.0", "gamma = 40"),
             "[model] gamma: tau * gamma must be < 2, got tau = 0.05, gamma = 40, "
             "tau * gamma = 2"),
            ("decay", study_config("decay", "gammas = -2 45"),
             "[decay] gammas: tau * gamma must be < 2, got tau = 0.05, gamma = 45, "
             "tau * gamma = 2.25"),
            ("convergence", CONVERGENCE_EXACT.replace("gamma = 0.0", "gamma = 12.5"),
             "[model] gamma: tau * gamma must be < 2, got tau = 0.2, gamma = 12.5, "
             "tau * gamma = 2.5"),
        ],
        ids=["simulate", "decay", "convergence"],
    )
    def test_tau_gamma_at_least_two_exit_code(self, tmp_path, capsys, mode, text, expected):
        # a config error (exit 2) before any run starts
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        assert main([mode, "--config", str(cfg)]) == 2
        assert expected in capsys.readouterr().err

    @pytest.mark.parametrize(
        "old, new, expected",
        [
            ("h_ref = 0.1", "h_ref = 0", "[convergence] h_ref must be positive and finite, got 0.0"),
            ("h_ref = 0.1", "h_ref = -0.1",
             "[convergence] h_ref must be positive and finite, got -0.1"),
            ("h_ref = 0.1", "h_ref = nan", "[convergence] h_ref must be finite, got 'nan'"),
            ("h_ref = 0.1", "h_ref = 0.03",
             "[convergence] reference grid: 32.0 is not an integer multiple of 0.03"),
            ("h_ref = 0.1", "h_ref = 0.32",
             "[convergence] finest level grid: 0.4 is not an integer multiple of 0.32"),
            ("tau_ref = 0.05", "tau_ref = 0.04",
             "[convergence] finest level time grid: 0.1 is not an integer multiple of 0.04"),
            # a reference on the finest level's own grid was a ZeroDivisionError (exit 1)
            ("h_ref = 0.1", "h_ref = 0.4",
             "[convergence] h_ref must be at most half the finest level's 0.4"),
            ("tau_ref = 0.05", "tau_ref = 0.1",
             "[convergence] tau_ref must be at most half the finest level's 0.1"),
        ],
        ids=["h_ref-zero", "h_ref-negative", "h_ref-nan", "h_ref-off-interval",
             "h_ref-off-finest", "tau_ref-off-finest", "h_ref-not-finer", "tau_ref-not-finer"],
    )
    def test_bad_fine_reference_exit_code(self, tmp_path, capsys, old, new, expected):
        assert_config_error(
            tmp_path, capsys, "convergence", CONVERGENCE_FINE.replace(old, new), expected
        )

    @pytest.mark.parametrize("levels", (1030, 1100))
    @pytest.mark.parametrize("text", (CONVERGENCE_EXACT, CONVERGENCE_FINE), ids=("exact", "fine"))
    def test_levels_past_float_range_exit_code(self, tmp_path, capsys, text, levels):
        # the finest steps underflow; each level is checked before any run
        text = re.sub(r"levels = \d+", f"levels = {levels}", text)
        assert_config_error(tmp_path, capsys, "convergence", text, "[convergence] level ")

    def test_levels_past_physical_memory_exit_code(self, tmp_path, capsys):
        # levels = 40 at m 40: the finest grid has M = 40 * 2^39, whose
        # midpoint factor no host holds; rejected before any run
        text = CONVERGENCE_EXACT.replace("levels = 5", "levels = 40")
        with pytest.raises(
            ConfigError, match=r"^\[convergence\] level \d+ grid: M = \d+ needs a .* GiB midpoint"
        ):
            parse_config(text)
        assert_config_error(tmp_path, capsys, "convergence", text, "GiB of physical memory")

    @pytest.mark.parametrize(
        "mode, text",
        [("simulate", MINIMAL_SIMULATE), ("decay", DECAY), ("inviscid", INVISCID)],
        ids=["simulate", "decay", "inviscid"],
    )
    def test_grid_past_physical_memory_exit_code(self, tmp_path, capsys, monkeypatch, mode, text):
        # m = 4e6 needs 64 * 8e6 bytes of Gohberg-Semencul spectra, 0.477 GiB, more
        # than a 0.25 GiB host: rejected by the size rule before any output or allocation
        monkeypatch.setattr(stepper_mod, "_physical_memory", lambda: 2**28)
        text = text.replace("m = 400", "m = 4000000")
        with pytest.raises(
            ConfigError, match=r"^\[grid\] M = 4000000 needs a 0\.477 GiB midpoint factor"
        ):
            parse_config(text)
        assert_config_error(tmp_path, capsys, mode, text, "GiB of physical memory")

    @pytest.mark.parametrize(
        "mode, text",
        [("simulate", MINIMAL_SIMULATE), ("decay", DECAY), ("inviscid", INVISCID),
         ("convergence", CONVERGENCE_EXACT)],
        ids=["simulate", "decay", "inviscid", "convergence"],
    )
    def test_steps_past_physical_memory_exit_code(self, tmp_path, capsys, mode, text):
        # 10^12 steps keep 36.4 TiB of norms, times and diagnostics: rejected before any output
        text = re.sub(r"steps = \d+", "steps = 1000000000000", text.replace("m = 400", "m = 10"))
        expected = ("[time] N = 1000000000000 needs a 3.73e+04 GiB series of norms, times and "
                    "diagnostics")
        assert_config_error(tmp_path, capsys, mode, text, expected)

    def test_exact_reference_at_zero_upsilon_exit_code(self, tmp_path, capsys):
        # the soliton's coefficients report upsilon = 0 themselves
        text = re.sub(r"\nupsilon = [0-9.]+", "\nupsilon = 0.0", CONVERGENCE_EXACT)
        text = text.replace("initial = soliton", "initial = gaussian")
        expected = "[convergence] upsilon must be positive, got 0.0"
        assert_config_error(tmp_path, capsys, "convergence", text, expected)

    @pytest.mark.parametrize("key, value", [("base_tau", "0.2"), ("base_h", "0.8")])
    def test_old_base_step_keys_rejected(self, tmp_path, capsys, key, value):
        text = CONVERGENCE_EXACT.replace("levels = 5", f"{key} = {value}\nlevels = 5")
        expected = f"unknown key '{key}' in section [convergence]"
        assert_config_error(tmp_path, capsys, "convergence", text, expected)

    @pytest.mark.parametrize(
        "mode, text, expected",
        [
            ("simulate", MINIMAL_SIMULATE + "\n[decay]\ngammas = -2\n",
             "section [decay] is not read by mode = simulate"),
            ("simulate", MINIMAL_SIMULATE + "\n[verify]\nseed = 7\n",
             "section [verify] is not read by mode = simulate"),
            ("convergence", CONVERGENCE_EXACT + "\n[inviscid]\nupsilon_kappa = 0.1\n",
             "section [inviscid] is not read by mode = convergence"),
            ("convergence", CONVERGENCE_EXACT + "\n[output]\nsnapshot_times = 0.4\n",
             "[output] snapshot_times is not read by mode = convergence"),
            ("convergence", CONVERGENCE_EXACT.replace("levels = 5", "levels = 5\nh_ref = 0.1"),
             "[convergence] h_ref and tau_ref apply to reference = fine only"),
            ("decay", DECAY + "\n[output]\nsnapshot_times = 0.1\n",
             "[output] snapshot_times is not read by mode = decay"),
            ("decay", DECAY + "\n[convergence]\nlevels = 2\nreference = exact\n",
             "section [convergence] is not read by mode = decay"),
            ("inviscid", INVISCID + "\n[decay]\ngammas = -2\n",
             "section [decay] is not read by mode = inviscid"),
            ("decay", DECAY.replace("[model]", "[model]\ngamma = 1e6"),
             "[model] gamma is not read by mode = decay"),
            ("inviscid", INVISCID.replace("[model]", "[model]\nkappa = -77"),
             "[model] kappa is not read by mode = inviscid"),
            ("inviscid", INVISCID.replace("[model]", "[model]\nupsilon = 123"),
             "[model] upsilon is not read by mode = inviscid"),
            ("inviscid",
             INVISCID.replace("[model]", "[model]\nupsilon = 1\ninitial = soliton\nkappa = 1"),
             "[model] kappa is not read by mode = inviscid"),
            ("verify", VERIFY + "[solver]\nmax_iters = 5\n",
             "section [solver] is not read by mode = verify"),
            ("verify", VERIFY + "[time]\nt_final = 1\nsteps = 2\n",
             "section [time] is not read by mode = verify"),
        ],
        ids=["simulate-decay", "simulate-verify", "convergence-inviscid",
             "convergence-snapshot", "exact-h_ref", "decay-snapshot", "decay-convergence",
             "inviscid-decay", "decay-gamma", "inviscid-kappa", "inviscid-upsilon",
             "soliton-inviscid-kappa", "verify-solver", "verify-time"],
    )
    def test_unread_section_or_key_exit_code(self, tmp_path, capsys, mode, text, expected):
        assert_config_error(tmp_path, capsys, mode, text, expected)

    @pytest.mark.parametrize(
        "mode, text, expected",
        [
            ("decay", study_config("decay", "gammas = -2 -2.0000001"),
             "[decay] gammas: -2.0 and -2.0000001 both write norms_gamma-2.csv"),
            ("simulate", MINIMAL_SIMULATE + "\n[output]\nsnapshot_times = 0.5 0.5000000001\n",
             "[output] snapshot_times: 0.5 and 0.5000000001 both write snapshot_t0.5.csv"),
        ],
        ids=["gammas", "snapshot_times"],
    )
    def test_entries_writing_one_file_exit_code(self, tmp_path, capsys, mode, text, expected):
        # file names keep 6 significant digits: the later entry's file would
        # overwrite the earlier one's without a word
        assert_config_error(tmp_path, capsys, mode, text, expected)

    def test_readme_command_line_matches_the_parser(self, capsys):
        def helped(argv):
            with pytest.raises(SystemExit) as info:
                main(argv)
            assert info.value.code == 0
            return capsys.readouterr().out

        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = re.search(r"## Command line\n+```sh\n(.*?)```", readme, re.S).group(1)
        commands = [line.split() for line in block.splitlines() if line.strip()]
        subcommands = re.search(r"\{([a-z,]+)\}", helped(["--help"])).group(1).split(",")
        assert [words[:2] for words in commands] == [["fgle", c] for c in subcommands]
        for words in commands:
            flags = set(re.findall(r"--[a-z][a-z-]*", helped([words[1], "--help"])))
            assert set(re.findall(r"--[a-z][a-z-]*", " ".join(words))) == flags - {"--help"}

    def test_simulate_with_soliton_initial(self, tmp_path):
        text = MINIMAL_SIMULATE.replace("gamma = 0.0", "gamma = 0.0\ninitial = soliton").replace(
            "m = 400", "m = 200"
        )
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        first = (out / "norms.csv").read_text().splitlines()[1]
        # chirped-sech initial data on [-10, 10]: ||u0||^2 = h sum F^2 sech^2
        from fgle.experiments import sech_soliton_solution

        x = -10.0 + 0.1 * np.arange(1, 200)
        expected = 0.1 * np.sum(np.abs(sech_soliton_solution(x, 0.0, 1.0)) ** 2)
        assert float(first.split(",")[1]) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize(
        "mode, text",
        [("simulate", MINIMAL_SIMULATE), ("decay", DECAY), ("inviscid", INVISCID),
         ("convergence", CONVERGENCE_FINE)],
        ids=["simulate", "decay", "inviscid", "convergence"],
    )
    def test_soliton_start_needs_positive_upsilon(self, tmp_path, capsys, mode, text):
        # the sech profile is built from upsilon and has no form at upsilon = 0
        text = re.sub(r"\n(?:upsilon|initial) = [^\n]*", "", text)
        text = text.replace("[model]", "[model]\nupsilon = 0.0\ninitial = soliton")
        expected = "[model] initial = soliton: upsilon must be positive, got 0.0"
        with pytest.raises(ConfigError, match=re.escape(expected)):
            parse_config(text)
        assert_config_error(tmp_path, capsys, mode, text, expected)

    def test_decay_writes_per_gamma_series(self, tmp_path):
        cfg = tmp_path / "decay.cfg"
        cfg.write_text(study_config("decay", "gammas = -2 -4").replace("m = 400", "m = 200"))
        out = tmp_path / "out"
        assert main(["decay", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "norms_gamma-2.csv").exists()
        assert (out / "norms_gamma-4.csv").exists()

    def test_inviscid_writes_deviations(self, tmp_path):
        text = (
            study_config("inviscid", "upsilon_kappa = 0.1 0.01")
            .replace("zeta = 2.0", "zeta = -2.0")
            .replace("m = 400", "m = 200")
        )
        cfg = tmp_path / "inv.cfg"
        cfg.write_text(text)
        out = tmp_path / "out"
        assert main(["inviscid", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "inviscid.csv").read_text().splitlines()
        assert lines[0] == "upsilon,kappa,deviation_l2"
        devs = [float(line.split(",")[2]) for line in lines[1:]]
        assert devs[0] > devs[1] > 0


class TestVerifySuite:
    def test_settings_follow_the_suite_parameters(self):
        # run_verify passes astuple(cfg.verify) positionally: reordered settings would
        # swap weight_length and grid_points without any error
        names = [f.name for f in dataclasses.fields(VerifySettings)]
        parameters = list(inspect.signature(cli.verify_suite).parameters)
        assert [{"vectors": "n_vectors"}.get(name, name) for name in names] == parameters

    def test_verify_cli_exit_zero(self, tmp_path):
        cfg = tmp_path / "v.cfg"
        cfg.write_text("[run]\nmode = verify\n\n[verify]\ngrid_points = 32\nvectors = 4\n")
        out = tmp_path / "out"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "verify.csv").read_text().splitlines()
        assert lines[0] == "check,alpha,passed,margin,detail"
        assert all(line.split(",")[2] == "1" for line in lines[1:])

    def test_verify_csv_rows_have_five_fields(self, tmp_path):
        # at alpha 1.1 and 1.3 the coefficient_properties detail holds a comma,
        # which the CSV must quote
        cfg = tmp_path / "v.cfg"
        cfg.write_text(VERIFY)
        out = tmp_path / "out"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
        with (out / "verify.csv").open(newline="") as fh:
            records = list(csv.reader(fh))
        assert len(records) == 44 and all(len(r) == 5 for r in records)
        details = {r[1]: r[4] for r in records[1:] if r[0] == "coefficient_properties"}
        positive = "leading pair sum positive, expected below threshold alpha"
        assert [a for a, d in details.items() if d == positive] == ["1.1000000000000001", "1.3"]

    def test_verify_grid_past_physical_memory_exit_code(self, tmp_path, capsys, monkeypatch):
        # the energy-balance run at M = 400 keeps 51.2 kB of Gohberg-Semencul spectra
        monkeypatch.setattr(stepper_mod, "_physical_memory", lambda: 50_000)
        text = VERIFY + "\n[verify]\nalphas = 1.5\ngrid_points = 400\n"
        expected = ("[verify] M = 400 needs a 4.77e-05 GiB midpoint factor, "
                    "more than the 4.66e-05 GiB of physical memory")
        with pytest.raises(ConfigError, match=re.escape(expected)):
            parse_config(text)
        assert_config_error(tmp_path, capsys, "verify", text, expected)

    @pytest.mark.parametrize("alphas, shown", [("1.5 1.5", "1.5"), ("2 1.5 2.0", "2.0")])
    def test_verify_repeated_alpha_exit_code(self, tmp_path, capsys, alphas, shown):
        text = VERIFY + f"\n[verify]\nalphas = {alphas}\n"
        expected = f"[verify] alphas: {shown} is listed twice"
        assert_config_error(tmp_path, capsys, "verify", text, expected)
