"""Command-line surface: flags, config files, outputs, exit codes."""

import inspect
import json

import pytest

from cyberevo import (
    AbmConfig,
    FineScenario,
    SamplerConfig,
    cli,
    phaseplot,
    run_ensemble,
)
from cyberevo.config import load_run_config

REF_FLAGS = [
    "--w", "0.98", "--ca", "0.51", "--cd", "0.20",
    "--ba", "0.90", "--bd", "0.79", "--v", "0.26",
]


def _stdout_json(capsys):
    text = capsys.readouterr().out
    assert text.startswith("### ")
    return json.loads(text.split("\n", 1)[1])


def test_version_flag(capsys):
    assert cli.main(["--version"]) == 0
    assert "cyberevo" in capsys.readouterr().out


def test_missing_subcommand_is_usage_error(capsys):
    assert cli.main([]) == 2


def test_unknown_flag_is_usage_error(capsys):
    assert cli.main(["analyze", "--nope", "1"]) == 2


GAME_FLAGS = REF_FLAGS[::2]

#: (subcommand, flag) pairs where the flag would be ignored by the handler.
IGNORED_FLAGS = [
    *((command, flag) for command in ("analyze", "phase") for flag in ("--count", "--seed")),
    ("abm", "--count"),
    *((command, flag) for command in ("ensemble", "fines") for flag in GAME_FLAGS),
]


@pytest.mark.parametrize("command, flag", IGNORED_FLAGS)
def test_subcommand_rejects_flags_it_ignores(capsys, command, flag):
    # An ignored flag would change nothing but the recorded provenance.  For
    # ensemble and fines, --w must not be read as an abbreviated --workers.
    valid = ["--count", "10"] if command in ("ensemble", "fines") else REF_FLAGS
    assert cli.main([command, *valid, flag, "2"]) == 2
    assert f"unrecognized arguments: {flag} 2" in capsys.readouterr().err


def test_analyze_json_report(capsys):
    assert cli.main(["analyze", *REF_FLAGS]) == 0
    doc = _stdout_json(capsys)
    result = doc["result"]
    assert result["stable_set"] == ["E4"]
    assert result["interior"] is None
    welfare = result["welfare"]
    assert welfare["Defence,NoAttack"] == pytest.approx(0.59)
    assert welfare["Defence,Attack"] == pytest.approx(-0.5638)
    kinds = [entry["kind"] for entry in result["equilibria"]]
    assert kinds == ["E1", "E2", "E3", "E4"]
    assert doc["provenance"]["command"] == "analyze"
    assert doc["provenance"]["config"]["game"]["v"] == 0.26


def test_analyze_csv_report(capsys):
    assert cli.main(["analyze", *REF_FLAGS, "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert "### equilibria.csv" in out
    assert "E4,1.000000,1.000000,Stable" in out
    assert '"Defence,NoAttack",0.590000' in out


def test_analyze_missing_params(capsys):
    assert cli.main(["analyze", "--w", "0.9"]) == 2
    err = capsys.readouterr().err
    assert "missing required game parameter" in err
    assert "game.ca" in err


def test_analyze_constraint_violation_names_it(capsys):
    flags = ["--w", "0.5", "--ca", "0.6", "--cd", "0.2",
             "--ba", "0.9", "--bd", "0.4", "--v", "0.5"]
    assert cli.main(["analyze", *flags]) == 3
    assert "c_a < w" in capsys.readouterr().err


def test_analyze_interior_point_reported(capsys):
    flags = ["--w", "0.98", "--ca", "0.69", "--cd", "0.54",
             "--ba", "0.79", "--bd", "0.72", "--v", "0.15"]
    assert cli.main(["analyze", *flags]) == 0
    result = _stdout_json(capsys)["result"]
    assert result["stable_set"] == ["E2", "E3"]
    assert result["interior"]["beta"] == pytest.approx(0.843882, abs=1e-6)
    e5 = result["equilibria"][-1]
    assert e5["kind"] == "E5"
    assert abs(e5["eigen"]["lambda1"]["re"]) == pytest.approx(0.041501, abs=1e-5)


def test_config_file_with_flag_override(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "game": {"w": 0.98, "ca": 0.51, "cd": 0.20,
                 "ba": 0.90, "bd": 0.79, "v": 0.5},
    }))
    assert cli.main(["analyze", "--config", str(config)]) == 0
    assert _stdout_json(capsys)["result"]["stable_set"] == ["E3"]
    assert cli.main(["analyze", "--config", str(config), "--v", "0.26"]) == 0
    assert _stdout_json(capsys)["result"]["stable_set"] == ["E4"]


def test_config_file_errors(tmp_path, capsys):
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{nope")
    assert cli.main(["analyze", "--config", str(bad_json)]) == 2
    assert "not valid JSON" in capsys.readouterr().err

    unknown_section = tmp_path / "sec.json"
    unknown_section.write_text(json.dumps({"bogus": {}}))
    assert cli.main(["analyze", "--config", str(unknown_section)]) == 2
    assert "unknown config section: bogus" in capsys.readouterr().err

    unknown_key = tmp_path / "key.json"
    unknown_key.write_text(json.dumps({"ensemble": {"coutn": 2}}))
    assert cli.main(["analyze", "--config", str(unknown_key)]) == 2
    assert "unknown config key: ensemble.coutn" in capsys.readouterr().err

    # The integrator's settings are constants, not configuration.
    dynamics = tmp_path / "dynamics.json"
    dynamics.write_text(json.dumps({"dynamics": {"step": 0.5}}))
    assert cli.main(["phase", *REF_FLAGS, "--config", str(dynamics)]) == 2
    assert "unknown config section: dynamics" in capsys.readouterr().err

    bad_type = tmp_path / "type.json"
    bad_type.write_text(json.dumps({"ensemble": {"count": "many"}}))
    assert cli.main(["analyze", "--config", str(bad_type)]) == 2
    assert "ensemble.count" in capsys.readouterr().err

    # A start coordinate must be a number, and a bool is not one.
    for start in (["a", 0.5], [True, 0.5]):
        bad_start = tmp_path / "start.json"
        bad_start.write_text(json.dumps({"phase": {"starts": [start]}}))
        assert cli.main(["phase", *REF_FLAGS, "--config", str(bad_start)]) == 2
        err = capsys.readouterr().err
        assert "phase.starts must be a list of [beta, alpha] numbers" in err

    # One file per remaining shape check; each is refused before any run.
    shapes = "must be a list of [beta, alpha] numbers"
    for content, message in (
        ({"output": {"format": 3}}, "output.format must be a string"),
        ({"fines": {"levels": []}}, "fines.levels must be a non-empty list"),
        ({"fines": {"levels": 0.1}}, "fines.levels must be a non-empty list"),
        ({"phase": {"starts": 0.5}}, f"phase.starts {shapes}"),
        ({"phase": {"starts": [[0.1, 0.2, 0.3]]}}, f"phase.starts {shapes}"),
        ({"phase": {"starts": [0.5]}}, f"phase.starts {shapes}"),
        ({"ensemble": {"count": 2.5}}, "ensemble.count must be an integer"),
        # An int beyond float range, for an int key and a float key.
        ({"ensemble": {"count": 10**400}}, "ensemble.count must be finite"),
        ({"game": {"w": 10**400}}, "game.w must be finite"),
        ([{"ensemble": {"count": 2}}], "must contain a JSON object"),
        ({"ensemble": [2]}, "config section ensemble must be an object"),
    ):
        bad = tmp_path / "shape.json"
        bad.write_text(json.dumps(content))
        assert cli.main(["analyze", "--config", str(bad)]) == 2
        assert message in capsys.readouterr().err


@pytest.mark.parametrize("flag, key", [("--count", "ensemble.count"),
                                       ("--seed", "ensemble.master_seed")])
def test_integer_flag_beyond_float_range_is_a_config_error(capsys, flag, key):
    # float() of such an int raised OverflowError, a traceback and exit 1.
    assert cli.main(["ensemble", flag, "1" + "0" * 400]) == 2
    assert f"{key} must be finite" in capsys.readouterr().err


EXPECTED_ENSEMBLE_FILES = [
    "ensemble_summary.json",
    "fig6_counts.csv",
    "fig6_correlation.csv",
    "fig7_ratios.csv",
    "fig8_vcurves.csv",
    "fig9_costs.csv",
    "fig12_v_w.csv",
    "fig14_benefits.csv",
    "fig17_welfare.csv",
    "fig18_welfare_params.csv",
]


def test_ensemble_writes_expected_files(tmp_path, capsys):
    out = tmp_path / "run"
    assert cli.main(["ensemble", "--count", "300", "--seed", "1",
                     "--out", str(out)]) == 0
    for name in EXPECTED_ENSEMBLE_FILES:
        assert (out / name).is_file(), name
    summary = json.loads((out / "ensemble_summary.json").read_text())
    assert summary["result"]["config"]["count"] == 300
    counts = (out / "fig6_counts.csv").read_text().splitlines()
    assert counts[3] == "stable_count,games"
    assert counts[4].startswith("0,")


def test_ensemble_reruns_byte_identical(tmp_path, capsys):
    first, second = tmp_path / "a", tmp_path / "b"
    assert cli.main(["ensemble", "--count", "300", "--out", str(first)]) == 0
    assert cli.main(["ensemble", "--count", "300", "--out", str(second),
                     "--workers", "2"]) == 0
    for name in EXPECTED_ENSEMBLE_FILES:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


def test_ensemble_seed_changes_results(tmp_path, capsys):
    one, two = tmp_path / "s1", tmp_path / "s2"
    assert cli.main(["ensemble", "--count", "300", "--seed", "1",
                     "--out", str(one)]) == 0
    assert cli.main(["ensemble", "--count", "300", "--seed", "2",
                     "--out", str(two)]) == 0
    digest = [
        json.loads((d / "ensemble_summary.json").read_text())["result"]["records_digest"]
        for d in (one, two)
    ]
    assert digest[0] != digest[1]


def test_ensemble_rejects_bad_count(capsys):
    assert cli.main(["ensemble", "--count", "0"]) == 2
    assert "count" in capsys.readouterr().err


def test_out_path_under_file_fails_before_compute(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("x")
    out = blocker / "sub"
    # A huge count would take minutes; failing fast proves the write probe
    # runs before any sampling.
    assert cli.main(["ensemble", "--count", "100000000", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_ensemble_refuses_a_ceiling_too_high_to_bin(tmp_path, capsys):
    # This ran into an OverflowError traceback (exit 1) after sampling.
    config = tmp_path / "huge.json"
    config.write_text(json.dumps({"ensemble": {"b_a_upper": 1e308}}))
    out = tmp_path / "out"
    argv = ["ensemble", "--count", "100", "--config", str(config), "--out", str(out)]
    assert cli.main(argv) == 2
    assert "b_a_upper + f_s + f_u" in capsys.readouterr().err
    assert not out.exists()


def test_phase_svg_stdout(capsys):
    assert cli.main(["phase", *REF_FLAGS]) == 0
    out = capsys.readouterr().out
    assert out.startswith("### phase.svg")
    assert "<svg" in out and "</svg>" in out


def test_phase_writes_bundle(tmp_path, capsys):
    out = tmp_path / "phase"
    assert cli.main(["phase", *REF_FLAGS, "--start", "0.05,0.95",
                     "--resolution", "9", "--out", str(out)]) == 0
    for name in ("phase.svg", "phase_field.csv", "phase_markers.csv",
                 "phase_trajectories.csv", "phase_report.json"):
        assert (out / name).is_file(), name
    markers = (out / "phase_markers.csv").read_text()
    assert "E4,1.000000,1.000000,Stable" in markers
    field_lines = (out / "phase_field.csv").read_text().splitlines()
    assert len(field_lines) == 3 + 1 + 81  # provenance, header, 9x9 lattice
    trajectories = (out / "phase_trajectories.csv").read_text().splitlines()
    assert trajectories[4].startswith("0,0.000000,0.050000,0.950000")


def test_phase_integrates_each_start_once(monkeypatch, capsys):
    # Patch every module that could integrate a start, so a second pass over
    # the same starts anywhere in the command would be counted.
    real = phaseplot.integrate
    calls = []

    def counting(params, start, **kwargs):
        calls.append((start.beta, start.alpha))
        return real(params, start, **kwargs)

    for module in (cli, phaseplot):
        monkeypatch.setattr(module, "integrate", counting, raising=False)
    flags = ["--start", "0.05,0.95", "--start", "0.95,0.05", "--start", "0.3,0.3"]
    assert cli.main(["phase", *REF_FLAGS, *flags, "--format", "csv"]) == 0
    assert "phase_trajectories.csv" in capsys.readouterr().out
    assert calls == [(0.05, 0.95), (0.95, 0.05), (0.3, 0.3)]


def test_phase_rejects_tiny_resolution(capsys):
    assert cli.main(["phase", *REF_FLAGS, "--resolution", "1"]) == 2
    assert "resolution" in capsys.readouterr().err


@pytest.mark.parametrize("starts", [[], ["--start", "0.05,0.95"]])
def test_phase_rejects_a_horizon_below_the_step(tmp_path, capsys, starts):
    # Checked before any work, whether or not a trajectory is integrated.
    out = tmp_path / "phase"
    args = ["phase", *REF_FLAGS, *starts, "--horizon", "-5", "--out", str(out)]
    assert cli.main(args) == 3
    assert "horizon >= step" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_phase_rejects_malformed_start(capsys):
    assert cli.main(["phase", *REF_FLAGS, "--start", "0.5"]) == 2
    assert "--start" in capsys.readouterr().err


def test_abm_json_and_determinism(tmp_path, capsys):
    args = ["abm", *REF_FLAGS, "--population", "100", "--steps", "20000",
            "--burn-in", "5000", "--seed", "9"]
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert cli.main([*args, "--out", str(out1)]) == 0
    assert cli.main([*args, "--out", str(out2)]) == 0
    for name in ("abm_result.json", "abm_means.csv", "abm_trajectory.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
    doc = json.loads((out1 / "abm_result.json").read_text())
    assert 0.8 <= doc["result"]["mean_beta"] <= 1.0
    assert 0 < doc["result"]["events"] <= 20000
    assert doc["provenance"]["config"]["abm"]["seed"] == 9


def test_abm_rejects_burn_in_not_below_steps(capsys):
    assert cli.main(["abm", *REF_FLAGS, "--steps", "100",
                     "--burn-in", "100"]) == 2
    assert "burn_in" in capsys.readouterr().err


def test_fines_tables_named_by_level(tmp_path, capsys):
    out = tmp_path / "fines"
    assert cli.main(["fines", "--count", "200", "--levels", "0.1,0.5,0.25",
                     "--out", str(out)]) == 0
    for name in ("fig15_fines_0p1.csv", "fig16_fines_0p5.csv",
                 "fines_0p25.csv", "fines_summary.json"):
        assert (out / name).is_file(), name
    doc = json.loads((out / "fines_summary.json").read_text())
    assert set(doc["result"]) == {"0.1", "0.5", "0.25"}
    assert doc["result"]["0.5"]["kind_counts"]["E1"] == 0


def test_a_negative_zero_fine_level_is_level_zero(tmp_path, capsys):
    # -0 names the same games as 0: the same table, key and digest.  The
    # provenance keeps the level as it was given.
    docs = {}
    for level in ("-0", "0"):
        out = tmp_path / level
        assert cli.main(["fines", "--count", "50", "--levels", level,
                         "--out", str(out)]) == 0
        assert (out / "fines_0.csv").is_file()
        docs[level] = json.loads((out / "fines_summary.json").read_text())
        assert set(docs[level]["result"]) == {"0"}
    assert docs["-0"]["result"] == docs["0"]["result"]
    assert str(docs["-0"]["provenance"]["config"]["fines"]["levels"]) == "[-0.0]"
    digests = []
    for fines in ([], ["--fu", "-0", "--fs", "-0"]):
        out = tmp_path / f"ensemble{len(fines)}"
        assert cli.main(["ensemble", "--count", "50", *fines, "--out", str(out)]) == 0
        doc = json.loads((out / "ensemble_summary.json").read_text())
        digests.append(doc["result"]["records_digest"])
    assert digests[0] == digests[1]


def test_fines_honours_b_a_upper(tmp_path, capsys):
    config = tmp_path / "wide.json"
    config.write_text(json.dumps({"ensemble": {"b_a_upper": 2.0}}))
    args = ["fines", "--count", "200", "--seed", "3", "--levels", "0.1",
            "--format", "json"]
    assert cli.main(args) == 0
    default = _stdout_json(capsys)["result"]["0.1"]["records_digest"]
    assert cli.main([*args, "--config", str(config)]) == 0
    wide = _stdout_json(capsys)["result"]["0.1"]["records_digest"]
    _, summary = run_ensemble(SamplerConfig(
        count=200, master_seed=3, b_a_upper=2.0,
        scenario=FineScenario(0.1, 0.1),
    ))
    assert wide != default
    assert wide == summary.records_digest


@pytest.mark.parametrize("flag", ["--fu", "--fs"])
def test_fines_rejects_fixed_fines(tmp_path, capsys, flag):
    # fines takes both fines from --levels; a --fu/--fs would be ignored.
    assert cli.main(["fines", "--count", "200", "--levels", "0.1",
                     flag, "0.3"]) == 2
    assert flag in capsys.readouterr().err
    config = tmp_path / "fined.json"
    config.write_text(json.dumps({"game": {flag[2:]: 0.3}}))
    assert cli.main(["fines", "--count", "200", "--levels", "0.1",
                     "--config", str(config)]) == 2
    assert flag in capsys.readouterr().err


def test_seed_beyond_float_precision_is_an_integer(tmp_path):
    # 2**53 + 1 has no exact float, but it is an integer seed.
    out = tmp_path / "e"
    assert cli.main(["ensemble", "--count", "10", "--seed", str(2**53 + 1),
                     "--out", str(out)]) == 0
    doc = json.loads((out / "ensemble_summary.json").read_text())
    assert doc["provenance"]["config"]["ensemble"]["master_seed"] == 2**53 + 1


def test_fines_rejects_bad_levels(tmp_path, capsys):
    assert cli.main(["fines", "--count", "10", "--levels", "0.1,x"]) == 2
    assert "--levels" in capsys.readouterr().err
    for level in ("inf", "nan"):
        assert cli.main(["fines", "--count", "10", "--levels", f"0.1,{level}"]) == 2
        assert "fines.levels must be finite" in capsys.readouterr().err
    config = tmp_path / "levels.json"
    config.write_text('{"fines": {"levels": [0.1, Infinity]}}')
    assert cli.main(["fines", "--count", "10", "--config", str(config)]) == 2
    assert "fines.levels must be finite" in capsys.readouterr().err
    assert cli.main(["fines", "--count", "10", "--levels", "0.1,0.10"]) == 2
    assert "fine level 0.1 is repeated" in capsys.readouterr().err


def test_fines_refuses_levels_that_render_alike(tmp_path, capsys):
    # Both levels would write fines_0p123457.csv and the summary key
    # "0.123457", so one level's results would be lost.
    out = tmp_path / "D"
    assert cli.main(["fines", "--count", "50", "--levels", "0.1234567,0.12345671",
                     "--out", str(out)]) == 2
    assert "both render as 0.123457" in capsys.readouterr().err
    assert not out.exists()


def test_integration_failure_maps_to_compute_exit_code(tmp_path, monkeypatch, capsys):
    from cyberevo.errors import IntegrationError

    def boom(runcfg, bundle):
        raise IntegrationError("non-finite state at step 3")

    monkeypatch.setattr(cli, "cmd_analyze", boom)
    assert cli.main(["analyze", *REF_FLAGS]) == 4
    assert "non-finite state at step 3" in capsys.readouterr().err
    assert cli.main(["analyze", *REF_FLAGS, "--out", str(tmp_path / "D")]) == 4
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, code", [
    (["ensemble", "--count", "0"], 2),
    (["analyze", *REF_FLAGS, "--w", "2"], 3),
    (["phase", *REF_FLAGS, "--resolution", "1"], 2),
], ids=["ensemble-count-0", "analyze-w-2", "phase-resolution-1"])
def test_failed_run_leaves_nothing_at_out(tmp_path, capsys, argv, code):
    assert cli.main([*argv, "--out", str(tmp_path / "D" / "x")]) == code
    assert capsys.readouterr().err.startswith("error:")
    assert list(tmp_path.iterdir()) == []


def test_provenance_has_no_timestamp_and_omits_runtime_plumbing(tmp_path):
    out = tmp_path / "p"
    cli.main(["ensemble", "--count", "100", "--out", str(out), "--workers", "2"])
    header = (out / "fig7_ratios.csv").read_text().splitlines()[:3]
    joined = "\n".join(header)
    assert "workers" not in joined
    assert str(out) not in joined
    doc = json.loads((out / "ensemble_summary.json").read_text())
    assert "output" not in doc["provenance"]["config"]
    assert "workers" not in doc["provenance"]["config"]["ensemble"]


def test_config_defaults_are_the_dataclass_defaults():
    runcfg = load_run_config()
    assert runcfg.abm_config() == AbmConfig()
    sampler, default = runcfg.sampler_config(), SamplerConfig(count=100000)
    assert sampler.master_seed == default.master_seed
    assert sampler.b_a_upper == default.b_a_upper
    portrait = inspect.signature(phaseplot.phase_portrait).parameters
    for key in ("resolution", "trajectory_horizon"):
        assert runcfg.get("phase", key) == portrait[key].default


GAME_KEYS = {"w", "ca", "cd", "ba", "bd", "v", "fu", "fs"}
SAMPLER_KEYS = {"count", "master_seed", "b_a_upper"}

#: argv, and the config keys by section its provenance records: exactly the
#: values the subcommand reads.
PROVENANCE = {
    "analyze": (REF_FLAGS, {"game": GAME_KEYS}),
    "phase": ([*REF_FLAGS, "--resolution", "3", "--format", "json"], {
        "game": GAME_KEYS, "phase": {"resolution", "starts", "trajectory_horizon"},
    }),
    "abm": ([*REF_FLAGS, "--population", "100", "--steps", "2000",
             "--burn-in", "500", "--seed", "4"], {
        "game": GAME_KEYS,
        "abm": {"population_size", "selection_strength", "mutation_rate", "steps",
                "burn_in", "seed", "initial_beta", "initial_alpha"},
    }),
    "ensemble": (["--count", "50", "--seed", "4", "--format", "json"], {
        "game": {"fu", "fs"}, "ensemble": SAMPLER_KEYS,
    }),
    "fines": (["--count", "50", "--seed", "4", "--format", "json"], {
        "ensemble": SAMPLER_KEYS, "fines": {"levels"},
    }),
}


@pytest.mark.parametrize("command", PROVENANCE)
def test_provenance_records_only_what_the_subcommand_reads(capsys, command):
    argv, reads = PROVENANCE[command]
    assert cli.main([command, *argv]) == 0
    provenance = _stdout_json(capsys)["provenance"]
    assert provenance["command"] == command
    config = provenance["config"]
    assert {section: set(keys) for section, keys in config.items()} == reads
    # --seed sets the seed of the subcommand's own run and nothing else.
    if command == "abm":
        assert config["abm"]["seed"] == 4
    elif command in ("ensemble", "fines"):
        assert config["ensemble"]["master_seed"] == 4


def test_ensemble_artifacts_ignore_config_it_does_not_read(tmp_path, capsys):
    config = tmp_path / "unread.json"
    config.write_text(json.dumps({
        "abm": {"seed": 7}, "phase": {"resolution": 5}, "game": {"w": 0.5},
    }))
    plain, configured = tmp_path / "plain", tmp_path / "configured"
    assert cli.main(["ensemble", "--count", "200", "--out", str(plain)]) == 0
    assert cli.main(["ensemble", "--count", "200", "--config", str(config),
                     "--out", str(configured)]) == 0
    names = sorted(path.name for path in plain.iterdir())
    assert names == sorted(path.name for path in configured.iterdir())
    for name in names:
        assert (plain / name).read_bytes() == (configured / name).read_bytes(), name


#: Quick argv for each subcommand.
RUNS = {
    "analyze": REF_FLAGS,
    "ensemble": ["--count", "50"],
    "phase": [*REF_FLAGS, "--resolution", "3"],
    "abm": [*REF_FLAGS, "--population", "100", "--steps", "2000", "--burn-in", "500"],
    "fines": ["--count", "50"],
}


@pytest.mark.parametrize("command", RUNS)
def test_out_writes_each_declared_format(tmp_path, capsys, command):
    out = tmp_path / "out"
    assert cli.main([command, *RUNS[command], "--out", str(out)]) == 0
    suffixes = {path.suffix[1:] for path in out.iterdir()}
    assert suffixes == set(cli._COMMANDS[command].formats)


#: Each subcommand with a format it has no artifacts in; ensemble at a count
#: that would take seconds to compute.
REFUSED = [
    (command, fmt) for command in RUNS for fmt in ("json", "csv", "svg", "xml")
    if fmt not in cli._COMMANDS[command].formats
]


@pytest.mark.parametrize("command, fmt", REFUSED)
def test_missing_format_is_refused_before_any_work(tmp_path, monkeypatch, capsys,
                                                   command, fmt):
    def forbidden(*args, **kwargs):
        raise AssertionError("computed before the format was refused")

    for entry in ("run_ensemble", "fines_study", "simulate", "phase_portrait",
                  "analyze_equilibria"):
        monkeypatch.setattr(cli, entry, forbidden)
    argv = ["--count", "100000", "--workers", "2"] if command == "ensemble" \
        else RUNS[command]
    config = tmp_path / "format.json"
    config.write_text(json.dumps({"output": {"format": fmt}}))
    for source in (["--format", fmt], ["--config", str(config)]):
        assert cli.main([command, *argv, *source]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {command} has no {fmt} output" in captured.err
