"""CLI subcommands: exit codes, artifacts, determinism, manifest round-trip."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
import yaml

from graphon_hawkes import cli, operators
from graphon_hawkes.cli import main
from graphon_hawkes.prelimit import average_model

CONST_MODEL = {
    "domain": {"lower": [0.0], "upper": [1.0]},
    "baseline": {"family": "constant", "value": 1.0},
    "graphon": {"family": "constant", "value": 0.5, "c_w": 0.5, "symmetric": True},
    "excitation": {"family": "exponential", "rate": 1.0, "l1": 1.0},
    "marks": {"kind": "unmarked"},
    "lifetimes": {"family": "exponential", "rate": 1.0},
    "nonlinearity": {"family": "identity"},
    "grid_n": 128,
}


@pytest.fixture()
def model_file(tmp_path):
    path = tmp_path / "model.yaml"
    path.write_text(yaml.safe_dump(CONST_MODEL))
    return path


def read_artifacts(out: Path) -> dict[str, bytes]:
    return {
        p.name: p.read_bytes()
        for p in sorted(out.iterdir())
        if p.name != "manifest.json"
    }


def test_stability_subcommand(model_file, tmp_path, capsys):
    out = tmp_path / "o"
    rc = main(["--model", str(model_file), "--seed", "3", "--out", str(out),
               "stability", "--n", "128"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["stable"] is True
    assert abs(payload["rho_power"] - 0.5) < 1e-6
    assert abs(payload["op_norm"] - 0.5) < 1e-9
    assert abs(payload["cluster_size_bound"] - 2.0) < 1e-6


@pytest.mark.parametrize("graphon,form,grid_n", [
    ({"family": "constant", "value": 0.5}, "cells", 1),
    ({"family": "grid", "values": [[0.2, 0.4], [0.4, 0.2]], "axis_counts": [2],
      "interp": "bilinear"}, "hats", 2),
    ({"family": "rank-one", "coeff": 1.5, "profile": {"family": "identity"}}, "grid", 64),
], ids=["cells", "hats", "grid"])
def test_stability_records_its_form(tmp_path, capsys, graphon, form, grid_n):
    path = tmp_path / "model.yaml"
    path.write_text(yaml.safe_dump({**CONST_MODEL, "graphon": graphon}))
    rc = main(["--model", str(path), "--out", str(tmp_path / "o"), "stability", "--n", "64"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["form"], payload["grid_n"]) == (form, grid_n)
    assert json.loads((tmp_path / "o" / "stability.json").read_text()) == payload


def test_stability_unstable_is_still_success(model_file, tmp_path, capsys):
    cfg = dict(CONST_MODEL)
    cfg["graphon"] = {"family": "constant", "value": 1.5, "c_w": 1.5}
    path = tmp_path / "unstable.yaml"
    path.write_text(yaml.safe_dump(cfg))
    rc = main(["--model", str(path), "--out", str(tmp_path / "u"),
               "stability", "--n", "64"])
    assert rc == 0  # diagnosis is success
    assert json.loads(capsys.readouterr().out)["stable"] is False


def test_flln_on_unstable_model_exit_2(model_file, tmp_path):
    cfg = dict(CONST_MODEL)
    cfg["graphon"] = {"family": "constant", "value": 1.5, "c_w": 1.5}
    path = tmp_path / "unstable.yaml"
    path.write_text(yaml.safe_dump(cfg))
    rc = main(["--model", str(path), "--out", str(tmp_path / "f"),
               "flln", "--horizon", "5", "--reps", "2"])
    assert rc == 2


def test_malformed_config_exit_1(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump({"graphon": {"family": "no-such-family"}}))
    rc = main(["--model", str(bad), "--out", str(tmp_path / "b"),
               "stability", "--n", "32"])
    assert rc == 1


def test_invalid_model_exit_1(tmp_path):
    cfg = dict(CONST_MODEL)
    cfg["excitation"] = {"family": "exponential", "rate": 1.0, "l1": float("inf")}
    path = tmp_path / "inv.yaml"
    path.write_text(yaml.safe_dump(cfg))
    rc = main(["--model", str(path), "--out", str(tmp_path / "i"),
               "stability", "--n", "32"])
    assert rc == 1


def test_thinning_on_a_zero_sigmoid_scale_exit_1(tmp_path, capsys):
    # f(0) would be NaN: the run is refused, not written with 0 events
    cfg = {**CONST_MODEL, "nonlinearity": {"family": "sigmoid-scaled", "scale": 0.0}}
    path = tmp_path / "sig0.yaml"
    path.write_text(yaml.safe_dump(cfg))
    rc = main(["--model", str(path), "--out", str(tmp_path / "s"), "simulate",
               "--method", "thinning", "--horizon", "5"])
    assert rc == 1
    assert "sigmoid scale must be positive" in capsys.readouterr().err
    assert not (tmp_path / "s" / "summary.json").exists()


@pytest.mark.parametrize("args", [
    ("transform", "--f", "bogus", "--t", "1"),
    ("flln", "--horizon", "5", "--reps", "2", "--set", "0,0.5,1"),
    ("converge", "--d-list", "4,x"),
    ("diverge", "--t-list", "1,x"),
    ("flln", "--horizon", "5", "--reps", "2", "--set", "0,x"),
    ("transform", "--f", "const:abc", "--t", "1"),
])
def test_bad_argument_exit_1_typed(model_file, tmp_path, capsys, args):
    rc = main(["--model", str(model_file), "--out", str(tmp_path / "a"), *args])
    assert rc == 1
    assert "error[invalid-argument]" in capsys.readouterr().err


def test_simulate_deterministic_across_runs_and_threads(model_file, tmp_path):
    outs = []
    for name, threads in (("a", "1"), ("b", "1"), ("c", "8")):
        out = tmp_path / name
        rc = main(["--model", str(model_file), "--seed", "11", "--out", str(out),
                   "--threads", threads, "simulate", "--horizon", "5",
                   "--reps", "6", "--lifetimes", "on"])
        assert rc == 0
        outs.append(read_artifacts(out))
    assert outs[0] == outs[1] == outs[2]


def test_converge_deterministic_across_threads(model_file, tmp_path):
    outs = []
    for name, threads in (("a", "1"), ("b", "4")):
        out = tmp_path / name
        rc = main(["--model", str(model_file), "--seed", "5", "--out", str(out),
                   "--threads", threads, "converge", "--d-list", "2,4",
                   "--mode", "both", "--reps", "4", "--horizon", "1"])
        assert rc == 0
        outs.append(read_artifacts(out))
    assert outs[0] == outs[1]


def test_converge_averages_once_per_d(model_file, tmp_path, monkeypatch):
    # both modes share one averaged model (and its gate grids) per d
    calls = []

    def counting(spec, partition):
        calls.append(partition.d)
        return average_model(spec, partition)

    monkeypatch.setattr(cli, "average_model", counting)
    rc = main(["--model", str(model_file), "--seed", "5", "--out", str(tmp_path / "c"),
               "converge", "--d-list", "2,4,8", "--mode", "both", "--reps", "1",
               "--horizon", "1"])
    assert rc == 0
    assert calls == [2, 4, 8]


def test_converge_builds_the_continuum_gate_grid_once(model_file, tmp_path, monkeypatch):
    # every d gates the continuum model on one shared grid
    bases, gated = [], []

    def averaging(spec, partition):
        bases.append(spec)
        return average_model(spec, partition)

    gate_grid = operators.gate_grid

    def gating(spec):
        gated.append(spec)
        return gate_grid(spec)

    monkeypatch.setattr(cli, "average_model", averaging)
    monkeypatch.setattr(operators, "gate_grid", gating)
    rc = main(["--model", str(model_file), "--seed", "5", "--out", str(tmp_path / "c"),
               "converge", "--d-list", "2,4,8", "--mode", "both", "--reps", "1",
               "--horizon", "1"])
    assert rc == 0 and len(bases) == 3
    assert sum(spec is bases[0] for spec in gated) == 1
    assert len(gated) == 4  # and one grid per averaged model


def test_malformed_yaml_exit_1_typed(tmp_path, capsys):
    path = tmp_path / "broken.yaml"
    path.write_text("a: [1, 2\n")
    rc = main(["--model", str(path), "--out", str(tmp_path / "b"), "stability"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error[invalid-parameter]: config ") and "broken.yaml" in err


def test_simulate_thinning_method_and_history(model_file, tmp_path):
    out1 = tmp_path / "h1"
    rc = main(["--model", str(model_file), "--seed", "2", "--out", str(out1),
               "simulate", "--horizon", "2", "--method", "thinning"])
    assert rc == 0
    # build a history strictly before 0 and feed it back in
    hist = tmp_path / "hist.ndjson"
    hist.write_text(
        '{"id":0,"t":-0.5,"x":[0.5],"gen":0,"parent":null,"xi":1.0,"lifetime":null}\n'
    )
    out2 = tmp_path / "h2"
    rc = main(["--model", str(model_file), "--seed", "2", "--out", str(out2),
               "simulate", "--horizon", "2", "--method", "thinning",
               "--history", str(hist)])
    assert rc == 0


def test_transform_subcommand(model_file, tmp_path, capsys):
    out = tmp_path / "t"
    rc = main(["--model", str(model_file), "--seed", "4", "--out", str(out),
               "transform", "--f", "const:0.7", "--t", "2", "--oracle", "2000"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["envelope_ok"] is True
    assert 0 < payload["L_Q"] < 1
    assert payload["oracle_estimate"] is not None


def test_analyze_subcommand(model_file, tmp_path, capsys):
    out = tmp_path / "s"
    main(["--model", str(model_file), "--seed", "9", "--out", str(out),
          "simulate", "--horizon", "3", "--reps", "2"])
    out2 = tmp_path / "an"
    rc = main(["--model", str(model_file), "--out", str(out2), "analyze",
               str(out / "events_r0000.ndjson"), str(out / "events_r0001.ndjson"),
               "--matching", "time-tolerance", "--eps", "0.01"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["total"] >= 0


def test_analyze_non_object_line_exit_1_typed(model_file, tmp_path, capsys):
    events = tmp_path / "events.ndjson"
    events.write_text(
        '{"id":0,"t":0.5,"x":[0.5],"gen":0,"parent":null,"xi":1.0,"lifetime":null}\n[1,2]\n')
    rc = main(["--model", str(model_file), "--out", str(tmp_path / "an"), "analyze",
               str(events), str(events)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error[invalid-argument]: ") and "Traceback" not in err


def test_manifest_round_trip(model_file, tmp_path):
    out = tmp_path / "m1"
    rc = main(["--model", str(model_file), "--seed", "21", "--out", str(out),
               "simulate", "--horizon", "4", "--reps", "3"])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    # the manifest's config + seed suffice to re-run the experiment exactly
    clone_model = tmp_path / "clone.yaml"
    clone_model.write_text(yaml.safe_dump(manifest["config"]))
    out2 = tmp_path / "m2"
    rc = main(["--model", str(clone_model), "--seed", str(manifest["seed"]),
               "--out", str(out2), "simulate",
               "--horizon", str(manifest["options"]["horizon"]),
               "--reps", str(manifest["options"]["reps"])])
    assert rc == 0
    assert read_artifacts(out) == read_artifacts(out2)
    m2 = json.loads((out2 / "manifest.json").read_text())
    m1 = dict(manifest)
    m1.pop("wall_time_s"), m2.pop("wall_time_s")
    assert m1 == m2


def test_seed_env_override(model_file, tmp_path, monkeypatch):
    out1, out2 = tmp_path / "e1", tmp_path / "e2"
    monkeypatch.setenv("GRAPHON_HAWKES_SEED", "77")
    main(["--model", str(model_file), "--out", str(out1), "simulate",
          "--horizon", "3", "--reps", "1"])
    monkeypatch.delenv("GRAPHON_HAWKES_SEED")
    main(["--model", str(model_file), "--seed", "77", "--out", str(out2),
          "simulate", "--horizon", "3", "--reps", "1"])
    assert read_artifacts(out1) == read_artifacts(out2)


def test_fclt_zero_measure_box_writes_strict_json(model_file, tmp_path):
    # sigma_A = 0 on a box of zero measure: the test is skipped, not NaN
    out = tmp_path / "z"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["--model", str(model_file), "--out", str(out), "fclt",
                   "--reps", "8", "--horizon", "20", "--set", "0.3,0.3"])
    assert rc == 0 and caught == []

    def refuse(name):
        raise ValueError(f"non-finite number {name} in summary.json")

    report = json.loads((out / "summary.json").read_text(), parse_constant=refuse)
    assert report["passed"] is None and report["summary"]["sigma_A"] == 0.0
    assert not any(k.startswith("ks_") for k in report["summary"])


def test_fclt_imports_no_scipy_stats_or_special(model_file, tmp_path):
    # the tests import scipy themselves, so the CLI runs in a fresh interpreter
    code = (
        "import sys\n"
        "from graphon_hawkes.cli import main\n"
        f"rc = main(['--model', {str(model_file)!r}, '--out', {str(tmp_path / 'f')!r},\n"
        "           'fclt', '--reps', '8', '--horizon', '20'])\n"
        "print(rc, sorted(m for m in ('scipy', 'scipy.stats', 'scipy.special')\n"
        "                 if m in sys.modules))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert run.stdout.splitlines()[-1] == "0 []"
    assert json.loads((tmp_path / "f" / "summary.json").read_text())["passed"] is not None
