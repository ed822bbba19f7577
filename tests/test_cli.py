"""CLI subcommands: exit codes, artifacts, determinism, manifest round-trip."""

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
import yaml

from graphon_hawkes import cli, operators
from graphon_hawkes.cli import main
from graphon_hawkes.prelimit import average_models

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


# a key, family or value that the schema does not admit, in each section
REFUSED_CONFIGS = {
    "top-key": ({"gird_n": 64}, "config: unknown key 'gird_n'"),
    "domain-key": ({"domain": {"lower": [0.0], "uper": [1.0]}},
                   "config.domain: unknown key 'uper'"),
    "baseline-key": ({"baseline": {"family": "constant", "vaule": 1.0}},
                     "config.baseline: unknown key 'vaule'"),
    "baseline-family": ({"baseline": {"family": "constnat"}},
                        "config.baseline: unknown family 'constnat'"),
    "graphon-key": ({"graphon": {"family": "constant", "vaule": 0.9}},
                    "config.graphon: unknown key 'vaule'"),
    "graphon-family": ({"graphon": {"family": "rank-1"}},
                       "config.graphon: unknown family 'rank-1'"),
    "profile-key": ({"graphon": {"family": "rank-one", "profile": {"family": "identity",
                                                                   "slope": [1.0]}}},
                    "config.graphon.profile: unknown key 'slope'"),
    "profile-family": ({"graphon": {"family": "rank-one", "profile": {"family": "linear"}}},
                       "config.graphon.profile: unknown family 'linear'"),
    "excitation-key": ({"excitation": {"family": "exponential", "rte": 5.0}},
                       "config.excitation: unknown key 'rte'"),
    "excitation-family": ({"excitation": {"family": "exponentail"}},
                          "config.excitation: unknown family 'exponentail'"),
    "marks-key": ({"marks": {"kind": "scaled-profile", "xii": {}}},
                  "config.marks: unknown key 'xii'"),
    "marks-kind": ({"marks": {"kind": "unmarkd"}}, "config.marks: unknown kind 'unmarkd'"),
    "marks-profile-key": ({"marks": {"kind": "scaled-profile",
                                     "profile": {"family": "constant", "vlaue": 2.0}}},
                          "config.marks.profile: unknown key 'vlaue'"),
    "marks-profile-family": ({"marks": {"kind": "scaled-profile", "profile": {"family": "grdi"}}},
                             "config.marks.profile: unknown family 'grdi'"),
    "xi-key": ({"marks": {"kind": "scaled-profile", "xi": {"family": "gamma", "shap": 2.0}}},
               "config.marks.xi: unknown key 'shap'"),
    "xi-family": ({"marks": {"kind": "scaled-profile", "xi": {"family": "gama"}}},
                  "config.marks.xi: unknown family 'gama'"),
    "lifetimes-key": ({"lifetimes": {"family": "exponential", "rtae": 2.0}},
                      "config.lifetimes: unknown key 'rtae'"),
    "lifetimes-family": ({"lifetimes": {"family": "determinstic", "tau": 2.0}},
                         "config.lifetimes: unknown family 'determinstic'"),
    "nonlinearity-key": ({"nonlinearity": {"family": "identity", "lipschitz_": 1.0}},
                         "config.nonlinearity: unknown key 'lipschitz_'"),
    "nonlinearity-family": ({"nonlinearity": {"family": "clipped"}},
                            "config.nonlinearity: unknown family 'clipped'"),
    # keys that were read and then ignored
    "table-l1": ({"excitation": {"family": "table", "breaks": [0.0, 1.0], "values": [0.5],
                                 "l1": 2.0}}, "config.excitation: unknown key 'l1'"),
    "exponential-tau": ({"lifetimes": {"family": "exponential", "tau": 2.0}},
                        "config.lifetimes: unknown key 'tau'"),
    "deterministic-rate": ({"lifetimes": {"family": "deterministic", "rate": 2.0}},
                           "config.lifetimes: unknown key 'rate'"),
    "identity-cap": ({"nonlinearity": {"family": "identity", "cap": 3.0}},
                     "config.nonlinearity: unknown key 'cap'"),
    "clipped-scale": ({"nonlinearity": {"family": "clipped-linear", "scale": 3.0}},
                      "config.nonlinearity: unknown key 'scale'"),
    "unmarked-xi": ({"marks": {"kind": "unmarked", "xi": {"family": "gamma"}}},
                    "config.marks: unknown key 'xi'"),
    # a section that is no mapping, a missing key, a value of another type
    "not-a-mapping": ({"lifetimes": "exponential"},
                      "config.lifetimes: expected a mapping, got 'exponential'"),
    "missing-key": ({"domain": {"lower": [0.0]}}, "config.domain: missing key 'upper'"),
    "fractional-int": ({"grid_n": 12.7}, "config.grid_n: expected an integer, got 12.7"),
    "string-bool": ({"graphon": {"family": "constant", "value": 0.5, "symmetric": "no"}},
                    "config.graphon.symmetric: expected true or false, got 'no'"),
}


@pytest.mark.parametrize("name", sorted(REFUSED_CONFIGS))
def test_a_config_the_schema_does_not_admit_exit_1(tmp_path, capsys, name):
    change, message = REFUSED_CONFIGS[name]
    path = tmp_path / "model.yaml"
    path.write_text(yaml.safe_dump({**CONST_MODEL, **change}))
    rc = main(["--model", str(path), "--out", str(tmp_path / "o"), "stability", "--n", "32"])
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"error[invalid-parameter]: {message}")


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
    # both modes share one averaged model (and its gate grids) per d, from
    # one averaging call
    calls = []

    def counting(spec, partitions):
        partitions = list(partitions)
        calls.append([partition.d for partition in partitions])
        return average_models(spec, partitions)

    monkeypatch.setattr(cli, "average_models", counting)
    rc = main(["--model", str(model_file), "--seed", "5", "--out", str(tmp_path / "c"),
               "converge", "--d-list", "2,4,8", "--mode", "both", "--reps", "1",
               "--horizon", "1"])
    assert rc == 0
    assert calls == [[2, 4, 8]]


def test_converge_builds_the_continuum_gate_grid_once(model_file, tmp_path, monkeypatch):
    # every d gates the continuum model on one shared grid
    bases, gated = [], []

    def averaging(spec, partitions):
        avgs = average_models(spec, partitions)
        bases.extend(spec for _ in avgs)
        return avgs

    gate_grid = operators.gate_grid

    def gating(spec):
        gated.append(spec)
        return gate_grid(spec)

    monkeypatch.setattr(cli, "average_models", averaging)
    monkeypatch.setattr(operators, "gate_grid", gating)
    rc = main(["--model", str(model_file), "--seed", "5", "--out", str(tmp_path / "c"),
               "converge", "--d-list", "2,4,8", "--mode", "both", "--reps", "1",
               "--horizon", "1"])
    assert rc == 0 and len(bases) == 3
    assert sum(spec is bases[0] for spec in gated) == 1
    assert len(gated) == 4  # and one grid per averaged model


@pytest.mark.parametrize("args, flag", [
    (["simulate", "--horizon", "5", "--reps", "-1"], "--reps"),
    (["converge", "--d-list", "2", "--reps", "0"], "--reps"),
    (["--threads", "0", "simulate", "--horizon", "5"], "--threads"),
    (["simulate", "--method", "thinning", "--horizon", "-5"], "--horizon"),
    (["simulate", "--horizon", "-5"], "--horizon"),
    (["flln", "--horizon", "inf", "--reps", "2"], "--horizon"),
    (["diverge", "--t-list", "5,-1", "--reps", "2"], "--t-list"),
    (["fclt", "--horizon", "5", "--burn-in", "-1", "--reps", "2"], "--burn-in"),
])
def test_a_replication_argument_out_of_range_is_refused_naming_its_flag(
        model_file, tmp_path, capsys, args, flag):
    out = tmp_path / "o"
    rc = main(["--model", str(model_file), "--out", str(out), *args])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error[invalid-argument]: " + flag)
    assert not out.exists()


@pytest.mark.parametrize("args, flag", [
    (["--grid-n", "0", "simulate", "--horizon", "5"], "--grid-n"),
    (["--grid-n", "-4", "simulate", "--horizon", "5"], "--grid-n"),
    (["transform", "--f", "const:1", "--t", "-2"], "--t"),
    (["transform", "--f", "const:1", "--t", "0"], "--t"),
    (["transform", "--f", "const:1", "--t", "1", "--n-u", "1"], "--n-u"),
    (["transform", "--f", "const:1", "--t", "1", "--oracle", "-5"], "--oracle"),
    (["transform", "--f", "const:1", "--t", "1", "--tol", "-1"], "--tol"),
    (["simulate", "--horizon", "5", "--cap", "-3"], "--cap"),
    (["simulate", "--horizon", "5", "--cap", "0"], "--cap"),
    (["diverge", "--t-list", "5", "--reps", "2", "--cap", "0"], "--cap"),
    (["stability", "--n", "-3"], "--n"),
    (["analyze", "{a}", "{a}", "--eps", "-1"], "--eps"),
])
def test_an_argument_out_of_range_is_refused_naming_its_flag(
        model_file, tmp_path, capsys, args, flag):
    events = tmp_path / "a.ndjson"
    events.write_text("")
    out = tmp_path / "o"
    rc = main(["--model", str(model_file), "--out", str(out),
               *(a.format(a=events) for a in args)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error[invalid-argument]: {flag} must be ")
    assert not out.exists()


@pytest.mark.parametrize("grid_n", [0, -4])
@pytest.mark.parametrize("graphon, args", [
    (CONST_MODEL["graphon"], ["simulate", "--horizon", "50"]),
    ({"family": "rank-one", "coeff": 1.5, "profile": {"family": "identity"}},
     ["simulate", "--horizon", "50"]),
    (CONST_MODEL["graphon"], ["stability"]),
], ids=["simulate", "simulate-rank1", "stability"])
def test_a_model_grid_n_below_one_is_refused(tmp_path, capsys, grid_n, graphon, args):
    path = tmp_path / "model.yaml"
    path.write_text(yaml.safe_dump({**CONST_MODEL, "graphon": graphon, "grid_n": grid_n}))
    rc = main(["--model", str(path), "--out", str(tmp_path / "o"), *args])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error[error]: model validation failed: "
        f"invalid-parameter: grid_n must be at least 1, not {grid_n}\n")


@pytest.mark.parametrize("args", [
    ["simulate", "--horizon", "20", "--lifetimes", "on"],
    ["flln", "--horizon", "20"],
    ["fclt", "--horizon", "20", "--burn-in", "2"],
    ["diverge", "--t-list", "5,10"],
])
def test_replications_give_the_same_bytes_for_any_thread_count(model_file, tmp_path, args):
    # --threads splits the replications into contiguous chunks, each grown
    # in one lockstep branching (one replication per call in diverge)
    for reps in (1, 2, 5):
        runs = []
        for threads in (1, 2, 3):
            out = tmp_path / f"r{reps}t{threads}"
            with contextlib.redirect_stdout(io.StringIO()):
                rc = main(["--model", str(model_file), "--seed", "9", "--threads", str(threads),
                           "--out", str(out), *args, "--reps", str(reps)])
            assert rc == 0
            runs.append(read_artifacts(out))
        assert runs[0] == runs[1] == runs[2]


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


def history_line(t, x, xi=1.0, i=0) -> str:
    return json.dumps({"id": i, "t": t, "x": x, "gen": 0, "parent": None, "xi": xi,
                       "lifetime": None}) + "\n"


@pytest.mark.parametrize("t,x,xi,code", [
    (math.nan, [0.5], 1.0, "invalid-argument"),
    (-math.inf, [0.5], 1.0, "invalid-argument"),
    (-0.5, [0.5], math.nan, "invalid-argument"),
    (-0.5, [0.5], -1.0, "invalid-argument"),
    (-0.5, [0.5, 0.5], 1.0, "shape-error"),
    (-0.5, [5.0], 1.0, "out-of-domain"),
    (0.0, [0.5], 1.0, "acausal-history"),
    (3.0, [0.5], 1.0, "acausal-history"),
], ids=["nan-time", "minus-inf-time", "nan-mark", "negative-mark", "2-d", "outside",
        "at-zero", "after-zero"])
def test_simulate_refuses_a_history_the_model_cannot_read(model_file, tmp_path, capsys,
                                                          t, x, xi, code):
    hist = tmp_path / "hist.ndjson"
    hist.write_text(history_line(-1.0, [0.25] * len(x)) + history_line(t, x, xi))
    rc = main(["--model", str(model_file), "--out", str(tmp_path / "o"), "simulate",
               "--horizon", "2", "--method", "thinning", "--history", str(hist)])
    assert rc == 1
    assert f"error[{code}]" in capsys.readouterr().err
    assert not (tmp_path / "o" / "summary.json").exists()


RECORD_1_SHAPE = ('error[shape-error]: NDJSON record 1: "x" is not a list of 1 coordinates, '
                  "as in record 0")


@pytest.mark.parametrize("x,err", [
    (0.5, RECORD_1_SHAPE),
    ([0.5, 0.2], RECORD_1_SHAPE),
    (["abc"], 'error[invalid-argument]: NDJSON "x" coordinates must be numbers'),
], ids=["not-a-list", "ragged", "not-a-number"])
def test_simulate_names_a_history_record_of_another_shape(model_file, tmp_path, capsys, x, err):
    hist = tmp_path / "hist.ndjson"
    hist.write_text(history_line(-1.0, [0.25]) + history_line(-0.4, x, i=1))
    rc = main(["--model", str(model_file), "--out", str(tmp_path / "o"), "simulate",
               "--horizon", "2", "--method", "thinning", "--history", str(hist)])
    assert rc == 1
    assert capsys.readouterr().err == err + "\n"


# values that once loaded as something else: a truncated integer, a boolean as
# 1 or 0, a null time or mark scalar as NaN
BAD_INTEGERS_AND_NULLS = [
    ('{"id":1.5,"t":-0.4,"x":[0.5]}',
     'error[invalid-argument]: NDJSON record 1: "id" is not a 64-bit integer'),
    ('{"id":1,"t":-0.4,"x":[0.5],"gen":2.7}',
     'error[invalid-argument]: NDJSON record 1: "gen" is not a 64-bit integer'),
    ('{"id":1,"t":-0.4,"x":[0.5],"parent":0.9}',
     'error[invalid-argument]: NDJSON record 1: "parent" is not a 64-bit integer'),
    ('{"id":true,"t":-0.4,"x":[0.5]}',
     'error[invalid-argument]: NDJSON record 1: "id" is not a number'),
    ('{"id":1,"t":-0.4,"x":[0.5],"gen":false}',
     'error[invalid-argument]: NDJSON record 1: "gen" is not a number'),
    ('{"id":1,"t":null,"x":[0.5]}', 'error[invalid-argument]: NDJSON record 1: "t" is not a number'),
    ('{"id":1,"t":-0.4,"x":[0.5],"xi":null}',
     'error[invalid-argument]: NDJSON record 1: "xi" is not a number'),
]
BAD_INTEGER_AND_NULL_IDS = ["fractional-id", "fractional-gen", "fractional-parent",
                            "boolean-id", "boolean-gen", "null-time", "null-mark"]


@pytest.mark.parametrize("record,err", [
    ('{"id":0,"t":{},"x":[0.5]}', 'error[invalid-argument]: NDJSON record 1: "t" is not a number'),
    ('{"id":0,"t":-0.4,"x":[0.5],"xi":[1]}',
     'error[shape-error]: NDJSON record 1: "xi" is not one number'),
    ('{"t":-0.4,"x":[0.5]}', 'error[invalid-argument]: NDJSON record 1 has no "id"'),
    ('{"id":"one","t":-0.4,"x":[0.5]}',
     'error[invalid-argument]: NDJSON record 1: "id" is not a number'),
    ('{"id":1,"x":[0.5]}', 'error[invalid-argument]: NDJSON record 1 has no "t"'),
    *BAD_INTEGERS_AND_NULLS,
], ids=["object-time", "list-mark", "no-id", "text-id", "no-time", *BAD_INTEGER_AND_NULL_IDS])
def test_simulate_names_a_history_record_with_a_bad_scalar(model_file, tmp_path, capsys,
                                                           record, err):
    hist = tmp_path / "hist.ndjson"
    hist.write_text(history_line(-1.0, [0.25]) + record + "\n")
    rc = main(["--model", str(model_file), "--out", str(tmp_path / "o"), "simulate",
               "--horizon", "2", "--method", "thinning", "--history", str(hist)])
    assert rc == 1
    assert capsys.readouterr().err == err + "\n"


def test_history_without_thinning_exit_1(model_file, tmp_path, capsys):
    # the cluster simulator cannot condition on a history: it is refused, not ignored
    hist = tmp_path / "hist.ndjson"
    hist.write_text(history_line(-0.5, [0.5]))
    rc = main(["--model", str(model_file), "--out", str(tmp_path / "o"), "simulate",
               "--horizon", "2", "--history", str(hist)])
    assert rc == 1
    assert "error[invalid-argument]: --history needs --method thinning" in capsys.readouterr().err
    assert not (tmp_path / "o" / "summary.json").exists()


def test_transform_subcommand(model_file, tmp_path, capsys):
    out = tmp_path / "t"
    rc = main(["--model", str(model_file), "--seed", "4", "--out", str(out),
               "transform", "--f", "const:0.7", "--t", "2", "--oracle", "2000"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["envelope_ok"] is True
    assert 0 < payload["L_Q"] < 1
    assert payload["oracle_estimate"] is not None


def test_one_parser_per_process():
    assert cli._build_parser() is cli._build_parser()


def test_main_calls_in_either_order_give_the_same_bytes(model_file, tmp_path):
    # the parser is shared, so one call's subcommand and options must not
    # reach the next call's artifacts or recorded options
    runs = {"thinning": ["simulate", "--method", "thinning", "--horizon", "5"],
            "transform": ["transform", "--f", "const:0.5", "--t", "1", "--n-u", "9"]}
    seen: dict[str, list] = {}
    for order in (("thinning", "transform"), ("transform", "thinning")):
        for name in order:
            out = tmp_path / f"{order[0]}-first" / name
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["--model", str(model_file), "--seed", "3", "--out", str(out),
                             *runs[name]]) == 0
            options = json.loads((out / "manifest.json").read_text())["options"]
            seen.setdefault(name, []).append((read_artifacts(out), options))
    for first, second in seen.values():
        assert first == second


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


@pytest.mark.parametrize("record,err", BAD_INTEGERS_AND_NULLS, ids=BAD_INTEGER_AND_NULL_IDS)
def test_analyze_names_a_record_with_a_bad_scalar(model_file, tmp_path, capsys, record, err):
    events = tmp_path / "events.ndjson"
    events.write_text(history_line(0.5, [0.5]) + record.replace("-0.4", "0.7") + "\n")
    rc = main(["--model", str(model_file), "--out", str(tmp_path / "an"), "analyze",
               str(events), str(events)])
    assert rc == 1
    assert capsys.readouterr().err == err + "\n"


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


# ---------------------------------------------------------------------------
# Pinned artifact bytes

STEP16_VALUES = [[0.2 + 0.5 * ((7 * i + 3 * j) % 16) / 16 for j in range(16)]
                 for i in range(16)]
GOLDEN_MODELS = {
    "step16": {**CONST_MODEL, "grid_n": 512, "graphon": {
        "family": "grid", "values": STEP16_VALUES, "axis_counts": [16],
        "interp": "pw-constant"}},
    "rank1": {**CONST_MODEL, "grid_n": 512, "graphon": {
        "family": "rank-one", "coeff": 1.5, "profile": {"family": "identity"}}},
    "const": CONST_MODEL,  # one cell
    "const-marked": {**CONST_MODEL,
                     "marks": {"kind": "scaled-profile", "xi": {"family": "exponential",
                                                                "mean": 0.8}},
                     "lifetimes": {"family": "deterministic", "tau": 1.5}},
    "nl-powerlaw": {**CONST_MODEL, "grid_n": 512, "graphon": {
        "family": "grid", "values": STEP16_VALUES, "axis_counts": [16],
        "interp": "pw-constant"},
        "excitation": {"family": "power-law", "exponent": 2.5, "cutoff": 1.0, "l1": 1.0},
        "nonlinearity": {"family": "clipped-linear", "cap": 3.0}},
    # a table kernel that rises before it falls, so its bound reads the majorant
    "table16": {**CONST_MODEL, "grid_n": 512, "graphon": {
        "family": "grid", "values": STEP16_VALUES, "axis_counts": [16],
        "interp": "pw-constant"},
        "excitation": {"family": "table", "breaks": [0.0, 0.5, 1.0, 3.0],
                       "values": [0.3, 0.8, 0.1]}},
    # drawn mark scalars over a rank-one mark profile, fixed lifetimes
    "rank1-marked": {**CONST_MODEL, "grid_n": 512, "graphon": {
        "family": "rank-one", "coeff": 1.5, "profile": {"family": "identity"}},
        "marks": {"kind": "scaled-profile",
                  "profile": {"family": "rank-one", "coeff": 1.0,
                              "profile": {"family": "affine", "intercept": 0.5,
                                          "slope": [1.0]}},
                  "xi": {"family": "exponential", "mean": 0.8}},
        "lifetimes": {"family": "deterministic", "tau": 1.5}},
    # drawn mark scalars and drawn lifetimes over a rank-one graphon
    "rank1-drawn": {**CONST_MODEL, "grid_n": 512, "graphon": {
        "family": "rank-one", "coeff": 1.5, "profile": {"family": "identity"}},
        "marks": {"kind": "scaled-profile", "xi": {"family": "exponential", "mean": 0.8}}},
}
# 40 unmarked events on [-20, 0), spread over the 16 cells
GOLDEN_HISTORY = "".join(history_line(-20.0 + 0.5 * i, [((7 * i) % 16 + 0.5) / 16], i=i)
                         for i in range(40))
# the same events with mark scalars 0.25, 0.5, ..., 1.25 (xi != 1 on 4 of 5)
GOLDEN_MARKED_HISTORY = "".join(
    history_line(-20.0 + 0.5 * i, [((7 * i) % 16 + 0.5) / 16], xi=0.25 * (1 + i % 5), i=i)
    for i in range(40))
# sha256 over (name, bytes) of every artifact but the manifest, in name order
GOLDEN_RUNS = {
    "simulate": ("step16", ["simulate", "--reps", "2", "--horizon", "40"],
                 "e4f0a5085aef500ef34763be0139e4ed99269e85004254d77266e974f8b1e278"),
    # every draw of a replication, its lifetimes last; the cap censors three of four
    "simulate-drawn": ("rank1-drawn", ["simulate", "--reps", "4", "--horizon", "30",
                                       "--lifetimes", "on", "--cap", "45"],
                       "484d9459439a04661c6d73ff562c4c006a92da5d289899b7c5bd21a21aac5b35"),
    "flln": ("step16", ["flln", "--horizon", "30", "--reps", "3"],
             "98552d8e927269f3c5134e49048d205f4fcd3822c01a065666e6bd6f1cef1833"),
    "converge": ("rank1", ["converge", "--d-list", "4,16", "--mode", "both",
                           "--reps", "4", "--horizon", "5"],
                 "4f77d8913c62848b064022ae47b3734839128d2c61c139709221dd505c693ec3"),
    "thinning": ("step16", ["simulate", "--method", "thinning", "--reps", "2",
                            "--horizon", "20"],
                 "719ffacdfc962d491c177fd38f0bbf157eaf358bc74ad1e3a83e24d0e4997381"),
    # unmarked, no lifetimes: every draw but the event times and locations is fixed
    "thinning-const": ("const", ["simulate", "--method", "thinning", "--reps", "3",
                                 "--horizon", "30"],
                       "206718da3b3654ec5d9f3ae1eb1519e0590bcd081cbc45fae6c391b74543c659"),
    # drawn mark scalars, fixed lifetimes
    "thinning-marked": ("const-marked", ["simulate", "--method", "thinning", "--reps", "2",
                                         "--horizon", "30", "--lifetimes", "on"],
                        "212bb578c0c2fd3e1abc271ce55af8a3c704c9c05254d42e404a3b405396dc2e"),
    # a column table over a history on 16 cells, drawn lifetimes
    "thinning-history": ("nl-powerlaw", ["simulate", "--method", "thinning", "--reps", "2",
                                         "--horizon", "20", "--lifetimes", "on",
                                         "--history", "{history}"],
                         "8133f38630d843e37fa790b195bb30fea15d57e72022dbb37932ce495284db64"),
    # a marked history: the table's event weights are not all 1
    "thinning-history-marked": ("nl-powerlaw", ["simulate", "--method", "thinning", "--reps",
                                                "2", "--horizon", "20",
                                                "--history", "{marked}"],
                                "8c22f2734ab4ff6dd01de0112dff2f43a10c4df1dce2fc4c5a18c7d55c17f698"),
    # a table kernel over a history, its bound the kernel's majorant
    "thinning-history-table": ("table16", ["simulate", "--method", "thinning", "--reps", "2",
                                           "--horizon", "20", "--history", "{history}"],
                               "3fdf8435f0d4d1c37813ecd7022c32e31f9bd154ef43238cd3a176bd00debcde"),
    # the fixed point swept on the 16 cells, with the MC oracle
    "transform-cells": ("step16", ["transform", "--f", "const:0.7", "--t", "3", "--n-u", "129",
                                   "--oracle", "500"],
                        "31bbc8f706d5fd9cae43e0b5734b78844788e7aa5db8bbc6281bcf111917a801"),
    # the fixed point swept on the standard grid
    "transform-grid": ("rank1", ["transform", "--f", "const:0.7", "--t", "2", "--n-u", "65"],
                       "136b8c5c92ffadbeb9c9a62e293ade8a6ee27c2ab83e20cf29ac5d0ef492b575"),
    # drawn mark scalars: every parent takes the per-parent offspring law
    "converge-marked": ("rank1-marked", ["converge", "--d-list", "4,16", "--mode", "both",
                                         "--reps", "4", "--horizon", "5"],
                        "d3fae46de906357fb145556543db74f7a7df13d348cff63dee79ef6dac410eac"),
    # one quenched graph per d, brought by the caller
    "converge-frozen": ("step16", ["converge", "--d-list", "4,16", "--mode", "quenched",
                                   "--freeze-graph", "--reps", "4", "--horizon", "5"],
                        "de1a7f297a56a15145201ba4fb0cd6e1b77e0f20c27329900bcaa5eee7aebdaf"),
    # the same events with other mark scalars: every pair has a mark term
    "analyze-marked": ("rank1-marked", ["analyze", "{history}", "{marked}"],
                       "2136fe12f9a50bef04f0ed3de87710705a5eb030833883d897a0851a8c9a3511"),
    "stability": ("step16", ["stability", "--n", "128"],
                  "249fde678f2375ecfd50d9530d3a0d2f3e0d3dbfbfa1356089e9444674f4dadb"),
}


@pytest.mark.parametrize("run_name", sorted(GOLDEN_RUNS))
def test_artifact_bytes_are_pinned(tmp_path, run_name):
    # byte-keeping changes to the samplers must leave these runs unchanged;
    # the digests hold for numpy's generators and float functions, so a new
    # numpy may move them, and they are then taken again from a tree whose
    # bytes are otherwise known to be right
    model, args, digest = GOLDEN_RUNS[run_name]
    path = tmp_path / f"{model}.yaml"
    path.write_text(yaml.safe_dump(GOLDEN_MODELS[model]))
    history = tmp_path / "history.ndjson"
    history.write_text(GOLDEN_HISTORY)
    marked = tmp_path / "marked.ndjson"
    marked.write_text(GOLDEN_MARKED_HISTORY)
    out = tmp_path / "o"
    with contextlib.redirect_stdout(io.StringIO()):
        rc = main(["--model", str(path), "--seed", "5", "--threads", "1", "--out", str(out),
                   *(a.format(history=history, marked=marked) for a in args)])
    assert rc == 0
    h = hashlib.sha256()
    for name, data in read_artifacts(out).items():
        h.update(name.encode())
        h.update(data)
    assert h.hexdigest() == digest
