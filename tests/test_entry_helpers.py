"""The driver's shared query helpers: the one output rule (``_out``), the
histogram finish (``_hist``) and the per-process work directory that every
graph build goes to."""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pandas as pd

import __ray_entry__ as e

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_output_rule_renames_casts_rounds_selects_and_sorts():
    df = pd.DataFrame(
        {
            "vertex_id": np.array([3, 1, 2], dtype=np.int32),
            "value": [0.1234567, 2.0000004, 1.5],
            "raw": [0.1234567, 0.7654321, 0.5],
            "dropped": ["a", "b", "c"],
        }
    )
    out = e._out(
        df, ["user_id", "value", "raw"], rename={"vertex_id": "user_id"},
        ints=["user_id"], r6=["value"], sort="user_id",
    )
    assert list(out.columns) == ["user_id", "value", "raw"]
    assert list(out.dtypes) == [np.int64, np.float64, np.float64]
    assert out["user_id"].tolist() == [1, 2, 3]
    assert out["value"].tolist() == [2.0, 1.5, 0.123457]
    assert out["raw"].tolist() == [0.7654321, 0.5, 0.1234567]  # not rounded
    assert out.index.tolist() == [0, 1, 2]
    assert list(df.columns)[0] == "vertex_id"  # the input frame is untouched
    assert df["vertex_id"].dtype == np.int32


def test_output_rule_keeps_every_column_and_sorts_by_several_keys():
    df = pd.DataFrame({"a": [2.0, 1.0, 1.0], "b": [0.5, 0.25, 0.125]})
    out = e._out(df, ints=["a"], sort=["a", "b"])
    assert out.to_dict("list") == {"a": [1, 1, 2], "b": [0.125, 0.25, 0.5]}
    assert out["a"].dtype == np.int64


def test_hist_counts_each_value_in_ascending_order():
    h = e._hist(pd.Series([2.0, 1.0, 2.0, 5.0]), "size", "n")
    assert h.to_dict("list") == {"size": [1, 2, 5], "n": [1, 2, 1]}
    assert list(h.dtypes) == [np.int64, np.int64]


def test_work_dir_is_per_process_and_removed_at_exit():
    probe = (
        "import os, __ray_entry__ as e; d = e._work_dir(); "
        "print(d, os.path.isdir(d))"
    )
    runs = [
        subprocess.run(
            [sys.executable, "-c", probe], cwd=ROOT, capture_output=True,
            text=True, check=True,
        ).stdout.split()
        for _ in range(2)
    ]
    (d1, live1), (d2, live2) = runs
    assert live1 == live2 == "True"
    assert d1 != d2
    assert not os.path.exists(d1) and not os.path.exists(d2)


def test_graph_is_built_once_under_this_process_work_dir():
    sf = "sf0.001"  # the transcripts are generated for the tier; no file read
    g = e._graph(sf, symmetrize=False)
    assert e._graph(sf, symmetrize=False) is g
    assert os.path.commonpath([g.path, e._work_dir()]) == e._work_dir()
    assert os.path.exists(os.path.join(g.path, "meta.json"))
