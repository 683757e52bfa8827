"""The benchmark's tracer still sees every function it wraps.

`bench/spans.py` rebinds a fixed list of package functions by module and
name, and a traced benchmark run fails when one of them records no calls.
This test runs the same patching over small inputs, so that renaming,
inlining or calling such a function through another name fails here too.
"""

import json
from collections import Counter
from pathlib import Path

import numpy as np

import svdsurgery.cli as cli

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_every_traced_function_records_calls(synth_pair, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans

    host, donor = (str(p) for p in synth_pair())
    log = tmp_path / "rollouts.jsonl"
    rng = np.random.default_rng(5)
    log.write_text("".join(
        json.dumps({"trace_id": f"t{i}", "t": t, "reward": float(rng.normal()),
                    "value": float(rng.normal())}) + "\n"
        for i in range(3) for t in range(100)
    ))
    out = tmp_path / "out"
    runs = [
        ["svd-diff", "--a", host, "--b", donor, "--out", str(out / "svd-diff")],
        ["angles", "--a", host, "--b", donor, "--out", str(out / "angles")],
        ["restore", "--mode", "vectors", "--host", host, "--donor", donor, "--ranks", "top:3",
         "--out", str(out / "restore")],
        ["penalty", "--ref", host, "--current", donor, "--rank", "3",
         "--out", str(out / "penalty")],
        ["adv-stats", "--input", str(log), "--bootstrap", "100", "--out", str(out / "adv")],
    ]
    tracer = spans.Tracer()
    with tracer.patch():
        for argv in runs:
            with tracer.command(f"cli.{argv[0]}"):
                assert cli.main(argv) == 0
    calls = Counter(span.name for span in tracer.spans)
    assert [f"{m}.{f}" for m, f, _ in spans.TRACED if not calls[f"{m}.{f}"]] == []
    # the write_checkpoint span reads the output path as the third positional argument
    written = [s.attrs["bytes"] for s in tracer.spans if s.name == "tensorstore.write_checkpoint"]
    assert written == [
        (out / "restore" / "vectors__layers-all__ranks-top-3.safetensors").stat().st_size
    ]
