"""The command line's artifacts match tests/golden/manifest.json.

Byte-determinism for a fixed seed is part of the package's contract;
this holds each change to the artifacts of the commit that wrote the
manifest (see golden_runs.py). In the manifest's environment every
sha256 must match. In any other, where numpy or BLAS may round
differently, the decoded artifacts must agree within the manifest's
tolerances; the test reports which mode ran.
"""

import json
import warnings

import pytest

import golden_runs as golden


@pytest.fixture(scope="module")
def manifest():
    return json.loads(golden.MANIFEST.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    return golden.collect(tmp_path_factory.mktemp("golden"))


def mode_of(manifest) -> str:
    return "hash" if manifest["environment"] == golden.environment() else "tolerance"


def mismatches(manifest, artifacts, mode) -> list[str]:
    expected = manifest["artifacts"]
    problems = [f"{name}: missing" for name in expected.keys() - artifacts.keys()]
    problems += [f"{name}: not in the manifest" for name in artifacts.keys() - expected.keys()]
    for name in sorted(expected.keys() & artifacts.keys()):
        data = artifacts[name]
        if mode == "hash":
            if golden.sha256(data) != expected[name]["sha256"]:
                problems.append(f"{name}: sha256 differs")
        else:
            problems += golden.agree(golden.summarize(name, data), expected[name]["summary"],
                                     name)
    return problems


def test_artifacts_match_the_manifest(manifest, artifacts, record_property):
    mode = mode_of(manifest)
    record_property("golden_mode", mode)
    print(f"golden: {mode} mode over {len(artifacts)} artifacts")
    if mode == "tolerance":
        warnings.warn(f"golden artifacts compared by tolerance (rtol {manifest['rtol']}): "
                      f"this environment is not the manifest's {manifest['environment']}")
    problems = mismatches(manifest, artifacts, mode)
    assert not problems, f"{mode} mode: " + "; ".join(problems[:20])


def test_tolerance_mode_accepts_the_same_artifacts(manifest, artifacts):
    """The decoding path a foreign environment takes passes on these
    artifacts too, and refuses one moved beyond the tolerance."""
    assert mismatches(manifest, artifacts, "tolerance") == []
    name = "stdout/train-c07"
    summary = golden.summarize(name, artifacts[name])
    summary["final"]["total"] *= 1.0 + 10 * manifest["rtol"]
    assert golden.agree(summary, manifest["artifacts"][name]["summary"], name)


def test_every_command_leaves_artifacts(manifest):
    names = manifest["artifacts"].keys()
    for run, _ in golden.commands():
        assert f"stdout/{run}" in names, run
    for path in ("data/meta.json", "c07/checkpoint.ckpt", "c07/log.jsonl",
                 "wide/checkpoint.ckpt", "wide/log.jsonl", "seeds-c07"):
        assert any(n.startswith(path) for n in names), path
