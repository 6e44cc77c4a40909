"""A warm server hit answers from the artifact's served record alone.

The reply's code, comm-set count and schema come from the small record
at the head of a cached artifact; the analysis record (program, space,
tree, comm sets, plans) stays encoded and the node function unbuilt.
This is checked through the loaded result's lazy state, not timing.
"""

import json

import pytest

from repro.codegen.spmd import ANALYSIS_FIELDS
from repro.core import compile_distributed, results_equal, serialize
from repro.lang import parse
from repro.runtime.chaos import WORKLOADS
from repro.service import CompileServer
from repro.service.server import comps_from_blocks


FIG2 = WORKLOADS["fig2"].source


def _request(emit):
    return {"program": FIG2, "name": "fig2", "blocks": {"i": 16},
            "emit": emit}


@pytest.fixture
def loads(monkeypatch):
    """Every result ``serialize.load_result`` hands out, in order."""
    seen = []
    real = serialize.load_result

    def recording(blob):
        result = real(blob)
        seen.append(result)
        return result

    monkeypatch.setattr(serialize, "load_result", recording)
    return seen


@pytest.mark.parametrize("emit", ["c", "python"])
def test_warm_hit_decodes_no_analysis_record(tmp_path, loads, emit):
    server = CompileServer(cache_dir=str(tmp_path / "cache"))
    cold = server.handle_request(_request(emit))
    assert cold["ok"] and not cold["from_cache"]
    assert loads == []
    warm = server.handle_request(_request(emit))
    assert warm["ok"] and warm["from_cache"]
    (hit,) = loads
    assert not any(hit.spmd.is_loaded(f) for f in ANALYSIS_FIELDS)
    assert not hit.spmd.is_loaded("node")
    assert warm["code"] == cold["code"]
    assert warm["commsets"] == cold["commsets"]
    assert warm["schema_version"] == serialize.SCHEMA_VERSION
    # the same hit, read in full, is the fresh compile's artifact
    program = parse(FIG2, name="fig2")
    fresh = compile_distributed(
        program, comps_from_blocks(program, {"i": 16})
    )
    assert results_equal(hit, fresh)
    assert warm["commsets"] == len(fresh.spmd.commsets)


def test_warm_hits_over_the_line_protocol(tmp_path, loads):
    server = CompileServer(cache_dir=str(tmp_path / "cache"))
    line = json.dumps(_request("python"))
    replies = [json.loads(server.handle_line(line)) for _ in range(3)]
    assert [r["from_cache"] for r in replies] == [False, True, True]
    assert len(loads) == 2
    assert not any(
        hit.spmd.is_loaded(f) for hit in loads for f in ANALYSIS_FIELDS
    )
