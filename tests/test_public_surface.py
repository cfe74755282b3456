"""The package's public surface: every public name has a caller, and nothing else.

An AST scan of ``src/repro`` lists each public function and method (a name
not starting with ``_``, at module level or in a public class).  A name counts
as called when it appears as a name or an attribute anywhere in ``src/``,
``bench/``, ``benchmarks/`` or ``examples/`` — by name only, so a call of any
same-named method counts, and an import or an ``__all__`` entry does not.
What no code calls sits on :data:`KEPT` with the user that needs it: a paper
anchor, a test oracle or harness, or a documented entry point.  Anything else
is dead and goes, with its unit test.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import subprocess
import sys
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
CALLER_TREES = ("src", "bench", "benchmarks", "examples")

#: Public names no code calls, each with the user that keeps it.
KEPT = {
    "repro.core.branches.Branch.is_isomorphic_to": "Definition 3 (tests/test_paper_anchors.py)",
    "repro.core.branches.branches_of": "Definition 2, the branch table's scalar oracle",
    "repro.core.estimator.GBDAEstimator.accepts": "Step 4 of Algorithm 1, the per-pair test oracle",
    "repro.core.model.BranchEditModel.editable_elements": "v + C(v, 2), a paper anchor",
    "repro.core.plan.ExecutionCore.acceptance_threshold": "the γ inversion, documented in README",
    "repro.datasets.iam.load_iam_directory": "the loader of genuine IAM data",
    "repro.db.columnar.ColumnarBranchStore.gbd_lower_bound_row": (
        "the reducers' bound, its NumPy reference (bench/trace.py traces gbd_*)"
    ),
    "repro.graphs.edit_ops.EditPath.verify": "the edit-path certificate GED tests check against",
    "repro.graphs.extended.ExtendedGraphView.virtual_vertices": "Definition 5 / Figure 2 anchors",
    "repro.graphs.extended.extend_pair": "Definition 5 / Figure 2 anchors",
    "repro.graphs.generators.to_networkx": "networkx interchange, documented in README",
    "repro.graphs.generators.from_networkx": "networkx interchange, documented in README",
    "repro.graphs.io.save_graph": "graph file interchange, documented in README",
    "repro.graphs.io.load_graph": "graph file interchange, documented in README",
    "repro.graphs.io.save_collection": "graph file interchange, documented in README",
    "repro.graphs.io.load_collection": "graph file interchange, documented in README",
    "repro.graphs.io.to_edge_list": "graph file interchange, documented in README",
    "repro.graphs.io.from_edge_list": "graph file interchange, documented in README",
    "repro.graphs.validation.validate_graph": "the oracle of the generators and datasets",
    "repro.obs.logging.EventLog.attach_stream": "the one way to mirror EVENT_LOG to a sink",
    "repro.offline.fitter.OfflineFitter.refit": "incremental refits, documented in README",
    "repro.service.protocol.send_frame": "the wire tests' framing",
    "repro.service.server.SimilarityService.metrics_http_port": "the /metrics port (README)",
    "repro.stats.gmm.GaussianMixtureModel.pdf": "Equation 13 (tests/test_gmm.py integrates it)",
    "repro.testing.faults.start_fault_proxy": "the chaos harness (tests/test_chaos.py)",
    "repro.testing.faults.ChaosService.restart": "the chaos harness (tests/test_chaos.py)",
    "repro.testing.oracles.lambda1_oracle": "test oracle of the factored Λ1",
    "repro.testing.oracles.lambda1_dtau_oracle": "test oracle of the factored dΛ1/dτ",
    "repro.testing.oracles.query_topk_reference": "test oracle of every top-k path",
}


def _public_definitions():
    """``{dotted name: bare name}`` of every public function and method in the package."""
    found = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        module = ".".join(path.relative_to(PACKAGE.parent).with_suffix("").parts)
        module = module.removesuffix(".__init__")

        def visit(body, prefix):
            for node in body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if not node.name.startswith("_"):
                        found[f"{prefix}.{node.name}"] = node.name
                elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                    visit(node.body, f"{prefix}.{node.name}")

        visit(ast.parse(path.read_text(encoding="utf-8")).body, module)
    return found


def _called_names():
    names = set()
    for tree in CALLER_TREES:
        for path in (ROOT / tree).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
    return names


@pytest.fixture(scope="module")
def uncalled():
    called = _called_names()
    return {dotted for dotted, name in _public_definitions().items() if name not in called}


def test_every_public_name_has_a_caller_or_a_stated_user(uncalled):
    assert sorted(uncalled - set(KEPT)) == []


def test_every_kept_name_still_exists_and_still_needs_its_entry(uncalled):
    assert sorted(set(KEPT) - uncalled) == []


def test_the_top_level_holds_what_the_quickstarts_import():
    assert sorted(repro.__all__) == sorted(
        [
            "Graph",
            "GraphDatabase",
            "GBDASearch",
            "SimilarityQuery",
            "BatchQueryEngine",
            "OfflineFitter",
            "graph_branch_distance",
            "exact_ged",
            "__version__",
        ]
    )
    for name in repro.__all__:
        assert getattr(repro, name) is not None


def test_import_repro_leaves_the_service_stack_unloaded():
    code = (
        "import sys, repro; "
        "print(sorted(m for m in ('asyncio', 'repro.service.server') if m in sys.modules))"
    )
    env = {"PYTHONPATH": str(PACKAGE.parent), "PATH": ""}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    ).stdout
    assert out.strip() == "[]"


#: ``(module:owner, option)`` of every option that nothing set and that went.
REMOVED_OPTIONS = [
    ("repro.service.server:SimilarityService", "slow_log_size"),
    ("repro.service.server:SimilarityService", "idempotency_capacity"),
    ("repro.service.server:SimilarityService", "slo_engine"),
    ("repro.service.resilience:RetryPolicy", "retry_on"),
    ("repro.evaluation.runner:ExperimentRunner.gbda", "factory"),
    ("repro.datasets.synthetic:make_known_ged_family", "edge_label_prefix"),
    ("repro.datasets.synthetic:make_known_ged_family", "min_center_degree"),
    ("repro.stats.gmm:GaussianMixtureModel", "max_iterations"),
    ("repro.stats.gmm:GaussianMixtureModel", "tolerance"),
    ("repro.stats.gmm:GaussianMixtureModel", "variance_floor"),
    ("repro.testing.faults:FaultProxy", "faulty_directions"),
    ("repro.testing.faults:ChaosService.restart", "wait_seconds"),
    ("repro.evaluation.ground_truth:GroundTruthOracle", "exact_fallback_max_vertices"),
]


def _resolve(target):
    module, _, qualname = target.partition(":")
    owner = importlib.import_module(module)
    for part in qualname.split("."):
        owner = getattr(owner, part)
    return owner


@pytest.mark.parametrize("target, option", REMOVED_OPTIONS)
def test_an_option_nothing_set_stays_gone(target, option):
    assert option not in inspect.signature(_resolve(target)).parameters


def test_the_service_takes_eleven_parameters():
    service = _resolve("repro.service.server:SimilarityService")
    assert len(inspect.signature(service).parameters) == 11
