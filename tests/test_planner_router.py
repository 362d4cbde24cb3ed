"""Backend-aware campaign planning: cost models, router, SPEC_FORMAT 3, audits.

Covers the cost/fidelity layer (:mod:`repro.model.cost` + the registry
hooks in :mod:`repro.model.base`), the plan-time backend router
(:mod:`repro.campaign.router`), the SPEC_FORMAT 3 migration rules, the
executor's flit-audit post-pass and the CLI surface (``--backend auto``,
``--budget``, ``--audit-fraction``).  Everything runs on the production
engines; the cost models are checked to be unmoved by the reference ones.
"""

from __future__ import annotations

import hashlib
import json
import math

import pytest

from repro.campaign import (
    ArtifactStore,
    BackendRouter,
    BudgetError,
    ensure_builtin_scenarios,
    execute_plan,
    plan_campaign,
    select_audit_pairs,
)
from repro.campaign.executor import metric_deltas
from repro.campaign.plan import (
    AUTO_BACKEND,
    DEFAULT_SEED,
    LEGACY_SPEC_FORMAT,
    SPEC_FORMAT,
    RunSpec,
    scale_for,
)
from repro.campaign.registry import Scenario, ScenarioError, register
from repro.campaign.router import estimate_cell, profile_for
from repro.experiments.cli import campaign_main, parse_override
from repro.model.base import BACKENDS, BackendError
from repro.model.cost import (
    COST_MODELS,
    CostEstimate,
    FlitCostModel,
    FlowCostModel,
    WorkloadProfile,
)
from repro.sim.rng import RandomStreams


# -- test scenario ------------------------------------------------------------------

#: Per-cell message volume of the toy scenario — spanning three orders of
#: magnitude so budget demotion has a meaningful greedy order.
_RT_MESSAGES = {"tiny": 200.0, "small": 2_000.0, "big": 20_000.0, "huge": 200_000.0}


def _rt_runner(scale, *, load="tiny"):
    """Cheap deterministic runner; payload depends on the run seed/backend."""
    streams = RandomStreams(scale.seed)
    values = [streams.randint("rt", 0, 10_000) for _ in range(4)]
    return {
        "metrics": {"total": float(sum(values)), "first": float(values[0])},
        "data": {"backend": scale.backend, "load": load},
        "report": f"rt load={load} total={sum(values)}",
    }


def _rt_cost(scale, *, load="tiny"):
    return {
        "messages": _RT_MESSAGES[load],
        "message_bytes": 16 * 1024,
        "concurrent_flows": 8.0,
    }


RT = Scenario(
    name="_router-toy",
    description="cheap deterministic scenario with wide-ranging cost hints",
    axes={"load": tuple(_RT_MESSAGES)},
    runner=_rt_runner,
    cost_hints=_rt_cost,
)


@pytest.fixture(scope="module", autouse=True)
def _registered():
    ensure_builtin_scenarios()
    try:
        register(RT)
    except ScenarioError:
        pass  # already registered by a previous module run in this process
    yield


def _auto_specs():
    return [
        RunSpec.make("_router-toy", {"load": load}, backend=AUTO_BACKEND)
        for load in _RT_MESSAGES
    ]


# -- cost models --------------------------------------------------------------------

class TestCostModels:
    def test_builtin_backends_have_cost_models(self):
        assert set(COST_MODELS) == set(BACKENDS)

    def test_unknown_cost_model_raises_backend_error(self):
        spec = RunSpec.make("_router-toy", {"load": "tiny"})
        with pytest.raises(BackendError, match="no-such-backend"):
            estimate_cell(spec, backends=("flit", "no-such-backend"))

    def test_estimates_are_positive_and_detailed(self):
        profile = WorkloadProfile(
            nodes=24, routers=12, links=120, messages=100.0,
            flits_per_message=80.0, avg_hops=5.0, concurrent_flows=8.0,
        )
        flit = COST_MODELS["flit"].estimate_cost(profile)
        flow = COST_MODELS["flow"].estimate_cost(profile)
        assert flit.backend == "flit" and flow.backend == "flow"
        assert flit.work > 0 and flow.work > 0
        assert flit.detail["events"] > 0
        assert flow.detail["solves"] == pytest.approx(200.0)

    def test_flit_flow_cost_asymmetry(self):
        """Flit work must dwarf flow work on a message-heavy profile."""
        profile = WorkloadProfile(
            nodes=24, routers=12, links=120, messages=10_000.0,
            flits_per_message=80.0, avg_hops=5.0, concurrent_flows=8.0,
        )
        flit = FlitCostModel().estimate_cost(profile)
        flow = FlowCostModel().estimate_cost(profile)
        assert flit.work > 10.0 * flow.work

    def test_flit_cost_scales_with_message_size_flow_does_not(self):
        small = WorkloadProfile(
            nodes=24, routers=12, links=120, messages=100.0,
            flits_per_message=10.0, avg_hops=5.0, concurrent_flows=8.0,
        )
        big = WorkloadProfile(
            nodes=24, routers=12, links=120, messages=100.0,
            flits_per_message=1000.0, avg_hops=5.0, concurrent_flows=8.0,
        )
        assert FlitCostModel().estimate_cost(big).work > 50 * FlitCostModel().estimate_cost(small).work
        assert FlowCostModel().estimate_cost(big).work == FlowCostModel().estimate_cost(small).work

    def test_profile_validation(self):
        with pytest.raises(ValueError, match="non-empty machine"):
            WorkloadProfile(
                nodes=0, routers=1, links=1, messages=1.0,
                flits_per_message=1.0, avg_hops=1.0, concurrent_flows=1.0,
            )
        with pytest.raises(ValueError, match="non-negative"):
            CostEstimate(backend="flit", work=-1.0)

    def test_engine_switch_never_reorders_backends(self, request):
        """Cost estimates, and so backend routing, are engine-independent.

        Estimates depend on the workload profile alone, so building the
        networks on the reference engines must leave every estimate
        untouched; flow work stays orders of magnitude below flit on
        message-heavy cells either way.
        """
        profile = WorkloadProfile(
            nodes=24, routers=12, links=120, messages=10_000.0,
            flits_per_message=80.0, avg_hops=5.0, concurrent_flows=8.0,
        )

        def estimates():
            return (
                FlitCostModel().estimate_cost(profile).work,
                FlowCostModel().estimate_cost(profile).work,
            )

        flit, flow = estimates()
        assert flit > 10.0 * flow
        request.getfixturevalue("reference_engines")
        assert estimates() == (flit, flow)


class TestProfiles:
    def test_cost_hints_drive_the_profile(self):
        spec = RunSpec.make("_router-toy", {"load": "huge"})
        profile = profile_for(spec)
        assert profile.messages == _RT_MESSAGES["huge"]
        assert profile.concurrent_flows == 8.0

    def test_large_scenario_hints_override_machine_size(self):
        spec = RunSpec.make(
            "bisection-full", {"mode": "ADAPTIVE_0", "message_kib": 64, "noise": "none"}
        )
        profile = profile_for(spec)
        assert profile.nodes == 1056
        assert profile.concurrent_flows > 1000

    def test_unregistered_scenario_uses_generic_heuristic(self):
        profile = profile_for(RunSpec.make("_not-registered-anywhere"))
        assert profile.messages > 0 and profile.nodes > 0

    def test_estimate_cell_covers_auto_candidates(self):
        estimates = estimate_cell(_auto_specs()[0])
        assert set(estimates) == {"flit", "flow"}


# -- auto specs & SPEC_FORMAT 3 -----------------------------------------------------

class TestAutoSpecs:
    def test_auto_spec_refuses_to_hash(self):
        spec = RunSpec.make("_router-toy", {"load": "tiny"}, backend=AUTO_BACKEND)
        assert spec.is_auto
        with pytest.raises(ValueError, match="auto"):
            spec.spec_hash()
        with pytest.raises(ValueError, match="auto"):
            spec.run_seed()

    def test_resolve_records_provenance(self):
        spec = RunSpec.make("_router-toy", {"load": "tiny"}, backend=AUTO_BACKEND)
        routed = spec.resolve("flow")
        assert routed.backend == "flow" and routed.routed_from == AUTO_BACKEND
        assert routed.label().endswith("@flow(auto)")
        with pytest.raises(ValueError, match="already runs"):
            routed.resolve("flit")

    def test_flow_only_scenarios_pin_under_auto(self):
        auto = RunSpec.make(
            "bisection-full",
            {"mode": "ADAPTIVE_0", "message_kib": 64, "noise": "none"},
            backend=AUTO_BACKEND,
        )
        explicit = RunSpec.make(
            "bisection-full",
            {"mode": "ADAPTIVE_0", "message_kib": 64, "noise": "none"},
            backend="flow",
        )
        # The pin is not a routing decision: no provenance, identical hash.
        assert auto.backend == "flow" and auto.routed_from is None
        assert auto.spec_hash() == explicit.spec_hash()

    def test_scale_for_unseeded_works_on_auto_specs(self):
        spec = RunSpec.make("_router-toy", {"load": "tiny"}, backend=AUTO_BACKEND)
        scale = scale_for(spec, seeded=False)
        assert scale.name == "smoke"

    def test_scale_for_seeded_threads_backend_and_seed(self):
        spec = RunSpec.make("_router-toy", {"load": "tiny"}, backend="flow")
        scale = scale_for(spec)
        assert scale.backend == "flow" and scale.seed == spec.run_seed()


class TestSpecFormatMigration:
    """SPEC_FORMAT 3: provenance hashes in; concrete-spec hashes carry over."""

    def test_format_constants(self):
        assert SPEC_FORMAT == 3 and LEGACY_SPEC_FORMAT == 2

    def test_concrete_spec_keeps_byte_identical_format2_hash(self):
        """Unchanged canonical form => unchanged hash (cache carry-over)."""
        spec = RunSpec.make("_router-toy", {"load": "big"}, backend="flow", seed=7)
        legacy_form = {
            "format": 2,
            "scenario": "_router-toy",
            "params": {"load": "big"},
            "scale": "smoke",
            "seed": 7,
            "backend": "flow",
        }
        text = json.dumps(legacy_form, sort_keys=True, separators=(",", ":"))
        legacy_hash = hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
        assert spec.canonical() == legacy_form
        assert spec.spec_hash() == legacy_hash

    def test_routed_spec_emits_format3_with_provenance(self):
        routed = RunSpec.make(
            "_router-toy", {"load": "big"}, backend=AUTO_BACKEND
        ).resolve("flow")
        form = routed.canonical()
        assert form["format"] == SPEC_FORMAT
        assert form["routed_from"] == AUTO_BACKEND

    def test_auto_routed_spec_never_served_a_format2_cache_entry(self, tmp_path):
        """A pinned flow result must not satisfy the auto-routed twin."""
        store = ArtifactStore(tmp_path / "store")
        pinned = RunSpec.make("_router-toy", {"load": "tiny"}, backend="flow")
        store.save(pinned, {"metrics": {"total": 1.0}})
        routed = RunSpec.make(
            "_router-toy", {"load": "tiny"}, backend=AUTO_BACKEND
        ).resolve("flow")
        assert routed.spec_hash() != pinned.spec_hash()
        assert store.has(pinned) and not store.has(routed)
        # And the executor treats the routed spec as a cache miss.
        auto = RunSpec.make("_router-toy", {"load": "tiny"}, backend=AUTO_BACKEND)
        flow_work = estimate_cell(auto)["flow"].work
        plan = plan_campaign(
            ["_router-toy"],
            overrides={"load": ("tiny",)},
            backend=AUTO_BACKEND,
            router=BackendRouter(budget=flow_work * 1.001),  # only flow fits
        )
        assert plan.specs[0].backend == "flow"
        result = execute_plan(plan, store=store)
        assert result.executed == 1 and result.cached == 0

    def test_run_seeds_differ_between_pinned_and_routed(self):
        pinned = RunSpec.make("_router-toy", {"load": "tiny"}, backend="flow")
        routed = RunSpec.make(
            "_router-toy", {"load": "tiny"}, backend=AUTO_BACKEND
        ).resolve("flow")
        assert pinned.run_seed() != routed.run_seed()


# -- router -------------------------------------------------------------------------

class TestBackendRouter:
    def test_default_routing_prefers_fidelity(self):
        cells = BackendRouter().route(_auto_specs())
        assert all(cell.chosen == "flit" for cell in cells)
        assert all(cell.reason == "fidelity" for cell in cells)
        assert all(cell.spec.backend == "flit" for cell in cells)
        assert all(cell.spec.routed_from == AUTO_BACKEND for cell in cells)
        assert all({"flit", "flow"} <= set(cell.estimates) for cell in cells)

    def test_routing_is_deterministic(self):
        baseline = BackendRouter().route(_auto_specs())
        budget = sum(cell.estimates["flow"].work for cell in baseline) * 1.01
        once = BackendRouter(budget=budget).route(_auto_specs())
        twice = BackendRouter(budget=budget).route(_auto_specs())
        assert [c.spec for c in once] == [c.spec for c in twice]

    def test_explicit_specs_are_annotated_but_never_moved(self):
        spec = RunSpec.make("_router-toy", {"load": "huge"}, backend="flit")
        cells = BackendRouter().route([spec])
        assert cells[0].spec == spec
        assert cells[0].reason == "explicit"

    def test_explicit_specs_cannot_be_demoted_to_fit_a_budget(self):
        spec = RunSpec.make("_router-toy", {"load": "huge"}, backend="flit")
        work = BackendRouter().route([spec])[0].work
        with pytest.raises(BudgetError):
            BackendRouter(budget=work * 0.5).route([spec])

    def test_flow_only_specs_report_pinned(self):
        spec = RunSpec.make(
            "bisection-full",
            {"mode": "ADAPTIVE_0", "message_kib": 64, "noise": "none"},
            backend=AUTO_BACKEND,
        )
        cells = BackendRouter().route([spec])
        assert cells[0].chosen == "flow" and cells[0].reason == "pinned"

    def test_budget_demotes_biggest_savings_first(self):
        specs = _auto_specs()
        baseline = BackendRouter().route(specs)
        flit_works = [cell.estimates["flit"].work for cell in baseline]
        flow_works = [cell.estimates["flow"].work for cell in baseline]
        savings = [f - w for f, w in zip(flit_works, flow_works)]
        # Budget that only the single biggest demotion can satisfy.
        budget = sum(flit_works) - max(savings) * 0.5
        cells = BackendRouter(budget=budget).route(specs)
        demoted = [cell for cell in cells if cell.chosen == "flow"]
        assert len(demoted) == 1
        assert demoted[0].reason == "budget"
        # The demoted cell is the one with the largest savings ("huge").
        assert demoted[0].spec.params_dict["load"] == "huge"
        assert sum(cell.work for cell in cells) <= budget

    def test_budget_can_demote_everything(self):
        specs = _auto_specs()
        baseline = BackendRouter().route(specs)
        flow_total = sum(cell.estimates["flow"].work for cell in baseline)
        cells = BackendRouter(budget=flow_total * 1.001).route(specs)
        assert all(cell.chosen == "flow" for cell in cells)
        assert sum(cell.work for cell in cells) <= flow_total * 1.001

    def test_impossible_budget_raises(self):
        specs = _auto_specs()
        baseline = BackendRouter().route(specs)
        flow_total = sum(cell.estimates["flow"].work for cell in baseline)
        with pytest.raises(BudgetError, match="cheapest routing"):
            BackendRouter(budget=flow_total * 0.5).route(specs)

    def test_router_validation(self):
        with pytest.raises(ValueError):
            BackendRouter(budget=0.0)
        with pytest.raises(ValueError):
            BackendRouter(budget=-1.0)

    def test_budget_over_unmodelled_backend_is_an_error(self):
        """A cell pinned to an unknown backend fails at plan time."""
        spec = RunSpec.make("_router-toy", {"load": "tiny"}, backend="fancy")
        with pytest.raises(BackendError, match="fancy.*flit, flow"):
            BackendRouter(budget=100.0).route([spec])
        with pytest.raises(BackendError, match="fancy.*flit, flow"):
            BackendRouter().route([spec])

    def test_plan_campaign_annotates_costs_and_budget(self):
        plan = plan_campaign(
            ["_router-toy"],
            backend=AUTO_BACKEND,
            router=BackendRouter(budget=1e12),
        )
        assert len(plan.costs) == len(plan.specs) == len(_RT_MESSAGES)
        assert plan.budget == 1e12
        assert plan.total_work == pytest.approx(sum(c.work for c in plan.costs))
        text = plan.describe()
        assert "estimated work:" in text
        assert "budget:" in text
        assert plan.specs[0].spec_hash() in text

    def test_blind_plans_stay_unannotated(self):
        plan = plan_campaign(["_router-toy"])
        assert plan.costs == () and plan.total_work is None
        assert "estimated work" not in plan.describe()


# -- audit selection & execution ----------------------------------------------------

def _flow_plan(loads=("tiny", "small"), seed=DEFAULT_SEED):
    """A fully flow-routed toy plan (budget pressure demotes every cell)."""
    baseline = plan_campaign(
        ["_router-toy"], overrides={"load": loads}, backend=AUTO_BACKEND, seed=seed
    )
    flow_total = sum(cell.estimates["flow"].work for cell in baseline.costs)
    return plan_campaign(
        ["_router-toy"],
        overrides={"load": loads},
        backend=AUTO_BACKEND,
        seed=seed,
        router=BackendRouter(budget=flow_total * 1.001),
    )


class TestAuditSelection:
    def test_sample_is_deterministic_and_in_plan_order(self):
        plan = _flow_plan(loads=tuple(_RT_MESSAGES))
        once = select_audit_pairs(plan, 0.5)
        twice = select_audit_pairs(plan, 0.5)
        assert once == twice
        assert len(once) == math.ceil(0.5 * len(plan))
        order = [spec for spec in plan]
        indices = [order.index(flow_spec) for flow_spec, _ in once]
        assert indices == sorted(indices)

    def test_any_positive_fraction_audits_at_least_one_cell(self):
        plan = _flow_plan()
        assert len(select_audit_pairs(plan, 0.01)) == 1

    def test_zero_fraction_and_flit_plans_audit_nothing(self):
        assert select_audit_pairs(_flow_plan(), 0.0) == []
        flit_plan = plan_campaign(["_router-toy"], overrides={"load": ("tiny",)})
        assert select_audit_pairs(flit_plan, 1.0) == []

    def test_flow_only_scenarios_are_excluded(self):
        plan = plan_campaign(
            ["bisection-stress-large"],
            overrides={"mode": ("ADAPTIVE_0",), "noise": ("none",)},
            backend="flow",
        )
        assert select_audit_pairs(plan, 1.0) == []

    def test_twin_is_a_flit_spec_with_audit_provenance(self):
        plan = _flow_plan()
        for flow_spec, twin in select_audit_pairs(plan, 1.0):
            assert twin.backend == "flit" and twin.routed_from == "audit"
            assert twin.scenario == flow_spec.scenario
            assert twin.params == flow_spec.params
            assert twin.scale == flow_spec.scale and twin.seed == flow_spec.seed
            assert twin.spec_hash() != flow_spec.spec_hash()
            # An audit twin must never alias a plain (cacheable) flit run.
            plain = RunSpec.make(
                twin.scenario, twin.params_dict, scale=twin.scale,
                seed=twin.seed, backend="flit",
            )
            assert twin.spec_hash() != plain.spec_hash()
            assert twin.label().endswith("@flit(audit)")


class TestAuditExecution:
    def test_metric_deltas_compares_shared_metrics_only(self):
        flow = {"metrics": {"a": 2.0, "b": 0.0, "flow_only": 1.0}}
        flit = {"metrics": {"a": 1.0, "b": 0.0, "flit_only": 2.0}}
        deltas = metric_deltas(flow, flit)
        assert set(deltas) == {"a", "b"}
        assert deltas["a"] == {"flow": 2.0, "flit": 1.0, "delta": 1.0, "rel": 1.0}
        assert "rel" not in deltas["b"]  # zero flit value: no relative delta
        assert metric_deltas({}, flit) == {}

    def test_audit_post_pass_records_and_persists_deltas(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        plan = _flow_plan()
        result = execute_plan(plan, store=store, audit_fraction=1.0)
        assert result.failed == 0
        assert len(result.audits) == len(plan)
        assert "audit(s)" in result.summary()
        for audit in result.audits:
            assert audit.ok and audit.twin.backend == "flit"
            assert "total" in audit.deltas
            assert store.has_audit(audit.spec)
            payload = store.load_audit(audit.spec)
            assert payload["flit_hash"] == audit.twin.spec_hash()
            assert payload["metrics"] == audit.deltas
            # The twin ran with a foreign (flow-derived) seed, so its
            # result must NOT enter the ordinary run cache.
            assert not store.has(audit.twin)

    def test_audit_twin_runs_in_the_flow_cells_rng_universe(self, tmp_path):
        """Same derived seed => the seed-driven toy metrics match exactly."""
        plan = _flow_plan()
        result = execute_plan(plan, audit_fraction=1.0)
        for audit in result.audits:
            assert audit.deltas["total"]["delta"] == 0.0
            assert audit.max_abs_rel() == 0.0

    def test_audits_are_cached_by_flow_hash_on_rerun(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        plan = _flow_plan()
        first = execute_plan(plan, store=store, audit_fraction=1.0)
        assert all(not audit.record.cached for audit in first.audits)
        second = execute_plan(plan, store=store, audit_fraction=1.0)
        assert all(audit.record.cached for audit in second.audits)
        assert [a.deltas for a in first.audits] == [a.deltas for a in second.audits]

    def test_audits_skipped_without_flow_cells(self, tmp_path):
        plan = plan_campaign(["_router-toy"], overrides={"load": ("tiny",)})
        result = execute_plan(plan, audit_fraction=1.0)
        assert result.audits == []


# -- CLI ----------------------------------------------------------------------------

class TestCliOverrides:
    def test_valid_overrides_still_parse(self):
        assert parse_override("x=1,2") == ("x", [1, 2])
        assert parse_override("b=true") == ("b", [True])

    def test_empty_value_list_names_the_axis(self):
        with pytest.raises(ValueError, match="lists no values for axis 'x'"):
            parse_override("x=")
        with pytest.raises(ValueError, match="lists no values"):
            parse_override("x=   ")

    def test_empty_token_reports_position(self):
        with pytest.raises(ValueError, match="empty value at position 2"):
            parse_override("x=1,,2")
        with pytest.raises(ValueError, match="empty value at position 1"):
            parse_override("x=,5")

    def test_missing_axis_name_rejected(self):
        with pytest.raises(ValueError, match="names no axis"):
            parse_override("=1,2")


class TestCliAuto:
    """Acceptance: `repro campaign run --backend auto` routes, budgets, audits."""

    def _budget_for(self, overrides):
        baseline = plan_campaign(
            ["pingpong-placement"], overrides=overrides, backend=AUTO_BACKEND
        )
        flow_total = sum(cell.estimates["flow"].work for cell in baseline.costs)
        flit_total = sum(cell.estimates["flit"].work for cell in baseline.costs)
        budget = flow_total * 1.5
        assert budget < flit_total  # the budget genuinely forces flow routing
        return budget

    def test_auto_campaign_routes_within_budget_and_audits(self, tmp_path, capsys):
        overrides = {
            "placement": ("inter-groups",),
            "message_kib": (4,),
            "noise": ("none", "light"),
        }
        budget = self._budget_for(overrides)
        args = [
            "run", "pingpong-placement",
            "--backend", "auto",
            "--budget", str(budget),
            "--audit-fraction", "1.0",
            "--set", "placement=inter-groups",
            "--set", "message_kib=4",
            "--set", "noise=none,light",
            "--store", str(tmp_path / "store"),
        ]
        # Dry run: every cell resolved to a concrete backend at plan time,
        # the budget report printed, and the audit schedule announced.
        assert campaign_main(args + ["--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "@flow(auto)" in out
        assert "@auto" not in out.replace("@flow(auto)", "")  # nothing unresolved
        assert "budget:" in out and "within budget" in out
        assert "audits: 2 flit re-run(s) scheduled" in out

        # Real run: flow cells executed, >=1 flit audit re-run, deltas stored.
        assert campaign_main(args) == 0
        out = capsys.readouterr().out
        assert "[audit]" in out
        store = ArtifactStore(tmp_path / "store")
        assert len(store.audit_index()) == 2
        audit_files = sorted((tmp_path / "store" / "audits").glob("*.json"))
        assert len(audit_files) == 2
        payload = json.loads(audit_files[0].read_text())
        assert payload["flow_spec"]["routed_from"] == "auto"
        assert payload["flit_spec"]["backend"] == "flit"
        assert payload["metrics"]  # flow-vs-flit deltas persisted
        # The plan stayed within the requested budget estimate.
        plan = plan_campaign(
            ["pingpong-placement"],
            overrides=overrides,
            backend=AUTO_BACKEND,
            router=BackendRouter(budget=budget),
        )
        assert plan.total_work <= budget

    def test_auto_campaign_is_cached_on_rerun(self, tmp_path, capsys):
        overrides = {
            "placement": ("inter-groups",),
            "message_kib": (4,),
            "noise": ("none",),
        }
        budget = self._budget_for(overrides)
        args = [
            "run", "pingpong-placement",
            "--backend", "auto",
            "--budget", str(budget),
            "--audit-fraction", "1.0",
            "--set", "placement=inter-groups",
            "--set", "message_kib=4",
            "--set", "noise=none",
            "--store", str(tmp_path / "store"),
        ]
        assert campaign_main(args) == 0
        capsys.readouterr()
        assert campaign_main(args) == 0
        out = capsys.readouterr().out
        assert "0 executed, 1 cached" in out
        assert "cached, max |rel delta|" in out or "(cached" in out

    def test_impossible_budget_is_a_clean_error(self, tmp_path, capsys):
        code = campaign_main(
            [
                "run", "_router-toy",
                "--backend", "auto",
                "--budget", "0.001",
                "--store", str(tmp_path / "store"),
            ]
        )
        assert code == 2
        assert "budget error" in capsys.readouterr().err

    def test_invalid_audit_fraction_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            campaign_main(
                ["run", "_router-toy", "--audit-fraction", "2.0",
                 "--store", str(tmp_path / "store")]
            )

    def test_status_reports_audits(self, tmp_path, capsys):
        store = ArtifactStore(tmp_path / "store")
        plan = _flow_plan()
        execute_plan(plan, store=store, audit_fraction=1.0)
        capsys.readouterr()
        assert campaign_main(["status", "--store", str(tmp_path / "store")]) == 0
        out = capsys.readouterr().out
        assert "flow-vs-flit delta(s)" in out


# -- history-seeded cost estimates --------------------------------------------------

class TestCostHistory:
    """Recorded elapsed_s history overriding the static proxies (PR-4 follow-on)."""

    def _store_with_history(self, tmp_path, runs, backend="flit", elapsed=2.0):
        from repro.campaign import CostHistory

        store = ArtifactStore(tmp_path / "history-store")
        for i in range(runs):
            spec = RunSpec.make(
                "_router-toy", {"load": "tiny"}, seed=1000 + i, backend=backend
            )
            store.save(spec, {"metrics": {"total": 1.0}}, elapsed=elapsed + 0.1 * i)
        return store, CostHistory.from_store(store)

    def test_three_runs_override_the_static_proxy(self, tmp_path):
        from repro.campaign.router import HISTORY_UNITS_PER_SECOND

        _, history = self._store_with_history(tmp_path, runs=3, elapsed=2.0)
        spec = RunSpec.make("_router-toy", {"load": "tiny"}, backend="flit")
        estimates = estimate_cell(spec, history=history)
        estimate = estimates["flit"]
        assert estimate.detail["history_runs"] == 3.0
        # Median of 2.0, 2.1, 2.2 seconds.
        assert estimate.work == pytest.approx(2.1 * HISTORY_UNITS_PER_SECOND)
        assert estimate.detail["history_median_s"] == pytest.approx(2.1)

    def test_two_runs_fall_back_to_the_proxy(self, tmp_path):
        _, history = self._store_with_history(tmp_path, runs=2)
        spec = RunSpec.make("_router-toy", {"load": "tiny"}, backend="flit")
        with_history = estimate_cell(spec, history=history)["flit"]
        without = estimate_cell(spec)["flit"]
        assert with_history.work == without.work
        assert "history_runs" not in with_history.detail

    def test_history_only_applies_to_matching_scale_and_backend(self, tmp_path):
        _, history = self._store_with_history(tmp_path, runs=3, backend="flit")
        flow_spec = RunSpec.make("_router-toy", {"load": "tiny"}, backend="flow")
        paper_spec = RunSpec.make(
            "_router-toy", {"load": "tiny"}, scale="paper", backend="flit"
        )
        assert "history_runs" not in estimate_cell(flow_spec, history=history)["flow"].detail
        assert "history_runs" not in estimate_cell(paper_spec, history=history)["flit"].detail

    def test_router_consumes_history(self, tmp_path):
        from repro.campaign import CostHistory
        from repro.campaign.router import HISTORY_UNITS_PER_SECOND

        _, history = self._store_with_history(tmp_path, runs=4, elapsed=5.0)
        cells = BackendRouter(history=history).route(
            [RunSpec.make("_router-toy", {"load": "tiny"}, backend="flit")]
        )
        assert cells[0].estimates["flit"].detail["history_runs"] == 4.0
        assert cells[0].work == pytest.approx(5.15 * HISTORY_UNITS_PER_SECOND)

    def test_history_can_flip_an_auto_routing_under_budget(self, tmp_path):
        """Measured history re-orders demotion: the cell the proxy thought
        cheap on flow is measured expensive there, so a budget now keeps
        it on flit."""
        from repro.campaign import CostHistory

        store = ArtifactStore(tmp_path / "flip-store")
        for i in range(3):
            store.save(
                RunSpec.make("_router-toy", {"load": "tiny"}, seed=2000 + i,
                             backend="flit"),
                {"metrics": {"total": 1.0}},
                elapsed=0.001,  # measured: flit is nearly free here
            )
            store.save(
                RunSpec.make("_router-toy", {"load": "tiny"}, seed=2000 + i,
                             backend="flow"),
                {"metrics": {"total": 1.0}},
                elapsed=10.0,  # measured: flow is pathologically slow
            )
        history = CostHistory.from_store(store)
        spec = RunSpec.make("_router-toy", {"load": "tiny"}, backend=AUTO_BACKEND)
        # A budget between the proxies' flow and flit estimates demotes the
        # blind cell to flow...
        flow_proxy = estimate_cell(spec)["flow"].work
        blind = BackendRouter(budget=flow_proxy * 1.01).route([spec])
        assert blind[0].chosen == "flow"  # proxy says flow is the cheap escape
        # ... while the same squeeze under measured history keeps it on flit
        # (measured flit ~10 units fits; measured flow ~100k would not).
        seen = BackendRouter(budget=flow_proxy * 1.01, history=history).route([spec])
        assert seen[0].chosen == "flit"  # history knows flit is cheaper

    def test_from_store_tolerates_missing_store_and_bad_entries(self, tmp_path):
        from repro.campaign import CostHistory

        assert CostHistory.from_store(None).samples == {}
        store = ArtifactStore(tmp_path / "bad")
        spec = RunSpec.make("_router-toy", {"load": "tiny"})
        store.save(spec, {"metrics": {"total": 1.0}})  # no elapsed recorded
        history = CostHistory.from_store(store)
        assert history.work_for("_router-toy", "smoke", "flit") is None

    def test_cli_auto_uses_store_history(self, tmp_path, capsys):
        """The run CLI seeds the router from the store it executes into."""
        store_dir = str(tmp_path / "store")
        argv = [
            "run", "_router-toy", "--backend", "auto", "--set", "load=tiny",
            "--store", store_dir,
        ]
        # Three runs build history (forced so each one actually executes and
        # records a fresh elapsed_s)...
        assert campaign_main(argv) == 0
        assert campaign_main(argv + ["--force"]) == 0
        assert campaign_main(argv + ["--force"]) == 0
        capsys.readouterr()
        # ... and the fourth plans from it: the dry-run's estimate must be
        # history-scale (sub-second smoke cell ~ tens of units), not the
        # static proxy's tens of thousands.
        assert campaign_main(argv + ["--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "estimated work" in out
