"""Tests for the evaluation flows, specialization (TC/PPC/SCG), reconfiguration
cost model and the high-level VCGRA tool flow."""

import pytest

from repro.core.flows import compare_pe_flows, run_pe_flow
from repro.core.grid import VCGRAArchitecture
from repro.core.pe import PEOp, ProcessingElementSpec, build_pe_design
from repro.core.reconfiguration import HWICAP, MICAP, ReconfigurationCostModel
from repro.core.specialization import SpecializedConfigurationGenerator
from repro.core.toolflow import (
    ApplicationGraph,
    PEOperation,
    VCGRAToolflowError,
    run_vcgra_toolflow,
)
from repro.flopoco.arithmetic import fp_mac
from repro.flopoco.format import FPFormat
from repro.par.flow import place_and_route
from repro.synth.optimize import optimize
from repro.techmap import map_parameterized
from repro.techmap.mapping import NodeKind

TINY = FPFormat(we=4, wf=4)
SMALL = FPFormat(we=4, wf=6)


@pytest.fixture(scope="module")
def tiny_pe_comparison():
    """Both flows on a tiny PE, including PaR (kept small so tests stay fast)."""
    spec = ProcessingElementSpec(fmt=TINY, num_inputs=2, counter_width=4)
    return compare_pe_flows(
        spec=spec,
        do_par=True,
        channel_width=10,
        placement_effort=0.3,
        router_iterations=12,
        seed=1,
    )


class TestPEFlows:
    def test_mapping_only_flow(self):
        spec = ProcessingElementSpec(fmt=TINY, num_inputs=2, counter_width=4)
        circuit = build_pe_design(spec).circuit
        res = run_pe_flow(circuit, parameterized=True, do_par=False)
        assert res.par is None
        assert res.network.num_tcons() > 0
        assert "technology_mapping" in res.elapsed_seconds

    def test_comparison_shape_matches_paper(self, tiny_pe_comparison):
        cmp = tiny_pe_comparison
        conv = cmp.conventional.network
        par = cmp.parameterized.network
        # Headline result of Table I: the fully parameterized PE uses fewer
        # LUTs, has TCONs, and its depth does not increase.
        assert par.num_luts() < conv.num_luts()
        assert par.num_tcons() > 0
        assert conv.num_tcons() == 0
        assert par.depth() <= conv.depth()
        assert cmp.lut_reduction() > 0.05
        assert cmp.intra_network_lut_overhead() > 0

    def test_comparison_wirelength(self, tiny_pe_comparison):
        cmp = tiny_pe_comparison
        wl = cmp.wirelength_reduction()
        assert wl is not None
        # fewer blocks and nets must not increase wirelength
        assert wl > -0.05

    def test_table_rows_have_expected_keys(self, tiny_pe_comparison):
        table = tiny_pe_comparison.table()
        for row in table.values():
            for key in ("luts", "tluts", "tcons", "logic_depth", "wirelength"):
                assert key in row

    def test_functional_equivalence_of_both_flows(self):
        spec = ProcessingElementSpec(fmt=TINY, num_inputs=2, counter_width=4)
        circuit = build_pe_design(spec).circuit
        conv = run_pe_flow(circuit, parameterized=False, do_par=False).network
        par = run_pe_flow(circuit, parameterized=True, do_par=False).network
        fmt = spec.fmt
        sample, acc, coeff = fmt.encode(1.5), fmt.encode(-2.0), fmt.encode(0.75)
        params = {"coeff": coeff, "sel_a": 0, "sel_b": 1, "op": PEOp.MAC, "count_limit": 3}
        stim = {"in0": [sample], "in1": [acc], "count": [3]}
        out_c = conv.evaluate_words(stim, params)
        out_p = par.evaluate_words(stim, params)
        assert out_c == out_p
        expected = fp_mac(fmt, acc, sample, coeff)
        assert out_p["out"][0] == expected
        assert out_p["done"][0] == 1


class _ScanSCG(SpecializedConfigurationGenerator):
    """Oracle: the original linear scan over every mapped node per TCON."""

    def _consumer_site(self, tcon_node):
        for nid, node in enumerate(self.network.nodes):
            if node.kind in (NodeKind.LUT, NodeKind.TLUT) and tcon_node in node.inputs:
                site = self._node_site.get(nid)
                if site is not None:
                    return site
        return None


class TestSpecializationGenerator:
    @pytest.fixture(scope="class")
    def generator(self):
        spec = ProcessingElementSpec(fmt=TINY, num_inputs=2, counter_width=4)
        circuit = build_pe_design(spec).circuit
        opt, _ = optimize(circuit)
        network = map_parameterized(opt)
        par = place_and_route(network, channel_width=10, placement_effort=0.3,
                              router_iterations=10, seed=0)
        return spec, SpecializedConfigurationGenerator(network, par)

    def test_summary_counts(self, generator):
        _, scg = generator
        s = scg.summary()
        assert s["tluts"] == scg.network.num_tluts()
        assert s["tcons"] == scg.network.num_tcons()
        assert s["boolean_functions"] > 0
        assert s["ppc_bits"] > 0

    def test_specialization_produces_bitstream_and_frames(self, generator):
        spec, scg = generator
        fmt = spec.fmt
        out = scg.specialize({"coeff": fmt.encode(0.5), "sel_a": 0, "sel_b": 1,
                              "op": PEOp.MAC, "count_limit": 2})
        assert out.bitstream is not None
        assert out.num_frames > 0
        assert out.evaluation_seconds >= 0

    def test_coefficient_change_touches_bounded_frame_set(self, generator):
        spec, scg = generator
        fmt = spec.fmt
        base = {"sel_a": 0, "sel_b": 1, "op": PEOp.MAC, "count_limit": 2}
        scg.specialize({"coeff": fmt.encode(0.5), **base})
        changed = scg.specialize({"coeff": fmt.encode(-1.75), **base})
        # a coefficient change must rewrite something, but only frames holding
        # tunable elements -- never more than the full tunable footprint
        full_footprint = scg._layout.frames_for_tiles(
            changed.bitstream.configured_tiles()
        )
        assert 1 <= changed.num_frames <= len(full_footprint)

    def test_tcon_sites_match_linear_scan(self, generator):
        spec, scg = generator
        fmt = spec.fmt
        fast = SpecializedConfigurationGenerator(scg.network, scg.par)
        oracle = _ScanSCG(scg.network, scg.par)
        for value, op in [(0.5, PEOp.MAC), (-1.75, PEOp.MAC), (3.0, PEOp.MAC),
                          (0.125, PEOp.MAC), (-0.5, PEOp.MAC), (1.5, PEOp.MAC),
                          (0.5, PEOp.MUL), (0.5, PEOp.MAC)]:
            params = {"coeff": fmt.encode(value), "sel_a": 0, "sel_b": 1,
                      "op": op, "count_limit": 2}
            got, want = fast.specialize(params), oracle.specialize(params)
            assert want.bitstream.routing_configs
            assert got.bitstream.lut_configs == want.bitstream.lut_configs
            assert got.bitstream.routing_configs == want.bitstream.routing_configs
            assert got.frames_touched == want.frames_touched

    def test_identical_parameters_touch_no_frames(self, generator):
        spec, scg = generator
        fmt = spec.fmt
        params = {"coeff": fmt.encode(1.5), "sel_a": 0, "sel_b": 1,
                  "op": PEOp.MAC, "count_limit": 1}
        scg.specialize(params)
        again = scg.specialize(params)
        assert again.num_frames == 0


class TestReconfigurationModel:
    def test_paper_estimate_reproduced(self):
        model = ReconfigurationCostModel(HWICAP)
        # Paper: 526 TLUTs + 568 TCONs -> approximately 251 ms per PE.
        t = model.estimate_time_ms(526, 568)
        assert 200 <= t <= 300

    def test_micap_is_faster(self):
        slow = ReconfigurationCostModel(HWICAP).estimate_time_ms(526, 568)
        fast = ReconfigurationCostModel(MICAP).estimate_time_ms(526, 568)
        assert fast < slow

    def test_time_scales_with_elements(self):
        model = ReconfigurationCostModel()
        assert model.estimate_time_ms(100, 100) < model.estimate_time_ms(500, 500)

    def test_frame_based_time(self):
        model = ReconfigurationCostModel(HWICAP)
        assert model.time_from_frames_ms(0) == 0
        assert model.time_from_frames_ms(100) == pytest.approx(
            100 * HWICAP.frame_rmw_us / 1000.0
        )

    def test_amortization_example(self):
        model = ReconfigurationCostModel(HWICAP)
        t = model.estimate_time_ms(526, 568)
        amortized = model.amortized_overhead(t, items_per_configuration=1000,
                                             time_per_item_ms=5.0)
        assert amortized["per_item_overhead_ms"] == pytest.approx(t / 1000)
        assert 0 < amortized["overhead_fraction"] < 1

    def test_amortization_rejects_bad_input(self):
        with pytest.raises(ValueError):
            ReconfigurationCostModel().amortized_overhead(10.0, 0, 1.0)


def simple_filter_app(taps=3):
    """A small MAC chain: out = sum_i coeff_i * x  (systolic accumulation)."""
    app = ApplicationGraph("fir", external_inputs=["x", "zero"])
    prev = "zero"
    for i in range(taps):
        app.add_operation(
            PEOperation(
                name=f"mac{i}",
                op=PEOp.MAC,
                coefficient=0.5 + i,
                count_limit=1,
                sample_input="x",
                acc_input=prev,
            )
        )
        prev = f"mac{i}"
    app.add_output("y", prev)
    return app


class TestVCGRAToolflow:
    def test_small_filter_maps_onto_grid(self):
        arch = VCGRAArchitecture(rows=4, cols=4,
                                 pe_spec=ProcessingElementSpec(fmt=SMALL))
        report = run_vcgra_toolflow(simple_filter_app(4), arch)
        assert report.pes_used == 4
        assert report.settings.num_enabled() == 4
        assert report.total_seconds < 1.0
        # chained MACs must sit in consecutive rows
        rows = [report.placement[f"mac{i}"][0] for i in range(4)]
        assert rows == sorted(rows)

    def test_settings_hold_encoded_coefficients(self):
        arch = VCGRAArchitecture(rows=4, cols=4,
                                 pe_spec=ProcessingElementSpec(fmt=SMALL))
        report = run_vcgra_toolflow(simple_filter_app(2), arch)
        pos = report.placement["mac0"]
        settings = report.settings.pe_settings[pos]
        assert settings.coefficient == SMALL.encode(0.5)
        assert settings.op == PEOp.MAC

    def test_broadcast_input_binds_every_consumer(self):
        # Regression: one external stream feeding multiple PEs used to keep
        # only the last binding, silently starving the other consumers.
        arch = VCGRAArchitecture(rows=2, cols=4,
                                 pe_spec=ProcessingElementSpec(fmt=SMALL))
        app = ApplicationGraph("broadcast", external_inputs=["x"])
        for i in range(3):
            app.add_operation(PEOperation(name=f"m{i}", op=PEOp.MUL,
                                          coefficient=float(i + 1),
                                          sample_input="x"))
        app.add_output("y0", "m0")
        app.add_output("y1", "m1")
        app.add_output("y2", "m2")
        report = run_vcgra_toolflow(app, arch)
        bindings = report.settings.input_bindings["x"]
        assert len(bindings) == 3
        assert {report.placement[f"m{i}"] for i in range(3)} == {
            pos for pos, _port in bindings
        }
        # The simulator must drive all three consumers from the one stream.
        from repro.vsim.simulator import VCGRASimulator

        sim = VCGRASimulator(arch, report.settings)
        trace = sim.run({"x": [2.0]})
        assert trace.outputs["y0"][0] == pytest.approx(2.0, rel=1e-3)
        assert trace.outputs["y1"][0] == pytest.approx(4.0, rel=1e-3)
        assert trace.outputs["y2"][0] == pytest.approx(6.0, rel=1e-3)

    def test_too_deep_application_rejected(self):
        arch = VCGRAArchitecture(rows=2, cols=2,
                                 pe_spec=ProcessingElementSpec(fmt=SMALL))
        with pytest.raises(VCGRAToolflowError):
            run_vcgra_toolflow(simple_filter_app(5), arch)

    def test_too_wide_level_rejected(self):
        arch = VCGRAArchitecture(rows=2, cols=2,
                                 pe_spec=ProcessingElementSpec(fmt=SMALL))
        app = ApplicationGraph("wide", external_inputs=["x"])
        for i in range(3):
            app.add_operation(PEOperation(name=f"m{i}", op=PEOp.MUL,
                                          coefficient=1.0, sample_input="x"))
        app.add_output("y", "m0")
        with pytest.raises(VCGRAToolflowError):
            run_vcgra_toolflow(app, arch)

    def test_unknown_input_rejected(self):
        app = ApplicationGraph("bad", external_inputs=["x"])
        app.add_operation(PEOperation(name="m", op=PEOp.MAC,
                                      sample_input="x", acc_input="ghost"))
        app.add_output("y", "m")
        with pytest.raises(VCGRAToolflowError):
            app.validate()

    def test_cycle_rejected(self):
        app = ApplicationGraph("loop", external_inputs=["x"])
        app.add_operation(PEOperation(name="a", sample_input="x", acc_input="b"))
        app.add_operation(PEOperation(name="b", sample_input="a"))
        app.add_output("y", "b")
        with pytest.raises(VCGRAToolflowError):
            app.validate()

    def test_duplicate_names_rejected(self):
        app = ApplicationGraph("dup", external_inputs=["x"])
        app.add_operation(PEOperation(name="a", sample_input="x"))
        with pytest.raises(ValueError):
            app.add_operation(PEOperation(name="a", sample_input="x"))

    def test_register_image_diff_between_applications(self):
        arch = VCGRAArchitecture(rows=4, cols=4,
                                 pe_spec=ProcessingElementSpec(fmt=SMALL))
        r1 = run_vcgra_toolflow(simple_filter_app(3), arch)
        app2 = simple_filter_app(3)
        app2.operations["mac1"].coefficient = 9.0
        r2 = run_vcgra_toolflow(app2, arch)
        diff = r1.settings.diff(r2.settings)
        assert len(diff) == 1
