"""Unit tests for the hardware specification layer."""

import pytest

from repro.hardware import (
    EFLOPS_NODE,
    GN6E_NODE,
    GPU_V100_SXM2,
    NET_RDMA_100G,
    NET_TCP_32G,
    eflops_cluster,
    gn6e_cluster,
)
from repro.hardware.specs import LinkSpec, gbps, gib, gbytes_per_s


class TestUnitHelpers:
    def test_gbps_converts_bits_to_bytes(self):
        assert gbps(8) == pytest.approx(1e9)

    def test_gib(self):
        assert gib(1) == 1 << 30

    def test_gbytes_per_s(self):
        assert gbytes_per_s(1.5) == pytest.approx(1.5e9)


class TestPresets:
    def test_v100_specs_are_plausible(self):
        assert GPU_V100_SXM2.sm_count == 80
        assert 10e12 < GPU_V100_SXM2.fp32_flops < 20e12
        assert GPU_V100_SXM2.hbm_bytes == gib(32)

    def test_network_presets_derate_line_rate(self):
        assert NET_TCP_32G.bandwidth < gbps(32)
        assert NET_RDMA_100G.bandwidth < gbps(100)
        assert NET_RDMA_100G.latency < NET_TCP_32G.latency

    def test_gn6e_node_matches_tab1(self):
        assert GN6E_NODE.gpus_per_node == 8
        assert GN6E_NODE.has_nvlink
        assert GN6E_NODE.cpu.physical_cores == 96

    def test_eflops_node_matches_tab1(self):
        assert EFLOPS_NODE.gpus_per_node == 1
        assert not EFLOPS_NODE.has_nvlink
        assert EFLOPS_NODE.cpu.physical_cores == 104


class TestClusters:
    def test_gn6e_worker_count(self):
        assert gn6e_cluster(2).num_workers == 16

    def test_eflops_worker_count(self):
        assert eflops_cluster(16).num_workers == 16

    def test_with_nodes_scales(self):
        cluster = eflops_cluster(4)
        bigger = cluster.with_nodes(128)
        assert bigger.num_nodes == 128
        assert cluster.num_nodes == 4  # original untouched

    def test_with_nodes_rejects_zero(self):
        with pytest.raises(ValueError):
            eflops_cluster(4).with_nodes(0)

    def test_cluster_spec_rejects_bad_node_counts(self):
        for nodes in (0, -8, 2.5):
            with pytest.raises(ValueError, match="num_nodes"):
                eflops_cluster(nodes)

    def test_cluster_is_frozen(self):
        cluster = eflops_cluster(4)
        with pytest.raises(AttributeError):
            cluster.num_nodes = 7


class TestLinkSpec:
    def test_link_fields(self):
        link = LinkSpec(name="x", bandwidth=1e9, latency=1e-6)
        assert link.duplex
