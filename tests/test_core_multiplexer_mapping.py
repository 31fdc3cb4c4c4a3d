"""Unit tests for the thermal monitor."""

import pytest

from repro.core import ThermalMonitor
from repro.oscillator import RingConfiguration
from repro.tech import CMOS035, TechnologyError
from repro.thermal import Floorplan


@pytest.fixture(scope="module")
def monitor_report(tech):
    floorplan = Floorplan.example_processor()
    floorplan.add_sensor_grid(2, 2)
    monitor = ThermalMonitor(
        tech,
        floorplan,
        RingConfiguration.parse("2INV+3NAND2"),
        grid_resolution=16,
    )
    monitor.calibrate(-50.0, 150.0)
    return monitor, monitor.scan()


class TestThermalMonitor:
    def test_requires_sensor_sites(self, tech):
        with pytest.raises(TechnologyError):
            ThermalMonitor(tech, Floorplan.example_processor(), RingConfiguration.uniform("INV", 5))

    def test_scan_requires_calibration(self, tech):
        floorplan = Floorplan.example_processor()
        floorplan.add_sensor_grid(2, 2)
        monitor = ThermalMonitor(
            tech, floorplan, RingConfiguration.uniform("INV", 5), grid_resolution=16
        )
        with pytest.raises(TechnologyError):
            monitor.scan()

    def test_site_errors_small(self, monitor_report):
        _, report = monitor_report
        assert report.worst_site_error_c() < 1.0

    def test_true_map_has_gradient(self, monitor_report):
        _, report = monitor_report
        assert report.true_map.gradient_c() > 2.0

    def test_reconstruction_error_bounded(self, monitor_report):
        _, report = monitor_report
        assert report.map_rms_error_c() < report.true_map.gradient_c()

    def test_overheating_detection_threshold(self, monitor_report):
        monitor, report = monitor_report
        none_hot = monitor.detect_overheating(report, threshold_c=500.0)
        all_hot = monitor.detect_overheating(report, threshold_c=-100.0)
        assert none_hot == []
        assert len(all_hot) == 4

    def test_reconstructed_map_within_true_range(self, monitor_report):
        _, report = monitor_report
        assert report.reconstructed_map.max_c() <= report.true_map.max_c() + 1.0
        assert report.reconstructed_map.min_c() >= report.true_map.min_c() - 1.0
