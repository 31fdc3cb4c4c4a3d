"""The paper's contribution: the smart temperature sensor and its unit.

* :class:`~repro.core.sensor.SmartTemperatureSensor` — ring oscillator +
  counter readout + controller + calibration.
* :class:`~repro.core.sensor_bank.SensorBank` — the shared readout of
  several distributed sensors, scanned in one broadcast pass.
* :class:`~repro.core.mapping.ThermalMonitor` — distributed sensors on a
  floorplan with full-die thermal-map reconstruction.
* :class:`~repro.core.thermal_manager.DynamicThermalManager` — the
  closed throttling loop driven by the bank's readings.
"""

from .readout import PeriodCounter, ReadoutConfig
from .controller import (
    ControllerConfig,
    ControllerState,
    ControllerStatus,
    MeasurementController,
)
from .calibration import (
    CalibrationError,
    LinearCalibration,
    design_calibration,
    one_point_calibration,
    two_point_calibration,
)
from .sensor import SensorReading, SensorTransferFunction, SmartTemperatureSensor
from .sensor_bank import BankScan, SensorBank
from .mapping import ThermalMonitor, ThermalMonitorReport
from .thermal_manager import (
    DtmBankResult,
    DtmResult,
    DtmTracePoint,
    DynamicThermalManager,
    PerformanceState,
    PolicyBank,
    ThrottlingPolicy,
)

__all__ = [
    "PeriodCounter",
    "ReadoutConfig",
    "ControllerConfig",
    "ControllerState",
    "ControllerStatus",
    "MeasurementController",
    "CalibrationError",
    "LinearCalibration",
    "design_calibration",
    "one_point_calibration",
    "two_point_calibration",
    "SensorReading",
    "SensorTransferFunction",
    "SmartTemperatureSensor",
    "BankScan",
    "SensorBank",
    "ThermalMonitor",
    "ThermalMonitorReport",
    "DtmBankResult",
    "DtmResult",
    "DtmTracePoint",
    "DynamicThermalManager",
    "PerformanceState",
    "PolicyBank",
    "ThrottlingPolicy",
]
