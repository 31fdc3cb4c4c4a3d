"""repro — Smart ring-oscillator temperature sensor for cell-based ICs.

A from-scratch Python reproduction of *"Smart Temperature Sensor for
Thermal Testing of Cell-Based ICs"* (Bota, Rosales, Segura — DATE 2005):
a built-in temperature sensor made only of standard library gates, whose
ring-oscillator period tracks junction temperature, linearised by
choosing the right mix of cells, and wrapped in a digital smart unit
(counter readout, enable/busy control, thermal mapping from a bank of
distributed sensors).

Subpackages
-----------

``repro.tech``
    Technology parameters and their temperature dependence, process
    corners, scaling.
``repro.devices``
    MOSFET (alpha-power law), diode and passive device models.
``repro.circuit``
    Small MNA circuit simulator (DC + transient) and waveform analysis.
``repro.delay``
    Analytical alpha-power gate-delay and load models.
``repro.cells``
    Standard-cell library (INV/NAND/NOR/BUF), characterisation, Liberty
    export.
``repro.oscillator``
    Ring-oscillator construction, configurations, temperature response.
``repro.core``
    The paper's contribution: the smart sensor, readout, controller,
    calibration, sensor bank, thermal monitor and thermal management.
``repro.thermal``
    Die floorplan, power maps, compact thermal RC model and solvers.
``repro.analysis``
    Non-linearity, sensitivity, resolution and Monte-Carlo analysis.
``repro.baselines``
    Diode (delta-VBE) and FPGA-style ring baselines.
``repro.optimize``
    Transistor-sizing sweep and cell-mix search.
``repro.engine``
    Vectorized batch evaluation of rings, sensors and Monte-Carlo
    populations.
``repro.serve``
    The engine as a persistent network service: NDJSON over asyncio
    TCP, content-addressed result caching, micro-batched point
    queries (``repro-serve`` / ``python -m repro.serve``).
``repro.experiments``
    One entry point per paper figure / claim (used by benchmarks).

Quick start
-----------

>>> from repro import CMOS035, RingConfiguration, SmartTemperatureSensor
>>> sensor = SmartTemperatureSensor.from_configuration(
...     CMOS035, RingConfiguration.parse("2INV+3NAND2"))
>>> _ = sensor.calibrate_two_point(-40.0, 125.0)
>>> reading = sensor.measure(85.0)
>>> abs(reading.temperature_estimate_c - 85.0) < 2.0
True

Performance & batch evaluation
------------------------------

The whole analytical stack broadcasts over ndarray temperature grids
*and* over stacked leading axes: a Monte-Carlo or corner population
stored as a struct-of-arrays :class:`repro.tech.TechnologyArray` flows
through the device models (:mod:`repro.tech.temperature`), the
alpha-power delay model (:mod:`repro.delay.alpha_power`), cell delays
(:meth:`repro.cells.StandardCell.delays`) and the ring period
(:meth:`repro.oscillator.RingOscillator.period_series`) as one
broadcast, and many ring configurations stack into a
:class:`repro.oscillator.ConfigurationBank` so the Fig. 3 x
Monte-Carlo cross product evaluates as a single
``(config, sample, temperature)`` broadcast.

Workloads are declared on named axes through the sweep API
(:mod:`repro.engine.sweep`) — compose :class:`repro.engine.Axis`
objects over a base context, pick an observable, and get a labeled
:class:`repro.engine.SweepResult` back:

>>> import numpy as np
>>> from repro import Axis, CMOS035, PAPER_FIG3_CONFIGURATIONS, Sweep
>>> result = (
...     Sweep(technology=CMOS035)
...     .over(Axis.configuration(PAPER_FIG3_CONFIGURATIONS))
...     .over(Axis.temperature(np.linspace(-50.0, 150.0, 41)))
...     .run()
... )
>>> result.dims
('configuration', 'temperature')
>>> result.select(configuration="5INV").values.shape
(41,)

Technology nodes themselves are a sweep axis — ``Axis.technology``
evaluates one banked sweep per node and stacks the results, so a
scaling study is a declaration, not a hand-written loop:

>>> study = (
...     Sweep(configuration="2INV+3NAND2")
...     .over(Axis.technology(["cmos035", "cmos018"]))
...     .over(Axis.temperature(np.linspace(-40.0, 125.0, 12)))
...     .run()
... )
>>> study.dims
('technology', 'temperature')

Technology identity is content-addressed: every registered node gets a
SHA-256 digest of its canonical parameter bundle, serialized specs
reference nodes as ``{"name", "digest"}`` objects, and a receiving
registry that binds the same name to different physics refuses the
spec (``repro.tech.registry``, ``TechnologyMismatchError``; the sweep
service reports it as the structured ``tech-mismatch`` error code).
Re-registering a node under the same name therefore changes every
cache key that mentions it — stale cached results cannot be served
across re-registrations, in memory or from a shared disk cache.

Every workload has one evaluation path: the :class:`Sweep`
broadcast.  The workload functions (``run_monte_carlo``,
``sweep_width_ratio``, ``search_cell_mix``, the experiments) are
written on it, so they need no engine object:

>>> from repro.analysis import run_monte_carlo
>>> study = run_monte_carlo(
...     CMOS035, RingConfiguration.parse("2INV+3NAND2"), sample_count=25)
>>> study.sample_count
25

The one-point-at-a-time scalar loops the broadcast replaced live in the
test suite, not in the package: ``tests/oracles.py`` holds them, and
``tests/test_engine_equivalence.py`` /
``tests/test_stacked_equivalence.py`` / ``tests/test_sweep_api.py``
pin the broadcast paths to them at a relative tolerance of 1e-9 on
periods.

Environment knobs
-----------------

The only settings the package reads from the environment.  The
``repro-experiments`` flags ``--executor``/``--workers``/
``--tile-elements`` set them for a run; explicit keyword arguments in
code win over both.

=========================================  ==================================================
variable                                   meaning (default)
=========================================  ==================================================
``REPRO_SWEEP_EXECUTOR``                   sweep execution backend: ``dense`` | ``serial`` |
                                           ``process`` (``dense``)
``REPRO_SWEEP_WORKERS``                    worker count of the ``process`` backend
                                           (cpu count)
``REPRO_SWEEP_TILE_ELEMENTS``              per-tile element budget of tiled backends
                                           (``2**20``, an 8 MiB tile)
=========================================  ==================================================
"""

from .fields import ReproInputError
from .tech import (
    CMOS013,
    CMOS018,
    CMOS025,
    CMOS035,
    Technology,
    TechnologyArray,
    TechnologyError,
    TransistorParameters,
    get_technology,
    sample_technology_array,
    stack_technologies,
)
from .cells import CellLibrary, StandardCell, default_library
from .oscillator import (
    PAPER_FIG3_CONFIGURATIONS,
    ConfigurationBank,
    RingConfiguration,
    RingOscillator,
    TemperatureResponse,
    analytical_response,
)
from .analysis import nonlinearity, sensitivity_report
from .engine import (
    Axis,
    ProcessExecutor,
    SerialExecutor,
    Sweep,
    SweepResult,
)
from .core import (
    LinearCalibration,
    ReadoutConfig,
    SensorBank,
    SmartTemperatureSensor,
    ThermalMonitor,
)
from .thermal import (
    Floorplan,
    PowerMap,
    ThermalGrid,
    ThermalOperator,
    solve_steady_state,
)

__version__ = "1.0.0"

__all__ = [
    "ReproInputError",
    "CMOS013",
    "CMOS018",
    "CMOS025",
    "CMOS035",
    "Technology",
    "TechnologyArray",
    "TechnologyError",
    "TransistorParameters",
    "get_technology",
    "sample_technology_array",
    "stack_technologies",
    "CellLibrary",
    "StandardCell",
    "default_library",
    "PAPER_FIG3_CONFIGURATIONS",
    "ConfigurationBank",
    "RingConfiguration",
    "RingOscillator",
    "TemperatureResponse",
    "analytical_response",
    "nonlinearity",
    "sensitivity_report",
    "Axis",
    "ProcessExecutor",
    "SerialExecutor",
    "Sweep",
    "SweepResult",
    "LinearCalibration",
    "ReadoutConfig",
    "SensorBank",
    "SmartTemperatureSensor",
    "ThermalMonitor",
    "Floorplan",
    "PowerMap",
    "ThermalGrid",
    "ThermalOperator",
    "solve_steady_state",
    "__version__",
]
