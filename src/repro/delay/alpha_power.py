"""Analytical gate-delay model based on the alpha-power law.

The temperature sweeps behind the paper's Fig. 2 and Fig. 3 need the
propagation delay of every stage at dozens of temperatures and for many
candidate configurations.  Running the transistor-level transient
simulator for each point would work but is slow, so the library follows
standard practice: a closed-form delay model (this module) backs the
sweeps, and the transient simulator validates it at spot points.

Model
-----

A CMOS gate discharging (or charging) a load ``C_L`` through its
pull-down (pull-up) network is approximated by the Sakurai--Newton
switching model: the output traverses half the supply at roughly the
saturation current of the driving network, giving

``tp = DELAY_FIT_FACTOR * C_L * VDD / I_eff(T)``

``I_eff`` is the saturation current of the switching transistor(s),
corrected for series stacks:

* the drive coefficient is divided by the stack depth (series
  resistance),
* the velocity-saturation index alpha increases towards 2 for stacked
  devices (each device sees a smaller drain-source voltage and is
  therefore less velocity saturated),
* the threshold of the upper devices rises slightly due to body effect.

The stack corrections are what give NAND-like (NMOS stack) and NOR-like
(PMOS stack) gates temperature characteristics that differ from the
inverter — the degree of freedom the paper's cell-based optimisation
exploits.

Evaluation
----------

A ring-period evaluation needs the currents of many networks on one
temperature grid, but few of them are distinct: the device parameters
depend only on polarity, and a network's current only on its polarity,
width, stack depth and stack model.  :func:`drive_currents` therefore
takes the networks of a whole ring (or a whole configuration bank) in
one call, evaluates :func:`~repro.tech.temperature.device_at` and the
drive coefficient ``0.5 * kprime / length`` once per polarity and the
alpha-power current once per distinct network, and checks each current
once.  For a stacked population the device fields
are ``(samples, temperatures)`` matrices, except those whose parameters
every sample shares: ``alpha`` (and so each network's ``alpha_eff``)
then arrives as a ``(1, temperatures)`` row (see
:func:`~repro.tech.temperature.device_at`), and the currents still
broadcast to ``(samples, temperatures)``.  The arithmetic of each
current is the same however many networks share the call, so a
one-network call and the batched one agree bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Tuple, Union

import numpy as np

from ..fields import integer, real
from ..tech.parameters import Technology, TechnologyError, celsius_to_kelvin
from ..tech.temperature import DeviceAtTemperature, device_at

__all__ = [
    "StackModel",
    "DriveNetwork",
    "DriveKey",
    "drive_currents",
    "switching_delay",
    "DelayModelOptions",
]

#: Fitting factor mapping C*V/I to a 50 % propagation delay.  The exact
#: value only scales absolute delays (it cancels out of the non-linearity
#: metric); 0.52 matches the transient simulator within a few percent for
#: the default inverter.
DELAY_FIT_FACTOR = 0.52


@dataclass(frozen=True)
class StackModel:
    """Empirical corrections applied to series transistor stacks.

    Attributes
    ----------
    alpha_increment_per_level:
        Increase of the velocity-saturation index per additional series
        device (capped at the square-law value of 2).
    threshold_body_factor:
        Relative threshold increase per additional series device,
        modelling the body effect on the devices away from the rail.
    series_derating:
        Extra multiplicative current derating per additional series
        device beyond the ideal 1/depth (accounts for the distributed
        internal node capacitance); 1.0 means ideal.
    """

    alpha_increment_per_level: float = 0.08
    threshold_body_factor: float = 0.045
    series_derating: float = 1.03

    def __post_init__(self) -> None:
        for name, least in (
            ("alpha_increment_per_level", 0.0),
            ("threshold_body_factor", 0.0),
            ("series_derating", 1.0),
        ):
            real(getattr(self, name), name, TechnologyError, at_least=least)


@dataclass(frozen=True)
class DelayModelOptions:
    """Options shared by all analytical delay evaluations."""

    stack: StackModel = StackModel()
    fit_factor: float = DELAY_FIT_FACTOR

    def __post_init__(self) -> None:
        real(self.fit_factor, "fit_factor", TechnologyError, above=0.0)


@dataclass(frozen=True)
class DriveNetwork:
    """The switching network of one gate transition.

    Attributes
    ----------
    polarity:
        ``"nmos"`` for the pull-down network (high-to-low output
        transition) or ``"pmos"`` for the pull-up network.
    width_um:
        Width of each transistor in the network.
    stack_depth:
        Number of series devices between output and rail (1 for an
        inverter, 2 for a NAND2 pull-down, ...).
    """

    polarity: str
    width_um: float
    stack_depth: int = 1

    def __post_init__(self) -> None:
        if self.polarity not in ("nmos", "pmos"):
            raise TechnologyError("polarity must be 'nmos' or 'pmos'")
        real(self.width_um, "width_um", TechnologyError, above=0.0)
        integer(self.stack_depth, "stack_depth", TechnologyError, at_least=1)


#: A drive network paired with the stack model its current is evaluated
#: under: the full key of one alpha-power current evaluation.
DriveKey = Tuple[DriveNetwork, StackModel]


def drive_currents(
    tech: Technology,
    keys: Iterable[DriveKey],
    temperature_c: Union[float, np.ndarray],
) -> Dict[DriveKey, Union[float, np.ndarray]]:
    """Effective saturation currents (A) of drive networks at ``temperature_c``.

    Returns a dict from each distinct ``(network, stack model)`` key to
    the alpha-power saturation current of that network, with the stack
    corrections described in the module docstring applied.  Within the
    call :func:`~repro.tech.temperature.device_at` runs once per
    polarity and the alpha-power current once per distinct key, however
    often a key repeats — the ring kernels pass the networks of every
    stage (or every unique cell) of a ring and read back their currents.
    Nothing is kept between calls.

    ``temperature_c`` may be an ndarray, in which case every current is
    evaluated elementwise over the whole grid.  ``tech`` may also be a
    stacked population (:class:`~repro.tech.stacked.TechnologyArray`),
    whose parameter fields are ``(samples, 1)`` columns: the currents
    then broadcast over the leading sample axis as well.

    Raises :class:`~repro.tech.parameters.TechnologyError` when a
    network's supply overdrive is not positive, or when any current is
    not positive and finite (e.g. far outside the model's temperature
    range, where the mobility underflows).
    """
    temp_k = celsius_to_kelvin(temperature_c)
    devices: Dict[str, Tuple[DeviceAtTemperature, Union[float, np.ndarray]]] = {}
    currents: Dict[DriveKey, Union[float, np.ndarray]] = {}
    for key in keys:
        if key in currents:
            continue
        network, stack = key
        entry = devices.get(network.polarity)
        if entry is None:
            device = device_at(tech.transistor(network.polarity), temp_k)
            # Drive coefficient per micron: 0.5 * mu(T) * Cox / L,
            # normalised to 1 V overdrive for non-integer alpha (see
            # repro.devices.mosfet).
            drive_per_um = 0.5 * device.process_transconductance / device.channel_length_um
            entry = devices[network.polarity] = (device, drive_per_um)
        current = _alpha_power_current(tech, *entry, network, stack)
        # min/max propagate NaN, so a NaN current fails the check too.
        values = np.asarray(current)
        if values.size and not (values.min() > 0.0 and values.max() < np.inf):
            raise TechnologyError(
                f"effective drive current must be positive and finite "
                f"(depth-{network.stack_depth} {network.polarity} stack)"
            )
        currents[key] = current
    return currents


def _alpha_power_current(
    tech: Technology,
    device: DeviceAtTemperature,
    drive_per_um: Union[float, np.ndarray],
    network: DriveNetwork,
    stack: StackModel,
) -> Union[float, np.ndarray]:
    """Stack-corrected alpha-power saturation current of one network.

    ``drive_per_um`` is the device's drive coefficient
    ``0.5 * kprime / length``, shared by every network of its polarity.
    """
    depth = network.stack_depth

    alpha_raised = device.alpha + stack.alpha_increment_per_level * (depth - 1)
    if isinstance(alpha_raised, np.ndarray):
        alpha_eff = np.minimum(2.0, alpha_raised)
    else:
        alpha_eff = min(2.0, alpha_raised)
    vth_eff = device.vth * (1.0 + stack.threshold_body_factor * (depth - 1))
    overdrive = tech.vdd - vth_eff
    if np.any(np.asarray(overdrive) <= 0.0):
        raise TechnologyError(
            f"supply {tech.vdd} V does not exceed the effective threshold "
            f"{np.max(vth_eff):.3f} V of a depth-{depth} {network.polarity} stack"
        )

    current = network.width_um * drive_per_um * overdrive ** alpha_eff
    divider = depth * stack.series_derating ** (depth - 1)
    return current / divider


def switching_delay(
    tech: Technology,
    current: Union[float, np.ndarray],
    load_capacitance_f: Union[float, np.ndarray],
    options: DelayModelOptions = DelayModelOptions(),
) -> Union[float, np.ndarray]:
    """Propagation delay (seconds) of one transition driven by ``current``.

    ``current`` is a drive current from :func:`drive_currents`; the
    delay is ``fit * C_L * VDD / I``, broadcast elementwise.
    """
    if np.any(np.asarray(load_capacitance_f) <= 0.0):
        raise TechnologyError("load capacitance must be positive")
    return options.fit_factor * load_capacitance_f * tech.vdd / current
