"""Cached thermal solves: one prepared solve per system, many uses.

Every repeated thermal workload (a thermal-mapping scan per control
step, the self-heating duty-cycle sweep, the managed-versus-unmanaged
DTM pair, a transient run per timestep) solves a matrix that does not
change between calls, so preparing its solve once pays off.

:class:`ThermalOperator` owns those solves:

* the steady-state solve of the conductance matrix ``G`` is prepared
  once per grid and serves any number of right-hand sides, including an
  ``(n, k)`` *stack* of power maps in one batched solve (``G \\ P``),
* the backward-Euler system ``(C/dt + G)`` is prepared once per
  (grid, timestep) pair and handed out as a :class:`ThermalStepper`,
  so every transient integration with the same step reuses it, and
* operators are cached process-wide (LRU, bounded), keyed by the grid's
  *defining* geometry and physical parameters (two :class:`ThermalGrid`
  instances built from the same floorplan resolution have identical
  stencils, so they share one operator) — which is what lets the
  managed and unmanaged DTM runs, every thermal-map scan of a monitor,
  and every candidate of a placement search share a single prepared
  solve.

One solve
---------

Every system is prepared as an exact fast solve by the orthonormal 2-D
DCT-II, which diagonalizes every thermal grid's constant-coefficient
five-point stencil (adiabatic edges, uniform vertical conductance and
capacitance): a solve is ``idctn(dctn(b) / eigenvalues)``, O(n log n)
with O(n) memory, for ``G`` and ``C/dt + G`` alike, at every grid
resolution.  Set-up checks the grid's stencil
(:meth:`ThermalGrid.apply_conductance`) against the eigenvalues with
one probe and raises :class:`TechnologyError` on a mismatch.

Backward Euler is diagonal in the same basis, so a transient state
need not leave it: :meth:`ThermalStepper.advance` steps DCT
coefficients with no transform (``(C/dt * x_hat + p_hat) /
eigenvalues``), and :meth:`ThermalStepper.field` pays the one inverse
transform when the field is needed.  The DTM manager keeps its rise
that way, transforming its fixed base power once and taking one inverse
per control step; :meth:`ThermalStepper.step` is the real-space step,
a forward and an inverse transform.

An ``(n, k)`` stack of right-hand sides is solved in one call (one
batched transform), so ``ThermalStepper.step``, ``steady_rise`` and
the policy bank stay one batched call per step at any grid size.
Stacks are column-major: the array is ``(n, k)``, but each column is
contiguous, so its memory reads as ``k`` contiguous ``(ny, nx)``
planes.  The solve returns stacks in that layout (it transforms the
planes where they lie); a C-ordered stack is still accepted, at the
price of one transposing copy.

A solve never writes into an array its caller passed in:
``steady_rise`` and the prepared solve's ``__call__`` leave their
right-hand sides as they were.  Only a right-hand side the operator
owns is transformed in place: ``ThermalStepper.step`` writes
``C/dt * rise + power`` into one column-major buffer it allocates and
runs the forward transform in that buffer (``overwrite_x``), so a step
allocates one ``(n, k)`` array, which it returns as the new state.
``ThermalStepper.advance`` is not a solve: it updates the spectral
state its caller owns in place, so a spectral step allocates only the
inverse transform's output.

:func:`solve_steady_state`, the self-heating study and the DTM manager
are all thin layers over this class; no other module prepares a
thermal solve.

Concurrency and fork semantics
------------------------------

The process-wide cache is guarded by a :class:`threading.Lock` (and each
operator's lazily prepared solves by a per-instance lock), so threaded
callers — a sweep executor running tiles, a benchmark harness timing
in a worker thread — cannot corrupt the ``OrderedDict`` mid-evict or
prepare the same solve twice and drop one copy.

The cache is deliberately **per process**.  Worker processes of a tiled
sweep (:mod:`repro.engine.executors`) each get their own cache — cold
under ``spawn``, a frozen copy-on-write snapshot under ``fork`` — and
warm it from the tiles they execute.  Do not ship operators or steppers
across process boundaries (they hold locks and prepared transforms) —
ship the grid (cheap, declarative) and call
:meth:`ThermalOperator.for_grid` on the worker side instead.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..fields import real
from ..tech.parameters import TechnologyError
from .grid import TemperatureMap, ThermalGrid
from .power import PowerMap

__all__ = ["ThermalOperator", "ThermalStepper", "solve_steady_state"]

#: Process-wide operator cache.  Bounded so a long-running sweep over
#: many distinct grid geometries cannot grow it without limit; eviction
#: is least-recently-*used* (``for_grid`` hits refresh an entry), so an
#: interleaved workload over a few grids — a placement search, a
#: resolution sweep — keeps its hottest operators however they
#: alternate.
_CACHE_LIMIT = 8
#: Backward-Euler solves kept per operator; a what-if sweep over many
#: control intervals on one grid evicts the least-recently-used
#: timestep's prepared solve instead of accumulating one per interval
#: forever.
_TIMESTEP_CACHE_LIMIT = 4
_OPERATORS: "OrderedDict[Tuple, ThermalOperator]" = OrderedDict()
#: Guards every lookup/insert/evict on :data:`_OPERATORS`.  Plain dict
#: reads are atomic in CPython, but the insert-then-evict sequence in
#: :meth:`ThermalOperator.for_grid` is not — two threads caching
#: distinct grids could interleave ``popitem`` with ``__setitem__`` and
#: evict a just-inserted operator (or blow past the limit).
_CACHE_LOCK = threading.Lock()

#: Relative tolerance of the spectral set-up guard: the grid's stencil
#: and the DCT-diagonalized forward operator agree to ~1e-15 relative
#: on one probe on every uniform grid here, while a single perturbed
#: stencil entry shows up many orders of magnitude above this.
_SPECTRAL_GUARD_RTOL = 1e-11


class _SpectralSolve:
    """Exact solve of a uniform thermal grid's system by a 2-D DCT.

    Every :class:`ThermalGrid` is a constant-coefficient five-point
    stencil with adiabatic edges, a uniform vertical conductance and a
    uniform capacitance, so ``G`` and ``C/dt + G`` are diagonalized by
    the orthonormal 2-D DCT-II (the classical fast Poisson solver).
    With ``shift`` = 0 for the steady solve or ``C_cell/dt`` for a
    backward-Euler stepper, the eigenvalue of mode ``(j, i)`` is
    ``g_vert + shift + g_v (2 - 2 cos(pi j / ny)) + g_h (2 - 2 cos(pi i / nx))``
    and a solve is ``idctn(dctn(b) / eigenvalues)``.

    Built once per (grid, shift) and stateless afterwards, so a shared
    operator can serve concurrent callers.  Accepts an ``(n,)`` vector
    or an ``(n, k)`` stack of right-hand sides; each column
    of a stack gets bitwise the result of solving it alone.  A stack is
    transformed as ``k`` ``(ny, nx)`` planes over its trailing axes, so
    a column-major stack needs no copy, and the result is column-major
    whatever the input's memory order.

    Set-up checks ``grid.apply_conductance(probe) + shift * probe``
    against the eigenvalues it diagonalizes with, for one random probe,
    so a grid whose stencil is not the uniform one raises
    :class:`TechnologyError` instead of getting a silently wrong answer.
    """

    def __init__(self, grid: ThermalGrid, shift: float = 0.0) -> None:
        # Imported here, not at module level: scipy.fft costs ~85 ms and
        # ``import repro`` must not pay it.
        from scipy.fft import dctn, idctn

        self._dctn = dctn
        self._idctn = idctn
        self._shape = (grid.ny, grid.nx)
        g_h = grid.lateral_conductance_w_per_k(horizontal=True)
        g_v = grid.lateral_conductance_w_per_k(horizontal=False)
        row_modes = g_v * (2.0 - 2.0 * np.cos(np.pi * np.arange(grid.ny) / grid.ny))
        column_modes = g_h * (2.0 - 2.0 * np.cos(np.pi * np.arange(grid.nx) / grid.nx))
        eigenvalues = (
            grid.vertical_conductance_w_per_k()
            + shift
            + row_modes[:, np.newaxis]
            + column_modes[np.newaxis, :]
        )
        eigenvalues = eigenvalues.reshape(-1)
        self._check_stencil(grid, shift, eigenvalues)
        #: ``1 / eigenvalue`` per mode, flat in the transforms' row order.
        self.inverse_eigenvalues = 1.0 / eigenvalues

    def _transform(self, transform, stack: np.ndarray, overwrite: bool) -> np.ndarray:
        """``transform`` of each column of a vector or column stack.

        The ``(n,)`` vector or ``(n, k)`` stack is read as ``k``
        ``(ny, nx)`` planes and transformed over the trailing axes; the
        result is the input's shape with contiguous columns.  With
        ``overwrite`` the transform may reuse ``stack``'s memory, so only
        a buffer the caller owns and discards may be passed so.
        """
        planes = stack.T.reshape(stack.shape[1:] + self._shape)
        return transform(
            planes, type=2, axes=(-2, -1), norm="ortho", overwrite_x=overwrite
        ).reshape(stack.shape[::-1]).T

    def forward(self, stack: np.ndarray, overwrite: bool = False) -> np.ndarray:
        """The orthonormal 2-D DCT-II coefficients of each column of ``stack``."""
        return self._transform(self._dctn, stack, overwrite)

    def inverse(self, spectrum: np.ndarray, overwrite: bool = False) -> np.ndarray:
        """The field of each column of DCT coefficients (inverse of :meth:`forward`)."""
        return self._transform(self._idctn, spectrum, overwrite)

    def _apply(
        self, rhs: np.ndarray, factors: np.ndarray, overwrite: bool = False
    ) -> np.ndarray:
        """``inverse(forward(rhs) * factors)``; ``factors`` is flat, one per mode."""
        spectrum = self.forward(rhs, overwrite)
        np.multiply(spectrum.T, factors, out=spectrum.T)
        return self.inverse(spectrum, overwrite=True)

    def _check_stencil(
        self, grid: ThermalGrid, shift: float, eigenvalues: np.ndarray
    ) -> None:
        probe = np.random.default_rng(0).standard_normal(eigenvalues.size)
        expected = grid.apply_conductance(probe) + shift * probe
        error = np.max(np.abs(self._apply(probe, eigenvalues) - expected))
        if not error <= _SPECTRAL_GUARD_RTOL * np.max(np.abs(expected)):
            raise TechnologyError(
                f"the {self._shape[0]}x{self._shape[1]} thermal stencil is not the "
                "uniform five-point stencil the spectral solve diagonalizes"
            )

    def __call__(self, rhs: np.ndarray) -> np.ndarray:
        """The solve of ``rhs``; ``rhs`` itself is left untouched."""
        return self._apply(np.asarray(rhs, dtype=float), self.inverse_eigenvalues)

    def solve_owned(self, rhs: np.ndarray) -> np.ndarray:
        """The solve of a float ``rhs`` the caller built for it and discards.

        The forward transform runs in ``rhs``'s memory, so no second
        ``(n, k)`` array is allocated; ``rhs``'s values are destroyed.
        """
        return self._apply(rhs, self.inverse_eigenvalues, overwrite=True)


def _checked_rhs(values, name: str, grid: ThermalGrid) -> np.ndarray:
    """``values`` as a float ``(n,)`` vector or ``(n, k)`` stack of the grid.

    Raises :class:`TechnologyError` naming ``name`` when the row count
    does not match the grid or an entry is NaN or infinite.
    """
    array = np.asarray(values, dtype=float)
    size = grid.nx * grid.ny
    if array.ndim not in (1, 2) or array.shape[0] != size:
        raise TechnologyError(
            f"{name} has shape {array.shape}, expected {size} rows "
            f"for the {grid.ny}x{grid.nx} grid"
        )
    if not np.isfinite(array).all():
        raise TechnologyError(f"{name} has non-finite entries")
    return array


class ThermalStepper:
    """One backward-Euler integrator bound to a prepared system solve.

    Produced by :meth:`ThermalOperator.stepper`.  The implicit system
    ``(C/dt + G) x_{n+1} = P + C/dt x_n`` was DCT-diagonalized once when
    the stepper was created, so a state can advance in either basis:

    * :meth:`step` takes and returns real-space temperature *rises*; a
      step is a pair of fast transforms.  ``solve`` is the prepared
      solve; each :meth:`step` allocates a column-major right-hand side
      and hands it to ``solve.solve_owned``, which may transform it in
      place (so a sparse-direct stand-in with only ``solve_owned`` can
      replace it).
    * :meth:`advance` updates a state of DCT coefficients
      (:meth:`spectrum`) in place and does no transform at all: a caller
      that keeps its state spectral pays one inverse transform
      (:meth:`field`) only when it needs the field.

    Either way an ``(n, k)`` stack of states advances in one batched
    call.
    """

    def __init__(
        self,
        grid: ThermalGrid,
        timestep_s: float,
        solve: _SpectralSolve,
    ) -> None:
        self.grid = grid
        self.timestep_s = float(timestep_s)
        self._solve = solve
        self._capacitance_over_dt = (
            grid.cell_heat_capacity_j_per_k() / self.timestep_s
        )

    def step(self, rise: np.ndarray, power_w: np.ndarray) -> np.ndarray:
        """Advance the flattened temperature-rise state one timestep.

        Parameters
        ----------
        rise:
            Current temperature rise above ambient, flattened to
            ``(nx * ny,)`` — or an ``(nx * ny, k)`` *stack* of states
            (one column per banked policy/workload), advanced through
            one multi-RHS solve.  Stacks are column-major (each column
            contiguous); the returned stack is too.  A C-ordered stack
            works, and costs one transposing copy.
        power_w:
            Power injected during the step, flattened to the same shape.

        Raises :class:`TechnologyError` when either argument does not
        have the grid's row count, the shapes differ, or an entry is
        not finite.
        """
        rise = _checked_rhs(rise, "rise", self.grid)
        power = _checked_rhs(power_w, "power_w", self.grid)
        if power.shape != rise.shape:
            raise TechnologyError(
                f"power_w has shape {power.shape}, rise has {rise.shape}"
            )
        # One owned column-major buffer takes ``C/dt * rise + power`` (the
        # same bits as ``power + C/dt * rise``: IEEE addition commutes)
        # and then the forward transform, in place.
        rhs = np.empty(rise.shape, order="F")
        np.multiply(self._capacitance_over_dt, rise, out=rhs)
        rhs += power
        return self._solve.solve_owned(rhs)

    # ------------------------------------------------------------------ #
    # stepping in the DCT basis
    # ------------------------------------------------------------------ #

    def spectrum(self, values: np.ndarray) -> np.ndarray:
        """The DCT coefficients of a vector or column stack (one forward transform).

        ``values`` is a flattened field (or an ``(n, k)`` stack of them)
        of the grid; the coefficients come back in the same column-major
        layout, ready for :meth:`advance`.  A wrong row count or a
        non-finite entry raises :class:`TechnologyError`.
        """
        return self._solve.forward(_checked_rhs(values, "values", self.grid))

    def advance(self, rise_hat: np.ndarray, power_hat: np.ndarray) -> np.ndarray:
        """Advance spectral states one timestep, in place; no transform.

        Backward Euler is diagonal in the DCT basis, so the new
        coefficients are ``(C/dt * rise_hat + power_hat) / eigenvalues``
        (a multiplication by the held inverse eigenvalues).  They are
        written over ``rise_hat``, a float array of :meth:`spectrum`
        layout that the caller owns, which is returned; ``power_hat``
        has the same shape and is not written.  :meth:`field` turns the
        state back into temperature rises.
        """
        if np.shape(power_hat) != np.shape(rise_hat):
            raise TechnologyError(
                f"power_hat has shape {np.shape(power_hat)}, "
                f"rise_hat has {np.shape(rise_hat)}"
            )
        rise_hat *= self._capacitance_over_dt
        rise_hat += power_hat
        np.multiply(rise_hat.T, self._solve.inverse_eigenvalues, out=rise_hat.T)
        return rise_hat

    def field(self, rise_hat: np.ndarray) -> np.ndarray:
        """The temperature rise of spectral states (one inverse transform).

        A new column-major array of ``rise_hat``'s shape; ``rise_hat``
        is left as it was, so it can be advanced further.
        """
        return self._solve.inverse(rise_hat)


class ThermalOperator:
    """Cached DCT solves of one thermal grid's systems.

    Parameters
    ----------
    grid:
        The thermal RC network.
    """

    def __init__(self, grid: ThermalGrid) -> None:
        self.grid = grid
        self._steady_solve: Optional[_SpectralSolve] = None
        self._transient_solves: "OrderedDict[float, _SpectralSolve]" = OrderedDict()
        # Guards the lazy solve caches above: two threads asking a shared
        # operator for the same solve must not prepare it twice (wasted
        # work) or interleave the stepper cache's insert/evict.
        self._solve_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # the process-wide cache
    # ------------------------------------------------------------------ #

    @classmethod
    def _cache_key(cls, grid: ThermalGrid) -> Tuple:
        """The stencil-defining fingerprint of a grid.

        Two grids with equal geometry and physical parameters have
        bit-identical stencils and heat capacities, so they may share
        one operator (and therefore one prepared solve).
        """
        return (grid.width_mm, grid.height_mm, grid.nx, grid.ny, grid.parameters)

    @classmethod
    def for_grid(cls, grid: ThermalGrid) -> "ThermalOperator":
        """The shared operator of a grid (cached process-wide, thread-safe).

        Cache hits refresh the entry's recency (LRU), so a workload
        alternating among a few grids — a placement search, a
        resolution sweep — keeps all of them live instead of evicting
        its hottest operator in insertion order.

        The cache is per process: a forked/spawned sweep worker warms
        its own (see the module docstring) — never pickle an operator
        across a process boundary, re-request it from the grid instead.
        """
        key = cls._cache_key(grid)
        with _CACHE_LOCK:
            operator = _OPERATORS.get(key)
            if operator is None:
                operator = cls(grid)
                _OPERATORS[key] = operator
                while len(_OPERATORS) > _CACHE_LIMIT:
                    _OPERATORS.popitem(last=False)
            else:
                _OPERATORS.move_to_end(key)
        return operator

    @classmethod
    def clear_cache(cls) -> None:
        """Drop every cached operator (test isolation / memory pressure)."""
        with _CACHE_LOCK:
            _OPERATORS.clear()

    # ------------------------------------------------------------------ #
    # steady state
    # ------------------------------------------------------------------ #

    def steady_solve(self) -> _SpectralSolve:
        """The prepared steady-state solve ``x = G \\ rhs`` (cached)."""
        with self._solve_lock:
            if self._steady_solve is None:
                self._steady_solve = _SpectralSolve(self.grid)
            return self._steady_solve

    def steady_rise(self, power_w: np.ndarray) -> np.ndarray:
        """Temperature rise for one or many flattened power vectors.

        ``power_w`` may be a single ``(n,)`` vector or an ``(n, k)``
        stack of right-hand sides, solved in one call (one batched pair
        of transforms).  A wrong row count or a non-finite entry raises
        :class:`TechnologyError`.
        """
        return self.steady_solve()(_checked_rhs(power_w, "power_w", self.grid))

    def solve_steady_state(
        self, power: PowerMap, ambient_c: float = 45.0
    ) -> TemperatureMap:
        """Steady-state temperature map of one power map (``G \\ P``)."""
        self.grid.check_power_map(power)
        rise = self.steady_rise(power.values_w.reshape(-1))
        values = rise.reshape((self.grid.ny, self.grid.nx)) + ambient_c
        return TemperatureMap(self.grid.width_mm, self.grid.height_mm, values)

    def solve_steady_state_multi(
        self, powers: Sequence[PowerMap], ambient_c: float = 45.0
    ) -> List[TemperatureMap]:
        """Steady-state maps of several power maps in one multi-RHS solve.

        All power maps must match the grid; the stacked ``(n, k)``
        right-hand side goes through the prepared solve once.
        """
        maps = list(powers)
        if not maps:
            raise TechnologyError("solve_steady_state_multi needs at least one power map")
        for power in maps:
            self.grid.check_power_map(power)
        stack = np.stack([power.values_w.reshape(-1) for power in maps], axis=0).T
        rises = self.steady_rise(stack)
        return [
            TemperatureMap(
                self.grid.width_mm,
                self.grid.height_mm,
                rises[:, k].reshape((self.grid.ny, self.grid.nx)) + ambient_c,
            )
            for k in range(len(maps))
        ]

    # ------------------------------------------------------------------ #
    # transient stepping
    # ------------------------------------------------------------------ #

    def stepper(self, timestep_s: float) -> ThermalStepper:
        """A backward-Euler stepper for this grid at a timestep (cached).

        The ``(C/dt + G)`` solve is keyed by the timestep, so every
        transient run with the same step — every control interval of a
        DTM simulation, every repeat of a study — shares it.
        """
        dt = real(timestep_s, "timestep_s", TechnologyError, above=0.0)
        with self._solve_lock:
            solve = self._transient_solves.get(dt)
            if solve is None:
                solve = _SpectralSolve(
                    self.grid, self.grid.cell_heat_capacity_j_per_k() / dt
                )
                self._transient_solves[dt] = solve
                while len(self._transient_solves) > _TIMESTEP_CACHE_LIMIT:
                    self._transient_solves.popitem(last=False)
            else:
                self._transient_solves.move_to_end(dt)
        return ThermalStepper(self.grid, dt, solve)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ThermalOperator({self.grid.ny}x{self.grid.nx}, "
            f"steady={'cached' if self._steady_solve is not None else 'cold'}, "
            f"timesteps={sorted(self._transient_solves)})"
        )


def solve_steady_state(
    grid: ThermalGrid, power: PowerMap, ambient_c: float = 45.0
) -> TemperatureMap:
    """Steady-state junction temperatures for a constant power map.

    Solves ``G * dT = P`` for the temperature rise above ambient and adds
    the ambient temperature.  ``ambient_c`` represents the local ambient
    (board/package) temperature, not the room.  The prepared solve comes
    from the shared :class:`ThermalOperator` cache, so repeated solves on
    equal grids prepare it once; each solve is an exact DCT solve,
    O(n log n) time and O(n) memory.
    """
    return ThermalOperator.for_grid(grid).solve_steady_state(power, ambient_c)
