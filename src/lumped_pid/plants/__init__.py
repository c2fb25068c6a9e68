"""The plants, one module each: the only place that knows its plant.

Each declares ``OPTIONS``, each config option's parser and default (None:
the run derives it), which a Scenario applies; ``check``, every rule that
spans options, which a Scenario runs once they are parsed;
``parse_disturbance``; ``LOOPS``, each loop of its controller as (error
column, state-feedback option, observer-bandwidth option, (true, estimate)
columns or None, controller kinds without the observer), loop 0 giving a
run's metrics and every loop two sweep axes; ``PLOTS`` (file stem, column
patterns, title, y label); ``lockstep``, whether ``run`` takes a list of
scenarios as the lanes of one run, or None if it takes no list;
``noise_channels``, a scenario's count of noised measurement channels;
``run``; and ``bound``, the ultimate-bound check of a run's summary (or
its trace) or None. The registry holds modules, so a function replaced on one
(by a profiler, say) is the one called.
"""

from ..errors import ConfigError
from . import chain, vehicle, vtol

PLANTS = {"chain": chain, "vtol": vtol, "vehicle": vehicle}


def plant_module(kind: str):
    """The module of the plant named ``kind``."""
    try:
        return PLANTS[kind]
    except KeyError:
        raise ConfigError(
            f"plant.kind: unknown plant {kind!r}, expected one of {sorted(PLANTS)}"
        ) from None
