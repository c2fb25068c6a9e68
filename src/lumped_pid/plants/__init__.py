"""The plants, one module each: the only place that knows its plant.

Each declares ``OPTIONS``, each config option's parser and default (None:
the run derives it), which a Scenario applies; ``check``, every rule that
spans options, which a Scenario runs once they are parsed; ``BANDWIDTH``,
``NO_OBSERVER`` and ``parse_disturbance``; its trace's metric ``SIGNAL``,
``OBSERVER`` (true, estimate) columns and ``PLOTS`` (file stem, column
patterns, title, y label); ``LOCKSTEP``, the fewest scenarios ``run`` takes
as the lanes of one run, or None if it takes no list; ``noise_channels``, a
scenario's count of noised measurement channels; ``run``; and ``bound``, a
trace's ultimate-bound check or None. The registry holds modules, so a
function replaced on one (by a profiler, say) is the one called.
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
