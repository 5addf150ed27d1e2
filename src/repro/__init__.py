"""repro -- a reproduction of "A Study of End-to-End Web Access Failures"
(Padmanabhan, Ramabhadran, Agarwal, Padhye; CoNEXT 2006).

The package has two halves:

* **Substrates** (:mod:`repro.net`, :mod:`repro.dns`, :mod:`repro.tcp`,
  :mod:`repro.http`, :mod:`repro.bgp`, :mod:`repro.world`): a synthetic
  Internet -- clients, websites, resolvers, proxies, a Routeviews-style
  BGP collector -- with generative fault processes calibrated to the
  paper's measurements.
* **Analysis** (:mod:`repro.core`): the paper's contribution -- the
  failure taxonomy, episode identification, blame attribution, replica /
  similarity / spread analyses, BGP correlation, and report builders for
  every table and figure.

Quickstart::

    from repro import simulate_default_month
    from repro.core import report

    result = simulate_default_month(hours=168)  # one simulated week
    print(report.table3(result.dataset))

Nothing here is imported eagerly: each public name below loads its
defining module on first access, so ``from repro import obs`` or
``python -m repro.lint`` never pays for numpy or the simulator.
"""

import importlib

__version__ = "1.0.0"

#: Public name -> the module that defines it.
_EXPORTS = {
    "MeasurementDataset": "repro.core.dataset",
    "PerformanceRecord": "repro.core.records",
    "FailureType": "repro.core.records",
    "DNSFailureKind": "repro.core.records",
    "TCPFailureKind": "repro.core.records",
    "build_default_world": "repro.world.defaults",
    "World": "repro.world.entities",
    "Client": "repro.world.entities",
    "ClientCategory": "repro.world.entities",
    "Website": "repro.world.entities",
    "MonthSimulator": "repro.world.simulator",
    "simulate_default_month": "repro.world.simulator",
}

__all__ = [*_EXPORTS, "__version__"]


def lazy_exports(namespace, exports):
    """A module ``__getattr__`` (PEP 562) for a package's public names.

    ``exports`` maps each name to its defining module; the first access
    imports that module and caches the value in ``namespace`` (the
    package's ``globals()``), so later accesses never reach here.
    """

    def __getattr__(name):
        module = exports.get(name)
        if module is None:
            raise AttributeError(
                f"module {namespace['__name__']!r} has no attribute {name!r}"
            )
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    return __getattr__


__getattr__ = lazy_exports(globals(), _EXPORTS)
