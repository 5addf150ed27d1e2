"""Network substrate: addressing, packets, latency, loss, and topology.

This package provides the low-level building blocks shared by the DNS, TCP,
HTTP, and BGP substrates:

* :mod:`repro.net.addressing` -- IPv4 addresses and CIDR prefixes.
* :mod:`repro.net.packet` -- a lightweight packet model used by the
  trace-capture machinery (the stand-in for tcpdump/windump).
* :mod:`repro.net.latency` -- per-client-category latency models.
* :mod:`repro.net.loss` -- Bernoulli and Gilbert-Elliott (bursty) loss models.
* :mod:`repro.net.topology` -- a coarse AS-level path model used to couple
  BGP reachability with end-to-end connectivity.

Each public name below loads its defining module on first access, so
importing :mod:`repro.net.addressing` compiles no other submodule.
"""

from repro import lazy_exports

#: Public name -> the module that defines it.
_EXPORTS = {
    "IPv4Address": "repro.net.addressing",
    "Prefix": "repro.net.addressing",
    "LatencyModel": "repro.net.latency",
    "BernoulliLossModel": "repro.net.loss",
    "GilbertElliottLossModel": "repro.net.loss",
    "Packet": "repro.net.packet",
    "PacketDirection": "repro.net.packet",
}

__all__ = list(_EXPORTS)

__getattr__ = lazy_exports(globals(), _EXPORTS)
