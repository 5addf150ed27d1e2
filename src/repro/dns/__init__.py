"""DNS substrate: messages, caches, servers, and resolvers.

The paper's clients resolve each website name before every download (the
local cache is flushed, Section 3.4) and additionally run a dig-style
iterative resolution to localize DNS failures (Section 4.2).  This package
implements:

* :mod:`repro.dns.message` -- queries, responses, and response codes.
* :mod:`repro.dns.cache` -- a TTL-respecting resolver cache.
* :mod:`repro.dns.server` -- authoritative and recursive (LDNS) servers.
* :mod:`repro.dns.resolver` -- the client-side stub resolver with the
  timeout/retry behaviour whose failure modes the paper classifies
  (LDNS timeout / non-LDNS timeout / error response).
* :mod:`repro.dns.iterative` -- dig-style iterative traversal from the
  root, used for post-hoc failure localization.

Each public name below loads its defining module on first access, so
importing one submodule (the world needs only
:func:`repro.dns.message.normalize_name`) compiles no other.
"""

from repro import lazy_exports

#: Public name -> the module that defines it.
_EXPORTS = {
    "DNSQuery": "repro.dns.message",
    "DNSResponse": "repro.dns.message",
    "RCode": "repro.dns.message",
    "RecordType": "repro.dns.message",
    "StubResolver": "repro.dns.resolver",
    "ResolutionOutcome": "repro.dns.resolver",
    "ResolutionStatus": "repro.dns.resolver",
}

__all__ = list(_EXPORTS)

__getattr__ = lazy_exports(globals(), _EXPORTS)
