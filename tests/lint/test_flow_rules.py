"""DIG0xx digest-taint rules: firing and non-firing fixtures.

Each rule gets a minimal violating snippet (finding anchored at the
*sink*) and a conforming twin proving sanitizers and seeded sources
keep it quiet.  Cross-file cases run through ``lint_tree`` so the
inter-procedural summaries are exercised end to end.
"""

import pytest

DIG_RULES = ("DIG001", "DIG002", "DIG003")


def only(findings, rule):
    return [f for f in findings if f.rule == rule]


def dig(findings):
    return [f for f in findings if f.rule in DIG_RULES]


class TestDIG001Entropy:
    def test_urandom_reaches_digest(self, findings_of):
        findings = findings_of(
            """\
            import hashlib
            import os

            def fingerprint():
                salt = os.urandom(8)
                h = hashlib.sha256()
                h.update(salt)
                return h.hexdigest()
            """
        )
        (f,) = only(findings, "DIG001")
        assert f.line == 7  # the h.update() sink, not the source
        assert "os.urandom" in f.message

    def test_uuid4_reaches_serialize(self, findings_of):
        findings = findings_of(
            """\
            import json
            import uuid

            def manifest(path):
                payload = {"run_id": str(uuid.uuid4())}
                return json.dumps(payload, sort_keys=True)
            """
        )
        (f,) = only(findings, "DIG001")
        assert "uuid" in f.message

    def test_cross_file_flow_anchors_at_sink(self, lint_tree):
        result = lint_tree(
            {
                "world/token.py": """\
                    import os

                    def fresh_token():
                        return os.urandom(16)
                    """,
                "world/digest.py": """\
                    import hashlib

                    from repro.world.token import fresh_token

                    def fingerprint():
                        h = hashlib.sha256()
                        h.update(fresh_token())
                        return h.hexdigest()
                    """,
            }
        )
        (f,) = only(result.findings, "DIG001")
        assert f.path.endswith("world/digest.py")
        assert f.line == 7
        assert "token.py" in f.message  # origin cited cross-file

    def test_seeded_rng_value_is_clean(self, findings_of):
        findings = findings_of(
            """\
            import hashlib
            import random

            def fingerprint(seed):
                rng = random.Random(seed)
                h = hashlib.sha256()
                h.update(str(rng.random()).encode())
                return h.hexdigest()
            """
        )
        assert only(findings, "DIG001") == []


class TestDIG002Clock:
    def test_time_reaches_digest(self, findings_of):
        findings = findings_of(
            """\
            import hashlib
            import time

            def stamp():
                now = time.time()
                h = hashlib.sha256()
                h.update(str(now).encode())
                return h.hexdigest()
            """
        )
        (f,) = only(findings, "DIG002")
        assert f.line == 7

    def test_clock_outside_digest_is_fine(self, findings_of):
        findings = findings_of(
            """\
            import time

            def elapsed(t0):
                return time.monotonic() - t0
            """
        )
        assert only(findings, "DIG002") == []


class TestDIG003Order:
    def test_listdir_reaches_serialize(self, findings_of):
        findings = findings_of(
            """\
            import json
            import os

            def index(root):
                names = os.listdir(root)
                return json.dumps(names)
            """
        )
        (f,) = only(findings, "DIG003")
        assert f.line == 6
        assert "os.listdir" in f.message

    def test_sorted_sanitizes_listing(self, findings_of):
        findings = findings_of(
            """\
            import json
            import os

            def index(root):
                names = sorted(os.listdir(root))
                return json.dumps(names)
            """
        )
        assert only(findings, "DIG003") == []

    def test_set_iteration_reaches_digest(self, findings_of):
        findings = findings_of(
            """\
            import hashlib

            def fingerprint(names):
                bag = set(names)
                h = hashlib.sha256()
                for name in bag:
                    h.update(name.encode())
                return h.hexdigest()
            """
        )
        assert len(only(findings, "DIG003")) == 1

    def test_sort_keys_clears_dict_order(self, findings_of):
        findings = findings_of(
            """\
            import json
            import glob

            def index(root):
                return json.dumps(
                    {p: 1 for p in glob.glob(root)}, sort_keys=True
                )
            """
        )
        assert only(findings, "DIG003") == []

    def test_sort_keys_does_not_excuse_list_args(self, findings_of):
        # sort_keys only reorders dict keys; a list keeps listing order.
        findings = findings_of(
            """\
            import json
            import os

            def index(root):
                return json.dumps(os.listdir(root), sort_keys=True)
            """
        )
        assert len(only(findings, "DIG003")) == 1

    def test_sanitized_serialization_not_reflagged_at_digest(
        self, findings_of
    ):
        # The dumps sink fires once; its sort_keys-cleaned return value
        # does not re-fire at the downstream digest.
        findings = findings_of(
            """\
            import hashlib
            import json

            def fingerprint(names):
                bag = set(names)
                blob = json.dumps(list(bag), sort_keys=True)
                h = hashlib.sha256()
                h.update(blob.encode())
                return h.hexdigest()
            """
        )
        flagged = only(findings, "DIG003")
        assert len(flagged) == 1
        assert "json.dumps" in flagged[0].message


#: Set order entering a container by mutation, then the container
#: reaching a sink (``{sink}`` is filled per case).
_MUTATION_BODIES = {
    "append": "out = []\n    for n in set(xs):\n        out.append(n)",
    "extend": "out = []\n    for n in set(xs):\n        out.extend([n, n])",
    "insert": "out = []\n    for n in set(xs):\n        out.insert(0, n)",
    "subscript-key": "out = {}\n    for n in set(xs):\n        out[n] = 1",
}

_SINKS = {
    "json.dumps": "return json.dumps(out)",
    "h.update": (
        "h = hashlib.sha256()\n    h.update(repr(out).encode())\n"
        "    return h.hexdigest()"
    ),
}


class TestDIG003ContainerMutation:
    """DIG003 follows set order into a container filled by mutation,
    and fires on a set loop of any spelling that reaches a digest."""

    @pytest.mark.parametrize("sink", sorted(_SINKS))
    @pytest.mark.parametrize("mutation", sorted(_MUTATION_BODIES))
    def test_mutation_carries_set_order(self, findings_of, mutation, sink):
        source = (
            "import hashlib\nimport json\n\n\ndef encode(xs):\n    "
            + _MUTATION_BODIES[mutation] + "\n    " + _SINKS[sink] + "\n"
        )
        (f,) = only(findings_of(source), "DIG003")
        assert "set(...)" in f.message

    @pytest.mark.parametrize(
        "iterable",
        ["set(names)", "frozenset(names)", "{names[0], names[1]}",
         "{n for n in names}"],
        ids=["set", "frozenset", "set-literal", "set-comprehension"],
    )
    def test_direct_set_loop_feeding_digest(self, findings_of, iterable):
        findings = findings_of(
            f"""\
            import hashlib

            def digest(names):
                h = hashlib.sha256()
                for name in {iterable}:
                    h.update(name.encode())
                return h.hexdigest()
            """
        )
        (f,) = only(findings, "DIG003")
        assert f.line == 6

    @pytest.mark.parametrize(
        "loop",
        [
            "out = []\n    for n in sorted(set(xs)):\n        out.append(n)",
            "out = {}\n    for n in sorted(set(xs)):\n        out[n] = 1",
            # dict iteration is insertion-ordered, so deterministic
            "out = []\n    for n, v in counts.items():\n"
            "        out.append((n, v))",
        ],
        ids=["sorted-append", "sorted-subscript", "dict-items"],
    )
    def test_ordered_loops_stay_quiet(self, findings_of, loop):
        source = (
            "import hashlib\nimport json\n\n\ndef encode(xs, counts):\n"
            "    " + loop + "\n    h = hashlib.sha256()\n"
            "    h.update(json.dumps(out).encode())\n"
            "    return h.hexdigest()\n"
        )
        assert only(findings_of(source), "DIG003") == []


class TestDigestRulesStayQuietOnCleanCode:
    def test_pure_content_digest(self, findings_of):
        findings = findings_of(
            """\
            import hashlib
            import json

            def fingerprint(rows):
                payload = json.dumps(rows, sort_keys=True)
                h = hashlib.sha256()
                h.update(payload.encode())
                return h.hexdigest()
            """
        )
        assert dig(findings) == []
