"""Fixture-driven rule tests: one known-violating snippet per rule,
asserting the finding id, file, and line, plus negative twins proving
the rule stays quiet on conforming code."""

from repro.lint.findings import Severity


def ids(findings):
    return [f.rule for f in findings]


def only(findings, rule):
    return [f for f in findings if f.rule == rule]


class TestDET001UnseededRNG:
    def test_unseeded_stdlib_random(self, findings_of):
        findings = findings_of(
            """\
            import random

            def pick():
                rng = random.Random()
                return rng.random()
            """
        )
        (f,) = only(findings, "DET001")
        assert f.line == 4
        assert f.severity is Severity.ERROR
        assert f.path.endswith("src/repro/world/snippet.py")

    def test_unseeded_numpy_default_rng_via_alias(self, findings_of):
        findings = findings_of(
            """\
            import numpy as np

            rng = np.random.default_rng()
            """
        )
        (f,) = only(findings, "DET001")
        assert f.line == 3

    def test_seed_none_keyword_is_unseeded(self, findings_of):
        findings = findings_of(
            """\
            from numpy.random import default_rng

            rng = default_rng(seed=None)
            """
        )
        assert ids(only(findings, "DET001")) == ["DET001"]

    def test_seeded_constructions_pass(self, findings_of):
        findings = findings_of(
            """\
            import random

            rng = random.Random(42)
            """,
            relpath="src/repro/net/snippet.py",  # outside DET004's scope
        )
        assert "DET001" not in ids(findings)


class TestDET002GlobalRandomState:
    def test_module_level_random_call(self, findings_of):
        findings = findings_of(
            """\
            import random

            def jitter():
                return random.uniform(0.0, 1.0)
            """
        )
        (f,) = only(findings, "DET002")
        assert f.line == 4

    def test_from_import_alias_detected(self, findings_of):
        findings = findings_of(
            """\
            from random import shuffle as sh

            def mix(items):
                sh(items)
            """
        )
        (f,) = only(findings, "DET002")
        assert f.line == 4

    def test_numpy_legacy_global_api(self, findings_of):
        findings = findings_of(
            """\
            import numpy as np

            np.random.seed(0)
            """
        )
        assert ids(only(findings, "DET002")) == ["DET002"]

    def test_instance_methods_pass(self, findings_of):
        findings = findings_of(
            """\
            import random

            def mix(rng: random.Random, items):
                rng.shuffle(items)
                return rng.uniform(0, 1)
            """
        )
        assert "DET002" not in ids(findings)


class TestDET003WallClock:
    def test_time_time_in_engine_package(self, findings_of):
        findings = findings_of(
            """\
            import time

            def stamp():
                return time.time()
            """,
            relpath="src/repro/tcp/snippet.py",
        )
        (f,) = only(findings, "DET003")
        assert f.line == 4

    def test_datetime_now_from_import(self, findings_of):
        findings = findings_of(
            """\
            from datetime import datetime

            def stamp():
                return datetime.now()
            """,
            relpath="src/repro/core/snippet.py",
        )
        assert ids(only(findings, "DET003")) == ["DET003"]

    def test_obs_layer_is_exempt(self, findings_of):
        findings = findings_of(
            """\
            import time

            def stamp():
                return time.monotonic()
            """,
            relpath="src/repro/obs/snippet.py",
        )
        assert "DET003" not in ids(findings)

    def test_clock_steering_a_branch_into_a_digest(self, findings_of):
        # Why DET003 stays beside DIG002: DIG002 tracks data flow, not
        # control flow, so a clock read that only picks a branch never
        # taints the digested value.  DET003 bans the read itself.
        findings = findings_of(
            """\
            import hashlib
            import time

            def fingerprint():
                x = 0
                if time.time() > 5:
                    x += 1
                h = hashlib.sha256()
                h.update(str(x).encode())
                return h.hexdigest()
            """,
            relpath="src/repro/core/snippet.py",
        )
        (f,) = only(findings, "DET003")
        assert f.line == 6
        assert only(findings, "DIG002") == []

    def test_perf_counter_allowed_in_engine(self, findings_of):
        findings = findings_of(
            """\
            from time import perf_counter

            def elapsed(t0):
                return perf_counter() - t0
            """,
            relpath="src/repro/world/snippet.py",
        )
        assert "DET003" not in ids(findings)


class TestDET004DirectRNGInWorld:
    def test_seeded_random_in_world(self, findings_of):
        findings = findings_of(
            """\
            import random

            def build(seed):
                return random.Random(seed)
            """
        )
        (f,) = only(findings, "DET004")
        assert f.line == 4

    def test_seeded_default_rng_in_world(self, findings_of):
        findings = findings_of(
            """\
            import numpy as np

            gen = np.random.default_rng(1234)
            """
        )
        assert ids(only(findings, "DET004")) == ["DET004"]

    def test_outside_world_is_fine(self, findings_of):
        findings = findings_of(
            """\
            import random

            def build(seed):
                return random.Random(seed)
            """,
            relpath="src/repro/dns/snippet.py",
        )
        assert "DET004" not in ids(findings)


class TestGEN001MutableDefault:
    def test_list_default(self, findings_of):
        findings = findings_of(
            """\
            def collect(items=[]):
                return items
            """
        )
        (f,) = only(findings, "GEN001")
        assert f.line == 1
        assert f.severity is Severity.WARNING

    def test_dict_call_default(self, findings_of):
        findings = findings_of(
            """\
            def collect(*, table=dict()):
                return table
            """
        )
        assert ids(only(findings, "GEN001")) == ["GEN001"]

    def test_none_default_passes(self, findings_of):
        findings = findings_of(
            """\
            def collect(items=None):
                return items or []
            """
        )
        assert "GEN001" not in ids(findings)


class TestGEN002BareExcept:
    def test_bare_except(self, findings_of):
        findings = findings_of(
            """\
            def safe(fn):
                try:
                    return fn()
                except:
                    return None
            """
        )
        (f,) = only(findings, "GEN002")
        assert f.line == 4
        assert f.severity is Severity.WARNING

    def test_named_except_passes(self, findings_of):
        findings = findings_of(
            """\
            def safe(fn):
                try:
                    return fn()
                except ValueError:
                    return None
            """
        )
        assert "GEN002" not in ids(findings)


class TestMetaFindings:
    def test_syntax_error_reported_as_lnt001(self, findings_of):
        findings = findings_of("def broken(:\n    pass\n")
        assert ids(findings) == ["LNT001"]
        assert findings[0].severity is Severity.ERROR
