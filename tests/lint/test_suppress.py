"""Suppression semantics: same-line, standalone-previous-line, mandatory
reasons, id matching, and suppression accounting."""


def ids(findings):
    return [f.rule for f in findings]


class TestSuppression:
    SNIPPET = """\
        import random

        def pick():
            rng = random.Random()  # repro: lint-ok[DET001] test fixture rng
            return rng.random()
        """

    def test_same_line_suppression(self, lint_snippet):
        report = lint_snippet(self.SNIPPET)
        assert "DET001" not in ids(report.findings)
        assert report.suppressed == 1

    def test_standalone_previous_line_suppression(self, lint_snippet):
        report = lint_snippet(
            """\
            import random

            def pick():
                # repro: lint-ok[DET001] fixture needs an arbitrary rng
                rng = random.Random()
                return rng.random()
            """
        )
        assert "DET001" not in ids(report.findings)
        assert report.suppressed == 1

    def test_reasonless_suppression_is_inert_and_flagged(self, lint_snippet):
        report = lint_snippet(
            """\
            import random

            def pick():
                rng = random.Random()  # repro: lint-ok[DET001]
                return rng.random()
            """
        )
        assert "DET001" in ids(report.findings)  # not silenced
        assert "LNT000" in ids(report.findings)  # and called out
        assert report.suppressed == 0

    def test_wrong_id_does_not_suppress(self, lint_snippet):
        report = lint_snippet(
            """\
            import random

            def pick():
                rng = random.Random()  # repro: lint-ok[GEN001] wrong rule
                return rng.random()
            """
        )
        assert "DET001" in ids(report.findings)

    def test_multiple_ids_in_one_comment(self, lint_snippet):
        report = lint_snippet(
            """\
            import random

            def build(seed=0):
                return random.Random(seed)  # repro: lint-ok[DET001,DET004] registry shim
            """
        )
        assert ids(report.findings) == []
        assert report.suppressed == 1  # DET004 fired and was silenced

    def test_comment_inside_string_is_not_a_suppression(self, lint_snippet):
        report = lint_snippet(
            """\
            import random

            DOC = "# repro: lint-ok[DET001] not a real comment"

            def pick():
                rng = random.Random()
                return rng.random()
            """
        )
        assert "DET001" in ids(report.findings)

class TestFlowRuleSuppression:
    """Suppression semantics for the project-wide (flow) rule families:
    findings anchor at the sink, so that is where the pragma lives."""

    def test_multi_rule_comment_covers_flow_families(self, lint_snippet):
        report = lint_snippet(
            """\
            import hashlib
            import os
            import time

            def fingerprint():
                salt = os.urandom(8) + str(time.time()).encode()
                h = hashlib.sha256()
                # repro: lint-ok[DIG001,DIG002] salt intentionally unique per run
                h.update(salt)
                return h.hexdigest()
            """,
            # obs is exempt from the per-file wall-clock rule (DET003),
            # so only the flow findings are in play
            relpath="src/repro/obs/snippet.py",
        )
        assert ids(report.findings) == []
        assert report.suppressed == 2  # both families, one comment

    def test_cross_file_flow_finding_suppressed_at_sink(self, lint_tree):
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
                        # repro: lint-ok[DIG001] run id is meant to be unique
                        h.update(fresh_token())
                        return h.hexdigest()
                    """,
            }
        )
        assert ids(result.findings) == []
        assert result.suppressed == 1

    def test_pragma_at_source_does_not_cover_sink(self, lint_tree):
        # The finding anchors at the sink; a pragma on the entropy
        # source line is in the wrong place and must not silence it.
        result = lint_tree(
            {
                "world/token.py": """\
                    import os

                    def fresh_token():
                        # repro: lint-ok[DIG001] tokens are random by design
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
        assert "DIG001" in ids(result.findings)

    def test_reasonless_suppression_rejected_for_flow_rules(
        self, lint_snippet
    ):
        report = lint_snippet(
            """\
            import hashlib
            import os

            def fingerprint():
                h = hashlib.sha256()
                h.update(os.urandom(8))  # repro: lint-ok[DIG001]
                return h.hexdigest()
            """
        )
        assert "DIG001" in ids(report.findings)  # survives
        assert "LNT000" in ids(report.findings)  # pragma called out
        assert report.suppressed == 0

    def test_dty_suppression_at_the_store(self, lint_snippet):
        # DTY001 anchors at the unguarded store, not the allocation.
        report = lint_snippet(
            """\
            import numpy as np

            def tally(events):
                counts = np.zeros(24, dtype=np.int32)
                for hour in events:
                    # repro: lint-ok[DTY001] at most 2**31 events per run
                    counts[hour] += 1
                return counts
            """
        )
        assert "DTY001" not in ids(report.findings)
        assert report.suppressed == 1
