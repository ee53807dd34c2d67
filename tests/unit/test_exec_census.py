"""The execution census (``benchmarks/exec_census.py``): its classifier,
and a ceiling on the statements no program runs."""

import pytest

from benchmarks.exec_census import SRC, census, trace_programs

# Non-validation statements no program executes.  Lower it when a row
# goes; never raise it to make room for a new one.
CENSUS_CEILING = 144

PLANTED = '''\
def check(x):
    if x < 0:
        msg = "negative"
        raise ValueError(msg)
    if x == 0:
        x = max(1 for _ in "a")
    return max(x,
               0)


class Box:
    def size(self):
        """Never entered."""
        return 1

    area = property(lambda self: 2)
    volume = property(lambda self: 3)
'''


def test_the_classifier_splits_validation_from_the_rest(tmp_path):
    """A ``raise`` branch is validation, a skipped statement and a method
    never entered are not; a statement ran when its second line fired; a
    lambda whose statement ran is a row of its own until its body fires,
    and a generator expression in a statement that did not run adds no
    row to the statement's."""
    (tmp_path / "mod.py").write_text(PLANTED)
    ran = {str(tmp_path / "mod.py"): {
        (1, "<module>", 1), (1, "<module>", 11),
        (1, "check", 2), (1, "check", 5), (1, "check", 8),
        (11, "Box", 12), (11, "Box", 16), (11, "Box", 17),
        (17, "<lambda>", 17)}}
    rows, total = census(tmp_path, ran)
    assert [(line, v) for _, line, v in rows] == [
        (3, True), (4, True), (6, False), (14, False), (16, False)]
    assert total == 15


@pytest.mark.tier2
def test_the_census_does_not_grow():
    rows, _ = census(SRC, trace_programs())
    other = [f"{path.name}:{line}" for path, line, v in rows if not v]
    assert len(other) <= CENSUS_CEILING, "\n".join(other)
