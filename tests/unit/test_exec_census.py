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
        x = 1
    return max(x,
               0)


class Box:
    def size(self):
        """Never entered."""
        return 1
'''


def test_the_classifier_splits_validation_from_the_rest(tmp_path):
    """A ``raise`` branch is validation, a skipped statement and a method
    never entered are not; a statement ran when its second line fired."""
    (tmp_path / "mod.py").write_text(PLANTED)
    ran = {str(tmp_path / "mod.py"): {1, 2, 5, 8, 11, 12}}
    rows, total = census(tmp_path, ran)
    assert [(line, v) for _, line, v in rows] == [
        (3, True), (4, True), (6, False), (14, False)]
    assert total == 10


@pytest.mark.tier2
def test_the_census_does_not_grow():
    rows, _ = census(SRC, trace_programs())
    other = [f"{path.name}:{line}" for path, line, v in rows if not v]
    assert len(other) <= CENSUS_CEILING, "\n".join(other)
