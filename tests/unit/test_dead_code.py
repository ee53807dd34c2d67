"""The dead-code census (``benchmarks/dead_code.py``): its rule, and a cap.

The census lists the functions and classes in ``src/repro`` that no code
in ``src/``, ``benchmarks/`` or ``examples/`` names — bodies that only
tests call.  The CI step only prints it; this test holds the count at or
below :data:`CENSUS_CEILING`, so a test-only body cannot grow back into
``src/`` unnoticed.  A body that only tests need belongs in ``tests/`` as
an oracle, or nowhere.
"""

from benchmarks.dead_code import DEFINED_IN, USED_IN, unused

# Definitions the census lists today.  Lower it when a row goes; never
# raise it to make room for a new one.
CENSUS_CEILING = 8


def test_the_census_does_not_grow():
    rows = unused(DEFINED_IN, USED_IN)
    assert len(rows) <= CENSUS_CEILING, "\n".join(
        f"{path.name}:{line}  {qual}" for _, path, line, qual in rows)


def test_a_registered_def_is_reached_by_its_key(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "mod.py").write_text(
        "REGISTRY = Registry()\n"
        "\n"
        "\n"
        "@REGISTRY.register('fast')\n"
        "def _fast():\n"
        "    return 1\n"
        "\n"
        "\n"
        "def planted():\n"
        "    return 2\n"
        "\n"
        "\n"
        "class Box:\n"
        "    @property\n"
        "    def width(self):\n"
        "        return 3\n"
        "\n"
        "    @classmethod\n"
        "    def empty(cls):\n"
        "        return cls()\n"
        "\n"
        "\n"
        "Box.shape = Box().size\n")
    rows = unused(pkg, [tmp_path])
    assert [qual for *_, qual in rows] == ["planted", "Box.width",
                                           "Box.empty"]
