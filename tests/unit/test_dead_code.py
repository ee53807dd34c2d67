"""The dead-code census (``benchmarks/dead_code.py``): its rule, and a cap.

The census lists the functions and classes in ``src/repro`` that no code
in ``src/``, ``benchmarks/`` or ``examples/`` names (a method only by an
attribute read) — bodies that only tests call.  The CI step only prints it; this test holds the count at or
below :data:`CENSUS_CEILING`, so a test-only body cannot grow back into
``src/`` unnoticed.  A body that only tests need belongs in ``tests/`` as
an oracle, or nowhere.
"""

from benchmarks.dead_code import DEFINED_IN, USED_IN, unused

# Definitions the census lists today.  Lower it when a row goes; never
# raise it to make room for a new one.
CENSUS_CEILING = 1


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


def test_a_method_is_named_only_by_an_attribute_read(tmp_path):
    """A local variable or a module function that shares a method's name
    does not hide it; ``x.name`` anywhere does, and a module function is
    still named by a bare identifier."""
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "mod.py").write_text(
        "class State:\n"
        "    def has_mail(self):\n"
        "        return True\n"
        "\n"
        "    @property\n"
        "    def k(self):\n"
        "        return 1\n"
        "\n"
        "    def read(self):\n"
        "        return 2\n"
        "\n"
        "\n"
        "def scaled():\n"
        "    return 3\n"
        "\n"
        "\n"
        "def run(rows):\n"
        "    has_mail = rows > 0\n"
        "    k = len(rows)\n"
        "    return has_mail, k, rows.read(), scaled()\n"
        "\n"
        "\n"
        "RESULT = run(State())\n")
    rows = unused(pkg, [tmp_path])
    assert [qual for *_, qual in rows] == ["State.has_mail", "State.k"]
