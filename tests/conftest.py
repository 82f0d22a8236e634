import pytest

from rokhlin.subshift import (
    SubstitutionSystem,
    Window,
    fibonacci,
    period_doubling,
    thue_morse,
)
from rokhlin.towers import RokhlinSystem, build_towers

FIB_RULES = {"0": "01", "1": "0"}
PD_RULES = {"0": "01", "1": "00"}
TM_RULES = {"0": "01", "1": "10"}
RUDIN_RULES = {"a": "ab", "b": "ac", "c": "db", "d": "dc"}


@pytest.fixture(scope="session")
def fib():
    return fibonacci()


@pytest.fixture(scope="session")
def pd():
    return period_doubling()


@pytest.fixture(scope="session")
def tm():
    return thue_morse()


@pytest.fixture(scope="session")
def fib_y(fib):
    return fib.cylinder(Window(0, 0), "1")


@pytest.fixture(scope="session")
def pd_y(pd):
    return pd.cylinder(Window(0, 0), "0")


@pytest.fixture(scope="session")
def tm_y(tm):
    return tm.cylinder(Window(0, 0), "1")


@pytest.fixture(scope="session")
def fib_full(fib_y):
    return build_towers(fib_y, "full")


@pytest.fixture(scope="session")
def pd_full(pd_y):
    return build_towers(pd_y, "full")


@pytest.fixture(scope="session")
def tm_full(tm_y):
    return build_towers(tm_y, "full")


@pytest.fixture(scope="session")
def reference_systems(fib, pd, tm, fib_y, pd_y, tm_y):
    """(name, rules, system, Y) for the three reference subshifts."""
    return [("fibonacci", FIB_RULES, fib, fib_y),
            ("period_doubling", PD_RULES, pd, pd_y),
            ("thue_morse", TM_RULES, tm, tm_y)]


@pytest.fixture(scope="session")
def rudin():
    """A five-tower system whose intermediate boundaries and path overlaps
    are nonempty, so the gluing machinery is exercised nonvacuously."""
    system = SubstitutionSystem(["a", "b", "c", "d"], RUDIN_RULES)
    return build_towers(system.cylinder(Window(0, 0), "a"), "full")


@pytest.fixture(scope="session")
def pd101_defects(pd):
    """Hand-built tower systems on the period-doubling cylinder 101, whose
    true heights are (2, 6, 14), each with one planted defect: the top
    height one short, the middle height one long, the top tower dropped,
    and the middle base grown by the points ``A`` of the bottom base whose
    orbit lands in the top tower's interior base after ``r_0`` steps, so
    that an interior level of the top tower meets the lower towers' union."""
    S = build_towers(pd.cylinder(Window(0, 2), "101"), "full")

    def make(bases, heights):
        return RokhlinSystem(pd, "full", S.Y, bases, heights)

    A = S.bases[0] & S.interiors[2].shift(-S.heights[0])
    return {"short-top": make(S.bases, (2, 6, 13)),
            "tall-middle": make(S.bases, (2, 7, 14)),
            "no-top": make(S.bases[:2], S.heights[:2]),
            "stray-boundary": make((S.bases[0], S.bases[1] | A, S.bases[2]),
                                   S.heights)}
