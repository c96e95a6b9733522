import pytest

from jetcalc import JetSpace, make_presentation, parse


@pytest.fixture(scope="session")
def kdv():
    sp = JetSpace.create(["x", "t"], ["u"])
    F = parse("u[0,1] - 6*u[0,0]*u[1,0] - u[3,0]", sp)
    return make_presentation(sp, [F], [("u", (0, 1))])


@pytest.fixture(scope="session")
def heat():
    sp = JetSpace.create(["x", "t"], ["u"])
    return make_presentation(sp, [parse("u[0,1] - u[2,0]", sp)], [("u", (0, 1))])


@pytest.fixture(scope="session")
def camassa_holm():
    sp = JetSpace.create(["x", "t"], ["u"])
    F = parse("u[0,1] - u[2,1] - u[0,0]*u[3,0] - 2*u[1,0]*u[2,0]"
              " + 3*u[0,0]*u[1,0]", sp)
    return make_presentation(sp, [F], [("u", (2, 1))])


@pytest.fixture(scope="session")
def wdvv():
    sp = JetSpace.create(["x", "y"], ["u"])
    F = parse("u[0,3] - u[2,1]^2 + u[3,0]*u[1,2]", sp)
    return make_presentation(sp, [F], [("u", (0, 3))])


@pytest.fixture(scope="session")
def weingarten():
    sp = JetSpace.create(["x", "y"], ["z"])
    F = parse("z[0,2] + 2*z[0,0]^-3*z[1,0]^2 - z[0,0]^-2*z[2,0] + 2", sp)
    return make_presentation(sp, [F], [("z", (0, 2))])


@pytest.fixture(scope="session")
def boussinesq():
    sp = JetSpace.create(["x", "t"], ["u", "v"], ["sigma"])
    F = [parse("u[0,1] - u[1,0]*v[0,0] - u[0,0]*v[1,0] - sigma*v[3,0]", sp),
         parse("v[0,1] - u[1,0] - v[0,0]*v[1,0]", sp)]
    return make_presentation(sp, F, [("u", (0, 1)), ("v", (0, 1))])
