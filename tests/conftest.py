import pytest
import ray


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: spawns fresh Ray sessions in subprocesses"
    )


@pytest.fixture(scope="session", autouse=True)
def ray_session():
    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False
    yield
    ray.shutdown()


_ROUTES = ("local", "broadcast", "distributed")


def pinned_choose(route, local_bytes=-1):
    """A stand-in for ``routing.choose`` that sends every decision to
    ``route``, or to the next route out (local, broadcast, distributed)
    when the operator does not offer it. A decision whose local size is at
    most ``local_bytes`` still goes local (a peel tail)."""

    def choose(op, local, broadcast=None):
        if local is not None and local <= local_bytes:
            return "local"
        offered = {"local": local, "broadcast": broadcast, "distributed": 0}
        return next(
            r for r in _ROUTES[_ROUTES.index(route):] if offered[r] is not None
        )

    return choose


@pytest.fixture
def pin_route(monkeypatch):
    """``pin_route("distributed")`` pins every later routing decision of
    the test (see :func:`pinned_choose`); call it again to switch."""
    from flashray import routing

    def pin(route, local_bytes=-1):
        monkeypatch.setattr(routing, "choose", pinned_choose(route, local_bytes))

    return pin
