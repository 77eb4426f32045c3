import pytest


@pytest.fixture
def fail_steady_state_on_call(monkeypatch):
    """Call with n to make the n-th steady-state solve raise a plain ValueError."""
    import blockadesim.lindblad as lindblad_mod
    real = lindblad_mod.steady_state

    def arm(bad_call: int):
        calls = []

        def flaky(L):
            calls.append(L)
            if len(calls) == bad_call:
                raise ValueError("forced invalid density matrix")
            return real(L)

        monkeypatch.setattr(lindblad_mod, "steady_state", flaky)

    return arm
