"""Session hooks: the flipped-sign suite of test_psi_flip.py starts in its
subprocess as soon as collection finishes, so that it runs beside the rest
of the session; its test then waits on it."""

FLIP_TEST = "test_invariant_suites_pass_with_psi_sign_flipped"


def _flip_module(session):
    return next((item.module for item in session.items if item.name == FLIP_TEST), None)


def pytest_collection_finish(session):
    module = _flip_module(session)
    if module is not None:
        module.start_flipped_suite()


def pytest_sessionfinish(session):
    # a run that stops before the flip test (-x, an interrupt) leaves no child
    module = _flip_module(session)
    if module is not None:
        module.stop_flipped_suite()
