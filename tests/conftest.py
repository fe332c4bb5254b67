"""Session hooks: the flipped-sign suite of test_psi_flip.py starts in its
subprocess as soon as collection finishes, so that it runs beside the rest
of the session; its test then waits on it.  Also the comparison of p-adic
elements and matrices to tracked precision that the tests share."""

FLIP_TEST = "test_invariant_suites_pass_with_psi_sign_flipped"


def agrees(a, b) -> bool:
    """Whether two LocalElements, or two Mat2Locals entry by entry, are equal
    to their common tracked precision: their difference is the exact zero."""
    if hasattr(a, "entries"):
        return all(agrees(x, y) for x, y in zip(a.entries(), b.entries()))
    return (a - b).is_zero


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
