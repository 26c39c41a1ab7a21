"""Views featurized in tests as the library featurizes them: one ``grce.FrozenPass``, read whole."""

from gcum.grce import FrozenPass


def whole_run(samples, state, masks=None, *, quantity, refined):
    """The group features, member rows and member identities of one pass over ``samples``.

    ``masks`` keeps every member by default.  The pass needs the encoders of
    ``state`` frozen.
    """
    frozen = FrozenPass(samples, [None] * len(samples) if masks is None else masks, state, quantity=quantity)
    return frozen(range(len(samples)), state, refined=refined)
