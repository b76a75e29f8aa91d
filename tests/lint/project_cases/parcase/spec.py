"""A miniature TrialSpec: the worker-submission surface PAR1xx watches."""


class TrialSpec:
    """Carries a callable across the fork boundary by module path."""

    def __init__(self, fn, config=None, seed=0):
        self.fn = fn
        self.config = config
        self.seed = seed
