"""Error type shared across the package.

Every failure mode carries a stable ``code`` string so callers (and the CLI)
can match on it without parsing messages.
"""


class LooseEndsError(Exception):
    def __init__(self, code: str, message: str = ""):
        self.code = code
        self.message = message
        super().__init__(f"{code}: {message}" if message else code)


def fail(code: str, message: str = ""):
    raise LooseEndsError(code, message)
