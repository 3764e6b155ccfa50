"""Exception types shared across the package, and the range rule of
numeric dataclass fields."""

import dataclasses


class LidscoreError(Exception):
    """Base class for package-specific failures."""


class ValidationError(LidscoreError, ValueError):
    """An input violates a documented precondition or type invariant."""


class RangeError(ValidationError):
    """Values of a dataclass outside their fields' declared ranges, with
    one message per such field in `problems`."""

    def __init__(self, problems: dict):
        super().__init__("; ".join(problems.values()))
        self.problems = problems


class ConfigError(LidscoreError):
    """Invalid project configuration. Carries the full batch of messages."""

    def __init__(self, errors):
        if isinstance(errors, str):
            errors = [errors]
        self.errors = list(errors)
        super().__init__("\n".join(self.errors))


# The ranges a numeric field may declare as `metadata={"range": ...}`. NaN
# fails every one, as every comparison with it is False.
RANGES = {"> 0": lambda x: x > 0, ">= 0": lambda x: x >= 0,
          "in [0, 1]": lambda x: 0 <= x <= 1, "in [0, 1)": lambda x: 0 <= x < 1,
          "in (0, 1]": lambda x: 0 < x <= 1, "in (0, 1)": lambda x: 0 < x < 1}


class Ranged:
    """Base of the dataclasses whose fields declare ranges: building one raises
    RangeError, `<field>[.<key>] must be <range>, got <value>` for each field
    whose value (or a mapping's first such value) is outside it; None passes."""

    def __post_init__(self):
        problems = {}
        for f in dataclasses.fields(self):
            if (bound := f.metadata.get("range")) is None:
                continue
            value = getattr(self, f.name)
            for key, x in value.items() if isinstance(value, dict) else [(None, value)]:
                if x is not None and not RANGES[bound](x):
                    problems[f.name] = (f"{f.name if key is None else f'{f.name}.{key}'} "
                                        f"must be {bound}, got {x}")
                    break
        if problems:
            raise RangeError(problems)
