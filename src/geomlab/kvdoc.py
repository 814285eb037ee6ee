"""Line-oriented key-value documents: ``key = value`` with # comments.

Used for CLI config files and custom metric definitions.  ``entries`` yields
each key with its value text, which ``parse`` reads as int, float, bool,
comma-separated list, or bare string; keys are case-sensitive.
"""

from .errors import ConfigError


def _parse_scalar(text):
    text = text.strip()
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    if text.lower() in ("true", "false"):
        return text.lower() == "true"
    return text


def entries(text):
    """Each ``key = value`` line of ``text`` as (key, value text), in file
    order, with comments and surrounding blanks stripped."""
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        yield key, value


def parse(text):
    return {key: ([_parse_scalar(v) for v in value.split(",") if v.strip()]
                  if "," in value else _parse_scalar(value))
            for key, value in entries(text)}


def load(path):
    with open(path, encoding="utf-8") as fh:
        return parse(fh.read())
