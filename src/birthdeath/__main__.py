"""``python -m birthdeath``: the command-line front end."""

from .cli import entry

entry()
