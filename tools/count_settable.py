"""Print the size of psilab's source and the number of values a caller can set.

    PYTHONPATH=src python tools/count_settable.py

Line count: newlines in every `psilab/*.py` file, as `wc -l src/psilab/*.py`
totals them.  Settable values: the parameters with a default in the
signature of every function and class that a psilab module defines itself
(dataclass fields included, through the class signature), plus the
command-line options of the subcommand parsers `cli._parser_*` (`--help`
not counted).  Enum classes are skipped: their signature is Enum's functional
API (`names`, `module`, ...), which no caller sets.
"""

import enum
import importlib
import inspect
import os
import pkgutil

import psilab
from psilab import cli


def source_lines() -> int:
    total = 0
    for path in psilab.__path__:
        for name in os.listdir(path):
            if name.endswith(".py"):
                with open(os.path.join(path, name), "rb") as f:
                    total += f.read().count(b"\n")
    return total


def defaulted_parameters() -> int:
    count = 0
    for info in pkgutil.iter_modules(psilab.__path__):
        module = importlib.import_module(f"psilab.{info.name}")
        for obj in vars(module).values():
            own = getattr(obj, "__module__", None) == module.__name__
            if inspect.isclass(obj) and issubclass(obj, enum.Enum):
                continue
            if own and (inspect.isfunction(obj) or inspect.isclass(obj)):
                try:
                    params = inspect.signature(obj).parameters.values()
                except ValueError:  # a class with a builtin constructor
                    continue
                count += sum(p.default is not p.empty for p in params)
    return count


def cli_options() -> int:
    count = 0
    for name in vars(cli):
        if name.startswith("_parser_"):
            parser = getattr(cli, name)()
            count += sum(1 for a in parser._actions
                         if a.option_strings and a.dest != "help")
    return count


if __name__ == "__main__":
    params, options = defaulted_parameters(), cli_options()
    print(f"src lines: {source_lines()}")
    print(f"settable values: {params + options} "
          f"({params} parameters + {options} CLI options)")
