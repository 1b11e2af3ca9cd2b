"""Generate docs/API.md from the package's docstrings.

Walks every public module of :mod:`repro`, lists its public classes and
functions with their signature and first docstring line.  Run via
``make docs`` (writes to stdout; the Makefile redirects).
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import sys


def first_line(obj) -> str:
    doc = inspect.getdoc(obj) or ""
    return doc.split("\n")[0].strip()


def signature_of(obj) -> str:
    try:
        return str(inspect.signature(obj))
    except (ValueError, TypeError):
        return "(...)"


def document_module(name: str) -> list[str]:
    module = importlib.import_module(name)
    lines = [f"## `{name}`", ""]
    summary = first_line(module)
    if summary:
        lines += [summary, ""]

    exported = getattr(module, "__all__", None)
    members = []
    for attr_name in dir(module):
        if attr_name.startswith("_"):
            continue
        if exported is not None and attr_name not in exported:
            continue
        attr = getattr(module, attr_name)
        if inspect.ismodule(attr):
            continue
        if getattr(attr, "__module__", None) != name:
            continue
        members.append((attr_name, attr))

    for attr_name, attr in members:
        if inspect.isclass(attr):
            lines.append(f"### class `{attr_name}`")
            lines.append("")
            lines.append(first_line(attr))
            lines.append("")
            for meth_name, meth in inspect.getmembers(attr, inspect.isfunction):
                if meth_name.startswith("_"):
                    continue
                if meth.__qualname__.split(".")[0] != attr_name:
                    continue
                lines.append(
                    f"- `{meth_name}{signature_of(meth)}` — {first_line(meth)}"
                )
            properties = [
                (n, p)
                for n, p in inspect.getmembers(
                    attr, lambda m: isinstance(m, property)
                )
            ]
            for prop_name, prop in properties:
                if prop_name.startswith("_"):
                    continue
                lines.append(f"- `{prop_name}` (property) — {first_line(prop.fget)}")
            lines.append("")
        elif inspect.isfunction(inspect.unwrap(attr)):  # memoized too
            lines.append(
                f"### `{attr_name}{signature_of(attr)}`"
            )
            lines.append("")
            lines.append(first_line(attr))
            lines.append("")
    return lines


def main() -> int:
    import repro

    print("# API reference")
    print()
    print("Generated by `tools/gen_api_docs.py` (`make docs`).  One entry")
    print("per public symbol: signature plus the first docstring line; see")
    print("the source docstrings for parameters, units, and caveats.")
    print()

    module_names = ["repro"]
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        module_names.append(info.name)

    for name in sorted(set(module_names)):
        if name == "repro.cli":
            continue  # documented by --help (substring match would also
            # hide repro.service.client, which belongs in the API docs)
        try:
            lines = document_module(name)
        except Exception as exc:  # pragma: no cover - defensive
            print(f"<!-- failed to document {name}: {exc} -->")
            continue
        print("\n".join(lines))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
