import os
import subprocess
import sys
from pathlib import Path

import chemodde


def test_all_names_exist_and_are_sorted():
    assert [name for name in chemodde.__all__ if not hasattr(chemodde, name)] == []
    assert chemodde.__all__ == sorted(set(chemodde.__all__))


def test_cli_import_loads_no_network_or_xml_package():
    # importing xml.sax.saxutils pulls in urllib.request, http.client and
    # ssl, which add about 3 MB to the peak memory of every run; pathlib
    # imports urllib.parse, which is small and imports none of them.
    # @dataclass compiles six methods per class with exec, about 13 ms of
    # start-up for the package's records, so no module uses dataclasses
    src = str(Path(chemodde.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = "import sys, chemodde.cli; print(*sorted(sys.modules))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    loaded = out.stdout.split()
    assert "chemodde.cli" in loaded
    heavy = ("urllib.request", "http", "ssl", "xml", "email", "dataclasses")
    assert [m for m in loaded if m in heavy or m.startswith(tuple(h + "." for h in heavy))] == []
