import json
import subprocess
import sys
from pathlib import Path

import packedwords
from packedwords import algebra, coalgebra, enumeration, primitives, words


def test_exports_are_the_modules_exports():
    modules = (words, algebra, coalgebra, enumeration, primitives)
    assert set(packedwords.__all__) == {name for m in modules for name in m.__all__}
    assert len(packedwords.__all__) == len(set(packedwords.__all__))
    for m in modules:
        for name in m.__all__:
            assert getattr(packedwords, name) is getattr(m, name), name


def test_the_cli_imports_neither_dataclasses_nor_inspect():
    # every CLI process pays for its imports; these two alone pull in ast,
    # dis and tokenize.  -S keeps site's own imports out of the count.
    root = str(Path(packedwords.__file__).resolve().parent.parent)
    code = (
        f"import sys; sys.path.insert(0, {root!r}); import packedwords.cli; "
        "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))"
    )
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


def test_the_benchmark_tracer_installs_on_the_package():
    # perfbench/tracer.py wraps module attributes by name, some of them
    # imported only for it; each must still be there.  A traced job also
    # reads the package's private caches (words._pack_letters), so one runs.
    perfbench = Path(__file__).resolve().parent.parent / "perfbench"
    code = (
        "import json, tracer; tracer.install(tracer.Tracer()); "
        "print(json.dumps(tracer.run_job([['product', '1', '1']], True)))"
    )
    done = subprocess.run([sys.executable, "-c", code], cwd=perfbench, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["layers"]
