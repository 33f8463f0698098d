"""What a fresh kmslab process loads: its records are built without generated code, and a
first call pulls in no numpy submodule that its result does not need."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "kmslab"


def _fresh(script, *args):
    """The JSON value the last line of ``script``'s output holds, run in a fresh
    interpreter that imports kmslab from this checkout."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    r = subprocess.run([sys.executable, "-c", script, *args], capture_output=True,
                       text=True, env=env, timeout=120)
    assert r.returncode == 0, r.stderr
    return json.loads(r.stdout.splitlines()[-1])


def test_importing_kmslab_and_its_cli_loads_no_dataclasses():
    script = "import json, sys\nimport kmslab, kmslab.cli\nprint(json.dumps('dataclasses' in sys.modules))"
    assert _fresh(script) is False


def test_a_first_decompose_loads_no_numpy_ma(tmp_path):
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps({"block_dims": [2, 3], "beta": 1.0, "generator": [
        [[0.0, 0.0], [0.0, 1.0]], [[0.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, -1.0]]]}))
    element = tmp_path / "element.json"
    element.write_text(json.dumps({"blocks": [[[1.0, 2.0], [0.5, -1.0]],
                                              [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0],
                                               [7.0, 8.0, 9.0]]]}))
    script = ("import json, sys\nfrom kmslab import cli\ncode = cli.main(sys.argv[1:])\n"
              "print(json.dumps([code, 'numpy.ma' in sys.modules]))")
    out = tmp_path / "degrees.csv"
    assert _fresh(script, "decompose", "--problem", str(problem), "--element", str(element),
                  "--out", str(out)) == [0, False]
    assert [int(r.split(",")[0]) for r in out.read_text().splitlines()[1:]] == [-3, -2, -1, 0,
                                                                              1, 2, 3]


def generated_code_sites(package=PACKAGE):
    """``file:line`` of each call of ``exec``, ``eval`` or ``compile`` and each import of
    ``dataclasses`` (whose decorator execs the methods it writes) under ``package``."""
    sites = []
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in ("exec", "eval", "compile")):
                sites.append(f"{path.name}:{node.lineno} {node.func.id}(")
            elif isinstance(node, ast.ImportFrom) and node.module == "dataclasses":
                sites.append(f"{path.name}:{node.lineno} from dataclasses")
            elif isinstance(node, ast.Import) and any(a.name == "dataclasses" for a in node.names):
                sites.append(f"{path.name}:{node.lineno} import dataclasses")
    return sites


def test_the_package_runs_no_generated_code():
    assert generated_code_sites() == []


def test_a_generated_code_site_is_caught(tmp_path):
    (tmp_path / "mod.py").write_text(
        "import dataclasses\nfrom dataclasses import dataclass\nimport re\n"
        "exec('x = 1')\ny = eval('2')\ncode = compile('3', 'f', 'eval')\nre.compile('a')\n")
    assert generated_code_sites(tmp_path) == [
        "mod.py:1 import dataclasses", "mod.py:2 from dataclasses", "mod.py:4 exec(",
        "mod.py:5 eval(", "mod.py:6 compile("]
