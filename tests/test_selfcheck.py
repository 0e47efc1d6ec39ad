"""Self-sanitizer (DET/GRD) rule units, fixture coverage, and the
zero-findings golden gate over the shipped tree."""

import ast
from pathlib import Path

import repro
from repro.analysis.selfcheck import selfcheck_paths, selfcheck_source

FIXTURES = (Path(__file__).resolve().parent.parent
            / "examples" / "lint_fixtures" / "selfcheck")
SHIPPED = Path(repro.__file__).parent


def codes(source, filename="probe.py"):
    return [d.code for d in selfcheck_source(source, filename)]


class TestDet001:
    def test_unseeded_numpy_legacy_rng(self):
        assert codes("import numpy as np\nx = np.random.rand(4)\n") \
            == ["DET001"]

    def test_seeded_generator_is_clean(self):
        assert codes(
            "import numpy as np\n"
            "rng = np.random.default_rng(7)\n"
            "x = rng.random(4)\n") == []

    def test_stdlib_random_module(self):
        # Both the import and the draw are flagged.
        assert codes("import random\nx = random.random()\n") \
            == ["DET001", "DET001"]

    def test_wallclock_read(self):
        assert codes("import time\nt = time.time()\n") == ["DET001"]

    def test_perf_counter_is_clean(self):
        assert codes("import time\nt = time.perf_counter()\n") == []

    def test_datetime_now(self):
        assert codes(
            "import datetime\n"
            "stamp = datetime.datetime.now()\n") == ["DET001"]

    def test_pragma_suppresses(self):
        assert codes(
            "import time\n"
            "t = time.time()  # afflint: allow(DET001)\n") == []

    def test_pragma_is_code_specific(self):
        assert codes(
            "import time\n"
            "t = time.time()  # afflint: allow(DET002)\n") == ["DET001"]


class TestDet002:
    def test_set_literal_iteration(self):
        assert codes("for x in {1, 2, 3}:\n    print(x)\n") == ["DET002"]

    def test_set_variable_iteration(self):
        src = ("def f(items):\n"
               "    seen = set()\n"
               "    seen.update(items)\n"
               "    out = []\n"
               "    for x in seen:\n"
               "        out.append(x)\n"
               "    return out\n")
        assert codes(src) == ["DET002"]

    def test_set_variable_materialized(self):
        src = ("def f(items):\n"
               "    hot = {i for i in items}\n"
               "    return list(hot)\n")
        assert codes(src) == ["DET002"]

    def test_reassigned_variable_is_not_tracked(self):
        src = ("def f(items):\n"
               "    vals = set(items)\n"
               "    vals = sorted(vals)\n"
               "    return [v for v in vals]\n")
        assert codes(src) == []

    def test_sorted_consumption_is_clean(self):
        assert codes("xs = [x for x in sorted({3, 1, 2})]\n") == []

    def test_order_insensitive_reducers_are_clean(self):
        src = ("total = sum(set([1, 2]))\n"
               "top = max({1, 2})\n"
               "n = len({1, 2})\n"
               "hits = sum(1 for b in set([1, 2]) if b > 1)\n")
        assert codes(src) == []

    def test_unsorted_glob(self):
        src = ("from pathlib import Path\n"
               "def f(root: Path):\n"
               "    return [p.name for p in root.glob('*.json')]\n")
        assert codes(src) == ["DET002"]

    def test_sorted_glob_is_clean(self):
        src = ("from pathlib import Path\n"
               "def f(root: Path):\n"
               "    return [p.name for p in sorted(root.glob('*.json'))]\n")
        assert codes(src) == []

    def test_os_listdir(self):
        assert codes("import os\nnames = list(os.listdir('.'))\n") \
            == ["DET002"]


GUARDED_PREFIX = "class C:\n    def m(self):\n"


class TestGrd001:
    def test_direct_unguarded_access(self):
        src = GUARDED_PREFIX + "        self.machine.faults.note(1)\n"
        assert codes(src) == ["GRD001"]

    def test_alias_unguarded_access(self):
        src = GUARDED_PREFIX + ("        st = self.machine.faults\n"
                                "        st.note(1)\n")
        assert codes(src) == ["GRD001"]

    def test_alias_then_guard_is_clean(self):
        src = GUARDED_PREFIX + ("        st = self.machine.faults\n"
                                "        if st is not None:\n"
                                "            st.note(1)\n")
        assert codes(src) == []

    def test_early_return_guard_is_clean(self):
        src = GUARDED_PREFIX + ("        st = self.machine.relayout\n"
                                "        if st is None:\n"
                                "            return 0\n"
                                "        return st.epoch\n")
        assert codes(src) == []

    def test_assert_guard_is_clean(self):
        src = GUARDED_PREFIX + ("        st = self.machine.tracer\n"
                                "        assert st is not None\n"
                                "        return st.enabled\n")
        assert codes(src) == []

    def test_and_chain_guard_is_clean(self):
        src = GUARDED_PREFIX + (
            "        return (self.machine.tracer is not None\n"
            "                and self.machine.tracer.enabled)\n")
        assert codes(src) == []

    def test_ternary_guard_is_clean(self):
        src = GUARDED_PREFIX + (
            "        st = self.machine.faults\n"
            "        return st.log if st is not None else None\n")
        assert codes(src) == []

    def test_non_feature_attrs_are_ignored(self):
        src = GUARDED_PREFIX + "        return self.machine.mesh.hops(0, 1)\n"
        assert codes(src) == []


class TestGrd002:
    def test_parameter_missing_from_key(self):
        src = ("from repro.cache import cache_key\n"
               "def run(fid, scale, mode, use_cache=True):\n"
               "    return cache_key('x', fid=fid, scale=scale)\n")
        assert codes(src) == ["GRD002"]

    def test_complete_key_is_clean(self):
        src = ("from repro.cache import cache_key\n"
               "def run(fid, scale, mode, use_cache=True):\n"
               "    return cache_key('x', fid=fid, scale=scale, mode=mode)\n")
        assert codes(src) == []

    def test_allowlisted_params_are_exempt(self):
        src = ("from repro.cache import cache_key\n"
               "def run(fid, use_cache=True, cache_dir=None, progress=None):\n"
               "    return cache_key('x', fid=fid)\n")
        assert codes(src) == []

    def test_builder_reads_unkeyed_parameter(self):
        src = ("from repro.cache import cached_graph\n"
               "def graph(n, seed, sym):\n"
               "    return cached_graph('g', lambda: make(n, seed, sym),\n"
               "                        n=n, seed=seed)\n")
        assert codes(src) == ["GRD002"]

    def test_nested_builder_reads_unkeyed_local(self):
        src = ("from repro.cache import cached_arrays\n"
               "def inputs(n, seed):\n"
               "    m = 2 * n\n"
               "    def draw():\n"
               "        return {'a': rng(seed).random(m)}\n"
               "    return cached_arrays('i', draw, names=('a',), seed=seed)\n")
        assert codes(src) == ["GRD002"]

    def test_keyed_builder_is_clean(self):
        src = ("from repro.cache import cached_arrays\n"
               "def inputs(n, seed, p):\n"
               "    m = 2 * n\n"
               "    def draw():\n"
               "        x = rng(seed).random(m) * p['k']\n"
               "        return {'a': x}\n"
               "    return cached_arrays('i', draw, names=('a',), seed=seed,\n"
               "                         m=m, k=p['k'])\n")
        assert codes(src) == []

    def test_check_argument_is_not_a_key(self):
        src = ("from repro.cache import cached_arrays\n"
               "def inputs(seed, n):\n"
               "    def draw():\n"
               "        return {'a': rng(seed).random(n)}\n"
               "    return cached_arrays('i', draw, seed=seed,\n"
               "                         check=lambda a: a['a'].size == n)\n")
        assert codes(src) == ["GRD002"]

    def test_names_argument_is_not_a_key(self):
        src = ("from repro.cache import cached_arrays\n"
               "def inputs(seed, names):\n"
               "    def draw():\n"
               "        return dict.fromkeys(names, rng(seed).random(4))\n"
               "    return cached_arrays('i', draw, names=names, seed=seed)\n")
        assert codes(src) == ["GRD002"]


class TestFixtures:
    def test_each_fixture_triggers_exactly_its_expected_codes(self):
        report = selfcheck_paths([FIXTURES])
        by_file = {}
        for diag in report:
            by_file.setdefault(Path(diag.site.file).name, set()).add(
                diag.code)
        for path in sorted(FIXTURES.glob("*.py")):
            tree = ast.parse(path.read_text())
            expect = None
            for node in tree.body:
                if isinstance(node, ast.Assign) and any(
                        isinstance(t, ast.Name) and t.id == "EXPECT"
                        for t in node.targets):
                    expect = set(ast.literal_eval(node.value))
            assert expect, f"{path.name} declares no EXPECT"
            assert by_file.get(path.name, set()) == expect, path.name

    def test_clean_sibling_idioms_do_not_flag(self):
        """Every fixture embeds the clean idiom; its line must be quiet."""
        report = selfcheck_paths([FIXTURES])
        flagged = {(Path(d.site.file).name, d.site.line) for d in report}
        for name, line in [("set_iteration.py", 24),
                           ("unsorted_glob.py", 23),
                           ("unguarded_feature.py", 23),
                           ("digest_gap.py", 21),
                           ("builder_gap.py", 39)]:
            assert (name, line) not in flagged, (name, line)


class TestGoldenShippedTree:
    def test_shipped_code_has_zero_findings(self, shipped_selfcheck):
        report = shipped_selfcheck
        assert len(report) == 0, report.render()

    def test_shipped_code_carries_no_test_oracles(self):
        """The pre-vectorization oracles live in ``tests/oracles.py``;
        no shipped module brings back the switch that patched them in."""
        assert not (SHIPPED / "perf" / "reference.py").exists()
        for path in sorted(SHIPPED.rglob("*.py")):
            source = path.read_text()
            assert "reference_impls" not in source, path
            for node in ast.walk(ast.parse(source)):
                if isinstance(node, ast.ImportFrom):
                    names = [f"{node.module}.{a.name}" for a in node.names]
                elif isinstance(node, ast.Import):
                    names = [a.name for a in node.names]
                else:
                    continue
                assert not any(n.startswith("repro.perf.reference")
                               for n in names), (path, node.lineno)

    def test_selfcheck_is_deterministic(self):
        a = [(d.code, d.site.file, d.site.line)
             for d in selfcheck_paths([FIXTURES])]
        b = [(d.code, d.site.file, d.site.line)
             for d in selfcheck_paths([FIXTURES])]
        assert a == b

    def test_filenames_are_relative_and_sorted(self):
        report = selfcheck_paths([FIXTURES])
        files = [d.site.file for d in report]
        assert all(not Path(f).is_absolute() for f in files)
        assert files == sorted(files)
