"""repro.lint whole-program rules: the one pass builds a faithful model
of the tree (modules, MROs, call graph), parses and walks each file once,
each whole-program rule (RPL011-RPL024) fires on a seeded mutation of the
real engines, the pass is fast and byte-deterministic, and — the
contract the package exists for — src/repro itself is lint-clean."""

import ast
import json
import os
import re
import subprocess
import sys
import textwrap
import time
from collections import Counter

from repro.lint import RULES, RULES_BY_CODE, iter_python_files, lint
from repro.lint.baseline import (
    filter_baselined,
    fingerprint,
    load_baseline,
    write_baseline,
)
from repro.lint.program import module_name_for
from repro.lint.rules.base import Violation

from .lint_harness import (
    REPO_SRC,
    SRC_REPRO,
    _mutated_tree,
    _program_from,
    codes,
    rules,
)


# -- registry ---------------------------------------------------------------

def test_deep_registry_covers_rpl011_through_rpl024():
    # one registry, RPL001-RPL024; the whole-program rules follow the
    # file-local ones
    assert sorted(RULES_BY_CODE) == [f"RPL{i:03d}" for i in range(1, 25)]
    assert [rule.code for rule in RULES[10:]] == [
        f"RPL{i:03d}" for i in range(11, 25)
    ]
    for rule in RULES[10:]:
        assert rule.name and rule.rationale


# -- program model ----------------------------------------------------------

def test_module_name_for_walks_packages():
    assert module_name_for(
        os.path.join(SRC_REPRO, "engines", "bsp.py")
    ) == "repro.engines.bsp"
    assert module_name_for(
        os.path.join(SRC_REPRO, "lint", "__init__.py")
    ) == "repro.lint"


def test_mro_linearizes_mixin_diamonds(tmp_path):
    program = _program_from(tmp_path, {
        "pkg/__init__.py": "",
        "pkg/base.py": """
            class Engine:
                def run(self):
                    return self.step()

                def step(self):
                    return "base"
            """,
        "pkg/mix.py": """
            class LoopMixin:
                def step(self):
                    return "mixin"
            """,
        "pkg/impl.py": """
            from .base import Engine
            from .mix import LoopMixin

            class FastEngine(LoopMixin, Engine):
                pass
            """,
    })
    fast = program.classes["pkg.impl.FastEngine"]
    names = [c.name for c in program.mro(fast)]
    assert names == ["FastEngine", "LoopMixin", "Engine"]
    # step resolves through the mixin, run through the root
    assert program.resolve_method(fast, "step").qualname == (
        "pkg.mix.LoopMixin.step"
    )
    assert program.resolve_method(fast, "run").qualname == (
        "pkg.base.Engine.run"
    )


def test_super_resolution_skips_past_the_defining_class(tmp_path):
    program = _program_from(tmp_path, {
        "pkg/__init__.py": "",
        "pkg/base.py": """
            class Engine:
                def _load(self):
                    return "root"
            """,
        "pkg/mid.py": """
            from .base import Engine

            class MidEngine(Engine):
                def _load(self):
                    return super()._load()
            """,
        "pkg/leaf.py": """
            from .mid import MidEngine

            class LeafEngine(MidEngine):
                pass
            """,
    })
    leaf = program.classes["pkg.leaf.LeafEngine"]
    mid = program.classes["pkg.mid.MidEngine"]
    resolved = program.resolve_super_method(leaf, mid, "_load")
    assert resolved.qualname == "pkg.base.Engine._load"


# -- RPL011 on a fixture package (installed model table fallback) -----------

def test_rpl011_flags_undeclared_and_disallowed_primitives(tmp_path):
    program_dir = tmp_path / "eng"
    (program_dir / "__init__.py").parent.mkdir()
    (program_dir / "__init__.py").write_text("")
    (program_dir / "base.py").write_text(textwrap.dedent("""
        class Engine:
            trace_model = "bsp"

            def run(self, cluster):
                self._load(cluster)
                self._execute(cluster)
        """))
    (program_dir / "toy.py").write_text(textwrap.dedent("""
        from .base import Engine

        class ToyEngine(Engine):
            trace_model = "single-thread"
            model_primitives = frozenset({"advance"})

            def _load(self, cluster):
                cluster.advance(1.0)

            def _execute(self, cluster):
                self._charge(cluster)

            def _charge(self, cluster):
                cluster.shuffle(10.0)

        class BareEngine(Engine):
            def _load(self, cluster):
                pass

            def _execute(self, cluster):
                pass

        class GreedyEngine(Engine):
            trace_model = "single-thread"
            model_primitives = frozenset({"advance", "shuffle"})

            def _load(self, cluster):
                pass

            def _execute(self, cluster):
                pass
        """))
    found = lint([str(tmp_path)], rules=rules("RPL011"))
    messages = {v.message for v in found}
    assert codes(found) == ["RPL011"] * 3
    # ToyEngine: shuffle reached two hops from run but not declared
    assert any(
        "cluster.shuffle()" in m and "ToyEngine" in m for m in messages
    )
    # BareEngine: no declaration at all
    assert any(
        "BareEngine" in m and "model_primitives" in m for m in messages
    )
    # GreedyEngine: declares a primitive its model forbids
    assert any(
        "GreedyEngine" in m and "shuffle" in m and "does not allow" in m
        for m in messages
    )


# -- RPL015-RPL020 on fixture packages: one positive + one negative each ----

def test_rpl015_flags_large_pool_arguments(tmp_path):
    _program_from(tmp_path, {
        "pkg/__init__.py": "",
        "pkg/exec/__init__.py": "",
        "pkg/exec/runner.py": """
            def run_one(dataset, t):
                return t

            def fan_out(pool, dataset, tasks):
                for t in tasks:
                    pool.submit(run_one, dataset, t)

            def fan_out_by_name(pool, tasks):
                for t in tasks:
                    pool.submit(run_one, t.payload())
            """,
    })
    found = lint([str(tmp_path)], rules=rules("RPL015"))
    assert codes(found) == ["RPL015"]
    assert "'dataset' names a large object" in found[0].message
    # the by-name dispatch two lines down stays clean
    assert "payload" not in found[0].message


def test_rpl015_sees_through_partial_and_lambda(tmp_path):
    _program_from(tmp_path, {
        "pkg/__init__.py": "",
        "pkg/exec/__init__.py": "",
        "pkg/exec/wrap.py": """
            from functools import partial

            def fan_out(pool, graph, tasks):
                for t in tasks:
                    pool.submit(partial(run_one, graph), t)

            def fan_out_closure(pool, spec):
                pool.map(lambda t: run_one(spec, t), range(4))

            def run_one(g, t):
                return t
            """,
    })
    found = lint([str(tmp_path)], rules=rules("RPL015"))
    assert codes(found) == ["RPL015", "RPL015"]
    assert any("'graph'" in v.message for v in found)
    assert any("'spec'" in v.message for v in found)


def test_rpl015_ignores_pools_outside_exec(tmp_path):
    _program_from(tmp_path, {
        "pkg/__init__.py": "",
        "pkg/tools.py": """
            def fan_out(pool, dataset, tasks):
                for t in tasks:
                    pool.submit(t, dataset)
            """,
    })
    assert lint([str(tmp_path)], rules=rules("RPL015")) == []


def test_rpl016_flags_unmemoized_digest_in_loop(tmp_path):
    _program_from(tmp_path, {
        "pkg/__init__.py": "",
        "pkg/digests.py": """
            import hashlib

            def fingerprint(blob):
                d = hashlib.sha256()
                d.update(blob.tobytes())
                return d.hexdigest()

            def plan(blobs):
                keys = []
                for b in blobs:
                    keys.append(fingerprint(b))
                return keys

            def one_key(blob):
                return fingerprint(blob)
            """,
    })
    found = lint([str(tmp_path)], rules=rules("RPL016"))
    assert codes(found) == ["RPL016"]
    assert "fingerprint" in found[0].message
    assert "lru_cache" in found[0].message


def test_rpl016_memoized_digest_is_clean(tmp_path):
    _program_from(tmp_path, {
        "pkg/__init__.py": "",
        "pkg/digests.py": """
            import hashlib
            from functools import lru_cache

            @lru_cache(maxsize=None)
            def fingerprint(blob):
                d = hashlib.sha256()
                d.update(blob.tobytes())
                return d.hexdigest()

            def plan(blobs):
                return [fingerprint(b) for b in blobs]

            def stream(paths):
                d = hashlib.sha256()
                for p in paths:
                    d.update(p.read_bytes())
                return d.hexdigest()
            """,
    })
    # memoized call sites and the streaming idiom (constructor outside
    # the loop, incremental update inside) are both sanctioned
    assert lint([str(tmp_path)], rules=rules("RPL016")) == []


def test_rpl016_flags_direct_bulk_hash_in_loop(tmp_path):
    _program_from(tmp_path, {
        "pkg/__init__.py": "",
        "pkg/inline.py": """
            import hashlib

            def retry_keys(blob, attempts):
                out = []
                for attempt in range(attempts):
                    out.append(hashlib.sha256(blob.tobytes()).hexdigest())
                return out

            def per_item_keys(blobs):
                # hashing the loop variable is per-item work, not waste
                out = []
                for b in blobs:
                    out.append(hashlib.sha256(b.tobytes()).hexdigest())
                return out
            """,
    })
    found = lint([str(tmp_path)], rules=rules("RPL016"))
    assert codes(found) == ["RPL016"]
    assert found[0].line == 7
    assert "hoist or memoize" in found[0].message


_RPL017_BASE = {
    "pkg/__init__.py": "",
    "pkg/base.py": """
        class Engine:
            def run(self):
                return self.run_superstep_loop()
        """,
}


def test_rpl017_flags_hot_loop_waste(tmp_path):
    files = dict(_RPL017_BASE)
    files["pkg/toy.py"] = """
        from .base import Engine

        class ToyEngine(Engine):
            def run_superstep_loop(self):
                log = ""
                while self.step():
                    opts = {"mode": "sync"}
                    log += "tick"
                    lat = self.cluster.network.latency
                    model = getattr(self, "trace_model", "bsp")
                return log, opts, lat, model
        """
    _program_from(tmp_path, files)
    found = lint([str(tmp_path)], rules=rules("RPL017"))
    assert codes(found) == ["RPL017"] * 4
    messages = " ".join(v.message for v in found)
    assert "string +=" in messages
    assert "constant container" in messages
    assert "self.cluster.network.latency" in messages
    assert "getattr" in messages


def test_rpl017_loop_dependent_work_is_clean(tmp_path):
    files = dict(_RPL017_BASE)
    files["pkg/toy.py"] = """
        from .base import Engine

        class ToyEngine(Engine):
            def run_superstep_loop(self):
                rows = []
                for it in self.items():
                    row = {"value": it.value}
                    rows.append(row)
                    name = it.stats.timing.total
                    flag = getattr(it, "converged", False)
                return rows, name, flag
        """
    _program_from(tmp_path, files)
    # per-iteration values, loop-variable-rooted chains, and a fresh
    # accumulator are all legitimate — nothing is hoistable
    assert lint([str(tmp_path)], rules=rules("RPL017")) == []


def test_rpl017_ignores_loops_outside_the_superstep_cone(tmp_path):
    files = dict(_RPL017_BASE)
    files["pkg/toy.py"] = """
        from .base import Engine

        class ToyEngine(Engine):
            def run_superstep_loop(self):
                return 0

        def report(lines):
            out = ""
            for line in lines:
                out += "x"
            return out
        """
    _program_from(tmp_path, files)
    assert lint([str(tmp_path)], rules=rules("RPL017")) == []


_RPL018_COMMON = {
    "pkg/__init__.py": "",
    "pkg/core/__init__.py": "",
    "pkg/engines/__init__.py": "",
    "pkg/workloads/__init__.py": "",
    "pkg/exec/__init__.py": "",
    "pkg/engines/base.py": """
        class Engine:
            def run(self):
                return None
        """,
    "pkg/engines/toy.py": """
        from .base import Engine
        from ..workloads.foo import step

        class ToyEngine(Engine):
            def run(self):
                return step()
        """,
    "pkg/workloads/foo.py": """
        def step():
            return 1
        """,
    "pkg/core/runner.py": """
        from ..engines.toy import ToyEngine

        def run_cell(system, workload, dataset, cluster_size, chaos=None):
            return ToyEngine().run()
        """,
}


def _rpl018_cache_module(packages, keys):
    entries = "\n".join(f'        "{k}": {v},' for k, v in keys.items())
    listed = ", ".join(f'"{p}"' for p in packages)
    return (
        "import hashlib\n"
        "\n"
        f"_RESULT_PACKAGES = ({listed},)\n"
        "\n"
        "def cell_key(task, dataset):\n"
        "    payload = {\n"
        f"{entries}\n"
        "    }\n"
        "    return hashlib.sha256(repr(payload).encode()).hexdigest()\n"
    )


def test_rpl018_flags_missing_package_and_missing_key(tmp_path):
    files = dict(_RPL018_COMMON)
    # "workloads" is reachable from the engine but not digested, and
    # run_cell's chaos parameter never reaches the key dict
    files["pkg/exec/cache.py"] = _rpl018_cache_module(
        ["core", "engines"],
        {
            "system": "task.system", "workload": "task.workload",
            "dataset": "dataset", "cluster_size": "task.cluster_size",
        },
    )
    _program_from(tmp_path, files)
    found = lint([str(tmp_path)], rules=rules("RPL018"))
    assert codes(found) == ["RPL018", "RPL018"]
    messages = " ".join(v.message for v in found)
    assert "'workloads'" in messages and "_RESULT_PACKAGES" in messages
    assert "'chaos'" in messages and "stale" in messages


def test_rpl018_complete_key_is_clean(tmp_path):
    files = dict(_RPL018_COMMON)
    files["pkg/exec/cache.py"] = _rpl018_cache_module(
        ["core", "engines", "workloads"],
        {
            "system": "task.system", "workload": "task.workload",
            "dataset": "dataset", "cluster_size": "task.cluster_size",
            "chaos": "task.chaos",
        },
    )
    _program_from(tmp_path, files)
    assert lint([str(tmp_path)], rules=rules("RPL018")) == []


def test_rpl019_flags_parent_written_worker_read_state(tmp_path):
    _program_from(tmp_path, {
        "pkg/__init__.py": "",
        "pkg/exec/__init__.py": "",
        "pkg/exec/workers.py": """
            __all__ = ["work"]

            _MEMO = {}

            def work(task):
                return _MEMO.get(task)

            def prime(task, value):
                _MEMO[task] = value
            """,
    })
    found = lint([str(tmp_path)], rules=rules("RPL019"))
    assert codes(found) == ["RPL019"]
    assert "'_MEMO'" in found[0].message
    assert "outside the worker cone" in found[0].message


def test_rpl019_per_process_memo_is_clean(tmp_path):
    _program_from(tmp_path, {
        "pkg/__init__.py": "",
        "pkg/exec/__init__.py": "",
        "pkg/exec/workers.py": """
            __all__ = ["work"]

            _LOCAL = {}
            _LIMITS = {"max": 4}

            def work(task):
                if task not in _LOCAL:
                    _LOCAL[task] = task * 2
                return _LOCAL[task]

            def parent_report(tasks):
                return len(tasks)
            """,
    })
    # _LOCAL is filled and read inside the cone (re-derived per
    # process); _LIMITS is read-only everywhere — both are sound
    assert lint([str(tmp_path)], rules=rules("RPL019")) == []


def test_rpl019_flags_worker_written_parent_read_state(tmp_path):
    _program_from(tmp_path, {
        "pkg/__init__.py": "",
        "pkg/exec/__init__.py": "",
        "pkg/exec/workers.py": """
            __all__ = ["work"]

            _RESULTS = []

            def work(task):
                _RESULTS.append(task)

            def collect():
                return list(_RESULTS)
            """,
    })
    found = lint([str(tmp_path)], rules=rules("RPL019"))
    assert codes(found) == ["RPL019"]
    assert "inside the worker cone" in found[0].message
    assert "pool future" in found[0].message


_RPL020_CLOCK = {
    "pkg/__init__.py": "",
    "pkg/hostclock.py": """
        import time

        def host_sleep(seconds):
            time.sleep(seconds)

        def host_now():
            return time.monotonic()
        """,
}


def test_rpl020_flags_unbounded_poll_loop(tmp_path):
    files = dict(_RPL020_CLOCK)
    files["pkg/poll.py"] = """
        from .hostclock import host_sleep

        def wait_ready(conn):
            while True:
                if conn.ready():
                    return conn.take()
                host_sleep(0.1)
        """
    _program_from(tmp_path, files)
    found = lint([str(tmp_path)], rules=rules("RPL020"))
    # the data-dependent exit is the condition being waited for, not a
    # bound on the wait — the loop spins forever when ready() never comes
    assert codes(found) == ["RPL020"]
    assert "wait_ready" in found[0].message
    assert "host_sleep" in found[0].message


def test_rpl020_counter_deadline_and_condition_bounds_are_clean(tmp_path):
    files = dict(_RPL020_CLOCK)
    files["pkg/poll.py"] = """
        from .hostclock import host_now, host_sleep

        def wait_counted(conn, retries):
            attempts = 0
            while True:
                if conn.ready():
                    return conn.take()
                if attempts >= retries:
                    raise TimeoutError("gave up")
                attempts += 1
                host_sleep(0.1)

        def wait_deadline(conn, timeout):
            deadline = host_now() + timeout
            while True:
                if conn.ready():
                    return conn.take()
                if host_now() >= deadline:
                    raise TimeoutError("gave up")
                host_sleep(0.1)

        def wait_conditional(conn):
            while not conn.closed():
                host_sleep(0.1)
        """
    _program_from(tmp_path, files)
    # attempt counter, host-clock deadline, and a non-constant loop test
    # are the three sanctioned bounds
    assert lint([str(tmp_path)], rules=rules("RPL020")) == []


def test_rpl020_follows_same_module_calls_only(tmp_path):
    files = dict(_RPL020_CLOCK)
    files["pkg/local.py"] = """
        from .hostclock import host_sleep

        def backoff(attempt):
            host_sleep(0.1 * attempt)

        def spin(conn):
            while True:
                if conn.ready():
                    return conn.take()
                backoff(1)
        """
    files["pkg/remote.py"] = """
        from .local import backoff

        def dispatch(conn):
            while True:
                if conn.ready():
                    return conn.take()
                backoff(1)
        """
    _program_from(tmp_path, files)
    found = lint([str(tmp_path)], rules=rules("RPL020"))
    # spin sleeps through a same-module helper and is charged for it;
    # dispatch merely enters another module's machinery, which owns its
    # own bounds — one finding, on local.py
    assert codes(found) == ["RPL020"]
    assert found[0].path.endswith("local.py")
    assert "spin" in found[0].message


# -- seeded mutations of the real tree: each rule fires ---------------------

def test_rpl011_mutation_forbidden_primitive(tmp_path):
    tree = _mutated_tree(
        tmp_path,
        os.path.join("engines", "giraph.py"),
        lambda s: s.replace(
            "cluster.sample_memory()",
            "cluster.broadcast(1.0)\n        cluster.sample_memory()",
            1,
        ),
    )
    found = lint([tree], rules=rules("RPL011"))
    assert codes(found) == ["RPL011"]
    assert "cluster.broadcast()" in found[0].message
    assert "GiraphEngine" in found[0].message


def test_rpl012_mutation_unordered_iteration_leak(tmp_path):
    def mutate(s):
        s = s.replace(
            "def _load(",
            "def _leak(self):\n"
            "        out = []\n"
            "        for v in {1, 2}:\n"
            "            out.append(v)\n"
            "        return out\n\n"
            "    def _load(",
            1,
        )
        return s.replace(
            "cluster.hdfs_read(",
            "self._leak()\n        cluster.hdfs_read(",
            1,
        )

    tree = _mutated_tree(
        tmp_path, os.path.join("engines", "gelly.py"), mutate
    )
    found = lint([tree], rules=rules("RPL012"))
    assert codes(found) == ["RPL012"]
    assert "set literal" in found[0].message


def test_rpl013_mutation_unwrapped_tracker_record(tmp_path):
    tree = _mutated_tree(
        tmp_path,
        os.path.join("engines", "graphlab.py"),
        lambda s: s.replace(
            "cluster.sample_memory()",
            "cluster.tracker.record_disk(read=1.0)\n"
            "        cluster.sample_memory()",
            1,
        ),
    )
    found = lint([tree], rules=rules("RPL013"))
    assert codes(found) == ["RPL013"]
    assert "record_disk" in found[0].message
    assert "span" in found[0].message


def test_rpl013_mutation_unspanned_memory_integral(tmp_path):
    # the cost record bills GB-hours off record_memory_integral, so an
    # unspanned call is untraceable billed work — RPL013 must fire
    tree = _mutated_tree(
        tmp_path,
        os.path.join("engines", "graphlab.py"),
        lambda s: s.replace(
            "cluster.sample_memory()",
            "cluster.tracker.record_memory_integral(1.0)\n"
            "        cluster.sample_memory()",
            1,
        ),
    )
    found = lint([tree], rules=rules("RPL013"))
    assert codes(found) == ["RPL013"]
    assert "record_memory_integral" in found[0].message


def test_rpl013_memory_integral_inside_span_is_clean(tmp_path):
    # the same charge wrapped in a span is the sanctioned shape (how
    # the Cluster primitives themselves accrue the integral): no finding
    tree = _mutated_tree(
        tmp_path,
        os.path.join("engines", "graphlab.py"),
        lambda s: s.replace(
            "cluster.sample_memory()",
            "with cluster.tracer.span(\"extra\", cat=\"cluster\"):\n"
            "            cluster.tracker.record_memory_integral(1.0)\n"
            "        cluster.sample_memory()",
            1,
        ),
    )
    assert lint([tree], rules=rules("RPL013")) == []


def test_rpl014_mutation_stray_broad_except(tmp_path):
    def mutate(s):
        match = re.search(r"( +)(cluster\.shuffle\([^\n]+\))", s)
        indent, call = match.group(1), match.group(2)
        wrapped = (
            f"{indent}try:\n"
            f"{indent}    {call}\n"
            f"{indent}except Exception:\n"
            f"{indent}    pass"
        )
        return s[: match.start()] + wrapped + s[match.end():]

    tree = _mutated_tree(
        tmp_path, os.path.join("engines", "spark.py"), mutate
    )
    found = lint([tree], rules=rules("RPL014"))
    assert codes(found) == ["RPL014"]
    assert "broad except" in found[0].message
    assert "fault" in found[0].message


def test_rpl015_mutation_dataset_pickled_into_pool_task(tmp_path):
    tree = _mutated_tree(
        tmp_path,
        os.path.join("exec", "executor.py"),
        lambda s: s.replace(
            "pool.submit(run_cell_task, task.payload(attempt))",
            "pool.submit(run_cell_task, task.payload(attempt), "
            "self.datasets[(task.dataset, task.size)])",
            1,
        ),
    )
    found = lint([tree], rules=rules("RPL015"))
    assert codes(found) == ["RPL015"]
    assert "datasets" in found[0].message
    assert "pickles" in found[0].message


def test_rpl016_mutation_unmemoized_dataset_fingerprint(tmp_path):
    tree = _mutated_tree(
        tmp_path,
        os.path.join("exec", "cache.py"),
        lambda s: s.replace(
            "@lru_cache(maxsize=None)\ndef dataset_fingerprint",
            "def dataset_fingerprint",
            1,
        ),
    )
    found = lint([tree], rules=rules("RPL016"))
    assert codes(found) == ["RPL016", "RPL016"]
    # the findings land on the planner's per-cell key loop and on the
    # serve daemon's scheduler loop, which reaches the same digest
    # through each job it executes
    paths = sorted(v.path for v in found)
    assert paths[0].endswith("executor.py")
    assert paths[1].endswith(os.path.join("serve", "daemon.py"))
    assert all("dataset_fingerprint" in v.message for v in found)


def test_rpl017_mutation_getattr_back_in_superstep_loop(tmp_path):
    tree = _mutated_tree(
        tmp_path,
        os.path.join("engines", "bsp.py"),
        lambda s: s.replace(
            "model=trace_model",
            'model=getattr(self, "trace_model", "bsp")',
            1,
        ),
    )
    found = lint([tree], rules=rules("RPL017"))
    assert codes(found) == ["RPL017"]
    assert "trace_model" in found[0].message
    assert found[0].path.endswith("bsp.py")


def test_rpl018_mutation_dropped_result_package(tmp_path):
    tree = _mutated_tree(
        tmp_path,
        os.path.join("exec", "cache.py"),
        lambda s: s.replace('"partitioning", "workloads",', '"partitioning",', 1),
    )
    found = lint([tree], rules=rules("RPL018"))
    assert codes(found) == ["RPL018"]
    assert "'workloads'" in found[0].message
    assert "_RESULT_PACKAGES" in found[0].message


def test_rpl018_mutation_dropped_chaos_key(tmp_path):
    tree = _mutated_tree(
        tmp_path,
        os.path.join("exec", "cache.py"),
        lambda s: s.replace(
            '        "chaos": None if task.chaos is None else task.chaos.to_dict(),\n',
            "",
            1,
        ),
    )
    found = lint([tree], rules=rules("RPL018"))
    assert codes(found) == ["RPL018"]
    assert "'chaos'" in found[0].message
    assert "stale" in found[0].message


def test_rpl019_mutation_parent_primed_dataset_memo(tmp_path):
    def mutate(s):
        s = s.replace(
            'dataset = load_dataset(task["dataset"], task["size"])',
            'dataset = _WARM_DATASETS.get((task["dataset"], task["size"])) '
            'or load_dataset(task["dataset"], task["size"])',
            1,
        )
        return s + (
            "\n\n_WARM_DATASETS = {}\n"
            "\n\n"
            "def prime_dataset(name, size):\n"
            "    _WARM_DATASETS[(name, size)] = load_dataset(name, size)\n"
        )

    tree = _mutated_tree(tmp_path, os.path.join("exec", "workers.py"), mutate)
    found = lint([tree], rules=rules("RPL019"))
    assert codes(found) == ["RPL019"]
    assert "'_WARM_DATASETS'" in found[0].message
    assert "worker processes never see" in found[0].message.lower()


def test_rpl020_mutation_unbounding_the_submit_backoff(tmp_path):
    # strip the retry bound from the serve client's submit loop: the
    # queue-full backoff then sleeps forever against a saturated daemon
    tree = _mutated_tree(
        tmp_path,
        os.path.join("serve", "client.py"),
        lambda s: s.replace("if rejections >= retries:", "if False:", 1),
    )
    found = lint([tree], rules=rules("RPL020"))
    assert codes(found) == ["RPL020"]
    assert found[0].path.endswith("client.py")
    assert "submit" in found[0].message


# -- RPL021: guarded-field discipline ---------------------------------------

_SERVE_PKG = {"serve/__init__.py": ""}


def test_rpl021_flags_field_guarded_on_one_root_bare_on_another(tmp_path):
    files = dict(_SERVE_PKG)
    files["serve/daemon.py"] = """
        import threading

        class Daemon:
            def __init__(self):
                self.cond = threading.Condition()
                self.jobs_done = 0
                self._thread = None

            def start(self):
                self._thread = threading.Thread(target=self._loop)
                self._thread.start()

            def _loop(self):
                self.jobs_done += 1

            def status(self):
                with self.cond:
                    return self.jobs_done
        """
    _program_from(tmp_path, files)
    found = lint([str(tmp_path)], rules=rules("RPL021"))
    assert codes(found) == ["RPL021"]
    assert "'Daemon.jobs_done'" in found[0].message
    assert "cond" in found[0].message


def test_rpl021_sanctions_the_lock_held_everywhere(tmp_path):
    files = dict(_SERVE_PKG)
    files["serve/daemon.py"] = """
        import threading

        class Daemon:
            def __init__(self):
                self.cond = threading.Condition()
                self.jobs_done = 0
                self._thread = None

            def start(self):
                self._thread = threading.Thread(target=self._loop)
                self._thread.start()

            def _loop(self):
                with self.cond:
                    self.jobs_done += 1

            def status(self):
                with self.cond:
                    return self.jobs_done
        """
    _program_from(tmp_path, files)
    assert lint([str(tmp_path)], rules=rules("RPL021")) == []


def test_rpl021_mutation_unlocking_the_payload_publisher(tmp_path):
    # drop the daemon's `with self.cond:` in _on_cell: the scheduler
    # thread then appends payloads the handler threads read under the
    # lock — exactly the race the rule exists to catch
    tree = _mutated_tree(
        tmp_path,
        os.path.join("serve", "daemon.py"),
        lambda s: s.replace(
            "with self.cond:\n            job.payloads.append(payload)",
            "if True:\n            job.payloads.append(payload)",
            1,
        ),
    )
    found = lint([tree], rules=rules("RPL021"))
    assert "RPL021" in codes(found)
    assert any("'Job.payloads'" in v.message for v in found)


# -- RPL022: blocking under a lock ------------------------------------------

def test_rpl022_flags_sleep_inside_the_critical_section(tmp_path):
    files = dict(_SERVE_PKG)
    files["serve/daemon.py"] = """
        import threading
        import time

        class Daemon:
            def __init__(self):
                self.cond = threading.Condition()
                self._thread = None

            def start(self):
                self._thread = threading.Thread(target=self._loop)
                self._thread.start()

            def _loop(self):
                with self.cond:
                    time.sleep(0.05)
        """
    _program_from(tmp_path, files)
    found = lint([str(tmp_path)], rules=rules("RPL022"))
    assert codes(found) == ["RPL022"]
    assert ".sleep()" in found[0].message


def test_rpl022_sanctions_blocking_outside_the_lock(tmp_path):
    files = dict(_SERVE_PKG)
    files["serve/daemon.py"] = """
        import threading
        import time

        class Daemon:
            def __init__(self):
                self.cond = threading.Condition()
                self._thread = None

            def start(self):
                self._thread = threading.Thread(target=self._loop)
                self._thread.start()

            def _loop(self):
                with self.cond:
                    self.cond.notify_all()
                time.sleep(0.05)
        """
    _program_from(tmp_path, files)
    assert lint([str(tmp_path)], rules=rules("RPL022")) == []


def test_rpl022_flags_opposite_lock_orders(tmp_path):
    files = dict(_SERVE_PKG)
    files["serve/daemon.py"] = """
        import threading

        class Pair:
            def __init__(self):
                self.a = threading.Lock()
                self.b = threading.Lock()
                self._thread = None

            def start(self):
                self._thread = threading.Thread(target=self._loop)
                self._thread.start()

            def _loop(self):
                with self.a:
                    with self.b:
                        pass

            def poke(self):
                with self.b:
                    with self.a:
                        pass
        """
    _program_from(tmp_path, files)
    found = lint([str(tmp_path)], rules=rules("RPL022"))
    assert codes(found) == ["RPL022"]
    assert "lock-order cycle" in found[0].message


def test_rpl022_mutation_joining_the_scheduler_under_the_lock(tmp_path):
    # move _finish's scheduler join inside the condition block: the
    # scheduler needs that very lock to reach a terminal state, so the
    # shutdown path would deadlock
    tree = _mutated_tree(
        tmp_path,
        os.path.join("serve", "daemon.py"),
        lambda s: s.replace(
            "            self.cond.notify_all()\n"
            "        if self._scheduler is not None:\n"
            "            self._scheduler.join()",
            "            self.cond.notify_all()\n"
            "            if self._scheduler is not None:\n"
            "                self._scheduler.join()",
            1,
        ),
    )
    found = lint([tree], rules=rules("RPL022"))
    assert "RPL022" in codes(found)
    assert any(".join()" in v.message for v in found)


# -- RPL023: condition hygiene ----------------------------------------------

def test_rpl023_flags_wait_outside_while_and_bare_notify(tmp_path):
    files = dict(_SERVE_PKG)
    files["serve/daemon.py"] = """
        import threading

        class Daemon:
            def __init__(self):
                self.cond = threading.Condition()
                self.flag = 0
                self._thread = None

            def start(self):
                self._thread = threading.Thread(target=self._loop)
                self._thread.start()

            def _loop(self):
                with self.cond:
                    if self.flag == 0:
                        self.cond.wait()

            def poke(self):
                self.cond.notify_all()
        """
    _program_from(tmp_path, files)
    found = lint([str(tmp_path)], rules=rules("RPL023"))
    assert codes(found) == ["RPL023", "RPL023"]
    messages = " ".join(v.message for v in found)
    assert "while-predicate" in messages
    assert "RuntimeError" in messages


def test_rpl023_sanctions_the_canonical_wait_loop(tmp_path):
    files = dict(_SERVE_PKG)
    files["serve/daemon.py"] = """
        import threading

        class Daemon:
            def __init__(self):
                self.cond = threading.Condition()
                self.flag = 0
                self._thread = None

            def start(self):
                self._thread = threading.Thread(target=self._loop)
                self._thread.start()

            def _loop(self):
                with self.cond:
                    while self.flag == 0:
                        self.cond.wait()

            def poke(self):
                with self.cond:
                    self.cond.notify_all()
        """
    _program_from(tmp_path, files)
    assert lint([str(tmp_path)], rules=rules("RPL023")) == []


def test_rpl023_mutation_degrading_the_scheduler_wait_loop(tmp_path):
    # weaken the idle wait's `while` to `if`: one advisory wakeup then
    # the loop body runs on a possibly-false predicate
    tree = _mutated_tree(
        tmp_path,
        os.path.join("serve", "daemon.py"),
        lambda s: s.replace(
            "while not self._stopping and len(self.queue) == 0:",
            "if not self._stopping and len(self.queue) == 0:",
            1,
        ),
    )
    found = lint([tree], rules=rules("RPL023"))
    assert codes(found) == ["RPL023"]
    assert "while-predicate" in found[0].message


# -- RPL024: thread confinement ---------------------------------------------

def test_rpl024_flags_cross_thread_global_with_no_lock(tmp_path):
    files = dict(_SERVE_PKG)
    files["serve/daemon.py"] = """
        import threading

        _SEEN = {}

        class Daemon:
            def __init__(self):
                self._thread = None

            def start(self):
                self._thread = threading.Thread(target=self._loop)
                self._thread.start()

            def _loop(self):
                _SEEN["beat"] = 1

            def status(self):
                return len(_SEEN)
        """
    _program_from(tmp_path, files)
    found = lint([str(tmp_path)], rules=rules("RPL024"))
    assert codes(found) == ["RPL024"]
    assert "'_SEEN'" in found[0].message


def test_rpl024_sanctions_globals_guarded_everywhere(tmp_path):
    files = dict(_SERVE_PKG)
    files["serve/daemon.py"] = """
        import threading

        _SEEN = {}

        class Daemon:
            def __init__(self):
                self.cond = threading.Condition()
                self._thread = None

            def start(self):
                self._thread = threading.Thread(target=self._loop)
                self._thread.start()

            def _loop(self):
                with self.cond:
                    _SEEN["beat"] = 1

            def status(self):
                with self.cond:
                    return len(_SEEN)
        """
    _program_from(tmp_path, files)
    assert lint([str(tmp_path)], rules=rules("RPL024")) == []


def test_rpl024_mutation_smuggling_state_through_a_module_dict(tmp_path):
    # route scheduler→handler communication through a module global:
    # visible to both threads, serialized by nothing
    def mutate(s):
        s = s.replace("_IDLE_WAIT = 0.2", "_IDLE_WAIT = 0.2\n_LAST_SEEN = {}", 1)
        s = s.replace(
            "request = job.request",
            "request = job.request\n            _LAST_SEEN[job.id] = True",
            1,
        )
        return s.replace(
            "return ok_response(version=PROTOCOL_VERSION, address=self.address)",
            "return ok_response(version=PROTOCOL_VERSION, "
            "address=self.address, seen=len(_LAST_SEEN))",
            1,
        )

    tree = _mutated_tree(tmp_path, os.path.join("serve", "daemon.py"), mutate)
    found = lint([tree], rules=rules("RPL024"))
    assert codes(found) == ["RPL024"]
    assert "'_LAST_SEEN'" in found[0].message
    assert "no lock ever held" in found[0].message


# -- the meta-test: the tree honours its own contracts ----------------------

def test_src_repro_is_deep_clean_and_fast():
    """src/repro is clean under every rule, RPL001-RPL024, in budget."""
    start = time.perf_counter()
    violations = lint([SRC_REPRO])
    elapsed = time.perf_counter() - start
    assert violations == [], "\n".join(v.format() for v in violations)
    assert elapsed < 15.0, f"full pass took {elapsed:.1f}s (budget: 15s)"


def test_one_parse_and_one_walk_per_file(monkeypatch):
    """Each file is parsed once and its tree walked at most once; every
    rule and helper queries the parse-time node index instead."""
    parses, walks = [], []
    real_parse, real_walk = ast.parse, ast.walk

    def counting_parse(source, filename="<unknown>", *args, **kwargs):
        parses.append(filename)
        return real_parse(source, filename, *args, **kwargs)

    def counting_walk(node):
        walks.append(node)
        return real_walk(node)

    monkeypatch.setattr(ast, "parse", counting_parse)
    monkeypatch.setattr(ast, "walk", counting_walk)
    files = iter_python_files([SRC_REPRO])
    assert lint(files) == []
    per_file = Counter(parses)
    # RPL021-RPL024 read quoted annotations ("ServeDaemon") by parsing
    # the string as an expression; that snippet is not a file
    per_file.pop("<annotation>", None)
    assert per_file == Counter(files)
    assert len(walks) <= len(files)


def test_broken_file_is_reported_beside_whole_program_findings(tmp_path):
    tree = _mutated_tree(
        tmp_path,
        os.path.join("engines", "giraph.py"),
        lambda s: s.replace(
            "cluster.sample_memory()",
            "cluster.broadcast(1.0)\n        cluster.sample_memory()",
            1,
        ),
    )
    (tmp_path / "repro" / "broken.py").write_text("def broken(:\n")
    found = lint([tree])
    assert [(v.code, os.path.basename(v.path)) for v in found] == [
        ("RPL000", "broken.py"),
        ("RPL011", "giraph.py"),
    ]
    assert "cluster.broadcast()" in found[1].message


def test_same_named_files_outside_packages_are_all_checked(tmp_path):
    # both files are module "fixture" to the program model; the
    # file-local rules must still see each of them
    for folder in ("a", "b"):
        (tmp_path / folder).mkdir()
        (tmp_path / folder / "fixture.py").write_text(
            "import time\nt = time.time()\n"
        )
    found = lint([str(tmp_path)], rules=rules("RPL001"))
    assert [os.path.basename(os.path.dirname(v.path)) for v in found] == [
        "a", "b",
    ]


def test_model_table_falls_back_to_the_installed_engines_base(tmp_path):
    from repro.engines.base import MODEL_PRIMITIVES
    from repro.lint.rules.base import model_primitive_table

    program = _program_from(tmp_path, {
        "eng/__init__.py": "",
        "eng/toy.py": """
            class ToyEngine:
                trace_model = "bsp"
            """,
    })
    assert not any(name.endswith("engines.base") for name in program.modules)
    assert model_primitive_table(program) == dict(MODEL_PRIMITIVES)


def test_committed_baseline_is_empty():
    path = os.path.join(os.path.dirname(__file__), "..", "lint-baseline.json")
    assert load_baseline(path) == []


def test_deep_report_is_byte_identical_across_hash_seeds(tmp_path):
    outputs = []
    for seed in ("1", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=REPO_SRC)
        proc = subprocess.run(
            [sys.executable, "-m", "repro.lint",
             "--format", "json", SRC_REPRO],
            capture_output=True,
            env=env,
            check=True,
        )
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["count"] == 0


# -- baseline ---------------------------------------------------------------

def test_baseline_roundtrip_ignores_line_numbers(tmp_path):
    path = str(tmp_path / "baseline.json")
    vold = Violation(
        code="RPL013", message="m", path="src\\repro\\x.py", line=10, col=0
    )
    assert write_baseline(path, [vold]) == 1
    baseline = load_baseline(path)
    # same finding on a different line, posix separators: still filtered
    vnew = Violation(
        code="RPL013", message="m", path="src/repro/x.py", line=99, col=4
    )
    assert filter_baselined([vnew], baseline) == []
    other = Violation(
        code="RPL013", message="other", path="src/repro/x.py", line=99, col=4
    )
    assert filter_baselined([other], baseline) == [other]
    assert fingerprint(vold) == fingerprint(vnew)


def test_baseline_loader_tolerates_garbage(tmp_path):
    missing = str(tmp_path / "nope.json")
    assert load_baseline(missing) == []
    corrupt = tmp_path / "bad.json"
    corrupt.write_text("{not json")
    assert load_baseline(str(corrupt)) == []
    wrong_version = tmp_path / "v0.json"
    wrong_version.write_text('{"version": 0, "fingerprints": [["a","b","c"]]}')
    assert load_baseline(str(wrong_version)) == []


# -- noqa across passes -----------------------------------------------------

def test_noqa_line_covered_by_shallow_and_deep_rule(tmp_path):
    obs_dir = tmp_path / "obs"
    obs_dir.mkdir()
    (obs_dir / "__init__.py").write_text("")
    body = textwrap.dedent("""
        def total(values, out):
            for v in {1, 2}:<NOQA>
                out.append(v)
            return out
        """)
    target = obs_dir / "helpers.py"

    from repro.lint.cli import main as lint_main

    target.write_text(body.replace("<NOQA>", ""))
    args = [str(tmp_path), "--select", "RPL008,RPL012",
            "--format", "json"]
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        assert lint_main(args) == 1
    payload = json.loads(buf.getvalue())
    hit_codes = {v["code"] for v in payload["violations"]}
    assert hit_codes == {"RPL008", "RPL012"}
    lines = {v["line"] for v in payload["violations"]}
    assert len(lines) == 1  # both passes anchored on the same loop line

    target.write_text(body.replace("<NOQA>", "  # noqa: RPL008, RPL012"))
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert lint_main(args) == 0

    # suppressing only the file-local code leaves the whole-program
    # finding alive
    target.write_text(body.replace("<NOQA>", "  # noqa: RPL008"))
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert lint_main(args) == 1
    payload = json.loads(buf.getvalue())
    assert {v["code"] for v in payload["violations"]} == {"RPL012"}
