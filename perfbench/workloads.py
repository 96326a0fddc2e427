"""The three benchmark workloads: cli-cold, rank-large and sweep.

Each workload is built from a seed (input generation only, no ``mcdm``
import), then ``load`` imports the ``mcdm`` modules it uses. ``op`` runs one
timed operation and ``check`` judges its output outside the timed region.
``traced_op`` makes the same calls inside spans, and ``layer_pass`` records
the per-layer metrics of the modules the workload exercises.
"""
from __future__ import annotations

import io
import json
import os
import statistics
import subprocess
import sys
import tracemalloc
import xml.etree.ElementTree as ElementTree
from collections import defaultdict
from contextlib import redirect_stdout
from math import comb
from pathlib import Path
from time import perf_counter

import gen
from checks import REL_TOL, load_oracle, ranks_agree, topsis_agrees, values_agree

HERE = Path(__file__).resolve().parent
FIXTURE = "src/mcdm/data/table1.csv"
REPRO_TXT = "docs/repro_report.txt"
REPRO_JSON = "docs/repro_report.json"
OUT_DIR = ".bench_out"
CHILD_TIMEOUT_S = 120
LAYER_OPS = 5  # traced operations per workload in the layer pass


def child_env(root: Path) -> dict:
    """Environment for child interpreters: the checkout's ``src`` first, no bytecode writes."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_child(root: Path, args) -> subprocess.CompletedProcess:
    """Run ``python <args>`` in the checkout and wait for it to end."""
    return subprocess.run(
        [sys.executable, *args],
        cwd=root,
        env=child_env(root),
        capture_output=True,
        timeout=CHILD_TIMEOUT_S,
    )


def read_matrix_csv(text: str):
    """The benchmark's own minimal reader of the matrix CSV grammar, for the oracle."""
    lines = text.splitlines()
    names = lines[0].split(",")[1:]
    directions = [d.strip().lower() for d in lines[1].split(",")[1:]]
    labels, rows = [], []
    for line in lines[2:]:
        parts = line.split(",")
        labels.append(parts[0])
        rows.append([float(v) for v in parts[1:]])
    return labels, list(zip(names, directions)), rows


def build_matrix(model, labels, criteria, rows):
    """A ``DecisionMatrix`` from :func:`gen.matrix_lists` output."""
    return model.new_matrix(
        labels, [model.Criterion(n, model.Direction(d)) for n, d in criteria], rows
    )


def table_from_rows(rows) -> str:
    """The documented rank table layout, rebuilt from exported JSON rows."""
    lines = ["Alternative\tSi-\tSi+\tci\trank"]
    for r in rows:
        lines.append(
            f"{r['alternative']}\t{r['s_minus']:.6f}\t{r['s_plus']:.6f}"
            f"\t{r['closeness']:.6f}\t{r['rank']}"
        )
    return "\n".join(lines) + "\n"


class Workload:
    name = ""
    round_size = 1  # operations per round; a measured run ends on a whole round

    def load(self) -> None:
        """Import the ``mcdm`` modules this workload uses and build its program inputs."""

    def prepare_checks(self) -> list[bool]:
        """Compute reference results; returns the verdicts of any one-off checks."""
        return []

    def setup_probe(self) -> float:
        """Seconds to import and run one warm-up operation (called in a fresh process)."""
        t0 = perf_counter()
        self.load()
        self.op()
        return perf_counter() - t0

    def op(self):
        raise NotImplementedError

    def check(self, out) -> bool:
        raise NotImplementedError

    def traced_op(self, tracer) -> bool:
        raise NotImplementedError

    def traced_ops(self, tracer, count: int) -> tuple[int, int]:
        """Run ``count`` traced operations; returns (attempted, failed)."""
        failed = 0
        for _ in range(count):
            tracer.next_op()
            failed += not self.traced_op(tracer)
        return count, failed

    def layer_pass(self, tracer):
        """Returns (attempted, failed, {metric: value})."""
        attempted, failed = self.traced_ops(tracer, LAYER_OPS)
        return attempted, failed, self.layer_metrics(tracer)

    def layer_metrics(self, tracer) -> dict:
        raise NotImplementedError


class RankLarge(Workload):
    """parse -> std_dev weights (normalized basis) -> TOPSIS -> table + JSON on 10000x20."""

    name = "rank-large"

    def __init__(self, root: Path, seed: int):
        self.root, self.seed = root, seed
        self.labels, self.criteria, rows = gen.matrix_lists(seed, self.name, *gen.RANK_LARGE_SHAPE)
        self.text = gen.matrix_csv(self.labels, self.criteria, rows)
        self.first = None  # (table, json) of the first verified operation
        self.last = None

    def load(self):
        from mcdm import ingest, model, reporting, topsis, weighting

        self.ingest, self.model, self.reporting = ingest, model, reporting
        self.topsis, self.weighting = topsis, weighting

    def prepare_checks(self):
        # The pure-Python oracle runs in its own process, so its memory does
        # not count in this process's peak resident set.
        proc = run_child(self.root, [str(HERE / "child.py"), "oracle", self.name, str(self.seed)])
        if proc.returncode != 0:
            raise RuntimeError(f"oracle process failed:\n{proc.stderr.decode()}")
        ref = json.loads(proc.stdout.decode().splitlines()[-1])
        self.ref_weights = ref["weights"]
        self.ref_s_plus, self.ref_s_minus = ref["s_plus"], ref["s_minus"]
        self.ref_closeness = ref["closeness"]
        return []

    def op(self):
        matrix = self.ingest.parse_matrix_csv(self.text)
        weights = self.weighting.std_dev_weights(matrix, self.weighting.Basis.VECTOR_NORMALIZED)
        result = self.topsis.topsis_rank(matrix, weights)
        table = self.reporting.render_topsis_table(result)
        return weights.weights, table, self.reporting.export_json(result)

    def check(self, out) -> bool:
        weights, table, js = out
        self.last = (table, js)
        if not values_agree(self.ref_weights, weights):
            return False
        if self.first == (table, js):
            return True
        ok = self._verify(table, js)
        if ok and self.first is None:
            self.first = (table, js)
        return ok

    def _verify(self, table: str, js: str) -> bool:
        rows = json.loads(js)
        return (
            [r["alternative"] for r in rows] == self.labels
            and values_agree(self.ref_s_plus, [r["s_plus"] for r in rows])
            and values_agree(self.ref_s_minus, [r["s_minus"] for r in rows])
            and topsis_agrees(self.ref_closeness, [r["closeness"] for r in rows], [r["rank"] for r in rows])
            and table == table_from_rows(rows)
        )

    def traced_op(self, tracer) -> bool:
        call = tracer.call
        with tracer.span("op"):
            matrix = call("ingest.parse_matrix", self.ingest.parse_matrix_csv, self.text)
            weights = call(
                "weighting.std_dev", self.weighting.std_dev_weights,
                matrix, self.weighting.Basis.VECTOR_NORMALIZED,
            )
            result = call("topsis.topsis_rank", self.topsis.topsis_rank, matrix, weights)
            table = call("reporting.table", self.reporting.render_topsis_table, result)
            js = call("reporting.json", self.reporting.export_json, result)
        ok = self.check((weights.weights, table, js))
        # The public stages composed in place of topsis_rank. Each stage's
        # return value goes to the next unread, so the benchmark does not
        # depend on the intermediate types.
        t = self.topsis
        with tracer.span("topsis.stages"):
            normalized = call("topsis.normalize", t.vector_normalize, matrix)
            weighted = call("topsis.apply_weights", t.apply_weights, normalized, weights)
            points = call("topsis.ideal_points", t.ideal_points, weighted, matrix.directions)
            seps = call("topsis.separations", t.separations, weighted, points)
            with tracer.span("topsis.closeness"):
                cis = [t.closeness(p, m) for p, m in seps]
            ranks = call("topsis.rank", t.rank, cis)
        return ok and topsis_agrees(result.closenesses(), cis, ranks)

    def layer_pass(self, tracer):
        attempted, failed = self.traced_ops(tracer, LAYER_OPS)
        inputs = gen.matrix_lists(self.seed, self.name, *gen.RANK_LARGE_SHAPE)
        for _ in range(3):
            tracer.next_op()
            tracer.call("model.new_matrix", build_matrix, self.model, *inputs)
        metrics = self.layer_metrics(tracer)
        metrics["model.matrix_kib"] = self._matrix_kib()
        return attempted, failed, metrics

    def _matrix_kib(self) -> float:
        """Memory a 10000x20 DecisionMatrix keeps alive, labels and floats included."""
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            matrix = build_matrix(
                self.model, *gen.matrix_lists(self.seed, self.name, *gen.RANK_LARGE_SHAPE)
            )
            after = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        return (after - before) / 1024

    def layer_metrics(self, tracer):
        med = lambda name: tracer.median_ms(name, "layers")
        m, n = gen.RANK_LARGE_SHAPE
        table, js = self.last
        return {
            "ingest.parse_matrix_ms": med("ingest.parse_matrix"),
            "ingest.cells_per_s": m * n / (med("ingest.parse_matrix") / 1e3),
            "model.new_matrix_ms": med("model.new_matrix"),
            "weighting.std_dev_ms": med("weighting.std_dev"),
            "topsis.normalize_ms": med("topsis.normalize"),
            "topsis.apply_weights_ms": med("topsis.apply_weights"),
            "topsis.ideal_points_ms": med("topsis.ideal_points"),
            "topsis.separations_ms": med("topsis.separations"),
            "topsis.closeness_ms": med("topsis.closeness"),
            "topsis.rank_ms": med("topsis.rank"),
            "topsis.topsis_rank_ms": med("topsis.topsis_rank"),
            "reporting.table_ms": med("reporting.table"),
            "reporting.json_ms": med("reporting.json"),
            "reporting.bytes_out": len(table.encode()) + len(js.encode()),
        }


class Sweep(Workload):
    """rank_stability on the fixture and on 200x10, leave_one_out on 60x10, run_sweep."""

    name = "sweep"

    def __init__(self, root: Path, seed: int):
        self.root = root
        self.fixture_text = (root / FIXTURE).read_text(encoding="utf-8")
        self.stability = gen.matrix_lists(seed, "sweep-stability", *gen.STABILITY_SHAPE)
        self.loo = gen.matrix_lists(seed, "sweep-leave-one-out", *gen.LEAVE_ONE_OUT_SHAPE)
        self.first = None  # exported reports of the first operation
        self.first_ok = False

    def load(self):
        from mcdm import ingest, model, repro, sensitivity, weighting

        self.repro, self.sensitivity = repro, sensitivity
        self.fixture = ingest.parse_matrix_csv(self.fixture_text)
        self.fixture_weights = weighting.std_dev_weights(self.fixture)
        # Equal weights keep the grid size, and so the evaluation count,
        # independent of the seed.
        self.stability_matrix = build_matrix(model, *self.stability)
        self.stability_weights = weighting.equal_weights(gen.STABILITY_SHAPE[1])
        self.loo_matrix = build_matrix(model, *self.loo)
        self.loo_weights = weighting.equal_weights(gen.LEAVE_ONE_OUT_SHAPE[1])

    def prepare_checks(self):
        from mcdm.reporting import export_json

        self.export_json = export_json
        oracle = load_oracle(self.root)
        _, crit, rows = read_matrix_csv(self.fixture_text)
        dirs = [d for _, d in crit]
        weights = oracle.std_dev_weights_oracle(rows, True)
        self.ref_fixture = oracle.topsis_oracle(rows, dirs, weights)[2]
        _, crit, rows = self.stability
        n = gen.STABILITY_SHAPE[1]
        self.ref_stability = oracle.topsis_oracle(rows, [d for _, d in crit], [1.0 / n] * n)[2]
        self.ref_loo = self._loo_oracle(oracle, *self.loo)
        self.ref_repro = (self.root / REPRO_JSON).read_text(encoding="utf-8")
        return []

    @staticmethod
    def _loo_oracle(oracle, labels, criteria, rows):
        """Per removed alternative: (label, reversed pairs, pairs too close to call)."""
        dirs = [d for _, d in criteria]
        weights = [1.0 / len(dirs)] * len(dirs)
        base = oracle.topsis_oracle(rows, dirs, weights)[2]
        base_tol = REL_TOL * max(base)
        effects = []
        for k, removed in enumerate(labels):
            keep = [i for i in range(len(labels)) if i != k]
            reduced = oracle.topsis_oracle([rows[i] for i in keep], dirs, weights)[2]
            tol = REL_TOL * max(reduced)
            flipped, unsure = set(), set()
            for x in range(len(keep)):
                for y in range(x + 1, len(keep)):
                    i, j = keep[x], keep[y]
                    db, dr = base[i] - base[j], reduced[x] - reduced[y]
                    if abs(db) <= base_tol or abs(dr) <= tol:
                        unsure.add(frozenset((labels[i], labels[j])))
                    elif (db > 0) != (dr > 0):
                        flipped.add((labels[i], labels[j]) if db > 0 else (labels[j], labels[i]))
            effects.append((removed, flipped, unsure))
        return effects

    def op(self):
        s = self.sensitivity
        return (
            s.rank_stability(self.fixture, self.fixture_weights),
            s.rank_stability(self.stability_matrix, self.stability_weights),
            s.leave_one_out(self.loo_matrix, self.loo_weights),
            self.repro.run_sweep(),
        )

    def check(self, out) -> bool:
        texts = tuple(self.export_json(report) for report in out)
        if self.first is None:
            self.first, self.first_ok = texts, self._verify(texts)
            return self.first_ok
        return self.first_ok and texts == self.first

    def _verify(self, texts) -> bool:
        fixture, stability, loo = (json.loads(t) for t in texts[:3])
        if len(loo["effects"]) != len(self.ref_loo):
            return False
        for got, (removed, flipped, unsure) in zip(loo["effects"], self.ref_loo):
            pairs = {tuple(p) for p in got["reversed_pairs"]}
            if got["removed"] != removed or got["degenerate"]:
                return False
            if {p for p in pairs if frozenset(p) not in unsure} != flipped:
                return False
        return (
            ranks_agree(self.ref_fixture, fixture["baseline_ranks"])
            and ranks_agree(self.ref_stability, stability["baseline_ranks"])
            and texts[3] == self.ref_repro
        )

    def traced_op(self, tracer) -> bool:
        s, call = self.sensitivity, tracer.call
        with tracer.span("op"):
            out = (
                call("sensitivity.rank_stability_fixture", s.rank_stability,
                     self.fixture, self.fixture_weights),
                call("sensitivity.rank_stability_200x10", s.rank_stability,
                     self.stability_matrix, self.stability_weights),
                call("sensitivity.leave_one_out", s.leave_one_out, self.loo_matrix, self.loo_weights),
                call("repro.run_sweep", self.repro.run_sweep),
            )
        return self.check(out)

    def counts(self) -> tuple[int, int]:
        """(TOPSIS evaluations, survivor pairs compared) implied by the first reports."""
        fixture, stability, loo = (json.loads(t) for t in self.first[:3])
        grid = sum(len(c["grid"]) for r in (fixture, stability) for c in r["criteria"])
        effects = loo["effects"]
        evals = grid + 2 + len(effects) + 1  # grid points, 2 baselines, survivors, 1 baseline
        pairs = sum(comb(len(effects) - 1, 2) for e in effects if not e["degenerate"])
        return evals, pairs

    def layer_metrics(self, tracer):
        med = lambda name: tracer.median_ms(name, "layers")
        evals, pairs = self.counts()
        names = (
            "sensitivity.rank_stability_fixture",
            "sensitivity.rank_stability_200x10",
            "sensitivity.leave_one_out",
        )
        per_op = zip(*(tracer.per_op_ms(name, "layers") for name in names))
        return {
            "topsis.per_eval_us": statistics.median(1e3 * sum(ms) / evals for ms in per_op),
            "sensitivity.rank_stability_fixture_ms": med(names[0]),
            "sensitivity.rank_stability_200x10_ms": med(names[1]),
            "sensitivity.leave_one_out_ms": med(names[2]),
            "sensitivity.evals": evals,
            "sensitivity.pairs_compared": pairs,
            "repro.run_sweep_ms": med("repro.run_sweep"),
        }


class CliCold(Workload):
    """Cold ``python -m mcdm.cli`` processes, round-robin over seven commands."""

    name = "cli-cold"

    def __init__(self, root: Path, seed: int):
        self.root = root
        self.responses = gen.survey_responses(seed)
        survey = Path(OUT_DIR) / f"survey-{seed}.csv"
        (root / OUT_DIR).mkdir(exist_ok=True)
        (root / survey).write_text(gen.survey_csv(self.responses), encoding="utf-8")
        self.commands = (
            ("rank", ("rank", "--input", FIXTURE)),
            ("rank-json", ("rank", "--input", FIXTURE, "--format", "json")),
            ("rank-svg", ("rank", "--input", FIXTURE, "--format", "svg")),
            ("weights-json", ("weights", "--input", FIXTURE, "--format", "json")),
            ("sensitivity", ("sensitivity", "--input", FIXTURE)),
            ("repro", ("repro",)),
            ("aggregate", ("aggregate", "--input", str(survey))),
        )
        self.round_size = len(self.commands)
        self.count = 0
        self.first = {}  # command index -> (stdout of its first invocation, verdict)

    def setup_probe(self) -> float:
        t0 = perf_counter()
        from mcdm import cli

        with redirect_stdout(io.StringIO()):
            cli.main(list(self.commands[0][1]))
        return perf_counter() - t0

    def prepare_checks(self):
        oracle = load_oracle(self.root)
        labels, crit, rows = read_matrix_csv((self.root / FIXTURE).read_text(encoding="utf-8"))
        self.fixture_labels = labels
        self.criterion_names = [name for name, _ in crit]
        self.ref_weights = oracle.std_dev_weights_oracle(rows, True)
        self.ref_closeness = oracle.topsis_oracle(rows, [d for _, d in crit], self.ref_weights)[2]
        self.ref_repro = (self.root / REPRO_TXT).read_bytes()
        cells = defaultdict(list)
        for group, item, rating in self.responses:
            cells[group, item].append(rating)
        groups = sorted({g for g, _ in cells})
        items = sorted({i for _, i in cells})
        lines = ["," + ",".join(items), "direction," + ",".join("benefit" for _ in items)]
        for g in groups:
            lines.append(g + "," + ",".join(repr(statistics.fmean(cells[g, i])) for i in items))
        self.ref_aggregate = ("\n".join(lines) + "\n").encode()
        proc = run_child(self.root, ["-m", "mcdm.cli", "repro", "--format", "json"])
        return [proc.returncode == 0 and proc.stdout == (self.root / REPRO_JSON).read_bytes()]

    def _verify(self, name: str, stdout: bytes) -> bool:
        text = stdout.decode()
        if name == "rank":
            ranks = [int(line.split("\t")[-1]) for line in text.splitlines()[1:]]
            return ranks_agree(self.ref_closeness, ranks)
        if name == "rank-json":
            rows = json.loads(text)
            return [r["alternative"] for r in rows] == self.fixture_labels and topsis_agrees(
                self.ref_closeness, [r["closeness"] for r in rows], [r["rank"] for r in rows]
            )
        if name == "rank-svg":
            svg = ElementTree.fromstring(stdout)
            bars = svg.findall("{http://www.w3.org/2000/svg}rect")
            return len(bars) == len(self.fixture_labels)
        if name == "weights-json":
            doc = json.loads(text)
            return (
                doc["method"] == "std_dev"
                and [w["criterion"] for w in doc["weights"]] == self.criterion_names
                and values_agree(self.ref_weights, [w["weight"] for w in doc["weights"]])
            )
        if name == "sensitivity":
            label, _, ranks = text.splitlines()[0].partition("\t")
            return label == "baseline ranks" and ranks_agree(
                self.ref_closeness, [int(r) for r in ranks.split(",")]
            )
        if name == "repro":
            return stdout == self.ref_repro
        return stdout == self.ref_aggregate

    def op(self):
        i = self.count % len(self.commands)
        self.count += 1
        proc = run_child(self.root, ["-m", "mcdm.cli", *self.commands[i][1]])
        return i, proc.returncode, proc.stdout

    def check(self, out) -> bool:
        i, returncode, stdout = out
        if returncode != 0:
            return False
        if i not in self.first:
            self.first[i] = (stdout, self._verify(self.commands[i][0], stdout))
        reference, ok = self.first[i]
        return ok and stdout == reference

    def traced_op(self, tracer) -> bool:
        with tracer.span("op"):
            out = tracer.call("cli.process", self.op)
        return self.check(out)

    def layer_pass(self, tracer):
        interpreter, cli_import, repro_import = [], [], []
        for _ in range(5):
            t0 = perf_counter()
            run_child(self.root, ["-c", "pass"]).check_returncode()
            interpreter.append(1e3 * (perf_counter() - t0))
        for _ in range(3):
            proc = run_child(self.root, ["-X", "importtime", "-c", "import mcdm.cli, mcdm.repro"])
            proc.check_returncode()
            cumulative = _import_cumulative_ms(proc.stderr.decode())
            cli_import.append(cumulative["mcdm.cli"])
            repro_import.append(cumulative["mcdm.repro"])

        from mcdm import cli

        attempted = failed = 0
        references = {}
        for round_ in range(4):  # round 0 is an untraced warm-up
            for i, (name, argv) in enumerate(self.commands):
                buf = io.StringIO()
                with redirect_stdout(buf):
                    if round_:
                        tracer.next_op()
                        returncode = tracer.call("cli.main", cli.main, list(argv))
                    else:
                        returncode = cli.main(list(argv))
                stdout = buf.getvalue().encode()
                if round_ == 0:
                    references[i] = self._verify(name, stdout) and stdout
                attempted += 1
                failed += not (returncode == 0 and references[i] and stdout == references[i])
        return attempted, failed, {
            "cli.interpreter_ms": statistics.median(interpreter),
            "cli.import_ms": statistics.median(cli_import),
            "repro.import_ms": statistics.median(repro_import),
            "cli.main_ms": tracer.median_ms("cli.main", "layers"),
        }


def _import_cumulative_ms(stderr: str) -> dict[str, float]:
    """Module -> cumulative import time in ms, from ``-X importtime`` output."""
    cumulative = {}
    for line in stderr.splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
            cumulative[parts[2].strip()] = int(parts[1]) / 1e3
    return cumulative


WORKLOADS = {w.name: w for w in (CliCold, RankLarge, Sweep)}
