"""Seeded inputs for the three benchmark workloads, with expected outputs.

A workload run is a sequence of passes; ``make_pass`` builds pass ``index``
of a run from the seed alone, so the same seed always gives the same inputs.
Every input is new within a run: a real CLI call runs in its own process,
so no cache shared across calls should earn credit here.

Each operation is one ``ghw.cli.main(argv)`` call.  Its record holds the
argv, the stdin text (or a temp file the argv names), the expected exit code
and stdout digest, and the properties of the input (n, field, rank, circuit
and basis counts, input format) computed untimed from the reference.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

from reference import (
    Reference,
    bases_rank_table,
    expected_stdout,
    matrix_rank_table,
    uniform_rank_table,
)

WORKLOADS = ("fast-large", "oracle-verify", "cli-small")

# (field, rows, cols, command form, band centre).  Each input is drawn until
# the operation's work measure (see ``work_of``) lies within BAND of the
# centre, the median of that measure over unrestricted random draws.  Without
# this, one GF(2) 5x10 verify varies by +-15% in Hochster work from seed to
# seed, and so would the workload.
BAND = 0.04

# fast-large: rank table, circuits and the fast Betti loop only.  Circuit
# counts run from ~130 (GF(2)) to ~2100 (GF(5)), so Betti-loop and
# rank-oracle changes move it differently.
FAST_LARGE = (
    (3, 7, 14, "weights --json", 250),
    (2, 8, 16, "weights --json", 131),
    (5, 8, 16, "weights --json", 2135),
    (3, 8, 16, "weights --json --complex dual", 613),
)

# oracle-verify: Hochster homology over three fields dominates; the Alexander
# operation runs the same kernel on larger, higher-dimensional faces.
ORACLE_VERIFY = (
    (2, 5, 10, "verify", 39600),
    (3, 5, 10, "verify", 49184),
    (5, 5, 11, "verify", 147136),
    (3, 6, 12, "diagram --complex alexander", 464924),
)

CLI_FORMS = (
    "weights",
    "weights --json",
    "betti --fine --json",
    "diagram",
    "diagram --complex alexander",
    "diagram --complex dual",
    "whitney",
    "mds --json",
    "verify",
)
# Besides these, each pass has one uniform-matroid input per command form.
MATRIX_FORMATS = ("matrix-text", "matrix-json", "bases-json", "circuits-json")
CLI_RANDOM_OPS = 1500
# Forms that sweep restriction homology stay small so that per-call cost,
# not the 2^n Hochster sweep, dominates this workload.
CLI_HEAVY_FORMS = {"verify": 6, "diagram --complex alexander": 7}
CLI_N = (4, 9)
HEAVY_FIRST = tuple(sorted(CLI_FORMS, key=lambda form: CLI_HEAVY_FORMS.get(form, CLI_N[1])))
# Each uniform matroid U(r, n), 0 <= r <= n, n in CLI_N, is used once per run,
# one per command form in each pass, which caps a run at 4 passes.  U(2, 4)
# and U(3, 6) are in the corpus.
UNIFORM_POOL = [
    (r, n)
    for n in range(CLI_N[0], CLI_N[1] + 1)
    for r in range(n + 1)
    if (r, n) not in ((2, 4), (3, 6))
]


@dataclass
class Op:
    argv: list[str]
    stdin: str | None
    expected_rc: int
    expected_sha: str
    props: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "argv": self.argv,
            "stdin": self.stdin,
            "expected_rc": self.expected_rc,
            "expected_sha": self.expected_sha,
        }


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _random_rows(rng: random.Random, p: int, m: int, n: int) -> list[list[int]]:
    return [[rng.randrange(p) for _ in range(n)] for _ in range(m)]


def _matrix_text(p: int, rows: list[list[int]]) -> str:
    return f"field {p}\n" + "".join(" ".join(map(str, row)) + "\n" for row in rows)


def _sets(masks, n: int) -> list[list[int]]:
    return [[e + 1 for e in range(n) if int(m) >> e & 1] for m in masks]


def _op(form: str, source: str, stdin: str | None, ref: Reference, props: dict) -> Op:
    cmd, *flags = form.split()
    return Op(
        argv=[cmd, source, *flags],
        stdin=stdin,
        expected_rc=0,
        expected_sha=digest(expected_stdout(ref, form)),
        props={**props, **ref.properties(), "form": form},
    )


def work_of(ref: Reference, form: str) -> int:
    """The input property a large operation's time follows: circuits of the
    matroid the fast Betti loop sweeps, or for Hochster forms the number of
    (face, restriction) pairs one field's sweep visits."""
    if form.startswith("weights"):
        acted_on = ref.dual() if "dual" in form else ref
        return int(acted_on.circuits.size)
    if "alexander" in form:
        faces = ref.r[::-1] < ref.pop[::-1]
    else:
        faces = ref.r == ref.pop
    return int((1 << (ref.n - ref.pop[faces])).sum())


def _matrix_input(rng: random.Random, p: int, m: int, n: int, fmt: str) -> tuple[str, Reference]:
    rows = _random_rows(rng, p, m, n)
    ref = Reference(n, matrix_rank_table(p, rows, n))
    if fmt == "matrix-text":
        return _matrix_text(p, rows), ref
    if fmt == "matrix-json":
        return json.dumps({"field": p, "matrix": rows}), ref
    if fmt == "bases-json":
        return json.dumps({"n": n, "bases": _sets(ref.bases, n)}), ref
    return json.dumps({"n": n, "circuits": _sets(ref.circuits, n)}), ref


def _corpus_reference(text: str) -> Reference:
    """Reference for a shipped corpus file: matrix text, bases or uniform JSON."""
    if text.lstrip().startswith("{"):
        obj = json.loads(text)
        if "uniform" in obj:
            r, n = obj["uniform"]
            return Reference(n, uniform_rank_table(r, n))
        bases = [sum(1 << (e - 1) for e in b) for b in obj["bases"]]
        return Reference(obj["n"], bases_rank_table(obj["n"], bases))
    lines = [parts for line in text.splitlines() if (parts := line.split("#", 1)[0].split())]
    rows = [[int(v) for v in parts] for parts in lines[1:]]
    return Reference(len(rows[0]), matrix_rank_table(int(lines[0][1]), rows, len(rows[0])))


class Generator:
    """Builds the passes of one run of one workload.

    ``tiny`` shrinks every input to n <= 8 and a few operations per pass,
    for the self-test."""

    def __init__(self, workload: str, seed: int, workdir: Path, data_dir: Path, tiny: bool = False):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.data_dir = data_dir
        self.tiny = tiny
        self.seen: set[str] = set()
        self.uniform_order = [(r, n) for r, n in UNIFORM_POOL if n <= 8 or not tiny]
        random.Random(f"{workload}/{seed}/uniform").shuffle(self.uniform_order)

    @property
    def max_passes(self) -> int | None:
        if self.workload != "cli-small":
            return None
        return len(self.uniform_order) // len(CLI_FORMS)

    def make_pass(self, index: int) -> list[Op]:
        rng = random.Random(f"{self.workload}/{self.seed}/{index}")
        if self.workload == "fast-large":
            return self._fixed_shape_pass(rng, FAST_LARGE)
        if self.workload == "oracle-verify":
            return self._fixed_shape_pass(rng, ORACLE_VERIFY)
        return self._cli_small_pass(rng, index)

    def _fixed_shape_pass(self, rng: random.Random, shapes) -> list[Op]:
        ops = []
        for p, m, n, form, centre in shapes:
            if self.tiny:
                m, n = min(m, 3), min(n, 6)
            while True:
                text, ref = _matrix_input(rng, p, m, n, "matrix-text")
                work = work_of(ref, form)
                if self.tiny or abs(work - centre) <= BAND * centre:
                    break
            ops.append(_op(form, "-", text, ref, {"field": p, "format": "matrix-text", "work": work}))
        return ops

    def _cli_small_pass(self, rng: random.Random, index: int) -> list[Op]:
        ops = []
        if index == 0:
            # The shipped corpus, once per run, every command form covered.
            paths = sorted(self.data_dir.glob("*.txt")) + sorted(self.data_dir.glob("*.json"))
            for i, path in enumerate(paths):
                ref = _corpus_reference(path.read_text(encoding="utf-8"))
                source = str(path.relative_to(self.data_dir.parent))
                ops.append(_op(CLI_FORMS[i % len(CLI_FORMS)], source, None, ref, {"field": None, "format": "corpus"}))
        # This pass's uniform matroids, smallest first, go to the forms in
        # HEAVY_FIRST order, so the Hochster forms get the small ones.
        width = len(CLI_FORMS)
        uniforms = sorted(self.uniform_order[index * width : (index + 1) * width], key=lambda rn: rn[1])
        uniforms = dict(zip(HEAVY_FIRST, uniforms))
        for j in range(2 * width if self.tiny else CLI_RANDOM_OPS):
            form = CLI_FORMS[j % width]
            fmt = "uniform" if j < width else MATRIX_FORMATS[(j // width) % len(MATRIX_FORMATS)]
            while True:
                if fmt == "uniform":
                    r, n = uniforms[form]
                    text, ref, p = json.dumps({"uniform": [r, n]}), Reference(n, uniform_rank_table(r, n)), None
                else:
                    n = rng.randint(CLI_N[0], min(8 if self.tiny else CLI_N[1], CLI_HEAVY_FORMS.get(form, CLI_N[1])))
                    p = rng.choice((2, 3, 5))
                    m = rng.randint(1, min(n - 1, 4 if p == 5 else 5))
                    text, ref = _matrix_input(rng, p, m, n, fmt)
                if text not in self.seen:
                    break
            self.seen.add(text)
            if j % 2:
                path = self.workdir / f"in-{index}-{j}.txt"
                path.write_text(text, encoding="utf-8")
                source, stdin = str(path), None
            else:
                source, stdin = "-", text
            ops.append(_op(form, source, stdin, ref, {"field": p, "format": fmt}))
        rng.shuffle(ops)
        return ops


def warmup_ops() -> list[Op]:
    """One call per command form on small inputs no workload uses (n = 3)."""
    rows = [[1, 0, 1], [0, 1, 1]]
    ref = Reference(3, matrix_rank_table(7, rows, 3))
    forms = CLI_FORMS + ("weights --json --complex dual",)
    text = _matrix_text(7, rows)
    return [_op(form, "-", text, ref, {"field": 7, "format": "warm-up"}) for form in forms]
