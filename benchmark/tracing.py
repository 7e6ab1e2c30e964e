"""Spans and counts around the public functions of every ghw layer.

``install`` replaces each public function under every name its callers look
it up by (``ghw.matroid.matrix_rank`` as well as ``ghw.finfield.matrix_rank``,
``ghw.betti.homology_from_buckets`` as well as the one in ``ghw.simplicial``)
with a wrapper that records a span: name, start, end and parent.  Spans stay
in memory in flat arrays and are written out once, at the end of the run.

A layer's self time is its spans' durations minus the time their child spans
cover.  The span named ``op`` is one ``ghw.cli.main`` call; its own self time
is the part of the operation no named layer covers.  Like every time the
benchmark reports, span times are host-speed corrected: each span is scaled
by ``speed.py``'s correction over the operation that holds it.

A layer function that is missing, or a count hook that no longer fits the
function it follows, raises: the traced run fails instead of reporting 0.
"""

from __future__ import annotations

import functools
import json
from array import array
from collections import Counter
from time import perf_counter

ROOT_SPAN = "op"

# Span names; each yields the per-layer metric "<name>_s" (self time).
SPANS = (
    "finfield.matrix_rank",
    "matroid.rank_table",
    "matroid.circuits",
    "matroid.bases",
    "betti.fast",
    "betti.hochster",
    "simplicial.independence_complex",
    "simplicial.face_table",
    "simplicial.faces",
    "simplicial.boundary",
    "simplicial.homology",
    "simplicial.alexander_dual",
    "weights.bruteforce",
    "weights.wei_duality",
    "weights.whitney",
    "weights.mds_profile",
    "weights.report",
    "cli.parse",
    "cli.build",
    "cli.render",
)

COUNTS = (
    "finfield.matrix_rank.calls",
    "matroid.rank.calls",
    "matroid.rank.misses",
    "matroid.circuits.candidates",
    "matroid.circuits.found",
    "matroid.bases.found",
    "betti.fast.circuit_tests",
    "betti.fine_entries",
    "betti.hochster.subsets",
    "simplicial.faces.visited",
    "simplicial.faces.kept",
    "simplicial.boundary.cells",
    "simplicial.boundary.nonzeros",
    "simplicial.homology.calls",
)

# ratio name -> (numerator, denominator); a "1 -" prefix means one minus it.
RATIOS = {
    "matroid.rank.hit_ratio": ("1 -", "matroid.rank.misses", "matroid.rank.calls"),
    "matroid.circuits.yield": ("", "matroid.circuits.found", "matroid.circuits.candidates"),
    "simplicial.faces.yield": ("", "simplicial.faces.kept", "simplicial.faces.visited"),
}


class Recorder:
    """In-memory span store plus exact counters."""

    def __init__(self):
        self.names = [ROOT_SPAN, *SPANS]
        self.name_id = {name: i for i, name in enumerate(self.names)}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.counts = Counter()

    def reset(self) -> None:
        """Forget everything recorded so far; installed wrappers stay valid."""
        for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
            del arr[:]
        del self.stack[1:]
        self.counts.clear()

    def wrap(self, name: str, fn, before=None, after=None):
        """``fn`` inside a span; ``before(args)`` runs first and its value is
        handed to ``after(state, args, result)``, both outside the span."""
        nid = self.name_id[name]
        names, parents, starts, ends, stack = (
            self.span_name, self.span_parent, self.span_start, self.span_end, self.stack,
        )

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = before(args) if before else None
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if after:
                after(state, args, result)
            return result

        return wrapper

    # -- results ---------------------------------------------------------

    def layer_metrics(self, correction) -> dict[str, float]:
        """Per-layer self times, counts and ratios over everything recorded.

        ``correction(t0, t1)`` is the host-speed factor over a raw interval;
        each span is scaled by the factor of the top-level span holding it."""
        import numpy as np

        names = np.frombuffer(self.span_name, dtype=np.int32)
        parents = np.frombuffer(self.span_parent, dtype=np.int32)
        start = np.frombuffer(self.span_start, dtype=np.float64)
        end = np.frombuffer(self.span_end, dtype=np.float64)
        # Spans are appended as they open, so a top-level span's descendants
        # follow it directly.
        top = np.flatnonzero(parents < 0)
        factor = np.array([correction(start[i], end[i]) for i in top], dtype=np.float64)
        holder = np.searchsorted(top, np.arange(len(names)), side="right") - 1
        dur = (end - start) * factor[holder]
        has_parent = parents >= 0
        covered = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - covered
        per_name = np.bincount(names, weights=self_time, minlength=len(self.names))
        out = {f"{name}_s": float(per_name[self.name_id[name]]) for name in SPANS}
        out.update({name: float(self.counts[name]) for name in COUNTS})
        for ratio, (prefix, num, den) in RATIOS.items():
            share = self.counts[num] / self.counts[den] if self.counts[den] else 0.0
            out[ratio] = 1.0 - share if prefix else share
        roots = names == self.name_id[ROOT_SPAN]
        total = float(dur[roots].sum())
        out["trace.unattributed_share"] = float(self_time[roots].sum()) / total if total else 0.0
        shares = self_time[roots] / np.maximum(dur[roots], 1e-12)
        out["trace.max_op_unattributed_share"] = float(shares.max()) if shares.size else 0.0
        out["trace.spans"] = float(len(dur))
        return out

    def dump(self, path) -> None:
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(json.dumps(self.names)),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )


def install(rec: Recorder):
    """Wrap every layer of the imported ghw package; returns the root wrapper
    to call in place of ``ghw.cli.main``.

    A function missing from its home module raises AttributeError.
    """
    from ghw import betti, cli, finfield, matroid, simplicial, weights

    counts = rec.counts

    def patch(owners, attr, name, before=None, after=None):
        """Wrap ``attr`` of the first owner, its home, and the same object in
        every other owner that imports it.  An owner that no longer imports it
        cannot call it by that name and is left alone; one holding another
        object under that name would go untraced, so it raises.  Returns the
        original."""
        original = getattr(owners[0], attr)
        wrapper = rec.wrap(name, original, before, after)
        for owner in owners:
            held = getattr(owner, attr, None)
            if held is not None and held is not original:
                raise TypeError(f"{owner.__name__}.{attr} is not {owners[0].__name__}.{attr}")
            if held is not None:
                setattr(owner, attr, wrapper)
        return original

    def count(name):
        def after(_state, _args, _result):
            counts[name] += 1

        return after

    patch((finfield, matroid), "matrix_rank", "finfield.matrix_rank",
          after=count("finfield.matrix_rank.calls"))

    # Rank queries are counted at Matroid.rank; memo misses at the rank
    # oracle each Matroid holds.
    Matroid = matroid.Matroid
    plain_rank = Matroid.rank
    plain_init = Matroid.__init__

    def rank(self, mask):
        counts["matroid.rank.calls"] += 1
        return plain_rank(self, mask)

    def init(self, *args, **kwargs):
        plain_init(self, *args, **kwargs)
        oracle = self._rank_fn

        def counted_oracle(mask):
            counts["matroid.rank.misses"] += 1
            return oracle(mask)

        self._rank_fn = counted_oracle

    Matroid.rank = functools.wraps(plain_rank)(rank)
    Matroid.__init__ = functools.wraps(plain_init)(init)
    patch((Matroid,), "rank_table", "matroid.rank_table")

    def queries_so_far(_args):
        return counts["matroid.rank.calls"]

    def circuits_after(before_calls, _args, result):
        queries = counts["matroid.rank.calls"] - before_calls
        if queries:
            counts["matroid.circuits.candidates"] += queries
            counts["matroid.circuits.found"] += len(result)

    def bases_after(before_calls, _args, result):
        if counts["matroid.rank.calls"] - before_calls:
            counts["matroid.bases.found"] += len(result)

    plain_circuits = patch((Matroid,), "circuits", "matroid.circuits", queries_so_far, circuits_after)
    patch((Matroid,), "bases", "matroid.bases", queries_so_far, bases_after)

    def fast_after(_state, args, table):
        M = args[0]
        counts["betti.fast.circuit_tests"] += (1 << M.n) * len(plain_circuits(M))
        counts["betti.fine_entries"] += len(table.fine)

    def hochster_after(_state, args, _table):
        counts["betti.hochster.subsets"] += 1 << args[0].n

    patch((betti, cli), "betti_fine_matroid", "betti.fast", after=fast_after)
    patch((betti, cli), "betti_fine_hochster", "betti.hochster", after=hochster_after)

    def faces_after(_state, args, buckets):
        counts["simplicial.faces.visited"] += 1 << args[1].bit_count()
        counts["simplicial.faces.kept"] += sum(map(len, buckets))

    def boundary_after(_state, args, _matrix):
        lower, upper = args[0], args[1]
        counts["simplicial.boundary.cells"] += len(lower) * len(upper)
        if upper:
            counts["simplicial.boundary.nonzeros"] += len(upper) * upper[0].bit_count()

    Complex = simplicial.SimplicialComplex
    patch((Complex,), "face_table", "simplicial.face_table")
    patch((Complex,), "alexander_dual", "simplicial.alexander_dual")
    patch((simplicial, cli, weights), "independence_complex", "simplicial.independence_complex")
    patch((simplicial, betti), "faces_by_cardinality", "simplicial.faces", after=faces_after)
    patch((simplicial,), "boundary_matrix", "simplicial.boundary", after=boundary_after)
    patch((simplicial, betti), "homology_from_buckets", "simplicial.homology",
          after=count("simplicial.homology.calls"))

    patch((weights, cli), "weights_bruteforce", "weights.bruteforce")
    patch((weights, cli), "wei_duality_check", "weights.wei_duality")
    patch((weights, cli), "whitney_polynomial", "weights.whitney")
    patch((weights, cli), "mds_profile", "weights.mds_profile")
    patch((weights, cli), "weight_report", "weights.report")

    # cli: argument and input parsing, matroid construction, output rendering.
    plain_make_parser = cli.make_parser

    def make_parser():
        parser = plain_make_parser()
        parser.parse_args = rec.wrap("cli.parse", parser.parse_args)
        return parser

    cli.make_parser = rec.wrap("cli.parse", functools.wraps(plain_make_parser)(make_parser))
    patch((cli,), "load_input", "cli.parse")
    patch((cli,), "build_matroid", "cli.build")
    for owner, attr in ((cli, "render_diagram"), (cli, "whitney_text"), (cli, "whitney_terms"),
                        (betti.BettiTable, "to_json_dict"), (weights.WeightReport, "to_json_dict")):
        patch((owner,), attr, "cli.render")
    cli.json = _JsonShim(rec.wrap("cli.render", cli.json.dumps))

    return rec.wrap(ROOT_SPAN, cli.main)


class _JsonShim:
    """Stands in for the ``json`` module inside ghw.cli with a timed dumps."""

    def __init__(self, dumps):
        import json as real

        self._real = real
        self.dumps = dumps

    def __getattr__(self, attr):
        return getattr(self._real, attr)
