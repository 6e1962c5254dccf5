"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``index SPEC``
    Feasibility and election index of a network.
``elect SPEC``
    Run the full Theorem 3.1 pipeline (oracle -> simulate -> verify).
``spectrum SPEC``
    The advice-vs-time table across all milestones.
``quotient SPEC``
    The view quotient (what symmetry remains).
``sweep [--corpus C] [--task T] [--workers N] [--chunk-size K]``
    Run an experiment sweep through the parallel engine; ``--json FILE``
    dumps the canonical JSON-lines records.  With ``--out DB`` (a
    warehouse database) the sweep *streams*: corpus entries are
    generated lazily, records are appended to a dataset of ``DB`` as
    they arrive, and ``--resume`` skips entries already recorded there —
    an interrupted sweep restarts where it died and the dataset's
    ``repro warehouse export`` is byte-identical to an uninterrupted
    run.
``conformance [--families F,G] [--schedules K] [--workers N] [--out DB]``
    The differential oracle: every registered election algorithm under
    the synchronous, strict-wire and asynchronous models (the latter
    over ``K`` adversarial schedules), cross-checked per corpus entry;
    prints per-family and per-algorithm tables and exits nonzero on any
    disagreement.  ``--out``/``--resume`` stream record groups into a
    warehouse dataset with kill/resume byte-identity.
``corpus list`` / ``corpus emit FAMILY[:count,seed=S,...]``
    Inspect the corpus-family registry / stream a family's graphs as
    JSON lines.
``bench [--quick] [--scenario S,T] [--out-dir DIR] [--check DIR]``
    The machine-readable perf harness: run named scenarios (refinement,
    sweep, strict, elect-orbit, conformance, service, service-load,
    warehouse) and emit canonical ``BENCH_<scenario>.json`` records; a
    case that also times a reference path in the same run (seed codec,
    per-node engine, cold cache, in-process compute, corpus re-stream)
    carries the in-run ratio as ``speedup_vs_<reference>``.  ``--check``
    validates existing records (the CI schema gate).
``report [--out FILE] [--trend DB]``
    Regenerate the small-scale experiment report (markdown), or render
    the cross-run perf trajectory from a results warehouse.
``serve [--port P] [--shards N] [--cache DB] [--warm-warehouse DB]``
    The online query service (:mod:`repro.service`): a JSON HTTP API
    answering elect/index/advice/quotient requests, deduplicated through
    the canonical-form result cache; ``--shards N`` fans cold computes
    across N fingerprint-routed worker processes (the cache stays
    shared), ``--cache`` persists answers across restarts in a results
    warehouse, and ``--warm-warehouse`` pre-populates from a warehouse's
    sweep results with one join query; ``--slow-query-ms MS`` turns on
    the structured slow-query log (one JSON line per offending query).
``warehouse import|export|register|info``
    The indexed sqlite results warehouse (:mod:`repro.warehouse`) under
    sweeps, conformance, the service cache and bench records; the JSONL/
    JSON files stay the wire formats with byte-identical round-trip.
``query TASK SPEC [--url URL]``
    Client for scripts/CI: POST one graph to a running service and print
    the JSON answer.
``profile [--trace-json F] [--cprofile F] [--telemetry DB] CMD...``
    Run any repro command with :mod:`repro.obs` instrumentation enabled:
    spans and metrics record across every process the command spawns,
    and can be exported as Chrome trace-event JSON (Perfetto), dumped as
    cProfile stats, or stored in a results warehouse ``telemetry`` run
    for ``repro report --trend``.
``obs export DB --trace-json FILE [--run ID]``
    Re-export span telemetry stored by ``profile --telemetry`` as Chrome
    trace-event JSON.

Graph SPECs
-----------
``name`` or ``name:a,b,key=val`` selects a generator with positional /
keyword integer arguments, e.g.::

    ring:8   necklace:5,3   lollipop:4,3   hk:6   random:20,extra_edges=10
    wheel:6  caterpillar is not spec-able (needs a list) — use @file.json

``@path.json`` loads a serialized port graph (see repro.graphs.to_json),
and ``-`` reads one from stdin.  Both accept either the plain canonical
dict or a ``{"name": ..., "graph": ...}`` envelope line as produced by
``repro corpus emit`` (of a multi-line file, the first entry is used).
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, List, Optional

from repro.errors import ReproError
from repro.graphs import (
    PortGraph,
    clique,
    complete_binary_tree,
    cycle_with_leader_gadget,
    from_json,
    grid_torus,
    hypercube,
    lollipop,
    path_graph,
    random_connected_graph,
    random_regular,
    random_tree,
    ring,
    star,
    wheel,
)
from repro.lowerbounds import hk_graph, necklace

GENERATORS: Dict[str, Callable[..., PortGraph]] = {
    "ring": ring,
    "path": path_graph,
    "random-tree": random_tree,
    "clique": clique,
    "star": star,
    "wheel": wheel,
    "hypercube": hypercube,
    "torus": grid_torus,
    "lollipop": lollipop,
    "binary-tree": complete_binary_tree,
    "gadget-ring": cycle_with_leader_gadget,
    "random": random_connected_graph,
    "random-regular": random_regular,
    "hk": hk_graph,
    "necklace": necklace,
}


def _graph_from_text(text: str, source: str) -> PortGraph:
    """A graph from JSON text: the canonical dict, or the envelope line
    shape of ``repro corpus emit`` (``{"name": ..., "graph": ...}``); of
    a JSON-lines file, the first non-empty line is used."""
    import json

    from repro.graphs import from_payload

    try:
        data = json.loads(text)
    except ValueError:
        first = next((ln for ln in text.splitlines() if ln.strip()), "")
        try:
            data = json.loads(first)
        except ValueError:
            raise ReproError(f"{source}: not valid graph JSON") from None
    try:
        return from_payload(data)
    except ReproError as exc:
        raise ReproError(f"{source}: {exc}") from None


def parse_graph_spec(spec: str) -> PortGraph:
    """Parse a graph SPEC (see module docstring) into a PortGraph."""
    if spec == "-":
        return _graph_from_text(sys.stdin.read(), "stdin")
    if spec.startswith("@"):
        try:
            with open(spec[1:], "r", encoding="utf-8") as fh:
                return _graph_from_text(fh.read(), spec[1:])
        except OSError as exc:
            raise ReproError(f"cannot read graph file '{spec[1:]}': {exc}") from None
    name, _, argtext = spec.partition(":")
    if name not in GENERATORS:
        raise ReproError(
            f"unknown generator '{name}'; available: {', '.join(sorted(GENERATORS))}"
        )
    args: List[int] = []
    kwargs: Dict[str, int] = {}
    if argtext:
        for token in argtext.split(","):
            token = token.strip()
            if not token:
                continue
            try:
                if "=" in token:
                    key, _, value = token.partition("=")
                    kwargs[key.strip()] = int(value)
                else:
                    args.append(int(token))
            except ValueError:
                raise ReproError(
                    f"graph spec '{spec}': argument '{token}' is not an integer"
                ) from None
    return GENERATORS[name](*args, **kwargs)


# ----------------------------------------------------------------------
def _cmd_index(args: argparse.Namespace) -> int:
    from repro.views import election_index, is_feasible

    g = parse_graph_spec(args.spec)
    print(f"n = {g.n}, m = {g.num_edges}, diameter = {g.diameter()}")
    if is_feasible(g):
        print(f"feasible; election index phi = {election_index(g)}")
        return 0
    print("INFEASIBLE: some nodes share all views; no deterministic "
          "algorithm can elect, with any advice")
    return 1


def _cmd_elect(args: argparse.Namespace) -> int:
    from repro.core import run_elect

    g = parse_graph_spec(args.spec)
    rec = run_elect(g)
    print(f"n = {rec.n}, phi = {rec.phi}")
    print(f"advice: {rec.advice_bits} bits")
    print(f"elected node {rec.leader} in {rec.election_time} rounds "
          f"({rec.total_messages} messages)")
    return 0


def _cmd_spectrum(args: argparse.Namespace) -> int:
    from repro.analysis import format_table
    from repro.core import run_elect, run_election_milestone, run_known_d_phi

    g = parse_graph_spec(args.spec)
    rows = []
    e = run_elect(g)
    rows.append(("phi (minimum)", e.election_time, e.advice_bits))
    kd = run_known_d_phi(g)
    rows.append(("D+phi", kd.election_time, kd.advice_bits))
    for m, label in ((1, "D+phi+c"), (2, "D+c*phi"), (3, "D+phi^c"), (4, "D+c^phi")):
        rec = run_election_milestone(g, m, c=args.c)
        rows.append((label, rec.election_time, rec.advice_bits))
    print(f"n = {g.n}, phi = {e.phi}, D = {g.diameter()}, c = {args.c}")
    print(format_table(["time regime", "rounds", "advice bits"], rows))
    return 0


def _cmd_quotient(args: argparse.Namespace) -> int:
    from repro.views.quotient import view_quotient

    g = parse_graph_spec(args.spec)
    q = view_quotient(g)
    print(f"n = {g.n}; {q.num_classes} view classes "
          f"(stabilized at depth {q.stabilization_depth})")
    if q.is_discrete:
        print("discrete: the graph is feasible")
    else:
        for i, members in enumerate(q.classes):
            if len(members) > 1:
                print(f"  class {i}: {len(members)} indistinguishable nodes "
                      f"{members[:8]}{'...' if len(members) > 8 else ''}")
    return 0


def parse_corpus_spec(spec: str) -> List:
    """Parse a non-family corpus SPEC into ``[(name, graph), ...]``.

    ``default`` or ``default:MAX_N``
        The mixed feasible corpus of :func:`corpus_default`.
    ``phi:PHI`` or ``phi:PHI:k1,k2,...``
        Graphs of prescribed election index (:func:`corpus_with_phi`).
    ``SPEC`` (anything else)
        A single graph spec as accepted by :func:`parse_graph_spec`.

    Registered corpus families are handled by :func:`open_corpus_stream`,
    which never materializes them.
    """
    from repro.analysis.sweep import corpus_default, corpus_with_phi

    head, _, rest = spec.partition(":")
    try:
        if head == "default":
            return corpus_default(int(rest)) if rest else corpus_default()
        if head == "phi":
            phi_text, _, sizes_text = rest.partition(":")
            if not phi_text:
                raise ReproError("corpus spec 'phi' needs a value, e.g. phi:2")
            phi = int(phi_text)
            if sizes_text:
                sizes = tuple(
                    int(s) for s in sizes_text.split(",") if s.strip()
                )
                return corpus_with_phi(phi, sizes=sizes)
            return corpus_with_phi(phi)
    except ValueError:
        raise ReproError(
            f"corpus spec '{spec}': arguments must be integers"
        ) from None
    return [(spec, parse_graph_spec(spec))]


def iter_emitted_corpus(path: str):
    """Lazily re-open a ``repro corpus emit`` JSONL file (or any file of
    graph-dict lines) as a ``(name, graph)`` stream — the bridge that
    lets sweeps and service warming consume emitted corpora.

    A file holding exactly one plain graph (the historical ``@file.json``
    single-graph spec, one- or multi-line) keeps its legacy entry name
    ``@<path>``, so result stores written before this stream existed stay
    resumable; envelope lines always use their embedded name, and files
    of several plain graphs name entries ``<path>:<lineno>``."""
    import json

    from repro.graphs import from_payload, is_graph_envelope

    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise ReproError(f"cannot read corpus file '{path}': {exc}") from None
    with fh:
        pending = None  # a first plain-graph line, held back one line to
        # see whether the file is a single legacy graph or a JSONL stream
        first = True
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                data = json.loads(line)
            except ValueError:
                if first:
                    # not JSONL: one (possibly multi-line) JSON document
                    # holding a single graph — the legacy @file.json spec
                    yield f"@{path}", _graph_from_text(line + fh.read(), path)
                    return
                raise ReproError(
                    f"{path}:{lineno}: not a valid corpus JSON line"
                ) from None
            if pending is not None:
                yield pending
                pending = None
            try:
                graph = from_payload(data)
            except ReproError as exc:
                raise ReproError(f"{path}:{lineno}: {exc}") from None
            if is_graph_envelope(data):
                name = data.get("name") or f"{path}:{lineno}"
                yield str(name), graph
            else:
                entry = (f"{path}:{lineno}", graph)
                if first:
                    pending = entry  # defer: alone it keeps the legacy name
                else:
                    yield entry
            first = False
        if pending is not None:
            # the file held exactly one plain graph: legacy spec name
            yield f"@{path}", pending[1]


def open_corpus_stream(spec: str):
    """Open any corpus SPEC as ``(lazy iterator, size hint or None)``.

    Family specs (``circulants:500,seed=3``; see ``repro corpus list``)
    stream one graph at a time; ``@path.jsonl`` re-opens a ``corpus
    emit`` file; the legacy specs of :func:`parse_corpus_spec` are small
    and are simply wrapped.
    """
    from repro.corpus import is_family_spec, parse_family_spec

    if spec.startswith("@"):
        return iter_emitted_corpus(spec[1:]), None
    if is_family_spec(spec):
        family, count, seed, params = parse_family_spec(spec)
        return family.generate(count, seed=seed, **params), count
    corpus = parse_corpus_spec(spec)
    if not corpus:
        raise ReproError(f"corpus spec '{spec}' produced no graphs")
    return iter(corpus), len(corpus)


def _corpus_family_name(spec: str) -> Optional[str]:
    """The family name of a family-spec corpus (``circulants:200,seed=3``
    -> ``circulants``), or None — the constant ``family`` column a
    warehouse-backed sweep tags its records with."""
    from repro.corpus import is_family_spec, parse_family_spec

    if is_family_spec(spec):
        return parse_family_spec(spec)[0].name
    return None


def _engine_config(args: argparse.Namespace, task: str):
    """The run's engine configuration, refusing an unknown task or a bad
    ``--workers``/``--chunk-size`` before any store opens: opening one
    without ``--resume`` empties its dataset."""
    from repro.engine import EngineConfig, get_task

    get_task(task)
    return EngineConfig(workers=args.workers, chunk_size=args.chunk_size)


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.analysis import format_table
    from repro.analysis.sweep import sweep_to_store
    from repro.engine import (
        open_result_store,
        records_table,
        records_to_jsonl,
        run_stream,
    )
    from repro.engine.store import check_store_path

    if args.resume and not args.out:
        raise ReproError("--resume requires --out DB (the store to resume)")
    if args.out and args.json_out:
        raise ReproError(
            "--json and --out are mutually exclusive: --out records the "
            "same canonical records incrementally (`repro warehouse export` "
            "writes them as JSON lines)"
        )
    if args.out:
        check_store_path(args.out)
    config = _engine_config(args, args.task)
    corpus_iter, size_hint = open_corpus_stream(args.corpus)
    size_text = f"{size_hint} graphs" if size_hint is not None else "streamed"
    print(f"task = {args.task}, corpus = {args.corpus} ({size_text}), "
          f"workers = {args.workers}")

    if args.out:
        # streaming path: lazy corpus -> engine -> warehouse dataset
        with open_result_store(
            args.out,
            resume=args.resume,
            dataset=args.dataset,
            family=_corpus_family_name(args.corpus),
        ) as store:
            ran, skipped = sweep_to_store(
                corpus_iter,
                args.task,
                store,
                workers=args.workers,
                chunk_size=args.chunk_size,
            )
        print(f"{ran} records appended to {args.out}"
              + (f" ({skipped} already recorded, skipped)" if skipped else ""))
        return 0

    records = list(run_stream(corpus_iter, args.task, config))
    if not records:
        raise ReproError(f"corpus spec '{args.corpus}' produced no graphs")
    # nested fields (e.g. the per-algorithm list of the `messages` task)
    # only render usefully in the JSON output, not in a fixed-width table
    scalar_keys = {
        key
        for r in records
        for key, value in r.items()
        if not isinstance(value, (list, dict))
    }
    columns = ["name"] + sorted(scalar_keys - {"task", "name"})
    print(format_table(columns, records_table(records, columns)))
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            fh.write(records_to_jsonl(records))
        print(f"records written to {args.json_out}")
    return 0


def _cmd_conformance(args: argparse.Namespace) -> int:
    from itertools import chain

    from repro.analysis import (
        algorithm_table,
        family_table,
        format_table,
        summarize_conformance,
    )
    from repro.analysis.sweep import sweep_to_store
    from repro.conformance import conformance_task_name
    from repro.corpus import get_family
    from repro.engine import open_result_store, run_stream
    from repro.engine.store import check_store_path
    from repro.warehouse.db import Warehouse

    if args.resume and not args.out:
        raise ReproError("--resume requires --out DB (the store to resume)")
    if args.out:
        check_store_path(args.out)
    families = [f.strip() for f in args.families.split(",") if f.strip()]
    if not families:
        raise ReproError("--families needs at least one corpus family")
    streams = [
        get_family(fam).generate(args.count, seed=args.seed) for fam in families
    ]
    corpus_iter = chain.from_iterable(streams)
    task = conformance_task_name(schedules=args.schedules, seed=args.seed)
    config = _engine_config(args, task)
    print(
        f"task = {task}, families = {', '.join(families)} "
        f"({args.count} entries each), workers = {args.workers}"
    )

    if args.out:
        # multi-family stream: a warehouse store derives each record's
        # family column from its entry name's family prefix
        def family_of(name: str) -> Optional[str]:
            for fam in families:
                if name.startswith(fam + "-"):
                    return fam
            return None

        with open_result_store(
            args.out,
            resume=args.resume,
            dataset=args.dataset,
            family=family_of,
        ) as store:
            ran, skipped = sweep_to_store(
                corpus_iter,
                task,
                store,
                workers=args.workers,
                chunk_size=args.chunk_size,
            )
        print(f"{ran} records appended to {args.out}"
              + (f" ({skipped} entries already recorded, skipped)"
                 if skipped else ""))
        # the dataset may hold sweeps of other parameterizations
        # (different task strings); summarize only the one just run
        with Warehouse(args.out) as wh:
            summary = summarize_conformance(
                r for r in wh.iter_records(args.dataset)
                if r.get("task") == task
            )
    else:
        summary = summarize_conformance(run_stream(corpus_iter, task, config))
    columns, rows = family_table(summary)
    print(format_table(columns, rows))
    print()
    columns, rows = algorithm_table(summary)
    print(format_table(columns, rows))
    print(
        f"\n{summary.entries} entries ({summary.feasible} feasible), "
        f"{summary.cells} algorithm x model x schedule cells"
    )
    if summary.clean:
        print("conformance: zero disagreements")
        return 0
    print(
        f"conformance: {summary.disagreements} DISAGREEMENTS in entries "
        f"{summary.disagreement_entries[:10]}"
    )
    return 1


def _cmd_corpus(args: argparse.Namespace) -> int:
    from repro.analysis import format_table
    from repro.corpus import iter_corpus, list_families

    if args.corpus_command == "list":
        rows = [
            (
                fam.name,
                fam.feasibility,
                ", ".join(f"{k}={v}" for k, v in sorted(fam.params.items())),
                fam.description,
            )
            for fam in list_families()
        ]
        print(format_table(["family", "feasibility", "params", "description"],
                           rows))
        return 0

    # emit: stream one {"name": ..., "graph": ...} JSON line per entry
    import json

    from repro.graphs import to_dict

    out = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
    try:
        count = 0
        for name, g in iter_corpus(args.family):
            line = json.dumps(
                {"name": name, "graph": to_dict(g)},
                sort_keys=True,
                separators=(",", ":"),
            )
            out.write(line + "\n")
            count += 1
    finally:
        if args.out:
            out.close()
    if args.out:
        print(f"{count} graphs written to {args.out}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.analysis.bench import run_from_args

    return run_from_args(args)


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import (
        ResultCache,
        ServiceCore,
        make_server,
        serve_until_shutdown,
        warm_from_warehouse,
    )

    if args.shards < 0:
        raise ReproError(f"--shards must be >= 0, got {args.shards}")
    cache = ResultCache(path=args.cache, capacity=args.capacity)
    core = ServiceCore(
        cache,
        shards=args.shards,
        slow_query_threshold_s=(
            args.slow_query_ms / 1000.0
            if args.slow_query_ms is not None
            else None
        ),
    )
    if cache.persisted:
        print(f"cache: {cache.persisted} persisted entries loaded from "
              f"{args.cache}")
    for db in args.warm_warehouse:
        warmed = warm_from_warehouse(cache, db)
        print(f"warm: {warmed} entries joined from warehouse {db}")
    server = make_server(core, host=args.host, port=args.port)
    host, port = server.server_address[:2]
    shard_note = (
        f"{args.shards} shard workers" if args.shards else "in-process compute"
    )
    print(f"serving on http://{host}:{port} "
          f"(tasks: {', '.join(core.tasks)}; {shard_note}; Ctrl-C to stop)",
          flush=True)
    serve_until_shutdown(server, install_signal_handlers=True)
    if args.cache:
        print(f"cache: {cache.persisted} entries persisted to {args.cache}")
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    import json
    import urllib.error
    import urllib.request

    from repro.graphs import to_dict

    g = parse_graph_spec(args.spec)
    url = args.url.rstrip("/") + f"/v1/{args.task}"
    body = json.dumps({"graph": to_dict(g)}).encode("utf-8")
    request = urllib.request.Request(
        url, data=body, headers={"Content-Type": "application/json"}
    )
    try:
        with urllib.request.urlopen(request, timeout=args.timeout) as resp:
            payload = json.load(resp)
    except urllib.error.HTTPError as exc:
        try:
            detail = json.load(exc)
        except ValueError:
            detail = {"error": "HTTPError", "detail": str(exc)}
        raise ReproError(
            f"service rejected the query (HTTP {exc.code}): "
            f"{detail.get('error')}: {detail.get('detail')}"
        ) from None
    except urllib.error.URLError as exc:
        raise ReproError(
            f"no service reachable at {args.url} ({exc.reason}); start one "
            f"with `repro serve`"
        ) from None
    out = payload["record"] if args.record_only else payload
    print(json.dumps(out, sort_keys=True, separators=(",", ":")))
    return 0


def _existing_warehouse(path: str):
    """Open the warehouse of a read-only command.  sqlite would create a
    missing database on connect, so a mistyped path is refused before
    any file (database, ``-wal`` or ``-shm``) is made."""
    import os

    from repro.warehouse import Warehouse

    if not os.path.exists(path):
        raise ReproError(f"warehouse '{path}' does not exist")
    return Warehouse(path)


def _cmd_report(args: argparse.Namespace) -> int:
    if args.trend:
        from repro.warehouse import render_trend

        with _existing_warehouse(args.trend) as wh:
            text = render_trend(wh) + "\n"
    else:
        from repro.analysis.report import generate_report

        text = generate_report()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"report written to {args.out}")
    else:
        print(text, end="" if text.endswith("\n") else "\n")
    return 0


def _cmd_warehouse(args: argparse.Namespace) -> int:
    from repro.warehouse import (
        Warehouse,
        export_bench,
        export_dataset,
        import_file,
        register_corpus_graphs,
    )

    if args.warehouse_command == "import":
        with Warehouse(args.db) as wh:
            # a labeled import is one provenance row (one trend column),
            # however many files it covers; unlabeled files each get
            # their own run named after the file
            run_id = (
                wh.begin_run("import", args.label) if args.label else None
            )
            for path in args.files:
                fmt, dataset, count = import_file(
                    wh,
                    path,
                    fmt=args.format,
                    dataset=args.dataset,
                    run_id=run_id,
                )
                print(f"{path}: {count} {fmt} record(s) -> "
                      f"dataset '{dataset}'")
            if run_id is not None:
                wh.finish_run(run_id)
        return 0

    if args.warehouse_command == "export":
        with _existing_warehouse(args.db) as wh:
            if args.bench_dir:
                for path in export_bench(wh, args.bench_dir, run_id=args.run):
                    print(path)
                return 0
            if not (args.dataset and args.out):
                raise ReproError(
                    "export needs DATASET and OUT (JSONL round-trip), or "
                    "--bench DIR for BENCH_*.json records"
                )
            lines = export_dataset(wh, args.dataset, args.out)
        print(f"{lines} line(s) written to {args.out}")
        return 0

    if args.warehouse_command == "register":
        corpus_iter, _hint = open_corpus_stream(args.corpus)
        with Warehouse(args.db) as wh:
            count = register_corpus_graphs(wh, args.dataset, corpus_iter)
        print(f"{count} graph(s) registered for dataset '{args.dataset}'")
        return 0

    # info
    from repro.analysis import format_table

    with _existing_warehouse(args.db) as wh:
        rows = wh.datasets()
        if rows:
            print(format_table(["dataset", "kind", "records"], rows))
        else:
            print("(no datasets)")
        runs = wh.runs()
        print(f"\n{len(runs)} run(s), {wh.registered_graphs()} registered "
              f"graph(s)")
        for run in runs[-10:]:
            label = f" '{run['label']}'" if run["label"] else ""
            finished = (
                f"finished {run['finished_at']}"
                if run["finished_at"]
                else "(unfinished)"
            )
            print(f"  run {run['id']}: {run['kind']}{label} "
                  f"started {run['started_at']} {finished}")
        print(f"integrity: {wh.integrity_check()}")
    return 0


# ----------------------------------------------------------------------
def _cmd_profile(args: argparse.Namespace) -> int:
    from repro import obs

    cmd = list(args.cmd)
    if cmd[:1] == ["--"]:  # `repro profile -- sweep --workers 4`
        cmd = cmd[1:]
    if not cmd:
        raise ReproError(
            "profile needs a repro command to run, e.g. "
            "`repro profile elect ring:8`"
        )
    if cmd[0] == "profile":
        raise ReproError("profile cannot wrap itself")

    profiler = None
    if args.cprofile:
        import cProfile

        profiler = cProfile.Profile()
    obs.reset()
    obs.enable()
    try:
        if profiler is not None:
            profiler.enable()
        try:
            code = main(cmd)
        finally:
            if profiler is not None:
                profiler.disable()
        events = obs.trace_events()
        snapshot = obs.take_snapshot()
    finally:
        obs.disable()

    log = sys.stderr  # keep the wrapped command's stdout clean
    print(
        f"profile: {len(events)} span(s) from `repro {' '.join(cmd)}` "
        f"(exit {code})",
        file=log,
    )
    if args.trace_json:
        count = obs.write_chrome_trace(args.trace_json, events)
        print(
            f"profile: {count} trace event(s) -> {args.trace_json} "
            f"(load in Perfetto / chrome://tracing)",
            file=log,
        )
    if args.cprofile:
        assert profiler is not None
        profiler.dump_stats(args.cprofile)
        print(
            f"profile: cProfile stats -> {args.cprofile} "
            f"(inspect with `python -m pstats {args.cprofile}`)",
            file=log,
        )
    if args.telemetry:
        from repro.warehouse import Warehouse

        with Warehouse(args.telemetry) as wh:
            run_id = wh.begin_run("profile", args.label)
            rows = wh.append_telemetry(
                run_id, snapshot=snapshot, events=events
            )
            wh.finish_run(run_id)
        print(
            f"profile: {rows} telemetry row(s) -> {args.telemetry} "
            f"(run {run_id}; chart with `repro report --trend`)",
            file=log,
        )
    return code


def _cmd_obs(args: argparse.Namespace) -> int:
    from repro.obs import write_chrome_trace

    with _existing_warehouse(args.db) as wh:
        rows = wh.telemetry_rows(run_id=args.run, kind="span")
    events = [row["value"] for row in rows]
    if not events:
        where = f"run {args.run} of {args.db}" if args.run else args.db
        raise ReproError(
            f"no span telemetry in {where}; record some with "
            f"`repro profile --telemetry {args.db} CMD...`"
        )
    count = write_chrome_trace(args.trace_json, events)
    print(f"{count} trace event(s) written to {args.trace_json}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Leader election with advice in anonymous networks "
        "(Dieudonné & Pelc, SPAA 2017 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("index", help="feasibility and election index")
    p.add_argument("spec", help="graph spec, e.g. necklace:5,3 or @graph.json")
    p.set_defaults(func=_cmd_index)

    p = sub.add_parser("elect", help="run the minimum-time election pipeline")
    p.add_argument("spec")
    p.set_defaults(func=_cmd_elect)

    p = sub.add_parser("spectrum", help="advice-vs-time table")
    p.add_argument("spec")
    p.add_argument("--c", type=int, default=2, help="the constant c > 1")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("quotient", help="view quotient / symmetry diagnosis")
    p.add_argument("spec")
    p.set_defaults(func=_cmd_quotient)

    p = sub.add_parser(
        "sweep", help="run an experiment sweep through the parallel engine"
    )
    p.add_argument(
        "--corpus", default="default",
        help="default[:MAX_N], phi:PHI[:k1,k2,...], a family spec, "
        "@emitted.jsonl, or a single graph spec",
    )
    p.add_argument(
        "--task", default="elect",
        help="engine task: elect, advice, index, quotient, messages, "
        "ablation",
    )
    p.add_argument(
        "--workers", type=int, default=1,
        help="worker processes (1 = serial; results are identical either way)",
    )
    p.add_argument(
        "--chunk-size", type=int, default=None,
        help="corpus entries per chunk (view caches live one entry)",
    )
    p.add_argument(
        "--json", dest="json_out", default=None,
        help="also write canonical JSON-lines records to this file",
    )
    p.add_argument(
        "--out", default=None,
        help="stream records into this warehouse database (.sqlite, .db) "
        "instead of printing a table (corpus entries are generated lazily; "
        "memory stays bounded); `repro warehouse export DB DATASET FILE` "
        "writes the JSON lines",
    )
    p.add_argument(
        "--resume", action="store_true",
        help="with --out: skip entries already recorded in the dataset, so "
        "an interrupted sweep restarts where it died",
    )
    p.add_argument(
        "--dataset", default="sweep",
        help="with --out: the dataset to write (default: sweep)",
    )
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser(
        "conformance",
        help="differential oracle: all algorithms x all sim models x "
        "adversarial schedules over corpus families",
    )
    p.add_argument(
        "--families", default="tori,random-trees,lifts",
        help="comma-separated corpus families (see `repro corpus list`)",
    )
    p.add_argument(
        "--count", type=int, default=20,
        help="corpus entries per family (prefix-stable per the registry)",
    )
    p.add_argument(
        "--seed", type=int, default=0,
        help="seed for both the corpus streams and the schedule roster",
    )
    p.add_argument(
        "--schedules", type=int, default=3,
        help="adversarial async schedules per entry (deterministic roster)",
    )
    p.add_argument(
        "--workers", type=int, default=1,
        help="worker processes (records identical at any worker count)",
    )
    p.add_argument(
        "--chunk-size", type=int, default=None,
        help="corpus entries per chunk (view caches live one entry)",
    )
    p.add_argument(
        "--out", default=None,
        help="stream record groups into this warehouse database (.sqlite, "
        ".db); `repro warehouse export DB DATASET FILE` writes the JSON "
        "lines",
    )
    p.add_argument(
        "--resume", action="store_true",
        help="with --out: skip entries whose record group is already "
        "committed to the dataset (partial groups are re-run in full)",
    )
    p.add_argument(
        "--dataset", default="conformance",
        help="with --out: the dataset to write (default: conformance)",
    )
    p.set_defaults(func=_cmd_conformance)

    p = sub.add_parser(
        "corpus", help="inspect or emit the registered corpus families"
    )
    corpus_sub = p.add_subparsers(dest="corpus_command", required=True)
    pl = corpus_sub.add_parser("list", help="table of registered families")
    pl.set_defaults(func=_cmd_corpus)
    pe = corpus_sub.add_parser(
        "emit", help="stream a family's (name, graph) entries as JSON lines"
    )
    pe.add_argument(
        "family",
        help="family spec, e.g. circulants:200,seed=3 (see `repro corpus list`)",
    )
    pe.add_argument("--out", default=None, help="write to this file instead "
                    "of stdout")
    pe.set_defaults(func=_cmd_corpus)

    p = sub.add_parser(
        "bench",
        help="run perf scenarios, emit machine-readable BENCH_*.json records",
    )
    # flags stay stdlib-only here so building the parser never imports the
    # analysis/engine tree; _cmd_bench defers that to execution time
    p.add_argument(
        "--scenario", default=None,
        help="comma-separated scenario names (default: all registered)",
    )
    p.add_argument(
        "--quick", action="store_true",
        help="small workloads for smoke/CI (recorded as quick mode)",
    )
    p.add_argument(
        "--out-dir", default="benchmarks/out",
        help="directory for BENCH_<scenario>.json records",
    )
    p.add_argument(
        "--check", default=None, metavar="DIR",
        help="only validate the BENCH_*.json records under DIR, then exit",
    )
    p.add_argument(
        "--warehouse", default=None, metavar="DB",
        help="also store the records in this results warehouse under one "
        "labeled run (the rows `repro report --trend` charts)",
    )
    p.add_argument(
        "--label", default=None,
        help="with --warehouse: the run label shown as the trend column "
        "header (e.g. a PR number or commit)",
    )
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser(
        "serve",
        help="run the online query service (canonical-form result cache)",
    )
    p.add_argument("--host", default="127.0.0.1", help="bind address")
    p.add_argument(
        "--port", type=int, default=8008,
        help="listen port (0 picks a free one; the chosen port is printed)",
    )
    p.add_argument(
        "--cache", default=None, metavar="DB",
        help="persist the result cache to this results warehouse "
        "(.sqlite/.db: indexed rows, shared with batch sweeps); a cache "
        "JSONL file migrates with `repro warehouse import DB FILE`",
    )
    p.add_argument(
        "--capacity", type=int, default=4096,
        help="in-memory LRU entries (the persistence tier is unbounded)",
    )
    p.add_argument(
        "--warm-warehouse", action="append", default=[], metavar="DB",
        help="pre-populate from a results warehouse with one join query — "
        "no corpus needed, the warehouse stored each entry's content "
        "address at sweep time (repeatable; a JSONL sweep store migrates "
        "with `repro warehouse import` then `repro warehouse register`)",
    )
    p.add_argument(
        "--shards", type=int, default=0, metavar="N",
        help="fingerprint-sharded compute worker processes: cold queries "
        "route to int(fingerprint[:16], 16) %% N, each worker owning its "
        "own view-cache universe while the result cache (and any warm "
        "tier) stays shared in the serving process; 0 computes in-process",
    )
    p.add_argument(
        "--slow-query-ms", type=float, default=None, metavar="MS",
        help="structured slow-query log: queries at or over this latency "
        "emit one JSON line to stderr (task, fingerprint, cache tier, "
        "per-phase timings)",
    )
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "query", help="query a running service (client for scripts/CI)"
    )
    p.add_argument(
        "task", help="service task: elect, index, advice or quotient"
    )
    p.add_argument(
        "spec",
        help="graph spec (generator, @file.json, or - for stdin; accepts "
        "corpus-emit envelopes)",
    )
    p.add_argument(
        "--url", default="http://127.0.0.1:8008",
        help="base URL of the service",
    )
    p.add_argument(
        "--timeout", type=float, default=60.0,
        help="request timeout in seconds",
    )
    p.add_argument(
        "--record", dest="record_only", action="store_true",
        help="print only the cached engine record, not the full response "
        "envelope (fingerprint, cache flag, relabeling)",
    )
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser("report", help="regenerate the experiment report")
    p.add_argument("--out", default=None, help="write markdown to this file")
    p.add_argument(
        "--trend", default=None, metavar="DB",
        help="render the cross-run perf trajectory from this results "
        "warehouse instead of the experiment report",
    )
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser(
        "warehouse",
        help="the indexed results warehouse: import/export the JSONL/JSON "
        "wire formats, register corpora, inspect datasets",
    )
    wh_sub = p.add_subparsers(dest="warehouse_command", required=True)

    pi = wh_sub.add_parser(
        "import",
        help="import result stores / cache files / BENCH records "
        "(byte-identical round-trip with export)",
    )
    pi.add_argument("db", help="warehouse database (created if absent)")
    pi.add_argument("files", nargs="+", help="JSONL stores, cache files, "
                    "or BENCH_*.json records")
    pi.add_argument(
        "--format", default=None, choices=("store", "cache", "bench"),
        help="file format (default: sniffed from the first line)",
    )
    pi.add_argument(
        "--dataset", default=None,
        help="target dataset (default: 'service-cache' for cache files, "
        "the dataset `repro serve --cache` reads; 'bench' for bench "
        "records; the file's basename for result stores)",
    )
    pi.add_argument("--label", default=None, help="provenance run label")
    pi.set_defaults(func=_cmd_warehouse)

    pe = wh_sub.add_parser(
        "export", help="write a dataset back to its JSONL/JSON wire format"
    )
    pe.add_argument("db")
    pe.add_argument("dataset", nargs="?", help="dataset to export")
    pe.add_argument("out", nargs="?", help="output JSONL file")
    pe.add_argument(
        "--bench", dest="bench_dir", default=None, metavar="DIR",
        help="instead: write BENCH_*.json files for one bench run",
    )
    pe.add_argument(
        "--run", type=int, default=None,
        help="with --bench: the run id (default: the latest bench run)",
    )
    pe.set_defaults(func=_cmd_warehouse)

    pr = wh_sub.add_parser(
        "register",
        help="register a corpus's content addresses for a dataset swept "
        "before the warehouse existed (one stream, then warming is a join)",
    )
    pr.add_argument("db")
    pr.add_argument("dataset", help="dataset whose entry names to cover")
    pr.add_argument("corpus", help="corpus spec the dataset was swept over")
    pr.set_defaults(func=_cmd_warehouse)

    pn = wh_sub.add_parser(
        "info", help="datasets, runs, graph registrations, integrity check"
    )
    pn.add_argument("db")
    pn.set_defaults(func=_cmd_warehouse)

    p = sub.add_parser(
        "profile",
        help="run any repro command with obs instrumentation on: spans + "
        "metrics, optional Chrome trace / cProfile / warehouse telemetry",
    )
    p.add_argument(
        "--trace-json", default=None, metavar="FILE",
        help="write the recorded spans as Chrome trace-event JSON "
        "(loadable in Perfetto / chrome://tracing)",
    )
    p.add_argument(
        "--cprofile", default=None, metavar="FILE",
        help="also run the command under cProfile and dump stats to FILE",
    )
    p.add_argument(
        "--telemetry", default=None, metavar="DB",
        help="store the metric snapshot and spans in this results "
        "warehouse under one run (charted by `repro report --trend`)",
    )
    p.add_argument(
        "--label", default=None,
        help="with --telemetry: the provenance run label",
    )
    p.add_argument(
        "cmd", nargs=argparse.REMAINDER, metavar="CMD...",
        help="the repro command line to run, e.g. `elect ring:8` "
        "(prefix with -- if it starts with a dash)",
    )
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser(
        "obs", help="observability utilities (stored telemetry export)"
    )
    obs_sub = p.add_subparsers(dest="obs_command", required=True)
    px = obs_sub.add_parser(
        "export",
        help="export warehouse span telemetry as Chrome trace-event JSON",
    )
    px.add_argument(
        "db", help="warehouse holding telemetry rows "
        "(`repro profile --telemetry DB CMD...`)",
    )
    px.add_argument(
        "--trace-json", required=True, metavar="FILE",
        help="output file (loadable in Perfetto / chrome://tracing)",
    )
    px.add_argument(
        "--run", type=int, default=None,
        help="restrict to this run id (default: spans from every run)",
    )
    px.set_defaults(func=_cmd_obs)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # downstream consumer (e.g. `corpus emit ... | head`) closed early;
        # point stdout at devnull so interpreter shutdown doesn't re-raise
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
