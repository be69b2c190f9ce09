"""The ``mao`` command-line driver.

Mirrors the paper's invocation style::

    mao --mao=LFIND=trace[0]:ASM=o[/dev/null] in.s

MAO-specific options carry the ``--mao=`` prefix; the order of passes in
the spec is the invocation order.  Reading/parsing the input happens
implicitly as the first pass.  Without an ``ASM`` pass the run is
analysis-only and nothing is emitted (matching MAO).  ``--list-passes``
shows everything registered.

The original MAO ships an ``as`` replacement script that filters MAO
options and then delegates to the real assembler; ``--gas-compat`` mode
emulates that flow by accepting (and ignoring) common gas flags like
``--64`` and ``-o`` so the driver can sit behind a compiler.

Batch mode: more than one input file (globs are expanded, so quoted
patterns work from scripts) switches the driver to the corpus engine —
``repro.api.optimize_many`` — which shards files across ``--jobs``
worker processes and replays warm results from the persistent
content-addressed artifact cache (``--cache-dir`` /
``$PYMAO_CACHE_DIR``, default ``~/.cache/pymao``; ``--no-cache``
disables it).  ``-o`` names an output *directory* in batch mode; inputs
with colliding basenames mirror their directory structure under it
instead of silently overwriting each other.  A file that fails to read
or parse does not abort the batch: every other file is still processed,
the failures are reported at the end, and the exit status is non-zero.

Service mode: ``mao serve`` runs the long-lived :mod:`repro.server`
optimization service (admission control, shared artifact cache, graceful
SIGTERM drain) and ``mao remote`` optimizes a file against a running
server over HTTP.  Both verbs delegate to :mod:`repro.server.cli`.

Observability: the driver is a thin shell over :mod:`repro.api`, and all
reporting flags are views over :mod:`repro.obs` — ``--trace-out FILE``
writes the ``pymao.trace/1`` JSONL event log (spans + metrics snapshot),
``--stats`` prints per-pass transformation counts, ``--sim-stats`` prints
the engine-cache metrics, ``--time`` prints the parse/pass span timings,
and ``--profile-spans PATTERN`` (or ``PYMAO_PROFILE``) attaches cProfile
summaries to matching spans.  ``--sim MODEL`` simulates the optimized
unit on a processor model after the passes run.
"""

from __future__ import annotations

import argparse
import glob as _glob
import json
import os
import sys
from typing import List, Optional

import repro.passes  # noqa: F401  (registers all built-in passes)
from repro import api, obs
from repro.passes.manager import parse_pass_spec, registered_passes


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mao",
        description="PyMAO: an extensible micro-architectural optimizer")
    parser.add_argument("--mao", action="append", default=[],
                        metavar="SPEC",
                        help="pass spec, e.g. REDTEST:ASM=o[out.s]")
    parser.add_argument("--version", action="store_true",
                        help="print the package version and the pinned "
                             "report schema versions, then exit")
    parser.add_argument("--list-passes", action="store_true",
                        help="list registered passes and exit")
    parser.add_argument("--plugin", action="append", default=[],
                        metavar="FILE.py",
                        help="load a pass plug-in before running (the "
                             "file registers passes via "
                             "@register_func_pass)")
    parser.add_argument("--stats", action="store_true",
                        help="print per-pass transformation statistics")
    parser.add_argument("--sim-stats", action="store_true",
                        help="print simulation-engine statistics (encoding "
                             "cache, basic-block cache, loop fast-forward)")
    parser.add_argument("--cache-stats", action="store_true",
                        help="print artifact-cache statistics (batch-mode "
                             "hits/misses/evictions from the metrics "
                             "registry)")
    parser.add_argument("--time", action="store_true",
                        help="report wall-clock time per pass pipeline")
    parser.add_argument("--predict", default=None, metavar="CORE",
                        help="batch mode: annotate each output with the "
                             "static throughput prediction for CORE — a "
                             "profile name ('mao profiles list') or a "
                             "pymao.uarch/1 .json path — and print the "
                             "corpus ranked by predicted cycles (see "
                             "also the 'mao predict' verb)")
    parser.add_argument("--sim", default=None, metavar="MODEL",
                        help="simulate the optimized unit on a processor "
                             "model (a profile name or a pymao.uarch/1 "
                             ".json path) and report cycles")
    parser.add_argument("--trace-out", default=None, metavar="FILE.jsonl",
                        help="write the run's trace (nested spans + "
                             "metrics snapshot) as pymao.trace/1 JSONL")
    parser.add_argument("--profile-spans", default=None, metavar="PATTERN",
                        help="attach cProfile summaries to spans matching "
                             "the fnmatch PATTERN (implies span capture; "
                             "PYMAO_PROFILE env var is the equivalent)")
    parser.add_argument("--jobs", type=_positive_int, default=1, metavar="N",
                        help="batch mode: optimize files on N worker "
                             "processes (default: 1, serial)")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="artifact-cache directory for batch mode "
                             "(default: $PYMAO_CACHE_DIR, else "
                             "~/.cache/pymao)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the artifact cache in batch mode")
    parser.add_argument("--batch-summary", default=None,
                        metavar="FILE.json",
                        help="write the batch run's pymao.batch/1 summary "
                             "as JSON (batch mode only)")
    parser.add_argument("-o", dest="output", default=None,
                        help="output file (shorthand for a final ASM pass); "
                             "an output directory in batch mode")
    parser.add_argument("--64", dest="gas64", action="store_true",
                        help="gas compatibility flag (accepted, implied)")
    parser.add_argument("input", nargs="*",
                        help="input assembly file(s); more than one "
                             "switches to batch mode, and glob patterns "
                             "are expanded")
    return parser


def _positive_int(text: str) -> int:
    """The ``--jobs`` argument type: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1, got %d" % value)
    return value


def expand_inputs(patterns: List[str]) -> List[str]:
    """Expand glob patterns the shell did not (quoted, or from exec).

    A pattern with no matches is kept verbatim so the batch reports it as
    an unreadable file instead of silently dropping it.
    """
    files: List[str] = []
    for pattern in patterns:
        if _glob.has_magic(pattern):
            matches = sorted(_glob.glob(pattern))
            files.extend(matches if matches else [pattern])
        else:
            files.append(pattern)
    return files


def load_plugin(path: str) -> None:
    """Load a pass plug-in: execute a Python file whose top level
    registers passes (the paper: "Passes can be statically linked into
    MAO, or dynamically loaded as plug-ins").
    """
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "mao_plugin_%d" % abs(hash(path)), path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)


def print_version(stream) -> None:
    """The package version plus every pinned report schema version.

    One block, parsed by deploy tooling: a server and its clients agree
    on payload formats iff these lines agree.
    """
    from repro import __version__, result

    # Importing a module registers its schemas (repro.result); pull in
    # the full surface so the listing is complete, then render the one
    # registry sorted by label.
    import repro.api            # noqa: F401  optimize / sim
    import repro.batch.cache    # noqa: F401  artifact
    import repro.batch.engine   # noqa: F401  batch
    import repro.discover       # noqa: F401  discover
    import repro.obs.span       # noqa: F401  trace
    import repro.passes.manager  # noqa: F401  pipeline
    import repro.pgo.store      # noqa: F401  profile
    import repro.server.app     # noqa: F401  server
    import repro.server.fleet   # noqa: F401  fleet
    import repro.tune           # noqa: F401  tune
    import repro.uarch.static_model  # noqa: F401  predict
    import repro.uarch.tables   # noqa: F401  uarch / uarch-ranges

    stream.write("mao (PyMAO) %s\n" % __version__)
    for label, schema in result.iter_schemas():
        stream.write("schema %-13s %s\n" % (label, schema))


def predict_main(argv: List[str]) -> int:
    """``mao predict`` — the analytical cycles-per-iteration oracle.

    Statically predicts steady-state throughput for the hottest loop of
    an input (no simulation): ``mao predict --core=core2 file.s``.
    ``--mao=SPEC`` applies a pass pipeline first, so candidates can be
    scored exactly as the optimizer would emit them.
    """
    import argparse
    import json as _json

    parser = argparse.ArgumentParser(
        prog="mao predict",
        description="statically predict steady-state cycles-per-iteration "
                    "(port binding + latency critical path + front end)")
    parser.add_argument("--core", default="core2", metavar="CORE",
                        help="processor profile to predict for: a name "
                             "from 'mao profiles list' or a pymao.uarch/1 "
                             ".json path")
    parser.add_argument("--mao", action="append", default=[], metavar="SPEC",
                        help="pass pipeline to apply before predicting")
    parser.add_argument("--function", default=None, metavar="NAME",
                        help="function to analyze (default: first)")
    parser.add_argument("--loop", default=None, metavar="LABEL",
                        help="loop back-branch target label to analyze "
                             "(default: largest innermost loop)")
    parser.add_argument("--assume-lsd", action="store_true",
                        help="use the LSD streaming rate as the front-end "
                             "bound when the body fits the LSD")
    parser.add_argument("--explain", action="store_true",
                        help="print the per-port pressure table and the "
                             "latency critical path")
    parser.add_argument("--json", action="store_true",
                        help="emit the pymao.predict/1 document instead of "
                             "the one-line summary")
    parser.add_argument("input", help="input assembly file")
    args = parser.parse_args(argv)

    try:
        with open(args.input) as handle:
            source = handle.read()
    except OSError as exc:
        sys.stderr.write("mao predict: %s\n" % exc)
        return 1

    spec_items = []
    for spec in args.mao:
        spec_items.extend(parse_pass_spec(spec))

    from repro.uarch.static_model import PredictError
    try:
        target = source
        if spec_items:
            target = api.optimize(source, spec_items,
                                  filename=args.input).unit
        prediction = api.predict(target, args.core,
                                 function=args.function, loop=args.loop,
                                 assume_lsd=args.assume_lsd)
    except (PredictError, ValueError) as exc:
        sys.stderr.write("mao predict: %s\n" % exc)
        return 1

    if args.json:
        _json.dump(prediction.to_dict(), sys.stdout, indent=2,
                   sort_keys=True)
        sys.stdout.write("\n")
    elif args.explain:
        print(prediction.explain())
    else:
        print("%s %s loop=%s: %.2f cycles/iteration (%s-bound; "
              "ports=%.2f latency=%.2f frontend=%.2f)"
              % (args.input, prediction.function,
                 prediction.loop_label or "<none>", prediction.cycles,
                 prediction.bottleneck, prediction.port_bound,
                 prediction.latency_bound, prediction.frontend_bound))
    return 0


def tune_main(argv: List[str]) -> int:
    """``mao tune`` — search the pass-spec space for the best pipeline.

    ``mao tune --core=core2 file.s`` scores candidate pipelines with the
    analytical predictor, shares pipeline prefixes through the artifact
    cache, and reports the winning spec.  The input may be an assembly
    file or the name of a workload kernel (``mao tune hash_bench``).
    """
    import argparse
    import json as _json
    import os

    parser = argparse.ArgumentParser(
        prog="mao tune",
        description="search candidate pass pipelines for the lowest "
                    "predicted cycles/iteration on a target core")
    parser.add_argument("--core", default="core2", metavar="CORE",
                        help="processor profile to tune for: a name from "
                             "'mao profiles list' or a pymao.uarch/1 "
                             ".json path")
    parser.add_argument("--budget", type=int, default=None, metavar="N",
                        help="max pass executions to spend (default 48)")
    parser.add_argument("--n-select", type=int, default=None, metavar="N",
                        help="leaders extended per beam round (default 3)")
    parser.add_argument("--max-rounds", type=int, default=None, metavar="N",
                        help="beam rounds after the seed set (default 2)")
    parser.add_argument("--simulate-top", type=int, default=0, metavar="N",
                        help="re-score the top N leaders with full trace "
                             "simulation (ground truth; slower)")
    parser.add_argument("--function", default=None, metavar="NAME",
                        help="function to score (default: first)")
    parser.add_argument("--jobs", type=_positive_int, default=1, metavar="N",
                        help="worker processes for independent candidates")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="artifact cache directory "
                             "($PYMAO_CACHE_DIR, else ~/.cache/pymao)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the persistent artifact cache")
    parser.add_argument("--explain", action="store_true",
                        help="print the scored leaderboard and search "
                             "summary")
    parser.add_argument("--json", action="store_true",
                        help="emit the pymao.tune/1 document instead of "
                             "the one-line summary")
    parser.add_argument("-o", "--output", default=None, metavar="FILE",
                        help="write the winning emitted assembly here")
    parser.add_argument("input",
                        help="input assembly file or workload kernel name")
    args = parser.parse_args(argv)

    source = args.input
    if os.path.exists(args.input) or not args.input.isidentifier():
        try:
            with open(args.input) as handle:
                source = handle.read()
        except OSError as exc:
            sys.stderr.write("mao tune: %s\n" % exc)
            return 1

    from repro.tune import TuneError
    try:
        result = api.tune(source, args.core,
                          function=args.function,
                          budget=args.budget,
                          n_select=args.n_select,
                          max_rounds=args.max_rounds,
                          simulate_top=args.simulate_top,
                          jobs=args.jobs,
                          cache=not args.no_cache,
                          cache_dir=args.cache_dir)
    except (TuneError, ValueError) as exc:
        sys.stderr.write("mao tune: %s\n" % exc)
        return 1

    if args.output:
        try:
            with open(args.output, "w") as handle:
                handle.write(result.asm)
        except OSError as exc:
            sys.stderr.write("mao tune: %s\n" % exc)
            return 1

    if args.json:
        _json.dump(result.to_dict(), sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    elif args.explain:
        print(result.explain())
    else:
        runs = result.pass_runs
        print("%s %s: winner --mao=%s %.2f cycles/iteration (%s; "
              "%d runs, %d cached, stop=%s)"
              % (args.input, args.core,
                 result.winner_spec or "<none>", result.winner_cycles,
                 result.winner.get("origin", "?"),
                 runs.get("executed", 0), runs.get("cache_hits", 0),
                 result.early_stop.get("reason", "?")))
    return 0


def profile_main(argv: List[str]) -> int:
    """``mao profile`` — sample an input and emit its profile document.

    ``mao profile --period 1000 --seed 7 file.s`` runs the input under
    the sampling interpreter and prints the ``pymao.profile/1`` document
    that ``POST /v1/profile`` (or ``--ingest``) feeds the PGO store.
    The input may be an assembly file or a workload kernel name, and
    ``--seed`` makes the sample phase deterministic — the same seed
    reproduces the same samples at any ``--jobs`` count.
    """
    import argparse
    import json as _json
    import os

    parser = argparse.ArgumentParser(
        prog="mao profile",
        description="sample an input under the architectural interpreter "
                    "and emit its pymao.profile/1 document")
    parser.add_argument("--period", type=int, default=1000, metavar="N",
                        help="sample every N executed instructions "
                             "(default: 1000)")
    parser.add_argument("--seed", type=int, default=None, metavar="N",
                        help="deterministic sampling-phase seed (default: "
                             "phase 0, the historical behavior)")
    parser.add_argument("--weight", type=float, default=None, metavar="W",
                        help="profile weight to record (default: executed "
                             "step count)")
    parser.add_argument("--entry", default="main", metavar="SYMBOL",
                        help="entry symbol to execute (default: main)")
    parser.add_argument("--max-steps", type=int, default=5_000_000,
                        metavar="N",
                        help="execution step bound (default: 5000000)")
    parser.add_argument("--jobs", type=_positive_int, default=1, metavar="N",
                        help="worker processes when profiling several "
                             "inputs")
    parser.add_argument("--ingest", action="store_true",
                        help="also store the document in the local PGO "
                             "profile store")
    parser.add_argument("--profile-dir", default=None, metavar="DIR",
                        help="profile store for --ingest (default: "
                             "$PYMAO_PROFILE_DIR, else "
                             "~/.cache/pymao-profiles)")
    parser.add_argument("-o", "--output", default=None, metavar="FILE",
                        help="write the document(s) here instead of stdout")
    parser.add_argument("inputs", nargs="+", metavar="input",
                        help="assembly files or workload kernel names")
    args = parser.parse_args(argv)
    if args.period <= 0:
        sys.stderr.write("mao profile: --period must be positive\n")
        return 2

    from repro import pgo

    pairs = []
    for name in args.inputs:
        source = name
        if os.path.exists(name) or not name.isidentifier():
            try:
                with open(name) as handle:
                    source = handle.read()
            except OSError as exc:
                sys.stderr.write("mao profile: %s\n" % exc)
                return 1
        else:
            try:
                source = api._resolve_source(source)
            except ValueError as exc:
                sys.stderr.write("mao profile: %s\n" % exc)
                return 1
        pairs.append((name, source))

    results = pgo.profile_many(pairs, period=args.period, seed=args.seed,
                               jobs=args.jobs, entry_symbol=args.entry,
                               max_steps=args.max_steps)
    failed = [(name, error) for name, doc, error in results if doc is None]
    for name, error in failed:
        sys.stderr.write("mao profile: %s: %s\n" % (name, error))
    documents = [doc for _, doc, _ in results if doc is not None]
    if args.weight is not None:
        for doc in documents:
            doc["weight"] = args.weight
    if args.ingest and documents:
        store = pgo.ProfileStore(args.profile_dir)
        for doc in documents:
            entry = store.ingest(doc)
            sys.stderr.write("mao profile: ingested %s epoch=%d\n"
                             % (entry.digest[:12], entry.epoch))
    rendered = _json.dumps(documents[0] if len(documents) == 1
                           else documents, indent=2, sort_keys=True)
    if args.output:
        try:
            with open(args.output, "w") as handle:
                handle.write(rendered + "\n")
        except OSError as exc:
            sys.stderr.write("mao profile: %s\n" % exc)
            return 1
    else:
        sys.stdout.write(rendered + "\n")
    return 1 if failed else 0


def discover_main(argv: List[str]) -> int:
    """``mao discover`` — infer a processor's parameters (paper §IV).

    ``mao discover --seed 7`` runs the generated-microbenchmark harness
    against the seeded blinded profile and reports every parameter it
    recovered; ``mao discover --core skylake`` targets a registry
    profile instead.  ``-o profile.json`` writes a ``pymao.uarch/1``
    document every ``--core`` surface accepts.  Output is byte-identical
    at any ``--jobs`` count.
    """
    import argparse
    import json as _json

    parser = argparse.ArgumentParser(
        prog="mao discover",
        description="infer µarch parameters by running generated "
                    "microbenchmark ladders against a processor oracle")
    parser.add_argument("--seed", type=int, default=None, metavar="N",
                        help="discover blinded_profile(N) (the paper's "
                             "hidden-parameter experiment)")
    parser.add_argument("--core", default=None, metavar="CORE",
                        help="discover a named/inline profile instead of "
                             "a blinded seed (name or .json path)")
    parser.add_argument("--name", default=None, metavar="NAME",
                        help="name for the discovered profile")
    parser.add_argument("--jobs", type=_positive_int, default=1, metavar="N",
                        help="worker processes for the ladder tasks of "
                             "one stage (default 1)")
    parser.add_argument("--json", action="store_true",
                        help="emit the pymao.discover/1 document instead "
                             "of the summary")
    parser.add_argument("-o", "--output", default=None, metavar="FILE",
                        help="write the discovered pymao.uarch/1 profile "
                             "here (usable as --core FILE everywhere)")
    args = parser.parse_args(argv)

    if (args.seed is None) == (args.core is None):
        sys.stderr.write("mao discover: pass exactly one of --seed or "
                         "--core\n")
        return 2
    try:
        result = api.discover(core=args.core, seed=args.seed,
                              name=args.name, jobs=args.jobs)
    except ValueError as exc:
        sys.stderr.write("mao discover: %s\n" % exc)
        return 1

    if args.output:
        from repro.uarch import tables
        try:
            tables.save_profile(result.profile_doc(), args.output)
        except (OSError, ValueError) as exc:
            sys.stderr.write("mao discover: %s\n" % exc)
            return 1
    if args.json:
        _json.dump(result.to_dict(), sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    else:
        print(result.explain())
    return 0


def profiles_main(argv: List[str]) -> int:
    """``mao profiles`` — inspect the on-disk µarch profile registry.

    ``mao profiles list`` names every ``pymao.uarch/1`` document under
    ``repro/uarch/data/``; ``mao profiles show CORE`` prints one (a
    registry name or a ``.json`` path) after validation.
    """
    import argparse
    import json as _json

    from repro.uarch import tables

    parser = argparse.ArgumentParser(
        prog="mao profiles",
        description="list or show the versioned µarch profile data files")
    sub = parser.add_subparsers(dest="verb")
    sub.add_parser("list", help="name every registry profile")
    show = sub.add_parser("show", help="print one profile document")
    show.add_argument("core", help="profile name or .json path")
    args = parser.parse_args(argv)

    if args.verb == "list":
        for name in tables.profile_names():
            model = tables.get_profile(name)
            print("%-12s line=%dB width=%d ports=%d %s" % (
                name, model.decode_line_bytes, model.decode_width,
                model.num_ports,
                "lsd=%d-line" % model.lsd_max_lines if model.lsd_enabled
                else "no-lsd"))
        return 0
    if args.verb == "show":
        try:
            model = tables.resolve_core(args.core)
        except ValueError as exc:
            sys.stderr.write("mao profiles: %s\n" % exc)
            return 1
        _json.dump(tables.model_to_doc(model), sys.stdout, indent=2,
                   sort_keys=True)
        sys.stdout.write("\n")
        return 0
    parser.print_help(sys.stderr)
    return 2


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # Service verbs dispatch before argparse sees the argument list, so
    # `serve` is never mistaken for an input file.
    if argv and argv[0] == "serve":
        from repro.server.cli import serve_main
        return serve_main(argv[1:])
    if argv and argv[0] == "fleet":
        from repro.server.cli import fleet_main
        return fleet_main(argv[1:])
    if argv and argv[0] == "remote":
        from repro.server.cli import remote_main
        return remote_main(argv[1:])
    if argv and argv[0] == "predict":
        return predict_main(argv[1:])
    if argv and argv[0] == "tune":
        return tune_main(argv[1:])
    if argv and argv[0] == "profile":
        return profile_main(argv[1:])
    if argv and argv[0] == "discover":
        return discover_main(argv[1:])
    if argv and argv[0] == "profiles":
        return profiles_main(argv[1:])

    parser = build_arg_parser()
    args = parser.parse_args(argv)

    if args.version:
        print_version(sys.stdout)
        return 0

    for plugin in args.plugin:
        load_plugin(plugin)

    if args.list_passes:
        for name in registered_passes():
            print(name)
        return 0

    files = expand_inputs(args.input)
    if not files:
        parser.error("no input file")

    spec_items = []
    for spec in args.mao:
        spec_items.extend(parse_pass_spec(spec))

    if args.profile_spans:
        obs.profile.configure(args.profile_spans)
    tracing = bool(args.trace_out or args.profile_spans)
    was_enabled = obs.set_enabled(True) if tracing else obs.enabled()
    try:
        if len(files) > 1:
            status = _run_batch(args, parser, files, spec_items)
        else:
            status = _run_single(args, parser, files[0], spec_items)
    finally:
        if tracing:
            obs.set_enabled(was_enabled)

    if args.sim_stats:
        print_sim_stats(sys.stderr)
    if args.cache_stats:
        print_cache_stats(sys.stderr)
    if args.trace_out:
        sink = obs.JsonlSink(args.trace_out)
        try:
            obs.write_trace(sink, obs.finish_spans(),
                            argv=list(argv) if argv is not None
                            else sys.argv[1:],
                            input=files[0] if len(files) == 1 else files)
        finally:
            sink.close()
    return status


def _run_single(args, parser, input_path: str, spec_items) -> int:
    """The classic one-file flow (the paper's invocation style)."""
    with open(input_path) as handle:
        source = handle.read()
    if args.output and not any(name == "ASM" for name, _ in spec_items):
        spec_items = spec_items + [("ASM", {"o": args.output})]

    result = api.optimize(source, spec_items, filename=input_path)
    sim = None
    if args.sim:
        names = [f.name for f in result.unit.functions]
        entry = "main" if "main" in names or not names else names[0]
        try:
            sim = api.simulate(result.unit, args.sim, entry_symbol=entry)
        except ValueError as exc:
            sys.stderr.write("mao: --sim: %s\n" % exc)
            return 1

    if args.stats:
        for report in result.reports:
            if report.stats:
                stats = " ".join("%s=%d" % kv
                                 for kv in sorted(report.stats.items()))
                sys.stderr.write("%-12s %-24s %s\n"
                                 % (report.pass_name, report.scope, stats))
    if args.time:
        sys.stderr.write("parse: %.3fs  passes: %.3fs\n"
                         % (result.parse_s, result.passes_s))
    if sim is not None:
        sys.stderr.write("sim[%s]: cycles=%d instructions=%d ipc=%.2f\n"
                         % (args.sim, sim.cycles, sim.steps,
                            sim.stats.ipc()))
    if args.predict:
        from repro.uarch.static_model import PredictError
        try:
            p = api.predict(result.unit, args.predict)
            sys.stderr.write("predict[%s]: %.2f cycles/iter (%s-bound, "
                             "loop %s)\n"
                             % (args.predict, p.cycles, p.bottleneck,
                                p.loop_label or "<none>"))
        except PredictError as exc:
            sys.stderr.write("predict[%s]: unanalyzable: %s\n"
                             % (args.predict, exc))
        except ValueError as exc:
            sys.stderr.write("mao: --predict: %s\n" % exc)
            return 1
    return 0


def _batch_output_paths(names: List[str]) -> dict:
    """Map each batch input to its output path relative to ``-o DIR``.

    Unique basenames keep the flat one-directory layout.  When two
    inputs share a basename (``a/foo.s`` and ``b/foo.s``, routine in
    real build trees) the flat layout would silently overwrite one
    output with the other, so the mapping falls back to mirroring the
    inputs' directory structure relative to their deepest common prefix.
    """
    basenames = [os.path.basename(name) for name in names]
    if len(set(basenames)) == len(set(names)):
        return dict(zip(names, basenames))
    resolved = {name: os.path.abspath(name) for name in names}
    common = os.path.commonpath([os.path.dirname(path)
                                 for path in resolved.values()])
    return {name: os.path.relpath(path, common)
            for name, path in resolved.items()}


def _run_batch(args, parser, files: List[str], spec_items) -> int:
    """Corpus mode: many inputs through ``api.optimize_many``.

    Emission happens here from the (possibly cache-replayed) artifact
    text — ``-o DIR`` — not via an implicit ASM pass, so a warm run
    writes byte-identical outputs without re-running any pass.
    """
    if args.sim:
        parser.error("--sim is single-file only; simulate batch outputs "
                     "individually")

    batch = api.optimize_many(files, spec_items, jobs=args.jobs,
                              cache=not args.no_cache,
                              cache_dir=args.cache_dir,
                              predict_core=args.predict)

    if args.output:
        os.makedirs(args.output, exist_ok=True)
        out_rel = _batch_output_paths([item.name for item in batch])
        for item in batch:
            if item.ok:
                out_path = os.path.join(args.output, out_rel[item.name])
                os.makedirs(os.path.dirname(out_path), exist_ok=True)
                with open(out_path, "w") as handle:
                    handle.write(item.asm)
    if args.batch_summary:
        with open(args.batch_summary, "w") as handle:
            json.dump(batch.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    if args.stats:
        for item in batch:
            if item.pipeline is None:
                continue
            for report in item.pipeline.reports:
                if report.stats:
                    stats = " ".join("%s=%d" % kv
                                     for kv in sorted(report.stats.items()))
                    sys.stderr.write("%-20s %-12s %-24s %s\n"
                                     % (item.name, report.pass_name,
                                        report.scope, stats))
    if args.time:
        sys.stderr.write("batch: files=%d ok=%d errors=%d hits=%d "
                         "misses=%d elapsed=%.3fs\n"
                         % (len(batch), batch.ok_count, batch.error_count,
                            batch.cache_hits, batch.cache_misses,
                            batch.elapsed_s))

    if args.predict:
        for item in batch.ranked_by_prediction():
            p = item.prediction
            sys.stderr.write("predict[%s]: %-24s %8.2f cycles/iter "
                             "(%s-bound, loop %s)\n"
                             % (args.predict, item.name, p["cycles"],
                                p["bottleneck"], p["loop"] or "<none>"))
        for item in batch:
            if item.ok and item.predict_error is not None:
                sys.stderr.write("predict[%s]: %-24s unanalyzable: %s\n"
                                 % (args.predict, item.name,
                                    item.predict_error))

    for item in batch.errors:
        sys.stderr.write("mao: %s: %s\n" % (item.name, item.error))
    return 1 if batch.error_count else 0


def print_sim_stats(stream) -> None:
    """Dump the engine caches' counters from the metrics registry.

    Same byte format as before the registry existed; the values now come
    from one :func:`repro.obs.Registry.snapshot` (the collectors poll the
    caches), so this view, ``--trace-out``, and the bench event logs all
    report identical numbers.
    """
    snap = obs.REGISTRY.snapshot()
    stream.write("encoding-cache: hits=%d misses=%d bypasses=%d "
                 "hit-rate=%.1f%%\n"
                 % (snap["encoding_cache.hits"],
                    snap["encoding_cache.misses"],
                    snap["encoding_cache.bypasses"],
                    snap["encoding_cache.hit_rate"] * 100.0))
    stream.write("block-cache: compiled=%d hits=%d insns-compiled=%d "
                 "hit-rate=%.1f%%\n"
                 % (snap["block_cache.blocks_compiled"],
                    snap["block_cache.block_hits"],
                    snap["block_cache.instructions_compiled"],
                    snap["block_cache.hit_rate"] * 100.0))
    stream.write("fast-forward: loops=%d iterations=%d records=%d "
                 "validation-failures=%d\n"
                 % (snap["fast_forward.loops_entered"],
                    snap["fast_forward.iterations_fast_forwarded"],
                    snap["fast_forward.records_fast_forwarded"],
                    snap["fast_forward.validation_failures"]))


def print_cache_stats(stream) -> None:
    """Dump the artifact-cache counters from the metrics registry.

    Mirrors :func:`print_sim_stats`: one fixed text format (pinned by a
    regression test) rendered from ``repro.obs.REGISTRY``, so this view
    and the ``--trace-out`` metrics event report identical numbers.
    """
    registry = obs.REGISTRY
    hits = registry.counter_value("batch.cache.hit")
    misses = registry.counter_value("batch.cache.miss")
    looked_up = hits + misses
    rate = (hits / looked_up) if looked_up else 0.0
    stream.write("artifact-cache: hits=%d misses=%d stores=%d "
                 "evictions=%d hit-rate=%.1f%%\n"
                 % (hits, misses,
                    registry.counter_value("batch.cache.store"),
                    registry.counter_value("batch.cache.evict"),
                    rate * 100.0))
    stream.write("batch: files=%d errors=%d\n"
                 % (registry.counter_value("batch.files"),
                    registry.counter_value("batch.errors")))


if __name__ == "__main__":
    sys.exit(main())
