"""The measuring process: replays one generated request stream through the
rigidtori batch front end as a closed loop with one client.

    python3 perfbench/serve.py --docs DIR --reports FILE [--trace]
    python3 perfbench/serve.py --docs DIR --setup-only

Every request of DIR/requests.json is served once, in stream order, by the
rigidtori.cli runners in-process, with its reports serialized by
schemas.dump_report.  Before each request and after the last, outside the
timed region, a fixed reference kernel is timed too, so that run.py can
scale each request's time to a fixed host speed (see reference()).  Between requests, outside the timed region, the
reports are appended to FILE (one JSON line per request) for
perfbench/checks.py, which runs in another process, so that this process
holds only the program and its input.  The last stdout line is a JSON
summary read by perfbench/run.py.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def setup(docs_dir):
    """Import the program and load the documents: what a fresh serving
    process does before its first request."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from rigidtori import cli
    with open(os.path.join(docs_dir, "requests.json")) as fh:
        requests = json.load(fh)
    return cli, requests


_REFERENCE_MATRIX = [[Fraction((7 * i + 3 * j) % 11 + 1, (i + 2 * j) % 5 + 1)
                      for j in range(7)] for i in range(7)]


def reference():
    """Seconds taken by a fixed piece of work independent of rigidtori:
    exact Gauss-Jordan elimination of a 7x7 rational matrix, nine times,
    which is the kind of small-Fraction interpreter work that dominates
    typical requests.  On a shared host the speed of the CPU drifts by a
    factor of two within seconds; this kernel's time, taken next to a
    request, follows that request's slowdown."""
    start = time.perf_counter()
    for _ in range(9):
        a = [row[:] for row in _REFERENCE_MATRIX]
        for c in range(len(a)):
            p = next(r for r in range(c, len(a)) if a[r][c] != 0)
            a[c], a[p] = a[p], a[c]
            inverse = 1 / a[c][c]
            a[c] = [x * inverse for x in a[c]]
            for r in range(len(a)):
                if r != c and a[r][c] != 0:
                    f = a[r][c]
                    a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return time.perf_counter() - start


class Stream:
    """Request handling: parse the document, call the runners its kind
    needs, serialize every report.  An action document (it has a rank) is
    decided by run_rigidity, then run_polarize if rigid, else run_deform; a
    standalone-field document goes to run_polarize; a group document to
    run_analyze."""

    def __init__(self, cli):
        self.cli = cli
        parser = cli.build_parser()
        self.defaults = parser.parse_args(["analyze"])
        self.deform = parser.parse_args(
            ["deform", "--epsilon", "10", "--max-denominator", "256"])

    def serve(self, text):
        """Returns (outcome, reports): outcome is "ok" or the name of the
        declared domain error that answered the request.  The reports made
        before a domain error are kept."""
        cli = self.cli
        doc = json.loads(text)
        reports = []
        try:
            if "rank" in doc:
                rigidity = cli.run_rigidity(doc, self.defaults)
                reports.append(cli.dump_report(rigidity))
                if rigidity["result"]["is_rigid"]:
                    report = cli.run_polarize(doc, self.defaults)
                else:
                    report = cli.run_deform(doc, self.deform)
            elif "polynomial" in doc:
                report = cli.run_polarize(doc, self.defaults)
            else:
                report = cli.run_analyze(doc, self.defaults)
            reports.append(cli.dump_report(report))
            return "ok", reports
        except cli.DOMAIN_ERRORS as exc:
            reports.append(cli.dump_report({"error": {
                "error": type(exc).__name__, "message": str(exc)}}))
            return type(exc).__name__, reports


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--docs", required=True)
    parser.add_argument("--reports")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    cli, requests = setup(args.docs)
    setup_s = time.perf_counter() - _T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        sys.path.insert(0, HERE)
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    stream = Stream(cli)

    latencies, references = [], []
    with open(args.reports, "w") as out:
        for index, text in enumerate(requests):
            references.append(reference())
            if tracer:
                tracer.begin_request(index)
            start = time.perf_counter()
            try:
                outcome, reports = stream.serve(text)
                record = {"outcome": outcome, "reports": reports}
            except Exception as exc:  # noqa: BLE001 - every failure is counted
                record = {"error": type(exc).__name__}
            latencies.append(time.perf_counter() - start)
            if tracer:
                tracer.end_request()
            out.write(json.dumps(record) + "\n")
    references.append(reference())

    result = {
        "setup_s": setup_s,
        "served_s": sum(latencies),
        "latencies": latencies,
        "references": references,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        tracer.uninstall()
        result["layers"] = tracer.layer_metrics()
        tracer.write_spans(os.path.join(args.docs, "spans.json"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
