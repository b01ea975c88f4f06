"""One benchmark task, run in a fresh interpreter.

    python3 child.py TRACE KIND [ARGS...]

TRACE is "-" to run untraced, or the path the span file is written to.
KIND is one of:

  import          import sympkit, print the monotonic clock, exit
  cli ARGS...     run `sympkit ARGS... --json` through sympkit.cli.main
  rou A [symplectic]
                  call hecke_l.rou_charpolys(A) as a library function and
                  print {"results": ..., "assertions": []}
  probes SEED     run the kernel probes (tracing run only)

sympkit is imported from the PYTHONPATH the parent sets.  Timestamps use
time.monotonic, which is one clock for every process on the machine, so the
parent can subtract its own launch stamp.
"""

import time

_T_START = time.monotonic()

import json  # noqa: E402
import sys  # noqa: E402


def _factor_vectors(factor):
    "Coefficients of T^0..T^deg, each as its list of power-basis entries."
    out = []
    for k in range(factor.degree + 1):
        c = factor.coeff(k)
        entries = c.coeffs if hasattr(c, "coeffs") else (c,)
        out.append([str(x) for x in entries])
    return out


def _run_rou(args):
    import hashlib

    import sympkit.hecke_l as hecke_l

    a = int(args[0])
    symplectic = args[1:] == ["symplectic"]
    factors = hecke_l.rou_charpolys(a, symplectic_only=symplectic)
    canon = sorted(json.dumps(_factor_vectors(f)) for f in factors)
    digest = hashlib.sha256("\n".join(canon).encode()).hexdigest()
    report = {"results": {"A": a, "symplectic_only": symplectic,
                          "count": len(factors), "factors_sha256": digest},
              "assertions": []}
    print(json.dumps(report))
    return 0


def main(argv):
    trace_path, kind, args = argv[0], argv[1], argv[2:]
    if kind == "import":
        import sympkit  # noqa: F401
        print(repr(time.monotonic()))
        return 0
    import sympkit.cli
    import_done = time.monotonic()
    tracer = None
    if trace_path != "-":
        import tracer as tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    try:
        if kind == "cli":
            code = sympkit.cli.main(args + ["--json"])
        elif kind == "rou":
            code = _run_rou(args)
        elif kind == "probes":
            import probes
            print(json.dumps(probes.run_all(int(args[0]))))
            code = 0
        else:
            print("unknown task kind %r" % (kind,), file=sys.stderr)
            code = 2
    finally:
        sys.stdout.flush()
        if tracer is not None:
            tracer.dump(trace_path, start=_T_START, import_done=import_done)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
