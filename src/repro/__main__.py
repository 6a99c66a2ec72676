"""``python -m repro``: package info and entry points."""
import sys

from repro import __version__


def main() -> int:
    print(f"repro {__version__} — Communication-Avoiding Dynamical Core "
          f"of an Atmospheric GCM (ICPP 2018 reproduction)")
    print()
    print("entry points:")
    print("  python -m repro.bench.figures all   every figure and table")
    print("  python -m repro.bench.figures --json [f.json]  machine-readable report")
    print("  python examples/quickstart.py        run the core")
    print("  pytest tests/                        the test suite")
    print("  python3 benchmarks/e2e/run.py        the repo benchmark")
    print()
    print("docs: README.md DESIGN.md EXPERIMENTS.md docs/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
