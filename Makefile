# Tier-1 verification entry point (see ROADMAP.md).
#
# `dune build @doc` needs odoc, which the reference container does not
# ship; the doc leg is gated on its presence so `make verify` works both
# with and without it instead of failing the whole tier.

.PHONY: all verify test bench doc clean

all:
	dune build @all

verify:
	@ls test/corpus/*.aag >/dev/null 2>&1 || \
	  { echo "FAIL: test/corpus has no .aag entries (the fuzz repro corpus is mandatory; see docs/TESTING.md)"; exit 1; }
	dune build @all
	dune runtest
	@if command -v odoc >/dev/null 2>&1; then \
	  echo "odoc found: building API docs"; \
	  dune build @doc; \
	else \
	  echo "odoc not installed: skipping dune build @doc"; \
	fi

test:
	dune runtest

bench:
	dune exec bench/bench.exe -- --quick

doc:
	dune build @doc

clean:
	dune clean
