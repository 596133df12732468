"""The column-codegen memo is a bounded LRU that never changes results.

``column_exec._CODEGEN_CACHE`` memoises generated block functions by
instruction shape.  It is process-global, so it holds at most
``_CODEGEN_CACHE_CAP`` entries; with the cap forced to one, every
other block is evicted and compiled again, and the statistics must
not move.
"""

from repro.arch import column_exec
from repro.eval.engines import WORKLOADS
from repro.isa.assembler import assemble

#: Both rebuild their programs per run, so each run reaches codegen.
KERNELS = ("mixed_dividers", "ddc_pipeline")


def _run_all(engine: str) -> list:
    return [WORKLOADS[key][1](engine) for key in KERNELS]


def test_eviction_recompiles_and_results_stay_identical(monkeypatch):
    expected = _run_all("reference")
    assert _run_all("compiled") == expected

    compiles = []
    uncached = column_exec._codegen_block_uncached

    def counting(instrs):
        compiles.append(instrs)
        return uncached(instrs)

    monkeypatch.setattr(column_exec, "_codegen_block_uncached", counting)
    monkeypatch.setattr(column_exec, "_CODEGEN_CACHE", {})
    monkeypatch.setattr(column_exec, "_DISPATCH_CACHE", {})
    monkeypatch.setattr(column_exec, "_CODEGEN_CACHE_CAP", 1)

    assert _run_all("compiled") == expected
    first_pass = len(compiles)
    assert _run_all("compiled") == expected
    assert len(compiles) > first_pass  # evicted blocks were rebuilt
    assert len(column_exec._CODEGEN_CACHE) == 1


def test_hit_refreshes_recency(monkeypatch):
    monkeypatch.setattr(column_exec, "_CODEGEN_CACHE", {})
    monkeypatch.setattr(column_exec, "_CODEGEN_CACHE_CAP", 2)
    a, b, c = (
        assemble(f"addi r1, r1, {imm}").instructions for imm in (1, 2, 3)
    )
    key = column_exec._codegen_key
    compiled_a = column_exec._codegen_block(a)
    column_exec._codegen_block(b)
    assert column_exec._codegen_block(a) is compiled_a  # a hit
    column_exec._codegen_block(c)  # evicts b, the least recently used
    assert list(column_exec._CODEGEN_CACHE) == [key(a), key(c)]
