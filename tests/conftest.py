from __future__ import annotations

import pytest

from svsec.frontend import parse_source
from svsec.ir.elaborate import elaborate

COUNTER = """\
module counter(
  input logic clk_in,
  input logic rst_n_in,
  input logic en_in,
  output logic [3:0] count_out
);

  always_ff @(posedge clk_in or negedge rst_n_in) begin
    if (!rst_n_in) begin
      count_out <= 4'h0;
    end else if (en_in) begin
      count_out <= count_out + 4'h1;
    end
  end
endmodule
"""


def pipeline_design(depth: int, width: int, masked_bit: int) -> str:
    """A depth-stage register pipeline whose input has one bit masked.

    `!q_out[b]` holds, and needs k = depth, when b is the masked bit; for
    any other bit it fails at exactly that depth.
    """
    regs = [f"s{i}_q" for i in range(depth - 1)] + ["q_out"]
    mask = ((1 << width) - 1) & ~(1 << masked_bit)
    lines = ["module pipe(",
             "  input logic clk_in,",
             "  input logic rst_n_in,",
             f"  input logic [{width - 1}:0] d_in,",
             f"  output logic [{width - 1}:0] q_out",
             ");"]
    lines += [f"  logic [{width - 1}:0] {r};" for r in regs[:-1]]
    lines += ["  always_ff @(posedge clk_in or negedge rst_n_in) begin",
              "    if (!rst_n_in) begin"]
    lines += [f"      {r} <= {width}'d0;" for r in regs]
    lines += ["    end else begin",
              f"      {regs[0]} <= d_in & {width}'d{mask};"]
    lines += [f"      {regs[i]} <= {regs[i - 1]};" for i in range(1, depth)]
    lines += ["    end", "  end", "endmodule"]
    return "\n".join(lines) + "\n"


def compile_ts(source: str, top: str):
    unit, diags = parse_source(source)
    assert unit is not None, [d.message for d in diags]
    ts, line_map, ediags = elaborate(unit, top)
    assert ts is not None, [d.message for d in ediags]
    return ts, line_map


@pytest.fixture
def counter_ts():
    ts, _ = compile_ts(COUNTER, "counter")
    return ts
