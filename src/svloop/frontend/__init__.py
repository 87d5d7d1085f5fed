"""HDL frontend: parse, elaborate, and extract signatures for the
supported SystemVerilog subset."""
