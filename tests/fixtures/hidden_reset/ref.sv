module hidden_reset (
  input clk,
  input rst,
  input d,
  output q
);
  reg value;
  always @(posedge clk) begin
    if (rst) begin
      value <= d;
    end else begin
      value <= ~value;
    end
  end
  assign q = value;
endmodule
