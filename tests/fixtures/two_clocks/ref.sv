module two_clocks (
  input clk,
  input clk2,
  input rst,
  input d,
  output q,
  output q2
);
  reg a;
  reg b;
  always @(posedge clk or posedge rst) begin
    if (rst) begin
      a <= 1'b0;
    end else begin
      a <= d;
    end
  end
  always @(posedge clk2) begin
    b <= a;
  end
  assign q = a;
  assign q2 = b;
endmodule
