module tsn_switch_tb (

);
    // smoke testbench generated alongside the design
    reg clk;
    reg rst_n;
    reg rx_valid;
    reg [60-1:0] rx_key;
    reg [16-1:0] rx_bytes;
    reg cfg_wr;
    reg [32-1:0] cfg_addr;
    reg [128-1:0] cfg_data;
    wire [3*32-1:0] tx_meta;
    tsn_switch_top dut (
        .clk(clk),
        .rst_n(rst_n),
        .rx_valid(rx_valid),
        .rx_key(rx_key),
        .rx_bytes(rx_bytes),
        .tx_meta(tx_meta),
        .cfg_wr(cfg_wr),
        .cfg_addr(cfg_addr),
        .cfg_data(cfg_data)
    );
    // 125 MHz clock
    always #4 clk = ~clk;
    initial begin
        clk = 1'b0;
        rst_n = 1'b0;
        rx_valid = 1'b0;
        rx_key = 0;
        rx_bytes = 16'd64;
        cfg_wr = 1'b0;
        cfg_addr = 0;
        cfg_data = 0;
        #40 rst_n = 1'b1;
        // program one unicast entry
        #8 cfg_wr = 1'b1;
        cfg_addr = 32'd1;
        cfg_data = 128'h2a;
        #8 cfg_wr = 1'b0;
        // present one frame key
        #8 rx_valid = 1'b1;
        rx_key = 60'h2a;
        #8 rx_valid = 1'b0;
        #400 $finish;
    end
endmodule
