type t = {
  l1_latency : int;
  l2_latency : int;
  l3_latency : int;
  dram_latency : int;
  alu : int;
  branch : int;
  branch_miss : int;
  call : int;
  indirect_call : int;
  atomic_rmw : int;
  tls_lookup : int;
  alloc_fixed : int;
  unwind : int;
  per_byte_copy : float;
}

let default =
  {
    l1_latency = 4;
    l2_latency = 12;
    l3_latency = 38;
    dram_latency = 230;
    alu = 1;
    branch = 1;
    branch_miss = 15;
    call = 2;
    indirect_call = 18;
    atomic_rmw = 20;
    tls_lookup = 4;
    alloc_fixed = 25;
    unwind = 3800;
    per_byte_copy = 0.25;
  }
