(** The paper's two testbed machines (§4.2).

    The cache parameters are the levels one core's data accesses pass
    through, not the chip totals of a spec sheet: every simulated CPU
    gets its own L1, L2 and L3, including the L3 the real chip shares.

    - Dell R415: dual 2.2 GHz AMD Opteron 4122 (4 cores each). Modelled
      per core: a 64 KiB 2-way L1, a 512 KiB 8-way L2 and a 16-way L3
      given as 6 MiB, which {!Cache.create} rounds down to 4,096 sets,
      so 4 MiB is in effect. An older, narrow core: 2-wide retire,
      modest branch predictor, higher memory latencies. The paper measures
      a <0.8% median throughput effect here.

    - Dell R350: 2.8 GHz Intel Xeon E-2378G (8 cores / 16 threads).
      Modelled per core: a 48 KiB 12-way L1, a 2 MiB 16-way L2 and a
      16 MiB 16-way L3. A modern wide core: 4-wide retire,
      large gshare-style predictor, aggressive speculation. The paper
      measures an almost unmeasurable (<0.1%) effect here and attributes
      it to "improved caching, branch prediction, and speculation" — which
      is exactly what these parameters encode. *)

let r415 : Model.params =
  {
    name = "r415";
    description = "Dell R415, 2x AMD Opteron 4122 @ 2.2 GHz";
    freq_ghz = 2.2;
    issue_width = 2;
    line_size = 64;
    l1_size = 64 * 1024;
    l1_assoc = 2;
    l1_latency = 3;
    l2_size = 512 * 1024;
    l2_assoc = 8;
    l2_latency = 14;
    l3_size = 6 * 1024 * 1024;
    l3_assoc = 16;
    l3_latency = 45;
    mem_latency = 230;
    predictor_entries_log2 = 10;
    predictor_history_bits = 8;
    mispredict_penalty = 13;
    call_overhead = 3;
    syscall_overhead = 420;
    mmio_latency = 260;
    mmio_write_latency = 75;
    speculative_overlap = 0.50;
  }

let r350 : Model.params =
  {
    name = "r350";
    description = "Dell R350, Intel Xeon E-2378G @ 2.8 GHz";
    freq_ghz = 2.8;
    issue_width = 4;
    line_size = 64;
    l1_size = 48 * 1024;
    l1_assoc = 12;
    l1_latency = 1;
    l2_size = 2 * 1024 * 1024;
    l2_assoc = 16;
    l2_latency = 12;
    l3_size = 16 * 1024 * 1024;
    l3_assoc = 16;
    l3_latency = 38;
    mem_latency = 190;
    predictor_entries_log2 = 14;
    predictor_history_bits = 16;
    mispredict_penalty = 16;
    call_overhead = 2;
    syscall_overhead = 500;
    mmio_latency = 220;
    mmio_write_latency = 60;
    speculative_overlap = 0.20;
  }

let by_name = function
  | "r415" -> Some r415
  | "r350" -> Some r350
  | _ -> None

let all = [ r415; r350 ]
